"""Workload ``search``: a seeded stream of ``find_countermodel`` jobs.

Jobs are the searches ``nbhd valid`` runs.  Each job searches under
``required_constraints(LogicDescriptor({s'}))`` for an extension s'.
When the target is a base schema, or is s' itself, the target is sound
on the filtered class: the job searches its whole space and must find
nothing.  The job list has a fixed mix of templates; the seed draws
agent ids, pool order, formulas, random-mode seeds and, for the drawn
jobs, the target and s'.  So the cost of a list, and which kind of job
sits at its median and 90th percentile, vary little between seeds:

* the criterion-05 job (index 70) and the criterion-06 job (index 10);
* the tail: two whole 2-agent exhaustive spaces (tg under reflexive,
  rmg under monotone; 65 552 candidates each);
* matched exhaustive 1-agent schema jobs (every extension four times,
  the base schemas and six definable-only twice), most of the list, so
  the median lies among them;
* matched random-mode schema jobs on 2-4 worlds and 2-3 agents (eight
  templates, twice each), which hold the 90th percentile: of the 100
  jobs, ten lie beyond it;
* drawn jobs, whose outcome is left to chance: exhaustive 1-agent
  schema and 1-agent, 1-atom formula jobs, and short random-mode jobs.
"""

from __future__ import annotations

import random
from time import perf_counter

from nbhd import (
    CounterExample, Group, LogicDescriptor, SchemaTarget, SearchBounds,
    SearchResult, check_condition, check_schema_semantically,
    counterexample_to_dict, find_countermodel, format_condition,
    model_to_dict, parse, parse_condition, parse_schema,
    required_constraints, truth_set,
)

import gen
import layers

TAIL_KINDS = ("tg", "rmg")
DEFINABLE_KINDS = ("tg", "pg", "rmg", "cg", "nec", "di")
# (kind, agents, max worlds, trials) of the matched random-mode jobs;
# the trials give each about the same cost, so that the 90th percentile
# falls inside one cluster.
RANDOM_MATCHED = (
    ("b3", 3, 3, 50), ("b1", 3, 3, 200), ("cg", 2, 3, 250),
    ("rmg", 2, 3, 300), ("tg", 3, 4, 225), ("di", 3, 3, 300),
    ("sa", 2, 4, 250), ("nec", 2, 3, 450),
)
DRAWN_E1_SCHEMA = 8
DRAWN_E1_FORMULA = 8
DRAWN_RANDOM = 4
DRAWN_TRIALS = 60
CLI_CALLS = 9
_BASE = ("b1", "b2", "b3", "b4")
_POOL_KINDS = ("tg", "pg", "rmg", "cg", "sa")
_AGENT_KINDS = ("nec", "conec", "p", "cop", "di")


def _extensions(agents) -> list[str]:
    return list(_POOL_KINDS) + [f"{k}:{a}" for k in _AGENT_KINDS
                                for a in agents]


def _name(kind: str, agent: int) -> str:
    return f"{kind}:{agent}" if kind in _AGENT_KINDS else kind


def _spec(rng, *, target, formula=False, agents, atoms=(), pool=None,
          mode="exhaustive", max_worlds=2, sets="all-subsets", ext=None,
          constraints=None, trials=None):
    spec = {"target": target, "formula": formula, "agents": list(agents),
            "atoms": list(atoms), "pool": pool, "mode": mode,
            "max_worlds": max_worlds, "sets": sets, "ext": ext,
            "constraints": constraints}
    if mode == "random":
        spec["trials"] = trials
        spec["seed"] = rng.randrange(1 << 31)
    return spec


def job_specs(seed: int) -> list[dict]:
    """The job list for ``seed``, as plain data."""
    rng = random.Random(seed)
    body = []
    for kind in TAIL_KINDS:
        a, b = sorted(rng.sample((1, 2, 3), 2))
        pool = [[a], [b], [a, b]]
        rng.shuffle(pool)
        body.append(_spec(rng, target=kind, agents=(a, b), pool=pool,
                          ext=kind) | {"tail": True})
    matched = [(k, "all-subsets") for k in _POOL_KINDS + _AGENT_KINDS] * 4
    matched += [(k, "all-subsets") for k in _BASE] * 2
    matched += [(k, "definable-only") for k in DEFINABLE_KINDS] * 2
    for kind, sets in matched:
        a = rng.choice((1, 2, 3))
        target = _name(kind, a)
        body.append(_spec(rng, target=target, agents=(a,), pool=[[a]],
                          sets=sets,
                          ext=target if kind not in _BASE
                          else rng.choice(_extensions((a,)))))
    for kind, n_agents, worlds, trials in RANDOM_MATCHED * 2:
        agents = sorted(rng.sample((1, 2, 3, 4), n_agents))
        target = _name(kind, rng.choice(agents))
        body.append(_spec(
            rng, target=target, agents=agents, mode="random",
            max_worlds=worlds, trials=trials,
            ext=target if kind not in _BASE
            else rng.choice(_extensions(agents))))
    for _ in range(DRAWN_E1_SCHEMA):
        a = rng.choice((1, 2, 3))
        exts = _extensions((a,))
        body.append(_spec(rng, target=rng.choice(exts), agents=(a,),
                          pool=[[a]], ext=rng.choice(exts)))
    for _ in range(DRAWN_E1_FORMULA):
        a = rng.choice((1, 2, 3))
        body.append(_spec(
            rng, target=gen.formula(rng, ["p"], (a,), 3), formula=True,
            agents=(a,), atoms=("p",), ext=rng.choice(_extensions((a,)))))
    for i in range(DRAWN_RANDOM):
        agents = sorted(rng.sample((1, 2, 3, 4), rng.choice((2, 3))))
        exts = _extensions(agents)
        common = dict(agents=agents, mode="random", trials=DRAWN_TRIALS,
                      max_worlds=rng.randint(2, 3), ext=rng.choice(exts))
        if i % 2:
            body.append(_spec(rng, target=gen.formula(
                rng, ["p", "q"], agents, 3), formula=True, atoms=("p", "q"),
                **common))
        else:
            body.append(_spec(rng, target=rng.choice(exts), **common))
    rng.shuffle(body)
    fixed = [
        # criterion 05: consistency of each agent does not transfer to
        # the pair; the first countermodel is at index 70.
        _spec(rng, target="pg", agents=(1, 2), pool=[[1, 2]],
              constraints=["p:1", "p:2"]),
        # criterion 06: unrestricted aggregation fails at index 10.
        _spec(rng, target="cg", agents=(1,), pool=[[1]]),
    ]
    return fixed + body


class Job:
    __slots__ = ("spec", "target", "bounds", "sound")

    def __init__(self, spec: dict):
        self.spec = spec
        agents = tuple(spec["agents"])
        if spec["constraints"] is not None:
            constraints = tuple(parse_condition(c)
                                for c in spec["constraints"])
        elif spec["ext"] is not None:
            constraints = required_constraints(
                LogicDescriptor(frozenset({parse_schema(spec["ext"])})),
                agents)
        else:
            constraints = ()
        if spec["formula"]:
            self.target = parse(spec["target"])
        else:
            pool = spec["pool"]
            self.target = SchemaTarget(
                parse_schema(spec["target"]), spec["sets"],
                tuple(Group(tuple(g)) for g in pool) if pool else None)
        self.bounds = SearchBounds(
            max_worlds=spec["max_worlds"], agents=agents,
            atoms=tuple(spec["atoms"]), mode=spec["mode"],
            trials=spec.get("trials") or 1000, seed=spec.get("seed"),
            frame_constraints=constraints)
        self.sound = (not spec["formula"]
                      and (spec["target"] in _BASE
                           or spec["target"] == spec["ext"]))

    def argv(self) -> list[str]:
        """The ``nbhd valid`` request for this job."""
        s, b = self.spec, self.bounds
        argv = ["valid", "--formula" if s["formula"] else "--schema",
                s["target"], "--agents", gen.group_text(b.agents),
                "--max-worlds", str(b.max_worlds), "--mode", b.mode,
                "--constraints",
                ";".join(format_condition(c) for c in b.frame_constraints)]
        if s["formula"]:
            argv += ["--atoms", ",".join(b.atoms)]
        else:
            argv += ["--sets", s["sets"]]
            if s["pool"]:
                argv += ["--pool", ";".join(gen.group_text(g)
                                            for g in s["pool"])]
        if b.mode == "random":
            argv += ["--trials", str(b.trials), "--seed", str(b.seed)]
        return argv + ["--json"]


class Inputs:
    def __init__(self, seed: int):
        self.jobs = [Job(spec) for spec in job_specs(seed)]
        # The two tail jobs take two thirds of a whole pass; later
        # passes run one of them in turn, so that the other jobs, which
        # hold the median and the 90th percentile, get more samples.
        self.rotated = [i for i, j in enumerate(self.jobs)
                        if j.spec.get("tail")]
        rng = random.Random(seed)
        cheap = [j for j in self.jobs[2:]
                 if j.bounds.mode == "exhaustive" and len(j.bounds.agents) == 1]
        picks = self.jobs[:2] + rng.sample(cheap, CLI_CALLS - 2)
        self.cli = [(j.argv(), None, None) for j in picks]


def build(seed: int, workdir: str) -> Inputs:
    return Inputs(seed)


def run_pass(inputs: Inputs, items=None):
    outputs, samples = [], []
    for job in layers.pick(inputs.jobs, items):
        start = perf_counter()
        try:
            out = find_countermodel(job.target, job.bounds)
        except Exception as exc:  # counted as a failed item
            out = ("error", repr(exc))
        samples.append((1, perf_counter() - start))
        outputs.append(out)
    return outputs, samples


def traced_pass(inputs: Inputs, tracer):
    """The same jobs, with the library's calls under spans."""
    outputs = []
    yielded = "search.exhaustive_models.yielded"
    with layers.nested(tracer):
        for i, job in enumerate(inputs.jobs):
            tracer.item = i
            before = tracer.counts[yielded]
            try:
                out = tracer.call("search.find_countermodel",
                                  find_countermodel, job.target, job.bounds)
            except Exception as exc:
                out = ("error", repr(exc))
            if isinstance(out, SearchResult):
                tracer.count("search.find_countermodel.found")
            elif out is None and job.bounds.mode == "exhaustive":
                # searched its whole space: feeds the filter ratio
                tracer.count("search.exhaustive_models.whole_yielded",
                             tracer.counts[yielded] - before)
                tracer.count("search.exhaustive_models.candidates",
                             candidates(job.bounds))
            outputs.append(out)
    return outputs


def candidates(bounds) -> int:
    """How many models exhaustive enumeration visits for ``bounds``."""
    total = 0
    for n in range(1, bounds.max_worlds + 1):
        total += ((1 << n) ** len(bounds.atoms)
                  * (1 << (1 << n)) ** (len(bounds.agents) * n))
    return total


def record(inputs: Inputs, outputs) -> list:
    out = []
    for i, result in enumerate(outputs):
        if not isinstance(result, SearchResult):
            out.append({"job": i, "found": False, "error": result})
            continue
        entry = {"job": i, "model": model_to_dict(result.model)}
        entry.update({"draw": result.draw} if result.draw is not None
                     else {"index": result.index})
        w = result.witness
        entry["witness"] = (counterexample_to_dict(w, result.model)
                            if isinstance(w, CounterExample) else w)
        out.append(entry)
    return out


_CRIT05_WITNESS = CounterExample("w1", (("G", Group.of(1, 2)),))


def known_answers(inputs: Inputs, outputs) -> list[str]:
    problems = []
    crit05, crit06 = outputs[0], outputs[1]
    if not (isinstance(crit05, SearchResult) and crit05.index == 70
            and crit05.witness == _CRIT05_WITNESS):
        problems.append(f"criterion-05 job: expected index 70 at "
                        f"{_CRIT05_WITNESS}, got {crit05!r:.200}")
    if not (isinstance(crit06, SearchResult) and crit06.index == 10):
        problems.append(f"criterion-06 job: expected index 10, "
                        f"got {crit06!r:.200}")
    for i, (job, result) in enumerate(zip(inputs.jobs, outputs)):
        if isinstance(result, tuple):
            problems.append(f"job {i}: raised {result[1]}")
        elif job.sound and result is not None:
            problems.append(f"job {i}: {job.spec['target']} is sound under "
                            f"{job.spec['ext']} but a countermodel was "
                            "found")
        elif result is not None:
            problems += [f"job {i}: {p}" for p in _recheck(job, result)]
    return problems


def _recheck(job, result) -> list[str]:
    """The witness must refute the target and the model must satisfy
    the constraints, checked directly on the model found."""
    m, problems = result.model, []
    for c in job.bounds.frame_constraints:
        if not check_condition(m, c).holds:
            problems.append(f"model violates {format_condition(c)}")
    t = job.target
    if isinstance(t, SchemaTarget):
        verdict = check_schema_semantically(m, t.schema, t.mode, t.pool)
        if verdict.valid or verdict.counterexample != result.witness:
            problems.append("witness does not refute the schema")
    else:
        held = truth_set(m, t)
        first = next((w.label for w in m.worlds if w.index not in held), None)
        if first != result.witness:
            problems.append("witness is not the first world refuting "
                            "the formula")
    return problems
