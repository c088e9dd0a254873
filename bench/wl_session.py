"""Workload ``session``: one client issuing CLI requests in a closed loop.

Each request is an in-process ``nbhd.cli.main(argv)`` call with stdout
and stderr captured; the next is sent when the previous returns.  The
mix per request list is fixed (counts below) and the parameters are
drawn from the seed: ``check``, ``schema`` (all-subsets and
definable-only), ``frame`` and ``close`` on the fixtures M1-M4 and
NONREFLEXIVE and on random 3-6-world models; ``proof`` on the shipped
certificates, on generated proofs whose widest ``taut`` line has 10-14
units and on three mutated proofs; ``reproduce lemma3.1`` and ``sec5.2``.
Model and proof files are written to a working directory at set-up and
named relative to it, so outputs do not depend on where it lives.
"""

from __future__ import annotations

import copy
import json
import os
import random
from time import perf_counter

from nbhd import (
    FIXTURE_NAMES, CERTIFICATE_NAMES, IntersectionClosed, Monotone,
    builtin_certificate, check_condition, fixture, load_model, model_to_dict,
)

import gen
import layers

CHECKS = 26
SCHEMAS = 18
DEFINABLE = 10
FRAMES = 10
CLOSES = 5
# Units of the generated proofs.  With 100 requests in all, ten lie
# beyond the 90th percentile, which falls in the middle of the sixteen
# 12-unit proofs (fifteen plus a mutated one).
TAUT_UNITS = (10, 11, 13, 14) + (12,) * 15
RANDOM_MODELS = 8
CLI_CALLS = 9

_FIXTURE_ATOMS = {"NONREFLEXIVE": ("p", "q")}
_SCHEMA_NAMES = ("b1", "b2", "b3", "b4", "tg", "pg", "rmg", "cg", "sa")
_CONDITIONS = ("reflexive", "bincons", "monotone", "intclosed")


class Request:
    __slots__ = ("spec", "argv", "expect")

    def __init__(self, spec: dict, expect=None):
        self.spec = spec
        self.argv = _argv(spec)
        # (exit code, required last stdout line or None) when known
        self.expect = expect


def _argv(spec: dict) -> list[str]:
    cmd = spec["cmd"]
    if cmd == "reproduce":
        argv = ["reproduce", spec["target"]]
    elif cmd == "check":
        argv = ["check", "--model", spec["model"], "--formula", spec["formula"]]
        if spec["world"] is not None:
            argv += ["--world", spec["world"]]
    elif cmd == "schema":
        argv = ["schema", "--model", spec["model"], "--schema",
                spec["schema"], "--mode", spec["mode"]]
        if spec["pool"]:
            argv += ["--pool", ";".join(gen.group_text(g)
                                        for g in spec["pool"])]
    elif cmd == "frame":
        argv = ["frame", "--model", spec["model"], "--condition",
                spec["condition"]]
    elif cmd == "close":
        return ["close", "--model", spec["model"], "--" + spec["closure"],
                "-o", spec["out"]]
    else:
        argv = ["proof", "--file", spec["file"]]
    return argv + (["--json"] if spec["json"] else [])


class _ModelInfo:
    def __init__(self, path, labels, atoms, agents, agent_model):
        self.path, self.labels, self.atoms = path, labels, atoms
        self.agents, self.agent_model = agents, agent_model


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def _files(rng, workdir: str) -> tuple[list, dict]:
    for sub in ("models", "proofs", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    models = []
    for name in FIXTURE_NAMES:
        data = model_to_dict(fixture(name))
        path = f"models/{name}.json"
        _write_json(os.path.join(workdir, path), data)
        agents = (1, 2) if "agents" in data else (1, 2, 3)
        models.append(_ModelInfo(path, data["worlds"],
                                 _FIXTURE_ATOMS.get(name, ("p", "q", "r")),
                                 agents, "agents" in data))
    for i in range(RANDOM_MODELS):
        n = 3 + i % 4
        data = gen.model_dict(rng, n, (1, 2, 3), ("p", "q"))
        path = f"models/r{i}.json"
        _write_json(os.path.join(workdir, path), data)
        models.append(_ModelInfo(path, data["worlds"], ("p", "q"), (1, 2, 3),
                                 True))
    proofs = {}
    for name in CERTIFICATE_NAMES:
        proofs[name] = builtin_certificate(name)
    for i, k in enumerate(TAUT_UNITS):
        proofs[f"taut{i}_{k}"] = gen.tautology_proof(rng, k, (1, 2, 3))
    bad = copy.deepcopy(proofs[f"taut4_{TAUT_UNITS[4]}"])
    bad["lines"][4]["just"]["from"] = [4, 2]
    proofs["bad_mp"] = bad
    bad = copy.deepcopy(proofs[f"taut1_{TAUT_UNITS[1]}"])
    bad["lines"][0]["just"]["schema"] = "b3"
    proofs["bad_axiom"] = bad
    # ~(u1 & (u2 & ...)) is false only when every unit is true
    bad = copy.deepcopy(proofs[f"taut5_{TAUT_UNITS[5]}"])
    conj = bad["lines"][1]["formula"].rsplit(" -> ", 1)[0]
    bad["lines"][1]["formula"] = f"~{conj}"
    proofs["bad_taut"] = bad
    for name, data in proofs.items():
        _write_json(os.path.join(workdir, f"proofs/{name}.json"), data)
    return models, proofs


def requests(seed: int, workdir: str) -> list[Request]:
    rng = random.Random(seed)
    models, proofs = _files(rng, workdir)
    agent_models = [m for m in models if m.agent_model]
    out: list[Request] = []

    def flag(p):
        return rng.random() < p

    for _ in range(CHECKS):
        m = rng.choice(models)
        out.append(Request({
            "cmd": "check", "model": m.path, "json": flag(0.25),
            "formula": gen.formula(rng, list(m.atoms), m.agents, 3),
            "world": rng.choice(m.labels) if flag(1 / 3) else None}))
    for i in range(SCHEMAS + DEFINABLE):
        m = rng.choice(models)
        a = rng.choice(m.agents)
        name = rng.choice(_SCHEMA_NAMES + (f"nec:{a}", f"conec:{a}",
                                           f"p:{a}", f"cop:{a}", f"di:{a}"))
        pool = None
        if flag(0.5):
            pool = sorted({gen.random_group(rng, m.agents) for _ in range(3)})
            pool = [list(g) for g in pool]
        out.append(Request({
            "cmd": "schema", "model": m.path, "schema": name, "pool": pool,
            "mode": "all-subsets" if i < SCHEMAS else "definable-only",
            "json": flag(0.25)}))
    for _ in range(FRAMES):
        m = rng.choice(models)
        a = rng.choice(m.agents)
        cond = rng.choice(_CONDITIONS + (
            f"nec:{a}", f"conec:{a}", f"p:{a}", f"cop:{a}",
            "pg:" + gen.group_text(gen.random_group(rng, m.agents))))
        out.append(Request({"cmd": "frame", "model": m.path,
                            "condition": cond, "json": flag(0.25)}))
    for i in range(CLOSES):
        m = rng.choice(agent_models)
        out.append(Request({
            "cmd": "close", "model": m.path, "out": f"out/closed{i}.json",
            "closure": rng.choice(("supersets", "intersections")),
            "json": False}, (0, f"written out/closed{i}.json")))
    for name, data in proofs.items():
        lines = len(data["lines"])
        expect = {"bad_mp": (1, "rejected at line 5: line 2 is not (line 4 "
                             "-> this line)"),
                  "bad_axiom": (1, "rejected at line 1: not an instance of "
                                "b3"),
                  "bad_taut": (1, "rejected at line 2: not a propositional "
                               "tautology")}.get(name,
                                                 (0, f"accepted ({lines} lines)"))
        out.append(Request({"cmd": "proof", "file": f"proofs/{name}.json",
                            "json": False}, expect))
    for target in ("lemma3.1", "sec5.2"):
        out.append(Request({"cmd": "reproduce", "target": target,
                            "json": False},
                           (0, f"{target} reproduction: ok")))
        out.append(Request({"cmd": "reproduce", "target": target,
                            "json": True}, (0, None)))
    rng.shuffle(out)
    return out


class Inputs:
    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.requests = requests(seed, workdir)
        rng = random.Random(seed)
        fixed = [r for r in self.requests
                 if r.spec["cmd"] == "reproduce" and not r.spec["json"]]
        cheap = [r for r in self.requests
                 if r.spec["cmd"] in ("check", "schema", "frame")]
        picks = fixed + rng.sample(cheap, CLI_CALLS - len(fixed))
        self.cli = [(r.argv, None, None) for r in picks]


def build(seed: int, workdir: str) -> Inputs:
    return Inputs(seed, workdir)


def run_pass(inputs: Inputs, items=None):
    outputs, samples = [], []
    with layers.in_dir(inputs.workdir):
        for req in layers.pick(inputs.requests, items):
            start = perf_counter()
            try:
                out = layers.cli_call(req.argv)
            except Exception as exc:  # counted as a failed item
                out = ("error", repr(exc))
            samples.append((1, perf_counter() - start))
            outputs.append(out)
    return outputs, samples


def traced_pass(inputs: Inputs, tracer):
    """The same requests, each ``cli.main`` call and the library calls
    its handler makes under spans; the CLI's own time is the self time
    of the ``cli.main`` spans."""
    outputs = []
    with layers.in_dir(inputs.workdir), layers.nested(tracer):
        for i, req in enumerate(inputs.requests):
            tracer.item = i
            try:
                out = layers.cli_call(req.argv, tracer)
            except Exception as exc:
                out = ("error", repr(exc))
            outputs.append(out)
    return outputs


def record(inputs: Inputs, outputs) -> list:
    return [{"request": r.argv, "result": list(o)}
            for r, o in zip(inputs.requests, outputs)]


_CLOSED = {"supersets": Monotone(), "intersections": IntersectionClosed()}


def known_answers(inputs: Inputs, outputs) -> list[str]:
    problems = []
    for i, (req, out) in enumerate(zip(inputs.requests, outputs)):
        code, text = out[0], out[1]
        where = f"request {i} ({' '.join(req.argv)})"
        if code not in (0, 1):
            problems.append(f"{where}: exit {code}: {text!r:.200}")
            continue
        if req.expect is None:
            continue
        want_code, want_last = req.expect
        lines = text.splitlines()
        last = lines[-1] if lines else ""
        if code != want_code or (want_last is not None and last != want_last):
            problems.append(f"{where}: expected exit {want_code} "
                            f"{want_last!r}, got exit {code} {last!r}")
        if req.spec["cmd"] == "reproduce" and req.spec["json"] \
                and json.loads(text).get("ok") is not True:
            problems.append(f"{where}: reproduction not ok")
    with layers.in_dir(inputs.workdir):
        for req in inputs.requests:
            if req.spec["cmd"] == "close":
                cond = _CLOSED[req.spec["closure"]]
                if not check_condition(load_model(req.spec["out"]),
                                       cond).holds:
                    problems.append(f"{req.spec['out']} is not closed")
    return problems
