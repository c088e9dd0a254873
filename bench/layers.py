"""Calls into the library shared by the workloads.

:func:`cli_call` makes an in-process CLI request.  :func:`nested`
traces a pass of the program's own code (``soundness_fuzz``,
``find_countermodel``, ``cli.main``): for the duration of the pass only,
it rebinds the names through which the package's modules call each
other, so that every such call runs inside a span named
``<module>.<function>`` and bumps the exact work counters.  No file of
the package changes, and the traced pass takes the same code paths as
an untraced one.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import nbhd.cli
import nbhd.frames
import nbhd.logics
import nbhd.model
import nbhd.search
from nbhd.cli import main as cli_main
from nbhd import AgentModel, boxed_atoms

_BASE = {"B1": "b1", "B2": "b2", "B3": "b3", "B4": "b4"}


def intersections(m, g) -> int:
    """Sum over worlds of the product of the member-family sizes."""
    if not isinstance(m, AgentModel):
        return 0
    n = len(m.worlds)
    total = 0
    for w in range(n):
        product = 1
        for agent in g:
            nm = m.agents.get(agent)
            product *= len(nm.families[w]) if nm is not None else 0
        total += product
    return total


@contextmanager
def nested(tracer):
    """Trace the calls the package's modules make to each other."""

    def counted(name, fn, stat, measure):
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            tracer.count(f"{name}.{stat}", measure(args, out))
            return out
        return traced

    derive = nbhd.model.group_families

    def group_families(m, g):
        # Only a derivation is a span; a cache hit is the caller's lookup.
        if m._group_cache.get(g) is not None:
            return derive(m, g)
        tracer.count("model.group_families.intersections",
                     tracer.call("bench.intersections", intersections, m, g))
        return tracer.call("model.group_families", derive, m, g)

    check = nbhd.logics.check_schema_semantically

    def check_schema(m, s, mode="all-subsets", pool=None):
        name = "logics.check_schema." + (
            "definable_only" if mode == "definable-only"
            else _BASE.get(s.kind, "ext"))
        verdict = tracer.call(name, check, m, s, mode, pool)
        if not verdict.valid:
            tracer.count("logics.check_schema.refuted")
        return verdict

    enumerate_models = nbhd.search.exhaustive_models

    def exhaustive_models(bounds):
        it = enumerate_models(bounds)
        while True:
            m = tracer.call("search.exhaustive_models", next, it, None)
            if m is None:
                return
            tracer.count("search.exhaustive_models.yielded")
            yield m

    check_condition = counted(
        "frames.check_condition", nbhd.frames.check_condition, "fails",
        lambda args, out: int(not out.holds))
    check_proof = counted(
        "logics.check_proof", nbhd.logics.check_proof, "lines",
        lambda args, out: len(args[0].lines))
    parse = tracer.wrap("formula.parse", nbhd.logics.parse)
    render = tracer.wrap("formula.render", nbhd.model.render)
    truth_set = tracer.wrap("model.truth_set", nbhd.model.truth_set)
    close = "frames.close"
    patches = [
        (nbhd.model, "group_families", group_families),
        (nbhd.logics, "group_families", group_families),
        (nbhd.frames, "group_families", group_families),
        (nbhd.search, "exhaustive_models", exhaustive_models),
        (nbhd.search, "random_model",
         tracer.wrap("search.random_model", nbhd.search.random_model)),
        (nbhd.search, "check_condition", check_condition),
        (nbhd.search, "check_schema_semantically", check_schema),
        (nbhd.search, "truth_set", truth_set),
        (nbhd.logics, "definable_sets",
         counted("model.definable_sets", nbhd.model.definable_sets, "sets",
                 lambda args, out: len(out))),
        (nbhd.model, "render", render),
        (nbhd.logics, "is_propositional_tautology",
         counted("formula.is_propositional_tautology",
                 nbhd.logics.is_propositional_tautology, "units",
                 lambda args, out: len(boxed_atoms(args[0])))),
        (nbhd.logics, "check_proof", check_proof),
        (nbhd.logics, "parse", parse),
        (nbhd.cli, "parse", parse),
        (nbhd.cli, "render", render),
        (nbhd.cli, "truth_set", truth_set),
        (nbhd.cli, "satisfies",
         tracer.wrap("model.satisfies", nbhd.model.satisfies)),
        (nbhd.cli, "load_model",
         tracer.wrap("model.load_model", nbhd.model.load_model)),
        (nbhd.cli, "save_model",
         tracer.wrap("model.save_model", nbhd.model.save_model)),
        (nbhd.cli, "fixture",
         tracer.wrap("model.fixture", nbhd.model.fixture)),
        (nbhd.cli, "check_schema_semantically", check_schema),
        (nbhd.cli, "check_condition", check_condition),
        (nbhd.cli, "close_under_supersets",
         tracer.wrap(close, nbhd.frames.close_under_supersets)),
        (nbhd.cli, "close_under_intersections",
         tracer.wrap(close, nbhd.frames.close_under_intersections)),
        (nbhd.cli, "load_proof",
         tracer.wrap("logics.load_proof", nbhd.logics.load_proof)),
        (nbhd.cli, "check_proof", check_proof),
        (nbhd.cli, "check_entailment_certificate",
         tracer.wrap("logics.check_entailment_certificate",
                     nbhd.logics.check_entailment_certificate)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def pick(seq, items):
    """All of ``seq``, or its elements at the indices ``items``."""
    return seq if items is None else [seq[i] for i in items]


@contextmanager
def in_dir(path: str):
    here = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(here)


def cli_call(argv, tracer=None) -> tuple[int, str]:
    """One in-process CLI request: exit code and captured output.  With
    a tracer, ``cli.main`` runs inside a span of that name."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = (tracer.call("cli.main", cli_main, argv) if tracer
                else cli_main(argv))
    return code, out.getvalue() + (f"[stderr]{err.getvalue()}"
                                   if err.getvalue() else "")
