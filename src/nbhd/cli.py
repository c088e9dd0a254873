"""Command-line interface.

One subcommand per invocation:

* ``check``    — evaluate a formula on a model (one world or all)
* ``valid``    — search bounded model spaces for a countermodel
* ``schema``   — check an axiom schema semantically on a model
* ``frame``    — check a frame condition on a model
* ``close``    — write the superset/intersection closure of a model
* ``proof``    — verify a proof file (or entailment certificate)
* ``fixture``  — write a built-in example model to a file
* ``reproduce``— re-run the built-in worked examples and verify them

Exit codes: 0 the property holds / the proof is accepted / the artifact
was written; 1 refuted, with the witness printed; 2 usage or input
error.  ``--json`` swaps the text report for a JSON document carrying
the same witnesses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .errors import InputError, NbhdError
from .formula import (
    Group, formula_agents, formula_atoms, parse, read_agents, render,
)
from .frames import (
    check_condition, close_under_intersections, close_under_supersets,
    format_condition, parse_condition,
)
from .logics import (
    B1, B2, B3, B4, TG, CounterExample,
    check_entailment_certificate, check_proof, check_schema_semantically,
    counterexample_to_dict, format_schema, load_proof, parse_schema,
)
from .model import (
    FIXTURE_NAMES, WorldSet, _first_outside, _labels, fixture,
    load_model, model_to_dict, satisfies, save_model, truth_set,
)
from .search import (
    SchemaTarget, SearchBounds, find_countermodel,
)

__all__ = ["main"]


def _parse_atoms(text: str) -> tuple[str, ...]:
    atoms = tuple(part.strip() for part in text.split(",") if part.strip())
    if not atoms:  # an empty list, not a missing option
        raise InputError(f"empty atom list {text!r}")
    return atoms


def _parse_pool(text: str) -> tuple[Group, ...]:
    groups = tuple(Group(read_agents(part, "--pool"))
                   for part in text.split(";") if part.strip())
    if not groups:
        raise InputError(f"empty group pool {text!r}")
    return groups


def _parse_constraints(text: str):
    return tuple(parse_condition(part) for part in text.split(";")
                 if part.strip())


def _set_text(m, ws: WorldSet) -> str:
    return "{" + ",".join(_labels(m, ws.bits)) + "}"


# ---------------------------------------------------------------------------
# Handlers.  Each returns (exit code, text lines, json payload).


def _cmd_check(args):
    m = load_model(args.model)
    f = parse(args.formula)
    payload = {"command": "check", "model": args.model,
               "formula": render(f)}
    if args.world is not None:
        holds = satisfies(m, args.world, f)
        payload.update(world=args.world, holds=holds)
        word = "true" if holds else "false"
        return (0 if holds else 1), [f"{word} at {args.world}"], payload
    witness = _first_outside(m, truth_set(m, f))
    if witness is not None:
        payload.update(holds=False, witness=witness)
        return 1, [f"false at {witness}"], payload
    payload.update(holds=True)
    return 0, ["valid on the model"], payload


def _cmd_valid(args):
    if args.formula is not None:
        target = parse(args.formula)
        target_text = render(target)
        agents = tuple(sorted(formula_agents(target))) or (1,)
        atoms = tuple(sorted(formula_atoms(target)))
    else:
        pool = _parse_pool(args.pool) if args.pool is not None else None
        target = SchemaTarget(parse_schema(args.schema), args.sets, pool)
        target_text = format_schema(target.schema)
        agents = tuple(sorted({a for g in (pool or ()) for a in g})) or (1, 2)
        atoms = ()
    if args.agents is not None:
        agents = tuple(a for part in args.agents.split(",") if part.strip()
                       for a in read_agents(part, "--agents"))
    if args.atoms is not None:
        atoms = _parse_atoms(args.atoms)
    bounds = SearchBounds(
        max_worlds=args.max_worlds, agents=agents, atoms=atoms,
        mode=args.mode, trials=args.trials, seed=args.seed,
        frame_constraints=_parse_constraints(args.constraints))

    result = find_countermodel(target, bounds)
    payload = {"command": "valid", "target": target_text,
               "mode": args.mode, "found": result is not None}
    if result is None:
        return 0, ["no countermodel within bounds (not a validity proof)"], payload
    m = result.model
    key, at = (("draw", result.draw) if result.draw is not None
               else ("index", result.index))
    if isinstance(result.witness, CounterExample):
        witness_text = result.witness.describe([w.label for w in m.worlds])
        payload["witness"] = counterexample_to_dict(result.witness, m)
    else:
        witness_text = f"false at {result.witness}"
        payload["witness"] = result.witness
    payload["model"] = model_to_dict(m)
    payload[key] = at
    return 1, [f"countermodel found at {key} {at}: {witness_text}",
               "model: " + json.dumps(payload["model"], sort_keys=True)], payload


def _cmd_schema(args):
    m = load_model(args.model)
    s = parse_schema(args.schema)
    pool = _parse_pool(args.pool) if args.pool is not None else None
    verdict = check_schema_semantically(m, s, args.mode, pool)
    payload = {"command": "schema", "schema": format_schema(s),
               "mode": args.mode, "valid": verdict.valid,
               "note": verdict.note}
    if verdict.valid:
        code, lines = 0, ["valid"]
    else:
        payload["counterexample"] = counterexample_to_dict(
            verdict.counterexample, m)
        code, lines = 1, ["counterexample: " + verdict.counterexample.describe(
            [w.label for w in m.worlds])]
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    return code, lines, payload


def _cmd_frame(args):
    m = load_model(args.model)
    c = parse_condition(args.condition)
    verdict = check_condition(m, c)
    payload = {"command": "frame", "condition": format_condition(c),
               "holds": verdict.holds, "note": verdict.note}
    if verdict.holds:
        code, lines = 0, ["holds"]
    else:
        w = verdict.witness
        kind, who = (("agent", w.subject) if isinstance(w.subject, int)
                     else ("group", list(w.subject.members)))
        subject = (f"agent {who}" if kind == "agent"
                   else f"group {{{w.subject}}}")
        code, lines = 1, [f"fails: world {w.world}, {subject}, "
                          f"set {_set_text(m, w.offending)}"]
        payload["witness"] = {"world": w.world, kind: who,
                              "set": list(_labels(m, w.offending.bits))}
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    return code, lines, payload


def _cmd_close(args):
    m = load_model(args.model)
    closed = (close_under_supersets(m) if args.supersets
              else close_under_intersections(m))
    save_model(closed, args.out)
    which = "supersets" if args.supersets else "intersections"
    payload = {"command": "close", "closure": which, "out": args.out}
    return 0, [f"written {args.out}"], payload


def _cmd_proof(args):
    pf = load_proof(args.file)
    if pf.phi is not None:
        verdict = check_entailment_certificate(pf.gamma or (), pf.phi,
                                               pf.proof, pf.logic)
    else:
        verdict = check_proof(pf.proof, pf.logic)
    count = len(pf.proof.lines)
    payload = {"command": "proof", "file": args.file,
               "accepted": verdict.accepted, "lines": count}
    if verdict.accepted:
        return 0, [f"accepted ({count} lines)"], payload
    payload.update(line=verdict.line, reason=verdict.reason)
    return 1, [f"rejected at line {verdict.line}: {verdict.reason}"], payload


def _cmd_fixture(args):
    m = fixture(args.name)
    save_model(m, args.out)
    payload = {"command": "fixture", "name": args.name, "out": args.out}
    return 0, [f"written {args.out}"], payload


_INDEPENDENCE_FIXTURES = ("M1", "M2", "M3", "M4")
_INDEPENDENCE_SCHEMAS = (B1, B2, B3, B4)

# The exact witness the first fixture/schema pair must produce.
_M1_B1_WITNESS = CounterExample(
    "wp", (("G", Group.of(1)), ("H", Group.of(2))),
    (("phi", WorldSet(0b101, 3)), ("psi", WorldSet(0b110, 3))))


def _cmd_reproduce(args):
    if args.target == "lemma3.1":
        return _reproduce_independence()
    return _reproduce_group_factivity()


def _reproduce_independence():
    """Each of the four fixtures refutes exactly its own schema."""
    ok = True
    results = []
    witness_lines = []
    rows = []
    for k, name in enumerate(_INDEPENDENCE_FIXTURES, start=1):
        m = fixture(name)
        row = [name]
        for i, s in enumerate(_INDEPENDENCE_SCHEMAS, start=1):
            verdict = check_schema_semantically(m, s)
            expect_valid = i != k
            if verdict.valid != expect_valid:
                ok = False
            entry = {"fixture": name, "schema": format_schema(s),
                     "valid": verdict.valid}
            row.append("valid" if verdict.valid else "refuted")
            if not verdict.valid:
                entry["counterexample"] = counterexample_to_dict(
                    verdict.counterexample, m)
                witness_lines.append(
                    f"{name} refutes {format_schema(s)} at "
                    + verdict.counterexample.describe(
                        [w.label for w in m.worlds]))
                if name == "M1" and s == B1:
                    if verdict.counterexample != _M1_B1_WITNESS:
                        ok = False
            results.append(entry)
        rows.append(row)

    header = ["fixture"] + [format_schema(s) for s in _INDEPENDENCE_SCHEMAS]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in [header] + rows]
    lines.extend(witness_lines)
    lines.append(f"lemma3.1 reproduction: {'ok' if ok else 'MISMATCH'}")
    payload = {"command": "reproduce", "target": "lemma3.1", "ok": ok,
               "results": results}
    return (0 if ok else 1), lines, payload


_SEC52_POOLS = ((Group.of(1),), (Group.of(2),), (Group.of(1, 2),))
_T12_WITNESS = CounterExample("w", (("G", Group.of(1, 2)),),
                              (("phi", WorldSet(0, 2)),))


def _reproduce_group_factivity():
    """Factivity survives for the two agents alone but not for the pair.

    On the NONREFLEXIVE fixture, the factivity schema (over definable
    sets) is valid with pool {1} and with pool {2}, yet refuted with
    pool {1,2} — the box of the pair holds the empty set, so the
    falsum-boxed formula is true at w.
    """
    m = fixture("NONREFLEXIVE")
    lines = []
    checks = []
    for pool in _SEC52_POOLS:
        verdict = check_schema_semantically(m, TG, "definable-only", pool)
        pool_text = ";".join(str(g) for g in pool)
        entry = {"schema": "tg", "pool": [list(g.members) for g in pool],
                 "mode": "definable-only", "valid": verdict.valid,
                 "note": verdict.note}
        if verdict.valid:
            lines.append(f"tg on pool {pool_text}: valid over definable sets")
        else:
            entry["counterexample"] = counterexample_to_dict(
                verdict.counterexample, m)
            lines.append(f"tg on pool {pool_text}: refuted at "
                         + verdict.counterexample.describe(
                             [w.label for w in m.worlds]))
        if verdict.note:
            lines.append(f"  note: {verdict.note}")
        checks.append(entry)
    last = check_schema_semantically(m, TG, "definable-only", _SEC52_POOLS[2])
    box_true = satisfies(m, "w", parse("[1,2]false"))
    lines.append(f"[1,2]false: {'true' if box_true else 'false'} at w")
    ok = (checks[0]["valid"] and checks[1]["valid"] and box_true
          and not last.valid and last.counterexample == _T12_WITNESS)
    lines.append(f"sec5.2 reproduction: {'ok' if ok else 'MISMATCH'}")
    payload = {"command": "reproduce", "target": "sec5.2", "ok": ok,
               "checks": checks, "box_true_at_w": box_true}
    return (0 if ok else 1), lines, payload


# ---------------------------------------------------------------------------
# Parser


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbhd",
        description="Multi-indexed neighbourhood models: evaluate formulas, "
                    "check schemas and frame conditions, verify proofs, "
                    "search for countermodels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    p.add_argument("--world", help="world label; omit to check all worlds")
    add_json(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser(
        "valid", help="search a bounded model space for a countermodel")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--formula")
    target.add_argument("--schema", help="schema name, like b1 or nec:2")
    p.add_argument("--max-worlds", type=int, default=2)
    p.add_argument("--agents", help="comma-separated agent ids, like 1,2")
    p.add_argument("--atoms", help="comma-separated atom names")
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--trials", type=int, default=1000,
                   help="number of random draws (random mode)")
    p.add_argument("--seed", type=int,
                   help="random mode needs an explicit seed")
    p.add_argument("--constraints", default="",
                   help="semicolon-separated frame constraints, "
                        "like 'reflexive;nec:1'")
    p.add_argument("--pool", help="semicolon-separated groups for schema "
                                  "targets, like '1;2;1,2'")
    p.add_argument("--sets", choices=("all-subsets", "definable-only"),
                   default="all-subsets",
                   help="set quantification for schema targets")
    add_json(p)
    p.set_defaults(run=_cmd_valid)

    p = sub.add_parser("schema", help="check a schema semantically on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--mode", choices=("all-subsets", "definable-only"),
                   default="all-subsets")
    p.add_argument("--pool", help="semicolon-separated groups, like '1;2;1,2'")
    add_json(p)
    p.set_defaults(run=_cmd_schema)

    p = sub.add_parser("frame", help="check a frame condition on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--condition", required=True,
                   help="reflexive | bincons | monotone | intclosed | "
                        "nec:i | conec:i | p:i | cop:i | pg:1,2")
    add_json(p)
    p.set_defaults(run=_cmd_frame)

    p = sub.add_parser("close", help="write a closed copy of a model")
    p.add_argument("--model", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--supersets", action="store_true")
    which.add_argument("--intersections", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(run=_cmd_close, json=False)

    p = sub.add_parser("proof", help="verify a proof file")
    p.add_argument("--file", required=True)
    add_json(p)
    p.set_defaults(run=_cmd_proof)

    p = sub.add_parser("fixture", help="write a built-in example model")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(run=_cmd_fixture, json=False)

    p = sub.add_parser(
        "reproduce",
        help="re-run a built-in worked example and verify its outcome")
    p.add_argument("target", choices=("lemma3.1", "sec5.2"),
                   help="lemma3.1: the four independence fixtures; "
                        "sec5.2: factivity on the non-reflexive fixture")
    add_json(p)
    p.set_defaults(run=_cmd_reproduce)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, lines, payload = args.run(args)
    except NbhdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
