"""Differential oracles for the semantic schema checker, the schema
patterns and exhaustive enumeration.

``_Plan``, ``_plan_for``, ``_mem`` and ``_find_counterexample`` below are
verbatim copies of the loop-over-every-instance checker that the
position-indexed kernel in ``nbhd.logics`` replaced, and
``check_schema_reference`` is ``check_schema_semantically`` on top of
it.  The tests require the same full ``SchemaVerdict`` (validity,
counterexample and note), the same exception type and message when the
reference raises, and the same groups derived in the same order.

``_GROUP_VARS``, ``_SET_VARS``, ``instantiate_reference`` and
``match_reference`` are verbatim copies of the hand-written per-schema
``instantiate_schema`` and ``match_schema`` that the pattern table in
``nbhd.logics`` replaced.  The tests require the same instance or the
same ``ValueError`` message, and the same binding or ``None`` from every
schema, on random bindings with mutated instances and on every line of
the shipped certificates and of the criterion-08 mutations.

``exhaustive_reference`` is a verbatim copy of the ``exhaustive_models``
that expanded every (agent, world) slot of every candidate into a new
family.  The test requires the same models in the same order, and the
same visit-cap error, for every space of 1-2 worlds, 1-2 agents and 0-1
atoms, with no constraint and with each supported one.

``tokenize_reference`` and ``group_reference`` are verbatim copies of
the character-by-character ``_tokenize`` that the one-regex scan in
``nbhd.formula`` replaced and of the ``_Parser.group`` that read agent
ids with a bare ``int()``; ``ParserReference`` and ``parse_reference``
are verbatim copies of the recursive-descent parser that precedence
climbing replaced, on top of those two.  The test requires the same
token list or the same ``FormulaSyntaxError``, and the same formula or
the same error from ``parse``, on text over the language's characters,
Unicode whitespace, letters and digits.  The one change allowed: where
the reference raised a bare ``ValueError`` ("²" is ``str.isdigit()`` but
no decimal digit), ``parse`` now raises ``FormulaSyntaxError``.

``check_condition_reference``, ``random_model_reference`` (with
``_repair`` and the closures it calls), ``format_reference`` and
``required_reference`` are verbatim copies of the frame-condition code
that the condition table in ``nbhd.frames`` replaced.  The tests require
the same ``ConditionVerdict`` (holds, witness and note) for every kind
of condition, including absent agents and groups, the same repaired
model or ``ConstraintError`` message from every combination of up to
three constraints, and the same names and required constraints.  Since
``check_condition`` keeps results on maps that models share
(``_SharedMap``), the verdicts are also compared on every 13th model of
the 2-agent, 2-world space, whose models share maps, and on maps shared
by models with other world labels and other agents.

``normalize_reference`` is a verbatim copy of the ``normalize`` that
normalized both copies of each side of an ``<->``.  The test requires
the same formula, and a 30-deep chain of ``<->`` must normalize at once.

``_render_reference``, ``normalize_linear_reference``, the three
collectors ``formula_atoms_reference``, ``formula_agents_reference`` and
``boxed_atoms_reference``, ``truth_bits_reference`` and
``tautology_reference`` are verbatim copies of the traversals that
tested each node class by hand, before the table of binary connectives
and the one child function in ``nbhd.formula``, and of the evaluator
that kept truth sets by value.  (``tautology_reference`` drops only its
import of the evaluator.)  The tests require the same string, formula,
set, verdict and bit vector on Hypothesis formulas and their normal
forms, the same group derivations in the same order, the same bits from
the tautology check's unit memo, and the same ``TypeError`` where a
node is replaced by something that is no formula.  A normalized 20-deep
chain of ``<->`` must evaluate at once.
"""

from __future__ import annotations

import itertools
import signal
import string
from time import perf_counter
from typing import Iterable, Iterator, Mapping, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from nbhd import (
    AgentModel, And, Atom, AxiomRef, B2, B3, BinaryConsistent, Bottom, Box,
    CERTIFICATE_NAMES, ConditionVerdict, Conec, ConstraintError, Cop,
    CounterExample, Formula, FormulaSyntaxError, FrameCondition, FrameWitness,
    GeneralModel, Group, Iff, Implies, IntersectionClosed, LogicDescriptor,
    Monotone, Nec, NeighbourhoodMap, Not, Or, PCondition, PGroup, Reflexive,
    ResourceLimitError, SchemaId, SchemaVerdict, SearchBounds, Stream, Top,
    World, WorldSet, boxed_atoms, builtin_certificate, check_condition,
    check_schema_semantically, close_under_intersections,
    close_under_supersets, default_group_pool, exhaustive_models,
    format_condition, format_schema, formula_agents, formula_atoms,
    group_families, instantiate_schema, is_propositional_tautology,
    match_schema, normalize, parse, proof_from_dict, random_model, render,
    required_constraints, truth_set,
)
import nbhd.formula
from nbhd.errors import limit
from nbhd.frames import P
from nbhd.logics import _AGENT_KINDS, _KINDS, _set_range
from nbhd.model import Model, _SharedMap, _truth_bits
from test_acceptance import _MUTATIONS
from test_formula import _FORMULAS


# ---------------------------------------------------------------------------
# Reference checker (copied verbatim)


class _Plan:
    """Pool-derived iteration structure, shared across models."""

    __slots__ = ("pool", "pairs", "disjoint_pairs", "triples")

    def __init__(self, pool: tuple[Group, ...]):
        self.pool = pool
        self.pairs = tuple((g, h, g | h) for g in pool for h in pool)
        self.disjoint_pairs = tuple(p for p in self.pairs
                                    if p[0].isdisjoint(p[1]))
        triples = []
        for g in pool:
            for h in pool:
                m = g | h
                for j in pool:
                    l_ = m | j
                    triples.append((g, h, j, m, l_,
                                    (g.members, m.members, l_.members)))
        self.triples = tuple(triples)


_PLANS: dict[tuple[tuple[int, ...], ...], _Plan] = {}


def _plan_for(pool: tuple[Group, ...]) -> _Plan:
    key = tuple(g.members for g in pool)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _Plan(pool)
        _PLANS[key] = plan
    return plan


def _mem(fam: frozenset[int], rng: Sequence[int], full_range: bool) -> list[int]:
    if full_range:
        return sorted(fam)
    return [x for x in rng if x in fam]


def _find_counterexample(m: Model, s: SchemaId, pool: tuple[Group, ...],
                         rng: Sequence[int], full_range: bool
                         ) -> CounterExample | None:
    n = len(m.worlds)
    full = (1 << n) - 1
    label = [w.label for w in m.worlds]

    def ws(bits: int) -> WorldSet:
        return WorldSet(bits, n)

    k = s.kind
    plan = _plan_for(pool)
    fam = {g: group_families(m, g) for g in pool}

    if k in ("B1", "CG"):
        pairs = plan.disjoint_pairs if k == "B1" else plan.pairs
        lifted = [(g, h, group_families(m, u)) for g, h, u in pairs]
        for w in range(n):
            mem = {g: _mem(fam[g][w], rng, full_range) for g in pool}
            for g, h, fam_u in lifted:
                target = fam_u[w]
                for x in mem[g]:
                    for y in mem[h]:
                        if (x & y) not in target:
                            return CounterExample(
                                label[w], (("G", g), ("H", h)),
                                (("phi", ws(x)), ("psi", ws(y))))
        return None

    if k == "B2":
        lifted = [(g, h, group_families(m, u)) for g, h, u in plan.pairs]
        for w in range(n):
            for g, h, fam_u in lifted:
                if full in fam_u[w] and full not in fam[g][w]:
                    return CounterExample(label[w], (("G", g), ("H", h)))
        return None

    if k == "B3":
        lifted = [(g, h, j, group_families(m, mm), group_families(m, ll), key)
                  for g, h, j, mm, ll, key in plan.triples]
        for w in range(n):
            mem = {g: _mem(fam[g][w], rng, full_range) for g in pool}
            memo: dict[tuple, int | None] = {}
            for g, h, j, fam_m, fam_l, key in lifted:
                if key in memo:
                    found = memo[key]
                else:
                    found = None
                    in_l, in_m = fam_l[w], fam_m[w]
                    for x in mem[g]:
                        if x in in_l and x not in in_m:
                            found = x
                            break
                    memo[key] = found
                if found is not None:
                    return CounterExample(
                        label[w], (("G", g), ("H", h), ("J", j)),
                        (("phi", ws(found)),))
        return None

    if k == "B4":
        lifted = [(g, h, group_families(m, u)) for g, h, u in plan.pairs]
        for w in range(n):
            mem = {g: _mem(fam[g][w], rng, full_range) for g in pool}
            for g, h, fam_u in lifted:
                target, fam_h = fam_u[w], fam[h][w]
                for x in mem[g]:
                    if x in target:
                        continue
                    if full_range:
                        # any superset of x in N_H gives a violating psi
                        if not any(z & x == x for z in fam_h):
                            continue
                    for y in rng:
                        if (x | y) in fam_h:
                            return CounterExample(
                                label[w], (("G", g), ("H", h)),
                                (("phi", ws(x)), ("psi", ws(y))))
        return None

    if k == "SA":
        lifted = [(g, h, group_families(m, u)) for g, h, u in plan.pairs]
        for w in range(n):
            mem = {g: _mem(fam[g][w], rng, full_range) for g in pool}
            for g, h, fam_u in lifted:
                target = fam_u[w]
                for x in mem[g]:
                    if x not in target:
                        return CounterExample(
                            label[w], (("G", g), ("H", h)), (("phi", ws(x)),))
        return None

    if k == "TG":
        for w in range(n):
            for g in pool:
                for x in _mem(fam[g][w], rng, full_range):
                    if not (x >> w) & 1:
                        return CounterExample(
                            label[w], (("G", g),), (("phi", ws(x)),))
        return None

    if k == "PG":
        for w in range(n):
            for g in pool:
                if 0 in fam[g][w]:
                    return CounterExample(label[w], (("G", g),))
        return None

    if k == "RMG":
        for w in range(n):
            for g in pool:
                members = fam[g][w]
                for x in _mem(members, rng, full_range):
                    for y in rng:
                        if (x | y) not in members:
                            return CounterExample(
                                label[w], (("G", g),),
                                (("phi", ws(x)), ("psi", ws(y))))
        return None

    # Agent-indexed schemas quantify over nothing but the world.
    single = Group.of(s.agent)
    sfam = group_families(m, single)
    if k == "NEC":
        for w in range(n):
            if full not in sfam[w]:
                return CounterExample(label[w], agent=s.agent)
        return None
    if k == "CONEC":
        for w in range(n):
            if full in sfam[w]:
                return CounterExample(label[w], agent=s.agent)
        return None
    if k == "P":
        for w in range(n):
            if 0 in sfam[w]:
                return CounterExample(label[w], agent=s.agent)
        return None
    if k == "COP":
        for w in range(n):
            if 0 not in sfam[w]:
                return CounterExample(label[w], agent=s.agent)
        return None
    if k == "DI":
        for w in range(n):
            for x in _mem(sfam[w], rng, full_range):
                if (full ^ x) in sfam[w]:
                    return CounterExample(label[w], sets=(("phi", ws(x)),),
                                          agent=s.agent)
        return None

    raise AssertionError(k)


def check_schema_reference(m: Model, s: SchemaId, mode: str = "all-subsets",
                           group_pool: "Iterable[Group] | None" = None
                           ) -> SchemaVerdict:
    pool = (tuple(group_pool) if group_pool is not None
            else default_group_pool(m))
    if not pool:
        raise ValueError("the group pool must be nonempty")
    rng, full_range = _set_range(m, mode, pool)
    cx = _find_counterexample(m, s, pool, rng, full_range)
    note = None
    if cx is None and mode == "definable-only" and not full_range:
        n = len(m.worlds)
        if (1 << n) <= limit("subsets"):
            shadow = _find_counterexample(m, s, pool, list(range(1 << n)), True)
            if shadow is not None:
                note = (f"holds over the {len(rng)} definable sets, but over "
                        f"all {1 << n} subsets it fails at "
                        + shadow.describe())
    return SchemaVerdict(cx is None, cx, note)


# ---------------------------------------------------------------------------
# Reference schema instantiation and recognition (copied verbatim)

_GROUP_VARS = {
    "B1": ("G", "H"), "B2": ("G", "H"), "B3": ("G", "H", "J"),
    "B4": ("G", "H"), "CG": ("G", "H"), "SA": ("G", "H"),
    "TG": ("G",), "PG": ("G",), "RMG": ("G",),
    "NEC": (), "CONEC": (), "P": (), "COP": (), "DI": (),
}
_SET_VARS = {
    "B1": ("phi", "psi"), "B2": (), "B3": ("phi",), "B4": ("phi", "psi"),
    "CG": ("phi", "psi"), "SA": ("phi",), "TG": ("phi",), "PG": (),
    "RMG": ("phi", "psi"),
    "NEC": (), "CONEC": (), "P": (), "COP": (), "DI": ("phi",),
}


def instantiate_reference(s: SchemaId,
                          binding: Mapping[str, "Group | Formula"]) -> Formula:
    """Build the axiom instance of ``s`` under ``binding``.

    The binding must give exactly the metavariables of the schema
    (groups G/H/J, formulas phi/psi).  For B1 the groups G and H must
    be disjoint.
    """
    gs: dict[str, Group] = {}
    fs: dict[str, Formula] = {}
    expected = set(_GROUP_VARS[s.kind]) | set(_SET_VARS[s.kind])
    if set(binding) != expected:
        raise ValueError(f"schema {format_schema(s)} needs exactly "
                         f"{sorted(expected)}, got {sorted(binding)}")
    for var in _GROUP_VARS[s.kind]:
        value = binding[var]
        if not isinstance(value, Group):
            raise ValueError(f"{var} must be a Group")
        gs[var] = value
    for var in _SET_VARS[s.kind]:
        value = binding[var]
        if not isinstance(value, Formula):
            raise ValueError(f"{var} must be a Formula")
        fs[var] = value

    k = s.kind
    if k in ("B1", "CG"):
        G, H = gs["G"], gs["H"]
        if k == "B1" and not G.isdisjoint(H):
            raise ValueError("B1 needs disjoint groups G and H")
        return Implies(And(Box(G, fs["phi"]), Box(H, fs["psi"])),
                       Box(G | H, And(fs["phi"], fs["psi"])))
    if k == "B2":
        G, H = gs["G"], gs["H"]
        return Implies(Box(G | H, Top()), Box(G, Top()))
    if k == "B3":
        G, H, J = gs["G"], gs["H"], gs["J"]
        phi = fs["phi"]
        return Implies(And(Box(G, phi), Box(G | H | J, phi)),
                       Box(G | H, phi))
    if k == "B4":
        G, H = gs["G"], gs["H"]
        phi, psi = fs["phi"], fs["psi"]
        return Implies(And(Box(G, phi), Box(H, Or(phi, psi))),
                       Box(G | H, phi))
    if k == "SA":
        G, H = gs["G"], gs["H"]
        return Implies(Box(G, fs["phi"]), Box(G | H, fs["phi"]))
    if k == "TG":
        return Implies(Box(gs["G"], fs["phi"]), fs["phi"])
    if k == "PG":
        return Not(Box(gs["G"], Bottom()))
    if k == "RMG":
        G = gs["G"]
        return Implies(Box(G, fs["phi"]), Box(G, Or(fs["phi"], fs["psi"])))
    single = Group.of(s.agent)
    if k == "NEC":
        return Box(single, Top())
    if k == "CONEC":
        return Not(Box(single, Top()))
    if k == "P":
        return Not(Box(single, Bottom()))
    if k == "COP":
        return Box(single, Bottom())
    if k == "DI":
        phi = fs["phi"]
        return Implies(Box(single, phi), Not(Box(single, Not(phi))))
    raise AssertionError(k)


def match_reference(s: SchemaId, f: Formula) -> "dict[str, Group | Formula] | None":
    """Structural pattern match; returns a binding that re-instantiates
    to ``f``, or None.  Modulo nothing: no normalization is applied."""
    k = s.kind

    if k in ("B1", "CG"):
        if not (isinstance(f, Implies) and isinstance(f.left, And)
                and isinstance(f.left.left, Box) and isinstance(f.left.right, Box)
                and isinstance(f.right, Box) and isinstance(f.right.body, And)):
            return None
        G, phi = f.left.left.group, f.left.left.body
        H, psi = f.left.right.group, f.left.right.body
        if f.right.group != G | H:
            return None
        if f.right.body.left != phi or f.right.body.right != psi:
            return None
        if k == "B1" and not G.isdisjoint(H):
            return None
        return {"G": G, "H": H, "phi": phi, "psi": psi}

    if k == "B2":
        if not (isinstance(f, Implies) and isinstance(f.left, Box)
                and isinstance(f.right, Box)
                and isinstance(f.left.body, Top)
                and isinstance(f.right.body, Top)):
            return None
        K, G = f.left.group, f.right.group
        if not G.issubset(K):
            return None
        return {"G": G, "H": K.difference(G) or G}

    if k == "B3":
        if not (isinstance(f, Implies) and isinstance(f.left, And)
                and isinstance(f.left.left, Box) and isinstance(f.left.right, Box)
                and isinstance(f.right, Box)):
            return None
        G, phi = f.left.left.group, f.left.left.body
        L, M = f.left.right.group, f.right.group
        if f.left.right.body != phi or f.right.body != phi:
            return None
        if not (G.issubset(M) and M.issubset(L)):
            return None
        return {"G": G, "H": M.difference(G) or G,
                "J": L.difference(M) or M, "phi": phi}

    if k == "B4":
        if not (isinstance(f, Implies) and isinstance(f.left, And)
                and isinstance(f.left.left, Box) and isinstance(f.left.right, Box)
                and isinstance(f.left.right.body, Or)
                and isinstance(f.right, Box)):
            return None
        G, phi = f.left.left.group, f.left.left.body
        H = f.left.right.group
        if f.left.right.body.left != phi or f.right.body != phi:
            return None
        if f.right.group != G | H:
            return None
        return {"G": G, "H": H, "phi": phi, "psi": f.left.right.body.right}

    if k == "SA":
        if not (isinstance(f, Implies) and isinstance(f.left, Box)
                and isinstance(f.right, Box)):
            return None
        G, phi = f.left.group, f.left.body
        K = f.right.group
        if f.right.body != phi or not G.issubset(K):
            return None
        return {"G": G, "H": K.difference(G) or G, "phi": phi}

    if k == "TG":
        if not (isinstance(f, Implies) and isinstance(f.left, Box)):
            return None
        if f.right != f.left.body:
            return None
        return {"G": f.left.group, "phi": f.left.body}

    if k == "PG":
        if not (isinstance(f, Not) and isinstance(f.body, Box)
                and isinstance(f.body.body, Bottom)):
            return None
        return {"G": f.body.group}

    if k == "RMG":
        if not (isinstance(f, Implies) and isinstance(f.left, Box)
                and isinstance(f.right, Box)
                and isinstance(f.right.body, Or)):
            return None
        G, phi = f.left.group, f.left.body
        if f.right.group != G or f.right.body.left != phi:
            return None
        return {"G": G, "phi": phi, "psi": f.right.body.right}

    single = Group.of(s.agent) if s.agent is not None else None
    if k == "NEC":
        if isinstance(f, Box) and f.group == single and isinstance(f.body, Top):
            return {}
        return None
    if k == "CONEC":
        if (isinstance(f, Not) and isinstance(f.body, Box)
                and f.body.group == single and isinstance(f.body.body, Top)):
            return {}
        return None
    if k == "P":
        if (isinstance(f, Not) and isinstance(f.body, Box)
                and f.body.group == single and isinstance(f.body.body, Bottom)):
            return {}
        return None
    if k == "COP":
        if isinstance(f, Box) and f.group == single and isinstance(f.body, Bottom):
            return {}
        return None
    if k == "DI":
        if not (isinstance(f, Implies) and isinstance(f.left, Box)
                and f.left.group == single
                and isinstance(f.right, Not) and isinstance(f.right.body, Box)
                and f.right.body.group == single
                and isinstance(f.right.body.body, Not)):
            return None
        if f.right.body.body.body != f.left.body:
            return None
        return {"phi": f.left.body}

    raise AssertionError(k)


# ---------------------------------------------------------------------------
# Differential tests

_MODES = ("all-subsets", "definable-only")

# The seven groups over agents 0-2 repeat often, so pools hold duplicates
# and their unions hit the groups a GeneralModel stores; large groups over
# agents 0-11 make some unions pass the 8-member derivation guard.
_SEVEN = tuple(Group(tuple(a for a in range(3) if code >> a & 1))
               for code in range(1, 8))
_SMALL = st.sampled_from(_SEVEN)
_LARGE = st.sets(st.integers(0, 11), min_size=3, max_size=6).map(
    lambda s: Group(tuple(s)))
_GROUPS = st.one_of(_SMALL, _SMALL, _SMALL, _SMALL, _LARGE)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 3))
    # A family is drawn as its subset code, as random_model draws it.
    codes = st.lists(st.integers(0, (1 << (1 << n)) - 1),
                     min_size=n, max_size=n)
    fams = codes.map(lambda cs: [{x for x in range(1 << n) if c >> x & 1}
                                 for c in cs])
    general = draw(st.booleans())
    if general:
        owners = [g for g in _SEVEN if draw(st.booleans())]
    else:
        owners = sorted(draw(st.sets(st.integers(0, 3), max_size=4)))
    families = {o: draw(fams) for o in owners}
    valuation = {"p": draw(st.integers(0, (1 << n) - 1))}
    pool = tuple(draw(st.lists(_GROUPS, min_size=1, max_size=6)))
    agent = draw(st.integers(0, 4))
    return n, general, families, valuation, pool, agent


def _build(n, general, families, valuation):
    """A fresh model, so each checker starts from an empty family cache."""
    worlds = tuple(World(i, f"w{i}") for i in range(n))
    val = {a: WorldSet(bits, n) for a, bits in valuation.items()}
    maps = {o: NeighbourhoodMap(n, fams) for o, fams in families.items()}
    return GeneralModel(worlds, val, maps) if general \
        else AgentModel(worlds, val, maps)


def _outcome(check, m, s, mode, pool):
    try:
        result = check(m, s, mode, pool)
    except ResourceLimitError as exc:
        result = (type(exc), str(exc))
    return result, list(m._group_cache)


def _assert_same(case, s, mode, pool):
    got = _outcome(check_schema_semantically, _build(*case), s, mode, pool)
    want = _outcome(check_schema_reference, _build(*case), s, mode, pool)
    assert got == want


# B1 and CG fail only for {2} and {1}, at w1, and the pool lists {2}
# first: the report must come from that pair in pool order.
_REVERSED_PAIR = (2, True, {
    Group.of(0): [{3}, {3}], Group.of(1): [{3}, {2, 3}],
    Group.of(2): [{3}, {1, 3}], Group.of(0, 1): [{3}, {2, 3}],
    Group.of(0, 2): [{3}, {1, 3}], Group.of(1, 2): [{3}, {1, 2, 3}],
}, {"p": 1}, (Group.of(2), Group.of(0), Group.of(1)), 0)
# A pool holding {0} twice: its second copy shares the first's table
# position, so instances through it repeat earlier ones.
_REPEATED_GROUP = (2, True, {
    Group.of(0): [{1}, {1, 3}], Group.of(1): [{3}, {2, 3}],
    Group.of(0, 1): [{1}, {2, 3}],
}, {"p": 2}, (Group.of(0), Group.of(1), Group.of(0)), 1)


@settings(max_examples=300, deadline=None)
@given(_cases())
@example(_REVERSED_PAIR)
@example(_REPEATED_GROUP)
def test_kernel_matches_reference_checker(case):
    n, general, families, valuation, pool, agent = case
    for kind in _KINDS:
        s = SchemaId(kind, agent if kind in _AGENT_KINDS else None)
        for mode in _MODES:
            _assert_same((n, general, families, valuation), s, mode, pool)


def test_three_way_union_over_the_guard():
    # Pairwise unions have 6 members, the three-way union 9: B2 derives
    # only the former, B3 the latter as well.
    pool = (Group.of(0, 1, 2), Group.of(3, 4, 5), Group.of(6, 7, 8))
    case = (1, False, {a: [{0, 1}] for a in range(9)}, {"p": 1})
    for mode in _MODES:
        _assert_same(case, B2, mode, pool)
        _assert_same(case, B3, mode, pool)
    m = _build(*case)
    assert check_schema_semantically(m, B2, group_pool=pool).valid
    with pytest.raises(ResourceLimitError, match="0,1,2,3,4,5,6,7,8"):
        check_schema_semantically(m, B3, group_pool=pool)


# Seven worlds are over the all-subsets guard (2**7 > 64 states), so only
# definable-only checks run, and without the all-subsets comparison.
# Every family holds two subsets of the seven worlds, drawn once.  On the
# AgentModel every subset is definable; on the GeneralModel only a few.
_AGENT_SEVEN = (7, False, {
    0: [{98, 107}, {10, 66}, {103, 124}, {77, 122}, {55, 91}, {35, 72},
        {24, 35}],
    1: [{37, 64}, {25, 79}, {18, 84}, {25, 120}, {90, 111}, {52, 80},
        {113, 122}],
    2: [{15, 66}, {3, 23}, {0, 102}, {85, 126}, {62, 83}, {16, 48},
        {56, 61}],
}, {"p": 0b0011010})
_GENERAL_SEVEN = (7, True, {
    Group.of(0): [{36, 114}, {20, 23}, {81, 125}, {27, 77}, {31, 74},
                  {52, 85}, {73, 113}],
    Group.of(1): [{23, 98}, {61, 81}, {47, 74}, {47, 48}, {8, 66},
                  {17, 121}, {22, 33}],
    Group.of(0, 1): [{9, 38}, {20, 100}, {60, 70}, {55, 107}, {70, 115},
                     {91, 126}, {21, 83}],
    Group.of(2): [{29, 124}, {48, 85}, {4, 62}, {29, 69}, {56, 95},
                  {43, 85}, {15, 109}],
}, {"p": 0b1010011})
_GENERAL_POOL = (Group.of(0), Group.of(1), Group.of(0, 1), Group.of(1, 2))


@pytest.mark.parametrize("case,pool,every_subset", [
    (_AGENT_SEVEN, None, True),
    (_GENERAL_SEVEN, _GENERAL_POOL, False),
])
def test_definable_only_past_the_guard(case, pool, every_subset):
    m = _build(*case)
    _, full_range = _set_range(m, "definable-only",
                               pool or default_group_pool(m))
    assert full_range == every_subset
    for kind in _KINDS:
        s = SchemaId(kind, 1 if kind in _AGENT_KINDS else None)
        for mode in _MODES:
            _assert_same(case, s, mode, pool)


# ---------------------------------------------------------------------------
# Pattern oracle: instantiate_schema and match_schema against the reference

# Groups over agents 0-3 share members and are often equal, so unions,
# subsets and B1's disjointness all come up.
_AGENT_GROUPS = st.sets(st.integers(0, 3), min_size=1).map(
    lambda s: Group(tuple(s)))
_FORMULAS = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("phi"), Top(), Bottom()]),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
        st.builds(Box, _AGENT_GROUPS, sub)),
    max_leaves=4)
# A value of the wrong type for a group or for a formula variable.
_WRONG = st.sampled_from([Top(), "p", (1, 2), None, Group.of(1)])


def _schemas():
    for kind in _KINDS:
        for agent in (range(4) if kind in _AGENT_KINDS else (None,)):
            yield SchemaId(kind, agent)


def _children(f):
    if isinstance(f, (Not, Box)):
        return (f.body,)
    if isinstance(f, (And, Or, Implies, Iff)):
        return (f.left, f.right)
    return ()


def _nodes(f, path=()):
    yield path, f
    for i, child in enumerate(_children(f)):
        yield from _nodes(child, path + (i,))


def _replace(f, path, new):
    if not path:
        return new
    parts = list(_children(f))
    parts[path[0]] = _replace(parts[path[0]], path[1:], new)
    if isinstance(f, Box):
        return Box(f.group, parts[0])
    return type(f)(*parts)


def _instantiated(instantiate, s, binding):
    try:
        return instantiate(s, binding)
    except ValueError as exc:
        return str(exc)


def _assert_same_matches(f):
    for s in _schemas():
        assert match_schema(s, f) == match_reference(s, f), (s, f)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_patterns_match_reference(data):
    draw = data.draw
    s = draw(st.sampled_from(list(_schemas())))
    phi = draw(_FORMULAS)
    values = {"G": draw(_AGENT_GROUPS), "H": draw(_AGENT_GROUPS),
              "J": draw(_AGENT_GROUPS), "phi": phi,
              "psi": draw(st.one_of(st.just(phi), _FORMULAS))}
    names = _GROUP_VARS[s.kind] + _SET_VARS[s.kind]
    binding = {v: values[v] for v in names}
    fault = draw(st.sampled_from(["none"] * 4 + ["missing", "extra", "type"]))
    if fault == "missing" and names:
        del binding[draw(st.sampled_from(names))]
    elif fault == "extra":
        extra = draw(st.sampled_from(["G", "H", "J", "phi", "psi", "A"]))
        binding[extra] = values.get(extra, Group.of(0))
    elif fault == "type" and names:
        binding[draw(st.sampled_from(names))] = draw(_WRONG)

    want = _instantiated(instantiate_reference, s, binding)
    assert _instantiated(instantiate_schema, s, binding) == want
    if isinstance(want, str):
        return
    f = want
    _assert_same_matches(f)
    nodes = list(_nodes(f))
    if draw(st.booleans()):
        path, _ = draw(st.sampled_from(nodes))
        new = draw(st.one_of(st.sampled_from([phi, values["psi"]]),
                             _FORMULAS))
        _assert_same_matches(_replace(f, path, new))
    boxes = [(p, n) for p, n in nodes if isinstance(n, Box)]
    if boxes and draw(st.booleans()):
        path, node = draw(st.sampled_from(boxes))
        group = draw(st.one_of(
            st.sampled_from([values["G"], values["H"], values["J"]]),
            st.builds(lambda a, b: a | b, _AGENT_GROUPS, _AGENT_GROUPS)))
        _assert_same_matches(_replace(f, path, Box(group, node.body)))


def _proof_files():
    for name in CERTIFICATE_NAMES:
        yield proof_from_dict(builtin_certificate(name))
    for name, mutate, _ in _MUTATIONS:
        data = builtin_certificate(name)
        mutate(data)
        yield proof_from_dict(data)


def test_patterns_match_reference_on_certificates():
    for pf in _proof_files():
        for line in pf.proof.lines:
            _assert_same_matches(line.formula)
            j = line.justification
            if isinstance(j, AxiomRef) and j.binding is not None:
                binding = dict(j.binding)
                assert (_instantiated(instantiate_schema, j.schema, binding)
                        == _instantiated(instantiate_reference, j.schema,
                                         binding))


# ---------------------------------------------------------------------------
# Enumeration oracle: exhaustive_models against the reference (copied
# verbatim, renamed)


def exhaustive_reference(bounds: SearchBounds) -> Iterator[AgentModel]:
    """Every model within the bounds, frame constraints as filters.

    Order: domain size ascending; then valuation codes (per atom, last
    atom fastest); then family codes per (agent, world) slot, agents in
    bounds order, worlds ascending, last slot fastest.  At most
    1 048 640 models are visited, the size of the largest space the
    bounds admit; NBHD_MAX_STATES may lower that cap.
    """
    if bounds.mode != "exhaustive":
        raise ValueError("exhaustive_models needs bounds in exhaustive mode")
    cap = limit("visits")
    visited = 0
    for n in range(1, bounds.max_worlds + 1):
        worlds = tuple(World(i, f"w{i}") for i in range(n))
        n_sets = 1 << n
        n_fams = 1 << n_sets
        slots = len(bounds.agents) * n
        for vcodes in itertools.product(range(n_sets),
                                        repeat=len(bounds.atoms)):
            valuation = {atom: WorldSet(bits, n)
                         for atom, bits in zip(bounds.atoms, vcodes)}
            for fcodes in itertools.product(range(n_fams), repeat=slots):
                visited += 1
                if visited > cap:
                    raise ResourceLimitError(
                        f"exhaustive search visited more than {cap} models "
                        "(NBHD_MAX_STATES)")
                agents = {}
                for ai, agent in enumerate(bounds.agents):
                    fams = tuple(
                        frozenset(s for s in range(n_sets)
                                  if (fcodes[ai * n + w] >> s) & 1)
                        for w in range(n))
                    agents[agent] = NeighbourhoodMap(n, fams)
                model = AgentModel(worlds, valuation, agents)
                if all(check_condition(model, c).holds
                       for c in bounds.frame_constraints):
                    yield model


def _until_cap(enumerate_models, bounds):
    """The models yielded before the visit cap fires, or all of them."""
    out = []
    try:
        for m in enumerate_models(bounds):
            out.append(m)
    except ResourceLimitError as exc:
        out.append((type(exc), str(exc)))
    return out


# Agent 1's world-1 slot is the second slowest in the 2-agent, 2-world
# space and changes every 256 candidates, so a prefix of 800 candidates
# (16 or 32 of them over one world) sees it take three values or more.
_PREFIX = 800
_SPACES = [(n, agents, atoms) for n in (1, 2) for agents in ((1,), (1, 2))
           for atoms in ((), ("p",))]


def _filters(agents):
    """No constraint, each supported one over ``agents``, and a pair."""
    return [(), (Nec(1),), (Conec(1),), (PCondition(1),), (Cop(1),),
            (Reflexive(),), (BinaryConsistent(),), (Monotone(),),
            (IntersectionClosed(),), (PGroup(Group.of(1)),),
            (PGroup(Group(agents)),), (Nec(agents[-1]), Monotone())]


@pytest.mark.parametrize("n,agents,atoms", _SPACES)
def test_enumeration_matches_reference(monkeypatch, n, agents, atoms):
    prefix = n == 2 and len(agents) == 2
    if prefix:
        monkeypatch.setenv("NBHD_MAX_STATES", str(_PREFIX))
    for constraints in _filters(agents):
        bounds = SearchBounds(max_worlds=n, agents=agents, atoms=atoms,
                              mode="exhaustive",
                              frame_constraints=constraints)
        got = _until_cap(exhaustive_models, bounds)
        assert got == _until_cap(exhaustive_reference, bounds), constraints
        if prefix and not constraints:
            assert len(got) == _PREFIX + 1  # the models, then the error


# ---------------------------------------------------------------------------
# Reference tokenizer, agent ids and parser (copied verbatim)


_SYMBOLS = (
    ("<->", "iff"),
    ("->", "imp"),
    ("~", "not"),
    ("&", "and"),
    ("|", "or"),
    ("(", "lparen"),
    (")", "rparen"),
    ("[", "lbrack"),
    ("]", "rbrack"),
    (",", "comma"),
)


def tokenize_reference(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((kind, sym, i))
                i += len(sym)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(("nat", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word == "true":
                    tokens.append(("true", word, i))
                elif word == "false":
                    tokens.append(("false", word, i))
                else:
                    tokens.append(("ident", word, i))
                i = j
            else:
                raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def group_reference(self) -> Group:
    agents = [int(self.expect("nat", "an agent id")[1])]
    while self.peek()[0] == "comma":
        self.take()
        agents.append(int(self.expect("nat", "an agent id")[1]))
    self.expect("rbrack", "']'")
    return Group(tuple(agents))


class ParserReference:
    def __init__(self, text: str):
        self.tokens = tokenize_reference(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what}", tok[2])
        return self.take()

    # formula := iff
    def formula(self) -> Formula:
        return self.iff()

    # iff := imp ("<->" imp)*        left associative
    def iff(self) -> Formula:
        node = self.imp()
        while self.peek()[0] == "iff":
            self.take()
            node = Iff(node, self.imp())
        return node

    # imp := or ("->" imp)?          right associative
    def imp(self) -> Formula:
        node = self.disj()
        if self.peek()[0] == "imp":
            self.take()
            return Implies(node, self.imp())
        return node

    # or := and ("|" and)*
    def disj(self) -> Formula:
        node = self.conj()
        while self.peek()[0] == "or":
            self.take()
            node = Or(node, self.conj())
        return node

    # and := unary ("&" unary)*
    def conj(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "and":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "not":
            self.take()
            return Not(self.unary())
        if kind == "lbrack":
            self.take()
            group = self.group()
            return Box(group, self.unary())
        if kind == "true":
            self.take()
            return Top()
        if kind == "false":
            self.take()
            return Bottom()
        if kind == "ident":
            self.take()
            return Atom(value)
        if kind == "lparen":
            self.take()
            node = self.formula()
            self.expect("rparen", "')'")
            return node
        raise FormulaSyntaxError("expected a formula", pos)

    group = group_reference


def parse_reference(text: str) -> Formula:
    """Parse ``text`` into a formula, raising FormulaSyntaxError on bad input."""
    parser = ParserReference(text)
    node = parser.formula()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError("unexpected trailing input", pos)
    return node


# ---------------------------------------------------------------------------
# Tokenizer and parser oracle


def _parse_outcome(fn, text):
    try:
        return fn(text)
    except FormulaSyntaxError as exc:
        return (FormulaSyntaxError, str(exc), exc.position)
    except ValueError as exc:
        return (ValueError, str(exc))




_PIECES = (["<->", "->", "~", "&", "|", "(", ")", "[", "]", ",", "<", "-",
            "_", "true", "false", " ", "\t", "\x1c", "\u2028",
            "π", "é", "１", "१", "²", "①"]
           + list(string.ascii_letters) + list(string.digits))
_SOUP = st.lists(st.sampled_from(_PIECES), max_size=16).map("".join)
_WS = st.sampled_from(["", "", " ", "\t", "\x1c", "\u2028"])
_NAME = st.text(string.ascii_lowercase + "P_2πé²", min_size=1, max_size=3)
_AGENT = st.text("0123１१²①", min_size=1, max_size=2)
_AGENTS = st.lists(_AGENT, min_size=1, max_size=3).map(",".join)


def _spaced(*parts):
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map("".join)


# Mostly well-formed text, with the odd name, agent id and space that the
# character soup rarely puts together.
_TEXT = st.recursive(
    st.one_of(_NAME, st.sampled_from(["true", "false", "true_", "p1"])),
    lambda sub: st.one_of(
        _spaced("~", _WS, sub),
        _spaced("[", _WS, _AGENTS, _WS, "]", sub),
        _spaced("(", _WS, sub, _WS, ")"),
        _spaced(sub, _WS, st.sampled_from(["<->", "->", "&", "|"]), _WS,
                sub)),
    max_leaves=6)


# Well-formed text with up to 12 atoms, so that precedence,
# associativity and parentheses decide the tree.
_GRAMMAR = st.recursive(
    st.sampled_from(["p", "q", "true"]),
    lambda sub: st.one_of(
        _spaced("~", sub), _spaced(st.sampled_from(["[1]", "[1,2]"]), sub),
        _spaced("(", sub, ")"),
        _spaced(sub, st.sampled_from([" <-> ", " -> ", " | ", " & "]), sub)),
    max_leaves=12)


@settings(max_examples=800, deadline=None)
@given(text=st.one_of(_SOUP, _TEXT, _spaced(_WS, _TEXT, _WS), _GRAMMAR))
def test_tokenizer_matches_reference(text):
    expected = _parse_outcome(tokenize_reference, text)
    assert _parse_outcome(nbhd.formula._tokenize, text) == expected
    expected = _parse_outcome(parse_reference, text)
    got = _parse_outcome(parse, text)
    if isinstance(expected, tuple) and expected[0] is ValueError:
        assert isinstance(got, tuple) and got[0] is FormulaSyntaxError
    else:
        assert got == expected


def test_tokenizer_fixes_the_bare_value_error():
    assert _parse_outcome(parse_reference, "[²]p") == (
        ValueError, "invalid literal for int() with base 10: '²'")
    assert _parse_outcome(parse, "[²]p") == (
        FormulaSyntaxError, "expected an agent id (at position 1)", 1)


# ---------------------------------------------------------------------------
# Normal-form oracle: normalize against the reference (copied verbatim,
# renamed), which normalized both copies of each side of an <->


def normalize_reference(f: Formula) -> Formula:
    """Rewrite into the primitive basis {false, atoms, ~, |, boxes}.

    Total and idempotent; the result has the same truth set on every
    model as the input.
    """
    if isinstance(f, (Bottom, Atom)):
        return f
    if isinstance(f, Top):
        return Not(Bottom())
    if isinstance(f, Not):
        return Not(normalize_reference(f.body))
    if isinstance(f, Or):
        return Or(normalize_reference(f.left), normalize_reference(f.right))
    if isinstance(f, And):
        return Not(Or(Not(normalize_reference(f.left)), Not(normalize_reference(f.right))))
    if isinstance(f, Implies):
        return Or(Not(normalize_reference(f.left)), normalize_reference(f.right))
    if isinstance(f, Iff):
        return normalize_reference(And(Implies(f.left, f.right), Implies(f.right, f.left)))
    if isinstance(f, Box):
        return Box(f.group, normalize_reference(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _iff_chain(depth: int) -> Formula:
    """``((p0 <-> [1]p1) <-> [1]p2) ...`` with ``depth`` connectives."""
    f: Formula = Atom("p0")
    for i in range(1, depth + 1):
        f = Iff(f, Box(Group.of(1), Atom(f"p{i}")))
    return f


@given(_FORMULAS)
def test_normalize_matches_reference(f):
    assert normalize(f) == normalize_reference(f)


def test_normalize_matches_reference_on_iff_chains():
    for depth in range(9):
        f = _iff_chain(depth)
        assert normalize(f) == normalize_reference(f), depth
        g = Iff(Iff(Atom("q"), f), f)  # nested on both sides
        assert normalize(g) == normalize_reference(g), depth


def _distinct_nodes(f: Formula) -> int:
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, k) for k in ("left", "right", "body")
                         if hasattr(node, k))
    return len(seen)


def _timeout(signum, frame):
    raise TimeoutError


def test_normalize_is_linear_on_a_30_deep_iff_chain():
    # The reference doubles its work per level: 16 levels took seconds,
    # so 30 would not finish; the alarm turns that into a failure.
    f = _iff_chain(30)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = perf_counter()
        g = normalize(f)
        elapsed = perf_counter() - start
    except TimeoutError:
        elapsed = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if elapsed is None:
        pytest.fail("normalize took more than 5 s", pytrace=False)
    assert elapsed < 0.5
    # each side is normalized once and shared by both of its copies
    assert _distinct_nodes(g) <= 10 * 31


def test_truth_set_is_linear_on_a_normalized_20_deep_iff_chain():
    # normalize shares each side of an <-> between its two copies.  The
    # reference kept truth sets by value, so it hashed whole subtrees and
    # evaluated the result as a tree: over a minute at 20 levels.
    f = _iff_chain(20)
    m = _build(3, False, {1: [{1, 2, 5}, {3, 4}, {0, 7}]},
               {f"p{i}": i % 8 for i in range(21)})
    g = normalize(f)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = perf_counter()
        got = truth_set(m, g)
        elapsed = perf_counter() - start
    except TimeoutError:
        elapsed = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if elapsed is None:
        pytest.fail("truth_set took more than 5 s", pytrace=False)
    assert elapsed < 1
    assert got == truth_set(m, f)


# ---------------------------------------------------------------------------
# Traversal oracle: the printer, normal form, collectors, evaluator and
# tautology check against the reference (copied verbatim, renamed)


_IFF, _IMP, _OR, _AND, _UNARY = 1, 2, 3, 4, 5
_MAX_TAUTOLOGY_UNITS = 20


def _render_reference(f: Formula, want: int) -> str:
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _render_reference(f.body, _UNARY)
    if isinstance(f, Box):
        return f"[{f.group}]" + _render_reference(f.body, _UNARY)
    if isinstance(f, And):
        s = _render_reference(f.left, _AND) + " & " + _render_reference(f.right, _UNARY)
        level = _AND
    elif isinstance(f, Or):
        s = _render_reference(f.left, _OR) + " | " + _render_reference(f.right, _AND)
        level = _OR
    elif isinstance(f, Implies):
        s = _render_reference(f.left, _OR) + " -> " + _render_reference(f.right, _IMP)
        level = _IMP
    elif isinstance(f, Iff):
        s = _render_reference(f.left, _IFF) + " <-> " + _render_reference(f.right, _IMP)
        level = _IFF
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if level < want else s


def render_reference(f: Formula) -> str:
    """Print ``f`` with minimal parentheses; inverse of :func:`parse`."""
    return _render_reference(f, _IFF)


def normalize_linear_reference(f: Formula) -> Formula:
    """Rewrite into the primitive basis {false, atoms, ~, |, boxes}.

    Total and idempotent; the result has the same truth set on every
    model as the input.
    """
    if isinstance(f, (Bottom, Atom)):
        return f
    if isinstance(f, Top):
        return Not(Bottom())
    if isinstance(f, Not):
        return Not(normalize_linear_reference(f.body))
    if isinstance(f, Or):
        return Or(normalize_linear_reference(f.left), normalize_linear_reference(f.right))
    if isinstance(f, And):
        return Not(Or(Not(normalize_linear_reference(f.left)), Not(normalize_linear_reference(f.right))))
    if isinstance(f, Implies):
        return Or(Not(normalize_linear_reference(f.left)), normalize_linear_reference(f.right))
    if isinstance(f, Iff):
        # (a -> b) & (b -> a), with each side normalized once and shared
        left, right = normalize_linear_reference(f.left), normalize_linear_reference(f.right)
        return Not(Or(Not(Or(Not(left), right)), Not(Or(Not(right), left))))
    if isinstance(f, Box):
        return Box(f.group, normalize_linear_reference(f.body))
    raise TypeError(f"not a formula: {f!r}")


def formula_atoms_reference(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring anywhere in ``f``."""
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, (Bottom, Top)):
        return frozenset()
    if isinstance(f, Not):
        return formula_atoms_reference(f.body)
    if isinstance(f, Box):
        return formula_atoms_reference(f.body)
    if isinstance(f, (Or, And, Implies, Iff)):
        return formula_atoms_reference(f.left) | formula_atoms_reference(f.right)
    raise TypeError(f"not a formula: {f!r}")


def formula_agents_reference(f: Formula) -> frozenset[int]:
    """Agent ids occurring in box indices anywhere in ``f``."""
    if isinstance(f, (Bottom, Top, Atom)):
        return frozenset()
    if isinstance(f, Not):
        return formula_agents_reference(f.body)
    if isinstance(f, Box):
        return frozenset(f.group) | formula_agents_reference(f.body)
    if isinstance(f, (Or, And, Implies, Iff)):
        return formula_agents_reference(f.left) | formula_agents_reference(f.right)
    raise TypeError(f"not a formula: {f!r}")


def boxed_atoms_reference(f: Formula) -> frozenset[Formula]:
    """The propositional units of ``f``: atoms plus outermost boxed subformulas."""
    if isinstance(f, (Atom, Box)):
        return frozenset((f,))
    if isinstance(f, (Bottom, Top)):
        return frozenset()
    if isinstance(f, Not):
        return boxed_atoms_reference(f.body)
    if isinstance(f, (Or, And, Implies, Iff)):
        return boxed_atoms_reference(f.left) | boxed_atoms_reference(f.right)
    raise TypeError(f"not a formula: {f!r}")


def tautology_reference(f: Formula) -> bool:
    """Truth-table check treating atoms and boxed subformulas as opaque units.

    The whole table is evaluated at once, one bit per row: unit ``i`` is
    true in row ``r`` iff bit ``i`` of ``r`` is set.  Memory and time
    grow with 2^k for k distinct units; refuses to run beyond 20 units,
    which is far above anything the proof checker meets.
    """
    units = boxed_atoms_reference(f)
    if len(units) > _MAX_TAUTOLOGY_UNITS:
        raise ResourceLimitError(
            f"tautology check over {len(units)} units exceeds the "
            f"{_MAX_TAUTOLOGY_UNITS}-unit guard")
    rows = 1 << len(units)
    memo = {}
    for i, u in enumerate(units):
        run = 1 << i  # rows alternate runs of 2^i with unit i false and true
        memo[u] = int(("1" * run + "0" * run) * (rows // (2 * run)), 2)
    full = (1 << rows) - 1
    return truth_bits_reference(None, f, memo, full) == full


def truth_bits_reference(m: Model, f: Formula, memo: dict, full: int) -> int:
    """Truth set of ``f`` as a bit vector below the domain mask ``full``.

    ``m`` is read only for atoms and boxes that ``memo`` does not hold.
    """
    hit = memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Bottom):
        bits = 0
    elif isinstance(f, Top):
        bits = full
    elif isinstance(f, Atom):
        ws = m.valuation.get(f.name)
        bits = ws.bits if ws is not None else 0
    elif isinstance(f, Not):
        bits = full ^ truth_bits_reference(m, f.body, memo, full)
    elif isinstance(f, Or):
        bits = (truth_bits_reference(m, f.left, memo, full)
                | truth_bits_reference(m, f.right, memo, full))
    elif isinstance(f, And):
        bits = (truth_bits_reference(m, f.left, memo, full)
                & truth_bits_reference(m, f.right, memo, full))
    elif isinstance(f, Implies):
        bits = ((full ^ truth_bits_reference(m, f.left, memo, full))
                | truth_bits_reference(m, f.right, memo, full))
    elif isinstance(f, Iff):
        bits = full ^ (truth_bits_reference(m, f.left, memo, full)
                       ^ truth_bits_reference(m, f.right, memo, full))
    elif isinstance(f, Box):
        body = truth_bits_reference(m, f.body, memo, full)
        bits = 0
        for w, fam in enumerate(group_families(m, f.group)):
            if body in fam:
                bits |= 1 << w
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[f] = bits
    return bits


def _traversal_outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as exc:
        return TypeError, str(exc)


# The seven groups over agents 1-3, the agents of the formulas' boxes.
_OVER_123 = tuple(Group(tuple(a for a in (1, 2, 3) if code >> (a - 1) & 1))
                  for code in range(1, 8))


@st.composite
def _truth_cases(draw):
    """A model's parts for ``_build``: some agents or groups over 1-3
    own families, and some of the atoms p, q and r are valued."""
    n = draw(st.integers(1, 3))
    fams = st.lists(st.sets(st.integers(0, (1 << n) - 1), max_size=4),
                    min_size=n, max_size=n)
    general = draw(st.booleans())
    owners = [o for o in (_OVER_123 if general else (1, 2, 3))
              if draw(st.booleans())]
    families = {o: draw(fams) for o in owners}
    valuation = {a: draw(st.integers(0, (1 << n) - 1)) for a in "pqr"
                 if draw(st.booleans())}
    return n, general, families, valuation


def _variants(f):
    """``f``, its normal form, whose nodes are shared, and two formulas
    that hold ``f`` twice."""
    return f, normalize(f), Iff(f, f), Or(f, Not(f))


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_syntax_traversals_match_reference(f):
    for g in _variants(f):
        assert render(g) == render_reference(g)
        assert normalize(g) == normalize_linear_reference(g)
        assert formula_atoms(g) == formula_atoms_reference(g)
        assert formula_agents(g) == formula_agents_reference(g)
        assert boxed_atoms(g) == boxed_atoms_reference(g)
        assert is_propositional_tautology(g) == tautology_reference(g)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS, _truth_cases())
def test_truth_bits_match_reference(f, case):
    full = (1 << case[0]) - 1
    for g in _variants(f):
        mine, theirs = _build(*case), _build(*case)
        assert (_truth_bits(mine, g, {}, full)
                == truth_bits_reference(theirs, g, {}, full))
        # the same group families derived, in the same order
        assert list(mine._group_cache) == list(theirs._group_cache)


@given(_FORMULAS, st.randoms(use_true_random=False))
def test_tautology_unit_memo_matches_reference(f, rng):
    # any bits per unit, looked up by value at each atom and box
    full = (1 << 16) - 1
    for g in _variants(f):
        bits = {u: rng.getrandbits(16) for u in boxed_atoms_reference(g)}
        memo = {id(h): bits[h] for h in nbhd.formula._subformulas(g, False)
                if isinstance(h, (Atom, Box))}
        assert (_truth_bits(None, g, memo, full)
                == truth_bits_reference(None, g, dict(bits), full))


@settings(max_examples=300, deadline=None)
@given(_FORMULAS, st.sampled_from([42, "p", None, (1,), Group.of(1)]),
       st.data())
def test_non_formulas_raise_the_same_type_error(f, junk, data):
    path = data.draw(st.sampled_from([p for p, _ in _nodes(f)]))
    g = _replace(f, path, junk)
    case = (2, False, {1: [{1}, {2}], 2: [{3}, {0, 2}]}, {"p": 1, "q": 2})
    pairs = [(render, render_reference),
             (normalize, normalize_linear_reference),
             (formula_atoms, formula_atoms_reference),
             (formula_agents, formula_agents_reference),
             (boxed_atoms, boxed_atoms_reference),
             (is_propositional_tautology, tautology_reference),
             (lambda h: _truth_bits(_build(*case), h, {}, 3),
              lambda h: truth_bits_reference(_build(*case), h, {}, 3))]
    for mine, theirs in pairs:
        assert (_traversal_outcome(mine, g)
                == _traversal_outcome(theirs, g)), mine


# ---------------------------------------------------------------------------
# Reference frame conditions and repair (copied verbatim, renamed)


def _subjects(m: Model) -> list[tuple["int | Group", tuple[frozenset[int], ...]]]:
    """Families quantified over by the agent-generic conditions.

    For an AgentModel: every agent, ascending.  For a GeneralModel: the
    stored primitive group entries, sorted by size then members.
    """
    if isinstance(m, AgentModel):
        return [(a, m.agents[a].families) for a in sorted(m.agents)]
    return [(g, m.groups[g].families)
            for g in sorted(m.groups, key=Group.sort_key)]


def _agent_family(m: Model, agent: int) -> tuple[tuple[frozenset[int], ...], str | None]:
    """An agent's primitive families plus a note if the agent is absent."""
    if isinstance(m, AgentModel):
        nm = m.agents.get(agent)
        if nm is not None:
            return nm.families, None
        n = len(m.worlds)
        return (frozenset(),) * n, f"agent {agent} is absent from the model"
    g = Group.of(agent)
    nm = m.groups.get(g)
    if nm is not None:
        return nm.families, None
    n = len(m.worlds)
    return (frozenset((0,)),) * n, \
        f"group {{{agent}}} has no entry; using the default family {{{{}}}}"


def check_condition_reference(m: Model, c: FrameCondition) -> ConditionVerdict:
    """Check ``c`` on ``m``; on failure report the least witness.

    A condition naming an agent the model does not mention is reported
    via ``note``; it holds vacuously when it only restricts members and
    fails when it requires a member to be present.
    """
    n = len(m.worlds)
    full = (1 << n) - 1

    def ws(bits: int) -> WorldSet:
        return WorldSet(bits, n)

    if isinstance(c, (Nec, Conec, P, Cop)):
        fams, note = _agent_family(m, c.agent)
        required = {Nec: full, Cop: 0}.get(type(c))
        forbidden = {Conec: full, P: 0}.get(type(c))
        for w in range(n):
            if required is not None and required not in fams[w]:
                return ConditionVerdict(
                    False, FrameWitness(m.worlds[w].label, c.agent, ws(required)),
                    note)
            if forbidden is not None and forbidden in fams[w]:
                return ConditionVerdict(
                    False, FrameWitness(m.worlds[w].label, c.agent, ws(forbidden)),
                    note)
        return ConditionVerdict(True, None, note)

    if isinstance(c, PGroup):
        fams = group_families(m, c.group)
        for w in range(n):
            if 0 in fams[w]:
                return ConditionVerdict(
                    False, FrameWitness(m.worlds[w].label, c.group, ws(0)))
        return ConditionVerdict(True)

    if isinstance(c, Reflexive):
        for w in range(n):
            for subject, fams in _subjects(m):
                for x in sorted(fams[w]):
                    if not (x >> w) & 1:
                        return ConditionVerdict(
                            False, FrameWitness(m.worlds[w].label, subject, ws(x)))
        return ConditionVerdict(True)

    if isinstance(c, BinaryConsistent):
        for w in range(n):
            for subject, fams in _subjects(m):
                fam = fams[w]
                for x in sorted(fam):
                    if (full ^ x) in fam:
                        return ConditionVerdict(
                            False, FrameWitness(m.worlds[w].label, subject, ws(x)))
        return ConditionVerdict(True)

    if isinstance(c, Monotone):
        for w in range(n):
            for subject, fams in _subjects(m):
                fam = fams[w]
                for x in sorted(fam):
                    for y in range(full + 1):
                        if x & y == x and y not in fam:
                            return ConditionVerdict(
                                False,
                                FrameWitness(m.worlds[w].label, subject, ws(y)))
        return ConditionVerdict(True)

    if isinstance(c, IntersectionClosed):
        for w in range(n):
            for subject, fams in _subjects(m):
                fam = sorted(fams[w])
                members = fams[w]
                for x in fam:
                    for y in fam:
                        if x & y not in members:
                            return ConditionVerdict(
                                False,
                                FrameWitness(m.worlds[w].label, subject, ws(x & y)))
        return ConditionVerdict(True)

    raise TypeError(f"not a frame condition: {c!r}")


def _close_family_supersets(fam: frozenset[int], full: int) -> frozenset[int]:
    return frozenset(y for y in range(full + 1)
                     if any(x & y == x for x in fam))


def _close_family_intersections(fam: frozenset[int]) -> frozenset[int]:
    # Binary closure reaches every intersection of a nonempty subfamily.
    out = set(fam)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            z = x & y
            if z not in out:
                out.add(z)
                frontier.append(z)
    return frozenset(out)


_SIMPLE_CONDITIONS = {
    "reflexive": Reflexive,
    "bincons": BinaryConsistent,
    "monotone": Monotone,
    "intclosed": IntersectionClosed,
}

_AGENT_CONDITIONS = {"nec": Nec, "conec": Conec, "p": P, "cop": Cop}


def format_reference(c: FrameCondition) -> str:
    if isinstance(c, PGroup):
        return f"pg:{c.group}"
    for name, cls in _AGENT_CONDITIONS.items():
        if isinstance(c, cls):
            return f"{name}:{c.agent}"
    for name, cls in _SIMPLE_CONDITIONS.items():
        if isinstance(c, cls):
            return name
    raise TypeError(f"not a frame condition: {c!r}")


def _static_contradictions(constraints: Sequence[FrameCondition]) -> None:
    have = set(constraints)
    agents = {getattr(c, "agent") for c in constraints
              if isinstance(c, (Nec, Conec, P, Cop))}
    for a in sorted(agents):
        if Nec(a) in have and Conec(a) in have:
            raise ConstraintError(
                f"nec:{a} and conec:{a} cannot both hold")
        if P(a) in have and Cop(a) in have:
            raise ConstraintError(f"p:{a} and cop:{a} cannot both hold")
        if (BinaryConsistent() in have and Nec(a) in have
                and Cop(a) in have):
            raise ConstraintError(
                f"bincons with nec:{a} and cop:{a} cannot hold: the empty "
                "set and the full set are complements")


def _repair(families: "dict[int, list[set[int]]]", n: int,
            constraints: Sequence[FrameCondition]) -> None:
    full = (1 << n) - 1
    have = set(constraints)
    agents = sorted(families)

    # 1. insertions
    for c in constraints:
        if isinstance(c, Nec):
            for fam in families[c.agent]:
                fam.add(full)
        elif isinstance(c, Cop):
            for fam in families[c.agent]:
                fam.add(0)

    # 2. deletions
    if Reflexive() in have:
        for a in agents:
            for w, fam in enumerate(families[a]):
                fam.intersection_update({x for x in fam if (x >> w) & 1})
    for c in constraints:
        if isinstance(c, P):
            for fam in families[c.agent]:
                fam.discard(0)
        elif isinstance(c, Conec):
            for fam in families[c.agent]:
                fam.discard(full)

    # 3. closures
    if Monotone() in have:
        for a in agents:
            families[a] = [set(_close_family_supersets(frozenset(fam), full))
                           for fam in families[a]]
    if IntersectionClosed() in have:
        for a in agents:
            families[a] = [set(_close_family_intersections(frozenset(fam)))
                           for fam in families[a]]

    # 4. binary-consistency pruning
    if BinaryConsistent() in have:
        for a in agents:
            protected = set()
            if Nec(a) in have:
                protected.add(full)
            if Cop(a) in have:
                protected.add(0)
            for fam in families[a]:
                for x in sorted(fam):
                    y = full ^ x
                    if x >= y or x not in fam or y not in fam:
                        continue
                    # drop the later member, unless an insertion
                    # constraint pinned it there
                    fam.discard(x if y in protected else y)


def random_model_reference(bounds: SearchBounds, draw: int) -> AgentModel:
    """The ``draw``-th model of the run — a pure function of
    ``(bounds.seed, draw)``.

    Draw order: domain size uniform in 1..max_worlds; per atom (bounds
    order) a world set; per agent (bounds order) per world (ascending)
    a family code over all 2^|W| subsets.  The model is then repaired
    to satisfy the frame constraints: Nec/Cop insertions, then
    Reflexive/P/Conec deletions, then Monotone/IntersectionClosed
    closures, then BinaryConsistent pruning (dropping the bitwise
    later of each complementary pair, keeping insertion-pinned sets);
    the result is re-verified and unsatisfiable combinations raise
    ConstraintError.  PGroup cannot be repaired into place — request
    Reflexive instead, which implies it.
    """
    if bounds.mode != "random":
        raise ValueError("random_model needs bounds in random mode")
    for c in bounds.frame_constraints:
        if isinstance(c, PGroup):
            raise ConstraintError(
                f"{format_reference(c)} cannot be enforced by repair; "
                "use reflexive, which implies it")
    _static_contradictions(bounds.frame_constraints)

    rng = Stream(bounds.seed, draw)
    n = 1 + rng.below(bounds.max_worlds)
    full = (1 << n) - 1
    worlds = tuple(World(i, f"w{i}") for i in range(n))
    valuation = {atom: WorldSet(rng.below(1 << n), n) for atom in bounds.atoms}
    families: dict[int, list[set[int]]] = {}
    for agent in bounds.agents:
        per_world = []
        for _w in range(n):
            code = rng.below(1 << (1 << n))
            per_world.append({s for s in range(1 << n) if (code >> s) & 1})
        families[agent] = per_world

    _repair(families, n, bounds.frame_constraints)

    model = AgentModel(
        worlds, valuation,
        {a: NeighbourhoodMap(n, tuple(frozenset(fam) for fam in fams))
         for a, fams in families.items()})
    for c in bounds.frame_constraints:
        verdict = check_condition_reference(model, c)
        if not verdict.holds:
            where = (f" at world {verdict.witness.world}"
                     if verdict.witness else "")
            raise ConstraintError(
                f"repair left {format_reference(c)} unsatisfied{where}")
    return model


# The frame condition each extension needs, by its name in frames.
_SCHEMA_CONSTRAINT = {
    "TG": "reflexive", "PG": "reflexive", "RMG": "monotone",
    "CG": "intclosed", "DI": "bincons",
    "NEC": "nec", "CONEC": "conec", "P": "p", "COP": "cop",
}


def required_reference(l: LogicDescriptor,
                       agents: Sequence[int]) -> tuple[FrameCondition, ...]:
    """Frame constraints matching the logic, for sound fuzzing.

    B1–B4 need nothing; TG and PG need Reflexive; RMG Monotone; CG
    IntersectionClosed; DI BinaryConsistent; the other agent-indexed
    schemas need their namesake conditions; SA needs Nec for every
    agent in the bounds.
    """
    out: list[FrameCondition] = []
    for s in sorted(l.extensions, key=format_schema):
        name = _SCHEMA_CONSTRAINT.get(s.kind)
        if s.kind == "SA":
            out.extend(Nec(a) for a in agents)
        elif name in _AGENT_CONDITIONS:
            out.append(_AGENT_CONDITIONS[name](s.agent))
        elif name is not None:
            out.append(_SIMPLE_CONDITIONS[name]())
    return tuple(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Frame-condition oracle: the condition table against the reference


def _conditions(agents, groups):
    """All nine kinds, over the given agents and groups."""
    out = [Reflexive(), BinaryConsistent(), Monotone(), IntersectionClosed()]
    for a in agents:
        out += [Nec(a), Conec(a), P(a), Cop(a)]
    return out + [PGroup(g) for g in groups]


def _assert_same_verdicts(m, conditions):
    for c in conditions:
        assert check_condition(m, c) == check_condition_reference(m, c), c
        assert format_condition(c) == format_reference(c)


def test_conditions_match_reference_on_the_one_agent_space():
    # agents 0 and 2, and groups naming them, are absent from every model
    conditions = _conditions((0, 1, 2), (Group.of(1), Group.of(2),
                                         Group.of(1, 2)))
    bounds = SearchBounds(max_worlds=2, agents=(1,), mode="exhaustive")
    models = list(exhaustive_models(bounds))
    assert len(models) == 4 + 256
    for m in models:
        _assert_same_verdicts(m, conditions)


# 13 is prime to the 16 codes of a world's slot, so the sample meets
# every code of every slot, and agent 2's slot with agent 1's in many
# combinations; ties at the least world between the two agents abound.
_STRIDE = 13


def test_conditions_match_reference_on_the_two_agent_space():
    # Agent 0 and groups naming it are absent.  Models share their maps,
    # so later candidates read what earlier ones left on them.
    conditions = _conditions((0, 1, 2), (Group.of(1), Group.of(2),
                                         Group.of(1, 2), Group.of(0, 1)))
    bounds = SearchBounds(max_worlds=2, agents=(1, 2), mode="exhaustive")
    models = itertools.islice(exhaustive_models(bounds), 0, None, _STRIDE)
    seen = 0
    for m in models:
        _assert_same_verdicts(m, conditions)
        seen += 1
    assert seen == -(-(16 + 65_536) // _STRIDE)


def _shared(m):
    """``m`` with its maps rebuilt as maps that keep condition results."""
    if isinstance(m, GeneralModel):
        return GeneralModel(m.worlds, m.valuation, {
            g: _SharedMap(nm.size, nm.families) for g, nm in m.groups.items()})
    return AgentModel(m.worlds, m.valuation, {
        a: _SharedMap(nm.size, nm.families) for a, nm in m.agents.items()})


def _relabelled(m, labels):
    worlds = tuple(World(i, label) for i, label in enumerate(labels))
    if isinstance(m, GeneralModel):
        return GeneralModel(worlds, m.valuation, m.groups)
    return AgentModel(worlds, m.valuation, m.agents)


def test_shared_map_keeps_no_label_or_subject():
    # One map, as agent 1 of one model and as agents 1 and 2 of models
    # whose worlds carry other labels; and as a group of a GeneralModel.
    nm = _SharedMap(2, [{1, 2}, {0, 3}])
    worlds = (World(0, "a"), World(1, "b"))
    first = AgentModel(worlds, {}, {1: nm})
    both = AgentModel((World(0, "x"), World(1, "y")), {}, {2: nm, 1: nm})
    same = AgentModel((World(0, "a"), World(1, "b")), {}, {1: nm})
    general = GeneralModel(worlds, {}, {Group.of(2): nm})
    conditions = _conditions((1, 2), (Group.of(1), Group.of(2)))
    for m in (first, both, same, general, first, both, general):
        _assert_same_verdicts(m, conditions)
    assert check_condition(both, Reflexive()).witness == FrameWitness(
        "x", 1, WorldSet(2, 2))


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_conditions_match_reference_on_shared_maps(case):
    # The same maps in models with other world labels, checked in turn:
    # absent agents, absent group entries and GeneralModels included.
    n, general, families, valuation, pool, _ = case
    m = _shared(_build(n, general, families, valuation))
    other = _relabelled(m, [f"v{i}" for i in range(n)])
    conditions = _conditions(range(5), pool)
    for model in (m, other, m):
        _assert_same_verdicts(model, conditions)


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_conditions_match_reference(case):
    # Agents 0-4 and the pool's groups: on an AgentModel some agents are
    # absent; on a GeneralModel agents 3 and 4 have no group entry.
    n, general, families, valuation, pool, _ = case
    _assert_same_verdicts(_build(n, general, families, valuation),
                          _conditions(range(5), pool))


# One constraint of each kind, all on agent 1 of two, so that agent 2
# shows whether a step or the keep-W rule leaks to other agents.
_CONSTRAINTS = (Nec(1), Cop(1), Reflexive(), P(1), Conec(1), Monotone(),
                IntersectionClosed(), BinaryConsistent(), PGroup(Group.of(1)))


def _drawn(draw_model, bounds, draw):
    try:
        return draw_model(bounds, draw)
    except ConstraintError as exc:
        return str(exc)


@st.composite
def _agent_cases(draw):
    """An AgentModel's families over 1-3 worlds for a subset of agents
    0-3, so that some agents are absent."""
    n = draw(st.integers(1, 3))
    fam = st.integers(0, (1 << (1 << n)) - 1).map(
        lambda c: {x for x in range(1 << n) if c >> x & 1})
    owners = sorted(draw(st.sets(st.integers(0, 3), max_size=4)))
    families = {a: [draw(fam) for _w in range(n)] for a in owners}
    return n, families, {"p": draw(st.integers(0, (1 << n) - 1))}


@settings(max_examples=300, deadline=None)
@given(_agent_cases())
def test_closures_match_reference(case):
    n, families, valuation = case
    m = _build(n, False, families, valuation)
    full = (1 << n) - 1
    for close, reference in (
            (close_under_supersets,
             lambda fam: _close_family_supersets(fam, full)),
            (close_under_intersections, _close_family_intersections)):
        closed = close(m)
        assert closed.worlds == m.worlds and closed.valuation == m.valuation
        assert list(closed.agents) == list(m.agents)  # absent stay absent
        for a, nm in m.agents.items():
            assert closed.agents[a].families == tuple(
                reference(fam) for fam in nm.families), (close, a)


def test_repair_matches_reference():
    for k in (1, 2, 3):
        for combo in itertools.combinations(_CONSTRAINTS, k):
            bounds = SearchBounds(max_worlds=3, agents=(1, 2), atoms=("p",),
                                  seed=20260825, frame_constraints=combo)
            for draw in range(25):
                assert (_drawn(random_model, bounds, draw)
                        == _drawn(random_model_reference, bounds, draw)), \
                    (combo, draw)


def test_required_constraints_match_reference():
    extensions = [SchemaId(kind, agent) for kind in _KINDS
                  if kind not in ("B1", "B2", "B3", "B4")
                  for agent in ((1, 2) if kind in _AGENT_KINDS else (None,))]
    for k in (0, 1, 2, 3):
        for exts in itertools.combinations(extensions, k):
            for cg in (False, True):
                logic = LogicDescriptor(frozenset(exts), cg)
                for agents in ((1, 2), (2,)):
                    assert (required_constraints(logic, agents)
                            == required_reference(logic, agents)), exts
