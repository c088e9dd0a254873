"""Witness-level differential oracle for the semantic schema checker.

``_Plan``, ``_plan_for``, ``_mem`` and ``_find_counterexample`` below are
verbatim copies of the loop-over-every-instance checker that the
position-indexed kernel in ``nbhd.logics`` replaced, and
``check_schema_reference`` is ``check_schema_semantically`` on top of
it.  The tests require the same full ``SchemaVerdict`` (validity,
counterexample and note), the same exception type and message when the
reference raises, and the same groups derived in the same order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from nbhd import (
    AgentModel, B2, B3, CounterExample, GeneralModel, Group, NeighbourhoodMap,
    ResourceLimitError, SchemaId, SchemaVerdict, World, WorldSet,
    check_schema_semantically, default_group_pool, group_families,
)
from nbhd.logics import _AGENT_KINDS, _KINDS, _set_range
from nbhd.model import Model, _state_cap


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
        if (1 << n) <= _state_cap(64):
            shadow = _find_counterexample(m, s, pool, list(range(1 << n)), True)
            if shadow is not None:
                note = (f"holds over the {len(rng)} definable sets, but over "
                        f"all {1 << n} subsets it fails at "
                        + shadow.describe())
    return SchemaVerdict(cx is None, cx, note)


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


@settings(max_examples=300, deadline=None)
@given(_cases())
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
