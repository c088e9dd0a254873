"""Differential oracles for the semantic schema checker and the schema
patterns.

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
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from nbhd import (
    AgentModel, And, Atom, AxiomRef, B2, B3, Bottom, Box, CERTIFICATE_NAMES,
    CounterExample, Formula, GeneralModel, Group, Iff, Implies,
    NeighbourhoodMap, Not, Or, ResourceLimitError, SchemaId, SchemaVerdict,
    Top, World, WorldSet, builtin_certificate, check_schema_semantically,
    default_group_pool, format_schema, group_families, instantiate_schema,
    match_schema, proof_from_dict,
)
from nbhd.logics import _AGENT_KINDS, _KINDS, _set_range
from nbhd.model import Model, _state_cap
from test_acceptance import _MUTATIONS


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
