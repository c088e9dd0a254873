"""Models: world sets, derived group families, truth, definable sets, JSON."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nbhd import (
    AgentModel, Atom, FIXTURE_NAMES, GeneralModel, Group, InputError,
    LogicDescriptor, ModelFormatError,
    NeighbourhoodMap, ResourceLimitError, SearchBounds, UnknownWorldError,
    World, WorldSet, default_group_pool, definable_sets, fixture,
    group_families, group_neighbourhood, mentioned_agents, model_from_dict,
    model_to_dict, normalize, parse, random_model, render, satisfies,
    truth_set, unions_up_to, valid_on_model, world_index,
)
from nbhd.model import _agent_model

G1, G2, G12 = Group.of(1), Group.of(2), Group.of(1, 2)


def _random(seed, draw, **kw):
    defaults = dict(max_worlds=3, agents=(1, 2), atoms=("p", "q"),
                    mode="random", trials=1, seed=seed)
    defaults.update(kw)
    return random_model(SearchBounds(**defaults), draw)


# ---------------------------------------------------------------------------
# WorldSet


def test_worldset_basics():
    a = WorldSet.of((0, 2), 3)
    b = WorldSet.of((1, 2), 3)
    assert a.bits == 0b101 and len(a) == 2
    assert (a & b) == WorldSet.of((2,), 3)
    assert (a | b) == WorldSet.full(3)
    assert a.complement() == WorldSet.of((1,), 3)
    assert 0 in a and 1 not in a
    assert a.indices() == (0, 2)
    assert WorldSet.empty(3).issubset(a)
    assert not a.issubset(b)
    assert WorldSet(0, 2) < WorldSet(1, 2)
    assert sorted([b, a]) == [a, b]


def test_worldset_range_check():
    with pytest.raises(ValueError):
        WorldSet(8, 3)
    with pytest.raises(ValueError):
        WorldSet(-1, 3)


@pytest.mark.parametrize("bits,size", [("x", 2), (1, "2"), (None, 2),
                                       (0, -1), (1.0, 2)])
def test_worldset_rejects_non_ints(bits, size):
    with pytest.raises(InputError) as exc:
        WorldSet(bits, size)
    assert str(exc.value) == f"bits {bits!r} out of range for {size!r} worlds"


@pytest.mark.parametrize("member", ["a", None, 1.5, (1,)])
def test_neighbourhood_map_rejects_non_int_members(member):
    with pytest.raises(InputError) as exc:
        NeighbourhoodMap(2, [{member}, {1}])
    assert str(exc.value) == f"member {member!r} out of range for 2 worlds"


# ---------------------------------------------------------------------------
# Fixture structure


def test_fixture_names():
    assert FIXTURE_NAMES == ("M1", "M2", "M3", "M4", "NONREFLEXIVE")
    with pytest.raises(ModelFormatError):
        fixture("M9")


def test_m1_structure():
    m = fixture("M1")
    assert isinstance(m, GeneralModel)
    assert [w.label for w in m.worlds] == ["wp", "wq", "wr"]
    assert truth_set(m, parse("p")) == WorldSet.of((0,), 3)
    # families are constant across worlds and sorted ascending
    assert group_neighbourhood(m, G1, "wp") == (WorldSet(0, 3), WorldSet(5, 3))
    assert group_neighbourhood(m, G2, "wq") == (WorldSet(0, 3), WorldSet(6, 3))
    # unmentioned groups fall back to the {empty set} family
    assert group_neighbourhood(m, G12, "wp") == (WorldSet(0, 3),)


def test_nonreflexive_structure():
    m = fixture("NONREFLEXIVE")
    assert isinstance(m, AgentModel)
    assert [w.label for w in m.worlds] == ["w", "v"]
    assert truth_set(m, parse("p")) == WorldSet.full(2)
    assert group_neighbourhood(m, G1, "w") == (WorldSet.of((0,), 2),)
    assert group_neighbourhood(m, G2, "v") == (WorldSet.of((1,), 2),)
    # the pair's pointwise intersection is {w} cap {v} = {}
    assert group_neighbourhood(m, G12, "w") == (WorldSet.empty(2),)
    assert satisfies(m, "w", parse("[1,2]false"))


def test_m2_satisfies_pair_top_but_not_singleton_top():
    m = fixture("M2")
    assert satisfies(m, "wp", parse("[1,2]true & ~[1]true"))


# ---------------------------------------------------------------------------
# Derived group families


def test_pointwise_intersection_hand_example():
    # Same families as M1 but agent-indexed, so the pair family is
    # derived: all four intersections of {wp,wr},{} with {wq,wr},{}.
    m = AgentModel(
        (World(0, "wp"), World(1, "wq"), World(2, "wr")),
        {"p": WorldSet(1, 3)},
        {1: NeighbourhoodMap(3, [{0b101, 0}] * 3),
         2: NeighbourhoodMap(3, [{0b110, 0}] * 3)})
    assert group_neighbourhood(m, G12, "wp") == (WorldSet(0, 3),
                                                 WorldSet(0b100, 3))


@pytest.mark.parametrize("agent", [-1, True, False, "1", 1.0])
def test_agent_model_rejects_bad_agent_ids(agent):
    nm = NeighbourhoodMap(1, [set()])
    with pytest.raises(ModelFormatError, match="non-negative integers"):
        AgentModel((World(0, "w"),), {}, {agent: nm})


@pytest.mark.parametrize("make,key", [
    (lambda nm: AgentModel((World(0, "w"),), {}, {1: nm}), "agent 1"),
    (lambda nm: GeneralModel((World(0, "w"),), {}, {G12: nm}), "group 1,2"),
])
@pytest.mark.parametrize("bad", [[set()], None, {0: {1}}])
def test_models_reject_maps_that_are_no_neighbourhood_map(make, key, bad):
    with pytest.raises(ModelFormatError) as exc:
        make(bad)
    assert str(exc.value) == (
        f"{key} needs a NeighbourhoodMap, got {type(bad).__name__}")


_UV = (World(0, "u"), World(1, "v"))


@pytest.mark.parametrize("build,error,message", [
    (lambda: NeighbourhoodMap(-1, []), InputError,
     "a map's size is a number of worlds, got -1"),
    (lambda: NeighbourhoodMap("2", [set()]), InputError,
     "a map's size is a number of worlds, got '2'"),
    (lambda: NeighbourhoodMap(2, [5, 6]), InputError,
     "a map needs one iterable of members per world, got [5, 6]"),
    (lambda: AgentModel(_UV, {"p": 1}, {}), ModelFormatError,
     "valuation of 'p' needs a WorldSet, got int"),
    (lambda: AgentModel(_UV, {}, [1]), ModelFormatError,
     "agents must be a mapping, got list"),
    (lambda: LogicDescriptor(frozenset({"tg"})), InputError,
     "extensions are SchemaIds, got 'tg'"),
    (lambda: Group(5), InputError,
     "expected a collection of agent ids, got 5"),
    (lambda: Atom(3), InputError, "an atom's name is a string, got 3"),
], ids=["map-size", "map-size-str", "map-family", "valuation-entry",
        "agents-list", "extension-name", "group-int", "atom-name"])
def test_constructors_reject_wrong_typed_values(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: WorldSet(1 << 20000, 2),
     "bits <int of 20001 bits> out of range for 2 worlds"),
    (lambda: WorldSet.of([10 ** 8], 2),
     "world index 100000000 out of range for 2 worlds"),
    (lambda: WorldSet.of([0, 1 << 20000], 2),
     "world index <int of 20001 bits> out of range for 2 worlds"),
    (lambda: NeighbourhoodMap(2, [{1 << 20000}, set()]),
     "member <int of 20001 bits> out of range for 2 worlds"),
], ids=["worldset-bits", "worldset-of", "worldset-of-huge", "map-member"])
def test_huge_ints_raise_input_error_without_printing_them(build, message):
    # str() of an int over 4 300 digits raises ValueError: a message
    # must not format one
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


_W = World(0, "w")


@pytest.mark.parametrize("build,message", [
    (lambda: GeneralModel((_W,), {}, {5: NeighbourhoodMap(1, [set()])}),
     "group keys must be Group, got 5"),
    (lambda: AgentModel((), {}, {}), "a model needs at least one world"),
    (lambda: AgentModel((World(1, "w"),), {}, {}),
     "world indices must be dense and ordered"),
    (lambda: AgentModel((World(1, "v"), _W), {}, {}),
     "world indices must be dense and ordered"),
    (lambda: GeneralModel((_W, World(1, "w")), {}, {}),
     "duplicate world label 'w'"),
    (lambda: AgentModel(_UV, {"p": WorldSet(1, 1)}, {}),
     "valuation of 'p' has wrong domain size"),
], ids=["group-key", "no-worlds", "index-gap", "index-order",
        "duplicate-label", "valuation-size"])
def test_models_reject_bad_structure(build, message):
    with pytest.raises(ModelFormatError) as exc:
        build()
    assert str(exc.value) == message


def test_private_constructor_builds_the_same_model():
    # exhaustive search builds its candidates with _agent_model: it must
    # set every field AgentModel sets, and AgentModel checks the agents
    worlds = (World(0, "u"), World(1, "v"))
    valuation = {"p": WorldSet(1, 2)}
    agents = {1: NeighbourhoodMap(2, [{1}, {3}]),
              2: NeighbourhoodMap(2, [set(), {0}])}
    built = _agent_model(worlds, valuation, agents)
    direct = AgentModel(worlds, valuation, agents)
    assert type(built) is AgentModel
    assert built == direct and vars(built) == vars(direct)
    assert built._group_cache is not _agent_model(worlds, valuation,
                                                  agents)._group_cache
    with pytest.raises(ModelFormatError, match="wrong size"):
        AgentModel(worlds, valuation, {1: NeighbourhoodMap(1, [set()])})
    with pytest.raises(ModelFormatError, match="non-negative integers"):
        AgentModel(worlds, valuation, {-1: agents[1]})


def test_absent_agent_has_empty_family():
    m = fixture("NONREFLEXIVE")
    assert group_neighbourhood(m, Group.of(9), "w") == ()
    assert group_neighbourhood(m, Group.of(1, 9), "w") == ()


def test_decomposition_into_disjoint_pairs():
    # derived family of a disjoint union = pairwise intersections of the
    # parts' derived families
    for draw in range(40):
        m = _random(1101, draw, agents=(1, 2, 3), max_worlds=4)
        for g, h in ((G1, G2), (G1, Group.of(2, 3)), (Group.of(3), G12)):
            u = g | h
            for w in range(len(m.worlds)):
                left = set(group_families(m, u)[w])
                right = {x & y
                         for x in group_families(m, g)[w]
                         for y in group_families(m, h)[w]}
                assert left == right


def test_full_set_membership_needs_every_intersectand_full():
    for draw in range(40):
        m = _random(1102, draw, agents=(1, 2, 3), max_worlds=4)
        full = (1 << len(m.worlds)) - 1
        for g, h in ((G1, G2), (G12, Group.of(3))):
            u = g | h
            for w in range(len(m.worlds)):
                if full in group_families(m, u)[w]:
                    assert full in group_families(m, g)[w]


def test_group_size_guard():
    m = AgentModel(
        (World(0, "w"),), {},
        {i: NeighbourhoodMap(1, [{0, 1}]) for i in range(1, 10)})
    with pytest.raises(ResourceLimitError):
        group_families(m, Group(tuple(range(1, 10))))


def test_product_guard(monkeypatch):
    m = AgentModel(
        (World(0, "a"), World(1, "b")), {},
        {1: NeighbourhoodMap(2, [{0, 1, 2, 3}] * 2),
         2: NeighbourhoodMap(2, [{0, 1, 2, 3}] * 2)})
    monkeypatch.setenv("NBHD_MAX_STATES", "10")
    with pytest.raises(ResourceLimitError):
        group_families(m, G12)
    # values above the built-in limit are clamped, never widen it
    monkeypatch.setenv("NBHD_MAX_STATES", "99999999")
    assert group_families(m, G12)[0] == frozenset({0, 1, 2, 3})
    m._group_cache.clear()
    for bad in ("lots", "0", "-5"):
        monkeypatch.setenv("NBHD_MAX_STATES", bad)
        with pytest.raises(ResourceLimitError,
                           match=f"NBHD_MAX_STATES='{bad}' is not a positive"):
            group_families(m, G12)


def _fold(m, g):
    """N_G by the paper's definition: the members' families at each
    world intersected pointwise, in member order."""
    out = []
    for w in range(len(m.worlds)):
        acc = None
        for a in g.members:
            fam = m.agents[a].families[w] if a in m.agents else frozenset()
            acc = fam if acc is None else frozenset(
                x & y for x in acc for y in fam)
        out.append(acc)
    return tuple(out)


@st.composite
def _models_and_pools(draw):
    """An AgentModel over agents 0-5, some of them absent and some
    families empty, and a pool of groups of 1-5 members in any order;
    some groups come with the group of all their members but the last,
    so a derivation finds its prefix cached in some orders only."""
    n = draw(st.integers(1, 3))
    subsets = st.integers(0, (1 << n) - 1)
    present = draw(st.sets(st.integers(0, 5), min_size=1))
    agents = {a: NeighbourhoodMap(n, draw(st.lists(
        st.frozensets(subsets, max_size=4), min_size=n, max_size=n)))
        for a in sorted(present)}
    m = AgentModel(tuple(World(i, f"w{i}") for i in range(n)), {}, agents)
    groups = draw(st.lists(st.sets(st.integers(0, 5), min_size=1,
                                   max_size=5), min_size=1, max_size=6))
    pool = []
    for members in groups:
        g = Group(tuple(members))
        pool.append(g)
        if len(g) > 2 and draw(st.booleans()):
            pool.append(Group(g.members[:-1]))
    return m, draw(st.permutations(pool))


@settings(max_examples=300, deadline=None)
@given(_models_and_pools())
def test_group_families_is_the_member_order_fold(case):
    m, pool = case
    for g in pool:
        assert group_families(m, g) == _fold(m, g)


def test_product_guard_counts_the_whole_product_from_a_cached_prefix(
        monkeypatch):
    # {0,1} has 2 * 2 = 4 intersections but only 3 distinct sets, so
    # {0,1,2} from that prefix would take 3 * 2 = 6, not 8
    def model():
        return AgentModel((World(0, "u"), World(1, "v")), {}, {
            0: NeighbourhoodMap(2, [{1, 2}] * 2),
            1: NeighbourhoodMap(2, [{1, 3}] * 2),
            2: NeighbourhoodMap(2, [{0, 3}] * 2)})
    monkeypatch.setenv("NBHD_MAX_STATES", "6")
    errors = []
    for prefix in ((), ((0, 1),)):
        m = model()
        for members in prefix:
            assert group_families(m, Group(members)) == (
                frozenset({0, 1, 2}),) * 2
        with pytest.raises(ResourceLimitError) as exc:
            group_families(m, Group((0, 1, 2)))
        errors.append((str(exc.value), exc.value.requested))
    assert errors == [("group 0,1,2 needs 8 intersections at world u, over "
                       "the 6 guard", 8)] * 2


# ---------------------------------------------------------------------------
# Truth


def test_truth_clause_conformance():
    clauses = [parse(t) for t in
               ("p", "q", "false", "~p", "p | q", "[1]p", "[1,2](p | q)")]
    for draw in range(25):
        m = _random(1103, draw)
        full = WorldSet.full(len(m.worlds))
        for f in clauses:
            ts = truth_set(m, f)
            for w in range(len(m.worlds)):
                assert (w in ts) == satisfies(m, w, f)
        # Boolean clauses against set operations
        p, q = truth_set(m, parse("p")), truth_set(m, parse("q"))
        assert truth_set(m, parse("~p")) == p.complement()
        assert truth_set(m, parse("p | q")) == (p | q)
        assert truth_set(m, parse("p & q")) == (p & q)
        assert truth_set(m, parse("false")) == WorldSet.empty(len(m.worlds))
        assert truth_set(m, parse("true")) == full
        f = parse("[1](p | q)")
        want = 0
        for w in range(len(m.worlds)):
            if (p | q).bits in group_families(m, G1)[w]:
                want |= 1 << w
        assert truth_set(m, f).bits == want


def test_normalize_has_same_truth_set():
    texts = ("p -> q", "[1]p <-> [2](p & q)", "~(p & (q -> false))",
             "[1,2](p <-> q) -> (p | true)")
    for draw in range(10):
        m = _random(1104, draw)
        for t in texts:
            f = parse(t)
            assert truth_set(m, f) == truth_set(m, normalize(f))


def test_unknown_atom_is_false_everywhere():
    m = fixture("M1")
    assert truth_set(m, parse("zzz")) == WorldSet.empty(3)
    assert not satisfies(m, "wp", parse("zzz"))


def test_valid_on_model_and_world_lookup():
    m = fixture("M1")
    assert valid_on_model(m, parse("p -> (p | q)"))
    assert not valid_on_model(m, parse("p"))
    assert world_index(m, "wq") == 1
    assert world_index(m, 2) == 2
    assert world_index(m, m.worlds[0]) == 0
    with pytest.raises(UnknownWorldError):
        world_index(m, "nope")
    with pytest.raises(UnknownWorldError):
        world_index(m, 7)


def test_mentioned_agents_and_pools():
    assert mentioned_agents(fixture("NONREFLEXIVE")) == (1, 2)
    assert mentioned_agents(fixture("M1")) == (1, 2)
    assert unions_up_to((1, 2)) == (G1, G2, G12)
    assert unions_up_to((1, 2, 3), max_size=2) == (
        G1, G2, Group.of(3), G12, Group.of(1, 3), Group.of(2, 3))
    assert default_group_pool(fixture("M3")) == unions_up_to((1, 2, 3))
    # any iterable, duplicates dropped; one cached tuple per agent set
    assert unions_up_to([2, 1]) == (G1, G2, G12)
    assert unions_up_to(a for a in (2, 1, 2)) == (G1, G2, G12)
    assert unions_up_to((1, 2, 1, 1)) is unions_up_to((1, 2))
    assert unions_up_to([3, 1, 2, 3]) == unions_up_to((1, 2, 3))
    # a GeneralModel adds its own groups, here one of size four
    nm = NeighbourhoodMap(1, [{0}])
    g1234 = Group.of(1, 2, 3, 4)
    m = GeneralModel((World(0, "w0"),), {}, {g1234: nm, G2: nm})
    assert default_group_pool(m) == unions_up_to((1, 2, 3, 4)) + (g1234,)
    # an agent id equal to a cached int is still no agent id
    assert unions_up_to((1,)) == (G1,)
    with pytest.raises(ValueError, match="non-negative integers"):
        unions_up_to((True,))


# ---------------------------------------------------------------------------
# Definable sets


def _naive_definable(m, pool):
    """Straightforward fixpoint, used as an oracle."""
    n = len(m.worlds)
    full = (1 << n) - 1
    current = {0, full} | {ws.bits for ws in m.valuation.values()}
    while True:
        new = set()
        for x in current:
            new.add(full ^ x)
            for y in current:
                new.add(x | y)
        for g in pool:
            fams = group_families(m, g)
            for x in current:
                image = 0
                for w in range(n):
                    if x in fams[w]:
                        image |= 1 << w
                new.add(image)
        if new <= current:
            return current
        current |= new


def test_definable_sets_on_nonreflexive():
    # Both atoms are true everywhere and every box image is {} or W, so
    # only two sets are definable; the shortest witnesses win.
    m = fixture("NONREFLEXIVE")
    out = definable_sets(m, (G1, G2, G12))
    assert list(out) == [WorldSet(0, 2), WorldSet(3, 2)]
    assert {k: render(v) for k, v in out.items()} == {
        WorldSet(0, 2): "~p", WorldSet(3, 2): "p"}


def test_definable_sets_on_m1_are_all_subsets():
    m = fixture("M1")
    out = definable_sets(m, default_group_pool(m))
    assert [k.bits for k in out] == list(range(8))


def test_definable_sets_match_naive_fixpoint_and_are_realized():
    for draw in range(25):
        m = _random(1105, draw)
        pool = default_group_pool(m)
        out = definable_sets(m, pool)
        assert {k.bits for k in out} == _naive_definable(m, pool)
        for key, witness in out.items():
            assert truth_set(m, witness) == key
        # output is sorted by bit value
        assert [k.bits for k in out] == sorted(k.bits for k in out)


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_fixtures():
    for name in FIXTURE_NAMES:
        m = fixture(name)
        again = model_from_dict(model_to_dict(m))
        assert again == m
        assert type(again) is type(m)


def test_star_default_families():
    m = model_from_dict({
        "worlds": ["w0", "w1"],
        "valuation": {"p": ["w0"]},
        "agents": {"1": {"*": [["w0"]], "w1": []}},
    })
    assert group_neighbourhood(m, G1, "w0") == (WorldSet(1, 2),)
    assert group_neighbourhood(m, G1, "w1") == ()


@pytest.mark.parametrize("data,fragment", [
    ([], "mapping"),
    ({"worlds": [], "agents": {}}, "nonempty"),
    ({"worlds": ["a", "a"], "agents": {}}, "unique"),
    ({"worlds": ["a"]}, "exactly one"),
    ({"worlds": ["a"], "agents": {}, "groups": {}}, "exactly one"),
    ({"worlds": ["a"], "agents": {}, "extra": 1}, "unknown keys"),
    ({"worlds": ["a"], "valuation": {"p": ["b"]}, "agents": {}}, "unknown world"),
    ({"worlds": ["a"], "agents": {"x": {"a": []}}}, "bad agent"),
    ({"worlds": ["a"], "agents": {"1": {}}}, "no family"),
    ({"worlds": ["a"], "agents": {"1": {"a": [], "b": []}}}, "unknown world"),
    ({"worlds": ["a"], "agents": {"1": {"a": [["b"]]}}}, "unknown world"),
    ({"worlds": ["a"], "groups": {"1,,2": {"a": []}}}, "bad group"),
    ({"worlds": ["a"], "groups": {"1": {"a": []}, "1,1": {"a": []}}},
     "duplicate group"),
    ({"worlds": ["a"], "agents": {"1": {"a": "no"}}}, "must be a list"),
    ({"worlds": ["a"], "agents": {"1": {"a": []}, "01": {"a": [["a"]]}}},
     "duplicate agent key '01'"),
    ({"worlds": ["a"], "agents": {"1": {"a": []}, "+1": {"a": [["a"]]}}},
     "bad agent key '+1'"),
    ({"worlds": ["a"], "agents": {"1_0": {"a": []}}}, "bad agent key '1_0'"),
    ({"worlds": ["a"], "agents": {1: {"a": []}}}, "bad agent key 1"),
    ({"worlds": ["a"], "groups": {"1,-1": {"a": []}}}, "bad group key"),
    ({"worlds": ["a"], "valuation": {"p": [["a"]]}, "agents": {}},
     "valuation of 'p': unknown world ['a']"),
])
def test_model_from_dict_errors(data, fragment):
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(data)
    assert fragment in str(exc.value)


def test_round_trip_random_models(tmp_path):
    from nbhd import load_model, save_model
    for draw in range(10):
        m = _random(1106, draw)
        path = tmp_path / f"m{draw}.json"
        save_model(m, str(path))
        assert load_model(str(path)) == m


def test_unloaded_package_is_freed():
    # a re-imported package must not keep its old classes, and with them
    # every old module, alive (a typing.Union alias did, in its cache)
    import nbhd
    src = os.path.dirname(os.path.dirname(nbhd.__file__))
    probe = """
import gc, sys
for _ in range(3):
    for name in [n for n in sys.modules if n.split(".")[0] == "nbhd"]:
        del sys.modules[name]
    import nbhd
    nbhd.check_condition(nbhd.fixture("M1"), nbhd.Reflexive())
gc.collect()
classes = [o for o in gc.get_objects() if isinstance(o, type)]
print([sum(c.__module__ == m and c.__name__ == name for c in classes)
       for m, name in (("nbhd.model", "AgentModel"), ("nbhd.frames", "Nec"),
                       ("nbhd.logics", "MP"))])
"""
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[1, 1, 1]\n"
