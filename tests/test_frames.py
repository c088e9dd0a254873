"""Frame conditions, their witnesses, and the two closure operators."""

import gc
import sys

import pytest

from nbhd import (
    AgentModel, BinaryConsistent, ConditionVerdict, Conec, Cop, FrameWitness,
    Group, InputError, IntersectionClosed, LogicDescriptor, ModelFormatError,
    Monotone,
    Nec, NeighbourhoodMap, PGroup, Reflexive, SchemaId, SearchBounds,
    UnsupportedModelError, World, WorldSet, check_condition,
    check_schema_semantically, close_under_intersections,
    close_under_supersets, exhaustive_models, fixture, format_condition,
    format_schema, parse_condition, random_model, required_constraints,
)
from nbhd import PCondition as P
from nbhd.logics import _AGENT_KINDS, _KINDS

G1, G2, G12 = Group.of(1), Group.of(2), Group.of(1, 2)


def _model(agent_fams, n=2, valuation=None):
    worlds = tuple(World(i, "abcdef"[i]) for i in range(n))
    return AgentModel(
        worlds, valuation or {},
        {a: NeighbourhoodMap(n, fams) for a, fams in agent_fams.items()})


def _random(seed, draw, constraints=(), **kw):
    defaults = dict(max_worlds=3, agents=(1, 2), atoms=("p",),
                    frame_constraints=tuple(constraints), mode="random",
                    trials=1, seed=seed)
    defaults.update(kw)
    return random_model(SearchBounds(**defaults), draw)


# ---------------------------------------------------------------------------
# Membership conditions


def test_presence_and_absence_conditions():
    m = _model({1: [{3, 1}, {3}], 2: [{0}, set()]})
    assert check_condition(m, Nec(1)) == ConditionVerdict(True, None, None)
    assert check_condition(m, Nec(2)) == ConditionVerdict(
        False, FrameWitness("a", 2, WorldSet(3, 2)), None)
    assert check_condition(m, Cop(2)) == ConditionVerdict(
        False, FrameWitness("b", 2, WorldSet(0, 2)), None)
    assert check_condition(m, P(1)).holds
    assert check_condition(m, P(2)) == ConditionVerdict(
        False, FrameWitness("a", 2, WorldSet(0, 2)), None)
    assert check_condition(m, Conec(1)) == ConditionVerdict(
        False, FrameWitness("a", 1, WorldSet(3, 2)), None)
    assert check_condition(m, Conec(2)).holds


def test_absent_agent_on_agent_model():
    m = fixture("NONREFLEXIVE")
    note = "agent 5 is absent from the model"
    v = check_condition(m, P(5))
    assert v.holds and v.note == note
    v = check_condition(m, Conec(5))
    assert v.holds and v.note == note
    v = check_condition(m, Nec(5))
    assert not v.holds and v.note == note
    assert v.witness == FrameWitness("w", 5, WorldSet.full(2))
    v = check_condition(m, Cop(5))
    assert not v.holds and v.note == note


def test_absent_group_on_general_model_uses_default_family():
    m = fixture("M1")
    note = "group {3} has no entry; using the default family {{}}"
    v = check_condition(m, P(3))
    assert not v.holds and v.note == note
    assert v.witness == FrameWitness("wp", 3, WorldSet(0, 3))
    v = check_condition(m, Cop(3))
    assert v.holds and v.note == note


def test_p_for_single_agents_but_not_for_their_union():
    m = fixture("NONREFLEXIVE")
    assert check_condition(m, P(1)).holds
    assert check_condition(m, P(2)).holds
    v = check_condition(m, PGroup(G12))
    assert v == ConditionVerdict(
        False, FrameWitness("w", G12, WorldSet.empty(2)))


# ---------------------------------------------------------------------------
# Member-shape and closure conditions


def test_reflexive_least_witness():
    m = fixture("NONREFLEXIVE")
    # violations exist at both worlds; the least world index wins
    assert check_condition(m, Reflexive()) == ConditionVerdict(
        False, FrameWitness("w", 2, WorldSet.of((1,), 2)))
    assert check_condition(m, BinaryConsistent()).holds


def test_reflexive_subject_on_general_model_is_a_group():
    v = check_condition(fixture("M1"), Reflexive())
    assert not v.holds
    assert v.witness == FrameWitness("wp", G1, WorldSet(0, 3))


def test_binary_consistent_witness():
    m = _model({1: [{1, 2}, set()]})
    v = check_condition(m, BinaryConsistent())
    assert v.witness == FrameWitness("a", 1, WorldSet(1, 2))


def test_monotone_witness():
    m = _model({1: [{1}, set()]})
    v = check_condition(m, Monotone())
    assert v.witness == FrameWitness("a", 1, WorldSet(3, 2))
    assert check_condition(_model({1: [{1, 3}, set()]}), Monotone()).holds


def test_intersection_closed_witness():
    m = _model({1: [{1, 2}, set()]})
    v = check_condition(m, IntersectionClosed())
    assert v.witness == FrameWitness("a", 1, WorldSet(0, 2))
    assert check_condition(_model({1: [{1, 2, 0}, set()]}),
                           IntersectionClosed()).holds


def test_non_condition_rejected():
    with pytest.raises(TypeError):
        check_condition(fixture("M1"), "reflexive")


# ---------------------------------------------------------------------------
# Closure operators


def test_closure_examples():
    m = _model({1: [{0b011, 0b101}, set(), set()]}, n=3)
    up = close_under_supersets(m)
    assert up.agents[1].families[0] == frozenset({0b011, 0b101, 0b111})
    assert up.agents[1].families[1] == frozenset()
    down = close_under_intersections(m)
    assert down.agents[1].families[0] == frozenset({0b001, 0b011, 0b101})
    assert down.agents[1].families[1] == frozenset()


def test_closures_reject_general_models():
    with pytest.raises(UnsupportedModelError):
        close_under_supersets(fixture("M1"))
    with pytest.raises(UnsupportedModelError):
        close_under_intersections(fixture("M2"))


def _pointwise_subset(a, b):
    return all(a.agents[i].families[w] <= b.agents[i].families[w]
               for i in a.agents for w in range(len(a.worlds)))


def _drop_one_member(m):
    """A submodel of m with the largest member of one family removed."""
    agents = {}
    dropped = False
    for a, nm in sorted(m.agents.items()):
        fams = []
        for fam in nm.families:
            if fam and not dropped:
                fams.append(fam - {max(fam)})
                dropped = True
            else:
                fams.append(fam)
        agents[a] = NeighbourhoodMap(nm.size, fams)
    return AgentModel(m.worlds, dict(m.valuation), agents)


@pytest.mark.parametrize("close,closed_condition", [
    (close_under_supersets, Monotone()),
    (close_under_intersections, IntersectionClosed()),
])
def test_closures_are_closure_operators(close, closed_condition):
    for draw in range(30):
        m = _random(2201, draw)
        c = close(m)
        assert _pointwise_subset(m, c)                # extensive
        assert close(c) == c                          # idempotent
        assert check_condition(c, closed_condition).holds
        sub = _drop_one_member(m)
        assert _pointwise_subset(close(sub), c)       # order-preserving
        # worlds and valuation untouched
        assert c.worlds == m.worlds and c.valuation == m.valuation


def test_superset_closure_preserves_reflexive_nec_p():
    for draw in range(30):
        m = _random(2202, draw, constraints=(Reflexive(), Nec(1), P(2)))
        c = close_under_supersets(m)
        for cond in (Reflexive(), Nec(1), P(2), Monotone()):
            assert check_condition(c, cond).holds, (draw, cond)


def test_intersection_closure_preserves_reflexive_nec_cop_conec():
    for draw in range(30):
        m = _random(2203, draw, constraints=(Reflexive(), Nec(1)))
        c = close_under_intersections(m)
        for cond in (Reflexive(), Nec(1), IntersectionClosed()):
            assert check_condition(c, cond).holds, (draw, cond)
    for draw in range(30):
        m = _random(2204, draw, constraints=(Conec(1), Cop(2)))
        c = close_under_intersections(m)
        for cond in (Conec(1), Cop(2), IntersectionClosed()):
            assert check_condition(c, cond).holds, (draw, cond)


# ---------------------------------------------------------------------------
# Names


@pytest.mark.parametrize("c", [
    Reflexive(), BinaryConsistent(), Monotone(), IntersectionClosed(),
    Nec(1), Conec(2), P(0), Cop(3), PGroup(G12),
])
def test_condition_name_round_trip(c):
    assert parse_condition(format_condition(c)) == c


@pytest.mark.parametrize("cls", [Nec, Conec, P, Cop])
@pytest.mark.parametrize("agent", ["x", -1, True, 1.0, None])
def test_agent_conditions_take_only_agent_ids(cls, agent):
    # so format_condition never writes a name parse_condition rejects
    with pytest.raises(InputError) as exc:
        cls(agent)
    assert str(exc.value) == f"agent ids are non-negative integers, got {agent!r}"


def test_parse_condition_flexible_spelling():
    assert parse_condition(" Reflexive ") == Reflexive()
    assert parse_condition("NEC:2") == Nec(2)
    assert parse_condition("pg:2,1,2") == PGroup(G12)


@pytest.mark.parametrize("text,fragment", [
    ("reflexive:1", "takes no argument"),
    ("nec:", "needs an agent id"),
    ("nec:x", "needs an agent id"),
    ("nec:-1", "condition 'nec' needs an agent id, got '-1'"),
    ("conec:-2", "condition 'conec' needs an agent id, got '-2'"),
    ("p:-1", "condition 'p' needs an agent id, got '-1'"),
    ("cop:-3", "condition 'cop' needs an agent id, got '-3'"),
    ("pg:", "bad group"),
    ("pg:1,,2", "bad group"),
    ("nec:+1", "condition 'nec' needs an agent id, got '+1'"),
    ("nec:1_0", "condition 'nec' needs an agent id, got '1_0'"),
    ("pg:1,+2", "bad group in 'pg:1,+2': needs comma-separated agent ids, "
                "got '+2'"),
    ("frobnicate", "unknown frame condition"),
])
def test_parse_condition_errors(text, fragment):
    with pytest.raises(ModelFormatError) as exc:
        parse_condition(text)
    assert fragment in str(exc.value)


# ---------------------------------------------------------------------------
# Correspondence: each extension schema against the conditions that
# required_constraints gives it, over every model of the 1-agent space
# (1-2 worlds, no atoms, pool {1}, all subsets)

# Models valid for the schema but outside the frame class.  Zero means
# the correspondence is exact.  PG needs only no empty set in N_1, which
# reflexivity implies; with pool {1} the SA instances are all [1]p -> [1]p.
_VALID_OUTSIDE_THE_CLASS = {
    "tg": 0, "rmg": 0, "cg": 0, "di:1": 0, "nec:1": 0, "conec:1": 0,
    "p:1": 0, "cop:1": 0, "pg": 48, "sa": 194,
}


def test_extension_schemas_correspond_to_their_frame_conditions():
    bounds = SearchBounds(max_worlds=2, agents=(1,), mode="exhaustive")
    models = list(exhaustive_models(bounds))
    assert len(models) == 4 + 256
    pool = (Group.of(1),)
    outside = {}
    for kind in _KINDS:
        if kind in ("B1", "B2", "B3", "B4"):
            continue
        s = SchemaId(kind, 1 if kind in _AGENT_KINDS else None)
        conditions = required_constraints(LogicDescriptor(frozenset({s})),
                                          (1,))
        assert conditions, s
        outside[format_schema(s)] = 0
        for m in models:
            in_class = all(check_condition(m, c).holds for c in conditions)
            valid = check_schema_semantically(m, s, "all-subsets", pool).valid
            assert valid or not in_class, (s, m)     # condition => valid
            outside[format_schema(s)] += valid and not in_class
    assert outside == _VALID_OUTSIDE_THE_CLASS


# ---------------------------------------------------------------------------
# Where check_condition keeps its results


def _package_state():
    """Sizes of the package's module-level containers and caches."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "nbhd" and not name.startswith("nbhd."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[name, attr] = value.cache_info().currsize
    return sizes


def _live_maps():
    gc.collect()
    return sum(isinstance(o, NeighbourhoodMap) for o in gc.get_objects())


def test_condition_results_die_with_their_maps():
    conditions = [Reflexive(), BinaryConsistent(), Monotone(),
                  IntersectionClosed(), Nec(1), Conec(2), P(1), Cop(2),
                  Nec(3), PGroup(G12)]
    bounds = SearchBounds(max_worlds=3, agents=(1, 2), atoms=("p",),
                          seed=4099)
    before, maps = _package_state(), _live_maps()
    failed = 0
    for draw in range(10_000):
        m = random_model(bounds, draw)
        failed += sum(not check_condition(m, c).holds for c in conditions)
    # Exhaustive search shares its maps, and they keep their results.
    shared = SearchBounds(max_worlds=2, agents=(1,), atoms=("p",),
                          mode="exhaustive", frame_constraints=conditions[:4])
    for m in exhaustive_models(shared):
        assert m.agents[1]._memo
    del m
    assert failed > 10_000
    assert _package_state() == before
    assert _live_maps() <= maps
