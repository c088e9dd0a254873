"""Seeded generation, constraint repair, enumeration, fuzzing."""

import itertools
import json
import os
import random
from types import SimpleNamespace

import pytest

import nbhd.errors
import nbhd.search
from nbhd import (
    AgentModel, B1, B2, B3, B4, BASE_LOGIC, BinaryConsistent, CG, CONEC, COP,
    Conec, ConstraintError, Cop, CounterExample, DI, FuzzReport, Group,
    InputError, IntersectionClosed, LogicDescriptor, Monotone, NEC, Nec,
    NeighbourhoodMap, PG, PGroup, PSchema, RMG, Reflexive, ResourceLimitError,
    SA, SchemaTarget, SearchBounds, Stream, TG, Violation, World, WorldSet,
    check_condition, check_schema_semantically, close_under_intersections,
    counterexample_to_dict, exhaustive_models, find_countermodel, fixture,
    model_from_dict, model_to_dict, parse, random_model, required_constraints,
    SchemaVerdict, format_schema, satisfies, soundness_fuzz,
)
from nbhd import PCondition as P
from nbhd.search import _families

G1, G12 = Group.of(1), Group.of(1, 2)


def _bounds(**kw):
    defaults = dict(max_worlds=3, agents=(1, 2), atoms=("p",),
                    mode="random", trials=5, seed=11)
    defaults.update(kw)
    return SearchBounds(**defaults)


# ---------------------------------------------------------------------------
# The generator


def test_stream_matches_the_splitmix64_reference_vector():
    # seed 0, draw 0 starts from state 0, so the outputs must equal the
    # published splitmix64 sequence for seed 0
    s = Stream(0, 0)
    assert [s.next() for _ in range(4)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
        0x06C45D188009454F, 0xF88BB8A8724C81EC,
    ]


def test_stream_frozen_vector_and_determinism():
    s = Stream(42, 7)
    assert [s.next() for _ in range(3)] == [
        17642670261313054619, 12527710455549671996, 1857091124314337252]
    a, b = Stream(42, 7), Stream(42, 7)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]
    assert Stream(42, 7).next() != Stream(42, 8).next()
    assert Stream(42, 7).next() != Stream(43, 7).next()


def test_stream_below():
    s = Stream(1, 2)
    # below() takes a remainder: this vector pins it for a bound that is
    # not a power of two
    assert [s.below(7) for _ in range(8)] == [4, 6, 0, 1, 0, 2, 5, 1]
    for _ in range(50):
        assert 0 <= s.below(7) < 7
    with pytest.raises(ValueError):
        s.below(0)


def test_random_model_is_a_pure_function_of_seed_and_draw():
    b = _bounds(seed=99)
    again = _bounds(seed=99)
    assert random_model(b, 5) == random_model(again, 5)
    assert random_model(b, 5) != random_model(b, 6)
    assert model_to_dict(random_model(b, 5)) == {
        "worlds": ["w0"],
        "valuation": {"p": ["w0"]},
        "agents": {"1": {"w0": [["w0"]]}, "2": {"w0": [[]]}},
    }


def test_random_model_respects_bounds():
    b = _bounds(max_worlds=4, atoms=("p", "q"), seed=3)
    for draw in range(30):
        m = random_model(b, draw)
        n = len(m.worlds)
        assert 1 <= n <= 4
        assert [w.label for w in m.worlds] == [f"w{i}" for i in range(n)]
        assert set(m.valuation) == {"p", "q"}
        assert set(m.agents) == {1, 2}


def test_random_model_needs_random_bounds():
    b = SearchBounds(max_worlds=1, agents=(1,), mode="exhaustive")
    with pytest.raises(ValueError, match="random mode"):
        random_model(b, 0)


# ---------------------------------------------------------------------------
# Bounds validation


@pytest.mark.parametrize("kw,fragment", [
    (dict(max_worlds=0), "at least 1"),
    (dict(agents=()), "distinct and nonempty"),
    (dict(agents=(1, 1)), "distinct and nonempty"),
    (dict(agents=(1, -2)), "non-negative"),
    (dict(atoms=("p", "p")), "atoms must be distinct"),
    (dict(frame_constraints=("reflexive",)), "unknown frame constraint"),
    (dict(frame_constraints=(Nec(9),)), "outside the bounds"),
    (dict(frame_constraints=(PGroup(Group.of(1, 9)),)), "outside the bounds"),
    (dict(seed=None), "explicit seed"),
    (dict(trials=0), "at least 1"),
    (dict(mode="quick"), "unknown mode"),
])
def test_bounds_value_errors(kw, fragment):
    with pytest.raises(ValueError) as exc:
        _bounds(**kw)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("args,kw,fragment", [
    ((1, ("a",)), {}, "agent ids are non-negative integers, got 'a'"),
    (("2", (1,)), {}, "max_worlds must be an integer, got '2'"),
    ((2, (1, None)), {}, "agent ids are non-negative integers"),
    ((2, (True,)), dict(seed=1), "agent ids are non-negative integers"),
    ((2, (1,)), dict(seed="7"), "seed must be an integer, got '7'"),
    ((2, (1,)), dict(seed=7, trials=2.0), "trials must be an integer"),
    ((2, (1,)), dict(seed=7, atoms=("p", 1)), "atoms are names"),
    ((2, (1,)), dict(seed=7, atoms=(["p"],)), "atoms are names"),
])
def test_bounds_type_errors(args, kw, fragment):
    # checked before any comparison, so no bare TypeError escapes
    with pytest.raises(InputError) as exc:
        SearchBounds(*args, **kw)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("build,message", [
    (lambda: SearchBounds(1, 5),
     "agents must be a collection of agent ids, got 5"),
    (lambda: SchemaTarget(5, "x", 3), "a schema target needs a SchemaId, got 5"),
    (lambda: SchemaTarget(B1, "x"),
     "unknown mode 'x'; use 'all-subsets' or 'definable-only'"),
    (lambda: SchemaTarget(B1, pool=3), "the group pool must be None or a "
     "nonempty collection of Groups, got 3"),
    (lambda: SchemaTarget(B1, pool=()), "the group pool must be None or a "
     "nonempty collection of Groups, got ()"),
    (lambda: SchemaTarget(B1, pool=[G1, 5]), "the group pool must be None "
     "or a nonempty collection of Groups, got [Group({1}), 5]"),
], ids=["agents-int", "target-schema", "target-mode", "pool-int",
        "pool-empty", "pool-member"])
def test_bounds_and_targets_reject_wrong_values(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


def test_target_mode_rule_is_the_checkers():
    with pytest.raises(InputError) as target:
        SchemaTarget(B1, "fast")
    with pytest.raises(InputError) as check:
        check_schema_semantically(fixture("M1"), B1, "fast")
    assert str(target.value) == str(check.value)
    t = SchemaTarget(B1, "definable-only", [G1, G12])
    assert t.pool == (G1, G12) and SchemaTarget(B1).pool is None


def test_bounds_resource_guards():
    with pytest.raises(ResourceLimitError, match="at most 6 worlds"):
        _bounds(max_worlds=7)
    for kw in (dict(max_worlds=3), dict(agents=(1, 2, 3)),
               dict(atoms=("p", "q", "r"))):
        with pytest.raises(ResourceLimitError, match="guarded"):
            SearchBounds(**{**dict(max_worlds=2, agents=(1, 2),
                                   atoms=("p", "q"), mode="exhaustive"), **kw})


# ---------------------------------------------------------------------------
# Constraint repair


@pytest.mark.parametrize("constraint", [
    Nec(1), Conec(1), P(1), Cop(1), Reflexive(), BinaryConsistent(),
    Monotone(), IntersectionClosed(),
])
def test_repair_enforces_each_constraint(constraint):
    b = _bounds(frame_constraints=(constraint,), seed=501)
    for draw in range(50):
        m = random_model(b, draw)
        assert check_condition(m, constraint).holds, draw


def test_repair_enforces_combinations():
    combo = (Reflexive(), Monotone(), P(1))
    b = _bounds(frame_constraints=combo, seed=502)
    for draw in range(50):
        m = random_model(b, draw)
        for c in combo:
            assert check_condition(m, c).holds, (draw, c)


def test_binary_consistency_keeps_pinned_members():
    combo = (BinaryConsistent(), Nec(1), Cop(2))
    b = _bounds(frame_constraints=combo, seed=503)
    for draw in range(200):
        m = random_model(b, draw)
        for c in combo:
            assert check_condition(m, c).holds, (draw, c)


@pytest.mark.parametrize("constraints,fragment", [
    ((Nec(1), Conec(1)), "nec:1 and conec:1"),
    ((P(2), Cop(2)), "p:2 and cop:2"),
    ((BinaryConsistent(), Nec(1), Cop(1)), "complements"),
])
def test_statically_contradictory_constraints(constraints, fragment):
    b = _bounds(frame_constraints=constraints)
    with pytest.raises(ConstraintError, match=fragment):
        random_model(b, 0)


def test_unrepairable_combination_is_reported():
    b = _bounds(frame_constraints=(Reflexive(), Cop(1)))
    with pytest.raises(ConstraintError, match="repair left"):
        random_model(b, 0)


def test_pgroup_is_rejected_in_random_mode():
    b = _bounds(frame_constraints=(PGroup(G12),))
    with pytest.raises(ConstraintError, match="reflexive, which implies it"):
        random_model(b, 0)


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def _hand_enumerate(max_worlds, agents, atoms):
    """Independent re-implementation of the documented order."""
    out = []
    for n in range(1, max_worlds + 1):
        worlds = tuple(World(i, f"w{i}") for i in range(n))
        n_sets = 1 << n
        for vcodes in itertools.product(range(n_sets), repeat=len(atoms)):
            val = {a: WorldSet(bits, n) for a, bits in zip(atoms, vcodes)}
            for fcodes in itertools.product(range(1 << n_sets),
                                            repeat=len(agents) * n):
                ag = {}
                for i, agent in enumerate(agents):
                    ag[agent] = NeighbourhoodMap(
                        n, [frozenset(s for s in range(n_sets)
                                      if (fcodes[i * n + w] >> s) & 1)
                            for w in range(n)])
                out.append(AgentModel(worlds, val, ag))
    return out


@pytest.mark.parametrize("kw", [
    dict(max_worlds=1, agents=(1,), atoms=()),
    dict(max_worlds=1, agents=(1,), atoms=("p",)),
    dict(max_worlds=1, agents=(1, 2), atoms=()),
    dict(max_worlds=2, agents=(1,), atoms=()),
])
def test_exhaustive_order_matches_independent_enumerator(kw):
    got = list(exhaustive_models(SearchBounds(mode="exhaustive", **kw)))
    assert got == _hand_enumerate(kw["max_worlds"], kw["agents"], kw["atoms"])


def test_exhaustive_sizes():
    assert len(list(exhaustive_models(
        SearchBounds(max_worlds=1, agents=(1,), mode="exhaustive")))) == 4
    assert len(list(exhaustive_models(
        SearchBounds(max_worlds=1, agents=(1,), atoms=("p",),
                     mode="exhaustive")))) == 8
    assert len(list(exhaustive_models(
        SearchBounds(max_worlds=2, agents=(1,), mode="exhaustive")))) == 260


def test_exhaustive_constraints_filter():
    b = SearchBounds(max_worlds=1, agents=(1,), mode="exhaustive",
                     frame_constraints=(Nec(1),))
    got = list(exhaustive_models(b))
    assert [m.agents[1].families[0] for m in got] == [
        frozenset({1}), frozenset({0, 1})]
    b = SearchBounds(max_worlds=1, agents=(1,), mode="exhaustive",
                     frame_constraints=(PGroup(G1),))
    assert all(0 not in m.agents[1].families[0] for m in exhaustive_models(b))


def _until_cap(bounds):
    out = []
    with pytest.raises(ResourceLimitError,
                       match=r"more than 100 models \(NBHD_MAX_STATES\)"):
        for m in exhaustive_models(bounds):
            out.append(m)
    return out


def test_exhaustive_visit_cap(monkeypatch):
    b = SearchBounds(max_worlds=2, agents=(1,), mode="exhaustive")
    monkeypatch.setenv("NBHD_MAX_STATES", "100")
    got = _until_cap(b)
    assert [len(m.worlds) for m in got] == [1] * 4 + [2] * 96
    assert got == _hand_enumerate(2, (1,), ())[:100]
    # filtered-out candidates count too: the survivors among the first 100
    got = _until_cap(SearchBounds(max_worlds=2, agents=(1,),
                                  mode="exhaustive",
                                  frame_constraints=(Nec(1),)))
    want = [m for m in _hand_enumerate(2, (1,), ())[:100]
            if check_condition(m, Nec(1)).holds]
    assert got == want and 0 < len(want) < 100
    with pytest.raises(ValueError, match="exhaustive mode"):
        list(exhaustive_models(_bounds()))
    monkeypatch.setenv("NBHD_MAX_STATES", "lots")
    with pytest.raises(ResourceLimitError, match="NBHD_MAX_STATES='lots'"):
        list(exhaustive_models(b))


# ---------------------------------------------------------------------------
# Countermodel search


def test_find_countermodel_for_a_formula_exhaustively():
    b = SearchBounds(max_worlds=1, agents=(1,), mode="exhaustive")
    r = find_countermodel(parse("[1]true"), b)
    assert r is not None and r.index == 0 and r.draw is None
    assert r.witness == "w0"
    assert model_to_dict(r.model) == {
        "worlds": ["w0"], "valuation": {}, "agents": {"1": {"w0": []}}}


def test_find_countermodel_for_cg_frozen_landmark():
    b = SearchBounds(max_worlds=2, agents=(1,), mode="exhaustive")
    r = find_countermodel(SchemaTarget(CG, pool=(G1,)), b)
    assert r is not None and r.index == 10
    assert r.witness == CounterExample(
        "w1", (("G", G1), ("H", G1)),
        (("phi", WorldSet(1, 2)), ("psi", WorldSet(2, 2))))
    assert model_to_dict(r.model) == {
        "worlds": ["w0", "w1"], "valuation": {},
        "agents": {"1": {"w0": [], "w1": [["w0"], ["w1"]]}}}
    # the repair suggested by the corresponding frame condition works
    closed = close_under_intersections(r.model)
    assert check_schema_semantically(closed, CG, group_pool=(G1,)).valid


def test_find_countermodel_random_mode():
    b = _bounds(trials=50, seed=8)
    r = find_countermodel(parse("p"), b)
    assert r is not None and r.draw is not None and r.index is None
    assert not satisfies(r.model, r.witness, parse("p"))
    # base schemas hold on every random model, so the search exhausts
    assert find_countermodel(SchemaTarget(B1), _bounds(trials=200)) is None


# ---------------------------------------------------------------------------
# Soundness fuzzing


def test_required_constraints():
    assert required_constraints(BASE_LOGIC, (1, 2)) == ()
    assert required_constraints(
        LogicDescriptor(frozenset({TG, PG})), (1, 2)) \
        == (Reflexive(),)
    assert required_constraints(
        LogicDescriptor(frozenset({NEC(2), SA})), (1, 2)) \
        == (Nec(2), Nec(1))
    assert required_constraints(
        LogicDescriptor(replace_b1_with_cg=True), (1,)) \
        == (IntersectionClosed(),)
    assert required_constraints(
        LogicDescriptor(frozenset({DI(1), CONEC(2)})), (1, 2)) \
        == (Conec(2), BinaryConsistent())
    every = frozenset({CONEC(3), COP(2), DI(2), NEC(1), PSchema(1), PG, RMG,
                       SA, TG})
    assert required_constraints(LogicDescriptor(every), (1, 2)) == (
        Conec(3), Cop(2), BinaryConsistent(), Nec(1), P(1), Reflexive(),
        Monotone(), Nec(2))


def test_soundness_fuzz_requires_matching_constraints():
    with pytest.raises(ValueError, match="random mode"):
        soundness_fuzz(BASE_LOGIC, SearchBounds(max_worlds=1, agents=(1,),
                                                mode="exhaustive"))
    with pytest.raises(ConstraintError, match="reflexive"):
        soundness_fuzz(LogicDescriptor(frozenset({TG})), _bounds())


def test_soundness_fuzz_base_logic():
    b = _bounds(trials=300, seed=7)
    report = soundness_fuzz(BASE_LOGIC, b)
    assert report == FuzzReport(300, (B1, B2, B3, B4))
    assert report.to_text() == ("trials: 300\n"
                                "schemas: b1 b2 b3 b4\n"
                                "violations: 0")


def test_soundness_fuzz_extended_logic():
    logic = LogicDescriptor(frozenset({TG, NEC(1)}))
    b = _bounds(trials=100, seed=13,
                frame_constraints=(Reflexive(), Nec(1)))
    report = soundness_fuzz(logic, b)
    assert report.violations == ()
    assert report.schemas == (B1, B2, B3, B4, NEC(1), TG)


def test_fuzz_report_rendering():
    m = fixture("NONREFLEXIVE")
    cx = CounterExample("w", (("G", G12),), (("phi", WorldSet(1, 2)),))
    report = FuzzReport(2, (TG,), (Violation(1, m, TG, cx),))
    assert report.to_text() == (
        "trials: 2\n"
        "schemas: tg\n"
        "violations: 1\n"
        "violation: draw 1 schema tg at world w, G={1,2}, phi={0}")
    data = report.to_json_dict()
    assert json.loads(json.dumps(data)) == data
    assert model_from_dict(data["violations"][0]["model"]) == m
    assert data["violations"][0]["witness"] == {
        "world": "w", "groups": {"G": [1, 2]}, "sets": {"phi": ["w"]}}


def test_counterexample_to_dict_with_agent():
    m = fixture("NONREFLEXIVE")
    assert counterexample_to_dict(CounterExample("w", agent=1), m) \
        == {"world": "w", "agent": 1}


def _scan(code, n):
    return frozenset(s for s in range(1 << n) if code >> s & 1)


def test_family_tables_decode_like_the_bit_scan():
    for n in range(1, 5):  # every code
        codes = range(1 << (1 << n))
        assert _families(codes, n) == [_scan(c, n) for c in codes]
    rng = random.Random(21)
    for n in range(3, 7):
        top = (1 << (1 << n)) - 1
        codes = [0, top] + [rng.randrange(top + 1) for _ in range(2000)]
        assert _families(codes, n) == [_scan(c, n) for c in codes]


# ---------------------------------------------------------------------------
# NBHD_MAX_STATES, read once per driver call


class _Environ(dict):
    """A copy of the environment that counts reads of NBHD_MAX_STATES."""

    reads = 0

    def get(self, key, default=None):
        if key == "NBHD_MAX_STATES":
            self.reads += 1
        return super().get(key, default)


@pytest.fixture
def environ(monkeypatch):
    env = _Environ(os.environ)
    env.pop("NBHD_MAX_STATES", None)
    monkeypatch.setattr(nbhd.errors, "os", SimpleNamespace(environ=env))
    return env


def test_fuzz_records_violations_least_draw_first(monkeypatch, environ):
    # B1-B4 hold on every agent model, so a stand-in checker refutes
    # chosen schemas on chosen draws, after the real check has run
    b = _bounds(trials=10, agents=(1, 2, 3), max_worlds=4, seed=21)
    real, seen = check_schema_semantically, []
    refute = {(7, B3), (2, B4), (2, B1)}

    def check(m, s, mode, pool):
        draw = len(seen) // 4  # B1-B4 per draw
        seen.append((draw, s))
        verdict = real(m, s, mode, pool)
        assert verdict.valid and environ.reads == 1
        if (draw, s) not in refute:
            return verdict
        return SchemaVerdict(False, CounterExample(
            m.worlds[-1].label, (("G", pool[-1]),),
            (("phi", WorldSet.full(len(m.worlds))),)))

    monkeypatch.setattr(nbhd.search, "check_schema_semantically", check)
    report = soundness_fuzz(BASE_LOGIC, b)
    assert environ.reads == 1 and len(seen) == 40
    assert [(v.draw, v.schema) for v in report.violations] == [
        (2, B1), (2, B4), (7, B3)]
    lines, data = report.to_text().split("\n"), report.to_json_dict()
    assert lines[:3] == ["trials: 10", "schemas: b1 b2 b3 b4", "violations: 3"]
    assert json.loads(json.dumps(data)) == data
    for v, line, entry in zip(report.violations, lines[3:],
                              data["violations"]):
        m = random_model(b, v.draw)
        assert v.model == m
        assert v.witness == CounterExample(
            m.worlds[-1].label, (("G", Group.of(1, 2, 3)),),
            (("phi", WorldSet.full(len(m.worlds))),))
        assert line == (f"violation: draw {v.draw} schema "
                        f"{format_schema(v.schema)} at "
                        f"{v.witness.describe()}")
        assert entry == {
            "draw": v.draw, "model": model_to_dict(m),
            "schema": format_schema(v.schema),
            "witness": counterexample_to_dict(v.witness, m)}
    assert [e["draw"] for e in data["violations"]] == [2, 2, 7]


def test_drivers_read_max_states_once_per_call(environ):
    two = SearchBounds(max_worlds=2, agents=(1,), mode="exhaustive")
    calls = [
        lambda: soundness_fuzz(BASE_LOGIC, _bounds(trials=20)),
        lambda: find_countermodel(SchemaTarget(B1), _bounds(trials=20)),
        lambda: find_countermodel(parse("[1,2]p"), _bounds(trials=20)),
        # valid, so all 260 candidates are derived and checked
        lambda: find_countermodel(parse("[1]p | ~[1]p"), two),
    ]
    for call in calls:
        before = environ.reads
        call()
        assert environ.reads == before + 1
    # a guard outside a driver call reads it as it checks
    before = environ.reads
    check_schema_semantically(random_model(_bounds(agents=(1, 2, 3)), 0), B1)
    assert environ.reads >= before + 2


@pytest.mark.parametrize("call,guard", [
    (lambda: soundness_fuzz(BASE_LOGIC, _bounds()), "subsets"),
    (lambda: find_countermodel(parse("[1]p"), _bounds()), "product"),
    (lambda: find_countermodel(parse("p"), SearchBounds(
        max_worlds=1, agents=(1,), mode="exhaustive")), "visits"),
])
def test_bad_max_states_fails_in_the_first_guard_a_driver_meets(
        monkeypatch, call, guard):
    monkeypatch.setenv("NBHD_MAX_STATES", "lots")
    with pytest.raises(ResourceLimitError) as exc:
        call()
    err = exc.value
    assert str(err) == "NBHD_MAX_STATES='lots' is not a positive integer"
    assert (err.guard, err.limit, err.requested) == (
        guard, nbhd.errors.GUARDS[guard][0], None)


def test_max_states_set_during_a_driver_call_holds_from_the_next(
        monkeypatch):
    monkeypatch.delenv("NBHD_MAX_STATES", raising=False)
    draw_model = nbhd.search.random_model

    def lower_then_draw(bounds, draw):
        monkeypatch.setenv("NBHD_MAX_STATES", "1")
        return draw_model(bounds, draw)

    monkeypatch.setattr(nbhd.search, "random_model", lower_then_draw)
    b = _bounds(trials=5)
    for call, guard in (
            (lambda: soundness_fuzz(BASE_LOGIC, b), "subsets"),
            (lambda: find_countermodel(SchemaTarget(B2), b), "subsets"),
            (lambda: find_countermodel(parse("[1]p | ~[1]p"), b),
             "product")):
        monkeypatch.delenv("NBHD_MAX_STATES", raising=False)
        call()  # every guard of the call has the limit read on entry
        with pytest.raises(ResourceLimitError) as exc:
            call()
        assert (exc.value.guard, exc.value.limit) == (guard, 1)
