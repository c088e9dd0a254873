"""Schema names, instantiation/recognition, semantic checks, proofs."""

import signal
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from nbhd import (
    AgentModel, AxiomRef, B1, B2, B3, B4, BASE_LOGIC, CERTIFICATE_NAMES, CG,
    CONEC, COP, CounterExample, DI, Group, InputError, LogicDescriptor, MP,
    NEC, NeighbourhoodMap, Proof, ProofFormatError, ProofLine, ProofVerdict,
    RE, RMG, ResourceLimitError, SA, SchemaId, SchemaVerdict, TG, Taut, World,
    WorldSet, builtin_certificate, check_entailment_certificate, check_proof,
    check_schema_semantically, close_under_supersets, fixture, format_schema,
    instantiate_schema, is_axiom_instance, logic_from_dict, logic_to_dict,
    match_schema, parse, parse_schema, proof_from_dict, proof_to_dict, render,
)
from nbhd import (
    Box, GeneralModel, PG, PGroup, SchemaTarget, SearchBounds,
    definable_sets, group_families, parse_condition,
)
from nbhd import PSchema as P
from nbhd.logics import (
    _FILTERS, _VIOLATIONS, _flagged, _instances, _set_range,
)

G1, G2, G3 = Group.of(1), Group.of(2), Group.of(3)
G12, G13, G123 = Group.of(1, 2), Group.of(1, 3), Group.of(1, 2, 3)
p, q = parse("p"), parse("q")


# ---------------------------------------------------------------------------
# Schema ids and logic descriptors


def test_schema_id_validation():
    with pytest.raises(ValueError):
        SchemaId("B9")
    with pytest.raises(ValueError):
        SchemaId("B1", 1)
    with pytest.raises(ValueError):
        SchemaId("NEC")
    with pytest.raises(ValueError):
        SchemaId("NEC", -1)
    for agent in (-1, True, "x", 1.0):
        with pytest.raises(InputError) as exc:
            SchemaId("NEC", agent)
        assert str(exc.value) == (
            f"agent ids are non-negative integers, got {agent!r}")


@pytest.mark.parametrize("s", [
    B1, B2, B3, B4, CG, SA, TG, PG, RMG,
    NEC(2), CONEC(0), P(1), COP(3), DI(2),
])
def test_schema_name_round_trip(s):
    assert parse_schema(format_schema(s)) == s
    assert str(s) == format_schema(s)


def test_parse_schema_errors():
    assert parse_schema("NEC:2") == NEC(2)
    with pytest.raises(ValueError, match="takes no agent"):
        parse_schema("b1:1")
    with pytest.raises(ValueError, match="needs an agent"):
        parse_schema("nec")
    with pytest.raises(ValueError,
                       match="schema 'nec' needs an agent id, got 'x'"):
        parse_schema("nec:x")
    with pytest.raises(ValueError, match="unknown schema"):
        parse_schema("zzz")


@pytest.mark.parametrize("arg", ["+1", "1_0", "-1", "-0", "1,2"])
def test_parse_schema_reads_agents_as_decimal_digits(arg):
    assert parse_schema(" nec: 2 ") == NEC(2)
    with pytest.raises(InputError) as exc:
        parse_schema("nec:" + arg)
    assert str(exc.value) == f"schema 'nec' needs an agent id, got {arg!r}"


@pytest.mark.parametrize("read", [parse_schema, parse_condition])
@pytest.mark.parametrize("value", [5, None, b"b1"])
def test_text_readers_need_a_string(read, value):
    with pytest.raises(InputError) as exc:
        read(value)
    assert str(exc.value) == (
        f"{read.__name__} needs a string, got {type(value).__name__}")


def test_logic_descriptor():
    assert BASE_LOGIC.schemas() == (B1, B2, B3, B4)
    l = LogicDescriptor(frozenset({TG, NEC(2), SA}))
    assert l.schemas() == (B1, B2, B3, B4, NEC(2), SA, TG)
    cg = LogicDescriptor(replace_b1_with_cg=True)
    assert cg.schemas() == (B2, B3, B4, CG)
    assert CG in cg.extensions
    with pytest.raises(ValueError, match="part of the base"):
        LogicDescriptor(frozenset({B1}))


@pytest.mark.parametrize("flag", ["no", 1, 0, None, "true"])
def test_logic_descriptor_cg_flag_is_a_bool(flag):
    # a truthy non-bool used to drop B1 and write a logic that did not load
    with pytest.raises(InputError) as exc:
        LogicDescriptor(frozenset(), flag)
    assert str(exc.value) == f"replace_b1_with_cg must be a bool, got {flag!r}"
    for cg in (False, True):
        l = LogicDescriptor(frozenset(), cg)
        assert logic_from_dict(logic_to_dict(l)) == l


def test_logic_dict_round_trip():
    assert logic_from_dict(None) == BASE_LOGIC
    for l in (BASE_LOGIC,
              LogicDescriptor(frozenset({TG, P(1)})),
              LogicDescriptor(frozenset({SA}), replace_b1_with_cg=True)):
        assert logic_from_dict(logic_to_dict(l)) == l
    with pytest.raises(ProofFormatError):
        logic_from_dict([])
    with pytest.raises(ProofFormatError):
        logic_from_dict({"extensions": "tg"})
    with pytest.raises(ProofFormatError):
        logic_from_dict({"extensions": ["zzz"]})


# ---------------------------------------------------------------------------
# Instantiation and recognition

_INSTANCES = [
    (B1, {"G": G1, "H": G2, "phi": p, "psi": q},
     "[1]p & [2]q -> [1,2](p & q)"),
    (B2, {"G": G1, "H": G2}, "[1,2]true -> [1]true"),
    (B3, {"G": G1, "H": G2, "J": G3, "phi": p},
     "[1]p & [1,2,3]p -> [1,2]p"),
    (B4, {"G": G1, "H": G2, "phi": p, "psi": q},
     "[1]p & [2](p | q) -> [1,2]p"),
    (CG, {"G": G1, "H": G12, "phi": p, "psi": q},
     "[1]p & [1,2]q -> [1,2](p & q)"),
    (SA, {"G": G1, "H": G2, "phi": p}, "[1]p -> [1,2]p"),
    (SA, {"G": G1, "H": G1, "phi": p}, "[1]p -> [1]p"),
    (TG, {"G": G12, "phi": p}, "[1,2]p -> p"),
    (PG, {"G": G12}, "~[1,2]false"),
    (RMG, {"G": G1, "phi": p, "psi": q}, "[1]p -> [1](p | q)"),
    (NEC(2), {}, "[2]true"),
    (CONEC(1), {}, "~[1]true"),
    (P(1), {}, "~[1]false"),
    (COP(1), {}, "[1]false"),
    (DI(1), {"phi": p}, "[1]p -> ~[1]~p"),
]


@pytest.mark.parametrize("s,binding,text", _INSTANCES)
def test_instantiate_renders(s, binding, text):
    assert render(instantiate_schema(s, binding)) == text


@pytest.mark.parametrize("s,binding,text", _INSTANCES)
def test_match_is_a_weak_inverse(s, binding, text):
    f = parse(text)
    found = match_schema(s, f)
    assert found is not None
    assert instantiate_schema(s, found) == f


def test_match_b2_with_overlapping_groups():
    f = parse("[1,2]true -> [1,2]true")
    assert match_schema(B2, f) == {"G": G12, "H": G12}


def test_instantiate_errors():
    with pytest.raises(ValueError, match="disjoint"):
        instantiate_schema(B1, {"G": G1, "H": G12, "phi": p, "psi": q})
    with pytest.raises(ValueError, match="needs exactly"):
        instantiate_schema(TG, {"G": G1})
    with pytest.raises(ValueError, match="G must be a Group"):
        instantiate_schema(TG, {"G": "1", "phi": p})
    with pytest.raises(ValueError, match="phi must be a Formula"):
        instantiate_schema(TG, {"G": G1, "phi": "p"})


def test_non_instances():
    assert match_schema(B1, parse("([1]p & [1,2]q) -> [1,2](p & q)")) is None
    assert match_schema(CG, parse("([1]p & [1,2]q) -> [1,2](p & q)")) \
        == {"G": G1, "H": G12, "phi": p, "psi": q}
    assert match_schema(B1, parse("([1]p & [2]q) -> [1,2](q & p)")) is None
    assert match_schema(B2, parse("[1]true -> [2]true")) is None
    assert match_schema(TG, parse("[1]p -> q")) is None
    assert match_schema(RMG, parse("[1]p -> [2](p | q)")) is None
    assert match_schema(NEC(1), parse("[2]true")) is None


def test_is_axiom_instance():
    hit = is_axiom_instance(parse("([1]p & [1]p) -> [1]p"), BASE_LOGIC)
    assert hit is not None and hit[0] == B3
    assert hit[1] == {"G": G1, "H": G1, "J": G1, "phi": p}
    assert is_axiom_instance(parse("[1]p -> p"), BASE_LOGIC) is None
    ext = LogicDescriptor(frozenset({TG}))
    hit = is_axiom_instance(parse("[1]p -> p"), ext)
    assert hit is not None and hit[0] == TG


# ---------------------------------------------------------------------------
# Semantic checks: one fixture refutes each base schema

_MATRIX = {
    "M1": (B1, CounterExample(
        "wp", (("G", G1), ("H", G2)),
        (("phi", WorldSet(0b101, 3)), ("psi", WorldSet(0b110, 3))))),
    "M2": (B2, CounterExample("wp", (("G", G1), ("H", G2)))),
    "M3": (B3, CounterExample(
        "wp", (("G", G1), ("H", G2), ("J", G3)),
        (("phi", WorldSet(0b001, 3)),))),
    "M4": (B4, CounterExample(
        "wp", (("G", G13), ("H", G12)),
        (("phi", WorldSet(0b001, 3)), ("psi", WorldSet(0b010, 3))))),
}


@pytest.mark.parametrize("name", sorted(_MATRIX))
def test_each_fixture_refutes_exactly_its_schema(name):
    m = fixture(name)
    refuted, expected_cx = _MATRIX[name]
    for s in (B1, B2, B3, B4):
        verdict = check_schema_semantically(m, s)
        if s == refuted:
            assert verdict == SchemaVerdict(False, expected_cx)
        else:
            assert verdict == SchemaVerdict(True)


def test_counterexample_describe():
    _, cx = _MATRIX["M1"]
    assert cx.describe() == "world wp, G={1}, H={2}, phi={0,2}, psi={1,2}"
    assert (cx.describe(["wp", "wq", "wr"])
            == "world wp, G={1}, H={2}, phi={wp,wr}, psi={wq,wr}")
    assert CounterExample("w", agent=3).describe() == "world w, agent 3"


def test_extension_schemas_on_nonreflexive():
    m = fixture("NONREFLEXIVE")
    assert check_schema_semantically(m, TG, group_pool=(G1,)) == SchemaVerdict(
        False, CounterExample("v", (("G", G1),), (("phi", WorldSet(1, 2)),)))
    assert check_schema_semantically(m, PG) == SchemaVerdict(
        False, CounterExample("w", (("G", G12),)))
    assert check_schema_semantically(m, SA) == SchemaVerdict(
        False, CounterExample("w", (("G", G1), ("H", G2)),
                              (("phi", WorldSet(1, 2)),)))
    assert check_schema_semantically(m, RMG) == SchemaVerdict(
        False, CounterExample("w", (("G", G1),),
                              (("phi", WorldSet(1, 2)), ("psi", WorldSet(2, 2)))))
    assert check_schema_semantically(m, NEC(1)) == SchemaVerdict(
        False, CounterExample("w", agent=1))
    assert check_schema_semantically(m, COP(1)) == SchemaVerdict(
        False, CounterExample("w", agent=1))
    for s in (CONEC(1), P(1), P(2), DI(1), CG, B1):
        assert check_schema_semantically(m, s).valid, s
    closed = close_under_supersets(m)
    for s in (SA, RMG):
        assert check_schema_semantically(closed, s).valid, s


def test_cg_distinguishes_same_group_pairs_from_b1():
    m = AgentModel(
        (World(0, "a"), World(1, "b")), {},
        {1: NeighbourhoodMap(2, [{1, 2}, set()]),
         2: NeighbourhoodMap(2, [set(), set()])})
    assert check_schema_semantically(m, B1).valid
    assert check_schema_semantically(m, CG) == SchemaVerdict(
        False, CounterExample("a", (("G", G1), ("H", G1)),
                              (("phi", WorldSet(1, 2)), ("psi", WorldSet(2, 2)))))


def test_di_violation():
    m = AgentModel(
        (World(0, "a"), World(1, "b")), {},
        {1: NeighbourhoodMap(2, [{1, 2}, set()])})
    assert check_schema_semantically(m, DI(1)) == SchemaVerdict(
        False, CounterExample("a", sets=(("phi", WorldSet(1, 2)),), agent=1))


def test_definable_only_mode_and_disagreement_notes():
    m = fixture("NONREFLEXIVE")
    v = check_schema_semantically(m, TG, mode="definable-only",
                                  group_pool=(G1,))
    assert v.valid and v.counterexample is None
    assert v.note == ("holds over the 2 definable sets, but over all 4 "
                      "subsets it fails at world v, G={1}, phi={0}")
    v = check_schema_semantically(m, TG, mode="definable-only",
                                  group_pool=(G2,))
    assert v.valid
    assert v.note == ("holds over the 2 definable sets, but over all 4 "
                      "subsets it fails at world w, G={2}, phi={1}")
    v = check_schema_semantically(m, TG, mode="definable-only",
                                  group_pool=(G12,))
    assert v == SchemaVerdict(
        False, CounterExample("w", (("G", G12),), (("phi", WorldSet(0, 2)),)))
    # no note when the definable sets already cover every subset
    v = check_schema_semantically(fixture("M1"), B2, mode="definable-only")
    assert v == SchemaVerdict(True)


def test_check_schema_argument_errors(monkeypatch):
    m = fixture("M1")
    with pytest.raises(ValueError, match="pool must be nonempty"):
        check_schema_semantically(m, B1, group_pool=())
    with pytest.raises(ValueError, match="unknown mode"):
        check_schema_semantically(m, B1, mode="fast")
    monkeypatch.setenv("NBHD_MAX_STATES", "4")
    with pytest.raises(ResourceLimitError, match="definable-only"):
        check_schema_semantically(m, B1)
    monkeypatch.setenv("NBHD_MAX_STATES", "lots")
    with pytest.raises(ResourceLimitError, match="NBHD_MAX_STATES='lots'"):
        check_schema_semantically(m, B1)


@pytest.mark.parametrize("check", [
    lambda pool: check_schema_semantically(fixture("M1"), B1, group_pool=pool),
    lambda pool: definable_sets(fixture("M1"), pool),
    lambda pool: SchemaTarget(B1, pool=pool),
], ids=["checker", "definable-sets", "target"])
@pytest.mark.parametrize("pool", [[5], "ab", 3, [G1, None]])
def test_every_pool_reader_rejects_what_is_no_collection_of_groups(check,
                                                                   pool):
    with pytest.raises(InputError) as exc:
        check(pool)
    assert str(exc.value) == ("the group pool must be None or a nonempty "
                              f"collection of Groups, got {pool!r}")


@pytest.mark.parametrize("call,message", [
    (lambda: Box(5, p), "Box needs a Group, got 5"),
    (lambda: PGroup(5), "PGroup needs a Group, got 5"),
    (lambda: group_families(fixture("M1"), 5),
     "group_families needs a Group, got 5"),
    (lambda: group_families(fixture("NONREFLEXIVE"), "ab"),
     "group_families needs a Group, got 'ab'"),
    (lambda: group_families(fixture("M1"), [1]),
     "group_families needs a Group, got [1]"),
    # at construction, so check_proof never meets it, whatever line 1 is
    (lambda: RE(1, 5), "RE needs a Group, got 5"),
    (lambda: WorldSet.of([-1], 2),
     "world indices are a collection of non-negative ints, got [-1]"),
    (lambda: WorldSet.of(5, 2),
     "world indices are a collection of non-negative ints, got 5"),
    (lambda: SearchBounds(1, (1,), seed=1, atoms="pq"),
     "atoms must be a collection of names, got 'pq'"),
    (lambda: SearchBounds(1, (1,), seed=1, atoms=5),
     "atoms must be a collection of names, got 5"),
    (lambda: SearchBounds(1, (1,), seed=1, frame_constraints=5),
     "frame_constraints must be a collection of frame conditions, got 5"),
    (lambda: LogicDescriptor(5),
     "extensions must be a collection of SchemaIds, got 5"),
    (lambda: check_schema_semantically(fixture("M1"), "b1"),
     "check_schema_semantically needs a SchemaId, got 'b1'"),
], ids=["box", "pgroup", "families-int", "families-str", "families-list",
        "re", "worldset-negative", "worldset-int", "atoms-str",
        "atoms-int", "constraints-int", "logic-int", "checker-schema"])
def test_wrong_typed_arguments_raise_input_error(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_disagreement_note_is_skipped_over_the_guard(monkeypatch):
    monkeypatch.setenv("NBHD_MAX_STATES", "3")
    v = check_schema_semantically(fixture("NONREFLEXIVE"), TG,
                                  mode="definable-only", group_pool=(G1,))
    assert v == SchemaVerdict(True)


# Every group over agents 0-2; a GeneralModel stores some of them.
_GROUPS = tuple(Group(tuple(a for a in range(3) if code >> a & 1))
                for code in range(1, 8))


@st.composite
def _filter_cases(draw):
    n = draw(st.integers(1, 4))
    worlds = tuple(World(i, f"w{i}") for i in range(n))
    subsets = st.integers(0, (1 << n) - 1)
    general = draw(st.booleans())
    owners = ([g for g in _GROUPS if draw(st.booleans())] if general
              else sorted(draw(st.sets(st.integers(0, 2)))))
    family = st.sets(subsets, max_size=1 << n)
    maps = {o: NeighbourhoodMap(n, draw(st.lists(family, min_size=n,
                                                 max_size=n)))
            for o in owners}
    m = (GeneralModel if general else AgentModel)(
        worlds, {"p": WorldSet(draw(subsets), n)}, maps)
    pool = tuple(draw(st.lists(st.sampled_from(_GROUPS), min_size=1,
                               max_size=4)))
    return m, pool, sorted(draw(st.sets(subsets)))


# B3 fails at w0 only for phi = {w0}: a range without it flags nothing.
_B3_OUT_OF_RANGE = (
    GeneralModel((World(0, "w0"),), {}, {
        _GROUPS[0]: NeighbourhoodMap(1, [{1}]),
        _GROUPS[6]: NeighbourhoodMap(1, [{1}])}),
    _GROUPS[:2] + _GROUPS[3:4], [0])


@settings(max_examples=200, deadline=None)
@given(_filter_cases())
@example(_B3_OUT_OF_RANGE)
def test_world_filters_flag_every_violating_world(case):
    # A filter may skip only worlds where its violation test yields
    # nothing.  It is exact where every superset it tests is in range:
    # in all-subsets mode, and for all but B4 over any range (B4's
    # superset of x need not be x | psi for a psi in range).  A single
    # instance is tested at every world, unfiltered.
    m, pool, drawn = case
    n, full = len(m.worlds), (1 << len(m.worlds)) - 1
    for rng in (range(1 << n), _set_range(m, "definable-only", pool)[0],
                drawn):
        for kind in _FILTERS:
            extras, items, guards = _instances(
                kind, tuple(g.members for g in pool), None)
            groups = pool + extras
            tab = [group_families(m, g) for g in groups]
            flagged = list(_flagged(m, kind, groups, tab, items, rng))
            yielding = []
            for w in range(n):
                at = [f[w] for f in tab]
                mem = {k: [x for x in rng if x in at[k]] for k in guards}
                if next(_VIOLATIONS[kind](w, at, mem, items, rng, full),
                        None) is not None:
                    yielding.append(w)
            assert flagged == sorted(set(flagged)), kind
            assert set(yielding) <= set(flagged), (kind, list(rng))
            if len(items) < 2:
                assert flagged == list(range(n)), kind
            elif len(rng) == 1 << n or kind != "B4":
                assert flagged == yielding, (kind, list(rng))


@settings(max_examples=200, deadline=None)
@given(_filter_cases())
def test_set_ranges_are_closed_under_complement(case):
    # DI's frame test reads a set's complement in the range-cut family
    # only, which is exact because every set range is closed this way.
    m, pool, _ = case
    full = (1 << len(m.worlds)) - 1
    for mode in ("all-subsets", "definable-only"):
        rng = set(_set_range(m, mode, pool)[0])
        assert {full ^ x for x in rng} == rng, mode


def _timeout(signum, frame):
    raise TimeoutError


def test_definable_only_checks_on_20_worlds_stay_fast():
    # Packed codes take n * 2^n bits: 20 worlds would need 20M-bit ints
    # and a division by a 1M-bit one, so such a domain is tested world
    # by world.  Each check has several instances and few definable sets.
    n = 20
    p_, q_ = (1 << 10) - 1, sum(1 << i for i in range(0, n, 2))
    fams = {G1: [{p_, q_}] * n, G2: [{p_}] * n, G3: [{q_}] * n,
            G12: [{p_}] * 13 + [{p_ & q_}] + [{p_}] * 6}
    fams.update({g: [{p_}] * n for g in (G13, Group.of(2, 3), G123)})
    m = GeneralModel(tuple(World(i, f"w{i}") for i in range(n)),
                     {"p": WorldSet(p_, n), "q": WorldSet(q_, n)},
                     {g: NeighbourhoodMap(n, f) for g, f in fams.items()})
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = perf_counter()
        verdicts = [check_schema_semantically(m, s, "definable-only")
                    for s in (B2, B3, B4)]
        elapsed = perf_counter() - start
    except TimeoutError:
        elapsed = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if elapsed is None:
        pytest.fail("the checks took more than 5 s", pytrace=False)
    assert elapsed < 1
    b2, b3, b4 = verdicts
    assert b2 == SchemaVerdict(True)
    # phi = p is in N_1 and N_123 at w13 but not in N_12 there
    assert b3.counterexample.describe() == (
        "world w13, G={1}, H={2}, J={3}, phi={0,1,2,3,4,5,6,7,8,9}")
    assert not b4.valid


# ---------------------------------------------------------------------------
# Proof checking


def _taut(text):
    return ProofLine(parse(text), Taut())


def test_reject_non_tautology():
    v = check_proof(Proof((ProofLine(p, Taut()),)), BASE_LOGIC)
    assert v == ProofVerdict(False, 1, "not a propositional tautology")


def test_taut_treats_boxes_as_units():
    v = check_proof(Proof((_taut("[1]p -> [1]p"),)), BASE_LOGIC)
    assert v.accepted
    v = check_proof(Proof((_taut("[1]p -> [2]p"),)), BASE_LOGIC)
    assert not v.accepted


def test_reject_schema_outside_logic():
    line = ProofLine(parse("[1]p -> p"), AxiomRef(TG))
    assert check_proof(Proof((line,)), BASE_LOGIC) == ProofVerdict(
        False, 1, "schema tg is not part of this logic")
    assert check_proof(Proof((line,)),
                       LogicDescriptor(frozenset({TG}))).accepted


def test_reject_axiom_binding_mismatch():
    binding = (("G", G1), ("H", G2), ("phi", p), ("psi", q))
    line = ProofLine(parse("[1]p -> [1]p"), AxiomRef(B1, binding))
    v = check_proof(Proof((line,)), BASE_LOGIC)
    assert v == ProofVerdict(
        False, 1, "binding instantiates b1 to [1]p & [2]q -> [1,2](p & q), "
        "not this line")


def test_reject_axiom_binding_error():
    binding = (("G", G1), ("H", G12), ("phi", p), ("psi", q))
    line = ProofLine(parse("([1]p & [1,2]q) -> [1,2](p & q)"),
                     AxiomRef(B1, binding))
    v = check_proof(Proof((line,)), BASE_LOGIC)
    assert v == ProofVerdict(False, 1, "B1 needs disjoint groups G and H")


def test_reject_non_instance():
    line = ProofLine(parse("[1]p -> p"), AxiomRef(B2))
    assert check_proof(Proof((line,)), BASE_LOGIC) == ProofVerdict(
        False, 1, "not an instance of b2")


def test_reject_bad_mp_references():
    lines = (_taut("p -> p"),
             ProofLine(parse("p -> p"), MP(2, 1)))
    assert check_proof(Proof(lines), BASE_LOGIC) == ProofVerdict(
        False, 2, "modus ponens must cite earlier lines")


def test_reject_mp_mismatch():
    lines = (_taut("p -> p"), _taut("q | ~q"),
             ProofLine(parse("p -> p"), MP(2, 1)))
    assert check_proof(Proof(lines), BASE_LOGIC) == ProofVerdict(
        False, 3, "line 1 is not (line 2 -> this line)")


def test_re_accept_and_reject():
    good = (_taut("p <-> p"),
            ProofLine(parse("[1]p <-> [1]p"), RE(1, G1)))
    assert check_proof(Proof(good), BASE_LOGIC).accepted
    not_iff = (_taut("p -> p"),
               ProofLine(parse("[1]p <-> [1]p"), RE(1, G1)))
    assert check_proof(Proof(not_iff), BASE_LOGIC) == ProofVerdict(
        False, 2, "line 1 is not an equivalence")
    wrong_group = (_taut("p <-> p"),
                   ProofLine(parse("[1]p <-> [2]p"), RE(1, G1)))
    assert check_proof(Proof(wrong_group), BASE_LOGIC) == ProofVerdict(
        False, 2, "RE on line 1 yields [1]p <-> [1]p, not this line")
    forward = (ProofLine(parse("[1]p <-> [1]p"), RE(1, G1)),)
    assert check_proof(Proof(forward), BASE_LOGIC) == ProofVerdict(
        False, 1, "RE must cite an earlier line")


@pytest.mark.parametrize("ref", [True, False, "1", 1.0, None, -1, 0])
def test_line_references_must_be_ints(ref):
    # True == 1, so a bool read as line 1 and such a proof was accepted
    taut = _taut("p -> p")
    mp = (taut, ProofLine(parse("p -> p"), MP(ref, 1)))
    assert check_proof(Proof(mp), BASE_LOGIC) == ProofVerdict(
        False, 2, "modus ponens must cite earlier lines")
    mp = (taut, ProofLine(parse("p -> p"), MP(1, ref)))
    assert check_proof(Proof(mp), BASE_LOGIC) == ProofVerdict(
        False, 2, "modus ponens must cite earlier lines")
    re = (_taut("p <-> p"), ProofLine(parse("[1]p <-> [1]p"), RE(ref, G1)))
    assert check_proof(Proof(re), BASE_LOGIC) == ProofVerdict(
        False, 2, "RE must cite an earlier line")


def test_reject_empty_proof_and_unknown_justification():
    assert check_proof(Proof(()), BASE_LOGIC) == ProofVerdict(
        False, None, "empty proof")
    v = check_proof(Proof((ProofLine(p, "zap"),)), BASE_LOGIC)
    assert not v.accepted and v.line == 1
    assert "unknown justification" in v.reason


# ---------------------------------------------------------------------------
# Shipped certificates


@pytest.mark.parametrize("name", CERTIFICATE_NAMES)
def test_builtin_certificates_are_accepted(name):
    pf = proof_from_dict(builtin_certificate(name))
    if pf.phi is not None:
        v = check_entailment_certificate(pf.gamma or (), pf.phi,
                                         pf.proof, pf.logic)
    else:
        v = check_proof(pf.proof, pf.logic)
    assert v == ProofVerdict(True)


@pytest.mark.parametrize("name", CERTIFICATE_NAMES)
def test_proof_dict_round_trip(name):
    pf = proof_from_dict(builtin_certificate(name))
    assert proof_from_dict(proof_to_dict(pf)) == pf


def test_builtin_certificate_unknown_name():
    with pytest.raises(ProofFormatError, match="unknown certificate"):
        builtin_certificate("zzz")


def test_sa_from_nec_shape():
    pf = proof_from_dict(builtin_certificate("sa_from_nec"))
    assert len(pf.proof.lines) == 8
    assert render(pf.proof.lines[-1].formula) == "[1]p -> [1,2]p"
    assert NEC(2) in pf.logic.extensions


# ---------------------------------------------------------------------------
# Entailment certificates


def test_entailment_theoremhood():
    proof = Proof((_taut("p -> p"),))
    v = check_entailment_certificate((), parse("p -> p"), proof, BASE_LOGIC)
    assert v == ProofVerdict(True)


def test_entailment_selection_in_any_premise_order():
    gamma = (parse("[2]q"), parse("[1]p"))
    proof = Proof((ProofLine(parse("([1]p & [2]q) -> [1,2](p & q)"),
                             AxiomRef(B1)),))
    v = check_entailment_certificate(gamma, parse("[1,2](p & q)"),
                                     proof, BASE_LOGIC)
    assert v == ProofVerdict(True)


def test_entailment_rejects_unlisted_antecedent():
    gamma = (parse("[1]p"),)
    proof = Proof((_taut("([1]r & [1]p) -> (p | ~p)"),))
    v = check_entailment_certificate(gamma, parse("p | ~p"),
                                     proof, BASE_LOGIC)
    assert v == ProofVerdict(
        False, 1,
        "antecedent is not a right-nested conjunction of premise formulas")


def test_entailment_requires_right_nesting():
    gamma = (parse("[1]p"), parse("[2]q"), parse("[1]r"))
    phi = parse("p | ~p")
    left = Proof((_taut("(([1]p & [2]q) & [1]r) -> (p | ~p)"),))
    assert not check_entailment_certificate(gamma, phi, left,
                                            BASE_LOGIC).accepted
    right = Proof((_taut("([1]p & ([2]q & [1]r)) -> (p | ~p)"),))
    assert check_entailment_certificate(gamma, phi, right,
                                        BASE_LOGIC).accepted


def test_entailment_rejects_wrong_conclusion():
    proof = Proof((_taut("p -> p"),))
    v = check_entailment_certificate((), q, proof, BASE_LOGIC)
    assert v == ProofVerdict(False, 1, "last line does not conclude q")


def test_entailment_propagates_proof_failure():
    proof = Proof((ProofLine(p, Taut()),))
    v = check_entailment_certificate((), p, proof, BASE_LOGIC)
    assert v == ProofVerdict(False, 1, "not a propositional tautology")


# ---------------------------------------------------------------------------
# Proof file format errors


@pytest.mark.parametrize("data,fragment", [
    ([], "must be a mapping"),
    ({"lines": []}, "nonempty list"),
    ({"lines": [{"formula": "p"}]}, "need 'formula' and 'just'"),
    ({"lines": [{"formula": "p", "just": {}}]}, "'just' needs a 'type'"),
    ({"lines": [{"formula": "p", "just": {"type": "axiom"}}]},
     "axiom needs a 'schema'"),
    ({"lines": [{"formula": "p", "just": {"type": "axiom", "schema": "zzz"}}]},
     "unknown schema"),
    ({"lines": [{"formula": "p", "just": {"type": "axiom", "schema": "b1",
                                          "binding": 5}}]},
     "binding must be a mapping"),
    ({"lines": [{"formula": "p", "just": {"type": "axiom", "schema": "b1",
                                          "binding": {"G": 1}}}]},
     "G must be an agent list"),
    ({"lines": [{"formula": "p", "just": {"type": "axiom", "schema": "b1",
                                          "binding": {"phi": 1}}}]},
     "phi must be a formula string"),
    ({"lines": [{"formula": "p", "just": {"type": "mp", "from": [1]}}]},
     "mp needs 'from'"),
    ({"lines": [{"formula": "p", "just": {"type": "re", "from": 1}}]},
     "re needs 'from' and 'group'"),
    ({"lines": [{"formula": "p", "just": {"type": "hope"}}]},
     "unknown justification"),
    ({"lines": [{"formula": "p", "just": {"type": "taut"}}], "gamma": "x",
      "phi": "p"}, "'gamma' must be a list"),
    ({"lines": [{"formula": "p", "just": {"type": "taut"}}],
      "gamma": ["q"]}, "'gamma' without 'phi'"),
    ({"logic": 3, "lines": [{"formula": "p", "just": {"type": "taut"}}]},
     "'logic' must be a mapping"),
])
def test_proof_from_dict_errors(data, fragment):
    with pytest.raises(ProofFormatError) as exc:
        proof_from_dict(data)
    assert fragment in str(exc.value)
