"""Value classes: constructors, equality, hashing, reprs and immutability.

Every class whose instances are values (formulas, groups, world sets,
models, verdicts, proofs, search bounds and results) is pinned here by
one fixed instance: its constructor's parameters, its repr, equality
with an equal instance and not with an instance of another class with
the same fields, a hash equal to the hash of its field tuple, and
FrozenInstanceError on every attempt to change it.  A shape that
several classes share is pinned through one subclass.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

from nbhd import (
    B1, BASE_LOGIC, TG, AgentModel, Atom, AxiomRef, Bottom, Box,
    ConditionVerdict, CounterExample, FrameWitness, FuzzReport, GeneralModel,
    Group, LogicDescriptor, MP, Nec, NeighbourhoodMap, Not, Or, PGroup, Proof,
    ProofFile, ProofLine, ProofVerdict, RE, Reflexive, SchemaId,
    SchemaTarget, SchemaVerdict, SearchBounds, SearchResult, Taut, Top,
    Violation, World, WorldSet,
)

P, Q = Atom("p"), Atom("q")
G1, G12 = Group.of(1), Group.of(1, 2)
WORLDS = (World(0, "u"), World(1, "v"))
VALUATION = {"p": WorldSet(1, 2)}
MAP = NeighbourhoodMap(2, [{1}, set()])
CX = CounterExample("u", (("G", G1),), (("phi", WorldSet(1, 2)),))
LINE = ProofLine(P, Taut())
REQUIRED = inspect.Parameter.empty


def _agent_model():
    return AgentModel(WORLDS, VALUATION, {1: MAP})


# class, a fixed instance, the constructor's parameters with their
# defaults, and the instance's repr
_CASES = [
    (Group, lambda: Group((2, 1)), [("members", REQUIRED)], "Group({1,2})"),
    (Bottom, Bottom, [], "false"),
    (Top, Top, [], "true"),
    (Atom, lambda: Atom("p"), [("name", REQUIRED)], "p"),
    (Not, lambda: Not(P), [("body", REQUIRED)], "~p"),
    (Or, lambda: Or(P, Q), [("left", REQUIRED), ("right", REQUIRED)],
     "p | q"),
    (Box, lambda: Box(G12, P), [("group", REQUIRED), ("body", REQUIRED)],
     "[1,2]p"),
    (Nec, lambda: Nec(1), [("agent", REQUIRED)], "Nec(agent=1)"),
    (PGroup, lambda: PGroup(G12), [("group", REQUIRED)],
     "PGroup(group=Group({1,2}))"),
    (Reflexive, Reflexive, [], "Reflexive()"),
    (FrameWitness, lambda: FrameWitness("u", 1, WorldSet(1, 2)),
     [("world", REQUIRED), ("subject", REQUIRED), ("offending", REQUIRED)],
     "FrameWitness(world='u', subject=1, offending=WorldSet({0}/2))"),
    (ConditionVerdict,
     lambda: ConditionVerdict(False, FrameWitness("u", G1, WorldSet(0, 2)),
                              "n"),
     [("holds", REQUIRED), ("witness", None), ("note", None)],
     "ConditionVerdict(holds=False, witness=FrameWitness(world='u', "
     "subject=Group({1}), offending=WorldSet({}/2)), note='n')"),
    (SchemaId, lambda: SchemaId("NEC", 2),
     [("kind", REQUIRED), ("agent", None)],
     "SchemaId(kind='NEC', agent=2)"),
    (LogicDescriptor, lambda: LogicDescriptor(frozenset({TG})),
     [("extensions", frozenset()), ("replace_b1_with_cg", False)],
     "LogicDescriptor(extensions=frozenset({SchemaId(kind='TG', "
     "agent=None)}), replace_b1_with_cg=False)"),
    (CounterExample, lambda: CX,
     [("world", REQUIRED), ("groups", ()), ("sets", ()), ("agent", None)],
     "CounterExample(world='u', groups=(('G', Group({1})),), "
     "sets=(('phi', WorldSet({0}/2)),), agent=None)"),
    (SchemaVerdict, lambda: SchemaVerdict(False, CX, "n"),
     [("valid", REQUIRED), ("counterexample", None), ("note", None)],
     "SchemaVerdict(valid=False, counterexample=CounterExample(world='u', "
     "groups=(('G', Group({1})),), sets=(('phi', WorldSet({0}/2)),), "
     "agent=None), note='n')"),
    (Taut, Taut, [], "Taut()"),
    (AxiomRef, lambda: AxiomRef(B1, (("G", G1), ("phi", P))),
     [("schema", REQUIRED), ("binding", None)],
     "AxiomRef(schema=SchemaId(kind='B1', agent=None), "
     "binding=(('G', Group({1})), ('phi', p)))"),
    (MP, lambda: MP(1, 2), [("premise", REQUIRED), ("implication", REQUIRED)],
     "MP(premise=1, implication=2)"),
    (RE, lambda: RE(1, G1), [("source", REQUIRED), ("group", REQUIRED)],
     "RE(source=1, group=Group({1}))"),
    (ProofLine, lambda: LINE,
     [("formula", REQUIRED), ("justification", REQUIRED)],
     "ProofLine(formula=p, justification=Taut())"),
    (Proof, lambda: Proof((LINE,)), [("lines", REQUIRED)],
     "Proof(lines=(ProofLine(formula=p, justification=Taut()),))"),
    (ProofFile, lambda: ProofFile(Proof((LINE,)), BASE_LOGIC, (Q,), P),
     [("proof", REQUIRED), ("logic", REQUIRED), ("gamma", None),
      ("phi", None)],
     "ProofFile(proof=Proof(lines=(ProofLine(formula=p, "
     "justification=Taut()),)), logic=LogicDescriptor(extensions="
     "frozenset(), replace_b1_with_cg=False), gamma=(q,), phi=p)"),
    (ProofVerdict, lambda: ProofVerdict(False, 2, "r"),
     [("accepted", REQUIRED), ("line", None), ("reason", None)],
     "ProofVerdict(accepted=False, line=2, reason='r')"),
    (World, lambda: World(0, "u"), [("index", REQUIRED), ("label", REQUIRED)],
     "World(index=0, label='u')"),
    (WorldSet, lambda: WorldSet(0b101, 3),
     [("bits", REQUIRED), ("size", REQUIRED)], "WorldSet({0,2}/3)"),
    (AgentModel, _agent_model,
     [("worlds", REQUIRED), ("valuation", REQUIRED), ("agents", REQUIRED)],
     "AgentModel(worlds=(World(index=0, label='u'), World(index=1, "
     "label='v')), valuation={'p': WorldSet({0}/2)}, agents={1: "
     "NeighbourhoodMap(size=2, families=(frozenset({1}), frozenset()))})"),
    (GeneralModel, lambda: GeneralModel(WORLDS, VALUATION, {G1: MAP}),
     [("worlds", REQUIRED), ("valuation", REQUIRED), ("groups", REQUIRED)],
     "GeneralModel(worlds=(World(index=0, label='u'), World(index=1, "
     "label='v')), valuation={'p': WorldSet({0}/2)}, groups={Group({1}): "
     "NeighbourhoodMap(size=2, families=(frozenset({1}), frozenset()))})"),
    (SearchBounds,
     lambda: SearchBounds(2, [1], ["p"], "exhaustive", 5, None, [Nec(1)]),
     [("max_worlds", REQUIRED), ("agents", REQUIRED), ("atoms", ()),
      ("mode", "random"), ("trials", 1000), ("seed", None),
      ("frame_constraints", ())],
     "SearchBounds(max_worlds=2, agents=(1,), atoms=('p',), "
     "mode='exhaustive', trials=5, seed=None, "
     "frame_constraints=(Nec(agent=1),))"),
    (SchemaTarget, lambda: SchemaTarget(B1, "definable-only", [G12, G1]),
     [("schema", REQUIRED), ("mode", "all-subsets"), ("pool", None)],
     "SchemaTarget(schema=SchemaId(kind='B1', agent=None), "
     "mode='definable-only', pool=(Group({1,2}), Group({1})))"),
    (SearchResult, lambda: SearchResult(_agent_model(), "v", None, 3),
     [("model", REQUIRED), ("witness", REQUIRED), ("draw", None),
      ("index", None)],
     "SearchResult(model=AgentModel(worlds=(World(index=0, label='u'), "
     "World(index=1, label='v')), valuation={'p': WorldSet({0}/2)}, "
     "agents={1: NeighbourhoodMap(size=2, families=(frozenset({1}), "
     "frozenset()))}), witness='v', draw=None, index=3)"),
    (Violation, lambda: Violation(7, _agent_model(), B1, CX),
     [("draw", REQUIRED), ("model", REQUIRED), ("schema", REQUIRED),
      ("witness", REQUIRED)],
     "Violation(draw=7, model=AgentModel(worlds=(World(index=0, label='u'), "
     "World(index=1, label='v')), valuation={'p': WorldSet({0}/2)}, "
     "agents={1: NeighbourhoodMap(size=2, families=(frozenset({1}), "
     "frozenset()))}), schema=SchemaId(kind='B1', agent=None), "
     "witness=CounterExample(world='u', groups=(('G', Group({1})),), "
     "sets=(('phi', WorldSet({0}/2)),), agent=None))"),
    (FuzzReport, lambda: FuzzReport(10, (B1, TG)),
     [("trials", REQUIRED), ("schemas", REQUIRED), ("violations", ())],
     "FuzzReport(trials=10, schemas=(SchemaId(kind='B1', agent=None), "
     "SchemaId(kind='TG', agent=None)), violations=())"),
]
# values that hold a model, whose valuation is a dict, have no hash
_UNHASHABLE = {AgentModel, GeneralModel, SearchResult, Violation}
_IDS = [cls.__name__ for cls, *_ in _CASES]


def _fields(params):
    return tuple(name for name, _ in params)


def _values(value, params):
    return tuple(getattr(value, name) for name in _fields(params))


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_constructor_parameters(cls, make, params, text):
    got = inspect.signature(cls).parameters.values()
    # a parameter named with "_", such as a model's cache, is private
    assert [(p.name, p.kind, p.default) for p in got
            if not p.name.startswith("_")] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
        for name, default in params]
    assert cls.__match_args__[:len(params)] == _fields(params)


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_repr(cls, make, params, text):
    assert repr(make()) == text


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_equal_by_fields_within_one_class(cls, make, params, text):
    value = make()
    twin = cls(*_values(value, params))
    assert value == twin and not value != twin and value is not twin
    # a class with the same fields, by subclassing, is another class
    copy_cls = type("Copy", (cls,), {"__slots__": ()})
    other = copy_cls(*_values(value, params))
    assert value != other and other != value and not value == other
    assert value.__eq__(other) is NotImplemented
    assert value != object() and value != _values(value, params)


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_hash_is_the_hash_of_the_fields(cls, make, params, text):
    value = make()
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(_values(value, params))


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_fields_cannot_change(cls, make, params, text):
    value = make()
    before = _values(value, params)
    for name in _fields(params) + ("extra",):
        with pytest.raises(FrozenInstanceError) as exc:
            setattr(value, name, 7)
        assert str(exc.value) == f"cannot assign to field {name!r}"
    for name in _fields(params):
        with pytest.raises(FrozenInstanceError) as exc:
            delattr(value, name)
        assert str(exc.value) == f"cannot delete field {name!r}"
    assert _values(value, params) == before and not hasattr(value, "extra")


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_copy_and_pickle_give_an_equal_value(cls, make, params, text):
    value = make()
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(again) is cls and again == value


@pytest.mark.parametrize("cls,make,params,text", _CASES, ids=_IDS)
def test_values_keep_no_attribute_dict(cls, make, params, text):
    assert not hasattr(make(), "__dict__")


def test_model_caches_stay_out_of_equality():
    m, again = _agent_model(), _agent_model()
    m._group_cache[G1] = "filled"
    assert m == again and m._group_cache != again._group_cache
    assert "_group_cache" not in repr(m) and "_code_cache" not in repr(m)


def test_bottom_and_top_differ():
    assert Bottom() == Bottom() and Bottom() != Top()
    assert hash(Bottom()) == hash(Top()) == hash(())


def test_worldset_iterates_and_prints_its_indices():
    assert list(WorldSet(0b101, 3)) == [0, 2]
    assert list(WorldSet.empty(2)) == []
    assert repr(WorldSet.empty(2)) == "WorldSet({}/2)"
    assert repr(WorldSet.full(3)) == "WorldSet({0,1,2}/3)"


def test_neighbourhood_map_hashes_by_size_and_families():
    again = NeighbourhoodMap(2, [[1], ()])
    assert MAP == again and hash(MAP) == hash(again) \
        == hash((2, (frozenset({1}), frozenset())))
    assert len({MAP, again, NeighbourhoodMap(2, [{1}, {0}])}) == 2
