"""Formula syntax: groups, parsing, rendering, normal form, tautologies."""

import ast
import dataclasses
import itertools
import pathlib
import time

import pytest
from hypothesis import given, strategies as st

from nbhd import (
    AgentModel, And, Atom, BinaryConsistent, Bottom, Box, Conec, Cop,
    FormulaSyntaxError, Group, Iff, Implies, InputError, IntersectionClosed,
    Monotone, Nec, NeighbourhoodMap, Not, Or, PCondition, Reflexive,
    ResourceLimitError, Top, World, WorldSet, boxed_atoms, formula_agents,
    formula_atoms, is_propositional_tautology, normalize, parse, render,
    truth_set,
)
import nbhd
from nbhd.formula import _CONNECTIVES, read_agent, read_agents

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# ---------------------------------------------------------------------------
# Groups


def test_group_canonicalizes_members():
    assert Group((2, 1, 1)).members == (1, 2)
    assert Group.of(3, 1) == Group((1, 3))
    assert str(Group.of(2, 10)) == "2,10"
    assert list(Group.of(1, 2)) == [1, 2]
    assert 2 in Group.of(1, 2)
    assert len(Group.of(1, 2, 3)) == 3


def test_group_rejects_bad_members():
    with pytest.raises(ValueError):
        Group(())
    with pytest.raises(ValueError):
        Group((-1,))
    with pytest.raises(ValueError):
        Group((True,))


@pytest.mark.parametrize("members,bad", [
    (("a", 1), "'a'"), (([1],), "[1]"), ((1, None), "None"), ((3, -1, -2), "-2"),
])
def test_group_names_a_bad_member_before_sorting(members, bad):
    with pytest.raises(InputError) as exc:
        Group(members)
    assert str(exc.value) == f"agent ids are non-negative integers, got {bad}"


@pytest.mark.parametrize("text,agents", [
    ("0", (0,)), (" 12\t", (12,)), ("007", (7,)), ("١", (1,)),
    ("1, 2,1", (1, 2, 1)), ("9" * 4300, (int("9" * 4300),)),
])
def test_read_agents_accepts_decimal_runs(text, agents):
    assert read_agents(text, "x") == agents
    if len(agents) == 1:
        assert read_agent(text, "x") == agents[0]


@pytest.mark.parametrize("text", [
    "", " ", "+1", "-1", "-0", "1_0", "²", "1.0", "0x1", "x", "9" * 4301,
])
def test_read_agents_rejects_anything_else(text):
    with pytest.raises(InputError) as exc:
        read_agent(text, "x")
    assert str(exc.value) == f"x needs an agent id, got {text!r}"
    with pytest.raises(InputError) as exc:
        read_agents("1," + text, "x")
    assert str(exc.value) == ("x needs comma-separated agent ids, "
                              f"got {text.strip()!r}")
    with pytest.raises(FormulaSyntaxError):
        parse(f"[{text}]p")


def test_group_set_operations():
    g, h = Group.of(1, 2), Group.of(2, 3)
    assert g | h == Group.of(1, 2, 3)
    assert not g.isdisjoint(h)
    assert Group.of(1).isdisjoint(Group.of(2))
    assert Group.of(1).issubset(g)
    assert g.difference(Group.of(2)) == Group.of(1)
    assert g.difference(g) is None
    assert sorted([Group.of(1, 2), Group.of(3), Group.of(1)],
                  key=Group.sort_key) == [Group.of(1), Group.of(3),
                                          Group.of(1, 2)]


# ---------------------------------------------------------------------------
# Parsing


def test_parse_atoms_and_constants():
    assert parse("p") == P
    assert parse("true") == Top()
    assert parse("false") == Bottom()


def test_parse_precedence_and_associativity():
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse("p <-> q <-> r") == Iff(Iff(P, Q), R)
    assert parse("p | q | r") == Or(Or(P, Q), R)
    assert parse("p & q & r") == And(And(P, Q), R)
    assert parse("~p | q & r") == Or(Not(P), And(Q, R))
    assert parse("p | q -> r") == Implies(Or(P, Q), R)
    assert parse("p <-> q -> r") == Iff(P, Implies(Q, R))


def test_parse_boxes():
    assert parse("[1]p") == Box(Group.of(1), P)
    assert parse("[2,1]p") == Box(Group.of(1, 2), P)
    assert parse("[1][2]p") == Box(Group.of(1), Box(Group.of(2), P))
    assert parse("~[1]~p") == Not(Box(Group.of(1), Not(P)))
    assert parse("[1]p & q") == And(Box(Group.of(1), P), Q)


@pytest.mark.parametrize("text", [5, None, b"p", ["p"]])
def test_parse_rejects_non_strings(text):
    with pytest.raises(InputError) as exc:
        parse(text)
    assert str(exc.value) == f"parse needs a string, got {type(text).__name__}"


def test_parse_error_positions():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p &")
    assert exc.value.position == 3
    with pytest.raises(FormulaSyntaxError):
        parse("(p")
    with pytest.raises(FormulaSyntaxError):
        parse("[1,]p")
    with pytest.raises(FormulaSyntaxError):
        parse("[]p")
    with pytest.raises(FormulaSyntaxError):
        parse("p q")
    with pytest.raises(FormulaSyntaxError):
        parse("p @ q")
    with pytest.raises(FormulaSyntaxError):
        parse("")


@pytest.mark.parametrize("text,position", [
    ("[²]p", 1),      # str.isdigit() but not a decimal digit
    ("[1,①]p", 3),
    ("[1²]p", 1),
])
def test_parse_rejects_non_decimal_agent_ids(text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert exc.value.position == position
    assert str(exc.value).startswith("expected an agent id")


def test_lexical_rules():
    # Atom names start with a letter or "_" and go on with letters,
    # digits and "_", in the sense of str.isalpha() and str.isalnum();
    # agent ids are decimal digits, in any script.
    assert parse("P") == Atom("P")
    assert parse("_x") == Atom("_x")
    assert parse("πq") == Atom("πq")
    assert parse("p²") == Atom("p²")
    assert parse("[１,१]p") == Box(Group.of(1), P)
    assert parse("true_") == Atom("true_")
    assert parse("p\t&\u2028q\x1c") == And(P, Q)
    for text, position in (("1p", 0), ("½", 0), ("p <- q", 2), ("p - q", 2)):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.position == position


# Each block adds four levels: a negation, a box, parentheses and "&".
_DEPTH_100 = "~[1](p & " * 25 + "q" + ")" * 25


def test_nesting_guard_accepts_depth_100():
    for text in (_DEPTH_100, "~" * 100 + "p", "(" * 100 + "p" + ")" * 100,
                 " & ".join(["p"] * 101), " -> ".join(["p"] * 101)):
        f = parse(text)
        assert parse(render(f)) == f
    # Each block flips the truth value at the one world w, where p holds:
    # ~[1](p & false) is true and ~[1](p & true) false, as N_1(w) = {{w}}.
    # There are 25 blocks, so the formula is true at w iff q is false.
    f = parse(_DEPTH_100)
    for q in (0, 1):
        m = AgentModel((World(0, "w"),),
                       {"p": WorldSet(1, 1), "q": WorldSet(q, 1)},
                       {1: NeighbourhoodMap(1, [{1}])})
        assert truth_set(m, f) == WorldSet(1 - q, 1)


@pytest.mark.parametrize("text,position", [
    ("~" * 2000 + "p", 100),                     # the 101st "~"
    ("(" * 1000 + "p" + ")" * 1000, 100),        # the 101st "("
    ("&".join(["p"] * 600), 201),                # the 101st "&"
    ("[1]" * 101 + "p", 300),                    # the 101st box
    (" -> ".join(["p"] * 102), 502),             # the 101st "->"
    ("~~" + _DEPTH_100, 222),                    # the 25th "("
])
def test_nesting_guard_rejects_depth_101(text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == (f"formula nested more than 100 levels deep "
                              f"(at position {position})")


def test_trailing_whitespace_is_scanned_once():
    start = time.perf_counter()
    assert parse("p" + " " * 50_000) == P
    assert time.perf_counter() - start < 1.0  # linear: about a millisecond


# ---------------------------------------------------------------------------
# Rendering


def test_render_uses_minimal_parentheses():
    assert render(parse("[1,2]((p | r) & (q | r))")) == "[1,2]((p | r) & (q | r))"
    assert render(Implies(P, Implies(Q, R))) == "p -> q -> r"
    assert render(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
    assert render(Iff(Iff(P, Q), R)) == "p <-> q <-> r"
    assert render(Iff(P, Iff(Q, R))) == "p <-> (q <-> r)"
    assert render(And(Or(P, Q), R)) == "(p | q) & r"
    assert render(Or(P, And(Q, R))) == "p | q & r"
    assert render(Not(And(P, Q))) == "~(p & q)"
    assert render(Box(Group.of(1, 2), Or(P, Q))) == "[1,2](p | q)"
    assert render(And(And(P, Q), R)) == "p & q & r"
    assert render(And(P, And(Q, R))) == "p & (q & r)"


_GROUPS = st.sets(st.sampled_from([1, 2, 3]), min_size=1, max_size=3).map(
    lambda s: Group(tuple(s)))

_FORMULAS = st.recursive(
    st.one_of(st.sampled_from([Bottom(), Top(), P, Q, R])),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(_GROUPS, children).map(lambda t: Box(t[0], t[1])),
        st.tuples(st.sampled_from([Or, And, Implies, Iff]),
                  children, children).map(lambda t: t[0](t[1], t[2]))),
    max_leaves=10)


@given(_FORMULAS)
def test_parse_render_round_trip(f):
    assert parse(render(f)) == f


# ---------------------------------------------------------------------------
# Structure helpers


def test_formula_atoms_and_agents():
    f = parse("[1]p -> (q & [2,3]false)")
    assert formula_atoms(f) == frozenset({"p", "q"})
    assert formula_agents(f) == frozenset({1, 2, 3})


def test_boxed_atoms_collects_units():
    f = parse("[1]p -> (q & [1]p)")
    assert boxed_atoms(f) == frozenset({Box(Group.of(1), P), Q})
    assert boxed_atoms(parse("true & false")) == frozenset()
    assert boxed_atoms(parse("[1](p & q)")) == frozenset(
        {Box(Group.of(1), And(P, Q))})


# ---------------------------------------------------------------------------
# Normal form


def _is_primitive(f):
    if isinstance(f, (Bottom, Atom)):
        return True
    if isinstance(f, Not):
        return _is_primitive(f.body)
    if isinstance(f, Or):
        return _is_primitive(f.left) and _is_primitive(f.right)
    if isinstance(f, Box):
        return _is_primitive(f.body)
    return False


@given(_FORMULAS)
def test_normalize_is_primitive_and_idempotent(f):
    g = normalize(f)
    assert _is_primitive(g)
    assert normalize(g) == g


@given(_FORMULAS)
def test_normalize_preserves_propositional_truth(f):
    # Boxes are opaque units here, but normalize rewrites their bodies,
    # so assign truth values to the normalized units and read the
    # original units through normalize.
    g = normalize(f)
    g_units = sorted(boxed_atoms(g), key=render)
    f_units = boxed_atoms(f)
    for values in itertools.product((False, True), repeat=len(g_units)):
        env_g = dict(zip(g_units, values))
        env_f = {u: env_g[normalize(u)] for u in f_units}
        assert _eval(f, env_f) == _eval(g, env_g)


def _eval(f, env):
    if isinstance(f, (Atom, Box)):
        return env[f]
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not _eval(f.body, env)
    if isinstance(f, Or):
        return _eval(f.left, env) or _eval(f.right, env)
    if isinstance(f, And):
        return _eval(f.left, env) and _eval(f.right, env)
    if isinstance(f, Implies):
        return (not _eval(f.left, env)) or _eval(f.right, env)
    if isinstance(f, Iff):
        return _eval(f.left, env) == _eval(f.right, env)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# Tautology checking


def _taut_oracle(f):
    units = sorted(boxed_atoms(f), key=render)
    return all(_eval(f, dict(zip(units, values)))
               for values in itertools.product((False, True),
                                               repeat=len(units)))


@pytest.mark.parametrize("text,expected", [
    ("p | ~p", True),
    ("p -> p", True),
    ("(p -> q) -> ((q -> r) -> (p -> r))", True),
    ("p -> q", False),
    ("true", True),
    ("false -> p", True),
    ("[1]p | ~[1]p", True),
    ("[1]p -> p", False),
    ("([1]p & [2]q) -> [1]p", True),
    ("(p & true) <-> p", True),
])
def test_tautology_examples(text, expected):
    assert is_propositional_tautology(parse(text)) is expected


@given(_FORMULAS)
def test_tautology_matches_truth_table_oracle(f):
    assert is_propositional_tautology(f) == _taut_oracle(f)


def test_tautology_unit_guard():
    big = parse(" | ".join(f"a{i}" for i in range(21)))
    with pytest.raises(ResourceLimitError):
        is_propositional_tautology(big)


# ---------------------------------------------------------------------------
# One table of binary connectives


_BINARY_NAMES = {"And", "Or", "Implies", "Iff"}


def _names(nodes):
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name)}


def _binary_dispatch(tree):
    """Line numbers of the class tests on a binary connective: calls to
    isinstance or issubclass, comparisons with a type(...) call, and
    class patterns."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass"):
            classes = node.args[1:]
        elif isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                and side.func.id == "type"
                for side in (node.left, *node.comparators)):
            classes = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchClass):
            classes = [node.cls]
        else:
            continue
        if _names(classes) & _BINARY_NAMES:
            yield node.lineno


def test_binary_connectives_are_dispatched_only_through_the_table():
    assert set(_CONNECTIVES) == {And, Or, Implies, Iff}
    package = pathlib.Path(nbhd.__file__).parent
    for name in ("formula.py", "model.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        assert list(_binary_dispatch(tree)) == [], name
    # the check sees each form of a test on a connective's class
    probe = ast.parse("isinstance(f, (Not, Or))\ntype(f) is Iff\n"
                      "type(f) in (And, Box)\n"
                      "match f:\n    case Implies(): pass\n")
    assert list(_binary_dispatch(probe)) == [1, 2, 3, 5]


# ---------------------------------------------------------------------------
# Shared shapes: the binary connectives, the conditions on one agent and
# the conditions on every family each take their fields from one dataclass

_SHAPES = (
    ((Or, And, Implies, Iff), (P, Q), ("left", "right")),
    ((Nec, Conec, PCondition, Cop), (1,), ("agent",)),
    ((Reflexive, BinaryConsistent, Monotone, IntersectionClosed), (), ()),
)
# the reprs at the commit before the shapes were shared
_REPRS = {Or: "p | q", And: "p & q", Implies: "p -> q", Iff: "p <-> q",
          Nec: "Nec(agent=1)", Conec: "Conec(agent=1)", PCondition: "P(agent=1)",
          Cop: "Cop(agent=1)", Reflexive: "Reflexive()",
          BinaryConsistent: "BinaryConsistent()", Monotone: "Monotone()",
          IntersectionClosed: "IntersectionClosed()"}


@pytest.mark.parametrize("cls,siblings,args,names", [
    (cls, siblings, args, names)
    for siblings, args, names in _SHAPES for cls in siblings])
def test_shared_shapes_keep_their_classes_apart(cls, siblings, args, names):
    f = cls(*args)
    # declared once, on the shape, and documented on the class
    assert "__dataclass_fields__" not in vars(cls) and cls.__doc__
    assert tuple(fl.name for fl in dataclasses.fields(f)) == names
    # equal fields never make two classes equal
    assert [g for g in siblings if g(*args) == f] == [cls]
    assert f == cls(*args) and hash(f) == hash(args) == hash(cls(*args))
    assert repr(f) == _REPRS[cls]
    for name in names + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, 7)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(f, name)
    assert not hasattr(f, "extra")
    if names == ("left", "right"):
        assert type(f)(f.left, f.right) == f


# ---------------------------------------------------------------------------
# Traversals of a Formula outside the table


class _Stray(nbhd.Formula):
    pass


class _OrLike(Or):
    pass


@pytest.mark.parametrize("f,name", [
    (nbhd.Formula(), "Formula"), (_Stray(), "_Stray"), (_OrLike(P, Q), "_OrLike"),
])
@pytest.mark.parametrize("traverse", [
    render, normalize, formula_atoms, is_propositional_tautology,
    lambda f: truth_set(AgentModel((World(0, "w"),), {}, {}), f),
])
def test_a_stray_formula_is_named_by_its_class(f, name, traverse):
    # its repr is its rendering, so the error must not call it
    with pytest.raises(TypeError) as exc:
        traverse(Not(f))
    assert str(exc.value) == f"not a formula: a {name}"
