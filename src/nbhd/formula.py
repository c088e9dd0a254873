"""Formula syntax: AST, parser, printer and propositional reasoning.

The language has the constants ``true`` and ``false``, atoms, the usual
classical connectives and one box operator per nonempty finite group of
agents, written with brackets: ``[1,2]p`` says that group {1,2} is
committed to ``p``.  ``~`` and boxes bind tightest, then ``&``, ``|``,
``->`` and ``<->``; ``->`` groups to the right and the others to the left.

``true``, ``&``, ``->`` and ``<->`` are definitional sugar over the
primitive basis {false, atoms, ~, |, boxes}; :func:`normalize` rewrites
into that basis.  Parsing and printing are mutually inverse:
``parse(render(f))`` returns a structurally equal formula.  Each binary
connective is one row of ``_CONNECTIVES``, which the parser, the printer,
:func:`normalize` and truth evaluation read; only :func:`_children` knows
which fields of a node hold its subformulas.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

from .errors import FormulaSyntaxError, InputError, guard

__all__ = [
    "Group", "Formula", "Bottom", "Top", "Atom", "Not", "Or", "And",
    "Implies", "Iff", "Box", "parse", "render", "normalize",
    "boxed_atoms", "formula_atoms", "formula_agents",
    "is_propositional_tautology",
]


class _Sealed:
    """Takes no attributes: setting or deleting any name raises
    ``dataclasses.FrozenInstanceError``, as on a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only on this path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Value(_Sealed):
    """An immutable value: equal to a value of its own class whose fields
    are equal, hashed as the tuple of its fields and shown by them.

    Its fields are the names in the ``__slots__`` along its MRO, base
    first, except those starting with "_" (a model's caches).  Each
    subclass declares ``__slots__``, empty if it adds no field, and its
    ``__init__`` sets each slot with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(name for c in reversed(cls.__mro__)
                      for name in vars(c).get("__slots__", ())
                      if not name.startswith("_"))
        cls._fields = cls.__match_args__ = names
        # What __eq__ compares: the value of one field, the tuple of
        # several, or with none the class, which is equal by then.
        key = cls._key = attrgetter(*names or ("__class__",))
        # The tuple of the field values, which __hash__ hashes.
        cls._values = key if len(names) > 1 else staticmethod(
            (lambda self: (key(self),)) if names else (lambda self: ()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        # for copy and pickle, which would set the slots one by one
        return type(self), self._values(self)


class Group(_Value):
    """A nonempty finite set of agent ids, kept sorted and duplicate-free."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]) -> None:
        ms = agent_ids(members)
        if not ms:
            raise InputError("a group needs at least one agent")
        object.__setattr__(self, "members", ms)

    @classmethod
    def of(cls, *agents: int) -> "Group":
        return cls(tuple(agents))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, agent: object) -> bool:
        return agent in self.members

    def __or__(self, other: "Group") -> "Group":
        return Group(self.members + other.members)

    def isdisjoint(self, other: "Group") -> bool:
        return not (set(self.members) & set(other.members))

    def issubset(self, other: "Group") -> bool:
        return set(self.members) <= set(other.members)

    def difference(self, other: "Group") -> "Group | None":
        """Members of self outside other, or None if that would be empty."""
        rest = tuple(a for a in self.members if a not in other.members)
        return Group(rest) if rest else None

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.members)

    def __repr__(self) -> str:
        return f"Group({{{self}}})"


def agent_ids(members: "tuple[object, ...]",
              error: type[Exception] = InputError) -> tuple[int, ...]:
    """``members`` sorted and duplicate-free, if each is an agent id (an
    int, not a bool, not negative); else ``error`` names the first that
    is no int, or the least.  Agent ids in Python values go here."""
    try:
        for a in members:  # before sorting, which needs ints
            if not isinstance(a, int) or isinstance(a, bool):
                raise error(f"agent ids are non-negative integers, got {a!r}")
    except TypeError:  # members is no collection
        raise error(f"expected a collection of agent ids, got {members!r}"
                    ) from None
    ms = tuple(sorted(set(members)))
    if ms and ms[0] < 0:
        raise error(f"agent ids are non-negative integers, got {ms[0]!r}")
    return ms


def read_text(text: object, reader: str) -> str:
    """``text`` if it is a string, else InputError naming ``reader``."""
    if not isinstance(text, str):
        raise InputError(f"{reader} needs a string, got {type(text).__name__}")
    return text


def read_agent(text: str, what: str) -> int:
    """The agent id written in ``text``: a run of decimal digits
    (``str.isdecimal``, as inside a formula's ``[1,2]``), with whitespace
    around it allowed.  Otherwise raises InputError saying that ``what``
    needs an agent id.  Every agent id read from text is read here."""
    digits = text.strip() if isinstance(text, str) else ""
    if digits.isdecimal() and len(digits) <= 4300:  # int()'s default cap
        return int(digits)
    raise InputError(f"{what} needs an agent id, got {text!r}")


def read_agents(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated agent ids in ``text``, each as :func:`read_agent`
    reads it; an InputError names the first part that is none."""
    ids = []
    for part in text.split(","):
        try:
            ids.append(read_agent(part, what))
        except InputError:
            raise InputError(f"{what} needs comma-separated agent ids, "
                             f"got {part.strip()!r}") from None
    return tuple(ids)


class Formula(_Value):
    """Base class of all formula nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return render(self)


class Bottom(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str):
            raise InputError(f"an atom's name is a string, got {name!r}")
        object.__setattr__(self, "name", name)


class Not(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula) -> None:
        object.__setattr__(self, "body", body)


class _Binary(Formula):
    """The shape of the binary connectives, one subclass each.  A node
    equals only a node of its own class."""

    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Or(_Binary):
    """``left | right``"""
    __slots__ = ()


class And(_Binary):
    """``left & right``"""
    __slots__ = ()


class Implies(_Binary):
    """``left -> right``"""
    __slots__ = ()


class Iff(_Binary):
    """``left <-> right``"""
    __slots__ = ()


class Box(Formula):
    __slots__ = ("group", "body")

    def __init__(self, group: Group, body: Formula) -> None:
        if not isinstance(group, Group):
            raise InputError(f"Box needs a Group, got {group!r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "body", body)


# ---------------------------------------------------------------------------
# Binary connectives


# Precedence levels: higher binds tighter.
_IFF, _IMP, _OR, _AND, _UNARY = 1, 2, 3, 4, 5


class _Connective(NamedTuple):
    token: str       # its kind among the parser's tokens
    symbol: str      # as written and printed
    level: int       # its precedence
    left: int        # the least level each operand has without brackets:
    right: int       # "->" groups to the right and the others to the left
    truth: Callable[[int, int, int], int]  # on bit vectors, given the full one
    basis: Callable[[Formula, Formula], Formula]  # of normalized operands


_CONNECTIVES = {
    Iff: _Connective("iff", "<->", _IFF, _IFF, _IMP,
                     lambda a, b, full: full ^ (a ^ b),
                     # (a -> b) & (b -> a), each operand shared by its copies
                     lambda a, b: Not(Or(Not(Or(Not(a), b)),
                                         Not(Or(Not(b), a))))),
    Implies: _Connective("imp", "->", _IMP, _OR, _IMP,
                         lambda a, b, full: (full ^ a) | b,
                         lambda a, b: Or(Not(a), b)),
    Or: _Connective("or", "|", _OR, _OR, _AND, lambda a, b, full: a | b, Or),
    And: _Connective("and", "&", _AND, _AND, _UNARY, lambda a, b, full: a & b,
                     lambda a, b: Not(Or(Not(a), Not(b)))),
}


def _children(f: Formula) -> tuple[Formula, ...]:
    """The subformulas right below ``f``; a TypeError if ``f`` is none."""
    if type(f) in _CONNECTIVES:
        return (f.left, f.right)
    if isinstance(f, (Not, Box)):
        return (f.body,)
    if isinstance(f, (Atom, Bottom, Top)):
        return ()
    # the repr of a Formula is its rendering, which would land here again
    shown = f"a {type(f).__name__}" if isinstance(f, Formula) else repr(f)
    raise TypeError(f"not a formula: {shown}")


# ---------------------------------------------------------------------------
# Tokenizer / parser


# One match per token after optional whitespace.  \s is exactly
# str.isspace() and \w exactly str.isalnum() or "_", so a word is a
# maximal run that may continue an agent id or an atom name; _tokenize
# splits it with str.isdigit(), which unlike \d also takes "²" and "①".
_TOKEN = re.compile(r"\s*(?:(<->|->|[~&|()\[\],])|(\w+)|(\S))")
_SYMBOLS = {"~": "not", "(": "lparen", ")": "rparen", "[": "lbrack",
            "]": "rbrack", ",": "comma",
            **{row.symbol: row.token for row in _CONNECTIVES.values()}}
# For the parser, by token: level, right operand's least level, node.
_BINARY = {row.token: (row.level, row.right, cls)
           for cls, row in _CONNECTIVES.items()}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    # Ending the scan at the trailing whitespace keeps \s* from retrying it.
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        sym, word, other = m.groups()
        i = m.start(m.lastindex)
        if sym:
            tokens.append((_SYMBOLS[sym], sym, i))
            continue
        if other:
            raise FormulaSyntaxError(f"unexpected character {other!r}", i)
        # A word is an agent id, then an atom name or keyword starting
        # with a letter or "_"; either part may be missing.
        j = 0
        while j < len(word) and word[j].isdigit():
            j += 1
        if j:
            tokens.append(("nat", word[:j], i))
        rest = word[j:]
        if rest:
            if not (rest[0].isalpha() or rest[0] == "_"):
                raise FormulaSyntaxError(
                    f"unexpected character {rest[0]!r}", i + j)
            kind = rest if rest in ("true", "false") else "ident"
            tokens.append((kind, rest, i + j))
    tokens.append(("end", "", len(text)))
    return tokens


# How many connectives, boxes and pairs of parentheses may enclose an
# atom.  Printing and evaluation recurse once per level and the parser at
# most twice, so this keeps all of them far below Python's recursion
# limit.
_MAX_DEPTH = 100


class _Parser:
    """Precedence climbing over the grammar

        formula := unary (binop unary)*
        unary   := "~" unary | "[" group "]" unary | "(" formula ")"
                 | "true" | "false" | atom

    where each binop binds and groups as its row of ``_CONNECTIVES`` says.
    Each rule returns its formula and its depth: the most connectives,
    boxes and parentheses that enclose one atom of it.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # the levels enclosing the rule being parsed

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {what}", tok[2])
        self.pos += 1
        return tok

    def deeper(self, depth: int, pos: int) -> None:
        """Enter the construct at ``pos``, around a part ``depth`` deep."""
        if self.depth + depth >= _MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested more than {_MAX_DEPTH} levels deep", pos)
        self.depth += 1

    def formula(self, least: int = _IFF) -> tuple[Formula, int]:
        """A formula whose connectives bind at least as tightly as ``least``."""
        node, depth = self.unary()
        while True:
            kind, _, pos = self.tokens[self.pos]
            level, right_least, make = _BINARY.get(kind, (0, 0, None))
            if level < least:
                return node, depth
            self.pos += 1
            self.deeper(depth, pos)
            right, right_depth = self.formula(right_least)
            self.depth -= 1
            node, depth = make(node, right), max(depth, right_depth) + 1

    def unary(self) -> tuple[Formula, int]:
        kind, value, pos = self.tokens[self.pos]
        self.pos += 1
        if kind == "ident":
            return Atom(value), 0
        if kind == "true":
            return Top(), 0
        if kind == "false":
            return Bottom(), 0
        if kind == "not":
            self.deeper(0, pos)
            body, depth = self.unary()
            node = Not(body)
        elif kind == "lbrack":
            group = self.group()
            self.deeper(0, pos)
            body, depth = self.unary()
            node = Box(group, body)
        elif kind == "lparen":
            self.deeper(0, pos)
            node, depth = self.formula()
            self.expect("rparen", "')'")
        else:
            raise FormulaSyntaxError("expected a formula", pos)
        self.depth -= 1
        return node, depth + 1

    def group(self) -> Group:
        agents = [self.agent()]
        while self.tokens[self.pos][0] == "comma":
            self.pos += 1
            agents.append(self.agent())
        self.expect("rbrack", "']'")
        return Group(tuple(agents))

    def agent(self) -> int:
        _, value, pos = self.expect("nat", "an agent id")
        try:  # "²" is a digit but no decimal
            return read_agent(value, "a group")
        except InputError:
            raise FormulaSyntaxError("expected an agent id", pos) from None


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula, raising FormulaSyntaxError on bad input."""
    parser = _Parser(read_text(text, "parse"))
    node, _ = parser.formula()
    kind, _, pos = parser.tokens[parser.pos]
    if kind != "end":
        raise FormulaSyntaxError("unexpected trailing input", pos)
    return node


# ---------------------------------------------------------------------------
# Printer


_PRINT = {cls: (f" {row.symbol} ", row.level, row.left, row.right)
          for cls, row in _CONNECTIVES.items()}


def _render(f: Formula, want: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _render(f.body, _UNARY)
    binary = _PRINT.get(type(f))
    if binary is not None:
        infix, level, left, right = binary
        s = _render(f.left, left) + infix + _render(f.right, right)
        return f"({s})" if level < want else s
    if isinstance(f, Box):
        return f"[{f.group}]" + _render(f.body, _UNARY)
    if isinstance(f, Bottom):
        return "false"
    _children(f)  # a TypeError unless f is Top
    return "true"


def render(f: Formula) -> str:
    """Print ``f`` with minimal parentheses; inverse of :func:`parse`."""
    return _render(f, _IFF)


# ---------------------------------------------------------------------------
# Structural helpers


def normalize(f: Formula) -> Formula:
    """Rewrite into the primitive basis {false, atoms, ~, |, boxes}.

    Total and idempotent; the result has the same truth set on every
    model as the input.
    """
    row = _CONNECTIVES.get(type(f))
    if row is not None:
        return row.basis(normalize(f.left), normalize(f.right))
    if isinstance(f, Not):
        return Not(normalize(f.body))
    if isinstance(f, Box):
        return Box(f.group, normalize(f.body))
    _children(f)  # a TypeError unless f is an atom or a constant
    return Not(Bottom()) if isinstance(f, Top) else f


def _subformulas(f: Formula, into_boxes: bool) -> list[Formula]:
    """``f`` and its subformulas, parents before children and left before
    right; below a box only if ``into_boxes``."""
    out = [f]
    if into_boxes or not isinstance(f, Box):
        for child in _children(f):
            out += _subformulas(child, into_boxes)
    return out


def formula_atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring anywhere in ``f``."""
    return frozenset(g.name for g in _subformulas(f, True)
                     if isinstance(g, Atom))


def formula_agents(f: Formula) -> frozenset[int]:
    """Agent ids occurring in box indices anywhere in ``f``."""
    return frozenset(a for g in _subformulas(f, True) if isinstance(g, Box)
                     for a in g.group)


def boxed_atoms(f: Formula) -> frozenset[Formula]:
    """The propositional units of ``f``: atoms plus outermost boxed subformulas."""
    return frozenset(g for g in _subformulas(f, False)
                     if isinstance(g, (Atom, Box)))


def is_propositional_tautology(f: Formula) -> bool:
    """Truth-table check treating atoms and boxed subformulas as opaque units.

    The whole table is evaluated at once, one bit per row: unit ``i`` is
    true in row ``r`` iff bit ``i`` of ``r`` is set.  Memory and time
    grow with 2^k for k distinct units; refuses to run beyond 20 units,
    which is far above anything the proof checker meets.
    """
    from .model import _truth_bits  # model imports this module

    units = boxed_atoms(f)
    guard("units", len(units))
    rows = 1 << len(units)
    bits = {}
    for i, u in enumerate(units):
        run = 1 << i  # rows alternate runs of 2^i with unit i false and true
        bits[u] = int(("1" * run + "0" * run) * (rows // (2 * run)), 2)
    # the memo is keyed by node: each occurrence of a unit looks up its
    # bits by value here, and no other node is hashed
    memo = {id(g): bits[g] for g in _subformulas(f, False)
            if isinstance(g, (Atom, Box))}
    full = (1 << rows) - 1
    return _truth_bits(None, f, memo, full) == full
