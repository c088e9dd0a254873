"""Formula syntax: AST, parser, printer and propositional reasoning.

The language has the constants ``true`` and ``false``, atoms, the usual
classical connectives and one box operator per nonempty finite group of
agents, written with brackets: ``[1,2]p`` says that group {1,2} is
committed to ``p``.  Connective precedence, loosest binding first::

    <->     left associative
    ->      right associative
    |       left associative
    &       left associative
    ~ [G]   prefix, bind tightest

``true``, ``&``, ``->`` and ``<->`` are definitional sugar over the
primitive basis {false, atoms, ~, |, boxes}; :func:`normalize` rewrites
into that basis.  Parsing and printing are mutually inverse:
``parse(render(f))`` returns a structurally equal formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import FormulaSyntaxError, ResourceLimitError

__all__ = [
    "Group", "Formula", "Bottom", "Top", "Atom", "Not", "Or", "And",
    "Implies", "Iff", "Box", "parse", "render", "normalize",
    "boxed_atoms", "formula_atoms", "formula_agents",
    "is_propositional_tautology",
]


@dataclass(frozen=True)
class Group:
    """A nonempty finite set of agent ids, kept sorted and duplicate-free."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = tuple(sorted(set(self.members)))
        if not ms:
            raise ValueError("a group needs at least one agent")
        for a in ms:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise ValueError(f"agent ids are non-negative integers, got {a!r}")
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


class Formula:
    """Base class of all formula nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return render(self)


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, repr=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Box(Formula):
    group: Group
    body: Formula


# ---------------------------------------------------------------------------
# Tokenizer / parser


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
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

    def group(self) -> Group:
        agents = [int(self.expect("nat", "an agent id")[1])]
        while self.peek()[0] == "comma":
            self.take()
            agents.append(int(self.expect("nat", "an agent id")[1]))
        self.expect("rbrack", "']'")
        return Group(tuple(agents))


def parse(text: str) -> Formula:
    """Parse ``text`` into a formula, raising FormulaSyntaxError on bad input."""
    parser = _Parser(text)
    node = parser.formula()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError("unexpected trailing input", pos)
    return node


# ---------------------------------------------------------------------------
# Printer

# Precedence levels: higher binds tighter.
_IFF, _IMP, _OR, _AND, _UNARY = 1, 2, 3, 4, 5


def _render(f: Formula, want: int) -> str:
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _render(f.body, _UNARY)
    if isinstance(f, Box):
        return f"[{f.group}]" + _render(f.body, _UNARY)
    if isinstance(f, And):
        s = _render(f.left, _AND) + " & " + _render(f.right, _UNARY)
        level = _AND
    elif isinstance(f, Or):
        s = _render(f.left, _OR) + " | " + _render(f.right, _AND)
        level = _OR
    elif isinstance(f, Implies):
        s = _render(f.left, _OR) + " -> " + _render(f.right, _IMP)
        level = _IMP
    elif isinstance(f, Iff):
        s = _render(f.left, _IFF) + " <-> " + _render(f.right, _IMP)
        level = _IFF
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if level < want else s


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
    if isinstance(f, (Bottom, Atom)):
        return f
    if isinstance(f, Top):
        return Not(Bottom())
    if isinstance(f, Not):
        return Not(normalize(f.body))
    if isinstance(f, Or):
        return Or(normalize(f.left), normalize(f.right))
    if isinstance(f, And):
        return Not(Or(Not(normalize(f.left)), Not(normalize(f.right))))
    if isinstance(f, Implies):
        return Or(Not(normalize(f.left)), normalize(f.right))
    if isinstance(f, Iff):
        return normalize(And(Implies(f.left, f.right), Implies(f.right, f.left)))
    if isinstance(f, Box):
        return Box(f.group, normalize(f.body))
    raise TypeError(f"not a formula: {f!r}")


def formula_atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring anywhere in ``f``."""
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, (Bottom, Top)):
        return frozenset()
    if isinstance(f, Not):
        return formula_atoms(f.body)
    if isinstance(f, Box):
        return formula_atoms(f.body)
    if isinstance(f, (Or, And, Implies, Iff)):
        return formula_atoms(f.left) | formula_atoms(f.right)
    raise TypeError(f"not a formula: {f!r}")


def formula_agents(f: Formula) -> frozenset[int]:
    """Agent ids occurring in box indices anywhere in ``f``."""
    if isinstance(f, (Bottom, Top, Atom)):
        return frozenset()
    if isinstance(f, Not):
        return formula_agents(f.body)
    if isinstance(f, Box):
        return frozenset(f.group) | formula_agents(f.body)
    if isinstance(f, (Or, And, Implies, Iff)):
        return formula_agents(f.left) | formula_agents(f.right)
    raise TypeError(f"not a formula: {f!r}")


def boxed_atoms(f: Formula) -> frozenset[Formula]:
    """The propositional units of ``f``: atoms plus outermost boxed subformulas."""
    if isinstance(f, (Atom, Box)):
        return frozenset((f,))
    if isinstance(f, (Bottom, Top)):
        return frozenset()
    if isinstance(f, Not):
        return boxed_atoms(f.body)
    if isinstance(f, (Or, And, Implies, Iff)):
        return boxed_atoms(f.left) | boxed_atoms(f.right)
    raise TypeError(f"not a formula: {f!r}")


_MAX_TAUTOLOGY_UNITS = 20


def is_propositional_tautology(f: Formula) -> bool:
    """Truth-table check treating atoms and boxed subformulas as opaque units.

    The whole table is evaluated at once, one bit per row: unit ``i`` is
    true in row ``r`` iff bit ``i`` of ``r`` is set.  Memory and time
    grow with 2^k for k distinct units; refuses to run beyond 20 units,
    which is far above anything the proof checker meets.
    """
    from .model import _truth_bits  # model imports this module

    units = boxed_atoms(f)
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
    return _truth_bits(None, f, memo, full) == full
