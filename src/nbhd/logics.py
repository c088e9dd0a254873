"""Axiom schemas, logics, semantic schema checking and proof checking.

The base logic has classical tautologies, modus ponens, replacement of
provable equivalents under boxes, and four interaction schemas::

    B1  (G & H disjoint)   ([G]p & [H]q) -> [G,H](p & q)
    B2                     [G,H]true -> [G]true
    B3                     ([G]p & [G,H,J]p) -> [G,H]p
    B4                     ([G]p & [H](p | q)) -> [G,H]p

(``[G,H]`` above abbreviates the box of the union.)  Extensions add
necessitation/its dual, consistency/its dual, group consistency PG,
factivity TG, binary consistency DI, monotonicity RMG, the unrestricted
aggregation CG, and the subset-aggregation SA; CG can also replace B1
outright.

Schemas can be instantiated syntactically, recognized structurally, and
checked semantically on a model by quantifying their set metavariables
over all subsets of the domain or over the definable sets only, and
their group metavariables over a caller-supplied pool.  Counterexamples
come out in a fixed order: worlds ascending, groups in pool order, sets
ascending by bit vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from importlib.resources import files as _package_files
from operator import or_
from typing import Iterable, Mapping, Sequence, Union

from .errors import ProofFormatError, ResourceLimitError
from .formula import (
    And, Atom, Bottom, Box, Formula, Group, Iff, Implies, Not, Or, Top,
    is_propositional_tautology, parse, render,
)
from .model import (
    Model, WorldSet, _state_cap, default_group_pool, definable_sets,
    group_families,
)

__all__ = [
    "SchemaId", "parse_schema", "format_schema",
    "B1", "B2", "B3", "B4", "CG", "SA", "TG", "PG", "RMG",
    "NEC", "CONEC", "P", "COP", "DI",
    "LogicDescriptor", "BASE_LOGIC",
    "instantiate_schema", "match_schema", "is_axiom_instance",
    "CounterExample", "SchemaVerdict", "check_schema_semantically",
    "Taut", "AxiomRef", "MP", "RE", "ProofLine", "Proof", "ProofFile",
    "ProofVerdict", "check_proof", "check_entailment_certificate",
    "proof_from_dict", "proof_to_dict", "load_proof",
    "logic_from_dict", "logic_to_dict",
    "builtin_certificate", "CERTIFICATE_NAMES",
]


# ---------------------------------------------------------------------------
# Schema identifiers
#
# Each schema is written once, as a pattern formula: ``phi`` and ``psi``
# are formula metavariables, a box's group is a tuple of group variables
# standing for their union, and ``A`` is the agent of an agent schema.

_PHI, _PSI = Atom("phi"), Atom("psi")
_AGGREGATION = Implies(And(Box(("G",), _PHI), Box(("H",), _PSI)),
                       Box(("G", "H"), And(_PHI, _PSI)))
_PATTERNS: dict[str, Formula] = {
    "B1": _AGGREGATION,
    "B2": Implies(Box(("G", "H"), Top()), Box(("G",), Top())),
    "B3": Implies(And(Box(("G",), _PHI), Box(("G", "H", "J"), _PHI)),
                  Box(("G", "H"), _PHI)),
    "B4": Implies(And(Box(("G",), _PHI), Box(("H",), Or(_PHI, _PSI))),
                  Box(("G", "H"), _PHI)),
    "CG": _AGGREGATION,
    "SA": Implies(Box(("G",), _PHI), Box(("G", "H"), _PHI)),
    "TG": Implies(Box(("G",), _PHI), _PHI),
    "PG": Not(Box(("G",), Bottom())),
    "RMG": Implies(Box(("G",), _PHI), Box(("G",), Or(_PHI, _PSI))),
    "NEC": Box(("A",), Top()),
    "CONEC": Not(Box(("A",), Top())),
    "P": Not(Box(("A",), Bottom())),
    "COP": Box(("A",), Bottom()),
    "DI": Implies(Box(("A",), _PHI), Not(Box(("A",), Not(_PHI)))),
}


def _unify(p: Formula, f: object, env: dict, boxes: list) -> bool:
    """Walk pattern ``p`` and ``f`` together, binding or comparing the
    formula metavariables in ``env`` and appending each box's (variable
    tuple, group) pair to ``boxes``."""
    if isinstance(p, Atom):
        return env.setdefault(p.name, f) == f
    if type(f) is not type(p):
        return False
    if isinstance(p, Box):
        boxes.append((p.group, f.group))
    if isinstance(p, (Box, Not)):
        return _unify(p.body, f.body, env, boxes)
    if isinstance(p, (And, Or, Implies)):
        return (_unify(p.left, f.left, env, boxes)
                and _unify(p.right, f.right, env, boxes))
    return True


def _metavariables(p: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Group and formula metavariables of ``p`` in order of first appearance."""
    env, boxes = {}, []
    _unify(p, p, env, boxes)  # a pattern matches itself at every node
    groups = dict.fromkeys(v for names, _ in boxes for v in names)
    return tuple(groups), tuple(env)


_KINDS = tuple(_PATTERNS)
_VARS = {k: _metavariables(p) for k, p in _PATTERNS.items()}
_AGENT_KINDS = frozenset(k for k, (gs, _) in _VARS.items() if "A" in gs)
_BASE_KINDS = frozenset({"B1", "B2", "B3", "B4"})
_GROUP_VARS = {k: tuple(v for v in gs if v != "A")
               for k, (gs, _) in _VARS.items()}
_SET_VARS = {k: fs for k, (_, fs) in _VARS.items()}


@dataclass(frozen=True)
class SchemaId:
    kind: str
    agent: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schema kind {self.kind!r}")
        if (self.kind in _AGENT_KINDS) != (self.agent is not None):
            raise ValueError(f"schema {self.kind} "
                             + ("needs an agent" if self.kind in _AGENT_KINDS
                                else "takes no agent"))
        if self.agent is not None and self.agent < 0:
            raise ValueError("agent ids are non-negative")

    def __str__(self) -> str:
        return format_schema(self)


B1 = SchemaId("B1")
B2 = SchemaId("B2")
B3 = SchemaId("B3")
B4 = SchemaId("B4")
CG = SchemaId("CG")
SA = SchemaId("SA")
TG = SchemaId("TG")
PG = SchemaId("PG")
RMG = SchemaId("RMG")


def NEC(agent: int) -> SchemaId:
    return SchemaId("NEC", agent)


def CONEC(agent: int) -> SchemaId:
    return SchemaId("CONEC", agent)


def P(agent: int) -> SchemaId:
    return SchemaId("P", agent)


def COP(agent: int) -> SchemaId:
    return SchemaId("COP", agent)


def DI(agent: int) -> SchemaId:
    return SchemaId("DI", agent)


def parse_schema(text: str) -> SchemaId:
    """Parse names like ``b1``, ``tg`` or ``nec:2``."""
    name, sep, arg = text.strip().partition(":")
    kind = name.upper()
    if kind not in _KINDS:
        raise ValueError(f"unknown schema {text!r}")
    if kind in _AGENT_KINDS:
        if not sep:
            raise ValueError(f"schema {name!r} needs an agent, like {name}:1")
        try:
            agent = int(arg)
        except ValueError:
            raise ValueError(f"schema {name!r} needs an agent id, "
                             f"got {arg!r}") from None
        return SchemaId(kind, agent)
    if sep:
        raise ValueError(f"schema {name!r} takes no agent")
    return SchemaId(kind)


def format_schema(s: SchemaId) -> str:
    if s.agent is None:
        return s.kind.lower()
    return f"{s.kind.lower()}:{s.agent}"


# ---------------------------------------------------------------------------
# Logic descriptors


@dataclass(frozen=True)
class LogicDescriptor:
    """Base schemas plus extensions; CG may replace B1 wholesale."""

    extensions: frozenset[SchemaId] = frozenset()
    replace_b1_with_cg: bool = False

    def __post_init__(self) -> None:
        exts = frozenset(self.extensions)
        for s in exts:
            if s.kind in _BASE_KINDS:
                raise ValueError(f"{format_schema(s)} is part of the base, "
                                 "not an extension")
        if self.replace_b1_with_cg:
            exts |= {CG}
        object.__setattr__(self, "extensions", exts)

    def schemas(self) -> tuple[SchemaId, ...]:
        base = () if self.replace_b1_with_cg else (B1,)
        base += (B2, B3, B4)
        return base + tuple(sorted(self.extensions, key=format_schema))


BASE_LOGIC = LogicDescriptor()


def logic_from_dict(data: object) -> LogicDescriptor:
    if data is None:
        return BASE_LOGIC
    if not isinstance(data, dict):
        raise ProofFormatError("'logic' must be a mapping")
    raw = data.get("extensions", [])
    if not isinstance(raw, list):
        raise ProofFormatError("'extensions' must be a list of schema names")
    try:
        exts = frozenset(parse_schema(s) for s in raw)
    except ValueError as exc:
        raise ProofFormatError(str(exc)) from exc
    return LogicDescriptor(exts, bool(data.get("cg", False)))


def logic_to_dict(l: LogicDescriptor) -> dict:
    return {
        "extensions": sorted(format_schema(s) for s in l.extensions),
        "cg": l.replace_b1_with_cg,
    }


# ---------------------------------------------------------------------------
# Syntactic instantiation and recognition


def _union(groups: Iterable[Group]) -> Group:
    return reduce(or_, groups)


def _substitute(p: Formula, env: Mapping[str, "Group | Formula"]) -> Formula:
    if isinstance(p, Atom):
        return env[p.name]
    if isinstance(p, Box):
        return Box(_union(env[v] for v in p.group), _substitute(p.body, env))
    if isinstance(p, Not):
        return Not(_substitute(p.body, env))
    if isinstance(p, (And, Or, Implies)):
        return type(p)(_substitute(p.left, env), _substitute(p.right, env))
    return p


def instantiate_schema(s: SchemaId,
                       binding: Mapping[str, "Group | Formula"]) -> Formula:
    """Build the axiom instance of ``s`` under ``binding``.

    The binding must give exactly the metavariables of the schema
    (groups G/H/J, formulas phi/psi).  For B1 the groups G and H must
    be disjoint.
    """
    group_vars, set_vars = _GROUP_VARS[s.kind], _SET_VARS[s.kind]
    expected = set(group_vars) | set(set_vars)
    if set(binding) != expected:
        raise ValueError(f"schema {format_schema(s)} needs exactly "
                         f"{sorted(expected)}, got {sorted(binding)}")
    for names, cls in ((group_vars, Group), (set_vars, Formula)):
        for var in names:
            if not isinstance(binding[var], cls):
                raise ValueError(f"{var} must be a {cls.__name__}")
    if s.kind == "B1" and not binding["G"].isdisjoint(binding["H"]):
        raise ValueError("B1 needs disjoint groups G and H")
    if s.agent is not None:
        binding = {**binding, "A": Group.of(s.agent)}
    return _substitute(_PATTERNS[s.kind], binding)


def match_schema(s: SchemaId, f: Formula) -> "dict[str, Group | Formula] | None":
    """Structural pattern match; returns a binding that re-instantiates
    to ``f``, or None.  Modulo nothing: no normalization is applied."""
    env: dict = {} if s.agent is None else {"A": Group.of(s.agent)}
    boxes: list[tuple[tuple[str, ...], Group]] = []
    if not _unify(_PATTERNS[s.kind], f, env, boxes):
        return None
    # Fewest variables first, so all but a box's last variable are bound.
    for names, k in sorted(boxes, key=lambda box: len(box[0])):
        *rest, last = names
        if last in env:
            if _union(env[v] for v in names) != k:
                return None
        elif not rest:
            env[last] = k
        else:
            known = _union(env[v] for v in rest)
            if not known.issubset(k):
                return None
            env[last] = k.difference(known) or known
    if s.kind == "B1" and not env["G"].isdisjoint(env["H"]):
        return None
    return {v: env[v] for v in _GROUP_VARS[s.kind] + _SET_VARS[s.kind]}


def is_axiom_instance(f: Formula, l: LogicDescriptor
                      ) -> "tuple[SchemaId, dict[str, Group | Formula]] | None":
    """First schema of ``l`` (base order, then extensions sorted by name)
    that ``f`` instantiates, together with a binding."""
    for s in l.schemas():
        binding = match_schema(s, f)
        if binding is not None:
            return s, binding
    return None


# ---------------------------------------------------------------------------
# Semantic schema checking


@dataclass(frozen=True)
class CounterExample:
    """A world plus metavariable assignment falsifying a schema instance."""

    world: str
    groups: tuple[tuple[str, Group], ...] = ()
    sets: tuple[tuple[str, WorldSet], ...] = ()
    agent: int | None = None

    def describe(self, labels: Sequence[str] | None = None) -> str:
        """One line; sets show world indices, or ``labels[i]`` for world i."""
        parts = [f"world {self.world}"]
        if self.agent is not None:
            parts.append(f"agent {self.agent}")
        parts.extend(f"{name}={{{g}}}" for name, g in self.groups)
        for name, ws in self.sets:
            worlds = [labels[i] if labels else str(i) for i in ws.indices()]
            parts.append(f"{name}={{{','.join(worlds)}}}")
        return ", ".join(parts)


@dataclass(frozen=True)
class SchemaVerdict:
    valid: bool
    counterexample: CounterExample | None = None
    note: str | None = None


class _Instances:
    """One schema's instances over a pool, with groups named by position.

    Positions ``0 .. len(pool) - 1`` are the pool itself; each later
    position is ``extras[k - len(pool)]``, a union the schema needs that
    is not in the pool, in the order the instance loop first meets it.
    Deriving ``pool + extras`` in that order therefore derives what the
    loop over every instance would, in the same order.
    """

    __slots__ = ("extras", "items")

    def __init__(self, pool: tuple[Group, ...],
                 rows: Iterable[tuple[tuple[int, ...], tuple[Group, ...]]]):
        where: dict[Group, int] = {}
        for i, g in enumerate(pool):
            where.setdefault(g, i)
        extras: list[Group] = []
        items = []
        for indices, unions in rows:
            for u in unions:
                if u not in where:
                    where[u] = len(pool) + len(extras)
                    extras.append(u)
            items.append(indices + tuple(where[u] for u in unions))
        self.extras = tuple(extras)
        self.items = tuple(items)


class _Plan:
    """Pool-derived iteration structure, shared across models.

    ``pairs`` and ``disjoint_pairs`` hold ``(g, h, g|h)`` and ``triples``
    ``(g, h, j, g|h, g|h|j)`` as positions (see :class:`_Instances`);
    ``g``, ``h`` and ``j`` always index the pool.  Triples sharing the
    key ``(G, G|H, G|H|J)`` test the same sets, so only the first of
    each key in (G, H, J) order is kept: it is the one a loop over all
    triples would report.
    """

    __slots__ = ("pairs", "disjoint_pairs", "triples")

    def __init__(self, pool: tuple[Group, ...]):
        idx = range(len(pool))
        pairs = [((i, j), (pool[i] | pool[j],)) for i in idx for j in idx]
        self.pairs = _Instances(pool, pairs)
        self.disjoint_pairs = _Instances(
            pool, (((i, j), u) for (i, j), u in pairs
                   if pool[i].isdisjoint(pool[j])))
        seen: set[tuple[Group, Group, Group]] = set()
        triples = []
        for (i, j), (m,) in pairs:
            for k in idx:
                l_ = m | pool[k]
                if (pool[i], m, l_) not in seen:
                    seen.add((pool[i], m, l_))
                    triples.append(((i, j, k), (m, l_)))
        self.triples = _Instances(pool, triples)


@lru_cache(maxsize=64)
def _plan_for(key: tuple[tuple[int, ...], ...]) -> _Plan:
    return _Plan(tuple(Group(members) for members in key))


# The instance set each pool-quantified schema ranges over.
_SHAPES = {"B1": "disjoint_pairs", "CG": "pairs", "B2": "pairs",
           "B3": "triples", "B4": "pairs", "SA": "pairs"}


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
    p = len(pool)
    tab = [group_families(m, g) for g in pool]
    shape = _SHAPES.get(k)
    if shape is not None:
        inst = getattr(_plan_for(tuple(g.members for g in pool)), shape)
        tab += [group_families(m, u) for u in inst.extras]
        items = inst.items

    if k in ("B1", "CG"):
        for w in range(n):
            at = [f[w] for f in tab]
            mem = [_mem(f, rng, full_range) for f in at[:p]]
            for g, h, u in items:
                target = at[u]
                for x in mem[g]:
                    for y in mem[h]:
                        if (x & y) not in target:
                            return CounterExample(
                                label[w], (("G", pool[g]), ("H", pool[h])),
                                (("phi", ws(x)), ("psi", ws(y))))
        return None

    if k == "B2":
        for w in range(n):
            at = [f[w] for f in tab]
            for g, h, u in items:
                if full in at[u] and full not in at[g]:
                    return CounterExample(label[w],
                                          (("G", pool[g]), ("H", pool[h])))
        return None

    if k == "B3":
        for w in range(n):
            at = [f[w] for f in tab]
            mem = [_mem(f, rng, full_range) for f in at[:p]]
            for g, h, j, u, v in items:
                in_m, in_l = at[u], at[v]
                for x in mem[g]:
                    if x in in_l and x not in in_m:
                        return CounterExample(
                            label[w],
                            (("G", pool[g]), ("H", pool[h]), ("J", pool[j])),
                            (("phi", ws(x)),))
        return None

    if k == "B4":
        for w in range(n):
            at = [f[w] for f in tab]
            mem = [_mem(f, rng, full_range) for f in at[:p]]
            for g, h, u in items:
                target, fam_h = at[u], at[h]
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
                                label[w], (("G", pool[g]), ("H", pool[h])),
                                (("phi", ws(x)), ("psi", ws(y))))
        return None

    if k == "SA":
        for w in range(n):
            at = [f[w] for f in tab]
            mem = [_mem(f, rng, full_range) for f in at[:p]]
            for g, h, u in items:
                target = at[u]
                for x in mem[g]:
                    if x not in target:
                        return CounterExample(
                            label[w], (("G", pool[g]), ("H", pool[h])),
                            (("phi", ws(x)),))
        return None

    if k == "TG":
        for w in range(n):
            for g, f in enumerate(tab):
                for x in _mem(f[w], rng, full_range):
                    if not (x >> w) & 1:
                        return CounterExample(
                            label[w], (("G", pool[g]),), (("phi", ws(x)),))
        return None

    if k == "PG":
        for w in range(n):
            for g, f in enumerate(tab):
                if 0 in f[w]:
                    return CounterExample(label[w], (("G", pool[g]),))
        return None

    if k == "RMG":
        for w in range(n):
            for g, f in enumerate(tab):
                members = f[w]
                for x in _mem(members, rng, full_range):
                    for y in rng:
                        if (x | y) not in members:
                            return CounterExample(
                                label[w], (("G", pool[g]),),
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


def _set_range(m: Model, mode: str, pool: tuple[Group, ...]
               ) -> tuple[list[int], bool]:
    n = len(m.worlds)
    if mode == "all-subsets":
        cap = _state_cap(64)
        if (1 << n) > cap:
            raise ResourceLimitError(
                f"all-subsets mode over {n} worlds needs {1 << n} sets, "
                f"over the {cap}-state guard; use definable-only mode")
        return list(range(1 << n)), True
    if mode == "definable-only":
        bits = [ws.bits for ws in definable_sets(m, pool)]
        return bits, len(bits) == (1 << n)
    raise ValueError(f"unknown mode {mode!r}; "
                     "use 'all-subsets' or 'definable-only'")


def check_schema_semantically(m: Model, s: SchemaId, mode: str = "all-subsets",
                              group_pool: "Iterable[Group] | None" = None
                              ) -> SchemaVerdict:
    """Check every instance of ``s`` over ``m``.

    Group metavariables range over ``group_pool`` (default: the groups
    mentioned by the model plus unions of its agents up to size 3); B1
    only binds disjoint pairs.  Set metavariables range over all
    subsets of the domain, or only over the definable sets in
    definable-only mode.  When a definable-only check comes out valid
    but the unrestricted check would not, the verdict carries a note
    saying so (the comparison is skipped when the domain is over the
    all-subsets guard).
    """
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
# Proofs


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class AxiomRef:
    schema: SchemaId
    binding: "tuple[tuple[str, Group | Formula], ...] | None" = None


@dataclass(frozen=True)
class MP:
    premise: int
    implication: int


@dataclass(frozen=True)
class RE:
    source: int
    group: Group


Justification = Union[Taut, AxiomRef, MP, RE]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]


@dataclass(frozen=True)
class ProofFile:
    """A proof plus its logic, optionally with an entailment goal."""

    proof: Proof
    logic: LogicDescriptor
    gamma: tuple[Formula, ...] | None = None
    phi: Formula | None = None


@dataclass(frozen=True)
class ProofVerdict:
    accepted: bool
    line: int | None = None
    reason: str | None = None


def check_proof(p: Proof, l: LogicDescriptor) -> ProofVerdict:
    """Verify a Hilbert-style proof line by line.

    Lines are numbered from 1.  A rejected verdict names the first line
    that fails together with the reason.  RE is theorem-level: it turns
    a previously proven ``a <-> b`` into ``[G]a <-> [G]b``.
    """
    available = set(l.schemas())
    for idx, line in enumerate(p.lines, start=1):
        j = line.justification
        if isinstance(j, Taut):
            if not is_propositional_tautology(line.formula):
                return ProofVerdict(False, idx, "not a propositional tautology")
        elif isinstance(j, AxiomRef):
            if j.schema not in available:
                return ProofVerdict(
                    False, idx,
                    f"schema {format_schema(j.schema)} is not part of this logic")
            if j.binding is not None:
                try:
                    expected = instantiate_schema(j.schema, dict(j.binding))
                except ValueError as exc:
                    return ProofVerdict(False, idx, str(exc))
                if expected != line.formula:
                    return ProofVerdict(
                        False, idx,
                        f"binding instantiates {format_schema(j.schema)} to "
                        f"{render(expected)}, not this line")
            elif match_schema(j.schema, line.formula) is None:
                return ProofVerdict(
                    False, idx,
                    f"not an instance of {format_schema(j.schema)}")
        elif isinstance(j, MP):
            if not (1 <= j.premise < idx and 1 <= j.implication < idx):
                return ProofVerdict(False, idx,
                                    "modus ponens must cite earlier lines")
            premise = p.lines[j.premise - 1].formula
            implication = p.lines[j.implication - 1].formula
            if implication != Implies(premise, line.formula):
                return ProofVerdict(
                    False, idx,
                    f"line {j.implication} is not (line {j.premise} -> this line)")
        elif isinstance(j, RE):
            if not 1 <= j.source < idx:
                return ProofVerdict(False, idx, "RE must cite an earlier line")
            source = p.lines[j.source - 1].formula
            if not isinstance(source, Iff):
                return ProofVerdict(
                    False, idx, f"line {j.source} is not an equivalence")
            expected = Iff(Box(j.group, source.left), Box(j.group, source.right))
            if expected != line.formula:
                return ProofVerdict(
                    False, idx,
                    f"RE on line {j.source} yields {render(expected)}, not this line")
        else:
            return ProofVerdict(False, idx, f"unknown justification {j!r}")
    if not p.lines:
        return ProofVerdict(False, None, "empty proof")
    return ProofVerdict(True)


def check_entailment_certificate(gamma: Sequence[Formula], phi: Formula,
                                 p: Proof, l: LogicDescriptor) -> ProofVerdict:
    """Accept iff ``p`` is a correct proof whose last line discharges
    ``phi`` from ``gamma``: either ``phi`` itself (theoremhood) or
    ``(psi_1 & (... & psi_n)) -> phi`` with every ``psi_i`` drawn from
    ``gamma`` (right-nested association)."""
    verdict = check_proof(p, l)
    if not verdict.accepted:
        return verdict
    last = p.lines[-1].formula
    here = len(p.lines)
    if last == phi:
        return ProofVerdict(True)
    if not (isinstance(last, Implies) and last.right == phi):
        return ProofVerdict(
            False, here, f"last line does not conclude {render(phi)}")
    members = set(gamma)

    def is_selection(node: Formula) -> bool:
        if node in members:
            return True
        return (isinstance(node, And) and node.left in members
                and is_selection(node.right))

    if not is_selection(last.left):
        return ProofVerdict(
            False, here,
            "antecedent is not a right-nested conjunction of premise formulas")
    return ProofVerdict(True)


# ---------------------------------------------------------------------------
# Proof serialization

_GROUP_VAR_NAMES = frozenset(v for vs in _GROUP_VARS.values() for v in vs)


def _binding_from_dict(raw: object, where: str
                       ) -> tuple[tuple[str, "Group | Formula"], ...]:
    if not isinstance(raw, dict):
        raise ProofFormatError(f"{where}: binding must be a mapping")
    out = []
    for var, value in sorted(raw.items()):
        if var in _GROUP_VAR_NAMES:
            if not isinstance(value, list):
                raise ProofFormatError(f"{where}: {var} must be an agent list")
            out.append((var, Group(tuple(value))))
        else:
            if not isinstance(value, str):
                raise ProofFormatError(f"{where}: {var} must be a formula string")
            out.append((var, parse(value)))
    return tuple(out)


def proof_from_dict(data: object) -> ProofFile:
    """Read the proof file format; see the package README for the schema."""
    if not isinstance(data, dict):
        raise ProofFormatError("a proof file must be a mapping")
    logic = logic_from_dict(data.get("logic"))
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ProofFormatError("'lines' must be a nonempty list")
    lines = []
    for i, raw in enumerate(raw_lines, start=1):
        where = f"line {i}"
        if not isinstance(raw, dict) or "formula" not in raw or "just" not in raw:
            raise ProofFormatError(f"{where}: need 'formula' and 'just'")
        formula = parse(raw["formula"])
        just = raw["just"]
        if not isinstance(just, dict) or "type" not in just:
            raise ProofFormatError(f"{where}: 'just' needs a 'type'")
        kind = just["type"]
        if kind == "taut":
            justification: Justification = Taut()
        elif kind == "axiom":
            if "schema" not in just:
                raise ProofFormatError(f"{where}: axiom needs a 'schema'")
            try:
                schema = parse_schema(just["schema"])
            except ValueError as exc:
                raise ProofFormatError(f"{where}: {exc}") from exc
            binding = (_binding_from_dict(just["binding"], where)
                       if "binding" in just else None)
            justification = AxiomRef(schema, binding)
        elif kind == "mp":
            refs = just.get("from")
            if (not isinstance(refs, list) or len(refs) != 2
                    or not all(isinstance(r, int) for r in refs)):
                raise ProofFormatError(f"{where}: mp needs 'from': [i, j]")
            justification = MP(refs[0], refs[1])
        elif kind == "re":
            src = just.get("from")
            grp = just.get("group")
            if not isinstance(src, int) or not isinstance(grp, list):
                raise ProofFormatError(f"{where}: re needs 'from' and 'group'")
            justification = RE(src, Group(tuple(grp)))
        else:
            raise ProofFormatError(f"{where}: unknown justification {kind!r}")
        lines.append(ProofLine(formula, justification))

    gamma = None
    if "gamma" in data:
        raw_gamma = data["gamma"]
        if not isinstance(raw_gamma, list):
            raise ProofFormatError("'gamma' must be a list of formula strings")
        gamma = tuple(parse(s) for s in raw_gamma)
    phi = parse(data["phi"]) if "phi" in data else None
    if gamma is not None and phi is None:
        raise ProofFormatError("'gamma' without 'phi' makes no goal")
    return ProofFile(Proof(tuple(lines)), logic, gamma, phi)


def proof_to_dict(pf: ProofFile) -> dict:
    def just_dict(j: Justification) -> dict:
        if isinstance(j, Taut):
            return {"type": "taut"}
        if isinstance(j, AxiomRef):
            out: dict = {"type": "axiom", "schema": format_schema(j.schema)}
            if j.binding is not None:
                out["binding"] = {
                    var: (list(value.members) if isinstance(value, Group)
                          else render(value))
                    for var, value in j.binding}
            return out
        if isinstance(j, MP):
            return {"type": "mp", "from": [j.premise, j.implication]}
        if isinstance(j, RE):
            return {"type": "re", "from": j.source,
                    "group": list(j.group.members)}
        raise TypeError(f"unknown justification {j!r}")

    out: dict = {
        "logic": logic_to_dict(pf.logic),
        "lines": [{"formula": render(line.formula),
                   "just": just_dict(line.justification)}
                  for line in pf.proof.lines],
    }
    if pf.phi is not None:
        out["phi"] = render(pf.phi)
        if pf.gamma is not None:
            out["gamma"] = [render(g) for g in pf.gamma]
    return out


def load_proof(path: str) -> ProofFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProofFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProofFormatError(f"{path} is not valid JSON: {exc}") from exc
    return proof_from_dict(data)


CERTIFICATE_NAMES = (
    "sa_from_nec", "b2_consequent", "b3_consequent", "b4_consequent",
    "entailment_b1",
)


def builtin_certificate(name: str) -> dict:
    """Parsed JSON of a certificate shipped with the package."""
    if name not in CERTIFICATE_NAMES:
        raise ProofFormatError(
            f"unknown certificate {name!r}; choose one of "
            + ", ".join(CERTIFICATE_NAMES))
    resource = _package_files(__package__).joinpath("certificates", name + ".json")
    return json.loads(resource.read_text(encoding="utf-8"))
