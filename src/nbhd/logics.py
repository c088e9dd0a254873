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
their group metavariables over a caller-supplied pool.  All three read
one table of pattern formulas.  A semantic check takes its instances
from the pattern (group variables over the pool, boxes in walk order)
and keeps per schema only a small test of one world's instances.  TG,
DI, PG, NEC, CONEC, P and COP fail at w exactly where their frame
condition (reflexive, bincons, pg, the namesakes) fails on the box's
family, so they run its row of ``frames._CONDITIONS``, which returns
the least offending set.  The check skips an instance whose boxes name
the same groups as an earlier one's, which changes no verdict and no
counterexample: they come out in a fixed order, worlds ascending,
groups in pool order, sets ascending by bit vector.

Every schema has box depth 1, and N_G(w) is built from the members'
families at w, so whether an instance fails at w depends only on the
families at w.  For B3 and B4 a world filter picks the worlds the test
visits.  It packs a group's families into one int, its code: world w
owns the 2^n-bit block at offset w * 2^n, whose bit s is set when subset
s is a member, and one big-int operation per instance covers every
world, one more cutting the result to the set range.  A filter never
skips a world where the test yields, so the tests stay the only source
of counterexamples.  A check with one instance, or over more than 6
worlds, visits all, as every other kind does; B1 and CG test each
unordered pair of groups once per world.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from importlib.resources import files as _package_files
from itertools import product
from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import (
    FormulaSyntaxError, InputError, ProofFormatError, guard, limit,
)
from .formula import (
    And, Atom, Bottom, Box, Formula, Group, Iff, Implies, Not, Or, Top,
    _children, agent_ids, is_propositional_tautology, parse, read_agent,
    read_text, render,
)
from .frames import _BY_NAME
from .model import (
    Model, WorldSet, _group_pool, _json_file, default_group_pool,
    definable_sets, group_families,
)

__all__ = [
    "SchemaId", "parse_schema", "format_schema",
    "B1", "B2", "B3", "B4", "CG", "SA", "TG", "PG", "RMG",
    "NEC", "CONEC", "P", "COP", "DI",
    "LogicDescriptor", "BASE_LOGIC",
    "instantiate_schema", "match_schema", "is_axiom_instance",
    "CounterExample", "counterexample_to_dict", "SchemaVerdict",
    "check_schema_semantically",
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


def _box(names: tuple[str, ...], body: Formula) -> Box:
    """A pattern's box, past Box's check: its group is variable names."""
    box = object.__new__(Box)
    box.__dict__.update(group=names, body=body)
    return box


_PHI, _PSI = Atom("phi"), Atom("psi")
_AGGREGATION = Implies(And(_box(("G",), _PHI), _box(("H",), _PSI)),
                       _box(("G", "H"), And(_PHI, _PSI)))
_PATTERNS: dict[str, Formula] = {
    "B1": _AGGREGATION,
    "B2": Implies(_box(("G", "H"), Top()), _box(("G",), Top())),
    "B3": Implies(And(_box(("G",), _PHI), _box(("G", "H", "J"), _PHI)),
                  _box(("G", "H"), _PHI)),
    "B4": Implies(And(_box(("G",), _PHI), _box(("H",), Or(_PHI, _PSI))),
                  _box(("G", "H"), _PHI)),
    "CG": _AGGREGATION,
    "SA": Implies(_box(("G",), _PHI), _box(("G", "H"), _PHI)),
    "TG": Implies(_box(("G",), _PHI), _PHI),
    "PG": Not(_box(("G",), Bottom())),
    "RMG": Implies(_box(("G",), _PHI), _box(("G",), Or(_PHI, _PSI))),
    "NEC": _box(("A",), Top()),
    "CONEC": Not(_box(("A",), Top())),
    "P": Not(_box(("A",), Bottom())),
    "COP": _box(("A",), Bottom()),
    "DI": Implies(_box(("A",), _PHI), Not(_box(("A",), Not(_PHI)))),
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
    return all(_unify(q, g, env, boxes)
               for q, g in zip(_children(p), _children(f)))


def _metavariables(p: Formula) -> tuple[tuple[tuple[str, ...], ...],
                                         tuple[str, ...]]:
    """The box group tuples of ``p`` in walk order, and its formula
    metavariables in order of first appearance."""
    env, boxes = {}, []
    _unify(p, p, env, boxes)  # a pattern matches itself at every node
    return tuple(names for names, _ in boxes), tuple(env)


_KINDS = tuple(_PATTERNS)
_VARS = {k: _metavariables(p) for k, p in _PATTERNS.items()}
_BOXES = {k: bs for k, (bs, _) in _VARS.items()}
_SET_VARS = {k: fs for k, (_, fs) in _VARS.items()}
_AGENT_KINDS = frozenset(k for k, bs in _BOXES.items() if ("A",) in bs)
_BASE_KINDS = frozenset({"B1", "B2", "B3", "B4"})
_GROUP_VARS = {k: tuple(dict.fromkeys(v for b in bs for v in b if v != "A"))
               for k, bs in _BOXES.items()}


@dataclass(frozen=True)
class SchemaId:
    kind: str
    agent: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InputError(f"unknown schema kind {self.kind!r}")
        if (self.kind in _AGENT_KINDS) != (self.agent is not None):
            raise InputError(f"schema {self.kind} "
                             + ("needs an agent" if self.kind in _AGENT_KINDS
                                else "takes no agent"))
        if self.agent is not None:
            agent_ids((self.agent,))

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


# The agent schemas, each a function of the agent: NEC(2) is nec:2.
NEC, CONEC, P, COP, DI = (partial(SchemaId, kind)
                          for kind in ("NEC", "CONEC", "P", "COP", "DI"))


def parse_schema(text: str) -> SchemaId:
    """Parse names like ``b1``, ``tg`` or ``nec:2``."""
    name, sep, arg = read_text(text, "parse_schema").strip().partition(":")
    kind = name.upper()
    if kind not in _KINDS:
        raise InputError(f"unknown schema {text!r}")
    if kind in _AGENT_KINDS:
        if not sep:
            raise InputError(f"schema {name!r} needs an agent, like {name}:1")
        return SchemaId(kind, read_agent(arg, f"schema {name!r}"))
    if sep:
        raise InputError(f"schema {name!r} takes no agent")
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
        if not isinstance(self.replace_b1_with_cg, bool):
            raise InputError("replace_b1_with_cg must be a bool, got "
                             f"{self.replace_b1_with_cg!r}")
        if not hasattr(self.extensions, "__iter__"):
            raise InputError("extensions must be a collection of SchemaIds, "
                             f"got {self.extensions!r}")
        exts = frozenset(self.extensions)
        for s in exts:
            if not isinstance(s, SchemaId):
                raise InputError(f"extensions are SchemaIds, got {s!r}")
            if s.kind in _BASE_KINDS:
                raise InputError(f"{format_schema(s)} is part of the base, "
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
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise ProofFormatError("'extensions' must be a list of schema names")
    try:
        exts = frozenset(parse_schema(s) for s in raw)
    except InputError as exc:
        raise ProofFormatError(str(exc)) from exc
    cg = data.get("cg", False)
    if not isinstance(cg, bool):
        raise ProofFormatError("'cg' must be true or false")
    return LogicDescriptor(exts, cg)


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
    return type(p)(*(_substitute(q, env) for q in _children(p)))


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
        raise InputError(f"schema {format_schema(s)} needs exactly "
                         f"{sorted(expected)}, got {sorted(binding)}")
    for names, cls in ((group_vars, Group), (set_vars, Formula)):
        for var in names:
            if not isinstance(binding[var], cls):
                raise InputError(f"{var} must be a {cls.__name__}")
    if s.kind == "B1" and not binding["G"].isdisjoint(binding["H"]):
        raise InputError("B1 needs disjoint groups G and H")
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


def counterexample_to_dict(cx: CounterExample, m: Model) -> dict:
    """The JSON form of ``cx``; sets list the labels of their worlds."""
    labels = [w.label for w in m.worlds]
    out: dict = {"world": cx.world}
    if cx.agent is not None:
        out["agent"] = cx.agent
    if cx.groups:
        out["groups"] = {name: list(g.members) for name, g in cx.groups}
    if cx.sets:
        out["sets"] = {name: [labels[i] for i in ws.indices()]
                       for name, ws in cx.sets}
    return out


@dataclass(frozen=True)
class SchemaVerdict:
    valid: bool
    counterexample: CounterExample | None = None
    note: str | None = None


@lru_cache(maxsize=256)
def _instances(kind: str, key: tuple[tuple[int, ...], ...], agent: int | None
               ) -> tuple[tuple[Group, ...], tuple, tuple[int, ...]]:
    """A schema's instances over the pool with member tuples ``key``.

    An instance is the table positions of its boxes, in pattern walk
    order, followed by the tuple of pool positions of its group
    variables.  Table positions ``0 .. len(pool) - 1`` are the pool; each
    later one is an entry of the returned extras, a union the pool lacks
    or the agent's group, numbered in the order the instances meet them,
    boxes in walk order.  Deriving ``pool + extras`` in that order
    therefore derives what a loop over every instance would, in the same
    order.  Violation tests read only the boxes, so only the first
    instance of each tuple of box groups is kept: it is the one such a
    loop reports.  The guards are the positions a single variable names.
    """
    pool = tuple(Group(members) for members in key)
    boxes, names = _BOXES[kind], _GROUP_VARS[kind]
    fixed = {} if agent is None else {"A": Group.of(agent)}
    where: dict[Group, int] = {}
    for i, g in enumerate(pool):
        where.setdefault(g, i)
    extras, items, seen = [], [], set()
    for vs in product(range(len(pool)), repeat=len(names)):
        env = dict(zip(names, (pool[i] for i in vs)), **fixed)
        if kind == "B1" and not env["G"].isdisjoint(env["H"]):
            continue
        unions = tuple(_union(env[v] for v in b) for b in boxes)
        if unions in seen:
            continue
        seen.add(unions)
        for u in unions:
            if u not in where:
                where[u] = len(pool) + len(extras)
                extras.append(u)
        items.append(tuple(where[u] for u in unions) + (vs,))
    # A guarded set variable, like phi in [G]phi, ranges over its family.
    guards = {i[b] for i in items for b, box in enumerate(boxes)
              if len(box) == 1} if _SET_VARS[kind] else ()
    return tuple(extras), tuple(items), tuple(sorted(guards))


# Violation tests.  Each gets one world ``w``, the families ``at`` there
# by table position, ``mem`` (the sets in range of each guard's family,
# ascending), the instances, the set range and the full set.  It yields
# the violations at ``w`` in order, each as (pool positions of the
# instance's group variables, its falsifying sets in _SET_VARS order);
# the checker reports the first.


def _aggregation(w, at, mem, items, rng, full):
    # Products are symmetric, and if g > h the instance at table positions
    # (h, g) came earlier, at smaller pool positions with the same union:
    # it passed here, or the check has already stopped.
    for g, h, u, vs in items:
        if g > h:
            continue
        target = at[u]
        for x in mem[g]:
            for y in mem[h]:
                if (x & y) not in target:
                    yield vs, (x, y)


def _b2(w, at, mem, items, rng, full):
    for u, g, vs in items:
        if full in at[u] and full not in at[g]:
            yield vs, ()


def _b3(w, at, mem, items, rng, full):
    for g, l_, m_, vs in items:
        in_l, in_m = at[l_], at[m_]
        for x in mem[g]:
            if x in in_l and x not in in_m:
                yield vs, (x,)


def _b4(w, at, mem, items, rng, full):
    for g, h, u, vs in items:
        target, fam_h = at[u], at[h]
        for x in mem[g]:
            # only a superset of x in N_H can be x | psi
            if x in target or not any(z & x == x for z in fam_h):
                continue
            for y in rng:
                if (x | y) in fam_h:
                    yield vs, (x, y)


def _sa(w, at, mem, items, rng, full):
    for g, u, vs in items:
        target = at[u]
        for x in mem[g]:
            if x not in target:
                yield vs, (x,)


def _rmg(w, at, mem, items, rng, full):
    for g, _, vs in items:
        fam = at[g]
        for x in mem[g]:
            for y in rng:
                if (x | y) not in fam:
                    yield vs, (x, y)


def _frame_test(kind: str, row: str):
    """The violation test of ``kind`` by frame row ``row``, on the range-cut
    ``mem`` if ``kind`` has a set variable: exact for DI's complements, as
    both set ranges (all subsets, definable sets) are closed under them."""
    offending, guarded = _BY_NAME[row].offending, bool(_SET_VARS[kind])

    def test(w, at, mem, items, rng, full):
        for item in items:
            x = offending(mem[item[0]] if guarded else at[item[0]], w, full)
            if x is not None:  # the empty set is 0
                yield item[-1], (x,) if guarded else ()
    return test


_VIOLATIONS = {
    "B1": _aggregation, "CG": _aggregation, "B2": _b2, "B3": _b3, "B4": _b4,
    "SA": _sa, "RMG": _rmg, **{k: _frame_test(k, row) for k, row in (
        ("TG", "reflexive"), ("DI", "bincons"), ("PG", "pg"), ("NEC", "nec"),
        ("CONEC", "conec"), ("P", "p"), ("COP", "cop"))},
}


# Packed world filters.  Each maps the codes ``c`` by table position, the
# instances and n to an int whose block w is nonzero where its kind's test
# could yield over all subsets; ``_flagged`` cuts that to the set range.


def _ones(n: int) -> int:
    """Bit 0 of every block over ``n`` worlds."""
    return ((1 << (n << n)) - 1) // ((1 << (1 << n)) - 1)


def _without(n: int, i: int) -> int:
    """One block holding the subsets of ``n`` worlds that lack world ``i``."""
    return (1 << (1 << n)) // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1)


def _any(codes: Iterable[int]) -> int:
    return reduce(or_, codes, 0)


def _b4_worlds(c, items, n):
    # x | psi is in N_H only if x is below a member: N_H's down-closure
    ones = _ones(n)
    steps = [(1 << i, _without(n, i) * ones) for i in range(n)]
    down = {}
    for h in {item[1] for item in items}:
        d = c[h]
        for shift, mask in steps:
            d |= d >> shift & mask
        down[h] = d
    return _any(c[g] & ~c[u] & down[h] for g, h, u, _ in items)


_FILTERS = {
    "B3": lambda c, items, n:
        _any(c[g] & c[l_] & ~c[m_] for g, l_, m_, _ in items),
    "B4": _b4_worlds,
}

_PACKED_WORLDS = 6  # a code takes n * 2^n bits; larger domains go per world


def _flagged(m: Model, kind: str, groups: tuple, tab: list, items: tuple,
             rng: Sequence[int]) -> Sequence[int]:
    """The worlds, ascending, that ``kind``'s filter flags, or all worlds;
    ``tab`` has the families of ``groups``, whose codes ``m`` caches.
    Only B3 and B4 have a filter; the other tests are cheap per world."""
    n, flt = len(m.worlds), _FILTERS.get(kind)
    if flt is None or len(items) < 2 or n > _PACKED_WORLDS:
        return range(n)  # one instance costs less world by world
    cache, c = m._code_cache, []
    for g, fams in zip(groups, tab):
        code = cache.get(g.members)  # a tuple hashes faster than a Group
        if code is None:
            code = 0
            for fam in reversed(fams):
                code = code << (1 << n) | sum(map((1).__lshift__, fam))
            cache[g.members] = code
        c.append(code)
    f, block = flt(c, items, n), (1 << (1 << n)) - 1
    if len(rng) < 1 << n:  # exact: AND distributes over OR
        f &= sum(map((1).__lshift__, rng)) * _ones(n)
    return [w for w in range(n) if f >> (w << n) & block]


def _find_counterexample(m: Model, s: SchemaId, pool: tuple[Group, ...],
                         rng: Sequence[int]) -> CounterExample | None:
    n = len(m.worlds)
    extras, items, guards = _instances(s.kind, tuple(g.members for g in pool),
                                       s.agent)
    groups = pool + extras
    tab = [group_families(m, g) for g in groups]
    test, full = _VIOLATIONS[s.kind], (1 << n) - 1
    # rng holds distinct sets, so it is every subset if it has 2^n
    keep = None if len(rng) == 1 << n else frozenset(rng)
    for w in _flagged(m, s.kind, groups, tab, items, rng):
        at = [f[w] for f in tab]
        mem = {k: sorted(at[k] if keep is None else at[k] & keep)
               for k in guards}
        hit = next(test(w, at, mem, items, rng, full), None)
        if hit is not None:
            vs, sets = hit
            return CounterExample(
                m.worlds[w].label,
                tuple(zip(_GROUP_VARS[s.kind], (pool[i] for i in vs))),
                tuple(zip(_SET_VARS[s.kind], (WorldSet(x, n) for x in sets))),
                s.agent)
    return None


def _check_mode(mode: object) -> None:
    if mode not in ("all-subsets", "definable-only"):
        raise InputError(f"unknown mode {mode!r}; "
                         "use 'all-subsets' or 'definable-only'")


def _set_range(m: Model, mode: str, pool: tuple[Group, ...]
               ) -> tuple[Sequence[int], bool]:
    n = len(m.worlds)
    if mode == "all-subsets":
        guard("subsets", 1 << n, worlds=n)
        return range(1 << n), True
    _check_mode(mode)
    bits = [ws.bits for ws in definable_sets(m, pool)]
    return bits, len(bits) == (1 << n)


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
    if not isinstance(s, SchemaId):
        raise InputError("check_schema_semantically needs a SchemaId, "
                         f"got {s!r}")
    pool = (_group_pool(group_pool) if group_pool is not None
            else default_group_pool(m))
    if not pool:
        raise InputError("the group pool must be nonempty")
    rng, full_range = _set_range(m, mode, pool)
    cx = _find_counterexample(m, s, pool, rng)
    note = None
    if cx is None and mode == "definable-only" and not full_range:
        n = len(m.worlds)
        if (1 << n) <= limit("subsets"):
            shadow = _find_counterexample(m, s, pool, range(1 << n))
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

    def __post_init__(self) -> None:
        if not isinstance(self.group, Group):
            raise InputError(f"RE needs a Group, got {self.group!r}")


Justification = Taut | AxiomRef | MP | RE


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


def _earlier(ref: object, idx: int) -> bool:
    """Whether ``ref`` cites a line before line ``idx``: an int, no bool."""
    return type(ref) is int and 1 <= ref < idx


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
                except InputError as exc:
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
            if not (_earlier(j.premise, idx) and _earlier(j.implication, idx)):
                return ProofVerdict(False, idx,
                                    "modus ponens must cite earlier lines")
            premise = p.lines[j.premise - 1].formula
            implication = p.lines[j.implication - 1].formula
            if implication != Implies(premise, line.formula):
                return ProofVerdict(
                    False, idx,
                    f"line {j.implication} is not (line {j.premise} -> this line)")
        elif isinstance(j, RE):
            if not _earlier(j.source, idx):
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


def _line_from_dict(raw: object, where: str) -> ProofLine:
    if not isinstance(raw, dict) or not isinstance(raw.get("formula"), str) \
            or "just" not in raw:
        raise ProofFormatError(f"{where}: need 'formula' and 'just'")
    formula = parse(raw["formula"])
    just = raw["just"]
    if not isinstance(just, dict) or "type" not in just:
        raise ProofFormatError(f"{where}: 'just' needs a 'type'")
    kind = just["type"]
    if kind == "taut":
        return ProofLine(formula, Taut())
    if kind == "axiom":
        if not isinstance(just.get("schema"), str):
            raise ProofFormatError(f"{where}: axiom needs a 'schema'")
        schema = parse_schema(just["schema"])
        binding = (_binding_from_dict(just["binding"], where)
                   if "binding" in just else None)
        return ProofLine(formula, AxiomRef(schema, binding))
    if kind == "mp":
        refs = just.get("from")
        if (not isinstance(refs, list) or len(refs) != 2
                or not all(type(r) is int for r in refs)):
            raise ProofFormatError(f"{where}: mp needs 'from': [i, j]")
        return ProofLine(formula, MP(refs[0], refs[1]))
    if kind == "re":
        if type(just.get("from")) is not int \
                or not isinstance(just.get("group"), list):
            raise ProofFormatError(f"{where}: re needs 'from' and 'group'")
        return ProofLine(formula, RE(just["from"], Group(tuple(just["group"]))))
    raise ProofFormatError(f"{where}: unknown justification {kind!r}")


def _parsed(text: str, where: str) -> Formula:
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise ProofFormatError(f"{where}: {exc}") from exc


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
        try:
            lines.append(_line_from_dict(raw, f"line {i}"))
        except (InputError, FormulaSyntaxError) as exc:  # bindings too
            raise ProofFormatError(f"line {i}: {exc}") from exc

    gamma = None
    if "gamma" in data:
        raw_gamma = data["gamma"]
        if not isinstance(raw_gamma, list) \
                or not all(isinstance(s, str) for s in raw_gamma):
            raise ProofFormatError("'gamma' must be a list of formula strings")
        gamma = tuple(_parsed(s, "'gamma'") for s in raw_gamma)
    if "phi" in data and not isinstance(data["phi"], str):
        raise ProofFormatError("'phi' must be a formula string")
    phi = _parsed(data["phi"], "'phi'") if "phi" in data else None
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
    return proof_from_dict(_json_file(path, ProofFormatError))


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
