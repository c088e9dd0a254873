"""Finite neighbourhood models and their evaluation.

Two model kinds share a domain of worlds and a valuation:

* :class:`AgentModel` stores one neighbourhood family per agent; the
  family of a group is derived by pointwise intersection, i.e.
  ``N_G(w) = { X_1 & ... & X_k : X_i in N_i(w), i in G }``.
* :class:`GeneralModel` stores families per group directly, with no
  derivation; a group without an entry has the family ``{empty set}``.

World sets are characteristic bit vectors over the domain, so equality
is plain integer equality and families can live in ``frozenset[int]``
on the hot paths.  Neighbourhood families are duplicate-free; whenever
a family is exposed it is sorted by bit-vector value so reports and
witnesses come out deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from heapq import heappush, heappop
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    ModelFormatError,
    ResourceLimitError,
    UnknownWorldError,
)
from .formula import (
    And, Atom, Bottom, Box, Formula, Group, Iff, Implies, Not, Or, Top,
    render,
)

__all__ = [
    "World", "WorldSet", "NeighbourhoodMap", "AgentModel", "GeneralModel",
    "Model", "group_neighbourhood", "group_families", "truth_set",
    "satisfies", "valid_on_model", "definable_sets", "fixture",
    "model_from_dict", "model_to_dict", "load_model", "save_model",
    "world_index", "mentioned_agents", "default_group_pool", "unions_up_to",
    "FIXTURE_NAMES",
]

MAX_GROUP_SIZE = 8
_PRODUCT_LIMIT = 1_000_000


def _state_cap(default: int) -> int:
    """Resource guard, loweable (never raisable) via NBHD_MAX_STATES.

    Every guard reads the variable through here, so a value that is not
    a positive integer fails the same way in each of them.
    """
    raw = os.environ.get("NBHD_MAX_STATES")
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ResourceLimitError(
            f"NBHD_MAX_STATES={raw!r} is not a positive integer")
    return min(default, cap)


@dataclass(frozen=True)
class World:
    index: int
    label: str


@dataclass(frozen=True)
class WorldSet:
    """A set of worlds as a bit vector over a fixed domain size."""

    bits: int
    size: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.size):
            raise ValueError(f"bits {self.bits} out of range for {self.size} worlds")

    @classmethod
    def empty(cls, size: int) -> "WorldSet":
        return cls(0, size)

    @classmethod
    def full(cls, size: int) -> "WorldSet":
        return cls((1 << size) - 1, size)

    @classmethod
    def of(cls, indices: Iterable[int], size: int) -> "WorldSet":
        bits = 0
        for i in indices:
            bits |= 1 << i
        return cls(bits, size)

    def _check(self, other: "WorldSet") -> None:
        if self.size != other.size:
            raise ValueError("world sets over different domains")

    def __and__(self, other: "WorldSet") -> "WorldSet":
        self._check(other)
        return WorldSet(self.bits & other.bits, self.size)

    def __or__(self, other: "WorldSet") -> "WorldSet":
        self._check(other)
        return WorldSet(self.bits | other.bits, self.size)

    def complement(self) -> "WorldSet":
        return WorldSet(self.bits ^ ((1 << self.size) - 1), self.size)

    def issubset(self, other: "WorldSet") -> bool:
        self._check(other)
        return self.bits & other.bits == self.bits

    def __contains__(self, index: object) -> bool:
        return isinstance(index, int) and 0 <= index < self.size \
            and bool((self.bits >> index) & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if (self.bits >> i) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __lt__(self, other: "WorldSet") -> bool:
        return (self.bits, self.size) < (other.bits, other.size)

    def __repr__(self) -> str:
        return f"WorldSet({{{','.join(map(str, self.indices()))}}}/{self.size})"


class NeighbourhoodMap:
    """Per-world families of world sets for one agent or one group."""

    __slots__ = ("size", "families")

    def __init__(self, size: int, families: Iterable[Iterable[int]]):
        fams = tuple(frozenset(fam) for fam in families)
        top = 1 << size
        for fam in fams:
            for bits in fam:
                if not 0 <= bits < top:
                    raise ValueError(f"member {bits} out of range for {size} worlds")
        self.size = size
        self.families = fams

    def family(self, world: int) -> tuple[WorldSet, ...]:
        return tuple(WorldSet(b, self.size)
                     for b in sorted(self.families[world]))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NeighbourhoodMap)
                and self.size == other.size
                and self.families == other.families)

    def __hash__(self) -> int:
        return hash((self.size, self.families))

    def __repr__(self) -> str:
        return f"NeighbourhoodMap(size={self.size}, families={self.families!r})"


def _check_worlds(worlds: tuple[World, ...]) -> None:
    if not worlds:
        raise ModelFormatError("a model needs at least one world")
    labels = set()
    for i, w in enumerate(worlds):
        if w.index != i:
            raise ModelFormatError("world indices must be dense and ordered")
        if w.label in labels:
            raise ModelFormatError(f"duplicate world label {w.label!r}")
        labels.add(w.label)


def _check_valuation(valuation: Mapping[str, WorldSet], size: int) -> None:
    for name, ws in valuation.items():
        if ws.size != size:
            raise ModelFormatError(f"valuation of {name!r} has wrong domain size")


@dataclass(frozen=True)
class AgentModel:
    """Neighbourhood model with agent-indexed primitive families."""

    worlds: tuple[World, ...]
    valuation: Mapping[str, WorldSet]
    agents: Mapping[int, NeighbourhoodMap]
    _group_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_worlds(self.worlds)
        n = len(self.worlds)
        _check_valuation(self.valuation, n)
        for agent, nm in self.agents.items():
            if not isinstance(agent, int) or agent < 0:
                raise ModelFormatError(f"agent ids are non-negative ints, got {agent!r}")
            if nm.size != n or len(nm.families) != n:
                raise ModelFormatError(f"neighbourhood map of agent {agent} has wrong size")


@dataclass(frozen=True)
class GeneralModel:
    """Neighbourhood model with group-indexed primitive families.

    Groups without an entry get the family ``{empty set}``, which makes
    the boxed formulas of unmentioned groups false everywhere except on
    the empty truth set.
    """

    worlds: tuple[World, ...]
    valuation: Mapping[str, WorldSet]
    groups: Mapping[Group, NeighbourhoodMap]
    _group_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_worlds(self.worlds)
        n = len(self.worlds)
        _check_valuation(self.valuation, n)
        for g, nm in self.groups.items():
            if not isinstance(g, Group):
                raise ModelFormatError(f"group keys must be Group, got {g!r}")
            if nm.size != n or len(nm.families) != n:
                raise ModelFormatError(f"neighbourhood map of group {g} has wrong size")


Model = Union[AgentModel, GeneralModel]


def world_index(m: Model, ref: "World | int | str") -> int:
    """Resolve a world given as World, index or label."""
    if isinstance(ref, World):
        ref = ref.index
    if isinstance(ref, int):
        if 0 <= ref < len(m.worlds):
            return ref
        raise UnknownWorldError(f"no world with index {ref}")
    for w in m.worlds:
        if w.label == ref:
            return w.index
    raise UnknownWorldError(f"no world labelled {ref!r}")


def _labels(m: Model, bits: int) -> tuple[str, ...]:
    return tuple(w.label for w in m.worlds if (bits >> w.index) & 1)


def group_families(m: Model, g: Group) -> tuple[frozenset[int], ...]:
    """Per-world neighbourhood family of ``g``, as raw bit vectors.

    For an AgentModel this performs the pointwise-intersection
    derivation (agents without families contribute nothing, so the
    result is empty); for a GeneralModel it is a lookup with the
    ``{empty set}`` default.  Results are cached on the model.
    """
    cache = m._group_cache
    hit = cache.get(g)
    if hit is not None:
        return hit
    n = len(m.worlds)
    if isinstance(m, GeneralModel):
        nm = m.groups.get(g)
        out = nm.families if nm is not None else (frozenset((0,)),) * n
        cache[g] = out
        return out
    if len(g) > MAX_GROUP_SIZE:
        raise ResourceLimitError(
            f"group {g} exceeds the size-{MAX_GROUP_SIZE} derivation guard")
    member_fams = []
    for agent in g:
        nm = m.agents.get(agent)
        member_fams.append(nm.families if nm is not None
                           else (frozenset(),) * n)
    limit = _state_cap(_PRODUCT_LIMIT)
    per_world = []
    for w in range(n):
        product = 1
        for fams in member_fams:
            product *= len(fams[w])
        if product > limit:
            raise ResourceLimitError(
                f"group {g} needs {product} intersections at world "
                f"{m.worlds[w].label}, over the {limit} guard")
        acc: frozenset[int] | None = None
        for fams in member_fams:
            fam = fams[w]
            if acc is None:
                acc = fam
            else:
                acc = frozenset(x & y for x in acc for y in fam)
            if not acc:
                break
        per_world.append(acc if acc is not None else frozenset())
    out = tuple(per_world)
    cache[g] = out
    return out


def group_neighbourhood(m: Model, g: Group, world: "World | int | str") -> tuple[WorldSet, ...]:
    """The neighbourhood family of group ``g`` at ``world``, sorted ascending."""
    w = world_index(m, world)
    n = len(m.worlds)
    return tuple(WorldSet(b, n) for b in sorted(group_families(m, g)[w]))


# ---------------------------------------------------------------------------
# Truth


def _truth_bits(m: Model, f: Formula, memo: dict, full: int) -> int:
    """Truth set of ``f`` as a bit vector below the domain mask ``full``.

    ``m`` is read only for atoms and boxes that ``memo`` does not hold.
    """
    hit = memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Bottom):
        bits = 0
    elif isinstance(f, Top):
        bits = full
    elif isinstance(f, Atom):
        ws = m.valuation.get(f.name)
        bits = ws.bits if ws is not None else 0
    elif isinstance(f, Not):
        bits = full ^ _truth_bits(m, f.body, memo, full)
    elif isinstance(f, Or):
        bits = (_truth_bits(m, f.left, memo, full)
                | _truth_bits(m, f.right, memo, full))
    elif isinstance(f, And):
        bits = (_truth_bits(m, f.left, memo, full)
                & _truth_bits(m, f.right, memo, full))
    elif isinstance(f, Implies):
        bits = ((full ^ _truth_bits(m, f.left, memo, full))
                | _truth_bits(m, f.right, memo, full))
    elif isinstance(f, Iff):
        bits = full ^ (_truth_bits(m, f.left, memo, full)
                       ^ _truth_bits(m, f.right, memo, full))
    elif isinstance(f, Box):
        body = _truth_bits(m, f.body, memo, full)
        bits = 0
        for w, fam in enumerate(group_families(m, f.group)):
            if body in fam:
                bits |= 1 << w
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[f] = bits
    return bits


def truth_set(m: Model, f: Formula) -> WorldSet:
    """The set of worlds of ``m`` where ``f`` is true.

    Atoms without a valuation entry are false everywhere.
    """
    n = len(m.worlds)
    return WorldSet(_truth_bits(m, f, {}, (1 << n) - 1), n)


def satisfies(m: Model, world: "World | int | str", f: Formula) -> bool:
    w = world_index(m, world)
    return bool((_truth_bits(m, f, {}, (1 << len(m.worlds)) - 1) >> w) & 1)


def valid_on_model(m: Model, f: Formula) -> bool:
    full = (1 << len(m.worlds)) - 1
    return _truth_bits(m, f, {}, full) == full


# ---------------------------------------------------------------------------
# Pools and definable sets


def mentioned_agents(m: Model) -> tuple[int, ...]:
    if isinstance(m, AgentModel):
        return tuple(sorted(m.agents))
    seen: set[int] = set()
    for g in m.groups:
        seen.update(g.members)
    return tuple(sorted(seen))


def unions_up_to(agents: Iterable[int], max_size: int = 3) -> tuple[Group, ...]:
    """All groups over ``agents`` of size at most ``max_size``, sorted."""
    agents = sorted(set(agents))
    out: list[Group] = []

    def grow(start: int, current: tuple[int, ...]) -> None:
        for i in range(start, len(agents)):
            g = current + (agents[i],)
            out.append(Group(g))
            if len(g) < max_size:
                grow(i + 1, g)

    grow(0, ())
    return tuple(sorted(out, key=Group.sort_key))


def default_group_pool(m: Model) -> tuple[Group, ...]:
    """Groups mentioned by the model plus unions of its agents up to size 3."""
    pool = set(unions_up_to(mentioned_agents(m)))
    if isinstance(m, GeneralModel):
        pool.update(m.groups)
    return tuple(sorted(pool, key=Group.sort_key))


def definable_sets(m: Model, group_pool: Iterable[Group]) -> dict[WorldSet, Formula]:
    """Least family containing {}, W and the valuation sets, closed under
    complement, union and the box preimage of every pool group.

    Returns each definable set with a shortest witness formula (ties
    broken by the rendered string), keys ascending by bit vector.
    """
    pool = list(group_pool)
    n = len(m.worlds)
    full = (1 << n) - 1
    fams = {g: group_families(m, g) for g in pool}

    final: dict[int, Formula] = {}
    heap: list[tuple[int, str, int, Formula]] = []

    def push(bits: int, witness: Formula) -> None:
        if bits not in final:
            r = render(witness)
            heappush(heap, (len(r), r, bits, witness))

    push(0, Bottom())
    push(full, Top())
    for name in sorted(m.valuation):
        push(m.valuation[name].bits, Atom(name))

    while heap:
        _, _, bits, witness = heappop(heap)
        if bits in final:
            continue
        final[bits] = witness
        push(full ^ bits, Not(witness))
        for other_bits, other in list(final.items()):
            if other_bits != bits:
                push(bits | other_bits, Or(witness, other))
                push(bits | other_bits, Or(other, witness))
        for g in pool:
            fam = fams[g]
            image = 0
            for w in range(n):
                if bits in fam[w]:
                    image |= 1 << w
            push(image, Box(g, witness))

    return {WorldSet(bits, n): final[bits] for bits in sorted(final)}


# ---------------------------------------------------------------------------
# Serialization

_WORLDS_KEY, _VAL_KEY, _AGENTS_KEY, _GROUPS_KEY = "worlds", "valuation", "agents", "groups"


def _parse_group_key(key: str) -> Group:
    try:
        return Group(tuple(int(part) for part in key.split(",")))
    except ValueError as exc:
        raise ModelFormatError(f"bad group key {key!r}: {exc}") from exc


def _set_from_labels(labels: object, index: Mapping[str, int], where: str) -> int:
    if not isinstance(labels, list):
        raise ModelFormatError(f"{where}: expected a list of world labels")
    bits = 0
    for label in labels:
        if label not in index:
            raise ModelFormatError(f"{where}: unknown world {label!r}")
        bits |= 1 << index[label]
    return bits


def _family_map_from_dict(raw: object, index: Mapping[str, int], n: int,
                          where: str) -> NeighbourhoodMap:
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{where}: expected a mapping of worlds to families")
    default = raw.get("*")
    per_world: list[frozenset[int]] = []
    labels = list(index)
    for label in labels:
        entry = raw.get(label, default)
        if entry is None:
            raise ModelFormatError(f"{where}: no family for world {label!r}")
        if not isinstance(entry, list):
            raise ModelFormatError(f"{where}: family of {label!r} must be a list")
        fam = frozenset(
            _set_from_labels(member, index, f"{where}, world {label!r}")
            for member in entry)
        per_world.append(fam)
    for key in raw:
        if key != "*" and key not in index:
            raise ModelFormatError(f"{where}: unknown world {key!r}")
    return NeighbourhoodMap(n, per_world)


def model_from_dict(data: object) -> Model:
    """Build a model from its dict form (the JSON file format)."""
    if not isinstance(data, dict):
        raise ModelFormatError("model description must be a mapping")
    unknown = set(data) - {_WORLDS_KEY, _VAL_KEY, _AGENTS_KEY, _GROUPS_KEY}
    if unknown:
        raise ModelFormatError(f"unknown keys {sorted(unknown)}")
    labels = data.get(_WORLDS_KEY)
    if not isinstance(labels, list) or not labels \
            or not all(isinstance(x, str) for x in labels):
        raise ModelFormatError("'worlds' must be a nonempty list of strings")
    if len(set(labels)) != len(labels):
        raise ModelFormatError("world labels must be unique")
    worlds = tuple(World(i, lab) for i, lab in enumerate(labels))
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    raw_val = data.get(_VAL_KEY, {})
    if not isinstance(raw_val, dict):
        raise ModelFormatError("'valuation' must be a mapping")
    valuation = {
        name: WorldSet(_set_from_labels(sets, index, f"valuation of {name!r}"), n)
        for name, sets in raw_val.items()}

    has_agents = _AGENTS_KEY in data
    has_groups = _GROUPS_KEY in data
    if has_agents == has_groups:
        raise ModelFormatError("exactly one of 'agents' or 'groups' is required")

    if has_agents:
        raw = data[_AGENTS_KEY]
        if not isinstance(raw, dict):
            raise ModelFormatError("'agents' must be a mapping")
        agents: dict[int, NeighbourhoodMap] = {}
        for key, fams in raw.items():
            try:
                agent = int(key)
            except ValueError:
                raise ModelFormatError(f"bad agent key {key!r}") from None
            if agent < 0:
                raise ModelFormatError(f"bad agent key {key!r}")
            agents[agent] = _family_map_from_dict(fams, index, n, f"agent {key}")
        return AgentModel(worlds, valuation, agents)

    raw = data[_GROUPS_KEY]
    if not isinstance(raw, dict):
        raise ModelFormatError("'groups' must be a mapping")
    groups: dict[Group, NeighbourhoodMap] = {}
    for key, fams in raw.items():
        g = _parse_group_key(key)
        if g in groups:
            raise ModelFormatError(f"duplicate group key {key!r}")
        groups[g] = _family_map_from_dict(fams, index, n, f"group {key}")
    return GeneralModel(worlds, valuation, groups)


def model_to_dict(m: Model) -> dict:
    """Inverse of :func:`model_from_dict` (no '*' compression on output)."""
    n = len(m.worlds)
    out: dict = {
        _WORLDS_KEY: [w.label for w in m.worlds],
        _VAL_KEY: {name: list(_labels(m, ws.bits))
                   for name, ws in sorted(m.valuation.items())},
    }

    def fam_dict(nm: NeighbourhoodMap) -> dict:
        return {m.worlds[w].label: [list(_labels(m, bits))
                                    for bits in sorted(nm.families[w])]
                for w in range(n)}

    if isinstance(m, AgentModel):
        out[_AGENTS_KEY] = {str(a): fam_dict(nm)
                            for a, nm in sorted(m.agents.items())}
    else:
        out[_GROUPS_KEY] = {str(g): fam_dict(nm)
                            for g, nm in sorted(m.groups.items(),
                                                key=lambda kv: kv[0].sort_key())}
    return out


def load_model(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)


def save_model(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Built-in example models

_PQR_WORLDS = ["wp", "wq", "wr"]
_PQR_VAL = {"p": ["wp"], "q": ["wq"], "r": ["wr"]}

# Subsets of {wp, wq, wr} ascending by bit vector, for the M2 families.
_PQR_SUBSETS = [
    [], ["wp"], ["wq"], ["wp", "wq"],
    ["wr"], ["wp", "wr"], ["wq", "wr"], ["wp", "wq", "wr"],
]

_FIXTURES: dict[str, dict] = {
    # Constant group families over three worlds; groups without an entry
    # default to {empty set}.  Each Mk refutes exactly the schema Bk.
    "M1": {
        "worlds": _PQR_WORLDS,
        "valuation": _PQR_VAL,
        "groups": {
            "1": {"*": [["wp", "wr"], []]},
            "2": {"*": [["wq", "wr"], []]},
        },
    },
    "M2": {
        "worlds": _PQR_WORLDS,
        "valuation": _PQR_VAL,
        "groups": {
            **{key: {"*": [s for s in _PQR_SUBSETS if len(s) < 3]}
               for key in ("1", "2", "3")},
            **{key: {"*": _PQR_SUBSETS}
               for key in ("1,2", "1,3", "2,3", "1,2,3")},
        },
    },
    "M3": {
        "worlds": _PQR_WORLDS,
        "valuation": _PQR_VAL,
        "groups": {
            "1": {"*": [["wp"], []]},
            "1,2,3": {"*": [["wp"], []]},
        },
    },
    "M4": {
        "worlds": _PQR_WORLDS,
        "valuation": _PQR_VAL,
        "groups": {
            "1,3": {"*": [["wp"], []]},
            "1,2": {"*": [["wp", "wq"], []]},
            "1,2,3": {"*": [["wp", "wq"], []]},
        },
    },
    # Two worlds, every atom true everywhere.  Each single agent only
    # ever commits to a set containing the evaluation world's partner,
    # yet the pair {1,2} is committed to the empty set everywhere.
    "NONREFLEXIVE": {
        "worlds": ["w", "v"],
        "valuation": {"p": ["w", "v"], "q": ["w", "v"]},
        "agents": {
            "1": {"*": [["w"]]},
            "2": {"*": [["v"]]},
        },
    },
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> Model:
    """A built-in example model; see FIXTURE_NAMES for the choices."""
    data = _FIXTURES.get(name)
    if data is None:
        raise ModelFormatError(
            f"unknown fixture {name!r}; choose one of {', '.join(_FIXTURES)}")
    return model_from_dict(data)
