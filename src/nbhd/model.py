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

import functools
import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from heapq import heappush, heappop

from .errors import (
    InputError, ModelFormatError, NbhdError, UnknownWorldError, guard, limit,
)
from .formula import (
    _CONNECTIVES, Atom, Bottom, Box, Formula, Group, Not, Or, Top, _children,
    agent_ids, read_agent, read_agents, render,
)

__all__ = [
    "World", "WorldSet", "NeighbourhoodMap", "AgentModel", "GeneralModel",
    "Model", "group_neighbourhood", "group_families", "truth_set",
    "satisfies", "valid_on_model", "definable_sets", "fixture",
    "model_from_dict", "model_to_dict", "load_model", "save_model",
    "world_index", "mentioned_agents", "default_group_pool", "unions_up_to",
    "FIXTURE_NAMES",
]

def _show(value: object) -> str:
    """``repr(value)``, or the bit length of an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # past the int-to-str digit limit
        return f"<int of {value.bit_length()} bits>"


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
        bits, size = self.bits, self.size
        if not (isinstance(bits, int) and isinstance(size, int) and size >= 0
                and 0 <= bits < (1 << size)):
            raise InputError(f"bits {_show(bits)} out of range for "
                             f"{_show(size)} worlds")

    @classmethod
    def empty(cls, size: int) -> "WorldSet":
        return cls(0, size)

    @classmethod
    def full(cls, size: int) -> "WorldSet":
        return cls((1 << size) - 1, size)

    @classmethod
    def of(cls, indices: Iterable[int], size: int) -> "WorldSet":
        bits, over = 0, None
        try:
            for i in indices:
                # before the shift, which would build the whole huge int
                if isinstance(i, int) and isinstance(size, int) and i >= size:
                    over = i
                    break
                bits |= 1 << i
        except (TypeError, ValueError):  # no iterable, or a bad index
            raise InputError("world indices are a collection of non-negative "
                             f"ints, got {indices!r}") from None
        if over is not None:
            raise InputError(f"world index {_show(over)} out of range for "
                             f"{size} worlds")
        return cls(bits, size)

    def _check(self, other: "WorldSet") -> None:
        if self.size != other.size:
            raise InputError("world sets over different domains")

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
    """Per-world families of world sets for one agent or one group.

    A map must not be mutated after construction: models may share one
    map (exhaustive search does), and ``nbhd.frames`` keeps each frame
    condition's result on the families of a ``_SharedMap``.
    """

    __slots__ = ("size", "families")
    _memo = None  # no results kept

    def __init__(self, size: int, families: Iterable[Iterable[int]]):
        if not (isinstance(size, int) and size >= 0):
            raise InputError(f"a map's size is a number of worlds, got {size!r}")
        try:
            fams = tuple(frozenset(fam) for fam in families)
        except TypeError:
            raise InputError("a map needs one iterable of members per world, "
                             f"got {families!r}") from None
        top = 1 << size
        for fam in fams:
            for bits in fam:
                if not isinstance(bits, int) or not 0 <= bits < top:
                    raise InputError(f"member {_show(bits)} out of range "
                                     f"for {size} worlds")
        self.size = size
        self.families = fams

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NeighbourhoodMap)
                and self.size == other.size
                and self.families == other.families)

    def __hash__(self) -> int:
        return hash((self.size, self.families))

    def __repr__(self) -> str:
        return f"NeighbourhoodMap(size={self.size}, families={self.families!r})"


class _SharedMap(NeighbourhoodMap):
    """A map that many models share, on which ``nbhd.frames`` keeps each
    frame condition's result in ``_memo``.  Other maps keep nothing: for
    a map of one model that would cost more than it saves."""

    __slots__ = ("_memo",)

    def __init__(self, size: int, families: Iterable[Iterable[int]]):
        super().__init__(size, families)
        self._memo = {}


def _check_model(worlds: tuple[World, ...], valuation: Mapping[str, WorldSet],
                 maps: Mapping[object, NeighbourhoodMap], what: str) -> None:
    """The checks both model kinds make; ``maps`` are keyed by ``what``,
    "agent" (agent ids) or "group" (Groups)."""
    for name, value in (("valuation", valuation), (f"{what}s", maps)):
        if not isinstance(value, Mapping):
            raise ModelFormatError(f"{name} must be a mapping, "
                                   f"got {type(value).__name__}")
    if what == "agent":
        agent_ids(tuple(maps), ModelFormatError)
    else:
        for key in maps:
            if not isinstance(key, Group):
                raise ModelFormatError(f"group keys must be Group, got {key!r}")
    if not worlds:
        raise ModelFormatError("a model needs at least one world")
    labels = set()
    for i, w in enumerate(worlds):
        if w.index != i:
            raise ModelFormatError("world indices must be dense and ordered")
        if w.label in labels:
            raise ModelFormatError(f"duplicate world label {w.label!r}")
        labels.add(w.label)
    size = len(worlds)
    for name, ws in valuation.items():
        if not isinstance(ws, WorldSet):
            raise ModelFormatError(f"valuation of {name!r} needs a WorldSet, "
                                   f"got {type(ws).__name__}")
        if ws.size != size:
            raise ModelFormatError(f"valuation of {name!r} has wrong domain size")
    for key, nm in maps.items():
        if not isinstance(nm, NeighbourhoodMap):
            raise ModelFormatError(f"{what} {key} needs a NeighbourhoodMap, "
                                   f"got {type(nm).__name__}")
        if nm.size != size or len(nm.families) != size:
            raise ModelFormatError(f"neighbourhood map of {what} {key} has "
                                   "wrong size")


@dataclass(frozen=True)
class AgentModel:
    """Neighbourhood model with agent-indexed primitive families."""

    worlds: tuple[World, ...]
    valuation: Mapping[str, WorldSet]
    agents: Mapping[int, NeighbourhoodMap]
    _group_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _code_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_model(self.worlds, self.valuation, self.agents, "agent")


def _agent_model(worlds: tuple[World, ...], valuation: Mapping[str, WorldSet],
                 agents: Mapping[int, NeighbourhoodMap]) -> AgentModel:
    """``AgentModel(worlds, valuation, agents)`` without its checks, for
    search, which builds these fields from checked bounds."""
    m = object.__new__(AgentModel)
    vars(m).update(worlds=worlds, valuation=valuation, agents=agents,
                   _group_cache={}, _code_cache={})
    return m


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
    _code_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_model(self.worlds, self.valuation, self.groups, "group")


# ``|`` rather than typing.Union, whose cache would keep these classes,
# and with them this module, alive after the package is unloaded
Model = AgentModel | GeneralModel


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


def _default_families(m: Model) -> tuple[frozenset[int], ...]:
    """The families of an agent or group that ``m`` has no map for: no
    sets in an AgentModel, ``{empty set}`` in a GeneralModel."""
    fam = frozenset() if isinstance(m, AgentModel) else frozenset((0,))
    return (fam,) * len(m.worlds)


def group_families(m: Model, g: Group) -> tuple[frozenset[int], ...]:
    """Per-world neighbourhood family of ``g``, as raw bit vectors.

    For an AgentModel this performs the pointwise-intersection
    derivation (agents without families contribute nothing, so the
    result is empty); for a GeneralModel it is a lookup with the
    ``{empty set}`` default.  Results are cached on the model.
    """
    cache = m._group_cache
    try:
        hit = cache.get(g)
    except TypeError:  # unhashable, so no Group either
        hit = None
    if hit is not None:
        return hit
    if not isinstance(g, Group):
        raise InputError(f"group_families needs a Group, got {g!r}")
    if isinstance(m, GeneralModel):
        nm = m.groups.get(g)
        out = cache[g] = nm.families if nm is not None else _default_families(m)
        return out
    if len(g) > limit("group-size"):
        guard("group-size", len(g), group=g)
    maps = m.agents
    member_fams = []  # a loop: a comprehension costs a call per derivation
    for a in g:
        member_fams.append(maps[a].families if a in maps
                           else _default_families(m))
    # N_G is N_P (x) N_a for G = P + {a}, a its last member: start from
    # N_P if it is cached, else from the first member (a Group has one)
    members = g.members
    prefix = cache.get(Group(members[:-1])) if len(members) > 2 else None
    first, rest = ((prefix, member_fams[-1:]) if prefix is not None
                   else (member_fams[0], member_fams[1:]))
    cap = limit("product")
    per_world = []
    for w, acc in enumerate(first):
        product = 1  # the guard counts the whole product, prefix or not
        for fams in member_fams:
            product *= len(fams[w])
        if product > cap:
            guard("product", product, group=g, world=m.worlds[w].label)
        for fams in rest:
            if not acc:
                break
            acc = frozenset({x & y for x in acc for y in fams[w]})
        per_world.append(acc)
    out = cache[g] = tuple(per_world)
    return out


def group_neighbourhood(m: Model, g: Group, world: "World | int | str") -> tuple[WorldSet, ...]:
    """The neighbourhood family of group ``g`` at ``world``, sorted ascending."""
    w = world_index(m, world)
    n = len(m.worlds)
    return tuple(WorldSet(b, n) for b in sorted(group_families(m, g)[w]))


# ---------------------------------------------------------------------------
# Truth


def _truth_bits(m: Model, f: Formula, memo: dict, full: int) -> int:
    """Truth set of ``f`` as a bit vector below the domain mask ``full``;
    ``memo`` maps the id of each node evaluated so far to its bits, so a
    node that ``f`` shares is evaluated once, and ``m`` is read only for
    atoms and boxes that ``memo`` does not hold."""
    hit = memo.get(id(f))
    if hit is not None:
        return hit
    row = _CONNECTIVES.get(type(f))
    if row is not None:
        bits = row.truth(_truth_bits(m, f.left, memo, full),
                         _truth_bits(m, f.right, memo, full), full)
    elif isinstance(f, Not):
        bits = full ^ _truth_bits(m, f.body, memo, full)
    elif isinstance(f, Atom):
        ws = m.valuation.get(f.name)
        bits = ws.bits if ws is not None else 0
    elif isinstance(f, Box):
        body = _truth_bits(m, f.body, memo, full)
        bits = _preimage(group_families(m, f.group), body)
    else:
        _children(f)  # a TypeError unless f is a constant
        bits = full if isinstance(f, Top) else 0
    memo[id(f)] = bits
    return bits


def _preimage(fams: tuple[frozenset[int], ...], bits: int) -> int:
    """The worlds whose family in ``fams`` holds the set ``bits``."""
    image = 0
    for w, fam in enumerate(fams):
        if bits in fam:
            image |= 1 << w
    return image


def _first_outside(m: Model, held: WorldSet) -> "str | None":
    """The label of the first world of ``m`` outside ``held``, if any."""
    for w in m.worlds:
        if not held.bits >> w.index & 1:
            return w.label
    return None


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
    """All groups over ``agents`` of size at most ``max_size``, sorted.

    Cached by the sorted, duplicate-free agent tuple.
    """
    return _unions(max_size, *sorted(set(agents)))


# typed, so that an agent id equal to an int (True, 1.0) is no cache hit
# for that int and still fails in Group
@functools.lru_cache(maxsize=64, typed=True)
def _unions(max_size: int, *agents: int) -> tuple[Group, ...]:
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
    pool = unions_up_to(mentioned_agents(m))
    if isinstance(m, AgentModel):
        return pool  # already sorted and duplicate-free
    return tuple(sorted(set(pool).union(m.groups), key=Group.sort_key))


def _group_pool(pool: object, nonempty: bool = False) -> tuple[Group, ...]:
    """The Groups of ``pool``, nonempty if ``nonempty``; else InputError."""
    groups = tuple(pool) if hasattr(pool, "__iter__") else None
    if (groups is None or nonempty and not groups
            or not all(isinstance(g, Group) for g in groups)):
        raise InputError("the group pool must be None or a nonempty "
                         f"collection of Groups, got {pool!r}")
    return groups


def definable_sets(m: Model, group_pool: Iterable[Group]) -> dict[WorldSet, Formula]:
    """Least family containing {}, W and the valuation sets, closed under
    complement, union and the box preimage of every pool group.

    Returns each definable set with a shortest witness formula (ties
    broken by the rendered string), keys ascending by bit vector.
    """
    pool = _group_pool(group_pool)
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
            push(_preimage(fams[g], bits), Box(g, witness))

    return {WorldSet(bits, n): final[bits] for bits in sorted(final)}


# ---------------------------------------------------------------------------
# Serialization

_WORLDS_KEY, _VAL_KEY, _AGENTS_KEY, _GROUPS_KEY = "worlds", "valuation", "agents", "groups"


def _set_from_labels(labels: object, index: Mapping[str, int], where: str) -> int:
    if not isinstance(labels, list):
        raise ModelFormatError(f"{where}: expected a list of world labels")
    bits = 0
    for label in labels:
        if not isinstance(label, str) or label not in index:
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
    if has_agents == (_GROUPS_KEY in data):
        raise ModelFormatError("exactly one of 'agents' or 'groups' is required")
    kind, section = (("agent", _AGENTS_KEY) if has_agents
                     else ("group", _GROUPS_KEY))
    raw = data[section]
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{section!r} must be a mapping")
    maps: dict = {}
    for key, fams in raw.items():
        try:
            owner = (read_agent(key, "an agent key") if has_agents
                     else Group(read_agents(key, f"bad group key {key!r}:")))
        except InputError as exc:
            raise ModelFormatError(f"bad agent key {key!r}" if has_agents
                                   else str(exc)) from None
        if owner in maps:
            raise ModelFormatError(f"duplicate {kind} key {key!r}")
        maps[owner] = _family_map_from_dict(fams, index, n, f"{kind} {key}")
    return (AgentModel if has_agents else GeneralModel)(worlds, valuation, maps)


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


def _json_file(path: str, error: type[NbhdError], data: object = None):
    """Read the JSON value in file ``path`` or, given ``data``, write it;
    a file that is unreadable, unwritable or no JSON raises ``error``."""
    try:
        if data is None:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2) + "\n")
    except OSError as exc:
        verb = "read" if data is None else "write"
        raise error(f"cannot {verb} {path}: {exc}") from exc
    except ValueError as exc:  # also undecodable bytes and over-long numbers
        raise error(f"{path} is not valid JSON: {exc}") from exc


def load_model(path: str) -> Model:
    return model_from_dict(_json_file(path, ModelFormatError))


def save_model(m: Model, path: str) -> None:
    _json_file(path, InputError, model_to_dict(m))


# ---------------------------------------------------------------------------
# Built-in example models

# Three worlds, each atom true at one of them.
_PQR = {"worlds": ["wp", "wq", "wr"],
        "valuation": {"p": ["wp"], "q": ["wq"], "r": ["wr"]}}

# Subsets of {wp, wq, wr} ascending by bit vector, for the M2 families.
_PQR_SUBSETS = [
    [], ["wp"], ["wq"], ["wp", "wq"],
    ["wr"], ["wp", "wr"], ["wq", "wr"], ["wp", "wq", "wr"],
]

_FIXTURES: dict[str, dict] = {
    # Constant group families over three worlds; groups without an entry
    # default to {empty set}.  Each Mk refutes exactly the schema Bk.
    "M1": {
        **_PQR,
        "groups": {
            "1": {"*": [["wp", "wr"], []]},
            "2": {"*": [["wq", "wr"], []]},
        },
    },
    "M2": {
        **_PQR,
        "groups": {
            **{key: {"*": [s for s in _PQR_SUBSETS if len(s) < 3]}
               for key in ("1", "2", "3")},
            **{key: {"*": _PQR_SUBSETS}
               for key in ("1,2", "1,3", "2,3", "1,2,3")},
        },
    },
    "M3": {
        **_PQR,
        "groups": {
            "1": {"*": [["wp"], []]},
            "1,2,3": {"*": [["wp"], []]},
        },
    },
    "M4": {
        **_PQR,
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
