"""Bounded model enumeration, seeded random generation, and fuzzing.

Random generation is a pure function of ``(seed, draw)`` built on the
splitmix64 generator, so runs reproduce bit-for-bit across machines and
across implementations in other languages (the algorithm is spelled out
in the README).  Generated models can be repaired to satisfy frame
constraints; repairs happen in a fixed order and are re-verified, and
unsatisfiable combinations raise instead of looping.

Exhaustive mode enumerates every model within (deliberately small)
structural bounds and treats frame constraints as filters.  A missing
countermodel is never a validity proof: the logics here are not known
to have the finite model property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    GUARDS, ConstraintError, InputError, guard, limit, limits_read_once,
)
from .formula import Formula, Group, agent_ids
from .frames import (
    FrameCondition, _BY_CLASS, _CONDITIONS, _named_agents, _repair,
    check_condition, format_condition,
)
from .logics import (
    CounterExample, LogicDescriptor, SchemaId, _check_mode,
    check_schema_semantically, counterexample_to_dict, format_schema,
)
from .model import (
    AgentModel, NeighbourhoodMap, World, WorldSet, _SharedMap, _agent_model,
    _first_outside, _group_pool, model_to_dict, truth_set, unions_up_to,
)

__all__ = [
    "Stream", "SearchBounds", "SchemaTarget", "SearchResult", "Violation",
    "FuzzReport", "random_model", "exhaustive_models", "find_countermodel",
    "soundness_fuzz", "required_constraints",
]


# ---------------------------------------------------------------------------
# splitmix64

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


class Stream:
    """splitmix64 stream for trial ``draw`` of run ``seed``.

    The initial state is ``mix64((seed * GAMMA + draw) mod 2^64)``; each
    call to :meth:`next` advances the state by GAMMA and returns its
    mix.  ``below(k)`` reduces by remainder: exact for a power of two,
    otherwise off uniform by a total variation of at most k/2^64.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int, draw: int = 0):
        self.state = _mix((seed * _GAMMA + draw) & _MASK)

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, k: int) -> int:
        if k <= 0:
            raise InputError("below() needs a positive bound")
        return self.next() % k


# ---------------------------------------------------------------------------
# Bounds


def _collection(bounds: "SearchBounds", name: str, what: str) -> tuple:
    """Field ``name`` of ``bounds`` as a tuple, stored back; InputError if
    it is no collection, or a string (whose characters would be read)."""
    value = getattr(bounds, name)
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise InputError(f"{name} must be a collection of {what}, "
                         f"got {value!r}")
    value = tuple(value)
    object.__setattr__(bounds, name, value)
    return value


@dataclass(frozen=True)
class SearchBounds:
    """Search space plus generation mode.

    Exhaustive mode is guarded (at most 2 worlds, 2 agents, 2 atoms:
    1 048 640 models at the limit, and most searches stop far
    earlier).  Random mode needs an explicit seed — there is no
    implicit one — and at most 6 worlds so a single 64-bit draw covers
    a family code.
    """

    max_worlds: int
    agents: tuple[int, ...]
    atoms: tuple[str, ...] = ()
    mode: str = "random"
    trials: int = 1000
    seed: "int | None" = None
    frame_constraints: tuple[FrameCondition, ...] = ()

    def __post_init__(self) -> None:
        for name in ("max_worlds", "trials", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool)
                    or name == "seed" and value is None):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.max_worlds < 1:
            raise InputError("max_worlds must be at least 1")
        agents, atoms, constraints = (
            _collection(self, "agents", "agent ids"),
            _collection(self, "atoms", "names"),
            _collection(self, "frame_constraints", "frame conditions"))
        if not agents or len(agent_ids(agents)) != len(agents):
            raise InputError("agents must be distinct and nonempty")
        if not all(isinstance(x, str) for x in atoms):
            raise InputError(f"atoms are names, got {atoms!r}")
        if len(set(atoms)) != len(atoms):
            raise InputError("atoms must be distinct")
        for c in constraints:
            if type(c) not in _BY_CLASS:
                raise InputError(f"unknown frame constraint {c!r}")
            for a in _named_agents(c):
                if a not in agents:
                    raise InputError(
                        f"constraint {format_condition(c)} names an agent "
                        "outside the bounds")
        if self.mode == "random":
            if self.seed is None:
                raise InputError("random mode requires an explicit seed")
            if self.trials < 1:
                raise InputError("trials must be at least 1")
            guard("random-worlds", self.max_worlds)
        elif self.mode == "exhaustive":
            guard("exhaustive-size",
                  max(self.max_worlds, len(agents), len(atoms)))
        else:
            raise InputError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Random generation with constraint repair


# The worlds of a generated model over n worlds, for every n the
# random-worlds guard admits; models share them, as worlds are immutable
_WORLDS = tuple(tuple(World(i, f"w{i}") for i in range(n))
                for n in range(GUARDS["random-worlds"][0] + 1))


def _byte_table(low: int) -> tuple[frozenset[int], ...]:
    """Entry b holds ``low + s`` for each bit s set in the byte b."""
    table = (frozenset(),)
    for s in range(low, low + 8):
        table += tuple(fam | {s} for fam in table)
    return table


# the low and the high byte of a code over up to 4 worlds, by lookup
_LOW, _HIGH = _byte_table(0), _byte_table(8)


def _families(codes: Iterable[int], n: int) -> list[frozenset[int]]:
    """The family of each code over ``n`` worlds: its bit s is subset s."""
    if n <= 3:
        return [_LOW[code] for code in codes]
    if n == 4:
        return [_LOW[code & 255] | _HIGH[code >> 8] for code in codes]
    return [frozenset(s for s in range(1 << n) if (code >> s) & 1)
            for code in codes]


def random_model(bounds: SearchBounds, draw: int) -> AgentModel:
    """The ``draw``-th model of the run — a pure function of
    ``(bounds.seed, draw)``.

    Draw order: domain size uniform in 1..max_worlds; per atom (bounds
    order) a world set; per agent (bounds order) per world (ascending)
    a family code over all 2^|W| subsets.  The model is then repaired
    to satisfy the frame constraints: each (agent, world) family takes
    the repair steps of the constraints on it in the order of the table
    ``_CONDITIONS`` in ``frames`` (insertions, deletions, closures, then
    pruning); the result is re-verified and unsatisfiable combinations
    raise ConstraintError.  PGroup cannot be repaired into place —
    request Reflexive instead, which implies it.
    """
    if bounds.mode != "random":
        raise InputError("random_model needs bounds in random mode")
    rng = Stream(bounds.seed, draw)
    n = 1 + rng.below(bounds.max_worlds)
    valuation = {atom: WorldSet(rng.below(1 << n), n) for atom in bounds.atoms}
    families = {a: _families([rng.below(1 << (1 << n)) for _w in range(n)], n)
                for a in bounds.agents}
    model = _agent_model(_WORLDS[n], valuation,
                         _repair(families, n, bounds.frame_constraints))
    for c in bounds.frame_constraints:
        verdict = check_condition(model, c)
        if not verdict.holds:
            where = (f" at world {verdict.witness.world}"
                     if verdict.witness else "")
            raise ConstraintError(
                f"repair left {format_condition(c)} unsatisfied{where}")
    return model


# ---------------------------------------------------------------------------
# Exhaustive enumeration

def exhaustive_models(bounds: SearchBounds) -> Iterator[AgentModel]:
    """Every model within the bounds, frame constraints as filters.

    Order: domain size ascending; then valuation codes (per atom, last
    atom fastest); then family codes per (agent, world) slot, agents in
    bounds order, worlds ascending, last slot fastest.  Every candidate
    counts toward a visit cap of 1 048 640 models, the size of the
    largest space the bounds admit, whether or not a constraint filters
    it out; NBHD_MAX_STATES may lower that cap.  Yielded models may
    share their per-agent maps, which are then ``_SharedMap`` objects
    and keep the results of ``check_condition`` on them.  Candidates are
    built from the checked bounds and are not checked again.
    """
    if bounds.mode != "exhaustive":
        raise InputError("exhaustive_models needs bounds in exhaustive mode")
    cap = limit("visits")
    visited = 0
    # a map serves more than one candidate only with several agents or
    # any atom; a memo on maps of one candidate each raised the median
    # time of the 1-agent jobs by about 9%
    new_map = (_SharedMap if len(bounds.agents) > 1 or bounds.atoms
               else NeighbourhoodMap)
    for n in range(1, bounds.max_worlds + 1):
        worlds = _WORLDS[n]
        n_sets = 1 << n
        # one map per tuple of per-world family codes, first world slowest
        fams = _families(range(1 << n_sets), n)
        maps = [new_map(n, per_world)
                for per_world in itertools.product(fams, repeat=n)]
        for vcodes in itertools.product(range(n_sets),
                                        repeat=len(bounds.atoms)):
            valuation = {atom: WorldSet(bits, n)
                         for atom, bits in zip(bounds.atoms, vcodes)}
            for chosen in itertools.product(maps, repeat=len(bounds.agents)):
                visited += 1
                if visited > cap:
                    guard("visits", visited)
                model = _agent_model(worlds, valuation,
                                     dict(zip(bounds.agents, chosen)))
                if all(check_condition(model, c).holds
                       for c in bounds.frame_constraints):
                    yield model


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass(frozen=True)
class SchemaTarget:
    """A schema to refute, with the checking mode and group pool."""

    schema: SchemaId
    mode: str = "all-subsets"
    pool: "tuple[Group, ...] | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.schema, SchemaId):
            raise InputError("a schema target needs a SchemaId, "
                             f"got {self.schema!r}")
        _check_mode(self.mode)
        if self.pool is not None:
            object.__setattr__(self, "pool", _group_pool(self.pool, True))


@dataclass(frozen=True)
class SearchResult:
    model: AgentModel
    witness: "str | CounterExample"
    draw: "int | None" = None
    index: "int | None" = None


def _refutes(m: AgentModel, target: "Formula | SchemaTarget"
             ) -> "str | CounterExample | None":
    if isinstance(target, SchemaTarget):
        verdict = check_schema_semantically(m, target.schema, target.mode,
                                            target.pool)
        return None if verdict.valid else verdict.counterexample
    return _first_outside(m, truth_set(m, target))


@limits_read_once()
def find_countermodel(target: "Formula | SchemaTarget",
                      bounds: SearchBounds) -> "SearchResult | None":
    """First model in the bounds on which the target fails.

    For a formula the witness is the first world (ascending) where it
    is false; for a schema it is the first semantic counterexample.
    Returning None means none was found *within the bounds* — it is
    never a validity proof.  NBHD_MAX_STATES is read once per call.
    """
    exhaustive = bounds.mode == "exhaustive"
    models = (exhaustive_models(bounds) if exhaustive else
              (random_model(bounds, draw) for draw in range(bounds.trials)))
    for i, m in enumerate(models):
        witness = _refutes(m, target)
        if witness is not None:
            return SearchResult(m, witness, **{
                "index" if exhaustive else "draw": i})
    return None


# ---------------------------------------------------------------------------
# Soundness fuzzing

def required_constraints(l: LogicDescriptor,
                         agents: Sequence[int]) -> tuple[FrameCondition, ...]:
    """Frame constraints matching the logic, for sound fuzzing: for each
    extension, the condition whose frames validate it (B1–B4 need none;
    SA needs Nec for every agent in the bounds).
    """
    out: list[FrameCondition] = []
    for s in sorted(l.extensions, key=format_schema):
        for row in (r for r in _CONDITIONS if s.kind in r.schemas):
            if row.subject == "every":
                out.append(row.cls())
            else:  # SA names no agent and needs nec for all of them
                ids = agents if s.agent is None else (s.agent,)
                out.extend(row.cls(a) for a in ids)
    return tuple(dict.fromkeys(out))


@dataclass(frozen=True)
class Violation:
    draw: int
    model: AgentModel
    schema: SchemaId
    witness: CounterExample


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    schemas: tuple[SchemaId, ...]
    violations: tuple[Violation, ...] = field(default=())

    def to_text(self) -> str:
        lines = [
            f"trials: {self.trials}",
            "schemas: " + " ".join(format_schema(s) for s in self.schemas),
            f"violations: {len(self.violations)}",
        ]
        lines.extend(
            f"violation: draw {v.draw} schema {format_schema(v.schema)} "
            f"at {v.witness.describe()}"
            for v in self.violations)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "schemas": [format_schema(s) for s in self.schemas],
            "violations": [
                {"draw": v.draw,
                 "model": model_to_dict(v.model),
                 "schema": format_schema(v.schema),
                 "witness": counterexample_to_dict(v.witness, v.model)}
                for v in self.violations],
        }


@limits_read_once()
def soundness_fuzz(l: LogicDescriptor, bounds: SearchBounds) -> FuzzReport:
    """Check every schema of ``l`` on each generated model (all-subsets
    mode) and report the violations, least draw first.

    The bounds must carry the frame constraints the logic corresponds
    to (see :func:`required_constraints`); without them violations
    would be expected, not news, so the mismatch is an error.
    NBHD_MAX_STATES is read once per call.
    """
    if bounds.mode != "random":
        raise InputError("soundness_fuzz needs bounds in random mode")
    missing = [c for c in required_constraints(l, bounds.agents)
               if c not in bounds.frame_constraints]
    if missing:
        raise ConstraintError(
            "bounds are missing the frame constraints matching the logic: "
            + ", ".join(format_condition(c) for c in missing))
    pool = unions_up_to(bounds.agents)
    schemas = l.schemas()
    violations = []
    for draw in range(bounds.trials):
        m = random_model(bounds, draw)
        for s in schemas:
            verdict = check_schema_semantically(m, s, "all-subsets", pool)
            if not verdict.valid:
                violations.append(Violation(draw, m, s,
                                            verdict.counterexample))
    return FuzzReport(bounds.trials, schemas, tuple(violations))
