"""Frame conditions and closure operators on neighbourhood families.

Conditions either require or forbid membership of particular sets
(``Nec``, ``Conec``, ``P``, ``Cop``, ``PGroup``), constrain every member
(``Reflexive``, ``BinaryConsistent``) or demand closure of the family
(``Monotone``, ``IntersectionClosed``).  ``check_condition`` reports the
lexicographically least witness (world index, agent or group, set) when
a condition fails.

The closure operators only make sense for agent-indexed models, because
they change the derived group families through the primitive ones; a
GeneralModel is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ModelFormatError, UnsupportedModelError
from .formula import Group
from .model import (
    AgentModel, GeneralModel, Model, NeighbourhoodMap, WorldSet,
    group_families,
)

__all__ = [
    "FrameCondition", "Nec", "Conec", "P", "Cop", "PGroup", "Reflexive",
    "BinaryConsistent", "Monotone", "IntersectionClosed",
    "ConditionVerdict", "FrameWitness", "check_condition",
    "close_under_supersets", "close_under_intersections",
    "parse_condition", "format_condition",
]


@dataclass(frozen=True)
class Nec:
    """The full set W belongs to every family of the agent."""
    agent: int


@dataclass(frozen=True)
class Conec:
    """The full set W belongs to no family of the agent."""
    agent: int


@dataclass(frozen=True)
class P:
    """The empty set belongs to no family of the agent."""
    agent: int


@dataclass(frozen=True)
class Cop:
    """The empty set belongs to every family of the agent."""
    agent: int


@dataclass(frozen=True)
class PGroup:
    """The empty set is outside the group's (derived) family everywhere."""
    group: Group


@dataclass(frozen=True)
class Reflexive:
    """Every member of every family contains its own world."""


@dataclass(frozen=True)
class BinaryConsistent:
    """No family contains both a set and its complement."""


@dataclass(frozen=True)
class Monotone:
    """Families are closed under supersets."""


@dataclass(frozen=True)
class IntersectionClosed:
    """Families are closed under binary (hence finite) intersections."""


FrameCondition = Union[
    Nec, Conec, P, Cop, PGroup, Reflexive, BinaryConsistent, Monotone,
    IntersectionClosed,
]


@dataclass(frozen=True)
class FrameWitness:
    """Where a condition fails.

    ``subject`` is the agent or group concerned.  For presence
    conditions (Nec, Cop) ``offending`` is the required-but-missing
    set; for Monotone it is a missing superset and for
    IntersectionClosed a missing intersection; otherwise it is the
    member that violates the condition.
    """

    world: str
    subject: "int | Group"
    offending: WorldSet


@dataclass(frozen=True)
class ConditionVerdict:
    holds: bool
    witness: FrameWitness | None = None
    note: str | None = None


def _subjects(m: Model) -> list[tuple["int | Group", tuple[frozenset[int], ...]]]:
    """Families quantified over by the agent-generic conditions.

    For an AgentModel: every agent, ascending.  For a GeneralModel: the
    stored primitive group entries, sorted by size then members.
    """
    if isinstance(m, AgentModel):
        return [(a, m.agents[a].families) for a in sorted(m.agents)]
    return [(g, m.groups[g].families)
            for g in sorted(m.groups, key=Group.sort_key)]


def _agent_family(m: Model, agent: int) -> tuple[tuple[frozenset[int], ...], str | None]:
    """An agent's primitive families plus a note if the agent is absent."""
    if isinstance(m, AgentModel):
        nm = m.agents.get(agent)
        if nm is not None:
            return nm.families, None
        n = len(m.worlds)
        return (frozenset(),) * n, f"agent {agent} is absent from the model"
    g = Group.of(agent)
    nm = m.groups.get(g)
    if nm is not None:
        return nm.families, None
    n = len(m.worlds)
    return (frozenset((0,)),) * n, \
        f"group {{{agent}}} has no entry; using the default family {{{{}}}}"


def check_condition(m: Model, c: FrameCondition) -> ConditionVerdict:
    """Check ``c`` on ``m``; on failure report the least witness.

    A condition naming an agent the model does not mention is reported
    via ``note``; it holds vacuously when it only restricts members and
    fails when it requires a member to be present.
    """
    n = len(m.worlds)
    full = (1 << n) - 1

    def ws(bits: int) -> WorldSet:
        return WorldSet(bits, n)

    if isinstance(c, (Nec, Conec, P, Cop)):
        fams, note = _agent_family(m, c.agent)
        required = {Nec: full, Cop: 0}.get(type(c))
        forbidden = {Conec: full, P: 0}.get(type(c))
        for w in range(n):
            if required is not None and required not in fams[w]:
                return ConditionVerdict(
                    False, FrameWitness(m.worlds[w].label, c.agent, ws(required)),
                    note)
            if forbidden is not None and forbidden in fams[w]:
                return ConditionVerdict(
                    False, FrameWitness(m.worlds[w].label, c.agent, ws(forbidden)),
                    note)
        return ConditionVerdict(True, None, note)

    if isinstance(c, PGroup):
        fams = group_families(m, c.group)
        for w in range(n):
            if 0 in fams[w]:
                return ConditionVerdict(
                    False, FrameWitness(m.worlds[w].label, c.group, ws(0)))
        return ConditionVerdict(True)

    if isinstance(c, Reflexive):
        for w in range(n):
            for subject, fams in _subjects(m):
                for x in sorted(fams[w]):
                    if not (x >> w) & 1:
                        return ConditionVerdict(
                            False, FrameWitness(m.worlds[w].label, subject, ws(x)))
        return ConditionVerdict(True)

    if isinstance(c, BinaryConsistent):
        for w in range(n):
            for subject, fams in _subjects(m):
                fam = fams[w]
                for x in sorted(fam):
                    if (full ^ x) in fam:
                        return ConditionVerdict(
                            False, FrameWitness(m.worlds[w].label, subject, ws(x)))
        return ConditionVerdict(True)

    if isinstance(c, Monotone):
        for w in range(n):
            for subject, fams in _subjects(m):
                fam = fams[w]
                for x in sorted(fam):
                    for y in range(full + 1):
                        if x & y == x and y not in fam:
                            return ConditionVerdict(
                                False,
                                FrameWitness(m.worlds[w].label, subject, ws(y)))
        return ConditionVerdict(True)

    if isinstance(c, IntersectionClosed):
        for w in range(n):
            for subject, fams in _subjects(m):
                fam = sorted(fams[w])
                members = fams[w]
                for x in fam:
                    for y in fam:
                        if x & y not in members:
                            return ConditionVerdict(
                                False,
                                FrameWitness(m.worlds[w].label, subject, ws(x & y)))
        return ConditionVerdict(True)

    raise TypeError(f"not a frame condition: {c!r}")


# ---------------------------------------------------------------------------
# Closure operators


def _close_family_supersets(fam: frozenset[int], full: int) -> frozenset[int]:
    return frozenset(y for y in range(full + 1)
                     if any(x & y == x for x in fam))


def _close_family_intersections(fam: frozenset[int]) -> frozenset[int]:
    # Binary closure reaches every intersection of a nonempty subfamily.
    out = set(fam)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            z = x & y
            if z not in out:
                out.add(z)
                frontier.append(z)
    return frozenset(out)


def _closed_model(m: AgentModel, close) -> AgentModel:
    if not isinstance(m, AgentModel):
        raise UnsupportedModelError(
            "closure operators require an agent-indexed model")
    n = len(m.worlds)
    agents = {
        a: NeighbourhoodMap(n, (close(nm.families[w]) for w in range(n)))
        for a, nm in m.agents.items()}
    return AgentModel(m.worlds, dict(m.valuation), agents)


def close_under_supersets(m: AgentModel) -> AgentModel:
    """Superset-close every agent family (valuation and worlds unchanged)."""
    full = (1 << len(m.worlds)) - 1
    return _closed_model(m, lambda fam: _close_family_supersets(fam, full))


def close_under_intersections(m: AgentModel) -> AgentModel:
    """Close every agent family under intersections of nonempty subfamilies."""
    return _closed_model(m, _close_family_intersections)


# ---------------------------------------------------------------------------
# Names used by the command line and the constraint syntax

_SIMPLE_CONDITIONS = {
    "reflexive": Reflexive,
    "bincons": BinaryConsistent,
    "monotone": Monotone,
    "intclosed": IntersectionClosed,
}

_AGENT_CONDITIONS = {"nec": Nec, "conec": Conec, "p": P, "cop": Cop}


def parse_condition(text: str) -> FrameCondition:
    """Parse names like ``reflexive``, ``nec:2`` or ``pg:1,2``."""
    name, sep, arg = text.strip().partition(":")
    name = name.lower()
    if name in _SIMPLE_CONDITIONS:
        if sep:
            raise ModelFormatError(f"condition {name!r} takes no argument")
        return _SIMPLE_CONDITIONS[name]()
    if name in _AGENT_CONDITIONS:
        try:
            agent = int(arg)
        except ValueError:
            agent = None
        if agent is None or agent < 0:
            raise ModelFormatError(
                f"condition {name!r} needs an agent id, got {arg!r}")
        return _AGENT_CONDITIONS[name](agent)
    if name == "pg":
        try:
            return PGroup(Group(tuple(int(p) for p in arg.split(","))))
        except ValueError as exc:
            raise ModelFormatError(f"bad group in {text!r}: {exc}") from None
    raise ModelFormatError(f"unknown frame condition {text!r}")


def format_condition(c: FrameCondition) -> str:
    if isinstance(c, PGroup):
        return f"pg:{c.group}"
    for name, cls in _AGENT_CONDITIONS.items():
        if isinstance(c, cls):
            return f"{name}:{c.agent}"
    for name, cls in _SIMPLE_CONDITIONS.items():
        if isinstance(c, cls):
            return name
    raise TypeError(f"not a frame condition: {c!r}")
