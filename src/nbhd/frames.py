"""Frame conditions and closure operators on neighbourhood families.

Conditions either require or forbid membership of particular sets
(``Nec``, ``Conec``, ``P``, ``Cop``, ``PGroup``), constrain every member
(``Reflexive``, ``BinaryConsistent``) or demand closure of the family
(``Monotone``, ``IntersectionClosed``).  ``check_condition`` reports the
lexicographically least witness (world index, agent or group, set) when
a condition fails.

``_CONDITIONS`` has one row per condition class, in repair order: its
name, what it quantifies over, its test of one family at one world, its
repair step and the extension schemas valid on its frames.  Those are
valid on every model of the class; the converse fails for PG, for SA
and, with several agents, for DI (see the README).

The closure operators only make sense for agent-indexed models, because
they change the derived group families through the primitive ones; a
GeneralModel is rejected.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import (
    ConstraintError, InputError, ModelFormatError, UnsupportedModelError,
)
from .formula import (
    Group, _Value, agent_ids, read_agent, read_agents, read_text,
)
from .model import (
    AgentModel, Model, NeighbourhoodMap, WorldSet, _default_families,
    group_families,
)

__all__ = [
    "FrameCondition", "Nec", "Conec", "P", "Cop", "PGroup", "Reflexive",
    "BinaryConsistent", "Monotone", "IntersectionClosed",
    "ConditionVerdict", "FrameWitness", "check_condition",
    "close_under_supersets", "close_under_intersections",
    "parse_condition", "format_condition",
]


class _AgentCondition(_Value):
    """The shape of the conditions on one agent's families."""

    __slots__ = ("agent",)

    def __init__(self, agent: int) -> None:
        agent_ids((agent,))
        object.__setattr__(self, "agent", agent)


class Nec(_AgentCondition):
    """The full set W belongs to every family of the agent."""
    __slots__ = ()


class Conec(_AgentCondition):
    """The full set W belongs to no family of the agent."""
    __slots__ = ()


class P(_AgentCondition):
    """The empty set belongs to no family of the agent."""
    __slots__ = ()


class Cop(_AgentCondition):
    """The empty set belongs to every family of the agent."""
    __slots__ = ()


class PGroup(_Value):
    """The empty set is outside the group's (derived) family everywhere."""

    __slots__ = ("group",)

    def __init__(self, group: Group) -> None:
        if not isinstance(group, Group):
            raise InputError(f"PGroup needs a Group, got {group!r}")
        object.__setattr__(self, "group", group)


class _EveryCondition(_Value):
    """The shape of the conditions on every family alike."""
    __slots__ = ()


class Reflexive(_EveryCondition):
    """Every member of every family contains its own world."""
    __slots__ = ()


class BinaryConsistent(_EveryCondition):
    """No family contains both a set and its complement."""
    __slots__ = ()


class Monotone(_EveryCondition):
    """Families are closed under supersets."""
    __slots__ = ()


class IntersectionClosed(_EveryCondition):
    """Families are closed under binary (hence finite) intersections."""
    __slots__ = ()


FrameCondition = (Nec | Conec | P | Cop | PGroup | Reflexive
                  | BinaryConsistent | Monotone | IntersectionClosed)


class FrameWitness(_Value):
    """Where a condition fails.

    ``subject`` is the agent or group concerned.  For presence
    conditions (Nec, Cop) ``offending`` is the required-but-missing
    set; for Monotone it is a missing superset and for
    IntersectionClosed a missing intersection; otherwise it is the
    member that violates the condition.
    """

    __slots__ = ("world", "subject", "offending")

    def __init__(self, world: str, subject: "int | Group",
                 offending: WorldSet) -> None:
        object.__setattr__(self, "world", world)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "offending", offending)


class ConditionVerdict(_Value):
    __slots__ = ("holds", "witness", "note")

    def __init__(self, holds: bool, witness: FrameWitness | None = None,
                 note: str | None = None) -> None:
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "note", note)


_Families = tuple[frozenset[int], ...]  # one per world


def _subjects(m: Model) -> list[tuple["int | Group", _Families, "dict | None"]]:
    """Families quantified over by the agent-generic conditions, with
    their map's memo: every agent ascending, or on a GeneralModel the
    stored primitive group entries, sorted by size then members."""
    if isinstance(m, AgentModel):
        return [(a, m.agents[a].families, m.agents[a]._memo)
                for a in sorted(m.agents)]
    return [(g, m.groups[g].families, m.groups[g]._memo)
            for g in sorted(m.groups, key=Group.sort_key)]


def _agent_family(m: Model, agent: int
                  ) -> tuple[_Families, "dict | None", str | None]:
    """An agent's primitive families, their map's memo, and a note if
    the agent is absent."""
    agents = isinstance(m, AgentModel)
    nm = m.agents.get(agent) if agents else m.groups.get(Group.of(agent))
    if nm is not None:
        return nm.families, nm._memo, None
    return _default_families(m), None, (
        f"agent {agent} is absent from the model" if agents else
        f"group {{{agent}}} has no entry; using the default family {{{{}}}}")


# ---------------------------------------------------------------------------
# The table of conditions: local tests and repair steps on the family
# ``fam`` at world ``w``, where ``full`` is W


def _irreflexive_member(fam, w, full):
    for x in sorted(fam):
        if not (x >> w) & 1:
            return x
    return None


def _complemented_member(fam, w, full):
    for x in sorted(fam):
        if (full ^ x) in fam:
            return x
    return None


def _missing_superset(fam, w, full):
    for x in sorted(fam):
        for y in range(full + 1):
            if x & y == x and y not in fam:
                return y
    return None


def _missing_intersection(fam, w, full):
    members = sorted(fam)
    for x in members:
        for y in members:
            if x & y not in fam:
                return x & y
    return None


def _close_supersets(fam, w, full, keep_full):
    return frozenset(y for y in range(full + 1)
                     if any(x & y == x for x in fam))


def _close_intersections(fam, w, full, keep_full):
    # After member x, ``out`` holds every intersection of a nonempty
    # subfamily of the members up to x.
    out = set(fam)
    for x in fam:
        out |= {x & y for y in out}
    return frozenset(out)


def _prune_complements(fam, w, full, keep_full):
    # Drop the later set of each complementary pair.  The only pair a
    # constraint can pin is (empty set, W): keep_full says nec pins W.
    out = set(fam)
    for x in fam:
        y = full ^ x
        if x < y and y in fam:
            out.discard(x if keep_full and y == full else y)
    return frozenset(out)


class _Row(NamedTuple):
    name: str        # as the CLI and the constraint syntax spell it
    cls: type
    subject: str     # its field, "agent" or "group"; or "every" subject
    offending: Callable  # (fam, w, full) -> least witness set, or None
    repair: "Callable | None"  # (fam, w, full, keep_full) -> fixed family
    schemas: tuple[str, ...]  # extension kinds valid on its frames


# In repair order: insertions, deletions, closures, then pruning; the
# steps within one of those phases commute.  PGroup reads the derived
# group family, which no repair step reaches.
_CONDITIONS = (
    _Row("nec", Nec, "agent", lambda f, w, full: None if full in f else full,
         lambda f, w, full, keep_full: f | {full}, ("NEC", "SA")),
    _Row("cop", Cop, "agent", lambda f, w, full: None if 0 in f else 0,
         lambda f, w, full, keep_full: f | {0}, ("COP",)),
    _Row("reflexive", Reflexive, "every", _irreflexive_member,
         lambda f, w, full, keep_full: frozenset(x for x in f if x >> w & 1),
         ("TG", "PG")),
    _Row("p", P, "agent", lambda f, w, full: 0 if 0 in f else None,
         lambda f, w, full, keep_full: f - {0}, ("P",)),
    _Row("conec", Conec, "agent", lambda f, w, full: full if full in f else None,
         lambda f, w, full, keep_full: f - {full}, ("CONEC",)),
    _Row("monotone", Monotone, "every", _missing_superset, _close_supersets,
         ("RMG",)),
    _Row("intclosed", IntersectionClosed, "every", _missing_intersection,
         _close_intersections, ("CG",)),
    _Row("bincons", BinaryConsistent, "every", _complemented_member,
         _prune_complements, ("DI",)),
    _Row("pg", PGroup, "group", lambda f, w, full: 0 if 0 in f else None,
         None, ()),
)
_BY_NAME = {row.name: row for row in _CONDITIONS}
_BY_CLASS = {row.cls: row for row in _CONDITIONS}


def _row(c: FrameCondition) -> _Row:
    row = _BY_CLASS.get(type(c))
    if row is None:
        raise TypeError(f"not a frame condition: {c!r}")
    return row


_HOLDS = ConditionVerdict(True)
_UNSET = object()


def _first_offence(row: _Row, fams: _Families, memo: "dict | None"
                   ) -> "list | None":
    """Where ``row``'s test first fails on ``fams``: None if nowhere,
    else ``[world, witness set, worlds, subject, verdict]``, whose last
    three slots hold the verdict last built from it and what it was
    built for.  ``memo`` is the ``_memo`` of a ``_SharedMap`` holding
    ``fams``, which keeps the result per row, or None."""
    hit = _UNSET if memo is None else memo.get(row.name, _UNSET)
    if hit is _UNSET:
        hit = None
        full = (1 << len(fams)) - 1
        for w, fam in enumerate(fams):
            bad = row.offending(fam, w, full)
            if bad is not None:
                hit = [w, bad, None, None, None]
                break
        if memo is not None:
            memo[row.name] = hit
    return hit


def check_condition(m: Model, c: FrameCondition) -> ConditionVerdict:
    """Check ``c`` on ``m``; on failure report the least witness.

    A condition naming an agent the model does not mention is reported
    via ``note``; it holds vacuously when it only restricts members and
    fails when it requires a member to be present.

    A map that many models share (those of exhaustive search) keeps its
    first offence per condition, so maps must not be mutated after
    construction.  Verdicts are shared between calls (a condition that
    holds without a note always returns the same object); they are
    frozen.
    """
    row = _row(c)
    note = None
    if row.subject == "agent":
        fams, memo, note = _agent_family(m, c.agent)
        subjects = ((c.agent, fams, memo),)
    elif row.subject == "group":
        subjects = ((c.group, group_families(m, c.group), None),)
    else:
        subjects = _subjects(m)
    # the least world, ties to the first subject, as a world-major search
    # finds it; no later subject can beat world 0
    best = None
    for subject, fams, memo in subjects:
        hit = _first_offence(row, fams, memo)
        if hit is not None and (best is None or hit[0] < best[0]):
            best, who = hit, subject
            if hit[0] == 0:
                break
    if best is None:
        return _HOLDS if note is None else ConditionVerdict(True, None, note)
    w, bad, built_worlds, built_for, verdict = best
    if built_for == who and (built_worlds is m.worlds
                             or built_worlds == m.worlds):
        return verdict
    verdict = ConditionVerdict(False, FrameWitness(
        m.worlds[w].label, who, WorldSet(bad, len(m.worlds))), note)
    best[2:] = m.worlds, who, verdict
    return verdict


# ---------------------------------------------------------------------------
# Repair and closure: the table's repair steps applied to agents' families


def _named_agents(c: FrameCondition) -> tuple[int, ...]:
    """The agents ``c`` names; none if it is on every family alike."""
    subject = _row(c).subject
    return ((c.agent,) if subject == "agent" else
            c.group.members if subject == "group" else ())


# Conditions that one agent's families cannot all meet; {a} is the agent
_CONFLICTS = (
    ({Nec, Conec}, "nec:{a} and conec:{a} cannot both hold"),
    ({P, Cop}, "p:{a} and cop:{a} cannot both hold"),
    ({BinaryConsistent, Nec, Cop}, "bincons with nec:{a} and cop:{a} cannot "
     "hold: the empty set and the full set are complements"),
)


def _repair(families: "dict[int, list[frozenset[int]]]", n: int,
            constraints: Sequence[FrameCondition]
            ) -> dict[int, NeighbourhoodMap]:
    """Maps of each agent's per-world ``families`` over ``n`` worlds after
    the constraints' repair steps on them, in table order; ConstraintError
    if a constraint has none or, least agent first, they conflict."""
    named = []
    for c in constraints:
        if _row(c).repair is None:
            raise ConstraintError(f"{format_condition(c)} cannot be enforced "
                                  "by repair; use reflexive, which implies it")
        named.append((type(c), _named_agents(c)))
    full = (1 << n) - 1
    for a in sorted(families):
        kinds = {cls for cls, names in named if not names or a in names}
        if not kinds:
            continue  # no constraint is on this agent
        for together, message in _CONFLICTS:
            if together <= kinds:
                raise ConstraintError(message.format(a=a))
        steps = [row.repair for row in _CONDITIONS if row.cls in kinds]
        keep_full = Nec in kinds
        fams = families[a]
        for w, fam in enumerate(fams):
            for step in steps:
                fam = step(fam, w, full, keep_full)
            fams[w] = fam
    return {a: NeighbourhoodMap(n, fams) for a, fams in families.items()}


def _closed_model(m: AgentModel, c: FrameCondition) -> AgentModel:
    if not isinstance(m, AgentModel):
        raise UnsupportedModelError(
            "closure operators require an agent-indexed model")
    families = {a: list(nm.families) for a, nm in m.agents.items()}
    return AgentModel(m.worlds, dict(m.valuation),
                      _repair(families, len(m.worlds), (c,)))


def close_under_supersets(m: AgentModel) -> AgentModel:
    """Superset-close every agent family (valuation and worlds unchanged)."""
    return _closed_model(m, Monotone())


def close_under_intersections(m: AgentModel) -> AgentModel:
    """Close every agent family under intersections of nonempty subfamilies."""
    return _closed_model(m, IntersectionClosed())


# ---------------------------------------------------------------------------
# Names used by the command line and the constraint syntax


def parse_condition(text: str) -> FrameCondition:
    """Parse names like ``reflexive``, ``nec:2`` or ``pg:1,2``."""
    name, sep, arg = read_text(text, "parse_condition").strip().partition(":")
    name = name.lower()
    row = _BY_NAME.get(name)
    if row is None:
        raise ModelFormatError(f"unknown frame condition {text!r}")
    if row.subject == "every":
        if sep:
            raise ModelFormatError(f"condition {name!r} takes no argument")
        return row.cls()
    try:
        if row.subject == "agent":
            return row.cls(read_agent(arg, f"condition {name!r}"))
        return row.cls(Group(read_agents(arg, f"bad group in {text!r}:")))
    except InputError as exc:
        raise ModelFormatError(str(exc)) from None


def format_condition(c: FrameCondition) -> str:
    row = _row(c)
    if row.subject == "every":
        return row.name
    return f"{row.name}:{getattr(c, row.subject)}"
