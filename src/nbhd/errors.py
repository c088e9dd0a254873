"""Exception types shared across the package, and its resource guards.

Everything raised on purpose derives from :class:`NbhdError`, so callers
(for instance the command line front end) can distinguish bad input from
genuine bugs with one except clause; :class:`InputError` is a ValueError too.
Each resource guard is one row of ``GUARDS``; a site passes what it needs to
:func:`guard`, or on a hot path compares it with :func:`limit` first.
Inside :func:`limits_read_once` every guard uses the NBHD_MAX_STATES read
on entry; elsewhere each guard reads it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar


class NbhdError(Exception):
    """Base class for all errors this package raises deliberately."""


class InputError(NbhdError, ValueError):
    """An argument or input text is malformed or out of range."""


class FormulaSyntaxError(NbhdError):
    """Raised by the parser; carries the offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ModelFormatError(NbhdError):
    """A model description (dict or JSON file) violates the schema."""


class UnknownWorldError(NbhdError):
    """A world reference does not name a world of the model."""


class ResourceLimitError(NbhdError):
    """A computation would exceed a resource guard: ``guard`` names its
    row of ``GUARDS``, ``limit`` is the limit in force and ``requested``
    what was asked for (None when NBHD_MAX_STATES itself is bad)."""

    def __init__(self, message, guard=None, limit=None, requested=None):
        super().__init__(message)
        self.guard, self.limit, self.requested = guard, limit, requested


class ConstraintError(NbhdError):
    """A frame-constraint set cannot be satisfied or repaired as requested."""


class UnsupportedModelError(NbhdError):
    """An operation is only defined for the other model kind."""


class ProofFormatError(NbhdError):
    """A proof file or proof object is structurally malformed."""


# ---------------------------------------------------------------------------
# Resource guards

_SIZE = 2  # exhaustive mode's bound on worlds, agents and atoms

# name: (built-in limit, whether NBHD_MAX_STATES may lower it, message
# formatted with limit, requested and the raising site's fields); the
# visit cap is every candidate of the largest space exhaustive mode
# admits: per domain size n, 2^n sets per atom, 2^(2^n) families per slot
GUARDS = {
    "group-size": (8, False, "group {group} exceeds the size-{limit} "
                   "derivation guard"),
    "product": (1_000_000, True, "group {group} needs {requested} "
                "intersections at world {world}, over the {limit} guard"),
    "subsets": (64, True, "all-subsets mode over {worlds} worlds needs "
                "{requested} sets, over the {limit}-state guard; use "
                "definable-only mode"),
    "units": (20, False, "tautology check over {requested} units exceeds "
              "the {limit}-unit guard"),
    "random-worlds": (6, False,
                      "random generation supports at most {limit} worlds"),
    "exhaustive-size": (_SIZE, False, "exhaustive mode is guarded to at most "
                        "{limit} worlds, {limit} agents and {limit} atoms"),
    "visits": (sum(2 ** (n * _SIZE + (1 << n) * n * _SIZE)
                   for n in range(1, _SIZE + 1)), True,
               "exhaustive search visited more than {limit} models "
               "(NBHD_MAX_STATES)"),
}


# NBHD_MAX_STATES as read on entry to the innermost limits_read_once
# block in force, in a 1-tuple, since the variable may be unset
_READ: ContextVar = ContextVar("nbhd_max_states_read")


@contextmanager
def limits_read_once():
    """Read NBHD_MAX_STATES once for the block: every guard inside it
    uses that value."""
    token = _READ.set((os.environ.get("NBHD_MAX_STATES"),))
    try:
        yield
    finally:
        _READ.reset(token)


def limit(name: str) -> int:
    """The limit in force for guard ``name``: NBHD_MAX_STATES where the
    row lets it lower the built-in limit.  The one parser of that
    variable, so a bad value fails alike in every lowerable guard."""
    default, lowerable, _ = GUARDS[name]
    if not lowerable:
        return default
    read = _READ.get(None)
    raw = os.environ.get("NBHD_MAX_STATES") if read is None else read[0]
    if not raw:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ResourceLimitError(
            f"NBHD_MAX_STATES={raw!r} is not a positive integer",
            name, default)
    return min(default, cap)


def guard(name: str, requested: int, **fields) -> None:
    """Raise guard ``name``'s error if ``requested`` is over its limit;
    ``fields`` fill the rest of the row's message."""
    most = limit(name)
    if requested > most:
        raise ResourceLimitError(GUARDS[name][2].format(
            limit=most, requested=requested, **fields), name, most, requested)
