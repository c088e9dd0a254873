"""Exception types shared across the package.

Everything raised on purpose derives from :class:`NbhdError`, so callers
(for instance the command line front end) can distinguish bad input from
genuine bugs with one except clause; :class:`InputError` is a ValueError too.
"""

from __future__ import annotations


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
    """A computation would exceed the configured resource guards."""


class ConstraintError(NbhdError):
    """A frame-constraint set cannot be satisfied or repaired as requested."""


class UnsupportedModelError(NbhdError):
    """An operation is only defined for the other model kind."""


class ProofFormatError(NbhdError):
    """A proof file or proof object is structurally malformed."""
