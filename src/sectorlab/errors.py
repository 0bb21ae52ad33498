"""Exception hierarchy shared across the package.

Every error raised deliberately by this library derives from
:class:`SectorLabError`, so callers can catch one base class.  The command
line front end maps subclasses onto process exit codes.
"""

from __future__ import annotations

import numbers
import operator
import sys


class SectorLabError(Exception):
    """Base class for all errors raised by sectorlab."""


class InputError(SectorLabError):
    """Malformed user input: bad coefficient strings, unknown operator specs."""


# --- polynomial construction ------------------------------------------------

class ZeroPolynomialError(SectorLabError):
    """The zero polynomial was produced or requested; it has no degree."""


class InvalidRootSpecError(SectorLabError):
    """Root data violates the sector constraints (x >= 0, a > 0, b > 0)."""


# --- root solving -----------------------------------------------------------

class DegreeZeroError(SectorLabError):
    """A nonzero constant has no zeros to solve for."""


class NonConvergenceError(SectorLabError):
    """The solve did not certify every zero to the residual threshold."""

    def __init__(self, message: str, location: complex | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.location = location
        self.residual = residual


# --- geometry ---------------------------------------------------------------

class NonpositiveRootPartError(SectorLabError):
    """Disc construction requires a > 0 and b > 0."""


class EmptyDiscError(SectorLabError):
    """Tangency data requested for an empty disc."""


class NotInRightHalfPlaneError(SectorLabError):
    """A zero with |arg z| >= pi/2: it admits no enclosing sector, and (for
    principal logarithms) no strip."""

    def __init__(self, message: str, offender: complex | None = None):
        super().__init__(message)
        self.offender = offender


class OffAxisError(SectorLabError):
    """No zeros remained to measure a double sector from."""


# --- operators --------------------------------------------------------------

class DegenerateSequenceError(SectorLabError):
    """A multiplier sequence annihilated every coefficient."""


class HypothesisViolationError(SectorLabError):
    """Operator applied outside its guaranteed parameter region."""


class DomainError(SectorLabError):
    """Numeric argument outside the domain of a closed-form bound."""


# --- analysis ---------------------------------------------------------------

class ZeroInteriorTermError(SectorLabError):
    """A vanishing interior term makes the ratio r_n undefined."""


class DegenerateLeadingError(SectorLabError):
    """The transformed leading coefficient vanished; no quadratic remains."""


class SignFlipError(HypothesisViolationError):
    """Endpoint terms of the sequence are zero or of opposite sign: the
    double-sector theorem's hypothesis fails."""


def shown(value) -> str:
    """``repr(value)`` for an error message.  An int past Python's int-to-str
    digit limit, whose ``repr`` raises ValueError, shows as its bit length,
    and a container of one as its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to show"


def check_number(value, name: str, error=SectorLabError, finite=True):
    """``value`` itself when it is a real number (a bool or a string is not),
    and unless ``finite`` is false a finite one; otherwise raise ``error``."""
    if not (type(value) in (float, int) or isinstance(value, numbers.Real)
            and not isinstance(value, bool)):
        raise error(f"{name} must be a number, got {shown(value)}")
    # NaN fails the comparison, and so does an int past the float range
    if finite and not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be finite, got {shown(value)}")
    return value


def check_integer(value, name: str, error=SectorLabError) -> int:
    """``value`` as an int when it is an integer: an int or a numpy integer,
    never a bool (nor a float, even an integral one); otherwise raise
    ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {shown(value)}")
