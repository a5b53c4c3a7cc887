"""The package's refusals: four exception classes and the guards that raise them.

A bad argument raises OutOfRange (the CLI exits 2), a request past a count
or byte cap TooLarge (exit 3), and a rule that did not converge
QuadratureFailure (exit 2); all derive from CharmomentsError, and no guard
raises a bare ValueError, so one from a bug reads as an internal error.
at_least checks every real argument with a lower end, whole every integer
one, at_most every count cap.  Every byte budget is charged by check_bytes,
which reads DEFAULT_MEMORY_CAP when called: lowering it lowers the whole
package's.  CharmomentsError writes each whole number of 13 or more digits
in its text as %.3e, so no refusal spells out a huge argument.
"""
import math
import numbers
import re
from decimal import Decimal

DEFAULT_MEMORY_CAP = 2 << 30
# What numpy may hold beside the arrays a charge names: the iteration buffers
# of a ufunc or einsum, at most 8192 entries of 8 B for each of two operands,
# and 4 KiB of array headers.
NUMPY_BUFFER_BYTES = 2 * 8 * 8192 + 4096
_LONG_WHOLE = re.compile(r"(?<![.\d])\d{13,}(?![.\d])")


class CharmomentsError(Exception):
    """Base class for all package-specific errors; long whole numbers read as %.3e."""

    def __init__(self, message: str):
        super().__init__(_LONG_WHOLE.sub(lambda n: f"{Decimal(n[0]):.3e}", message))


class OutOfRange(CharmomentsError):
    """An argument lies outside the domain the package computes on."""


class TooLarge(CharmomentsError):
    """Refusal: the request would exceed a configured size or memory cap."""


class QuadratureFailure(CharmomentsError):
    """Numerical integration did not reach the requested accuracy."""


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse with TooLarge when what would take more than DEFAULT_MEMORY_CAP bytes."""
    if nbytes > DEFAULT_MEMORY_CAP:
        size = Decimal(nbytes)  # exact, past the float range too
        raise TooLarge(f"{what} would take {size:.3e} bytes ({size / 2**20:.3e} MiB), "
                       f"cap is {DEFAULT_MEMORY_CAP}")


def at_most(value, most, what: str):
    """value; TooLarge when above most, the cap of a count."""
    if value > most:
        raise TooLarge(f"{what} = {value} exceeds cap {most}")
    return value


def at_least(value, least, what: str):
    """value; OutOfRange when NaN, infinite or below least (compared, so a huge int is exact)."""
    if not -math.inf < value < math.inf:
        raise OutOfRange(f"{what} must be finite, got {value}")
    if value < least:
        raise OutOfRange(f"{what} = {value} must be >= {least}")
    return value


def whole(value, least, what: str) -> int:
    """value as an exact int; OutOfRange for a bool, NaN, inf, a fraction or a value below least.

    An int or numpy integer passes as it is, a float only with an integral
    value (--k 2.0 is k = 2); least is compared as in at_least.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRange(f"{what} must be a whole number, got {value}")
    if not isinstance(value, numbers.Integral) and at_least(value, -math.inf, what) % 1:
        raise OutOfRange(f"{what} must be a whole number, got {value}")
    return at_least(int(value), least, what)
