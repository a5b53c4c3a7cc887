"""Exception types shared across the package.

Every guard in the library raises one of these rather than a bare ValueError;
at_least checks every real argument with a lower end, whole every integer one.
The CLI exits 2 on these alone (3 on TooLarge), so a ValueError from a bug reads
as an internal error.  Every byte budget is charged by check_bytes, which reads
DEFAULT_MEMORY_CAP when called: lowering it lowers the whole package's.
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


class CharmomentsError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(CharmomentsError):
    """A modulus that must be prime is not."""


class TooLarge(CharmomentsError):
    """Refusal: the request would exceed a configured size or memory cap."""


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse with TooLarge when what would take more than DEFAULT_MEMORY_CAP bytes."""
    if nbytes > DEFAULT_MEMORY_CAP:  # the size, and any whole count of 13 or more digits, as %.3e
        what = re.sub(r"(?<![.\d])\d{13,}(?![.\d])", lambda n: f"{Decimal(n[0]):.3e}", what)
        size = Decimal(nbytes)  # exact, past the float range too
        raise TooLarge(f"{what} would take {size:.3e} bytes ({size / 2**20:.3e} MiB), "
                       f"cap is {DEFAULT_MEMORY_CAP}")


class OutOfRange(CharmomentsError):
    """An argument lies outside the domain an object was built for."""


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


class HypothesisViolated(CharmomentsError):
    """Parameters do not satisfy the hypothesis a formula needs."""


class Divergent(CharmomentsError):
    """An integral or product does not converge for these parameters."""


class InfeasibleParams(CharmomentsError):
    """No parameter chain satisfying the construction constraints exists."""


class LengthViolation(CharmomentsError):
    """A polynomial is too long for the orthogonality range it is used in."""


class DomainError(CharmomentsError):
    """An input violates a documented precondition."""


class QuadratureFailure(CharmomentsError):
    """Numerical integration did not reach the requested accuracy."""


class Degenerate(CharmomentsError):
    """Input data carries no usable signal (e.g. coincident scales in a fit)."""
