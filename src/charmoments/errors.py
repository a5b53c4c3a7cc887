"""Exception types shared across the package.

Every guard in the library raises one of these rather than a bare ValueError,
so callers (and the CLI exit-code mapping) can tell validation problems apart
from resource refusals.
"""


class CharmomentsError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(CharmomentsError):
    """A modulus that must be prime is not."""


class TooLarge(CharmomentsError):
    """Refusal: the request would exceed a configured size or memory cap."""


class OutOfRange(CharmomentsError):
    """An argument lies outside the domain an object was built for."""


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
