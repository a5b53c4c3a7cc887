"""Exact expectations of polynomials in a random multiplicative unit function.

A term maps a pair (n, m) to a coefficient and stands for c * f(n) * conj(f(m)).
Products multiply the indices componentwise (complete multiplicativity), and
E f(n) conj(f(m)) = [n == m] turns expectations into a diagonal coefficient sum.
This gives machine-exact reference values for small moment identities without
any sampling.
"""
from __future__ import annotations

import math

from .errors import at_most, whole

POWER_CAP = 64  # an exact oracle at desk sizes: verify raises to j <= 4


class FPoly:
    """Finite polynomial in f and conj(f), keyed by index pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], complex] | None = None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def const(cls, c: complex) -> "FPoly":
        return cls({(1, 1): complex(c)}) if c else cls()

    @classmethod
    def var(cls, n: int, coeff: complex = 1.0) -> "FPoly":
        """coeff * f(n)."""
        return cls({(whole(n, 1, "n"), 1): complex(coeff)})

    def conj(self) -> "FPoly":
        return FPoly({(m, n): c.conjugate() for (n, m), c in self.terms.items()})

    def __add__(self, other: "FPoly") -> "FPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        return FPoly(out)

    def __sub__(self, other: "FPoly") -> "FPoly":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, FPoly):
            out: dict[tuple[int, int], complex] = {}
            for (n1, m1), c1 in self.terms.items():
                for (n2, m2), c2 in other.terms.items():
                    key = (n1 * n2, m1 * m2)
                    out[key] = out.get(key, 0j) + c1 * c2
            return FPoly(out)
        return FPoly({key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

    def real_part(self) -> "FPoly":
        return (self + self.conj()) * 0.5

    def abs2(self) -> "FPoly":
        return self * self.conj()

    def power(self, j: int) -> "FPoly":
        j = at_most(whole(j, 0, "j"), POWER_CAP, "power")
        out = FPoly.const(1.0)
        for _ in range(j):
            out = out * self
        return out

    def expectation(self) -> complex:
        """E of the polynomial: sum of coefficients on the diagonal n == m."""
        return complex(math.fsum(c.real for (n, m), c in self.terms.items() if n == m)
                       + 1j * math.fsum(c.imag for (n, m), c in self.terms.items() if n == m))

    def __len__(self) -> int:
        return len(self.terms)
