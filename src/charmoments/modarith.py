"""Arithmetic mod a prime q: primitive roots, discrete-log tables, character values.

The group of units mod q is cyclic of order q - 1.  Fixing a generator g, the
multiplicative characters are indexed by a in [0, q-2]:

    chi_a(n) = exp(2*pi*i * a * dlog(n) / (q - 1)),   chi_a(n) = 0 when q | n,

where dlog(n) is the discrete logarithm of n base g.  Everything downstream
(prefix-sum DFTs, theta values, proxy weights) works through this table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import primes
from .errors import OutOfRange, at_most, check_bytes, whole

# A modulus holds 12 bytes per residue: the int64 discrete-log table (8 B) and
# the memoised prefix-sum magnitudes, (q-1)//2 + 1 float64 values (4 B).
_BYTES_PER_RESIDUE = 12

Q_CAP = 1 << 31


@dataclass(eq=False)
class PrimeModulus:
    """Prime q with generator g and the full discrete-log table.

    dlog[n] = j such that g^j = n (mod q) for 1 <= n < q; dlog[0] = -1.
    abs_sums is the memo slot of charsum.abs_char_sums: (floor(x), read-only
    |S_chi_a(x)| for a = 0 .. (q-1)//2) for the last floor(x) asked, or None.
    """

    q: int
    g: int
    dlog: np.ndarray
    abs_sums: tuple[int, np.ndarray] | None = field(default=None, init=False, repr=False)

    def root(self, j: np.ndarray) -> np.ndarray:
        """exp(2*pi*i*j/(q-1)) at each entry of the integer array j."""
        return np.exp(2j * np.pi * j / (self.q - 1))

    def char_values(self, a: int, ns: np.ndarray) -> np.ndarray:
        """chi_a at an integer array (vectorized; zeros where q | n)."""
        a = whole(a, -math.inf, "a") % (self.q - 1)
        ns = np.asarray(ns, dtype=np.int64) % self.q
        out = np.zeros(ns.shape, dtype=np.complex128)
        ok = ns != 0
        out[ok] = self.root((a * self.dlog[ns[ok]]) % (self.q - 1))
        return out


def _primitive_root(q: int) -> int:
    """Smallest primitive root mod prime q, by trial over 2, 3, 4, ..."""
    if q == 2:
        return 1
    factors = [p for p, _ in primes.factorize(q - 1)]
    exps = [(q - 1) // p for p in factors]
    g = 2
    while True:
        if all(pow(g, e, q) != 1 for e in exps):
            return g
        g += 1


def build_modulus(q: int) -> PrimeModulus:
    """Construct the discrete-log table for prime q.

    Raises OutOfRange for a q that is negative, not a whole number or not
    prime, TooLarge when q exceeds 2^31 or the tables would exceed
    errors.DEFAULT_MEMORY_CAP bytes.
    """
    q = at_most(whole(q, 0, "q"), Q_CAP - 1, "q")
    check_bytes(q * _BYTES_PER_RESIDUE, f"the tables for q = {q}")
    # trial division by the table's primes <= sqrt(q); factorize refuses 0
    if primes.factorize(max(q, 1)) != [(q, 1)]:
        raise OutOfRange(f"q = {q} is not prime")
    g = _primitive_root(q)
    dlog = np.full(q, -1, dtype=np.int64)
    # Fill powers of g in blocks: one short scalar loop to seed a block, then
    # whole-block modular multiplies (q < 2^31 keeps products inside int64).
    block_len = min(q - 1, 1 << 12)
    block = np.empty(block_len, dtype=np.int64)
    block[0] = 1
    for i in range(1, block_len):
        block[i] = block[i - 1] * g % q
    g_step = pow(g, block_len, q)
    for j in range(0, q - 1, block_len):
        take = min(block_len, q - 1 - j)
        dlog[block[:take]] = np.arange(j, j + take, dtype=np.int64)
        block = block * g_step % q
    return PrimeModulus(q=q, g=g, dlog=dlog)

