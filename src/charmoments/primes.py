"""The shared prime table and factorization by its primes.

Every prime list is a read-only int64 view of one (limit, primes) table that
only grows and is replaced as a whole.  At SIEVE_CAP it holds pi(10^8) =
5,761,455 primes, about 44 MiB, for the life of the process.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from .errors import at_least, at_most, whole

# Sieving refuses beyond this point; callers get an explicit error instead of
# a silently partial prime list.
SIEVE_CAP = 10**8
_SEGMENT = 1 << 20

# One (limit, primes) pair in a one-slot list, so the module's own bindings
# never change; the pair is read and replaced as a whole.
_table: list[tuple[int, np.ndarray]] = [(1, np.empty(0, dtype=np.int64))]
_table[0][1].flags.writeable = False
_GROW_LOCK = threading.Lock()  # growers replace the table one at a time, so it never shrinks

def _grown(n: int) -> np.ndarray:
    """The table's array, grown first to hold every prime p <= n.

    Above _SEGMENT the table grows to the next multiple of _SEGMENT, at most
    SIEVE_CAP; a smaller limit is sieved exactly, so a cold call at n = 100
    sieves 100 numbers.

    Recurses on itself rather than on primes_up_to, so a traced run counts
    only the calls made from outside this module.
    """
    limit, ps = _table[0]
    if n <= limit:
        return ps
    if n > _SEGMENT:  # whole segments, so nearby larger limits copy no table
        n = min(SIEVE_CAP, -(-n // _SEGMENT) * _SEGMENT)
    r = math.isqrt(n)
    base = _grown(r)  # grows the table to at least sqrt(n) first
    base = base[: np.searchsorted(base, r, side="right")]
    with _GROW_LOCK:
        limit, ps = _table[0]
        if n > limit:
            # one array sized by pi(n) < 1.25506 n / log n (Rosser and Schoenfeld),
            # filled segment by segment and then shrunk in place, so a growth
            # never holds the new primes twice
            out = np.empty(int(1.25506 * n / math.log(n)) + 1, dtype=np.int64)
            out[: ps.size] = ps
            end = ps.size
            # each new segment starts above sqrt(n) >= p, so p itself stays
            for lo in range(limit + 1, n + 1, _SEGMENT):
                flags = np.ones(min(_SEGMENT, n + 1 - lo), dtype=bool)
                for p in base.tolist():
                    flags[-lo % p :: p] = False
                found = np.flatnonzero(flags)
                out[end : end + found.size] = found + lo
                end += found.size
            out.resize(end, refcheck=False)
            out.flags.writeable = False
            ps = out
            _table[0] = (n, ps)
    return ps


def primes_up_to(n: int | float) -> np.ndarray:
    """All primes p <= n as a read-only int64 view of the shared table.

    Refuses n > SIEVE_CAP with TooLarge, leaving the table as it was.
    """
    n = int(math.floor(at_least(n, -math.inf, "n")))  # any finite n: below 2 there is no prime
    at_most(n, SIEVE_CAP, "sieve limit")
    ps = _grown(n)
    return ps[: np.searchsorted(ps, n, side="right")]


def primes_in(lo: float, hi: float) -> np.ndarray:
    """Primes in the half-open interval (lo, hi], as a read-only view of the table."""
    lo = at_least(lo, -math.inf, "lo")
    ps = primes_up_to(hi)
    # an int bound searches the int64 table in place, where a float (or an int
    # past int64) would copy it; every prime lies in [2, SIEVE_CAP], so the clamp
    # keeps the index
    return ps[np.searchsorted(ps, math.floor(min(max(lo, 1.0), SIEVE_CAP)), side="right") :]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, by the table's primes p <= sqrt(n)."""
    n = whole(n, 1, "n")
    r = at_most(math.isqrt(n), SIEVE_CAP, f"the prime bound isqrt({n})")
    ps = _grown(r)  # not primes_up_to, so a traced run counts only outside calls
    out = []
    for p in ps[: np.searchsorted(ps, r, side="right")].tolist():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out
