"""Prime sieves, deterministic primality testing, and factorization helpers."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import TooLarge

# Sieving refuses beyond this point; callers get an explicit error instead of
# a silently partial prime list.
SIEVE_CAP = 10**8
_SEGMENT = 1 << 20

# Witness set proven sufficient for every n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _simple_sieve(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@lru_cache(maxsize=64)
def _primes_cached(n: int) -> np.ndarray:
    if n <= _SEGMENT:
        return _simple_sieve(n)
    base = _simple_sieve(math.isqrt(n))
    chunks = [base]
    lo = math.isqrt(n) + 1
    while lo <= n:
        hi = min(lo + _SEGMENT - 1, n)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            flags[start - lo :: p] = False
        chunks.append(np.flatnonzero(flags).astype(np.int64) + lo)
        lo = hi + 1
    return np.concatenate(chunks)


def primes_up_to(n: int | float) -> np.ndarray:
    """All primes p <= n as an int64 array. Refuses n > SIEVE_CAP."""
    n = int(math.floor(n))
    if n > SIEVE_CAP:
        raise TooLarge(f"sieve limit {n} exceeds cap {SIEVE_CAP}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return _primes_cached(n)


def primes_in(lo: float, hi: float) -> np.ndarray:
    """Primes in the half-open interval (lo, hi]."""
    ps = primes_up_to(hi)
    return ps[ps > lo]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (p, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # trial division by 6k+-1
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def smallest_factor_sieve(n: int) -> np.ndarray:
    """Array s with s[m] = smallest prime factor of m (s[1] = 2**62 sentinel)."""
    if n > SIEVE_CAP:
        raise TooLarge(f"sieve limit {n} exceeds cap {SIEVE_CAP}")
    s = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        p = int(p)
        sl = s[p::p]
        sl[sl == 0] = p
    if n >= 1:
        s[1] = 1 << 62  # no prime factor: treat P-(1) as +infinity
    return s


def smooth_numbers(limit: int | float, y: int | float, max_count: int) -> np.ndarray:
    """Sorted array of all y-smooth integers in [1, limit] (1 included).

    Refuses with TooLarge as soon as more than max_count of them are found,
    so an over-cap array is never built.
    """
    limit = int(math.floor(limit))
    if limit < 1:
        return np.empty(0, dtype=np.int64)
    res = np.array([1], dtype=np.int64)
    for p in primes_up_to(min(y, limit)):
        p = int(p)
        chunks = [res]
        count = res.size
        power = p
        while power <= limit:
            fit = res[res <= limit // power]
            if fit.size == 0:
                break
            count += fit.size
            if count > max_count:
                raise TooLarge(f"more than {max_count} {y}-smooth integers up to {limit}")
            chunks.append(fit * power)
            power *= p
        res = np.sort(np.concatenate(chunks))
    return res
