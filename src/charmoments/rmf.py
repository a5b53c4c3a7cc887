"""Random completely multiplicative functions with uniform unit-circle values.

A sample assigns f(p) = exp(2*pi*i*U_p) independently at each prime, with U_p
uniform on [0,1), and extends completely multiplicatively.  Values are derived
from a counter-based hash of (seed, p), so they do not depend on evaluation
order and extending the prime limit never reshuffles earlier primes.

E f(n) conj(f(m)) = [n == m], which makes the exact 2k-th moment of the
partial sum a pure counting problem: the number of 2k-tuples with
n_1...n_k = n_{k+1}...n_{2k}.

Two routes give sum_{n<=x} f(n).  The scalar one, values_upto and the Kahan
partial_sum, sieves f(n) for every n <= x and is the oracle.  The batched
one, partial_sums_batch, never forms f(n): it runs the floor-quotient
(Lucy_Hedgehog / min_25) recursion over the about 2 sqrt(x) values
floor(x/i), vectorised along the trial axis.  It takes one numpy step per
prime power p^e with p^(e+1) <= x (108 at x = 10^5, for the 65 primes up to
sqrt(x), where the sieve makes 9,700 passes) and trials x (pi(x) + 2 sqrt(x))
complex values of memory instead of trials x (x + 1).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import primes
from .errors import DomainError, OutOfRange, TooLarge
from .modarith import DEFAULT_MEMORY_CAP

_M64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
# Separate lane for deriving per-trial child seeds so trial streams never
# collide with per-prime value streams.
_TRIAL_SALT = 0xA5A5A5A55A5A5A5A

EXACT_MOMENT_CAP = 10**8


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 step vectorized over a uint64 array."""
    z = (z + np.uint64(_PHI)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_C1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_C2)
    return z ^ (z >> np.uint64(31))


def unit_values(seeds, ps: np.ndarray) -> np.ndarray:
    """f_t(p) = exp(2*pi*i*U) for each seed t and prime p, shape seeds.shape + ps.shape.

    U is the top 53 bits of a splitmix64 hash of (seed, p), so a value
    depends on nothing but its seed and its prime.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    ps = np.asarray(ps).astype(np.uint64)
    keys = _mix_array(seeds.reshape(seeds.shape + (1,) * ps.ndim))
    h = _mix_array(keys ^ ps)
    return np.exp(1j * ((h >> np.uint64(11)).astype(np.float64) * (2.0 * np.pi / (1 << 53))))


def derive_trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Independent child seeds for Monte Carlo trials, as a uint64 array."""
    key = _mix_array(np.array([(int(seed) ^ _TRIAL_SALT) & _M64], dtype=np.uint64))
    return _mix_array(key ^ np.arange(trials, dtype=np.uint64))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mc_plan(trials: int, batch: int, threads: int | None = None) -> tuple[int, int]:
    """(rows per chunk, workers) for mc_estimate.

    At most min(batch, trials) trial rows are in flight: each of the workers
    holds one chunk of min(batch, trials) // workers rows.  workers is the
    least of threads (None: no limit), the usable CPUs and min(batch, trials).
    """
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")
    if batch < 1:
        raise DomainError(f"batch must be >= 1, got {batch}")
    if threads is not None and threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    cpus = usable_cpus()
    alive = min(batch, trials)
    workers = min(alive, cpus if threads is None else min(threads, cpus))
    return alive // workers, workers


def mc_estimate(seed: int, trials: int, batch: int, per_batch,
                threads: int | None = None) -> tuple[float, float]:
    """(mean, stderr) over trials of per_batch(trial seeds), one value per trial.

    batch is the number of trial rows in flight at once.  Chunks of them run
    on up to threads worker threads (default: every usable CPU; see mc_plan),
    which pays because numpy releases the interpreter lock.  Trial t always
    gets the same child seed of seed and each chunk fills only its own slice
    of the samples, so the result depends on neither batch nor threads,
    provided per_batch computes each row on its own.
    """
    rows, workers = mc_plan(trials, batch, threads)
    seeds = derive_trial_seeds(seed, trials)
    samples = np.empty(trials, dtype=np.float64)

    def run(i: int) -> None:
        chunk = seeds[i : i + rows]
        samples[i : i + chunk.size] = per_batch(chunk)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for _ in pool.map(run, range(0, trials, rows)):
            pass
    finally:
        # after a failed chunk, drop the chunks not yet started
        pool.shutdown(cancel_futures=True)
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(trials))


@dataclass(eq=False)
class RmfSample:
    """Frozen draw of f(p) on all primes p <= limit."""

    seed: int
    limit: int
    primes: np.ndarray
    fp: np.ndarray

    @cached_property
    def values(self) -> dict[int, complex]:
        """Prime -> f(p) as a plain dict."""
        return {int(p): complex(v) for p, v in zip(self.primes, self.fp)}


def sample(seed: int, limit: int) -> RmfSample:
    """Draw a sample covering all primes up to limit."""
    limit = int(limit)
    if limit < 2:
        raise OutOfRange("limit must be at least 2")
    ps = primes.primes_up_to(limit)
    fp = unit_values(int(seed) & _M64, ps)
    return RmfSample(seed=int(seed), limit=limit, primes=ps, fp=fp)


def value_at(s: RmfSample, n: int) -> complex:
    """f(n) by factorization; OutOfRange when n exceeds the sample limit."""
    n = int(n)
    if n < 1 or n > s.limit:
        raise OutOfRange(f"n = {n} outside [1, limit = {s.limit}]")
    out = 1 + 0j
    for p, e in primes.factorize(n):
        out *= s.values[p] ** e
    return out


def values_upto(s: RmfSample, x: float) -> np.ndarray:
    """Array v with v[n] = f(n) for 0 <= n <= floor(x) (v[0] unused, set to 0).

    Built by a multiplicative sieve: each prime power p^e multiplies its
    residue class by one extra factor of f(p), so v[n] ends up as
    prod f(p)^{v_p(n)}.  Refuses an array above DEFAULT_MEMORY_CAP.
    """
    xf = int(math.floor(x))
    if xf > s.limit:
        raise OutOfRange(f"x = {x} exceeds sample limit {s.limit}")
    nbytes = (xf + 1) * np.dtype(np.complex128).itemsize
    if nbytes > DEFAULT_MEMORY_CAP:
        raise TooLarge(f"value array needs {nbytes} bytes, cap is {DEFAULT_MEMORY_CAP}")
    v = np.ones(xf + 1, dtype=np.complex128)
    v[0] = 0.0
    for p, fp in zip(s.primes, s.fp):
        p = int(p)
        if p > xf:
            break
        power = p
        while power <= xf:
            v[power::power] *= fp
            power *= p
    return v


def partial_sum(s: RmfSample, x: float) -> complex:
    """sum_{n <= x} f(n), accumulated with Kahan compensation."""
    v = values_upto(s, x)
    total = 0j
    comp = 0j
    for z in v[1:]:
        y = z - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return complex(total)


def _product_histogram(values: np.ndarray, counts: np.ndarray, ns: np.ndarray,
                       chunk: int = 1 << 22) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of pairwise products value*n weighted by counts, chunked."""
    acc_v = np.empty(0, dtype=np.int64)
    acc_c = np.empty(0, dtype=np.float64)
    step = max(1, chunk // max(1, values.size))
    for i in range(0, ns.size, step):
        block = np.multiply.outer(values, ns[i : i + step]).ravel()
        w = np.repeat(counts, ns[i : i + step].size)
        both = np.concatenate([acc_v, block])
        bw = np.concatenate([acc_c, w])
        acc_v, inv = np.unique(both, return_inverse=True)
        acc_c = np.bincount(inv, weights=bw)
    return acc_v, acc_c


def exact_moment_2k(x: float, k: int) -> int:
    """E |sum_{n<=x} f(n)|^{2k} exactly: the count of 2k-tuples with equal k-fold products."""
    if k not in (1, 2, 3):
        raise DomainError("k must be 1, 2, or 3")
    k = int(k)
    xf = int(math.floor(x))
    if xf < 1:
        raise DomainError("x must be >= 1")
    if xf**k > EXACT_MOMENT_CAP:
        raise TooLarge(f"floor(x)^k = {xf**k} exceeds cap {EXACT_MOMENT_CAP}")
    if k == 1:
        return xf
    ns = np.arange(1, xf + 1, dtype=np.int64)
    vals, counts = np.unique(np.multiply.outer(ns, ns).ravel(), return_counts=True)
    counts = counts.astype(np.float64)
    if k == 3:
        vals, counts = _product_histogram(vals, counts, ns)
    return int(round(np.sum(counts * counts)))


# ---------------------------------------------------------------------------
# batched Monte Carlo internals

def batch_nbytes(rows: int, x: float) -> int:
    """Bytes partial_sums_batch may hold for rows trial rows at x.

    48 B per row per value, over the pi(x) prime values and the at most
    2 sqrt(x) floor quotients (tracemalloc measured 38-42 B at x = 10^5,
    10^6 and 10^7).  pi(x) is taken as its bound 1.25506 x / log x (Rosser
    and Schoenfeld), so the charge needs no sieve and no prime list.
    """
    xf = int(math.floor(x))
    if xf < 2:
        return 0
    pi_bound = int(1.25506 * xf / math.log(xf)) + 1
    return 48 * int(rows) * (pi_bound + 2 * math.isqrt(xf))


def partial_sums_batch(trial_seeds: np.ndarray, x: float,
                       ps: np.ndarray | None = None) -> np.ndarray:
    """Partial sums sum_{n<=x} f_t(n) for a batch of trial seeds at once.

    Equivalent to sample(seed_t, x) + partial_sum per trial: both draw f(p)
    from unit_values, and the scalar sieve stays the oracle for this route.
    Only the floor quotients V = {floor(x/i)} are kept, about 2 sqrt(x) of
    them.  T(v) starts as G(v) = sum_{p<=v} f(p), one cumsum over the primes.
    Then, for each prime p <= sqrt(x) in descending order, every v >= p^2
    gains the n <= v whose least prime factor is p:

        T(v) += sum_{e >= 1, p^(e+1) <= v} f(p)^e (T(v // p^e) - G(p)) + f(p)^(e+1)

    with every increment of p read from T as it was before p.  Then
    sum_{n<=x} f(n) = 1 + T(x).  That is one numpy step per prime power
    p^e with p^(e+1) <= x, each over at most 2 sqrt(x) columns, and
    trials x (pi(x) + 2 sqrt(x)) complex values of memory.  Refuses, before
    drawing any value, when batch_nbytes of these rows is above
    DEFAULT_MEMORY_CAP.
    """
    xf = int(math.floor(x))
    if xf < 0:
        raise OutOfRange(f"x = {x} must be >= 0")
    nbytes = batch_nbytes(len(trial_seeds), xf)
    if nbytes > DEFAULT_MEMORY_CAP:
        raise TooLarge(f"{len(trial_seeds)} trial rows at x = {xf} need about {nbytes} "
                       f"bytes, cap is {DEFAULT_MEMORY_CAP}")
    if xf == 0:
        return np.zeros(len(trial_seeds), dtype=np.complex128)
    if ps is None:
        ps = primes.primes_up_to(xf)
    fp = unit_values(trial_seeds, ps)
    g = np.zeros((fp.shape[0], ps.size + 1), dtype=np.complex128)
    np.cumsum(fp, axis=1, out=g[:, 1:])  # g[:, j] = G(ps[j - 1]), g[:, 0] = 0
    r = math.isqrt(xf)
    vs = np.concatenate([np.arange(1, r + 1), xf // np.arange(xf // (r + 1), 0, -1)])
    t = np.take(g, np.searchsorted(ps, vs, side="right"), axis=1)
    for j in range(int(np.searchsorted(ps, r, side="right")) - 1, -1, -1):
        p = int(ps[j])
        f, gp = fp[:, j : j + 1], g[:, j + 1 : j + 2]
        start = int(np.searchsorted(vs, p * p))
        inc = np.zeros((t.shape[0], vs.size - start), dtype=np.complex128)
        pe, fe = p, f
        while pe * p <= xf:
            lo = int(np.searchsorted(vs, pe * p))
            below = np.searchsorted(vs, vs[lo:] // pe)
            f_next = fe * f
            inc[:, lo - start :] += fe * (np.take(t, below, axis=1) - gp) + f_next
            pe, fe = pe * p, f_next
        t[:, start:] += inc
    return 1.0 + t[:, -1]
