"""Random completely multiplicative functions with uniform unit-circle values.

A sample assigns f(p) = exp(2*pi*i*U_p) independently at each prime, with U_p
uniform on [0,1), and extends completely multiplicatively.  Values are derived
from a counter-based hash of (seed, p), so they do not depend on evaluation
order and extending the prime limit never reshuffles earlier primes.

E f(n) conj(f(m)) = [n == m], which makes the exact 2k-th moment of the
partial sum a pure counting problem: the number of 2k-tuples with
n_1...n_k = n_{k+1}...n_{2k}.

Two routes give sum_{n<=x} f(n).  The scalar one, values_upto and the
math.fsum partial_sum, sieves f(n) for every n <= x and is the oracle.  The
batched one, partial_sums_batch, never forms f(n): it runs the floor-quotient
(Lucy_Hedgehog / min_25) recursion over the about 2 sqrt(x) values
floor(x/i), vectorised along the trial axis.  It takes one numpy step per
prime power p^e with p^(e+1) <= x (108 at x = 10^5, for the 65 primes up to
sqrt(x), where the sieve makes 9,700 passes).  It draws f(p) a block of
max(1024, 2 sqrt(x)) primes at a time and keeps of each block only the prime
sums at the quotients, so a trial holds O(sqrt(x)) values (charged 0.61 MB at
x = 10^7), against 16 (x + 1) bytes per trial for the sieve's values.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from . import errors, primes
from .errors import OutOfRange, at_least, at_most, check_bytes, whole

_M64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
# Separate lane for deriving per-trial child seeds so trial streams never
# collide with per-prime value streams.
_TRIAL_SALT = 0xA5A5A5A55A5A5A5A

EXACT_MOMENT_CAP = 10**8
# int64 entries of the window in which exact_moment_2k counts triple products
_WINDOW = 1 << 18

# Bytes per trial mc_estimate holds itself: the trial's seed, its sample and,
# while the standard error is taken, its deviation from the mean
# (tracemalloc reads 24.0 B per trial at 10^6 trials).
TRIAL_BYTES = 24


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 step on a uint64 array, in place; returns z."""
    z += np.uint64(_PHI)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_C1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_C2)
    z ^= z >> np.uint64(31)
    return z


def unit_values(seeds, ps: np.ndarray) -> np.ndarray:
    """f_t(p) = exp(2*pi*i*U) for each seed t and prime p, shape seeds.shape + ps.shape.

    U is the top 53 bits of a splitmix64 hash of (seed, p), so a value
    depends on nothing but its seed and its prime.  The hash is freed before
    the output is made, and cos and sin of the angle are written into its
    real and imaginary parts, the same bits as exp(1j * angle): at most 24
    bytes per value are alive at once.  A uint64 array of seeds is taken as
    it is; any other seed must be a whole number in [0, 2^64).
    """
    if getattr(seeds, "dtype", None) != np.uint64:
        seeds = np.array(seeds, dtype=object)
        for s in seeds.flat:
            if whole(s, 0, "seed") > _M64:
                raise OutOfRange(f"seed = {s} must be below 2^64")
    seeds = np.array(seeds, dtype=np.uint64)  # a copy: hashed in place
    ps = np.asarray(ps, dtype=np.int64).view(np.uint64)
    h = _mix_array(_mix_array(seeds.reshape(seeds.shape + (1,) * ps.ndim)) ^ ps)
    h >>= np.uint64(11)
    angle = h.astype(np.float64)
    del h
    angle *= 2.0 * np.pi / (1 << 53)
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def derive_trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Independent child seeds for Monte Carlo trials, as a uint64 array (16 B a trial at peak)."""
    seed, trials = whole(seed, -math.inf, "seed"), whole(trials, 0, "trials")
    check_bytes(16 * trials, f"{trials} trial seeds")
    key = _mix_array(np.array([(seed ^ _TRIAL_SALT) & _M64], dtype=np.uint64))
    return _mix_array(key ^ np.arange(trials, dtype=np.uint64))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mc_estimate(seed: int, trials: int, batch: int | None, make_per_batch,
                row_bytes: int, shared_bytes: int, threads: int | None = None,
                worker_bytes: int = 0) -> tuple[float, float]:
    """(mean, stderr) over trials of per_batch(trial seeds), one value per trial.

    batch is the number of trial rows in flight at once.  None means as many
    rows as hold 4 MiB of row_bytes, at least 16 and never more than the
    trials or than the charge below admits.  Up to threads workers (default:
    every usable CPU), never more than the rows in flight, each take the
    next chunk of rows // workers rows until none is left, which pays
    because numpy releases the interpreter lock.  Trial t always gets the
    same child seed of seed and each chunk fills only its own slice of the
    samples, so the result depends on neither batch nor threads, provided
    per_batch computes each row on its own.  Before anything is built, the
    run is charged against errors.DEFAULT_MEMORY_CAP: row_bytes for each row
    in flight, worker_bytes for each worker (what its call holds beside its
    rows), shared_bytes once, and TRIAL_BYTES per trial.  Only then does
    make_per_batch() build what the rows share and return per_batch.
    """
    seed, trials = whole(seed, -math.inf, "seed"), whole(trials, 2, "trials")
    batch = None if batch is None else whole(batch, 1, "batch")
    workers = min(trials, usable_cpus(),
                  trials if threads is None else whole(threads, 1, "threads"))
    if batch is None:
        row = max(1, row_bytes)
        admitted = (errors.DEFAULT_MEMORY_CAP - shared_bytes - TRIAL_BYTES * trials
                    - workers * worker_bytes) // row
        batch = max(1, min(max(16, (4 << 20) // row), trials, admitted))
    workers = min(workers, batch)
    rows = min(batch, trials) // workers
    check_bytes(rows * workers * row_bytes + workers * worker_bytes + shared_bytes
                + TRIAL_BYTES * trials, f"a run of {trials} trials in batches of {rows * workers}")
    per_batch = make_per_batch()
    seeds = derive_trial_seeds(seed, trials)
    samples = np.empty(trials, dtype=np.float64)
    starts = iter(range(0, trials, rows))  # shared: next() on it runs under the GIL

    def run() -> None:
        for i in starts:
            chunk = seeds[i : i + rows]
            samples[i : i + chunk.size] = per_batch(chunk)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for done in as_completed([pool.submit(run) for _ in range(workers)]):
                done.result()
        finally:
            for _ in starts:  # after a failure or an interrupt, start no further chunk
                pass
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(trials))


@dataclass(eq=False)
class RmfSample:
    """Frozen draw of f(p) on all primes p <= limit: fp[i] = f(primes[i])."""

    seed: int
    limit: int
    primes: np.ndarray
    fp: np.ndarray


def sample(seed: int, limit: float) -> RmfSample:
    """Draw a sample covering all primes up to limit."""
    seed = whole(seed, -math.inf, "seed")
    limit = math.floor(at_least(limit, 2, "limit"))
    ps = primes.primes_up_to(limit)
    fp = unit_values(seed & _M64, ps)
    return RmfSample(seed=seed, limit=limit, primes=ps, fp=fp)


def value_at(s: RmfSample, n: int) -> complex:
    """f(n) by factorization; OutOfRange when n exceeds the sample limit."""
    n = whole(n, 1, "n")
    if n > s.limit:
        raise OutOfRange(f"n = {n} exceeds sample limit {s.limit}")
    out = 1 + 0j
    for p, e in primes.factorize(n):
        out *= complex(s.fp[np.searchsorted(s.primes, p)]) ** e
    return out


def values_upto(s: RmfSample, x: float) -> np.ndarray:
    """Array v with v[n] = f(n) for 0 <= n <= floor(x) (v[0] unused, set to 0).

    Built by a multiplicative sieve: each prime power p^e multiplies its
    residue class by one extra factor of f(p), so v[n] ends up as
    prod f(p)^{v_p(n)}.  Refuses an array above errors.DEFAULT_MEMORY_CAP.
    """
    xf = int(math.floor(at_least(x, 0, "x")))
    if xf > s.limit:
        raise OutOfRange(f"x = {x} exceeds sample limit {s.limit}")
    check_bytes(16 * (xf + 1), f"the value array up to x = {xf}")
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
    """sum_{n <= x} f(n), its real and imaginary parts each correctly rounded."""
    v = values_upto(s, x)[1:]
    return complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist()))


def pair_counts(xf: int, dtype) -> np.ndarray:
    """c with c[m] the number of pairs n1, n2 <= xf with n1 n2 = m, for 0 <= m <= xf^2.

    Each n1 adds one to its xf multiples n1, 2 n1, ..., xf n1.  A pair with
    product m is fixed by n1, a divisor of m, so c(m) <= d(m): at most 768
    for m <= EXACT_MOMENT_CAP (at 73,513,440) and 1,344 for m <= 2^30 (at
    735,134,400), so uint16 holds c wherever 2 B an entry fits the 2 GiB cap.
    """
    xf = whole(xf, 0, "x")
    check_bytes(np.dtype(dtype).itemsize * (xf * xf + 1), f"the pair histogram at x = {xf}")
    c = np.zeros(xf * xf + 1, dtype=dtype)
    for n in range(1, xf + 1):
        c[n : n * xf + 1 : n] += 1
    return c


def exact_moment_2k(x: float, k: int) -> int:
    """E |sum_{n<=x} f(n)|^{2k} exactly: the count of 2k-tuples with equal k-fold products.

    That count is sum_m c(m)^2, with c(m) the number of k-tuples of n <= x
    whose product is m.  No table of products is formed.  For k = 2, c is
    the uint16 pair histogram of pair_counts, 2 B an entry (c(m) <= d(m) <=
    768 for m <= EXACT_MOMENT_CAP), which einsum widens to int64 in its
    buffers as it sums the squares.  For k = 3, c(m) is the sum of p(m / n)
    over the divisors n <= x of m, with p the int64 pair histogram.  It is
    made over 0..x^3 one window of _WINDOW int64 entries at a time, and each
    window's squares are summed before the next is made.  Refuses, before
    allocating, when these arrays and errors.NUMPY_BUFFER_BYTES exceed
    errors.DEFAULT_MEMORY_CAP.
    """
    k = whole(k, 1, "k")
    if k > 3:
        raise OutOfRange(f"k = {k} must be 1, 2, or 3")
    xf = int(math.floor(at_least(x, 1, "x")))
    at_most(xf**k, EXACT_MOMENT_CAP, "floor(x)^k")
    if k == 1:
        return xf
    x2 = xf * xf
    if k == 2:
        check_bytes(2 * (x2 + 1) + errors.NUMPY_BUFFER_BYTES, f"the pair histogram at x = {xf}")
        c = pair_counts(xf, np.uint16)
        return int(np.einsum("i,i->", c, c, dtype=np.int64))
    size = xf**3 + 1  # the windows cover each m in 0..x^3 once
    check_bytes(8 * (x2 + 1 + min(_WINDOW, size)) + errors.NUMPY_BUFFER_BYTES,
                f"the pair histogram and a window of triple products at x = {xf}")
    pairs = pair_counts(xf, np.int64)
    buf = np.empty(min(_WINDOW, size), dtype=np.int64)
    total = 0
    for lo in range(0, size, buf.size):
        hi = min(lo + buf.size, size)
        window = buf[: hi - lo]
        window.fill(0)
        # each n adds p(j) at n j, for the j <= x^2 with lo <= n j < hi
        for n in range(max(1, -(-lo // x2)), min(xf, hi - 1) + 1):
            j0, j1 = max(1, -(-lo // n)), min(x2, (hi - 1) // n)
            if j0 <= j1:
                window[n * j0 - lo : n * j1 - lo + 1 : n] += pairs[j0 : j1 + 1]
        total += int(np.dot(window, window))
    return total


# ---------------------------------------------------------------------------
# batched Monte Carlo internals

def _block_len(xf: int) -> int:
    """Primes per block of f(p) in partial_sums_batch: more than sqrt(x), at least 1024."""
    return max(1024, 2 * math.isqrt(xf))


def batch_nbytes(rows: int, x: float) -> int:
    """Bytes partial_sums_batch may hold for rows trial rows at x.

    24 B per row per value, over one block of f(p) (at most pi(x) primes)
    and 6 isqrt(x) values for the at most 2 sqrt(x) floor quotients.  A row
    holds its quotients T and a block while unit_values makes it (24 B a
    prime), then T, an increment and a step (48 B a quotient).  The rest is
    what a call holds beside its rows: numpy's iteration buffers, up to two
    the size of a step while it has at most 8192 entries, and the int64
    quotient and index arrays.  tracemalloc reads 12.3-21.8 B per charged
    value at x = 10^4 to 10^7 and 1 to 64 rows, the most at 3 rows; at
    x = 100, one row holds 53 B a value of small arrays and headers.  pi(x)
    is taken as its bound 1.25506 x / log x (Rosser and Schoenfeld), so the
    charge needs no sieve and no prime list.
    """
    rows = whole(rows, 0, "rows")
    xf = int(math.floor(at_least(x, 0, "x")))
    if xf < 2:
        return 0
    pi_bound = int(1.25506 * xf / math.log(xf)) + 1
    return 24 * rows * (min(_block_len(xf), pi_bound) + 6 * math.isqrt(xf))


def partial_sums_batch(trial_seeds: np.ndarray, x: float) -> np.ndarray:
    """Partial sums sum_{n<=x} f_t(n) for a batch of trial seeds at once.

    Equivalent to sample(seed_t, x) + partial_sum per trial: both draw f(p)
    from unit_values, and the scalar sieve stays the oracle for this route.
    Only the floor quotients V = {floor(x/i)} are kept, about 2 sqrt(x) of
    them.  T(v) starts as G(v) = sum_{p<=v} f(p).
    Then, for each prime p <= sqrt(x) in descending order, every v >= p^2
    gains the n <= v whose least prime factor is p:

        T(v) += sum_{e >= 1, p^(e+1) <= v} f(p)^e (T(v // p^e) - G(p)) + f(p)^(e+1)

    with every increment of p read from T as it was before p.  Then
    sum_{n<=x} f(n) = 1 + T(x).  That is one numpy step per prime power
    p^e with p^(e+1) <= x, each over at most 2 sqrt(x) columns.  G is made
    a block of max(1024, 2 sqrt(x)) primes at a time: unit_values draws the
    block, the G of the prime before it is added to its first column, one
    cumsum turns it into G in place, and the G(v) of the quotients v in the
    block are copied into T.  carry + f(p) is the addition a whole-row
    cumsum makes, so G keeps its bits.  The first block holds every
    p <= sqrt(x), whose f(p) the recursion keeps; it reads G(p) from
    T(p).  Refuses, before drawing any value, when batch_nbytes of these
    rows is above errors.DEFAULT_MEMORY_CAP.
    """
    xf = int(math.floor(at_least(x, 0, "x")))
    check_bytes(batch_nbytes(len(trial_seeds), xf), f"{len(trial_seeds)} trial rows at x = {xf}")
    if xf < 2:  # no prime: the sum is floor(x)
        return np.full(len(trial_seeds), float(xf), dtype=np.complex128)
    ps = primes.primes_up_to(xf)
    r = math.isqrt(xf)
    m = int(np.searchsorted(ps, r, side="right"))  # the primes p <= sqrt(x)
    vs = np.concatenate([np.arange(1, r + 1), xf // np.arange(xf // (r + 1), 0, -1)])
    at = np.searchsorted(ps, vs, side="right") - 1  # index of the last prime <= v
    size = _block_len(xf)
    blk = unit_values(trial_seeds, ps[:size])
    fp = blk[:, :m].copy()  # the first block holds every p <= sqrt(x)
    np.cumsum(blk, axis=1, out=blk)  # in place: blk[:, j] = G(ps[j])
    # a quotient past the first block reads its last G until its own block
    t = np.take(blk, at, axis=1, mode="clip")
    t[:, 0] = 0.0  # G(1) = 0; the clipped index -1 read G(2)
    for lo in range(size, ps.size, size):
        carry = blk[:, -1:].copy()  # G of the last prime before the block
        del blk  # before the next block is drawn
        blk = unit_values(trial_seeds, ps[lo : lo + size])
        blk[:, :1] += carry
        np.cumsum(blk, axis=1, out=blk)  # in place: blk[:, j] = G(ps[lo + j])
        a, b = np.searchsorted(at, (lo, lo + size))
        np.take(blk, at[a:b] - lo, axis=1, out=t[:, a:b])
    del blk
    for j in range(m - 1, -1, -1):
        p = int(ps[j])
        # T(p) = G(p): no prime q > p has yet touched a v < q^2, and vs[p - 1] = p
        f, gp = fp[:, j : j + 1], t[:, p - 1 : p]
        start = int(np.searchsorted(vs, p * p))
        inc = np.zeros((t.shape[0], vs.size - start), dtype=np.complex128)
        pe, fe = p, f
        while pe * p <= xf:
            lo = int(np.searchsorted(vs, pe * p))
            f_next = fe * f
            step = np.take(t, np.searchsorted(vs, vs[lo:] // pe), axis=1)
            step -= gp
            np.multiply(fe, step, out=step)  # fe first: the same bits as fe * step
            step += f_next
            inc[:, lo - start :] += step
            del step  # before the next power's step is taken
            pe, fe = pe * p, f_next
        t[:, start:] += inc
        del inc  # before the next prime's inc is made
    return 1.0 + t[:, -1]
