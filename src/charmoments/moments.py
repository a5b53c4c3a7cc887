"""Moment computations: character averages, Monte Carlo estimates, shape fits.

The 2k-th character moment is (1/(q-1)) sum over non-principal chi of
|S_chi(x)|^{2k}.  At k = 1 it has the closed form
floor(x) - floor(x)^2/(q-1).  The random multiplicative analogue is estimated
by seeded Monte Carlo; agreement of the two at matched scales is the object
of the verification checks rather than anything assumed here; verify also
computes the cross moments against proxy weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rmf
from .charsum import abs_char_sums, power_sum
from .errors import NUMPY_BUFFER_BYTES, OutOfRange, at_least, check_bytes, whole
from .modarith import PrimeModulus


@dataclass(frozen=True)
class MomentEstimate:
    """A moment value with its sampling uncertainty (0 for exact routes)."""

    value: float
    stderr: float
    trials: int
    kind: str


def char_moment(mod: PrimeModulus, x: float, k: float,
                exclude_principal: bool = True) -> MomentEstimate:
    """(1/(q-1)) sum over the non-principal characters of |S_chi(x)|^{2k}, exactly.

    exclude_principal=False adds the principal character.  The magnitudes come
    from charsum.abs_char_sums, so calls for several k at the same (q, floor(x))
    take one DFT between them.
    """
    at_least(k, 0, "k")
    total, count = power_sum(abs_char_sums(mod, x), mod.q, k, 1 if exclude_principal else 0)
    return MomentEstimate(value=total / (mod.q - 1), stderr=0.0, trials=count,
                          kind="exact-characters")


def second_moment_closed_form(q: int, x: float) -> float:
    """k = 1, divisor q - 1: r - r^2/(q - 1), r = floor(x) mod q (a full period adds 0)."""
    q = whole(q, 2, "q")
    xf = math.floor(at_least(x, 0, "x")) % q
    return xf - xf * xf / (q - 1)


def congruence_energy(q: int, x: float) -> int:
    """Exact count of quadruples n_i <= x with n_1 n_2 = n_3 n_4 (mod q).

    That is sum_r c_q(r)^2, with c_q(r) the number of pairs n_1, n_2 <= x
    whose product is r mod q: the uint16 pair histogram c of rmf.pair_counts
    folded onto the residues, c_q(r) = sum_{m = r (mod q)} c(m), in uint32
    (c_q(r) <= x^2).  No table of products is formed, and below q = x^2 + 1
    nothing needs folding.  Refuses, before allocating, when the histograms
    exceed errors.DEFAULT_MEMORY_CAP.
    """
    q = whole(q, 1, "q")
    xf = int(math.floor(at_least(x, 0, "x")))
    x2 = xf * xf
    check_bytes(2 * (x2 + 1) + (4 * q if q <= x2 else 0) + NUMPY_BUFFER_BYTES,
                f"the pair histogram at x = {xf}, folded mod {q}")
    c = rmf.pair_counts(xf, np.uint16)
    if q <= x2:
        full = (x2 + 1) // q * q
        folded = c[:full].reshape(-1, q).sum(axis=0, dtype=np.uint32)
        folded[: x2 + 1 - full] += c[full:]
        c = folded
    return int(np.einsum("i,i->", c, c, dtype=np.int64))


def rmf_moment_mc(x: float, k: float, trials: int, seed: int,
                  batch: int | None = None, threads: int | None = None) -> MomentEstimate:
    """Monte Carlo estimate of E |sum_{n <= x} f(n)|^{2k}.

    rmf.mc_estimate runs it: it picks the batch when batch is None, spreads
    the rows in flight over up to threads worker threads, and refuses, before
    any row runs, a run above errors.DEFAULT_MEMORY_CAP, charging each row
    rmf.batch_nbytes.  Per-trial child seeds derive from (seed, trial index);
    identical inputs give bit-identical output for any batch and any threads.
    """
    at_least(k, 0, "k")
    xf = int(math.floor(at_least(x, 0, "x")))
    trials = whole(trials, 2, "trials")

    def make_per_batch():
        return lambda chunk: np.abs(rmf.partial_sums_batch(chunk, x)) ** (2.0 * k)

    mean, stderr = rmf.mc_estimate(seed, trials, batch, make_per_batch,
                                   rmf.batch_nbytes(1, xf), 0, threads)
    return MomentEstimate(value=mean, stderr=stderr, trials=trials, kind="mc-rmf")


@dataclass(frozen=True)
class ShapeFit:
    """Least-squares fit of log(moment/scale^k) against log log scale."""

    exponent: float
    intercept: float
    residual: float
    exponent_stderr: float


def shape_fit(points: list[tuple[float, float]], k: float) -> ShapeFit:
    """Fit moment ~ C * scale^k * (log scale)^e and return e with an error bar.

    Needs at least 4 points with distinct finite scales > e; an infinite moment gives a NaN fit.
    """
    if len(points) < 4:
        raise OutOfRange("need at least 4 points")
    xs = np.array([at_least(p[0], -math.inf, "scale") for p in points], dtype=np.float64)
    ms = np.array([p[1] for p in points], dtype=np.float64)
    if np.unique(xs).size != xs.size:
        raise OutOfRange("scales must be distinct")
    if xs.min() <= math.e:
        raise OutOfRange("scales must exceed e for a log log abscissa")
    if ms.min() <= 0:
        raise OutOfRange("moments must be positive")
    t = np.log(np.log(xs))
    yv = np.log(ms) - k * np.log(xs)
    a = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(a, yv, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = yv - (slope * t + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    dof = len(points) - 2
    var = float(resid @ resid) / dof if dof > 0 else 0.0
    denom = float(((t - t.mean()) ** 2).sum())
    stderr = math.sqrt(var / denom) if denom > 0 else math.inf
    return ShapeFit(exponent=slope, intercept=intercept, residual=rms,
                    exponent_stderr=stderr)
