"""Expected Euler products over random multiplicative functions, and prime sums.

The central closed form: for a random completely multiplicative unit f and
parameters alpha, beta, sigma_1, sigma_2 >= 0, t_1, t_2 real, with
100*(1 + max(alpha^2, beta^2)) <= z < y,

  E prod_{z <= p <= y} |1 - f(p)/p^{1/2+sigma_1+i t_1}|^{-2 alpha}
                       |1 - f(p)/p^{1/2+sigma_2+i t_2}|^{-2 beta}
    = exp( sum_p [ alpha^2/p^{1+2 sigma_1} + beta^2/p^{1+2 sigma_2}
                   + 2 alpha beta cos((t_2 - t_1) log p)/p^{1+sigma_1+sigma_2} ]
           + O(max(alpha, alpha^3, beta, beta^3)/sqrt(z)) ),

with the sum over the same primes as the product.  An EulerProductSpec is
built only where that hypothesis holds, with every field finite, and its
product_primes feed the exponent, the quadrature and the Monte Carlo mean.
The O(.) bracket is surfaced as data (error_bracket), never silently added
to the main term.
pair_product_quad checks the closed form by a numpy trapezoid rule in the
angle at each prime.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import primes, rmf
from .errors import OutOfRange, QuadratureFailure, at_least, check_bytes

HYPOTHESIS_FACTOR = 100.0


@dataclass(frozen=True)
class EulerProductSpec:
    """Two-factor Euler product parameters; OutOfRange off the closed form's hypothesis."""

    alpha: float
    beta: float
    sigma1: float
    sigma2: float
    t1: float
    t2: float
    z: float
    y: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(value := getattr(self, f.name)):
                raise OutOfRange(f"{f.name} must be finite, got {value}")
        if min(self.alpha, self.beta, self.sigma1, self.sigma2) < 0:
            raise OutOfRange("alpha, beta, sigma1, sigma2 must be >= 0")
        # a product, not **, so a huge alpha gives need = inf and no OverflowError
        need = HYPOTHESIS_FACTOR * (1.0 + max(self.alpha * self.alpha, self.beta * self.beta))
        if not (need <= self.z < self.y):
            raise OutOfRange(f"need {need:.6g} <= z < y, got z = {self.z}, y = {self.y}")

    @property
    def product_primes(self) -> np.ndarray:
        """The primes z <= p <= y, a read-only view of the shared table."""
        ps = primes.primes_up_to(self.y)
        # an int bound searches the int64 table in place, where a float would copy it
        return ps[np.searchsorted(ps, math.ceil(self.z)) :]


# A prime sum maps its term over blocks of this many primes.
_BLOCK = 1 << 15


def _prime_fsum(ps: np.ndarray, term) -> float:
    """math.fsum of term(p) over the primes ps, one float64 block of _BLOCK primes at a time.

    term maps a float64 array, which it may overwrite, to one of the same
    length, elementwise, so a block gives the bits the whole array would;
    fsum is correctly rounded, so neither the blocks nor their order move the
    sum.  A memoryview hands fsum each block's floats without a list.
    """
    blocks = (memoryview(term(ps[lo : lo + _BLOCK].astype(np.float64)))
              for lo in range(0, ps.size, _BLOCK))
    return math.fsum(itertools.chain.from_iterable(blocks))


def expected_product_exponent(spec: EulerProductSpec) -> float:
    """Main-term exponent: the three closed-form terms summed over the product's primes.

    The sum streams the primes in blocks of _BLOCK, so it holds one block's
    temporaries at any y.
    """
    alpha, beta, sigma1, sigma2 = spec.alpha, spec.beta, spec.sigma1, spec.sigma2

    def term(ps: np.ndarray) -> np.ndarray:
        # alpha^2 p^-(1+2 s1) + beta^2 p^-(1+2 s2) + 2 alpha beta cos(dt log p) p^-(1+s1+s2),
        # in that order and in place, so a block holds three arrays
        s = np.power(ps, -(1.0 + 2.0 * sigma1))
        s *= alpha**2
        u = np.power(ps, -(1.0 + 2.0 * sigma2))
        u *= beta**2
        s += u
        np.log(ps, out=u)
        u *= spec.t2 - spec.t1
        np.cos(u, out=u)
        u *= 2.0 * alpha * beta
        u *= np.power(ps, -(1.0 + sigma1 + sigma2), out=ps)
        s += u
        return s

    return _prime_fsum(spec.product_primes, term)


def error_bracket(spec: EulerProductSpec) -> float:
    """Size of the suppressed error term: max(alpha, alpha^3, beta, beta^3)/sqrt(z)."""
    a, b = spec.alpha, spec.beta
    try:
        return max(a, a**3, b, b**3) / math.sqrt(spec.z)
    except OverflowError:  # a cube past the float range (alpha or beta above 5.6e102)
        return math.inf  # a bound that still holds


# Angle quadrature: the trapezoid rule on [0, 2 pi) doubles its nodes from
# 16 up to _ANGLE_NODES, over blocks of at most _ANGLE_ROWS primes, until two
# estimates agree within _ANGLE_TOL.
_ANGLE_NODES, _ANGLE_ROWS, _ANGLE_TOL = 1 << 14, 64, 1e-10


def _angle_node_sums(theta, r1, r2, delta, alpha, beta) -> np.ndarray:
    """Sum of the integrand over the nodes theta, one sum per row of r1, r2, delta."""
    g = np.power(1.0 + r1 * r1 - 2.0 * r1 * np.cos(theta), -alpha)
    g *= np.power(1.0 + r2 * r2 - 2.0 * r2 * np.cos(theta + delta), -beta)
    return g.sum(axis=1)


def pair_factor_expectation(p, alpha: float, sigma1: float,
                            beta: float = 0.0, sigma2: float = 0.0,
                            dt: float = 0.0):
    """Single-prime expectation by angle quadrature, at a prime or an array of them.

    E_theta |1 - r1 e^{i theta}|^{-2 alpha} |1 - r2 e^{i(theta+Delta)}|^{-2 beta}
    with r_j = p^{-1/2-sigma_j} and Delta = dt*log(p).  The integrand is
    periodic and analytic, so the trapezoid rule on N nodes errs by
    O(max(r1, r2)^N): N doubles from 16 until two estimates agree within
    _ANGLE_TOL, else QuadratureFailure.  Raises OutOfRange on a non-finite
    scalar, before the first power on a p that is not finite and above 1, and
    before the first node on a radius that is not below 1.
    Returns an array shaped like p (a float for one p).
    """
    for name, value in (("alpha", alpha), ("sigma1", sigma1), ("beta", beta),
                        ("sigma2", sigma2), ("dt", dt)):
        at_least(value, -math.inf, name)
    # 16 B a prime, and 24 B a (row, node) cell of the largest block's newest
    # nodes, with one row more for the node vectors
    count = np.size(p)
    check_bytes(16 * count + 24 * (min(count, _ANGLE_ROWS) + 1) * (_ANGLE_NODES >> 1),
                f"the angle quadrature over {count} primes")
    means = np.empty(count)
    ps = np.asarray(p, dtype=np.float64).ravel()
    bad = ps[~((ps > 1.0) & (ps < math.inf))]
    if bad.size:
        raise OutOfRange(f"need finite p > 1, got p = {bad[0]}")
    for lo in range(0, count, _ANGLE_ROWS):
        pb = ps[lo : lo + _ANGLE_ROWS, None]
        r1, r2 = pb ** (-0.5 - sigma1), pb ** (-0.5 - sigma2)
        bad = pb[(alpha > 0) & ~(r1 < 1.0) | (beta > 0) & ~(r2 < 1.0)]
        if bad.size:
            raise OutOfRange(f"unit-disc radius reached 1 at p = {bad[0]}")
        args = (r1, r2, dt * np.log(pb), alpha, beta)
        n, total = 16, _angle_node_sums(np.arange(16) * (math.pi / 8), *args)
        est = total / n
        while n < _ANGLE_NODES:
            # the new nodes of 2n sit halfway between the old ones
            total += _angle_node_sums((2 * np.arange(n) + 1) * (math.pi / n), *args)
            n *= 2
            prev, est = est, total / n
            if np.all(np.abs(est - prev) <= _ANGLE_TOL * np.maximum(1.0, est)):
                break
        else:
            raise QuadratureFailure(f"angle quadrature unresolved at {n} nodes")
        means[lo : lo + pb.shape[0]] = est
    return means.reshape(np.shape(p))[()]


def pair_product_quad(spec: EulerProductSpec) -> float:
    """Two-factor expected product over [z, y], one angle quadrature per prime.

    Independent of the closed-form exponent; verify's euler-product-quadrature
    check holds the two within the suppressed error term.
    """
    means = pair_factor_expectation(spec.product_primes, spec.alpha, spec.sigma1,
                                    spec.beta, spec.sigma2, spec.t2 - spec.t1)
    return math.exp(float(np.log(means).sum()))


def mc_product_estimate(spec: EulerProductSpec, trials: int, seed: int,
                        batch: int | None = None,
                        threads: int | None = None) -> tuple[float, float]:
    """Monte Carlo (mean, stderr) of the Euler product over [z, y].

    rmf.mc_estimate runs it: it picks the batch when batch is None (as many
    rows as hold 4 MiB, at least 16) and spreads the rows over up to threads
    worker threads.  Trials use independent child seeds derived from seed; results
    depend on neither batch nor threads.  A row holds 40 B per prime: its
    unit values and one complex and one real buffer.  A worker holds 144 KiB
    more: numpy's 128 KiB buffer for the broadcast weights, and up to 10.4 KB
    of its own objects (tracemalloc, 1 to 900 rows of 127 or 160 primes).  The
    two weight arrays take a row's worth, and are built only after
    rmf.mc_estimate has charged both and not refused the run.
    """
    ps = spec.product_primes

    def make_products():
        lp = np.log(ps.astype(np.float64))
        w1 = np.exp(-(0.5 + spec.sigma1) * lp - 1j * spec.t1 * lp)
        w2 = np.exp(-(0.5 + spec.sigma2) * lp - 1j * spec.t2 * lp)
        del lp

        def products(chunk: np.ndarray) -> np.ndarray:
            f = rmf.unit_values(chunk, ps)
            c, m = np.empty_like(f), np.empty(f.shape)
            logs = []
            for w in (w1, w2):  # log |1 - f(p) w(p)|^2 per trial
                np.multiply(f, w, out=c)
                np.subtract(1.0, c, out=c)
                np.abs(c, out=m)
                np.square(m, out=m)
                np.log(m, out=m)
                logs.append(m.sum(axis=1))
            return np.exp(-(spec.alpha * logs[0] + spec.beta * logs[1]))

        return products

    row_bytes = 40 * ps.size
    return rmf.mc_estimate(seed, trials, batch, make_products, row_bytes, row_bytes, threads,
                           worker_bytes=16 * 8192 + (16 << 10))


# ---------------------------------------------------------------------------
# prime cosine sums

@dataclass(frozen=True)
class CosineSumResult:
    """Value and branch bound for sum_{p <= y} cos(t log p)/p."""

    t: float
    y: float
    value: float
    branch: str
    bound: float


def cosine_sum(t: float, y: float) -> CosineSumResult:
    """Evaluate sum_{p <= y} cos(t log p)/p and the branch-dependent size bound.

    Branches: |t| <= 1/log(y) behaves like log log y; moderate |t| like
    log(1/|t|); |t| >= 10 like log log |t|.  The O(1) slack on each branch is
    an empirical calibration constant, reported by the verification checks.
    The sum streams the primes in blocks of _BLOCK, so it holds one block's
    temporaries at any y.
    """
    at_least(t, -math.inf, "t")
    ps = primes.primes_up_to(at_least(y, 2, "y"))
    value = _prime_fsum(ps, lambda p: np.cos(t * np.log(p)) / p)
    at = abs(t)
    ly = math.log(y)
    if at <= 1.0 / ly:
        branch, bound = "small", math.log(ly) if ly > 1 else 0.0
    elif at < 10.0:
        branch, bound = "moderate", math.log(1.0 / at)
    else:
        branch, bound = "large", math.log(math.log(at))
    return CosineSumResult(t=float(t), y=float(y), value=value, branch=branch, bound=bound)

