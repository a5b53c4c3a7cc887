"""Theta values at the central point, their moments, and transform checks.

theta(chi) = sum_{n >= 1} chi(n) n^kappa exp(-pi n^2/q), with kappa = 0 for
even characters and 1 for odd ones.  The Gaussian weight localizes the sum
near sqrt(q); truncating at sqrt(q) (log q)^2 leaves a tail below the recorded
majorant q^{1+kappa} exp(-pi * truncation^2 / q).  Folding n into residue
classes turns the whole family into one real weighted group DFT (a half
spectrum) per parity; a moment over one parity class needs only that class's
DFT.  The Mellin identity's numeric side is a numpy trapezoid rule in log v
for one Gaussian term, times the Dirichlet sum of the smooth terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .charsum import power_sum, weighted_char_sums
from .errors import OutOfRange, QuadratureFailure, at_least, at_most, check_bytes, whole
from .modarith import PrimeModulus
from .moments import MomentEstimate
from .rmf import RmfSample


@dataclass(frozen=True)
class ThetaValue:
    """One character's theta value with its truncation certificate."""

    a: int
    kappa: int
    value: complex
    truncation_point: float
    tail_bound: float


@dataclass(eq=False)
class ThetaTable:
    """theta(chi_a) on the half spectrum, as in charsum.PrefixSumTable; table[a]: one ThetaValue."""

    q: int
    half: np.ndarray
    truncation_point: float
    tail_bounds: tuple[float, float]  # for kappa = 0 and kappa = 1

    def __getitem__(self, a: int) -> ThetaValue:
        a = range(self.q - 1)[a]  # IndexError out of range; negatives wrap
        value = self.half[a] if a < self.half.size else np.conj(self.half[self.q - 1 - a])
        return ThetaValue(a=a, kappa=a % 2, value=complex(value),
                          truncation_point=self.truncation_point,
                          tail_bound=self.tail_bounds[a % 2])


def truncation_point(q: int) -> float:
    """sqrt(q) * (log q)^2, for a whole q >= 2."""
    q = whole(q, 2, "q")
    return math.sqrt(q) * math.log(q) ** 2


def _folded_weights(mod: PrimeModulus, trunc: float) -> tuple[np.ndarray, np.ndarray]:
    n = int(math.floor(at_least(trunc, 0, "trunc")))
    check_bytes(80 * n, f"{n} theta terms")  # tracemalloc reads 73 B a term in theta_all
    ns = np.arange(1, n + 1, dtype=np.int64)
    w = np.exp(-math.pi * ns.astype(np.float64) ** 2 / mod.q)
    return ns, w


def _parity_dft(mod: PrimeModulus, trunc: float, kappa: int) -> np.ndarray:
    """sum_{n<=trunc} chi_a(n) n^kappa e^{-pi n^2/q}, a <= q/2; theta(chi_a) if a % 2 == kappa."""
    if mod.q < 3:
        raise OutOfRange("need an odd prime modulus")
    ns, w = _folded_weights(mod, trunc)
    return weighted_char_sums(mod, ns, w * ns**kappa)


def theta_all(mod: PrimeModulus, trunc: float | None = None) -> ThetaTable:
    """Theta values for every character via one real weighted DFT per parity."""
    trunc = truncation_point(mod.q) if trunc is None else float(trunc)
    half = _parity_dft(mod, trunc, 0)
    half[1::2] = _parity_dft(mod, trunc, 1)[1::2]
    tail = math.exp(-math.pi * trunc * trunc / mod.q)
    return ThetaTable(q=mod.q, half=half, truncation_point=trunc,
                      tail_bounds=(mod.q * tail, mod.q**2 * tail))


def theta_naive(mod: PrimeModulus, a: int, trunc: float | None = None) -> complex:
    """Direct summation for one character (reference route)."""
    kappa = whole(a, -math.inf, "a") % 2
    trunc = truncation_point(mod.q) if trunc is None else float(trunc)
    ns, w = _folded_weights(mod, trunc)
    cv = mod.char_values(a, ns)
    if kappa == 1:
        w = ns * w
    return complex(np.sum(cv * w))


def theta_moment(mod: PrimeModulus, k: float, parity: str) -> MomentEstimate:
    """(1/(q-1)) sum of |theta|^{2k} over one parity class, the even one without the principal."""
    if parity not in ("even", "odd"):
        raise OutOfRange("parity must be 'even' or 'odd'")
    at_least(k, 0, "k")
    kappa = 0 if parity == "even" else 1
    total, count = power_sum(_parity_dft(mod, truncation_point(mod.q), kappa), mod.q, k,
                             start=2 - kappa, step=2)
    return MomentEstimate(value=total / (mod.q - 1), stderr=0.0, trials=count,
                          kind="exact-characters")


def even_char_orthogonality(mod: PrimeModulus, n: int, m: int) -> float:
    """(2/(q-1)) sum over even chi of chi(n) conj(chi(m)), summed numerically.

    Equals 1 exactly when n = +-m (mod q) and both are units, else 0.
    """
    n = whole(n, -math.inf, "n") % mod.q
    m = whole(m, -math.inf, "m") % mod.q
    if n == 0 or m == 0:
        return 0.0
    delta = (int(mod.dlog[n]) - int(mod.dlog[m])) % (mod.q - 1)
    t = np.arange((mod.q - 1) // 2, dtype=np.int64)
    total = mod.root((2 * t * delta) % (mod.q - 1)).sum()
    return float((2.0 / (mod.q - 1)) * total.real)


def even_theta_second_moment_oracle(mod: PrimeModulus) -> float:
    """k = 1 even theta moment by residue-class quadratic form (no DFT).

    Uses the even-character orthogonality relation to rewrite the average as
    (1/2) sum_{n = +-m (mod q)} w_n w_m minus the principal contribution.
    """
    trunc = truncation_point(mod.q)
    ns, w = _folded_weights(mod, trunc)
    res = (ns % mod.q).astype(np.int64)
    class_sums = np.zeros(mod.q, dtype=np.float64)
    np.add.at(class_sums, res, w)
    s = class_sums[1:]  # residues 1..q-1; residue 0 carries chi = 0
    paired = s * s[::-1]  # S_r * S_{q-r}
    theta0 = float(s.sum())
    quad_form = 0.5 * float((s * s).sum() + paired.sum())
    return quad_form - theta0 * theta0 / (mod.q - 1)


# ---------------------------------------------------------------------------
# Mellin-transform identity for the smooth Gaussian sum

_SMOOTH_COUNT_CAP = 500_000


def _smooth_values(sample: RmfSample, y: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The y-smooth m <= cap, sorted, with their f(m); TooLarge past _SMOOTH_COUNT_CAP terms.

    Each prime p <= y extends the terms found so far by their multiples
    m p^e <= cap, which carry f(m) f(p)^e, so no term is factored.  The count
    is checked before each extension is built.
    """
    ms = np.ones(1 if cap >= 1 else 0, dtype=np.int64)
    vals = np.ones(ms.size, dtype=np.complex128)
    what = f"the count of {y}-smooth integers up to {cap}"
    count = np.searchsorted(sample.primes, y, side="right")
    for p, fv in zip(sample.primes[:count].tolist(), sample.fp[:count]):
        ms_parts, val_parts, size = [ms], [vals], ms.size
        power, fpow = p, fv
        while power <= cap:
            fit = ms <= cap // power
            size = at_most(size + np.count_nonzero(fit), _SMOOTH_COUNT_CAP, what)
            ms_parts.append(ms[fit] * power)
            val_parts.append(vals[fit] * fpow)
            power, fpow = power * p, fpow * fv
        ms, vals = np.concatenate(ms_parts), np.concatenate(val_parts)
    order = np.argsort(ms)
    return ms[order], vals[order]


_MELLIN_STEP, _MELLIN_HALVINGS, _MELLIN_TOL = 0.5, 8, 1e-10


def _mellin_unit(s: float) -> float:
    """integral_0^inf exp(-pi/v^2) v^{-s-1} dv by the trapezoid rule in w = log v.

    The integrand exp(-pi e^{-2w} - s w) is analytic in |Im w| < pi/4 and
    decays at both ends of the line, so the rule errs by O(exp(-c/step)).
    Below w = -3 it is under exp(-pi e^6); past the upper end its tail is
    _MELLIN_TOL * 1e-6.  The step halves, reusing the earlier nodes, until
    two estimates agree within _MELLIN_TOL, else QuadratureFailure.  The
    last halving's nodes are charged 32 B each, the four node vectors alive
    at once, and 4 KiB of headers.
    """
    lo = -3.0
    # the node count in Decimal: in float a tiny s makes it infinite
    d = Decimal(s)
    count = ((10**6 / (d * Decimal(_MELLIN_TOL))).ln() / d - Decimal(lo)) / Decimal(_MELLIN_STEP)
    n = max(1, math.ceil(count))
    check_bytes(32 * (n << (_MELLIN_HALVINGS - 1)) + 4096, f"the Mellin quadrature at s = {s}")

    def node_sum(step: float, offset: float, nodes: int) -> float:
        w = lo + step * (np.arange(nodes) + offset)
        return float(np.exp(-math.pi * np.exp(-2.0 * w) - s * w).sum())

    step = _MELLIN_STEP
    est = step * node_sum(step, 0.0, n + 1)
    for _ in range(_MELLIN_HALVINGS):
        # the new nodes sit halfway between the old ones
        prev, est = est, 0.5 * (est + step * node_sum(step, 0.5, n))
        step, n = 0.5 * step, 2 * n
        if abs(est - prev) <= _MELLIN_TOL * max(1.0, abs(est)):
            return est
    raise QuadratureFailure(f"Mellin quadrature unresolved at step {step}")


def mellin_transform_check(y_smooth: float, s: float, sample: RmfSample,
                           smooth_cap: int = 10**12) -> tuple[complex, complex]:
    """(numeric, closed-form) value of the Mellin transform of the smooth Gaussian sum.

    h(v) = sum_{m y-smooth} f(m) exp(-pi m^2/v^2).  Closed form:
    Gamma(s/2)/(2 pi^{s/2}) * prod_{p <= y} (1 - f(p) p^{-s})^{-1}.  Term m
    is term 1 at v/m, so the numeric side is the quadrature of term 1 times
    sum f(m) m^{-s} over the smooth m <= smooth_cap; y_smooth = 1 leaves
    m = 1 alone.  OutOfRange unless 1 <= y_smooth <= the sample limit, since f
    is drawn only at the primes up to it, or when smooth_cap >= 2^63 (int64).
    """
    if not 0 < s < math.inf:
        raise OutOfRange(f"need 0 < s < inf, got s = {s}")
    if not 1 <= y_smooth <= sample.limit:
        raise OutOfRange(f"y = {y_smooth} must lie in [1, sample limit {sample.limit}]")
    smooth_cap = whole(smooth_cap, 0, "smooth_cap")
    if smooth_cap >= 2**63:
        raise OutOfRange(f"smooth_cap = {smooth_cap} must be below 2^63")
    ms, cs = _smooth_values(sample, y_smooth, smooth_cap)
    numeric = _mellin_unit(s) * complex(np.sum(cs * ms.astype(np.float64) ** -s))
    closed = math.gamma(s / 2.0) / (2.0 * math.pi ** (s / 2.0))
    count = np.searchsorted(sample.primes, y_smooth, side="right")
    for p, f in zip(sample.primes[:count].tolist(), sample.fp[:count].tolist()):
        closed = closed / (1.0 - f * float(p) ** (-s))
    return numeric, complex(closed)
