"""Proxy weights: short Dirichlet polynomials over prime windows, truncated
exponentials, and their dominating surrogates.

The construction splits the primes up to y = x^{1/C0} into a chain of windows
(y_{m-1}, y_m] with y_{m-1} = y_m^{1/20}.  For a completely multiplicative
unit source s (a character or a random multiplicative sample), each window and
integer shift l carries the polynomial

    D_{m,l}(s) = sum_{y_{m-1} < p <= y_m} [ s(p)/p^{1/2 + i l/log y}
                                            + s(p)^2 / (2 p^{1 + 2 i l/log y}) ],

a squared truncated exponential ("level factor")

    R_{m,l}(s) = ( sum_{j <= J_m} (k-1)^j/j! * (Re D_{m,l})^j )^2,

and the full proxy weight R(s) = sum_l prod_m R_{m,l}(s) over integer shifts
|l| <= floor(log(y)/2).  Piecewise dominating surrogates, branching on the
dyadic bin of |Re D|, support the moment comparison machinery downstream.

poly_table takes a stack of sources (one source is the one-row case) and gives
D over (source, shift, window); level factors and the subadditivity split keep
the reductions of a one-source table.  The truncation series is elementwise
over (d, k, depth), like the truncated exponential and the surrogates.

Two profiles are supported, one constructor each.  paper_params resolves the
full parameter recursion from C0 (window count from a geometric bracket on
log log y, J-chain decreasing by one, and the 10^4*k*J length constraint);
its constants are only reachable at astronomical x, so parameters are handled
on log scale.  desk_params keeps the identical structure at numerically
exercisable sizes: it takes y itself, with log y = math.log(y), and
user-chosen window count and truncation depths.  A window holds the integers
n with math.log(n) in (log y_{m-1}, log y_m], so an integer edge such as a
prime y lies in its own window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes
from .charsum import weighted_char_sums
from .errors import OutOfRange, at_least, at_most, check_bytes, whole
from .fpoly import FPoly
from .modarith import PrimeModulus
from .rmf import RmfSample

_LOG20 = math.log(20.0)
LENGTH_FACTOR = 10**4  # paper-profile short-polynomial constraint factor
DEPTH_FACTOR = 10**5   # paper-profile J_M = ceil(C0/(10^5 k))
_SERIES_TERMS = 60     # truncation_error_series sums depth < j <= depth + 60
_LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))  # math.exp overflows above it
DEPTH_CAP = 10**6      # truncated_exp makes one pass over d per term


def _edge(log_e: float) -> int:
    """The largest integer n with math.log(n) <= log_e.

    Membership is decided on the log scale, by the math.log that made the
    edge, so an integer edge holds itself: exp(log 5) is 4.999999999999999.
    Refuses an edge past the sieve cap, where no window can be enumerated,
    before exp can overflow.
    """
    log_e = at_most(log_e, math.log(primes.SIEVE_CAP), "log of the window edge")
    n = math.floor(math.exp(log_e))
    while math.log(n + 1) <= log_e:
        n += 1
    while math.log(n) > log_e:
        n -= 1
    return n


@dataclass(frozen=True)
class Level:
    """Prime window with truncation depth j, stored on log scale.

    The integers of the window are lo < n <= hi: those with math.log(n) in
    (log_lo, log_hi].
    """

    log_lo: float
    log_hi: float
    j: int

    @property
    def lo(self) -> int:
        return _edge(self.log_lo)

    @property
    def hi(self) -> int:
        return _edge(self.log_hi)


@dataclass(frozen=True)
class ProxyParams:
    """Window chain and truncation depths for one proxy construction."""

    k: float
    c0: float
    log_x: float
    levels: tuple[Level, ...]

    @property
    def m_count(self) -> int:
        return len(self.levels)

    @property
    def log_y(self) -> float:
        return self.levels[-1].log_hi

    def penalty_exp(self, m: int) -> int:
        """Even exponent a_m = 2*ceil(200*k*J_m) attached to window m, 1 <= m <= m_count."""
        m = whole(m, 1, "m")
        if m > self.m_count:
            raise OutOfRange(f"m must be <= {self.m_count}, the window count")
        return 2 * math.ceil(200.0 * self.k * self.levels[m - 1].j)

    @property
    def shift_count(self) -> int:
        """How many integer shifts l have |l| <= floor(log(y)/2)."""
        return 2 * math.floor(self.log_y / 2.0) + 1

    def shift_values(self) -> np.ndarray:
        """The shift_count integer shifts, -floor(log(y)/2) to floor(log(y)/2), 8 B each."""
        count = self.shift_count
        check_bytes(8 * count, f"{count} shifts")
        return np.arange(-(count // 2), count // 2 + 1, dtype=np.int64)

    def poly_length_log(self) -> float:
        """log of the largest index reachable by any level factor: sum 4*J_m*log(y_m)."""
        return sum(4.0 * lv.j * lv.log_hi for lv in self.levels)

    def check_length(self, log_x: float, q: int) -> None:
        """OutOfRange unless x * prod_m y_m^{4 J_m} < q: every index of |S(x)|^2 R is below q."""
        q = whole(q, 2, "q")
        if not self.poly_length_log() + log_x < math.log(q):
            raise OutOfRange(f"x * prod y_m^(4 J_m) >= q = {q}: weights too long for this modulus")


def _log_x(log_x: float, k: float) -> float:
    """log_x, with 0 < log_x < inf and 2 <= k < inf checked.

    The comparisons are written so that a NaN fails them.
    """
    if not 0 < log_x < math.inf:
        raise OutOfRange(f"log x must be positive and finite, got {log_x}")
    at_least(k, 2, "k")
    return log_x


def _params(k: float, c0: float, log_x: float, log_y: float, js) -> ProxyParams:
    """One window per depth in js, with log y_m = log_y / 20^(M-m); the lowest edge is 1."""
    bounds = [log_y / 20.0 ** (len(js) - m) for m in range(1, len(js) + 1)]
    levels = tuple(Level(lo, hi, j) for lo, hi, j in zip([0.0] + bounds[:-1], bounds, js))
    return ProxyParams(k=float(k), c0=float(c0), log_x=float(log_x), levels=levels)


def paper_params(*, log_x: float, k: float, c0: float) -> ProxyParams:
    """The paper's chain for scale log x, exponent k and log y = log x / C0.

    Window count M is the unique value with 20^(M-1) inside
    [ (log log y)^2, 20 (log log y)^2 ), depths are J_1 = ceil((log log y)^{3/2}),
    J_M = ceil(C0/(10^5 k)), J_m = J_M + M - m in between, and the length
    constraint prod_m y_m^{10^4 k J_m} < x must hold; it needs log x > C0 > 2*10^4,
    so x itself is past the float range.
    """
    log_x = _log_x(log_x, k)
    if not c0 > 0:
        raise OutOfRange("C0 must be positive")
    log_y = log_x / c0
    if log_y <= 1.0:
        raise OutOfRange("log log y undefined: need y > e")
    big_l = math.log(log_y)
    l2 = big_l * big_l
    m_count = 1 + max(0, math.ceil(math.log(l2) / _LOG20))
    if not (l2 <= 20.0 ** (m_count - 1) < 20.0 * l2):
        raise OutOfRange("window bracket for M is empty at this y")
    j_top = math.ceil(c0 / (DEPTH_FACTOR * k))
    js = [math.ceil(big_l**1.5)] + [j_top + m_count - m for m in range(2, m_count + 1)]
    params = _params(k, c0, log_x, log_y, js)
    budget = LENGTH_FACTOR * k * sum(lv.j * lv.log_hi for lv in params.levels)
    if not budget < log_x:
        raise OutOfRange(f"length constraint fails: 10^4*k*sum J_m log y_m = {budget:.4g} "
                         f">= log x = {log_x:.4g}")
    return params


def desk_params(x: float | None = None, *, y: float, k: float, j_values=None,
                q: int | None = None, log_x: float | None = None) -> ProxyParams:
    """The desk chain below y for scale x (or log_x directly) and exponent k.

    j_values lists the J_m, one window each (default (2,)); C0 = log x / log y
    is only reported.  When q is given, the cross-moment length guard
    x * prod_m y_m^{4 J_m} < q is enforced.
    """
    if (x is None) == (log_x is None):
        raise OutOfRange("pass exactly one of x, log_x")
    if x is not None and not x > 1:
        raise OutOfRange("x must be > 1")
    log_x = _log_x(math.log(x) if log_x is None else log_x, k)
    if not 1 < y < math.inf:
        raise OutOfRange(f"y must be > 1 and finite, got {y}")
    q = None if q is None else whole(q, 2, "q")
    js = [whole(j, 1, "j") for j in j_values] if j_values is not None else [2]
    if not js:
        raise OutOfRange("j_values must list one depth >= 1 per window")
    log_y = math.log(y)
    params = _params(k, log_x / log_y, log_x, log_y, js)
    if q is not None:
        params.check_length(log_x, q)
    return params


# ---------------------------------------------------------------------------
# sources

class OnesSource:
    """The constant source s(n) = 1 (deterministic reference)."""

    def values_at(self, ns: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(ns).shape, dtype=np.complex128)


@dataclass(eq=False)
class CharSource:
    """A fixed character chi_a as a completely multiplicative source."""

    mod: PrimeModulus
    a: int

    def values_at(self, ns: np.ndarray) -> np.ndarray:
        return self.mod.char_values(self.a, ns)


@dataclass(eq=False)
class SampleSource:
    """A random multiplicative sample as a source."""

    sample: RmfSample

    def values_at(self, ps: np.ndarray) -> np.ndarray:
        """f at an array of primes; OutOfRange for a composite or a prime beyond the sample."""
        table = self.sample.primes
        idx = np.searchsorted(table, ps)
        if idx.size and (idx.max() >= table.size or np.any(table[idx] != ps)):
            raise OutOfRange("values_at takes primes covered by the sample")
        return self.sample.fp[idx]


# ---------------------------------------------------------------------------
# window polynomials and level factors

def _window_coeffs(params: ProxyParams, m: int,
                   shifts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primes p of window m and the coefficient rows of s(p) and s(p)^2 in D_{m,l}.

    Row i belongs to shift l = shifts[i]: p^{-1/2} e^{-i l log p/log y} and
    p^{-1} e^{-2 i l log p/log y} / 2.
    """
    lv = params.levels[m - 1]
    ps = primes.primes_in(lv.lo, lv.hi)
    lp = np.log(ps.astype(np.float64))
    phase = np.exp(-1j * np.multiply.outer(np.asarray(shifts) / params.log_y, lp))
    return ps, np.exp(-0.5 * lp) * phase, 0.5 * np.exp(-lp) * phase * phase


def _window_polys(params: ProxyParams, sources, m: int, shifts) -> np.ndarray:
    """D_{m,l}(s) for each source s (rows) and shift l (columns), one values_at call per source."""
    ps, first, second = _window_coeffs(params, m, shifts)
    # two complex products of sources x shifts x primes are live at once
    check_bytes(32 * len(sources) * first.size, f"window polynomials of {len(sources)} sources")
    sv = np.stack([source.values_at(ps) for source in sources])[:, None, :]
    return (first * sv + second * (sv * sv)).sum(axis=-1)


def _window_polys_all_chars(mod: PrimeModulus, params: ProxyParams, m: int,
                            shifts) -> np.ndarray:
    """D_{m,l}(chi_a) for every shift (rows) and character a (columns), one fold per window.

    Each shift's coefficients on p and p^2 form one row of weights; the
    weighted transform takes one DFT per row.
    """
    ps, first, second = _window_coeffs(params, m, shifts)
    return weighted_char_sums(mod, np.concatenate([ps, ps * ps]),
                              np.concatenate([first, second], axis=1))


def poly_table(params: ProxyParams, sources) -> np.ndarray:
    """D_{m,l}(s) for each source s, shift l (as shift_values) and window m, in that axis order."""
    if not sources:
        raise OutOfRange("need at least one source")
    shifts = params.shift_values()
    return np.stack([_window_polys(params, sources, m, shifts)
                     for m in range(1, params.m_count + 1)], axis=-1)


def truncated_exp(d, depth: int, coef: float):
    """sum_{j <= depth <= DEPTH_CAP} (coef * d)^j / j!, elementwise over a scalar or array d."""
    depth = at_most(whole(depth, 0, "depth"), DEPTH_CAP, "depth")
    d = np.asarray(d, dtype=np.float64)
    acc = term = np.ones_like(d)
    for j in range(1, depth + 1):
        term = term * (coef * d) / j
        acc = acc + term
    return acc


def level_factors(params: ProxyParams, table: np.ndarray) -> np.ndarray:
    """R_{m,l}: squared truncated exponential of (k-1) Re D_{m,l}, over a D table
    whose last axis runs over the windows."""
    out = np.empty(table.shape)
    for m, lv in enumerate(params.levels):
        t = truncated_exp(table[..., m].real, lv.j, params.k - 1.0)
        out[..., m] = t * t
    return out


def _weight(params: ProxyParams, table: np.ndarray):
    """R = sum over shifts (axis 0) of the product over windows (last axis) of level factors."""
    return level_factors(params, table).prod(axis=-1).sum(axis=0)


def proxy_weight(params: ProxyParams, source) -> float:
    """R(source) = sum over shifts of the product of level factors."""
    return float(_weight(params, poly_table(params, [source])[0]))


def proxy_weight_all_chars(mod: PrimeModulus, params: ProxyParams) -> np.ndarray:
    """R(chi_a) for every character, sharing one DFT per (window, shift)."""
    shifts = params.shift_values()
    table = np.stack([_window_polys_all_chars(mod, params, m, shifts)
                      for m in range(1, params.m_count + 1)], axis=-1)
    return _weight(params, table)


def exp_weight_total(params: ProxyParams, source) -> float:
    """Untruncated analogue of the proxy weight: sum_l exp(2(k-1) Re sum_m D_{m,l})."""
    logs = 2.0 * (params.k - 1.0) * poly_table(params, [source])[0].real.sum(axis=1)
    peak = logs.max()
    if not peak <= _LOG_FLOAT_MAX:  # the peak term alone overflows
        return math.inf
    return float(math.exp(peak) * np.exp(logs - peak).sum())


# ---------------------------------------------------------------------------
# truncation error: direct difference and explicit double-tail series

def truncation_error_direct(d: float, k: float, depth: int) -> float:
    """exp(2(k-1)d) - (truncated exp)^2; inf where that overflows, OutOfRange where (k-1)d does."""
    x = (at_least(k, -math.inf, "k") - 1.0) * at_least(d, -math.inf, "d")
    grow = 2.0 * at_least(x, -math.inf, "(k - 1) d")
    t = float(truncated_exp(d, depth, k - 1.0))
    return math.exp(grow) - t * t if grow <= _LOG_FLOAT_MAX else math.inf


def truncation_error_series(d, k, depth):
    """Same quantity as the explicit double series over max(j1, j2) > depth,
    elementwise over scalars or arrays d, k and depth.  OutOfRange for a
    non-finite d or k, and where a sum leaves the float range."""
    d, k, depth = np.broadcast_arrays(d, k, depth)
    for dv, kv in zip(d.ravel().tolist(), k.ravel().tolist()):
        at_least(dv, -math.inf, "d")
        at_least(kv, -math.inf, "k")
    depths = [whole(j, 0, "depth") for j in depth.ravel().tolist()]
    cap = max(depths, default=0) + _SERIES_TERMS
    pairs = (cap + 1) * (cap + 2) // 2
    # 8 B per value and term of the c table and 64 B per value for its scalar,
    # depth and result; 49 B per pair for the two int64 pair indices, the
    # doublings and their mask, and one row's two gathers and their product
    check_bytes(8 * d.size * (cap + 9) + 49 * pairs + 4096,
                f"the truncation series of {d.size} values")
    c = np.ones((d.size, cap + 1))  # c_0 = 1
    x = ((k - 1.0) * d).ravel()
    for j in range(1, cap + 1):
        c[:, j] = c[:, j - 1] * x / j
    j, i = np.tril_indices(cap + 1)  # pairs i <= j, in runs of equal j
    # c_i c_j == c_j c_i bit for bit and doubling is exact, so each pair off the
    # diagonal enters once, doubled; fsum is correctly rounded, so neither that
    # nor the order of the terms moves the sum
    doubled = np.where(i < j, 2.0, 1.0)
    sums = []
    try:
        for row, jd in zip(c, depths):
            # the pairs with depth < j <= depth + _SERIES_TERMS: run j starts at
            # j (j + 1) / 2; a memoryview hands fsum Python floats without a list
            top = jd + _SERIES_TERMS
            a, b = (jd + 1) * (jd + 2) // 2, (top + 1) * (top + 2) // 2
            sums.append(math.fsum(memoryview(row[i[a:b]] * row[j[a:b]] * doubled[a:b])))
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        raise OutOfRange("the truncation series overflows the float range") from None
    return np.reshape(sums, d.shape)[()]


# ---------------------------------------------------------------------------
# dyadic bins and dominating surrogates

def _bin_of(r, t0: float):
    """Dyadic bin of r = |Re D| >= 0, elementwise: 0 on [0, t0], n on (t0 2^{n-1}, t0 2^n]."""
    # r/t0 = m 2^e with m in [1/2, 1), so ceil(log2(r/t0)) = e, or e - 1 when m = 1/2
    m, e = np.frexp(np.asarray(r, dtype=np.float64) / t0)
    return np.maximum(e - (m == 0.5), 0)[()]


def surrogate_log_at(d, k: float, j: int, a: int):
    """log U, elementwise over polynomial values d, with depth j and penalty exponent a.

    Three branches on the class floor W of |Re d|: the truncated exponential
    with unit coefficient when the bin is 0 (-inf where it vanishes); e^{4W}
    |d/W|^a while W <= 100 k j; and (2 (k-1)^j (2W)^j / j!)^{2/(k-1)} |d/W|^a beyond.
    """
    d = np.asarray(d, dtype=np.complex128)
    j, a = whole(j, 1, "j"), whole(a, 0, "a")
    t0 = j / (100.0 * at_least(k, 2, "k"))
    n = _bin_of(np.abs(d.real), t0)
    w = t0 * 2.0 ** (n - 1)
    with np.errstate(divide="ignore"):
        bin0 = 2.0 * np.log(np.abs(truncated_exp(d.real, j, 1.0)))
        penalty = a * (np.log(np.abs(d)) - np.log(w))
    lead = (2.0 / (k - 1.0)) * (math.log(2.0) + j * math.log(k - 1.0)
                                + j * np.log(2.0 * w) - math.lgamma(j + 1.0))
    return np.where(n == 0, bin0,
                    np.where(w <= 100.0 * k * j, 4.0 * w, lead) + penalty)[()]


def subadditivity_split(params: ProxyParams, sources) -> list[tuple[float, float]]:
    """(R^{k/(k-1)}, sum_{l1,l2} prod_m R_{m,l1} R_{m,l2}^{1/(k-1)}) for each source.

    The left side never exceeds the right for k >= 2.
    """
    table = level_factors(params, poly_table(params, sources))
    full = table.prod(axis=-1).sum(axis=-1)
    frac = (table ** (1.0 / (params.k - 1.0))).prod(axis=-1).sum(axis=-1)
    # one scalar power per source: numpy's array power may round differently
    return [(float(f ** (params.k / (params.k - 1.0))), float(f * g))
            for f, g in zip(full, frac)]


# ---------------------------------------------------------------------------
# exact polynomial forms (diagonal-expectation oracle route)

def proxy_weight_fpoly(params: ProxyParams) -> FPoly:
    """The full proxy weight as an exact polynomial (desk sizes only): sum_l prod_m R_{m,l}."""
    total = FPoly()
    for l in params.shift_values():
        prod = FPoly.const(1.0)
        for m, lv in enumerate(params.levels, start=1):
            ps, first, second = _window_coeffs(params, m, [int(l)])
            d = FPoly()
            for p, a, b in zip(ps.tolist(), first[0], second[0]):
                d = d + FPoly.var(p, a) + FPoly.var(p * p, b)
            red = d.real_part()
            t = term = FPoly.const(1.0)
            for j in range(1, lv.j + 1):
                term = term * red * ((params.k - 1.0) / j)
                t = t + term
            prod = prod * (t * t)
        total = total + prod
    return total
