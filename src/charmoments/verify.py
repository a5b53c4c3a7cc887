"""Cross-validation harness: every structural identity and inequality the
package relies on, phrased as dual-route checks with explicit tolerances.

Each check computes one quantity along two independent routes (or an
inequality's two sides) and returns a CheckReport.  Calibrated constants come
from the calibration module and are recorded in each report's context, never
hard-coded into pass conditions.  The proxy cross moments are computed by the
two checks that compare them.  Quadratures and transforms are numpy; a check
reaches scipy.fft only through charsum._dft at a rough q - 1 >= 2^16.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import euler, moments, primes, proxy, rmf, theta
from .calibration import Calibration
from .charsum import (abs_char_sums, all_char_sums_fft, all_char_sums_naive, mirror,
                      weighted_char_sums)
from .errors import OutOfRange, at_least, check_bytes, whole
from .fpoly import FPoly
from .modarith import PrimeModulus, build_modulus


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one dual-route comparison."""

    name: str
    lhs: float
    rhs: float
    relation: str  # "eq", "le", or "ge"
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)


Reports = list[CheckReport]


def _report(name: str, lhs: float, rhs: float, relation: str, tolerance: float,
            scale: float | None = None, context: dict | None = None) -> CheckReport:
    """Build a report; tolerance is relative to scale (default: larger side)."""
    if scale is None:
        scale = max(1.0, abs(lhs), abs(rhs))
    slack = tolerance * scale
    if relation == "eq":
        passed = abs(lhs - rhs) <= slack
    elif relation == "le":
        passed = lhs <= rhs + slack
    elif relation == "ge":
        passed = lhs >= rhs - slack
    else:
        raise OutOfRange(f"unknown relation {relation!r}")
    ctx = dict(context or {})
    ctx.setdefault("scale", scale)
    return CheckReport(name=name, lhs=float(lhs), rhs=float(rhs), relation=relation,
                       tolerance=float(tolerance), passed=bool(passed), context=ctx)


# ---------------------------------------------------------------------------
# diagonal identities

def check_orthogonality_correspondence(mod: PrimeModulus, coeffs: np.ndarray,
                                       cal: Calibration) -> CheckReport:
    """(1/(q-1)) sum over all chi of |sum_n c_n chi(n)|^2 against sum |c_n|^2.

    Exact for polynomials shorter than q; refuses longer ones.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.size >= mod.q:
        raise OutOfRange(f"polynomial length {coeffs.size} >= q = {mod.q}")
    ns = np.arange(1, coeffs.size + 1, dtype=np.int64)
    sums = weighted_char_sums(mod, ns, coeffs)
    lhs = float((np.abs(sums) ** 2).sum() / (mod.q - 1))
    rhs = float((np.abs(coeffs) ** 2).sum())
    return _report("orthogonality-correspondence", lhs, rhs, "eq",
                   cal.orthogonality_tol, scale=max(rhs, 1e-300),
                   context={"q": mod.q, "length": int(coeffs.size)})


def check_fourth_moment_count(mod: PrimeModulus, x: float, cal: Calibration) -> CheckReport:
    """(1/(q-1)) sum over all chi of |S_chi(x)|^4 against the congruence count."""
    lhs = moments.char_moment(mod, x, 2.0, exclude_principal=False).value
    rhs = float(moments.congruence_energy(mod.q, x))
    return _report("fourth-moment-count", lhs, rhs, "eq", cal.orthogonality_tol,
                   scale=rhs, context={"q": mod.q, "x": x})


def check_reflection(mod: PrimeModulus, x: float, cal: Calibration) -> CheckReport:
    """|S_chi(x)| = |S_chi(q-1-floor(x))| for every non-principal chi; needs 1 <= x < q - 1."""
    x_mirror = mod.q - 1 - math.floor(at_least(x, 1, "x"))
    if x_mirror < 1:
        raise OutOfRange(f"x = {x} must be below q - 1 = {mod.q - 1}: its mirror is below 1")
    # the half spectrum holds every |S_chi| once: chi_{-a} has the modulus of chi_a
    left = abs_char_sums(mod, x)[1:]
    right = abs_char_sums(mod, x_mirror)[1:]
    dev = float(np.max(np.abs(left - right)))
    scale = float(max(1.0, np.max(left)))
    return _report("reflection-symmetry", dev, 0.0, "eq", cal.reflection_tol,
                   scale=scale, context={"q": mod.q, "x": x, "mirror": x_mirror})


def check_fft_vs_naive(mod: PrimeModulus, x: float) -> CheckReport:
    """Entrywise agreement of the DFT and direct prefix-sum evaluators."""
    fast = all_char_sums_fft(mod, x).values
    slow = all_char_sums_naive(mod, x).values
    dev = float(np.max(np.abs(fast - slow)))
    allowance = 1e-8 * math.sqrt(math.floor(at_least(x, 1, "x")))
    return _report("fft-vs-naive", dev, 0.0, "eq", allowance, scale=1.0,
                   context={"q": mod.q, "x": x})


# ---------------------------------------------------------------------------
# inequalities

def check_bernoulli(xs) -> CheckReport:
    """prod(1 + x_i) >= 1 - sum |x_i| whenever every x_i >= -1."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and not xs.min() >= -1.0:  # NaN too
        raise OutOfRange("all inputs must be >= -1")
    lhs = float(np.prod(1.0 + xs))
    rhs = float(1.0 - np.abs(xs).sum())
    return _report("product-lower-bound", lhs, rhs, "ge", 1e-12,
                   context={"count": int(xs.size)})


def check_even_moment_ratio(c: dict[int, complex], pset: tuple[int, ...],
                            ap: dict[int, complex], ap2: dict[int, complex],
                            j: int, cal: Calibration) -> CheckReport:
    """Exact E |sum c_n f(n)|^2 |Q(f)|^{2j} against its product-form majorant.

    Q(f) = sum_p (a_p f(p)/sqrt(p) + a_{p^2} f(p^2)/p).  The majorant is
    (sum_n dr(n) |c_n|^2) * j! * (sum_p 2|a_p|^2/p + 6|a_{p^2}|^2/p^2)^j with
    dr(n) counting divisors supported on pset.  The ratio stays below the
    calibrated ceiling.
    """
    j = whole(j, 0, "j")
    sc = FPoly({(n, 1): complex(v) for n, v in c.items()})
    q_poly = FPoly()
    for p in pset:
        if ap.get(p):
            q_poly = q_poly + FPoly.var(p, ap[p] / math.sqrt(p))
        if ap2.get(p):
            q_poly = q_poly + FPoly.var(p * p, ap2[p] / p)
    expr = sc.abs2() * q_poly.power(j) * q_poly.conj().power(j)
    lhs = expr.expectation().real
    base = sum(2.0 * abs(ap.get(p, 0)) ** 2 / p + 6.0 * abs(ap2.get(p, 0)) ** 2 / p**2
               for p in pset)
    rhs = sum(math.prod(e + 1 for p, e in primes.factorize(n) if p in pset) * abs(v) ** 2
              for n, v in c.items())
    rhs *= math.factorial(j) * base**j
    ratio = lhs / rhs if rhs > 0 else math.inf
    return _report("even-moment-ratio", ratio, cal.lemma_ratio_max, "le", 0.0,
                   scale=1.0, context={"j": j, "pset": list(pset),
                                       "exact": lhs, "majorant": rhs})


def check_rough_count(a: float, b: float, y: float, cal: Calibration) -> CheckReport:
    """Count of n in (a, b] with no prime factor <= y against (b - a)/log y.

    Only the window is sieved, by the primes p <= y, one byte a number.
    """
    lo, hi = int(math.floor(at_least(a, 0, "a"))) + 1, int(math.floor(at_least(b, a, "b")))
    check_bytes(hi - lo + 1, f"the sieve window ({a}, {b}]")
    rough = np.ones(max(0, hi - lo + 1), dtype=bool)
    for p in primes.primes_up_to(min(at_least(y, 0, "y"), hi)).tolist():
        rough[-lo % p :: p] = False
    count = int(rough.sum())
    expected = (b - a) / math.log(y) if y >= 2 else (b - a)
    ratio = count / expected if expected > 0 else math.inf
    below = ratio < cal.sieve_ratio_lo  # reported against the window's lower end
    return _report("rough-count-ratio", ratio,
                   cal.sieve_ratio_lo if below else cal.sieve_ratio_hi,
                   "ge" if below else "le", 0.0, scale=1.0,
                   context={"count": count, "expected": expected,
                            "window_lo": cal.sieve_ratio_lo, "window_hi": cal.sieve_ratio_hi,
                            "interval": [a, b], "y": y})


def check_cosine_branch(t: float, y: float, cal: Calibration) -> CheckReport:
    """Prime cosine sum stays below its branch bound plus the calibrated slack."""
    res = euler.cosine_sum(t, y)
    return _report("cosine-branch-bound", res.value, res.bound + cal.cosine_slack,
                   "le", 0.0, scale=1.0,
                   context={"t": t, "y": y, "branch": res.branch,
                            "bound": res.bound, "slack": cal.cosine_slack})


def check_euler_product_quadrature(spec: euler.EulerProductSpec) -> CheckReport:
    """log of the per-prime quadrature product against the closed-form exponent.

    The closed form drops an O(.) term, so the two agree within error_bracket(spec).
    """
    lhs = math.log(euler.pair_product_quad(spec))
    rhs = euler.expected_product_exponent(spec)
    return _report("euler-product-quadrature", lhs, rhs, "eq", euler.error_bracket(spec),
                   scale=1.0, context={"z": spec.z, "y": spec.y})


# ---------------------------------------------------------------------------
# Parseval identity

def check_parseval(coeffs: dict[int, complex], sigma: float, cal: Calibration,
                   tol: float | None = None) -> CheckReport:
    """integral_1^inf |sum_{n<=x} a_n|^2 x^{-1-2 sigma} dx against its transform side.

    The left side integrates the piecewise-constant partial sums in closed
    form per segment.  The right side is (1/2 pi) integral |F(sigma+it)|^2 /
    |sigma+it|^2 dt with F(s) = sum a_n n^{-s}.  Expanding |F|^2 over pairs
    (n, m) leaves, the sine parts being odd in t, one Fourier integral per
    pair, (1/pi) integral_0^inf cos(lambda t)/(sigma^2+t^2) dt = e^{-sigma
    lambda}/(2 sigma) with lambda = |log(n/m)|, in closed form.
    """
    if not 0 < sigma < math.inf:
        raise OutOfRange(f"need sigma > 0 and finite, got sigma = {sigma}")
    if tol is None:
        tol = cal.parseval_random_tol
    ns = np.array(sorted(coeffs), dtype=np.int64)
    if ns.size == 0 or ns[0] < 1:
        raise OutOfRange("coefficients must sit on integers >= 1")
    an = np.array([coeffs[int(n)] for n in ns], dtype=np.complex128)

    # the partial sum through ns[i] holds on [ns[i], ns[i+1]), the last one to infinity
    x = np.append(ns.astype(np.float64) ** (-2.0 * sigma), 0.0)
    lhs = math.fsum(memoryview(np.abs(np.cumsum(an)) ** 2 * (x[:-1] - x[1:]))) / (2.0 * sigma)

    # |F|^2 = sum_{n,m} b_n conj(b_m) (n/m)^{-it}, and e^{-sigma lambda} = (min/max)^sigma
    b, nl = (an * ns.astype(np.float64) ** (-sigma)).tolist(), ns.tolist()
    rhs = math.fsum((bn * bm.conjugate()).real * (min(n, m) / max(n, m)) ** sigma
                    for n, bn in zip(nl, b) for m, bm in zip(nl, b)) / (2.0 * sigma)
    return _report("parseval-transfer", lhs, rhs, "eq", tol,
                   scale=max(abs(lhs), abs(rhs), 1e-300),
                   context={"sigma": sigma, "support": [int(n) for n in ns]})


# ---------------------------------------------------------------------------
# proxy-weight checks

def check_series_consistency(instances, cal: Calibration) -> CheckReport:
    """Direct truncation error against the double-tail series on given (d, k, depth)."""
    instances = list(instances)
    if not instances:
        raise OutOfRange("need at least one (d, k, depth) instance")
    series = proxy.truncation_error_series(*(np.array(col) for col in zip(*instances)))
    worst = 0.0
    worst_inst = None
    for inst, s in zip(instances, series.tolist()):
        rel = abs(proxy.truncation_error_direct(*inst) - s) / max(abs(s), 1e-300)
        if rel > worst:
            worst, worst_inst = rel, inst
    return _report("truncation-series-consistency", worst, 0.0, "eq",
                   cal.series_rel_tol, scale=1.0,
                   context={"instances": len(instances), "worst_at": worst_inst})


def _domination_constant(d: np.ndarray, k: float, j: int, a: int) -> float:
    """max over polynomial values d of (R^{1/(k-1)}/U - 1) e^{j}, floored at 0.

    R is the squared truncated exponential of (k-1) Re d.  A value whose
    surrogate vanishes (log U = -inf) needs an infinite constant.
    """
    log_u = proxy.surrogate_log_at(d, k, j, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lhs = np.log(np.abs(proxy.truncated_exp(d.real, j, k - 1.0))) * 2.0 / (k - 1.0)
        excess = np.where(log_u > -np.inf, np.exp(log_lhs - log_u) - 1.0, np.inf)
    return max(0.0, float(np.max(excess * math.exp(j))))


def check_surrogate_domination(params: proxy.ProxyParams, sources,
                               cal: Calibration) -> CheckReport:
    """R_{m,l}^{1/(k-1)} <= (1 + c e^{-J_m}) U_{m,l} with the calibrated c.

    Reports the smallest c that would have sufficed across all sources,
    windows, and shifts, and passes when it is below the ceiling.
    """
    table = proxy.poly_table(params, list(sources))
    needed = max(_domination_constant(table[..., m - 1], params.k, lv.j, params.penalty_exp(m))
                 for m, lv in enumerate(params.levels, start=1))
    return _report("surrogate-domination", needed, cal.surrogate_slack, "le",
                   0.0, scale=1.0, context={"comparisons": table.size})


def check_surrogate_grid(cal: Calibration) -> CheckReport:
    """Branch-complete domination sweep on synthetic polynomial values.

    Re d runs from deep inside bin 0 out past the 100 k j branch change, with
    both signs and a nonzero imaginary part mixed in, so every surrogate
    branch is hit.  Reports the largest slack c that R^{1/(k-1)} demanded.
    """
    needed = 0.0
    count = 0
    ks, js = (2.0, 2.5, 3.0), (1, 2, 3, 4)
    for k in ks:
        for j in js:
            a = 2 * math.ceil(200.0 * k * j)
            t0 = j / (100.0 * k)
            mags = np.concatenate([
                np.linspace(1e-4 * t0, t0, 25),
                np.geomspace(t0 * 1.001, 220.0 * k * j, 60),
            ])
            # magnitude x sign x (zero, nonzero) imaginary part
            d = (np.multiply.outer(mags, [1.0, -1.0])[:, :, None]
                 + 1j * np.multiply.outer(mags, [0.0, 0.3])[:, None, :])
            count += d.size
            needed = max(needed, _domination_constant(d, k, j, a))
    return _report("surrogate-grid", needed, cal.surrogate_slack, "le", 0.0,
                   scale=1.0, context={"points": count, "ks": list(ks),
                                       "js": list(js)})


def check_subadditivity(params: proxy.ProxyParams, sources, cal: Calibration) -> CheckReport:
    """R^{k/(k-1)} <= sum_{l1,l2} prod_m R_{m,l1} R_{m,l2}^{1/(k-1)}, pointwise."""
    sources = list(sources)
    worst = max((lhs - rhs) / max(rhs, 1e-300)
                for lhs, rhs in proxy.subadditivity_split(params, sources))
    return _report("shift-subadditivity", worst, 0.0, "le", cal.chain_slack,
                   scale=1.0, context={"sources": len(sources)})


def _weighted_table(mod: PrimeModulus, x: float, params: proxy.ProxyParams):
    """|S_chi(x)| and R(chi) over every chi; OutOfRange unless x prod_m y_m^{4 J_m} < q,
    the length up to which the character group resolves every index pair of |S|^2 R."""
    params.check_length(math.log(x), mod.q)
    return mirror(abs_char_sums(mod, x), mod.q), proxy.proxy_weight_all_chars(mod, params)


def check_holder_chain(mod: PrimeModulus, x: float, params: proxy.ProxyParams,
                       cal: Calibration) -> CheckReport:
    """Cross moment <= M_2k^{1/k} (power moment of R)^{(k-1)/k}, and the bound it puts on M_2k."""
    k = params.k
    s, w = _weighted_table(mod, at_least(x, 1, "x"), params)
    cross = float(((s ** 2) * w)[1:].sum() / (mod.q - 1))
    m2k = moments.char_moment(mod, x, k).value
    mr = float((w[1:] ** (k / (k - 1.0))).sum() / (mod.q - 1))
    rhs = m2k ** (1.0 / k) * mr ** ((k - 1.0) / k)
    lower = cross ** k / mr ** (k - 1.0)
    return _report("holder-chain", cross, rhs, "le", cal.chain_slack,
                   context={"q": mod.q, "x": x, "k": k, "moment_2k": m2k,
                            "weight_power_moment": mr, "lower_bound": lower,
                            "slack": m2k / lower if lower else math.inf})


def check_weighted_correspondence(mod: PrimeModulus, x: float,
                                 params: proxy.ProxyParams,
                                 cal: Calibration) -> CheckReport:
    """Character average of |S(x)|^2 R(chi) against the exact diagonal expectation."""
    s, w = _weighted_table(mod, at_least(x, 1, "x"), params)
    lhs = float(((s ** 2) * w).sum() / (mod.q - 1))
    big_s = FPoly({(n, 1): 1.0 + 0j for n in range(1, math.floor(x) + 1)})
    rhs = (big_s.abs2() * proxy.proxy_weight_fpoly(params)).expectation().real
    return _report("weighted-correspondence", lhs, rhs, "eq",
                   cal.orthogonality_tol, scale=max(abs(rhs), 1e-300),
                   context={"q": mod.q, "x": x})


# ---------------------------------------------------------------------------
# theta checks

def check_even_orthogonality(mod: PrimeModulus, pairs, cal: Calibration) -> CheckReport:
    """Summed even-character relation against the n = +-m indicator."""
    pairs = list(pairs)
    worst = 0.0
    for n, m in pairs:
        got = theta.even_char_orthogonality(mod, n, m)
        want = 1.0 if (n - m) % mod.q == 0 or (n + m) % mod.q == 0 else 0.0
        if n % mod.q == 0 or m % mod.q == 0:
            want = 0.0
        worst = max(worst, abs(got - want))
    return _report("even-orthogonality", worst, 0.0, "eq", cal.orthogonality_tol,
                   scale=1.0, context={"q": mod.q, "pairs": len(pairs)})


def check_theta_moment_oracle(mod: PrimeModulus, cal: Calibration) -> CheckReport:
    """k = 1 even theta moment: DFT route against the quadratic-form oracle."""
    lhs = theta.theta_moment(mod, 1.0, "even").value
    rhs = theta.even_theta_second_moment_oracle(mod)
    return _report("theta-moment-oracle", lhs, rhs, "eq", cal.orthogonality_tol,
                   scale=max(abs(rhs), 1e-300), context={"q": mod.q})


def check_mellin_unit(s: float, cal: Calibration) -> CheckReport:
    """Mellin identity in the single-term case: numeric side against Gamma(s/2)/(2 pi^{s/2})."""
    sample = rmf.sample(1, 2)
    numeric, closed = theta.mellin_transform_check(1.0, s, sample)
    dev = abs(numeric - closed)
    return _report("mellin-unit", dev, 0.0, "eq", cal.mellin_tol,
                   scale=abs(closed), context={"s": s, "closed": closed.real})


# ---------------------------------------------------------------------------
# suites

def _rand_coeffs(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def suite_identities(mod: PrimeModulus, rng: np.random.Generator, cal: Calibration) -> Reports:
    size = min(mod.q - 1, 40)
    delta = np.zeros(5)
    delta[0] = 1.0
    reports = [
        check_orthogonality_correspondence(mod, delta, cal),
        check_orthogonality_correspondence(mod, _rand_coeffs(rng, size), cal),
        check_fourth_moment_count(mod, min(mod.q - 1, 30), cal),
        check_reflection(mod, (mod.q - 1) * 0.618, cal),
        check_fft_vs_naive(mod, min(mod.q - 1, 200)),
        check_parseval({1: 1.0 + 0j}, 0.5, cal, tol=cal.parseval_delta_tol),
        check_parseval({1: 1.0 + 0j}, 1.5, cal, tol=cal.parseval_delta_tol),
    ]
    support = [1, 2, 3, 4, 6, 8, 9, 12]
    coeffs = {n: complex(z) for n, z in zip(support, _rand_coeffs(rng, len(support)))}
    reports.append(check_parseval(coeffs, 0.75, cal))
    return reports


def suite_counting(mod: PrimeModulus, rng: np.random.Generator, cal: Calibration) -> Reports:
    xs = rng.uniform(-0.4, 0.6, size=8)
    return [
        check_bernoulli(xs),
        check_bernoulli([0.0]),
        check_rough_count(10, 20, 3, cal),
        check_rough_count(100, 1000, 5, cal),
        check_even_moment_ratio({1: 1.0 + 0j, 2: 0.5 - 0.5j, 3: 1j},
                                (2, 3), {2: 1.0, 3: 0.7j}, {2: 0.3, 3: 0.1},
                                2, cal),
    ]


def suite_euler(mod: PrimeModulus, rng: np.random.Generator, cal: Calibration) -> Reports:
    spec = euler.EulerProductSpec(alpha=0.8, beta=0.6, sigma1=0.02, sigma2=0.0,
                                  t1=0.0, t2=2.5, z=250.0, y=750.0)
    return [
        check_euler_product_quadrature(spec),
        check_cosine_branch(0.0, 1e5, cal),
        check_cosine_branch(0.5, 1e5, cal),
        check_cosine_branch(5.0, 1e6, cal),
        check_cosine_branch(50.0, 1e5, cal),
    ]


def suite_proxy(mod: PrimeModulus, rng: np.random.Generator, cal: Calibration) -> Reports:
    instances = [(float(rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0])),
                  float(rng.uniform(2.0, 4.0)), int(rng.integers(1, 5)))
                 for _ in range(40)]
    wide = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])
    skew = proxy.desk_params(x=4.0, y=20.0, k=3.0, j_values=[2])
    sources = [proxy.SampleSource(rmf.sample(s, 25))
               for s in rng.integers(0, 2**62, size=40)]
    char_sources = [proxy.CharSource(mod, a)
                    for a in rng.integers(1, mod.q - 1, size=10)]
    sub_params = proxy.desk_params(x=4.0, y=8.0, k=2.5, j_values=[1])
    return [
        check_series_consistency(instances, cal),
        check_surrogate_grid(cal),
        check_surrogate_domination(wide, sources, cal),
        check_surrogate_domination(skew, sources, cal),
        check_subadditivity(sub_params, sources + char_sources, cal),
    ]


def suite_theta(mod: PrimeModulus, rng: np.random.Generator, cal: Calibration) -> Reports:
    pairs = [(int(n), int(m)) for n, m in rng.integers(1, mod.q, size=(25, 2))]
    pairs += [(3, mod.q - 3), (5, 5)]
    return [
        check_even_orthogonality(mod, pairs, cal),
        check_theta_moment_oracle(mod, cal),
        check_mellin_unit(1.0, cal),
    ]


def suite_holder(mod: PrimeModulus, rng: np.random.Generator, cal: Calibration) -> Reports:
    """The moment-comparison chain; the one suite that runs the Hoelder chain and
    the weighted correspondence."""
    x = 6 if mod.q >= 101 else 2
    params = proxy.desk_params(x=x, y=2.0, k=2.0, j_values=[1], q=mod.q)
    sources = [proxy.SampleSource(rmf.sample(s, 25))
               for s in rng.integers(0, 2**62, size=20)]
    sub_params = proxy.desk_params(x=4.0, y=8.0, k=2.5, j_values=[1])
    return [
        check_holder_chain(mod, x, params, cal),
        check_subadditivity(sub_params, sources, cal),
        check_weighted_correspondence(mod, x, params, cal),
    ]


SUITES = {
    "identities": suite_identities,
    "counting": suite_counting,
    "euler": suite_euler,
    "proxy": suite_proxy,
    "theta": suite_theta,
    "holder": suite_holder,
}

# Smallest prime q per suite (run_suite builds q's modulus for all): 2 for counting and
# euler, which read no modulus; identities needs its length-5 polynomial below q, proxy
# a character index in [1, q - 2], theta an odd prime, and holder x 2^4 < q at x = 2.
MIN_Q = {"identities": 7, "counting": 2, "euler": 2, "proxy": 3, "theta": 3, "holder": 37}


def run_suite(name: str, q: int, seed: int, cal: Calibration | None = None) -> list[CheckReport]:
    """Run one named suite (or 'full' for all) deterministically.

    Refuses a negative seed, and a q below the suite's MIN_Q (the largest one for 'full').
    Calls each suite as suite(mod, rng, cal): mod is q's modulus, built once (build_modulus
    refuses a q that is not prime or past the cap), and rng a fresh default_rng(seed).
    """
    cal = cal or Calibration()
    seed = whole(seed, 0, "seed")
    if name != "full" and name not in SUITES:
        raise OutOfRange(f"unknown suite {name!r}; choose from {sorted(SUITES) + ['full']}")
    names = list(SUITES) if name == "full" else [name]
    least = max(MIN_Q[n] for n in names)
    q = whole(q, -math.inf, "q")
    if q < least:
        raise OutOfRange(f"suite {name} needs q >= {least}, got q = {q}")
    mod = build_modulus(q)
    return [r for n in names for r in SUITES[n](mod, np.random.default_rng(seed), cal)]
