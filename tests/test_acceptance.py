"""End-to-end acceptance gate.

One test per criterion; each prints a single [PASS]/[FAIL] line on the real
stdout so the summary survives pytest's capture. Tolerances are the contract
values, not tuned numbers; random draws use fixed seeds declared here.
"""
import math
import time

import numpy as np
import pytest

from charmoments import euler, moments, primes, proxy, rmf, theta, verify
from charmoments.calibration import Calibration
from charmoments.charsum import all_char_sums_fft, all_char_sums_naive
from charmoments.modarith import build_modulus

CAL = Calibration()


def report(caps, num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    with caps.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_second_moment_closed_form(capsys):
    """k=1 moment equals floor(x) - floor(x)^2/(q-1) on 30 random (q, x)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    pool = primes.primes_up_to(20011)
    pool = pool[pool >= 3]
    worst = 0.0
    for _ in range(30):
        q = int(rng.choice(pool))
        x = float(rng.uniform(1.0, q))
        got = moments.char_moment(build_modulus(q), x, 1.0).value
        want = moments.second_moment_closed_form(q, x)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt <= 60.0
    report(capsys, 1, ok, f"closed-form deviation {worst:.2e} (tol 1e-08), {dt:.1f}s")


def test_criterion_2_fft_naive_equivalence_and_speed(capsys):
    """Entrywise FFT/naive agreement and a 10x speed margin at x >= q/2."""
    t0 = time.perf_counter()
    ok = True
    notes = []
    for q in (10007, 20011):
        mod = build_modulus(q)
        x = q // 2 + 7
        t_naive = time.perf_counter()
        slow = all_char_sums_naive(mod, x).values
        t_naive = time.perf_counter() - t_naive
        t_fft = min(_timed_fft(mod, x) for _ in range(5))
        fast = all_char_sums_fft(mod, x).values
        dev = float(np.max(np.abs(fast - slow)))
        tol = 1e-8 * math.sqrt(x)
        speedup = t_naive / t_fft
        ok = ok and dev <= tol and speedup >= 10.0
        notes.append(f"q={q}: dev {dev:.1e} (tol {tol:.1e}), {speedup:.0f}x")
    dt = time.perf_counter() - t0
    ok = ok and dt <= 120.0
    report(capsys, 2, ok, "; ".join(notes) + f", {dt:.1f}s")


def _timed_fft(mod, x) -> float:
    t = time.perf_counter()
    all_char_sums_fft(mod, x)
    return time.perf_counter() - t


def test_criterion_3_rmf_oracle_equivalence(capsys):
    """Exact 4th moments match MC within 3 stderr; frozen values re-enumerated."""
    t0 = time.perf_counter()
    # independent re-enumeration of the frozen examples with bare loops
    for x, want in ((2, 6), (3, 15)):
        count = sum(1 for a in range(1, x + 1) for b in range(1, x + 1)
                    for c in range(1, x + 1) for d in range(1, x + 1)
                    if a * b == c * d)
        assert count == want
        assert rmf.exact_moment_2k(x, 2) == want
    ok = True
    notes = []
    for x in (20, 50, 150, 300):
        exact = rmf.exact_moment_2k(float(x), 2)
        est = moments.rmf_moment_mc(float(x), 2.0, trials=20000, seed=1)
        pull = abs(est.value - exact) / est.stderr
        ok = ok and pull <= 3.0
        notes.append(f"x={x}: {pull:.2f} sigma")
    dt = time.perf_counter() - t0
    ok = ok and dt <= 600.0
    report(capsys, 3, ok, "; ".join(notes) + f", {dt:.1f}s")


def test_criterion_4_character_rmf_correspondence(capsys):
    """Fourth moment as congruence count; weighted diagonal identity."""
    worst4 = 0.0
    for q, x in ((11, 7), (101, 30), (251, 40), (499, 40), (499, 13)):
        mod = build_modulus(q)
        lhs = moments.char_moment(mod, x, 2.0, exclude_principal=False).value
        rhs = float(moments.congruence_energy(q, x))
        worst4 = max(worst4, abs(lhs - rhs) / rhs)
    rng = np.random.default_rng(4)
    worstw = 0.0
    for q in (101, 499):
        mod = build_modulus(q)
        size = q - 2
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        r = verify.check_orthogonality_correspondence(mod, coeffs, CAL)
        worstw = max(worstw, abs(r.lhs - r.rhs) / max(1.0, abs(r.rhs)))
    ok = worst4 <= 1e-8 and worstw <= 1e-9
    report(capsys, 4, ok, f"4th-moment dev {worst4:.2e} (tol 1e-08), "
                  f"weighted diagonal dev {worstw:.2e} (tol 1e-09)")


def test_criterion_5_expected_euler_product(capsys):
    """Closed-form exponent against MC on 20 parameter sets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    worst_ratio = 0.0
    for i in range(20):
        alpha = float(rng.uniform(0.1, 1.4))
        beta = float(rng.uniform(0.1, 1.4))
        z = 200.0 * (1.0 + max(alpha, beta) ** 2)
        spec = euler.EulerProductSpec(
            alpha=alpha, beta=beta,
            sigma1=float(rng.uniform(0.0, 0.25)), sigma2=float(rng.uniform(0.0, 0.25)),
            t1=0.0, t2=float(rng.uniform(-8.0, 8.0)), z=z, y=3.0 * z)
        mean, stderr = euler.mc_product_estimate(spec, trials=15000, seed=100 + i)
        dev = abs(math.log(mean) - euler.expected_product_exponent(spec))
        tol = max(3.0 * stderr / mean, 10.0 * euler.error_bracket(spec))
        worst_ratio = max(worst_ratio, dev / tol)
        ok = ok and dev <= tol
    dt = time.perf_counter() - t0
    ok = ok and dt <= 600.0
    report(capsys, 5, ok, f"worst dev/tol {worst_ratio:.2f} over 20 sets, {dt:.1f}s")


def test_criterion_6_proxy_machinery(capsys):
    """Nonnegativity, series consistency, domination c <= 8, chain slack."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    wide = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])
    skew = proxy.desk_params(x=4.0, y=20.0, k=3.0, j_values=[2])

    neg = 0
    for sd in rng.integers(0, 2**62, size=200):
        if proxy.proxy_weight(wide, proxy.SampleSource(rmf.sample(int(sd), 25))) < 0:
            neg += 1

    worst_series = 0.0
    for _ in range(100):
        d = float(rng.uniform(0.5, 2.5) * rng.choice([-1, 1]))
        k = float(rng.uniform(2.0, 4.0))
        depth = int(rng.integers(1, 5))
        a = proxy.truncation_error_direct(d, k, depth)
        b = proxy.truncation_error_series(d, k, depth)
        worst_series = max(worst_series, abs(a - b) / max(abs(b), 1e-300))

    sources = [proxy.SampleSource(rmf.sample(int(sd), 25))
               for sd in rng.integers(0, 2**62, size=1000)]
    c_needed = max(
        verify.check_surrogate_domination(wide, sources[:600], CAL).lhs,
        verify.check_surrogate_domination(skew, sources[600:], CAL).lhs)

    mod = build_modulus(101)
    params = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1], q=101)
    hold = verify.check_holder_chain(mod, 6.0, params, CAL)
    sub_params = proxy.desk_params(x=4.0, y=8.0, k=2.5, j_values=[1])
    worst_sub = -math.inf
    agg_lhs = agg_rhs = 0.0
    chars = [proxy.CharSource(mod, a) for a in range(1, 100)]
    for lhs, rhs in proxy.subadditivity_split(sub_params, chars):
        worst_sub = max(worst_sub, (lhs - rhs) / max(rhs, 1e-300))
        agg_lhs += lhs
        agg_rhs += rhs
    worst_sub = max(worst_sub, (agg_lhs - agg_rhs) / agg_rhs)

    dt = time.perf_counter() - t0
    ok = (neg == 0 and worst_series <= 1e-10 and c_needed <= 8.0
          and hold.passed and worst_sub <= 1e-9)
    report(capsys, 6, ok, f"neg {neg}, series dev {worst_series:.1e} (tol 1e-10), "
                  f"c {c_needed:.2e} (cap 8), subadd slack {worst_sub:.1e}, {dt:.1f}s")


def test_criterion_7_theta_suite(capsys):
    """DFT vs naive thetas, even orthogonality, quadratic-form oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_naive = 0.0
    for q in (11, 101, 1009, 10007):
        mod = build_modulus(q)
        vals = theta.theta_all(mod)
        sample_as = range(q - 1) if q <= 1009 else rng.integers(0, q - 1, size=50)
        for a in sample_as:
            dev = abs(vals[int(a)].value - theta.theta_naive(mod, int(a)))
            worst_naive = max(worst_naive, dev)

    worst_orth = 0.0
    for q in (101, 499, 1009):
        mod = build_modulus(q)
        for n, m in rng.integers(1, q, size=(100, 2)):
            got = theta.even_char_orthogonality(mod, int(n), int(m))
            want = 1.0 if (n - m) % q == 0 or (n + m) % q == 0 else 0.0
            worst_orth = max(worst_orth, abs(got - want))

    worst_mom = 0.0
    for q in (11, 13, 101):
        mod = build_modulus(q)
        lhs = theta.theta_moment(mod, 1.0, "even").value
        rhs = theta.even_theta_second_moment_oracle(mod)
        worst_mom = max(worst_mom, abs(lhs - rhs) / abs(rhs))

    dt = time.perf_counter() - t0
    ok = worst_naive <= 1e-9 and worst_orth <= 1e-9 and worst_mom <= 1e-9
    report(capsys, 7, ok, f"naive dev {worst_naive:.1e}, orthogonality dev "
                  f"{worst_orth:.1e}, oracle dev {worst_mom:.1e} (tol 1e-09), {dt:.1f}s")


def test_criterion_8_parseval_and_mellin(capsys):
    """Transform identities: delta exact, random near, single-term closed form."""
    delta_devs = []
    for n, sigma in ((1, 0.5), (1, 1.5), (3, 0.75)):
        r = verify.check_parseval({n: 1.0 + 0j}, sigma, CAL,
                                  tol=CAL.parseval_delta_tol)
        delta_devs.append(abs(r.lhs - r.rhs) / max(abs(r.lhs), 1e-300))
    rng = np.random.default_rng(8)
    rand_devs = []
    for support in ([1, 2, 3, 4, 6], [2, 5, 7, 9, 11, 16]):
        coeffs = {n: complex(a, b) for n, (a, b)
                  in zip(support, rng.standard_normal((len(support), 2)))}
        r = verify.check_parseval(coeffs, 0.6, CAL)
        rand_devs.append(abs(r.lhs - r.rhs) / max(abs(r.lhs), 1e-300))
    s0 = rmf.sample(1, 4)
    mellin_devs = []
    for sv in (0.5, 1.0, 2.0):
        numeric, closed = theta.mellin_transform_check(1.0, sv, s0)
        mellin_devs.append(abs(numeric - closed))
    ok = (max(delta_devs) <= 1e-10 and max(rand_devs) <= 1e-4
          and max(mellin_devs) <= 1e-6)
    report(capsys, 8, ok, f"delta {max(delta_devs):.1e} (tol 1e-10), random "
                  f"{max(rand_devs):.1e} (tol 1e-04), single-term "
                  f"{max(mellin_devs):.1e} (tol 1e-06)")


def test_criterion_9_shape_diagnostics(capsys):
    """Informational: MC growth-shape fit reported with a confidence interval."""
    t0 = time.perf_counter()
    pts = []
    for x, trials in ((100.0, 4000), (1000.0, 3000), (10000.0, 1500), (100000.0, 600)):
        est = moments.rmf_moment_mc(x, 2.0, trials=trials, seed=9)
        pts.append((x, est.value))
    fit = moments.shape_fit(pts, 2.0)
    ci = 1.96 * fit.exponent_stderr
    dt = time.perf_counter() - t0
    ok = all(math.isfinite(v) for v in (fit.exponent, ci, fit.intercept, fit.residual))
    report(capsys, 9, ok, f"fitted exponent {fit.exponent:.2f} +- {ci:.2f} "
                  f"(reference (k-1)^2 = 1, not asserted), {dt:.1f}s")
