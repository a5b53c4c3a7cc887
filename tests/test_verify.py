import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from charmoments import charsum, euler, moments, proxy, rmf, verify
from charmoments.calibration import Calibration
from charmoments.errors import OutOfRange
from charmoments.modarith import build_modulus

CAL = Calibration()


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


def test_report_relations():
    r = verify._report("t", 1.0, 1.0 + 1e-12, "eq", 1e-9)
    assert r.passed
    r = verify._report("t", 2.0, 1.0, "le", 0.0)
    assert not r.passed
    r = verify._report("t", 2.0, 1.0, "ge", 0.0)
    assert r.passed
    with pytest.raises(OutOfRange, match="unknown relation"):
        verify._report("t", 1.0, 1.0, "??", 0.0)


def _report_builds(tree):
    return {c.lineno for c in ast.walk(tree)
            if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "CheckReport"}


def test_every_report_is_built_in_report():
    # one function turns lhs, rhs, relation and tolerance into passed
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    (report,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_report"]
    stray = sorted(_report_builds(tree) - _report_builds(report))
    assert not stray, f"CheckReport built outside _report at verify.py lines {stray}"


def test_orthogonality_correspondence_delta(mod101):
    delta = np.zeros(8)
    delta[2] = 3.0
    r = verify.check_orthogonality_correspondence(mod101, delta, CAL)
    assert r.passed
    assert r.rhs == pytest.approx(9.0)


def test_orthogonality_requires_short_polynomials(mod101):
    with pytest.raises(OutOfRange, match="polynomial length 101 >= q = 101"):
        verify.check_orthogonality_correspondence(mod101, np.ones(101), CAL)


@pytest.mark.parametrize("x", [100, 100.5, 101])
def test_reflection_refuses_x_without_mirror_before_any_transform(monkeypatch, mod101, x):
    # q - 1 - floor(x) is 0 or -1: the caller's x is named, not the mirror
    monkeypatch.setattr(verify, "abs_char_sums", lambda *a: pytest.fail("transform ran"))
    with pytest.raises(OutOfRange, match=rf"^x = {x} must be below q - 1 = 100: its mirror is "):
        verify.check_reflection(mod101, x, CAL)


def test_bernoulli_domain(mod101):
    with pytest.raises(OutOfRange, match="all inputs must be >= -1"):
        verify.check_bernoulli([-1.5])
    assert verify.check_bernoulli([-0.5, 0.25, 0.1]).passed


def test_bernoulli_refuses_nan():
    # a NaN input is refused, not reported as a failed check
    with pytest.raises(OutOfRange, match="all inputs must be >= -1"):
        verify.check_bernoulli([0.5, math.nan])


def test_parseval_delta_exact():
    r = verify.check_parseval({1: 1.0 + 0j}, 0.5, CAL, tol=CAL.parseval_delta_tol)
    assert r.passed
    # single mass at n=1: both sides are 1/(2 sigma) * ... = 1 at sigma = 1/2
    assert r.lhs == pytest.approx(1.0, abs=1e-12)


def test_parseval_shifted_delta():
    # mass at n=3: lhs = 3^{-2 sigma}/(2 sigma)
    sigma = 0.75
    r = verify.check_parseval({3: 2.0 + 0j}, sigma, CAL, tol=CAL.parseval_delta_tol)
    assert r.passed
    assert r.lhs == pytest.approx(4.0 * 3.0 ** (-1.5) / 1.5, rel=1e-12)


def test_parseval_random_coeffs():
    rng = np.random.default_rng(11)
    ns = [1, 2, 3, 5, 7, 8]
    coeffs = {n: complex(a, b) for n, (a, b)
              in zip(ns, rng.standard_normal((len(ns), 2)))}
    r = verify.check_parseval(coeffs, 0.6, CAL)
    assert r.passed


def test_parseval_oscillatory_support_seed_106():
    # the random-coefficient Parseval check of the q = 499 identities suite at
    # seed 106, whose transform side has a strongly oscillating integrand
    r = [c for c in verify.run_suite("identities", 499, 106) if c.name == "parseval-transfer"]
    assert all(c.passed for c in r)
    assert r[-1].lhs == pytest.approx(r[-1].rhs, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.3, 0.75, 1.5])
@pytest.mark.parametrize("seed", range(4))
def test_parseval_random_supports_agree(sigma, seed):
    # random supports in [1, 40]: the closed-form transform side meets the
    # segment-wise left side far inside the calibrated tolerance
    rng = np.random.default_rng(seed)
    ns = rng.choice(np.arange(1, 41), size=int(rng.integers(1, 12)), replace=False)
    coeffs = {int(n): complex(a, b) for n, (a, b) in zip(ns, rng.standard_normal((ns.size, 2)))}
    r = verify.check_parseval(coeffs, sigma, CAL)
    assert r.passed
    assert r.lhs == pytest.approx(r.rhs, rel=1e-12)


def test_parseval_rejects_bad_support():
    with pytest.raises(OutOfRange, match="coefficients must sit on integers >= 1"):
        verify.check_parseval({0: 1.0}, 0.5, CAL)
    with pytest.raises(OutOfRange, match="need sigma > 0"):
        verify.check_parseval({1: 1.0}, 0.0, CAL)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_parseval_refuses_non_finite_sigma(sigma):
    # at sigma = inf both sides read 0.0 and the check would pass; NaN would fail it
    with pytest.raises(OutOfRange, match="need sigma > 0 and finite"):
        verify.check_parseval({1: 1.0, 3: 0.5j}, sigma, CAL)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_cosine_branch_refuses_non_finite_t(t):
    # refused, not a NaN value that fails the check
    with pytest.raises(OutOfRange, match="^t must be finite"):
        verify.check_cosine_branch(t, 100.0, CAL)


def test_even_moment_ratio_within_ceiling():
    r = verify.check_even_moment_ratio(
        {1: 1.0, 2: 1.0}, (2, 3), {2: 0.5, 3: 0.25}, {2: 0.1, 3: 0.0}, 3, CAL)
    assert r.passed
    assert r.lhs <= CAL.lemma_ratio_max


def test_even_moment_ratio_exact_j0_case():
    # j = 0: exact expectation is sum dr(n)|c_n|^2 >= plain sum; ratio <= ceiling
    r = verify.check_even_moment_ratio({1: 1.0, 6: 1.0}, (2, 3), {}, {}, 0, CAL)
    # dr(6) = 4 with pset {2,3}; majorant = 1 + 4 = 5, exact = 1 + 1 = 2
    assert r.context["exact"] == pytest.approx(2.0)
    assert r.context["majorant"] == pytest.approx(5.0)
    assert r.passed


def test_rough_count_window():
    r = verify.check_rough_count(100, 1000, 5, CAL)
    assert r.passed
    assert (r.relation, r.rhs) == ("le", CAL.sieve_ratio_hi)
    # y < 2: no sieve condition; expected = plain length
    r2 = verify.check_rough_count(10, 110, 1.5, CAL)
    assert r2.context["expected"] == pytest.approx(100.0)
    assert r2.passed


def test_rough_count_below_window_reports_lower_end():
    # 240 numbers in (100, 1000] are 5-rough against 900/log 5 = 559: ratio 0.429 < 0.5
    cal = Calibration(sieve_ratio_lo=0.5)
    r = verify.check_rough_count(100, 1000, 5, cal)
    assert r.lhs == pytest.approx(0.429, abs=1e-3)
    assert (r.relation, r.rhs, r.passed) == ("ge", 0.5, False)


def test_series_consistency_check():
    insts = [(1.0, 2.0, 1), (-1.5, 3.0, 2), (2.0, 2.5, 4)]
    assert verify.check_series_consistency(insts, CAL).passed


def test_series_consistency_refuses_no_instances():
    with pytest.raises(OutOfRange, match="at least one"):
        verify.check_series_consistency([], CAL)


def test_source_checks_refuse_no_sources():
    # proxy.poly_table refuses, not numpy's stack of nothing
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1])
    for check in (verify.check_subadditivity, verify.check_surrogate_domination):
        with pytest.raises(OutOfRange, match="need at least one source"):
            check(d, [], CAL)


# a check that takes an iterable reads it once, so a generator reports as its list does
def test_even_orthogonality_takes_a_generator(mod101):
    pairs = [(3, 98), (5, 5), (2, 7)]
    got = verify.check_even_orthogonality(mod101, (p for p in pairs), CAL)
    assert got == verify.check_even_orthogonality(mod101, pairs, CAL)
    assert got.context["pairs"] == 3


def test_subadditivity_takes_a_generator():
    params = proxy.desk_params(x=4.0, y=8.0, k=2.5, j_values=[1])
    sources = [proxy.SampleSource(rmf.sample(s, 25)) for s in range(4)]
    got = verify.check_subadditivity(params, (s for s in sources), CAL)
    assert got == verify.check_subadditivity(params, sources, CAL)
    assert got.context["sources"] == 4


def test_surrogate_domination_takes_a_generator():
    params = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])
    sources = [proxy.SampleSource(rmf.sample(s, 25)) for s in range(4)]
    got = verify.check_surrogate_domination(params, (s for s in sources), CAL)
    assert got == verify.check_surrogate_domination(params, sources, CAL)


def test_surrogate_grid_check():
    r = verify.check_surrogate_grid(CAL)
    assert r.passed
    assert r.lhs < CAL.surrogate_slack


@pytest.mark.parametrize("seed, pins", [
    (1, {"truncation-series-consistency": ["0x1.1c4918844cd27p-44"],
         "surrogate-grid": ["0x1.294c2605217a3p-19"],
         "surrogate-domination": ["0x0.0p+0", "0x0.0p+0"]}),
    # a seed whose second domination check needs a nonzero constant
    (29, {"surrogate-domination": ["0x0.0p+0", "0x1.1d0ed8c9494e9p-19"]}),
])
def test_proxy_suite_pinned_bits(seed, pins):
    # recorded from the per-cell scalar implementation that the array code replaced
    reports = verify.run_suite("proxy", 101, seed)
    for name, want in pins.items():
        assert [r.lhs.hex() for r in reports if r.name == name] == want


@pytest.mark.parametrize("q, seed, proxy_pins, holder_pins", [
    (101, 3, ["0x1.b976d61639644p-44", "0x1.294c2605217a3p-19", "0x0.0p+0", "0x0.0p+0",
              "-0x1.eb7fd73a01feep-4"],
     ["0x1.7a9c427b728e8p+3", "-0x1.a5783dd3404c3p-4", "0x1.a6bc2d33dad3ap+3"]),
    (101, 12, ["0x1.f8d78175ca4e5p-44", "0x1.294c2605217a3p-19", "0x0.0p+0", "0x0.0p+0",
               "-0x1.2ca8b537ffa22p-4"],
     ["0x1.7a9c427b728e8p+3", "-0x1.7eb919cdf3cd2p-3", "0x1.a6bc2d33dad3ap+3"]),
    (499, 10, ["0x1.d438d489f5569p-47", "0x1.294c2605217a3p-19", "0x0.0p+0", "0x0.0p+0",
               "-0x1.3297a03951ef9p-3"],
     ["0x1.9ddfeb905e0ccp+3", "-0x1.3e84e0c38de46p-3", "0x1.a6bc2d33dad3bp+3"]),
    (499, 11, ["0x1.20ee9eccfe390p-46", "0x1.294c2605217a3p-19", "0x0.0p+0", "0x0.0p+0",
               "-0x1.2d69a99102200p-5"],
     ["0x1.9ddfeb905e0ccp+3", "-0x1.3ed91c4913167p-3", "0x1.a6bc2d33dad3bp+3"]),
])
def test_proxy_holder_report_bits(q, seed, proxy_pins, holder_pins):
    # every report's lhs, shift-subadditivity included, recorded from the
    # one-source-at-a-time loops that the stacked tables replaced
    for suite, want in (("proxy", proxy_pins), ("holder", holder_pins)):
        assert [r.lhs.hex() for r in verify.run_suite(suite, q, seed)] == want


def _quadrature_check(reports):
    (r,) = [c for c in reports if c.name == "euler-product-quadrature"]
    return r


def test_euler_suite_runs_product_quadrature():
    r = _quadrature_check(verify.run_suite("euler", 101, 0))
    assert r.passed
    assert 0.0 < abs(r.lhs - r.rhs) < r.tolerance


def test_euler_product_quadrature_bites(monkeypatch):
    exponent = euler.expected_product_exponent
    monkeypatch.setattr(euler, "expected_product_exponent", lambda spec: exponent(spec) + 1.0)
    assert not _quadrature_check(verify.run_suite("euler", 101, 0)).passed


def test_holder_chain_equality_case(mod101):
    # equality needs |S|^{2(k-1)} proportional to R: x = 1 makes |S| constant
    # and an empty prime window makes R constant
    params = proxy.desk_params(x=6.0, y=1.5, k=2.0, j_values=[1], q=101)
    r = verify.check_holder_chain(mod101, 1.0, params, CAL)
    assert r.passed
    assert r.lhs == pytest.approx(r.rhs, rel=1e-10)


def test_holder_chain_strict(mod101):
    params = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1], q=101)
    r = verify.check_holder_chain(mod101, 6.0, params, CAL)
    assert r.passed
    assert r.lhs < r.rhs


def test_weighted_correspondence_guard(mod101):
    params = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[2])
    with pytest.raises(OutOfRange, match="weights too long"):
        verify.check_weighted_correspondence(mod101, 6.0, params, CAL)


def test_holder_cross_moment_constant_weight(mod101):
    # empty prime windows force R to a constant; the cross moment factorizes
    d = proxy.desk_params(x=6.0, y=1.5, k=2.0, j_values=[1])
    r_const = proxy.proxy_weight(d, proxy.OnesSource())
    got = verify.check_holder_chain(mod101, 6, d, CAL).lhs
    want = r_const * moments.char_moment(mod101, 6, 1.0).value
    assert got == pytest.approx(want, rel=1e-12)


def test_holder_cross_moment_matches_exact_route(mod101):
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1], q=101)
    # the diagonal expectation equals the all-character average, principal
    # included; subtracting the principal term recovers the cross moment
    diag = verify.check_weighted_correspondence(mod101, 6, d, CAL).rhs
    s0 = abs(charsum.all_char_sums_fft(mod101, 6).values[0]) ** 2
    r0 = proxy.proxy_weight(d, proxy.OnesSource())
    got = verify.check_holder_chain(mod101, 6, d, CAL).lhs
    assert got == pytest.approx(diag - s0 * r0 / 100.0, rel=1e-10)


@pytest.mark.parametrize("check", [verify.check_holder_chain,
                                   verify.check_weighted_correspondence],
                         ids=["holder", "correspondence"])
def test_cross_moment_length_guard(mod101, check):
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[2])
    with pytest.raises(OutOfRange, match="weights too long"):
        check(mod101, 6, d, CAL)


def test_holder_weight_power_moment_constant(mod101):
    # empty windows: R is the same constant at every character; the phi
    # normalization over q-2 non-principal terms leaves the (q-2)/(q-1) factor
    d = proxy.desk_params(x=6.0, y=1.5, k=3.0, j_values=[1])
    r_const = proxy.proxy_weight(d, proxy.OnesSource())
    got = verify.check_holder_chain(mod101, 6, d, CAL).context["weight_power_moment"]
    assert got == pytest.approx(r_const ** (3.0 / 2.0) * 99.0 / 100.0, rel=1e-12)


def test_magnitude_readers_share_one_transform(monkeypatch):
    calls = []
    fft = charsum.all_char_sums_fft
    monkeypatch.setattr(charsum, "all_char_sums_fft",
                        lambda mod, x: calls.append(x) or fft(mod, x))
    mod = build_modulus(101)
    params = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1], q=101)
    moments.char_moment(mod, 6, 1.0)
    moments.char_moment(mod, 6, 2.0)
    assert verify.check_holder_chain(mod, 6, params, CAL).passed
    assert verify.check_weighted_correspondence(mod, 6, params, CAL).passed
    assert calls == [6]


@pytest.mark.parametrize("q, seed, holder_rhs, correspondence_rhs", [
    (101, 3, "0x1.de3bf2e298935p+3", "0x1.a6bc2d33dad3bp+3"),
    (499, 10, "0x1.045ca80bc23f9p+4", "0x1.a6bc2d33dad3bp+3"),
])
def test_holder_suite_rhs_bits(q, seed, holder_rhs, correspondence_rhs):
    # recorded when the cross moments still lived in moments
    rhs = {r.name: r.rhs.hex() for r in verify.run_suite("holder", q, seed)}
    assert rhs["holder-chain"] == holder_rhs
    assert rhs["weighted-correspondence"] == correspondence_rhs


@pytest.mark.parametrize("q, x, y, k", [(101, 6.0, 2.0, 2.0), (499, 6.0, 2.0, 2.5),
                                        (1009, 30.0, 2.0, 3.0), (101, 1.0, 1.5, 2.0)])
def test_holder_lower_bound_under_moment(q, x, y, k):
    mod = build_modulus(q)
    params = proxy.desk_params(x=6.0, y=y, k=k, j_values=[1], q=q)
    ctx = verify.check_holder_chain(mod, x, params, CAL).context
    assert 0.0 < ctx["lower_bound"] <= ctx["moment_2k"] * (1 + 1e-12)
    assert ctx["slack"] == ctx["moment_2k"] / ctx["lower_bound"]
    if x == 1.0:  # |S| and R constant: the equality case
        assert ctx["slack"] == pytest.approx(1.0, rel=1e-10)


def test_suites_all_pass(mod101):
    for name in sorted(verify.SUITES):
        reports = verify.run_suite(name, 101, 1)
        assert reports, name
        for r in reports:
            assert r.passed, (name, r)


def test_full_suite_builds_one_modulus(monkeypatch):
    built = []
    monkeypatch.setattr(verify, "build_modulus", lambda q: built.append(q) or build_modulus(q))
    assert all(r.passed for r in verify.run_suite("full", 499, 1))
    assert built == [499]


def test_full_suite_is_union():
    full = verify.run_suite("full", 101, 1)
    parts = sum(len(verify.run_suite(n, 101, 1)) for n in verify.SUITES)
    assert len(full) == parts


# the report each calibration value governs
GOVERNS = {
    "lemma_ratio_max": "even-moment-ratio",
    "sieve_ratio_lo": "rough-count-ratio",
    "sieve_ratio_hi": "rough-count-ratio",
    "surrogate_slack": "surrogate-domination",
    "cosine_slack": "cosine-branch-bound",
    "series_rel_tol": "truncation-series-consistency",
    "chain_slack": "holder-chain",
    "orthogonality_tol": "orthogonality-correspondence",
    "reflection_tol": "reflection-symmetry",
    "parseval_delta_tol": "parseval-transfer",
    "parseval_random_tol": "parseval-transfer",
    "mellin_tol": "mellin-unit",
}


def test_every_calibration_value_is_in_the_report_it_governs():
    # twelve values distinct from each other and from the defaults; each is
    # the tolerance, the rhs or a context value of the report it governs
    fields = [f.name for f in dataclasses.fields(Calibration)]
    assert sorted(GOVERNS) == sorted(fields)
    cal = Calibration(**{name: getattr(CAL, name) * (1 + (i + 1) / 64)
                         for i, name in enumerate(fields)})
    assert len({getattr(cal, name) for name in fields}) == 12
    reports = verify.run_suite("full", 101, 1, cal)
    for name, report in GOVERNS.items():
        value = getattr(cal, name)
        assert any(value in (r.tolerance, r.rhs, *r.context.values())
                   for r in reports if r.name == report), name


@pytest.mark.parametrize("name, least, below", [
    ("identities", 7, 5),  # "polynomial length 5 >= q" below
    ("counting", 2, 1),
    ("euler", 2, 1),
    ("proxy", 3, 2),       # no character index in [1, q - 2] below
    ("theta", 3, 2),       # "need an odd prime modulus" below
    ("holder", 37, 31),    # the desk_params refusal below
    ("full", 37, 31),      # the largest bound of its suites
])
def test_suite_smallest_q(name, least, below):
    assert all(r.passed for r in verify.run_suite(name, least, 0))
    with pytest.raises(OutOfRange, match=f"^suite {name} needs q >= {least}, got q = {below}$"):
        verify.run_suite(name, below, 0)


def test_unknown_suite():
    with pytest.raises(OutOfRange, match="unknown suite 'nosuchsuite'"):
        verify.run_suite("nosuchsuite", 101, 1)


def test_deterministic_given_seed():
    a = verify.run_suite("proxy", 101, 5)
    b = verify.run_suite("proxy", 101, 5)
    assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]
