import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import errors, euler, primes, rmf
from charmoments.errors import OutOfRange, QuadratureFailure, TooLarge


def make_spec(**kw):
    base = dict(alpha=1.0, beta=1.0, sigma1=0.05, sigma2=0.1,
                t1=0.0, t2=1.0, z=250.0, y=1500.0)
    base.update(kw)
    return euler.EulerProductSpec(**base)


def test_hypothesis_gate():
    make_spec()
    with pytest.raises(OutOfRange, match="need 200 <= z < y"):
        make_spec(z=50.0)
    with pytest.raises(OutOfRange, match="need 500 <= z < y"):
        make_spec(alpha=2.0, z=250.0)  # needs z >= 500
    with pytest.raises(OutOfRange, match="must be >= 0"):
        make_spec(alpha=-1.0)
    with pytest.raises(OutOfRange, match="need 200 <= z < y"):
        make_spec(y=200.0)  # z < y required


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "sigma1", "sigma2", "t1", "t2", "z", "y"])
def test_non_finite_field_refused(name, value):
    # min and max skip a NaN that is not their first argument; the check names the field
    with pytest.raises(OutOfRange, match=f"^{name} must be finite"):
        make_spec(**{name: value})


def test_huge_alpha_refused_without_overflow():
    with pytest.raises(OutOfRange, match="need inf"):
        make_spec(alpha=1e200, z=1e300, y=1e301)


def test_exponent_term_by_term():
    spec = make_spec(t2=0.0)
    got = euler.expected_product_exponent(spec)
    want = 0.0
    for p in primes.primes_up_to(1500):
        if p < 250:
            continue
        want += (1.0 / p ** 1.1 + 1.0 / p ** 1.2 + 2.0 / p ** 1.15)
    assert got == pytest.approx(want, rel=1e-12)


def test_prime_sum_harmonic_example():
    # 4 * sum_{250 <= p <= 1500} 1/p at alpha=beta=1, sigmas=0, t-difference 0
    got = euler.expected_product_exponent(make_spec(sigma1=0.0, sigma2=0.0, t2=0.0))
    harmonic = sum(1.0 / p for p in primes.primes_in(249, 1500))
    assert got == pytest.approx(4.0 * harmonic, rel=1e-12)


def test_error_bracket_shape():
    assert euler.error_bracket(make_spec(alpha=0.5, beta=0.25)) == \
        pytest.approx(0.5 / math.sqrt(250.0))
    assert euler.error_bracket(make_spec(alpha=1.5, beta=1.0, z=650.0)) == \
        pytest.approx(1.5**3 / math.sqrt(650.0))


def test_error_bracket_past_float_range_is_inf():
    # alpha^3 passes the float range: a bound of inf, not an OverflowError
    spec = make_spec(alpha=1e103, z=1e300, y=2e300)
    assert euler.error_bracket(spec) == math.inf


def test_single_factor_quadrature_vs_geometric():
    # alpha = 1 has the exact closed form 1/(1 - p^{-1-2 sigma})
    for p, sigma in ((2.0, 0.3), (5.0, 0.1), (101.0, 0.0)):
        quad = euler.pair_factor_expectation(p, 1.0, sigma)
        assert quad == pytest.approx(1.0 / (1.0 - p ** (-1.0 - 2.0 * sigma)), rel=1e-9)


def test_pair_factor_divergence_guard():
    with pytest.raises(OutOfRange, match="need finite p > 1"):
        euler.pair_factor_expectation(0.9, 1.0, 0.0)


@pytest.mark.parametrize("name, value", [
    ("alpha", math.nan), ("alpha", math.inf), ("sigma1", math.nan), ("dt", math.nan),
    ("dt", math.inf), ("beta", math.inf), ("sigma2", -math.inf)])
def test_pair_factor_refuses_non_finite_scalars(name, value):
    # refused by name, not reported as an unresolved quadrature
    args = {"alpha": 1.0, "sigma1": 0.0, "beta": 0.5, "sigma2": 0.0, "dt": 1.0, name: value}
    with pytest.raises(OutOfRange, match=f"^{name} must be finite"):
        euler.pair_factor_expectation(101.0, **args)


@pytest.mark.parametrize("p", [math.nan, -2.0, np.array([101.0, math.nan])])
def test_pair_factor_refuses_nan_radius(p):
    # a NaN or negative p gives a NaN radius, refused before the first node
    with np.errstate(invalid="ignore"), pytest.raises(OutOfRange, match="need finite p > 1"):
        euler.pair_factor_expectation(p, 1.0, 0.0)


@pytest.mark.parametrize("p", [math.nan, -3.0, math.inf, 0.0, 1.0, np.array([101.0, math.nan])])
@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.5)])
def test_pair_factor_refuses_p_not_above_one(p, alpha, beta):
    # whatever the exponents, and before a power numpy would warn about
    with np.errstate(all="raise"), pytest.raises(OutOfRange, match="need finite p > 1"):
        euler.pair_factor_expectation(p, alpha, 0.0, beta, 0.0)


def test_pair_factor_refuses_unit_radius_above_one():
    # p > 1 with sigma = -1/2 puts the radius on the unit circle
    with pytest.raises(OutOfRange, match="unit-disc radius reached 1 at p = 101.0"):
        euler.pair_factor_expectation(101.0, 1.0, -0.5)


SMALL_PRIMES = primes.primes_up_to(1000).tolist()


def _binomial_series(alpha, r):
    # E|1 - r e^{i theta}|^{-2 alpha} = sum_n ((alpha)_n / n!)^2 r^{2n}
    total, a, n = 0.0, 1.0, 0
    while a * a * r ** (2 * n) > 1e-18 * max(total, 1.0):
        total += a * a * r ** (2 * n)
        a *= (alpha + n) / (n + 1)
        n += 1
    return total


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(p=st.sampled_from(SMALL_PRIMES),
       alpha=st.floats(0.0, 1.5, exclude_min=True, allow_subnormal=False),
       sigma=st.floats(0.0, 0.3))
def test_single_factor_matches_binomial_series(p, alpha, sigma):
    got = euler.pair_factor_expectation(float(p), alpha, sigma)
    assert got == pytest.approx(_binomial_series(alpha, p ** (-0.5 - sigma)), rel=1e-10)


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(p=st.sampled_from(SMALL_PRIMES), alpha=st.floats(0.0, 1.5), beta=st.floats(0.0, 1.5),
       sigma=st.floats(0.0, 0.3))
def test_coincident_factors_merge(p, alpha, beta, sigma):
    # at dt = 0 and sigma1 = sigma2 the two factors are one with exponent alpha + beta
    two = euler.pair_factor_expectation(float(p), alpha, sigma, beta, sigma, 0.0)
    assert two == pytest.approx(euler.pair_factor_expectation(float(p), alpha + beta, sigma),
                                rel=1e-12)


def test_radius_near_one_fails_loudly():
    # r = 1.0001^{-1/2} needs far more than the node cap: refuse, return no number
    with pytest.raises(QuadratureFailure):
        euler.pair_factor_expectation(1.0001, 1.0, 0.0)
    with pytest.raises(QuadratureFailure):
        euler.pair_factor_expectation(np.array([101.0, 1.0001]), 1.0, 0.0)


def test_angle_rule_vectorised_over_blocks():
    # 200 primes span four blocks; each agrees with its own one-prime rule
    ps = primes.primes_in(250, 2000)[:200]
    got = euler.pair_factor_expectation(ps, 0.8, 0.02, 0.6, 0.0, 2.5)
    assert got.shape == ps.shape
    want = [euler.pair_factor_expectation(float(p), 0.8, 0.02, 0.6, 0.0, 2.5) for p in ps]
    assert got == pytest.approx(want, rel=1e-13)
    assert euler.pair_factor_expectation(ps.reshape(8, 25), 0.8, 0.02).shape == (8, 25)


@pytest.mark.parametrize("p", [np.array([101.0]), primes.primes_in(250, 1e5), np.full(70, 1.0001)])
def test_angle_rule_peak_memory_within_charge(monkeypatch, p):
    # the charge refuses a cap below the measured peak, converged or not
    def run():
        try:
            euler.pair_factor_expectation(p, 1.0, 0.05, 1.0, 0.1, 1.0)
        except QuadratureFailure:
            pass

    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", peak - 1)
    with pytest.raises(TooLarge):
        run()


def test_closed_form_vs_quadrature_product():
    spec = make_spec(alpha=0.8, beta=0.6, sigma1=0.02, sigma2=0.0, t2=2.5)
    closed = euler.expected_product_exponent(spec)
    quad = euler.pair_product_quad(spec)
    # suppressed O-term allows relative deviation up to the bracket size
    assert abs(closed - math.log(quad)) < euler.error_bracket(spec)


def test_mc_determinism():
    spec = make_spec()
    a = euler.mc_product_estimate(spec, 500, seed=3)
    b = euler.mc_product_estimate(spec, 500, seed=3)
    assert a == b
    c = euler.mc_product_estimate(spec, 500, seed=3, batch=77)
    assert a == c  # batch size cannot matter


@settings(derandomize=True, max_examples=30, database=None, deadline=None)
@given(batch=st.integers(1, 520))
def test_mc_batch_invariant(batch):
    # any split of the trials into batches gives the same bits as the default split
    spec = make_spec()
    assert euler.mc_product_estimate(spec, 500, seed=8, batch=batch) == \
        euler.mc_product_estimate(spec, 500, seed=8)


@pytest.mark.parametrize("threads", [2, 3])
def test_mc_thread_invariant(monkeypatch, threads):
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 3)
    spec = make_spec()
    assert euler.mc_product_estimate(spec, 500, seed=8, batch=90, threads=threads) == \
        euler.mc_product_estimate(spec, 500, seed=8, batch=90, threads=1)


def test_mc_pinned_bits():
    # the first criterion 5 parameter set; exact output of the shared generator
    # and seeded batch loop
    spec = euler.EulerProductSpec(
        alpha=0.7653681121103336, beta=1.3356028052237159,
        sigma1=0.036039903179908434, sigma2=0.23716236178431097,
        t1=0.0, t2=-3.0106967678322327, z=556.7669706642919, y=1670.3009119928756)
    mean, stderr = euler.mc_product_estimate(spec, trials=2000, seed=100)
    assert (mean.hex(), stderr.hex()) == ("0x1.12b19547386a8p+0", "0x1.22954b2a8a2ebp-7")


def _mc_charge(spec, rows, trials):
    # 40 B per trial and prime for the rows in flight, one row for the
    # weights, one worker's buffer and objects, and mc_estimate's own arrays
    # for every trial
    ps = primes.primes_up_to(spec.y)
    return (40 * (rows + 1) * int((ps >= spec.z).sum()) + 16 * 8192 + (16 << 10)
            + rmf.TRIAL_BYTES * trials)


def test_mc_refuses_over_lowered_cap_before_drawing(monkeypatch):
    spec = make_spec()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", _mc_charge(spec, 64, 200))
    mean, _ = euler.mc_product_estimate(spec, 200, seed=3, batch=64, threads=1)  # at the cap
    assert mean > 0

    def no_values(*args, **kwargs):
        raise AssertionError("unit values were drawn before the cap check")

    monkeypatch.setattr(rmf, "unit_values", no_values)
    for batch, threads in ((65, 1), (2048, None)):
        with pytest.raises(TooLarge):
            euler.mc_product_estimate(spec, 200, seed=3, batch=batch, threads=threads)


def test_mc_chunk_peak_memory_within_charge(monkeypatch):
    # one chunk of 16 rows over the 70,000 or so primes in [1000, 10^6]: the
    # charge refuses a cap below the measured peak and admits twice the peak
    spec = make_spec(z=1e3, y=1e6)
    primes.primes_up_to(spec.y)  # the shared table is not the chunk's to charge
    tracemalloc.start()
    try:
        euler.mc_product_estimate(spec, 16, seed=1, batch=16, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _mc_charge(spec, 16, 16)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", peak - 1)
    with pytest.raises(TooLarge):
        euler.mc_product_estimate(spec, 16, seed=1, batch=16, threads=1)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", 2 * peak)
    euler.mc_product_estimate(spec, 16, seed=1, batch=16, threads=1)


# the first two Euler-product specs of the random-model-mc benchmark at seed 1
BENCH_SPECS = [
    euler.EulerProductSpec(alpha=1.3332442812784169, beta=0.5053808876136311,
                           sigma1=0.10583161224314391, sigma2=0.20692564845511044, t1=0.0,
                           t2=-1.4528138180934196, z=555.5080627123206, y=1666.5241881369616),
    euler.EulerProductSpec(alpha=0.13582684721598887, beta=1.0795670412772485,
                           sigma1=0.13453582830481955, sigma2=0.08243292912477304, t1=0.0,
                           t2=4.614859254854469, z=433.09299932242243, y=1299.2789979672673),
]


@pytest.mark.parametrize("rows", [1, 3, 64, 327, 900])
@pytest.mark.parametrize("spec", BENCH_SPECS, ids=["160-primes", "127-primes"])
def test_mc_traced_peak_within_run_charge(monkeypatch, spec, rows):
    # one worker: its rows, numpy's buffer for the broadcast weights and the
    # worker's own objects, over 2,000 trials, so that a small batch runs
    # many chunks
    charges = []
    check = rmf.check_bytes
    monkeypatch.setattr(rmf, "check_bytes", lambda n, what: charges.append(n) or check(n, what))
    euler.mc_product_estimate(spec, 2, seed=1, batch=rows, threads=1)  # prime table, caches
    charges.clear()
    tracemalloc.start()
    try:
        euler.mc_product_estimate(spec, 2000, seed=1, batch=rows, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charges), (peak, max(charges))


def test_mc_hits_closed_form():
    spec = make_spec(alpha=1.0, beta=0.5, t2=0.5)
    mean, stderr = euler.mc_product_estimate(spec, 8000, seed=1)
    closed = euler.expected_product_exponent(spec)
    tol = max(3.0 * stderr / mean, 10.0 * euler.error_bracket(spec))
    assert abs(math.log(mean) - closed) < tol


def test_cosine_sum_branches():
    assert euler.cosine_sum(0.0, 1e4).branch == "small"
    assert euler.cosine_sum(0.5, 1e4).branch == "moderate"
    assert euler.cosine_sum(50.0, 1e4).branch == "large"
    # t=0 recovers the plain sum of reciprocals
    r = euler.cosine_sum(0.0, 100.0)
    assert r.value == pytest.approx(sum(1.0 / p for p in primes.primes_up_to(100)))


def test_cosine_sum_small_t_near_log_log():
    r = euler.cosine_sum(0.0, 1e6)
    # Mertens: sum 1/p = log log y + M + o(1), M ~ 0.2615
    assert abs(r.value - (math.log(math.log(1e6)) + 0.2615)) < 0.01

