"""A derandomized fuzz of the public functions that take a real or an integer argument.

The library counterpart of test_cli_fuzz.py.  Each real argument is an
ordinary small value three times in four, else one of 0, -1, 1e-300, 1e300,
inf and nan; each integer argument is an ordinary int three times in
four, else one of 2, 2.0, 2.5, True, 0, -1, 1e300, inf and nan.  Every call
must return or raise a CharmomentsError of fewer than 200 characters, never
a bare ValueError, OverflowError, TypeError or IndexError, and a call given
a bool or a value that is not a whole number as an integer argument must
raise OutOfRange.
The memory cap is lowered to 256 MiB and the ordinary values are small, so an
admitted size stays small and nothing sieves far.
"""
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import errors, euler, modarith, moments, primes, proxy, rmf, theta, verify
from charmoments.calibration import Calibration
from charmoments.fpoly import FPoly

SPECIAL = (0.0, -1.0, 1e-300, 1e300, math.inf, math.nan)
SHORT = 200  # characters: a refusal names a huge number as %.3e, not in full
INT_SPECIAL = (2, 2.0, 2.5, True, 0, -1, 1e300, math.inf, math.nan)
MOD = modarith.build_modulus(101)
NS = np.arange(1, 30)
SAMPLE = rmf.sample(3, 200)
SEEDS = rmf.derive_trial_seeds(0, 4)
PS = primes.primes_up_to(30)
CAL = Calibration()
WINDOW = proxy.desk_params(x=2.0, y=2.0, k=2.0, j_values=[1], q=101)
SPEC = euler.EulerProductSpec(alpha=0.8, beta=0.6, sigma1=0.02, sigma2=0.0,
                              t1=0.0, t2=2.5, z=250.0, y=400.0)
POLY = FPoly.var(2) + FPoly.var(3, 0.5j)


def ones_per_batch():
    """A trivial make_per_batch for rmf.mc_estimate: one 1.0 per trial."""
    return lambda chunk: np.ones(chunk.size)


def mostly(ordinary, special):
    """A draw of ordinary three times in four, else one of special."""
    return st.one_of(ordinary, ordinary, ordinary, st.sampled_from(special))


def real(lo, hi):
    return mostly(st.floats(lo, hi), SPECIAL)


def integer(lo, hi):
    return mostly(st.integers(lo, hi), INT_SPECIAL)


def optional(strategy):
    return st.one_of(st.none(), strategy)


K = real(0.0, 4.0)
SEED = integer(0, 2**64 - 1)

# name: (call, strategy of its argument tuple, positions of its integer arguments)
CALLS = {
    "modarith.build_modulus": (modarith.build_modulus, st.tuples(integer(2, 110)), (0,)),
    "modarith.char_values": (lambda a: MOD.char_values(a, NS), st.tuples(integer(-5, 200)), (0,)),
    "primes.primes_up_to": (primes.primes_up_to, st.tuples(real(-3.0, 1000.0)), ()),
    "primes.primes_in": (primes.primes_in, st.tuples(real(0.0, 1000.0), real(0.0, 1000.0)), ()),
    "primes.factorize": (primes.factorize, st.tuples(integer(-5, 10**6)), (0,)),
    "fpoly.FPoly.var": (FPoly.var, st.tuples(integer(1, 100), real(-2.0, 2.0)), (0,)),
    "fpoly.FPoly.power": (POLY.power, st.tuples(integer(0, 6)), (0,)),
    "rmf.sample": (rmf.sample, st.tuples(SEED, real(2.0, 500.0)), (0,)),
    "rmf.value_at": (lambda n: rmf.value_at(SAMPLE, n), st.tuples(integer(1, 200)), (0,)),
    "rmf.values_upto": (lambda x: rmf.values_upto(SAMPLE, x), st.tuples(real(0.0, 200.0)), ()),
    "rmf.partial_sum": (lambda x: rmf.partial_sum(SAMPLE, x), st.tuples(real(0.0, 200.0)), ()),
    "rmf.derive_trial_seeds": (rmf.derive_trial_seeds, st.tuples(SEED, integer(0, 50)), (0, 1)),
    "rmf.unit_values": (lambda seed: rmf.unit_values(seed, PS), st.tuples(SEED), (0,)),
    "rmf.mc_estimate": (lambda trials, batch, threads: rmf.mc_estimate(
                            1, trials, batch, ones_per_batch, 8, 0, threads),
                        st.tuples(integer(2, 100), integer(1, 100), optional(integer(1, 8))),
                        (0, 1, 2)),
    "rmf.batch_nbytes": (rmf.batch_nbytes, st.tuples(integer(0, 64), real(0.0, 1e6)), (0,)),
    "rmf.partial_sums_batch": (lambda x: rmf.partial_sums_batch(SEEDS, x),
                               st.tuples(real(0.0, 1000.0)), ()),
    "rmf.pair_counts": (lambda xf: rmf.pair_counts(xf, np.uint16), st.tuples(integer(0, 30)),
                        (0,)),
    "rmf.exact_moment_2k": (rmf.exact_moment_2k, st.tuples(real(1.0, 20.0), integer(1, 3)),
                            (1,)),
    "moments.char_moment": (lambda x, k: moments.char_moment(MOD, x, k),
                            st.tuples(real(1.0, 101.0), K), ()),
    "moments.second_moment_closed_form": (moments.second_moment_closed_form,
                                          st.tuples(integer(2, 300), real(0.0, 300.0)), (0,)),
    "moments.congruence_energy": (moments.congruence_energy,
                                  st.tuples(integer(1, 200), real(0.0, 40.0)), (0,)),
    "moments.rmf_moment_mc": (
        lambda x, k, trials, seed, batch, threads: moments.rmf_moment_mc(
            x, k, trials=trials, seed=seed, batch=batch, threads=threads),
        st.tuples(real(0.0, 200.0), K, integer(2, 12), SEED, optional(integer(1, 16)),
                  optional(integer(1, 4))),
        (2, 3, 4, 5)),
    "moments.shape_fit": (moments.shape_fit,
                          st.tuples(st.lists(st.tuples(real(3.0, 1e4), real(0.1, 1e4)),
                                             min_size=4, max_size=6), K), ()),
    "euler.cosine_sum": (euler.cosine_sum, st.tuples(real(-20.0, 20.0), real(2.0, 1000.0)), ()),
    "euler.mc_product_estimate": (
        lambda trials, seed, batch, threads: euler.mc_product_estimate(
            SPEC, trials, seed, batch=batch, threads=threads),
        st.tuples(integer(2, 12), SEED, optional(integer(1, 16)), optional(integer(1, 4))),
        (0, 1, 2, 3)),
    "theta.theta_all": (lambda trunc: theta.theta_all(MOD, trunc), st.tuples(real(0.0, 500.0)),
                        ()),
    "theta.truncation_point": (theta.truncation_point, st.tuples(integer(2, 10**6)), (0,)),
    "theta.theta_naive": (lambda a, trunc: theta.theta_naive(MOD, a, trunc),
                          st.tuples(integer(0, 99), real(0.0, 500.0)), (0,)),
    "theta.theta_moment": (lambda k, parity: theta.theta_moment(MOD, k, parity),
                           st.tuples(K, st.sampled_from(["even", "odd"])), ()),
    "theta.even_char_orthogonality": (
        lambda n, m: theta.even_char_orthogonality(MOD, n, m),
        st.tuples(integer(-5, 300), integer(-5, 300)), (0, 1)),
    "theta.mellin_transform_check": (
        lambda cap: theta.mellin_transform_check(1.0, 1.0, SAMPLE, cap),
        st.tuples(integer(0, 10**6)), (0,)),
    "proxy.desk_params": (lambda x, y, k, j, q: proxy.desk_params(x, y=y, k=k, j_values=[j], q=q),
                          st.tuples(real(1.0, 60.0), real(1.0, 12.0), real(2.0, 4.0),
                                    integer(1, 4), optional(integer(2, 10**6))),
                          (3, 4)),
    "proxy.paper_params": (lambda log_x, k, c0: proxy.paper_params(log_x=log_x, k=k, c0=c0),
                           st.tuples(real(0.5, 2e8), real(2.0, 4.0), real(1.0, 5e5)), ()),
    "proxy.ProxyParams.check_length": (lambda q: WINDOW.check_length(1.0, q),
                                       st.tuples(integer(2, 10**6)), (0,)),
    "proxy.ProxyParams.penalty_exp": (WINDOW.penalty_exp, st.tuples(integer(1, 3)), (0,)),
    "proxy.CharSource": (lambda a: proxy.CharSource(MOD, a).values_at(NS),
                         st.tuples(integer(-5, 200)), (0,)),
    "proxy.truncated_exp": (proxy.truncated_exp,
                            st.tuples(real(-5.0, 5.0), integer(0, 8), real(-3.0, 3.0)), (1,)),
    "proxy.truncation_error_direct": (proxy.truncation_error_direct,
                                      st.tuples(real(-3.0, 3.0), real(2.0, 4.0), integer(0, 8)),
                                      (2,)),
    "proxy.truncation_error_series": (proxy.truncation_error_series,
                                      st.tuples(real(-3.0, 3.0), real(2.0, 4.0), integer(0, 8)),
                                      (2,)),
    "proxy.surrogate_log_at": (proxy.surrogate_log_at,
                               st.tuples(real(-5.0, 5.0), real(2.0, 4.0), integer(1, 4),
                                         integer(0, 2000)),
                               (2, 3)),
    "verify.run_suite": (lambda q, seed: verify.run_suite("theta", q, seed, CAL),
                         st.tuples(mostly(st.sampled_from([3, 5, 7, 101]), INT_SPECIAL), SEED),
                         (0, 1)),
    "verify.check_even_moment_ratio": (
        lambda j: verify.check_even_moment_ratio({1: 1.0 + 0j, 2: 0.5 + 0j}, (2, 3),
                                                 {2: 1.0 + 0j, 3: 0.7j}, {2: 0.3 + 0j}, j, CAL),
        st.tuples(integer(0, 4)), (0,)),
    "verify.check_rough_count": (lambda a, b, y: verify.check_rough_count(a, b, y, CAL),
                                 st.tuples(real(0.0, 100.0), real(0.0, 1000.0),
                                           real(1.0, 50.0)), ()),
    "verify.check_reflection": (lambda x: verify.check_reflection(MOD, x, CAL),
                                st.tuples(real(1.0, 101.0)), ()),
    "verify.check_fft_vs_naive": (lambda x: verify.check_fft_vs_naive(MOD, x),
                                  st.tuples(real(1.0, 101.0)), ()),
    "verify.check_holder_chain": (lambda x: verify.check_holder_chain(MOD, x, WINDOW, CAL),
                                  st.tuples(real(1.0, 6.0)), ()),
    "verify.check_weighted_correspondence": (
        lambda x: verify.check_weighted_correspondence(MOD, x, WINDOW, CAL),
        st.tuples(real(1.0, 6.0)), ()),
}


def _not_whole(value) -> bool:
    return isinstance(value, bool) or isinstance(value, float) and not value.is_integer()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_library_fuzz(name):
    call, arguments, integers = CALLS[name]

    @settings(derandomize=True, max_examples=30, database=None, deadline=None)
    @given(args=arguments)
    def run(args):
        refused = [args[i] for i in integers if _not_whole(args[i])]
        with mock.patch.object(errors, "DEFAULT_MEMORY_CAP", 1 << 28):
            try:
                call(*args)
            except errors.CharmomentsError as exc:
                assert len(str(exc)) < SHORT, exc
                assert not refused or isinstance(exc, errors.OutOfRange), \
                    f"{refused} refused as {exc!r}, not OutOfRange"
            else:
                assert not refused, f"{refused} taken as a whole number"

    run()


# A huge argument to a count cap or a lower end, each refused in a short text
HUGE_CASES = {
    "rmf.exact_moment_2k": lambda: rmf.exact_moment_2k(1e300, 2),
    "primes.factorize": lambda: primes.factorize(10**300),
    "primes.primes_up_to": lambda: primes.primes_up_to(1e300),
    "rmf.sample": lambda: rmf.sample(1, 1e300),
    "proxy.truncated_exp": lambda: proxy.truncated_exp(1.0, 10**300, 1.0),
    "modarith.build_modulus": lambda: modarith.build_modulus(10**300),
    "fpoly.FPoly.power": lambda: FPoly.var(2).power(10**300),
    "modarith.build_modulus negative": lambda: modarith.build_modulus(-(10**300)),
}


@pytest.mark.parametrize("name", sorted(HUGE_CASES))
def test_huge_argument_is_refused_in_a_short_text(name):
    with pytest.raises(errors.CharmomentsError) as info:
        HUGE_CASES[name]()
    assert len(str(info.value)) < SHORT, info.value


# One integer argument each: its integral float gives the int's result bit for
# bit, and a fraction, a bool, nan or inf raises OutOfRange, rather than being
# truncated (q = 101.5 as 101) or failing with a bare error (factorize(12.0)).
# name -> (call of that argument, an int it takes)
WHOLE_CASES = {
    "modarith.build_modulus": (lambda q: modarith.build_modulus(q).dlog, 101),
    "modarith.char_values": (lambda a: MOD.char_values(a, NS), 1),
    "primes.factorize": (primes.factorize, 12),
    "fpoly.FPoly.var": (lambda n: FPoly.var(n).terms, 2),
    "fpoly.FPoly.power": (lambda j: POLY.power(j).terms, 2),
    "rmf.sample": (lambda seed: rmf.sample(seed, 50).fp, 1),
    "rmf.value_at": (lambda n: rmf.value_at(SAMPLE, n), 6),
    "rmf.derive_trial_seeds": (lambda seed: rmf.derive_trial_seeds(seed, 2), 1),
    "rmf.unit_values": (lambda seed: rmf.unit_values(seed, PS), 1),
    "rmf.mc_estimate trials": (
        lambda trials: rmf.mc_estimate(1, trials, 4, ones_per_batch, 8, 0), 10),
    "rmf.mc_estimate batch": (lambda batch: rmf.mc_estimate(1, 10, batch, ones_per_batch, 8, 0),
                              2),
    "rmf.batch_nbytes": (lambda rows: rmf.batch_nbytes(rows, 100), 2),
    "rmf.pair_counts": (lambda xf: rmf.pair_counts(xf, np.uint16), 3),
    "rmf.exact_moment_2k": (lambda k: rmf.exact_moment_2k(5, k), 1),
    "moments.rmf_moment_mc trials": (
        lambda trials: moments.rmf_moment_mc(10.0, 2.0, trials=trials, seed=1), 10),
    "moments.rmf_moment_mc seed": (
        lambda seed: moments.rmf_moment_mc(10.0, 2.0, trials=8, seed=seed), 1),
    "moments.rmf_moment_mc batch": (
        lambda batch: moments.rmf_moment_mc(10.0, 2.0, trials=8, seed=1, batch=batch), 3),
    "moments.rmf_moment_mc threads": (
        lambda threads: moments.rmf_moment_mc(10.0, 2.0, trials=8, seed=1, threads=threads), 1),
    "euler.mc_product_estimate": (
        lambda batch: euler.mc_product_estimate(SPEC, 8, 1, batch=batch), 3),
    "theta.truncation_point": (theta.truncation_point, 101),
    "proxy.desk_params": (lambda j: proxy.desk_params(x=2.0, y=2.0, k=2.0, j_values=[j]), 1),
    "proxy.CharSource": (lambda a: proxy.CharSource(MOD, a).values_at(NS), 1),
    "proxy.truncated_exp": (lambda depth: proxy.truncated_exp(1.0, depth, 1.0), 2),
    "proxy.truncation_error_series": (
        lambda depth: proxy.truncation_error_series(1.0, 2.0, depth), 2),
    "verify.run_suite q": (
        lambda q: [(r.lhs, r.rhs) for r in verify.run_suite("identities", q, 1)], 101),
    "verify.run_suite seed": (
        lambda seed: [(r.lhs, r.rhs) for r in verify.run_suite("identities", 101, seed)], 1),
}


@pytest.mark.parametrize("name", sorted(WHOLE_CASES))
def test_integral_float_is_the_int_and_a_fraction_is_refused(name):
    call, n = WHOLE_CASES[name]
    assert pickle.dumps(call(float(n))) == pickle.dumps(call(n))
    for bad in (n + 0.5, True, math.nan, math.inf):
        with pytest.raises(errors.OutOfRange):
            call(bad)


def test_series_refuses_a_negative_depth():
    with pytest.raises(errors.OutOfRange, match="^depth = -3 must be >= 0$"):
        proxy.truncation_error_series(1.0, 2.0, -3)


def test_direct_refuses_a_product_past_the_float_range():
    # (k - 1) d = -inf would add +inf and -inf in the truncated exponential; the
    # series refuses the same input
    with pytest.raises(errors.OutOfRange, match=r"^\(k - 1\) d must be finite, got -inf$"):
        proxy.truncation_error_direct(-1e300, 1e300, 2)
    with pytest.raises(errors.OutOfRange):
        proxy.truncation_error_series(-1e300, 1e300, 2)


@pytest.mark.parametrize("m", [2, 10**300], ids=["2", "1e300"])
def test_penalty_exp_refuses_a_window_past_the_last(m):
    assert WINDOW.m_count == 1 and WINDOW.penalty_exp(1) > 0
    with pytest.raises(errors.OutOfRange, match="^m must be <= 1, the window count$"):
        WINDOW.penalty_exp(m)
