"""A derandomized fuzz of the public functions that take a real argument.

The library counterpart of test_cli_fuzz.py.  Each real argument is an
ordinary small value three times in four, else one of 0, -1, 1e-300, 1e300,
inf and nan; the other arguments are ordinary.  Every call must return or
raise a CharmomentsError, never a bare ValueError, OverflowError or
IndexError.  The memory cap is lowered to 256 MiB and the ordinary values
are small, so an admitted size stays small and nothing sieves far.
"""
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import errors, euler, modarith, moments, primes, proxy, rmf, theta, verify
from charmoments.calibration import Calibration

SPECIAL = (0.0, -1.0, 1e-300, 1e300, math.inf, math.nan)
MOD = modarith.build_modulus(101)
SAMPLE = rmf.sample(3, 200)
SEEDS = rmf.derive_trial_seeds(0, 4)
CAL = Calibration()
WINDOW = proxy.desk_params(x=2.0, y=2.0, k=2.0, j_values=[1], q=101)


def real(lo, hi):
    """An ordinary value in [lo, hi] three times in four, else a special one."""
    ordinary = st.floats(lo, hi)
    return st.one_of(ordinary, ordinary, ordinary, st.sampled_from(SPECIAL))


K = real(0.0, 4.0)

# name: (call, strategy of its argument tuple)
CALLS = {
    "modarith.build_modulus": (modarith.build_modulus,
                               st.tuples(st.one_of(st.sampled_from([2, 3, 101, 4.0]),
                                                   st.sampled_from(SPECIAL)))),
    "primes.primes_up_to": (primes.primes_up_to, st.tuples(real(-3.0, 1000.0))),
    "primes.primes_in": (primes.primes_in, st.tuples(real(0.0, 1000.0), real(0.0, 1000.0))),
    "rmf.sample": (lambda limit: rmf.sample(1, limit), st.tuples(real(2.0, 500.0))),
    "rmf.value_at": (lambda n: rmf.value_at(SAMPLE, n), st.tuples(real(1.0, 200.0))),
    "rmf.values_upto": (lambda x: rmf.values_upto(SAMPLE, x), st.tuples(real(0.0, 200.0))),
    "rmf.partial_sum": (lambda x: rmf.partial_sum(SAMPLE, x), st.tuples(real(0.0, 200.0))),
    "rmf.batch_nbytes": (lambda x: rmf.batch_nbytes(4, x), st.tuples(real(0.0, 1e6))),
    "rmf.partial_sums_batch": (lambda x: rmf.partial_sums_batch(SEEDS, x),
                               st.tuples(real(0.0, 1000.0))),
    "rmf.exact_moment_2k": (rmf.exact_moment_2k,
                            st.tuples(real(1.0, 20.0), st.sampled_from([1, 2, 3]))),
    "moments.char_moment": (lambda x, k: moments.char_moment(MOD, x, k),
                            st.tuples(real(1.0, 101.0), K)),
    "moments.second_moment_closed_form": (lambda x: moments.second_moment_closed_form(101, x),
                                          st.tuples(real(0.0, 300.0))),
    "moments.congruence_energy": (lambda x: moments.congruence_energy(101, x),
                                  st.tuples(real(0.0, 40.0))),
    "moments.rmf_moment_mc": (lambda x, k: moments.rmf_moment_mc(x, k, trials=8, seed=1),
                              st.tuples(real(0.0, 200.0), K)),
    "euler.cosine_sum": (euler.cosine_sum, st.tuples(real(-20.0, 20.0), real(2.0, 1000.0))),
    "theta.theta_all": (lambda trunc: theta.theta_all(MOD, trunc), st.tuples(real(0.0, 500.0))),
    "theta.theta_naive": (lambda trunc: theta.theta_naive(MOD, 3, trunc),
                          st.tuples(real(0.0, 500.0))),
    "theta.theta_moment": (lambda k, parity: theta.theta_moment(MOD, k, parity),
                           st.tuples(K, st.sampled_from(["even", "odd"]))),
    "proxy.desk_params": (lambda x, y, k: proxy.desk_params(x, y=y, k=k),
                          st.tuples(real(1.0, 60.0), real(1.0, 12.0), real(2.0, 4.0))),
    "proxy.paper_params": (lambda log_x, k, c0: proxy.paper_params(log_x=log_x, k=k, c0=c0),
                           st.tuples(real(0.5, 2e8), real(2.0, 4.0), real(1.0, 5e5))),
    "verify.check_rough_count": (lambda a, b, y: verify.check_rough_count(a, b, y, CAL),
                                 st.tuples(real(0.0, 100.0), real(0.0, 1000.0),
                                           real(1.0, 50.0))),
    "verify.check_reflection": (lambda x: verify.check_reflection(MOD, x, CAL),
                                st.tuples(real(1.0, 101.0))),
    "verify.check_fft_vs_naive": (lambda x: verify.check_fft_vs_naive(MOD, x),
                                  st.tuples(real(1.0, 101.0))),
    "verify.check_holder_chain": (lambda x: verify.check_holder_chain(MOD, x, WINDOW, CAL),
                                  st.tuples(real(1.0, 6.0))),
    "verify.check_weighted_correspondence": (
        lambda x: verify.check_weighted_correspondence(MOD, x, WINDOW, CAL),
        st.tuples(real(1.0, 6.0))),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_library_fuzz(name):
    call, arguments = CALLS[name]

    @settings(derandomize=True, max_examples=30, database=None, deadline=None)
    @given(args=arguments)
    def run(args):
        with mock.patch.object(errors, "DEFAULT_MEMORY_CAP", 1 << 28):
            try:
                call(*args)
            except errors.CharmomentsError:
                pass

    run()
