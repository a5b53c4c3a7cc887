import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmoments import errors, primes, rmf, verify
from charmoments.calibration import Calibration
from charmoments.errors import TooLarge

_REF_LIMIT = 3 << 20


def _reference_primes(n):
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


_REF = _reference_primes(_REF_LIMIT)


def _empty_table():
    ps = np.empty(0, dtype=np.int64)
    ps.flags.writeable = False
    return (1, ps)


def test_primes_up_to_counts():
    assert primes.primes_up_to(1).size == 0
    assert list(primes.primes_up_to(10)) == [2, 3, 5, 7]
    assert primes.primes_up_to(10**6).size == 78498


def test_primes_in_half_open():
    got = primes.primes_in(10, 20)
    assert list(got) == [11, 13, 17, 19]
    # lo itself excluded, hi included
    assert 11 not in primes.primes_in(11, 20)
    assert 19 in primes.primes_in(11, 19)


def test_factorize():
    assert primes.factorize(1) == []
    assert primes.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert primes.factorize(97) == [(97, 1)]


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(n=st.integers(1, 2**31 - 1))
@example(n=1)
@example(n=2)
@example(n=1_000_002)
@example(n=2**31 - 2)
@example(n=46337**2)  # a prime square at the top of the range
def test_factorize_property(n):
    # trial division by the table's primes p <= sqrt(n); the cofactor left is prime
    factors = primes.factorize(n)
    ps = [p for p, _ in factors]
    assert ps == sorted(set(ps))
    assert all(e >= 1 for _, e in factors)
    for p, _ in factors:  # each factor is prime: no table prime <= sqrt(p) divides it
        small = primes.primes_up_to(math.isqrt(p))
        assert p >= 2 and not (p % small == 0).any()
    assert math.prod(p**e for p, e in factors) == n


@pytest.mark.parametrize("n, shown", [(0, "0"), (-1, "-1"), (-(2**40), "-1.100e+12")],
                         ids=["0", "-1", "-1099511627776"])
def test_factorize_refuses_n_below_1(n, shown):
    # a whole number of 13 or more digits reads as %.3e
    with pytest.raises(errors.OutOfRange) as info:
        primes.factorize(n)
    assert str(info.value) == f"n = {shown} must be >= 1"


def test_factorize_reads_the_table_directly(monkeypatch):
    # a traced run counts only the primes_up_to calls made from outside primes
    monkeypatch.setattr(primes, "primes_up_to", lambda n: pytest.fail("factorize called it"))
    assert primes.factorize(2**31 - 2) == [(2, 1), (3, 2), (7, 1), (11, 1), (31, 1),
                                           (151, 1), (331, 1)]


def test_factorize_refuses_past_the_sieve_cap():
    # sqrt(n) > SIEVE_CAP would need primes the table never holds
    with pytest.raises(TooLarge):
        primes.factorize((primes.SIEVE_CAP + 1) ** 2)


def test_rough_count_window():
    # integers in (a, b] with every prime factor > y, by trial division
    for a, b, y in ((100, 1000, 10), (100, 1000, 5), (10, 20, 3), (0, 50, 7),
                    (10, 110, 1.5), (96.5, 130.9, 11.5), (1000, 1100, 2000)):
        want = sum(all(n % d for d in range(2, int(y) + 1))
                   for n in range(int(a) + 1, int(b) + 1))
        assert verify.check_rough_count(a, b, y, Calibration()).context["count"] == want


def test_sieve_cap_enforced():
    with pytest.raises(Exception):
        primes.primes_up_to(primes.SIEVE_CAP * 10)


@settings(derandomize=True, max_examples=25, database=None, deadline=None)
@given(limits=st.lists(st.integers(-3, _REF_LIMIT), min_size=1, max_size=6))
@example(limits=[2**20 - 1])
@example(limits=[2**20])
@example(limits=[2**20 + 1])
@example(limits=[2**20 - 1, 2**20 + 1, 2**20, 0, 1, 2])
@example(limits=[1791, _REF_LIMIT])  # 1791 + 2^20, a prime, ends the first full segment
def test_table_matches_reference_sieve(limits):
    # each example grows a table of its own from empty, in the order given
    saved = primes._table[0]
    primes._table[0] = _empty_table()
    try:
        for n in limits:
            got = primes.primes_up_to(n)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _REF[_REF <= n])
            assert primes._table[0][0] >= n
    finally:
        primes._table[0] = saved


def test_outputs_are_read_only():
    for ps in (primes.primes_up_to(100), primes.primes_in(10, 100), rmf.sample(1, 100).primes):
        with pytest.raises(ValueError):
            ps[0] = 4


def test_one_shared_table():
    big = primes.primes_up_to(1000)
    assert np.shares_memory(primes.primes_up_to(100), big)
    assert np.shares_memory(primes.primes_in(50, 500), big)


def test_refused_limit_leaves_table():
    before = primes._table[0]
    with pytest.raises(TooLarge):
        primes.primes_up_to(primes.SIEVE_CAP + 1)
    assert primes._table[0] is before


def test_full_table_fits_memory_cap():
    # the Rosser-Schoenfeld bound rmf.batch_nbytes also charges for pi(x)
    pi_bound = 1.25506 * primes.SIEVE_CAP / math.log(primes.SIEVE_CAP)
    assert 8 * pi_bound < errors.DEFAULT_MEMORY_CAP


def test_concurrent_growth_never_shrinks(monkeypatch):
    # eight growers start together from an empty table; one that replaced the
    # table after a larger one would leave the limit below the largest asked
    monkeypatch.setattr(primes, "_table", [_empty_table()])
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 10)
    limits = [200_000 - 1000 * k for k in range(8)]
    start = threading.Barrier(len(limits))

    def grow(n):
        start.wait(timeout=60)
        return primes.primes_up_to(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(limits)) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(grow, n) for n in limits]]
    finally:
        sys.setswitchinterval(interval)
    # grown in whole segments: the segment holding the largest limit
    assert primes._table[0][0] == -(-max(limits) // primes._SEGMENT) * primes._SEGMENT
    for n, got in zip(limits, results):
        np.testing.assert_array_equal(got, _REF[_REF <= n])


class _CountingSlot(list):
    """A one-slot table that counts its replacements."""

    replaced = 0

    def __setitem__(self, i, value):
        self.replaced += 1
        super().__setitem__(i, value)


def test_growth_in_whole_segments(monkeypatch):
    # limits rising within one segment copy the table once; below one segment
    # a cold call sieves only up to its limit
    slot = _CountingSlot([_empty_table()])
    monkeypatch.setattr(primes, "_table", slot)
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 10)
    monkeypatch.setattr(primes, "SIEVE_CAP", 20 * 1024 + 500)
    primes.primes_up_to(100)
    assert slot[0][0] == 100
    primes.primes_up_to(200)  # past the square root of every limit below
    for limits, table_limit in (([5 * 1024 + 1, 5 * 1024 + 2, 6 * 1024], 6 * 1024),
                                ([primes.SIEVE_CAP - 2, primes.SIEVE_CAP - 1,
                                  primes.SIEVE_CAP], primes.SIEVE_CAP)):
        before = slot.replaced
        for n in limits:
            np.testing.assert_array_equal(primes.primes_up_to(n), _REF[_REF <= n])
        assert slot.replaced == before + 1
        assert slot[0][0] == table_limit
