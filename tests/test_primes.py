import numpy as np
import pytest

from charmoments import primes
from charmoments.errors import TooLarge


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert primes.is_prime(n) == (n in known)


def test_is_prime_large_carmichael():
    # Carmichael numbers fool Fermat, not deterministic Miller-Rabin
    assert not primes.is_prime(561)
    assert not primes.is_prime(41041)
    assert primes.is_prime(2**31 - 1)
    assert not primes.is_prime(2**32 + 1)


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


def test_smallest_factor_sieve():
    s = primes.smallest_factor_sieve(30)
    assert s[2] == 2 and s[15] == 3 and s[29] == 29
    assert s[1] > 10**18  # unit has no prime factor; sentinel means "infinite"


def test_smooth_numbers():
    got = primes.smooth_numbers(50, 3, 15)
    assert list(got) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48]
    assert list(primes.smooth_numbers(10, 1, 1)) == [1]
    with pytest.raises(TooLarge):
        primes.smooth_numbers(50, 3, 14)  # one more than the cap


def test_smooth_numbers_refuses_before_building(monkeypatch):
    # 7-smooth integers up to 10^12 number 14,672; none of the arrays
    # sorted on the way may pass the cap of 100
    sizes = []
    sort = np.sort
    monkeypatch.setattr(primes.np, "sort", lambda a: sizes.append(a.size) or sort(a))
    with pytest.raises(TooLarge):
        primes.smooth_numbers(10**12, 7, 100)
    assert sizes and max(sizes) <= 100


def test_rough_count_window():
    # integers in (100, 1000] with every prime factor > 10
    g = primes.smallest_factor_sieve(1000)
    ns = np.arange(101, 1001)
    count = int(np.sum(g[ns] > 10))
    members = ns[g[ns] > 10]
    assert count == members.size
    assert 121 in members and 143 in members  # 11^2, 11*13
    assert 102 not in members


def test_sieve_cap_enforced():
    with pytest.raises(Exception):
        primes.primes_up_to(primes.SIEVE_CAP * 10)
