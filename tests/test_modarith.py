import math

import numpy as np
import pytest

from charmoments import errors, modarith
from charmoments.errors import OutOfRange, TooLarge
from charmoments.modarith import build_modulus


@pytest.fixture(scope="module")
def mod7():
    return build_modulus(7)


def test_dlog_table_q7(mod7):
    # 3 is the least primitive root of 7; powers 1,3,2,6,4,5
    assert mod7.g == 3
    expect = {1: 0, 3: 1, 2: 2, 6: 3, 4: 4, 5: 5}
    for n, d in expect.items():
        assert mod7.dlog[n] == d


def test_dlog_inverts_powers(mod7):
    for n in range(1, 7):
        assert pow(mod7.g, int(mod7.dlog[n]), 7) == n


def test_legendre_mod7(mod7):
    # a = 3 gives the order-2 character; residues {1,2,4} map to +1
    want = {1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1}
    got = mod7.char_values(3, list(want))
    assert got.real == pytest.approx(list(want.values()), abs=1e-12)
    assert got.imag == pytest.approx([0] * 6, abs=1e-12)


def test_char_multiplicativity(mod7):
    ns = np.arange(1, 7)
    for a in range(6):
        chi = mod7.char_values(a, ns)
        lhs = mod7.char_values(a, np.multiply.outer(ns, ns) % 7)
        assert lhs == pytest.approx(np.multiply.outer(chi, chi), abs=1e-12)


def test_char_zero_on_multiples(mod7):
    assert list(mod7.char_values(2, [7, 14])) == [0, 0]


def test_principal_character(mod7):
    assert mod7.char_values(0, np.arange(1, 7)) == pytest.approx(np.ones(6))


def test_parity():
    # chi_a(-1) = (-1)^a: chi_a is even iff a is even, the split theta uses
    for q in (7, 13):
        mod = build_modulus(q)
        for a in range(q - 1):
            assert mod.char_values(a, [q - 1])[0] == pytest.approx((-1) ** a, abs=1e-12)


def test_char_values_vectorized(mod7):
    ns = np.arange(0, 15)
    got = mod7.char_values(1, ns)
    for i, n in enumerate(ns):
        # chi_1(n) = exp(2 pi i dlog(n) / (q - 1)) by definition
        want = 0j if n % 7 == 0 else np.exp(2j * np.pi * mod7.dlog[n % 7] / 6)
        assert got[i] == pytest.approx(want, abs=1e-12)


def test_orthogonality_rows():
    mod = build_modulus(13)
    ns = np.arange(1, 13)
    for a in range(1, 12):
        total = mod.char_values(a, ns).sum()
        assert abs(total) < 1e-10  # non-principal rows sum to zero


def test_build_modulus_rejects():
    with pytest.raises(OutOfRange, match="q = 10 is not prime"):
        build_modulus(10)
    with pytest.raises(OutOfRange, match="q = 1 is not prime"):
        build_modulus(1)
    with pytest.raises(TooLarge):
        build_modulus(2**31 + 11)


def test_larger_modulus_consistency():
    mod = build_modulus(20011)
    # g^dlog[n] == n spot check
    for n in (2, 1234, 20010):
        assert pow(mod.g, int(mod.dlog[n]), 20011) == n


def test_cap_counts_memo_slot(monkeypatch):
    # 12 q <= cap < 16 q: the dlog table and one slot would fit, two slots do not
    q = 134_217_757
    assert modarith.primes.factorize(q) == [(q, 1)]
    assert 12 * q <= errors.DEFAULT_MEMORY_CAP < 16 * q

    def no_tables(*args, **kwargs):
        raise AssertionError("a table was allocated before the cap check")

    monkeypatch.setattr(modarith.np, "full", no_tables)
    monkeypatch.setattr(modarith, "_primitive_root", no_tables)
    with pytest.raises(TooLarge):
        build_modulus(q)


@pytest.mark.parametrize("q", [2, 3, 4093, 4099, 12289, 65537])
def test_dlog_table_at_block_edges(q):
    # q - 1 of 1 and 2, just below and above one block of 4,096 powers, 3 and 16 blocks
    mod = build_modulus(q)
    assert mod.dlog[0] == -1
    assert np.array_equal(np.sort(mod.dlog[1:]), np.arange(q - 1))
    assert all(pow(mod.g, d, q) == n for n, d in enumerate(mod.dlog.tolist()[1:], 1))


def _composites_below(n):
    flags = np.zeros(n, dtype=bool)
    for d in range(2, math.isqrt(n - 1) + 1):
        flags[d * d :: d] = True
    return np.flatnonzero(flags).tolist()


def test_not_prime_refused_before_the_root_search(monkeypatch):
    # every composite below 10^4, 0 and 1, the Carmichael number 109 * 541 * 2,269
    # and the prime square 11,579^2, the last two just under the cap's q limit
    def no_root(q):
        raise AssertionError(f"_primitive_root ran for q = {q}")

    monkeypatch.setattr(modarith, "_primitive_root", no_root)
    big = [109 * 541 * 2_269, 11_579**2]
    assert all(16 * q <= errors.DEFAULT_MEMORY_CAP for q in big)
    for q in [0, 1] + _composites_below(10**4) + big:
        with pytest.raises(OutOfRange, match=f"^q = {q} is not prime$"):
            build_modulus(q)
    monkeypatch.undo()
    for q in (2, 3, 65_537, 1_000_003):
        mod = build_modulus(q)
        assert mod.q == q and mod.dlog.size == q
