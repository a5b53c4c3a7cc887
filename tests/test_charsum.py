import contextlib
import math
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmoments import charsum
from charmoments.charsum import (
    abs_char_sums,
    all_char_sums_fft,
    all_char_sums_naive,
    weighted_char_sums,
)
from charmoments.errors import OutOfRange
from charmoments.modarith import build_modulus
from charmoments.primes import primes_up_to


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


def test_fft_matches_naive(mod101):
    for x in (1, 7.9, 50, 100):
        fast = all_char_sums_fft(mod101, x).values
        slow = all_char_sums_naive(mod101, x).values
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_principal_row_is_count(mod101):
    t = all_char_sums_fft(mod101, 30)
    assert t.values[0] == pytest.approx(30.0)
    t = all_char_sums_fft(mod101, 100.7)
    assert t.values[0] == pytest.approx(100.0)  # floor capped at q-1


def test_full_period_cancellation():
    mod = build_modulus(5)
    vals = all_char_sums_fft(mod, 4).values
    assert vals[0] == pytest.approx(4.0)
    assert np.max(np.abs(vals[1:])) < 1e-12


def test_x_equals_one(mod101):
    vals = all_char_sums_fft(mod101, 1).values
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_reflection_symmetry(mod101):
    # chi(-1)-twist: |S(x)| = |S(q-1-floor(x))| for non-principal chi
    a = np.abs(all_char_sums_fft(mod101, 40).values[1:])
    b = np.abs(all_char_sums_fft(mod101, 60).values[1:])
    assert np.max(np.abs(a - b)) < 1e-10


def test_conjugate_characters(mod101):
    vals = all_char_sums_fft(mod101, 33).values
    for a in range(1, 100):
        assert vals[(100 - a) % 100] == pytest.approx(np.conj(vals[a]), abs=1e-10)


def test_x_out_of_range(mod101):
    with pytest.raises(OutOfRange):
        all_char_sums_fft(mod101, 0.5)
    with pytest.raises(OutOfRange):
        all_char_sums_fft(mod101, 102)


def test_weighted_sums_match_direct(mod101):
    rng = np.random.default_rng(3)
    ns = np.arange(1, 61)
    ws = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    got = weighted_char_sums(mod101, ns, ws)
    for a in (0, 1, 17, 99):
        want = np.sum(ws * mod101.char_values(a, ns))
        assert got[a] == pytest.approx(want, abs=1e-9)


def test_weighted_indicator_drops_multiples(mod101):
    ns = np.array([1, 101, 202])
    ws = np.array([1.0, 5.0, 7.0])
    got = weighted_char_sums(mod101, ns, ws)
    assert got[0] == pytest.approx(1.0)  # chi(101k) = 0


def test_weighted_indicator_wraps_residues(mod101):
    # weight on n and on n+q land on the same character value
    one = weighted_char_sums(mod101, np.array([3]), np.array([2.0]))
    two = weighted_char_sums(mod101, np.array([104]), np.array([2.0]))
    assert np.max(np.abs(one - two)) < 1e-12


def test_weighted_rows_match_per_row_calls(mod101):
    rng = np.random.default_rng(5)
    ns = np.arange(1, 80) ** 2
    ws = rng.standard_normal((2, 3, ns.size)) + 1j * rng.standard_normal((2, 3, ns.size))
    got = weighted_char_sums(mod101, ns, ws)
    assert got.shape == (2, 3, 100)
    for i in range(2):
        for j in range(3):
            assert got[i, j].tobytes() == weighted_char_sums(mod101, ns, ws[i, j]).tobytes()


@pytest.mark.parametrize("q", [3, 5, 101, 103, 4127, 65543])
def test_real_weights_give_the_half_of_the_complex_result(q):
    # the two theta rows; 4,126 and 65,542 are rough lengths, the first on
    # numpy.fft, the second on scipy.fft
    mod = build_modulus(q)
    ns = np.arange(1, 3 * q)
    gauss = np.exp(-math.pi * ns.astype(np.float64) ** 2 / q)
    ws = np.stack([gauss, ns * gauss])
    half = weighted_char_sums(mod, ns, ws)
    full = weighted_char_sums(mod, ns, ws.astype(np.complex128))
    assert half.shape == (2, (q - 1) // 2 + 1) and full.shape == (2, q - 1)
    for row in range(2):
        tol = 1e-15 * np.abs(full[row]).max()
        np.testing.assert_allclose(half[row], full[row, : half.shape[1]], rtol=0, atol=tol)
        np.testing.assert_allclose(charsum.mirror(half[row], q), full[row], rtol=0, atol=tol)


def test_weighted_length_mismatch(mod101):
    with pytest.raises(OutOfRange):
        weighted_char_sums(mod101, np.arange(1, 11), np.ones(9))
    with pytest.raises(OutOfRange):
        weighted_char_sums(mod101, np.arange(1, 11), np.ones((10, 3)))


def _direct_sums(mod, x):
    """S_chi(x) for every character, summed one character at a time."""
    ns = np.arange(1, min(int(x), mod.q - 1) + 1)
    return np.array([mod.char_values(a, ns).sum() for a in range(mod.q - 1)])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 101, 103])
def test_half_spectrum_values_mirror(q):
    # (q-1)/2 is even for 5, 13, 101 and odd for 3, 7, 11, 103
    mod = build_modulus(q)
    for x in sorted({1, max(1, q // 3), max(1, q // 2), q}):
        table = all_char_sums_fft(mod, x)
        assert table.half.shape == ((q - 1) // 2 + 1,)
        assert table.values.shape == (q - 1,)
        naive = all_char_sums_naive(mod, x)
        assert naive.half.shape == table.half.shape
        direct = _direct_sums(mod, x)
        np.testing.assert_allclose(table.values, naive.values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(table.values, direct, rtol=0, atol=1e-9)


_PRIMES_TO_1000 = [int(p) for p in primes_up_to(1000)]


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(q=st.sampled_from(_PRIMES_TO_1000), frac=st.floats(0.0, 1.0),
       a=st.integers(0, 10**6))
def test_fft_matches_naive_random_primes(q, frac, a):
    mod = build_modulus(q)
    x = 1.0 + frac * (q - 1)  # x in [1, q]
    a %= q - 1
    fast = all_char_sums_fft(mod, x).values
    slow = all_char_sums_naive(mod, x).values
    atol = 1e-9 * max(1.0, math.sqrt(x))
    np.testing.assert_allclose(fast, slow, rtol=0, atol=atol)
    # conj(chi_a) = chi_{-a}, summed directly: its sum is conj(S_{chi_a}), same modulus
    ns = np.arange(1, min(int(x), q - 1) + 1)
    s_bar = np.conj(mod.char_values(a, ns)).sum()
    assert abs(fast[-a % (q - 1)] - s_bar) <= atol
    assert abs(abs(s_bar) - abs(fast[a])) <= atol


_PRIMES_TO_20000 = [int(p) for p in primes_up_to(20000)]


def _largest_factor(n):
    p, f = n, 2
    while f * f <= n:
        while n % f == 0:
            p, n = f, n // f
        f += 1
    return n if n > 1 else p


@contextlib.contextmanager
def _rfft_calls():
    """Record ("numpy" | "scipy", length) for each rfft call through either library."""
    calls = []
    libs = {"numpy": np.fft, "scipy": scipy.fft}
    real = {name: lib.rfft for name, lib in libs.items()}
    for name, lib in libs.items():
        lib.rfft = lambda b, _name=name: calls.append((_name, b.size)) or real[_name](b)
    try:
        yield calls
    finally:
        for name, lib in libs.items():
            lib.rfft = real[name]


# 65,542 = 2 * 32,771 is rough (32,771^2 > 65,542), so scipy; 65,536 = 2^16 is
# not; 4,126 = 2 * 2,063 is rough but below 2^16, so numpy; 4,128 = 2^5 * 3 * 43
@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(qx=st.sampled_from(_PRIMES_TO_20000).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(1, q))))
@example(qx=(65543, 30000))
@example(qx=(65537, 20000))
@example(qx=(4127, 2000))
@example(qx=(4129, 3000))
def test_fft_library_choice_keeps_bits(qx):
    q, x = qx
    mod = build_modulus(q)
    b = np.zeros(q - 1)
    b[mod.dlog[1 : min(x, q - 1) + 1]] = 1.0
    with _rfft_calls() as calls:
        half = all_char_sums_fft(mod, x).half
    n = q - 1
    rough = n > 1 and _largest_factor(n) ** 2 > n
    assert calls == [("scipy" if rough and n >= 1 << 16 else "numpy", n)]
    for rfft in (np.fft.rfft, scipy.fft.rfft):
        assert half.tobytes() == np.conj(rfft(b)).tobytes()


@pytest.mark.parametrize("q", [2, 3, 5, 101, 103, 499])
def test_abs_char_sums_bits_match_transform(q):
    mod = build_modulus(q)
    for x in sorted({1, max(1, q // 3) + 0.5, max(1, q // 2), q}):
        mags = abs_char_sums(mod, x)
        assert mags.dtype == np.float64
        assert mags.tobytes() == np.abs(all_char_sums_fft(mod, x).half).tobytes()


def test_abs_char_sums_read_only(mod101):
    mags = abs_char_sums(mod101, 30)
    assert not mags.flags.writeable
    with pytest.raises(ValueError):
        mags[0] = 0.0


def test_abs_char_sums_miss_frees_stored_table(monkeypatch):
    mod = build_modulus(101)
    stored = weakref.ref(abs_char_sums(mod, 30))
    fft = charsum.all_char_sums_fft

    def checking(mod, x):
        assert stored() is None  # no stored table is alive while a transform runs
        return fft(mod, x)

    monkeypatch.setattr(charsum, "all_char_sums_fft", checking)
    abs_char_sums(mod, 31)
    assert mod.abs_sums[0] == 31


def _count_transforms(monkeypatch):
    calls = []
    fft = charsum.all_char_sums_fft

    def counting(mod, x):
        calls.append((mod.q, x))
        return fft(mod, x)

    monkeypatch.setattr(charsum, "all_char_sums_fft", counting)
    return calls


def test_abs_char_sums_one_slot_per_floor_x(monkeypatch):
    mod = build_modulus(101)
    calls = _count_transforms(monkeypatch)
    first = abs_char_sums(mod, 30)
    assert abs_char_sums(mod, 30.7) is first  # same floor(x), same slot
    assert len(calls) == 1 and mod.abs_sums[0] == 30
    other = abs_char_sums(mod, 31)
    assert len(calls) == 2 and mod.abs_sums[0] == 31 and mod.abs_sums[1] is other
    assert abs_char_sums(mod, 30) is not first  # evicted: one floor(x) at a time
    assert len(calls) == 3
    # x = q and x = q - 1 fold the same residues, so they share the slot
    abs_char_sums(mod, 100)
    abs_char_sums(mod, 101)
    assert len(calls) == 4
