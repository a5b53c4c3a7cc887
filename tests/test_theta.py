import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import errors, rmf, theta
from charmoments.errors import OutOfRange, QuadratureFailure, TooLarge
from charmoments.modarith import build_modulus


@pytest.fixture(scope="module")
def mod13():
    return build_modulus(13)


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


def test_truncation_point():
    assert theta.truncation_point(101) == pytest.approx(
        math.sqrt(101) * math.log(101) ** 2)


def test_all_vs_naive(mod13, mod101):
    for mod in (mod13, mod101):
        vals = theta.theta_all(mod)
        for a in range(min(12, mod.q - 1)):
            direct = theta.theta_naive(mod, a)
            assert abs(vals[a].value - direct) < 1e-10
            assert vals[a].kappa == a % 2


def test_principal_value_real(mod101):
    v0 = theta.theta_all(mod101)[0].value
    assert v0.imag == pytest.approx(0.0, abs=1e-12)
    assert v0.real > 0


def test_conjugation_symmetry(mod101):
    vals = theta.theta_all(mod101)
    q1 = mod101.q - 1
    for a in range(1, q1):
        other = vals[(q1 - a) % q1].value
        assert abs(other - vals[a].value.conjugate()) < 1e-10


def test_tail_bound_certificate(mod13):
    # truncating earlier must stay within the recorded majorant of the full value
    full = theta.theta_naive(mod13, 2, trunc=200.0)
    short = theta.theta_all(mod13, trunc=9.0)[2]
    assert abs(short.value - full) <= short.tail_bound + 1e-12
    assert short.tail_bound <= 13 * math.exp(-math.pi * 81.0 / 13.0) + 1e-15


def test_moment_k0_counts(mod101):
    even = theta.theta_moment(mod101, 0.0, "even")
    odd = theta.theta_moment(mod101, 0.0, "odd")
    q = 101
    assert even.value == pytest.approx(((q - 3) / 2) / (q - 1))
    assert odd.value == pytest.approx(((q - 1) / 2) / (q - 1))
    assert even.trials == (q - 3) // 2


def test_moment_oracle_small_q():
    for q in (11, 13, 101):
        mod = build_modulus(q)
        dft = theta.theta_moment(mod, 1.0, "even").value
        oracle = theta.even_theta_second_moment_oracle(mod)
        assert dft == pytest.approx(oracle, rel=1e-12)


def test_even_orthogonality_identity():
    mod = build_modulus(7)
    # 2 = -5 (mod 7): indicator fires
    assert theta.even_char_orthogonality(mod, 2, 5) == pytest.approx(1.0)
    assert theta.even_char_orthogonality(mod, 2, 2) == pytest.approx(1.0)
    assert theta.even_char_orthogonality(mod, 2, 3) == pytest.approx(0.0, abs=1e-12)
    assert theta.even_char_orthogonality(mod, 7, 3) == 0.0


def test_even_orthogonality_random_pairs(mod101):
    rng = np.random.default_rng(6)
    for n, m in rng.integers(1, 101, size=(50, 2)):
        got = theta.even_char_orthogonality(mod101, int(n), int(m))
        want = 1.0 if (n - m) % 101 == 0 or (n + m) % 101 == 0 else 0.0
        assert got == pytest.approx(want, abs=1e-10)


def test_odd_scales_above_even():
    # odd thetas carry the extra factor n ~ sqrt(q); their moment sits well above
    ratios = []
    for q in (101, 499, 1009):
        mod = build_modulus(q)
        even = theta.theta_moment(mod, 1.0, "even").value
        odd = theta.theta_moment(mod, 1.0, "odd").value
        ratios.append(odd / even)
    assert ratios[0] > 3.0
    assert ratios[1] > ratios[0]  # growing with q
    assert ratios[2] > ratios[1]


def test_parity_validation(mod13):
    with pytest.raises(OutOfRange, match="parity must be 'even' or 'odd'"):
        theta.theta_moment(mod13, 1.0, "both")


def test_mellin_single_term():
    s = rmf.sample(1, 10)
    for sv in (0.5, 1.0, 2.0):
        numeric, closed = theta.mellin_transform_check(1.0, sv, s)
        from scipy import special
        want = special.gamma(sv / 2.0) / (2.0 * math.pi ** (sv / 2.0))
        assert closed == pytest.approx(want, rel=1e-12)
        assert abs(numeric - closed) < 1e-8


def test_mellin_smooth_product():
    # y=2: numeric transform of the 2-smooth sum matches the one-factor product
    s = rmf.sample(9, 10)
    numeric, closed = theta.mellin_transform_check(2.0, 1.5, s, smooth_cap=10**7)
    assert abs(numeric - closed) < 1e-6 * abs(closed)


def _mellin_whole_sum(ms, cs, s):
    """The trapezoid rule in w = log v with every smooth term at every node (reference).

    The upper end leaves the tail of all ms.size terms at _MELLIN_TOL * 1e-6.
    """
    lo, step = -3.0, theta._MELLIN_STEP
    n = math.ceil((math.log(1e6 * ms.size / (s * theta._MELLIN_TOL)) / s - lo) / step)

    def node_sum(step, offset, nodes):
        w = lo + step * (np.arange(nodes) + offset)
        terms = np.exp(-math.pi * np.multiply.outer(np.exp(-2.0 * w), ms.astype(np.float64) ** 2))
        return np.exp(-s * w) @ terms @ cs

    est = step * node_sum(step, 0.0, n + 1)
    for _ in range(theta._MELLIN_HALVINGS):
        prev, est = est, 0.5 * (est + step * node_sum(step, 0.5, n))
        step, n = 0.5 * step, 2 * n
        if abs(est - prev) <= theta._MELLIN_TOL * max(1.0, abs(est)):
            return est
    raise AssertionError("the reference rule did not converge")


@pytest.mark.parametrize("y", [2, 3, 5])
@pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
def test_mellin_rule_matches_enumerated_terms(y, s):
    # one quadrature times the Dirichlet sum equals the quadrature of the
    # whole smooth sum, since term m is term 1 at v/m
    sample = rmf.sample(9, 10)
    cap = 10**4
    numeric, _ = theta.mellin_transform_check(float(y), s, sample, smooth_cap=cap)
    want = _mellin_whole_sum(*theta._smooth_values(sample, y, cap), s)
    assert abs(numeric - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
def test_mellin_peak_memory_within_charge(monkeypatch, s):
    # with every difference read as nan no two estimates agree, so every
    # halving runs, the last on the nodes the charge is for
    monkeypatch.setattr(theta, "abs", lambda z: math.nan, raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureFailure):
            theta._mellin_unit(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", peak - 1)
    with pytest.raises(TooLarge):
        theta._mellin_unit(s)


def test_mellin_product_reads_fp_without_a_table():
    # the closed form reads f(p) at the one prime p <= 2 alone, not a table
    # of the sample's 78,498 primes (7.3 MiB), nor a list of them
    sample = rmf.sample(1, 10**6)
    tracemalloc.start()
    try:
        theta.mellin_transform_check(2.0, 1.5, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mellin_refuses_s_outside_the_half_line():
    sample = rmf.sample(1, 10)
    for s in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(OutOfRange, match="0 < s < inf"):
            theta.mellin_transform_check(1.0, s, sample)


def test_smooth_values_match_factorisation():
    s = rmf.sample(3, 2000)
    ms, vals = theta._smooth_values(s, 7, 2000)
    assert ms.size == 187  # 7-smooth integers up to 2000
    for m, v in zip(ms.tolist(), vals):
        assert v == pytest.approx(rmf.value_at(s, m), abs=1e-13)


@given(seed=st.integers(0, 2**32), y=st.integers(1, 13), cap=st.integers(0, 10**4))
@settings(derandomize=True, max_examples=25, database=None, deadline=None)
def test_smooth_values_match_trial_division(seed, y, cap):
    sample = rmf.sample(seed, 10**4)
    small = [p for p in (2, 3, 5, 7, 11, 13) if p <= y]

    def rough_part(m):
        for p in small:
            while m % p == 0:
                m //= p
        return m

    ms, vals = theta._smooth_values(sample, y, cap)
    assert ms.tolist() == [m for m in range(1, cap + 1) if rough_part(m) == 1]
    for m, v in zip(ms.tolist(), vals):
        assert abs(v - rmf.value_at(sample, m)) <= 1e-13


def test_smooth_values():
    ms, _ = theta._smooth_values(rmf.sample(1, 10), 3, 50)
    assert ms.tolist() == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48]
    assert theta._smooth_values(rmf.sample(1, 10), 1, 10)[0].tolist() == [1]


def test_smooth_values_refuses_before_building(monkeypatch):
    # one more than the 15 3-smooth integers up to 50 is refused; and 7-smooth
    # integers up to 10^12 number 14,672, but no array joined on the way may
    # pass a cap of 100
    monkeypatch.setattr(theta, "_SMOOTH_COUNT_CAP", 14)
    with pytest.raises(TooLarge):
        theta._smooth_values(rmf.sample(1, 10), 3, 50)
    sizes = []
    concatenate = np.concatenate
    monkeypatch.setattr(theta.np, "concatenate",
                        lambda parts: sizes.append(sum(a.size for a in parts)) or concatenate(parts))
    monkeypatch.setattr(theta, "_SMOOTH_COUNT_CAP", 100)
    with pytest.raises(TooLarge):
        theta._smooth_values(rmf.sample(1, 10), 7, 10**12)
    assert sizes and max(sizes) <= 100


def test_mellin_refuses_y_beyond_sample():
    # f is drawn only up to the sample limit: refuse, not KeyError or f(p) = 1
    with pytest.raises(OutOfRange):
        theta.mellin_transform_check(20.0, 1.0, rmf.sample(1, 10), smooth_cap=10**4)


@pytest.mark.parametrize("y, s, cap, error, name", [
    (1.0, 1e-300, 10**12, TooLarge, "s = 1e-300"),   # an infinite node count
    (1.0, 1e-320, 10**12, TooLarge, "s = 1e-320"),   # s * tol underflows to 0
    (math.nan, 1.0, 10**12, OutOfRange, "y = nan"),
    (0.5, 1.0, 10**12, OutOfRange, "y = 0.5"),
    (1.0, 1.0, 10**19, OutOfRange, r"smooth_cap = 1\.000e\+19 must"),
])
def test_mellin_refuses_with_package_errors(y, s, cap, error, name):
    with pytest.raises(error, match=name):
        theta.mellin_transform_check(y, s, rmf.sample(1, 10), smooth_cap=cap)


def test_mellin_smooth_count_cap(monkeypatch):
    monkeypatch.setattr(theta, "_SMOOTH_COUNT_CAP", 20)
    with pytest.raises(TooLarge):
        theta.mellin_transform_check(7.0, 1.0, rmf.sample(1, 10))


@pytest.mark.parametrize("q", [3, 13, 101])
def test_parity_moment_matches_full_table(q):
    mod = build_modulus(q)
    table = theta.theta_all(mod)
    entries = [table[a] for a in range(1, q - 1)]  # principal a = 0 left out
    for parity, kappa in (("even", 0), ("odd", 1)):
        sel = np.array([t.value for t in entries if t.kappa == kappa])
        for k in (0.0, 1.0, 2.0):
            got = theta.theta_moment(mod, k, parity)
            want = float((np.abs(sel) ** (2 * k)).sum()) / (q - 1)
            assert got.value == pytest.approx(want, rel=1e-12)
            assert got.trials == sel.size
    assert theta.theta_moment(mod, 1.0, "odd").trials == (q - 1) // 2


def test_table_entries_carry_certificates(mod13):
    trunc = 9.0
    table = theta.theta_all(mod13, trunc=trunc)
    tail = math.exp(-math.pi * trunc**2 / 13)
    for a in range(12):
        entry = table[a]
        assert entry.a == a
        assert entry.kappa == a % 2
        assert entry.value == pytest.approx(theta.theta_naive(mod13, a, trunc=trunc),
                                            abs=1e-12)
        assert entry.truncation_point == trunc
        assert entry.tail_bound == pytest.approx(13 ** (1 + a % 2) * tail, rel=1e-15)
    assert table[-1].a == 11
    with pytest.raises(IndexError):
        table[12]
