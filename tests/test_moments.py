import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import errors, moments, rmf
from charmoments.calibration import Calibration
from charmoments.errors import OutOfRange, TooLarge
from charmoments.modarith import build_modulus
from charmoments.primes import primes_up_to


@pytest.fixture(scope="module")
def mod11():
    return build_modulus(11)


@pytest.fixture(scope="module")
def mod101():
    return build_modulus(101)


def test_second_moment_closed_form(mod11):
    # floor(x) - floor(x)^2/(q-1)
    est = moments.char_moment(mod11, 5, 1.0)
    assert est.value == pytest.approx(2.5)
    assert est.stderr == 0.0
    assert est.kind == "exact-characters"
    assert moments.second_moment_closed_form(11, 5) == pytest.approx(2.5)
    assert moments.char_moment(mod11, 5.9, 1.0).value == pytest.approx(2.5)


def test_full_period_moment_zero():
    mod = build_modulus(5)
    assert moments.char_moment(mod, 4, 3.0).value == pytest.approx(0.0, abs=1e-20)


def test_x_one_any_k(mod101):
    # every character sum at x=1 is exactly 1; the phi-normalized average
    # still divides the q-2 surviving terms by q-1
    for k in (0.5, 1.0, 2.0, 3.7):
        phi = moments.char_moment(mod101, 1, k).value
        assert phi * 100 / 99 == pytest.approx(1.0)
        assert phi == pytest.approx(99.0 / 100.0)


def test_holder_moment_inequality(mod101):
    # M_2k >= (M_2)^k with both sides normalized by q-2
    for x in (10, 25, 40):
        m2 = moments.char_moment(mod101, x, 1.0).value * 100 / 99
        for k in (2.0, 3.0):
            m2k = moments.char_moment(mod101, x, k).value * 100 / 99
            assert m2k >= m2**k * (1 - 1e-12)


def test_fourth_moment_equals_congruence_energy():
    for q, x in ((11, 7), (101, 30), (499, 40)):
        mod = build_modulus(q)
        lhs = moments.char_moment(mod, x, 2.0, exclude_principal=False).value
        assert lhs == pytest.approx(moments.congruence_energy(q, x), rel=1e-12)


def test_congruence_energy_brute():
    # direct quadruple loop at a tiny size
    q, x = 11, 5
    count = 0
    for a in range(1, x + 1):
        for b in range(1, x + 1):
            for c in range(1, x + 1):
                for d in range(1, x + 1):
                    count += (a * b - c * d) % q == 0
    assert moments.congruence_energy(q, x) == count


def _residue_table_count(q, x):
    # the count from the whole x^2 table of residues n1 n2 mod q
    ns = np.arange(1, x + 1, dtype=np.int64)
    counts = np.bincount((np.multiply.outer(ns, ns) % q).ravel(), minlength=q)
    return int(np.dot(counts, counts))


@settings(derandomize=True, max_examples=80, database=None, deadline=None)
@given(q=st.integers(1, 5000), x=st.floats(0.0, 60.999))
def test_congruence_energy_matches_residue_table(q, x):
    # q <= x^2 folds the pair histogram onto the residues, with a partial last fold
    assert moments.congruence_energy(q, x) == _residue_table_count(q, math.floor(x))


def test_real_k_zero_guard(mod101):
    # k = 0 averages |S|^0 = 1 without log(0) issues
    est = moments.char_moment(mod101, 50, 0.0)
    assert est.value * 100 / 99 == pytest.approx(1.0)


def test_rmf_mc_determinism():
    a = moments.rmf_moment_mc(30.0, 2.0, trials=500, seed=4)
    b = moments.rmf_moment_mc(30.0, 2.0, trials=500, seed=4)
    assert a == b
    c = moments.rmf_moment_mc(30.0, 2.0, trials=500, seed=4, batch=37)
    assert (a.value, a.stderr) == (c.value, c.stderr)


_MC_TRIALS = {30.0: 500, 150.5: 300, 1e5: 40}


@pytest.mark.parametrize("x", sorted(_MC_TRIALS))
@settings(derandomize=True, max_examples=15, database=None, deadline=None)
@given(data=st.data())
def test_rmf_mc_batch_invariant(x, data):
    # any split of the trials into batches gives the same bits as the default split
    batch = data.draw(st.integers(1, _MC_TRIALS[x] + 5), label="batch")
    est = moments.rmf_moment_mc(x, 2.0, trials=_MC_TRIALS[x], seed=6, batch=batch)
    assert est == moments.rmf_moment_mc(x, 2.0, trials=_MC_TRIALS[x], seed=6)


def test_rmf_mc_pinned_bits():
    # exact output: a change to the trial seeds, the generator or the
    # averaging order shows here even when batch invariance still holds
    est = moments.rmf_moment_mc(1e3, 2, trials=300, seed=5)
    assert (est.value.hex(), est.stderr.hex()) == ("0x1.ce45df1cf56dep+22",
                                                   "0x1.3bd163db522e1p+21")


def test_rmf_mc_pinned_bits_across_blocks():
    # x = 10^6 draws f(p) in 40 blocks of 2,000 primes: a lost carry or a
    # misplaced quotient between blocks shows here
    est = moments.rmf_moment_mc(1e6, 2, trials=40, seed=5)
    assert (est.value.hex(), est.stderr.hex()) == ("0x1.9d1900dabd735p+37",
                                                   "0x1.cee26f42c1dc0p+35")


def test_rmf_mc_1e7_runs_under_a_32_mib_cap(monkeypatch):
    # 16 rows at x = 10^7 hold about 10 MB; the whole-row route charged them
    # 300 MB and refused them under this cap
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", 32 << 20)
    est = moments.rmf_moment_mc(1e7, 2, trials=16, seed=3, batch=16)
    assert est == moments.rmf_moment_mc(1e7, 2, trials=16, seed=3, batch=5, threads=1)
    assert math.isfinite(est.value) and est.value > 0


def test_rmf_mc_second_moment():
    est = moments.rmf_moment_mc(100.0, 1.0, trials=3000, seed=1)
    assert abs(est.value - 100.0) < 3 * est.stderr
    assert est.kind == "mc-rmf"
    assert est.trials == 3000


def test_shape_fit_planted_exponent():
    k = 2.0
    xs = np.array([100.0, 1000.0, 10000.0, 100000.0, 1e6])
    ms = xs**k * np.log(xs) ** 4
    fit = moments.shape_fit(list(zip(xs, ms)), k)
    assert fit.exponent == pytest.approx(4.0, abs=1e-6)
    assert fit.residual < 1e-12


def test_shape_fit_constant_data():
    xs = [100.0, 1000.0, 10000.0, 100000.0]
    fit = moments.shape_fit([(x, x**2) for x in xs], 2.0)
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)


def test_shape_fit_degenerate():
    with pytest.raises(OutOfRange, match="scales must be distinct"):
        moments.shape_fit([(10.0, 1.0), (10.0, 2.0), (20.0, 1.0), (20.0, 2.0)], 1.0)
    with pytest.raises(OutOfRange, match="need at least 4 points"):
        moments.shape_fit([(10.0, 1.0), (20.0, 2.0), (30.0, 1.5)], 1.0)  # < 4 points


@pytest.mark.parametrize("q", [2, 3, 5, 7, 101])
def test_half_spectrum_moment_matches_full_sum(q):
    mod = build_modulus(q)
    for x in range(1, q + 1):
        ns = np.arange(1, min(x, q - 1) + 1)
        sums = np.array([mod.char_values(a, ns).sum() for a in range(q - 1)])
        for k in (0.0, 1.0, 2.0):
            powers = np.abs(sums) ** (2 * k)
            for exclude in (True, False):
                want = powers[1:].sum() if exclude else powers.sum()
                got = moments.char_moment(mod, x, k, exclude_principal=exclude)
                assert got.value == pytest.approx(want / (q - 1), rel=1e-12,
                                                  abs=1e-12 * x ** k)
                assert got.trials == (q - 2 if exclude else q - 1)


def test_congruence_energy_refuses_huge_table():
    with pytest.raises(TooLarge):
        moments.congruence_energy(1_000_003, 1e5)


@pytest.mark.parametrize("x, trials, batch", [
    (1e5, 150, 59), (1e3, 3000, 474), (100.0, 20_000, 1985),  # rows within 4 MiB
    (150.0, 20_000, 1588),
    (50.0, 20_000, 2962),  # 4 MiB // 1,416 B
    (1e7, 40, 16),  # the 16-row floor, charged about 10 MB
])
def test_rmf_mc_default_batch_fits_cap(monkeypatch, x, trials, batch):
    # batch counts the rows in flight; each of the workers holds
    # batch // workers of them
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    seen = []

    def fake_batch(chunk, x):
        seen.append(len(chunk))
        return np.zeros(len(chunk), dtype=np.complex128)

    monkeypatch.setattr(rmf, "partial_sums_batch", fake_batch)
    for threads in (1, 2):
        seen.clear()
        moments.rmf_moment_mc(x, 2.0, trials=trials, seed=1, threads=threads)
        assert seen[0] == batch // threads and sum(seen) == trials
        assert rmf.batch_nbytes(max(seen) * threads, x) <= errors.DEFAULT_MEMORY_CAP


@pytest.mark.parametrize("threads", [2, 3])
def test_rmf_mc_thread_invariant(monkeypatch, threads):
    # more workers than this machine may have CPUs, switching often: a lost or
    # misplaced chunk write would change the bits
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 3)
    want = moments.rmf_moment_mc(150.5, 2.0, trials=300, seed=6, batch=40, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = moments.rmf_moment_mc(150.5, 2.0, trials=300, seed=6, batch=40,
                                    threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.fixture(scope="module")
def mod1000003():
    return build_modulus(1_000_003)


# float.hex of char_moment(...).value, recorded before the magnitude memo existed
_MOMENT_PINS = [
    (1_000_003, 505_912, 1, True, "0x1.e836c7b2f55f8p+17"),
    (1_000_003, 505_912, 1, False, "0x1.ee0e000000000p+18"),
    (1_000_003, 505_912, 2, True, "0x1.4632e78764d70p+37"),
    (1_000_003, 505_912, 2, False, "0x1.d177f8491b83dp+55"),
    (101, 30, 0, True, "0x1.fae147ae147aep-1"),
    (101, 30, 0, False, "0x1.0000000000000p+0"),
    (101, 30, 0.5, True, "0x1.0678f168b9895p+2"),
    (101, 30, 0.5, False, "0x1.19ac249becbc9p+2"),
    (101, 30, 3, True, "0x1.b66bfffffffffp+15"),
    (101, 30, 3, False, "0x1.c05f180000001p+22"),
]


@pytest.mark.parametrize("q, x, k, exclude, pin", _MOMENT_PINS)
def test_char_moment_pinned_bits(request, mod101, q, x, k, exclude, pin):
    mod = mod101 if q == 101 else request.getfixturevalue("mod1000003")
    assert moments.char_moment(mod, x, k, exclude_principal=exclude).value.hex() == pin


_PRIMES_TO_2000 = [int(p) for p in primes_up_to(2000)]


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(q=st.sampled_from(_PRIMES_TO_2000), frac=st.floats(0.0, 1.0))
def test_fourth_moment_three_routes(q, frac):
    # char_moment divides by q - 1, so its all-character k = 2 value is the count itself
    x = 1.0 + frac * (min(q - 1, 40) - 1)
    tol = Calibration().orthogonality_tol
    lhs = moments.char_moment(build_modulus(q), x, 2.0, exclude_principal=False).value
    count = moments.congruence_energy(q, x)
    assert abs(lhs - count) <= tol * count
    if q > x * x:
        # at q > x^2, n1 n2 = n3 n4 (mod q) forces n1 n2 = n3 n4.  Writing
        # n1 = g a, n3 = g c with a, c coprime gives n2 = c t, n4 = a t, so the
        # count is sum over coprime a, c of floor(x / max(a, c))^2.  max(a, c) = m
        # for 2 phi(m) pairs (one at m = 1):
        # E|S|^4 = 2 sum_{m <= x} phi(m) floor(x/m)^2 - floor(x)^2, with no histogram
        xf = math.floor(x)
        phi = list(range(xf + 1))
        for p in range(2, xf + 1):
            if phi[p] == p:  # untouched so far: p is prime
                for m in range(p, xf + 1, p):
                    phi[m] -= phi[m] // p
        totient_route = 2 * sum(phi[m] * (xf // m) ** 2 for m in range(1, xf + 1)) - xf * xf
        assert count == rmf.exact_moment_2k(x, 2) == totient_route
        assert abs(lhs - count) <= tol * count


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_shape_fit_refuses_a_non_finite_scale(capfd, bad):
    with pytest.raises(errors.OutOfRange, match=f"^scale must be finite, got {bad}$"):
        moments.shape_fit([(bad, 1.0), (10.0, 2.0), (20.0, 3.0), (30.0, 4.0)], 2.0)
    assert capfd.readouterr().err == ""  # LAPACK never saw it
