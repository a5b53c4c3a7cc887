import math

import numpy as np
import pytest

from charmoments import primes, proxy, rmf
from charmoments.errors import OutOfRange
from charmoments.modarith import build_modulus


def test_paper_profile_frozen_chain():
    # log y = 400: bracket picks M = 3; depths 15, 3, 2; windows 20:1 nested
    p = proxy.paper_params(log_x=1.6e8, k=2.0, c0=4e5)
    assert p.m_count == 3
    assert [lv.log_hi for lv in p.levels] == pytest.approx([1.0, 20.0, 400.0])
    assert tuple(lv.j for lv in p.levels) == (15, 3, 2)
    assert p.levels[0].log_lo == 0.0
    assert p.levels[1].log_lo == pytest.approx(1.0)


def test_paper_profile_length_constraint():
    # log y = 400 chain needs budget 2e4*(15+40+400) = 9.1e6 > log x = 4e6
    with pytest.raises(OutOfRange, match="length constraint fails"):
        proxy.paper_params(log_x=4.0e6, k=2.0, c0=1.0e4)


def test_paper_profile_needs_deep_y():
    with pytest.raises(OutOfRange, match="length constraint fails"):
        proxy.paper_params(log_x=100.0, k=2.0, c0=50.0)


def test_paper_profile_shallow_y_has_no_window_count():
    # log y = 1.1: (log log y)^2 = 0.0091, so no 20^(M-1) with M >= 1 lies in its bracket
    with pytest.raises(OutOfRange, match="^window bracket for M is empty at this y$"):
        proxy.paper_params(log_x=1.1e5, k=2.0, c0=1e5)


def test_desk_profile_chain_and_guard():
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1], q=101)
    assert d.m_count == 1
    assert d.poly_length_log() == pytest.approx(4.0 * math.log(2.0))
    # guard: x * y^{4J} = 6*16 = 96 < 101 passes; q=89 fails
    with pytest.raises(OutOfRange, match="weights too long for this modulus"):
        proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1], q=89)


def test_desk_profile_validation():
    with pytest.raises(OutOfRange):
        proxy.desk_params(x=6.0, y=0.9, k=2.0)
    with pytest.raises(OutOfRange):
        proxy.desk_params(x=10.0, y=math.sqrt(10.0), k=1.5)


@pytest.mark.parametrize("windows", [1, 2])
@pytest.mark.parametrize("y", [5, 7, 19, 37, 89, 97, 2**20])
def test_integer_edges_are_exact(y, windows):
    # window m holds the p with p^(20^(M-m)) <= y < p^(20^(M-m+1)), as Python ints;
    # exp(log y) < y at the primes 5, 7, 19, 37 and 89
    d = proxy.desk_params(x=4.0, y=float(y), k=2.0, j_values=[1] * windows)
    ps = primes.primes_up_to(y).tolist()
    for m in range(1, windows + 1):
        e = 20 ** (windows - m)
        want = [p for p in ps if p**e <= y and (m == 1 or p ** (20 * e) > y)]
        got, _, _ = proxy._window_coeffs(d, m, [0])
        assert got.tolist() == want


def test_penalty_exponent():
    d = proxy.desk_params(x=4.0, y=8.0, k=2.5, j_values=[3])
    assert d.penalty_exp(1) == 2 * math.ceil(200 * 2.5 * 3)


def test_shift_range():
    d = proxy.desk_params(x=50.0, y=30.0, k=2.0, j_values=[1])
    lmax = math.floor(math.log(30.0) / 2)
    assert list(d.shift_values()) == list(range(-lmax, lmax + 1))


def _table_cell(params, source, m, shift):
    """D_{m,l}(source) read off poly_table."""
    row = list(params.shift_values()).index(shift)
    return proxy.poly_table(params, [source])[0, row, m - 1]


def test_level_poly_ones_source():
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1])
    v = _table_cell(d, proxy.OnesSource(), 1, 0)
    assert v == pytest.approx(1 / math.sqrt(2) + 0.25, abs=1e-12)


def test_level_poly_shift_phase():
    # y = 8 admits shifts -1..1; at shift l the prime p turns by l log p / log y
    d = proxy.desk_params(x=60.0, y=8.0, k=2.0, j_values=[1])
    v = _table_cell(d, proxy.OnesSource(), 1, 1)
    want = 0j
    for p in (2, 3, 5, 7):
        ph = math.log(p) / math.log(8.0)
        want += p**-0.5 * complex(math.cos(ph), -math.sin(ph)) \
            + 0.5 / p * complex(math.cos(2 * ph), -math.sin(2 * ph))
    assert v == pytest.approx(want, abs=1e-12)


def test_level_poly_window_bounds():
    # a sample source answers only at window primes it covers
    src = proxy.SampleSource(rmf.sample(7, 25))
    for bad in ([2, 4], [23, 29]):  # a composite; a prime above the limit
        with pytest.raises(OutOfRange):
            src.values_at(np.array(bad))


def test_level_poly_all_chars_matches_scalar():
    mod = build_modulus(101)
    d = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[1])
    table = proxy._window_polys_all_chars(mod, d, 1, d.shift_values())
    for a in (0, 1, 50, 99):
        direct = proxy.poly_table(d, [proxy.CharSource(mod, a)])[0, :, 0]
        assert table[:, a] == pytest.approx(direct, abs=1e-10)


def test_truncated_exp_values():
    assert proxy.truncated_exp(1.0, 1, 1.0) == pytest.approx(2.0)
    assert proxy.truncated_exp(0.5, 3, 2.0) == pytest.approx(1 + 1 + 0.5 + 1 / 6)
    arr = proxy.truncated_exp(np.array([0.0, 1.0]), 2, 1.0)
    assert arr == pytest.approx([1.0, 2.5])


def test_weight_nonnegative_property():
    d = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])
    rng = np.random.default_rng(8)
    for sd in rng.integers(0, 2**62, size=50):
        s = proxy.SampleSource(rmf.sample(int(sd), 25))
        assert proxy.proxy_weight(d, s) >= 0.0


def test_weight_all_chars_matches_scalar():
    mod = build_modulus(101)
    d = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[1])
    table = proxy.proxy_weight_all_chars(mod, d)
    for a in (0, 3, 42):
        direct = proxy.proxy_weight(d, proxy.CharSource(mod, a))
        assert table[a] == pytest.approx(direct, rel=1e-10)


def test_truncated_weight_approaches_exp():
    # deep truncation converges to the untruncated exponential weight
    src = proxy.SampleSource(rmf.sample(12, 25))
    deep = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[40])
    got = proxy.proxy_weight(deep, src)
    want = proxy.exp_weight_total(deep, src)
    assert got == pytest.approx(want, rel=1e-12)


def test_truncation_error_frozen():
    # k=2, J=1, d=1: e^2 - (1+1)^2
    got = proxy.truncation_error_direct(1.0, 2.0, 1)
    assert got == pytest.approx(math.e**2 - 4.0, rel=1e-12)


def test_truncation_error_series_matches_direct():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = float(rng.uniform(0.5, 2.5) * rng.choice([-1, 1]))
        k = float(rng.uniform(2.0, 4.0))
        depth = int(rng.integers(1, 5))
        a = proxy.truncation_error_direct(d, k, depth)
        b = proxy.truncation_error_series(d, k, depth)
        assert a == pytest.approx(b, rel=1e-10)


def test_dyadic_bins():
    d = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])
    t0 = 2 / (100.0 * 2.0)
    assert proxy._bin_of(0.0, t0) == 0
    assert proxy._bin_of(t0, t0) == 0          # closed right endpoint of bin 0
    assert proxy._bin_of(t0 * 1.01, t0) == 1
    assert proxy._bin_of(t0 * 2.0, t0) == 1    # bin 1 is (t0, 2 t0]
    assert proxy._bin_of(t0 * 2.01, t0) == 2
    assert proxy._bin_of(t0 * 1000, t0) == 10


def test_poly_table_matches_level_poly():
    # every cell against the definition of D_{m,l}, summed over the window's primes
    d = proxy.desk_params(x=4.0, y=40.0, k=2.0, j_values=[2, 1])
    sample = rmf.sample(7, 45)
    (table,) = proxy.poly_table(d, [proxy.SampleSource(sample)])
    assert table.shape == (d.shift_values().size, 2)
    for i, l in enumerate(d.shift_values()):
        for m, lv in enumerate(d.levels):
            want = 0j
            for p, f in zip(sample.primes.tolist(), sample.fp.tolist()):
                if lv.lo < p <= lv.hi:
                    s = 0.5 + 1j * l / d.log_y
                    want += f / p**s + f * f / (2 * p ** (2 * s))
            assert table[i, m] == pytest.approx(want, abs=1e-12)


def test_poly_table_refuses_no_sources():
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1])
    for call in (proxy.poly_table, proxy.subadditivity_split):
        with pytest.raises(OutOfRange, match="need at least one source"):
            call(d, [])


def test_surrogate_dominates_on_grid():
    # R^{1/(k-1)} <= (1 + c e^{-J}) U with c far below the calibrated ceiling
    worst = 0.0
    for k in (2.0, 2.5, 3.0):
        for j in (1, 2, 3):
            a = 2 * math.ceil(200.0 * k * j)
            t0 = j / (100.0 * k)
            for mag in np.geomspace(1e-3 * t0, 150.0 * k * j, 40):
                for sign in (1.0, -1.0):
                    d = complex(sign * mag, 0.2 * mag)
                    t = proxy.truncated_exp(d.real, j, k - 1.0)
                    if t == 0.0:
                        continue
                    log_lhs = 2.0 * math.log(abs(t)) / (k - 1.0)
                    log_u = proxy.surrogate_log_at(d, k, j, a)
                    worst = max(worst, (math.exp(log_lhs - log_u) - 1.0) * math.exp(j))
    assert worst <= 8.0


def test_surrogate_branch_structure():
    # bin 0 at k=2 reproduces the level factor exactly
    k, j = 2.0, 2
    a = 2 * math.ceil(200.0 * k * j)
    d = complex(0.005, 0.0)
    log_u = proxy.surrogate_log_at(d, k, j, a)
    t = proxy.truncated_exp(d.real, j, 1.0)
    assert log_u == pytest.approx(2.0 * math.log(t), abs=1e-12)
    # far bin: the lead coefficient switches to the factorial form
    big = complex(100.0 * k * j * 8, 0.0)
    log_far = proxy.surrogate_log_at(big, k, j, a)
    assert math.isfinite(log_far)


def test_subadditivity_equality_at_k2():
    d = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])
    src = proxy.SampleSource(rmf.sample(19, 25))
    [(lhs, rhs)] = proxy.subadditivity_split(d, [src])
    assert lhs == pytest.approx(rhs, rel=1e-12)  # k/(k-1) = 2: both sides square


def test_subadditivity_strict_above_k2():
    d = proxy.desk_params(x=4.0, y=8.0, k=2.5, j_values=[1])
    rng = np.random.default_rng(2)
    sources = [proxy.SampleSource(rmf.sample(int(sd), 10))
               for sd in rng.integers(0, 2**62, size=30)]
    for lhs, rhs in proxy.subadditivity_split(d, sources):
        assert lhs <= rhs * (1 + 1e-12)


def test_fpoly_route_matches_numeric():
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1])
    s = rmf.sample(23, 20)  # symbolic indices reach y^{4J} = 16
    # evaluate the symbolic weight at the sample and compare with the numeric path
    total = 0j
    for (n, m), coeff in proxy.proxy_weight_fpoly(d).terms.items():
        total += coeff * rmf.value_at(s, n) * np.conj(rmf.value_at(s, m))
    want = proxy.proxy_weight(d, proxy.SampleSource(s))
    assert total.imag == pytest.approx(0.0, abs=1e-10)
    assert total.real == pytest.approx(want, rel=1e-10)


def test_fpoly_max_index_respects_length_log():
    d = proxy.desk_params(x=6.0, y=2.0, k=2.0, j_values=[1])
    poly = proxy.proxy_weight_fpoly(d)
    largest = max((max(nm) for nm, c in poly.terms.items() if c != 0), default=1)
    assert largest <= math.exp(d.poly_length_log()) + 1e-9


def test_truncation_error_beyond_the_float_range():
    # exp(2 (k - 1) d) overflows: the direct difference is inf, as exp_weight_total's
    assert proxy.truncation_error_direct(1e300, 2.0, 2) == math.inf
    assert proxy.truncation_error_direct(355.0, 2.0, 2) == math.inf
    assert math.isfinite(proxy.truncation_error_direct(354.0, 2.0, 2))
    with pytest.raises(OutOfRange, match="^d must be finite, got nan$"):
        proxy.truncation_error_direct(math.nan, 2.0, 2)
    with pytest.raises(OutOfRange, match="^d must be finite, got -inf$"):
        proxy.truncation_error_series(-math.inf, 2.0, 2)
    # element by element
    with pytest.raises(OutOfRange, match="^k must be finite, got nan$"):
        proxy.truncation_error_series(np.array([1.0, 0.5]), np.array([2.0, math.nan]), 2)
    # terms of both signs past the float range have no sum
    with pytest.raises(OutOfRange, match="overflows the float range"):
        proxy.truncation_error_series(-1e200, 3.0, 2)
