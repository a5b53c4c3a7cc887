"""The proxy surrogate and truncation bounds are one elementwise code path, and
the window tables one stacked code path: an array input, or a stack of sources,
gives bit for bit what each of its elements gives alone."""
import math

import numpy as np
import pytest

from charmoments import proxy, rmf
from charmoments.modarith import build_modulus

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_REAL = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def _cells(draw):
    """(k, j, Re d, Im d) with some Re d exactly on the bin edges t0 2^n."""
    k = draw(st.floats(min_value=2.0, max_value=4.0))
    j = draw(st.integers(min_value=1, max_value=5))
    t0 = j / (100.0 * k)
    edges = [s * t0 * 2.0**n for n in range(20) for s in (1.0, -1.0)]
    re = draw(st.lists(st.one_of(_REAL, st.sampled_from(edges)), min_size=1, max_size=30))
    im = draw(st.lists(_REAL, min_size=len(re), max_size=len(re)))
    return k, j, np.array(re), np.array(im)


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(_cells())
def test_array_equals_per_element(cell):
    k, j, re, im = cell
    t0 = j / (100.0 * k)
    a = 2 * math.ceil(200.0 * k * j)
    d = re + 1j * im
    assert _bits(proxy.truncated_exp(re, j, k - 1.0)) == \
        _bits([proxy.truncated_exp(float(r), j, k - 1.0) for r in re])
    assert proxy._bin_of(np.abs(re), t0).tolist() == \
        [int(proxy._bin_of(abs(float(r)), t0)) for r in re]
    assert _bits(proxy.surrogate_log_at(d, k, j, a)) == \
        _bits([proxy.surrogate_log_at(complex(z), k, j, a) for z in d])


@pytest.mark.parametrize("k, j", [(2.0, 1), (2.5, 3), (3.0, 4)])
def test_bin_edges_close_on_the_right(k, j):
    # bin n is (t0 2^{n-1}, t0 2^n]: the edge itself belongs to bin n
    t0 = j / (100.0 * k)
    edges = t0 * 2.0 ** np.arange(40)
    assert proxy._bin_of(edges, t0).tolist() == list(range(40))
    assert proxy._bin_of(np.nextafter(edges, np.inf), t0).tolist() == list(range(1, 41))


# ---------------------------------------------------------------------------
# stacked sources and the elementwise truncation series

MOD = build_modulus(101)


def _cbits(values):
    values = np.asarray(values)
    return _bits(values.real) + _bits(values.imag)


def _one_source_table(params, source):
    """D_{m,l}(source) window by window for one source: the reference for the stack."""
    shifts = params.shift_values()
    cols = []
    for m in range(1, params.m_count + 1):
        ps, first, second = proxy._window_coeffs(params, m, shifts)
        sv = source.values_at(ps)
        cols.append((first * sv + second * (sv * sv)).sum(axis=-1))
    return np.stack(cols, axis=1)


def _one_source_split(params, source):
    table = proxy.level_factors(params, _one_source_table(params, source))
    full = table.prod(axis=1)
    frac = (table ** (1.0 / (params.k - 1.0))).prod(axis=1)
    return (float(full.sum() ** (params.k / (params.k - 1.0))),
            float(full.sum() * frac.sum()))


@st.composite
def _stacks(draw):
    """Desk parameters with one or two windows and a mixed stack of sources; y = 3000
    gives 9 shifts and 430 primes, past the blocks of numpy's pairwise sums."""
    y = draw(st.sampled_from([2.0, 8.0, 20.0, 40.0, 300.0, 3000.0]))
    js = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    k = draw(st.floats(min_value=2.0, max_value=4.0))
    params = proxy.desk_params(x=4.0, y=y, k=k, j_values=js)
    source = st.one_of(
        st.integers(min_value=0, max_value=2**62).map(
            lambda s: proxy.SampleSource(rmf.sample(s, 3000))),
        st.integers(min_value=1, max_value=99).map(lambda a: proxy.CharSource(MOD, a)),
        st.just(proxy.OnesSource()))
    return params, draw(st.lists(source, min_size=1, max_size=8))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
@hypothesis.given(_stacks())
def test_stacked_sources_equal_one_at_a_time(case):
    params, sources = case
    table = proxy.poly_table(params, sources)
    splits = proxy.subadditivity_split(params, sources)
    assert table.shape == (len(sources), params.shift_values().size, params.m_count)
    for source, row, split in zip(sources, table, splits):
        assert _cbits(row) == _cbits(proxy.poly_table(params, [source])[0]) \
            == _cbits(_one_source_table(params, source))
        assert _bits(split) == _bits(proxy.subadditivity_split(params, [source])[0]) \
            == _bits(_one_source_split(params, source))


def _series_reference(d, k, depth, extra=60):
    """One fsum over every product c_i c_j with max(i, j) > depth, each pair twice."""
    cap = depth + extra
    c = np.empty(cap + 1)
    c[0] = 1.0
    for j in range(1, cap + 1):
        c[j] = c[j - 1] * ((k - 1.0) * d) / j
    idx = np.arange(cap + 1)
    return math.fsum(np.multiply.outer(c, c)[np.maximum.outer(idx, idx) > depth].tolist())


@st.composite
def _series_cells(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ds = draw(st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=n, max_size=n))
    ks = draw(st.lists(st.floats(min_value=2.0, max_value=4.0), min_size=n, max_size=n))
    depths = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    return np.array(ds), np.array(ks), np.array(depths)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
@hypothesis.given(_series_cells())
def test_series_array_equals_per_element(cells):
    ds, ks, depths = cells
    got = proxy.truncation_error_series(ds, ks, depths)
    cells = list(zip(ds.tolist(), ks.tolist(), depths.tolist()))
    assert _bits(got) == _bits([proxy.truncation_error_series(*c) for c in cells]) \
        == _bits([_series_reference(*c) for c in cells])
