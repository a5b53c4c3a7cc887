"""The proxy surrogate and truncation bounds are one elementwise code path:
an array input gives, bit for bit, what each of its elements gives alone."""
import math

import numpy as np
import pytest

from charmoments import proxy

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
