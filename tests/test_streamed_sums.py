"""Prime sums and series in bounded memory, with the bits of whole-array sums.

euler's prime sums map their term over blocks of euler._BLOCK primes and hand
math.fsum memoryviews, never lists.  fsum is correctly rounded and the terms
are elementwise, so any block length gives the bits of one fsum over the
whole array: the oracles below are that whole-array sum, written out.
A search of the int64 prime table takes an int bound: a float one makes
numpy copy the whole table to float64 first.
"""
import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from charmoments import euler, primes, proxy, rmf, theta

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "charmoments"
MIB = 1 << 20


def cosine_oracle(t, y):
    ps = primes.primes_up_to(y).astype(np.float64)
    return math.fsum((np.cos(t * np.log(ps)) / ps).tolist())


def exponent_oracle(spec):
    ps = spec.product_primes.astype(np.float64)
    alpha, beta, sigma1, sigma2 = spec.alpha, spec.beta, spec.sigma1, spec.sigma2
    lp = np.log(ps)
    s = (alpha**2 * np.power(ps, -(1.0 + 2.0 * sigma1))
         + beta**2 * np.power(ps, -(1.0 + 2.0 * sigma2))
         + 2.0 * alpha * beta * np.cos((spec.t2 - spec.t1) * lp)
         * np.power(ps, -(1.0 + sigma1 + sigma2)))
    return math.fsum(s.tolist())


def criterion_5_specs():
    """The 20 parameter sets of the acceptance test's criterion 5."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = float(rng.uniform(0.1, 1.4))
        beta = float(rng.uniform(0.1, 1.4))
        z = 200.0 * (1.0 + max(alpha, beta) ** 2)
        yield euler.EulerProductSpec(
            alpha=alpha, beta=beta,
            sigma1=float(rng.uniform(0.0, 0.25)), sigma2=float(rng.uniform(0.0, 0.25)),
            t1=0.0, t2=float(rng.uniform(-8.0, 8.0)), z=z, y=3.0 * z)


def random_specs(count):
    rng = np.random.default_rng(39)
    for _ in range(count):
        alpha, beta = rng.uniform(0.0, 2.0, 2)
        z = 100.0 * (1.0 + max(alpha, beta) ** 2) * rng.uniform(1.0, 3.0)
        yield euler.EulerProductSpec(
            alpha=alpha, beta=beta, sigma1=rng.uniform(0.0, 0.3), sigma2=rng.uniform(0.0, 0.3),
            t1=rng.uniform(-10.0, 10.0), t2=rng.uniform(-10.0, 10.0),
            z=z, y=min(3e6, z * 10 ** rng.uniform(0.1, 4.0)))


def random_points(count):
    rng = np.random.default_rng(5)
    points = [(float(t), float(10 ** rng.uniform(0.31, 6.0))) for t in rng.uniform(-50, 50, count)]
    return points + [(0.0, 3e6), (0.5, 3e6), (1e-3, 2.0)]


@pytest.mark.parametrize("block", [7, euler._BLOCK])
def test_blocked_sums_keep_the_whole_array_bits(monkeypatch, block):
    monkeypatch.setattr(euler, "_BLOCK", block)
    for t, y in random_points(12):
        assert euler.cosine_sum(t, y).value.hex() == cosine_oracle(t, y).hex(), (t, y)
    for spec in (*criterion_5_specs(), *random_specs(12)):
        assert euler.expected_product_exponent(spec).hex() == exponent_oracle(spec).hex(), spec


def test_partial_sum_keeps_its_bits():
    for seed, x, real, imag in ((1, 1000, "0x1.d0f3501d88be5p+3", "-0x1.01ec4160d8380p+1"),
                                (7, 10**5, "0x1.908a0d87ae64dp+7", "-0x1.5a497dbc9d2b6p+7")):
        got = rmf.partial_sum(rmf.sample(seed, x), x)
        assert (got.real.hex(), got.imag.hex()) == (real, imag)


def test_truncation_series_keeps_its_bits():
    got = proxy.truncation_error_series([0.5, -1.25, 2.0, 3.5], [2.0, 3.0, 2.5, 4.0],
                                        [2, 0, 5, 40])
    assert [v.hex() for v in got.tolist()] == ["0x1.3e151628aed2ap-4", "-0x1.fc8cd803fe54fp-1",
                                               "0x1.0379a50059199p+6", "0x1.17c828743f284p-9"]
    assert proxy.truncation_error_series(1.0, 2.0, 2).hex() == "0x1.23992e35376b7p+0"


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a sum over the 664,579 primes below 10^7 holds one block; the series holds
# its c table and one row, not every instance's pair products
@pytest.mark.parametrize("route", ["cosine_sum", "expected_product_exponent",
                                   "truncation_error_series"])
def test_streamed_sum_peak_stays_under_one_mib(route):
    primes.primes_up_to(1e7)  # the shared table is not the sum's
    spec = euler.EulerProductSpec(alpha=1.0, beta=1.0, sigma1=0.05, sigma2=0.1,
                                  t1=0.0, t2=1.0, z=250.0, y=1e7)
    d = np.random.default_rng(3).uniform(-3.0, 3.0, 1000)
    call = {"cosine_sum": lambda: euler.cosine_sum(0.5, 1e7),
            "expected_product_exponent": lambda: euler.expected_product_exponent(spec),
            "truncation_error_series": lambda: proxy.truncation_error_series(d, 2.0, 2)}[route]
    assert _traced_peak(call) <= MIB


def test_mellin_check_peak_stays_under_one_mib():
    sample = rmf.sample(1, 10**7)  # the 664,579 primes and their f(p) are not the check's
    assert _traced_peak(lambda: theta.mellin_transform_check(2.0, 1.5, sample)) <= MIB


def test_prime_table_searches_take_int_bounds(monkeypatch):
    search = np.searchsorted

    def int_bounds_only(table, bound, *args, **kwargs):
        if np.asarray(table).dtype.kind in "iu" and np.asarray(bound).dtype.kind == "f":
            raise AssertionError("a float bound copies the int table to float64")
        return search(table, bound, *args, **kwargs)

    sample = rmf.sample(3, 1000)
    spec = euler.EulerProductSpec(alpha=1.0, beta=1.0, sigma1=0.05, sigma2=0.1,
                                  t1=0.0, t2=1.0, z=250.5, y=1000.5)
    monkeypatch.setattr(np, "searchsorted", int_bounds_only)
    for y in (2.0, 7.5):
        theta.mellin_transform_check(y, 1.5, sample)
    assert spec.product_primes[0] == 251
    assert primes.primes_in(2.5, 30.5).tolist() == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    rmf.value_at(sample, 360)
    rmf.partial_sums_batch(rmf.derive_trial_seeds(3, 4), 1000.5)
    proxy.SampleSource(sample).values_at(np.array([2, 3, 997]))


def _fsum_of_a_list(node):
    """True for a call of fsum (math.fsum or a bare fsum) with an argument ending in .tolist()."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "fsum" and any(
        isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "tolist" for arg in node.args)


def test_no_fsum_is_fed_a_list():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _fsum_of_a_list(node)]
    assert not found, f"fsum over .tolist() at {found}; hand it a memoryview instead"
