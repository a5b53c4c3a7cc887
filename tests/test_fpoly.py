"""Exact symbolic route: polynomials in a random multiplicative f."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import rmf
from charmoments.fpoly import FPoly


def test_expectation_diagonal_only():
    # E f(n) conj(f(m)) = 1(n = m) for Steinhaus f
    p = FPoly.var(2, 1.0) * FPoly.var(3, 1.0).conj()
    assert p.expectation() == 0
    q = FPoly.var(6, 2.0) * FPoly.var(6, 3.0).conj()
    assert q.expectation() == pytest.approx(6.0)


def test_product_multiplies_indices():
    p = FPoly.var(2, 1.0) * FPoly.var(3, 1.0)
    ((nm, coeff),) = list(p.terms.items())
    assert nm == (6, 1)
    assert coeff == pytest.approx(1.0)


def test_abs2_expectation_counts_energy():
    # |f(1)+f(2)+f(3)+f(4)|^2 -> diagonal count 4
    s = FPoly.const(1.0) + FPoly.var(2, 1.0) + FPoly.var(3, 1.0) + FPoly.var(4, 1.0)
    assert s.abs2().expectation() == pytest.approx(4.0)


def test_fourth_moment_via_power():
    # E |f(1)+f(2)|^4 = 6 and |f(1)+f(2)+f(3)|^4 = 15
    s2 = FPoly.const(1.0) + FPoly.var(2, 1.0)
    assert (s2.abs2().power(2)).expectation() == pytest.approx(6.0)
    s3 = s2 + FPoly.var(3, 1.0)
    assert (s3.abs2().power(2)).expectation() == pytest.approx(15.0)


def test_real_part_halves():
    p = FPoly.var(5, 2.0)
    r = p.real_part()
    # (2 f(5) + 2 conj f(5))/2: expectation of r*conj(r) = |coef|^2 * 2 / ...
    assert (r * r.conj()).expectation() == pytest.approx(2.0)


def test_addition_collects_terms():
    p = FPoly.var(7, 1.5) + FPoly.var(7, 0.5)
    ((_, coeff),) = list(p.terms.items())
    assert coeff == pytest.approx(2.0)


def test_sub_cancels():
    p = FPoly.var(7, 1.0) - FPoly.var(7, 1.0)
    assert p.expectation() == 0
    assert (p.abs2()).expectation() == pytest.approx(0.0)


def test_scalar_multiplication():
    p = FPoly.var(3, 1.0) * 4.0
    assert (p * p.conj()).expectation() == pytest.approx(16.0)


def test_power_zero_is_one():
    p = FPoly.var(2, 3.0)
    assert p.power(0).expectation() == pytest.approx(1.0)


@settings(derandomize=True, max_examples=12, database=None, deadline=None)
@given(kx=st.one_of(st.tuples(st.just(2), st.integers(1, 40)),
                    st.tuples(st.just(3), st.integers(1, 12))))
def test_moment_expectation_matches_tuple_count(kx):
    # E (S conj S)^k with S = sum_{n <= x} f(n) is the 2k-tuple count that
    # exact_moment_2k takes from product histograms: two independent routes
    k, x = kx
    s = FPoly({(n, 1): 1.0 + 0j for n in range(1, x + 1)})
    assert s.abs2().power(k).expectation() == rmf.exact_moment_2k(x, k)
