"""verify as a property: the proxy and holder suites pass every check at every
prime modulus from 37 (the holder suite's smallest, x 2^4 < q at x = 2) up to
a few thousand, for any seed."""
import pytest

from charmoments import primes, verify

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODULI = primes.primes_in(36, 5000).tolist()


@hypothesis.settings(derandomize=True, max_examples=20, deadline=None, database=None)
@hypothesis.given(st.sampled_from(MODULI), st.integers(min_value=0, max_value=2**32 - 1))
def test_proxy_and_holder_pass_at_every_prime(q, seed):
    for suite in ("proxy", "holder"):
        failed = [r.name for r in verify.run_suite(suite, q, seed) if not r.passed]
        assert failed == [], (suite, q, seed)
