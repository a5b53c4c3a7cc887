"""verify as a property: the full suite passes every check at every prime
modulus from 37 (verify.MIN_Q's largest, the holder suite's) up to a few
thousand, for any seed."""
import pytest

from charmoments import primes, verify

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODULI = primes.primes_in(36, 5000).tolist()


@hypothesis.settings(derandomize=True, max_examples=20, deadline=None, database=None)
@hypothesis.given(st.sampled_from(MODULI), st.integers(min_value=0, max_value=2**32 - 1))
def test_full_passes_at_every_prime(q, seed):
    failed = [r.name for r in verify.run_suite("full", q, seed) if not r.passed]
    assert failed == [], (q, seed)
