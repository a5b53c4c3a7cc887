"""Random multiplicative sampler: determinism, multiplicativity, exact moments."""
import itertools
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import errors, moments, primes, rmf
from charmoments.errors import OutOfRange, TooLarge


def test_unit_modulus():
    s = rmf.sample(1, 500)
    assert np.allclose(np.abs(s.fp), 1.0)


def test_order_and_limit_stability():
    # f(p) depends only on (seed, p): extending the limit changes nothing
    a = rmf.sample(9, 100)
    b = rmf.sample(9, 10000)
    common = a.primes
    idx = np.searchsorted(b.primes, common)
    assert np.array_equal(b.fp[idx], a.fp)


# f(p) for seed 3 at the 25 primes up to 100, as (real, imag) float.hex pairs
SAMPLE3_HEX = [
    ("0x1.4a2ce73d9c85dp-1", "0x1.8750e4a171b36p-1"),
    ("-0x1.51558b7361531p-4", "-0x1.fe42bc0cf1107p-1"),
    ("0x1.61f0894d62718p-2", "-0x1.e0717714198cap-1"),
    ("0x1.ad30500af07a1p-1", "-0x1.172de1e651eecp-1"),
    ("0x1.c09eacf12a232p-1", "0x1.ed7ea3c4600bfp-2"),
    ("0x1.7bde88d96216dp-1", "0x1.57487db24a677p-1"),
    ("-0x1.0265968923a87p-3", "-0x1.fbe88ce157ab4p-1"),
    ("-0x1.d1355e8895e86p-1", "0x1.abab1f99bf668p-2"),
    ("0x1.379f4ccf89c45p-1", "-0x1.963ee5c4759bcp-1"),
    ("0x1.f368dec91e17ap-1", "0x1.c36150ff919e4p-3"),
    ("-0x1.18a33fb4c7b47p-1", "0x1.ac3c8a3c311cep-1"),
    ("0x1.f4fa1d67be404p-1", "-0x1.a6ad86483d091p-3"),
    ("-0x1.cfb59ed707f40p-1", "0x1.b221aa749dc05p-2"),
    ("0x1.f018fc0a59873p-1", "-0x1.fa75054f22c77p-3"),
    ("0x1.8d385806c98cfp-5", "0x1.ff65d2d60d788p-1"),
    ("0x1.5ebb5b481f1a8p-10", "0x1.ffffe1f7b1b31p-1"),
    ("0x1.e4d66eb052b81p-1", "0x1.49193f5f335abp-2"),
    ("0x1.18d8e436210bfp-3", "0x1.fb29b9f1b56a7p-1"),
    ("-0x1.fb2f5cf8f6faap-1", "-0x1.1835d6193a30dp-3"),
    ("-0x1.c2cdbf815dc1ap-1", "-0x1.e5780bef3f94ap-2"),
    ("0x1.eb41ab03c317dp-1", "0x1.208546c4ab8ffp-2"),
    ("-0x1.ed4d5606c793bp-1", "0x1.123462541712dp-2"),
    ("-0x1.42555290ceb32p-1", "0x1.8dccee8704730p-1"),
    ("0x1.62c5f2fea25afp-1", "-0x1.7129409c24cf7p-1"),
    ("-0x1.22c9967765d60p-1", "-0x1.a5690ab844a25p-1"),
]


def test_sample_values_pinned():
    # exact bits: any change to the (seed, p) hash or the angle map shows here
    fp = rmf.sample(3, 100).fp
    assert [(v.real.hex(), v.imag.hex()) for v in fp] == SAMPLE3_HEX


def test_seed_separation():
    a = rmf.sample(1, 200)
    b = rmf.sample(2, 200)
    assert not np.allclose(a.fp, b.fp)


def test_value_at_multiplicative():
    s = rmf.sample(4, 100)
    v = dict(zip(s.primes.tolist(), s.fp.tolist()))
    assert rmf.value_at(s, 12) == pytest.approx(v[2] ** 2 * v[3])
    assert rmf.value_at(s, 1) == 1.0
    assert rmf.value_at(s, 97) == pytest.approx(v[97])


def test_value_at_reads_fp_without_a_table():
    # f(p) comes from fp itself: a table of the 78,498 primes up to 10^6 took 7.3 MiB
    s = rmf.sample(1, 10**6)
    tracemalloc.start()
    try:
        rmf.value_at(s, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_values_upto_matches_value_at():
    s = rmf.sample(11, 300)
    vals = rmf.values_upto(s, 300)
    for n in (1, 2, 60, 128, 299):
        assert vals[n] == pytest.approx(rmf.value_at(s, n), abs=1e-12)


def test_values_upto_limit_guard():
    s = rmf.sample(11, 50)
    with pytest.raises(OutOfRange):
        rmf.values_upto(s, 51)


def test_partial_sum_prefix():
    s = rmf.sample(5, 64)
    vals = rmf.values_upto(s, 64)
    direct = vals[1:33].sum()
    assert rmf.partial_sum(s, 32.0) == pytest.approx(direct, abs=1e-12)
    assert rmf.partial_sum(s, 32.9) == pytest.approx(direct, abs=1e-12)


def test_exact_moment_small_cases():
    # k=1: only the diagonal n=m survives
    assert rmf.exact_moment_2k(7.0, 1) == 7
    assert rmf.exact_moment_2k(7.9, 1) == 7
    # fourth moment: tuples with n1 n2 = m1 m2
    assert rmf.exact_moment_2k(2, 2) == 6
    assert rmf.exact_moment_2k(3, 2) == 15
    # sixth moment over {1,2,3}: sum of squared product multiplicities
    assert rmf.exact_moment_2k(3, 3) == 93


def test_exact_moment_brute_force_oracle():
    # independent re-enumeration with plain Python loops
    x, want = 6, rmf.exact_moment_2k(6, 2)
    count = 0
    for a in range(1, x + 1):
        for b in range(1, x + 1):
            for c in range(1, x + 1):
                for d in range(1, x + 1):
                    count += a * b == c * d
    assert count == want


def test_exact_moment_cap():
    with pytest.raises(TooLarge):
        rmf.exact_moment_2k(10**5, 2)


def _tuple_count(x, k):
    # pairs of k-tuples of n <= x with equal products, by plain enumeration
    c = Counter(math.prod(t) for t in itertools.product(range(1, int(x) + 1), repeat=k))
    return sum(v * v for v in c.values())


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(x=st.floats(1.0, 12.999), k=st.sampled_from([2, 3]))
def test_exact_moment_matches_tuple_enumeration(x, k):
    assert rmf.exact_moment_2k(x, k) == _tuple_count(x, k)


@pytest.mark.parametrize("x, k", [(12, 2), (12, 3)])
def test_exact_moment_refuses_tables_over_lowered_cap(monkeypatch, x, k):
    # the pair histogram, 2 B an entry at k = 2 and 8 B at k = 3, the k = 3
    # window over 0..x^3, and numpy's buffers
    need = (2 * (x * x + 1) if k == 2 else 8 * (x * x + 1 + x**3 + 1)) + errors.NUMPY_BUFFER_BYTES
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", need)
    assert rmf.exact_moment_2k(x, k) == _tuple_count(x, k)  # exactly at the cap
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", need - 1)
    with pytest.raises(TooLarge):
        rmf.exact_moment_2k(x, k)


def _product_table_count(x, k):
    # the count from the whole table of products: bincount of the x^2 products
    # n1 n2, and for k = 3 that histogram added into every n-th entry of a
    # dense x^3 + 1 histogram
    ns = np.arange(1, x + 1, dtype=np.int64)
    counts = np.bincount(np.multiply.outer(ns, ns).ravel())
    if k == 3:
        pairs, counts = counts, np.zeros(x**3 + 1, dtype=np.int64)
        for n in range(1, x + 1):
            counts[: n * (pairs.size - 1) + 1 : n] += pairs
    return int(np.dot(counts, counts))


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(case=st.one_of(st.tuples(st.just(2), st.integers(1, 60)),
                      st.tuples(st.just(3), st.integers(1, 25))),
       window=st.integers(16, 2000))
def test_exact_moment_matches_product_table(case, window):
    # a small window puts window edges inside 0..x^3
    k, x = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmf, "_WINDOW", window)
        assert rmf.exact_moment_2k(x, k) == _product_table_count(x, k)


@pytest.mark.parametrize("x, k, want", [(1000, 2, 7_899_760), (3000, 2, 83_066_592),
                                        (100, 3, 68_077_048), (200, 3, 815_238_056),
                                        (464, 3, 15_900_294_992)])
def test_exact_moment_pins(x, k, want):
    # counts of the product-table route at the benchmark's sizes and beyond,
    # (464, 3) being the largest x the cap admits at k = 3
    assert rmf.exact_moment_2k(x, k) == want


def _divisor_count(m):
    return math.prod(e + 1 for _, e in primes.factorize(m))


def test_pair_counts_fit_uint16():
    # c(m) <= d(m): 73,513,440 has the most divisors of any m <= 10^8, the
    # next highly composite number lying past the cap, and 735,134,400 the
    # most of any m <= 2^30, past which 2 B an entry passes the 2 GiB cap
    assert _divisor_count(73_513_440) == 768 and _divisor_count(110_270_160) == 800
    assert rmf.EXACT_MOMENT_CAP < 110_270_160
    assert _divisor_count(735_134_400) == 1344 and 2**30 < 1_102_701_600
    assert 2 * 2**30 >= errors.DEFAULT_MEMORY_CAP
    assert np.array_equal(rmf.pair_counts(4, np.uint16),
                          [0, 1, 2, 2, 3, 0, 2, 0, 2, 1, 0, 0, 2, 0, 0, 0, 1])


def _charged_and_traced(monkeypatch, module, call):
    # (the bytes module charges, the traced peak of call)
    charges = []
    monkeypatch.setattr(module, "check_bytes", lambda nbytes, what: charges.append(nbytes))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(charges), peak


@pytest.mark.parametrize("x, k", [(1000, 2), (100, 3)])
def test_exact_moment_charge_covers_traced_peak(monkeypatch, x, k):
    charge, peak = _charged_and_traced(monkeypatch, rmf, lambda: rmf.exact_moment_2k(x, k))
    assert peak <= charge <= 4 << 20


@pytest.mark.parametrize("q, x", [(101, 30), (995_329, 1000), (1_000_003, 1000),
                                  (10_000_019, 10)])
def test_congruence_energy_charge_covers_traced_peak(monkeypatch, q, x):
    charge, peak = _charged_and_traced(monkeypatch, moments,
                                       lambda: moments.congruence_energy(q, x))
    assert peak <= charge


def _splitmix(z):
    z = (z + 0x9E3779B97F4A7C15) & rmf._M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & rmf._M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & rmf._M64
    return z ^ (z >> 31)


@settings(derandomize=True, max_examples=30, database=None, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       ps=st.lists(st.integers(2, 10**8), min_size=1, max_size=30))
def test_unit_values_equal_exp_of_angle_bitwise(seeds, ps):
    # the hash in plain Python integers, then exp(1j * angle) as numpy makes it
    angle = np.array([[(_splitmix(_splitmix(s) ^ p) >> 11) * (2.0 * np.pi / (1 << 53))
                       for p in ps] for s in seeds])
    got = rmf.unit_values(np.array(seeds, dtype=np.uint64), np.array(ps))
    assert got.tobytes() == np.exp(1j * angle).tobytes()


def test_trial_seed_derivation_disjoint():
    trials = rmf.derive_trial_seeds(7, 64)
    assert len(set(trials.tolist())) == 64
    again = rmf.derive_trial_seeds(7, 64)
    assert np.array_equal(trials, again)
    # trial streams differ from the base stream
    base = rmf.sample(7, 100)
    child = rmf.sample(int(trials[0]), 100)
    assert not np.allclose(base.fp, child.fp)


def test_mc_estimate_needs_two_trials():
    # a standard error needs two trials, for every caller of the shared MC loop
    with pytest.raises(OutOfRange, match="^trials = 1 must be >= 2$"):
        rmf.mc_estimate(1, 1, 16, lambda: lambda chunk: np.ones(chunk.size), 0, 0)


@pytest.mark.parametrize("batch, threads", [(0, None), (-5, None), (16, 0), (16, -2)])
def test_mc_estimate_refuses_bad_batch_or_threads(monkeypatch, batch, threads):
    # checked before any work: a non-positive batch once averaged an
    # uninitialised array into value=2.6e+303, stderr=inf
    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the batch and threads checks")

    monkeypatch.setattr(rmf, "derive_trial_seeds", no_work)
    with pytest.raises(OutOfRange):
        rmf.mc_estimate(1, 50, batch, no_work, 0, 0, threads)
    with pytest.raises(OutOfRange):
        moments.rmf_moment_mc(100.0, 2.0, trials=50, seed=1, batch=batch, threads=threads)


@pytest.mark.parametrize("trials, batch, threads", [
    (100, 10, 3), (100, 7, 2), (100, 1, 3), (100, 50, None), (37, 100, 3), (2, 2, 3),
    (100, 10, 8),  # never more workers than usable CPUs
])
def test_mc_estimate_rows_in_flight(monkeypatch, trials, batch, threads):
    # three workers, more than some machines have CPUs; each chunk must write
    # its own slice, and the rows alive at once stay within the batch
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 3)
    lock = threading.Lock()
    alive = [0, 0]  # now, peak
    sizes, idents = [], set()

    def per_batch(chunk):
        with lock:
            alive[0] += chunk.size
            alive[1] = max(alive[1], alive[0])
            sizes.append(chunk.size)
            idents.add(threading.get_ident())
        time.sleep(0.001)  # let the chunks overlap
        with lock:
            alive[0] -= chunk.size
        return (chunk % np.uint64(1000)).astype(np.float64)

    got = rmf.mc_estimate(5, trials, batch, lambda: per_batch, 0, 0, threads)
    want = (rmf.derive_trial_seeds(5, trials) % np.uint64(1000)).astype(np.float64)
    assert got == (float(want.mean()), float(want.std(ddof=1) / math.sqrt(trials)))
    # the rule: workers are the least of the CPUs, threads and rows in flight
    workers = min(3 if threads is None else min(threads, 3), batch, trials)
    rows = min(batch, trials) // workers
    assert max(sizes) == rows and len(idents) <= workers
    assert alive[1] <= rows * workers <= batch


@pytest.mark.parametrize("trials, row_bytes, cap_rows, rows", [
    (10**6, 8, None, 524_288),  # 4 MiB of 8 B rows, below the trials
    (5000, 64 << 10, None, 64),  # rows within 4 MiB
    (100, 8, None, 100),  # never more rows than trials
    (5000, 1 << 20, None, 16),  # at least 16 rows
    (5000, 1 << 20, 5, 5),  # never more than the cap admits
])
def test_mc_estimate_default_batch(monkeypatch, trials, row_bytes, cap_rows, rows):
    # one worker, so each chunk holds the whole batch, beside 3 MiB the rows share
    shared = 3 << 20
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 1)
    if cap_rows is not None:
        monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP",
                            cap_rows * row_bytes + shared + rmf.TRIAL_BYTES * trials)
    seen = []

    def per_batch(chunk):
        seen.append(chunk.size)
        return np.zeros(chunk.size)

    rmf.mc_estimate(1, trials, None, lambda: per_batch, row_bytes, shared)
    assert seen[0] == rows and sum(seen) == trials


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(trials=st.integers(2, 10**4), row_bytes=st.integers(0, 2 << 20),
       cpus=st.integers(1, 4), threads=st.one_of(st.none(), st.integers(1, 4)),
       shared=st.integers(0, 1 << 20), worker_bytes=st.integers(0, 1 << 17),
       spare_rows=st.integers(-50, 3000))
def test_mc_estimate_default_plan_property(trials, row_bytes, cpus, threads, shared,
                                           worker_bytes, spare_rows):
    # under a cap with room for about spare_rows rows, the default batch is
    # either refused before anything is built, or covers every trial once
    # within the 4 MiB rule and a run charge the cap admits
    cap = shared + rmf.TRIAL_BYTES * trials + cpus * worker_bytes + spare_rows * row_bytes
    lock = threading.Lock()
    built, sizes, seen, idents, charges = [], [], [], set(), []
    check_bytes = rmf.check_bytes

    def per_batch(chunk):
        with lock:
            sizes.append(chunk.size)
            seen.extend(chunk.tolist())
            idents.add(threading.get_ident())
        return np.zeros(chunk.size)

    def charge(nbytes, what):
        charges.append(nbytes)
        check_bytes(nbytes, what)

    with mock.patch.object(rmf, "usable_cpus", lambda: cpus), \
            mock.patch.object(rmf, "check_bytes", charge), \
            mock.patch.object(errors, "DEFAULT_MEMORY_CAP", cap):
        try:
            rmf.mc_estimate(1, trials, None, lambda: built.append(1) or per_batch,
                            row_bytes, shared, threads, worker_bytes)
        except TooLarge:
            assert not built and not sizes
            return
    assert sorted(seen) == sorted(rmf.derive_trial_seeds(1, trials).tolist())
    rows = max(sizes)
    assert rows * len(idents) <= min(max((4 << 20) // max(1, row_bytes), 16), trials)
    assert charges[0] <= cap
    assert charges[0] >= rows * len(idents) * row_bytes + len(idents) * worker_bytes \
        + shared + rmf.TRIAL_BYTES * trials


@pytest.mark.parametrize("x", [20.0, 50.0])
def test_rmf_mc_default_batch_keeps_its_bits(monkeypatch, x):
    # the default batch (5,295 and 2,962 rows) gives the bits of 2,048 and 7 rows
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    want = moments.rmf_moment_mc(x, 2.0, trials=20_000, seed=3, batch=2048, threads=1)
    for batch in (None, 2048, 7):
        for threads in (1, 2):
            got = moments.rmf_moment_mc(x, 2.0, trials=20_000, seed=3, batch=batch,
                                        threads=threads)
            assert got.value.hex() == want.value.hex() and got.stderr == want.stderr


def test_mc_estimate_chunk_error_propagates(monkeypatch):
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    bad = rmf.derive_trial_seeds(1, 100)[50]

    def per_batch(chunk):
        if bad in chunk:
            raise ValueError("chunk failed")
        return np.ones(chunk.size)

    with pytest.raises(ValueError, match="chunk failed"):
        rmf.mc_estimate(1, 100, 4, lambda: per_batch, 0, 0, threads=2)


def test_mc_estimate_workers_share_the_chunks_under_stress(monkeypatch):
    # eight workers on fewer cores take one-row chunks from one iterator while
    # the interpreter switches threads often: every trial runs exactly once
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 8)
    seen = []

    def per_batch(chunk):
        seen.extend(chunk.tolist())
        return (chunk % np.uint64(1000)).astype(np.float64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = rmf.mc_estimate(5, 4000, 8, lambda: per_batch, 0, 0, threads=8)
    finally:
        sys.setswitchinterval(interval)
    seeds = rmf.derive_trial_seeds(5, 4000)
    assert sorted(seen) == sorted(seeds.tolist())
    want = (seeds % np.uint64(1000)).astype(np.float64)
    assert got == (float(want.mean()), float(want.std(ddof=1) / math.sqrt(4000)))


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_estimate_starts_no_chunk_after_a_failure(monkeypatch, threads):
    # 50 chunks of 2 rows; a worker stops at its first failed chunk, and a
    # worker that comes later finds none left
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    calls = []

    def per_batch(chunk):
        calls.append(chunk.size)
        raise ValueError("chunk failed")

    with pytest.raises(ValueError, match="chunk failed"):
        rmf.mc_estimate(1, 100, 2 * threads, lambda: per_batch, 0, 0, threads=threads)
    assert 1 <= len(calls) <= threads


def test_batch_matches_scalar_path():
    seeds = rmf.derive_trial_seeds(3, 8)
    batch = rmf.partial_sums_batch(seeds, 50.0)
    for i, sd in enumerate(seeds):
        s = rmf.sample(int(sd), 50)
        assert batch[i] == pytest.approx(rmf.partial_sum(s, 50.0), abs=1e-10)


def test_kahan_partial_sum_scale():
    s = rmf.sample(2, 20000)
    total = rmf.partial_sum(s, 20000.0)
    # sqrt-size cancellation: |sum| should be far below x
    assert abs(total) < 20000 ** 0.75


def test_batch_refuses_matrix_over_cap(monkeypatch):
    # 200 rows at x = 10^7 fit the default cap; one byte less than their
    # charge refuses them before a value is drawn
    seeds = rmf.derive_trial_seeds(0, 200)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", rmf.batch_nbytes(200, 1e7) - 1)

    def no_values(*args, **kwargs):
        raise AssertionError("unit values were drawn before the cap check")

    monkeypatch.setattr(rmf, "unit_values", no_values)
    with pytest.raises(TooLarge):
        rmf.partial_sums_batch(seeds, 1e7)


def test_batch_memory_charge_admits_16_rows_at_1e7():
    # 16 rows at x = 10^7 are charged about 300 MB; the old trials x (x+1)
    # complex charge called that 2.56 GB and refused it
    assert rmf.batch_nbytes(16, 1e7) <= errors.DEFAULT_MEMORY_CAP
    assert rmf.batch_nbytes(16, 1e7) < 16 * (10**7 + 1) * 16 / 4


def test_batch_refuses_over_lowered_cap_before_drawing(monkeypatch):
    seeds = rmf.derive_trial_seeds(0, 4)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", rmf.batch_nbytes(3, 1e4))
    assert rmf.partial_sums_batch(seeds[:3], 1e4).shape == (3,)  # exactly at the cap

    def no_values(*args, **kwargs):
        raise AssertionError("unit values were drawn before the cap check")

    monkeypatch.setattr(rmf, "unit_values", no_values)
    with pytest.raises(TooLarge):
        rmf.partial_sums_batch(seeds, 1e4)


def test_rmf_mc_charges_every_row_in_flight(monkeypatch):
    # the cap is checked against all workers' rows together, and the driver's
    # own arrays for the 40 trials, before any work
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP",
                        rmf.batch_nbytes(10, 1e4) + rmf.TRIAL_BYTES * 40)
    for batch, threads in ((11, 1), (12, 2)):  # 11 and 2 x 6 rows in flight
        with pytest.raises(TooLarge):
            moments.rmf_moment_mc(1e4, 2.0, trials=40, seed=1, batch=batch, threads=threads)
    # two workers of 5 rows: 10 rows in flight, which fits
    est = moments.rmf_moment_mc(1e4, 2.0, trials=40, seed=1, batch=11, threads=2)
    assert est == moments.rmf_moment_mc(1e4, 2.0, trials=40, seed=1, batch=10, threads=1)


def test_values_upto_refuses_array_over_cap(monkeypatch):
    s = rmf.sample(1, 1000)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", 1000 * 16)
    assert rmf.values_upto(s, 999).size == 1000  # exactly at the cap

    def no_array(*args, **kwargs):
        raise AssertionError("the value array was allocated before the cap check")

    monkeypatch.setattr(rmf.np, "ones", no_array)
    with pytest.raises(TooLarge):
        rmf.values_upto(s, 1000)


def test_negative_x_refused_before_allocating(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the x check")

    seeds = rmf.derive_trial_seeds(0, 4)
    monkeypatch.setattr(rmf, "unit_values", no_work)
    monkeypatch.setattr(rmf.primes, "primes_up_to", no_work)
    for x in (-3.0, -0.5):
        with pytest.raises(OutOfRange, match="x = "):
            rmf.partial_sums_batch(seeds, x)
        with pytest.raises(OutOfRange, match="x = "):
            moments.rmf_moment_mc(x, 2.0, trials=10, seed=1)


def _oracle_gap(x, seed):
    # floor-quotient recursion against the multiplicative sieve plus math.fsum
    got = rmf.partial_sums_batch(np.array([seed], dtype=np.uint64), x)[0]
    return abs(got - rmf.partial_sum(rmf.sample(seed, max(2.0, x)), x))


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(x=st.floats(0.0, 3000.0), seed=st.integers(0, 2**64 - 1))
def test_batch_matches_sieve_oracle(x, seed):
    assert _oracle_gap(x, seed) <= 1e-10


@pytest.mark.parametrize("x", [0, 1, 1.5, 2, 3, 4])
def test_batch_rows_match_sieve_oracle_at_small_x(x):
    # several rows at once, through the no-prime path below 2 and the
    # smallest prime lists
    seeds = rmf.derive_trial_seeds(9, 5)
    got = rmf.partial_sums_batch(seeds, float(x))
    assert got.shape == (5,) and got.dtype == np.complex128
    for g, sd in zip(got, seeds):
        assert g == pytest.approx(rmf.partial_sum(rmf.sample(int(sd), max(2, x)), x), abs=1e-12)
    if x < 2:
        assert got.tobytes() == np.full(5, complex(math.floor(x))).tobytes()


@pytest.mark.parametrize("x", [1e4, 1e5, 1e6])
def test_batch_peak_memory_within_charge(x):
    # the byte charge must cover what the recursion really allocates
    rmf.primes.primes_up_to(x)  # the shared table is not the batch's to charge
    seeds = rmf.derive_trial_seeds(2, 3)
    tracemalloc.start()
    try:
        rmf.partial_sums_batch(seeds, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rmf.batch_nbytes(3, x)
    assert peak > rmf.batch_nbytes(3, x) / 2  # and stays a fair model


# x below 2 (the sum is floor(x)), prime powers, prime squares and their neighbours
@pytest.mark.parametrize("x", [0, 0.5, 1, 1.5, 2, 3, 4, 8, 9, 24, 25, 26, 121, 961])
def test_batch_matches_sieve_oracle_at_prime_powers(x):
    for seed in range(4):
        assert _oracle_gap(float(x), seed) <= 1e-10


def _whole_row_sums(trial_seeds, x):
    # partial_sums_batch as it was before f(p) came in blocks: one pi(x)-long
    # row of f(p), summed by one cumsum
    xf = int(math.floor(x))
    ps = primes.primes_up_to(xf)
    r = math.isqrt(xf)
    m = int(np.searchsorted(ps, r, side="right"))
    g = rmf.unit_values(trial_seeds, ps)
    fp = g[:, :m].copy()
    np.cumsum(g, axis=1, out=g)
    vs = np.concatenate([np.arange(1, r + 1), xf // np.arange(xf // (r + 1), 0, -1)])
    t = np.take(g, np.searchsorted(ps, vs, side="right") - 1, axis=1)
    t[:, 0] = 0.0
    g = g[:, :m].copy()
    for j in range(m - 1, -1, -1):
        p = int(ps[j])
        f, gp = fp[:, j : j + 1], g[:, j : j + 1]
        start = int(np.searchsorted(vs, p * p))
        inc = np.zeros((t.shape[0], vs.size - start), dtype=np.complex128)
        pe, fe = p, f
        while pe * p <= xf:
            lo = int(np.searchsorted(vs, pe * p))
            below = np.searchsorted(vs, vs[lo:] // pe)
            f_next = fe * f
            step = np.take(t, below, axis=1)
            step -= gp
            np.multiply(fe, step, out=step)
            step += f_next
            inc[:, lo - start :] += step
            pe, fe = pe * p, f_next
        t[:, start:] += inc
    return 1.0 + t[:, -1]


# pi(8161) = 1024 and pi(17863) = 2048: one and two blocks of 1024 primes end
# there.  Above x = 2^18 a block holds 2 isqrt(x) primes.
@pytest.mark.parametrize("x", [2, 3, 10, 100, 1000, 8160, 8161, 8166, 8167, 17862, 17863,
                               17880, 17881, 30_000, 10**5, 262_143, 262_144, 500_000, 10**6])
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_blocked_prime_sums_keep_the_whole_row_bits(x, rows):
    seeds = rmf.derive_trial_seeds(x + rows, rows)
    got = rmf.partial_sums_batch(seeds, x)
    assert got.tobytes() == _whole_row_sums(seeds, x).tobytes()


def test_batch_matches_sieve_oracle_large_x():
    seed = int(rmf.derive_trial_seeds(4, 1)[0])
    got = rmf.partial_sums_batch(np.array([seed], dtype=np.uint64), 1e5)[0]
    want = rmf.partial_sum(rmf.sample(seed, 10**5), 1e5)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
