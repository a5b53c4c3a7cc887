"""One memory cap: errors.DEFAULT_MEMORY_CAP, read by errors.check_bytes when called.

Lowering it must lower it for every charged route: each runs with the cap at
exactly its charge and refuses, before it allocates, one byte below.  Between
them, the routes and the huge counts reach every check_bytes call in the package.
"""
import ast
import math
import pathlib

import numpy as np
import pytest

from charmoments import (charsum, errors, euler, moments, modarith, primes, proxy, rmf,
                         theta, verify)
from charmoments.calibration import Calibration
from charmoments.errors import TooLarge

MOD = modarith.build_modulus(101)
ROUGH_MOD = modarith.build_modulus(4127)  # 4,126 = 2 * 2,063: a Bluestein length
SAMPLE = rmf.sample(1, 1000)
SEEDS = rmf.derive_trial_seeds(0, 3)
SPEC = euler.EulerProductSpec(alpha=1.0, beta=1.0, sigma1=0.05, sigma2=0.1,
                              t1=0.0, t2=1.0, z=250.0, y=1500.0)
EULER_PRIMES = primes.primes_in(249, 1500).size
WINDOW = proxy.desk_params(x=4.0, y=20.0, k=2.0, j_values=[2])  # 3 shifts, 8 primes


def _angle_charge(count):
    # 16 B per prime, and 24 B per (row, node) cell of a block's newest nodes
    # with one row more for the node vectors
    rows = min(count, euler._ANGLE_ROWS) + 1
    return 16 * count + 24 * rows * (euler._ANGLE_NODES >> 1)


def _mellin_charge(s):
    # 32 B per node of the last halving, and 4 KiB of headers
    n = math.ceil((math.log(1e6 / (s * theta._MELLIN_TOL)) / s + 3.0) / theta._MELLIN_STEP)
    return 32 * (n << (theta._MELLIN_HALVINGS - 1)) + 4096


def _euler_charge(rows, trials):
    # 40 B per prime for each row in flight and once for the weights, numpy's
    # broadcast buffer and the worker's own objects for each of two workers,
    # and mc_estimate's own arrays for every trial
    return (40 * (rows + 1) * EULER_PRIMES + 2 * (16 * 8192 + (16 << 10))
            + rmf.TRIAL_BYTES * trials)


# route: (call, its charge, the allocators it must not reach when refused);
# two workers hold the MC rows in flight, 5 rows each for a batch of 10
ROUTES = {
    "build_modulus": (lambda: modarith.build_modulus(101), 12 * 101,
                      [(modarith.np, "full"), (modarith, "_primitive_root")]),
    "values_upto": (lambda: rmf.values_upto(SAMPLE, 999), 16 * 1000, [(rmf.np, "ones")]),
    # the int64 pair histogram and one window over 0..12^3, with numpy's buffers
    "exact_moment_2k": (lambda: rmf.exact_moment_2k(12, 3),
                        8 * (12**2 + 1 + 12**3 + 1) + errors.NUMPY_BUFFER_BYTES,
                        [(rmf.np, "zeros"), (rmf.np, "empty")]),
    # k = 2: the uint16 pair histogram over 0..30^2 alone, with numpy's buffers
    "exact_moment_2k_pairs": (lambda: rmf.exact_moment_2k(30, 2),
                              2 * (30**2 + 1) + errors.NUMPY_BUFFER_BYTES, [(rmf.np, "zeros")]),
    "partial_sums_batch": (lambda: rmf.partial_sums_batch(SEEDS, 1e4),
                           rmf.batch_nbytes(3, 1e4), [(rmf, "unit_values")]),
    # the uint16 pair histogram over 0..30^2, folded onto 101 uint32 residues
    "congruence_energy": (lambda: moments.congruence_energy(101, 30),
                          2 * (30 * 30 + 1) + 4 * 101 + errors.NUMPY_BUFFER_BYTES,
                          [(rmf.np, "zeros")]),
    # per residue 32 B a real row, 56 B a complex one and 64 B either at a rough
    # length, once 20 B for the plan (140 B rough), and per folded term 32 B plus
    # the weight's 8 B (16 B complex) a row
    "all_char_sums_fft": (lambda: charsum.all_char_sums_fft(MOD, 30), (32 + 20) * 100,
                          [(charsum.np, "zeros")]),
    # per residue 40 B while the root table is built, and 4 KiB of headers
    "all_char_sums_naive": (lambda: charsum.all_char_sums_naive(MOD, 30),
                            max(40 * 100, 24 * (100 + 30)) + 4096, [(charsum.np, "arange")]),
    "all_char_sums_fft_rough": (lambda: charsum.all_char_sums_fft(ROUGH_MOD, 30),
                                (64 + 140) * 4126, [(charsum.np, "zeros")]),
    "weighted_char_sums": (lambda: charsum.weighted_char_sums(MOD, np.arange(1, 21),
                                                              np.ones((3, 20))),
                           (32 * 3 + 20) * 100 + (32 + 8 * 3) * 20, [(charsum.np, "zeros")]),
    "weighted_char_sums_complex": (
        lambda: charsum.weighted_char_sums(MOD, np.arange(1, 21), np.ones((3, 20), complex)),
        (56 * 3 + 20) * 100 + (32 + 16 * 3) * 20, [(charsum.np, "zeros")]),
    "weighted_char_sums_rough": (lambda: charsum.weighted_char_sums(ROUGH_MOD, np.arange(1, 21),
                                                                    np.ones(20)),
                                 (64 + 140) * 4126 + (32 + 8) * 20, [(charsum.np, "zeros")]),
    "mc_estimate": (lambda: rmf.mc_estimate(1, 50, 10, lambda: lambda c: np.zeros(c.size), 7, 100),
                    10 * 7 + 100 + rmf.TRIAL_BYTES * 50, [(rmf, "derive_trial_seeds")]),
    # and 9 B for each of the two workers
    "mc_estimate_workers": (lambda: rmf.mc_estimate(1, 50, 10, lambda: lambda c: np.zeros(c.size),
                                                    7, 100, worker_bytes=9),
                            10 * 7 + 2 * 9 + 100 + rmf.TRIAL_BYTES * 50,
                            [(rmf, "derive_trial_seeds")]),
    "rmf_moment_mc": (lambda: moments.rmf_moment_mc(100.0, 2.0, trials=50, seed=1, batch=10),
                      rmf.batch_nbytes(10, 100) + rmf.TRIAL_BYTES * 50,
                      [(rmf, "derive_trial_seeds"), (rmf, "unit_values")]),
    "mc_product_estimate": (lambda: euler.mc_product_estimate(SPEC, 50, seed=1, batch=10),
                            _euler_charge(10, 50),
                            [(rmf, "derive_trial_seeds"), (rmf, "unit_values"),
                             (euler.np, "exp")]),  # np.exp builds the weights
    "pair_product_quad": (lambda: euler.pair_product_quad(SPEC), _angle_charge(EULER_PRIMES),
                          [(euler.np, "empty"), (euler.np, "cos")]),
    "mellin_transform_check": (lambda: theta.mellin_transform_check(2.0, 1.5, SAMPLE,
                                                                    smooth_cap=10**4),
                               _mellin_charge(1.5), [(theta.np, "arange"), (theta.np, "exp")]),
    "poly_table": (lambda: proxy.poly_table(WINDOW, [proxy.OnesSource()] * 5),
                   32 * 5 * 3 * 8, [(proxy.np, "stack")]),
    "shift_values": (WINDOW.shift_values, 8 * 3, [(proxy.np, "arange")]),
    # 24 B per value and pair i <= j <= 2 + 60
    "truncation_error_series": (
        lambda: proxy.truncation_error_series([1.0, 1.0, 1.0], 2.0, 2),
        24 * 3 * (63 * 64 // 2), [(proxy.np, "ones")]),
    # 80 B per theta term n <= trunc
    "theta_naive": (lambda: theta.theta_naive(MOD, 3, 50.0), 80 * 50, [(theta.np, "arange")]),
    "check_rough_count": (lambda: verify.check_rough_count(100, 1000, 5, Calibration()),
                          900, [(verify.np, "ones")]),
}


def _no_alloc(*args, **kwargs):
    raise AssertionError("allocated before the cap check")


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_lowered_cap_refuses_before_allocating(monkeypatch, route):
    call, need, allocators = ROUTES[route]
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", need)
    call()  # exactly at the cap
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", need - 1)
    for owner, name in allocators:
        monkeypatch.setattr(owner, name, _no_alloc)
    with pytest.raises(TooLarge, match=f"cap is {need - 1}$"):
        call()


def test_driver_charges_every_trial(monkeypatch):
    # the seeds and samples of 10^6 trials alone pass a 20 MB cap, however
    # few rows are in flight
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", 20 * 10**6)
    monkeypatch.setattr(rmf, "derive_trial_seeds", _no_alloc)
    with pytest.raises(TooLarge):
        moments.rmf_moment_mc(10.0, 2.0, trials=10**6, seed=1)


def test_euler_default_batch_follows_lowered_cap(monkeypatch):
    # 4 MiB of rows no longer fit, so the default batch shrinks to the 6 the cap
    # admits beside the 3,000 trials' own arrays instead of refusing, with
    # the bits of any explicit batch
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", _euler_charge(6, 3000))
    with pytest.raises(TooLarge):
        euler.mc_product_estimate(SPEC, 3000, seed=4, batch=2048)
    rows = []
    unit_values = rmf.unit_values
    monkeypatch.setattr(rmf, "unit_values", lambda s, ps: rows.append(len(s)) or unit_values(s, ps))
    got = euler.mc_product_estimate(SPEC, 3000, seed=4)
    assert max(rows) == 3 and sum(rows) == 3000  # two workers of 3 rows
    monkeypatch.undo()
    assert got == euler.mc_product_estimate(SPEC, 3000, seed=4, batch=4, threads=1)


# a count of more than 12 digits in scientific notation, not 201 to 401 digits,
# and a finite one
HUGE_COUNTS = {
    "theta_all": lambda: theta.theta_all(MOD, trunc=1e300),
    "pair_counts": lambda: rmf.pair_counts(1e200, "uint16"),
    "pair_counts_int": lambda: rmf.pair_counts(10**400, "uint16"),
    "derive_trial_seeds": lambda: rmf.derive_trial_seeds(0, 10**300),
    "rmf_moment_mc": lambda: moments.rmf_moment_mc(10.0, 2.0, trials=10**300, seed=1),
    "congruence_energy": lambda: moments.congruence_energy(101, 1e300),
    "check_rough_count": lambda: verify.check_rough_count(1, 10**300, 5, Calibration()),
    "mellin_transform_check": lambda: theta.mellin_transform_check(1.0, 1e-300, SAMPLE),
}


@pytest.mark.parametrize("route", sorted(HUGE_COUNTS))
def test_huge_counts_are_brief_in_refusals(route):
    with pytest.raises(TooLarge) as info:
        HUGE_COUNTS[route]()
    assert len(str(info.value)) < 160, str(info.value)
    assert "Infinity" not in str(info.value)


def test_refusal_writes_long_digit_runs_briefly():
    with pytest.raises(TooLarge) as info:
        errors.check_bytes(10**400, "rows of 123456789012 and 1234567890123 entries"
                                    " in (0.30000000000000004, 1.2345678901234567e+20]")
    # a float's digits are left as they are
    assert str(info.value).startswith("rows of 123456789012 and 1.235e+12 entries"
                                      " in (0.30000000000000004, 1.2345678901234567e+20]"
                                      " would take ")


def test_refusal_gives_the_size_in_scientific_notation():
    # a size past the float range, in bytes and MiB rather than 401 digits
    with pytest.raises(TooLarge) as info:
        errors.check_bytes(10**400, "the table")
    assert str(info.value) == ("the table would take 1.000e+400 bytes (9.537e+393 MiB), "
                               f"cap is {errors.DEFAULT_MEMORY_CAP}")


def _charge_sites():
    """(file name, first line, last line) of every check_bytes call in the package."""
    sites = []
    for path in sorted(pathlib.Path(errors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "check_bytes":
                    sites.append((path.name, node.lineno, node.end_lineno))
    return sites


def _refusing_site(info):
    """(file name, line) of the frame whose check_bytes call raised the refusal."""
    tb = info.tb
    while tb.tb_next is not None and tb.tb_next.tb_frame.f_code is not errors.check_bytes.__code__:
        tb = tb.tb_next
    assert tb.tb_next is not None, f"not refused by check_bytes: {info.value}"
    return pathlib.Path(tb.tb_frame.f_code.co_filename).name, tb.tb_lineno


def test_every_charge_has_a_refusing_route(monkeypatch):
    reached = set()
    monkeypatch.setattr(rmf, "usable_cpus", lambda: 2)
    for call, need, _ in ROUTES.values():
        monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", need - 1)
        with pytest.raises(TooLarge) as info:
            call()
        reached.add(_refusing_site(info))
    monkeypatch.undo()
    for call in HUGE_COUNTS.values():
        with pytest.raises(TooLarge) as info:
            call()
        reached.add(_refusing_site(info))
    sites = _charge_sites()
    assert len(sites) > 10
    unreached = [(name, first) for name, first, last in sites
                 if not any(name == got and first <= line <= last for got, line in reached)]
    assert not unreached, f"no route refuses at {unreached}"
