"""Each charged route's peak memory stays inside the largest charge it made.

test_memory_cap.py pins what each route charges; this module checks that
the charge covers what the route really holds at its peak.  Each call runs
in a fresh interpreter, with numpy and scipy.fft imported and, unless the
modulus or the prime table is the route, the modulus or the prime table
built first, so that
neither a library a route loads inside nor an earlier call's freed memory is
counted.  The peak
is the growth of VmHWM in /proc/self/status over the call, from VmRSS just
before it.  tracemalloc would miss pocketfft's scratch and plans.  Growing
the prime table, which charges nothing, must peak near what it keeps:
VmHWM - VmRSS after the call.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
ALLOWANCE = 1 << 20  # page rounding and small Python objects

SCRIPT = r"""
import json, re, sys
import numpy as np, scipy.fft
from charmoments import charsum, errors, euler, modarith, moments, primes, rmf, theta

def status(key):
    with open("/proc/self/status") as f:
        return int(re.search(rf"{key}:\s+(\d+) kB", f.read()).group(1)) << 10

charges, check = [], errors.check_bytes
def recording(nbytes, what):
    charges.append(nbytes)
    check(nbytes, what)
for module in (charsum, modarith, rmf, theta):
    module.check_bytes = recording

# the first Euler-product spec of the random-model-mc benchmark: 131 primes
spec = euler.EulerProductSpec(alpha=0.12148592618708783, beta=1.1572513109603542,
                              sigma1=0.22818889431943043, sigma2=0.15165894394179497,
                              t1=0.0, t2=3.6719449757439744, z=467.8461193438917,
                              y=1403.5383580316752)
n, route = int(sys.argv[1]), sys.argv[2]
if route in ("theta_all", "theta_moment", "abs_char_sums"):
    mod = modarith.build_modulus(n)
elif route not in ("build_modulus", "primes_up_to"):
    primes.primes_up_to(max(n, spec.y))
if route == "abs_char_sums":  # both memo slots full, so the measured call evicts one
    charsum.abs_char_sums(mod, n // 3)
    charsum.abs_char_sums(mod, n // 2)
call = {"build_modulus": lambda: modarith.build_modulus(n),
        "theta_all": lambda: theta.theta_all(mod),
        "theta_moment": lambda: theta.theta_moment(mod, 1.0, "odd"),
        "abs_char_sums": lambda: charsum.abs_char_sums(mod, 2 * n // 3),
        "rmf_moment_mc": lambda: moments.rmf_moment_mc(n, 2, int(sys.argv[3]), 5),
        "mc_product_estimate": lambda: euler.mc_product_estimate(spec, n, 5),
        "primes_up_to": lambda: primes.primes_up_to(n)}[route]
charges.clear()
before = status("VmRSS")
call()
print(json.dumps({"growth": status("VmHWM") - before, "charge": max(charges, default=0),
                  "above": status("VmHWM") - status("VmRSS")}))
"""


def _peak(n, route, *args):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(n), route, *map(str, args)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# 262,656 = 2^9 * 3^3 * 19 is smooth; 65,542 = 2 * 32,771 is rough, so scipy.fft
@pytest.mark.parametrize("q", [262_657, 65_543])
@pytest.mark.parametrize("route", ["theta_all", "theta_moment"])
def test_theta_peak_within_its_largest_charge(q, route):
    got = _peak(q, route)
    assert 0 < got["growth"] <= got["charge"] + ALLOWANCE, got


# a third floor(x) on a modulus whose two memo slots are full
@pytest.mark.parametrize("q", [262_657, 65_543])
def test_abs_char_sums_peak_within_its_charge(q):
    got = _peak(q, "abs_char_sums")
    assert 0 < got["growth"] <= got["charge"] + ALLOWANCE, got


@pytest.mark.parametrize("q", [1_000_003, 262_657])
def test_build_modulus_peak_within_its_charge(q):
    got = _peak(q, "build_modulus")
    assert 0 < got["growth"] <= got["charge"] + ALLOWANCE, got


# the largest charge is the whole run's: its rows in flight and its trials
@pytest.mark.parametrize("x, trials", [(10**5, 150), (10**6, 40)])
def test_rmf_mc_peak_within_its_run_charge(x, trials):
    got = _peak(x, "rmf_moment_mc", trials)
    assert 0 < got["growth"] <= got["charge"] + ALLOWANCE, got


def test_euler_mc_peak_within_its_run_charge():
    got = _peak(15_000, "mc_product_estimate")
    assert 0 < got["growth"] <= got["charge"] + ALLOWANCE, got


# the table grows into one array sized by a bound on pi(n), shrunk in place,
# so the peak stays near what it keeps and a later call's peak shows
def test_growing_the_prime_table_holds_it_once():
    got = _peak(10**7, "primes_up_to")
    assert got["above"] <= 3 << 20, got
