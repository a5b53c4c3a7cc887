"""Each charged route's peak memory stays inside the largest charge it made.

test_memory_cap.py pins what each route charges; this module checks that
the charge covers what the route really holds at its peak.  Each call runs
in a fresh interpreter, with numpy and scipy.fft imported and, unless the
modulus is the route, the modulus or the prime table built first, so that
neither a library a route loads inside nor an earlier call's freed memory is
counted.  The peak
is the growth of VmHWM in /proc/self/status over the call, from VmRSS just
before it.  tracemalloc would miss pocketfft's scratch and plans.
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
if route in ("theta_all", "theta_moment"):
    mod = modarith.build_modulus(n)
elif route != "build_modulus":
    primes.primes_up_to(max(n, spec.y))
call = {"build_modulus": lambda: modarith.build_modulus(n),
        "theta_all": lambda: theta.theta_all(mod),
        "theta_moment": lambda: theta.theta_moment(mod, 1.0, "odd"),
        "rmf_moment_mc": lambda: moments.rmf_moment_mc(n, 2, int(sys.argv[3]), 5),
        "mc_product_estimate": lambda: euler.mc_product_estimate(spec, n, 5)}[route]
charges.clear()
before = status("VmRSS")
call()
print(json.dumps({"growth": status("VmHWM") - before, "charge": max(charges)}))
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
