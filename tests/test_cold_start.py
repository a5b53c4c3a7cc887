"""Importing the package loads no scipy, and the one route that calls scipy,
a group DFT at a rough length of 2^16 or more, loads only scipy.fft.

The steps run in order in one fresh interpreter, because a module, once
imported, stays in sys.modules: what a step may load depends on what ran
before it.  scipy.fft imports scipy.special itself (for its FFTLog
routines), so the rough DFT is held to exactly what a bare
`import scipy.fft` loads.  The quadratures (the Euler angle rule, the
Mellin rule at y > 1 and the closed-form Parseval check) and every other
DFT are numpy only.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json, sys

def loaded(step):
    print(json.dumps([step, sorted(m for m in sys.modules if m.startswith("scipy"))]))

import charmoments, charmoments.cli
loaded("import")

from charmoments import cli, euler, moments, rmf, theta, verify
from charmoments.modarith import build_modulus
moments.rmf_moment_mc(150.0, 2.0, trials=200, seed=1)
spec = euler.EulerProductSpec(alpha=1.0, beta=0.5, sigma1=0.0, sigma2=0.1,
                              t1=0.0, t2=2.0, z=1000.0, y=5000.0)
euler.mc_product_estimate(spec, 200, seed=3)
euler.pair_product_quad(spec)
theta.mellin_transform_check(2.0, 1.5, rmf.sample(9, 10), smooth_cap=10**7)
theta.theta_moment(build_modulus(101), 1, "even")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1",
                     "--q", "101", "--weights-seed", "11"])
assert code == 0, code
loaded("no-scipy routes")

moments.char_moment(build_modulus(101), 30, 2)
loaded("char_moment")

reports = verify.run_suite("full", 499, 1)
assert all(r.passed for r in reports)
loaded("verify full")

moments.char_moment(build_modulus(65543), 30000, 2)  # 65,542 = 2 * 32,771
loaded("rough char_moment")
"""


def _loaded(script):
    """(step, sorted scipy modules) pairs that `script` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def test_scipy_loaded_only_by_the_routes_that_call_it():
    steps = _loaded(SCRIPT)
    assert steps["import"] == []
    assert steps["no-scipy routes"] == []
    bare_fft = _loaded('import json, sys, scipy.fft\n'
                       'print(json.dumps(["fft", sorted(m for m in sys.modules'
                       ' if m.startswith("scipy"))]))')["fft"]
    assert "scipy.integrate" not in bare_fft
    assert steps["char_moment"] == []
    assert steps["verify full"] == []
    assert steps["rough char_moment"] == bare_fft
