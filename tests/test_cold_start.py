"""Importing the package loads no scipy; each route loads only the scipy piece it calls.

The steps run in order in one fresh interpreter, because a module, once
imported, stays in sys.modules: what a step may load depends on what ran
before it.  scipy.fft imports scipy.special itself (for its FFTLog
routines), so the character-moment step is held to exactly what a bare
`import scipy.fft` loads.
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

from charmoments import cli, euler, moments, theta, verify
from charmoments.modarith import build_modulus
moments.rmf_moment_mc(150.0, 2.0, trials=200, seed=1)
euler.mc_product_estimate(euler.EulerProductSpec(alpha=1.0, beta=0.5, sigma1=0.0,
                                                 sigma2=0.1, t1=0.0, t2=2.0,
                                                 z=1000.0, y=5000.0), 200, seed=3)
theta.theta_moment(build_modulus(101), 1, "even")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1",
                     "--q", "101", "--weights-seed", "11"])
assert code == 0, code
loaded("no-scipy routes")

moments.char_moment(build_modulus(101), 30, 2)
loaded("char_moment")

reports = verify.run_suite("identities", 101, 1)
assert all(r.passed for r in reports)
loaded("verify identities")
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
    assert steps["char_moment"] == bare_fft
    assert "scipy.integrate" in steps["verify identities"]
