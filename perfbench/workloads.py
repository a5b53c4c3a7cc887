"""The benchmark's workloads: inputs made from a seed, one job, and its checks.

A job is a fixed sequence of calls into the package's public functions (or
the in-process ``cli.main``).  ``make_inputs(seed)`` is the only place a seed
enters; the package receives just the generated inputs.  ``run_job`` returns
the raw answers, and ``check`` compares them with the package's second route
and returns one message per failed comparison (an empty list means correct).
Tolerances are the ones the test suite already asserts.

Importing this module imports charmoments, numpy and scipy, so the caller
must put the checkout's ``src`` directory on ``sys.path`` first.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from charmoments import cli, euler, moments, rmf, theta
from charmoments.calibration import Calibration
from charmoments.modarith import build_modulus

CAL = Calibration()
CLOSED_FORM_TOL = 1e-8  # criterion 1, relative


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    run_job: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]
    diagnostics: Callable[[dict, dict], dict] | None = None


def _rel_dev(got: float, want: float, scale: float) -> float:
    return abs(got - want) / scale


# ---------------------------------------------------------------------------
# exact-large-q
#
# Why: modarith, charsum and theta do almost all of this job's work, and one
# large modulus is shared across the x-grid.  995,329 has q-1 = 2^12 * 3^5
# (smooth FFT length); 1,000,003 has q-1 = 2 * 3 * 166,667, which makes
# pocketfft fall back to Bluestein.  Timing both side by side shows an FFT
# change that helps only one kind of length.  Theta runs at 262,657 =
# 2^9 * 3^3 * 19 + 1, where each parity recomputes both weighted DFTs.

EXACT_MODULI = (995_329, 1_000_003)
EXACT_SMALL_X = 1000
THETA_Q = 262_657


def _exact_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    xs = {q: [EXACT_SMALL_X, int(rng.integers(q // 4, 3 * q // 4 + 1))] for q in EXACT_MODULI}
    return {"xs": xs, "theta_q": THETA_Q}


def _exact_job(inp: dict) -> dict:
    out = {"k1": [], "k2": [], "all_k2": [], "energy": []}
    for q, xs in inp["xs"].items():
        mod = build_modulus(q)
        for x in xs:
            for key, k in (("k1", 1.0), ("k2", 2.0)):
                out[key].append((q, x, moments.char_moment(mod, x, k).value))
        out["all_k2"].append((q, moments.char_moment(mod, EXACT_SMALL_X, 2.0,
                                                     exclude_principal=False).value))
        out["energy"].append((q, moments.congruence_energy(q, EXACT_SMALL_X)))
    tmod = build_modulus(inp["theta_q"])
    out["theta_even"] = theta.theta_moment(tmod, 1.0, "even").value
    out["theta_odd"] = theta.theta_moment(tmod, 1.0, "odd").value
    out["theta_oracle"] = theta.even_theta_second_moment_oracle(tmod)
    return out


def _exact_check(inp: dict, out: dict) -> list[str]:
    bad = []
    for q, x, got in out["k1"]:
        want = moments.second_moment_closed_form(q, x)
        if not _rel_dev(got, want, max(1.0, abs(want))) <= CLOSED_FORM_TOL:
            bad.append(f"k=1 closed form q={q} x={x}: {got!r} vs {want!r}")
    for (q, got), (_, energy) in zip(out["all_k2"], out["energy"]):
        if not _rel_dev(got, energy, energy) <= CAL.orthogonality_tol:
            bad.append(f"k=2 all characters q={q}: {got!r} vs congruence count {energy}")
    for q, x, got in out["k2"]:
        if not (math.isfinite(got) and got > 0):
            bad.append(f"k=2 moment q={q} x={x} not positive: {got!r}")
    want = out["theta_oracle"]
    if not _rel_dev(out["theta_even"], want, max(abs(want), 1e-300)) <= CAL.orthogonality_tol:
        bad.append(f"even theta moment {out['theta_even']!r} vs oracle {want!r}")
    if not (math.isfinite(out["theta_odd"]) and out["theta_odd"] > 0):
        bad.append(f"odd theta moment not positive: {out['theta_odd']!r}")
    return bad


# ---------------------------------------------------------------------------
# random-model-mc
#
# Why: the rmf prime-power sieve and the Euler-product MC do most of this
# job's work; charsum, theta and proxy do none.  Large x with few trials
# (10^5, 150) next to small x with many trials (10^3, 3000; 100 at k = 3,
# 20,000) shows a sieve rewrite that helps large x but slows small x.
#
# The MC-against-exact pulls use the criterion 3 rule (3 stderr) but are
# recorded, not gated: with MC seeds 0..299, 20 had a pull beyond 3 sigma (up
# to 8.05, mostly at x = 10^3), because the naive stderr of a heavy-tailed
# |S|^{2k} is unreliable.  Gating on it would fail about one seed in fifteen
# with nothing broken.  The job is gated on the deterministic comparisons and
# on the criterion 5 Euler rule.

MC_RUNS = ((1e5, 2.0, 150), (1e3, 2.0, 3000), (100.0, 3.0, 20_000))
EXACT_RUNS = ((1e3, 2), (100.0, 3))
EULER_SPECS = 5
EULER_TRIALS = 15_000
BATCH_CHECK_X = 1e4
BATCH_CHECK_TRIALS = 2


def _euler_spec(rng: np.random.Generator) -> euler.EulerProductSpec:
    """One parameter set drawn as in acceptance criterion 5."""
    alpha = float(rng.uniform(0.1, 1.4))
    beta = float(rng.uniform(0.1, 1.4))
    z = 200.0 * (1.0 + max(alpha, beta) ** 2)
    return euler.EulerProductSpec(
        alpha=alpha, beta=beta,
        sigma1=float(rng.uniform(0.0, 0.25)), sigma2=float(rng.uniform(0.0, 0.25)),
        t1=0.0, t2=float(rng.uniform(-8.0, 8.0)), z=z, y=3.0 * z)


def _mc_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    mc = [(x, k, trials, int(rng.integers(0, 2**62))) for x, k, trials in MC_RUNS]
    specs = [(_euler_spec(rng), int(rng.integers(0, 2**62))) for _ in range(EULER_SPECS)]
    return {"mc": mc, "exact": list(EXACT_RUNS), "euler": specs,
            "batch_seed": int(rng.integers(0, 2**62))}


def _mc_job(inp: dict) -> dict:
    out = {"mc": [moments.rmf_moment_mc(x, k, trials=t, seed=s) for x, k, t, s in inp["mc"]],
           "exact": {(x, k): rmf.exact_moment_2k(x, k) for x, k in inp["exact"]},
           "euler": []}
    for spec, seed in inp["euler"]:
        mean, stderr = euler.mc_product_estimate(spec, trials=EULER_TRIALS, seed=seed)
        out["euler"].append((mean, stderr, euler.expected_product_exponent(spec),
                             euler.error_bracket(spec)))
    seeds = rmf.derive_trial_seeds(inp["batch_seed"], BATCH_CHECK_TRIALS)
    out["batch"] = rmf.partial_sums_batch(seeds, BATCH_CHECK_X)
    out["scalar"] = [rmf.partial_sum(rmf.sample(int(s), int(BATCH_CHECK_X)), BATCH_CHECK_X)
                     for s in seeds]
    return out


def _mc_check(inp: dict, out: dict) -> list[str]:
    bad = []
    for est, (x, k, _, _) in zip(out["mc"], inp["mc"]):
        if not (math.isfinite(est.value) and est.value > 0 and est.stderr > 0):
            bad.append(f"MC moment x={x} k={k} degenerate: {est!r}")
    for (mean, stderr, exponent, bracket), (spec, _) in zip(out["euler"], inp["euler"]):
        dev = abs(math.log(mean) - exponent)
        tol = max(3.0 * stderr / mean, 10.0 * bracket)
        if not dev <= tol:
            bad.append(f"Euler MC {spec}: log-mean deviation {dev:.3g} > {tol:.3g}")
    for i, (b, s) in enumerate(zip(out["batch"], out["scalar"])):
        if not abs(b - s) <= 1e-10:
            bad.append(f"partial_sums_batch trial {i}: {b!r} vs scalar route {s!r}")
    return bad


def mc_pulls(inp: dict, out: dict) -> dict[str, float]:
    """|MC - exact| / stderr for each MC run that has an exact counterpart."""
    pulls = {}
    for est, (x, k, _, _) in zip(out["mc"], inp["mc"]):
        exact = out["exact"].get((x, int(k)))
        if exact is not None:
            pulls[f"pull x={x:g} k={k:g}"] = abs(est.value - exact) / est.stderr
    return pulls


# ---------------------------------------------------------------------------
# cli-session
#
# Why: the same layers used the way a command-line user does, from the
# README's examples.  It builds many tiny moduli that no call shares, runs
# many small DFTs where per-call overhead dominates, samples one rmf source
# at a time, and gets most of the verify, proxy and fpoly work and all of the
# JSON and CSV output.  A change that helps the large-q case but adds
# per-call overhead shows here.
#
# The README's desk example `proxy --profile desk --x 6 --y 2 --q 101
# --weights-seed 11` exits 2: with the default J = 2, x * y^(4J) >= q.  The
# session passes `--j 1`, which fits.
#
# Workload seed 106 fails, and the failure is the program's: `verify --suite
# full --q 499 --seed 106` exits 1 because its random-coefficient Parseval
# check is off by 1.1e-3 against a 1e-4 tolerance.  Verify seeds 0..299 were
# scanned; 106 is the only one of them that fails.

def _cli_inputs(seed: int) -> dict:
    s = int(seed)
    lines = [
        f"verify --suite full --q 499 --seed {s}",
        f"verify --suite proxy --q 101 --seed {s}",
        f"verify --suite proxy --q 101 --seed {s + 1}",
        "verify --suite holder --q 101",
        f"proxy --profile desk --x 6 --y 2 --j 1 --q 101 --weights-seed {s}",
        "proxy --profile paper --log-x 1.6e8 --c0 4e5 --k 2",
        "theta --q 101 499 1009 --moment 1",
        "theta --q 10007 --char 0 1 50",
        "char-moment --q 20011 --x 500 1000 5000 --k 2",
        "char-moment --q 101 --x 30 --k 1 --format csv",
        f"rmf-mc --x 150 --k 2 --trials 20000 --seed {s} --exact",
        "shape --q 20011 --k 2 --x 100 300 1000 3000 9000",
    ]
    return {"argv": [line.split() for line in lines]}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in process; returns the exit code and everything written to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_job(inp: dict) -> dict:
    return {"runs": [run_cli(argv) for argv in inp["argv"]]}


def _parse(text: str) -> tuple[str, list[dict]]:
    """(schema, result rows) of one JSON or CSV document."""
    if text.startswith("# schema="):
        head, _, body = text.split("\n", 2)
        schema = head.split()[1].split("=", 1)[1]
        return schema, list(csv.DictReader(io.StringIO(body)))
    doc = json.loads(text)
    rows = doc["results"]
    return doc["schema"], rows if isinstance(rows, list) else [rows]


def _cli_check(inp: dict, out: dict) -> list[str]:
    bad = []
    for argv, (code, text) in zip(inp["argv"], out["runs"]):
        cmd = " ".join(argv)
        if code != 0:
            bad.append(f"{cmd}: exit {code}")
            continue
        schema, rows = _parse(text)
        if schema != cli.SCHEMA:
            bad.append(f"{cmd}: schema {schema!r}")
        if argv[0] == "verify":
            bad += [f"{cmd}: check {r['name']} failed" for r in rows if r["passed"] is not True]
        for r in rows:
            if r.get("closed_form", "") != "":
                got, want = float(r["moment"]), float(r["closed_form"])
                if not _rel_dev(got, want, max(1.0, abs(want))) <= CLOSED_FORM_TOL:
                    bad.append(f"{cmd}: moment {got!r} vs closed form {want!r}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload("exact-large-q",
             "character side at q ~ 1e6: FFT prefix sums at a smooth and a Bluestein "
             "length, congruence count and both theta parities",
             _exact_inputs, _exact_job, _exact_check),
    Workload("random-model-mc",
             "random-model side: rmf prime-power sieve at large x with few trials and "
             "small x with many, exact tuple counts and Euler-product MC",
             _mc_inputs, _mc_job, _mc_check, mc_pulls),
    Workload("cli-session",
             "README command sequence through cli.main: many tiny moduli and small "
             "DFTs, verify suites, proxy weights, JSON and CSV output",
             _cli_inputs, _cli_job, _cli_check),
)}
