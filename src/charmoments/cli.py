"""Command line front end.

Every subcommand emits a single machine-readable document (JSON by default,
CSV on request) carrying the resolved configuration, the seed, the package
version, and wall time, so runs can be replayed and diffed.  A subcommand
takes only the options its handler reads, and --format: --seed belongs to
rmf-mc and verify (the seed is null for the others, which sample nothing or
take --weights-seed), and --threads to rmf-mc.  verify runs under the default
calibration, and each of its reports records the threshold it was held to.

Exit codes: 0 success, 1 a verification check failed, 2 OutOfRange or
QuadratureFailure, 3 TooLarge, 4 internal error, 141 stdout closed before
the document was written (128 + SIGPIPE, e.g. piped into head).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__, moments, proxy, rmf, theta, verify
from .errors import CharmomentsError, OutOfRange, TooLarge
from .modarith import build_modulus

SCHEMA = "charmoments/1"
# parsed arguments that steer a run but are not its configuration
_RUN_ARGS = ("command", "fn", "seed", "format", "threads")


def _emit(doc: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(_dumps(doc, indent=2) + "\n")
        return
    # CSV: flatten the result rows; config travels in a comment header
    rows = doc.get("results", [])
    if isinstance(rows, dict):
        rows = [rows]
    buf = io.StringIO()
    buf.write(f"# schema={doc['schema']} version={doc['version']}\n")
    buf.write(f"# config={_dumps(doc['config'])}\n")
    if rows:
        keys = sorted({k for r in rows for k in r})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _cell(r.get(k, "")) for k in keys})
    stream.write(buf.getvalue())


def _dumps(v, indent=None) -> str:
    return json.dumps(v, indent=indent, sort_keys=True, allow_nan=False)


def _cell(v):  # nested values as JSON text; null is an empty cell
    return _dumps(v) if isinstance(v, (dict, list)) else v


def _jsonable(v):
    """JSON-ready copy of v; a non-finite float (an overflowed value) becomes None."""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return None
    if isinstance(v, complex):
        return {"re": _jsonable(v.real), "im": _jsonable(v.imag)}
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _document(args, results, started: float) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in _RUN_ARGS}
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "config": _jsonable(config),
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.monotonic() - started, 6),
        "results": _jsonable(results),
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_char_moment(args) -> tuple[list | dict, int]:
    mod = build_modulus(args.q)
    rows = []
    for x in args.x:
        est = moments.char_moment(mod, x, args.k)
        row = {"q": args.q, "x": x, "k": args.k, "moment": est.value, "kind": est.kind}
        if args.k == 1.0:
            row["closed_form"] = moments.second_moment_closed_form(args.q, x)
        rows.append(row)
    return rows, 0


def _cmd_rmf_mc(args) -> tuple[list | dict, int]:
    # the exact moments first: a k or an x they refuse fails before any Monte Carlo
    exact = [rmf.exact_moment_2k(x, args.k) for x in args.x] if args.exact else []
    rows = []
    for i, x in enumerate(args.x):
        est = moments.rmf_moment_mc(x, args.k, trials=args.trials, seed=args.seed,
                                    threads=args.threads)
        row = {"x": x, "k": args.k, "trials": est.trials,
               "estimate": est.value, "stderr": est.stderr}
        if args.exact:
            row["exact"] = exact[i]
        rows.append(row)
    return rows, 0


def _cmd_verify(args) -> tuple[list | dict, int]:
    reports = verify.run_suite(args.suite, args.q, args.seed)
    return [vars(r) for r in reports], (0 if all(r.passed for r in reports) else 1)


def _cmd_theta(args) -> tuple[list | dict, int]:
    if args.moment is not None and args.char is not None:  # it would be written to config unused
        raise OutOfRange("--char does not apply with --moment")
    results = []
    for q in args.q:
        mod = build_modulus(q)
        if args.moment is not None:
            even = theta.theta_moment(mod, args.moment, "even")
            odd = theta.theta_moment(mod, args.moment, "odd")
            results.append({"q": q, "k": args.moment,
                            "even_moment": even.value, "odd_moment": odd.value,
                            "odd_over_even": odd.value / even.value
                            if even.value > 0 else None})
        else:
            idx = args.char if args.char is not None else list(range(min(8, q - 1)))
            for a in idx:
                if not 0 <= a <= q - 2:
                    raise OutOfRange(f"--char index {a} must lie in [0, q - 2 = {q - 2}]")
            vals = theta.theta_all(mod)
            results.extend({"q": q, "a": a, "value": complex(vals[a].value),
                            "tail_bound": vals[a].tail_bound,
                            "truncation_point": vals[a].truncation_point}
                           for a in idx)
    return results, 0


def _cmd_proxy(args) -> tuple[list | dict, int]:
    # an option only the other profile reads would be written to config unused
    for name in (("y", "j", "q", "x") if args.profile == "paper" else ("c0",)):
        if getattr(args, name) is not None:
            raise OutOfRange(f"--{name} does not apply to the {args.profile} profile")
    if args.profile == "paper":
        if args.c0 is None:
            raise OutOfRange("paper profile needs --c0")
        if args.log_x is None:
            raise OutOfRange("paper profile needs --log-x")
        params = proxy.paper_params(log_x=args.log_x, k=args.k, c0=args.c0)
    else:
        if args.y is None:
            raise OutOfRange("desk profile needs --y")
        params = proxy.desk_params(args.x, log_x=args.log_x, y=args.y, k=args.k,
                                   j_values=args.j, q=args.q)
    levels = [{"m": i + 1, "log_y_m": lv.log_hi, "j_m": lv.j,
               "penalty_exp": params.penalty_exp(i + 1)}
              for i, lv in enumerate(params.levels)]
    results = {"k": params.k, "c0": params.c0, "log_x": params.log_x,
               "levels": levels, "shift_count": params.shift_count,
               "poly_length_log": params.poly_length_log()}
    if args.weights_seed is not None:
        # a sample needs a limit of 2 or more, even below an empty window
        src = proxy.SampleSource(rmf.sample(args.weights_seed,
                                            max(2, params.levels[-1].hi)))
        results["weight"] = proxy.proxy_weight(params, src)
        results["exp_weight_total"] = proxy.exp_weight_total(params, src)
    return results, 0


def _cmd_shape(args) -> tuple[list | dict, int]:
    mod = build_modulus(args.q)
    pts = []
    for x in args.x:
        est = moments.char_moment(mod, x, args.k)
        pts.append((x, est.value))
    fit = moments.shape_fit(pts, args.k)
    try:
        reference = (args.k - 1.0) ** 2
    except OverflowError:  # written as null, like every other overflowed value
        reference = np.inf
    results = {"points": [{"x": x, "moment": m} for x, m in pts],
               "exponent": fit.exponent, "exponent_stderr": fit.exponent_stderr,
               "intercept": fit.intercept, "residual": fit.residual,
               "reference_exponent": reference}
    return results, 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="charmoments",
                                 description="moments of character sums and "
                                             "their random-model counterparts")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char-moment", help="2k-th moment of prefix character sums")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.set_defaults(fn=_cmd_char_moment)

    p = sub.add_parser("rmf-mc", help="Monte Carlo moments of random "
                                      "multiplicative sums")
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact moment when feasible")
    p.add_argument("--seed", type=int, default=1, help="deterministic base seed")
    p.add_argument("--threads", type=int, default=None,
                   help="caps the worker threads of Monte Carlo runs "
                        "(default: every usable CPU); never changes results")
    p.set_defaults(fn=_cmd_rmf_mc)

    p = sub.add_parser("verify", help="run a dual-route verification suite")
    p.add_argument("--suite", default="full",
                   choices=sorted(verify.SUITES) + ["full"])
    p.add_argument("--q", type=int, default=101)
    p.add_argument("--seed", type=int, default=1, help="deterministic base seed")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("theta", help="theta values and moments")
    p.add_argument("--q", type=int, nargs="+", required=True)
    p.add_argument("--moment", type=float, default=None,
                   help="compute both parities' 2k-th moments instead of raw values")
    p.add_argument("--char", type=int, nargs="+", default=None,
                   help="character indices to report values for")
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("proxy", help="resolve proxy-weight parameters")
    p.add_argument("--profile", choices=("paper", "desk"), default="desk")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--log-x", dest="log_x", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--j", type=int, nargs="+", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--weights-seed", type=int, default=None,
                   help="evaluate the weight on one sampled source")
    p.set_defaults(fn=_cmd_proxy)

    p = sub.add_parser("shape", help="fit the growth exponent of moments "
                                     "across scales")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_shape)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        results, code = args.fn(args)
        doc = _document(args, results, started)
        _emit(doc, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CharmomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
