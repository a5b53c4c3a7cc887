"""Run every workload once and print its metrics as one table.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own process (run.py), so peak_rss_mb is that
workload's alone.  Without --trace the table has the end-to-end metrics and
fail_ratio, each with its unit and sample count; with --trace it has the
per-layer metrics of the traced runs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    names = [w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads((run.OUT_DIR / f"{name}-seed{args.seed}-trace{int(args.trace)}.json")
                             .read_text())
        n_of = {} if args.trace else {"setup_s": len(details["setup_s"]),
                                      "job_s": len(details["jobs"])}
        n_default = len(details["traced_jobs"]) if args.trace else 1
        rows += [(name, metric, f"{v['value']:.6g}", v["unit"], n_of.get(metric, n_default))
                 for metric, v in result["metrics"].items()]
        rows.append((name, "fail_ratio", f"{result['failed'] / result['attempted']:.6g}",
                     "ratio", result["attempted"]))
    widths = [max(len(str(r[i])) for r in rows + [("workload", "metric", "value", "unit", "n")])
              for i in range(5)]
    for r in [("workload", "metric", "value", "unit", "n")] + rows:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
