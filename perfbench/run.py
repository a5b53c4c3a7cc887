"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src`` directory beside ``perfbench``, so
nothing needs installing.  One client, one process, one thread,
closed loop: each job starts when the previous one ends.  After a warm-up job
(lazy tables filled), jobs repeat on the same inputs for ``--seconds`` (at
least MIN_JOBS), and every job's answers are checked against the package's
second route.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over SETUP_REPS fresh processes of the time from process
               start until the workload's inputs are ready (imports included)
  job_s        median wall seconds of one job
  peak_rss_mb  peak resident memory of this process, which ran only this
               workload, over the warm-up and the first MIN_JOBS jobs
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of tracing.PER_LAYER, medians over the traced jobs.

Failed checks and exceptions count against ``failed``; fail_ratio is
failed / attempted.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (every job
time, failures, run metadata, and the spans of a traced run) go to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
MIN_JOBS = 3
PROBE_TIMEOUT_S = 60


def _require_sources() -> None:
    """Exit non-zero, printing no result, when the checkout has no package sources."""
    if not (SRC / "charmoments" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/charmoments not found; run from the root of a checkout")


def _use_checkout_sources() -> None:
    """Put this checkout's src/ first on sys.path and check charmoments comes from it."""
    _require_sources()
    sys.path.insert(0, str(SRC))
    import charmoments
    if SRC.resolve() not in Path(charmoments.__file__).resolve().parents:
        sys.exit(f"error: charmoments imported from {charmoments.__file__}, not {SRC}")


def input_digest(inputs: dict) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def _probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, make the inputs, report."""
    _use_checkout_sources()
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    inputs = WORKLOADS[workload].make_inputs(seed)
    print("ready", input_digest(inputs), flush=True)


def measure_setup(workload: str, seed: int, reps: int) -> tuple[list[float], set[str]]:
    """Set-up seconds of `reps` fresh processes, after one untimed warm-up process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times, digests = [], set()
    for rep in range(reps + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        digests.add(line.split()[1])
        if rep:
            times.append(elapsed)
    return times, digests


def run_job(w, inputs: dict, tamper=None, traced=None) -> dict:
    """One job: wall and CPU seconds, and the failed checks (an exception is one)."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = traced(w.run_job, inputs) if traced else w.run_job(inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tamper is not None:
            tamper(out)
        failures = w.check(inputs, out)
    except Exception:  # a job that raises is a failed job, not a crashed benchmark
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        out, failures = None, [traceback.format_exc(limit=3)]
    return {"wall_s": wall, "cpu_s": cpu, "failures": failures, "out": out}


def run_loop(w, inputs: dict, seconds: float, tamper=None, recorder=None) -> dict:
    """Warm-up job, then closed-loop jobs for `seconds` (at least MIN_JOBS).

    With a recorder, jobs alternate untraced / traced, starting untraced.
    Returns the warm-up job, the untraced and traced jobs, and the peak RSS
    (KiB) after the warm-up and MIN_JOBS untraced jobs.
    """
    loop = {"warm": run_job(w, inputs, tamper), "plain": [], "traced": []}
    plain, traced = loop["plain"], loop["traced"]
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(plain) < MIN_JOBS
           or (recorder is not None and len(traced) < MIN_JOBS)):
        if recorder is not None and len(traced) < len(plain):
            job_id = len(traced)
            job = run_job(w, inputs, tamper,
                          traced=lambda fn, inp: recorder.run_traced(job_id, fn, inp))
            job["layers"] = recorder.job_metrics(job_id)
            traced.append(job)
        else:
            plain.append(run_job(w, inputs, tamper))
            if len(plain) == MIN_JOBS:
                # a fixed amount of work: the heap keeps growing slowly with
                # every further job, and a faster machine runs more of them
                loop["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return loop


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly (None outside a git clone)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(setup_times: list[float], peak_rss_kib: int, plain: list[dict],
                lines: list[str]) -> dict:
    walls = [j["wall_s"] for j in plain]
    metrics = {"setup_s": _metric(statistics.median(setup_times), "s"),
               "job_s": _metric(statistics.median(walls), "s"),
               "peak_rss_mb": _metric(peak_rss_kib / 1024.0, "MiB")}
    counts = {"setup_s": f"median of {len(setup_times)} processes",
              "job_s": f"median of {len(walls)} jobs after 1 warm-up",
              "peak_rss_mb": f"1 process, over the warm-up and {MIN_JOBS} jobs"}
    lines += [f"  {k} = {v['value']:.6g} {v['unit']} ({counts[k]})" for k, v in metrics.items()]
    lines.append(f"  job_cpu_s = {statistics.median(j['cpu_s'] for j in plain):.6g} s "
                 f"(median of {len(plain)} jobs)")
    return metrics


def _per_layer(plain: list[dict], traced: list[dict], lines: list[str]) -> dict:
    import tracing
    layers = tracing.median_metrics([j["layers"] for j in traced])
    layers["job_s.untraced"] = statistics.median(j["wall_s"] for j in plain)
    layers["job_cpu_s"] = statistics.median(j["cpu_s"] for j in plain)
    layers["trace_overhead_s"] = layers["job_s.traced"] - layers["job_s.untraced"]
    metrics = {name: _metric(layers[name], unit) for name, unit in tracing.PER_LAYER}
    lines.append(f"  {len(traced)} traced and {len(plain)} untraced jobs after 1 warm-up; "
                 f"per-layer values are medians over the traced jobs")
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_probe:
        _probe(args.workload, args.seed)
        return 0
    _require_sources()

    try:
        setup_times, probe_digests = ([], set()) if args.trace else measure_setup(
            args.workload, args.seed, SETUP_REPS)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"error: {exc}")
    _use_checkout_sources()
    import charmoments
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    inputs = w.make_inputs(args.seed)
    digest = input_digest(inputs)
    recorder = tracing.Recorder(charmoments, workloads) if args.trace else None
    loop = run_loop(w, inputs, args.seconds, recorder=recorder)
    warm, plain, traced = loop["warm"], loop["plain"], loop["traced"]

    jobs = [warm] + plain + traced
    failures = [f for j in jobs for f in j["failures"]]
    if probe_digests - {digest}:
        failures.append(f"set-up probes made inputs {sorted(probe_digests)}, this process {digest}")
    attempted, failed = len(jobs), sum(bool(j["failures"]) for j in jobs)
    lines = [f"workload {w.name}, seed {args.seed}: {w.why}"]
    if args.trace:
        metrics = _per_layer(plain, traced, lines)
    else:
        metrics = _end_to_end(setup_times, loop["peak_rss_kib"], plain, lines)
    lines.append(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    if w.diagnostics is not None and plain[0]["out"] is not None:
        lines += [f"  {k} = {v:.6g} (recorded, not gated)"
                  for k, v in w.diagnostics(inputs, plain[0]["out"]).items()]
    lines += [f"  FAILED: {f.strip()}" for f in failures[:10]]

    meta = metadata(w.name, args.seed)
    meta["input_digest"] = digest
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    details = {"meta": meta, "metrics": metrics, "failures": failures,
               "setup_s": setup_times, "warmup_s": warm["wall_s"],
               "jobs": [{k: j[k] for k in ("wall_s", "cpu_s")} for j in plain],
               "traced_jobs": [{"wall_s": j["wall_s"], "layers": j["layers"]} for j in traced]}
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1, sort_keys=True))
    if recorder is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "attrs"],
                       "spans": recorder.spans}, fh)
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
