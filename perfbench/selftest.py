"""Self-test of the benchmark harness (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

Asserts that
- the same seed regenerates identical inputs, and another seed different ones;
- a traced job's exact-repeat counts are identical when the inputs are
  regenerated from the same seed;
- tracing restores every name it rebound;
- an answer corrupted inside the harness fails its job and counts in
  fail_ratio;
- BENCHMARK.json lists exactly these workloads and per-layer metrics.
"""
from __future__ import annotations

import json
import sys

import run

run._use_checkout_sources()
import charmoments  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bump_first_k1(out):
    q, x, v = out["k1"][0]
    out["k1"][0] = (q, x, v * (1.0 + 1e-6))


def _bump_batch(out):
    out["batch"][0] += 1e-6


def _fail_first_command(out):
    out["runs"][0] = (1, out["runs"][0][1])


TAMPER = {"exact-large-q": _bump_first_k1, "random-model-mc": _bump_batch,
          "cli-session": _fail_first_command}
# cli.emit_kb (KiB) is left out: each document carries its own wall_time_s
COUNT_UNITS = {"count", "ratio", "MiB"}


def _counts(w, seed: int) -> dict:
    recorder = tracing.Recorder(charmoments, workloads)
    job = run.run_job(w, w.make_inputs(seed),
                      traced=lambda fn, inp: recorder.run_traced(0, fn, inp))
    assert not job["failures"], job["failures"]
    m = recorder.job_metrics(0)
    return {k: m[k] for k, unit in tracing.PER_LAYER if unit in COUNT_UNITS and k in m}


def _bindings() -> dict:
    """Identity of every name tracing may rebind."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "charmoments" or name.startswith("charmoments.") or name == "workloads":
            out.update({(name, attr): id(obj) for attr, obj in vars(mod).items()})
    out.update({("SUITES", k): id(fn) for k, fn in charmoments.verify.SUITES.items()})
    for cls in (charmoments.fpoly.FPoly, charmoments.proxy.SampleSource):
        out.update({(cls.__name__, attr): id(obj) for attr, obj in vars(cls).items()})
    return out


def main() -> int:
    before = _bindings()
    for name, w in workloads.WORKLOADS.items():
        a, b = w.make_inputs(7), w.make_inputs(7)
        assert run.input_digest(a) == run.input_digest(b), f"{name}: seed 7 not reproducible"
        assert run.input_digest(a) != run.input_digest(w.make_inputs(8)), f"{name}: seed ignored"

        first, second = _counts(w, 7), _counts(w, 7)
        assert first == second, f"{name}: counts differ between identical runs"
        assert _bindings() == before, f"{name}: tracing left functions wrapped"

        bad = run.run_job(w, a, tamper=TAMPER[name])
        assert bad["failures"], f"{name}: corrupted answer passed the checks"
        print(f"ok {name}: inputs and {len(first)} counts repeat; corruption caught")

    w = workloads.WORKLOADS["cli-session"]
    loop = run.run_loop(w, w.make_inputs(7), 0.0, tamper=TAMPER[w.name])
    jobs = [loop["warm"]] + loop["plain"] + loop["traced"]
    assert all(j["failures"] for j in jobs), "a corrupted job was not counted as failed"
    print(f"ok fail_ratio: {len(jobs)} of {len(jobs)} corrupted jobs counted as failed")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    assert listed == set(tracing.PER_LAYER), listed ^ set(tracing.PER_LAYER)
    whys = {wl["name"]: wl["why"] for wl in bench["workloads"]}
    assert whys == {n: w.why for n, w in workloads.WORKLOADS.items()}, whys
    print("ok BENCHMARK.json matches the workloads and per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
