"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps the public functions of each charmoments module from the
outside, for the length of one traced job, and restores them afterwards, so
untraced jobs run unmodified code.  A function is replaced under every name
that refers to it, in every charmoments module (``moments``, ``verify`` and
``cli`` import ``all_char_sums_fft``, ``weighted_char_sums`` or
``build_modulus`` by name), and in ``verify.SUITES``.

A span is ``[name, start, end, parent, job, attrs]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``attrs`` holds the sizes recorded at
that boundary (q, x, trial rows, ...).  Spans stay in memory and are written
out at the end.  Self time is a span's duration minus the durations of its
direct children; everything runs in one thread, so children never overlap.
Counts are computed from the recorded sizes, so they repeat exactly.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("modarith", "charsum", "moments", "rmf", "euler", "fpoly", "proxy",
          "theta", "verify", "primes", "cli")
SUITES = ("identities", "counting", "euler", "proxy", "theta", "holder")
SUBCOMMANDS = ("char-moment", "rmf-mc", "verify", "theta", "proxy", "shape")
MIB = float(1 << 20)

# Per-layer metrics, in output order: (name, unit).  Each is a value per job.
PER_LAYER = (
    [("modarith.build_modulus.s", "s"), ("modarith.build_modulus.calls", "count"),
     ("modarith.table_mb", "MiB"),
     ("charsum.all_char_sums_fft.s", "s"), ("charsum.all_char_sums_fft.calls", "count"),
     ("charsum.fft_len.max", "count"), ("charsum.fft_len.max_prime_factor", "count"),
     ("charsum.fft_calls.rough", "count"), ("charsum.fft_reuse", "ratio"),
     ("charsum.weighted_char_sums.s", "s"), ("charsum.weighted_char_sums.calls", "count"),
     ("moments.char_moment.self_s", "s"), ("moments.congruence_energy.s", "s"),
     ("moments.rmf_moment_mc.self_s", "s"), ("moments.cross_moment.s", "s"),
     ("moments.cross_moment_exact_rmf.s", "s"),
     ("rmf.partial_sums_batch.s", "s"), ("rmf.partial_sums_batch.calls", "count"),
     ("rmf.trials", "count"), ("rmf.sieve_passes", "count"), ("rmf.sieve_mb", "MiB"),
     ("rmf.exact_moment_2k.s", "s"), ("rmf.sample.s", "s"), ("rmf.values_upto.s", "s"),
     ("euler.mc_product_estimate.s", "s"), ("euler.mc_trials", "count"),
     ("euler.cosine_sum.s", "s"),
     ("fpoly.mul.calls", "count"), ("fpoly.terms.max", "count"),
     ("proxy.level_poly.s", "s"), ("proxy.level_poly.calls", "count"),
     ("proxy.level_poly.reuse", "ratio"), ("proxy.window_primes.max", "count"),
     ("proxy.proxy_weight.s", "s"), ("proxy.proxy_weight_all_chars.s", "s"),
     ("proxy.truncation_error_series.s", "s"), ("proxy.SampleSource.values_at.s", "s"),
     ("theta.theta_all.s", "s"), ("theta.theta_all.calls", "count"),
     ("theta.theta_all.per_q", "ratio"), ("theta.theta_moment.self_s", "s"),
     ("theta.even_theta_second_moment_oracle.s", "s"),
     ("theta.mellin_transform_check.s", "s")]
    + [(f"verify.suite.{s}.s", "s") for s in SUITES]
    + [("verify.check_parseval.s", "s"), ("verify.checks", "count"),
       ("verify.checks_failed", "count"),
       ("primes.primes_up_to.s", "s"), ("primes.primes_up_to.calls", "count")]
    + [(f"cli.{c}.s", "s") for c in SUBCOMMANDS]
    + [("cli.emit_kb", "KiB")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("spans", "count"), ("job_cpu_s", "s"), ("job_s.untraced", "s"),
       ("job_s.traced", "s"), ("trace_overhead_s", "s")]
)


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


# Sizes recorded at a boundary: fn(args, kwargs, result) -> attrs.  Objects
# kept in attrs under a leading underscore live only until the job ends.
def _q_x(a, kw, r):
    return {"q": _arg(a, kw, 0, "mod").q, "x": float(_arg(a, kw, 1, "x"))}


def _level_poly(a, kw, r):
    params, m = _arg(a, kw, 0, "params"), _arg(a, kw, 2, "m")
    lv = params.levels[m - 1]
    return {"_params": params, "_source": _arg(a, kw, 1, "source"), "m": m,
            "shift": int(_arg(a, kw, 3, "shift")), "lo": lv.lo, "hi": lv.hi}


ATTRS = {
    "modarith.build_modulus": lambda a, kw, r: {"q": r.q, "_mod": r},
    "charsum.all_char_sums_fft": _q_x,
    "charsum.all_char_sums_naive": _q_x,
    "charsum.weighted_char_sums": lambda a, kw, r: {"q": _arg(a, kw, 0, "mod").q},
    "rmf.partial_sums_batch": lambda a, kw, r: {
        "rows": len(_arg(a, kw, 0, "trial_seeds")), "x": int(math.floor(_arg(a, kw, 1, "x")))},
    "euler.mc_product_estimate": lambda a, kw, r: {"trials": int(_arg(a, kw, 1, "trials"))},
    "proxy.level_poly": _level_poly,
    "theta.theta_all": lambda a, kw, r: {"q": _arg(a, kw, 0, "mod").q},
    "fpoly.mul": lambda a, kw, r: {"terms": len(r)},
    "verify.run_suite": lambda a, kw, r: {"checks": len(r),
                                          "failed": sum(not c.passed for c in r)},
    "cli.main": lambda a, kw, r: {"command": _arg(a, kw, 0, "argv")[0],
                                  "emit_bytes": len(r[1])},
}


def _span_name(module: str, attr: str) -> str:
    if module == "verify" and attr.startswith("suite_"):
        return "verify.suite." + attr[len("suite_"):]
    return f"{module}.{attr}"


class Recorder:
    """Collects spans; ``run_traced`` wraps the layers for one job and restores them."""

    def __init__(self, package, harness):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._package = package
        self._harness = harness
        self._patches: list[tuple] = []
        self.slices: dict[int, range] = {}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs_of is not None:
                rec[5] = attrs_of(args, kwargs, result)
            return result
        return wrapper

    def _targets(self):
        """(span name, original) for every public function of each layer."""
        pkg = self._package
        for layer in LAYERS[:-1]:
            mod = getattr(pkg, layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield _span_name(layer, attr), obj
        yield "proxy.SampleSource.values_at", pkg.proxy.SampleSource.values_at
        yield "fpoly.mul", pkg.fpoly.FPoly.__mul__

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {id(fn): self._wrap(name, fn) for name, fn in self._targets()}
        pkg = self._package.__name__
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        modules.append(self._harness)  # the workloads import build_modulus by name too
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for owner in (self._package.proxy.SampleSource, self._package.fpoly.FPoly):
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrapped:
                    self._set(owner, attr, wrapped[id(obj)])
        suites = self._package.verify.SUITES
        for key, fn in list(suites.items()):
            self._set(suites, key, wrapped[id(fn)])
        self._set(self._harness, "run_cli", self._wrap("cli.main", self._harness.run_cli))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def run_traced(self, job_id: int, fn, *args):
        """fn(*args) under a root "job" span with every layer wrapped."""
        first = len(self.spans)
        self.install()
        self._job = job_id
        try:
            return self._wrap("job", fn)(*args)
        finally:
            self._job = None
            self.uninstall()
            self.slices[job_id] = range(first, len(self.spans))
            self._finish(self.slices[job_id])

    def _finish(self, span_range: range) -> None:
        """Replace live objects kept in attrs by the sizes they stand for."""
        ids: dict[int, int] = {}
        for i in span_range:
            a = self.spans[i][5]
            if not a:
                continue
            if "_mod" in a:
                m = a.pop("_mod")
                cached = vars(m)
                a["table_bytes"] = int(m.dlog.nbytes + sum(
                    cached[k].nbytes for k in ("exp_table", "roots") if k in cached))
            if "_source" in a:
                # the ids are distinct: every source and params object held
                # in attrs was alive at the same time, until this loop
                a["source"] = ids.setdefault(id(a.pop("_source")), len(ids))
                a["params"] = ids.setdefault(id(a.pop("_params")), len(ids))

    def job_metrics(self, job_id: int) -> dict[str, float]:
        return job_metrics(self.spans, self.slices[job_id])


# ---------------------------------------------------------------------------
# aggregation

def _primes_upto(n: int) -> np.ndarray:
    """Plain sieve, kept apart from the package's own cached one."""
    flags = np.ones(max(n + 1, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


@functools.lru_cache(maxsize=None)
def largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n) if n > 1 else best


@functools.lru_cache(maxsize=None)
def window_primes(lo: float, hi: float) -> int:
    """Primes p with lo < p <= hi, as the package's primes_in counts them."""
    return int(np.count_nonzero(_primes_upto(int(math.floor(hi))) > lo))


@functools.lru_cache(maxsize=None)
def sieve_work(x: int) -> tuple[int, int]:
    """(prime powers <= x, sum over them of floor(x / p^e)) for one sieve row."""
    passes = elems = 0
    for p in _primes_upto(x).tolist():
        pe = p
        while pe <= x:
            passes += 1
            elems += x // pe
            pe *= p
    return passes, elems


def job_metrics(spans: list[list], idx: range) -> dict[str, float]:
    """Every per-layer metric of one traced job, from its spans, except the untraced timings."""
    dur = {i: spans[i][2] - spans[i][1] for i in idx}
    child = defaultdict(float)
    for i in idx:
        if spans[i][3] >= 0:
            child[spans[i][3]] += dur[i]
    total, calls, self_s, layer_self = (defaultdict(float), defaultdict(int),
                                        defaultdict(float), defaultdict(float))
    by_name = defaultdict(list)  # name -> [(attrs, duration)] of spans with attrs
    for i in idx:
        name, _, _, parent, _, a = spans[i]
        calls[name] += 1
        s = dur[i] - child[i]
        self_s[name] += s
        if name != "job":
            layer_self[name.split(".")[0]] += s
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost call of this name
            total[name] += dur[i]
        if a:
            by_name[name].append((a, dur[i]))

    def attrs(name):
        return [a for a, _ in by_name[name]]

    m: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s") and name.count(".") >= 2:
            m[name] = self_s[name[:-len(".self_s")]]
        elif name.endswith(".s") and not name.startswith("cli."):
            m[name] = total[name[:-len(".s")]]
        elif name.endswith(".calls"):
            m[name] = calls[name[:-len(".calls")]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    m["modarith.table_mb"] = sum(a["table_bytes"] for a in attrs("modarith.build_modulus")) / MIB
    ffts = attrs("charsum.all_char_sums_fft")
    lengths = [a["q"] - 1 for a in ffts + attrs("charsum.weighted_char_sums")]
    lpf = [largest_prime_factor(n) for n in lengths]
    m["charsum.fft_len.max"] = max(lengths, default=0)
    m["charsum.fft_len.max_prime_factor"] = max(lpf, default=0)
    # pocketfft considers Bluestein only when the largest factor p has p^2 > n
    m["charsum.fft_calls.rough"] = sum(p * p > n for p, n in zip(lpf, lengths))
    m["charsum.fft_reuse"] = len({(a["q"], a["x"]) for a in ffts}) / len(ffts) if ffts else 0.0

    work = [(a["rows"], *sieve_work(a["x"])) for a in attrs("rmf.partial_sums_batch")]
    m["rmf.trials"] = sum(r for r, _, _ in work)
    m["rmf.sieve_passes"] = sum(p for _, p, _ in work)
    # each touched complex128 element is read and written once: 32 bytes
    m["rmf.sieve_mb"] = sum(r * e * 32 for r, _, e in work) / MIB
    m["euler.mc_trials"] = sum(a["trials"] for a in attrs("euler.mc_product_estimate"))
    m["fpoly.terms.max"] = max((a["terms"] for a in attrs("fpoly.mul")), default=0)

    polys = attrs("proxy.level_poly")
    keys = {(a["params"], a["source"], a["m"], a["shift"]) for a in polys}
    m["proxy.level_poly.reuse"] = len(keys) / len(polys) if polys else 0.0
    m["proxy.window_primes.max"] = max(
        (window_primes(a["lo"], a["hi"]) for a in polys), default=0)

    thetas = attrs("theta.theta_all")
    m["theta.theta_all.per_q"] = len(thetas) / len({a["q"] for a in thetas}) if thetas else 0.0

    suites = attrs("verify.run_suite")
    m["verify.checks"] = sum(a["checks"] for a in suites)
    m["verify.checks_failed"] = sum(a["failed"] for a in suites)

    for c in SUBCOMMANDS:
        m[f"cli.{c}.s"] = sum((d for a, d in by_name["cli.main"] if a["command"] == c), 0.0)
    m["cli.emit_kb"] = sum(a["emit_bytes"] for a in attrs("cli.main")) / 1024.0
    m["spans"] = len(idx)
    m["job_s.traced"] = total["job"]
    return m


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_job) for k in per_job[0]}
