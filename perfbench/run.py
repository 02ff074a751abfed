"""Benchmark of the hyperharmonic verifier.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. One process, one thread, a closed loop with one client:
each op starts when the previous one has returned. Passes over the
workload's ops repeat until the next one would overrun --seconds (at
least MIN_PASSES). Set-up is sampled in fresh processes, one at a time.
End-to-end times are scaled by a reference kernel read during the run
(see refkernel.py) and take each op's lower median over the passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same untraced
passes, then one traced pass, and prints the per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import microbench
import refkernel
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MIN_PASSES = 2
BUILD_REPEATS = 7
REF_EVERY_NS = 50_000_000  # gap between reference-kernel readings in a pass


def percentile(sorted_vals, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def setup_seconds(workload: str, seed: int, reg_seed: int) -> float:
    """Median over fresh processes of import + build_registry + one op."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
           str(seed), str(reg_seed)]
    # imports read the bytecode cache, as after an install, whatever the
    # calling environment says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if i:  # the first probe also writes the bytecode cache
            samples.append(float(done.stdout))
    return statistics.median(samples)


class Pass:
    def __init__(self, wall_ns: int, outcomes: list, readings: list):
        self.wall_s = wall_ns / 1e9
        self.outcomes = outcomes
        # (index of the next op, reference-kernel reading in ns)
        self.readings = readings

    def op_ref_ns(self) -> list:
        """Per op, the mean of the readings taken just before and after it."""
        refs, j = [], 0
        for i in range(len(self.outcomes)):
            while self.readings[j + 1][0] <= i:
                j += 1
            refs.append((self.readings[j][1] + self.readings[j + 1][1]) / 2)
        return refs

    def normalized_wall_s(self) -> float:
        ref = statistics.median(r for _, r in self.readings)
        return self.wall_s * refkernel.REF_NS / ref


def run_pass(hh, cli, regs, ops, tracer=None) -> Pass:
    outcomes, readings = [], []
    gc.collect()
    t0 = time.perf_counter_ns()
    root = tracer.open("bench.pass", "bench") if tracer else None
    last = 0
    for i, op in enumerate(ops):
        if time.perf_counter_ns() - last >= REF_EVERY_NS:
            readings.append((i, refkernel.reading()))
            last = time.perf_counter_ns()
        if tracer is None:
            outcomes.append(wl.run_op(hh, cli, regs, op))
        else:
            tracer.op = i
            outcomes.append(tracer.call("bench.op", "bench", wl.run_op,
                                        hh, cli, regs, op))
    readings.append((len(ops), refkernel.reading()))
    if tracer:
        tracer.close(root)
    return Pass(time.perf_counter_ns() - t0, outcomes, readings)


def timed_passes(hh, cli, regs, ops, seconds: float) -> list:
    """At least MIN_PASSES passes, then more until the next would overrun."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(hh, cli, regs, ops))
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + passes[-1].wall_s > seconds):
            return passes


def op_ns(passes) -> list:
    """Each op's normalized latency: the lower median over the passes.

    The lower median is the faster sample when there are two passes (a
    pass that straddles a change of host speed is normalized worst) and
    the median when there are many.
    """
    scaled = [[o.ns * refkernel.REF_NS / ref
               for o, ref in zip(p.outcomes, p.op_ref_ns())] for p in passes]
    return [statistics.median_low(col) for col in zip(*scaled)]


def end_to_end(passes, setup_s) -> dict:
    outs = [o for p in passes for o in p.outcomes]
    per_op = op_ns(passes)
    pass_s = sum(per_op) / 1e9
    lat = sorted(ns / 1e6 for ns in per_op)
    failed = sum(o.status != wl.OK for o in outs)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "ops_per_s": (len(per_op) / pass_s, "1/s"),
        "op_ms.p50": (percentile(lat, 0.50), "ms"),
        "op_ms.p90": (percentile(lat, 0.90), "ms"),
        "terms_per_pass": (sum(o.terms for o in passes[0].outcomes), "count"),
        "certified_frac": (1.0 - failed / len(outs), "fraction"),
        "err_over_tol.max": (max(o.err_over_tol for o in outs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Pass, overhead_s, micro, build_s) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    root = tracer.spans[0]
    root_s = (root.end - root.start) / 1e9
    own = tracer.self_times()
    self_ns = defaultdict(int)
    for s, o in zip(tracer.spans, own):
        self_ns[s.layer] += o
    calls = defaultdict(int)
    terms = defaultdict(int)
    busy = defaultdict(int)   # ns of spans that returned, per series path
    raised = converged = 0
    tail_max = 0.0
    for s in tracer.spans:
        calls[s.name] += 1
        if s.layer != "series":
            continue
        path = s.attrs["path"]
        calls["series." + path] += 1
        if s.attrs["raised"]:
            raised += 1
            continue
        terms[path] += s.attrs["terms"]
        busy[path] += s.end - s.start
        converged += s.attrs["converged"]
        tail_max = max(tail_max, s.attrs["tail_over_tol"])
    n_series = calls["series.accel"] + calls["series.direct"]
    expr = [s for s in tracer.spans if s.layer == "expr"]
    bytes_out = sum(o.bytes_out for o in traced.outcomes)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for path in ("accel", "direct"):
        m[f"series.{path}.calls"] = (calls["series." + path], "count")
        m[f"series.{path}.terms"] = (terms[path], "count")
        m[f"series.{path}.terms_per_call"] = (
            ratio(terms[path], calls["series." + path]), "count")
        m[f"series.{path}.ns_per_term"] = (ratio(busy[path], terms[path]), "ns")
    m.update({
        "series.self_s": (self_ns["series"] / 1e9, "s"),
        "series.raised": (raised, "count"),
        "series.converged_frac": (ratio(converged, n_series), "fraction"),
        "series.tail_over_tol.max": (tail_max, "ratio"),
        "specialfn.calls": (sum(1 for s in tracer.spans
                                if s.layer == "specialfn"), "count"),
        "specialfn.self_s": (self_ns["specialfn"] / 1e9, "s"),
    })
    for name, ns in micro.items():
        m[f"specialfn.{name}.ns_per_call"] = (ns, "ns")
    m.update({
        "expr.evals": (len(expr), "count"),
        "expr.self_s": (self_ns["expr"] / 1e9, "s"),
        "expr.us_per_eval": (ratio(sum(s.end - s.start for s in expr),
                                   len(expr)) / 1e3, "us"),
        "catalog.build_registry_s": (build_s, "s"),
        "catalog.verify_calls": (calls["hyperharmonic.verify"]
                                 + calls["cli.verify"], "count"),
        "catalog.self_s": (self_ns["catalog"] / 1e9, "s"),
        "cli.invocations": (calls["cli.main"], "count"),
        "cli.self_s": (self_ns["cli"] / 1e9, "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "cli.ns_per_byte": (ratio(self_ns["cli"], bytes_out), "ns"),
        "bench.self_s": (self_ns["bench"] / 1e9, "s"),
        "trace.pass_s": (root_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m


def self_times_add_up(tracer) -> bool:
    """Layer self times plus the benchmark's remainder equal the root span."""
    root = tracer.spans[0]
    return sum(tracer.self_times()) == root.end - root.start


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package():
    if not (SRC / "hyperharmonic" / "__init__.py").is_file():
        sys.exit(f"no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hyperharmonic as hh
    import hyperharmonic.cli as cli
    if not Path(hh.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported hyperharmonic from {hh.__file__}, not {SRC}")
    return hh, cli


def traced_run(hh, cli, regs, ops, args, reg_seed, untraced_pass_s, env):
    """One traced pass; returns it, its per-layer metrics and whether the
    self times add up. Spans and metrics are written under OUT."""
    micro = microbench.run(hh.specialfn, regs, args.seed)
    build = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        hh.build_registry(reg_seed)
        build.append(time.perf_counter() - t0)
    tracer = spans.Tracer()
    tracer.install(hh)
    try:
        traced = run_pass(hh, cli, regs, ops, tracer)
    finally:
        tracer.uninstall()
    overhead_s = traced.normalized_wall_s() - untraced_pass_s
    metrics = per_layer(tracer, traced, overhead_s, micro,
                        statistics.median(build))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "seed": args.seed,
         "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1))
    return traced, metrics, self_times_add_up(tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--registry-seed", type=int, default=None,
                    help="verify-all only: check the registry at this seed "
                         "instead of the package default (held-out checks)")
    args = ap.parse_args(argv)
    if args.registry_seed is not None and args.workload != "verify-all":
        ap.error("--registry-seed applies to verify-all only")
    os.environ.pop("HYPERHARMONIC_SEED", None)  # would override --seed in cli

    hh, cli = import_package()
    if args.workload != "verify-all":
        reg_seed = args.seed
    elif args.registry_seed is None:
        reg_seed = hh.DEFAULT_SEED
    else:
        reg_seed = args.registry_seed
    env = environment()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed,
                                                    reg_seed)
    regs, ops = wl.build_inputs(hh, args.workload, args.seed, reg_seed)
    warm = wl.run_op(hh, cli, regs, wl.warmup_op(args.workload, regs[0], args.seed))
    passes = timed_passes(hh, cli, regs, ops, args.seconds)
    runs = list(passes)
    consistent = True
    if args.trace:
        untraced_s = statistics.median(p.normalized_wall_s() for p in passes)
        traced, metrics, consistent = traced_run(hh, cli, regs, ops, args,
                                                 reg_seed, untraced_s, env)
        runs.append(traced)
    else:
        metrics = end_to_end(passes, setup_s)
    deterministic = all(p.outcomes == runs[0].outcomes for p in runs)

    outs = [o for p in runs for o in p.outcomes]
    failed = sum(o.status != wl.OK for o in outs)
    wrong = sum(o.status in (wl.MISMATCH, wl.RECHECK) for o in outs)
    correct = (warm.status == wl.OK and deterministic and consistent
               and wrong == 0)

    print(f"workload {args.workload}  seed {args.seed}  registry seed "
          f"{reg_seed}  passes {len(passes)}  ops/pass {len(ops)}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    refs = [r for p in runs for _, r in p.readings]
    print(f"raw pass wall time (median) "
          f"{statistics.median(p.wall_s for p in passes):.6g} s; reference "
          f"kernel (median of {len(refs)}) {statistics.median(refs) / 1e3:.6g} us,"
          f" nominal {refkernel.REF_NS / 1e3:g} us")
    print(f"failed_frac {failed / len(outs):.6g}  (raised "
          f"{sum(o.status == wl.RAISED for o in outs)}, mismatched "
          f"{sum(o.status == wl.MISMATCH for o in outs)}, re-check "
          f"{sum(o.status == wl.RECHECK for o in outs)} of {len(outs)})")
    if not deterministic:
        print("INVALID: op outcomes or terms differ between passes")
    if not consistent:
        print("INVALID: span self times do not add up to the traced pass")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(outs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
