#!/usr/bin/env python3
"""Benchmark of the slumpgp CLI: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

One process measures one workload in a closed loop: it calls
`slumpgp.cli.main(argv)` in-process, one invocation at a time, each with
inputs generated from the seed that no earlier invocation saw, until
--seconds have passed and at least the workload's minimum count has run.
Every invocation's artifacts are checked (see workloads.py); a failed check,
an exception or a non-zero exit counts as a failed invocation.

With --trace 0 the result holds the `end_to_end` metrics of BENCHMARK.json;
with --trace 1 it holds the `per_layer` metrics: each invocation runs once
untraced and once traced (order alternating), the two must write identical
artifacts, and the traced one times the layer calls (see tracer.py).

Human-readable lines come first; the last line of standard output is the
JSON result. The run exits 2 without a result when set-up fails, for example
when the slumpgp sources are missing.
"""

import os

# One BLAS thread, set before numpy loads; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import workloads  # imports slumpgp from the checkout's src/
    from slumpgp import cli
    from tracer import Tracer
except ImportError as _exc:
    print(f"error: cannot import the program: {_exc}", file=sys.stderr)
    sys.exit(2)

SETUP_REPEATS = 5  # set-up runs per untraced run; setup_s is their median
SETUP_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_setup(args) -> float:
    """Set the workload up in a fresh process; return its wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    start = perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # A blocking wait returns as the child exits; a wait with a timeout polls
    # in steps of up to 50 ms, which would quantize the measured time.
    killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    seconds = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up exited with {code}")
    return seconds


class Op:
    """One CLI invocation: timings, exit status and the artifacts it wrote."""

    def __init__(self, main, argv):
        shutil.rmtree(workloads.OUT, ignore_errors=True)
        cpu0, start = cpu_seconds(), perf_counter()
        try:
            self.code = main(argv)
        except SystemExit as exc:
            self.code = exc.code
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc()
            self.code = "exception"
        self.wall = perf_counter() - start
        self.cpu = cpu_seconds() - cpu0
        self.hashes = workloads.artifact_hashes(workloads.OUT)
        self.bytes = workloads.artifact_bytes(workloads.OUT)


def problems(wl, i, op) -> list[str]:
    found = [f"exit status {op.code!r}"] if op.code != 0 else wl.check(i, op.hashes)
    for p in found:
        print(f"invocation {i} failed: {p}", file=sys.stderr)
    return found


def measure(wl, seconds, measured):
    """Closed loop of untraced invocations; returns (ops, failures)."""
    ops, failed = [], 0
    start = perf_counter()
    while len(ops) < measured or perf_counter() - start < seconds:
        i = len(ops)
        ops.append(Op(cli.main, wl.argv(i)))
        failed += bool(problems(wl, i, ops[-1]))
    return ops, failed


def measure_traced(wl, seconds, measured, tracer):
    """Pairs of untraced and traced invocations on the same inputs, order alternating.

    Returns (untraced ops, traced ops, per-invocation layer totals, failures).
    """
    traced_main = tracer.wrap("cli.main", cli.main)
    plain, traced, layers, failed = [], [], [], 0
    start = perf_counter()
    while len(plain) < measured or perf_counter() - start < seconds:
        i = len(plain)
        argv = wl.argv(i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.begin(i)
                with tracer.installed():
                    traced.append(Op(traced_main, argv))
                layers.append(tracer.finish())
            else:
                plain.append(Op(cli.main, argv))
        failed += bool(problems(wl, i, plain[-1]))
        found = problems(wl, i, traced[-1])
        if traced[-1].hashes != plain[-1].hashes:
            print(f"invocation {i}: traced artifacts differ from untraced", file=sys.stderr)
            found.append("traced artifacts differ")
        failed += bool(found)
    return plain, traced, layers, failed


def end_to_end(ops, setup_times) -> dict:
    """Means over the measured invocations; see README.md, "End-to-end metrics"."""
    return {
        "op_s": statistics.fmean(op.wall for op in ops),
        "op_cpu_s": statistics.fmean(op.cpu for op in ops),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_bytes": statistics.median(op.bytes for op in ops),
    }


def per_layer(names, plain, traced, layers) -> dict:
    """Means over the measured invocations; unlike medians they add up along the span tree."""
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = (statistics.fmean(op.wall for op in traced)
                            / statistics.fmean(op.wall for op in plain))
        else:
            values[name] = statistics.fmean(layer.get(name, 0) for layer in layers)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_only:
        wl.setup()
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(workloads.WORK, exist_ok=True)
    try:
        setup_times = [run_setup(args) for _ in range(1 if args.trace else SETUP_REPEATS)]
    except RuntimeError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    print("set-up " + ", ".join(f"{t:.4f} s" for t in setup_times))
    if args.trace:
        # Each measured input runs twice, so a traced run measures a third as many.
        k = max(2, wl.measured_ops // 3)
        tracer = Tracer()
        ops, traced, layers, failed = measure_traced(wl, args.seconds, k, tracer)
        attempted = len(ops) + len(traced)
        wanted = bench["per_layer"]
        values = per_layer([m["name"] for m in wanted], ops[:k], traced[:k], layers[:k])
        trace_path = os.path.join(workloads.WORK, f"trace-{args.workload}.json")
        tracer.write(trace_path)
        print(f"spans written to {trace_path}; missing bindings: {tracer.missing or 'none'}")
    else:
        k = wl.measured_ops
        ops, failed = measure(wl, args.seconds, k)
        attempted = len(ops)
        wanted = bench["end_to_end"]
        values = end_to_end(ops[:k], setup_times)

    for i, op in enumerate(ops):
        note = "" if i < k else " (checked, not measured)"
        print(f"  invocation {i}: {op.wall:.4f} s wall, {op.cpu:.4f} s cpu, {op.bytes} bytes{note}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} invocations, "
          f"{failed} failed, fail_ratio {failed / attempted:.4f}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
