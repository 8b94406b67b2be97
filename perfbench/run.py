"""Benchmark of the lattice_qre package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

One process acts as one closed-loop client: one op at a time, no threads.
With ``--trace 0`` a run measures the end-to-end metrics; with
``--trace 1`` it executes the workload's core set once with the per-layer
wrappers installed (see tracing.py) and reports the per-layer metrics.
Every op's output is checked (see workloads.py).  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  A ``host`` line
before it records the machine: reference-loop times at the start and end
of the run, CPU count and model, load average and library versions.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5     # fresh processes per run; setup_s is their median
IMPORT_REPEATS = 5    # fresh `-X importtime` interpreters per traced run
CHILD_TIMEOUT_S = 120.0
# The host changes speed in phases of tens of seconds, by up to 80% (a
# fixed loop timed in 5 s windows ranged from 6.1 to 11.5 ms).  Op times are
# therefore reported at a reference speed (raw wall time is printed beside
# them): each latency is scaled by
# REF_NOMINAL_S over the time of a fixed loop run just before the op (the
# median over the op and its REF_WINDOW neighbours on each side).  Code changes
# in the package do not touch the loop, so the scaled figures keep them
# and drop most of the host's drift.  REF_NOMINAL_S is the loop's time on
# the host that set the bounds, in a fast phase.
REF_ITERS = 30_000
REF_NOMINAL_S = 0.002
REF_WINDOW = 5

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s_at_ref": "1/s", "op_p50_ms_at_ref": "ms",
    "toffoli_geomean": "Toffoli", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def reference_loops() -> dict[str, float]:
    """Best of three timings of a fixed pure-Python and a fixed numpy loop."""
    import numpy as np

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    values = np.random.default_rng(0).random(100_000)

    def numpy_loop():
        out = values
        for _ in range(20):
            out = np.sqrt(out * out + values)
        return float(out[0])

    def best(loop):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        return 1000.0 * min(times)

    return {"ref_py_ms": best(python_loop), "ref_np_ms": best(numpy_loop)}


def host_record(start: dict, end: dict) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "ref_start": start, "ref_end": end,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total = 0
    for k in range(REF_ITERS):
        total += k * k
    return time.perf_counter() - start


def at_reference_speed(latencies: list[float], refs: list[float]) -> list[float]:
    """Latencies scaled to the reference speed (see REF_NOMINAL_S)."""
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        out.append(latency * REF_NOMINAL_S / local)
    return out


def op_times(latencies: list[float], core: int) -> list[float]:
    """Each core op's latency as the median of its repeats in the run (op
    i of the run is core op i % core), so that a burst of load on the
    shared host during one repeat does not count."""
    return [statistics.median(latencies[i::core]) for i in range(core)]


def measure_setup(workloads, workload: str, seed: int) -> float:
    """Median spawn-to-ready time of fresh processes doing the set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
            cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return statistics.median(samples)


def run_ops(workloads, workload, items, seconds, traced, tracer=None):
    """Execute the core set once, then (untraced) cycle until time is up.

    Returns the items run, their outputs, their latencies and the times of
    the reference loop run before each (all in seconds)."""
    from child import TRACE_MARK

    done, outputs, latencies, refs = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(items) or (not traced and time.perf_counter() < deadline):
        item = items[i % len(items)]
        refs.append(reference_loop())
        start = time.perf_counter()
        try:
            output = workloads.run_op(workload, item, traced)
        except Exception as exc:  # a failing op is counted, not fatal
            output = exc
        latencies.append(time.perf_counter() - start)
        if traced and workload == "cold-cli" and not isinstance(output, Exception):
            code, out, err = output
            head, _, record = err.rpartition(TRACE_MARK)
            if record:
                tracer.merge(json.loads(record))
            output = (code, out, head)
        done.append(item)
        outputs.append(output)
        i += 1
    return done, outputs, latencies, refs


def check_outputs(workloads, workload, done, outputs) -> list[list[str]]:
    references = {}
    if workload == "cold-cli":
        references = workloads.reference_estimates(set(done))
    problems = []
    for item, output in zip(done, outputs):
        try:
            if isinstance(output, Exception):
                raise output
            problems.append(workloads.check_op(workload, item, output, references))
        except Exception as exc:  # an output the checks cannot handle fails
            problems.append([f"raised {type(exc).__name__}: {exc}"])
    return problems


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One run; returns (result object, host record)."""
    import tracing
    import workloads

    ref_start = reference_loops()
    items = workloads.make_inputs(workload, seed)
    with tracing.Tracer() as tracer:
        if traced:
            tracing.install(tracer)
        done, outputs, latencies, refs = run_ops(workloads, workload, items, seconds,
                                                 traced, tracer)
    # read before the set-up probes below, which are children too
    rss_of = resource.RUSAGE_CHILDREN if workload == "cold-cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_of).ru_maxrss / 1024.0
    problems = check_outputs(workloads, workload, done, outputs)
    failed = sum(1 for p in problems if p)
    for item, p in zip(done, problems):
        if p:
            print(f"FAILED {workload} {item}: {'; '.join(p)}", file=sys.stderr)

    core = len(items)
    metrics = {}
    if traced:
        metrics.update(tracing.layer_metrics(tracer))
        metrics["trotter_cost.cells_moved"] = (
            workloads.cells_moved(done, outputs, workloads.load_snapshot())
            if workload == "paper-tables" else 0)
        metrics["trotter_cost.r_cap_hits"] = (
            workloads.cap_probe_hits() if workload == "precision-scan" else 0)
        metrics.update(tracing.measure_imports(ROOT, workloads.child_env(), IMPORT_REPEATS))
        metrics["trace.ops_per_s_at_ref"] = core / sum(
            op_times(at_reference_speed(latencies, refs), core))
    else:
        totals = [t for item, output in zip(done[:core], outputs[:core])
                  if not isinstance(output, Exception)
                  for t in workloads.op_totals(workload, item, output)]
        metrics["setup_s"] = measure_setup(workloads, workload, seed)
        raw = op_times(latencies, core)
        print(f"raw wall time: ops_per_s {core / sum(raw):.6g} 1/s, "
              f"op_p50_ms {1000.0 * statistics.median(raw):.6g} ms")
        times = op_times(at_reference_speed(latencies, refs), core)
        metrics["ops_per_s_at_ref"] = core / sum(times)
        metrics["op_p50_ms_at_ref"] = 1000.0 * statistics.median(times)
        metrics["toffoli_geomean"] = geomean(totals)
        metrics["peak_rss_mb"] = peak_rss_mb
    ref_end = reference_loops()
    if traced:
        metrics["host.ref_py_ms"] = (ref_start["ref_py_ms"] + ref_end["ref_py_ms"]) / 2.0
        metrics["host.ref_np_ms"] = (ref_start["ref_np_ms"] + ref_end["ref_np_ms"]) / 2.0
    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, host_record(ref_start, ref_end)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name == "trace.ops_per_s_at_ref":
        return "1/s"
    return "count"


def print_result(workload: str, result: dict) -> None:
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, metric in result["metrics"].items():
        note = f"  (n={result['attempted']})" if name == "op_p50_ms_at_ref" else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{note}")


def run_every_workload(args) -> int:
    """Run each workload in its own process and summarize."""
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print_result(workload, result)
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lattice_qre" / "__init__.py").is_file():
        print(f"error: no lattice_qre package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_every_workload(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    result, host = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("host " + json.dumps(host))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
