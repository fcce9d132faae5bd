"""nlasim benchmark: one workload per process, single-client closed loop.

    python3 bench/run.py --workload distill_dense --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed list of ops twice, untraced and then traced, and reports the
per-layer span metrics and the tracing overhead. The last line of stdout
is the JSON result; the lines before it are a human-readable report and
the machine record. See bench/README.md.
"""

from __future__ import annotations

import argparse
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

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to measure setup_s; the median is reported.
SETUP_PROBES = 7
#: Whole cycles run by each pass of ``--trace 1``; fixed so span counts repeat.
TRACE_CYCLES = {"distill_dense": 1, "amplify_pure": 200, "oracle": 5}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_nlasim():
    """Import nlasim from this checkout's ``src`` and nowhere else."""
    if not (SRC / "nlasim" / "__init__.py").is_file():
        raise SystemExit(f"nlasim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlasim
    from nlasim import cli, verification

    if Path(nlasim.__file__).resolve().parent != SRC / "nlasim":
        raise SystemExit(f"imported nlasim from {nlasim.__file__}, not {SRC}")
    return cli, verification


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision, dirty = "unknown", None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, env=env, timeout=30)
        if rev.returncode == 0:
            revision, dirty = rev.stdout.strip(), bool(status.stdout.strip())
    cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        # experiments._pool_map uses min(8, cpu_count, points) threads
        "pool_map_max_workers": min(8, cpus),
        "git_revision": revision,
        "git_dirty": dirty,
    }


def run_ops(ops, modules, reference=None, recorder=None, first_index=0):
    """Run ``ops`` back to back; return (latencies of passing ops, failures).

    An op fails if it raises, exits nonzero or fails its check; failures
    are counted, never raised.
    """
    latencies, failures = [], []
    for i, op in enumerate(ops, start=first_index):
        if recorder is not None:
            recorder.begin_op(i)
        start = time.perf_counter()
        try:
            table = workloads.execute(op, modules)
            elapsed = time.perf_counter() - start
            workloads.check(op, table)
            if reference is not None and i < len(reference):
                workloads.compare_reference(op, table, reference[i])
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            failures.append(f"op {i} ({op.label()}): {type(exc).__name__}: {exc}")
            if not isinstance(exc, workloads.CheckFailed):
                traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if recorder is not None:
                recorder.end_op()
        latencies.append(elapsed)
    return latencies, failures


def measure_setup(workload: str, seed: int):
    """Wall times of fresh interpreters that import nlasim and finish the
    workload's first op, and the failures of the probes whose op failed."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    times, failures = [], []
    for probe in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failures.append(f"setup probe {probe}: exit code {proc.returncode}: "
                            + " | ".join(proc.stderr.strip().splitlines()[-3:]))
    return times, failures


def tail_latency(samples):
    """Highest of a few standard percentiles with at least ten samples
    beyond it; None below 100 samples."""
    n = len(samples)
    if n < 100:
        return None
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return pct, cut[int(round(pct * 10)) - 1]
    return None


def run_timed(args, modules, reference):
    setup, failures = measure_setup(args.workload, args.seed)
    stream = workloads.cycles(args.workload, args.seed)
    # an untimed first cycle fills the caches of every op kind
    warm = next(stream)
    failures += run_ops(warm, modules, reference)[1]
    latencies, index = [], len(warm)
    start = time.perf_counter()
    while True:
        cycle = next(stream)
        lat, fail = run_ops(cycle, modules, reference, first_index=index)
        latencies += lat
        failures += fail
        index += len(cycle)
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    attempted = len(setup) + index  # probes and warm-up ops count too
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(latencies) / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else float("nan"),
        "peak_rss_mb": rss_mb,
    }
    tail = tail_latency(latencies)
    report = {
        "workload": args.workload, "seed": args.seed, "wall_s": wall,
        "attempted": attempted, "timed_ops_passed": len(latencies),
        "failed_ratio": len(failures) / attempted,
        "latency_tail_ms": None if tail is None else 1e3 * tail[1],
        "latency_tail_percentile": None if tail is None else tail[0],
        "latency_tail_samples": len(latencies),
        "setup_probes_s": setup,
        "reference_checked_ops": min(index, len(reference or ())),
    }
    return metrics, report, attempted, failures


def run_traced(args, modules, reference):
    from tracing import SpanRecorder

    stream = workloads.cycles(args.workload, args.seed)
    warm = next(stream)
    _, failures = run_ops(warm, modules, reference)
    ops = [op for _ in range(TRACE_CYCLES[args.workload]) for op in next(stream)]
    first = len(warm)
    start = time.perf_counter()
    _, fail = run_ops(ops, modules, reference, first_index=first)
    untraced = time.perf_counter() - start
    failures += fail
    with SpanRecorder("nlasim") as recorder:
        start = time.perf_counter()
        _, fail = run_ops(ops, modules, reference, recorder=recorder, first_index=first)
        traced = time.perf_counter() - start
    failures += fail
    layers = recorder.summary()
    layers.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                   "trace.overhead_s": traced - untraced, "trace.ops": len(ops),
                   "trace.spans": len(recorder.spans)})
    return layers, len(warm) + 2 * len(ops), failures


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    modules = import_nlasim()
    reference = (workloads.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    if args.trace:
        layers, attempted, failures = run_traced(args, modules, reference)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        print(json.dumps({"per_layer_all": layers}, sort_keys=True))
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in names}
    else:
        values, report, attempted, failures = run_timed(args, modules, reference)
        print(json.dumps({"report": report}, sort_keys=True))
        for m in spec["end_to_end"]:
            print(f"{m['name']:>24} {values[m['name']]:14.6g} {m['unit']}")
        print(f"{'failed_ratio':>24} {report['failed_ratio']:14.6g} ratio")
        tail = report["latency_tail_ms"]
        print(f"{'latency_tail_ms':>24} " + (
            f"{tail:14.6g} ms (p{report['latency_tail_percentile']:g} of "
            f"{report['latency_tail_samples']} ops)" if tail is not None else
            f"{'n/a':>14} (fewer than 100 ops: {report['latency_tail_samples']})"))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"machine": machine_record()}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
