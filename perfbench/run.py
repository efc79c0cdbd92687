#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lifecycle-belem --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` beside this directory with every
``REPRO_*`` variable removed, so each run uses the program's defaults.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload untraced in a child process, then traced in this one, and prints
the per-layer metrics plus a Chrome trace file under ``perfbench/out/``.
A run is a fixed number of whole set-ups and rounds, so that every run does
the same work; ``--seconds`` is accepted for the command's interface, and
``run_seconds`` in ``BENCHMARK.json`` is the length such a run takes.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
is named on standard error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 170


def _strip_program_settings() -> dict[str, str]:
    """Remove ``REPRO_*`` variables so the program runs with its defaults."""
    removed = {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("REPRO_")}
    return removed


def environment(removed: dict[str, str]) -> dict:
    """What the run ran on: CPUs, interpreter, numpy/BLAS, thread settings."""
    import numpy

    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pools = None
    with contextlib.suppress(ImportError):
        from threadpoolctl import threadpool_info

        pools = [
            {key: pool.get(key) for key in ("internal_api", "version", "num_threads")}
            for pool in threadpool_info()
        ]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_pools": pools,
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repro_env_removed": removed,
    }


def ref_kernel_ms() -> float:
    """Median time of a fixed numpy kernel that uses nothing from the program.

    It shows a slow host: when it moves between runs, the program's
    figures moved with the host, not with the code.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    base = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    rho = rng.standard_normal((16, 32, 32)) + 0j
    times = []
    for _ in range(7):
        start = time.perf_counter()
        matrix = base
        for _ in range(40):
            matrix = matrix @ base
            matrix /= np.abs(matrix).max()
        for _ in range(20):
            rho = np.einsum("ij,bjk->bik", base[:32, :32], rho)
            rho /= np.abs(rho).max()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print every metric by name and unit, then the result line."""
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def measure(workload, seed: int, tracer=None):
    """Run the workload's set-ups and rounds, then its output checks."""
    import numpy as np

    from perfbench.checks import check_day_logits, check_decisions, check_serving
    from perfbench.workloads import run_workload

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    request_rng = np.random.default_rng([seed, 0])
    check_rng = np.random.default_rng([seed, 1])
    start = time.perf_counter()
    run = run_workload(workload, request_rng, span)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = run.rounds[-1]
    failures = []
    for round_ in run.rounds:
        failures += check_decisions(round_)
        checked = workload.check_requests if round_ is last else 0
        failures += check_serving(round_.serve, round_.eval_features, check_rng, checked)
    failures += check_day_logits(last, check_rng, workload.check_samples)
    if any(round_.signature() != last.signature() for round_ in run.rounds):
        failures.append("lifecycle_repeatable: rounds made different decisions or accuracies")
    phases = {
        "wall_s": wall,
        "fixed_s": sum(run.setup_seconds)
        + sum(round_.offline_seconds + round_.online_seconds for round_ in run.rounds),
        "serve_rps": serve_rps(run),
        "rounds": len(run.rounds),
    }
    return run, peak_rss_mb, failures, phases


def serve_rps(run) -> float:
    from perfbench.workloads import median

    return median(round_.serve.rps for round_ in run.rounds)


def operations(run) -> dict[str, tuple[int, int]]:
    """Per kind of operation: (attempted, failed)."""
    days = sum(len(round_.days) for round_ in run.rounds)
    serves = [round_.serve for round_ in run.rounds]
    return {
        "days_adapted": (days, 0),
        "days_evaluated": (days, 0),
        "requests": (sum(len(s.results) for s in serves), sum(s.failed_requests for s in serves)),
        "swaps": (sum(len(s.swap_ms) for s in serves), sum(s.failed_swaps for s in serves)),
    }


def end_to_end(run, peak_rss_mb: float) -> dict:
    """The end-to-end metrics: medians over set-ups, rounds or requests."""
    from perfbench.workloads import median, percentile

    rounds = run.rounds
    last = rounds[-1]
    return {
        "setup_s": (median(run.setup_seconds), "s"),
        "offline_s": (median(round_.offline_seconds for round_ in rounds), "s"),
        "online_s": (median(round_.online_seconds for round_ in rounds), "s"),
        "mean_accuracy": (last.mean_accuracy, "ratio"),
        "online_optimizations": (last.online_optimizations, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "serve_rps": (serve_rps(run), "1/s"),
        "latency_p50_ms": (
            median(percentile(round_.serve.latencies_ms, 50) for round_ in rounds), "ms"
        ),
    }


def untraced_child(args) -> dict:
    """The same workload and seed, untraced, in a fresh process: its phase walls."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT)
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"untraced run exited with {completed.returncode}")
    for line in completed.stdout.splitlines():
        if line.startswith("phases "):
            return json.loads(line[len("phases "):])
    raise RuntimeError("untraced run printed no phase timings")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted for the interface; a run is whole set-ups and rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    removed = _strip_program_settings()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's source {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, percentile

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    kernel_ms = ref_kernel_ms()
    env = environment(removed)
    env["host.ref_kernel_ms"] = kernel_ms
    print("env " + json.dumps(env))

    untraced = untraced_child(args) if args.trace else None
    tracer = None
    if args.trace:
        from perfbench.layers import instrument
        from perfbench.trace import Tracer

        tracer = Tracer()
        instrument(tracer)
    try:
        run, peak_rss_mb, failures, phases = measure(workload, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    print("phases " + json.dumps(phases))

    ops = operations(run)
    print("operations " + json.dumps({kind: {"attempted": a, "failed": f} for kind, (a, f) in ops.items()}))
    print(f"decisions {[day.decision.action for day in run.rounds[-1].days]}")
    serves = [round_.serve for round_ in run.rounds]
    # The tail and the swap time are printed but not benchmarked: on this
    # host they spread too widely across runs to bound (see perfbench/README.md).
    latencies = [value for serve in serves for value in serve.latencies_ms]
    swaps = [value for serve in serves for value in serve.swap_ms]
    print("serving " + json.dumps({
        "flushes": sum(serve.flushes for serve in serves),
        "full_flushes": sum(serve.full_flushes for serve in serves),
        "completed": sum(serve.completed for serve in serves),
        "latency_p99_ms": percentile(latencies, 99),
        "swap_p50_ms": percentile(swaps, 50),
    }))
    if tracer is not None:
        from perfbench.layers import layer_metrics

        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"trace {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        metrics = layer_metrics(tracer, serves, phases, untraced, kernel_ms)
    else:
        metrics = end_to_end(run, peak_rss_mb)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    emit(
        not failures,
        sum(attempted for attempted, _ in ops.values()),
        sum(failed for _, failed in ops.values()),
        metrics,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
