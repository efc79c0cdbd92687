"""The program's layer boundaries, as the traced run instruments them.

:func:`instrument` patches each boundary with a :class:`~perfbench.trace.Tracer`
span and the counters an optimisation of that layer should move;
:func:`layer_metrics` turns the spans and counters into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import numpy as np

from perfbench.trace import Tracer

#: Span names whose self time is a program layer (the rest is benchmark phases).
LAYER_SPANS = (
    "calibration.history",
    "transpiler.compile",
    "simulator.density",
    "simulator.statevector",
    "qnn.train",
    "qnn.grad",
    "qnn.noisy_forward",
    "core.offline_eval",
    "core.cluster",
    "core.compress",
    "core.adapt",
    "runtime.evaluate_days",
    "serving.publish",
    "serving.swap",
)

_ENGINE_KEYS = ("program_hits", "program_builds", "bound_hits", "bound_builds")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.core.constructor as constructor_module
    import repro.experiments.context as context_module
    from repro.core.admm import NoiseAwareCompressor
    from repro.core.constructor import RepositoryConstructor
    from repro.core.manager import RepositoryManager
    from repro.qnn import QNNModel
    from repro.qnn.trainer import Trainer
    from repro.runtime import ExperimentRunner
    from repro.serving import InferenceService
    from repro.serving.registry import ModelRegistry
    from repro.simulator import DensityMatrixBackend, StatevectorBackend
    from repro.transpiler import PassManager

    counters = tracer.counters

    def counting(name):
        def on_exit(args, kwargs, result, token):
            counters[name] += 1

        return on_exit

    def engine_enter(args, kwargs):
        # Engine cache counters are read around the outermost simulator
        # call only, so nested backend calls are not counted twice.
        if tracer.inside("simulator."):
            return None
        stats = args[0].engine.stats
        return tuple(getattr(stats, key) for key in _ENGINE_KEYS)

    def engine_exit(prefix, state_position):
        def on_exit(args, kwargs, result, token):
            counters[f"{prefix}_calls"] += 1
            if token is not None:
                stats = args[0].engine.stats
                for key, old in zip(_ENGINE_KEYS, token):
                    counters[f"simulator.{key}"] += getattr(stats, key) - old
            if state_position is None:
                return
            states = kwargs.get("initial_states")
            if states is None and len(args) > state_position:
                states = args[state_position]
            if states is None:
                return
            states = np.asarray(states)
            rows = int(np.prod(states.shape[:-2]))
            counters["simulator.density_rows"] += rows
            # Computed, not measured: the live density super-batch of one call.
            itemsize = np.dtype(args[0].engine.complex_dtype).itemsize
            state_mb = rows * states.shape[-1] ** 2 * itemsize / 1e6
            counters["simulator.density_state_mb"] = max(
                counters["simulator.density_state_mb"], state_mb
            )

        return on_exit

    def compile_enter(args, kwargs):
        return args[0].stats.result_hits

    def compile_exit(args, kwargs, result, token):
        counters["transpiler.compile_calls"] += 1
        counters["transpiler.result_hits"] += args[0].stats.result_hits - token

    def adapt_exit(args, kwargs, result, token):
        counters["core.adapt_calls"] += 1
        counters["core.reuses"] += result.action == "reuse"

    def runner_snapshot(args, kwargs):
        stats = args[0].stats
        return stats.days_evaluated, stats.chunks, stats.cache_hits

    def runner_exit(args, kwargs, result, token):
        now = runner_snapshot(args, kwargs)
        for key, old, new in zip(("days_evaluated", "chunks", "cache_hits"), token, now):
            counters[f"runtime.{key}"] += new - old

    for function in (
        "generate_belem_history", "generate_jakarta_history", "generate_device_history"
    ):
        tracer.wrap(context_module, function, "calibration.history")
    tracer.wrap(constructor_module, "cluster_calibrations", "core.cluster")
    tracer.wrap(PassManager, "compile", "transpiler.compile", compile_enter, compile_exit)
    tracer.wrap(DensityMatrixBackend, "execute_batch", "simulator.density",
                engine_enter, engine_exit("simulator.density", 3))
    tracer.wrap(DensityMatrixBackend, "execute", "simulator.density",
                engine_enter, engine_exit("simulator.density", 2))
    for method in ("execute_batch", "execute"):
        tracer.wrap(StatevectorBackend, method, "simulator.statevector",
                    engine_enter, engine_exit("simulator.statevector", None))
    tracer.wrap(Trainer, "train", "qnn.train", on_exit=counting("qnn.train_calls"))
    for method in ("loss_and_gradient_batch", "loss_and_gradient"):
        tracer.wrap(QNNModel, method, "qnn.grad", on_exit=counting("qnn.grad_calls"))
    tracer.wrap(QNNModel, "forward_noisy_batch", "qnn.noisy_forward")
    tracer.wrap(RepositoryConstructor, "measure_day_accuracies", "core.offline_eval")
    tracer.wrap(NoiseAwareCompressor, "compress", "core.compress",
                on_exit=counting("core.compress_calls"))
    tracer.wrap(RepositoryManager, "adapt", "core.adapt", on_exit=adapt_exit)
    tracer.wrap(ExperimentRunner, "evaluate_days", "runtime.evaluate_days",
                runner_snapshot, runner_exit)
    tracer.wrap(ModelRegistry, "publish", "serving.publish",
                on_exit=counting("serving.publish_calls"))
    tracer.wrap(InferenceService, "observe_calibration", "serving.swap")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, serves, traced: dict, untraced: dict,
                  ref_kernel_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``serves`` are the traced run's serving outcomes, one per round, in
    order.  ``traced`` and ``untraced`` hold ``wall_s`` (every measured
    phase), ``fixed_s`` (set-ups, offline and online phases) and
    ``serve_rps`` of the traced run and of an untraced run of the same
    workload and seed.
    """
    self_ms = tracer.self_times_ms()
    counters = tracer.counters

    def ms(name):
        return self_ms.get(name, 0.0)

    # Each flush is one forward_noisy_batch on a dispatch thread.  Rounds
    # run one after another, so in start order the spans are round 1's
    # flushes by batch id, then round 2's, and so on.
    exec_ms = tracer.durations_ms("qnn.noisy_forward", thread_name="serving-dispatch")
    waits = []
    offset = 0
    for serve in serves:
        for result, latency in zip(serve.results, serve.latencies_ms):
            if result is not None and offset + result.batch_id < len(exec_ms):
                waits.append(latency - exec_ms[offset + result.batch_id])
        offset += serve.flushes
    flushes = sum(serve.flushes for serve in serves)
    completed = sum(serve.completed for serve in serves)
    full_flushes = sum(serve.full_flushes for serve in serves)
    layer_total_ms = sum(ms(name) for name in LAYER_SPANS)
    program = counters["simulator.program_hits"] + counters["simulator.program_builds"]
    bound = counters["simulator.bound_hits"] + counters["simulator.bound_builds"]

    return {
        "calibration.history_ms": (ms("calibration.history"), "ms"),
        "transpiler.compile_calls": (counters["transpiler.compile_calls"], "count"),
        "transpiler.compile_ms": (ms("transpiler.compile"), "ms"),
        "transpiler.pass_cache_hit_rate": (
            _ratio(counters["transpiler.result_hits"], counters["transpiler.compile_calls"]),
            "ratio",
        ),
        "simulator.density_calls": (counters["simulator.density_calls"], "count"),
        "simulator.density_rows": (counters["simulator.density_rows"], "count"),
        "simulator.density_ms": (ms("simulator.density"), "ms"),
        "simulator.density_state_mb": (counters["simulator.density_state_mb"], "MB"),
        "simulator.statevector_calls": (counters["simulator.statevector_calls"], "count"),
        "simulator.statevector_ms": (ms("simulator.statevector"), "ms"),
        "simulator.program_hit_rate": (
            _ratio(counters["simulator.program_hits"], program), "ratio"
        ),
        "simulator.bound_hit_rate": (_ratio(counters["simulator.bound_hits"], bound), "ratio"),
        "qnn.train_calls": (counters["qnn.train_calls"], "count"),
        "qnn.train_ms": (ms("qnn.train"), "ms"),
        "qnn.grad_calls": (counters["qnn.grad_calls"], "count"),
        "qnn.grad_ms": (ms("qnn.grad"), "ms"),
        "qnn.noisy_forward_ms": (ms("qnn.noisy_forward"), "ms"),
        "core.offline_eval_ms": (ms("core.offline_eval"), "ms"),
        "core.cluster_ms": (ms("core.cluster"), "ms"),
        "core.compress_calls": (counters["core.compress_calls"], "count"),
        "core.compress_ms": (ms("core.compress"), "ms"),
        "core.adapt_ms": (ms("core.adapt"), "ms"),
        "core.reuse_ratio": (_ratio(counters["core.reuses"], counters["core.adapt_calls"]), "ratio"),
        "runtime.evaluate_days_ms": (ms("runtime.evaluate_days"), "ms"),
        "runtime.days_evaluated": (counters["runtime.days_evaluated"], "count"),
        "runtime.chunks": (counters["runtime.chunks"], "count"),
        "runtime.cache_hits": (counters["runtime.cache_hits"], "count"),
        "serving.flushes": (flushes, "count"),
        "serving.mean_batch_size": (_ratio(completed, flushes), "count"),
        "serving.full_flush_ratio": (_ratio(full_flushes, flushes), "ratio"),
        "serving.exec_ms": (sum(exec_ms), "ms"),
        "serving.queue_wait_p50_ms": (float(np.median(waits)) if waits else 0.0, "ms"),
        "serving.publish_calls": (counters["serving.publish_calls"], "count"),
        "serving.swap_ms": (ms("serving.swap"), "ms"),
        "host.ref_kernel_ms": (ref_kernel_ms, "ms"),
        "trace.self_time_share": (_ratio(layer_total_ms / 1e3, untraced["wall_s"]), "ratio"),
        # Lifecycle time outside every layer span; the serving phase's own
        # self time is the client thread waiting on replies, so it is left out.
        "trace.unattributed_ms": (
            sum(ms(name) for name in ("phase.setup", "phase.offline", "phase.online")),
            "ms",
        ),
        "trace.overhead_pct": (100.0 * (traced["fixed_s"] / untraced["fixed_s"] - 1.0), "%"),
        "trace.serve_overhead_pct": (
            100.0 * (untraced["serve_rps"] / traced["serve_rps"] - 1.0), "%"
        ),
    }
