"""The benchmark's workloads and the rounds every workload runs.

Every workload is a QuCAD deployment, run whole through the program's
public API with its defaults (runner mode, dtype, kernel, ``BatchPolicy``).
A run first does the **set-up** — :func:`repro.experiments.prepare_experiment`
(dataset, calibration history, device binding, base-model training) —
:data:`SETUP_REPEATS` times, then runs :data:`ROUNDS` whole **rounds** on the
last set-up.  Each round is a fresh deployment:

1. **offline** — a new :class:`QuCAD` runs :meth:`QuCAD.offline` over the
   offline history;
2. **online** — :meth:`QuCAD.evaluate_over`, one online day at a time, with
   the default runner;
3. **serve** — a new :class:`~repro.serving.InferenceService` serves the
   model for ``serve_cycles`` cycles over the online days.  A closed loop
   keeps ``outstanding`` single-sample ``predict_async`` requests in flight
   from one thread.  For each day it sends ``requests_per_swap`` requests,
   then that day's calibration goes through ``observe_calibration`` while
   they run.  The watcher's adapter hands back the parameters QuCAD chose
   for that day, so serving trains nothing.

The host's speed wanders by tens of percent over seconds, so each metric
is a median over set-ups, rounds or cycles rather than one long sample.
Every set-up and every round starts from a fresh process-wide engine and
pass manager, so each compiles and builds its programs cold, as a new
deployment would.
The experiment itself (dataset, history, model, training) uses the
scale's fixed seed, so ``mean_accuracy`` and ``online_optimizations``
repeat exactly; ``--seed`` draws the request stream and the samples the
output checks recompute.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

import numpy as np

from repro.core import QuCAD
from repro.experiments import BENCH_SCALE, ExperimentScale, prepare_experiment
from repro.serving import InferenceService
from repro.simulator import set_default_engine
from repro.transpiler import set_default_pass_manager

#: A request not answered within this many seconds counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Rounds per run; the round metrics are medians over them.
ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what to build and how to load it."""

    name: str
    dataset: str
    device: str
    scale: ExperimentScale
    #: Cycles over the online days served per round.
    serve_cycles: int
    outstanding: int
    requests_per_swap: int
    #: Eval samples of one online day recomputed by the independent walk.
    check_samples: int
    #: Served requests recomputed by the independent walk.
    check_requests: int


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="lifecycle-belem",
            dataset="mnist4",
            device="belem",
            scale=BENCH_SCALE.with_overrides(
                offline_days=8, online_days=4, eval_samples=32, num_clusters=2
            ),
            serve_cycles=2,
            outstanding=32,
            requests_per_swap=32,
            check_samples=4,
            check_requests=4,
        ),
        Workload(
            name="fig8-jakarta",
            dataset="seismic",
            device="jakarta",
            scale=BENCH_SCALE.with_overrides(
                offline_days=4, online_days=2, eval_samples=6, num_clusters=2
            ),
            serve_cycles=2,
            outstanding=4,
            requests_per_swap=4,
            check_samples=2,
            check_requests=2,
        ),
        Workload(
            name="serve-belem",
            dataset="mnist4",
            device="belem",
            scale=BENCH_SCALE.with_overrides(
                offline_days=6, online_days=5, eval_samples=16, num_clusters=2
            ),
            serve_cycles=3,
            outstanding=32,
            requests_per_swap=32,
            check_samples=4,
            check_requests=4,
        ),
    )
}


@dataclass
class DayRecord:
    """One online day: QuCAD's decision and the repository it was made against."""

    decision: object
    accuracy: float
    repository_vectors: list
    repository_parameters: list
    repository_size_after: int


@dataclass
class ServeOutcome:
    """What one round's serving sent, got back and swapped."""

    #: Requests per cycle over the online days.
    window: int
    sample_indices: list[int] = field(default_factory=list)
    results: list = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    completion_times: list[float] = field(default_factory=list)
    first_submit: float = 0.0
    failed_requests: int = 0
    swap_ms: list[float] = field(default_factory=list)
    failed_swaps: int = 0
    versions: dict = field(default_factory=dict)
    flushes: int = 0
    full_flushes: int = 0

    @property
    def completed(self) -> int:
        return sum(result is not None for result in self.results)

    @property
    def rps(self) -> float:
        """Median over cycles of the cycle's completions per second.

        Every cycle serves the same sequence of versions, so cycles are
        alike and the median drops a cycle the host slowed.
        """
        times = sorted(self.completion_times)
        edges = [self.first_submit] + times[self.window - 1 :: self.window]
        rates = [
            self.window / (later - earlier)
            for earlier, later in zip(edges, edges[1:])
            if later > earlier
        ]
        return float(statistics.median(rates)) if rates else 0.0


@dataclass
class Round:
    """One fresh deployment: offline, online and serving."""

    setup: object
    qucad: object
    eval_features: np.ndarray
    eval_labels: np.ndarray
    days: list[DayRecord]
    repository_size_offline: int
    offline_seconds: float
    online_seconds: float
    serve: ServeOutcome

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([day.accuracy for day in self.days]))

    @property
    def online_optimizations(self) -> int:
        return int(self.qucad.manager.stats.optimizations)

    def signature(self) -> list:
        """What must repeat exactly across rounds: actions and accuracies."""
        return [(day.decision.action, day.accuracy) for day in self.days]


@dataclass
class RunOutcome:
    """Every set-up time and every round of one run."""

    setup_seconds: list[float]
    rounds: list[Round]


def _offline_online(setup, features, labels, span):
    """A fresh QuCAD through the offline stage and every online day."""
    qucad = QuCAD(
        setup.base_model.copy(),
        setup.dataset,
        setup.coupling,
        config=setup.method_context().make_qucad_config(),
    )
    with span("phase.offline"):
        start = time.perf_counter()
        qucad.offline(setup.offline_history)
        offline_seconds = time.perf_counter() - start
    repository = qucad.repository
    repository_size_offline = len(repository)
    days = []
    online_seconds = 0.0
    for day in range(len(setup.online_history)):
        # The repository as it stood before the day: what the day's
        # decision must be judged against.
        vectors = [entry.calibration_vector.copy() for entry in repository.entries]
        parameters = [entry.parameters.copy() for entry in repository.entries]
        with span("phase.online"):
            start = time.perf_counter()
            decisions, accuracies = qucad.evaluate_over(
                setup.online_history[day : day + 1], features, labels
            )
            online_seconds += time.perf_counter() - start
        days.append(
            DayRecord(
                decision=decisions[0],
                accuracy=float(accuracies[0]),
                repository_vectors=vectors,
                repository_parameters=parameters,
                repository_size_after=len(repository),
            )
        )
    return qucad, offline_seconds, online_seconds, days, repository_size_offline


def _serve(workload: Workload, setup, days, pool, rng, span) -> ServeOutcome:
    """Closed-loop serving over the online days, with a swap per day."""
    online = list(setup.online_history)
    parameters_by_date = {
        snapshot.date: day.decision.parameters for snapshot, day in zip(online, days)
    }
    if len(parameters_by_date) != len(online):
        raise ValueError("online calibration dates are not unique")
    outcome = ServeOutcome(window=len(online) * workload.requests_per_swap)
    submitted_at: list[float] = []
    completed_at: dict[int, float] = {}
    futures = []

    def stamp(index):
        def callback(_future):
            completed_at[index] = time.perf_counter()

        return callback

    service = InferenceService()
    deployed = service.deploy(
        "qnn",
        setup.base_model,
        calibration=setup.offline_history[-1],
        adapter=lambda snapshot: parameters_by_date[snapshot.date],
    )
    outcome.versions[deployed.version] = deployed
    outstanding: set = set()
    with span("phase.serve"), service:
        for _ in range(workload.serve_cycles):
            for snapshot in online:
                for _ in range(workload.requests_per_swap):
                    while len(outstanding) >= workload.outstanding:
                        done, outstanding = wait(
                            outstanding, timeout=REQUEST_TIMEOUT_S, return_when=FIRST_COMPLETED
                        )
                        if not done:  # every outstanding request timed out
                            for future in outstanding:
                                future.cancel()
                            outstanding = set()
                    index = int(rng.integers(len(pool)))
                    outcome.sample_indices.append(index)
                    submitted_at.append(time.perf_counter())
                    future = service.predict_async("qnn", pool[index])
                    future.add_done_callback(stamp(len(futures)))
                    futures.append(future)
                    outstanding.add(future)
                # The day's requests are in flight: the swap runs beside them.
                swap_start = time.perf_counter()
                try:
                    service.observe_calibration("qnn", snapshot)
                except Exception:  # a failed swap is counted, and serving goes on
                    outcome.failed_swaps += 1
                else:
                    version = service.registry.get("qnn")
                    outcome.versions[version.version] = version
                outcome.swap_ms.append((time.perf_counter() - swap_start) * 1e3)
        wait(outstanding, timeout=REQUEST_TIMEOUT_S)
        for future in outstanding:
            future.cancel()
    outcome.first_submit = submitted_at[0]
    outcome.flushes = service.scheduler.stats.flushes
    outcome.full_flushes = service.scheduler.stats.full_flushes

    for request_id, future in enumerate(futures):
        answered = (
            request_id in completed_at
            and not future.cancelled()
            and future.exception() is None
        )
        if not answered:
            outcome.failed_requests += 1
            outcome.results.append(None)
            outcome.latencies_ms.append(float("nan"))
            continue
        outcome.results.append(future.result())
        outcome.completion_times.append(completed_at[request_id])
        outcome.latencies_ms.append((completed_at[request_id] - submitted_at[request_id]) * 1e3)
    return outcome


def _cold_start() -> None:
    """Drop the process-wide engine and pass manager, and with them every cache."""
    set_default_engine(None)
    set_default_pass_manager(None)


def run_workload(workload: Workload, rng: np.random.Generator, span) -> RunOutcome:
    """:data:`SETUP_REPEATS` set-ups, then :data:`ROUNDS` rounds, each from cold caches.

    ``span(name)`` brackets each phase (a no-op unless the run is traced).
    """
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        _cold_start()
        with span("phase.setup"):
            start = time.perf_counter()
            setup = prepare_experiment(workload.dataset, scale=workload.scale, device=workload.device)
            setup_seconds.append(time.perf_counter() - start)

    subset = setup.eval_subset()
    features, labels = subset.test_features, subset.test_labels
    rounds: list[Round] = []
    for _ in range(ROUNDS):
        _cold_start()
        qucad, offline, online, days, size_offline = _offline_online(setup, features, labels, span)
        serve = _serve(workload, setup, days, features, rng, span)
        rounds.append(
            Round(setup, qucad, features, labels, days, size_offline, offline, online, serve)
        )
    return RunOutcome(setup_seconds=setup_seconds, rounds=rounds)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of the finite ``values``."""
    finite = [value for value in values if value == value]
    return float(np.percentile(finite, q)) if finite else float("nan")


def median(values) -> float:
    """Median of ``values`` (NaN for none)."""
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")
