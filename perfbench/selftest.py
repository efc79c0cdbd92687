"""Self-tests of the benchmark at tiny sizes (seconds, not minutes).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that a tiny workload passes every output check, that a
corrupted served logit or decision makes the checks fail, that the traced
run reports every per-layer metric ``BENCHMARK.json`` names and restores
what it patched, and that the benchmark refuses to run without the
program beside it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import TEST_SCALE  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench.checks import check_decisions, check_serving  # noqa: E402
from perfbench.layers import instrument, layer_metrics  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import ROUNDS, Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    dataset="mnist4",
    device="belem",
    scale=TEST_SCALE.with_overrides(
        offline_days=4, online_days=3, eval_samples=6, base_train_epochs=1, train_samples=16
    ),
    serve_cycles=2,
    outstanding=4,
    requests_per_swap=4,
    check_samples=2,
    check_requests=2,
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_run():
    return bench.measure(TINY, seed=3)


def test_tiny_workload_passes_every_check(tiny_run):
    run, peak_rss_mb, failures, phases = tiny_run
    assert failures == []
    assert len(run.rounds) == ROUNDS
    serve = run.rounds[-1].serve
    assert serve.failed_requests == 0
    assert serve.completed == TINY.serve_cycles * 3 * TINY.requests_per_swap
    assert bench.operations(run)["requests"] == (ROUNDS * serve.completed, 0)
    metrics = bench.end_to_end(run, peak_rss_mb)
    assert list(metrics) == [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert all(np.isfinite(value) for value, _ in metrics.values())


def test_corrupted_served_logit_fails(tiny_run):
    last = tiny_run[0].rounds[-1]
    serve = last.serve
    corrupted = copy.copy(serve)
    corrupted.results = list(serve.results)
    first = corrupted.results[0]
    logits = np.array(first.logits, copy=True)
    logits[0] += 1e-6
    corrupted.results[0] = dataclasses.replace(first, logits=logits)
    rng = np.random.default_rng(0)
    assert check_serving(serve, last.eval_features, rng, len(serve.results)) == []
    failures = check_serving(corrupted, last.eval_features, rng, len(serve.results))
    assert any(failure.startswith("served_logits") for failure in failures)


def test_corrupted_decision_parameters_fail(tiny_run):
    last = tiny_run[0].rounds[-1]
    corrupted = copy.copy(last)
    corrupted.days = [copy.copy(day) for day in last.days]
    day = corrupted.days[-1]
    day.decision = dataclasses.replace(day.decision, parameters=day.decision.parameters + 1e-3)
    assert check_decisions(last) == []
    failures = check_decisions(corrupted)
    assert any(failure.startswith("decision_parameters") for failure in failures)


def test_corrupted_reuse_decision_fails(tiny_run):
    """A day recorded as reusing a stored model it is not within ``th_w`` of."""
    last = tiny_run[0].rounds[-1]
    corrupted = copy.copy(last)
    corrupted.days = [copy.copy(day) for day in last.days]
    day = next(day for day in corrupted.days if day.decision.action == "new")
    day.decision = dataclasses.replace(day.decision, action="reuse", entry_index=0)
    day.repository_size_after -= 1
    failures = check_decisions(corrupted)
    assert any(failure.startswith("reuse_within_threshold") for failure in failures)
    assert any(failure.startswith("decision_parameters") for failure in failures)


def test_reference_walk_agrees_on_jakarta():
    from repro.experiments import prepare_experiment

    from perfbench.reference import reference_logits

    setup = prepare_experiment("seismic", scale=TEST_SCALE.with_overrides(offline_days=2, online_days=1),
                               device="jakarta", train_base_model=False)
    model = setup.base_model
    noise_model = setup.noise_models()[0]
    features = setup.eval_subset().test_features[:1]
    program = model.forward_noisy_batch(features, [noise_model])[0]
    reference = reference_logits(model, features, noise_model, model.parameters)
    assert np.max(np.abs(program - reference)) <= 1e-8
    # A wrong channel strength is caught by the same comparison.
    stronger = noise_model.scaled(1.5)
    assert np.max(np.abs(reference_logits(model, features, stronger, model.parameters) - program)) > 1e-6


def test_traced_run_reports_every_layer_metric(tmp_path):
    from repro.simulator import DensityMatrixBackend

    original = DensityMatrixBackend.execute_batch
    tracer = Tracer()
    instrument(tracer)
    try:
        run, _, failures, phases = bench.measure(TINY, seed=4, tracer=tracer)
    finally:
        tracer.restore()
    assert DensityMatrixBackend.execute_batch is original
    assert "execute" not in vars(DensityMatrixBackend)
    assert failures == []
    serves = [round_.serve for round_ in run.rounds]
    metrics = layer_metrics(tracer, serves, phases, phases, ref_kernel_ms=1.0)
    assert list(metrics) == [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert metrics["simulator.density_calls"][0] > 0
    assert metrics["core.compress_calls"][0] > 0
    assert metrics["serving.flushes"][0] == sum(serve.flushes for serve in serves) > 0
    # Every answered request found its batch's execution span.
    assert 0 <= metrics["serving.queue_wait_p50_ms"][0] < 1e3
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    names = {event["name"] for event in events}
    assert {"phase.offline", "simulator.density", "serving.swap", "core.cluster"} <= names


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    self_ms = tracer.self_times_ms()
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id
    total_outer = (outer.end_ns - outer.start_ns) / 1e6
    assert self_ms["outer"] == pytest.approx(total_outer - self_ms["inner"])


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "serve-belem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
