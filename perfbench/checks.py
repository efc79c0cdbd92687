"""Output checks: the program's results against facts computed apart from it.

Each check returns the names (with details) of the checks that failed; an
empty list means every output checked was right.  The checks run after the
timed phases, so they cost run time but never measured time.
"""

from __future__ import annotations

import numpy as np

from perfbench.reference import reference_logits

#: Largest allowed difference between program and reference logits.
LOGIT_TOLERANCE = 1e-8


def _weighted_l1(weights, x, y) -> float:
    return float(np.sum(np.abs(weights * x - weights * y)))


def check_decisions(round_) -> list[str]:
    """QuCAD's online decisions obey the method's own rules."""
    failures = []
    qucad = round_.qucad
    repository = qucad.repository
    weights = repository.weights
    online = list(round_.setup.online_history)
    optimized = 0
    for day, (record, snapshot) in enumerate(zip(round_.days, online)):
        decision = record.decision
        vector = snapshot.to_vector()
        before = len(record.repository_vectors)
        distances = [_weighted_l1(weights, vector, stored) for stored in record.repository_vectors]
        nearest = min(distances) if distances else None
        if decision.action in ("reuse", "invalid"):
            if nearest is None or not nearest <= decision.threshold:
                failures.append(
                    f"reuse_within_threshold: day {day} reused at distance {nearest} "
                    f"beyond th_w {decision.threshold}"
                )
            elif abs(nearest - decision.distance) > 1e-9 * max(1.0, nearest):
                failures.append(
                    f"reuse_within_threshold: day {day} reports distance "
                    f"{decision.distance}, recomputed {nearest}"
                )
            stored = record.repository_parameters[decision.entry_index]
            if record.repository_size_after != before or not np.array_equal(
                decision.parameters, stored
            ):
                failures.append(
                    f"decision_parameters: day {day} reuse does not serve entry "
                    f"{decision.entry_index} unchanged"
                )
        elif decision.action in ("new", "bootstrap"):
            optimized += 1
            if nearest is not None and not nearest > decision.threshold:
                failures.append(
                    f"new_beyond_threshold: day {day} compressed at distance {nearest} "
                    f"within th_w {decision.threshold}"
                )
            if record.repository_size_after != before + 1 or not np.array_equal(
                decision.parameters, repository.entries[before].parameters
            ):
                failures.append(
                    f"decision_parameters: day {day} new model is not the entry it added"
                )
        else:
            failures.append(f"decision_action: day {day} has unknown action {decision.action!r}")
        count = record.accuracy * len(round_.eval_labels)
        if not (0.0 <= record.accuracy <= 1.0) or abs(count - round(count)) > 1e-9:
            failures.append(
                f"accuracy_is_fraction: day {day} accuracy {record.accuracy} is not "
                f"k/{len(round_.eval_labels)}"
            )
    grown = len(repository) - round_.repository_size_offline
    if not grown == round_.online_optimizations == optimized:
        failures.append(
            f"repository_growth: grew by {grown}, online_optimizations "
            f"{round_.online_optimizations}, new decisions {optimized}"
        )
    return failures


def check_day_logits(round_, rng: np.random.Generator, samples: int) -> list[str]:
    """One seed-chosen online day: logits against the reference walk.

    The program's logits for the whole eval subset also reproduce the
    accuracy the runner reported for that day.
    """
    from repro.simulator import NoiseModel

    failures = []
    day = int(rng.integers(len(round_.days)))
    record = round_.days[day]
    model = round_.qucad.model
    noise_model = NoiseModel.from_calibration(round_.setup.online_history[day])
    parameters = record.decision.parameters
    features, labels = round_.eval_features, round_.eval_labels
    program = model.forward_noisy_batch(features, [noise_model], parameter_sets=[parameters])[0]
    chosen = rng.choice(len(features), size=min(samples, len(features)), replace=False)
    reference = reference_logits(model, features[chosen], noise_model, parameters)
    error = float(np.max(np.abs(program[chosen] - reference)))
    if not error <= LOGIT_TOLERANCE:
        failures.append(f"day_logits: day {day} samples {chosen.tolist()} differ by {error:.3e}")
    accuracy = float(np.mean(np.argmax(program, axis=1) == labels))
    if accuracy != record.accuracy:
        failures.append(
            f"day_accuracy: day {day} runner reported {record.accuracy}, "
            f"its logits give {accuracy}"
        )
    return failures


def check_serving(serve, pool: np.ndarray, rng: np.random.Generator, requests: int) -> list[str]:
    """Served answers: complete, ordered, and equal to the reference walk."""
    failures = []
    answered = [(i, r) for i, r in enumerate(serve.results) if r is not None]
    if len(serve.results) != len(serve.sample_indices) or (
        len(serve.results) - len(answered) != serve.failed_requests
    ):
        failures.append("every_request_answered: requests lost without being counted")
    for request_id, result in answered:
        if result.prediction != int(np.argmax(result.logits)) or result.model != "qnn":
            failures.append(f"served_prediction: request {request_id} prediction != argmax")
            break
        if result.version not in serve.versions:
            failures.append(f"served_version: request {request_id} served unknown version")
            break
    by_sequence = sorted(answered, key=lambda item: item[1].sequence)
    versions = [result.version for _, result in by_sequence]
    if any(later < earlier for earlier, later in zip(versions, versions[1:])):
        failures.append("versions_monotonic: a later request was served an older version")
    if not answered:
        failures.append("served_logits: no request was answered")
        return failures
    picks = rng.choice(len(answered), size=min(requests, len(answered)), replace=False)
    for pick in sorted(picks):
        request_id, result = answered[int(pick)]
        version = serve.versions[result.version]
        features = pool[serve.sample_indices[request_id]]
        reference = reference_logits(
            version.model, features, version.noise_model, version.model.parameters
        )[0]
        error = float(np.max(np.abs(np.asarray(result.logits) - reference)))
        if not error <= LOGIT_TOLERANCE:
            failures.append(
                f"served_logits: request {request_id} (version {result.version}) "
                f"differs by {error:.3e}"
            )
    return failures
