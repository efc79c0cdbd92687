"""An independent density-matrix walk that the benchmark checks the program against.

Nothing here calls the program's simulator, fusion engine or kernels.  The
walk takes the program's *description* of a computation — the angle
encoder's operation list, the transpiled physical circuit, the qubit maps,
and the noise model's per-gate depolarizing probabilities and readout
confusion matrices — and evolves plain numpy density tensors one gate at a
time:

1. start in ``|0..0><0..0|`` on the whole device register;
2. for each encoding rotation, apply the per-sample rotation, then the
   depolarizing channel ``NoiseModel.channel_for_gate`` assigns it;
3. for each physical gate, apply its matrix (built here from the gate name
   and angle), then its depolarizing channel;
4. take the computational-basis diagonal, push it through every qubit's
   readout confusion matrix, and read Pauli-Z expectations of the measured
   qubits, scaled by the model's logit scale.

Qubit ``0`` is the most significant bit, as in the program.
"""

from __future__ import annotations

import string
from typing import Sequence

import numpy as np

_LETTERS = string.ascii_letters


def _rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


_FIXED = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    # Control on the first listed qubit, target on the second.
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}
_ROTATIONS = {"rx": _rx, "ry": _ry, "rz": _rz}


def gate_matrix(name: str, param) -> np.ndarray:
    """The unitary of one native-basis gate, built without the program."""
    if name in _FIXED:
        return _FIXED[name]
    if name in _ROTATIONS:
        return _ROTATIONS[name](float(param))
    raise ValueError(f"the reference walk has no matrix for gate {name!r}")


def _rotation_stack(name: str, angles: np.ndarray) -> np.ndarray:
    """Per-sample ``(batch, 2, 2)`` rotations of one encoding operation."""
    return np.stack([_ROTATIONS[name](float(angle)) for angle in angles])


class _Walk:
    """Density tensors of shape ``(batch, 2, ..., 2, 2, ..., 2)``."""

    def __init__(self, batch: int, num_qubits: int):
        self.n = num_qubits
        self.rho = np.zeros((batch,) + (2,) * (2 * num_qubits), dtype=complex)
        self.rho[(slice(None),) + (0,) * (2 * num_qubits)] = 1.0

    def _rows(self, qubits):
        return [1 + q for q in qubits]

    def _cols(self, qubits):
        return [1 + self.n + q for q in qubits]

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """``U rho U^dagger`` for one shared ``2^k x 2^k`` matrix."""
        k = len(qubits)
        tensor = matrix.reshape((2,) * (2 * k))
        inner = list(range(k, 2 * k))
        rho = np.tensordot(tensor, self.rho, axes=(inner, self._rows(qubits)))
        rho = np.moveaxis(rho, list(range(k)), self._rows(qubits))
        rho = np.tensordot(tensor.conj(), rho, axes=(inner, self._cols(qubits)))
        self.rho = np.moveaxis(rho, list(range(k)), self._cols(qubits))

    def unitary_per_sample(self, stack: np.ndarray, qubit: int) -> None:
        """``U_b rho_b U_b^dagger`` for a ``(batch, 2, 2)`` stack on one qubit."""
        axes = _LETTERS[: 1 + 2 * self.n]
        batch, row, col = axes[0], axes[1 + qubit], axes[1 + self.n + qubit]
        spare = _LETTERS[-1]
        # Rows: U[b, r_new, r_old]; columns: conj(U)[b, c_new, c_old].
        self.rho = np.einsum(
            f"{batch}{spare}{row},{axes}->{axes.replace(row, spare)}", stack, self.rho
        )
        self.rho = np.einsum(
            f"{batch}{spare}{col},{axes}->{axes.replace(col, spare)}",
            stack.conj(),
            self.rho,
        )

    def depolarize(self, probability: float, qubits: Sequence[int]) -> None:
        """``(1 - p) rho + p (I/d)_Q (x) Tr_Q(rho)``."""
        if probability == 0.0:
            return
        axes = _LETTERS[: 1 + 2 * self.n]
        traced_in = list(axes)
        for q in qubits:
            traced_in[1 + self.n + q] = traced_in[1 + q]
        kept = "".join(
            ch
            for index, ch in enumerate(axes)
            if not any(index in (1 + q, 1 + self.n + q) for q in qubits)
        )
        reduced = np.einsum(f"{''.join(traced_in)}->{kept}", self.rho)
        operands = [reduced]
        subscripts = [kept]
        half_identity = np.eye(2) / 2.0
        for q in qubits:
            operands.append(half_identity)
            subscripts.append(axes[1 + q] + axes[1 + self.n + q])
        mixed = np.einsum(f"{','.join(subscripts)}->{axes}", *operands)
        self.rho = (1.0 - probability) * self.rho + probability * mixed

    def probabilities(self) -> np.ndarray:
        """Basis probabilities, clipped at 0 and normalised per sample."""
        dim = 2**self.n
        flat = self.rho.reshape(self.rho.shape[0], dim, dim)
        probs = np.clip(np.einsum("bii->bi", flat).real, 0.0, None)
        return probs / probs.sum(axis=1, keepdims=True)


def reference_logits(model, features: np.ndarray, noise_model, parameters) -> np.ndarray:
    """Class logits of ``model`` under ``noise_model``, walked independently.

    ``model`` must be bound to a device; ``parameters`` is the parameter
    vector to bind (a decision's or a served version's).
    """
    from repro.gates import Gate

    transpiled = model.transpiled
    num_qubits = transpiled.coupling.num_qubits
    features = np.atleast_2d(np.asarray(features, dtype=float))
    walk = _Walk(features.shape[0], num_qubits)

    encoder = model.encoder
    for op in encoder.operations():
        qubit = transpiled.encoding_physical_qubit(op.logical_qubit)
        angles = features[:, op.feature_index] * encoder.scale
        walk.unitary_per_sample(_rotation_stack(op.gate, angles), qubit)
        channel = noise_model.channel_for_gate(Gate(op.gate, (qubit,), param=0.0))
        if channel is not None:
            walk.depolarize(channel.probability, [qubit])

    physical = transpiled.to_physical(np.asarray(parameters, dtype=float))
    for gate in physical.gates:
        walk.unitary(gate_matrix(gate.name, gate.param), gate.qubits)
        channel = noise_model.channel_for_gate(gate)
        if channel is not None:
            walk.depolarize(channel.probability, gate.qubits)

    probs = walk.probabilities().reshape((features.shape[0],) + (2,) * num_qubits)
    for qubit, confusion in noise_model.readout_confusion().items():
        probs = np.moveaxis(np.tensordot(confusion, probs, axes=([1], [1 + qubit])), 0, 1 + qubit)
    measured = transpiled.measured_physical_qubits(model.readout_qubits)
    expectations = []
    for qubit in measured:
        marginal = np.moveaxis(probs, 1 + qubit, 1).reshape(probs.shape[0], 2, -1).sum(axis=2)
        expectations.append(marginal[:, 0] - marginal[:, 1])
    return model.logit_scale * np.stack(expectations, axis=1)
