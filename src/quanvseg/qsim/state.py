"""State vectors and elementary gate application for small qubit registers.

Conventions (shared with the dense oracle and the quanvolution plans):

* qubit 0 is the most significant bit of the amplitude index, so for a
  3-qubit register the amplitude at index 0b110 belongs to |110> with
  qubit 0 = 1, qubit 1 = 1, qubit 2 = 0;
* RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>;
* CNOT flips the target qubit where the control bit is 1.

States are immutable once returned: every operation hands back a fresh
StateVector whose amplitude buffer is marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import EncodingRangeError, QubitIndexError, ShapeError, SizeError

MAX_SIM_QUBITS = 16

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ROTATION_KINDS + ("CNOT",)


@dataclass(frozen=True)
class Gate:
    """One elementary gate: a rotation (RX/RY/RZ) or a CNOT."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 0:
            raise QubitIndexError(f"negative target qubit {self.target}")
        if self.kind == "CNOT":
            if self.control is None:
                raise ValueError("CNOT requires a control qubit")
            if self.control < 0:
                raise QubitIndexError(f"negative control qubit {self.control}")
            if self.control == self.target:
                raise ValueError("CNOT control and target must differ")
            if self.angle is not None:
                raise ValueError("CNOT takes no angle")
        else:
            if self.control is not None:
                raise ValueError(f"{self.kind} takes no control qubit")
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite rotation angle")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes of an n-qubit register (length 2**n_qubits)."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _freeze(n_qubits: int, amps: np.ndarray) -> StateVector:
    amps.flags.writeable = False
    return StateVector(n_qubits=n_qubits, amplitudes=amps)


def new_zero_state(n_qubits: int) -> StateVector:
    """Return |0...0> on n_qubits qubits (1 <= n_qubits <= 16)."""
    if not 1 <= n_qubits <= MAX_SIM_QUBITS:
        raise SizeError(
            f"n_qubits must be in [1, {MAX_SIM_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return _freeze(n_qubits, amps)


def _check_qubit(q: int, n_qubits: int, role: str):
    if not 0 <= q < n_qubits:
        raise QubitIndexError(f"{role} qubit {q} out of range for {n_qubits} qubits")


def rotate_batch(psi: np.ndarray, kind: str, target: int, c, s):
    """Apply a rotation on `target` to every state of a batch (N, 2**n).

    c and s are cos/sin of the half angle: scalars for one gate of a
    circuit, or per-state vectors of shape (N,) for the encoding stage.
    """
    v = psi.reshape(psi.shape[0], 1 << target, 2, -1)
    if isinstance(c, np.ndarray):
        c = c[:, None, None]
        s = s[:, None, None]
    if kind == "RZ":
        v[:, :, 0, :] *= c - 1j * s
        v[:, :, 1, :] *= c + 1j * s
        return
    a0 = v[:, :, 0, :].copy()
    a1 = v[:, :, 1, :]
    if kind == "RY":
        v[:, :, 0, :] = c * a0 - s * a1
        v[:, :, 1, :] = s * a0 + c * a1
    else:  # RX
        v[:, :, 0, :] = c * a0 - 1j * s * a1
        v[:, :, 1, :] = -1j * s * a0 + c * a1


def cnot_batch(psi: np.ndarray, control: int, target: int):
    """Flip `target` where `control` is set, in every state of a batch."""
    lo, hi = min(control, target), max(control, target)
    v = psi.reshape(psi.shape[0], 1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    if control < target:
        block = v[:, :, 1, :, :, :]  # control bit set; target is axis 3
        tmp = block[:, :, :, 0, :].copy()
        block[:, :, :, 0, :] = block[:, :, :, 1, :]
        block[:, :, :, 1, :] = tmp
    else:
        block = v[:, :, :, :, 1, :]  # control bit set; target is axis 2
        tmp = block[:, :, 0, :, :].copy()
        block[:, :, 0, :, :] = block[:, :, 1, :, :]
        block[:, :, 1, :, :] = tmp


def apply_gates_batch(psi: np.ndarray, gates):
    """Apply gates, in order, to every state of a writable batch (N, 2**n)."""
    for gate in gates:
        if gate.kind == "CNOT":
            cnot_batch(psi, gate.control, gate.target)
        else:
            half = 0.5 * gate.angle
            rotate_batch(psi, gate.kind, gate.target, math.cos(half), math.sin(half))


def apply_gate_inplace(amps: np.ndarray, n_qubits: int, gate: Gate):
    """Apply one gate to a writable complex amplitude buffer."""
    _check_qubit(gate.target, n_qubits, "target")
    if gate.kind == "CNOT":
        _check_qubit(gate.control, n_qubits, "control")
    apply_gates_batch(amps.reshape(1, -1), (gate,))


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state after one gate; the input state is untouched."""
    amps = state.amplitudes.copy()
    apply_gate_inplace(amps, state.n_qubits, gate)
    return _freeze(state.n_qubits, amps)


def angle_encode(values, n_qubits: int) -> StateVector:
    """Encode classical values in [0, 1] as RY(pi * value) rotations.

    Value j rotates qubit j; qubits beyond len(values) stay in |0>.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError(f"values must be one-dimensional, got shape {values.shape}")
    if values.size > n_qubits:
        raise SizeError(
            f"{values.size} values do not fit on {n_qubits} qubits"
        )
    if values.size and (
        not np.all(np.isfinite(values))
        or values.min() < 0.0
        or values.max() > 1.0
    ):
        raise EncodingRangeError("encoding values must lie in [0, 1]")
    state = new_zero_state(n_qubits)
    amps = state.amplitudes.copy()
    for q, x in enumerate(values):
        apply_gate_inplace(amps, n_qubits, Gate("RY", q, angle=math.pi * float(x)))
    return _freeze(n_qubits, amps)


def measure_z_expectations(state: StateVector) -> np.ndarray:
    """Per-qubit Pauli-Z expectations <psi|Z_q|psi>, each in [-1, 1]."""
    probs = np.abs(state.amplitudes) ** 2
    z = np.empty(state.n_qubits, dtype=np.float64)
    for q in range(state.n_qubits):
        v = probs.reshape(1 << q, 2, -1)
        z[q] = v[:, 0, :].sum() - v[:, 1, :].sum()
    return z
