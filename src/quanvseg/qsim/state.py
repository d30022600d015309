"""State vectors and elementary gate application for small qubit registers.

Conventions (shared with the dense oracle and the quanvolution backend):

* qubit 0 is the most significant bit of the amplitude index, so for a
  3-qubit register the amplitude at index 0b110 belongs to |110> with
  qubit 0 = 1, qubit 1 = 1, qubit 2 = 0;
* RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>;
* CNOT flips the target qubit where the control bit is 1.

States are immutable once returned: every operation hands back a fresh
StateVector whose amplitude buffer is marked read-only.
"""

from __future__ import annotations

import functools
import itertools
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


# Gates run on row blocks of about this many amplitudes between two
# scratch buffers, so no full-size copy of a batch is made.
_BLOCK_AMPLITUDES = 1 << 16
# One-qubit gates fuse into blocks over this many adjacent qubits: fewer
# cost more passes over the batch, more cost more work per amplitude.
_FUSED_QUBITS = 3


def batch_dtype(gates):
    """float64 if every gate is RY or CNOT, whose matrices are real, else complex128."""
    return np.float64 if all(g.kind in ("RY", "CNOT") for g in gates) else np.complex128


def _rotation(gate: Gate) -> np.ndarray:
    c, s = math.cos(0.5 * gate.angle), math.sin(0.5 * gate.angle)
    if gate.kind == "RY":
        return np.array([[c, -s], [s, c]])
    if gate.kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])


def _program(gates, n_qubits: int):
    """The steps that apply `gates` to states of n_qubits qubits.

    A run of one-qubit gates gives steps (lo, M): M is the Kronecker
    product over qubits lo, lo + 1, ... of each qubit's gates multiplied
    out.  A run of CNOTs gives one step (None, src): new[i] = old[src[i]].
    """
    steps = []
    for is_cnot, run in itertools.groupby(gates, key=lambda g: g.kind == "CNOT"):
        if is_cnot:
            src, top = np.arange(1 << n_qubits), n_qubits - 1  # top: qubit 0's index bit
            # new[i] = old[p_1(... p_k(i))] after the CNOTs p_1 ... p_k.
            for gate in reversed(list(run)):
                src ^= ((src >> (top - gate.control)) & 1) << (top - gate.target)
            steps.append((None, src))
            continue
        fused = {}
        for gate in run:
            fused[gate.target] = _rotation(gate) @ fused.get(gate.target, np.eye(2))
        # Blocks end at the last qubit, so the last one acts on contiguous amplitudes.
        for hi in range(n_qubits, 0, -_FUSED_QUBITS):
            qubits = range(max(0, hi - _FUSED_QUBITS), hi)
            if any(q in fused for q in qubits):
                block = functools.reduce(np.kron, [fused.get(q, np.eye(2)) for q in qubits])
                steps.append((qubits[0], block))
    return steps


def apply_gates_batch(psi: np.ndarray, gates):
    """Apply gates, in order, to every state of a writable batch (N, 2**n).

    The one code path that applies gates.  A float64 batch takes only RY
    and CNOT (batch_dtype).  A complex batch runs real gates on its real
    and imaginary parts apart: its real part gets a float64 batch's bits.
    """
    n_states, size = psi.shape
    steps = _program(gates, size.bit_length() - 1)
    rows = max(1, min(n_states, _BLOCK_AMPLITUDES // size))
    real = np.iscomplexobj(psi) and batch_dtype(gates) is np.float64
    parts = (psi.real, psi.imag) if real else (psi,)
    a, b = np.empty((2, rows, size), dtype=parts[0].dtype)
    for part in parts:
        for lo in range(0, n_states, rows):
            src, dst = a[: n_states - lo], b[: n_states - lo]
            np.copyto(src, part[lo : lo + rows])
            for q, op in steps:
                if q is None:
                    np.take(src, op, axis=1, out=dst, mode="clip")
                elif op.shape[0] << q == size:
                    # The last qubits: GEMMs of at most 256 rows by op.T.
                    # OpenBLAS threads taller ones, which ran up to 20x
                    # slower on 2 cores, between the other steps.
                    x = src.reshape(-1, min(256, size // op.shape[0]), op.shape[0])
                    np.matmul(x, op.T, out=dst.reshape(x.shape))
                else:
                    x = src.reshape(len(src) << q, op.shape[0], -1)
                    np.matmul(op, x, out=dst.reshape(x.shape))
                src, dst = dst, src
            part[lo : lo + rows] = src


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state after one gate; the input state is untouched."""
    for q in (gate.target, gate.control):
        if q is not None and not 0 <= q < state.n_qubits:
            raise QubitIndexError(f"qubit {q} out of range for {state.n_qubits} qubits")
    amps = state.amplitudes.copy()
    apply_gates_batch(amps.reshape(1, -1), (gate,))
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
    amps = new_zero_state(n_qubits).amplitudes.copy()
    gates = [Gate("RY", q, angle=math.pi * float(x)) for q, x in enumerate(values)]
    apply_gates_batch(amps.reshape(1, -1), gates)
    return _freeze(n_qubits, amps)


def measure_z_expectations(state: StateVector) -> np.ndarray:
    """Per-qubit Pauli-Z expectations <psi|Z_q|psi>, each in [-1, 1]."""
    probs = np.abs(state.amplitudes) ** 2
    z = np.empty(state.n_qubits, dtype=np.float64)
    for q in range(state.n_qubits):
        v = probs.reshape(1 << q, 2, -1)
        z[q] = v[:, 0, :].sum() - v[:, 1, :].sum()
    return z
