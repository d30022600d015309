"""Frozen circuit templates, execution, and the text interchange format.

Three templates are provided (basic_entangled, strongly_entangled,
random).  All rotation angles are drawn once from a seeded stream and
then frozen; the serialized gate list, not the generator, is the
interchange artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import CircuitParseError, ShapeError
from .state import (
    GATE_KINDS,
    MAX_SIM_QUBITS,
    ROTATION_KINDS,
    Gate,
    StateVector,
    _freeze,
    apply_gates_batch,
)

TEMPLATES = ("basic_entangled", "strongly_entangled", "random")

_MAX_SEED = 2**64


@dataclass(frozen=True)
class CircuitSpec:
    """A frozen, fully materialized gate list plus its provenance."""

    template: str
    n_qubits: int
    n_layers: int
    seed: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template {self.template!r}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.target >= self.n_qubits or (
                g.control is not None and g.control >= self.n_qubits
            ):
                raise ValueError(f"gate {g} exceeds {self.n_qubits} qubits")


def _angle(rng) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _basic_entangled_layer(rng, n, gates):
    # one draw per layer gives the values of n _angle calls, in order
    for q, angle in enumerate(rng.uniform(0.0, 2.0 * math.pi, n).tolist()):
        gates.append(Gate("RY", q, angle=angle))
    if n == 2:
        gates.append(Gate("CNOT", target=1, control=0))
    elif n > 2:
        for q in range(n):
            gates.append(Gate("CNOT", target=(q + 1) % n, control=q))


def _strongly_entangled_layer(rng, n, layer, gates):
    for q, (z0, y, z1) in enumerate(rng.uniform(0.0, 2.0 * math.pi, (n, 3)).tolist()):
        gates.append(Gate("RZ", q, angle=z0))
        gates.append(Gate("RY", q, angle=y))
        gates.append(Gate("RZ", q, angle=z1))
    if n >= 2:
        r = (layer % (n - 1)) + 1
        for q in range(n):
            gates.append(Gate("CNOT", target=(q + r) % n, control=q))


def _random_layer(rng, n, gates):
    for _ in range(n):
        kind = ROTATION_KINDS[int(rng.integers(3))]
        q = int(rng.integers(n))
        gates.append(Gate(kind, q, angle=_angle(rng)))
    for _ in range(n // 2):
        c = int(rng.integers(n))
        t = int(rng.integers(n - 1))
        if t >= c:
            t += 1
        gates.append(Gate("CNOT", target=t, control=c))


def build_circuit(template: str, n_qubits: int, n_layers: int, seed: int) -> CircuitSpec:
    """Deterministically materialize a frozen template circuit."""
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}; choose from {TEMPLATES}")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    rng = np.random.default_rng(seed)
    gates: list[Gate] = []
    for layer in range(n_layers):
        if template == "basic_entangled":
            _basic_entangled_layer(rng, n_qubits, gates)
        elif template == "strongly_entangled":
            _strongly_entangled_layer(rng, n_qubits, layer, gates)
        else:
            _random_layer(rng, n_qubits, gates)
    return CircuitSpec(template, n_qubits, n_layers, seed, tuple(gates))


def run_circuit(spec: CircuitSpec, state: StateVector) -> StateVector:
    """Apply every gate of the circuit, in list order, to a state."""
    if spec.n_qubits != state.n_qubits:
        raise ShapeError(
            f"circuit has {spec.n_qubits} qubits but state has {state.n_qubits}"
        )
    amps = state.amplitudes.copy()
    # CircuitSpec has checked that every gate fits the register.
    apply_gates_batch(amps.reshape(1, -1), spec.gates)
    return _freeze(spec.n_qubits, amps)


def serialize_circuit(spec: CircuitSpec) -> str:
    """Render a circuit as line-oriented text (one gate per line).

    Angles are printed with 17 significant digits so the round trip
    through parse_circuit reproduces the gate list exactly.
    """
    lines = [
        f"qubits {spec.n_qubits}",
        f"template {spec.template}",
        f"layers {spec.n_layers}",
        f"seed {spec.seed}",
    ]
    for g in spec.gates:
        if g.kind == "CNOT":
            lines.append(f"CNOT {g.control} {g.target}")
        else:
            lines.append(f"{g.kind} {g.target} {g.angle:.17g}")
    return "\n".join(lines) + "\n"


_HEADER_KEYS = ("qubits", "template", "layers", "seed")


def parse_circuit(text: str) -> CircuitSpec:
    """Parse the text format produced by serialize_circuit.

    Every defect is a CircuitParseError at its line: a header value that
    is not an integer or is out of range (qubits in [1, MAX_SIM_QUBITS],
    layers >= 1, seed in [0, 2**64)), an unknown template, and a gate on a
    qubit the register does not have.
    """
    headers: dict[str, tuple[str, int]] = {}
    gates: list[tuple[Gate, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag in _HEADER_KEYS:
            if gates:
                raise CircuitParseError("header after first gate", lineno)
            if tag in headers:
                raise CircuitParseError(f"duplicate header {tag!r}", lineno)
            if len(fields) != 2:
                raise CircuitParseError(f"header {tag!r} takes one value", lineno)
            headers[tag] = (fields[1], lineno)
        elif tag in GATE_KINDS:
            gates.append((_parse_gate(fields, lineno), lineno))
        else:
            raise CircuitParseError(f"unrecognized line {line!r}", lineno)
    for key in _HEADER_KEYS:
        if key not in headers:
            raise CircuitParseError(f"missing header {key!r}")
    template, lineno = headers["template"]
    if template not in TEMPLATES:
        raise CircuitParseError(f"unknown template {template!r}", lineno)
    n_qubits = _header_int(headers, "qubits", 1, MAX_SIM_QUBITS + 1)
    n_layers = _header_int(headers, "layers", 1, None)
    seed = _header_int(headers, "seed", 0, _MAX_SEED)
    for gate, lineno in gates:
        if max(gate.target, gate.control or 0) >= n_qubits:
            raise CircuitParseError(f"{gate.kind} gate exceeds {n_qubits} qubits", lineno)
    return CircuitSpec(template=template, n_qubits=n_qubits, n_layers=n_layers,
                       seed=seed, gates=tuple(gate for gate, _ in gates))


def _header_int(headers, key, lo, hi):
    """Integer value of a header, in [lo, hi) (no upper bound if hi is None)."""
    raw, lineno = headers[key]
    try:
        value = int(raw)
    except ValueError:
        raise CircuitParseError(f"header {key!r} needs an integer, got {raw!r}", lineno) from None
    if value < lo or (hi is not None and value >= hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi - 1}]"
        raise CircuitParseError(f"header {key!r} must be {bound}, got {value}", lineno)
    return value


def _parse_gate(fields, lineno) -> Gate:
    kind = fields[0]
    if len(fields) != 3:
        raise CircuitParseError(f"{kind} takes exactly two fields", lineno)
    try:
        if kind == "CNOT":
            control, target = int(fields[1]), int(fields[2])
            return Gate("CNOT", target=target, control=control)
        target, angle = int(fields[1]), float(fields[2])
        return Gate(kind, target, angle=angle)
    except (ValueError, IndexError) as exc:
        raise CircuitParseError(str(exc), lineno) from exc
