"""State-vector simulator tests: gates, encoding, templates, text format.

The dense Kronecker oracle and the in-place gate kernels are written
independently of each other; several tests below lean on that split to
cross-check one against the other.
"""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from quanvseg.exceptions import (
    CircuitParseError,
    EncodingRangeError,
    QubitIndexError,
    ShapeError,
    SizeError,
)
from quanvseg.qsim.circuits import (
    TEMPLATES,
    CircuitSpec,
    build_circuit,
    parse_circuit,
    run_circuit,
    serialize_circuit,
)
from quanvseg.qsim.oracle import dense_unitary_oracle, gate_unitary
from quanvseg.qsim.state import (
    Gate,
    angle_encode,
    apply_gate,
    measure_z_expectations,
    new_zero_state,
)


def random_state(n_qubits, rng):
    """Haar-ish random normalized state for oracle comparisons."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    from quanvseg.qsim.state import _freeze

    return _freeze(n_qubits, amps)


# ---------------------------------------------------------------------
# States and single gates


def test_zero_state_single_qubit():
    state = new_zero_state(1)
    npt.assert_array_equal(state.amplitudes, [1.0, 0.0])


def test_zero_state_two_qubits():
    state = new_zero_state(2)
    npt.assert_array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("n", [0, 17, -3])
def test_zero_state_rejects_out_of_range(n):
    with pytest.raises(SizeError):
        new_zero_state(n)


def test_ry_pi_is_half_turn():
    state = apply_gate(new_zero_state(1), Gate("RY", 0, angle=math.pi))
    npt.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-15)


def test_ry_half_pi_is_equal_superposition():
    state = apply_gate(new_zero_state(1), Gate("RY", 0, angle=math.pi / 2))
    r = 1.0 / math.sqrt(2.0)
    npt.assert_allclose(state.amplitudes, [r, r], atol=1e-15)


def test_cnot_truth_table():
    # |10>: qubit 0 (control, most significant bit) is 1
    state = apply_gate(new_zero_state(2), Gate("RY", 0, angle=math.pi))
    npt.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)
    state = apply_gate(state, Gate("CNOT", target=1, control=0))
    npt.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_cnot_control_clear_is_identity():
    state = apply_gate(new_zero_state(2), Gate("CNOT", target=1, control=0))
    npt.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", target=0, control=0)
    with pytest.raises(ValueError):
        Gate("RY", 0)  # no angle
    with pytest.raises(ValueError):
        Gate("RY", 0, angle=math.nan)
    with pytest.raises(ValueError):
        Gate("HADAMARD", 0, angle=1.0)
    with pytest.raises(QubitIndexError):
        Gate("RY", -1, angle=1.0)


def test_apply_gate_rejects_out_of_range_target():
    with pytest.raises(QubitIndexError):
        apply_gate(new_zero_state(2), Gate("RY", 2, angle=0.3))


def test_states_are_immutable():
    state = new_zero_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


@pytest.mark.parametrize("kind", ["RX", "RY", "RZ"])
@pytest.mark.parametrize("seed", range(5))
def test_rotations_preserve_norm(kind, seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    for _ in range(20):
        gate = Gate(kind, int(rng.integers(3)), angle=float(rng.uniform(0, 2 * math.pi)))
        state = apply_gate(state, gate)
    assert abs(state.norm() - 1.0) < 1e-10


# ---------------------------------------------------------------------
# Angle encoding


def test_encode_zeros_gives_ground_state():
    state = angle_encode([0.0, 0.0, 0.0], 3)
    npt.assert_allclose(measure_z_expectations(state), [1.0, 1.0, 1.0], atol=1e-12)


def test_encode_one_flips_qubit():
    state = angle_encode([1.0], 1)
    npt.assert_allclose(measure_z_expectations(state), [-1.0], atol=1e-12)


def test_encode_half_balances():
    state = angle_encode([0.5], 1)
    npt.assert_allclose(measure_z_expectations(state), [0.0], atol=1e-10)


@pytest.mark.parametrize("x", np.linspace(0.0, 1.0, 21))
def test_encode_matches_cosine(x):
    z = measure_z_expectations(angle_encode([float(x)], 1))[0]
    assert abs(z - math.cos(math.pi * x)) < 1e-10


def test_encode_surplus_qubits_stay_down():
    state = angle_encode([0.3, 0.7], 4)
    z = measure_z_expectations(state)
    npt.assert_allclose(z[2:], [1.0, 1.0], atol=1e-12)


def test_encode_rejects_out_of_range_values():
    with pytest.raises(EncodingRangeError):
        angle_encode([1.2], 1)
    with pytest.raises(EncodingRangeError):
        angle_encode([-0.1, 0.5], 2)
    with pytest.raises(EncodingRangeError):
        angle_encode([math.nan], 1)


def test_encode_rejects_too_many_values():
    with pytest.raises(SizeError):
        angle_encode([0.1, 0.2, 0.3], 2)


def test_encode_rejects_matrix_input():
    with pytest.raises(ShapeError):
        angle_encode(np.zeros((2, 2)), 4)


# ---------------------------------------------------------------------
# Z expectations


def test_expectations_of_basis_states():
    ground = new_zero_state(2)
    npt.assert_allclose(measure_z_expectations(ground), [1.0, 1.0])
    flipped = apply_gate(ground, Gate("RY", 0, angle=math.pi))
    flipped = apply_gate(flipped, Gate("RY", 1, angle=math.pi))
    npt.assert_allclose(measure_z_expectations(flipped), [-1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_expectations_bounded(seed):
    rng = np.random.default_rng(seed)
    z = measure_z_expectations(random_state(4, rng))
    assert np.all(z >= -1.0) and np.all(z <= 1.0)


# ---------------------------------------------------------------------
# Templates


def test_basic_entangled_structure():
    spec = build_circuit("basic_entangled", 3, 1, seed=7)
    kinds = [g.kind for g in spec.gates]
    assert kinds == ["RY", "RY", "RY", "CNOT", "CNOT", "CNOT"]
    assert [(g.control, g.target) for g in spec.gates[3:]] == [(0, 1), (1, 2), (2, 0)]


def test_basic_entangled_two_qubits_single_cnot():
    spec = build_circuit("basic_entangled", 2, 1, seed=0)
    cnots = [g for g in spec.gates if g.kind == "CNOT"]
    assert len(cnots) == 1
    assert (cnots[0].control, cnots[0].target) == (0, 1)


def test_basic_entangled_single_qubit_has_no_entangler():
    spec = build_circuit("basic_entangled", 1, 2, seed=0)
    assert all(g.kind == "RY" for g in spec.gates)
    assert len(spec.gates) == 2


def test_strongly_entangled_gate_counts():
    spec = build_circuit("strongly_entangled", 9, 2, seed=1)
    rotations = [g for g in spec.gates if g.kind != "CNOT"]
    cnots = [g for g in spec.gates if g.kind == "CNOT"]
    assert len(rotations) == 2 * 9 * 3
    assert len(cnots) == 2 * 9


def test_strongly_entangled_ring_ranges():
    # layer l uses ring offset (l mod (n-1)) + 1
    spec = build_circuit("strongly_entangled", 4, 3, seed=5)
    cnots = [g for g in spec.gates if g.kind == "CNOT"]
    offsets = [(g.target - g.control) % 4 for g in cnots]
    assert offsets == [1] * 4 + [2] * 4 + [3] * 4


def test_random_template_counts_and_validity():
    for seed in range(20):
        spec = build_circuit("random", 5, 2, seed=seed)
        rotations = [g for g in spec.gates if g.kind != "CNOT"]
        cnots = [g for g in spec.gates if g.kind == "CNOT"]
        assert len(rotations) == 2 * 5
        assert len(cnots) == 2 * (5 // 2)
        for g in cnots:
            assert g.control != g.target


@pytest.mark.parametrize("template", TEMPLATES)
def test_build_circuit_is_deterministic(template):
    a = build_circuit(template, 4, 2, seed=123)
    b = build_circuit(template, 4, 2, seed=123)
    assert a.gates == b.gates


@pytest.mark.parametrize("template", TEMPLATES)
def test_build_circuit_angles_in_range(template):
    spec = build_circuit(template, 6, 3, seed=11)
    for g in spec.gates:
        if g.kind != "CNOT":
            assert 0.0 <= g.angle < 2.0 * math.pi


# sha256 of serialize_circuit(build_circuit(template, n, 2, seed=42)),
# recorded while every angle had its own rng.uniform call, so drawing a
# layer's angles in one call is pinned to the same stream order.
SERIALIZED_DIGESTS = {
    ("basic_entangled", 9): "76ba58f33f6e49a7708acc8b133863c789f4f1a6eae99d6455e562c099c3a0af",
    ("basic_entangled", 12): "88e786e9fd4c32eb2b1ebb0aa89494284f6c008017b0a68a853b2c9bb6bbc22e",
    ("strongly_entangled", 9): "0faa9dc3fe631dd50c4ac0c2a6b62ffb8ed914c5b43ce504c37b734f1884bfc7",
    ("strongly_entangled", 12): "2784ad0f5ee527b1f3e5b075cf3a798607302bbf1e64892b635d59e4c84fa6ee",
    ("random", 9): "ccab5de4b721b4e203762ae396bb2f5da2c065120cbf8f0990095a517d29c5b2",
    ("random", 12): "528bd28cc70aceb7d8546e31812a2f88d3fa4b7196e50728dc475378ea4cf365",
}


@pytest.mark.parametrize("template,n_qubits", sorted(SERIALIZED_DIGESTS))
def test_serialized_circuit_is_pinned(template, n_qubits):
    text = serialize_circuit(build_circuit(template, n_qubits, 2, seed=42))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == SERIALIZED_DIGESTS[template, n_qubits]


def test_build_circuit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_circuit("fancy", 3, 1, seed=0)
    with pytest.raises(ValueError):
        build_circuit("random", 0, 1, seed=0)
    with pytest.raises(ValueError):
        build_circuit("random", 3, 0, seed=0)


# ---------------------------------------------------------------------
# run_circuit


def test_run_empty_circuit_is_identity():
    spec = CircuitSpec("random", 2, 1, 0, gates=())
    state = new_zero_state(2)
    out = run_circuit(spec, state)
    npt.assert_array_equal(out.amplitudes, state.amplitudes)


def test_run_hand_circuit():
    # RY(pi) q0, RY(0) q1, CNOT(0,1) maps |00> to |11>
    gates = (
        Gate("RY", 0, angle=math.pi),
        Gate("RY", 1, angle=0.0),
        Gate("CNOT", target=1, control=0),
    )
    spec = CircuitSpec("basic_entangled", 2, 1, 0, gates=gates)
    out = run_circuit(spec, new_zero_state(2))
    npt.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)
    npt.assert_allclose(measure_z_expectations(out), [-1.0, -1.0], atol=1e-12)


def test_run_rejects_qubit_mismatch():
    spec = build_circuit("basic_entangled", 3, 1, seed=0)
    with pytest.raises(ShapeError):
        run_circuit(spec, new_zero_state(2))


@pytest.mark.parametrize("template", TEMPLATES)
def test_run_preserves_norm(template):
    spec = build_circuit(template, 5, 4, seed=3)
    out = run_circuit(spec, new_zero_state(5))
    assert abs(out.norm() - 1.0) < 1e-10


# ---------------------------------------------------------------------
# Dense oracle, the independent route


def test_oracle_empty_circuit_is_identity_matrix():
    spec = CircuitSpec("random", 2, 1, 0, gates=())
    npt.assert_array_equal(dense_unitary_oracle(spec), np.eye(4))


def test_oracle_cnot_permutation():
    u = gate_unitary(Gate("CNOT", target=1, control=0), 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1.0  # |00>, |01> fixed
    expected[3, 2] = expected[2, 3] = 1.0  # |10> <-> |11>
    npt.assert_array_equal(u.real, expected)
    npt.assert_array_equal(u.imag, np.zeros((4, 4)))


@pytest.mark.parametrize("template", TEMPLATES)
def test_oracle_unitarity(template):
    spec = build_circuit(template, 4, 2, seed=9)
    u = dense_unitary_oracle(spec)
    npt.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-9)


def test_oracle_rejects_large_registers():
    spec = build_circuit("basic_entangled", 7, 1, seed=0)
    with pytest.raises(SizeError):
        dense_unitary_oracle(spec)


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_layers", [1, 3])
def test_simulator_matches_oracle(template, n_qubits, n_layers):
    rng = np.random.default_rng(n_qubits * 100 + n_layers)
    for seed in range(5):
        spec = build_circuit(template, n_qubits, n_layers, seed=seed)
        u = dense_unitary_oracle(spec)
        state = random_state(n_qubits, rng)
        expected = u @ state.amplitudes
        got = run_circuit(spec, state).amplitudes
        npt.assert_allclose(got, expected, atol=1e-9)


# ---------------------------------------------------------------------
# Text format


@pytest.mark.parametrize("template", TEMPLATES)
def test_serialize_parse_round_trip(template):
    spec = build_circuit(template, 4, 2, seed=77)
    back = parse_circuit(serialize_circuit(spec))
    assert back.template == spec.template
    assert back.n_qubits == spec.n_qubits
    assert back.n_layers == spec.n_layers
    assert back.seed == spec.seed
    assert back.gates == spec.gates


def test_round_trip_preserves_expectations():
    spec = build_circuit("random", 4, 2, seed=5)
    back = parse_circuit(serialize_circuit(spec))
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = random_state(4, rng)
        a = measure_z_expectations(run_circuit(spec, state))
        b = measure_z_expectations(run_circuit(back, state))
        npt.assert_allclose(a, b, atol=1e-12)


def test_serialized_angle_has_17_significant_digits():
    gates = (Gate("RY", 0, angle=3.14159),)
    spec = CircuitSpec("basic_entangled", 1, 1, 0, gates=gates)
    text = serialize_circuit(spec)
    assert "RY 0 3.1415899999999999" in text


def test_serialized_headers():
    spec = build_circuit("strongly_entangled", 3, 2, seed=99)
    lines = serialize_circuit(spec).splitlines()
    assert lines[0] == "qubits 3"
    assert lines[1] == "template strongly_entangled"
    assert lines[2] == "layers 2"
    assert lines[3] == "seed 99"


def test_parse_rejects_self_cnot_with_line_number():
    text = "qubits 2\ntemplate random\nlayers 1\nseed 0\nCNOT 0 0\n"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5


@pytest.mark.parametrize(
    "bad_line",
    ["RY 0", "RY 0 1 2", "RZ zero 1.0", "RX 0 fast", "CNOT 0", "WIGGLE 0 1"],
)
def test_parse_rejects_malformed_gate_lines(bad_line):
    text = f"qubits 2\ntemplate random\nlayers 1\nseed 0\n{bad_line}\n"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5


def test_parse_rejects_missing_header():
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits 2\ntemplate random\nlayers 1\nRY 0 0.5\n")


def test_parse_rejects_header_after_gates():
    text = "qubits 2\ntemplate random\nlayers 1\nRY 0 0.5\nseed 0\n"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == 5


def test_parse_ignores_blank_lines():
    spec = build_circuit("basic_entangled", 2, 1, seed=4)
    text = serialize_circuit(spec).replace("\n", "\n\n")
    assert parse_circuit(text).gates == spec.gates


def test_circuit_spec_gate_bounds_checked():
    with pytest.raises(ValueError):
        CircuitSpec("random", 2, 1, 0, gates=(Gate("RY", 5, angle=0.1),))
