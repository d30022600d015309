"""Quanvolution tests: geometry, ranges, oracle equivalence, determinism.

The reference route here re-evaluates every window through the dense
unitary oracle, bypassing both evaluation plans entirely.
"""

import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from quanvseg.exceptions import ConfigError, EncodingRangeError, ShapeError, SizeError
from quanvseg.qsim.circuits import (
    TEMPLATES,
    build_circuit,
    parse_circuit,
    run_circuit,
    serialize_circuit,
)
from quanvseg.qsim.oracle import dense_unitary_oracle, gate_unitary
from quanvseg.qsim.state import angle_encode, measure_z_expectations, new_zero_state
from quanvseg.backend import _CHUNK, _PLANS, _transfer_matrix, backend_name, plan_name
from quanvseg.quanvolution import QuanvConfig, quanvolve, window_positions


def small_config(**kw):
    defaults = dict(kernel_size=2, stride=1, padding="valid", rescale=False)
    defaults.update(kw)
    circuit = defaults.pop("circuit", None)
    if circuit is None:
        circuit = build_circuit("basic_entangled", 4, 1, seed=2)
    return QuanvConfig(circuit=circuit, **defaults)


def oracle_quanvolve(image, config):
    """Per-window reference: dense oracle matrix applied to each encoding."""
    k, s = config.kernel_size, config.stride
    if config.padding == "same-reflect":
        before, after = (k - 1) // 2, k // 2
        image = np.pad(image, ((before, after), (before, after)), mode="reflect")
    u = dense_unitary_oracle(config.circuit)
    positions = window_positions(*image.shape, k, s, "valid")
    n_h = len({r for r, _ in positions})
    n_w = len({c for _, c in positions})
    out = np.empty((config.n_qubits, n_h, n_w))
    for i, (r, c) in enumerate(positions):
        window = image[r : r + k, c : c + k].reshape(-1)
        state = angle_encode(window, config.n_qubits)
        amps = u @ state.amplitudes
        probs = np.abs(amps) ** 2
        for q in range(config.n_qubits):
            v = probs.reshape(1 << q, 2, -1)
            out[q, i // n_w, i % n_w] = v[:, 0, :].sum() - v[:, 1, :].sum()
    if config.rescale:
        out = 0.5 * (1.0 + out)
    return out


# ---------------------------------------------------------------------
# Window geometry


@pytest.mark.parametrize(
    "height,width,kernel,stride,padding,count",
    [
        (4, 4, 2, 2, "valid", 4),
        (3, 3, 3, 1, "valid", 1),
        (5, 5, 3, 1, "same-reflect", 25),
        (8, 8, 2, 1, "valid", 49),
        (8, 6, 3, 2, "valid", 6),
    ],
)
def test_window_counts(height, width, kernel, stride, padding, count):
    assert len(window_positions(height, width, kernel, stride, padding)) == count


def test_windows_are_row_major():
    positions = window_positions(3, 3, 2, 1, "valid")
    assert positions == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_window_rejects_oversized_kernel():
    with pytest.raises(SizeError):
        window_positions(4, 4, 5, 1, "valid")


def test_window_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        window_positions(4, 4, 2, 0, "valid")
    with pytest.raises(ConfigError):
        window_positions(4, 4, 2, 1, "same")


# ---------------------------------------------------------------------
# Config validation


def test_config_takes_qubits_from_circuit():
    config = small_config()
    assert config.n_qubits == 4


def test_config_rejects_qubit_mismatch():
    with pytest.raises(ConfigError):
        small_config(n_qubits=5)


def test_config_enforces_qubit_lower_bound():
    # k=3 needs at least 9 qubits
    circuit = build_circuit("basic_entangled", 4, 1, seed=0)
    with pytest.raises(ConfigError):
        QuanvConfig(circuit=circuit, kernel_size=3)


def test_config_rejects_bad_padding_and_stride():
    with pytest.raises(ConfigError):
        small_config(padding="wrap")
    with pytest.raises(ConfigError):
        small_config(stride=0)
    with pytest.raises(ConfigError):
        small_config(kernel_size=0)


# ---------------------------------------------------------------------
# quanvolve contracts


def test_output_shape_same_reflect():
    circuit = build_circuit("basic_entangled", 9, 2, seed=42)
    config = QuanvConfig(circuit=circuit)
    stack = quanvolve(np.random.default_rng(0).uniform(size=(16, 16)), config)
    assert stack.data.shape == (9, 16, 16)
    assert stack.channels == 9 and stack.height == 16 and stack.width == 16


def test_output_shape_valid_strided():
    config = small_config(stride=2)
    stack = quanvolve(np.random.default_rng(0).uniform(size=(9, 7)), config)
    assert stack.data.shape == (4, 4, 3)


def test_even_kernel_same_reflect_keeps_shape():
    config = small_config(padding="same-reflect")
    stack = quanvolve(np.random.default_rng(1).uniform(size=(6, 5)), config)
    assert stack.data.shape == (4, 6, 5)


def test_rescaled_output_in_unit_interval():
    config = small_config(rescale=True)
    stack = quanvolve(np.random.default_rng(2).uniform(size=(8, 8)), config)
    assert stack.rescaled
    assert stack.data.min() >= 0.0 and stack.data.max() <= 1.0


def test_raw_output_in_symmetric_interval():
    config = small_config(rescale=False)
    stack = quanvolve(np.random.default_rng(3).uniform(size=(8, 8)), config)
    assert stack.data.min() >= -1.0 and stack.data.max() <= 1.0


def test_constant_image_gives_constant_channels():
    config = small_config()
    stack = quanvolve(np.full((6, 6), 0.25), config)
    flat = stack.data.reshape(config.n_qubits, -1)
    assert np.ptp(flat, axis=1).max() < 1e-12


def test_zero_image_matches_single_circuit_run():
    circuit = build_circuit("strongly_entangled", 4, 2, seed=8)
    config = small_config(circuit=circuit)
    stack = quanvolve(np.zeros((5, 5)), config)
    expected = measure_z_expectations(run_circuit(circuit, new_zero_state(4)))
    for q in range(4):
        npt.assert_allclose(stack.data[q], expected[q], atol=1e-12)


def test_locality_of_single_pixel_change():
    config = small_config(padding="valid")
    rng = np.random.default_rng(4)
    image = rng.uniform(size=(8, 8))
    base = quanvolve(image, config).data
    poked = image.copy()
    poked[4, 4] = (poked[4, 4] + 0.31) % 1.0
    changed = quanvolve(poked, config).data
    diff = np.abs(changed - base).max(axis=0)
    affected = {(r, c) for r, c in zip(*np.nonzero(diff > 1e-12))}
    # k=2 windows covering pixel (4,4) start at rows/cols 3 and 4
    assert affected <= {(3, 3), (3, 4), (4, 3), (4, 4)}
    assert (4, 4) in affected


def test_surplus_qubits_see_angle_zero():
    # 2x2 windows on 6 qubits: qubits 4 and 5 are never rotated by data
    circuit = build_circuit("basic_entangled", 6, 1, seed=3)
    config = QuanvConfig(circuit=circuit, kernel_size=2, padding="valid",
                         rescale=False)
    rng = np.random.default_rng(5)
    image = rng.uniform(size=(5, 5))
    stack = quanvolve(image, config).data
    ref = oracle_quanvolve(image, config)
    npt.assert_allclose(stack, ref, atol=1e-9)


def test_input_validation():
    config = small_config()
    with pytest.raises(EncodingRangeError):
        quanvolve(np.full((4, 4), 1.5), config)
    with pytest.raises(EncodingRangeError):
        quanvolve(np.full((4, 4), -0.1), config)
    with pytest.raises(ShapeError):
        quanvolve(np.zeros((4, 4, 4)), config)
    with pytest.raises(ShapeError):
        quanvolve(np.zeros((0, 4)), config)
    with pytest.raises(SizeError):
        quanvolve(np.zeros((1, 1)), small_config(kernel_size=2, padding="valid"))


# ---------------------------------------------------------------------
# Oracle equivalence, both evaluation plans


@pytest.mark.parametrize("padding", ["valid", "same-reflect"])
@pytest.mark.parametrize("template", ["basic_entangled", "strongly_entangled", "random"])
def test_quanvolve_matches_window_oracle(padding, template):
    circuit = build_circuit(template, 4, 2, seed=6)
    config = small_config(circuit=circuit, padding=padding, rescale=True)
    image = np.random.default_rng(7).uniform(size=(8, 8))
    got = quanvolve(image, config).data
    ref = oracle_quanvolve(image, config)
    npt.assert_allclose(got, ref, atol=1e-9)


def oracle_expectations(spec, enc):
    """<Z_q> of encoded windows (N, n) from product states and gate matrices.

    Applies every qsim.oracle.gate_unitary in order, which is what
    dense_unitary_oracle multiplies, without its six-qubit cap.
    """
    n = spec.n_qubits
    states = []
    for angles in enc:
        psi = np.ones(1, dtype=np.complex128)
        for theta in angles:
            psi = np.kron(psi, [math.cos(theta / 2), math.sin(theta / 2)])
        states.append(psi)
    psi = np.array(states).T
    for gate in spec.gates:
        psi = gate_unitary(gate, n) @ psi
    probs = np.abs(psi) ** 2
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    return probs.T @ (1.0 - 2.0 * bits)


@pytest.mark.parametrize("n_qubits", [4, 9])
@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("plan", sorted(_PLANS))
def test_plan_matches_window_oracle(plan, template, n_qubits):
    circuit = build_circuit(template, n_qubits, 2, seed=9)
    rng = np.random.default_rng(8)
    enc = math.pi * rng.uniform(size=(40, n_qubits))
    enc[:4] = 0.0
    enc[4:8] = math.pi
    got = _PLANS[plan](enc, circuit)
    npt.assert_allclose(got, oracle_expectations(circuit, enc), atol=1e-9)


def test_backends_agree():
    """The dense and statevector plans agree over several chunks."""
    circuit = build_circuit("strongly_entangled", 5, 2, seed=10)
    enc = math.pi * np.random.default_rng(9).uniform(size=(2 * _CHUNK + 7, 5))
    dense = _PLANS["dense"](enc, circuit)
    simulated = _PLANS["statevector"](enc, circuit)
    npt.assert_allclose(dense, simulated, atol=1e-12)


def test_selected_backend_is_reported():
    """The plan follows the qubit count alone; only dense ones compile."""
    assert backend_name() == "numpy"
    assert plan_name(10) == "dense"
    assert plan_name(11) == "statevector"
    image = np.random.default_rng(11).uniform(size=(4, 4))
    _transfer_matrix.cache_clear()
    for n_qubits in (10, 11):
        circuit = build_circuit("basic_entangled", n_qubits, 1, seed=11)
        got = quanvolve(image, small_config(circuit=circuit)).data
        assert got.shape == (n_qubits, 3, 3)
    # Only the 10-qubit circuit went through a transfer matrix.
    assert _transfer_matrix.cache_info().misses == 1


def test_dense_plan_compiles_once_per_spec():
    circuit = build_circuit("random", 4, 2, seed=12)
    image = np.random.default_rng(12).uniform(size=(8, 8))
    _transfer_matrix.cache_clear()
    first = quanvolve(image, small_config(circuit=circuit)).data
    # An equal spec rebuilt from text, as eval rebuilds it from a checkpoint.
    again = parse_circuit(serialize_circuit(circuit))
    second = quanvolve(image, small_config(circuit=again)).data
    info = _transfer_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.tobytes() == second.tobytes()


def test_transfer_matrix_encoding():
    for template in TEMPLATES:
        circuit = build_circuit(template, 3, 1, seed=1)
        re, im, signs = _transfer_matrix(circuit)
        u_t = dense_unitary_oracle(circuit).T
        npt.assert_allclose(re, u_t.real, atol=1e-12)
        if im is None:
            assert not u_t.imag.any()
        else:
            npt.assert_allclose(im, u_t.imag, atol=1e-12)
        assert not re.flags.writeable
    # basic_entangled holds only RY and CNOT, so its matrix is real.
    assert _transfer_matrix(build_circuit("basic_entangled", 3, 1, seed=1))[1] is None
    # Row j: +1 where qubit q of basis state j is 0; qubit 0 is the MSB.
    npt.assert_array_equal(signs[0b011], [1.0, -1.0, -1.0])
    npt.assert_array_equal(signs[0b100], [-1.0, 1.0, 1.0])


# ---------------------------------------------------------------------
# Determinism under parallelism


def _quanvolve_bytes(threads):
    """Run an 11-qubit (statevector plan) quanvolution over two chunks in a
    subprocess with a fixed thread cap."""
    code = (
        "import numpy as np\n"
        "from quanvseg.backend import _CHUNK, plan_name\n"
        "from quanvseg.qsim.circuits import build_circuit\n"
        "from quanvseg.quanvolution import QuanvConfig, quanvolve\n"
        "assert plan_name(11) == 'statevector'\n"
        "circuit = build_circuit('strongly_entangled', 11, 1, seed=12)\n"
        "config = QuanvConfig(circuit=circuit, kernel_size=3, rescale=True)\n"
        "image = np.random.default_rng(13).uniform(size=(47, 47))\n"
        "assert _CHUNK < 47 * 47 <= 2 * _CHUNK\n"
        "import sys\n"
        "sys.stdout.buffer.write(quanvolve(image, config).data.tobytes())\n"
    )
    env = dict(os.environ, QUANVSEG_THREADS=str(threads))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True)
    return out.stdout


def test_thread_count_does_not_change_bytes():
    assert _quanvolve_bytes(1) == _quanvolve_bytes(2)


def _dense_bytes(blas_threads):
    """Quanvolve with every template at 9 qubits under a fixed BLAS thread count."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from quanvseg.qsim.circuits import TEMPLATES, build_circuit\n"
        "from quanvseg.backend import plan_name\n"
        "from quanvseg.quanvolution import QuanvConfig, quanvolve\n"
        "assert plan_name(9) == 'dense'\n"
        "for size in (37, 64):\n"
        "    image = np.random.default_rng(size).uniform(size=(size, size))\n"
        "    for template in TEMPLATES:\n"
        "        config = QuanvConfig(circuit=build_circuit(template, 9, 2, seed=14))\n"
        "        sys.stdout.buffer.write(quanvolve(image, config).data.tobytes())\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True)
    return out.stdout


def test_blas_thread_count_does_not_change_dense_bytes():
    assert _dense_bytes(1) == _dense_bytes(2)


def test_threads_env_validation():
    from quanvseg.quanvolution import n_threads

    old = os.environ.get("QUANVSEG_THREADS")
    try:
        os.environ["QUANVSEG_THREADS"] = "3"
        assert n_threads() == 3
        os.environ["QUANVSEG_THREADS"] = "soon"
        with pytest.raises(ConfigError):
            n_threads()
        os.environ["QUANVSEG_THREADS"] = "0"
        with pytest.raises(ConfigError):
            n_threads()
    finally:
        if old is None:
            os.environ.pop("QUANVSEG_THREADS", None)
        else:
            os.environ["QUANVSEG_THREADS"] = old
