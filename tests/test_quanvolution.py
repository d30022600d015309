"""Quanvolution tests: geometry, ranges, oracle equivalence, determinism.

The reference route here re-evaluates every window through the dense
unitary oracle, bypassing the backend's compiled coefficients entirely.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from quanvseg.exceptions import ConfigError, EncodingRangeError, ShapeError, SizeError
from quanvseg.qsim.circuits import (
    TEMPLATES,
    build_circuit,
    parse_circuit,
    run_circuit,
    serialize_circuit,
)
from quanvseg.qsim.oracle import dense_unitary_oracle, gate_unitary
from quanvseg.qsim.state import (
    _BLOCK_AMPLITUDES,
    angle_encode,
    apply_gates_batch,
    measure_z_expectations,
    new_zero_state,
)
from quanvseg.backend import (
    _CHUNK,
    MAX_KERNEL_SIZE,
    _coefficients,
    _gather,
    _products,
    _qubit_coefficients,
    _transfer_matrix,
    _trig_coefficients,
    _trig_taps,
    backend_name,
    run_windows,
)
from quanvseg.quanvolution import PADDINGS, QuanvConfig, quanvolve, window_positions


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
    # The kernel cap is checked first, so 16 qubits for 4x4 windows do not help.
    wide = build_circuit("basic_entangled", 16, 1, seed=2)
    with pytest.raises(ConfigError, match=r"kernel_size must be in \[1, 3\]"):
        small_config(circuit=wide, kernel_size=4)
    with pytest.raises(ConfigError, match="3x3 kernel cap"):
        run_windows(np.zeros((2, 16)), wide)
    with pytest.raises(ConfigError, match="circuit's 4 qubits"):
        run_windows(np.zeros((2, 6)), small_config().circuit)


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
# Oracle equivalence


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


@pytest.mark.parametrize("n_qubits, n_encoded", [(4, 4), (9, 9), (6, 4), (3, 1), (7, 5)],
                         ids=["4", "9", "6-on-4", "3-on-1", "7-on-5"])
@pytest.mark.parametrize("template", TEMPLATES)
def test_run_windows_matches_window_oracle(template, n_qubits, n_encoded):
    """Windows encoded on the first m qubits; the oracle sees angle 0 on the rest."""
    circuit = build_circuit(template, n_qubits, 2, seed=9)
    rng = np.random.default_rng(8)
    enc = math.pi * rng.uniform(size=(40, n_encoded))
    enc[:4] = 0.0
    enc[4:8] = math.pi
    got = run_windows(enc, circuit)
    assert got.shape == (40, n_qubits)
    full = np.pad(enc, ((0, 0), (0, n_qubits - n_encoded)))
    npt.assert_allclose(got, oracle_expectations(circuit, full), atol=1e-9)


@pytest.mark.parametrize("n_encoded", range(1, 11))
def test_product_states_match_kron_ladder(n_encoded):
    """_products of per-qubit factors, written through a transposed view, against np.kron."""
    enc = math.pi * np.random.default_rng(n_encoded).uniform(size=(6, n_encoded))
    enc[0] = 0.0
    enc[1] = math.pi
    want = []
    for angles in enc:
        psi = np.ones(1)
        for theta in angles:
            psi = np.kron(psi, [math.cos(theta / 2), math.sin(theta / 2)])
        want.append(psi)
    half = 0.5 * enc.T
    factors = np.stack((np.cos(half), np.sin(half)), axis=1)
    got = np.empty((6, 1 << n_encoded))
    _products(factors, got.T)
    npt.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("window, stride", [((3, 3), 1), ((2, 2), 3), ((1, 7), 1), ((3, 2), 2)])
def test_gather_copies_row_major_window_ranges(window, stride):
    """Ranges inside one row, from mid-row across whole rows, and ending on a row's end."""
    raster = np.random.default_rng(22).uniform(size=(19, 7 if window == (1, 7) else 23))
    taps = _trig_taps(raster, window, stride)[0]
    kh, kw, n_h, n_w = taps.shape
    want = sliding_window_view(np.cos(raster), window)[::stride, ::stride]
    want = want.reshape(n_h * n_w, kh * kw).T
    bounds = sorted({0, 1, n_w - 1, n_w, n_w + 2, 3 * n_w + 1, n_h * n_w - 1, n_h * n_w})
    for lo in bounds:
        for hi in bounds:
            if lo < hi:
                out = np.full((kh * kw, 2, hi - lo), np.nan)
                _gather(taps, lo, hi, out[:, 1])
                npt.assert_array_equal(out[:, 1], want[:, lo:hi])
                assert np.isnan(out[:, 0]).all()


def test_run_windows_takes_one_window_per_row_by_default():
    circuit = build_circuit("strongly_entangled", 6, 2, seed=23)
    enc = math.pi * np.random.default_rng(23).uniform(size=(40, 4))
    got = run_windows(enc, circuit)
    assert got.shape == (40, 6)
    assert got.tobytes() == run_windows(enc, circuit, (1, 4), 1).tobytes()
    full = np.pad(enc, ((0, 0), (0, 2)))
    npt.assert_allclose(got, oracle_expectations(circuit, full), atol=1e-9)


# (template, qubits, kernel, raster shape): m = 9 over two chunks with
# whole and factored qubits, m = 4, and m = 9 at n = 14, whose compile
# sums each qubit's form over several chunks of V_0.
CROSS_FORM_CASES = {
    "dense-9": ("basic_entangled", 9, 3, (50, 70)),
    "dense-k2-11": ("strongly_entangled", 11, 2, (23, 29)),
    "dense-14": ("strongly_entangled", 14, 3, (21, 26)),
}


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CROSS_FORM_CASES))
def test_raster_windows_give_the_bytes_of_stacked_windows(case, stride):
    """A (k, k) window over a raster against the (N, k**2) copies of its windows.

    The oracle tests feed run_windows (N, m) arrays, one window per row;
    quanvolve feeds the padded raster.  The two must give the same bits.
    """
    template, n_qubits, kernel, shape = CROSS_FORM_CASES[case]
    circuit = build_circuit(template, n_qubits, 3 if n_qubits == 9 else 2, seed=42)
    raster = math.pi * np.random.default_rng(24).uniform(size=shape)
    windows = sliding_window_view(raster, (kernel, kernel))[::stride, ::stride]
    flat = windows.reshape(-1, kernel * kernel)
    got = run_windows(raster, circuit, (kernel, kernel), stride)
    assert got.shape == (len(flat), n_qubits)
    assert got.tobytes() == run_windows(flat, circuit).tobytes()


# sha256 of quanvolve outputs per (template, qubits, layers, kernel, image
# sizes), seed 42: 50x70 gives window counts that are not a multiple of 8
# (3500 at stride 1), 65x65 spans three dense chunks, the 3-layer circuit
# keeps qubits 0 and 8 whole, and k = 2 at n = 11 keeps 7 of 11 whole.
# Recorded while quanvolve still copied every window's angles; reading
# them from the raster must not move a bit.  dense-14 was recorded when it
# left the statevector plan, whose output it matched to 1.7e-15.
QUANV_CASES = {
    "dense-9": ("basic_entangled", 9, 2, 3, ((50, 70), (65, 65))),
    "dense-9-3-layer": ("basic_entangled", 9, 3, 3, ((50, 70),)),
    "dense-12": ("strongly_entangled", 12, 2, 3, ((50, 70), (31, 44))),
    "dense-k2-11": ("strongly_entangled", 11, 2, 2, ((50, 70), (23, 29))),
    "dense-14": ("strongly_entangled", 14, 2, 3, ((9, 11),)),
}
QUANV_DIGESTS = {
    "dense-9": "88221f34afae1701d08cff440d60a858be439eb60f32709b69a308afef6f3aa9",
    "dense-9-3-layer": "78d5721eb647151c6e2aabe505aa5ae2613bc42e2d05c47f24de463ba2752380",
    "dense-12": "e688c7937100b8d4f568904265a55d65e17920ec140b8ab6f7fef4b604a0ae04",
    "dense-k2-11": "319bef9b527fbc9b4b23847833e27eb0d36e46f86d74ec3b938107e0c08d44ee",
    "dense-14": "160b995ff4259417e6facd0a339bf09cf5fd64a12f53fbfad2d3999cf256256e",
}


def quanv_digest(template, n_qubits, layers, kernel, sizes):
    """sha256 of quanvolve outputs at strides 1-3 and both paddings, with their shapes."""
    circuit = build_circuit(template, n_qubits, layers, seed=42)
    digest = hashlib.sha256()
    for height, width in sizes:
        image = np.random.default_rng(height * width).uniform(size=(height, width))
        for stride in (1, 2, 3):
            for padding in PADDINGS:
                config = QuanvConfig(circuit=circuit, kernel_size=kernel, stride=stride,
                                     padding=padding, rescale=padding == "same-reflect")
                data = quanvolve(image, config).data
                digest.update(f"{stride} {padding} {data.shape}\0".encode("ascii"))
                digest.update(data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(QUANV_CASES))
def test_quanvolve_outputs_are_pinned(case):
    assert quanv_digest(*QUANV_CASES[case]) == QUANV_DIGESTS[case]


def test_quanvolve_holds_its_output_rasters_and_one_chunk(traced_peak):
    """Traced peak of quanvolve on a 256x256 scene at m = n = 9.

    Beside its output (9 x 256**2 float64, 4.5 MiB) quanvolve holds the
    angle raster and its cos and sin (258**2 values each, 0.51 MiB), and
    the dense plan one chunk's buffers: (1, cos, sin), head and tail
    features, G and H, 443 rows of 2048 values (6.9 MiB), plus the
    ladders' temporaries.  Measured 13.70 MiB; 29.94 MiB (98.94 MiB at
    512x512) while every window's angles were copied, scaled and
    transposed, and the output gathered by qubit and copied again.
    """
    circuit = build_circuit("basic_entangled", 9, 2, seed=42)
    factors = _coefficients(circuit, 9)  # compile first: the cached coefficients are not counted
    image = np.random.default_rng(25).uniform(size=(256, 256))
    rows = 3 * 9 + 81 + 243 + factors.tail.shape[0] + factors.head.shape[0]
    chunk_bytes = rows * _CHUNK * 8
    output_bytes = 9 * 256 * 256 * 8
    raster_bytes = 258 * 258 * 8
    peak = traced_peak(lambda: quanvolve(image, QuanvConfig(circuit=circuit)))
    bound = output_bytes + 4 * raster_bytes + 1.15 * chunk_bytes
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_dense_plan_last_chunk_of_one_window_matches_oracle():
    """Three chunks, the last of them a single window, reusing the buffers."""
    circuit = build_circuit("strongly_entangled", 5, 2, seed=17)
    enc = math.pi * np.random.default_rng(17).uniform(size=(2 * _CHUNK + 1, 5))
    got = run_windows(enc, circuit)
    npt.assert_allclose(got, oracle_expectations(circuit, enc), atol=1e-9)


def test_dense_plan_allocates_no_per_chunk_temporaries(traced_peak):
    """Peak traced allocation of a three-chunk call at m = n = 9.

    The plan holds the head features (81 per window), the tail features
    (243), each angle's (1, cos, sin) (27) and G and H (46 rows each, as
    this circuit's C_q all factor): 443 of the 512 rows of one (chunk,
    512) float64 buffer.  With the angles, the output and its reordered
    copy it peaks at about 1.03 buffers.  One full-size temporary per
    chunk (a ladder of stacks, a fresh GEMM output) pushes that past 1.5.
    """
    circuit = build_circuit("basic_entangled", 9, 2, seed=16)
    _coefficients(circuit, 9)  # compile first: the cached coefficients are not counted
    enc = math.pi * np.random.default_rng(16).uniform(size=(2 * _CHUNK + 1, 9))
    buffer_bytes = _CHUNK * 512 * 8
    peak = traced_peak(lambda: run_windows(enc, circuit))
    assert peak < 1.5 * buffer_bytes, f"peak {peak / buffer_bytes:.2f} chunk buffers"


def test_dense_plan_at_12_qubits_allocates_no_2_to_the_n_buffers(traced_peak):
    """A 64x64 scene's windows at m = 9, n = 12: no (chunk, 4096) buffer.

    Evaluating |psi V|^2 held (chunk, 2**n) GEMM buffers, two of them for a
    complex circuit (4 x 32 MB); the split form needs about 0.65 of one.
    """
    circuit = build_circuit("strongly_entangled", 12, 1, seed=15)
    _coefficients(circuit, 9)
    enc = math.pi * np.random.default_rng(19).uniform(size=(4096, 9))
    buffer_bytes = _CHUNK * 4096 * 8
    peak = traced_peak(lambda: run_windows(enc, circuit))
    assert peak < 0.5 * buffer_bytes, f"peak {peak / buffer_bytes:.2f} (chunk, 4096) buffers"


def trig_features(angles):
    """Kronecker product over qubits of (1, cos theta, sin theta), qubit 0 first."""
    out = np.ones(1)
    for theta in angles:
        out = np.kron(out, [1.0, math.cos(theta), math.sin(theta)])
    return out


def qubit_coefficients(factors, n_head):
    """Each qubit's C_q (3**a, 3**b), rebuilt from the compiled rows."""
    whole = len(factors.order) - len(factors.starts)
    ends = np.append(factors.starts[1:], factors.head.shape[0])
    kept = factors.tail[:whole * n_head].reshape(whole, n_head, factors.tail.shape[1])
    low_rank = factors.tail[whole * n_head:]
    coef = dict(zip(factors.order[:whole], kept))
    for q, lo, hi in zip(factors.order[whole:], factors.starts, ends):
        coef[q] = factors.head[lo:hi].T @ low_rank[lo:hi]
    return [coef[q] for q in range(len(factors.order))]


def assert_coefficients_match_oracle(circuit, n_encoded):
    """<Z_q> = Fh . (C_q @ Ft), features built here, against gate matrices.

    Returns the compiled coefficients after checking their layout.
    """
    n_qubits = circuit.n_qubits
    factors = _coefficients(circuit, n_encoded)
    a = n_encoded // 2
    n_head, n_tail = 3**a, 3 ** (n_encoded - a)
    assert sorted(factors.order) == list(range(n_qubits))
    ranks = np.diff(np.append(factors.starts, factors.head.shape[0]))
    # A qubit is factored only when its rows cost fewer multiply-adds.
    assert np.all(ranks >= 1) and np.all(ranks * (n_head + n_tail) < n_head * n_tail)
    whole = n_qubits - len(ranks)
    assert factors.tail.shape == (whole * n_head + ranks.sum(), n_tail)
    assert factors.head.shape == (ranks.sum(), n_head)
    assert not any(arr.flags.writeable for arr in factors)
    coef = qubit_coefficients(factors, n_head)
    enc = math.pi * np.random.default_rng(21).uniform(size=(6, n_encoded))
    enc[0] = 0.0
    enc[1] = math.pi
    got = [[trig_features(w[:a]) @ c @ trig_features(w[a:]) for c in coef] for w in enc]
    full = np.pad(enc, ((0, 0), (0, n_qubits - n_encoded)))
    npt.assert_allclose(got, oracle_expectations(circuit, full), rtol=0, atol=1e-9)
    return factors


@pytest.mark.parametrize("n_encoded, n_qubits",
                         [(1, 1), (1, 3), (4, 4), (4, 6), (5, 5), (5, 7), (9, 9), (9, 11)])
@pytest.mark.parametrize("template", TEMPLATES)
def test_coefficients_reproduce_window_oracle(template, n_encoded, n_qubits):
    """The 11-qubit oracle multiplies 2048 x 2048 gate matrices, so that
    circuit has one layer; the others have two.  m = 1 keeps every C_q
    whole, m = 9 factors every one, and m = 4 and 5 factor some.
    """
    circuit = build_circuit(template, n_qubits, 1 if n_qubits > 9 else 2, seed=20)
    assert_coefficients_match_oracle(circuit, n_encoded)


@pytest.mark.parametrize("template", TEMPLATES)
def test_four_layer_coefficients_reproduce_window_oracle(template):
    """At four layers the entangling templates keep every C_q whole."""
    factors = assert_coefficients_match_oracle(build_circuit(template, 9, 4, seed=20), 9)
    if template != "random":
        assert len(factors.starts) == 0


def factors_digest(factors):
    """sha256 of the compiled arrays, with their names, dtypes and shapes."""
    digest = hashlib.sha256()
    for name, arr in zip(factors._fields, factors):
        digest.update(f"{name} {arr.dtype.str} {arr.shape}\0".encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


# sha256 of _coefficients(build_circuit(template, 9, 2, seed=42), 9):
# desk_quanv's circuit (real) and a complex one.  Both V_0 (512 x 256, and
# 512 x 2 x 256 for the complex one) fit in one chunk of the compile, so
# each qubit's form is one syrk over all of V_0.  Recorded when the compile
# still copied all of V_0 for each qubit; chunking must not move a bit.
FACTOR_DIGESTS = {
    "basic_entangled": "b3899bef566934c20e05b57463d83e8a58ea18b08ca5dc6921918ea3a7d933df",
    "strongly_entangled": "34d84da1fb3a18078862e7725aa0a5c76095b7e2fd9e15756c8309c0c2650603",
}


@pytest.mark.parametrize("template", sorted(FACTOR_DIGESTS))
def test_one_chunk_compiles_are_pinned(template):
    factors = _coefficients(build_circuit(template, 9, 2, seed=42), 9)
    assert factors_digest(factors) == FACTOR_DIGESTS[template]


def test_chunked_compile_matches_one_gemm_at_12_qubits():
    """At m = 9, n = 12 each qubit's V_0 (512 x 2 x 2048) takes several
    chunks; the reference copies all of it and forms Re(V_0 V_0^+) in one GEMM.
    """
    circuit = build_circuit("strongly_entangled", 12, 2, seed=15)
    v = _transfer_matrix(circuit, 9)
    assert v.dtype == np.complex128
    assert 512 * 2 * 2048 > max(4**9, _BLOCK_AMPLITUDES)
    got = _qubit_coefficients(circuit, 9)
    for q in range(12):
        half = v.reshape(512, 1 << q, 2, -1)[:, :, 0, :].reshape(512, -1)
        flat = np.concatenate([half.real, half.imag], axis=1)
        form = 2.0 * (flat @ flat.T) - np.eye(512)
        want = _trig_coefficients(form, 9).reshape(81, 243)
        npt.assert_allclose(got[q], want, rtol=0, atol=1e-12)


def test_compile_holds_the_transfer_block_and_form_sized_buffers(traced_peak):
    """Compile at m = 9, n = 12 (2-layer strongly_entangled).

    V is 512 x 4096 complex128, 32 MiB.  Beside it the compile holds a
    chunk of V_0, the form, one chunk's Gram matrix and C (2 MiB each) and
    the change of basis' temporaries: 1.35 V measured.  Copying all of V_0
    (16 MiB) for each qubit peaked at 1.73 V.
    """
    circuit = build_circuit("strongly_entangled", 12, 2, seed=15)
    v_bytes = 512 * 4096 * 16
    _coefficients.cache_clear()
    peak = traced_peak(lambda: _coefficients(circuit, 9))
    assert peak < 1.5 * v_bytes, f"peak {peak / v_bytes:.2f} V"


def test_real_circuits_compile_in_float64():
    """RY and CNOT only: the float64 block is the complex128 one's real part, bit for bit."""
    circuit = build_circuit("basic_entangled", 7, 2, seed=18)
    block = _transfer_matrix(circuit, 5)
    assert block.dtype == np.float64
    rows = np.zeros((32, 128), dtype=np.complex128)
    rows[np.arange(32), np.arange(32) << 2] = 1.0
    apply_gates_batch(rows, circuit.gates)
    assert not rows.imag.any()
    assert block.tobytes() == np.ascontiguousarray(rows.real).tobytes()


@pytest.mark.parametrize("n_qubits", [11, 14])
@pytest.mark.parametrize("template", TEMPLATES)
def test_run_windows_matches_simulator_for_3x3_windows(template, n_qubits):
    """k = 3 on 11 and 14 qubits, against the single-state simulator."""
    circuit = build_circuit(template, n_qubits, 2, seed=9)
    windows = np.random.default_rng(8).uniform(size=(24, 9))
    windows[:2] = 0.0
    windows[2:4] = 1.0
    got = run_windows(math.pi * windows, circuit)
    want = [measure_z_expectations(run_circuit(circuit, angle_encode(w, n_qubits)))
            for w in windows]
    npt.assert_allclose(got, want, atol=1e-9)


def test_selected_backend_is_reported():
    """One implementation; each kernel up to the cap compiles once and runs."""
    assert backend_name() == "numpy"
    assert MAX_KERNEL_SIZE == 3
    circuit = build_circuit("basic_entangled", 9, 1, seed=11)
    image = np.random.default_rng(11).uniform(size=(5, 5))
    _coefficients.cache_clear()
    for kernel_size in range(1, MAX_KERNEL_SIZE + 1):
        config = small_config(circuit=circuit, kernel_size=kernel_size)
        got = quanvolve(image, config).data
        assert got.shape == (9, 6 - kernel_size, 6 - kernel_size)
    assert _coefficients.cache_info().misses == MAX_KERNEL_SIZE


def test_3x3_windows_on_12_qubits_compile_the_encoded_block_once():
    circuit = build_circuit("strongly_entangled", 12, 1, seed=15)
    image = np.random.default_rng(15).uniform(size=(6, 6))
    config = QuanvConfig(circuit=circuit, kernel_size=3)
    _coefficients.cache_clear()
    first = quanvolve(image, config).data
    second = quanvolve(image, config).data
    info = _coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.tobytes() == second.tobytes()
    # At one layer every qubit's 3**4 x 3**5 C_q has rank 1: one row of
    # head and one of tail coefficients each, in place of 12 * 81 rows.
    factors = _coefficients(circuit, 9)
    assert (factors.head.shape, factors.tail.shape) == ((12, 81), (12, 243))


def test_dense_plan_compiles_once_per_spec():
    circuit = build_circuit("random", 4, 2, seed=12)
    image = np.random.default_rng(12).uniform(size=(8, 8))
    _coefficients.cache_clear()
    first = quanvolve(image, small_config(circuit=circuit)).data
    # An equal spec rebuilt from text, as eval rebuilds it from a checkpoint.
    again = parse_circuit(serialize_circuit(circuit))
    second = quanvolve(image, small_config(circuit=again)).data
    info = _coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.tobytes() == second.tobytes()


def test_transfer_matrix_encoding():
    for template in TEMPLATES:
        circuit = build_circuit(template, 3, 1, seed=1)
        u_t = dense_unitary_oracle(circuit).T
        # m = 3 is all of U^T; m = 2 keeps the rows whose last qubit is 0.
        for n_encoded, rows in ((3, [0, 1, 2, 3, 4, 5, 6, 7]), (2, [0, 2, 4, 6])):
            block = _transfer_matrix(circuit, n_encoded)
            npt.assert_allclose(block, u_t[rows], atol=1e-12)
            # basic_entangled holds only RY and CNOT, so its block is real.
            assert (block.dtype == np.float64) == (template == "basic_entangled")


# ---------------------------------------------------------------------
# Determinism under BLAS threading


def _dense_bytes(blas_threads):
    """Quanvolve with every template at 9 qubits, and with a 14-qubit circuit
    whose compile sums each form over several chunks, under a fixed BLAS
    thread count."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from quanvseg.qsim.circuits import TEMPLATES, build_circuit\n"
        "from quanvseg.quanvolution import QuanvConfig, quanvolve\n"
        "for size in (37, 50, 64):\n"
        "    image = np.random.default_rng(size).uniform(size=(size, size))\n"
        "    for template in TEMPLATES:\n"
        "        config = QuanvConfig(circuit=build_circuit(template, 9, 2, seed=14))\n"
        "        sys.stdout.buffer.write(quanvolve(image, config).data.tobytes())\n"
        "config = QuanvConfig(circuit=build_circuit('strongly_entangled', 14, 2, seed=14))\n"
        "image = np.random.default_rng(14).uniform(size=(50, 50))\n"
        "sys.stdout.buffer.write(quanvolve(image, config).data.tobytes())\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True)
    return out.stdout


def test_blas_thread_count_does_not_change_dense_bytes():
    assert _dense_bytes(1) == _dense_bytes(2)
