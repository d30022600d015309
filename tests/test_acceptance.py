"""Acceptance battery: the eight headline checks, one test per check.

Tests are numbered so the verbose report reads as a checklist.  Each
also prints a one-line summary visible under `pytest -s`.  The two
expensive checks (thread invariance, desk-scale end-to-end) dominate
the suite's runtime; both stay inside their documented wall-clock
budgets on a single CPU core.
"""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from quanvseg.datapipe import PatchItem, PatchSet, extract_patches, split, synth_scene
from quanvseg.fileio import write_pgm
from quanvseg.qsim.circuits import TEMPLATES, build_circuit, run_circuit
from quanvseg.qsim.oracle import dense_unitary_oracle
from quanvseg.qsim.state import _freeze
from quanvseg.quanvolution import QuanvConfig, quanvolve
from quanvseg.training import TrainConfig, evaluate, train
from quanvseg.unet import (
    BASELINE_REFERENCE_CONFIG,
    QUANTUM_REFERENCE_CONFIG,
    AttentionUNetConfig,
    attention_gate_forward,
    build_model,
    count_params,
    gradcheck_suite,
    init_gate_params,
    parameter_shapes,
)


def random_state(n_qubits, rng):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return _freeze(n_qubits, amps)


def test_01_simulator_equals_dense_oracle():
    """Gate-by-gate simulation against the Kronecker-built unitary."""
    worst = 0.0
    for template in TEMPLATES:
        for n_qubits in (2, 4):
            for n_layers in (1, 2):
                for seed in range(100):
                    spec = build_circuit(template, n_qubits, n_layers, seed)
                    matrix = dense_unitary_oracle(spec)
                    rng = np.random.default_rng((seed * 12 + n_qubits) * 7919)
                    for _ in range(10):
                        state = random_state(n_qubits, rng)
                        got = run_circuit(spec, state).amplitudes
                        want = matrix @ state.amplitudes
                        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-9
    print(f"PASS simulator vs dense oracle: worst |diff| {worst:.3e}")


def brute_force_quanvolve(image, config):
    """Windows evaluated one by one through the dense circuit unitary."""
    k = config.kernel_size
    n = config.circuit.n_qubits
    matrix = dense_unitary_oracle(config.circuit)
    if config.padding == "same-reflect":
        before, after = (k - 1) // 2, k // 2
        image = np.pad(image, ((before, after), (before, after)), mode="reflect")
    h_out = (image.shape[0] - k) // config.stride + 1
    w_out = (image.shape[1] - k) // config.stride + 1
    out = np.zeros((n, h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            window = image[i * config.stride : i * config.stride + k,
                           j * config.stride : j * config.stride + k]
            values = list(window.reshape(-1)) + [0.0] * (n - k * k)
            factors = [np.array([np.cos(np.pi * v / 2.0), np.sin(np.pi * v / 2.0)])
                       for v in values]
            amps = matrix @ functools.reduce(np.kron, factors).astype(np.complex128)
            probs = np.abs(amps) ** 2
            for q in range(n):
                bits = (np.arange(1 << n) >> (n - 1 - q)) & 1
                z = float(probs[bits == 0].sum() - probs[bits == 1].sum())
                out[q, i, j] = (1.0 + z) / 2.0 if config.rescale else z
    return out


@pytest.mark.parametrize("padding", ["valid", "same-reflect"])
def test_02_quanvolution_matches_brute_force(padding):
    """8x8 images, 2x2 windows, 4 qubits, window-by-window reference."""
    worst = 0.0
    for template in TEMPLATES:
        for seed in (0, 1):
            spec = build_circuit(template, 4, 2, seed=seed + 3)
            config = QuanvConfig(circuit=spec, kernel_size=2, stride=1,
                                 padding=padding, rescale=True)
            image = np.random.default_rng(seed).uniform(size=(8, 8))
            got = quanvolve(image, config).data
            want = brute_force_quanvolve(image, config)
            assert got.shape == want.shape
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-9
    print(f"PASS quanvolution vs brute force ({padding}): "
          f"worst |diff| {worst:.3e}")


def test_03_thread_count_does_not_change_output(tmp_path):
    """The CLI quanvolve artifact is byte-identical under 1 or 2 BLAS threads.

    The thread count is fixed when BLAS loads, so each run is a subprocess.
    """
    image, _ = synth_scene(128, 128, n_rects=10, seed=7, looks=4.0)
    scene = tmp_path / "scene.pgm"
    write_pgm(scene, image, maxval=65535)
    run_cli = "import sys; from quanvseg.cli import main; sys.exit(main(sys.argv[1:]))"
    payloads = {}
    for threads in ("1", "2"):
        out = tmp_path / f"stack{threads}.qvt1"
        subprocess.run([sys.executable, "-c", run_cli, "quanvolve",
                        "--input", str(scene), "--output", str(out)],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        payloads[threads] = out.read_bytes()
    assert payloads["1"] == payloads["2"]
    print("PASS thread invariance: 128x128, 9 qubits, byte-identical output")


def test_04_gradient_suite_within_tolerance():
    """Finite differences over every layer, the gate, and toy models."""
    reports = gradcheck_suite(seed=0)
    failed = [str(r) for r in reports if not r.passed]
    assert not failed, f"failed: {failed}"
    worst = max(r.max_rel_error for r in reports)
    print(f"PASS gradient suite: {len(reports)} checks, worst rel {worst:.3e}")


def test_05_parameter_count_calibration():
    """Reference budgets and exact agreement with enumeration."""
    def enumerate_total(cfg):
        return sum(int(np.prod(shape)) for kind, _, shape in parameter_shapes(cfg)
                   if kind == "param")

    baseline = count_params(BASELINE_REFERENCE_CONFIG)
    quantum = count_params(QUANTUM_REFERENCE_CONFIG)
    assert abs(baseline - 34.8e6) / 34.8e6 <= 0.05
    assert quantum <= 0.07 * baseline
    probe_configs = [
        BASELINE_REFERENCE_CONFIG,
        QUANTUM_REFERENCE_CONFIG,
        AttentionUNetConfig(depth=2, widths=(4, 8)),
        AttentionUNetConfig(depth=3, widths=(8, 16, 32)),
        AttentionUNetConfig(depth=3, widths=(4, 8, 16), in_channels=9),
        AttentionUNetConfig(depth=4, widths=(8, 16, 32, 64), upsample="nearest"),
    ]
    for cfg in probe_configs:
        assert count_params(cfg) == enumerate_total(cfg)
    for cfg in probe_configs[2:]:
        assert build_model(cfg, seed=0).n_params() == count_params(cfg)
    print(f"PASS parameter calibration: baseline {baseline:,} "
          f"({baseline / 34.8e6 - 1.0:+.2%} of 34.8M), "
          f"quantum {quantum:,} ({quantum / baseline:.2%})")


def test_06_desk_scale_parity_with_fewer_parameters():
    """Speckled corpus; the quanvolved variant matches the baseline OA
    within 0.03 using well under half the trainable parameters."""
    items = []
    for seed in (0, 1):
        image, mask = synth_scene(640, 640, n_rects=60, seed=seed, looks=4.0)
        items.extend(extract_patches(image, mask, patch=64, stride=64).items)
    corpus = PatchSet(items=tuple(items))
    assert len(corpus) == 200
    train_set, test_set = split(corpus, test_fraction=0.2, seed=0)

    baseline = build_model(
        AttentionUNetConfig(in_channels=1, depth=3, widths=(8, 16, 32)), seed=0
    )
    hyper = TrainConfig(lr=1e-3, epochs=30, batch_size=8)
    train(baseline, train_set, hyper, seed=0)
    base_oa = evaluate(baseline, test_set).oa

    spec = build_circuit("basic_entangled", 9, 2, seed=42)
    qconfig = QuanvConfig(circuit=spec, kernel_size=3, stride=1,
                          padding="same-reflect", rescale=True)

    def quanvolved(patchset):
        converted = tuple(
            PatchItem(image=quanvolve(item.image, qconfig).data.astype(np.float32),
                      mask=item.mask, row=item.row, col=item.col)
            for item in patchset.items
        )
        return PatchSet(items=converted)

    quantum = build_model(
        AttentionUNetConfig(in_channels=9, depth=3, widths=(4, 8, 16)), seed=0
    )
    train(quantum, quanvolved(train_set), hyper, seed=0)
    quantum_oa = evaluate(quantum, quanvolved(test_set)).oa

    reduction = 1.0 - quantum.n_params() / baseline.n_params()
    assert base_oa >= 0.90
    assert abs(base_oa - quantum_oa) <= 0.03
    assert reduction >= 0.60
    print(f"PASS desk-scale run: baseline OA {base_oa:.4f}, "
          f"quanvolved OA {quantum_oa:.4f}, "
          f"{reduction:.1%} fewer parameters")


def test_07_patch_grid_counts_and_contents():
    """1024x1024 scene cut with 256-pixel windows at stride 128."""
    rng = np.random.default_rng(11)
    image = rng.uniform(size=(1024, 1024))
    mask = (rng.uniform(size=(1024, 1024)) > 0.5).astype(np.float64)
    patches = extract_patches(image, mask, patch=256, stride=128)
    assert len(patches) == 49
    for item in patches.items:
        window = image[item.row : item.row + 256, item.col : item.col + 256]
        assert np.array_equal(item.image, window)
        assert np.array_equal(
            item.mask, mask[item.row : item.row + 256, item.col : item.col + 256]
        )
    print("PASS patch grid: 49 windows, contents bitwise equal")


def test_08_attention_gate_zero_weight_trace():
    """Zero projections force a half-strength map and a null output."""
    params, stats = init_gate_params(3, 3, 4, np.random.default_rng(0))
    for key in ("wg.w", "wg.b", "wx.w", "wx.b", "wr.w", "wr.b"):
        params[key] = np.zeros_like(params[key])
    g = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
    x_i = np.random.default_rng(2).normal(size=(2, 3, 16, 16))
    out, _, cache = attention_gate_forward(g, x_i, params, stats)
    assert np.all(cache["alpha"] == 0.5)
    assert np.all(out == 0.0)
    print("PASS attention-gate trace: alpha 0.5 everywhere, output exactly 0")
