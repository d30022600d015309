"""Attention gate traces, model assembly, training, and checkpoints."""

import hashlib
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from quanvseg import _heap, unet
from quanvseg.checkpoint import load_checkpoint, save_checkpoint
from quanvseg.datapipe import PatchItem, PatchSet
from quanvseg.exceptions import (
    ConfigError,
    DataError,
    FileFormatError,
    ShapeError,
    StateError,
)
from quanvseg.nn import adam_step, bce_loss, init_adam, ops
from quanvseg.nn.gradcheck import gradcheck
from quanvseg.nn.metrics import overall_accuracy
from quanvseg.qsim.circuits import build_circuit, serialize_circuit
from quanvseg.quanvolution import QuanvConfig
from quanvseg.training import (
    LOG_HEADER,
    TrainConfig,
    evaluate,
    predict_masks,
    train,
)
from quanvseg.unet import (
    BASELINE_REFERENCE_CONFIG,
    QUANTUM_REFERENCE_CONFIG,
    UPSAMPLE_KINDS,
    AttentionUNetConfig,
    attention_gate_backward,
    attention_gate_forward,
    build_model,
    count_params,
    init_gate_params,
    parameter_shapes,
)


def zeroed_gate(c_g, c_x, width, seed=0):
    params, stats = init_gate_params(c_g, c_x, width, np.random.default_rng(seed))
    for key in ("wg.w", "wg.b", "wx.w", "wx.b", "wr.w", "wr.b"):
        params[key] = np.zeros_like(params[key])
    return params, stats


def toy_patches(n=4, size=16, seed=0):
    """Rectangle-on-background patches small enough to overfit quickly."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        mask = np.zeros((size, size))
        r, c = int(rng.integers(2, size - 8)), int(rng.integers(2, size - 8))
        mask[r : r + 6, c : c + 6] = 1.0
        image = 0.15 + 0.5 * mask + rng.normal(0.0, 0.02, (size, size))
        items.append(PatchItem(image=np.clip(image, 0.0, 1.0), mask=mask,
                               row=i, col=0))
    return PatchSet(items=tuple(items))


# ---------------------------------------------------------------------
# Attention gate


def test_gate_zero_weight_trace():
    # all projection weights zero, batch-norm at identity: the attention
    # map collapses to sigmoid(0) = 0.5 and the output vanishes exactly
    params, stats = zeroed_gate(3, 3, 4)
    g = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
    x_i = np.random.default_rng(2).normal(size=(2, 3, 8, 8))
    out, _, cache = attention_gate_forward(g, x_i, params, stats)
    npt.assert_array_equal(cache["psi"], 0.0)
    npt.assert_array_equal(cache["psi_norm"], 0.0)
    npt.assert_array_equal(cache["alpha"], 0.5)
    npt.assert_array_equal(cache["rho"], 0.0)
    npt.assert_array_equal(out, 0.0)


def test_gate_unit_rho_passes_half_input():
    params, stats = zeroed_gate(2, 2, 1)
    params["wr.w"] = np.ones_like(params["wr.w"])
    x_i = np.random.default_rng(3).normal(size=(1, 2, 6, 6))
    g = np.random.default_rng(4).normal(size=(1, 2, 6, 6))
    out, _, cache = attention_gate_forward(g, x_i, params, stats)
    npt.assert_array_equal(cache["rho"], 0.5)
    npt.assert_array_equal(out, 0.5 * x_i)


def test_gate_alpha_is_bounded_and_psi_act_nonnegative():
    params, stats = init_gate_params(4, 4, 2, np.random.default_rng(5))
    g = np.random.default_rng(6).normal(size=(2, 4, 8, 8))
    x_i = np.random.default_rng(7).normal(size=(2, 4, 8, 8))
    _, _, cache = attention_gate_forward(g, x_i, params, stats, train=True)
    assert np.all(cache["alpha"] > 0.0) and np.all(cache["alpha"] < 1.0)
    assert np.all(cache["psi_act"] >= 0.0)


def test_gate_zero_upstream_gives_zero_grads():
    params, stats = init_gate_params(3, 3, 2, np.random.default_rng(8))
    g = np.random.default_rng(9).normal(size=(1, 3, 4, 4))
    x_i = np.random.default_rng(10).normal(size=(1, 3, 4, 4))
    out, _, cache = attention_gate_forward(g, x_i, params, stats, train=True)
    g_g, g_x, grads = attention_gate_backward(cache, np.zeros_like(out))
    npt.assert_array_equal(g_g, 0.0)
    npt.assert_array_equal(g_x, 0.0)
    for v in grads.values():
        npt.assert_array_equal(v, 0.0)


def test_gate_grad_x_contains_direct_product_term():
    # kill the projection path by driving psi negative (dead ReLU);
    # what is left of grad_x is exactly rho * upstream
    params, stats = zeroed_gate(2, 2, 3)
    params["wg.b"] = np.full(3, -1.0)
    params["wx.b"] = np.full(3, -1.0)
    params["wr.w"] = np.random.default_rng(11).normal(size=(1, 3, 1, 1))
    params["wr.b"] = np.array([0.25])
    g = np.random.default_rng(12).normal(size=(1, 2, 5, 5))
    x_i = np.random.default_rng(13).normal(size=(1, 2, 5, 5))
    out, _, cache = attention_gate_forward(g, x_i, params, stats)
    gy = np.random.default_rng(14).normal(size=out.shape)
    _, g_x, _ = attention_gate_backward(cache, gy)
    npt.assert_allclose(g_x, cache["rho"] * gy, rtol=1e-12)


def test_gate_rejects_spatial_mismatch():
    params, stats = init_gate_params(2, 2, 2, np.random.default_rng(15))
    with pytest.raises(ShapeError):
        attention_gate_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 8, 8)),
                               params, stats)


def test_gate_backward_rejects_foreign_cache():
    with pytest.raises(StateError):
        attention_gate_backward({"psi": np.zeros(1)}, np.zeros((1, 1, 2, 2)))
    with pytest.raises(StateError):
        attention_gate_backward("nonsense", np.zeros((1, 1, 2, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_gate_gradcheck_randomized_shapes(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 9))
    s = int(rng.integers(4, 13))
    width = int(rng.integers(1, 5))
    params, stats = init_gate_params(c, c, width, rng, dtype=np.float64)
    g = rng.normal(size=(2, c, s, s))
    x_i = rng.normal(size=(2, c, s, s))
    weight = rng.normal(size=(2, c, s, s))
    arrays = [g, x_i] + [params[k] for k in sorted(params)]
    state = {}

    def loss():
        out, _, cache = attention_gate_forward(g, x_i, params, stats, train=True)
        state["cache"] = cache
        return float((out * weight).sum())

    def grads():
        loss()
        g_g, g_x, pg = attention_gate_backward(state["cache"], weight)
        return [g_g, g_x] + [pg[k] for k in sorted(pg)]

    report = gradcheck(f"gate-random-{seed}", loss, grads, arrays, 1e-4,
                       seed=seed)
    assert report.passed, str(report)


# ---------------------------------------------------------------------
# Configuration and parameter accounting


def test_config_validation():
    with pytest.raises(ConfigError, match="at least 2 entries"):
        AttentionUNetConfig(widths=(4,))
    with pytest.raises(ConfigError):
        AttentionUNetConfig(widths=(4, 0))
    with pytest.raises(ConfigError):
        AttentionUNetConfig(widths=(4, 8), in_channels=0)
    with pytest.raises(ConfigError):
        AttentionUNetConfig(widths=(4, 8), upsample="bilinear")


def test_default_gate_widths_are_half_skip_widths():
    cfg = AttentionUNetConfig(widths=(8, 16, 32))
    assert cfg.depth == 3
    assert cfg.gate_widths == (4, 8)
    narrow = AttentionUNetConfig(widths=(1, 2))
    assert narrow.depth == 2
    assert narrow.gate_widths == (1,)


def enumerated_param_total(cfg):
    return sum(int(np.prod(shape)) for kind, name, shape in parameter_shapes(cfg)
               if kind == "param")


@pytest.mark.parametrize("cfg", [
    AttentionUNetConfig(widths=(4, 8)),
    AttentionUNetConfig(widths=(4, 8), upsample="nearest"),
    AttentionUNetConfig(widths=(8, 16, 32)),
    AttentionUNetConfig(widths=(4, 8, 16), in_channels=9),
    AttentionUNetConfig(widths=(1, 3, 5)),
    AttentionUNetConfig(widths=(4, 8, 16, 32), upsample="nearest"),
])
def test_count_params_matches_enumeration_and_model(cfg):
    expected = enumerated_param_total(cfg)
    assert count_params(cfg) == expected
    assert build_model(cfg, seed=0).n_params() == expected


def test_depth2_count_matches_hand_sum():
    # widths=[4,8], in=1, transposed upsampling, gate width 2:
    #   enc0  : 1*4*9+4 + 8 + 4*4*9+4 + 8            = 204
    #   bottl : 4*8*9+8 + 16 + 8*8*9+8 + 16          = 912
    #   up    : 8*4*4+4                               = 132
    #   gate  : (2*4+2)*2 + 4 + 2+1                   = 27
    #   dec0  : 8*4*9+4 + 8 + 4*4*9+4 + 8            = 456
    #   head  : 4+1                                   = 5
    cfg = AttentionUNetConfig(widths=(4, 8))
    assert count_params(cfg) == 204 + 912 + 132 + 27 + 456 + 5


def test_depth2_nearest_count_matches_hand_sum():
    # as above, but the upsampling is nearest x2 then conv3x3 + batch norm:
    #   up    : 8*4*9+4 + 8                           = 300
    cfg = AttentionUNetConfig(widths=(4, 8), upsample="nearest")
    assert count_params(cfg) == 204 + 912 + 300 + 27 + 456 + 5


def test_reference_configs_hit_target_budgets():
    baseline = count_params(BASELINE_REFERENCE_CONFIG)
    quantum = count_params(QUANTUM_REFERENCE_CONFIG)
    assert baseline == enumerated_param_total(BASELINE_REFERENCE_CONFIG)
    assert quantum == enumerated_param_total(QUANTUM_REFERENCE_CONFIG)
    assert baseline == 34_876_453
    assert quantum == 2_185_357
    assert abs(baseline - 34.8e6) / 34.8e6 <= 0.05
    assert quantum / baseline <= 0.07


def test_build_model_is_seeded():
    cfg = AttentionUNetConfig(widths=(4, 8))
    a = build_model(cfg, seed=7)
    b = build_model(cfg, seed=7)
    c = build_model(cfg, seed=8)
    for k in a.params:
        npt.assert_array_equal(a.params[k], b.params[k])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


# sha256 over (name, raw bytes) of build_model(cfg, seed=3) params then
# stats, in dict order.  Recorded from the hand-written builder that
# parameter_shapes replaced, so allocation order, fan-in and initial values
# are pinned bit for bit; the digests follow numpy's Generator.normal stream.
INIT_DIGESTS = {
    "transposed": (AttentionUNetConfig(),
                   "c1fc5c32cba027e6326e1345211522c59e2f23da805ef3ab965e7e5b55d2ec4d"),
    "nearest": (AttentionUNetConfig(upsample="nearest"),
                "220c3afc6b99dca2ebca216eceb415777c3cff2a26211c073e7c46dbde81b892"),
    "nine-channel": (AttentionUNetConfig(in_channels=9),
                     "bff22cc517c2d008425b034477db71bf1e82eb5fad6d3ef3968cac861614a62b"),
}


def model_digest(model):
    digest = hashlib.sha256()
    for table in (model.params, model.stats):
        for key, arr in table.items():
            digest.update(key.encode("ascii") + b"\0")
            digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(INIT_DIGESTS))
def test_build_model_initialisation_is_pinned(name):
    cfg, expected = INIT_DIGESTS[name]
    assert model_digest(build_model(cfg, seed=3)) == expected


# The same digest after 12 Adam steps of the desk train step (widths 8,16,32,
# batch 8, 64x64) from build_model(cfg, seed=3).  It pins every op's forward
# and backward arithmetic bit for bit, so a change that reorders a sum, on
# purpose or not, shows here; such a change records its new digest.  The
# bytes also depend on the BLAS build (they held across 1 and 2 OpenBLAS
# threads when recorded).
TRAIN_DIGESTS = {
    "transposed": "0828591ab9a179dcfd8579980d3544e158df7e66559cbdce47ee9bff0eeab890",
    "nearest": "6ae088a98895f8312a759678f35f6586b7bde4913d53b56cf30455fe7cae88d6",
}


def pinned_training_run(kind):
    model = build_model(AttentionUNetConfig(upsample=kind), seed=3)
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(8, 1, 64, 64)).astype(np.float32)
    y = (rng.uniform(size=(8, 1, 64, 64)) < 0.3).astype(np.float32)
    state = init_adam(model.params, lr=1e-3)
    for _ in range(12):
        out, caches = model.forward(x, train=True)
        _, g = bce_loss(out, y)
        grads, _ = model.backward(caches, g)
        adam_step(model.params, grads, state)
    return model


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_training_is_pinned(kind):
    assert model_digest(pinned_training_run(kind)) == TRAIN_DIGESTS[kind]


def _training_digests(blas_threads):
    """TRAIN_DIGESTS' runs, both upsample kinds, in a subprocess with a fixed
    BLAS thread count (set before numpy loads OpenBLAS)."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from test_attention_unet import model_digest, pinned_training_run\n"
        "from quanvseg.unet import UPSAMPLE_KINDS\n"
        "for kind in UPSAMPLE_KINDS:\n"
        "    print(kind, model_digest(pinned_training_run(kind)))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True, text=True)
    return dict(line.split() for line in out.stdout.splitlines())


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_training_bytes_hold_on_1_and_2_blas_threads(blas_threads):
    """A new GEMM shape in the conv ops must keep the train step's bytes
    whatever OpenBLAS's thread count, as the quanvolution plans do."""
    assert _training_digests(blas_threads) == TRAIN_DIGESTS


# sha256 of the eval-mode output of build_model(cfg, seed=3) at the desk
# widths, batch 8, 64x64, after one train-mode forward on another batch has
# moved the batch-norm running statistics off their initial values.
# Recorded while forward(train=False) still recorded a full tape, so the
# no-record inference path is pinned to the bits of the recording one.
INFERENCE_DIGESTS = {
    ("transposed", 1): "a3e4fb9db513ec17df00e5331ece475234a3b2be1e5656076c99f06226db31bf",
    ("transposed", 9): "548e0073ba2af8b9380b2e567874f39c4cb2403182ce3c2a4107213216a2c325",
    ("nearest", 1): "019a56301343daa58614f006ce4ac45192a1fc6d032677379a02894097fd8bbf",
    ("nearest", 9): "09f5ef8b8a7b85895a4d51ee840bdabeffe95ff99c8e30e100951a119d382434",
}


def pinned_inference_model(kind, channels):
    """INFERENCE_DIGESTS' model, after the train-mode forward, and its eval batch."""
    model = build_model(AttentionUNetConfig(in_channels=channels, upsample=kind), seed=3)
    rng = np.random.default_rng(5)
    model.forward(rng.uniform(size=(8, channels, 64, 64)).astype(np.float32), train=True)
    return model, rng.uniform(size=(8, channels, 64, 64)).astype(np.float32)


def pinned_inference_digest(kind, channels):
    model, x = pinned_inference_model(kind, channels)
    out, _ = model.forward(x)
    return hashlib.sha256(out.tobytes()).hexdigest()


@pytest.mark.parametrize("kind,channels", sorted(INFERENCE_DIGESTS))
def test_inference_is_pinned(kind, channels):
    assert pinned_inference_digest(kind, channels) == INFERENCE_DIGESTS[kind, channels]


def _inference_digests(blas_threads):
    """INFERENCE_DIGESTS' runs in a subprocess with a fixed BLAS thread count."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from test_attention_unet import INFERENCE_DIGESTS, pinned_inference_digest\n"
        "for kind, channels in sorted(INFERENCE_DIGESTS):\n"
        "    print(kind, channels, pinned_inference_digest(kind, channels))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True, text=True)
    return {(kind, int(channels)): digest
            for kind, channels, digest in map(str.split, out.stdout.splitlines())}


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_inference_bytes_hold_on_1_and_2_blas_threads(blas_threads):
    """The conv tiles set the inference GEMMs' column counts; the eval
    output's bytes must not depend on OpenBLAS's thread count either."""
    assert _inference_digests(blas_threads) == INFERENCE_DIGESTS


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_eval_output_of_an_image_holds_alone_and_in_a_batch(kind):
    # Conv tiles hold several whole images at the coarser levels, so an
    # image shares its GEMMs with its neighbours in a batch and not alone.
    model, x = pinned_inference_model(kind, 1)
    batch, _ = model.forward(x)
    for i in range(len(x)):
        alone, _ = model.forward(x[i : i + 1])
        assert alone.tobytes() == batch[i : i + 1].tobytes()


def test_parameter_shapes_align_with_built_model():
    cfg = AttentionUNetConfig(widths=(4, 8, 16), upsample="nearest")
    model = build_model(cfg)
    declared = {name: (kind, shape) for kind, name, shape in parameter_shapes(cfg)}
    actual = {name: ("param", p.shape) for name, p in model.params.items()}
    actual.update({name: ("stat", s.shape) for name, s in model.stats.items()})
    assert declared == actual


# ---------------------------------------------------------------------
# Forward contracts


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_forward_shapes_and_range(kind):
    cfg = AttentionUNetConfig(widths=(4, 8, 16), upsample=kind)
    model = build_model(cfg, seed=0)
    x = np.random.default_rng(0).uniform(size=(1, 1, 64, 64))
    out, _ = model.forward(x)
    assert out.shape == (1, 1, 64, 64)
    assert np.all(out > 0.0) and np.all(out < 1.0)
    # one conv2d entry per kernel outside the transposed upsampling, the
    # gates' three 1x1 convs included, on a train-mode tape (an inference
    # tape keeps none); the gates' ops are entries of the U-Net's tape
    _, tape = model.forward(x, train=True)
    kernels = [name for _, name, _ in parameter_shapes(cfg)
               if name.endswith(".w") and not name.endswith(".up.w")]
    convs = [names[0] for backward, _, _, names in tape.entries
             if backward is ops.conv2d_backward]
    assert sorted(convs) == sorted(kernels)
    assert [name for name in convs if ".gate." in name] == [
        f"dec{i}.gate.{p}.w" for i in (1, 0) for p in ("wg", "wx", "wr")]
    assert not any(backward is attention_gate_backward for backward, _, _, _ in tape.entries)


def small_train_forward(kind, seed):
    """A small model built from seed, its train-mode tape and an upstream gradient."""
    model = build_model(AttentionUNetConfig(widths=(4, 8, 16), upsample=kind),
                        seed=seed)
    rng = np.random.default_rng(2)
    out, tape = model.forward(rng.uniform(size=(2, 1, 16, 16)), train=True)
    return model, tape, rng.normal(size=out.shape).astype(out.dtype)


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_backward_consumes_its_tape(kind):
    model, tape, gy = small_train_forward(kind, seed=1)
    model.backward(tape, gy)
    assert tape.entries == []
    with pytest.raises(StateError, match="consumed"):
        model.backward(tape, gy)


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_backward_is_repeatable_from_the_same_parameters(kind):
    runs = []
    for _ in range(2):
        model, tape, gy = small_train_forward(kind, seed=1)
        runs.append(model.backward(tape, gy))
    (grads1, gx1), (grads2, gx2) = runs
    assert grads1.keys() == grads2.keys() == model.params.keys()
    for name in grads1:
        assert grads1[name].tobytes() == grads2[name].tobytes(), name
    assert gx1.tobytes() == gx2.tobytes()


def test_backward_rejects_foreign_tape():
    model = build_model(AttentionUNetConfig(widths=(4, 8)))
    gy = np.zeros((1, 1, 8, 8))
    with pytest.raises(StateError):
        model.backward({}, gy)
    with pytest.raises(StateError):
        model.backward("nonsense", gy)
    other = build_model(AttentionUNetConfig(widths=(4, 8)))
    _, tape = other.forward(np.zeros((1, 1, 8, 8)))
    with pytest.raises(StateError):
        model.backward(tape, gy)


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_inference_tape_keeps_no_entries(kind, monkeypatch):
    model = build_model(AttentionUNetConfig(widths=(4, 8, 16), upsample=kind))
    gate_tapes = []
    gate = unet._attention_gate

    def spy(tape, *args):
        gate_tapes.append(tape)
        return gate(tape, *args)

    monkeypatch.setattr(unet, "_attention_gate", spy)
    _, tape = model.forward(np.random.default_rng(0).uniform(size=(2, 1, 16, 16)))
    assert not tape.replayable and tape.entries == []
    assert gate_tapes == [tape, tape]


def test_backward_rejects_inference_tape():
    model = build_model(AttentionUNetConfig(widths=(4, 8)))
    out, tape = model.forward(np.zeros((1, 1, 8, 8)), train=False)
    with pytest.raises(StateError, match=r"train=False.*train=True"):
        model.backward(tape, np.ones_like(out))


def test_inference_forward_peaks_well_below_train_forward(traced_peak):
    """Traced peaks at the desk widths, batch 8, 64x64.

    The train forward holds every op's cache until it returns (24.96 MiB);
    the inference forward frees each as its op returns (8.30 MiB).  A tape
    that kept inference caches would peak like the train forward.
    """
    model = build_model(AttentionUNetConfig(widths=(8, 16, 32)), seed=0)
    x = np.random.default_rng(0).uniform(size=(8, 1, 64, 64)).astype(np.float32)
    train_peak = traced_peak(lambda: model.forward(x, train=True))
    eval_peak = traced_peak(lambda: model.forward(x, train=False))
    assert eval_peak < 0.7 * train_peak, f"{eval_peak / train_peak:.2f} of the train forward"


def test_train_holds_one_tape_at_a_time(traced_peak):
    """train over three batches peaks like train over one (26.7 vs 25.7 MiB).

    A step that kept its tape until the next forward returned held two
    tapes at once, and three batches then peaked at 57.9 MiB.
    """
    def peak(n_patches):
        model = build_model(AttentionUNetConfig(widths=(8, 16, 32)), seed=0)
        patches = toy_patches(n=n_patches, size=64)
        return traced_peak(lambda: train(model, patches, TrainConfig(epochs=1, batch_size=8)))

    one_step, three_steps = peak(8), peak(24)
    assert three_steps < 1.1 * one_step, f"{three_steps / one_step:.2f} of one step"


def desk_step_inputs():
    """The desk model (widths 8,16,32), a batch of 8 64x64 inputs and targets."""
    model = build_model(AttentionUNetConfig(widths=(8, 16, 32)), seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(8, 1, 64, 64)).astype(np.float32)
    return model, x, (rng.uniform(size=(8, 1, 64, 64)) > 0.7).astype(np.float32)


def test_desk_train_step_peaks_below_the_buffers_it_no_longer_holds(traced_peak):
    """One desk train step peaked at 30.87 MiB traced, inside backward,
    when replay held every cache until it returned, each gate kept psi,
    psi_act and psi_norm, and ReLU masks took a byte per value.  Now it
    peaks at 24.95 MiB, at the end of its forward.

    The bound is that 30.87 MiB less the buffers no backward reads: the
    three gate intermediates (2.25 MiB) and 7/8 of the byte-per-value ReLU
    masks (1.59 MiB), which leaves 27.03 MiB.
    """
    model, x, t = desk_step_inputs()
    cfg, (n, _, size, _) = model.config, x.shape

    def values(channels, level):
        return n * channels * (size >> level) ** 2

    gate_values = sum(values(c, i) for i, c in enumerate(cfg.gate_widths))
    # two ReLUs per double conv (encoders, bottleneck, decoders), one per gate
    relu_values = 2 * sum(values(w, i) for i, w in enumerate(cfg.widths)) \
        + 2 * sum(values(w, i) for i, w in enumerate(cfg.widths[:-1])) + gate_values
    bound = 30.87 * 2**20 - 3 * gate_values * x.itemsize - relu_values * 7 / 8

    def step():
        out, tape = model.forward(x, train=True)
        _, gy = bce_loss(out, t)
        del out
        model.backward(tape, gy)

    peak = traced_peak(step)
    assert peak < bound, f"{peak / 2**20:.2f} MiB against {bound / 2**20:.2f} MiB"


def test_backward_rises_less_than_its_largest_input_gradient():
    """Consuming the tape frees each cache once its backward has run, so
    backward rises above the memory live when it starts by less than the
    largest gradient it makes: dec0's first conv's input gradient (8 x 16
    x 64 x 64 float32, 2 MiB).  It rose 6.09 MiB when every cache lived
    until backward returned, and rises 1.60 MiB now.
    """
    model, x, t = desk_step_inputs()
    tracemalloc.start()
    try:
        out, tape = model.forward(x, train=True)
        _, gy = bce_loss(out, t)
        del out
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.backward(tape, gy)
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    bound = x.shape[0] * 2 * model.config.widths[0] * x.shape[2] * x.shape[3] * x.itemsize
    assert rise < bound, f"{rise / 2**20:.2f} MiB against {bound / 2**20:.2f} MiB"


def test_forward_accepts_nine_channel_input():
    cfg = AttentionUNetConfig(widths=(4, 8), in_channels=9)
    model = build_model(cfg, seed=1)
    out, _ = model.forward(np.random.default_rng(1).uniform(size=(2, 9, 16, 16)))
    assert out.shape == (2, 1, 16, 16)


def test_forward_rejects_bad_inputs():
    model = build_model(AttentionUNetConfig(widths=(4, 8, 16)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((1, 2, 16, 16)))  # wrong channel count
    with pytest.raises(ShapeError):
        model.forward(np.zeros((1, 1, 18, 18)))  # not a multiple of 4
    with pytest.raises(ShapeError):
        model.forward(np.zeros((1, 16, 16)))


def test_forward_eval_mode_ignores_batch_composition():
    cfg = AttentionUNetConfig(widths=(4, 8))
    model = build_model(cfg, seed=2)
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(1, 1, 16, 16))
    b = rng.uniform(size=(1, 1, 16, 16))
    out_joint, _ = model.forward(np.concatenate([a, b]))
    out_a, _ = model.forward(a)
    npt.assert_allclose(out_joint[:1], out_a, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------
# Training and evaluation


def test_train_zero_lr_keeps_params_and_logs():
    patches = toy_patches()
    model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    _, lines = train(model, patches, TrainConfig(lr=0.0, epochs=1, batch_size=2))
    assert lines[0] == LOG_HEADER
    assert len(lines) == 2 and lines[1].startswith("1\t")
    for k, v in model.params.items():
        npt.assert_array_equal(v, before[k])


def test_train_is_deterministic():
    def run():
        model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=4)
        _, lines = train(model, toy_patches(), TrainConfig(lr=1e-3, epochs=3,
                                                           batch_size=2), seed=11)
        return model, lines

    m1, log1 = run()
    m2, log2 = run()
    assert log1 == log2
    for k in m1.params:
        npt.assert_array_equal(m1.params[k], m2.params[k])


def test_train_overfits_four_patches():
    patches = toy_patches(n=4)
    model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=0)
    _, lines = train(model, patches, TrainConfig(lr=1e-2, epochs=200,
                                                 batch_size=4), seed=0)
    final_oa = float(lines[-1].split("\t")[2])
    assert final_oa >= 0.99


def minor_faults(call):
    """Minor page faults the process takes during call()."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the retained-heap policy is set on glibc only")
def test_warm_train_step_and_forward_fault_in_no_fresh_pages():
    """A warmed desk train step and eval forward reuse freed heap buffers.

    Under glibc's default thresholds, freed temporaries can go back to
    the kernel, and each call then faults them in again at about 2-3 us
    a page: 7,600 pages a step and 6,300 a forward in one heap layout,
    none in another.  With the policy set at import, both take a handful.
    """
    assert _heap.RETAINED
    model = build_model(AttentionUNetConfig(widths=(8, 16, 32)), seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(8, 1, 64, 64)).astype(np.float32)
    t = (rng.uniform(size=(8, 1, 64, 64)) > 0.7).astype(np.float32)
    state = init_adam(model.params, lr=1e-3)

    def step():
        out, tape = model.forward(x, train=True)
        _, gy = bce_loss(out, t)
        grads, _ = model.backward(tape, gy)
        adam_step(model.params, grads, state)

    def forward():
        model.forward(x, train=False)

    for _ in range(3):
        step()
        forward()
    assert minor_faults(step) < 64
    assert minor_faults(forward) < 64


def test_train_rejects_empty_split():
    model = build_model(AttentionUNetConfig(widths=(4, 8)))
    with pytest.raises(DataError):
        train(model, PatchSet(), TrainConfig(epochs=1))
    with pytest.raises(DataError):
        evaluate(model, PatchSet())


def test_train_rejects_channel_mismatch():
    model = build_model(AttentionUNetConfig(widths=(4, 8), in_channels=9))
    with pytest.raises(ShapeError):
        train(model, toy_patches(), TrainConfig(epochs=1))


def forced_bias_model(bias):
    model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=5)
    model.params["head.w"][...] = 0.0
    model.params["head.b"][...] = bias
    return model


def test_evaluate_forced_negative_model_scores_background_fraction():
    patches = toy_patches()
    result = evaluate(forced_bias_model(-50.0), patches)
    background = 1.0 - float(patches.masks().mean())
    assert result.oa == pytest.approx(background)
    assert result.iou == 0.0


def test_evaluate_micro_average_equals_concatenated_pixels():
    patches = toy_patches(n=6, seed=3)
    model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=6)
    train(model, patches, TrainConfig(lr=1e-3, epochs=2, batch_size=3))
    result = evaluate(model, patches)
    preds = predict_masks(model, patches)
    assert result.oa == pytest.approx(overall_accuracy(preds, patches.masks()))
    assert len(result.rows) == 6
    assert [r.index for r in result.rows] == list(range(6))


def test_evaluate_rows_bound_the_aggregate():
    patches = toy_patches(n=5, seed=9)
    result = evaluate(forced_bias_model(50.0), patches)
    lo = min(r.oa for r in result.rows)
    hi = max(r.oa for r in result.rows)
    assert lo <= result.oa <= hi


# ---------------------------------------------------------------------
# Checkpoints


@pytest.mark.parametrize("kind", UPSAMPLE_KINDS)
def test_checkpoint_round_trip(tmp_path, kind):
    cfg = AttentionUNetConfig(widths=(4, 8), upsample=kind)
    model = build_model(cfg, seed=12)
    train(model, toy_patches(), TrainConfig(lr=1e-3, epochs=1, batch_size=2))
    prefix = tmp_path / "ckpt"
    save_checkpoint(prefix, model)
    loaded, quanv_config = load_checkpoint(prefix)
    assert quanv_config is None
    assert loaded.config == cfg
    assert loaded.params.keys() == model.params.keys()
    for k in model.params:
        npt.assert_array_equal(loaded.params[k], model.params[k])
    for k in model.stats:
        npt.assert_array_equal(loaded.stats[k], model.stats[k])
    x = np.random.default_rng(13).uniform(size=(1, 1, 16, 16))
    npt.assert_array_equal(loaded.forward(x)[0], model.forward(x)[0])


def test_checkpoint_carries_quanvolution_settings(tmp_path):
    spec = build_circuit("basic_entangled", 4, 1, seed=2)
    qcfg = QuanvConfig(circuit=spec, kernel_size=2, stride=1,
                       padding="same-reflect", rescale=True)
    model = build_model(AttentionUNetConfig(widths=(4, 8),
                                            in_channels=4), seed=14)
    prefix = tmp_path / "qckpt"
    save_checkpoint(prefix, model, quanv_config=qcfg)
    _, loaded = load_checkpoint(prefix)
    assert loaded == qcfg
    assert (tmp_path / "qckpt.circuit").read_text() == serialize_circuit(spec)


def test_checkpoint_quanv_requires_circuit(tmp_path):
    # a quanvolved checkpoint cannot load without the circuit it names
    spec = build_circuit("basic_entangled", 4, 1, seed=2)
    qcfg = QuanvConfig(circuit=spec, kernel_size=2, stride=1,
                       padding="valid", rescale=True)
    model = build_model(AttentionUNetConfig(widths=(4, 8),
                                            in_channels=4))
    save_checkpoint(tmp_path / "bad", model, quanv_config=qcfg)
    (tmp_path / "bad.circuit").unlink()
    with pytest.raises(FileNotFoundError, match="bad.circuit"):
        load_checkpoint(tmp_path / "bad")


def test_checkpoint_rejects_bad_magic(tmp_path):
    model = build_model(AttentionUNetConfig(widths=(4, 8)))
    prefix = tmp_path / "ckpt"
    save_checkpoint(prefix, model)
    manifest = (prefix.parent / "ckpt.manifest").read_text()
    (prefix.parent / "ckpt.manifest").write_text(
        manifest.replace("quanvseg-checkpoint 2", "something-else 9", 1)
    )
    with pytest.raises(FileFormatError):
        load_checkpoint(prefix)


def test_checkpoint_rejects_missing_tensor(tmp_path):
    # head.b's record, the last, is cut off, and the manifest's size and
    # checksum are updated to match.
    model = build_model(AttentionUNetConfig(widths=(4, 8)))
    prefix = tmp_path / "ckpt"
    save_checkpoint(prefix, model)
    data = (tmp_path / "ckpt.tensors").read_bytes()
    data = data[:data.rindex(b"QVT1")]
    (tmp_path / "ckpt.tensors").write_bytes(data)
    manifest = (tmp_path / "ckpt.manifest").read_text().splitlines()
    manifest[-2:] = [f"tensors.bytes {len(data)}", f"tensors.crc32 {zlib.crc32(data):08x}"]
    (tmp_path / "ckpt.manifest").write_text("\n".join(manifest) + "\n")
    with pytest.raises(FileFormatError, match=f"offset {len(data)}.*head.b"):
        load_checkpoint(prefix)


def test_checkpoint_round_trips_float64(tmp_path):
    model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=3, dtype=np.float64)
    save_checkpoint(tmp_path / "ckpt", model)
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    assert loaded.dtype == np.float64
    for table, saved in ((loaded.params, model.params), (loaded.stats, model.stats)):
        assert table.keys() == saved.keys()
        for k in saved:
            assert table[k].dtype == np.float64
            npt.assert_array_equal(table[k], saved[k])


def test_manifest_holds_only_what_no_other_file_does(tmp_path):
    save_checkpoint(tmp_path / "plain", build_model(AttentionUNetConfig()))
    keys = [ln.split()[0] for ln in (tmp_path / "plain.manifest").read_text().splitlines()]
    assert keys == ["quanvseg-checkpoint", "in_channels", "widths", "upsample",
                    "tensors.bytes", "tensors.crc32"]
    qcfg = QuanvConfig(circuit=build_circuit("basic_entangled", 9, 2, seed=42))
    save_checkpoint(tmp_path / "q", build_model(AttentionUNetConfig(in_channels=9)),
                    quanv_config=qcfg)
    keys = [ln.split()[0] for ln in (tmp_path / "q.manifest").read_text().splitlines()]
    assert keys == ["quanvseg-checkpoint", "in_channels", "widths", "upsample",
                    "quanv.kernel", "quanv.stride", "quanv.padding", "quanv.rescale",
                    "circuit.crc32", "tensors.bytes", "tensors.crc32"]


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    import quanvseg.checkpoint as checkpoint

    cfg = AttentionUNetConfig(widths=(4, 8))
    model = build_model(cfg, seed=1)
    prefix = tmp_path / "ckpt"
    save_checkpoint(prefix, model)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    original = checkpoint.tensor_to_bytes
    calls = []

    def failing(array):
        calls.append(array)
        if len(calls) == 3:
            raise OSError("disk gone")
        return original(array)

    monkeypatch.setattr(checkpoint, "tensor_to_bytes", failing)
    with pytest.raises(OSError, match="disk gone"):
        save_checkpoint(prefix, build_model(cfg, seed=2))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded, _ = load_checkpoint(prefix)
    for k in model.params:
        npt.assert_array_equal(loaded.params[k], model.params[k])


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    def failing(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="replace refused"):
        save_checkpoint(tmp_path / "ckpt", build_model(AttentionUNetConfig(widths=(4, 8))))
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "absent")
