"""Layer, loss, optimizer, and metric tests for the tensor core.

Every backward pass is also exercised through the packaged
finite-difference battery across many seeds at the end.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from quanvseg.exceptions import NumericError, ShapeError
from quanvseg.nn import ops
from quanvseg.nn.gradcheck import GradCheckReport, gradcheck
from quanvseg.nn.metrics import confusion_counts, iou, overall_accuracy
from quanvseg.nn.optim import adam_step, init_adam
from quanvseg.unet import gradcheck_suite


# ---------------------------------------------------------------------
# Convolution


def test_conv_all_ones_3x3():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    out, _ = ops.conv2d_forward(x, w)
    npt.assert_allclose(out, np.full((1, 1, 1, 1), 9.0))


def test_conv_identity_1x1():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out, _ = ops.conv2d_forward(x, w, np.zeros(3))
    npt.assert_allclose(out, x)


def test_conv_is_cross_correlation():
    # an asymmetric kernel applied without flipping
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 0, 0] = 1.0
    w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    out, _ = ops.conv2d_forward(x, w, padding=1)
    # output[i,j] = sum_kl x[i+k-1, j+l-1] * w[k,l]; the pulse at (0,0)
    # appears weighted by w[1,1]=4 at (0,0), w[1,2]=5 at (0,-? ) etc.
    assert out[0, 0, 0, 0] == 4.0
    assert out[0, 0, 0, 1] == 3.0
    assert out[0, 0, 1, 0] == 1.0


def test_conv_stride_and_padding_shapes():
    x = np.zeros((1, 2, 8, 8))
    w = np.zeros((4, 2, 3, 3))
    out, _ = ops.conv2d_forward(x, w, stride=2, padding=1)
    assert out.shape == (1, 4, 4, 4)


def test_conv_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        ops.conv2d_forward(np.zeros((1, 3, 4, 4)), np.zeros((2, 4, 3, 3)))


def _conv_reference(x, w, b, stride, padding, gy):
    """Direct loops over output pixels: (out, gx, gw, gb) of cross-correlation."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.zeros((n, c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for r in range(h_out):
        for c in range(w_out):
            rows = slice(r * stride, r * stride + kh)
            cols = slice(c * stride, c * stride + kw)
            patch = xp[:, :, rows, cols]
            out[:, :, r, c] = np.einsum("nckl,ockl->no", patch, w)
            gxp[:, :, rows, cols] += np.einsum("no,ockl->nckl", gy[:, :, r, c], w)
            gw += np.einsum("no,nckl->ockl", gy[:, :, r, c], patch)
    gb = None
    if b is not None:
        out += b[None, :, None, None]
        gb = gy.sum(axis=(0, 2, 3))
    gx = gxp[:, :, padding : padding + h, padding : padding + wd]
    return out, gx, gw, gb


@pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (2, 3)])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_matches_loop_reference(stride, padding, kernel):
    rng = np.random.default_rng(100 * stride + 10 * padding + kernel[0] + kernel[1])
    x = rng.normal(size=(2, 3, 7, 9))
    w = rng.normal(size=(4, 3) + kernel)
    b = rng.normal(size=4) if (stride + padding) % 2 else None
    out, cache = ops.conv2d_forward(x, w, b, stride=stride, padding=padding)
    gy = rng.normal(size=out.shape)
    want_out, want_gx, want_gw, want_gb = _conv_reference(x, w, b, stride, padding, gy)
    gx, gw, gb = ops.conv2d_backward(cache, gy)
    npt.assert_allclose(out, want_out, rtol=0, atol=1e-9)
    npt.assert_allclose(gx, want_gx, rtol=0, atol=1e-9)
    npt.assert_allclose(gw, want_gw, rtol=0, atol=1e-9)
    if b is None:
        assert gb is None
    else:
        npt.assert_allclose(gb, want_gb, rtol=0, atol=1e-9)


def test_conv_float32_stays_float32():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 6, 5)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = np.zeros(4, dtype=np.float32)
    out, cache = ops.conv2d_forward(x, w, b, stride=2, padding=1)
    assert out.dtype == np.float32
    for g in ops.conv2d_backward(cache, np.ones_like(out)):
        assert g.dtype == np.float32


# ---------------------------------------------------------------------
# Pointwise layers and pooling


def test_relu_values():
    out, _ = ops.relu_forward(np.array([-1.0, 2.0]))
    npt.assert_array_equal(out, [0.0, 2.0])


def test_sigmoid_values():
    out, _ = ops.sigmoid_forward(np.array([0.0]))
    npt.assert_allclose(out, [0.5])
    big, _ = ops.sigmoid_forward(np.array([800.0, -800.0]))
    assert np.all(np.isfinite(big))
    npt.assert_allclose(big, [1.0, 0.0], atol=1e-12)


def _sigmoid_two_branch(x):
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bits_match_two_branch_formula(dtype):
    special = [800.0, -800.0, 0.0, -0.0, np.nan, np.inf, -np.inf]
    noise = np.random.default_rng(3).normal(scale=20.0, size=(2, 3, 17, 19))
    for x in (np.array(special, dtype=dtype), noise.astype(dtype)):
        got, _ = ops.sigmoid_forward(x)
        want = _sigmoid_two_branch(x)
        assert got.dtype == x.dtype and got.shape == x.shape
        nan = np.isnan(want)
        npt.assert_array_equal(np.isnan(got), nan)
        # The sign bit of a NaN result is not pinned; every other bit is.
        uint = np.uint32 if x.dtype == np.float32 else np.uint64
        npt.assert_array_equal(got[~nan].view(uint), want[~nan].view(uint))


def test_maxpool_values():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out, _ = ops.maxpool2x2_forward(x)
    npt.assert_array_equal(out.reshape(-1), [4.0])


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError):
        ops.maxpool2x2_forward(np.zeros((1, 1, 3, 4)))


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    _, cache = ops.maxpool2x2_forward(x)
    gx = ops.maxpool2x2_backward(cache, np.ones((1, 1, 1, 1)))
    npt.assert_array_equal(gx.reshape(2, 2), [[0.0, 0.0], [0.0, 1.0]])


def test_nearest_upsample_repeats_pixels():
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    out, _ = ops.nearest_upsample2x_forward(x)
    npt.assert_array_equal(
        out.reshape(4, 4),
        [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]],
    )


def test_upsample_then_pool_is_identity():
    rng = np.random.default_rng(1)
    x = rng.uniform(1.0, 2.0, size=(2, 3, 4, 4))
    up, _ = ops.nearest_upsample2x_forward(x)
    down, _ = ops.maxpool2x2_forward(up)
    npt.assert_allclose(down, x)


def test_transposed_conv_shape_and_uniform_kernel():
    x = np.ones((1, 1, 2, 2))
    w = np.full((1, 1, 2, 2), 0.5)
    out, _ = ops.transposed_conv2x_forward(x, w, np.zeros(1))
    assert out.shape == (1, 1, 4, 4)
    npt.assert_allclose(out, 0.5)


def test_concat_channels():
    a = np.ones((1, 2, 3, 3))
    b = np.zeros((1, 1, 3, 3))
    out, _ = ops.concat_channels_forward(a, b)
    assert out.shape == (1, 3, 3, 3)
    npt.assert_array_equal(out[:, :2], a)
    npt.assert_array_equal(out[:, 2:], b)


def test_add_and_mul_raise_on_unbroadcastable():
    with pytest.raises(ShapeError):
        ops.add_forward(np.zeros((1, 2, 3, 3)), np.zeros((1, 3, 3, 3)))
    with pytest.raises(ShapeError):
        ops.mul_forward(np.zeros((2, 2, 3, 3)), np.zeros((3, 2, 3, 3)))


# ---------------------------------------------------------------------
# Batch norm


def test_batchnorm_constant_input_maps_to_zero():
    x = np.full((2, 3, 4, 4), 1.7)
    gamma, beta = np.ones(3), np.zeros(3)
    out, _, _, _ = ops.batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3),
                                         train=True)
    assert np.abs(out).max() < 1e-3


def test_batchnorm_zero_gamma_yields_beta():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 4, 4))
    beta = np.array([0.5, -1.0, 2.0])
    out, _, _, _ = ops.batchnorm_forward(x, np.zeros(3), beta, np.zeros(3),
                                         np.ones(3), train=True)
    for c in range(3):
        npt.assert_allclose(out[:, c], beta[c])


def test_batchnorm_normalizes_in_train_mode():
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 3.0, size=(4, 5, 6, 6))
    out, _, _, _ = ops.batchnorm_forward(x, np.ones(5), np.zeros(5), np.zeros(5),
                                         np.ones(5), train=True)
    means = out.mean(axis=(0, 2, 3))
    variances = out.var(axis=(0, 2, 3))
    assert np.abs(means).max() < 1e-6
    assert np.all(variances > 1.0 - 1e-3) and np.all(variances < 1.0 + 1e-3)


def test_batchnorm_updates_running_stats():
    rng = np.random.default_rng(4)
    x = rng.normal(1.0, 2.0, size=(8, 2, 5, 5))
    run_m, run_v = np.zeros(2), np.ones(2)
    _, new_m, new_v, _ = ops.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                               run_m, run_v, train=True)
    batch_mean = x.mean(axis=(0, 2, 3))
    batch_var = x.var(axis=(0, 2, 3))
    npt.assert_allclose(new_m, 0.9 * run_m + 0.1 * batch_mean)
    npt.assert_allclose(new_v, 0.9 * run_v + 0.1 * batch_var)
    # the caller's arrays are not silently mutated
    npt.assert_array_equal(run_m, np.zeros(2))


def test_batchnorm_eval_uses_running_stats():
    x = np.full((1, 1, 2, 2), 3.0)
    out, new_m, new_v, _ = ops.batchnorm_forward(
        x, np.ones(1), np.zeros(1), np.array([1.0]), np.array([4.0]), train=False
    )
    npt.assert_allclose(out, (3.0 - 1.0) / math.sqrt(4.0 + 1e-5), rtol=1e-6)
    npt.assert_array_equal(new_m, [1.0])
    npt.assert_array_equal(new_v, [4.0])


def test_batchnorm_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        ops.batchnorm_forward(np.zeros((1, 3, 2, 2)), np.ones(2), np.zeros(2),
                              np.zeros(2), np.ones(2), train=True)


# ---------------------------------------------------------------------
# Loss


def test_bce_half_prediction():
    loss, _ = ops.bce_loss(np.array([0.5]), np.array([1.0]))
    assert abs(loss - math.log(2.0)) < 1e-12


def test_bce_confident_correct_prediction():
    loss, _ = ops.bce_loss(np.array([1.0 - 1e-9]), np.array([1.0]))
    assert loss < 1e-6


def test_bce_clamps_extreme_predictions():
    loss, grad = ops.bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss)
    # clamped coordinates carry no gradient
    npt.assert_array_equal(grad, [0.0, 0.0])


def test_bce_mean_reduction():
    pred = np.array([0.5, 0.5, 0.5, 0.5])
    target = np.array([1.0, 0.0, 1.0, 0.0])
    loss, _ = ops.bce_loss(pred, target)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_bce_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        ops.bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------
# Optimizer


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    state = init_adam(params, lr=0.05)
    adam_step(params, {"w": np.zeros(2)}, state)
    npt.assert_array_equal(params["w"], [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([0.0, 0.0])}
    state = init_adam(params, lr=1e-3)
    adam_step(params, {"w": np.array([0.3, -7.0])}, state)
    npt.assert_allclose(params["w"], [-1e-3, 1e-3], atol=1e-6)


def test_adam_is_deterministic():
    def run():
        params = {"w": np.linspace(-1, 1, 5)}
        state = init_adam(params, lr=0.01)
        rng = np.random.default_rng(5)
        for _ in range(10):
            adam_step(params, {"w": rng.normal(size=5)}, state)
        return params["w"]

    npt.assert_array_equal(run(), run())


def test_adam_skips_missing_grads():
    params = {"w": np.array([1.0]), "b": np.array([2.0])}
    state = init_adam(params, lr=0.1)
    adam_step(params, {"w": np.array([1.0])}, state)
    npt.assert_array_equal(params["b"], [2.0])


def test_adam_rejects_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = init_adam(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.zeros(4)}, state)


# ---------------------------------------------------------------------
# Metrics


def test_metrics_identical_masks():
    mask = (np.random.default_rng(6).uniform(size=(16, 16)) > 0.7).astype(float)
    assert overall_accuracy(mask, mask) == 1.0
    assert iou(mask, mask) == 1.0


def test_metrics_complementary_masks():
    a = np.zeros((4, 4))
    a[:2] = 1.0
    b = 1.0 - a
    assert overall_accuracy(a, b) == 0.0
    assert iou(a, b) == 0.0


def test_iou_half_overlap_known_grid():
    # two 8-pixel masks on a 4x4 grid sharing 4 pixels: IoU = 4/12
    pred = np.zeros((4, 4))
    pred[0:2, :] = 1.0
    target = np.zeros((4, 4))
    target[1:3, :] = 1.0
    assert iou(pred, target) == pytest.approx(4.0 / 12.0)
    assert overall_accuracy(pred, target) == pytest.approx(8.0 / 16.0)


def test_iou_empty_union_is_one():
    empty = np.zeros((3, 3))
    assert iou(empty, empty) == 1.0
    assert overall_accuracy(empty, empty) == 1.0


def test_confusion_counts_threshold():
    pred = np.array([0.49, 0.5, 0.51, 0.2])
    target = np.array([1.0, 1.0, 0.0, 0.0])
    tp, fp, fn, tn = confusion_counts(pred, target)
    assert (tp, fp, fn, tn) == (1, 1, 1, 1)


def test_oa_symmetric_under_relabel_iou_not():
    rng = np.random.default_rng(7)
    pred = (rng.uniform(size=(12, 12)) > 0.6).astype(float)
    target = (rng.uniform(size=(12, 12)) > 0.4).astype(float)
    assert overall_accuracy(pred, target) == pytest.approx(
        overall_accuracy(1.0 - pred, 1.0 - target)
    )
    assert iou(pred, target) != pytest.approx(iou(1.0 - pred, 1.0 - target))


def test_metrics_reject_bad_shapes():
    with pytest.raises(ShapeError):
        overall_accuracy(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        iou(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------
# Gradient checking


def test_gradcheck_report_formatting():
    good = GradCheckReport(name="toy", max_rel_error=1e-9, n_coords=10,
                           tolerance=1e-4)
    assert good.passed
    assert "toy" in str(good) and "[ok]" in str(good)
    bad = GradCheckReport(name="toy", max_rel_error=1.0, n_coords=10,
                          tolerance=1e-4)
    assert not bad.passed and "[FAIL]" in str(bad)


def test_gradcheck_flags_wrong_gradient():
    x = np.random.default_rng(8).normal(size=(3, 3))

    def loss():
        return float((x ** 2).sum())

    report = gradcheck("broken", loss, lambda: [3.0 * x], [x], 1e-4, seed=0)
    assert not report.passed


def test_gradcheck_accepts_correct_gradient():
    x = np.random.default_rng(9).normal(size=(3, 3))

    def loss():
        return float((x ** 2).sum())

    report = gradcheck("square", loss, lambda: [2.0 * x], [x], 1e-6, seed=0)
    assert report.passed


def test_gradcheck_raises_on_nonfinite():
    x = np.ones((2, 2))
    with pytest.raises(NumericError):
        gradcheck("nan", lambda: float("nan"), lambda: [x], [x], 1e-4, seed=0)


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_suite_across_seeds(seed):
    reports = gradcheck_suite(seed=seed)
    failed = [str(r) for r in reports if not r.passed]
    assert not failed, f"failed checks: {failed}"


def test_gradcheck_suite_covers_every_layer():
    names = {r.name for r in gradcheck_suite(seed=0)}
    expected = {
        "conv1x1", "conv3x3-pad1", "relu", "sigmoid", "maxpool2x2",
        "nearest_upsample2x", "transposed_conv2x", "concat_channels",
        "add-broadcast", "mul-broadcast", "batchnorm-train", "batchnorm-eval",
        "bce_loss", "attention_gate", "unet-depth2-transposed",
        "unet-depth2-nearest",
    }
    assert expected <= names
