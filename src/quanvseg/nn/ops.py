"""Dense NCHW tensor ops with hand-derived backward passes.

Every forward returns (output, cache); the matching backward consumes
(cache, gy) and returns gradients in input order.  The ops are pure:
batch norm hands back updated running statistics instead of mutating
its arguments.  Convolution follows the cross-correlation convention
(no kernel flip).  It runs on a channel-major raster, the zero-padded
input laid out as (C, N*Hp*Wp), where kernel tap (i, j) is the column
offset i*Wp + j, so the taps become GEMMs over shifted views and no
patch matrix is built.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError


def _correlate(xf, w, wp: int, length: int):
    """out[:, q] = sum_ij w[:, :, i, j] @ xf[:, q + i*wp + j] for q < length.

    `xf` is a channel-major raster of row width `wp` with at least
    length + (kH-1)*wp + kW-1 columns.  The kW taps of a kernel row are
    stacked into the contraction, so each kernel row costs one GEMM over
    a shifted view (Cho & Brand, arXiv:1706.06873).
    """
    c_out, c_in, kh, kw = w.shape
    span = length + (kh - 1) * wp
    rows = np.empty((kw, c_in, span), dtype=xf.dtype)
    for j in range(kw):
        rows[j] = xf[:, j : j + span]
    rows = rows.reshape(kw * c_in, span)
    w_rows = w.transpose(2, 0, 3, 1).reshape(kh, c_out, kw * c_in)
    out = np.matmul(w_rows[0], rows[:, :length])
    if kh > 1:
        tmp = np.empty_like(out)
        for i in range(1, kh):
            np.matmul(w_rows[i], rows[:, i * wp : i * wp + length], out=tmp)
            out += tmp
    return out


def conv2d_forward(x, w, b=None, stride: int = 1, padding: int = 0):
    """Cross-correlate (N, C_in, H, W) with (C_out, C_in, kH, kW) + bias.

    Stride > 1 subsamples the stride-1 result.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d shapes disagree: input {x.shape}, kernel {w.shape}")
    c_out, c_in, kh, kw = w.shape
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"bias shape {b.shape} != ({c_out},)")
    n, _, h, wd = x.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} exceeds padded input {(hp, wp)}")
    length = n * hp * wp
    # Zero columns past `length` let every tap read `length` columns; the
    # outputs they reach lie outside the valid window and are cropped.
    xf = np.zeros((c_in, length + (kh - 1) * wp + kw - 1), dtype=x.dtype)
    xf[:, :length].reshape(c_in, n, hp, wp)[
        :, :, padding : padding + h, padding : padding + wd] = x.transpose(1, 0, 2, 3)
    acc = _correlate(xf, w, wp, length)
    view = acc.reshape(c_out, n, hp, wp)[
        :, :, : hp - kh + 1 : stride, : wp - kw + 1 : stride].transpose(1, 0, 2, 3)
    if b is None:
        out = np.ascontiguousarray(view)
    else:
        out = np.empty(view.shape, dtype=np.result_type(acc, b))
        np.add(view, b[None, :, None, None], out=out)
    return out, (xf, x.shape, w, b is not None, stride, padding)


def conv2d_backward(cache, gy):
    """Returns (gx, gw, gb); gb is None when the forward had no bias."""
    xf, x_shape, w, has_b, stride, padding = cache
    n, c_in, h, wd = x_shape
    c_out, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    length = n * hp * wp
    reach = (kh - 1) * wp + kw - 1
    # gy on the output raster, after `reach` leading zero columns: the
    # input gradient is then the forward correlation of this raster with
    # the flipped, transposed kernel.
    gpad = np.zeros((c_out, reach + length), dtype=gy.dtype)
    g = gpad[:, reach:]
    g.reshape(c_out, n, hp, wp)[
        :, :, : hp - kh + 1 : stride, : wp - kw + 1 : stride] = gy.transpose(1, 0, 2, 3)
    g_t = g.T.copy()
    gw = np.empty((kh, kw, c_in, c_out), dtype=np.result_type(gy, xf))
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            np.matmul(xf[:, off : off + length], g_t, out=gw[i, j])
    gxf = _correlate(gpad, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), wp, length)
    gx = gxf.reshape(c_in, n, hp, wp)[
        :, :, padding : padding + h, padding : padding + wd].transpose(1, 0, 2, 3)
    gb = gy.sum(axis=(0, 2, 3)) if has_b else None
    return np.ascontiguousarray(gx), np.ascontiguousarray(gw.transpose(3, 2, 0, 1)), gb


def relu_forward(x):
    return np.maximum(x, 0), x > 0


def relu_backward(cache, gy):
    return gy * cache


def sigmoid_forward(x):
    # exp(-|x|) never overflows; the quotient is 1/(1+exp(-x)) for x >= 0
    # and exp(x)/(1+exp(x)) below, the two stable forms of the logistic.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return out, out


def sigmoid_backward(cache, gy):
    return gy * cache * (1.0 - cache)


def maxpool2x2_forward(x):
    """Non-overlapping 2x2 max; spatial dims must be even."""
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, (idx, x.shape)


def maxpool2x2_backward(cache, gy):
    idx, x_shape = cache
    n, c, h, w = x_shape
    g = np.zeros((n, c, h // 2, w // 2, 4), dtype=gy.dtype)
    np.put_along_axis(g, idx[..., None], gy[..., None], axis=-1)
    g = g.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(g.reshape(n, c, h, w))


def nearest_upsample2x_forward(x):
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    return x.repeat(2, axis=2).repeat(2, axis=3), x.shape


def nearest_upsample2x_backward(cache, gy):
    n, c, h, w = cache
    return gy.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))


def transposed_conv2x_forward(x, w, b=None):
    """2x2 stride-2 transposed convolution; w shaped (C_in, C_out, 2, 2).

    The stride equals the kernel so output blocks never overlap:
    out[n, o, 2i+a, 2j+b] = sum_c x[n, c, i, j] * w[c, o, a, b].
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[0] or w.shape[2:] != (2, 2):
        raise ShapeError(f"transposed_conv2x shapes disagree: input {x.shape}, kernel {w.shape}")
    n, _, h, wd = x.shape
    c_out = w.shape[1]
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"bias shape {b.shape} != ({c_out},)")
    out = np.einsum("nchw,cokl->nohkwl", x, w, optimize=True)
    out = np.ascontiguousarray(out).reshape(n, c_out, 2 * h, 2 * wd)
    if b is not None:
        out = out + b[None, :, None, None]
    return out, (x, w, b is not None)


def transposed_conv2x_backward(cache, gy):
    x, w, has_b = cache
    n, _, h, wd = x.shape
    c_out = w.shape[1]
    g6 = gy.reshape(n, c_out, h, 2, wd, 2)
    gx = np.einsum("nohkwl,cokl->nchw", g6, w, optimize=True)
    gw = np.einsum("nohkwl,nchw->cokl", g6, x, optimize=True)
    gb = gy.sum(axis=(0, 2, 3)) if has_b else None
    return np.ascontiguousarray(gx), np.ascontiguousarray(gw), gb


def concat_channels_forward(a, b):
    if a.ndim != 4 or b.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"cannot concat channels of {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1), a.shape[1]


def concat_channels_backward(cache, gy):
    split = cache
    return np.ascontiguousarray(gy[:, :split]), np.ascontiguousarray(gy[:, split:])


def _unbroadcast(g, shape):
    """Sum a gradient down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add_forward(a, b):
    try:
        out = a + b
    except ValueError:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from None
    return out, (a.shape, b.shape)


def add_backward(cache, gy):
    sa, sb = cache
    return _unbroadcast(gy, sa), _unbroadcast(gy, sb)


def mul_forward(a, b):
    try:
        out = a * b
    except ValueError:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}") from None
    return out, (a, b)


def mul_backward(cache, gy):
    a, b = cache
    return _unbroadcast(gy * b, a.shape), _unbroadcast(gy * a, b.shape)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, train: bool,
                      momentum: float = 0.1, eps: float = 1e-5):
    """Per-channel batch norm over the batch and spatial axes.

    Returns (out, new_running_mean, new_running_var, cache).  Train mode
    normalizes with the batch statistics (biased variance) and blends
    them into the running values; eval mode normalizes with the running
    values and returns them unchanged.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    c = x.shape[1]
    for name, arr in (("gamma", gamma), ("beta", beta),
                      ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise ShapeError(f"{name} shape {arr.shape} != ({c},)")
    if train:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * ivar[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, new_mean, new_var, (xhat, gamma, ivar, train)


def batchnorm_backward(cache, gy):
    """Returns (gx, ggamma, gbeta)."""
    xhat, gamma, ivar, train = cache
    gbeta = gy.sum(axis=(0, 2, 3))
    ggamma = (gy * xhat).sum(axis=(0, 2, 3))
    gxhat = gy * gamma[None, :, None, None]
    if not train:
        return gxhat * ivar[None, :, None, None], ggamma, gbeta
    m = gy.shape[0] * gy.shape[2] * gy.shape[3]
    s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
    s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    gx = (gxhat - s1 / m - xhat * (s2 / m)) * ivar[None, :, None, None]
    return gx, ggamma, gbeta


def bce_loss(pred, target):
    """Mean binary cross-entropy and its gradient w.r.t. pred.

    Predictions are clamped to [1e-7, 1 - 1e-7]; the gradient is zero
    where the clamp is active.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"predictions {pred.shape} vs targets {target.shape}")
    lo, hi = 1e-7, 1.0 - 1e-7
    p = np.clip(pred, lo, hi)
    loss = float(-np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p)))
    inside = (pred > lo) & (pred < hi)
    grad = np.where(inside, (p - target) / (p * (1.0 - p)), 0.0) / pred.size
    return loss, grad.astype(pred.dtype, copy=False)
