"""Dense NCHW tensor ops with hand-derived backward passes.

Every forward returns (output, cache); the matching backward consumes
(cache, gy) and returns gradients in input order.  The ops are pure:
batch norm hands back updated running statistics instead of mutating
its arguments.  Convolution follows the cross-correlation convention
(no kernel flip).  It runs on a channel-major raster, the zero-padded
input laid out as (C, N*Hp*Wp), where kernel tap (i, j) is the column
offset i*Wp + j, so the taps become GEMMs over shifted views and no
patch matrix is built.  The GEMMs run one tile of whole padded images at
a time, and each tile writes its cropped window straight into the NCHW
result, so no temporary spans the whole layer; the forward and the
backward's input gradient share this loop.  Every conv is a stride-1
'same' conv with a bias, as the U-Net uses it: an odd square kernel k
pads k // 2 zeros on each side.  A 1x1 kernel skips the raster: it is
one batched GEMM per image on the NCHW arrays, with no copy or
transpose.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError


# Batch norm's running-statistics blend weight and variance offset.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

# Columns of raster one conv tile covers, as whole padded images (at
# least one), so a tile's shifted rows and its GEMM outputs stay small.
_TILE_COLUMNS = 4096


def _correlate_into(dst, src, w, raster, window, b=None):
    """Correlate the raster `src` with `w` and write it, cropped, into `dst`.

    `src` is a channel-major raster of N images of `raster` = (hp, wp),
    with at least N*hp*wp + (kH-1)*wp + kW-1 columns.  Its correlation
    is acc[:, q] = sum_ij w[:, :, i, j] @ src[:, q + i*wp + j]; `window`,
    a pair of slices of one image's (hp, wp) plane of acc, plus the bias
    b becomes dst[n], NCHW.  The kW taps of a kernel row are stacked into
    the contraction, so each kernel row costs one GEMM over a shifted
    view (Cho & Brand, arXiv:1706.06873).  A tile holds
    max(1, _TILE_COLUMNS // (hp*wp)) whole images, at most N, and reuses
    one rows buffer and two GEMM outputs.  Each column keeps its
    contraction length and its sum order whatever the tile, so tiling
    does not change a bit.
    """
    c_out, c_in, kh, kw = w.shape
    hp, wp = raster
    rs, cs = window
    n = dst.shape[0]
    per_tile = min(n, max(1, _TILE_COLUMNS // (hp * wp)))
    halo = (kh - 1) * wp
    w_rows = w.transpose(2, 0, 3, 1).reshape(kh, c_out, kw * c_in)
    rows_buf = np.empty(kw * c_in * (per_tile * hp * wp + halo), dtype=src.dtype)
    out_buf = np.empty(c_out * per_tile * hp * wp, dtype=np.result_type(w_rows, src))
    tmp_buf = np.empty_like(out_buf) if kh > 1 else None
    for n0 in range(0, n, per_tile):
        k = min(per_tile, n - n0)
        start, length = n0 * hp * wp, k * hp * wp
        span = length + halo
        rows = rows_buf[: kw * c_in * span].reshape(kw, c_in, span)
        for j in range(kw):
            rows[j] = src[:, start + j : start + j + span]
        rows = rows.reshape(kw * c_in, span)
        out = out_buf[: c_out * length].reshape(c_out, length)
        np.matmul(w_rows[0], rows[:, :length], out=out)
        if kh > 1:
            tmp = tmp_buf[: c_out * length].reshape(c_out, length)
            for i in range(1, kh):
                np.matmul(w_rows[i], rows[:, i * wp : i * wp + length], out=tmp)
                out += tmp
        view = out.reshape(c_out, k, hp, wp)[:, :, rs, cs].transpose(1, 0, 2, 3)
        if b is None:
            dst[n0 : n0 + k] = view
        else:
            np.add(view, b[None, :, None, None], out=dst[n0 : n0 + k])


def _batched_matmul(a, b):
    """np.matmul(a, b) for a (O, K) and b (N, K, Q).

    When K == 1 it is the broadcast product a * b, the same values without
    a BLAS call, which is slow at an inner dimension of 1.
    """
    return a * b if a.shape[1] == 1 else np.matmul(a, b)


def _same_padding(x, w, b):
    """Check conv2d's operands; returns the 'same' padding k // 2."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d shapes disagree: input {x.shape}, kernel {w.shape}")
    c_out, _, kh, kw = w.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d needs an odd square kernel, got {kh}x{kw}")
    if b.shape != (c_out,):
        raise ShapeError(f"bias shape {b.shape} != ({c_out},)")
    return kh // 2


def conv2d_forward(x, w, b):
    """Cross-correlate (N, C_in, H, W) with (C_out, C_in, k, k), plus the
    bias, at stride 1 with 'same' zero padding: the output is (N, C_out,
    H, W)."""
    padding = _same_padding(x, w, b)
    c_out, c_in, kh, kw = w.shape
    n, _, h, wd = x.shape
    if kh == 1:
        out = _batched_matmul(w.reshape(c_out, c_in), x.reshape(n, c_in, h * wd))
        out = np.add(out, b[:, None], out=out if out.dtype == np.result_type(out, b) else None)
        return out.reshape(n, c_out, h, wd), (x, x.shape, w)
    hp, wp = h + 2 * padding, wd + 2 * padding
    length = n * hp * wp
    # Zero columns past `length` let every tap read `length` columns; the
    # outputs they reach lie outside the valid window and are cropped.
    xf = np.zeros((c_in, length + (kh - 1) * wp + kw - 1), dtype=x.dtype)
    xf[:, :length].reshape(c_in, n, hp, wp)[
        :, :, padding : padding + h, padding : padding + wd] = x.transpose(1, 0, 2, 3)
    out = np.empty((n, c_out, h, wd), dtype=np.result_type(w, x, b))
    _correlate_into(out, xf, w, (hp, wp), (slice(0, h), slice(0, wd)), b)
    return out, (xf, x.shape, w)


def conv2d_backward(cache, gy):
    """Returns (gx, gw, gb)."""
    xf, x_shape, w = cache
    n, c_in, h, wd = x_shape
    c_out, _, kh, kw = w.shape
    gb = gy.sum(axis=(0, 2, 3))
    if kh == 1:
        # xf is the NCHW input itself
        g = gy.reshape(n, c_out, h * wd)
        gx = _batched_matmul(w.reshape(c_out, c_in).T, g)
        gw = np.matmul(g, xf.reshape(n, c_in, h * wd).transpose(0, 2, 1)).sum(axis=0)
        return gx.reshape(x_shape), gw.reshape(w.shape), gb
    padding = kh // 2
    hp, wp = h + 2 * padding, wd + 2 * padding
    length = n * hp * wp
    reach = (kh - 1) * wp + kw - 1
    # gy on the output raster, after `reach` leading zero columns: the
    # input gradient is then the forward correlation of this raster with
    # the flipped, transposed kernel.
    gpad = np.zeros((c_out, reach + length), dtype=gy.dtype)
    g = gpad[:, reach:]
    g.reshape(c_out, n, hp, wp)[:, :, :h, :wd] = gy.transpose(1, 0, 2, 3)
    g_t = g.T.copy()
    gw = np.empty((kh, kw, c_in, c_out), dtype=np.result_type(gy, xf))
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            np.matmul(xf[:, off : off + length], g_t, out=gw[i, j])
    del g_t
    gx = np.empty(x_shape, dtype=np.result_type(w, gy))
    _correlate_into(gx, gpad, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), (hp, wp),
                    (slice(padding, padding + h), slice(padding, padding + wd)))
    return gx, np.ascontiguousarray(gw.transpose(3, 2, 0, 1)), gb


def relu_forward(x):
    """The cache packs the mask x > 0 eight values to a byte."""
    return np.maximum(x, 0), (np.packbits(x > 0), x.shape)


def relu_backward(cache, gy):
    # A float times a 0/1 uint8 has the bits of the float times a bool.
    bits, shape = cache
    return gy * np.unpackbits(bits, count=gy.size).reshape(shape)


def sigmoid_forward(x):
    # exp(-|x|) never overflows; the quotient is 1/(1+exp(-x)) for x >= 0
    # and exp(x)/(1+exp(x)) below, the two stable forms of the logistic.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return out, out


def sigmoid_backward(cache, gy):
    return gy * cache * (1.0 - cache)


# Window slot k of a 2x2 pooling window is the offset (k // 2, k % 2),
# argmax's row-major order.
_POOL_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2_forward(x):
    """Non-overlapping 2x2 max; spatial dims must be even.

    The cache keeps one uint8 slot per window: the first slot holding the
    maximum, argmax's tie rule.  A window holding NaN outputs NaN.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    x00, x01, x10, x11 = (x[:, :, i::2, j::2] for i, j in _POOL_SLOTS)
    # np.maximum returns its second operand on ties, so the output carries
    # the bits of the first maximal slot, as argmax's pick does (+0 vs -0).
    out = np.maximum(np.maximum(x11, x10), np.maximum(x01, x00))
    # slot = 0 if x00 == out else 1 if x01 == out else 2 if x10 == out else 3
    slot = np.not_equal(x10, out).view(np.uint8) + np.uint8(1)
    slot *= np.not_equal(x01, out).view(np.uint8)
    slot += np.uint8(1)
    slot *= np.not_equal(x00, out).view(np.uint8)
    return out, (slot, x.shape)


def maxpool2x2_backward(cache, gy):
    slot, x_shape = cache
    # Selecting gy's bits with an all-ones or all-zeros mask writes gy
    # exactly where the slot won and +0.0 elsewhere.
    uint = np.dtype(f"u{gy.itemsize}")
    gx = np.empty(x_shape, dtype=gy.dtype)
    gy_bits, gx_bits = gy.view(uint), gx.view(uint)
    for k, (i, j) in enumerate(_POOL_SLOTS):
        mask = np.equal(slot, k).astype(uint)
        np.negative(mask, out=mask)
        np.bitwise_and(gy_bits, mask, out=gx_bits[:, :, i::2, j::2])
    return gx


def nearest_upsample2x_forward(x):
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    return x.repeat(2, axis=2).repeat(2, axis=3), x.shape


def nearest_upsample2x_backward(cache, gy):
    n, c, h, w = cache
    return gy.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))


def transposed_conv2x_forward(x, w, b):
    """2x2 stride-2 transposed convolution; w shaped (C_in, C_out, 2, 2).

    The stride equals the kernel so output blocks never overlap:
    out[n, o, 2i+a, 2j+b] = sum_c x[n, c, i, j] * w[c, o, a, b].
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[0] or w.shape[2:] != (2, 2):
        raise ShapeError(f"transposed_conv2x shapes disagree: input {x.shape}, kernel {w.shape}")
    n, _, h, wd = x.shape
    c_out = w.shape[1]
    if b.shape != (c_out,):
        raise ShapeError(f"bias shape {b.shape} != ({c_out},)")
    out = np.einsum("nchw,cokl->nohkwl", x, w, optimize=True)
    out = np.ascontiguousarray(out).reshape(n, c_out, 2 * h, 2 * wd)
    return out + b[None, :, None, None], (x, w)


def transposed_conv2x_backward(cache, gy):
    x, w = cache
    n, _, h, wd = x.shape
    c_out = w.shape[1]
    g6 = gy.reshape(n, c_out, h, 2, wd, 2)
    gx = np.einsum("nohkwl,cokl->nchw", g6, w, optimize=True)
    gw = np.einsum("nohkwl,nchw->cokl", g6, x, optimize=True)
    return np.ascontiguousarray(gx), np.ascontiguousarray(gw), gy.sum(axis=(0, 2, 3))


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


def batchnorm_forward(x, gamma, beta, running_mean, running_var, train: bool):
    """Per-channel batch norm over the batch and spatial axes.

    Returns (out, new_running_mean, new_running_var, cache).  Train mode
    normalizes with the batch statistics (biased variance) and blends
    them into the running values; eval mode normalizes with the running
    values and returns them unchanged.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    for name, arr in (("gamma", gamma), ("beta", beta),
                      ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise ShapeError(f"{name} shape {arr.shape} != ({c},)")
    x3 = x.reshape(n, c, h * w)
    m = n * h * w
    if train:
        mean = x3.sum(axis=2).sum(axis=0) / m
        xhat = x3 - mean[:, None]
        var = np.einsum("nci,nci->c", xhat, xhat) / m
        new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
        xhat = x3 - mean[:, None]
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= ivar[:, None]
    out = xhat * gamma[:, None]
    out += beta[:, None]
    return out.reshape(x.shape), new_mean, new_var, (xhat, gamma, ivar, train)


def batchnorm_backward(cache, gy):
    """Returns (gx, ggamma, gbeta).

    xhat is cached as (N, C, H*W).  In train mode the batch statistics
    depend on x, which folds into gx = (gy - gbeta/m - xhat*ggamma/m) *
    gamma*ivar over the m = N*H*W values of a channel.
    """
    xhat, gamma, ivar, train = cache
    n, c, h, w = gy.shape
    g = gy.reshape(n, c, h * w)
    gbeta = g.sum(axis=2).sum(axis=0)
    ggamma = np.einsum("nci,nci->c", g, xhat)
    scale = (gamma * ivar)[:, None]
    if not train:
        return (g * scale).reshape(gy.shape), ggamma, gbeta
    m = n * h * w
    gx = xhat * (ggamma / m)[:, None]
    np.subtract(g, gx, out=gx)
    gx -= (gbeta / m)[:, None]
    gx *= scale
    return gx.reshape(gy.shape), ggamma, gbeta


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
