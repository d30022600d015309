"""Circuit evaluation on angle-encoded windows.

`run_windows(angles, spec, window, stride)` maps the windows of a 2-D
angle raster to their Z expectations (N, n) under the frozen n-qubit
circuit `spec`.  The windows are the row-major (kh, kw) = window blocks of
the raster at `stride`, N of them in row-major order; quanvolve passes
pi times its padded image with (k, k) and its stride.  Window None reads
each row of an (N, m) raster as one window, the case window = (1, m).
Tap j of a window, read row-major, is the RY angle theta_j of qubit j,
m = kh kw; the other n - m qubits start in |0>.

The circuit is frozen, so each <Z_q> is a fixed trigonometric polynomial
of the window's angles, with one coefficient per choice of (1, cos
theta_j, sin theta_j) on every encoded qubit: 3**m per measured qubit
(Schuld, Sweke & Meyer, arXiv:2008.08605).  The coefficients are compiled
once per (CircuitSpec, m), factored where they have low rank, and cached;
evaluation is two GEMMs per chunk of windows.

Compile.  The 2**m x 2**n block V of the transfer matrix U^T that encoded
windows reach is simulated as one batch of 2**m basis states with
qsim.state.apply_gates_batch, in float64 for circuits of RY and CNOT
gates only, else in complex128.  For a real product state psi, <Z_q> =
psi A_q psi with A_q = Re(V diag(S_q) V^+) = 2 Re(V_0 V_0^+) - I, V_0
being the columns in which qubit q is 0.  Re(V_0 V_0^+) is summed over
chunks of V_0's columns, copied into one buffer of at most max(4**m,
2**16) values, so the compile holds V and a few 2**m x 2**m buffers.
Rewriting each qubit's (row bit, column bit) pair in the basis (1, cos
theta, sin theta) gives one 3**a x 3**b matrix C_q per qubit, over a =
m // 2 head and b = m - a tail qubits.  V is then freed; each C_q's SVD
gives its numerical rank r_q, and C_q is kept as factors L_q (r_q x
3**a) and W_q (r_q x 3**b), C_q = L_q^T W_q, when r_q (3**a + 3**b) <
3**a 3**b, else whole.  Windows of at most MAX_KERNEL_SIZE**2 = 9 taps
on at most MAX_SIM_QUBITS = 16 qubits bound V at 2**25 amplitudes.

Evaluate.  A window's head features Fh (3**a) and tail features Ft
(3**b) are products of per-qubit (1, cos, sin), so <Z_q> = Fh . (C_q @
Ft).  G = T @ Ft is one GEMM per chunk, T stacking the whole C_q and then
every W_q; a whole qubit's <Z_q> is sum_alpha G[q, alpha] Fh[alpha].  For
the factored ones, H = L @ Fh is one more GEMM over the stacked L_q, and
<Z_q> sums H * G over q's r_q rows.  cos and sin are taken once per
raster element; _gather copies each chunk's windows from tap views of
them into reused buffers, and each qubit's expectations go straight into
its row of one (n, N) array, returned as a transposed view.  Each chunk's
GEMMs run over a multiple of 8 windows (the padding windows have angle
0), because OpenBLAS 0.3.31 rounds a GEMM with another column count
differently on 1 and 2 threads.

quanvolve reaches run_windows through kernel() on every call, so a
wrapper installed on kernel (perfbench/tracing.py times run_windows that
way) sees every evaluation.
"""

from __future__ import annotations

import functools
import sys
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError
from .qsim.circuits import CircuitSpec
from .qsim.state import _BLOCK_AMPLITUDES, apply_gates_batch, batch_dtype

# Largest k of the k x k windows the compile serves.  A window of at most
# k**2 = 9 taps on at most MAX_SIM_QUBITS = 16 qubits keeps the transfer
# block V, which the compile holds, at no more than 2**25 amplitudes.
MAX_KERNEL_SIZE = 3

# Windows are evaluated in chunks of this many, so the buffers stay
# bounded whatever the number of windows.
_CHUNK = 2048


# Per-qubit change of basis of the quadratic form psi A psi: over the
# (row bit, column bit) pairs 00, 01, 10, 11 to (1, cos theta, sin theta),
# from c^2 = (1 + cos)/2, s^2 = (1 - cos)/2 and cs = sin/2.
_TRIG = np.array([[0.5, 0.0, 0.0, 0.5],
                  [0.5, 0.0, 0.0, -0.5],
                  [0.0, 0.5, 0.5, 0.0]])


def _transfer_matrix(spec: CircuitSpec, n_encoded: int):
    """The 2**m x 2**n block V of U^T that windows on the first m qubits reach.

    Row j of the batch is U applied to basis state j << (n - m), the state
    whose first m qubits spell j and whose others are 0 (all of U^T when
    m = n).  A circuit of RY and CNOT gates only is simulated in float64,
    any other in complex128.
    """
    n, m = spec.n_qubits, n_encoded
    rows = np.zeros((1 << m, 1 << n), dtype=batch_dtype(spec.gates))
    rows[np.arange(1 << m), np.arange(1 << m) << (n - m)] = 1.0
    apply_gates_batch(rows, spec.gates)
    return rows


def _trig_coefficients(form, n_encoded):
    """psi A psi of product states over m qubits as 3**m coefficients.

    form is the symmetric 2**m x 2**m matrix A; coefficient (j_0, ...,
    j_{m-1}), qubit 0 most significant, multiplies the product over the
    qubits of (1, cos theta, sin theta)[j_q].
    """
    m = n_encoded
    # Interleave the axes to (i_0, i'_0, i_1, i'_1, ...), one pair per qubit.
    order = [axis for q in range(m) for axis in (q, m + q)]
    x = form.reshape((2,) * (2 * m)).transpose(order)
    for q in range(m):
        x = np.matmul(_TRIG, x.reshape(3**q, 4, -1))
    return x.reshape(-1)


class _Factors(NamedTuple):
    """The compiled coefficients, one block of rows per qubit.

    Qubit q's 3**a x 3**b coefficient matrix C_q (head features by tail
    features) is kept whole, or as low-rank factors L_q (r_q x 3**a) and
    W_q (r_q x 3**b) with C_q = L_q^T W_q when r_q (3**a + 3**b) < 3**a
    3**b.  order lists the kept-whole qubits, then the factored ones.
    tail stacks their C_q, then their W_q; head stacks their L_q, and
    starts holds the first row of each L_q in head.  Arrays are read-only.
    """

    order: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    starts: np.ndarray


def _qubit_coefficients(spec: CircuitSpec, n_encoded: int):
    """C (n, 3**a, 3**b): <Z_q> of a window is Fh . (C[q] @ Ft).

    a = m // 2 head and b = m - a tail qubits.  C[q][alpha, beta] is the
    coefficient of <Z_q> on head feature alpha times tail feature beta.
    <Z_q> = psi A_q psi with A_q = Re(V diag(S_q) V^+) = 2 Re(V_0 V_0^+) - I,
    V_0 being the columns of V in which qubit q is 0, because the rows of V
    are orthonormal.  V is freed on return.
    """
    n, m = spec.n_qubits, n_encoded
    a, rows = m // 2, 1 << m
    v = _transfer_matrix(spec, m)
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    # Re(V_0 V_0^+) = [Re V_0, Im V_0] [Re V_0, Im V_0]^T, summed over
    # chunks of `width` columns of V_0, one syrk each, in column order.
    # The chunk buffer holds at most max(4**m, _BLOCK_AMPLITUDES) values;
    # when V_0 fits in one chunk it is the whole (rows, parts, 2**(n - 1)).
    width = min(max(rows, _BLOCK_AMPLITUDES // rows) // len(parts), 1 << (n - 1))
    v0 = np.empty((rows, len(parts), width))
    flat = v0.reshape(rows, -1)
    form = np.empty((rows, rows))
    gram = np.empty_like(form)
    coef = np.empty((n, 3**a, 3 ** (m - a)))
    for q in range(n):
        # V_0's columns (hi, lo): hi spells qubits 0..q-1, lo the ones after q.
        # A chunk is `step` columns of one hi, or all columns of `span` his.
        n_lo = 1 << (n - q - 1)
        span, step = max(1, width // n_lo), min(width, n_lo)
        halves = [part.reshape(rows, 1 << q, 2, n_lo)[:, :, 0, :] for part in parts]
        split = v0.reshape(rows, len(parts), span, step)
        chunks = [(hi, lo) for hi in range(0, 1 << q, span) for lo in range(0, n_lo, step)]
        for k, (hi, lo) in enumerate(chunks):
            for i, half in enumerate(halves):
                split[:, i] = half[:, hi:hi + span, lo:lo + step]
            if k == 0:
                np.matmul(flat, flat.T, out=form)
            else:
                form += np.matmul(flat, flat.T, out=gram)
        form *= 2.0
        form[np.diag_indices(rows)] -= 1.0
        coef[q] = _trig_coefficients(form, m).reshape(3**a, -1)
    return coef


@functools.lru_cache(maxsize=8)
def _coefficients(spec: CircuitSpec, n_encoded: int) -> _Factors:
    """Each qubit's C_q, factored at its numerical rank where that is cheaper.

    The rank r_q (at least 1) counts the singular values of C_q above
    numpy's matrix_rank tolerance, s_0 * max(3**a, 3**b) * eps, with s_0
    the largest singular value of any qubit's C_q: the compile's rounding
    is set by the largest coefficients, so a qubit whose polynomial is
    small keeps no rows of rounding noise.
    """
    coef = _qubit_coefficients(spec, n_encoded)
    n, n_head, n_tail = coef.shape
    u, s, wt = np.linalg.svd(coef, full_matrices=False)
    tol = s[:, 0].max() * max(n_head, n_tail) * np.finfo(s.dtype).eps
    ranks = np.maximum(1, np.count_nonzero(s > tol, axis=1))
    factored = ranks * (n_head + n_tail) < n_head * n_tail
    whole = np.flatnonzero(~factored)
    qubits = np.flatnonzero(factored)
    factors = _Factors(
        order=np.concatenate([whole, qubits]),
        tail=np.concatenate([coef[whole].reshape(-1, n_tail)]
                            + [wt[q, :ranks[q]] for q in qubits]),
        head=np.concatenate([np.empty((0, n_head))]
                            + [(u[q, :, :ranks[q]] * s[q, :ranks[q]]).T for q in qubits]),
        starts=np.cumsum(ranks[qubits]) - ranks[qubits],
    )
    for arr in factors:
        arr.flags.writeable = False
    return factors


def _ladder(factors):
    """Products (d**k, N) of per-qubit factors (k, d, N), one qubit per step."""
    if not len(factors):
        return np.ones((1, factors.shape[2]))
    # The first qubit's factors are the first step's products as they are.
    prod = factors[0]
    for factor in factors[1:]:
        prod = (prod[:, None, :] * factor[None, :, :]).reshape(-1, factors.shape[2])
    return prod


def _products(factors, out):
    """Write products (d**k, N) of per-qubit factors (k, d, N) into out.

    Qubit 0 is the most significant factor.  The products over the first
    k // 2 qubits and over the rest come from a short ladder each; one
    outer product of the two writes the d**k values into out, any
    (d**k, N) array or view.  Windows run along the last axis, so every
    step is a long inner loop.
    """
    k = factors.shape[0]
    head = _ladder(factors[:k // 2])
    tail = _ladder(factors[k // 2:])
    # Splitting the first axis of out is always a view, never a copy.
    split = out.reshape(head.shape[0], tail.shape[0], -1)
    np.multiply(head[:, None, :], tail[None, :, :], out=split)


def _trig_taps(angles, window, stride):
    """cos and sin of a raster, each as tap views (kh, kw, n_h, n_w).

    Window (r, c) is angles[r s : r s + kh, c s : c s + kw] for stride s,
    its taps read row-major, and tap (i, j) of the view is that entry of
    every window.  cos and sin are taken once per raster element, however
    many windows read it.
    """
    return [sliding_window_view(f(angles), window)[::stride, ::stride].transpose(2, 3, 0, 1)
            for f in (np.cos, np.sin)]


def _gather(taps, lo, hi, out):
    """Copy windows [lo, hi) of taps (kh, kw, n_h, n_w), row-major, into out (kh kw, hi - lo).

    At most three copies, whatever the window count: the rest of the
    first row, the whole rows after it, and the start of the last.
    """
    kh, kw, _, n_w = taps.shape
    out = out.reshape(kh, kw, hi - lo, copy=False)
    r0, c0 = divmod(lo, n_w)
    r1, c1 = divmod(hi, n_w)
    if r0 == r1:
        out[...] = taps[:, :, r0, c0:c1]
        return
    first, last = n_w - c0, hi - lo - c1
    out[:, :, :first] = taps[:, :, r0, c0:]
    rows = out[:, :, first:last].reshape(kh, kw, r1 - r0 - 1, n_w, copy=False)
    rows[...] = taps[:, :, r0 + 1:r1]
    if c1:
        out[:, :, last:] = taps[:, :, r1, :c1]


def run_windows(angles, spec: CircuitSpec, window=None, stride=1):
    """Z expectations (N, n_qubits) of the windows of a 2-D angle raster.

    The windows are the row-major (kh, kw) = window blocks at stride, each
    encoded on the circuit's first kh kw qubits; window None reads each
    row of an (N, m) raster as one window.  The result is a transposed
    view of an (n_qubits, N) array.  A window of more than
    MAX_KERNEL_SIZE**2 taps, or of more taps than the circuit has qubits,
    raises ConfigError.
    """
    window = (1, angles.shape[1]) if window is None else tuple(window)
    m = window[0] * window[1]
    if m > min(MAX_KERNEL_SIZE**2, spec.n_qubits):
        raise ConfigError(f"windows of {m} taps exceed the {MAX_KERNEL_SIZE}x{MAX_KERNEL_SIZE} "
                          f"kernel cap or the circuit's {spec.n_qubits} qubits")
    cos, sin = _trig_taps(angles, window, stride)
    n_h, n_w = cos.shape[2:]
    n_windows = n_h * n_w
    a = m // 2
    factors = _coefficients(spec, m)
    whole = len(factors.order) - len(factors.starts)
    # Every chunk's GEMMs run over a multiple of 8 columns (windows past the
    # last have angle 0), for which OpenBLAS gives the same bits whatever
    # its thread count; _CHUNK is a multiple of 8 too.
    n_padded = -(-n_windows // 8) * 8
    # One row per measured qubit, written in place by every chunk.
    out = np.empty((spec.n_qubits, n_windows))
    # The per-qubit (1, cos, sin), the head and tail features, G = tail
    # rows @ Ft and H = head rows @ Fh, one window per column, reused by
    # every chunk.
    cols = min(n_padded, _CHUNK)
    trig = np.empty((m, 3, cols))
    trig[:, 0] = 1.0
    head = np.empty((3**a, cols))
    tail = np.empty((factors.tail.shape[1], cols))
    g = np.empty((factors.tail.shape[0], cols))
    h = np.empty((factors.head.shape[0], cols))
    ends = np.append(factors.starts[1:], len(h))
    for lo in range(0, n_padded, _CHUNK):
        hi = min(lo + _CHUNK, n_padded)
        w, v = hi - lo, min(hi, n_windows) - lo
        _gather(cos, lo, lo + v, trig[:, 1, :v])
        _gather(sin, lo, lo + v, trig[:, 2, :v])
        trig[:, 1, v:w] = 1.0
        trig[:, 2, v:w] = 0.0
        _products(trig[:a, :, :w], head[:, :w])
        _products(trig[a:, :, :w], tail[:, :w])
        gw = np.matmul(factors.tail, tail[:, :w], out=g[:, :w])
        # A whole qubit's <Z_q> is sum_alpha G[q, alpha] Fh[alpha].
        for i, q in enumerate(factors.order[:whole]):
            np.einsum("aw,aw->w", gw[i * 3**a:(i + 1) * 3**a, :v], head[:, :v],
                      out=out[q, lo:lo + v])
        # A factored qubit's <Z_q> sums (L_q Fh) * (W_q Ft) over its r_q rows.
        hw = np.matmul(factors.head, head[:, :w], out=h[:, :w])
        hw *= gw[whole * 3**a:]
        for q, start, end in zip(factors.order[whole:], factors.starts, ends):
            np.sum(hw[start:end, :v], axis=0, out=out[q, lo:lo + v])
    return out.T


def kernel():
    """The window evaluator quanvolve calls: this module's run_windows."""
    return sys.modules[__name__]


def backend_name() -> str:
    """Name of the evaluation code: 'numpy', the only implementation."""
    return "numpy"
