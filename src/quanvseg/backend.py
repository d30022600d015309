"""Circuit evaluation on angle-encoded windows.

`run_windows(enc, spec)` maps encoded windows (N, m) to their Z
expectations (N, n) under the frozen n-qubit circuit `spec`.  Column j of
`enc` is the RY angle theta_j of qubit j; the other n - m qubits start in
|0>, so every window lies in the span of the 2**m basis states whose last
n - m bits are 0.  One of two plans is chosen from (m, n):

* dense (2**(m + n) <= DENSE_MAX_AMPLITUDES): the circuit is frozen, so
  each <Z_q> is a fixed trigonometric polynomial of the window's angles,
  with one coefficient per choice of (1, cos theta_j, sin theta_j) on
  every encoded qubit: 3**m per measured qubit (Schuld, Sweke & Meyer,
  arXiv:2008.08605).  The coefficients are compiled once per
  (CircuitSpec, m), factored where they have low rank, and cached;
  evaluation is one or two GEMMs per chunk.
* statevector (above that): every window is simulated on a batch of
  2**n-amplitude state vectors, in chunks of at most DENSE_MAX_AMPLITUDES
  amplitudes, one chunk at a time.

Both plans simulate the circuit with qsim.state.apply_gates_batch, in
float64 for circuits of RY and CNOT gates only, else in complex128.

Compile.  The 2**m x 2**n block V of the transfer matrix U^T that encoded
windows reach is simulated as one batch of 2**m basis states.  For a
real product state psi, <Z_q> = psi A_q psi with A_q = Re(V diag(S_q)
V^+) = 2 Re(V_0 V_0^+) - I, V_0 being the columns in which qubit q is 0;
rewriting each qubit's (row bit, column bit) pair in the basis (1,
cos theta, sin theta) gives the coefficients, one 3**a x 3**b matrix C_q
per qubit (a and b below).  Re(V_0 V_0^+) is summed over chunks of V_0's
columns, copied into one buffer of at most max(4**m, 2**16) values, so
the compile holds V and a few 2**m x 2**m (form-sized) buffers, never a
copy of V_0; a V_0 that fits in one chunk is one syrk over all of it.
V is freed first; then each C_q's SVD gives its numerical rank r_q, and
C_q is kept as factors L_q (r_q x 3**a) and W_q (r_q x 3**b), C_q =
L_q^T W_q, when r_q (3**a + 3**b) < 3**a 3**b, else whole.  The choice comes from the circuit alone.

Evaluate.  The encoded qubits split into a = m // 2 head and b = m - a
tail qubits, and a window's features into head features Fh (3**a) and
tail features Ft (3**b), each a product of per-qubit (1, cos, sin), so
<Z_q> = Fh . (C_q @ Ft).  G = T @ Ft is one GEMM per chunk, T stacking
the whole C_q and then every W_q; a whole qubit's <Z_q> is sum_alpha
G[q, alpha] Fh[alpha].  For the factored ones, H = L @ Fh is one more
GEMM over the stacked L_q, and <Z_q> sums H * G over q's r_q rows.  The
split is what makes this cheap: the unsplit form needs all 3**m features
of every window (4096 x 19683 float64, 645 MB, at m = 9) and a
memory-bound GEMM with only n output columns, while the split form
stores 3**a + 3**b features a window (324 at m = 9).  Windows are padded
to a multiple of 8 (chunks hold 2048), because OpenBLAS 0.3.31 rounds a
GEMM with another column count differently on 1 and 2 threads.

Cost per window: sum_q min(r_q (3**a + 3**b), 3**a 3**b) multiply-adds,
at most n * 3**m, against 2**(m + n) (twice that for complex circuits)
for evaluating |psi V|^2 directly.  At m = 9 (81 x 243 C_q, factored
for r_q <= 60), measured on the three templates (seed 42, n = 9 and
12): one layer gives r_q = 1 on every qubit; two layers 2-10 on the
entangling templates (44-64 rows in all against 729-972) and 1-3 on
random; three layers 10-81 on the entangling templates, where 6-10 of
9-12 qubits factor, and at most 3 on random; from four layers the
entangling templates keep every C_q whole (r_q 70-81), while random
still factors most qubits.  The cap of 2**22 amplitudes bounds the
memory and time of the compile, which holds V plus form-sized buffers:
it lets 3x3 windows (m = 9) run dense up to n = 13 (quanvolve encodes
m = k**2 qubits).  For 2-layer strongly_entangled at m = 9 the
compile's traced peak was 43 MiB at n = 12 (V is 32 MiB) and 76 MiB at
n = 13 (V is 64 MiB), against 55 and 104 MiB while it copied all of V_0
for each qubit; the shorter syrks made a cold compile 3-27% slower.
On 2 cores (numpy 2.4.6, OpenBLAS 0.3.31), for a 64x64 scene (4096
windows) with m = 9, evaluation of a 2-layer circuit took 5.8-6.9 ms at
n = 12 (strongly_entangled) and 5.5-6.9 ms at n = 9 (basic_entangled),
against 28-36 ms and 22-28 ms with every C_q whole; 3-layer circuits
took 15-24 ms (22-35 ms whole), and a 4-layer basic_entangled circuit at
n = 9, which keeps every C_q whole, 18-23 ms (22-26 ms before the
factoring).  The SVDs add 25-45 ms to a compile at m = 9.  Simulating V
took 0.11-0.14 s at n = 12 and 0.21-0.24 s at n = 13
(strongly_entangled).  The statevector plan took 1.1-1.5 s for 4096
windows at n = 12 (135 MB peak RSS).

Both plans encode windows with one helper, _products: the products of
per-qubit factors over the first half of the qubits and over the rest
each come from a short ladder, and one outer product of the two is
written in place, with windows along the last axis.  The dense plan
calls it on (1, cos theta, sin theta) for Fh and Ft, in buffers it
reuses across chunks, as it reuses G and H; the statevector plan calls it,
through _product_states, on (cos theta/2, sin theta/2) and writes the
product states into the amplitudes j << (n - m) of its zeroed batch.

quanvolve reaches run_windows through kernel() on every call, so a
wrapper installed on kernel (perfbench/tracing.py times run_windows that
way) sees every evaluation.
"""

from __future__ import annotations

import functools
import sys
from typing import NamedTuple

import numpy as np

from .qsim.circuits import CircuitSpec
from .qsim.state import _BLOCK_AMPLITUDES, apply_gates_batch, batch_dtype

# Largest transfer matrix (2**m x 2**n amplitudes) the dense plan compiles;
# it bounds the memory of the compile, which holds V plus a few 2**m x 2**m
# (form-sized) buffers, not of the evaluation.  It also bounds the
# amplitudes of one statevector-plan chunk.
DENSE_MAX_AMPLITUDES = 1 << 22

# The dense plan evaluates windows in chunks of this many, so its buffers
# stay bounded whatever the number of windows.
_CHUNK = 2048


def plan_name(n_encoded: int, n_qubits: int) -> str:
    """The plan for m = n_encoded encoded qubits of an n-qubit register."""
    return "dense" if 1 << (n_encoded + n_qubits) <= DENSE_MAX_AMPLITUDES else "statevector"


def _chunks(n_windows, size):
    return [(lo, min(lo + size, n_windows)) for lo in range(0, n_windows, size)]


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
    """The dense plan's compiled coefficients, one block of rows per qubit.

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
    prod = np.ones((1, factors.shape[2]))
    for q in range(factors.shape[0]):
        prod = (prod[:, None, :] * factors[q, None, :, :]).reshape(-1, factors.shape[2])
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


def _product_states(enc, out=None):
    """Real product states (N, 2**m) of windows encoded on m qubits (N, m).

    out, if given, is any (N, 2**m) array or view.
    """
    half = 0.5 * enc.T
    if out is None:
        out = np.empty((enc.shape[0], 1 << enc.shape[1]))
    _products(np.stack((np.cos(half), np.sin(half)), axis=1), out.T)
    return out


def _dense_windows(enc, spec):
    """Z expectations (N, n) of windows encoded on m qubits (N, m), via _Factors."""
    n_windows, m = enc.shape
    a = m // 2
    factors = _coefficients(spec, m)
    whole = len(factors.order) - len(factors.starts)
    # Windows are padded to a multiple of 8 (with angle 0), so every GEMM
    # has a column count for which OpenBLAS gives the same bits whatever
    # its thread count; _CHUNK is a multiple of 8 too.
    padded = -(-n_windows // 8) * 8
    angles = np.zeros((m, padded))
    angles[:, :n_windows] = enc.T
    # Filled one qubit per row, in factors.order, so each chunk writes
    # contiguous runs.
    out = np.empty((len(factors.order), padded))
    # The per-qubit (1, cos, sin), the head and tail features, G = tail
    # rows @ Ft and H = head rows @ Fh, one window per column, reused by
    # every chunk.
    cols = min(padded, _CHUNK)
    trig = np.empty((m, 3, cols))
    trig[:, 0] = 1.0
    head = np.empty((3**a, cols))
    tail = np.empty((factors.tail.shape[1], cols))
    g = np.empty((factors.tail.shape[0], cols))
    h = np.empty((factors.head.shape[0], cols))
    split = whole * 3**a
    ends = np.append(factors.starts[1:], len(h))
    for lo, hi in _chunks(padded, _CHUNK):
        w = hi - lo
        np.cos(angles[:, lo:hi], out=trig[:, 1, :w])
        np.sin(angles[:, lo:hi], out=trig[:, 2, :w])
        _products(trig[:a, :, :w], head[:, :w])
        _products(trig[a:, :, :w], tail[:, :w])
        gw = np.matmul(factors.tail, tail[:, :w], out=g[:, :w])
        np.einsum("qaw,aw->qw", gw[:split].reshape(whole, 3**a, w), head[:, :w],
                  out=out[:whole, lo:hi])
        # A factored qubit's <Z_q> sums (L_q Fh) * (W_q Ft) over its r_q rows.
        hw = np.matmul(factors.head, head[:, :w], out=h[:, :w])
        hw *= gw[split:]
        for row, start, end in zip(range(whole, len(out)), factors.starts, ends):
            np.sum(hw[start:end], axis=0, out=out[row, lo:hi])
    return out[np.argsort(factors.order), :n_windows].T


def _statevector_windows(enc, spec):
    """Z expectations (N, n) of windows encoded on m qubits (N, m), gate by gate."""
    n_windows, m = enc.shape
    n = spec.n_qubits
    out = np.empty((n_windows, n))
    # One chunk holds at most DENSE_MAX_AMPLITUDES amplitudes.
    size = max(1, min(n_windows, DENSE_MAX_AMPLITUDES >> n))
    batch = np.empty((size, 1 << n), dtype=batch_dtype(spec.gates))
    probs = np.empty((size, 1 << n))
    for lo, hi in _chunks(n_windows, size):
        w = hi - lo
        psi = batch[:w]
        psi.fill(0.0)
        # Amplitudes j << (n - m): the encoded qubits spell j, the rest are 0.
        _product_states(enc[lo:hi], out=psi.reshape(w, 1 << m, -1)[:, :, 0])
        apply_gates_batch(psi, spec.gates)
        # |psi|**2 as the sum over the real (and imaginary) part of each amplitude.
        parts = psi.view(np.float64).reshape(w, 1 << n, -1)
        p = np.einsum("wak,wak->wa", parts, parts, out=probs[:w])
        for q in range(n):
            v = p.reshape(w, 1 << q, 2, -1)
            out[lo:hi, q] = v[:, :, 0, :].sum(axis=(1, 2)) - v[:, :, 1, :].sum(axis=(1, 2))
    return out


_PLANS = {"dense": _dense_windows, "statevector": _statevector_windows}


def run_windows(enc, spec: CircuitSpec):
    """Z expectations (N, n_qubits) of windows encoded on their first m qubits (N, m)."""
    return _PLANS[plan_name(enc.shape[1], spec.n_qubits)](enc, spec)


def kernel():
    """The window evaluator quanvolve calls: this module's run_windows."""
    return sys.modules[__name__]


def backend_name() -> str:
    """Name of the evaluation code: 'numpy', the only implementation."""
    return "numpy"
