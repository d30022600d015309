"""Circuit evaluation on angle-encoded windows.

`run_windows(enc, spec)` maps encoded windows (N, m) to their Z
expectations (N, n) under the frozen n-qubit circuit `spec`.  Column j of
`enc` is the RY angle of qubit j; the other n - m qubits start in |0>, so
every window lies in the span of the 2**m basis states whose last n - m
bits are 0.  One of two plans is chosen from (m, n):

* dense (2**(m + n) <= DENSE_MAX_AMPLITUDES): the circuit is frozen, so
  the 2**m x 2**n block V of its transfer matrix U^T that encoded windows
  reach is built once per (CircuitSpec, m) and cached; each window is a
  real product state over m qubits, and its Z expectations are
  |psi V|^2 @ S for the +-1 sign table S, a few GEMMs per chunk.
* statevector (above that): every window is simulated gate by gate on a
  batch of 2**n-amplitude state vectors, with chunks spread over
  QUANVSEG_THREADS threads.

The dense plan costs a 2**m x 2**n GEMM per window plus one compile per
process, which simulates 2**m basis rows gate by gate; the statevector
plan costs about gates x 2**n per window.  The cap of 2**22 amplitudes
lets 3x3 windows (m = 9) run dense up to n = 13 and full-width encodings
(m = n) up to n = 11.  On 2 cores, for a 64x64 scene (4096 windows) of a
2-layer strongly_entangled circuit with m = 9, the statevector plan took
3.9 s at n = 11 and 8.1 s at n = 12 (678 MB peak).  The dense plan
compiled in 0.35-0.65 s and evaluated in 0.12-0.24 s at n = 11; at
n = 12 it took 0.75-1.8 s plus 0.23-0.52 s (229 MB peak), and at n = 13
1.9-4.7 s plus 0.5-0.9 s (389 MB).  At n = 14 the compile alone took
5.6 s and the peak reached 710 MB, so the cap stops at 13.

Both plans encode windows with _product_states: the real product states
over the first m // 2 qubits and over the rest each come from a short
ladder, and one outer product of the two writes the 2**m amplitudes in
place.  The dense plan writes them into a (chunk, 2**m) buffer that it
reuses across chunks, as it reuses its GEMM buffers; the statevector
plan writes them into the amplitudes j << (n - m) of its zeroed batch.
At m = n = 9 on 2 cores, one 2048-window chunk's states took 11-12 ms
as an m-step ladder of stacks and take about 3 ms this way, against
9-10 ms for the 2048 x 512 x 512 GEMM they feed; a 64x64 quanvolve
(2 layers) fell from 51-62 to 36-37 ms with basic_entangled and from
76-81 to 54-63 ms with strongly_entangled.

quanvolve reaches run_windows through kernel() on every call, so a
wrapper installed on kernel (perfbench/tracing.py times run_windows that
way) sees every evaluation.
"""

from __future__ import annotations

import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import ConfigError
from .qsim.circuits import CircuitSpec
from .qsim.state import apply_gates_batch

# Largest transfer matrix (2**m x 2**n amplitudes) the dense plan compiles.
DENSE_MAX_AMPLITUDES = 1 << 22

# Windows are evaluated in fixed-size chunks, so memory stays bounded and
# results do not depend on the thread count (each chunk writes a disjoint
# output slice).
_CHUNK = 2048


def n_threads() -> int:
    """Statevector-plan thread cap: QUANVSEG_THREADS, defaulting to all cores."""
    raw = os.environ.get("QUANVSEG_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"QUANVSEG_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError("QUANVSEG_THREADS must be >= 1")
    return value


def plan_name(n_encoded: int, n_qubits: int) -> str:
    """The plan for m = n_encoded encoded qubits of an n-qubit register."""
    return "dense" if 1 << (n_encoded + n_qubits) <= DENSE_MAX_AMPLITUDES else "statevector"


def _chunks(n_windows):
    return [(lo, min(lo + _CHUNK, n_windows)) for lo in range(0, n_windows, _CHUNK)]


@functools.lru_cache(maxsize=8)
def _transfer_matrix(spec: CircuitSpec, n_encoded: int):
    """(Re, Im or None, S) of the frozen circuit on its first m qubits, read-only.

    Row j of the batch is U applied to basis state j << (n - m), the state
    whose first m qubits spell j and whose others are 0, so the result is
    the 2**m x 2**n block of U^T that encoded windows reach (all of U^T
    when m = n).  Im is None when it is exactly zero (circuits of RY and
    CNOT only).  S[i, q] is +1 where qubit q of basis state i is 0, else -1.
    """
    n, m = spec.n_qubits, n_encoded
    rows = np.zeros((1 << m, 1 << n), dtype=np.complex128)
    rows[np.arange(1 << m), np.arange(1 << m) << (n - m)] = 1.0
    apply_gates_batch(rows, spec.gates)
    re = np.ascontiguousarray(rows.real)
    im = np.ascontiguousarray(rows.imag) if rows.imag.any() else None
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    for array in (re, im, signs):
        if array is not None:
            array.flags.writeable = False
    return re, im, signs


def _ladder(cos, sin):
    """Real product states (N, 2**k) from per-qubit cos and sin (N, k)."""
    psi = np.ones((cos.shape[0], 1))
    for q in range(cos.shape[1]):
        psi = np.stack((psi * cos[:, q:q + 1], psi * sin[:, q:q + 1]), axis=2)
        psi = psi.reshape(cos.shape[0], -1)
    return psi


def _product_states(enc, out=None):
    """Real product states (N, 2**m) of windows encoded on m qubits (N, m).

    Qubit 0 is the most significant factor.  The states over the first
    m // 2 qubits and over the rest come from a short ladder each; one
    outer product of the two writes the 2**m amplitudes into out (a new
    array if None, else any (N, 2**m) array or view).
    """
    n_windows, m = enc.shape
    half = 0.5 * enc
    cos, sin = np.cos(half), np.sin(half)
    head = _ladder(cos[:, :m // 2], sin[:, :m // 2])
    tail = _ladder(cos[:, m // 2:], sin[:, m // 2:])
    if out is None:
        out = np.empty((n_windows, 1 << m))
    # Splitting the column axis of out is always a view, never a copy.
    split = out.reshape(n_windows, head.shape[1], tail.shape[1])
    np.multiply(head[:, :, None], tail[:, None, :], out=split)
    return out


def _dense_windows(enc, spec):
    """Z expectations (N, n) of windows encoded on m qubits (N, m), via V."""
    n_windows, m = enc.shape
    re, im, signs = _transfer_matrix(spec, m)
    out = np.empty((n_windows, spec.n_qubits))
    # The states and one (chunk, 2**n) buffer per GEMM, reused by every chunk.
    rows = min(n_windows, _CHUNK)
    states = np.empty((rows, 1 << m))
    buffers = np.empty((1 if im is None else 2, rows, re.shape[1]))
    for lo, hi in _chunks(n_windows):
        psi = _product_states(enc[lo:hi], out=states[:hi - lo])
        probs = np.matmul(psi, re, out=buffers[0, :hi - lo])
        np.square(probs, out=probs)
        if im is not None:
            amp = np.matmul(psi, im, out=buffers[1, :hi - lo])
            probs += np.square(amp, out=amp)
        np.matmul(probs, signs, out=out[lo:hi])
    return out


def _statevector_windows(enc, spec):
    """Z expectations (N, n) of windows encoded on m qubits (N, m), gate by gate."""
    n_windows, m = enc.shape
    n = spec.n_qubits
    out = np.empty((n_windows, n))

    def run(lo, hi):
        psi = np.zeros((hi - lo, 1 << n), dtype=np.complex128)
        # Amplitudes j << (n - m): the encoded qubits spell j, the rest are 0.
        _product_states(enc[lo:hi], out=psi.reshape(hi - lo, 1 << m, -1)[:, :, 0])
        apply_gates_batch(psi, spec.gates)
        probs = psi.real**2 + psi.imag**2
        for q in range(n):
            v = probs.reshape(hi - lo, 1 << q, 2, -1)
            out[lo:hi, q] = v[:, :, 0, :].sum(axis=(1, 2)) - v[:, :, 1, :].sum(axis=(1, 2))

    bounds = _chunks(n_windows)
    workers = n_threads()
    if workers == 1 or len(bounds) == 1:
        for lo, hi in bounds:
            run(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for f in [pool.submit(run, lo, hi) for lo, hi in bounds]:
                f.result()
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
