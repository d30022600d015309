"""Circuit evaluation on angle-encoded windows.

`run_windows(enc, spec)` maps encoded windows (N, n_qubits) to their Z
expectations under the frozen circuit `spec`, by one of two plans chosen
from the qubit count:

* dense (at most DENSE_MAX_QUBITS qubits): the circuit is frozen, so its
  transfer matrix is built once per CircuitSpec and cached; each window
  is then a real product state, and its Z expectations are
  |psi U^T|^2 @ S for the +-1 sign table S, a few GEMMs per chunk.
* statevector (above that): every window is simulated gate by gate on a
  batch of state vectors, with chunks spread over QUANVSEG_THREADS
  threads.

The dense plan costs a 2**n x 2**n GEMM per window (4**n) plus one
compile per process, which simulates 2**n windows gate by gate; the
statevector plan costs about gates x 2**n per window.  On 2 cores with
4096 windows of a 2-layer circuit, the dense plan ran 12-27k windows/s
against 2-3k at 10 qubits, after a 0.3-0.5 s compile.  At 11 qubits it
still ran 4.5-9.5k against 0.7-1k windows/s, but the compile took 3-4 s,
so it pays off only past about 3k windows per process; at 12 qubits the
compile took about 20 s, more than a 64x64 scene takes on the
statevector plan.  The cutoff of 10 keeps the compile under a second.

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
from .qsim.state import apply_gates_batch, rotate_batch

# Largest register evaluated through a cached dense transfer matrix.
DENSE_MAX_QUBITS = 10

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


def plan_name(n_qubits: int) -> str:
    """The window-evaluation plan used for a register: dense or statevector."""
    return "dense" if n_qubits <= DENSE_MAX_QUBITS else "statevector"


def _chunks(n_windows):
    return [(lo, min(lo + _CHUNK, n_windows)) for lo in range(0, n_windows, _CHUNK)]


@functools.lru_cache(maxsize=8)
def _transfer_matrix(spec: CircuitSpec):
    """(Re, Im or None, S) of the frozen circuit, shared read-only.

    Row i of the batch run on the identity is U e_i, so the result is U^T.
    Im is None when it is exactly zero (circuits of RY and CNOT only).
    S[j, q] is +1 where qubit q of basis state j is 0, else -1.
    """
    n = spec.n_qubits
    rows = np.eye(1 << n, dtype=np.complex128)
    apply_gates_batch(rows, spec.gates)
    re = np.ascontiguousarray(rows.real)
    im = np.ascontiguousarray(rows.imag) if rows.imag.any() else None
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    for array in (re, im, signs):
        if array is not None:
            array.flags.writeable = False
    return re, im, signs


def _dense_windows(enc, spec):
    """Z expectations of encoded windows (N, n_qubits) via the transfer matrix."""
    re, im, signs = _transfer_matrix(spec)
    out = np.empty_like(enc)
    for lo, hi in _chunks(enc.shape[0]):
        half = 0.5 * enc[lo:hi]
        cos, sin = np.cos(half), np.sin(half)
        # Real product state, qubit 0 as the most significant factor.
        psi = np.ones((hi - lo, 1))
        for q in range(spec.n_qubits):
            psi = np.stack((psi * cos[:, q:q + 1], psi * sin[:, q:q + 1]), axis=2)
            psi = psi.reshape(hi - lo, -1)
        amp = psi @ re
        probs = amp * amp
        if im is not None:
            amp = psi @ im
            probs += amp * amp
        np.matmul(probs, signs, out=out[lo:hi])
    return out


def _statevector_windows(enc, spec):
    """Z expectations of encoded windows (N, n_qubits), simulated gate by gate."""
    n = spec.n_qubits
    out = np.empty_like(enc)

    def run(lo, hi):
        psi = np.zeros((hi - lo, 1 << n), dtype=np.complex128)
        psi[:, 0] = 1.0
        half = 0.5 * enc[lo:hi]
        for q in range(n):
            rotate_batch(psi, "RY", q, np.cos(half[:, q]), np.sin(half[:, q]))
        apply_gates_batch(psi, spec.gates)
        probs = psi.real**2 + psi.imag**2
        for q in range(n):
            v = probs.reshape(hi - lo, 1 << q, 2, -1)
            out[lo:hi, q] = v[:, :, 0, :].sum(axis=(1, 2)) - v[:, :, 1, :].sum(axis=(1, 2))

    bounds = _chunks(enc.shape[0])
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
    """Z expectations (N, n_qubits) of encoded windows under the plan for spec."""
    return _PLANS[plan_name(spec.n_qubits)](enc, spec)


def kernel():
    """The window evaluator quanvolve calls: this module's run_windows."""
    return sys.modules[__name__]


def backend_name() -> str:
    """Name of the evaluation code: 'numpy', the only implementation."""
    return "numpy"
