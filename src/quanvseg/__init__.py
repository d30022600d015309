"""Quanvolution-assisted attention U-Net for binary raster segmentation.

A frozen quantum circuit, simulated on the state vector, turns each
image window into one feature channel per measured qubit; a small
attention-gated U-Net with hand-derived gradients consumes either the
raw band or the quanvoluted stack.
"""

from . import _heap  # noqa: F401  (sets the process's allocator policy)
from .datapipe import (
    PatchItem,
    PatchSet,
    extract_patches,
    load_patch_dir,
    normalize_db,
    save_patch_dir,
    split,
    synth_scene,
)
from .exceptions import QuanvsegError
from .qsim import (
    CircuitSpec,
    Gate,
    StateVector,
    angle_encode,
    build_circuit,
    dense_unitary_oracle,
    measure_z_expectations,
    new_zero_state,
    parse_circuit,
    run_circuit,
    serialize_circuit,
)
from .quanvolution import FeatureStack, QuanvConfig, quanvolve, window_positions
from .unet import (
    BASELINE_REFERENCE_CONFIG,
    QUANTUM_REFERENCE_CONFIG,
    AttentionUNet,
    AttentionUNetConfig,
    attention_gate_backward,
    attention_gate_forward,
    build_model,
    count_params,
    gradcheck_suite,
)
from .training import TrainConfig, evaluate, predict_masks, train

__version__ = "0.1.0"

__all__ = [
    "AttentionUNet",
    "AttentionUNetConfig",
    "BASELINE_REFERENCE_CONFIG",
    "CircuitSpec",
    "FeatureStack",
    "Gate",
    "PatchItem",
    "PatchSet",
    "QUANTUM_REFERENCE_CONFIG",
    "QuanvConfig",
    "QuanvsegError",
    "StateVector",
    "TrainConfig",
    "angle_encode",
    "attention_gate_backward",
    "attention_gate_forward",
    "build_circuit",
    "build_model",
    "count_params",
    "dense_unitary_oracle",
    "evaluate",
    "extract_patches",
    "gradcheck_suite",
    "load_patch_dir",
    "measure_z_expectations",
    "new_zero_state",
    "normalize_db",
    "parse_circuit",
    "predict_masks",
    "quanvolve",
    "run_circuit",
    "save_patch_dir",
    "serialize_circuit",
    "split",
    "synth_scene",
    "train",
    "window_positions",
]
