"""Command-line front end binding the modules into reproducible runs.

Subcommands: quanvolve, synth-data, make-patches, train, eval, predict,
param-count, gradcheck.  Exit codes: 0 success; 1 runtime failure
(malformed files, bad data, numeric trouble); 2 usage errors (bad
flags, unknown config keys, missing input files).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .backend import MAX_KERNEL_SIZE
from .checkpoint import load_checkpoint, save_checkpoint
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
from .exceptions import ConfigError, FileFormatError, QuanvsegError, ShapeError
from .fileio import (
    located,
    read_pgm,
    read_tensor,
    read_text,
    write_atomic,
    write_pgm,
    write_tensor,
)
from .qsim.circuits import TEMPLATES, build_circuit, parse_circuit, serialize_circuit
from .qsim.state import MAX_SIM_QUBITS
from .quanvolution import PADDINGS, QuanvConfig, quanvolve
from .training import TrainConfig, evaluate, predict_masks, train
from .unet import (
    BASELINE_REFERENCE_CONFIG,
    QUANTUM_REFERENCE_CONFIG,
    AttentionUNetConfig,
    build_model,
    count_params,
    gradcheck_suite,
)

# ---------------------------------------------------------------------
# RunConfig: flat key=value text, every key typed and defaulted


def _as_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


def _as_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def _as_bool(key, text):
    lowered = text.strip().lower()
    if lowered in ("1", "true"):
        return True
    if lowered in ("0", "false"):
        return False
    raise ConfigError(f"{key} must be 0/1/true/false, got {text!r}")


def _as_choice(options):
    def convert(key, text):
        if text not in options:
            raise ConfigError(f"{key} must be one of {options}, got {text!r}")
        return text
    return convert


def _as_widths(key, text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers, got {text!r}") from None


# (test, rule) bounds shared by config keys and command-line flags.  Every
# comparison with NaN is False, so the float tests reject it.
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_SEED = (lambda v: 0 <= v < 2**64, "in [0, 2**64)")
_FINITE = (math.isfinite, "finite")


def _check(key, value, bound):
    ok, rule = bound
    if not ok(value):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return value


def _bounded(convert, bound):
    return lambda key, text: _check(key, convert(key, text), bound)


CONFIG_SCHEMA = {
    "circuit.template": _as_choice(TEMPLATES),
    "circuit.qubits": _bounded(_as_int, (lambda v: 1 <= v <= MAX_SIM_QUBITS,
                                         f"in [1, {MAX_SIM_QUBITS}]")),
    "circuit.layers": _bounded(_as_int, _AT_LEAST_1),
    "circuit.seed": _bounded(_as_int, _SEED),
    "quanv.kernel": _bounded(_as_int, (lambda v: 1 <= v <= MAX_KERNEL_SIZE,
                                       f"in [1, {MAX_KERNEL_SIZE}]")),
    "quanv.stride": _bounded(_as_int, _AT_LEAST_1),
    "quanv.padding": _as_choice(PADDINGS),
    "quanv.rescale": _as_bool,
    "model.depth": _bounded(_as_int, (lambda v: v >= 2, ">= 2")),
    "model.widths": _bounded(_as_widths, (lambda v: min(v) >= 1, "all >= 1")),
    "model.in_channels": _bounded(_as_int, _AT_LEAST_1),
    "train.lr": _bounded(_as_float, (lambda v: 0.0 < v < math.inf, "a finite number > 0")),
    "train.epochs": _bounded(_as_int, _AT_LEAST_1),
    "train.batch": _bounded(_as_int, _AT_LEAST_1),
    "train.seed": _bounded(_as_int, _SEED),
    "data.patch": _bounded(_as_int, _AT_LEAST_1),
    "data.stride": _bounded(_as_int, _AT_LEAST_1),
    "data.test_fraction": _bounded(_as_float, (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "norm.lo_db": _bounded(_as_float, _FINITE),
    "norm.hi_db": _bounded(_as_float, _FINITE),
}

DEFAULTS = {
    "circuit.template": "basic_entangled",
    "circuit.qubits": 9,
    "circuit.layers": 2,
    "circuit.seed": 42,
    "quanv.kernel": 3,
    "quanv.stride": 1,
    "quanv.padding": "same-reflect",
    "quanv.rescale": True,
    "model.depth": 3,
    "model.widths": (8, 16, 32),
    "model.in_channels": 1,
    "train.lr": 1e-3,
    "train.epochs": 30,
    "train.batch": 8,
    "train.seed": 0,
    "data.patch": 256,
    "data.stride": 128,
    "data.test_fraction": 0.2,
    "norm.lo_db": -25.0,
    "norm.hi_db": 5.0,
}


def load_config(path=None, overrides=()):
    """Defaults, then the config file, then --set overrides, in order.

    An error in a file's key or value names its `path:lineno`, one from
    an override names --set.
    """
    pairs = []  # (key, value text, where it came from)
    if path is not None:
        try:
            raw_lines = read_text(path).split("\n")
        except FileFormatError as exc:
            raise ConfigError(str(exc)) from None
        for lineno, raw in enumerate(raw_lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, text = line.split("=", 1)
            pairs.append((key.strip(), text.strip(), f"{path}:{lineno}"))
    for raw in overrides:
        if "=" not in raw:
            raise ConfigError(f"--set needs KEY=VALUE, got {raw!r}")
        key, text = raw.split("=", 1)
        pairs.append((key.strip(), text.strip(), "--set"))
    cfg = dict(DEFAULTS)
    for key, text, where in pairs:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_SCHEMA[key](key, text)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return cfg


def _circuit_from(cfg, circuit_in=None):
    if circuit_in is not None:
        text = read_text(circuit_in)
        with located(circuit_in):
            return parse_circuit(text)
    return build_circuit(cfg["circuit.template"], cfg["circuit.qubits"],
                         cfg["circuit.layers"], cfg["circuit.seed"])


def _quanv_config_from(cfg, spec):
    return QuanvConfig(circuit=spec, kernel_size=cfg["quanv.kernel"],
                       stride=cfg["quanv.stride"], padding=cfg["quanv.padding"],
                       rescale=cfg["quanv.rescale"])


def _model_config_from(cfg, in_channels=None):
    return AttentionUNetConfig(
        in_channels=cfg["model.in_channels"] if in_channels is None else in_channels,
        depth=cfg["model.depth"],
        widths=cfg["model.widths"],
    )


def _read_raster(path):
    """2-D float64 raster from a .pgm or QVT1 file."""
    if str(path).endswith(".pgm"):
        values, _ = read_pgm(path)
        return values
    arr = read_tensor(path)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D raster in {path}, got shape {arr.shape}")
    return arr.astype(np.float64)


def _quanvolve_patchset(patchset, quanv_config):
    items = []
    for item in patchset.items:
        stack = quanvolve(np.asarray(item.image, dtype=np.float64), quanv_config)
        items.append(PatchItem(image=stack.data.astype(np.float32),
                               mask=item.mask, row=item.row, col=item.col))
    return PatchSet(items=tuple(items))


def _ensure_parent_dir(path) -> None:
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _select_split(patches_dir, which):
    train_set, test_set = load_patch_dir(patches_dir)
    if which == "train":
        return train_set
    if which == "test":
        return test_set
    return PatchSet(items=train_set.items + test_set.items)


# ---------------------------------------------------------------------
# Subcommands


def cmd_quanvolve(args) -> int:
    cfg = load_config(args.config, args.set)
    image = _read_raster(args.input)
    spec = _circuit_from(cfg, args.circuit_in)
    quanv_config = _quanv_config_from(cfg, spec)
    stack = quanvolve(image, quanv_config)
    write_tensor(args.output, stack.data.astype(np.float32))
    if args.circuit_out:
        write_atomic(args.circuit_out, serialize_circuit(spec).encode("ascii"))
    print(f"{args.output}: {stack.channels}x{stack.height}x{stack.width} feature stack")
    return 0


def cmd_synth_data(args) -> int:
    _check("--seed", args.seed, _SEED)
    _check("--looks", args.looks, (lambda v: v > 0.0, "> 0 (inf disables speckle)"))
    image, mask = synth_scene(args.height, args.width, args.rects, args.seed,
                              looks=args.looks)
    write_pgm(args.scene_out, image, maxval=65535)
    write_pgm(args.mask_out, mask, maxval=255)
    built = int(mask.sum())
    print(f"{args.scene_out}: {args.height}x{args.width} scene, "
          f"{built} building pixels ({built / mask.size:.1%})")
    return 0


def cmd_make_patches(args) -> int:
    cfg = load_config(args.config, args.set)
    image = _read_raster(args.scene)
    if args.normalize_db:
        image = normalize_db(image, cfg["norm.lo_db"], cfg["norm.hi_db"])
    mask = (_read_raster(args.mask) >= 0.5).astype(np.float64)
    patches = extract_patches(image, mask, cfg["data.patch"], cfg["data.stride"])
    train_set, test_set = split(patches, cfg["data.test_fraction"], cfg["train.seed"])
    save_patch_dir(args.outdir, train_set, test_set)
    print(f"{args.outdir}: {len(train_set)} train + {len(test_set)} test patches "
          f"of {cfg['data.patch']}x{cfg['data.patch']}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    _ensure_parent_dir(args.checkpoint_out)
    if args.log_out:
        _ensure_parent_dir(args.log_out)
    train_set, _ = load_patch_dir(args.patches)
    quanv_config = None
    circuit_text = None
    if args.quanvolve:
        spec = _circuit_from(cfg, args.circuit_in)
        quanv_config = _quanv_config_from(cfg, spec)
        circuit_text = serialize_circuit(spec)
        if cfg["model.in_channels"] not in (1, spec.n_qubits):
            raise ConfigError(
                f"model.in_channels={cfg['model.in_channels']} conflicts with "
                f"{spec.n_qubits} quanvolution channels"
            )
        train_set = _quanvolve_patchset(train_set, quanv_config)
        model_config = _model_config_from(cfg, in_channels=spec.n_qubits)
    else:
        model_config = _model_config_from(cfg)
    model = build_model(model_config, seed=cfg["train.seed"])
    train_config = TrainConfig(lr=cfg["train.lr"], epochs=cfg["train.epochs"],
                               batch_size=cfg["train.batch"])
    model, log_lines = train(model, train_set, train_config, seed=cfg["train.seed"])
    for line in log_lines:
        print(line)
    if args.log_out:
        write_atomic(args.log_out, ("\n".join(log_lines) + "\n").encode("ascii"))
    save_checkpoint(args.checkpoint_out, model, quanv_config, circuit_text)
    print(f"checkpoint: {args.checkpoint_out}.manifest "
          f"({model.n_params()} trainable parameters)")
    return 0


def cmd_eval(args) -> int:
    model, quanv_config = load_checkpoint(args.checkpoint)
    patchset = _select_split(args.patches, args.split)
    if quanv_config is not None:
        patchset = _quanvolve_patchset(patchset, quanv_config)
    result = evaluate(model, patchset)
    print("patch\toa\tiou")
    for row in result.rows:
        print(f"{row.index}\t{row.oa:.6f}\t{row.iou:.6f}")
    print(f"OA={result.oa:.6f} IoU={result.iou:.6f}")
    return 0


def cmd_predict(args) -> int:
    model, quanv_config = load_checkpoint(args.checkpoint)
    patchset = _select_split(args.patches, args.split)
    raw = patchset
    if quanv_config is not None:
        patchset = _quanvolve_patchset(patchset, quanv_config)
    masks = predict_masks(model, patchset)
    os.makedirs(args.outdir, exist_ok=True)
    for item, mask in zip(raw.items, masks):
        out = os.path.join(args.outdir, f"pred_r{item.row}_c{item.col}.pgm")
        write_pgm(out, mask, maxval=255)
    print(f"{args.outdir}: {len(raw)} predicted masks")
    return 0


def cmd_param_count(args) -> int:
    if args.reference == "baseline":
        model_config = BASELINE_REFERENCE_CONFIG
    elif args.reference == "quantum":
        model_config = QUANTUM_REFERENCE_CONFIG
    else:
        cfg = load_config(args.config, args.set)
        model_config = _model_config_from(cfg)
    n = count_params(model_config)
    print(f"{n} ({n / 1e6:.1f}M)")
    return 0


def cmd_gradcheck(args) -> int:
    _check("--seed", args.seed, _SEED)
    reports = gradcheck_suite(seed=args.seed)
    for report in reports:
        print(report)
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(reports)} checks failed")
        return 1
    print(f"all {len(reports)} checks passed")
    return 0


# ---------------------------------------------------------------------
# Parser


def _add_config_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a single config key (repeatable)")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quanvseg",
        description="Quanvolution-assisted attention U-Net segmentation runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quanvolve", help="raster -> multi-channel feature stack")
    _add_config_flags(p)
    p.add_argument("--input", required=True, help="2-D raster (.pgm or QVT1)")
    p.add_argument("--output", required=True, help="QVT1 feature stack to write")
    p.add_argument("--circuit-in", help="reuse a serialized circuit file")
    p.add_argument("--circuit-out", help="write the frozen circuit here")

    p = sub.add_parser("synth-data", help="synthetic speckled scene + mask")
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--rects", type=int, default=12, help="number of buildings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--looks", type=float, default=4.0,
                   help="speckle looks; inf disables speckle")
    p.add_argument("--scene-out", required=True, help="16-bit PGM scene")
    p.add_argument("--mask-out", required=True, help="8-bit PGM mask")

    p = sub.add_parser("make-patches", help="scene/mask -> patch directory")
    _add_config_flags(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--normalize-db", action="store_true",
                   help="treat the scene as dB values and normalize to [0,1]")

    p = sub.add_parser("train", help="fit a model on a patch directory")
    _add_config_flags(p)
    p.add_argument("--patches", required=True, help="patch directory")
    p.add_argument("--checkpoint-out", required=True, help="checkpoint prefix")
    p.add_argument("--quanvolve", action="store_true",
                   help="quanvolve patches before training")
    p.add_argument("--circuit-in", help="frozen circuit file for --quanvolve")
    p.add_argument("--log-out", help="also write the epoch log here")

    p = sub.add_parser("eval", help="metrics of a checkpoint on a split")
    p.add_argument("--patches", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint prefix")
    p.add_argument("--split", choices=("train", "test", "all"), default="test")

    p = sub.add_parser("predict", help="write per-patch predicted masks")
    p.add_argument("--patches", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint prefix")
    p.add_argument("--outdir", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="test")

    p = sub.add_parser("param-count", help="trainable parameter total")
    _add_config_flags(p)
    p.add_argument("--reference", choices=("baseline", "quantum"),
                   help="use a built-in full-scale reference configuration")

    p = sub.add_parser("gradcheck", help="finite-difference gradient battery")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so a cmd_*
    # function replaced on this module takes effect.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else str(exc)
        print(f"error: no such file: {missing}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuanvsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
