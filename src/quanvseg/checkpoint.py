"""Model checkpoints: a plain-text manifest next to concatenated QVT1
records.

`<prefix>.manifest` holds the architecture header, optional
quanvolution settings, and one line per tensor:

    param <name> <dims-comma-separated> <byte-offset>
    stat  <name> <dims> <byte-offset>

Offsets point into `<prefix>.tensors`.  When the model was trained on
quanvoluted input, the frozen circuit is written to `<prefix>.circuit`
and referenced from the manifest, so evaluation and prediction can
rebuild the exact preprocessing.
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import ConfigError, FileFormatError
from .fileio import (
    located,
    read_text,
    tensor_from_bytes,
    tensor_record_size,
    tensor_to_bytes,
)
from .unet import AttentionUNet, AttentionUNetConfig, parameter_shapes

MANIFEST_MAGIC = "quanvseg-checkpoint 1"
_QUANV_KEYS = ("quanv.kernel", "quanv.stride", "quanv.padding", "quanv.rescale")


def save_checkpoint(prefix, model: AttentionUNet, quanv_config=None,
                    circuit_text: str | None = None):
    """Write `<prefix>.tensors` (and `.circuit` if given), then `.manifest`.

    Every file is built in memory and replaced atomically, so a save that
    fails before its first write leaves the previous checkpoint loadable.
    """
    prefix = str(prefix)
    cfg = model.config
    lines = [
        MANIFEST_MAGIC,
        f"in_channels {cfg.in_channels}",
        f"depth {cfg.depth}",
        "widths " + ",".join(str(w) for w in cfg.widths),
        "gate_widths " + ",".join(str(w) for w in cfg.resolved_gate_widths()),
        f"upsample {cfg.upsample}",
        f"dtype {model.dtype.name}",
    ]
    if quanv_config is not None:
        if circuit_text is None:
            raise ValueError("quanv checkpoints need the serialized circuit")
        lines.append(f"quanv.kernel {quanv_config.kernel_size}")
        lines.append(f"quanv.stride {quanv_config.stride}")
        lines.append(f"quanv.padding {quanv_config.padding}")
        lines.append(f"quanv.rescale {int(quanv_config.rescale)}")
        lines.append(f"circuit {os.path.basename(prefix)}.circuit")
    blob = bytearray()
    for kind, table in (("param", model.params), ("stat", model.stats)):
        for name, arr in table.items():
            dims = ",".join(str(d) for d in arr.shape)
            lines.append(f"{kind} {name} {dims} {len(blob)}")
            blob += tensor_to_bytes(np.asarray(arr))
    _write_atomic(prefix + ".tensors", bytes(blob))
    if circuit_text is not None:
        _write_atomic(prefix + ".circuit", circuit_text.encode("ascii"))
    _write_atomic(prefix + ".manifest", ("\n".join(lines) + "\n").encode("ascii"))


def _write_atomic(path: str, data: bytes):
    """Write a temp sibling, then os.replace it onto path: a reader sees the
    old file or the new one, never a part, and a failed write leaves no
    temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(f"{where}: expected an integer, got {text!r}") from None


def load_checkpoint(prefix):
    """Returns (model, extras).

    extras is {} for plain checkpoints; for quanvoluted ones it carries
    the quanv.* settings plus "circuit": the serialized circuit text.
    """
    prefix = str(prefix)
    lines = read_text(prefix + ".manifest").split("\n")
    if not lines or lines[0] != MANIFEST_MAGIC:
        raise FileFormatError(f"not a checkpoint manifest: {prefix}.manifest")
    header: dict[str, tuple[str, str]] = {}  # key -> (value, "<file> line <n>")
    tensor_lines = []
    tensor_names: set[str] = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        where = f"{prefix}.manifest line {lineno}"
        fields = ln.split()
        if fields[0] in ("param", "stat"):
            if len(fields) != 4:
                raise FileFormatError(f"bad tensor line in manifest: {ln!r}")
            kind, name, dims, offset_text = fields
            shape = tuple(_int(v, where) for v in dims.split(","))
            offset = _int(offset_text, where)
            if offset < 0:
                raise FileFormatError(f"{where}: negative tensor offset {offset}")
            if name in tensor_names:
                raise FileFormatError(f"{where}: repeated tensor {name!r}")
            tensor_names.add(name)
            tensor_lines.append((kind, name, shape, offset))
        elif len(fields) == 2:
            if fields[0] in header:
                raise FileFormatError(f"{where}: repeated header {fields[0]!r}")
            header[fields[0]] = (fields[1], where)
        else:
            raise FileFormatError(f"bad manifest line: {ln!r}")

    def header_int(key):
        text, where = header[key]
        return _int(text, where)

    def header_ints(key):
        text, where = header[key]
        return tuple(_int(v, where) for v in text.split(","))

    try:
        config = AttentionUNetConfig(
            in_channels=header_int("in_channels"),
            depth=header_int("depth"),
            widths=header_ints("widths"),
            gate_widths=header_ints("gate_widths"),
            upsample=header["upsample"][0],
        )
    except KeyError as exc:
        raise FileFormatError(f"manifest missing header {exc}") from None
    except ConfigError as exc:
        raise FileFormatError(f"{prefix}.manifest: {exc}") from None
    dtype_text = header.get("dtype", ("float32",))[0]
    try:
        dtype = np.dtype(dtype_text)
    except TypeError:
        raise FileFormatError(f"{prefix}.manifest: unknown dtype {dtype_text!r}") from None

    with open(prefix + ".tensors", "rb") as fh:
        blob = fh.read()
    loaded: dict[str, tuple[str, np.ndarray]] = {}
    with located(prefix + ".tensors"):
        for kind, name, shape, offset in tensor_lines:
            size = tensor_record_size(blob[offset : offset + 22], offset)
            arr = tensor_from_bytes(blob[offset : offset + size], offset)
            if arr.shape != shape:
                raise FileFormatError(
                    f"tensor {name}: manifest says {shape}, file holds {arr.shape}",
                    offset=offset,
                )
            loaded[name] = (kind, arr.astype(dtype, copy=False))

    params: dict[str, np.ndarray] = {}
    stats: dict[str, np.ndarray] = {}
    for kind, name, shape in parameter_shapes(config):
        if name not in loaded:
            raise FileFormatError(f"checkpoint is missing tensor {name}")
        stored_kind, arr = loaded.pop(name)
        if stored_kind != kind or arr.shape != shape:
            raise FileFormatError(
                f"tensor {name}: expected {kind} {shape}, "
                f"found {stored_kind} {arr.shape}"
            )
        (params if kind == "param" else stats)[name] = arr
    if loaded:
        raise FileFormatError(f"checkpoint has surplus tensors: {sorted(loaded)}")

    extras: dict[str, str] = {}
    if "circuit" in header:
        for key in _QUANV_KEYS:
            if key not in header:
                raise FileFormatError(f"manifest missing header {key}")
            extras[key] = header[key][0]
        for key in ("quanv.kernel", "quanv.stride", "quanv.rescale"):
            header_int(key)  # extras stay text; a bad field is reported with its line here
        circuit_path = os.path.join(os.path.dirname(prefix) or ".", header["circuit"][0])
        extras["circuit"] = read_text(circuit_path)
    model = AttentionUNet(config, params, stats, dtype=dtype)
    return model, extras
