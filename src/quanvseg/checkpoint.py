"""Model checkpoints: a plain-text manifest next to concatenated QVT1
records.

`<prefix>.manifest` holds the architecture header, optional
quanvolution settings, one line per tensor:

    param <name> <dims-comma-separated> <byte-offset>
    stat  <name> <dims> <byte-offset>

and, last, the size and zlib.crc32 of the tensors file it describes:

    tensors.bytes <n>
    tensors.crc32 <8 hex digits>

Offsets point into `<prefix>.tensors`.  The files are replaced one at a
time, so a save cut short can leave a new `.tensors` under an old
manifest; the size and checksum catch that pair on load.  When the model
was trained on quanvoluted input, the frozen circuit is written to
`<prefix>.circuit`, referenced from the manifest with the zlib.crc32 of
its text (`circuit.crc32`), so evaluation and prediction can rebuild the
exact preprocessing; load_checkpoint returns it as a QuanvConfig.
"""

from __future__ import annotations

import os
import re
import zlib

import numpy as np

from .exceptions import ConfigError, FileFormatError
from .fileio import (
    located,
    read_text,
    tensor_from_bytes,
    tensor_to_bytes,
    write_atomic,
)
from .qsim.circuits import parse_circuit, serialize_circuit
from .quanvolution import QuanvConfig
from .unet import AttentionUNet, AttentionUNetConfig, parameter_shapes

MANIFEST_MAGIC = "quanvseg-checkpoint 1"
_QUANV_KEYS = ("quanv.kernel", "quanv.stride", "quanv.padding", "quanv.rescale")


def save_checkpoint(prefix, model: AttentionUNet, quanv_config=None):
    """Write `<prefix>.tensors` (and, with a quanv_config, `.circuit`),
    then `.manifest`.

    Every file is built in memory and replaced atomically, so a save that
    fails before its first write leaves the previous checkpoint loadable,
    and one that fails after it leaves a set that load_checkpoint rejects.
    """
    prefix = str(prefix)
    cfg = model.config
    lines = [
        MANIFEST_MAGIC,
        f"in_channels {cfg.in_channels}",
        f"depth {cfg.depth}",
        "widths " + ",".join(str(w) for w in cfg.widths),
        "gate_widths " + ",".join(str(w) for w in cfg.gate_widths),
        f"upsample {cfg.upsample}",
        f"dtype {model.dtype.name}",
    ]
    circuit_text = None
    if quanv_config is not None:
        circuit_text = serialize_circuit(quanv_config.circuit)
        lines.append(f"quanv.kernel {quanv_config.kernel_size}")
        lines.append(f"quanv.stride {quanv_config.stride}")
        lines.append(f"quanv.padding {quanv_config.padding}")
        lines.append(f"quanv.rescale {int(quanv_config.rescale)}")
        lines.append(f"circuit {os.path.basename(prefix)}.circuit")
        lines.append(f"circuit.crc32 {zlib.crc32(circuit_text.encode('ascii')):08x}")
    blob = bytearray()
    for kind, table in (("param", model.params), ("stat", model.stats)):
        for name, arr in table.items():
            dims = ",".join(str(d) for d in arr.shape)
            lines.append(f"{kind} {name} {dims} {len(blob)}")
            blob += tensor_to_bytes(np.asarray(arr))
    lines.append(f"tensors.bytes {len(blob)}")
    lines.append(f"tensors.crc32 {zlib.crc32(blob):08x}")
    write_atomic(prefix + ".tensors", bytes(blob))
    if circuit_text is not None:
        write_atomic(prefix + ".circuit", circuit_text.encode("ascii"))
    write_atomic(prefix + ".manifest", ("\n".join(lines) + "\n").encode("ascii"))


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(f"{where}: expected an integer, got {text!r}") from None


def load_checkpoint(prefix):
    """Returns (model, quanv_config).

    quanv_config is None for plain checkpoints; for quanvoluted ones it
    is the QuanvConfig of the preprocessing, circuit included.
    """
    prefix = str(prefix)
    manifest = prefix + ".manifest"
    lines = read_text(manifest).split("\n")
    if not lines or lines[0] != MANIFEST_MAGIC:
        raise FileFormatError(f"not a checkpoint manifest: {manifest}")
    header: dict[str, tuple[str, str]] = {}  # key -> (value, "<file> line <n>")
    tensor_lines = []
    tensor_names: set[str] = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        where = f"{manifest} line {lineno}"
        fields = ln.split()
        if fields[0] in ("param", "stat"):
            if len(fields) != 4:
                raise FileFormatError(f"{where}: bad tensor line {ln!r}")
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
            raise FileFormatError(f"{where}: bad manifest line {ln!r}")

    def header_int(key):
        text, where = header[key]
        return _int(text, where)

    def header_ints(key):
        text, where = header[key]
        return tuple(_int(v, where) for v in text.split(","))

    try:
        config = AttentionUNetConfig(
            in_channels=header_int("in_channels"),
            widths=header_ints("widths"),
            upsample=header["upsample"][0],
        )
        # Both follow from widths; the manifest keeps them for its readers.
        for key, derived in (("depth", (config.depth,)), ("gate_widths", config.gate_widths)):
            if header_ints(key) != derived:
                text, where = header[key]
                raise FileFormatError(
                    f"{where}: {key} {text} does not match widths {config.widths}, "
                    f"which give {','.join(str(v) for v in derived)}")
    except KeyError as exc:
        raise FileFormatError(f"{manifest}: missing header {exc}") from None
    except ConfigError as exc:
        raise FileFormatError(f"{manifest}: {exc}") from None
    dtype_text = header.get("dtype", ("float32",))[0]
    try:
        dtype = np.dtype(dtype_text)
    except TypeError:
        raise FileFormatError(f"{manifest}: unknown dtype {dtype_text!r}") from None

    for key in ("tensors.bytes", "tensors.crc32"):
        if key not in header:
            raise FileFormatError(f"{manifest}: missing header {key!r}")
    n_bytes = header_int("tensors.bytes")
    crc_text, where = header["tensors.crc32"]
    if not re.fullmatch(r"[0-9a-f]{8}", crc_text):
        raise FileFormatError(f"{where}: expected 8 hex digits, got {crc_text!r}")

    with open(prefix + ".tensors", "rb") as fh:
        blob = fh.read()
    crc = zlib.crc32(blob)
    mismatch = FileFormatError(
        f"{prefix}.tensors: holds {len(blob)} bytes with crc32 {crc:08x}, but "
        f"the manifest says {n_bytes} bytes with crc32 {crc_text}; the two "
        "files are not from the same save"
    )
    # A file of the wrong size is reported before its records are read; a
    # corrupt record header is reported at its offset before the checksum.
    if len(blob) != n_bytes:
        raise mismatch
    loaded: dict[str, tuple[str, np.ndarray]] = {}
    records = memoryview(blob)
    with located(prefix + ".tensors"):
        for kind, name, shape, offset in tensor_lines:
            # The parser checks the magic first and ignores bytes past the record.
            arr = tensor_from_bytes(records[offset:], offset)
            if arr.shape != shape:
                raise FileFormatError(
                    f"tensor {name}: manifest says {shape}, file holds {arr.shape}",
                    offset=offset,
                )
            loaded[name] = (kind, arr.astype(dtype, copy=False))
    if crc != int(crc_text, 16):
        raise mismatch

    params: dict[str, np.ndarray] = {}
    stats: dict[str, np.ndarray] = {}
    for kind, name, shape in parameter_shapes(config):
        if name not in loaded:
            raise FileFormatError(f"{manifest}: missing tensor {name}")
        stored_kind, arr = loaded.pop(name)
        if stored_kind != kind or arr.shape != shape:
            raise FileFormatError(
                f"{manifest}: tensor {name}: expected {kind} {shape}, "
                f"found {stored_kind} {arr.shape}"
            )
        (params if kind == "param" else stats)[name] = arr
    if loaded:
        raise FileFormatError(f"{manifest}: surplus tensors {sorted(loaded)}")

    quanv_config = None
    if "circuit" in header:
        for key in _QUANV_KEYS + ("circuit.crc32",):
            if key not in header:
                raise FileFormatError(f"{manifest}: missing header {key!r}")
        circuit_path = os.path.join(os.path.dirname(prefix) or ".", header["circuit"][0])
        text = read_text(circuit_path)
        if f"{zlib.crc32(text.encode('ascii')):08x}" != header["circuit.crc32"][0]:
            raise FileFormatError(f"{circuit_path}: does not match circuit.crc32 in "
                                  f"{manifest}; it changed after the save")
        with located(circuit_path):
            spec = parse_circuit(text)
        try:
            quanv_config = QuanvConfig(
                circuit=spec,
                kernel_size=header_int("quanv.kernel"),
                stride=header_int("quanv.stride"),
                padding=header["quanv.padding"][0],
                rescale=bool(header_int("quanv.rescale")),
            )
        except ConfigError as exc:
            # The settings come from the checkpoint file, not from the user.
            raise FileFormatError(f"{manifest}: quanvolution settings: {exc}") from None
    model = AttentionUNet(config, params, stats, dtype=dtype)
    return model, quanv_config
