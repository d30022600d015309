"""Model checkpoints: a short text manifest next to concatenated QVT1
records.

`<prefix>.tensors` holds one QVT1 record per parameter_shapes entry of
the model's config, in that order, so the records need no names or
offsets and their dtype is the model's.  `<prefix>.manifest` holds only
what no other file does:

    quanvseg-checkpoint 2
    in_channels 1
    widths 8,16,32
    upsample transposed
    tensors.bytes <n>
    tensors.crc32 <8 hex digits>

The last two are the size and zlib.crc32 of the `.tensors` file saved
with it.  The files are replaced one at a time, so a save cut short can
leave a new `.tensors` under an old manifest; the size and checksum
catch that pair on load.  A model trained on quanvolved input also has
the four `quanv.*` window settings and `circuit.crc32`, the checksum of
the frozen circuit written to `<prefix>.circuit`, so evaluation and
prediction can rebuild the exact preprocessing; load_checkpoint returns
it as a QuanvConfig.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from .exceptions import ConfigError, FileFormatError, TruncatedFileError
from .fileio import (
    located,
    read_text,
    record_size,
    tensor_from_bytes,
    tensor_to_bytes,
    write_atomic,
)
from .qsim.circuits import parse_circuit, serialize_circuit
from .quanvolution import QuanvConfig
from .unet import AttentionUNet, AttentionUNetConfig, parameter_shapes

MANIFEST_MAGIC = "quanvseg-checkpoint 2"
_QUANV_KEYS = ("quanv.kernel", "quanv.stride", "quanv.padding", "quanv.rescale",
               "circuit.crc32")
_KEYS = ("in_channels", "widths", "upsample", *_QUANV_KEYS, "tensors.bytes", "tensors.crc32")


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
        "widths " + ",".join(str(w) for w in cfg.widths),
        f"upsample {cfg.upsample}",
    ]
    circuit_text = None
    if quanv_config is not None:
        circuit_text = serialize_circuit(quanv_config.circuit)
        lines.append(f"quanv.kernel {quanv_config.kernel_size}")
        lines.append(f"quanv.stride {quanv_config.stride}")
        lines.append(f"quanv.padding {quanv_config.padding}")
        lines.append(f"quanv.rescale {int(quanv_config.rescale)}")
        lines.append(f"circuit.crc32 {zlib.crc32(circuit_text.encode('ascii')):08x}")
    tables = {"param": model.params, "stat": model.stats}
    blob = b"".join(tensor_to_bytes(np.asarray(tables[kind][name], dtype=model.dtype))
                    for kind, name, _ in parameter_shapes(cfg))
    lines.append(f"tensors.bytes {len(blob)}")
    lines.append(f"tensors.crc32 {zlib.crc32(blob):08x}")
    write_atomic(prefix + ".tensors", blob)
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

    quanv_config is None for plain checkpoints; for quanvolved ones it
    is the QuanvConfig of the preprocessing, circuit included.
    """
    prefix = str(prefix)
    manifest = prefix + ".manifest"
    lines = read_text(manifest).split("\n")
    if lines[0] != MANIFEST_MAGIC:
        raise FileFormatError(f"not a {MANIFEST_MAGIC!r} manifest: {manifest}")
    header: dict[str, tuple[str, str]] = {}  # key -> (value, "<file> line <n>")
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        where = f"{manifest} line {lineno}"
        fields = ln.split()
        if len(fields) != 2:
            raise FileFormatError(f"{where}: bad manifest line {ln!r}")
        if fields[0] not in _KEYS:
            raise FileFormatError(f"{where}: unknown header {fields[0]!r}")
        if fields[0] in header:
            raise FileFormatError(f"{where}: repeated header {fields[0]!r}")
        header[fields[0]] = (fields[1], where)

    def header_text(key):
        if key not in header:
            raise FileFormatError(f"{manifest}: missing header {key!r}")
        return header[key]

    def header_int(key):
        return _int(*header_text(key))

    def header_crc(key):
        text, where = header_text(key)
        if not re.fullmatch(r"[0-9a-f]{8}", text):
            raise FileFormatError(f"{where}: expected 8 hex digits, got {text!r}")
        return int(text, 16)

    widths_text, widths_where = header_text("widths")
    try:
        config = AttentionUNetConfig(
            in_channels=header_int("in_channels"),
            widths=tuple(_int(v, widths_where) for v in widths_text.split(",")),
            upsample=header_text("upsample")[0],
        )
    except ConfigError as exc:
        raise FileFormatError(f"{manifest}: {exc}") from None
    n_bytes = header_int("tensors.bytes")
    crc = header_crc("tensors.crc32")

    path = prefix + ".tensors"
    with open(path, "rb") as fh:
        blob = fh.read()
    blob_crc = zlib.crc32(blob)
    mismatch = FileFormatError(
        f"{path}: holds {len(blob)} bytes with crc32 {blob_crc:08x}, but "
        f"the manifest says {n_bytes} bytes with crc32 {crc:08x}; the two "
        "files are not from the same save"
    )
    # A file of the wrong size is reported before its records are read; a
    # record that does not fit the manifest's architecture is reported at
    # its offset before the checksum.
    if len(blob) != n_bytes:
        raise mismatch
    tables: dict[str, dict[str, np.ndarray]] = {"param": {}, "stat": {}}
    records = memoryview(blob)
    offset = 0
    dtype = None
    with located(path):
        for kind, name, shape in parameter_shapes(config):
            if offset == len(blob):
                raise TruncatedFileError(f"no record for {kind} {name}", offset=offset)
            # The parser ignores bytes past the record.
            arr = tensor_from_bytes(records[offset:], offset)
            if arr.shape != shape:
                raise FileFormatError(
                    f"{kind} {name}: the manifest's architecture gives shape "
                    f"{shape}, the record holds {arr.shape}", offset=offset)
            if dtype is None:  # QVT1 holds float32 or float64; the first record sets it
                dtype = arr.dtype
            tables[kind][name] = arr.astype(dtype, copy=False)
            offset += record_size(arr)
        if offset != len(blob):
            raise FileFormatError(f"{len(blob) - offset} bytes after the last record",
                                  offset=offset)
    if blob_crc != crc:
        raise mismatch

    quanv_config = None
    if any(key in header for key in _QUANV_KEYS):
        circuit_crc = header_crc("circuit.crc32")
        circuit_path = prefix + ".circuit"
        text = read_text(circuit_path)
        if zlib.crc32(text.encode("ascii")) != circuit_crc:
            raise FileFormatError(f"{circuit_path}: does not match circuit.crc32 in "
                                  f"{manifest}; it changed after the save")
        with located(circuit_path):
            spec = parse_circuit(text)
        rescale = header_int("quanv.rescale")
        if rescale not in (0, 1):
            raise FileFormatError(
                f"{header['quanv.rescale'][1]}: quanv.rescale must be 0 or 1, got {rescale}")
        try:
            quanv_config = QuanvConfig(
                circuit=spec,
                kernel_size=header_int("quanv.kernel"),
                stride=header_int("quanv.stride"),
                padding=header_text("quanv.padding")[0],
                rescale=bool(rescale),
            )
        except ConfigError as exc:
            # The settings come from the checkpoint file, not from the user.
            raise FileFormatError(f"{manifest}: quanvolution settings: {exc}") from None
    model = AttentionUNet(config, tables["param"], tables["stat"], dtype=dtype)
    return model, quanv_config
