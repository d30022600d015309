"""End-to-end command-line tests driven through main(argv)."""

import hashlib
import math
import os
import re
import shutil
import zlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from quanvseg.checkpoint import save_checkpoint
from quanvseg.cli import CONFIG_KEYS, build_parser, load_config, main
from quanvseg.fileio import read_pgm, read_tensor, tensor_to_bytes, write_pgm, write_tensor
from quanvseg.qsim.circuits import build_circuit, serialize_circuit
from quanvseg.quanvolution import QuanvConfig
from quanvseg.unet import AttentionUNetConfig, build_model, count_params, parameter_shapes

FAST_MODEL = ["--set", "model.widths=4,8"]
FAST_TRAIN = ["--set", "train.epochs=2", "--set", "train.batch=4"]
SMALL_GRID = ["--set", "data.patch=16", "--set", "data.stride=16"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scene, mask, and patch directory shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cliwork")
    scene = str(root / "scene.pgm")
    mask = str(root / "mask.pgm")
    patches = str(root / "patches")
    assert main(["synth-data", "--height", "64", "--width", "64",
                 "--rects", "6", "--seed", "3",
                 "--scene-out", scene, "--mask-out", mask]) == 0
    assert main(["make-patches", "--scene", scene, "--mask", mask,
                 "--outdir", patches] + SMALL_GRID) == 0
    return {"root": root, "scene": scene, "mask": mask, "patches": patches}


# ---------------------------------------------------------------------
# Config handling


def _as_text(value):
    """A config value as a config file would spell it."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_defaults_cover_every_key():
    cfg = load_config()
    assert cfg.keys() == CONFIG_KEYS.keys()
    assert len(cfg) == 19
    # every default passes its own key's parser and bound
    for key, (default, parse) in CONFIG_KEYS.items():
        assert parse(key, _as_text(default)) == cfg[key] == default
    assert cfg["circuit.qubits"] == 9
    assert cfg["circuit.layers"] == 2
    assert cfg["quanv.kernel"] == 3


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "train.epochs = 7\n"
        "model.widths = 4,8,16  # inline comment\n"
        "\n"
        "quanv.rescale = false\n"
    )
    cfg = load_config(str(path), overrides=["train.epochs=2"])
    assert cfg["train.epochs"] == 2  # --set wins over the file
    assert cfg["model.widths"] == (4, 8, 16)
    assert cfg["quanv.rescale"] is False


def test_config_rejects_unknown_and_malformed(tmp_path):
    from quanvseg.exceptions import ConfigError

    with pytest.raises(ConfigError):
        load_config(overrides=["no.such.key=1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["train.epochs"])
    with pytest.raises(ConfigError):
        load_config(overrides=["train.epochs=three"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("line, message", [
    ("data.s4ri6e = 16", "unknown config key 'data.s4ri6e'"),
    ("data.stride = =16", "data.stride must be an integer, got '=16'"),
    ("quanv.padding = wrap", "quanv.padding must be one of"),
    ("train.lr = 0", "train.lr must be a finite number > 0, got 0.0"),
])
def test_config_file_errors_name_their_line_and_exit_2(tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"model.widths = 4,8\n# comment\n{line}\n")
    assert main(["param-count", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:3: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override, message", [
    ("bogus.key=1", "unknown config key 'bogus.key'"),
    ("model.widths=8", "model.widths must be at least 2 entries, all >= 1, got (8,)"),
])
def test_set_errors_name_the_flag_and_exit_2(tmp_path, capsys, override, message):
    config = tmp_path / "run.cfg"
    config.write_text("model.widths = 4,8\n")
    assert main(["param-count", "--config", str(config), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --set: ") and message in err


def test_unknown_config_key_exits_2(workdir, capsys):
    code = main(["make-patches", "--scene", workdir["scene"],
                 "--mask", workdir["mask"], "--outdir",
                 str(workdir["root"] / "unused"), "--set", "bogus.key=1"])
    assert code == 2
    assert "bogus.key" in capsys.readouterr().err


# case id -> (subcommand, flags, the key or flag the error must name)
BAD_VALUE_RUNS = {
    "circuit.qubits=0": ("quanvolve", ["--set", "circuit.qubits=0"], "circuit.qubits"),
    "circuit.layers=0": ("quanvolve", ["--set", "circuit.layers=0"], "circuit.layers"),
    "circuit.seed=-1": ("quanvolve", ["--set", "circuit.seed=-1"], "circuit.seed"),
    "circuit.seed=2**64": ("quanvolve", ["--set", f"circuit.seed={2**64}"], "circuit.seed"),
    "quanv.kernel=4": ("quanvolve", ["--set", "circuit.qubits=16", "--set", "quanv.kernel=4"],
                       "quanv.kernel"),
    "train.batch=0": ("train", ["--set", "train.batch=0"], "train.batch"),
    "train.epochs=0": ("train", ["--set", "train.epochs=0"], "train.epochs"),
    "train.epochs=-1": ("train", ["--set", "train.epochs=-1"], "train.epochs"),
    "train.lr=-1": ("train", ["--set", "train.lr=-1"], "train.lr"),
    "train.lr=nan": ("train", ["--set", "train.lr=nan"], "train.lr"),
    "train.seed=-1": ("train", ["--set", "train.seed=-1"], "train.seed"),
    "synth-data--looks=nan": ("synth-data", ["--looks", "nan"], "--looks"),
    "synth-data--seed=-1": ("synth-data", ["--seed", "-1"], "--seed"),
    "gradcheck--seed=-1": ("gradcheck", ["--seed", "-1"], "--seed"),
    # each bound is valid alone; the window they make is inverted
    "norm.lo_db=10": ("make-patches", ["--normalize-db", "--set", "norm.lo_db=10"],
                      "norm.lo_db"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUE_RUNS))
def test_out_of_range_value_exits_2(workdir, tmp_path, capsys, case):
    command, flags, key = BAD_VALUE_RUNS[case]
    base = {
        "quanvolve": ["--input", workdir["scene"], "--output", str(tmp_path / "o.qvt1")],
        "train": ["--patches", workdir["patches"],
                  "--checkpoint-out", str(tmp_path / "ck")] + FAST_MODEL,
        "synth-data": ["--scene-out", str(tmp_path / "s.pgm"),
                       "--mask-out", str(tmp_path / "m.pgm")],
        "make-patches": ["--scene", workdir["scene"], "--mask", workdir["mask"],
                         "--outdir", str(tmp_path / "p")],
        "gradcheck": [],
    }[command]
    assert main([command] + base + flags) == 2
    err = capsys.readouterr().err
    # A config value names where it came from; a flag's error names the flag.
    where = "--set: " if flags[0] == "--set" else ""
    assert err.startswith(f"error: {where}{key} must be ")
    assert "Traceback" not in err
    assert not os.listdir(tmp_path)


def test_parser_is_reused_without_leaking_set_values(monkeypatch, capsys):
    from quanvseg import cli

    assert build_parser() is build_parser()
    assert main(["param-count"] + FAST_MODEL) == 0
    small = capsys.readouterr().out
    assert main(["param-count"]) == 0
    default = capsys.readouterr().out
    assert main(["param-count"] + FAST_MODEL) == 0
    again = capsys.readouterr().out
    expected = count_params(AttentionUNetConfig(widths=(8, 16, 32)))
    assert default.split()[0] == str(expected)
    assert small == again != default
    # Subcommands are looked up per call, so a replaced one still runs.
    monkeypatch.setattr(cli, "cmd_param_count", lambda args: 7)
    assert main(["param-count"]) == 7


# ---------------------------------------------------------------------
# synth-data and make-patches


def test_synth_data_outputs(workdir):
    scene, maxval_scene = read_pgm(workdir["scene"])
    mask, maxval_mask = read_pgm(workdir["mask"])
    assert maxval_scene == 65535 and maxval_mask == 255
    assert scene.shape == mask.shape == (64, 64)
    assert set(np.unique(mask)) == {0.0, 1.0}


def test_make_patches_layout(workdir):
    names = sorted(os.listdir(workdir["patches"]))
    assert names == ["images.qvt1", "index.txt", "masks.qvt1"]
    # 4x4 grid of 16-pixel patches, default test fraction 0.2 -> 4 test
    index = [ln.split() for ln in
             Path(workdir["patches"], "index.txt").read_text().splitlines()]
    labels = [fields[1] for fields in index]
    assert len(index) == 16
    assert labels.count("test") == 4 and labels.count("train") == 12
    for name in ("images.qvt1", "masks.qvt1"):
        assert read_tensor(os.path.join(workdir["patches"], name)).shape == (16, 16, 16)


def test_synth_data_degenerate_size_exits_1(tmp_path, capsys):
    code = main(["synth-data", "--height", "8", "--width", "64",
                 "--scene-out", str(tmp_path / "s.pgm"),
                 "--mask-out", str(tmp_path / "m.pgm")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------
# quanvolve


def test_quanvolve_default_shape(workdir, capsys):
    out = str(workdir["root"] / "stack.qvt1")
    code = main(["quanvolve", "--input", workdir["scene"], "--output", out])
    assert code == 0
    stack = read_tensor(out)
    assert stack.shape == (9, 64, 64)
    printed = capsys.readouterr().out
    assert printed == f"{out}: 9x64x64 feature stack\n"


def test_quanvolve_circuit_reuse_is_bit_identical(workdir):
    root = workdir["root"]
    first = str(root / "reuse1.qvt1")
    second = str(root / "reuse2.qvt1")
    circuit = str(root / "frozen.circuit")
    fast = ["--set", "circuit.qubits=4", "--set", "circuit.layers=1",
            "--set", "quanv.kernel=2"]
    assert main(["quanvolve", "--input", workdir["scene"], "--output", first,
                 "--circuit-out", circuit] + fast) == 0
    assert main(["quanvolve", "--input", workdir["scene"], "--output", second,
                 "--circuit-in", circuit, "--set", "quanv.kernel=2"]) == 0
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()


def test_quanvolve_missing_input_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nothere.pgm")
    code = main(["quanvolve", "--input", missing,
                 "--output", str(tmp_path / "o.qvt1")])
    assert code == 2
    assert f"no such file: {missing}" in capsys.readouterr().err


def test_quanvolve_bad_padding_exits_2(workdir, capsys):
    code = main(["quanvolve", "--input", workdir["scene"],
                 "--output", str(workdir["root"] / "x.qvt1"),
                 "--set", "quanv.padding=wrap"])
    assert code == 2
    assert "quanv.padding" in capsys.readouterr().err


# ---------------------------------------------------------------------
# train / eval / predict


@pytest.fixture(scope="module")
def trained(workdir):
    prefix = str(workdir["root"] / "model")
    log = str(workdir["root"] / "train.log")
    code = main(["train", "--patches", workdir["patches"],
                 "--checkpoint-out", prefix, "--log-out", log]
                + FAST_MODEL + FAST_TRAIN)
    assert code == 0
    return {"prefix": prefix, "log": log}


def test_train_writes_checkpoint_and_log(trained, workdir):
    assert os.path.exists(trained["prefix"] + ".manifest")
    assert os.path.exists(trained["prefix"] + ".tensors")
    lines = Path(trained["log"]).read_text().splitlines()
    assert lines[0] == "epoch\tloss\ttrain_oa"
    assert len(lines) == 3  # header + two epochs
    for line in lines[1:]:
        epoch, loss, oa = line.split("\t")
        assert float(loss) > 0.0 and 0.0 <= float(oa) <= 1.0


def test_train_prints_param_count(workdir, capsys):
    prefix = str(workdir["root"] / "model2")
    assert main(["train", "--patches", workdir["patches"],
                 "--checkpoint-out", prefix, "--set", "train.epochs=1"]
                + FAST_MODEL) == 0
    out = capsys.readouterr().out
    match = re.search(r"checkpoint: .*\.manifest \((\d+) trainable parameters\)", out)
    assert match
    cfg = AttentionUNetConfig(widths=(4, 8))
    assert int(match.group(1)) == build_model(cfg).n_params()


def test_train_is_reproducible(workdir):
    prefixes = [str(workdir["root"] / f"repro{i}") for i in (1, 2)]
    for prefix in prefixes:
        assert main(["train", "--patches", workdir["patches"],
                     "--checkpoint-out", prefix]
                    + FAST_MODEL + FAST_TRAIN) == 0
    with open(prefixes[0] + ".tensors", "rb") as a, \
            open(prefixes[1] + ".tensors", "rb") as b:
        assert a.read() == b.read()


def test_train_creates_missing_output_dirs(workdir):
    root = workdir["root"]
    prefix = str(root / "nested" / "ckpt" / "model")
    log = str(root / "nested" / "logs" / "train.log")
    assert main(["train", "--patches", workdir["patches"],
                 "--checkpoint-out", prefix, "--log-out", log]
                + FAST_MODEL + FAST_TRAIN) == 0
    assert os.path.exists(prefix + ".manifest")
    assert os.path.exists(log)


def test_eval_final_line_format(trained, workdir, capsys):
    code = main(["eval", "--patches", workdir["patches"],
                 "--checkpoint", trained["prefix"], "--split", "test"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "patch\toa\tiou"
    assert len(out) == 6  # header + 4 test patches + final line
    assert re.fullmatch(r"OA=\d\.\d{6} IoU=\d\.\d{6}", out[-1])


def test_eval_split_selection(trained, workdir, capsys):
    assert main(["eval", "--patches", workdir["patches"],
                 "--checkpoint", trained["prefix"], "--split", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 18  # header + 16 patches + final line


def test_eval_missing_checkpoint_exits_2(workdir, capsys):
    code = main(["eval", "--patches", workdir["patches"],
                 "--checkpoint", str(workdir["root"] / "ghost")])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_eval_perfect_fixture_reports_unit_oa(tmp_path, capsys):
    # all-background patches against a model biased hard negative:
    # predictions equal ground truth everywhere, so OA must print 1.0
    scene = str(tmp_path / "s.pgm")
    mask = str(tmp_path / "m.pgm")
    patches = str(tmp_path / "patches")
    assert main(["synth-data", "--height", "32", "--width", "32",
                 "--rects", "0", "--scene-out", scene, "--mask-out", mask]) == 0
    assert main(["make-patches", "--scene", scene, "--mask", mask,
                 "--outdir", patches] + SMALL_GRID) == 0
    model = build_model(AttentionUNetConfig(widths=(4, 8)), seed=0)
    model.params["head.w"][...] = 0.0
    model.params["head.b"][...] = -50.0
    save_checkpoint(str(tmp_path / "perfect"), model)
    assert main(["eval", "--patches", patches,
                 "--checkpoint", str(tmp_path / "perfect"),
                 "--split", "all"]) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    assert final == "OA=1.000000 IoU=1.000000"


def test_predict_writes_one_pgm_per_patch(trained, workdir):
    outdir = str(workdir["root"] / "preds")
    assert main(["predict", "--patches", workdir["patches"],
                 "--checkpoint", trained["prefix"], "--split", "test",
                 "--outdir", outdir]) == 0
    files = sorted(os.listdir(outdir))
    assert len(files) == 4
    assert all(re.fullmatch(r"pred_r\d+_c\d+\.pgm", f) for f in files)
    values, maxval = read_pgm(os.path.join(outdir, files[0]))
    assert maxval == 255
    assert set(np.unique(values)) <= {0.0, 1.0}


def test_predict_masks_are_pinned(trained, workdir, tmp_path):
    """sha256 over (name, bytes) of every PGM a seeded predict writes.

    Recorded while eval forwards still recorded a full tape; the masks
    hold 2166 foreground pixels of 4096, so they pin the inference bits.
    """
    outdir = tmp_path / "preds"
    assert main(["predict", "--patches", workdir["patches"],
                 "--checkpoint", trained["prefix"], "--split", "all",
                 "--outdir", str(outdir)]) == 0
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == \
        "753ed1f15c66d24493463ae3d91e7cf3e12fd1e93e13c8aefd51508dcb4776c8"


# ---------------------------------------------------------------------
# Malformed patch index and checkpoint manifest: exit 1, no traceback


@pytest.mark.parametrize("bad_line", ["p00000 train x 0", "p00000 test 0 1.5"])
def test_index_non_integer_position_exits_1(workdir, tmp_path, capsys, bad_line):
    patches = tmp_path / "patches"
    shutil.copytree(workdir["patches"], patches)
    lines = (patches / "index.txt").read_text().splitlines()
    lines[2] = bad_line
    (patches / "index.txt").write_text("\n".join(lines) + "\n")
    code = main(["train", "--patches", str(patches),
                 "--checkpoint-out", str(tmp_path / "model")] + FAST_MODEL + FAST_TRAIN)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "index.txt line 3" in err


def test_predict_on_repeated_origin_exits_1(trained, workdir, tmp_path, capsys):
    # Two patches at one origin would write one output file twice.
    patches = tmp_path / "patches"
    shutil.copytree(workdir["patches"], patches)
    lines = (patches / "index.txt").read_text().splitlines()
    lines[2] = " ".join(lines[2].split()[:2] + lines[0].split()[2:])
    (patches / "index.txt").write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "preds"
    code = main(["predict", "--patches", str(patches), "--checkpoint", trained["prefix"],
                 "--split", "all", "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "index.txt line 3" in err
    assert not outdir.exists()


# (file, edit of the stacked array, header offset the error names)
STACK_DEFECTS = {
    "images-short": ("images.qvt1", lambda a: a[1:], 6),
    "masks-long": ("masks.qvt1", lambda a: np.concatenate([a, a[:1]]), 6),
    "masks-4d": ("masks.qvt1", lambda a: a[:, None], 5),
    "images-width": ("images.qvt1", lambda a: a[..., 1:], 5),
}


@pytest.mark.parametrize("defect", sorted(STACK_DEFECTS))
def test_patch_stack_mismatch_exits_1(workdir, tmp_path, capsys, defect):
    from quanvseg.fileio import write_tensor

    name, edit, at = STACK_DEFECTS[defect]
    patches = tmp_path / "patches"
    shutil.copytree(workdir["patches"], patches)
    write_tensor(patches / name, edit(read_tensor(patches / name)))
    code = main(["train", "--patches", str(patches),
                 "--checkpoint-out", str(tmp_path / "model")] + FAST_MODEL + FAST_TRAIN)
    assert_located_error(capsys, code, 1, patches / name, at)


MANIFEST_DEFECTS = {
    "format-1": (r"^quanvseg-checkpoint 2$", "quanvseg-checkpoint 1",
                 "not a 'quanvseg-checkpoint 2' manifest"),
    "in_channels": (r"^in_channels 1$", "in_channels 1.5", "line 2"),
    "widths": (r"^widths 4,8$", "widths 4,x", "line 3"),
    "widths-invalid": (r"^widths 4,8$", "widths 4", "widths needs at least 2 entries"),
    "upsample": (r"^upsample \S+$", "upsample bilinear", "upsample must be one of"),
    # Format 1's derived headers: the dtype comes from the records, depth
    # and gate widths from widths, so none of them may come back.
    "dtype": (r"^(upsample \S+)$", r"\1\ndtype float16", "line 5: unknown header 'dtype'"),
    "depth": (r"^(widths 4,8)$", r"\1\ndepth 2", "line 4: unknown header 'depth'"),
    "gate_widths": (r"^(widths 4,8)$", r"\1\ngate_widths 2",
                    "line 4: unknown header 'gate_widths'"),
    "repeated-header": (r"^(in_channels 1)$", r"\1\n\1", "line 3: repeated header 'in_channels'"),
    "tensors-bytes": (r"^tensors\.bytes \d+$", "tensors.bytes many", "expected an integer"),
    "tensors-crc32": (r"^tensors\.crc32 [0-9a-f]{8}$", "tensors.crc32 1234567g",
                      "expected 8 hex digits"),
    "no-tensors-bytes": (r"^tensors\.bytes \d+\n", "", "missing header 'tensors.bytes'"),
    "no-tensors-crc32": (r"^tensors\.crc32 \w+\n", "", "missing header 'tensors.crc32'"),
    "no-upsample": (r"^upsample \S+\n", "", "missing header 'upsample'"),
    "bad-line": (r"^(in_channels 1)$", r"\1 3", "line 2: bad manifest line"),
}


@pytest.mark.parametrize("defect", sorted(MANIFEST_DEFECTS))
def test_malformed_manifest_exits_1(workdir, tmp_path, capsys, defect):
    pattern, replacement, message = MANIFEST_DEFECTS[defect]
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, build_model(AttentionUNetConfig(widths=(4, 8))))
    text = Path(prefix + ".manifest").read_text()
    broken, count = re.subn(pattern, replacement, text, count=1, flags=re.M)
    assert count == 1
    with open(prefix + ".manifest", "w") as fh:
        fh.write(broken)
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert f"{prefix}.manifest" in err


def test_record_header_cut_short_exits_1(workdir, tmp_path, capsys):
    # The last record's header says ndim 3 and only 2 bytes follow it; the
    # parser must reject the short extent list there, not read past the end.
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, build_model(AttentionUNetConfig(widths=(4, 8))))
    data = Path(prefix + ".tensors").read_bytes()
    at = data.rindex(b"QVT1")
    rewrite_tensors(prefix, data[:at] + b"QVT1" + bytes([1, 3, 0, 0]))
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert_located_error(capsys, code, 1, prefix + ".tensors", at + 6)


def rewrite_tensors(prefix, data):
    """Replace .tensors and update the manifest's size and checksum to match."""
    Path(prefix + ".tensors").write_bytes(data)
    manifest = Path(prefix + ".manifest")
    text = re.sub(r"^tensors\.bytes \d+$", f"tensors.bytes {len(data)}",
                  manifest.read_text(), flags=re.M)
    text = re.sub(r"^tensors\.crc32 \w+$", f"tensors.crc32 {zlib.crc32(data):08x}",
                  text, flags=re.M)
    manifest.write_text(text)


def record_offsets(config):
    """Offset of each tensor's float32 record in a saved model's .tensors."""
    offsets, at = {}, 0
    for _, name, shape in parameter_shapes(config):
        offsets[name] = at
        at += 6 + 4 * len(shape) + 4 * math.prod(shape)
    return offsets, at


# Edits that leave a widths (4, 8) checkpoint's size and checksum intact
# but its records off parameter_shapes: (its widths line, bytes appended to
# .tensors or None to cut head.b's record off, message, the record whose
# offset the error names).
RECORD_DEFECTS = {
    "shape": ("widths 4,6", b"",
              "param bottleneck.conv1.w: the manifest's architecture gives shape "
              "(6, 4, 3, 3), the record holds (8, 4, 3, 3)", "bottleneck.conv1.w"),
    "extra-record": ("widths 4,8", tensor_to_bytes(np.zeros(3, np.float32)),
                     "22 bytes after the last record", "end"),
    "missing-record": ("widths 4,8", None, "no record for param head.b", "head.b"),
}


@pytest.mark.parametrize("defect", sorted(RECORD_DEFECTS))
def test_records_off_parameter_shapes_exit_1(workdir, tmp_path, capsys, defect):
    """Records are read in parameter_shapes order; one that does not fit,
    a missing one or bytes past the last are reported at their .tensors
    offset."""
    widths_line, tail, message, name = RECORD_DEFECTS[defect]
    config = AttentionUNetConfig(widths=(4, 8))
    offsets, end = record_offsets(config)
    offsets["end"] = end
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, build_model(config))
    data = Path(prefix + ".tensors").read_bytes()
    assert len(data) == end
    manifest = Path(prefix + ".manifest")
    manifest.write_text(manifest.read_text().replace("widths 4,8", widths_line))
    rewrite_tensors(prefix, data[:offsets["head.b"]] if tail is None else data + tail)
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err == f"error: {prefix}.tensors: offset {offsets[name]}: {message}\n", err


def quanv_checkpoint(prefix, seed=0):
    spec = build_circuit("basic_entangled", 4, 1, seed=2)
    qcfg = QuanvConfig(circuit=spec, kernel_size=2, stride=1,
                       padding="same-reflect", rescale=True)
    model = build_model(AttentionUNetConfig(widths=(4, 8), in_channels=4), seed=seed)
    save_checkpoint(prefix, model, quanv_config=qcfg)


@pytest.mark.parametrize("line, message", [("quanv.kernel two", "line 5"),
                                           ("quanv.kernel 0", "kernel_size must be >= 1"),
                                           ("quanv.kernel 4", "kernel_size must be in [1, 3]"),
                                           ("", "missing header 'quanv.kernel'"),
                                           ("quanv.rescale 7", "line 8: quanv.rescale must "
                                                               "be 0 or 1, got 7")])
def test_malformed_quanv_settings_exit_1(workdir, tmp_path, capsys, line, message):
    """line replaces the manifest line of the same key, or quanv.kernel's."""
    prefix = str(tmp_path / "qckpt")
    quanv_checkpoint(prefix)
    text = Path(prefix + ".manifest").read_text()
    assert "\nquanv.kernel 2\n" in text and "\nquanv.rescale 1\n" in text
    key = line.split()[0] if line else "quanv.kernel"
    broken, count = re.subn(rf"^{re.escape(key)} .*$", line, text, flags=re.M)
    assert count == 1
    with open(prefix + ".manifest", "w") as fh:
        fh.write(broken)
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert f"{prefix}.manifest" in err


# ---------------------------------------------------------------------
# Non-ASCII bytes in a text input: a located error, never a traceback


def insert_non_ascii(path):
    """Put a UTF-8 'ä' at the start of the file's second line; returns its offset."""
    data = Path(path).read_bytes()
    at = data.index(b"\n") + 1
    Path(path).write_bytes(data[:at] + "ä".encode() + data[at:])
    return at


def assert_located_error(capsys, code, expected_code, path, at):
    assert code == expected_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"offset {at}" in err and str(path) in err


def test_non_ascii_index_exits_1(workdir, tmp_path, capsys):
    patches = tmp_path / "patches"
    shutil.copytree(workdir["patches"], patches)
    at = insert_non_ascii(patches / "index.txt")
    code = main(["train", "--patches", str(patches),
                 "--checkpoint-out", str(tmp_path / "model")] + FAST_MODEL + FAST_TRAIN)
    assert_located_error(capsys, code, 1, patches / "index.txt", at)


def test_non_ascii_manifest_exits_1(workdir, tmp_path, capsys):
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, build_model(AttentionUNetConfig(widths=(4, 8))))
    at = insert_non_ascii(prefix + ".manifest")
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert_located_error(capsys, code, 1, prefix + ".manifest", at)


def test_non_ascii_checkpoint_circuit_exits_1(workdir, tmp_path, capsys):
    prefix = str(tmp_path / "qckpt")
    quanv_checkpoint(prefix)
    at = insert_non_ascii(prefix + ".circuit")
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert_located_error(capsys, code, 1, prefix + ".circuit", at)


def test_non_ascii_circuit_in_exits_1(workdir, tmp_path, capsys):
    circuit = tmp_path / "frozen.circuit"
    circuit.write_text(serialize_circuit(build_circuit("basic_entangled", 4, 1, seed=2)))
    at = insert_non_ascii(circuit)
    code = main(["quanvolve", "--input", workdir["scene"],
                 "--output", str(tmp_path / "o.qvt1"), "--circuit-in", str(circuit)])
    assert_located_error(capsys, code, 1, circuit, at)


# (line to replace in a 4-qubit circuit file, its line number, message)
BAD_CIRCUIT_LINES = {
    "qubits-40": ("qubits 4", "qubits 40", 1, "header 'qubits' must be in [1, 16]"),
    "qubits-x": ("qubits 4", "qubits x", 1, "header 'qubits' needs an integer"),
    "layers-1.5": ("layers 1", "layers 1.5", 3, "header 'layers' needs an integer"),
    "seed-two": ("seed 2", "seed two", 4, "header 'seed' needs an integer"),
    "gate-on-qubit-4": ("RY 3 ", "RY 4 ", 8, "RY gate exceeds 4 qubits"),
}


@pytest.mark.parametrize("case", sorted(BAD_CIRCUIT_LINES))
def test_bad_circuit_in_line_exits_1(workdir, tmp_path, capsys, case):
    """A fault in a --circuit-in file is a data error at its line, never a usage error."""
    old, new, line, message = BAD_CIRCUIT_LINES[case]
    circuit = tmp_path / "frozen.circuit"
    text = serialize_circuit(build_circuit("basic_entangled", 4, 1, seed=2))
    assert text.splitlines()[line - 1].startswith(old)
    circuit.write_text(text.replace(old, new, 1))
    code = main(["quanvolve", "--input", workdir["scene"],
                 "--output", str(tmp_path / "o.qvt1"), "--circuit-in", str(circuit),
                 "--set", "quanv.kernel=2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {circuit}: line {line}: {message}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("fix_crc", [False, True], ids=["as-edited", "crc-updated"])
def test_edited_checkpoint_circuit_exits_1(workdir, tmp_path, capsys, fix_crc):
    """An edited `.circuit` fails its manifest checksum; with the checksum
    updated too, its bad line is reported in the file."""
    prefix = str(tmp_path / "qckpt")
    quanv_checkpoint(prefix)
    circuit = Path(prefix + ".circuit")
    text = circuit.read_text()
    assert text.startswith("qubits 4\n")
    edited = text.replace("qubits 4", "qubits x", 1)
    circuit.write_text(edited)
    if fix_crc:
        manifest = Path(prefix + ".manifest")
        old_crc = f"circuit.crc32 {zlib.crc32(text.encode()):08x}"
        assert old_crc in manifest.read_text()
        manifest.write_text(manifest.read_text().replace(
            old_crc, f"circuit.crc32 {zlib.crc32(edited.encode()):08x}"))
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert code == 1
    err = capsys.readouterr().err
    want = "line 1: header 'qubits' needs an integer" if fix_crc else "crc32"
    assert err.startswith(f"error: {circuit}: ") and want in err, err
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# Malformed binary inputs: the error names the file


def corrupt_magic(path, magic):
    data = Path(path).read_bytes()
    Path(path).write_bytes(magic + data[len(magic):])


def test_bad_patch_stack_names_file_exits_1(workdir, tmp_path, capsys):
    patches = tmp_path / "patches"
    shutil.copytree(workdir["patches"], patches)
    corrupt_magic(patches / "images.qvt1", b"QVX1")
    code = main(["train", "--patches", str(patches),
                 "--checkpoint-out", str(tmp_path / "model")] + FAST_MODEL + FAST_TRAIN)
    assert_located_error(capsys, code, 1, patches / "images.qvt1", 0)


@pytest.mark.parametrize("suffix, magic", [(".pgm", b"P6"), (".qvt1", b"QVX1")])
def test_bad_quanvolve_input_names_file_exits_1(workdir, tmp_path, capsys, suffix, magic):
    raster = tmp_path / f"scene{suffix}"
    if suffix == ".pgm":
        shutil.copy(workdir["scene"], raster)
    else:
        write_tensor(raster, np.full((8, 8), 0.5))
    corrupt_magic(raster, magic)
    code = main(["quanvolve", "--input", str(raster), "--output", str(tmp_path / "o.qvt1")])
    assert_located_error(capsys, code, 1, raster, 0)


def test_bad_checkpoint_tensors_names_file_exits_1(workdir, tmp_path, capsys):
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, build_model(AttentionUNetConfig(widths=(4, 8))))
    corrupt_magic(prefix + ".tensors", b"QVX1")
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert_located_error(capsys, code, 1, prefix + ".tensors", 0)


# ---------------------------------------------------------------------
# Checkpoint files that are not one save's set: exit 1 naming .tensors


def assert_not_one_set(capsys, code, prefix):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{prefix}.tensors: holds" in err and "not from the same save" in err


def test_save_cut_after_tensors_replace_exits_1(workdir, tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "qckpt")
    quanv_checkpoint(prefix, seed=1)
    old_size = os.path.getsize(prefix + ".tensors")
    replace = os.replace
    targets = []

    def cut_on_second_call(src, dst):
        targets.append(dst)
        if len(targets) == 2:
            raise OSError("power cut")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", cut_on_second_call)
    with pytest.raises(OSError, match="power cut"):
        quanv_checkpoint(prefix, seed=2)
    monkeypatch.undo()
    # New weights of the same layout now sit under the old circuit and manifest.
    assert targets == [prefix + ".tensors", prefix + ".circuit"]
    assert os.path.getsize(prefix + ".tensors") == old_size
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert_not_one_set(capsys, code, prefix)


@pytest.mark.parametrize("edit", ["truncate", "flip-last-byte"])
def test_tensors_not_matching_manifest_exit_1(workdir, tmp_path, capsys, edit):
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(prefix, build_model(AttentionUNetConfig(widths=(4, 8))))
    data = Path(prefix + ".tensors").read_bytes()
    if edit == "truncate":
        data = data[:-1]
    else:
        data = data[:-1] + bytes([data[-1] ^ 1])
    Path(prefix + ".tensors").write_bytes(data)
    code = main(["eval", "--patches", workdir["patches"], "--checkpoint", prefix])
    assert_not_one_set(capsys, code, prefix)


def test_non_ascii_config_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model.widths = 4,8\ntrain.epochs = 2\n")
    at = insert_non_ascii(config)
    code = main(["param-count", "--config", str(config)])
    assert_located_error(capsys, code, 2, config, at)


# ---------------------------------------------------------------------
# quanvolved training path


def test_train_quanvolve_round_trip(workdir, capsys):
    prefix = str(workdir["root"] / "qmodel")
    fast_circuit = ["--set", "circuit.qubits=4", "--set", "circuit.layers=1",
                    "--set", "quanv.kernel=2"]
    code = main(["train", "--patches", workdir["patches"],
                 "--checkpoint-out", prefix, "--quanvolve"]
                + FAST_MODEL + FAST_TRAIN + fast_circuit)
    assert code == 0
    capsys.readouterr()
    manifest = Path(prefix + ".manifest").read_text()
    assert "in_channels 4" in manifest
    assert "quanv.kernel 2" in manifest
    assert os.path.exists(prefix + ".circuit")
    # eval re-runs the preprocessing from the stored circuit
    assert main(["eval", "--patches", workdir["patches"],
                 "--checkpoint", prefix]) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"OA=\d\.\d{6} IoU=\d\.\d{6}", final)


def test_train_quanvolve_channel_conflict_exits_2(workdir, capsys):
    code = main(["train", "--patches", workdir["patches"],
                 "--checkpoint-out", str(workdir["root"] / "clash"),
                 "--quanvolve", "--set", "model.in_channels=5",
                 "--set", "circuit.qubits=4", "--set", "quanv.kernel=2"]
                + FAST_MODEL)
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


# ---------------------------------------------------------------------
# param-count and gradcheck


def test_param_count_reference_formats(capsys):
    assert main(["param-count", "--reference", "baseline"]) == 0
    baseline_out = capsys.readouterr().out.strip()
    match = re.fullmatch(r"(\d+) \((\d+\.\d)M\)", baseline_out)
    assert match
    n = int(match.group(1))
    assert abs(n - 34.8e6) / 34.8e6 <= 0.05
    assert match.group(2) == f"{n / 1e6:.1f}"

    assert main(["param-count", "--reference", "quantum"]) == 0
    quantum_out = capsys.readouterr().out.strip()
    q = int(quantum_out.split()[0])
    assert q / n <= 0.07


def test_param_count_from_config(capsys):
    assert main(["param-count"] + FAST_MODEL) == 0
    out = capsys.readouterr().out.strip()
    expected = build_model(AttentionUNetConfig(widths=(4, 8))).n_params()
    assert out == f"{expected} ({expected / 1e6:.1f}M)"


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "checks passed" in out
    assert "[ok]" in out and "FAIL" not in out


# ---------------------------------------------------------------------
# raster input handling


def test_quanvolve_accepts_qvt1_input(tmp_path):
    from quanvseg.fileio import write_tensor

    raster = np.random.default_rng(0).uniform(size=(16, 16))
    path = str(tmp_path / "r.qvt1")
    write_tensor(path, raster.astype(np.float64))
    out = str(tmp_path / "o.qvt1")
    assert main(["quanvolve", "--input", path, "--output", out,
                 "--set", "circuit.qubits=4", "--set", "circuit.layers=1",
                 "--set", "quanv.kernel=2"]) == 0
    assert read_tensor(out).shape == (4, 16, 16)


@pytest.mark.parametrize("extents", [b"-3 4", b"0 0", b"-2 -2"])
def test_quanvolve_non_positive_pgm_extent_exits_1(tmp_path, capsys, extents):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + extents + b"\n255\n" + bytes(16))
    code = main(["quanvolve", "--input", str(path),
                 "--output", str(tmp_path / "o.qvt1")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >= 1" in err
    assert "Traceback" not in err


def test_quanvolve_rejects_3d_tensor_input(tmp_path, capsys):
    from quanvseg.fileio import write_tensor

    path = str(tmp_path / "r.qvt1")
    write_tensor(path, np.zeros((2, 8, 8), dtype=np.float64))
    code = main(["quanvolve", "--input", path,
                 "--output", str(tmp_path / "o.qvt1")])
    assert code == 1
    assert "2-D raster" in capsys.readouterr().err


def test_make_patches_normalize_db(tmp_path, capsys):
    # a dB-valued scene written as QVT1 (PGM cannot hold negatives)
    from quanvseg.fileio import write_tensor

    rng = np.random.default_rng(1)
    scene_db = rng.uniform(-30.0, 10.0, size=(32, 32))
    scene_path = str(tmp_path / "scene.qvt1")
    write_tensor(scene_path, scene_db)
    mask_path = str(tmp_path / "mask.pgm")
    write_pgm(mask_path, np.zeros((32, 32)), maxval=255)
    outdir = str(tmp_path / "patches")
    assert main(["make-patches", "--scene", scene_path, "--mask", mask_path,
                 "--outdir", outdir, "--normalize-db"] + SMALL_GRID) == 0
    img = read_tensor(os.path.join(outdir, "images.qvt1"))
    assert img.min() >= 0.0 and img.max() <= 1.0
    # patches land in shuffled splits, so check membership rather than layout
    expected = (np.clip(scene_db, -25.0, 5.0) + 25.0) / 30.0
    assert np.isin(img, expected.astype(np.float32)).all()
