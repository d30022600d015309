"""Patch extraction, splitting, normalization, synthesis, and file formats."""

import numpy as np
import numpy.testing as npt
import pytest

from quanvseg.datapipe import (
    PatchItem,
    PatchSet,
    extract_patches,
    load_patch_dir,
    normalize_db,
    save_patch_dir,
    split,
    synth_scene,
)
from quanvseg.exceptions import (
    ConfigError,
    DataError,
    FileFormatError,
    ShapeError,
    SizeError,
    TruncatedFileError,
)
from quanvseg.fileio import (
    read_pgm,
    read_tensor,
    read_text,
    tensor_from_bytes,
    tensor_to_bytes,
    write_pgm,
    write_tensor,
)


# ---------------------------------------------------------------------
# Patch extraction


def test_extract_49_patches_bitwise():
    rng = np.random.default_rng(0)
    image = rng.uniform(size=(1024, 1024))
    mask = (rng.uniform(size=(1024, 1024)) > 0.5).astype(np.float64)
    patches = extract_patches(image, mask, patch=256, stride=128)
    assert len(patches) == 49
    for item in patches.items:
        npt.assert_array_equal(
            item.image, image[item.row : item.row + 256, item.col : item.col + 256]
        )
        npt.assert_array_equal(
            item.mask, mask[item.row : item.row + 256, item.col : item.col + 256]
        )


def test_extract_origins_row_major_on_stride_grid():
    image = np.zeros((512, 384))
    patches = extract_patches(image, image, patch=256, stride=128)
    origins = [(p.row, p.col) for p in patches.items]
    assert origins == [(0, 0), (0, 128), (128, 0), (128, 128), (256, 0), (256, 128)]


def test_extract_single_exact_patch():
    image = np.arange(256 * 256, dtype=np.float64).reshape(256, 256)
    patches = extract_patches(image, np.zeros_like(image), patch=256, stride=128)
    assert len(patches) == 1
    npt.assert_array_equal(patches[0].image, image)


def test_extract_drops_trailing_pixels():
    image = np.zeros((300, 300))
    patches = extract_patches(image, image, patch=256, stride=128)
    assert len(patches) == 1
    assert (patches[0].row, patches[0].col) == (0, 0)


@pytest.mark.parametrize("extent,patch,stride,count_per_axis", [
    (1024, 256, 128, 7),
    (64, 16, 16, 4),
    (65, 16, 16, 4),
    (100, 10, 30, 4),
])
def test_extract_count_formula(extent, patch, stride, count_per_axis):
    image = np.zeros((extent, extent))
    patches = extract_patches(image, image, patch=patch, stride=stride)
    assert len(patches) == count_per_axis ** 2
    assert count_per_axis == (extent - patch) // stride + 1


def test_extract_patches_are_copies():
    image = np.zeros((64, 64))
    patches = extract_patches(image, image, patch=32, stride=32)
    image[0, 0] = 99.0
    assert patches[0].image[0, 0] == 0.0


def test_extract_validation():
    good = np.zeros((64, 64))
    with pytest.raises(ShapeError):
        extract_patches(good, np.zeros((64, 32)), patch=16, stride=16)
    with pytest.raises(ShapeError):
        extract_patches(np.zeros((2, 64, 64)), np.zeros((2, 64, 64)),
                        patch=16, stride=16)
    with pytest.raises(ConfigError):
        extract_patches(good, good, patch=0, stride=16)
    with pytest.raises(ConfigError):
        extract_patches(good, good, patch=16, stride=0)
    with pytest.raises(SizeError):
        extract_patches(good, good, patch=128, stride=16)


# ---------------------------------------------------------------------
# Splitting


def make_patchset(n):
    items = tuple(
        PatchItem(image=np.full((4, 4), float(i)), mask=np.zeros((4, 4)),
                  row=i, col=0)
        for i in range(n)
    )
    return PatchSet(items=items)


def test_split_ceiling_rule():
    train, test = split(make_patchset(49), test_fraction=0.2, seed=0)
    assert len(test) == 10
    assert len(train) == 39


def test_split_is_a_partition():
    patches = make_patchset(20)
    train, test = split(patches, test_fraction=0.3, seed=1)
    ids = sorted(int(p.image[0, 0]) for p in train.items + test.items)
    assert ids == list(range(20))


def test_split_deterministic():
    patches = make_patchset(30)
    a = split(patches, test_fraction=0.25, seed=7)
    b = split(patches, test_fraction=0.25, seed=7)
    c = split(patches, test_fraction=0.25, seed=8)
    assert [p.row for p in a[1].items] == [p.row for p in b[1].items]
    assert [p.row for p in a[1].items] != [p.row for p in c[1].items]


def test_split_validation():
    patches = make_patchset(10)
    with pytest.raises(ConfigError):
        split(patches, test_fraction=0.0, seed=0)
    with pytest.raises(ConfigError):
        split(patches, test_fraction=1.0, seed=0)
    with pytest.raises(DataError):
        split(PatchSet(), test_fraction=0.5, seed=0)


# ---------------------------------------------------------------------
# Normalization


def test_normalize_db_endpoints_and_midpoint():
    out = normalize_db(np.array([-25.0, 5.0, -10.0]))
    npt.assert_allclose(out, [0.0, 1.0, 0.5])


def test_normalize_db_clips():
    out = normalize_db(np.array([-40.0, 10.0]))
    npt.assert_allclose(out, [0.0, 1.0])


def test_normalize_db_monotone_into_unit_interval():
    values = np.linspace(-60.0, 30.0, 500)
    out = normalize_db(values)
    assert np.all(np.diff(out) >= 0.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_normalize_db_custom_window():
    out = normalize_db(np.array([-20.0, 0.0]), lo_db=-20.0, hi_db=0.0)
    npt.assert_allclose(out, [0.0, 1.0])


def test_normalize_db_rejects_reversed_bounds():
    with pytest.raises(ConfigError):
        normalize_db(np.zeros(3), lo_db=5.0, hi_db=-25.0)
    with pytest.raises(ConfigError):
        normalize_db(np.zeros(3), lo_db=1.0, hi_db=1.0)


# ---------------------------------------------------------------------
# Synthetic scenes


def test_synth_no_rectangles_means_empty_mask():
    image, mask = synth_scene(64, 64, n_rects=0, seed=0)
    npt.assert_array_equal(mask, 0.0)
    assert image.shape == (64, 64)


def test_synth_clean_scene_is_two_valued():
    image, mask = synth_scene(64, 96, n_rects=5, seed=1, looks=None)
    assert set(np.unique(image)) == {0.15, 0.65}
    npt.assert_array_equal(image == 0.65, mask == 1.0)
    inf_image, _ = synth_scene(64, 96, n_rects=5, seed=1, looks=float("inf"))
    npt.assert_array_equal(inf_image, image)


def test_synth_mask_is_binary_and_image_in_unit_interval():
    image, mask = synth_scene(64, 64, n_rects=8, seed=2, looks=4.0)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert image.min() >= 0.0 and image.max() <= 1.0


@pytest.mark.parametrize("seed", range(100))
def test_synth_positive_fraction_bounded(seed):
    _, mask = synth_scene(64, 64, n_rects=6, seed=seed, looks=None)
    fraction = float(mask.mean())
    assert 0.0 < fraction < 0.6


def test_synth_is_pure():
    a = synth_scene(48, 48, n_rects=3, seed=9, looks=4.0)
    b = synth_scene(48, 48, n_rects=3, seed=9, looks=4.0)
    npt.assert_array_equal(a[0], b[0])
    npt.assert_array_equal(a[1], b[1])


def test_synth_speckle_perturbs_but_preserves_contrast():
    clean, mask = synth_scene(128, 128, n_rects=4, seed=3, looks=None)
    noisy, mask2 = synth_scene(128, 128, n_rects=4, seed=3, looks=4.0)
    npt.assert_array_equal(mask, mask2)
    assert not np.array_equal(clean, noisy)
    # speckle is multiplicative with unit mean, so class means stay apart
    assert noisy[mask == 1.0].mean() > noisy[mask == 0.0].mean()


def test_synth_validation():
    with pytest.raises(SizeError):
        synth_scene(16, 64, n_rects=1, seed=0)
    with pytest.raises(SizeError):
        synth_scene(64, 31, n_rects=1, seed=0)
    with pytest.raises(ConfigError):
        synth_scene(64, 64, n_rects=-1, seed=0)
    with pytest.raises(ConfigError):
        synth_scene(64, 64, n_rects=1, seed=0, looks=0.0)


# ---------------------------------------------------------------------
# Patch directories


def test_patch_dir_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    image = rng.uniform(size=(96, 96)).astype(np.float32).astype(np.float64)
    mask = (rng.uniform(size=(96, 96)) > 0.6).astype(np.float64)
    train, test = split(extract_patches(image, mask, patch=32, stride=32),
                        test_fraction=0.25, seed=5)
    save_patch_dir(tmp_path / "patches", train, test)
    train2, test2 = load_patch_dir(tmp_path / "patches")
    assert len(train2) == len(train) and len(test2) == len(test)
    for before, after in zip(train.items + test.items, train2.items + test2.items):
        npt.assert_array_equal(before.image.astype(np.float32), after.image)
        npt.assert_array_equal(before.mask.astype(np.float32), after.mask)
        assert (before.row, before.col) == (after.row, after.col)


def test_patch_dir_rejects_corrupt_index(tmp_path):
    train, test = split(make_patchset(4), test_fraction=0.5, seed=0)
    save_patch_dir(tmp_path / "patches", train, test)
    index = tmp_path / "patches" / "index.txt"
    index.write_text(index.read_text() + "p99999 neither 0 0\n")
    with pytest.raises(FileFormatError):
        load_patch_dir(tmp_path / "patches")


# ---------------------------------------------------------------------
# QVT1 tensors


@pytest.mark.parametrize("shape,dtype", [
    ((7,), np.float32),
    ((3, 5), np.float64),
    ((9, 64, 64), np.float32),
    ((2, 3, 4, 5), np.float64),
])
def test_qvt1_round_trip(tmp_path, shape, dtype):
    rng = np.random.default_rng(6)
    array = rng.normal(size=shape).astype(dtype)
    path = tmp_path / "t.qvt1"
    write_tensor(path, array)
    back = read_tensor(path)
    assert back.dtype == np.dtype(dtype)
    npt.assert_array_equal(back, array)


def test_qvt1_header_layout():
    blob = tensor_to_bytes(np.zeros((2, 3), dtype=np.float32))
    assert blob[:4] == b"QVT1"
    assert blob[4] == 1  # float32 code
    assert blob[5] == 2  # ndim
    assert blob[6:14] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert len(blob) == 14 + 6 * 4


def test_qvt1_float64_code():
    blob = tensor_to_bytes(np.zeros(1, dtype=np.float64))
    assert blob[4] == 2


def test_qvt1_bad_magic_offset_zero():
    blob = bytearray(tensor_to_bytes(np.zeros(4, dtype=np.float32)))
    blob[3] = ord("2")  # QVT1 -> QVT2
    with pytest.raises(FileFormatError) as err:
        tensor_from_bytes(bytes(blob))
    assert err.value.offset == 0


def test_qvt1_bad_magic_offset_is_record_base():
    blob = b"\x00" * 10 + b"QVT2xxxxxx"
    with pytest.raises(FileFormatError) as err:
        tensor_from_bytes(blob[10:], base_offset=10)
    assert err.value.offset == 10


def test_qvt1_unknown_dtype_offset():
    blob = bytearray(tensor_to_bytes(np.zeros(4, dtype=np.float32)))
    blob[4] = 9
    with pytest.raises(FileFormatError) as err:
        tensor_from_bytes(bytes(blob))
    assert err.value.offset == 4


def test_qvt1_bad_ndim_offset():
    blob = bytearray(tensor_to_bytes(np.zeros(4, dtype=np.float32)))
    blob[5] = 5
    with pytest.raises(FileFormatError) as err:
        tensor_from_bytes(bytes(blob))
    assert err.value.offset == 5


def test_qvt1_truncation_offsets():
    blob = tensor_to_bytes(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(TruncatedFileError) as short_header:
        tensor_from_bytes(blob[:5])
    assert short_header.value.offset == 4
    with pytest.raises(TruncatedFileError) as short_extents:
        tensor_from_bytes(blob[:9])
    assert short_extents.value.offset == 6
    with pytest.raises(TruncatedFileError) as short_payload:
        tensor_from_bytes(blob[:-1])
    assert short_payload.value.offset == 6 + 4 * 2


def test_qvt1_rejects_unsupported_arrays():
    with pytest.raises(ValueError):
        tensor_to_bytes(np.zeros(3, dtype=np.int32))
    with pytest.raises(ValueError):
        tensor_to_bytes(np.zeros((1, 1, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        tensor_to_bytes(np.zeros((0, 3), dtype=np.float32))


# ---------------------------------------------------------------------
# PGM rasters


def test_pgm_round_trip_8bit(tmp_path):
    values = np.arange(16, dtype=np.float64).reshape(4, 4) / 15.0
    path = tmp_path / "a.pgm"
    write_pgm(path, values, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    npt.assert_allclose(back, values, atol=0.5 / 255)


def test_pgm_round_trip_16bit_exact_for_masks(tmp_path):
    mask = np.array([[0.0, 1.0], [1.0, 0.0]])
    for maxval in (255, 65535):
        path = tmp_path / f"m{maxval}.pgm"
        write_pgm(path, mask, maxval=maxval)
        back, got_maxval = read_pgm(path)
        assert got_maxval == maxval
        npt.assert_array_equal(back, mask)


def test_pgm_known_byte_pattern(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    values, maxval = read_pgm(path)
    assert maxval == 255
    npt.assert_array_equal(values, [[0.0, 1.0], [1.0, 0.0]])


def test_pgm_16bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "w.pgm"
    write_pgm(path, np.array([[1.0]]), maxval=65535)
    payload = path.read_bytes().split(b"65535\n", 1)[1]
    assert payload == b"\xff\xff"
    path.write_bytes(b"P5\n1 1\n65535\n" + (256).to_bytes(2, "big"))
    values, _ = read_pgm(path)
    npt.assert_allclose(values, [[256.0 / 65535.0]])


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([0, 128]))
    values, maxval = read_pgm(path)
    assert maxval == 255
    npt.assert_allclose(values, [[0.0, 128.0 / 255.0]])


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(FileFormatError) as err:
        read_pgm(path)
    assert err.value.offset == 0


def test_pgm_rejects_bad_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n100\n\x00")
    with pytest.raises(FileFormatError):
        read_pgm(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(TruncatedFileError):
        read_pgm(path)


def test_pgm_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[2.0]]))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=1024)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_write_rejects_non_finite(tmp_path, bad):
    values = np.full((2, 2), 0.5)
    values[1, 0] = bad
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", values)
    assert not (tmp_path / "x.pgm").exists()


def test_read_text_matches_text_mode_and_locates_non_ascii(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    with open(path, encoding="ascii") as fh:
        assert read_text(path) == fh.read() == "a\nb\nc\n"
    path.write_bytes(b"ab\n\xff")
    with pytest.raises(FileFormatError) as info:
        read_text(path)
    assert info.value.offset == 3 and str(path) in str(info.value)
