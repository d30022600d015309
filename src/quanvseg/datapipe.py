"""Scene patching, train/test splitting, dB normalization and synthetic
speckled scenes for end-to-end runs without real imagery.

A patch directory is the on-disk form: `index.txt` lines of
`<name> <split> <row> <col>`, one per patch, next to two QVT1 tensors
that stack the patches in index order: `images.qvt1`, shaped (N, H, W)
or (N, C, H, W), and `masks.qvt1`, shaped (N, H, W).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DataError, FileFormatError, ShapeError, SizeError
from .fileio import read_tensor, read_text, write_atomic, write_tensor


@dataclass(frozen=True)
class PatchItem:
    image: np.ndarray  # (H, W) raw band or (C, H, W) feature stack
    mask: np.ndarray  # (H, W)
    row: int
    col: int

    def __post_init__(self):
        if self.image.ndim not in (2, 3) or self.image.shape[-2:] != self.mask.shape:
            raise ShapeError(
                f"image {self.image.shape} and mask {self.mask.shape} disagree"
            )


@dataclass(frozen=True)
class PatchSet:
    items: tuple[PatchItem, ...] = field(default_factory=tuple)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, idx) -> PatchItem:
        return self.items[idx]

    def images(self) -> np.ndarray:
        return np.stack([p.image for p in self.items])

    def masks(self) -> np.ndarray:
        return np.stack([p.mask for p in self.items])


def extract_patches(image: np.ndarray, mask: np.ndarray, patch: int, stride: int) -> PatchSet:
    """Cut aligned (image, mask) windows on a row-major stride grid.

    Origins run r = 0, stride, 2*stride, ... while r + patch <= height,
    likewise for columns; trailing partial windows are dropped.
    """
    image = np.asarray(image)
    mask = np.asarray(mask)
    if image.ndim != 2 or image.shape != mask.shape:
        raise ShapeError(
            f"need matching 2-D rasters, got {image.shape} and {mask.shape}"
        )
    if patch < 1 or stride < 1:
        raise ConfigError(f"patch and stride must be >= 1, got {patch}, {stride}")
    height, width = image.shape
    if patch > height or patch > width:
        raise SizeError(f"patch {patch} exceeds scene {height}x{width}")
    items = []
    for r in range(0, height - patch + 1, stride):
        for c in range(0, width - patch + 1, stride):
            items.append(
                PatchItem(
                    image=image[r : r + patch, c : c + patch].copy(),
                    mask=mask[r : r + patch, c : c + patch].copy(),
                    row=r,
                    col=c,
                )
            )
    return PatchSet(items=tuple(items))


def split(patches: PatchSet, test_fraction: float, seed: int) -> tuple[PatchSet, PatchSet]:
    """Seeded shuffle split; the test side gets ceil(n * test_fraction)."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(patches)
    if n == 0:
        raise DataError("cannot split an empty patch set")
    n_test = int(np.ceil(n * test_fraction))
    order = np.random.default_rng(seed).permutation(n)
    test_idx = set(order[:n_test].tolist())
    train = tuple(patches[i] for i in range(n) if i not in test_idx)
    test = tuple(patches[i] for i in range(n) if i in test_idx)
    return PatchSet(items=train), PatchSet(items=test)


IMAGES_FILE = "images.qvt1"
MASKS_FILE = "masks.qvt1"


def save_patch_dir(outdir, train: PatchSet, test: PatchSet):
    """Write both splits as one image and one mask stack plus an index.txt."""
    os.makedirs(outdir, exist_ok=True)
    lines = []
    for label, patchset in (("train", train), ("test", test)):
        for item in patchset.items:
            lines.append(f"p{len(lines):05d} {label} {item.row} {item.col}")
    items = train.items + test.items
    if items:
        write_tensor(os.path.join(outdir, IMAGES_FILE),
                     np.stack([item.image for item in items], dtype=np.float32))
        write_tensor(os.path.join(outdir, MASKS_FILE),
                     np.stack([item.mask for item in items], dtype=np.float32))
    write_atomic(os.path.join(outdir, "index.txt"), ("\n".join(lines) + "\n").encode("ascii"))


def load_patch_dir(path) -> tuple[PatchSet, PatchSet]:
    """Read a directory written by save_patch_dir; returns (train, test)."""
    index = os.path.join(path, "index.txt")
    lines = [(lineno, ln.split())
             for lineno, ln in enumerate(read_text(index).split("\n"), start=1) if ln.strip()]
    entries = []
    # Origins name predict's output files, so each must be a distinct
    # in-scene position.
    seen: dict[tuple[int, int], int] = {}
    for lineno, fields in lines:
        if len(fields) != 4 or fields[1] not in ("train", "test"):
            raise FileFormatError(f"{index} line {lineno}: bad index line: {' '.join(fields)!r}")
        _, label, row, col = fields
        try:
            origin = (int(row), int(col))
        except ValueError:
            raise FileFormatError(
                f"{index} line {lineno}: row and col must be integers, got {row!r} {col!r}"
            ) from None
        if min(origin) < 0:
            raise FileFormatError(
                f"{index} line {lineno}: row and col must be >= 0, got {row} {col}")
        if origin in seen:
            raise FileFormatError(f"{index} line {lineno}: origin {row} {col} repeats "
                                  f"line {seen[origin]}")
        seen[origin] = lineno
        entries.append((label, *origin))
    buckets: dict[str, list[PatchItem]] = {"train": [], "test": []}
    if entries:
        images_path = os.path.join(path, IMAGES_FILE)
        masks_path = os.path.join(path, MASKS_FILE)
        images = read_tensor(images_path)
        masks = read_tensor(masks_path)
        # Header offsets: byte 5 is ndim, the first extent starts at byte 6.
        for file, stack in ((images_path, images), (masks_path, masks)):
            if stack.shape[0] != len(entries):
                raise FileFormatError(f"{file}: holds {stack.shape[0]} patches, but {index} "
                                      f"lists {len(entries)}", offset=6)
        if masks.ndim != 3:
            raise FileFormatError(f"{masks_path}: expected (N, H, W), got shape {masks.shape}",
                                  offset=5)
        if images.ndim not in (3, 4) or images.shape[-2:] != masks.shape[1:]:
            raise FileFormatError(f"{images_path}: shape {images.shape} does not fit masks "
                                  f"{masks.shape}; expected (N, H, W) or (N, C, H, W)", offset=5)
        for (label, row, col), image, mask in zip(entries, images, masks):
            buckets[label].append(PatchItem(image=image, mask=mask, row=row, col=col))
    return PatchSet(items=tuple(buckets["train"])), PatchSet(items=tuple(buckets["test"]))


def normalize_db(values: np.ndarray, lo_db: float = -25.0, hi_db: float = 5.0) -> np.ndarray:
    """Clip a dB raster to [lo_db, hi_db] and map affinely onto [0, 1]."""
    if not lo_db < hi_db:
        raise ConfigError(f"need lo_db < hi_db, got {lo_db}, {hi_db}")
    values = np.asarray(values, dtype=np.float64)
    return (np.clip(values, lo_db, hi_db) - lo_db) / (hi_db - lo_db)


def synth_scene(
    height: int,
    width: int,
    n_rects: int,
    seed: int,
    looks: float | None = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Make a synthetic backscatter scene and its building mask.

    Background reflectivity 0.15; each rectangle sets 0.65.  Rectangle
    draws come in the order (height, width, row, col) with sides in
    [4, 32].  Multiplicative gamma speckle with shape `looks` and scale
    1/looks; `looks` of None or inf means a clean scene.  The image is
    clipped to [0, 1].
    """
    if height < 32 or width < 32:
        raise SizeError(f"scene extents must be >= 32, got {height}x{width}")
    if n_rects < 0:
        raise ConfigError(f"n_rects must be >= 0, got {n_rects}")
    rng = np.random.default_rng(seed)
    reflect = np.full((height, width), 0.15)
    mask = np.zeros((height, width), dtype=np.float64)
    for _ in range(n_rects):
        bh = int(rng.integers(4, 33))
        bw = int(rng.integers(4, 33))
        r0 = int(rng.integers(0, height - bh + 1))
        c0 = int(rng.integers(0, width - bw + 1))
        reflect[r0 : r0 + bh, c0 : c0 + bw] = 0.65
        mask[r0 : r0 + bh, c0 : c0 + bw] = 1.0
    if looks is None or np.isinf(looks):
        image = reflect.copy()
    else:
        if looks <= 0:
            raise ConfigError(f"looks must be positive, got {looks}")
        image = reflect * rng.gamma(shape=looks, scale=1.0 / looks, size=reflect.shape)
    return np.clip(image, 0.0, 1.0), mask
