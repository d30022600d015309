"""Mini-batch training and micro-averaged evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datapipe import PatchSet
from .exceptions import DataError, NumericError, ShapeError
from .nn import adam_step, bce_loss, confusion_counts, init_adam
from .unet import AttentionUNet

LOG_HEADER = "epoch\tloss\ttrain_oa"
# Patches per inference forward in evaluate and predict_masks.
EVAL_BATCH = 8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 8


@dataclass(frozen=True)
class PatchMetrics:
    index: int
    oa: float
    iou: float


@dataclass(frozen=True)
class EvalResult:
    oa: float
    iou: float
    rows: tuple[PatchMetrics, ...]


def stack_patches(patchset: PatchSet, in_channels: int, dtype=np.float32):
    """PatchSet -> (inputs (N, C, H, W), targets (N, 1, H, W))."""
    if len(patchset) == 0:
        raise DataError("patch set is empty")
    inputs, targets = [], []
    for item in patchset.items:
        img = item.image
        if img.ndim == 2:
            img = img[None]
        if img.shape[0] != in_channels:
            raise ShapeError(
                f"patch has {img.shape[0]} channels, model expects {in_channels}"
            )
        inputs.append(img)
        targets.append(item.mask[None])
    return (np.stack(inputs).astype(dtype, copy=False),
            np.stack(targets).astype(dtype, copy=False))


def train(model: AttentionUNet, patchset: PatchSet, config: TrainConfig,
          seed: int = 0):
    """Optimize in place; returns (model, log lines).

    Shuffling draws from one seeded stream across epochs, so a given
    (model seed, train seed) pair reproduces bit-identical parameters.
    The log is tab-separated: epoch, mean batch loss, training OA from
    the same forward passes.
    """
    x_all, t_all = stack_patches(patchset, model.config.in_channels, model.dtype)
    n = x_all.shape[0]
    state = init_adam(model.params, lr=config.lr)
    rng = np.random.default_rng(seed)
    lines = [LOG_HEADER]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        total = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            xb, tb = x_all[idx], t_all[idx]
            out, tape = model.forward(xb, train=True)
            loss, gy = bce_loss(out, tb)
            if not math.isfinite(loss):
                raise NumericError(f"loss diverged at epoch {epoch}")
            # backward consumes the tape, so no cache outlives this step.
            grads, _ = model.backward(tape, gy)
            adam_step(model.params, grads, state)
            loss_sum += loss * xb.shape[0]
            correct += int(np.count_nonzero((out >= 0.5) == (tb >= 0.5)))
            total += out.size
        lines.append(f"{epoch}\t{loss_sum / n:.6f}\t{correct / total:.6f}")
    return model, lines


def evaluate(model: AttentionUNet, patchset: PatchSet) -> EvalResult:
    """Threshold at 0.5 and micro-average pixel counts over the split."""
    x_all, t_all = stack_patches(patchset, model.config.in_channels, model.dtype)
    n = x_all.shape[0]
    rows = []
    agg = np.zeros(4, dtype=np.int64)
    for lo in range(0, n, EVAL_BATCH):
        out, _ = model.forward(x_all[lo : lo + EVAL_BATCH], train=False)
        for j in range(out.shape[0]):
            tp, fp, fn, tn = confusion_counts(out[j], t_all[lo + j])
            agg += (tp, fp, fn, tn)
            union = tp + fp + fn
            rows.append(PatchMetrics(
                index=lo + j,
                oa=(tp + tn) / (tp + fp + fn + tn),
                iou=1.0 if union == 0 else tp / union,
            ))
    tp, fp, fn, tn = (int(v) for v in agg)
    union = tp + fp + fn
    return EvalResult(
        oa=(tp + tn) / (tp + fp + fn + tn),
        iou=1.0 if union == 0 else tp / union,
        rows=tuple(rows),
    )


def predict_masks(model: AttentionUNet, patchset: PatchSet) -> np.ndarray:
    """Binary masks (N, H, W) for every patch in the set."""
    x_all, _ = stack_patches(patchset, model.config.in_channels, model.dtype)
    masks = []
    for lo in range(0, x_all.shape[0], EVAL_BATCH):
        out, _ = model.forward(x_all[lo : lo + EVAL_BATCH], train=False)
        masks.append(out[:, 0] >= 0.5)
    return np.concatenate(masks).astype(np.float64)
