"""Supervision and distillation losses.

Each loss is a single tape record with a closed-form gradient, so the
backward pass costs one vectorized expression instead of replaying a chain
of primitive ops; `_mean_loss` emits all of them.  All losses return a (1,1,1,1) scalar tensor and are mean
reductions, making their magnitude independent of batch and image size.

Ground truth enters as a plain integer/float array, never as a tensor, so
no gradient can reach it.  Teacher predictions are likewise taken as raw
arrays (or tensors whose .data is read once): the teacher is frozen and the
distillation gradient flows into the student side only.  `LossConfig`, the
run config's [loss] section, picks the terms and their weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError

CLAMP_EPS = 1e-7

GT_LOSSES = ("ce", "soft_miou")


@dataclass(frozen=True)
class LossConfig:
    """The `[loss]` section: the terms, mixed as total = alpha1*gt + alpha2*boundary + alpha3*distill."""

    gt_loss: str = "ce"
    distill_loss: str = "mae"
    alpha1: float = 1.0
    alpha2: float = 0.5
    alpha3: float = 1.0

    def __post_init__(self):
        if self.gt_loss not in GT_LOSSES:
            raise ConfigError(f"gt_loss must be one of {GT_LOSSES}, got {self.gt_loss!r}")
        if self.distill_loss not in DISTILL_LOSSES:
            raise ConfigError(f"distill_loss must be one of {tuple(DISTILL_LOSSES)}, got {self.distill_loss!r}")
        for name in ("alpha1", "alpha2", "alpha3"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and non-negative, got {v}")


def _check_gt(gt: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    gt = np.asarray(gt)
    if gt.shape != (n, 1, h, w):
        raise ShapeError(f"ground truth must be ({n},1,{h},{w}), got {gt.shape}")
    if not ((gt == 0) | (gt == 1)).all():
        raise DataError(f"ground truth must be binary, found values {np.unique(gt)[:8]}")
    return gt.astype(np.int64)


def _mean_loss(op: str, x: T.Tensor, value, count: int, local_grad) -> T.Tensor:
    """Emit the scalar loss value; backward adds local_grad() * gout / count to x."""
    out = np.asarray(value, dtype=x.dtype).reshape(1, 1, 1, 1)

    def backward(gout: np.ndarray):
        T._accum(x, local_grad() * (float(gout.reshape(())) / count))

    return T._emit(op, out, backward)


def ce_loss(logits: T.Tensor, gt: np.ndarray) -> T.Tensor:
    """Mean over pixels of -log softmax probability of the true class."""
    n, c, h, w = logits.shape
    if c != 2:
        raise ShapeError(f"ce_loss expects 2-class logits, got C={c}")
    y = _check_gt(gt, n, h, w)
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    se = e.sum(axis=1, keepdims=True)
    lse = m + np.log(se)
    z_true = np.take_along_axis(z, y, axis=1)
    count = n * h * w
    probs = e / se

    def local_grad():
        onehot = np.zeros_like(z)
        np.put_along_axis(onehot, y, 1.0, axis=1)
        return probs - onehot

    return _mean_loss("ce_loss", logits, (lse - z_true).sum() / count, count, local_grad)


def bce_loss(s_hat: T.Tensor, gt: np.ndarray) -> T.Tensor:
    """Mean binary cross-entropy on a single-channel probability map."""
    n, c, h, w = s_hat.shape
    if c != 1:
        raise ShapeError(f"bce_loss expects a single-channel map, got C={c}")
    y = _check_gt(gt, n, h, w).astype(s_hat.dtype)
    p = s_hat.data
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    count = p.size
    live = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)  # clamp kills the gradient outside
    return _mean_loss(
        "bce_loss", s_hat, -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)).sum() / count, count,
        lambda: np.where(live, (pc - y) / (pc * (1.0 - pc)), 0.0),
    )


def _check_prob_pair(p_s: T.Tensor, p_t, op: str) -> np.ndarray:
    # Accept a tensor or raw array; either way only the values are used.
    p_t = p_t.data if isinstance(p_t, T.Tensor) else np.asarray(p_t)
    if p_t.shape != p_s.shape:
        raise ShapeError(f"{op}: shapes differ, student {p_s.shape} vs teacher {p_t.shape}")
    return p_t.astype(p_s.dtype, copy=False)


def mae_loss(p_s: T.Tensor, p_t) -> T.Tensor:
    """Mean absolute difference between student and (detached) teacher maps."""
    t = _check_prob_pair(p_s, p_t, "mae_loss")
    d = p_s.data - t
    return _mean_loss("mae_loss", p_s, np.abs(d).sum() / d.size, d.size, lambda: np.sign(d))


def mse_loss(p_s: T.Tensor, p_t) -> T.Tensor:
    """Mean squared difference between student and (detached) teacher maps."""
    t = _check_prob_pair(p_s, p_t, "mse_loss")
    d = p_s.data - t
    return _mean_loss("mse_loss", p_s, (d * d).sum() / d.size, d.size, lambda: 2.0 * d)


def kl_loss(p_s: T.Tensor, p_t) -> T.Tensor:
    """Mean per-pixel KL divergence of the student from the teacher.

    Teacher is the reference distribution: sum_c p_t log(p_t / p_s), both
    operands clamped to [1e-7, 1] before the logs.  Averaged over pixels
    (channel sum stays inside).
    """
    t = _check_prob_pair(p_s, p_t, "kl_loss")
    n, c, h, w = p_s.shape
    tc = np.clip(t, CLAMP_EPS, 1.0)
    sc = np.clip(p_s.data, CLAMP_EPS, 1.0)
    count = n * h * w
    live = (p_s.data > CLAMP_EPS) & (p_s.data < 1.0)
    return _mean_loss(
        "kl_loss", p_s, (tc * (np.log(tc) - np.log(sc))).sum() / count, count,
        lambda: np.where(live, -tc / sc, 0.0),
    )


# The distillation terms by name; distillation itself runs only when a teacher is given.
DISTILL_LOSSES = {"mae": mae_loss, "mse": mse_loss, "kl": kl_loss}


def soft_miou_loss(p_s: T.Tensor, gt: np.ndarray) -> T.Tensor:
    """One minus the smoothed soft IoU averaged over the two classes.

    Per class: (sum p*y + s) / (sum (p + y - p*y) + s) with all sums over the
    whole batch; s=1 keeps the ratio defined on empty classes.
    """
    n, c, h, w = p_s.shape
    if c != 2:
        raise ShapeError(f"soft_miou_loss expects 2-class probabilities, got C={c}")
    yidx = _check_gt(gt, n, h, w)
    p = p_s.data
    y = np.zeros_like(p)
    np.put_along_axis(y, yidx, 1.0, axis=1)
    inter = (p * y).sum(axis=(0, 2, 3)) + 1.0  # per class
    union = (p + y - p * y).sum(axis=(0, 2, 3)) + 1.0
    iou = inter / union

    def local_grad():
        num = inter.reshape(1, c, 1, 1)
        den = union.reshape(1, c, 1, 1)
        diou = (y * den - num * (1.0 - y)) / (den * den)
        return -diou

    return _mean_loss("soft_miou_loss", p_s, 1.0 - iou.sum() / c, c, local_grad)


def compute_losses(
    logits: T.Tensor,
    probs: T.Tensor,
    boundary: T.Tensor,
    gt: np.ndarray,
    teacher_probs,
    loss: LossConfig,
) -> tuple[T.Tensor, dict[str, float]]:
    """Assemble the training objective for one batch.

    Returns the total alpha1*gt + alpha2*boundary + alpha3*distill of the
    terms and weights `loss` names as a tensor, plus a plain-float
    breakdown for logging.
    The distillation term is added exactly when teacher_probs is not None.
    """
    if loss.gt_loss == "ce":
        gt_part = ce_loss(logits, gt)
    else:
        gt_part = soft_miou_loss(probs, gt)
    boundary_part = bce_loss(boundary, gt)
    distill_part = None if teacher_probs is None else DISTILL_LOSSES[loss.distill_loss](probs, teacher_probs)
    total = T.add(T.scale(gt_part, loss.alpha1), T.scale(boundary_part, loss.alpha2))
    if distill_part is not None:
        total = T.add(total, T.scale(distill_part, loss.alpha3))
    breakdown = {
        "gt": gt_part.item(),
        "boundary": boundary_part.item(),
        "distill": distill_part.item() if distill_part is not None else 0.0,
        "total": total.item(),
    }
    return total, breakdown
