"""Confusion counting and pixel metrics for binary change maps.

Change is the positive class everywhere: tp counts pixels predicted
changed that truly changed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetIndex, batch_iter
from .errors import DataError, ShapeError
from .model import ChangeDetector, predict_mask


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


@dataclass(frozen=True)
class MetricsReport:
    """Change-class IoU and F1 plus overall accuracy, with their counts.

    Any 0/0 ratio is reported as 1.0 and flags the report as degenerate
    (e.g. both masks empty: nothing was missed, but nothing was tested).
    """

    iou: float
    f1: float
    oa: float
    counts: ConfusionCounts
    degenerate: bool = False


def confusion_from_masks(pred, gt) -> ConfusionCounts:
    """Count pixel agreement between two binary masks of equal shape."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: pred {pred.shape} vs gt {gt.shape}")
    for label, arr in (("pred", pred), ("gt", gt)):
        if not ((arr == 0) | (arr == 1)).all():
            values = np.unique(arr)
            raise DataError(f"{label} mask is not binary, found values {values[:4]}")
    # Each pixel's code 2*pred + gt indexes one count: tn, fn, fp, tp.
    code = 2 * pred.astype(np.uint8, copy=False)
    code += gt.astype(np.uint8, copy=False)
    tn, fn, fp, tp = (int(c) for c in np.bincount(code.ravel(), minlength=4))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num: int, den: int) -> tuple[float, bool]:
    if den == 0:
        return 1.0, True
    return num / den, False


def metrics_from_confusion(counts: ConfusionCounts) -> MetricsReport:
    iou, d1 = _ratio(counts.tp, counts.tp + counts.fp + counts.fn)
    f1, d2 = _ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn)
    oa, d3 = _ratio(counts.tp + counts.tn, counts.total)
    return MetricsReport(iou=iou, f1=f1, oa=oa, counts=counts, degenerate=d1 or d2 or d3)


def evaluate(model: ChangeDetector, index: DatasetIndex, batch_size: int = 8) -> MetricsReport:
    """Accumulate confusion counts of argmax predictions over one split."""
    if len(index) == 0:
        raise DataError(f"split {index.split!r} has no samples")
    total = ConfusionCounts()
    for pre, post, mask, _ids in batch_iter(index, batch_size):
        total = total + confusion_from_masks(predict_mask(model.predict_probs(pre, post)), mask)
    return metrics_from_confusion(total)
