"""Distillation training: frozen teacher, AdamW, linear LR decay, augmentation.

The teacher (a larger trained model, or a deterministic smoothed-ground-truth
stand-in) predicts outside any gradient tape; a run has a distillation term
exactly when it has a teacher, and only the student's parameters ever receive
gradients.  The whole run is a pure function of (seed, config, dataset):
batch order, augmentation draws, and parameter updates all derive from the
config seed.  The config only switches augmentation on or off; its
transforms and their draw ranges are the constants beside `augment_pair`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import BitemporalSample, batch_iter, load_index
from .errors import ConfigError, DataError, NumericError
from .losses import LossSelection, LossWeights, compute_losses
from .metrics import evaluate
from .model import ChangeDetector
from .optim import adamw_step, init_state, lr_at
from .tensor import Tape, resize_bilinear_array

TEACHER_MODES = ("checkpoint", "oracle", "none")
ORACLE_SMOOTHING = 0.1  # label smoothing of the oracle teacher's one-hot targets


@dataclass(frozen=True)
class AugmentConfig:
    """The augmentation switch; the transforms and their draws are the constants beside `augment_pair`."""

    enabled: bool = field(default=True, metadata={"key": "augment"})


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    base_lr: float = 3e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 20
    seed: int = 0
    weights: LossWeights = LossWeights()
    selection: LossSelection = LossSelection()
    augment: AugmentConfig = AugmentConfig()
    teacher_mode: str = "none"
    teacher_checkpoint: str | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got ({self.beta1}, {self.beta2})")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.teacher_mode not in TEACHER_MODES:
            raise ConfigError(f"teacher_mode must be one of {TEACHER_MODES}, got {self.teacher_mode!r}")
        if (self.teacher_mode == "checkpoint") != (self.teacher_checkpoint is not None):
            raise ConfigError("teacher_checkpoint must be given exactly when teacher_mode is 'checkpoint'")
        path = self.teacher_checkpoint or ""
        if "".join(path.splitlines()) != path:  # a line break would split its echo and its error line
            raise ConfigError(f"teacher_checkpoint must fit on one line, got {path!r}")


def gaussian_blur3(img: np.ndarray, sigma: float) -> np.ndarray:
    """3x3 Gaussian over the trailing two axes, edges replicated."""
    d = np.array([-1.0, 0.0, 1.0], dtype=img.dtype)
    k = np.exp(-(d * d) / (2.0 * sigma * sigma))
    k /= k.sum()
    pad = [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)]
    p = np.pad(img, pad, mode="edge")
    h, w = img.shape[-2], img.shape[-1]
    out = np.zeros_like(img)
    for i in range(3):
        for j in range(3):
            out += k[i] * k[j] * p[..., i : i + h, j : j + w]
    return out


def _nearest_resize(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = mask.shape
    rows = np.minimum(((np.arange(out_h) + 0.5) * (h / out_h)).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * (w / out_w)).astype(np.int64), w - 1)
    return mask[np.ix_(rows, cols)]


FLIP_PROB = 0.5  # per axis
JITTER_PROB = 0.5  # per image
JITTER_STRENGTH = 0.1  # brightness offset within +-this, contrast factor within 1 +- this
SCALE_PROB = 0.3
SCALE_RANGE = (1.0, 1.2)  # zoom factor before the crop back to size
BLUR_PROB = 0.2  # per image
BLUR_SIGMA_RANGE = (0.3, 1.0)


def augment_pair(sample: BitemporalSample, rng) -> BitemporalSample:
    """Randomly perturb one sample; geometry is joint, photometry per image.

    Flips and scale-crop move pre, post, and mask identically (mask via
    nearest neighbour, so it stays binary); brightness/contrast jitter and
    blur touch the images only.  Pixel values are clamped back to [0, 1].
    """
    pre, post, mask = sample.pre, sample.post, sample.mask
    if rng.random() < FLIP_PROB:
        pre, post, mask = pre[:, :, ::-1], post[:, :, ::-1], mask[:, ::-1]
    if rng.random() < FLIP_PROB:
        pre, post, mask = pre[:, ::-1, :], post[:, ::-1, :], mask[::-1, :]
    jittered = []
    for img in (pre, post):
        if rng.random() < JITTER_PROB:
            brightness = rng.uniform(-JITTER_STRENGTH, JITTER_STRENGTH)
            contrast = rng.uniform(1.0 - JITTER_STRENGTH, 1.0 + JITTER_STRENGTH)
            img = (img - 0.5) * contrast + 0.5 + brightness
        jittered.append(img)
    pre, post = jittered
    if rng.random() < SCALE_PROB:
        h, w = mask.shape
        factor = rng.uniform(*SCALE_RANGE)
        nh, nw = max(h, round(h * factor)), max(w, round(w * factor))
        top = int(rng.integers(0, nh - h + 1))
        left = int(rng.integers(0, nw - w + 1))
        pre = resize_bilinear_array(pre, nh, nw)[:, top : top + h, left : left + w]
        post = resize_bilinear_array(post, nh, nw)[:, top : top + h, left : left + w]
        mask = _nearest_resize(mask, nh, nw)[top : top + h, left : left + w]
    blurred = []
    for img in (pre, post):
        if rng.random() < BLUR_PROB:
            img = gaussian_blur3(img, float(rng.uniform(*BLUR_SIGMA_RANGE)))
        blurred.append(img)
    pre, post = blurred
    pre = np.clip(pre, 0.0, 1.0).astype(np.float32, copy=False)
    post = np.clip(post, 0.0, 1.0).astype(np.float32, copy=False)
    return BitemporalSample(
        pre=np.ascontiguousarray(pre),
        post=np.ascontiguousarray(post),
        mask=np.ascontiguousarray(mask),
    )


def oracle_teacher_predict(gt: np.ndarray) -> np.ndarray:
    """Label-smoothed one-hot probabilities from the ground truth, (N,2,H,W).

    Each pixel's change probability is 1 - ORACLE_SMOOTHING/2 where gt is 1
    and ORACLE_SMOOTHING/2 where it is 0; the two channels sum to 1.
    """
    gt = np.asarray(gt)
    if gt.ndim != 3:
        raise DataError(f"oracle teacher expects a (N,H,W) mask, got shape {gt.shape}")
    change = gt.astype(np.float32) * (1.0 - ORACLE_SMOOTHING) + ORACLE_SMOOTHING / 2.0
    return np.stack([1.0 - change, change], axis=1)


class OracleTeacher:
    """Deterministic teacher for reproducible runs without a trained model.

    It predicts the ground truth with label smoothing ORACLE_SMOOTHING.
    """

    def predict(self, pre, post, gt) -> np.ndarray:
        return oracle_teacher_predict(gt)


class ModelTeacher:
    """A frozen trained model; its parameters never join a gradient tape."""

    def __init__(self, model: ChangeDetector):
        self.model = model
        for p in model.params.values():
            p.requires_grad = False

    def predict(self, pre, post, gt) -> np.ndarray:
        return self.model.predict_probs(pre, post)


def make_teacher(config: TrainConfig):
    """The configured teacher, or None when teacher_mode is 'none'."""
    if config.teacher_mode == "none":
        return None
    if config.teacher_mode == "oracle":
        return OracleTeacher()
    from .checkpoint import load_checkpoint

    return ModelTeacher(load_checkpoint(config.teacher_checkpoint))


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    lr: float  # learning rate at the epoch's first step
    train_loss: float
    gt: float
    boundary: float
    distill: float
    val_iou: float
    val_f1: float
    val_oa: float

    def line(self) -> str:
        return " ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))


@dataclass
class FitResult:
    model: ChangeDetector  # carries the best-validation-IoU weights
    logs: list[EpochLog] = field(default_factory=list)
    best_epoch: int = 0
    best_val_iou: float = 0.0

    def log_text(self) -> str:
        return "".join(entry.line() + "\n" for entry in self.logs)


def _augment_batch(pre, post, mask, rng):
    outs = [augment_pair(BitemporalSample(pre[i], post[i], mask[i]), rng) for i in range(pre.shape[0])]
    return tuple(np.stack([getattr(s, name) for s in outs]) for name in ("pre", "post", "mask"))


def fit(student: ChangeDetector, teacher, data_root, config: TrainConfig, log=None) -> FitResult:
    """Train the student; returns it holding the best-validation-IoU weights.

    One optimizer step per batch; the LR decays linearly over all steps of
    the run.  The per-epoch log records the training loss (sample-weighted
    mean over the epoch) with its three parts and the validation metrics.
    A non-finite op output aborts with a NumericError naming epoch, batch, op and stage.
    """
    train_index = load_index(data_root, "train")
    val_index = load_index(data_root, "val")
    if len(train_index) == 0 or len(val_index) == 0:
        raise DataError("training needs non-empty train and val splits")
    state = init_state(student.params)
    batches_per_epoch = math.ceil(len(train_index) / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    result = FitResult(model=student)
    best_data: np.ndarray | None = None  # a copy of the arena's flat parameter values
    step = 0
    for epoch in range(1, config.epochs + 1):
        aug_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(epoch, 1)))
        epoch_lr = lr_at(step, total_steps, config.base_lr)
        sums = {"total": 0.0, "gt": 0.0, "boundary": 0.0, "distill": 0.0}
        seen = 0
        batches = batch_iter(train_index, config.batch_size, seed=config.seed, shuffle=True, epoch=epoch)
        for batch_idx, (pre, post, mask, _ids) in enumerate(batches):
            if config.augment.enabled:
                pre, post, mask = _augment_batch(pre, post, mask, aug_rng)
            teacher_probs = None if teacher is None else teacher.predict(pre, post, mask)
            try:
                with Tape() as tape:
                    out = student.forward(pre, post)
                    total, parts = compute_losses(
                        out.logits, out.probs, out.boundary, mask[:, None],
                        teacher_probs, config.weights, config.selection,
                    )
                    tape.backward(total)
                adamw_step(
                    state, lr_at(step, total_steps, config.base_lr),
                    beta1=config.beta1, beta2=config.beta2,
                    eps=config.adam_eps, weight_decay=config.weight_decay,
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {batch_idx}: {exc}") from exc
            finally:
                state.grad.fill(0)
            n = pre.shape[0]
            for key in sums:
                sums[key] += parts[key] * n
            seen += n
            step += 1
        report = evaluate(student, val_index, config.batch_size)
        entry = EpochLog(
            epoch=epoch,
            lr=epoch_lr,
            train_loss=sums["total"] / seen,
            gt=sums["gt"] / seen,
            boundary=sums["boundary"] / seen,
            distill=sums["distill"] / seen,
            val_iou=report.iou,
            val_f1=report.f1,
            val_oa=report.oa,
        )
        result.logs.append(entry)
        if log is not None:
            log(entry.line())
        if best_data is None or report.iou > result.best_val_iou:
            result.best_val_iou = report.iou
            result.best_epoch = epoch
            best_data = state.data.copy()
    np.copyto(state.data, best_data)
    return result
