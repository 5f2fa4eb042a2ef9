"""Finite-difference verification of every backward implementation.

Each registered op has a builder that draws a small random instance (all
extents kept tiny so exhaustive per-element differencing stays cheap) with
inputs conditioned away from kinks: relu inputs off zero, max-pool groups
with a clear winner, probabilities clear of their clamps, and nonzero
student/teacher gaps for the absolute-error loss.

The check runs in 64-bit: the analytic gradient of a random scalar
projection of the output is compared against central differences, element
by element, using rel = |a - n| / max(|a|, |n|, 1).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import losses as L
from . import model as M
from . import tensor as T
from .errors import ConfigError
from .tensor import REAL64, Tensor

STEP = 1e-5
THRESHOLD = 1e-4
DEFAULT_INSTANCES = 20


@dataclass
class OpReport:
    op: str
    instances: int
    max_rel_err: float
    passed: bool
    seconds: float


def check_instance(
    arrays: dict[str, np.ndarray],
    fn: Callable[[dict[str, Tensor]], Tensor],
    rng: np.random.Generator,
    sample_elements: int | None = None,
) -> float:
    """Max relative error between analytic and numeric gradients.

    fn maps named tensors to a single output tensor.  When sample_elements
    is given, only that many randomly chosen input elements are differenced
    (for composites too large to sweep exhaustively).
    """
    tensors = {k: Tensor(v) for k, v in arrays.items()}
    with T.Tape() as tape:
        out = fn(tensors)
    cot = rng.standard_normal(out.shape)
    tape._seeded_backward(out, cot)

    slots = [(name, idx) for name, arr in arrays.items() for idx in np.ndindex(arr.shape)]
    if sample_elements is not None and sample_elements < len(slots):
        chosen = rng.choice(len(slots), size=sample_elements, replace=False)
        slots = [slots[i] for i in chosen]

    worst = 0.0
    for name, idx in slots:
        arr = tensors[name].data  # perturbed in place: the very buffer fn(tensors) reads
        orig = arr[idx]
        arr[idx] = orig + STEP
        up = float((fn(tensors).data * cot).sum())
        arr[idx] = orig - STEP
        down = float((fn(tensors).data * cot).sum())
        arr[idx] = orig
        numeric = (up - down) / (2.0 * STEP)
        grad = tensors[name].grad
        analytic = 0.0 if grad is None else float(grad[idx])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# instance builders


def _dims(rng):
    return tuple(int(rng.integers(1, 7)) for _ in range(4))


def _nhw(rng):
    return int(rng.integers(1, 3)), int(rng.integers(2, 6)), int(rng.integers(2, 6))


def _signed_away_from_zero(rng, shape):
    mag = rng.uniform(0.1, 1.0, shape)
    return mag * rng.choice([-1.0, 1.0], size=shape)


def _normal(rng, shape):
    return rng.normal(size=shape)


def _probs2(rng, n, h, w, lo=0.05, hi=0.95):
    a = rng.uniform(lo, hi, size=(n, 1, h, w))
    return np.concatenate([a, 1.0 - a], axis=1)


def _op(rng, op, **draws):
    """op(*inputs) with one random (N, C, H, W) dims; each named input is draw(rng, dims), in order."""
    dims = _dims(rng)
    return {name: draw(rng, dims) for name, draw in draws.items()}, lambda t: op(*(t[name] for name in draws))


def _channel_pool(rng, op, clear_winner=False):
    """op(x, c_out) on x of c_out groups of g channels each."""
    c_out = int(rng.integers(1, 4))
    g = int(rng.integers(1, 4))
    n, h, w = _nhw(rng)
    x = rng.normal(size=(n, c_out * g, h, w))
    if clear_winner:
        # a clear per-group winner, so the step cannot flip the argmax
        xs = x.reshape(n, c_out, g, h, w)
        idx = xs.argmax(axis=2)
        top = np.take_along_axis(xs, idx[:, :, None], axis=2)
        np.put_along_axis(xs, idx[:, :, None], top + 0.01, axis=2)
    return {"x": x}, lambda t: op(t["x"], c_out)


def _gt_loss(rng, op, draw):
    """op(x, gt) on a random binary mask gt and x = draw(rng, n, h, w)."""
    n, h, w = _nhw(rng)
    gt = (rng.uniform(size=(n, 1, h, w)) > 0.5).astype(np.float64)
    return {"x": draw(rng, n, h, w)}, lambda t: op(t["x"], gt)


def _teacher_loss(rng, op, lo, hi):
    """op(p_s, p_t) on two-class maps with probabilities in [lo, hi]."""
    n, h, w = _nhw(rng)
    p_t = _probs2(rng, n, h, w, lo, hi)
    return {"p_s": _probs2(rng, n, h, w, lo, hi)}, lambda t: op(t["p_s"], p_t)


def _build_conv(rng):
    n = int(rng.integers(1, 3))
    groups = int(rng.choice([1, 1, 2]))
    c_in = groups * int(rng.integers(1, 4))
    c_out = groups * int(rng.integers(1, 4))
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1])) if k == 3 else 0
    h = int(rng.integers(max(3, k), 7))
    w = int(rng.integers(max(3, k), 7))
    use_bias = bool(rng.choice([True, False]))
    arrays = {
        "x": rng.normal(size=(n, c_in, h, w)),
        "w": rng.normal(size=(c_out, c_in // groups, k, k)),
    }
    if use_bias:
        arrays["b"] = rng.normal(size=(1, c_out, 1, 1))

    def fn(t):
        return T.conv2d(t["x"], t["w"], t.get("b"), stride=stride, padding=padding, groups=groups)

    return arrays, fn


def _build_bilinear_resize(rng):
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    oh, ow = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    arrays = {"x": rng.normal(size=(n, c, h, w))}
    return arrays, lambda t: T.bilinear_resize(t["x"], oh, ow)


def _build_scale(rng):
    k = float(rng.uniform(-2.0, 2.0))
    return _op(rng, lambda x: T.scale(x, k), x=_normal)


def _build_concat_channel(rng):
    n, _, h, w = _dims(rng)
    arrays = {f"x{i}": rng.normal(size=(n, int(rng.integers(1, 4)), h, w)) for i in range(int(rng.integers(2, 4)))}
    return arrays, lambda t: T.concat_channel(list(t.values()))


def _build_mae_loss(rng):
    n, h, w = _nhw(rng)
    p_s = _probs2(rng, n, h, w, 0.2, 0.8)
    # keep the student strictly off the teacher so |d| has no kink in reach
    gap = rng.uniform(0.01, 0.1, size=p_s.shape) * rng.choice([-1.0, 1.0], size=p_s.shape)
    p_t = np.clip(p_s + gap, 0.05, 0.95)
    bad = np.abs(p_s - p_t) < 5e-3
    p_t[bad] = p_s[bad] + 5e-3
    return {"p_s": p_s}, lambda t: L.mae_loss(t["p_s"], p_t)


def _build_fuse_multiscale(rng):
    widths = (2, 4, 4, 8)
    n, hw = 1, 8
    sizes = (hw, hw // 2, hw // 4, hw // 8)
    arrays = {
        f"s{i + 1}": rng.normal(size=(n, c, s, s)) for i, (c, s) in enumerate(zip(widths, sizes))
    }

    def fn(t):
        pyr = M.PyramidFeatures(t["s1"], t["s2"], t["s3"], t["s4"])
        fused, fused_mean, _ = M.emff_fuse(pyr, widths)
        return T.concat_channel([fused, fused_mean])

    return arrays, fn


def _build_student(rng):
    config = M.preset("nano")
    params = M.init_params(config, seed=int(rng.integers(0, 2**31)), dtype=REAL64)
    arrays = {name: p.data.copy() for name, p in params.items()}
    arrays["pre"] = rng.uniform(0.0, 1.0, size=(1, 3, 32, 32))
    arrays["post"] = rng.uniform(0.0, 1.0, size=(1, 3, 32, 32))

    def fn(t):
        net = M.ChangeDetector(config, params={n: t[n] for n in M.parameter_names(config)})
        return net.forward(t["pre"], t["post"]).logits

    return arrays, fn


# name -> (builder, sample_elements or None for exhaustive)
REGISTRY: dict[str, tuple[Callable, int | None]] = {
    "conv2d": (_build_conv, None),
    "channel_avg_pool": (lambda rng: _channel_pool(rng, T.channel_avg_pool), None),
    "channel_max_pool": (lambda rng: _channel_pool(rng, T.channel_max_pool, clear_winner=True), None),
    "channel_mean": (lambda rng: _op(rng, T.channel_mean, x=_normal), None),
    "bilinear_resize": (_build_bilinear_resize, None),
    "relu": (lambda rng: _op(rng, T.relu, x=_signed_away_from_zero), None),
    "tanh": (lambda rng: _op(rng, T.tanh, x=_normal), None),
    "sigmoid": (lambda rng: _op(rng, T.sigmoid, x=_normal), None),
    "add": (lambda rng: _op(rng, T.add, a=_normal, b=_normal), None),
    "mul_broadcast": (lambda rng: _op(rng, T.mul_broadcast, g=lambda r, d: _normal(r, (d[0], 1, *d[2:])), x=_normal), None),
    "scale": (_build_scale, None),
    "concat_channel": (_build_concat_channel, None),
    "softmax_channel": (
        lambda rng: _op(rng, T.softmax_channel, x=lambda r, d: _normal(r, (d[0], int(r.integers(2, 5)), *d[2:]))), None
    ),
    "sum_all": (lambda rng: _op(rng, T.sum_all, x=_normal), None),
    "ce_loss": (lambda rng: _gt_loss(rng, L.ce_loss, lambda r, n, h, w: r.normal(size=(n, 2, h, w))), None),
    "bce_loss": (lambda rng: _gt_loss(rng, L.bce_loss, lambda r, n, h, w: r.uniform(0.05, 0.95, (n, 1, h, w))), None),
    "mae_loss": (_build_mae_loss, None),
    "mse_loss": (lambda rng: _teacher_loss(rng, L.mse_loss, 0.05, 0.95), None),
    "kl_loss": (lambda rng: _teacher_loss(rng, L.kl_loss, 0.1, 0.9), None),
    "soft_miou_loss": (lambda rng: _gt_loss(rng, L.soft_miou_loss, _probs2), None),
    "fuse_multiscale": (_build_fuse_multiscale, 60),
    "student_forward": (_build_student, 24),
}


def check_op(name: str, instances: int = DEFAULT_INSTANCES, seed: int = 0) -> OpReport:
    if name not in REGISTRY:
        raise ConfigError(f"unknown gradcheck op {name!r}, expected one of {sorted(REGISTRY)}")
    if instances < 1:
        raise ConfigError(f"gradcheck needs at least one instance, got {instances}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    builder, sample = REGISTRY[name]
    start = time.perf_counter()
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode()), i])
        arrays, fn = builder(rng)
        arrays = {k: np.asarray(v, dtype=REAL64) for k, v in arrays.items()}
        worst = max(worst, check_instance(arrays, fn, rng, sample_elements=sample))
    return OpReport(
        op=name,
        instances=instances,
        max_rel_err=worst,
        passed=worst < THRESHOLD,
        seconds=time.perf_counter() - start,
    )


def check_all(instances: int = DEFAULT_INSTANCES, seed: int = 0) -> list[OpReport]:
    return [check_op(n, instances=instances, seed=seed) for n in REGISTRY]
