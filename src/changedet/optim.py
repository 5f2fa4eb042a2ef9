"""Decoupled-weight-decay Adam and the linear learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay from base_lr at step 0 to exactly 0 at total_steps.

    Steps past the end stay clamped at 0.
    """
    if total_steps < 1:
        raise ConfigError(f"lr_at: total_steps must be >= 1, got {total_steps}")
    if base_lr <= 0:
        raise ConfigError(f"lr_at: base_lr must be > 0, got {base_lr}")
    return max(0.0, base_lr * (1.0 - step / total_steps))


@dataclass
class OptimizerState:
    """First/second moment buffers plus the shared step counter.

    scratch holds two work buffers per parameter, so an update allocates no
    temporaries; it carries no state between steps.
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)


def init_state(params: dict[str, Tensor]) -> OptimizerState:
    state = OptimizerState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adamw_step(
    params: dict[str, Tensor],
    state: OptimizerState,
    lr: float,
    *,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> None:
    """One in-place update: moments from .grad, decay applied to the weight.

    A missing gradient counts as zero, so unreached parameters still shrink
    under weight decay.  Bias correction uses the shared step counter.
    """
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ConfigError(f"adamw_step: betas must lie in [0, 1), got ({beta1}, {beta2})")
    if set(params) != set(state.m):
        missing = set(params) ^ set(state.m)
        raise ShapeError(f"adamw_step: state/parameter name mismatch: {sorted(missing)}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        if state.m[name].shape != p.data.shape:
            raise ShapeError(
                f"adamw_step: state buffer for {name!r} has shape "
                f"{state.m[name].shape}, parameter has {p.data.shape}"
            )
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"adamw_step: gradient for {name!r} has shape {g.shape}, want {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        a, b = _scratch(state, name, m)
        # The ufuncs and their order are those of the textbook form
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p -= lr * (m/bc1 / (sqrt(v/bc2) + eps) + wd*p)
        # written into two buffers instead of a dozen temporaries.
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - beta2, out=a)
        np.add(v, a, out=v)
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.divide(a, b, out=a)
        np.multiply(p.data, weight_decay, out=b)
        np.add(a, b, out=a)
        np.multiply(a, lr, out=a)
        np.subtract(p.data, a, out=p.data)


def _scratch(state: OptimizerState, name: str, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    bufs = state.scratch.get(name)
    if bufs is None or bufs[0].shape != like.shape or bufs[0].dtype != like.dtype:
        bufs = state.scratch[name] = (np.empty_like(like), np.empty_like(like))
    return bufs


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
