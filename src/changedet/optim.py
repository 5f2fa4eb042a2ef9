"""Decoupled-weight-decay Adam over a flat parameter arena, and the linear
learning-rate schedule.

init_state lays the parameters' values and gradients and AdamW's two moments
out as four flat buffers, in the order of the parameter dict (for a model,
``conv_specs`` order).  Every ``.data``, every ``.grad`` and each ``m``/``v``
entry is a view of its slice.  Backward therefore accumulates each gradient
straight into the arena, clearing the gradients is one fill, and adamw_step
runs its ufuncs over cache-sized blocks of the flat buffers, not once per
tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import REAL32, Tensor

# Elements per AdamW block.  For 576k float32 parameters, 64k blocks took
# 2.16 ms per step against 2.71 ms for 16k blocks, 2.76 ms for one pass over
# the whole buffers and 2.96 ms per tensor (2-vCPU Xeon VM): the gain is
# cache reuse across the 16 ufuncs, not fewer calls.
BLOCK = 1 << 16


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
class Arena:
    """Flat parameter values, gradients and moments, and each parameter's
    (data, grad) views.  work holds two block-sized buffers for the update's
    intermediates; they carry nothing between steps."""

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    views: dict[str, tuple[np.ndarray, np.ndarray]]
    work: tuple[np.ndarray, np.ndarray]


@dataclass
class OptimizerState:
    """First/second moment buffers plus the shared step counter.

    With an arena (from init_state) m and v map names to views of its flat
    moment buffers.
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    arena: Arena | None = field(default=None, repr=False)


def _carve(flat: np.ndarray, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    views, start = {}, 0
    for name, p in params.items():
        views[name] = flat[start : start + p.data.size].reshape(p.data.shape)
        start += p.data.size
    return views


def init_state(params: dict[str, Tensor]) -> OptimizerState:
    """Zero moments over a new arena that now holds every parameter's data and grad."""
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) > 1:
        raise ConfigError(f"init_state: parameters of mixed dtype {sorted(d.name for d in dtypes)} share no arena")
    dtype = dtypes.pop() if dtypes else REAL32
    size = sum(p.data.size for p in params.values())
    data = np.empty(size, dtype)
    grad, m, v = (np.zeros(size, dtype) for _ in range(3))
    block = min(BLOCK, size)
    data_views, grad_views = _carve(data, params), _carve(grad, params)
    arena = Arena(
        data, grad, m, v,
        views={name: (data_views[name], grad_views[name]) for name in params},
        work=(np.empty(block, dtype), np.empty(block, dtype)),
    )
    _bind(params, arena)
    return OptimizerState(m=_carve(m, params), v=_carve(v, params), arena=arena)


def _bind(params: dict[str, Tensor], arena: Arena) -> None:
    # A .data or .grad that is not its arena view was put there by a caller;
    # its value moves into the arena and the view takes its place.  A missing
    # gradient counts as zero.
    for name, p in params.items():
        data, grad = arena.views[name]
        if p.data is not data:
            if p.data.dtype != data.dtype:
                raise ConfigError(f"parameter {name!r} is {p.data.dtype.name}, its arena {data.dtype.name}")
            np.copyto(data, p.data)
            p.data = data
        if p.grad is not grad:
            if p.grad is None:
                grad.fill(0)
            elif p.grad.shape != grad.shape:
                raise ShapeError(f"gradient for {name!r} has shape {p.grad.shape}, want {grad.shape}")
            else:
                np.copyto(grad, p.grad)
            p.grad = grad


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
    for name, p in params.items():
        if state.m[name].shape != p.data.shape:
            raise ShapeError(
                f"adamw_step: state buffer for {name!r} has shape "
                f"{state.m[name].shape}, parameter has {p.data.shape}"
            )
    arena = state.arena
    if arena is None:
        raise ShapeError("adamw_step: the state has no parameter arena; build it with init_state")
    _bind(params, arena)
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    work_a, work_b = arena.work
    size = arena.data.size
    for start in range(0, size, BLOCK):
        stop = min(start + BLOCK, size)
        p, g = arena.data[start:stop], arena.grad[start:stop]
        m, v = arena.m[start:stop], arena.v[start:stop]
        a, b = work_a[: stop - start], work_b[: stop - start]
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
        np.multiply(p, weight_decay, out=b)
        np.add(a, b, out=a)
        np.multiply(a, lr, out=a)
        np.subtract(p, a, out=p)


def zero_grads(params: dict[str, Tensor], state: OptimizerState) -> None:
    """Clear every gradient with one fill of the arena's gradient buffer."""
    arena = state.arena
    arena.grad.fill(0)
    for name, p in params.items():
        p.grad = arena.views[name][1]
