"""Decoupled-weight-decay Adam over a flat parameter arena, and the linear
learning-rate schedule.

init_state lays the parameters' values and gradients and AdamW's two moments
out as four flat buffers, in the order of the parameter dict (for a model,
``conv_specs`` order), and is the one place a parameter is bound: every
``.data`` and ``.grad`` becomes a view of its slice, gradients start at zero,
and nothing rebinds them.  Backward accumulates straight into the arena,
``state.grad.fill(0)`` clears it, and adamw_step runs its ufuncs over
cache-sized blocks of the flat buffers, not once per tensor.  The moments
are only read flat, at the offsets of the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import REAL32, Tensor

# Elements per AdamW block.  For 576k float32 parameters, 64k blocks took
# 2.16 ms per step against 2.71 ms for 16k blocks, 2.76 ms for one pass over
# the whole buffers and 2.96 ms per tensor (2-vCPU Xeon VM): the gain is
# cache reuse across the 19 ufuncs, not fewer calls.
BLOCK = 1 << 16

# Adam's moment decays and denominator guard (Kingma & Ba, arXiv:1412.6980).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
    """Flat parameter values, gradients and AdamW moments, and the step
    counter that bias correction uses.  work holds two block-sized buffers
    for the update's intermediates; they carry nothing between steps."""

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    work: tuple[np.ndarray, np.ndarray]
    step: int = 0


def init_state(params: dict[str, Tensor]) -> OptimizerState:
    """Bind every parameter once to a new arena: values copied in, gradients and moments zero."""
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) > 1:
        raise ConfigError(f"init_state: parameters of mixed dtype {sorted(d.name for d in dtypes)} share no arena")
    dtype = dtypes.pop() if dtypes else REAL32
    size = sum(p.data.size for p in params.values())
    data = np.empty(size, dtype)
    grad, m, v = (np.zeros(size, dtype) for _ in range(3))
    start = 0
    for p in params.values():
        stop = start + p.data.size
        data[start:stop] = p.data.ravel()
        p.data, p.grad = data[start:stop].reshape(p.data.shape), grad[start:stop].reshape(p.data.shape)
        start = stop
    block = min(BLOCK, size)
    return OptimizerState(data, grad, m, v, (np.empty(block, dtype), np.empty(block, dtype)))


def adamw_step(state: OptimizerState, lr: float, *, weight_decay: float = 0.01) -> None:
    """One in-place update of the arena: moments from .grad, decay applied to the weight.

    An unreached parameter's gradient stays zero, so it still shrinks under
    weight decay.  Bias correction uses the shared step counter.  A first
    moment below the dtype's smallest normal is flushed to zero: it moves no
    weight, and every ufunc that reads a subnormal runs several times slower.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    tiny = np.finfo(state.m.dtype).tiny
    work_a, work_b = state.work
    size = state.data.size
    for start in range(0, size, BLOCK):
        stop = min(start + BLOCK, size)
        p, g = state.data[start:stop], state.grad[start:stop]
        m, v = state.m[start:stop], state.v[start:stop]
        a, b = work_a[: stop - start], work_b[: stop - start]
        # The ufuncs and their order are those of the textbook form
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p -= lr * (m/bc1 / (sqrt(v/bc2) + eps) + wd*p)
        # written into two buffers instead of a dozen temporaries, plus the
        # flush of m: m *= (|m| >= tiny).
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=a)
        np.add(m, a, out=m)
        np.abs(m, out=a)
        np.greater_equal(a, tiny, out=a, casting="unsafe")
        np.multiply(m, a, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - BETA2, out=a)
        np.add(v, a, out=v)
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, EPS, out=b)
        np.divide(a, b, out=a)
        np.multiply(p, weight_decay, out=b)
        np.add(a, b, out=a)
        np.multiply(a, lr, out=a)
        np.subtract(p, a, out=p)
