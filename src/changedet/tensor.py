"""Rank-4 tensors (batch, channel, height, width) with reverse-mode autodiff.

Values are NCHW float32 arrays by default; float64 is used in the
verification mode that backs the finite-difference gradient checks.  Ops
execute eagerly.  While a :class:`Tape` is active on the current thread,
each op appends a backward closure; ``Tape.backward`` replays the closures
in reverse execution order, so building the tape in forward order is all
the topological sorting we ever need.  The tape is rebuilt on every forward
pass (define-by-run).  Tensors hold no reference to the tape, so a step's
graph is freed when its tape is dropped.  What only backward reads (relu
masks, the max-pool's first-maximum mask) is computed inside the backward
closure, so a forward pass with no tape never builds it.  A leaf with
requires_grad=False receives no gradient: ``_accum`` drops whatever
reaches it, and conv2d, whose input images are such leaves, skips
computing their dX.

Tensors are immutable by convention: ops return new tensors and never write
into their inputs.  The tape, the :func:`stage` label and the
:class:`FlopCounter` are per thread: each sees only the ops its own thread
runs, and a tape and its backward pass belong to a single thread.  Forward
passes with no tape may run on several threads at once, since ops share no
mutable state.  ``ChangeDetector.predict_probs`` splits a batch across two
threads that way, and keeps it on the calling thread while
:func:`recording` says that thread's ops are observed.

conv2d has one lowering for every geometry: per-image columns laid out
(N, groups, C_g*k*k, Ho*Wo) and one batched GEMM against the
(groups, C_out/groups, C_g*k*k) weight, whose result is already NCHW.  The
columns of an unpadded stride-1 1x1 conv are the input itself.  dW is the
same GEMM against the transposed columns, summed over N; dX scatters the
column gradient back with k*k strided adds, a depthwise conv forming each
tap's share by a broadcast multiply instead of a column buffer.  Bilinear
resize multiplies by two interpolation matrices that are memoised per
(in, out, dtype) and read-only.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GraphError, NumericError, ShapeError

REAL32 = np.float32
REAL64 = np.float64

_tls = threading.local()


def active_tape():
    """The tape recording on this thread, or None."""
    return getattr(_tls, "tape", None)


def recording() -> bool:
    """True while a Tape or a FlopCounter observes the ops of this thread."""
    return active_tape() is not None or getattr(_tls, "flops", None) is not None


@contextmanager
def stage(name: str):
    """Label the ops run inside as one pipeline stage; the previous label returns on exit."""
    previous = getattr(_tls, "stage", None)
    _tls.stage = name
    try:
        yield
    finally:
        _tls.stage = previous


class FlopCounter:
    """Accumulates forward-pass FLOPs of ops executed while active: in total,
    by op name (``by_op``) and by the :func:`stage` label each op ran in
    (``by_stage``, keyed None outside any stage).

    Convention (documented, not universal): a multiply-accumulate is 2 FLOPs;
    a convolution additionally pays 1 FLOP per output element for its bias;
    elementwise ops, reductions, and channel pools pay 1 FLOP per output
    element; bilinear resampling pays 8 per output element (4 taps, weighted);
    concatenation is free.  Counts cover forward only.
    """

    def __init__(self):
        self.total = 0
        self.by_op: dict[str, int] = {}
        self.by_stage: dict[str | None, int] = {}

    def __enter__(self) -> "FlopCounter":
        if getattr(_tls, "flops", None) is not None:
            raise GraphError("a FlopCounter is already active on this thread")
        _tls.flops = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.flops = None
        return False

    def _add(self, op: str, n: int):
        self.total += n
        self.by_op[op] = self.by_op.get(op, 0) + n
        label = getattr(_tls, "stage", None)
        self.by_stage[label] = self.by_stage.get(label, 0) + n


class Tensor:
    """A rank-4 array; a tape may record it as the output of an op.

    grad is allocated lazily during backward; it stays None for tensors the
    loss never reaches.  Parameters in an optimizer arena (see optim) hold a
    gradient view from the start.  requires_grad=False marks leaves (input
    images, a frozen teacher's parameters) whose gradient nobody reads:
    _accum drops any gradient sent to them, and conv2d skips computing dX
    for such an input.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True):
        arr = np.asarray(data)
        if arr.dtype not in (REAL32, REAL64):
            arr = arr.astype(REAL32)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4 (N,C,H,W), got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager around a forward pass; records accumulate in
    execution order, so one reverse sweep propagates every gradient.  A tape
    can run backward exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise GraphError("a tape is already active on this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor):
        """Propagate d(loss)/d(x) into .grad of every tensor reachable from loss."""
        if not any(out is loss for out, _ in reversed(self._records)):
            raise GraphError("backward target was not produced on this tape")
        if loss.shape != (1, 1, 1, 1):
            raise ShapeError(f"backward needs a scalar (1,1,1,1) loss, got {loss.shape}")
        self._seeded_backward(loss, np.ones_like(loss.data))

    def _seeded_backward(self, out: Tensor, seed: np.ndarray):
        # Used directly by gradcheck to backpropagate an arbitrary cotangent.
        if self._spent:
            raise GraphError("tape already consumed by a backward pass")
        self._spent = True
        out.grad = seed
        for rec_out, backward in reversed(self._records):
            if rec_out.grad is None:
                continue  # not on any path to the seed
            backward(rec_out.grad)


def _accum(t: Tensor, g: np.ndarray):
    # A first gradient becomes a copy of g in t's dtype and shape; later ones
    # add into that buffer.  t keeps no reference to g, so callers may pass
    # read-only or broadcast views without copying them first.  A parameter
    # in an optimizer arena starts from a zeroed gradient view and
    # accumulates straight into it.  This is the one gate for frozen tensors:
    # backward closures call it unconditionally, and it drops g for a tensor
    # with requires_grad=False.
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _emit(
    op: str,
    data: np.ndarray,
    backward: Callable[[np.ndarray], None],
    flops: int | None = None,
) -> Tensor:
    # Silent NaN propagation is treated as a bug, not a value.
    if not np.isfinite(data).all():
        label = getattr(_tls, "stage", None)
        raise NumericError(f"{op} produced non-finite values" + (f" in stage {label}" if label is not None else ""))
    out = Tensor(data)
    tape = active_tape()
    if tape is not None:
        tape._records.append((out, backward))
    counter = getattr(_tls, "flops", None)
    if counter is not None:
        counter._add(op, data.size if flops is None else flops)
    return out


def _same_dtype(op: str, *tensors: Tensor):
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


# ---------------------------------------------------------------------------
# convolution


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution, NCHW, square kernel; groups=C_in gives depthwise.

    weight is (C_out, C_in/groups, k, k); bias, when present, is
    (1, C_out, 1, 1).  Output spatial extent is floor((H+2p-k)/stride)+1.
    """
    n, c_in, h, w = x.shape
    c_out, c_g, k, k2 = weight.shape
    if k != k2:
        raise ShapeError(f"conv2d: kernel must be square, got {k}x{k2}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride/padding ({stride}, {padding})")
    if groups < 1 or c_in % groups != 0 or c_out % groups != 0:
        raise ConfigError(f"conv2d: groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_g * groups != c_in:
        raise ShapeError(f"conv2d: weight expects C_in={c_g * groups}, input has {c_in}")
    if k > h + 2 * padding or k > w + 2 * padding:
        raise ShapeError(f"conv2d: kernel {k} exceeds padded input ({h}+2*{padding})")
    if bias is not None and bias.shape != (1, c_out, 1, 1):
        raise ShapeError(f"conv2d: bias must be (1,{c_out},1,1), got {bias.shape}")
    _same_dtype("conv2d", *([x, weight] + ([bias] if bias is not None else [])))

    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    npix = h_out * w_out
    shape = (n, groups, c_g * k * k, npix)  # per-image columns, one block per group
    win = _windows(_padded(x.data, padding), k, stride).transpose(0, 1, 4, 5, 2, 3)
    # For a 1x1, stride-1, unpadded conv this view is x.data itself, already contiguous: no copy.
    cols = np.ascontiguousarray(win).reshape(shape)
    wm = weight.data.reshape(groups, c_out // groups, c_g * k * k)
    out = np.matmul(wm, cols).reshape(n, c_out, h_out, w_out)
    if bias is not None:
        out += bias.data

    def backward(gout: np.ndarray):
        if bias is not None:
            _accum(bias, gout.sum(axis=(0, 2, 3)).reshape(bias.shape))
        go = gout.reshape(n, groups, c_out // groups, npix)
        dw = np.matmul(go, cols.transpose(0, 1, 3, 2))
        for i in range(1, n):  # in place, in index order: the bits of dw.sum(axis=0)
            dw[0] += dw[i]
        _accum(weight, dw[0].reshape(weight.shape))
        if not x.requires_grad:
            return
        if k == 1 and stride == 1 and padding == 0:
            _accum(x, np.matmul(wm.transpose(0, 2, 1), go).reshape(x.shape))
            return
        dxp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=gout.dtype)
        depthwise = groups == c_in == c_out
        if depthwise:
            wk = weight.data.reshape(1, c_in, k, k)
        else:
            dcols = np.matmul(wm.transpose(0, 2, 1), go).reshape(n, c_in, k, k, h_out, w_out)
        for i in range(k):
            for j in range(k):
                # A depthwise tap is a broadcast multiply, with no k*k-fold buffer.
                part = gout * wk[:, :, i : i + 1, j : j + 1] if depthwise else dcols[:, :, i, j]
                dxp[:, :, i : i + h_out * stride : stride, j : j + w_out * stride : stride] += part
        _accum(x, dxp[:, :, padding : padding + h, padding : padding + w])

    flops = 2 * n * h_out * w_out * c_out * (k * k * c_g)
    if bias is not None:
        flops += n * h_out * w_out * c_out
    return _emit("conv2d", out, backward, flops=flops)


# A tape keeps every backward closure of its step alive until the tape is
# dropped, so whatever a closure holds adds to peak memory: closures keep at
# most the columns dW needs, never the padded input.


def _padded(a: np.ndarray, p: int) -> np.ndarray:
    if not p:
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=a.dtype)
    out[:, :, p : p + h, p : p + w] = a
    return out


def _windows(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(N, C, Ho, Wo, k, k) strided view of the k x k windows of C-contiguous xp."""
    n, c, hp, wp = xp.shape
    sn, sc, sh, sw = xp.strides
    shape = (n, c, (hp - k) // stride + 1, (wp - k) // stride + 1, k, k)
    # sliding_window_view builds the same view, at about 8x the cost per call
    return np.ndarray(shape, xp.dtype, buffer=xp, strides=(sn, sc, sh * stride, sw * stride, sh, sw))


# ---------------------------------------------------------------------------
# channel pooling / reduction

# Channel sums are np.add.reduce over a non-inner axis.  While H*W > 1,
# numpy adds the reduced axis one (H, W) slice at a time, so the result is
# bit-equal to a plain loop over the same dtype, which the oracle tests
# demand.  At H*W == 1 the axis becomes inner and numpy sums 8 or more
# channels pairwise (float32 means of (2,144,1,1) inputs in [0, 1) differ
# from the loop by up to 6e-7 relative); the model never pools at H*W == 1,
# as fusion works at H/4 >= 8.


def _group_view(x: Tensor, c_out: int, op: str):
    n, c, h, w = x.shape
    if c < 1:
        raise ShapeError(f"{op}: empty channel axis")
    if c_out < 1 or c % c_out != 0:
        raise ConfigError(f"{op}: c_out={c_out} must divide C={c}")
    g = c // c_out
    return x.data.reshape(n, c_out, g, h, w), g


def _group_mean(x: Tensor, c_out: int, op: str):
    """(out, backward) of the mean over contiguous channel groups, for _emit."""
    xs, g = _group_view(x, c_out, op)
    out = np.add.reduce(xs, axis=2) / g

    def backward(gout: np.ndarray):
        _accum(x, np.broadcast_to((gout / g)[:, :, None], xs.shape).reshape(x.shape))

    return out, backward


def channel_avg_pool(x: Tensor, c_out: int) -> Tensor:
    """Mean over contiguous channel groups of size C/c_out."""
    return _emit("channel_avg_pool", *_group_mean(x, c_out, "channel_avg_pool"))


def channel_max_pool(x: Tensor, c_out: int) -> Tensor:
    """Max over contiguous channel groups; gradient goes to the first argmax."""
    xs, g = _group_view(x, c_out, "channel_max_pool")
    out = np.maximum.reduce(xs, axis=2)

    def backward(gout: np.ndarray):
        # Each group's first maximal channel takes gout, the one argmax picks;
        # a loop over the g channels is 2x faster than argmax over axis 2.
        top = np.maximum.reduce(xs, axis=2)
        dx = np.empty_like(xs)
        free = np.ones(top.shape, dtype=bool)
        for j in range(g):
            first = free & (xs[:, :, j] == top)
            dx[:, :, j] = np.where(first, gout, 0)
            free &= ~first
        _accum(x, dx.reshape(x.shape))

    return _emit("channel_max_pool", out, backward)


def channel_mean(x: Tensor) -> Tensor:
    """Mean over the channel axis, keeping a singleton channel."""
    return _emit("channel_mean", *_group_mean(x, 1, "channel_mean"))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a (1,1,1,1) scalar."""
    out = x.data.sum(dtype=x.dtype).reshape(1, 1, 1, 1)

    def backward(gout: np.ndarray):
        _accum(x, np.broadcast_to(gout.reshape(()), x.shape))

    return _emit("sum_all", out, backward, flops=x.data.size)


# ---------------------------------------------------------------------------
# resampling


def resize_weights(in_size: int, out_size: int, dtype=np.float64) -> np.ndarray:
    """(out_size, in_size) bilinear interpolation matrix.

    Half-pixel source mapping src = (dst+0.5)*in/out - 0.5, clamped to the
    valid range, linear weight between the two bracketing samples.
    """
    m = np.zeros((out_size, in_size), dtype=dtype)
    scale = in_size / out_size
    for d in range(out_size):
        src = (d + 0.5) * scale - 0.5
        src = min(max(src, 0.0), in_size - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, in_size - 1)
        f = src - i0
        m[d, i0] += 1.0 - f
        m[d, i1] += f
    return m


@functools.lru_cache(maxsize=64)
def _resize_matrix(in_size: int, out_size: int, dtype: np.dtype) -> np.ndarray:
    """resize_weights, memoised per (in, out, dtype) and returned read-only."""
    m = resize_weights(in_size, out_size, dtype)
    m.flags.writeable = False
    return m


def _resample(a: np.ndarray, my: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """my @ a @ mx.T over the trailing two axes of a."""
    return np.matmul(my, np.matmul(a, mx.T))


def resize_bilinear_array(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Plain-array bilinear resize over the trailing two axes."""
    h, w = img.shape[-2], img.shape[-1]
    return _resample(img, _resize_matrix(h, out_h, img.dtype), _resize_matrix(w, out_w, img.dtype))


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear spatial resampling with half-pixel centers and edge clamping."""
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"bilinear_resize: bad target size ({out_h}, {out_w})")
    n, c, h, w = x.shape
    my = _resize_matrix(h, out_h, x.dtype)
    mx = _resize_matrix(w, out_w, x.dtype)
    out = _resample(x.data, my, mx)

    def backward(gout: np.ndarray):
        _accum(x, _resample(gout, my.T, mx.T))

    return _emit("bilinear_resize", out, backward, flops=8 * out.size)


# ---------------------------------------------------------------------------
# pointwise


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(gout: np.ndarray):
        _accum(x, gout * (x.data > 0))  # subgradient 0 at x == 0

    return _emit("relu", out, backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(gout: np.ndarray):
        _accum(x, gout * (1 - out * out))

    return _emit("tanh", out, backward)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid_array(x.data)

    def backward(gout: np.ndarray):
        _accum(x, gout * out * (1 - out))

    return _emit("sigmoid", out, backward)


def _sigmoid_array(z: np.ndarray) -> np.ndarray:
    # Branch on sign to avoid exp overflow.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


ELEMENTWISE = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid}


def elementwise(x: Tensor, f: str) -> Tensor:
    """Apply a named pointwise activation: one of relu, tanh, sigmoid."""
    try:
        fn = ELEMENTWISE[f]
    except KeyError:
        raise ConfigError(f"elementwise: unknown function {f!r}, expected one of {sorted(ELEMENTWISE)}")
    return fn(x)


# ---------------------------------------------------------------------------
# combination


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
    _same_dtype("add", a, b)
    out = a.data + b.data

    def backward(gout: np.ndarray):
        _accum(a, gout)
        _accum(b, gout)

    return _emit("add", out, backward)


def mul_broadcast(gate: Tensor, x: Tensor) -> Tensor:
    """Multiply x by a single-channel gate broadcast across channels."""
    n, c, h, w = x.shape
    if gate.shape != (n, 1, h, w):
        raise ShapeError(f"mul_broadcast: gate must be ({n},1,{h},{w}), got {gate.shape}")
    _same_dtype("mul_broadcast", gate, x)
    out = gate.data * x.data

    def backward(gout: np.ndarray):
        _accum(gate, (gout * x.data).sum(axis=1, keepdims=True))
        _accum(x, gout * gate.data)

    return _emit("mul_broadcast", out, backward)


def scale(x: Tensor, k: float) -> Tensor:
    """Multiply by a python constant (used to weight loss terms)."""
    k = float(k)
    out = x.data * k

    def backward(gout: np.ndarray):
        _accum(x, gout * k)

    return _emit("scale", out, backward)


def concat_channel(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis, operand order preserved."""
    if not xs:
        raise ShapeError("concat_channel: empty operand list")
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        tn, _, th, tw = t.shape
        if (tn, th, tw) != (n, h, w):
            raise ShapeError(f"concat_channel: N/H/W mismatch, {xs[0].shape} vs {t.shape}")
    _same_dtype("concat_channel", *xs)
    out = np.concatenate([t.data for t in xs], axis=1)
    bounds = np.cumsum([0] + [t.shape[1] for t in xs])

    def backward(gout: np.ndarray):
        for t, lo, hi in zip(xs, bounds[:-1], bounds[1:]):
            _accum(t, gout[:, lo:hi])

    return _emit("concat_channel", out, backward, flops=0)


def softmax_channel(x: Tensor) -> Tensor:
    """Per-pixel softmax over channels, stabilized by max subtraction."""
    if x.shape[1] < 2:
        raise ShapeError(f"softmax_channel: needs C >= 2, got C={x.shape[1]}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(gout: np.ndarray):
        inner = (gout * out).sum(axis=1, keepdims=True)
        _accum(x, out * (gout - inner))

    return _emit("softmax_channel", out, backward)
