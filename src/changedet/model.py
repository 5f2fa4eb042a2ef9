"""Early-fusion bitemporal change detector.

Pipeline: a two-branch downsampling stem fuses the image pair into one
feature map, a four-stage strided encoder builds a feature pyramid, a
fusion step collapses the pyramid to one map at the finest pyramid
resolution, and a small convolutional head emits per-pixel change
probabilities at input resolution.

Two fusion modes exist.  The default mode mixes the pyramid with channel
pooling, a tanh gate, and additions only, so it adds zero learnable
parameters.  The naive baseline mode concatenates everything and pays for a
1x1 projection; it exists as the ablation reference point.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import REAL32, Tensor

FUSION_MODES = ("emff", "naive")


@dataclass(frozen=True)
class ModelConfig:
    stem_channels: int = 8
    encoder_widths: tuple[int, int, int, int] = (16, 32, 64, 128)
    encoder_depths: tuple[int, int, int, int] = (1, 1, 2, 1)
    head_hidden: int = 64
    fusion_mode: str = "emff"

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", tuple(int(v) for v in self.encoder_widths))
        object.__setattr__(self, "encoder_depths", tuple(int(v) for v in self.encoder_depths))
        w = self.encoder_widths
        d = self.encoder_depths
        if len(w) != 4 or len(d) != 4:
            raise ConfigError(f"encoder needs 4 widths and 4 depths, got {w} / {d}")
        if min(w) < 1:
            raise ConfigError(f"encoder widths must be >= 1, got {w}")
        # channel pooling between adjacent stages needs exact divisibility, which orders the widths
        for hi, lo in ((3, 2), (2, 1), (1, 0)):
            if w[hi] % w[lo] != 0:
                raise ConfigError(f"width {w[hi]} (stage {hi + 1}) must be divisible by {w[lo]} (stage {lo + 1})")
        if any(x < 0 for x in d):
            raise ConfigError(f"encoder depths must be >= 0, got {d}")
        if self.stem_channels < 1:
            raise ConfigError(f"stem_channels must be >= 1, got {self.stem_channels}")
        if self.head_hidden < 1:
            raise ConfigError(f"head_hidden must be >= 1, got {self.head_hidden}")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}, got {self.fusion_mode!r}")


PRESETS: dict[str, ModelConfig] = {
    "nano": ModelConfig(4, (8, 16, 32, 64), (1, 1, 1, 1), 32),
    "tiny": ModelConfig(8, (16, 32, 64, 128), (1, 1, 2, 1), 64),
    "small": ModelConfig(12, (24, 48, 96, 192), (2, 2, 2, 2), 96),
    "teacher": ModelConfig(16, (32, 64, 128, 256), (2, 2, 4, 2), 128),
}


def preset(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    cfg = PRESETS[name]
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution layer, the unit of parameter bookkeeping."""

    name: str
    c_out: int
    c_in_per_group: int
    kernel: int
    groups: int = 1
    stride: int = 1
    padding: int = 0

    @property
    def params(self) -> tuple[tuple[str, tuple[int, int, int, int]], ...]:
        """The layer's (name, shape) pairs: its weight, then its bias."""
        return (
            (self.name + ".w", (self.c_out, self.c_in_per_group, self.kernel, self.kernel)),
            (self.name + ".b", (1, self.c_out, 1, 1)),
        )

    @property
    def param_count(self) -> int:
        return self.c_out * self.c_in_per_group * self.kernel * self.kernel + self.c_out


def conv_specs(config: ModelConfig) -> Iterator[ConvSpec]:
    """Every conv layer of the model, in creation order."""
    sc = config.stem_channels
    w = config.encoder_widths
    yield ConvSpec("stem.pre", sc, 3, 3, stride=2, padding=1)
    yield ConvSpec("stem.post", sc, 3, 3, stride=2, padding=1)
    yield ConvSpec("stem.dw1", 2 * sc, 1, 3, groups=2 * sc, padding=1)
    yield ConvSpec("stem.pw", w[0], 2 * sc, 1)
    yield ConvSpec("stem.dw2", w[0], 1, 3, groups=w[0], padding=1)
    c_prev = w[0]
    for i in range(4):
        yield ConvSpec(f"enc{i + 1}.down", w[i], c_prev, 3, stride=2, padding=1)
        for j in range(config.encoder_depths[i]):
            yield ConvSpec(f"enc{i + 1}.res{j + 1}.conv1", w[i], w[i], 3, padding=1)
            yield ConvSpec(f"enc{i + 1}.res{j + 1}.conv2", w[i], w[i], 3, padding=1)
        c_prev = w[i]
    if config.fusion_mode == "naive":
        yield ConvSpec("fuse.proj", w[0] + w[3], sum(w), 1)
    yield ConvSpec("head.fc1", config.head_hidden, w[0] + w[3], 1)
    yield ConvSpec("head.fc2", 2, config.head_hidden, 1)


def parameter_names(config: ModelConfig) -> list[str]:
    return [name for spec in conv_specs(config) for name, _ in spec.params]


def fusion_parameter_names(config: ModelConfig) -> list[str]:
    """Parameters owned by the fusion step; empty in the parameter-free mode."""
    return [n for n in parameter_names(config) if n.startswith("fuse.")]


def init_params(config: ModelConfig, seed: int = 0, dtype=REAL32) -> dict[str, Tensor]:
    """Fan-in-scaled uniform init, fixed creation order, seeded."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for spec in conv_specs(config):
        bound = float(np.sqrt(1.0 / (spec.c_in_per_group * spec.kernel * spec.kernel)))
        for name, shape in spec.params:
            if math.prod(shape) * 8 > sys.maxsize:  # the float64 draw; numpy would raise ValueError here
                raise MemoryError(f"Unable to allocate parameter {name} of shape {shape}: it exceeds the address space")
            params[name] = Tensor(rng.uniform(-bound, bound, shape).astype(dtype))
    return params


@dataclass
class PyramidFeatures:
    """Encoder outputs at strides 4, 8, 16, 32 with widths C1..C4."""

    s1: Tensor
    s2: Tensor
    s3: Tensor
    s4: Tensor


@dataclass
class FusionDetail:
    """Fusion intermediates, all at the common (stride-4) resolution."""

    s3: Tensor  # resized stage 3
    s4: Tensor  # resized stage 4
    gate: Tensor | None = None  # tanh of the stage-3 channel mean
    e4: Tensor | None = None  # gated pooled stage 4
    e4_plus: Tensor | None = None  # stage 3 + e4


@dataclass
class ModelOutputs:
    logits: Tensor  # (N,2,H,W)
    probs: Tensor  # per-pixel softmax of logits
    boundary: Tensor  # (N,1,H,W) sigmoid auxiliary map
    fused: Tensor  # (N,C1+C4,H/4,W/4)


# predict_probs splits a batch only when each part holds at least this many
# input pixels (two 128x128 images).  Below it the threads mostly queue for
# the interpreter lock, which numpy keeps through ops on small arrays.  On a
# 2-vCPU host with one OpenBLAS thread, tiny took 5.5 ms split against
# 3.8 ms whole at batch 2, 64x64, and 33 against 57 ms at batch 8, 128x128;
# nano, the narrowest preset, splits about even at this size.
SPLIT_MIN_PIXELS = 2**15


# Read three times per forward (stem, encoder, head); callers never mutate it.
@functools.lru_cache(maxsize=16)
def _spec_map(config: ModelConfig) -> dict[str, ConvSpec]:
    return {s.name: s for s in conv_specs(config)}


def _conv(params: dict[str, Tensor], spec: ConvSpec, x: Tensor) -> Tensor:
    (w, _), (b, _) = spec.params
    return T.conv2d(x, params[w], params[b], stride=spec.stride, padding=spec.padding, groups=spec.groups)


def stem_forward(params: dict[str, Tensor], config: ModelConfig, pre: Tensor, post: Tensor) -> Tensor:
    """Fuse the image pair into one stride-2 map of width C1.

    Each image passes through its own strided 3x3 conv; the branch outputs
    are concatenated and mixed by a depthwise / pointwise / depthwise
    sandwich.  No activations: the first encoder stage follows immediately.
    """
    if pre.shape != post.shape:
        raise ShapeError(f"stem: image pair shapes differ, {pre.shape} vs {post.shape}")
    if pre.shape[1] != 3:
        raise ShapeError(f"stem: expected 3-channel images, got C={pre.shape[1]}")
    sm = _spec_map(config)
    x = T.concat_channel([_conv(params, sm["stem.pre"], pre), _conv(params, sm["stem.post"], post)])
    f = _conv(params, sm["stem.dw1"], x)
    f = _conv(params, sm["stem.pw"], f)
    f = _conv(params, sm["stem.dw2"], f)
    return f


def encoder_forward(params: dict[str, Tensor], config: ModelConfig, f: Tensor) -> PyramidFeatures:
    """Four stages of strided conv + residual blocks; emits the pyramid."""
    if f.shape[2] < 16 or f.shape[3] < 16:
        raise ConfigError(f"encoder input {f.shape} too small to survive four halvings")
    sm = _spec_map(config)
    stages = []
    h = f
    for i in range(4):
        h = _conv(params, sm[f"enc{i + 1}.down"], h)
        for j in range(config.encoder_depths[i]):
            r = _conv(params, sm[f"enc{i + 1}.res{j + 1}.conv1"], h)
            r = T.relu(r)
            r = _conv(params, sm[f"enc{i + 1}.res{j + 1}.conv2"], r)
            h = T.relu(T.add(h, r))
        stages.append(h)
    return PyramidFeatures(*stages)


def _resize_to_s1(pyr: PyramidFeatures) -> list[Tensor]:
    """s2, s3 and s4 bilinearly resized to the spatial size of s1."""
    return [T.bilinear_resize(s, *pyr.s1.shape[2:]) for s in (pyr.s2, pyr.s3, pyr.s4)]


def emff_fuse(pyr: PyramidFeatures, widths: tuple[int, int, int, int]) -> tuple[Tensor, Tensor, FusionDetail]:
    """Parameter-free pyramid fusion at the finest pyramid resolution.

    The deepest map is channel-averaged down to C3 width and gated by the
    tanh of the stage-3 channel mean; the gated sum cascades toward the
    finest stage through avg/max channel pooling and additions.  The fused
    map concatenates (S1 + cascade) with the resized original deepest map,
    giving C1 + C4 channels and zero learnable parameters.
    """
    c1, c2, c3, _ = widths
    s2r, s3r, s4r = _resize_to_s1(pyr)
    s4_pooled = T.channel_avg_pool(s4r, c3)
    gate = T.tanh(T.channel_mean(s3r))
    e4 = T.mul_broadcast(gate, s4_pooled)
    e4_plus = T.add(s3r, e4)
    s3_pooled = T.channel_avg_pool(e4_plus, c2)
    s2_pooled = T.channel_max_pool(T.add(s2r, s3_pooled), c1)
    fused = T.concat_channel([T.add(pyr.s1, s2_pooled), s4r])
    fused_mean = T.channel_mean(fused)
    return fused, fused_mean, FusionDetail(s3=s3r, s4=s4r, gate=gate, e4=e4, e4_plus=e4_plus)


def naive_fuse(
    params: dict[str, Tensor], pyr: PyramidFeatures, config: ModelConfig
) -> tuple[Tensor, Tensor, FusionDetail]:
    """Baseline fusion: resize, concatenate all widths, 1x1-project to C1+C4."""
    s2r, s3r, s4r = _resize_to_s1(pyr)
    cat = T.concat_channel([pyr.s1, s2r, s3r, s4r])
    fused = _conv(params, _spec_map(config)["fuse.proj"], cat)
    fused_mean = T.channel_mean(fused)
    return fused, fused_mean, FusionDetail(s3=s3r, s4=s4r)


def head_forward(
    params: dict[str, Tensor],
    config: ModelConfig,
    fused: Tensor,
    fused_mean: Tensor,
    out_size: tuple[int, int],
) -> tuple[Tensor, Tensor, Tensor]:
    """Two 1x1 convs then upsampling: logits, probabilities, auxiliary map."""
    sm = _spec_map(config)
    h = T.relu(_conv(params, sm["head.fc1"], fused))
    logits_small = _conv(params, sm["head.fc2"], h)
    logits = T.bilinear_resize(logits_small, *out_size)
    probs = T.softmax_channel(logits)
    boundary = T.sigmoid(T.bilinear_resize(fused_mean, *out_size))
    return logits, probs, boundary


class ChangeDetector:
    """The trainable model: config plus named parameters."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None, seed: int = 0):
        """`params` (else ``init_params(config, seed)``) in any order, checked against `config`'s
        names and shapes and held in ``parameter_names(config)`` order; a mismatch is a ConfigError."""
        self.config = config
        if params is None:
            params = init_params(config, seed=seed)
        expected = [pair for spec in conv_specs(config) for pair in spec.params]
        differ = set(params) ^ {name for name, _ in expected}
        if differ:
            raise ConfigError(f"parameter names do not match config: {sorted(differ)[:6]}")
        self.params = {}
        for name, shape in expected:
            if params[name].shape != shape:
                raise ConfigError(f"parameter {name!r} has shape {params[name].shape}, config expects {shape}")
            self.params[name] = params[name]

    def _as_input(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype), requires_grad=False)
        return x

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def forward(self, pre, post) -> ModelOutputs:
        pre = self._as_input(pre)
        post = self._as_input(post)
        n, c, h, w = pre.shape
        if h < 32 or w < 32 or h % 32 or w % 32:
            raise ShapeError(f"input H and W must be positive multiples of 32, got {h}x{w}")
        with T.stage("stem"):
            f = stem_forward(self.params, self.config, pre, post)
        with T.stage("encoder"):
            pyr = encoder_forward(self.params, self.config, f)
        with T.stage("fusion"):
            if self.config.fusion_mode == "emff":
                fused, fused_mean, _ = emff_fuse(pyr, self.config.encoder_widths)
            else:
                fused, fused_mean, _ = naive_fuse(self.params, pyr, self.config)
        del pyr, _  # the head reads only the fused maps; freeing the rest first lowers peak memory
        with T.stage("head"):
            logits, probs, boundary = head_forward(self.params, self.config, fused, fused_mean, (h, w))
        return ModelOutputs(logits=logits, probs=probs, boundary=boundary, fused=fused)

    def predict_probs(self, pre, post) -> np.ndarray:
        """The (N, 2, H, W) probabilities of a forward pass, on up to two threads.

        Every forward op works per image, so splitting a batch is exact.  On
        a process that may use two or more CPUs, a batch whose first N // 2
        images hold at least ``SPLIT_MIN_PIXELS`` pixels splits there: the
        process's two long-lived forward workers run one part each, writing
        into one output array, while the calling thread waits for both and
        re-raises what either raised.  The batch runs whole on the calling
        thread otherwise, and while a Tape or FlopCounter observes this
        thread (see ``tensor.recording``): both are per thread and would
        miss the workers' parts.
        """
        pre = self._as_input(pre)
        post = self._as_input(post)
        n, _, h, w = pre.shape
        # A mismatched pair goes whole to forward, whose error names the full shapes.
        if (n // 2) * h * w < SPLIT_MIN_PIXELS or pre.shape != post.shape or usable_cpus() < 2 or T.recording():
            return self.forward(pre, post).probs.data
        out = np.empty((n, 2, *pre.shape[2:]), dtype=pre.dtype)
        parts = (slice(0, n // 2), slice(n // 2, n))
        results = queue.SimpleQueue()  # one None or exception per part

        def run(part: slice):
            try:
                out[part] = self.forward(pre.data[part], post.data[part]).probs.data
                results.put(None)
            except BaseException as exc:  # re-raised on the calling thread below
                results.put(exc)

        for jobs, part in zip(_forward_workers(), parts):
            jobs.put(functools.partial(run, part))
        for exc in [results.get() for _ in parts]:  # both parts finish before this raises
            if exc is not None:
                raise exc
        return out


# The forward workers: two daemon threads per process, started at the first
# split, each running its queued parts in order until the process exits.
# Callers on several threads may queue at once; each waits only for its own
# parts.  The caller runs no part: a part on the main thread took about
# 3,700 minor page faults (15 MB) per batch-8 128x128 evaluate, whether the
# other part ran on a per-call thread or a long-lived one, against 0-1 with
# both parts on long-lived workers.  glibc's trim threshold, which follows
# the largest block it has unmapped, is the likely cause.
_worker_queues: tuple[queue.SimpleQueue, ...] = ()
_worker_lock = threading.Lock()


def _forward_workers() -> tuple[queue.SimpleQueue, ...]:
    """The job queues of the two forward workers; the first call starts them."""
    global _worker_queues
    with _worker_lock:
        if not _worker_queues:
            _worker_queues = (queue.SimpleQueue(), queue.SimpleQueue())
            for jobs in _worker_queues:
                threading.Thread(target=_serve, args=(jobs,), name="changedet-forward", daemon=True).start()
        return _worker_queues


def _serve(jobs: queue.SimpleQueue):
    while True:
        jobs.get()()  # a job catches what it raises, so the worker never stops


def _forget_workers():
    # A forked child holds only the thread that forked, so its first split
    # starts workers of its own; the lock may have been held mid-fork.
    global _worker_queues, _worker_lock
    _worker_queues = ()
    _worker_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict_mask(probs) -> np.ndarray:
    """Per-pixel argmax over the two classes; ties resolve to no-change."""
    arr = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    if arr.ndim != 4 or arr.shape[1] != 2:
        raise ShapeError(f"predict_mask expects (N,2,H,W) probabilities, got {arr.shape}")
    # argmax over two classes as one comparison: class 1 wins only where
    # class 0 is not at least as large and is not NaN (argmax counts NaN as
    # the maximum and takes the first index on ties).
    a0, a1 = arr[:, 0], arr[:, 1]
    return (~(a0 >= a1) & (a0 == a0)).view(np.uint8)
