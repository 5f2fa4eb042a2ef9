"""Parameter, FLOP, and latency accounting for the detector.

FLOPs are counted by replaying a real batch-of-one forward pass under
op-site counters, so the report reflects the ops actually executed
(resampling, gating, softmax included) rather than a shadow shape
program that could drift from the implementation.
"""

from __future__ import annotations

import platform
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    ChangeDetector,
    ModelConfig,
    emff_fuse,
    encoder_forward,
    head_forward,
    init_params,
    naive_fuse,
    stem_forward,
)
from .tensor import REAL32, FlopCounter, Tensor

_SUBMODULES = {
    "stem": "stem",
    "enc1": "encoder",
    "enc2": "encoder",
    "enc3": "encoder",
    "enc4": "encoder",
    "fuse": "fusion",
    "head": "head",
}


@dataclass(frozen=True)
class ParamCount:
    total: int
    stem: int
    encoder: int
    fusion: int
    head: int


@dataclass(frozen=True)
class FlopReport:
    """Forward FLOPs for one image pair at the stated input size."""

    total: int
    stem: int
    encoder: int
    fusion: int
    head: int
    by_op: dict[str, int]
    input_size: tuple[int, int]


@dataclass(frozen=True)
class LatencyReport:
    latency_ms: float  # median over the timed runs
    runs: int
    warmups: int
    samples_ms: tuple[float, ...]
    environment: dict[str, str]

    @property
    def low_confidence(self) -> bool:
        return self.runs < 2


def param_counts(params: dict[str, Tensor]) -> ParamCount:
    """Total parameter count plus a per-submodule breakdown."""
    buckets = {"stem": 0, "encoder": 0, "fusion": 0, "head": 0}
    for name, p in params.items():
        prefix = name.split(".", 1)[0]
        if prefix not in _SUBMODULES:
            raise ConfigError(f"parameter {name!r} belongs to no known submodule")
        buckets[_SUBMODULES[prefix]] += p.numel()
    return ParamCount(total=sum(buckets.values()), **buckets)


def count_flops(config: ModelConfig, input_size: tuple[int, int] | None = None) -> FlopReport:
    """Count forward FLOPs per stage by running each stage under a counter.

    Parameter values do not affect counts, so a fresh seed-0 model is used.
    """
    h, w = input_size if input_size is not None else config.input_size
    if h % 32 or w % 32 or h < 32 or w < 32:
        raise ConfigError(f"input size must be a positive multiple of 32, got {h}x{w}")
    params = init_params(config, seed=0)
    pre = Tensor(np.zeros((1, 3, h, w), dtype=REAL32), requires_grad=False)
    post = Tensor(np.zeros((1, 3, h, w), dtype=REAL32), requires_grad=False)
    stages: dict[str, int] = {}
    by_op: dict[str, int] = {}

    def run(stage, fn):
        with FlopCounter() as counter:
            result = fn()
        stages[stage] = counter.total
        for op, n in counter.by_op.items():
            by_op[op] = by_op.get(op, 0) + n
        return result

    f = run("stem", lambda: stem_forward(params, config, pre, post))
    pyr = run("encoder", lambda: encoder_forward(params, config, f))
    if config.fusion_mode == "emff":
        fused, fused_mean, _ = run("fusion", lambda: emff_fuse(pyr, config.encoder_widths))
    else:
        fused, fused_mean, _ = run("fusion", lambda: naive_fuse(params, pyr, config))
    run("head", lambda: head_forward(params, config, fused, fused_mean, (h, w)))
    return FlopReport(total=sum(stages.values()), by_op=by_op, input_size=(h, w), **stages)


def environment_info() -> dict[str, str]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def measure_latency(
    model: ChangeDetector,
    input_size: tuple[int, int] | None = None,
    warmups: int = 5,
    runs: int = 50,
) -> LatencyReport:
    """Median wall-clock time of a batch-of-one forward pass, after warmups."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if warmups < 0:
        raise ConfigError(f"warmups must be >= 0, got {warmups}")
    h, w = input_size if input_size is not None else model.config.input_size
    rng = np.random.default_rng(0)
    pre = rng.random((1, 3, h, w), dtype=np.float32)
    post = rng.random((1, 3, h, w), dtype=np.float32)
    for _ in range(warmups):
        model.forward(pre, post)
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        model.forward(pre, post)
        samples.append((time.perf_counter() - start) * 1e3)
    return LatencyReport(
        latency_ms=float(statistics.median(samples)),
        runs=runs,
        warmups=warmups,
        samples_ms=tuple(samples),
        environment=environment_info(),
    )
