"""Parameter, FLOP, and latency accounting for the detector.

Parameter and FLOP counts are both a `StageCounts`. FLOPs are counted over
one real batch-of-one forward pass under op-site counters and split by the
stage label each op ran in, so the report reflects the ops actually executed
(resampling, gating, softmax included) rather than a shadow shape program
that could drift from the implementation.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import ChangeDetector, ModelConfig, usable_cpus
from .tensor import REAL32, FlopCounter, Tensor

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
class StageCounts:
    """A total split by stage; only `count_flops` fills `by_op`, the FLOPs of each op name."""

    total: int
    stem: int
    encoder: int
    fusion: int
    head: int
    by_op: dict[str, int] = field(default_factory=dict)


def param_counts(params: dict[str, Tensor]) -> StageCounts:
    """Total parameter count plus a per-submodule breakdown."""
    buckets = {"stem": 0, "encoder": 0, "fusion": 0, "head": 0}
    for name, p in params.items():
        prefix = name.split(".", 1)[0]
        if prefix not in _SUBMODULES:
            raise ConfigError(f"parameter {name!r} belongs to no known submodule")
        buckets[_SUBMODULES[prefix]] += p.numel()
    return StageCounts(total=sum(buckets.values()), **buckets)


def _batch_of_one(size: tuple[int, int]) -> tuple[int, int, int, int]:
    """The (1, 3, H, W) shape of one image of `size` (H, W), which must be positive multiples of 32."""
    h, w = size
    if h < 32 or w < 32 or h % 32 or w % 32:
        raise ConfigError(f"input size must be positive multiples of 32, got {h}x{w}")
    if 3 * h * w * 4 > sys.maxsize:  # float32 bytes; numpy raises ValueError, not MemoryError, past its index range
        raise MemoryError(f"Unable to allocate an input image of shape (1, 3, {h}, {w}): it exceeds the address space")
    return (1, 3, h, w)


def count_flops(config: ModelConfig, input_size: tuple[int, int]) -> StageCounts:
    """FLOPs of one forward pass of a fresh seed-0 model on zero images, split by stage."""
    zeros = np.zeros(_batch_of_one(input_size), dtype=REAL32)
    with FlopCounter() as counter:
        ChangeDetector(config).forward(zeros, zeros)
    stages = {name: counter.by_stage[name] for name in ("stem", "encoder", "fusion", "head")}
    return StageCounts(total=counter.total, by_op=counter.by_op, **stages)


def environment_info() -> dict[str, str]:
    """The machine, numpy and its BLAS build, and the CPU and thread settings that timings depend on.

    ``cpu_affinity`` is the number of CPUs this process may run on, which
    decides whether ``ChangeDetector.predict_probs`` splits a batch.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": str(os.cpu_count()),
        "cpu_affinity": str(usable_cpus()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def measure_latency(
    model: ChangeDetector,
    input_size: tuple[int, int],
    warmups: int = 5,
    runs: int = 50,
) -> list[float]:
    """Wall-clock milliseconds of each timed batch-of-one forward pass, after warmups."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if warmups < 0:
        raise ConfigError(f"warmups must be >= 0, got {warmups}")
    shape = _batch_of_one(input_size)
    rng = np.random.default_rng(0)
    pre = rng.random(shape, dtype=np.float32)
    post = rng.random(shape, dtype=np.float32)
    for _ in range(warmups):
        model.forward(pre, post)
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        model.forward(pre, post)
        samples.append((time.perf_counter() - start) * 1e3)
    return samples
