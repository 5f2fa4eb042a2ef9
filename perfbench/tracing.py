"""Span tracing for the traced run, by patching changedet from the outside.

Each entry of PATCH_TABLE names a function and the namespace its caller
looks it up in: ``model.py`` calls ``T.conv2d``, so conv2d is patched on
the tensor module, while ``train.py`` imported ``adamw_step`` by name, so
that one is patched on the train module.  The wrappers record one span per
call (name, start, end, parent span) in memory; ``Tracer.patched`` puts
every original object back on exit, so an untraced run pays no wrapper
cost.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from changedet import checkpoint, data, metrics, model, tensor, train

# Public tensor ops other than conv2d and the resize pair.  Their self time
# is summed into tensor.other_ops.self_ms.
OTHER_OPS = (
    "relu", "tanh", "sigmoid", "elementwise", "add", "mul_broadcast", "scale",
    "concat_channel", "softmax_channel", "channel_avg_pool", "channel_max_pool",
    "channel_mean", "sum_all", "resize_bilinear_array",
)

# (namespace the caller looks the name up in, attribute, span name)
PATCH_TABLE = (
    (tensor, "conv2d", "tensor.conv2d"),
    (tensor, "bilinear_resize", "tensor.bilinear_resize"),
    (tensor, "resize_weights", "tensor.resize_weights"),
    *((tensor, op, f"tensor.{op}") for op in OTHER_OPS if op != "resize_bilinear_array"),
    (train, "resize_bilinear_array", "tensor.resize_bilinear_array"),
    (tensor.Tape, "backward", "tensor.Tape.backward"),
    (model, "stem_forward", "model.stem_forward"),
    (model, "encoder_forward", "model.encoder_forward"),
    (model, "emff_fuse", "model.emff_fuse"),
    (model, "head_forward", "model.head_forward"),
    (train, "compute_losses", "losses.compute_losses"),
    (train, "adamw_step", "optim.adamw_step"),
    (train, "batch_iter", "train.data_wait"),
    (train, "augment_pair", "train.augment_pair"),
    (train, "oracle_teacher_predict", "train.teacher_predict"),
    (train, "evaluate", "train.epoch_eval"),
    (data, "load_sample", "data.load_sample"),
    (data, "load_ppm", "netpbm.load_ppm"),
    (data, "load_pgm", "netpbm.load_pgm"),
    (metrics, "confusion_from_masks", "metrics.confusion_from_masks"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
)

# (name, unit, better).  Unless noted, a value is per workload operation
# in the traced run: ".ms" is inclusive time, ".self_ms" excludes child spans.
PER_LAYER = (
    ("tensor.conv2d.calls", "count", "lower"),
    ("tensor.conv2d.self_ms", "ms", "lower"),
    ("tensor.conv2d.mflop", "MFLOP", "lower"),
    ("tensor.conv2d.gflop_per_s", "GFLOP/s", "higher"),  # forward conv FLOPs over conv self time
    ("tensor.bilinear_resize.self_ms", "ms", "lower"),
    ("tensor.resize_weights.calls", "count", "lower"),
    ("tensor.resize_weights.self_ms", "ms", "lower"),
    ("tensor.Tape.backward.ms", "ms", "lower"),
    ("tensor.Tape.records", "count", "lower"),
    ("tensor.other_ops.self_ms", "ms", "lower"),
    ("model.stem_forward.ms", "ms", "lower"),
    ("model.encoder_forward.ms", "ms", "lower"),
    ("model.emff_fuse.ms", "ms", "lower"),
    ("model.head_forward.ms", "ms", "lower"),
    ("model.forward.mflop", "MFLOP", "lower"),  # one pair, from profiling.count_flops
    ("losses.compute_losses.ms", "ms", "lower"),
    ("optim.adamw_step.ms", "ms", "lower"),
    ("train.data_wait.ms", "ms", "lower"),
    ("train.augment_pair.ms", "ms", "lower"),
    ("train.teacher_predict.ms", "ms", "lower"),
    ("train.epoch_eval.ms", "ms", "lower"),
    ("data.load_sample.calls", "count", "lower"),
    ("data.load_sample.ms", "ms", "lower"),
    ("netpbm.load_ppm.ms", "ms", "lower"),
    ("netpbm.load_pgm.ms", "ms", "lower"),
    ("netpbm.bytes_read", "B", "lower"),
    ("metrics.confusion_from_masks.ms", "ms", "lower"),
    ("checkpoint.load_checkpoint.ms", "ms", "lower"),  # per load, in set-up
    ("trace.overhead_pct", "%", "lower"),  # traced over untraced latency_ms_p50
)


class Tracer:
    """In-memory spans of one traced run; each span is [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span: list):
        span[2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return traced

    def _wrap_iter(self, name: str, fn):
        # One span per item drawn, so the span is the consumer's wait.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                span = self._begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._end(span)
                yield item

        return traced

    def _wrapper(self, name: str, fn):
        if name == "train.data_wait":
            return self._wrap_iter(name, fn)
        traced = self.wrap(name, fn)
        if name == "tensor.Tape.backward":
            def backward(tape, loss):
                self.counts["tensor.Tape.records"] += len(tape)
                return traced(tape, loss)

            return backward
        if name.startswith("netpbm."):
            def load(path):
                self.counts["netpbm.bytes_read"] += os.path.getsize(path)
                return traced(path)

            return load
        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper of PATCH_TABLE; restore the originals on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCH_TABLE]
        try:
            for (owner, attr, name), (_, _, original) in zip(PATCH_TABLE, saved):
                setattr(owner, attr, self._wrapper(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> tuple[int, dict[str, int]]:
        """Where the timed loop starts: span index and a copy of the counts."""
        return len(self.spans), dict(self.counts)

    def dump(self, path: Path):
        """Write every span, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}))


def layer_metrics(
    tracer: Tracer,
    mark: tuple[int, dict[str, int]],
    ops: int,
    conv_flops: int,
    forward_mflop: float,
    overhead_pct: float,
) -> dict[str, float]:
    """Reduce the spans of the timed loop (those after ``mark``) to PER_LAYER."""
    start, counts_before = mark
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, s, e, parent in spans[start:]:
        if parent >= start:
            child_s[parent] += e - s
    calls: dict[str, int] = defaultdict(int)
    total_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i in range(start, len(spans)):
        name, s, e, _ = spans[i]
        calls[name] += 1
        total_s[name] += e - s
        self_s[name] += e - s - child_s[i]
    loads = [e - s for name, s, e, _ in spans if name == "checkpoint.load_checkpoint"]
    ops = max(ops, 1)

    def per_op(n):
        return n / ops

    def counted(key):
        return per_op(tracer.counts[key] - counts_before.get(key, 0))

    out = {
        "tensor.conv2d.calls": per_op(calls["tensor.conv2d"]),
        "tensor.conv2d.self_ms": per_op(1e3 * self_s["tensor.conv2d"]),
        "tensor.conv2d.mflop": per_op(conv_flops / 1e6),
        "tensor.conv2d.gflop_per_s": conv_flops / self_s["tensor.conv2d"] / 1e9 if self_s["tensor.conv2d"] else 0.0,
        "tensor.bilinear_resize.self_ms": per_op(1e3 * self_s["tensor.bilinear_resize"]),
        "tensor.resize_weights.calls": per_op(calls["tensor.resize_weights"]),
        "tensor.resize_weights.self_ms": per_op(1e3 * self_s["tensor.resize_weights"]),
        "tensor.Tape.backward.ms": per_op(1e3 * total_s["tensor.Tape.backward"]),
        "tensor.Tape.records": counted("tensor.Tape.records"),
        "tensor.other_ops.self_ms": per_op(1e3 * sum(self_s[f"tensor.{op}"] for op in OTHER_OPS)),
        "model.forward.mflop": forward_mflop,
        "data.load_sample.calls": per_op(calls["data.load_sample"]),
        "netpbm.bytes_read": counted("netpbm.bytes_read"),
        "checkpoint.load_checkpoint.ms": 1e3 * sum(loads) / len(loads) if loads else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    for name, _, _ in PER_LAYER:
        if name not in out:
            out[name] = per_op(1e3 * total_s[name.removesuffix(".ms")])
    return {name: out[name] for name, _, _ in PER_LAYER}
