"""The three perfbench workloads: set-up, a timed closed loop, output checks.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned.  ``setup_<name>(seed, work, size)``
builds every input from the seed (files go under ``work``) and returns the
timed loop, ``run(seconds) -> Outcome``.  The program sees only the
generated inputs.

The loop runs in windows of equal work (one ``fit`` of ``train``, a fixed
number of passes over the inputs of the others) until ``seconds`` have
passed, and always finishes the window it is in, so operation k of every
window is the same work.  Between windows, untimed, it collects garbage:
a fit leaves reference cycles behind, and one fit's garbage should not
count in the memory or the time of the next.  ``run.loop_metrics`` reduces
the windows.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from changedet import checkpoint, data, metrics, model, train
from changedet.errors import ChangeDetError

PRESET = "tiny"

# Input sizes of a benchmark run, and the tiny ones the smoke tests use.
# Set-up makes warmup_passes untimed passes over the inputs, so the timed
# loop starts warm.  A window of the timed loop is one fit of ``train`` and
# window_passes passes over the inputs of the others, about half a second each.
FULL = {
    "train": dict(image_size=64, train_count=16, val_count=4, batch_size=2, epochs=2),
    "infer224": dict(image_size=224, pairs=4, warmup_passes=10, window_passes=4),
    "eval_disk": dict(image_size=128, test_count=48, batch_size=8, warmup_passes=3, window_passes=1),
}
SMOKE = {
    "train": dict(image_size=64, train_count=4, val_count=2, batch_size=2, epochs=1),
    "infer224": dict(image_size=64, pairs=2, warmup_passes=1, window_passes=1),
    "eval_disk": dict(image_size=64, test_count=8, batch_size=8, warmup_passes=1, window_passes=1),
}


@dataclass
class Window:
    """One stretch of equal work in a timed loop.

    ``marks`` are the clock readings that cut the window into consecutive
    segments: its start, the end of each operation (the teacher calls of a
    fit), and its end.
    """

    marks: list[float]
    items: int  # training samples, forwards, or scored pairs
    latencies_ms: list[float]

    @property
    def segments_s(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


@dataclass
class Outcome:
    """What one timed loop did and how long each of its windows took."""

    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""  # of the checked outputs; a change between commits flags changed arithmetic

    @property
    def latencies_ms(self) -> list[float]:
        return [x for w in self.windows for x in w.latencies_ms]


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


class _StampingTeacher:
    """The oracle teacher, stamping the time of each call.

    ``fit`` calls its teacher once per optimizer step, so the gap between
    two stamps of one epoch is one whole step: teacher, forward, loss,
    backward and AdamW, then the next batch's data wait and augmentation.
    A gap across an epoch end would include validation, so stamps are kept
    per epoch.
    """

    def __init__(self):
        self.oracle = train.OracleTeacher()
        self.epochs: list[list[float]] = [[]]

    def predict(self, pre, post, gt):
        self.epochs[-1].append(time.perf_counter())
        return self.oracle.predict(pre, post, gt)

    def end_epoch(self, _line: str):
        self.epochs.append([])


def setup_train(seed: int, work: Path, size: dict):
    """train.fit of tiny with the oracle teacher and default augmentation; one op is one step."""
    root = work / "train-data"
    data.generate_synthetic_dataset(
        data.SynthConfig(
            image_size=size["image_size"],
            train_count=size["train_count"],
            val_count=size["val_count"],
            test_count=0,
            seed=seed,
        ),
        root,
    )
    config = train.TrainConfig(batch_size=size["batch_size"], epochs=size["epochs"], seed=seed, teacher_mode="oracle")
    steps = config.epochs * math.ceil(size["train_count"] / config.batch_size)

    def fit_once(cfg):
        teacher = _StampingTeacher()
        student = model.ChangeDetector(model.preset(PRESET), seed=seed)
        return train.fit(student, teacher, root, cfg, log=teacher.end_epoch), teacher

    digest = _digest(fit_once(config)[0].log_text().encode())  # warm-up, and the reference log

    def window(out: Outcome) -> Window:
        out.attempted += steps
        t0 = time.perf_counter()
        try:
            result, teacher = fit_once(config)
        except ChangeDetError:  # includes TrainingDiverged on a non-finite step loss
            out.failed += steps
            return Window([t0, time.perf_counter()], 0, [])
        t_end = time.perf_counter()
        if _digest(result.log_text().encode()) != digest or not all(math.isfinite(e.train_loss) for e in result.logs):
            out.failed += steps
        latencies = [1e3 * (b - a) for stamps in teacher.epochs for a, b in zip(stamps, stamps[1:])]
        marks = [t0, *(t for stamps in teacher.epochs for t in stamps), t_end]
        return Window(marks, config.epochs * size["train_count"], latencies)

    return _windowed(window, digest)


def setup_infer224(seed: int, work: Path, size: dict):
    """Batch-1 ChangeDetector.forward of tiny on in-memory random pairs, no tape."""
    rng = np.random.default_rng(seed)
    shape = (1, 3, size["image_size"], size["image_size"])
    pairs = [(rng.random(shape, dtype=np.float32), rng.random(shape, dtype=np.float32)) for _ in range(size["pairs"])]
    detector = model.ChangeDetector(model.preset(PRESET), seed=seed)
    reference = [detector.forward(pre, post).probs.data for pre, post in pairs]
    for _ in range(size["warmup_passes"] - 1):
        for pre, post in pairs:
            detector.forward(pre, post)
    digest = _digest(b"".join(r.tobytes() for r in reference))

    def window(out: Outcome) -> Window:
        latencies, marks = [], [time.perf_counter()]
        for k in list(range(len(pairs))) * size["window_passes"]:
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                probs = detector.forward(*pairs[k]).probs.data
                latencies.append(1e3 * (time.perf_counter() - t0))
            except ChangeDetError:
                out.failed += 1
                continue
            sums_ok = float(np.abs(probs.sum(axis=1) - 1.0).max()) <= 1e-5
            if not (sums_ok and np.array_equal(probs, reference[k])):
                out.failed += 1
            marks.append(time.perf_counter())
        return Window(marks, len(latencies), latencies)

    return _windowed(window, digest)


def setup_eval_disk(seed: int, work: Path, size: dict):
    """metrics.evaluate of a loaded checkpoint over an on-disk split; one op is one batch."""
    side, batch = size["image_size"], size["batch_size"]
    root = work / "eval-data"
    data.generate_synthetic_dataset(
        data.SynthConfig(image_size=side, train_count=0, val_count=0, test_count=size["test_count"], seed=seed),
        root,
    )
    ckpt = work / "eval.ckpt"
    checkpoint.save_checkpoint(model.ChangeDetector(model.preset(PRESET), seed=seed), ckpt)
    detector = checkpoint.load_checkpoint(ckpt)
    index = data.load_index(root, "test")
    batches = [data.DatasetIndex(root, "test", index.ids[i : i + batch]) for i in range(0, len(index), batch)]
    reference = [metrics.evaluate(detector, b, batch).counts for b in batches]
    for _ in range(size["warmup_passes"] - 1):
        for b in batches:
            metrics.evaluate(detector, b, batch)
    digest = _digest(repr(reference).encode())

    def window(out: Outcome) -> Window:
        latencies, marks, items = [], [time.perf_counter()], 0
        for k in list(range(len(batches))) * size["window_passes"]:
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                counts = metrics.evaluate(detector, batches[k], batch).counts
                latencies.append(1e3 * (time.perf_counter() - t0))
            except ChangeDetError:
                out.failed += 1
                continue
            items += len(batches[k])
            if counts.total != len(batches[k]) * side * side or counts != reference[k]:
                out.failed += 1
            marks.append(time.perf_counter())
        return Window(marks, items, latencies)

    return _windowed(window, digest)


def _windowed(window, digest: str):
    """The timed loop: whole windows until ``seconds`` have passed."""

    def run(seconds: float) -> Outcome:
        out = Outcome(digest=digest)
        start = time.perf_counter()
        while True:
            out.windows.append(window(out))
            gc.collect()
            if time.perf_counter() - start >= seconds:
                return out

    return run


WORKLOADS = {"train": setup_train, "infer224": setup_infer224, "eval_disk": setup_eval_disk}
