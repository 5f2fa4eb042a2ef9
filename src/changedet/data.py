"""Synthetic bitemporal scenes, on-disk datasets, and batch iteration.

A scene is a smooth textured background plus a handful of non-overlapping
filled rectangles and ellipses.  Each shape exists in the first epoch, the
second, or both; the change mask is the exact XOR of the two occupancy
rasters (pixel-center rasterization, no anti-aliasing).  The second image
additionally gets a global photometric drift and both images get per-pixel
noise, neither of which touches the mask: illumination change is not
semantic change.

Layout on disk: <root>/<split>/{A,B,label}/<id>.{ppm,pgm} plus a manifest
text file per split listing ids in order.  Everything is a pure function of
the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fileio import read_input, write_atomic
from .netpbm import load_pgm, load_ppm, save_pgm, save_ppm
from .tensor import resize_bilinear_array

SPLITS = ("train", "val", "test")
MAX_TRIES = 80  # scenes render_sample draws before it calls the change-fraction bounds infeasible


@dataclass(frozen=True)
class SynthConfig:
    """The `[data]` section; the scene retry budget is the constant MAX_TRIES."""

    image_size: int = 64
    train_count: int = 200
    val_count: int = 50
    test_count: int = 50
    shape_min: int = 2
    shape_max: int = 5
    change_min: float = 0.05
    change_max: float = 0.35
    drift: float = 0.08
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 32 or self.image_size % 32:
            raise ConfigError(f"image_size must be a multiple of 32, got {self.image_size}")
        if not 0.0 <= self.change_min <= self.change_max <= 1.0:
            raise ConfigError(f"need 0 <= change_min <= change_max <= 1, got {self.change_min}, {self.change_max}")
        if not 1 <= self.shape_min <= self.shape_max:
            raise ConfigError(f"need 1 <= shape_min <= shape_max, got {self.shape_min}, {self.shape_max}")
        if min(self.train_count, self.val_count, self.test_count) < 0:
            raise ConfigError("split counts must be non-negative")
        if self.drift < 0 or self.noise_sigma < 0:
            raise ConfigError("drift and noise_sigma must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BitemporalSample:
    pre: np.ndarray  # (3,H,W) float32 in [0,1]
    post: np.ndarray  # (3,H,W) float32 in [0,1]
    mask: np.ndarray  # (H,W) uint8 in {0,1}


@dataclass
class DatasetIndex:
    root: Path
    split: str
    ids: list[str]

    def __len__(self) -> int:
        return len(self.ids)


# ---------------------------------------------------------------------------
# scene synthesis


def _background(rng: np.random.Generator, size: int) -> np.ndarray:
    coarse = rng.uniform(0.25, 0.75, size=(3, size // 8, size // 8))
    return resize_bilinear_array(coarse, size, size).astype(np.float32)


def _shape_occupancy(rng: np.random.Generator, size: int, taken: list[tuple]) -> np.ndarray | None:
    """One random rectangle or ellipse that avoids the already-taken boxes."""
    for _ in range(30):
        w = int(rng.uniform(0.15, 0.35) * size)
        h = int(rng.uniform(0.15, 0.35) * size)
        x0 = int(rng.integers(1, size - w))
        y0 = int(rng.integers(1, size - h))
        box = (y0, x0, y0 + h, x0 + w)
        if any(not (box[2] <= t[0] or t[2] <= box[0] or box[3] <= t[1] or t[3] <= box[1]) for t in taken):
            continue
        occ = np.zeros((size, size), dtype=bool)
        if rng.uniform() < 0.5:
            occ[y0 : y0 + h, x0 : x0 + w] = True
        else:
            cy, cx = y0 + h / 2.0, x0 + w / 2.0
            ry, rx = h / 2.0, w / 2.0
            yy, xx = np.mgrid[0:size, 0:size]
            occ = ((yy + 0.5 - cy) / ry) ** 2 + ((xx + 0.5 - cx) / rx) ** 2 <= 1.0
        taken.append(box)
        return occ
    return None


def _shape_color(rng: np.random.Generator) -> np.ndarray:
    # strongly dark or strongly bright, so shapes always contrast with the
    # midtone background
    if rng.uniform() < 0.5:
        return rng.uniform(0.0, 0.2, size=3)
    return rng.uniform(0.8, 1.0, size=3)


def render_sample(cfg: SynthConfig, rng: np.random.Generator) -> BitemporalSample:
    """Draw one scene; raises ConfigError if the change-fraction bounds
    cannot be met within MAX_TRIES scenes."""
    lo, hi = cfg.change_min, cfg.change_max
    size = cfg.image_size
    for _ in range(MAX_TRIES):
        background = _background(rng, size)
        n_shapes = int(rng.integers(cfg.shape_min, cfg.shape_max + 1))
        taken: list[tuple] = []
        pre_occ = np.zeros((size, size), dtype=bool)
        post_occ = np.zeros((size, size), dtype=bool)
        pre_img = background.copy()
        post_img = background.copy()
        for _ in range(n_shapes):
            occ = _shape_occupancy(rng, size, taken)
            if occ is None:
                continue
            color = _shape_color(rng).reshape(3, 1, 1).astype(np.float32)
            state = rng.choice(("both", "pre_only", "post_only"), p=(0.4, 0.3, 0.3))
            if state in ("both", "pre_only"):
                pre_occ |= occ
                pre_img = np.where(occ, color, pre_img)
            if state in ("both", "post_only"):
                post_occ |= occ
                post_img = np.where(occ, color, post_img)
        mask = (pre_occ ^ post_occ).astype(np.uint8)
        fraction = float(mask.mean())
        # photometric drift on the second epoch only; never touches the mask
        gain = 1.0 + rng.uniform(-cfg.drift, cfg.drift, size=(3, 1, 1))
        offset = rng.uniform(-cfg.drift, cfg.drift, size=(3, 1, 1))
        post_img = post_img * gain + offset
        pre_img = pre_img + rng.normal(0.0, cfg.noise_sigma, size=pre_img.shape)
        post_img = post_img + rng.normal(0.0, cfg.noise_sigma, size=post_img.shape)
        if not (lo <= fraction <= hi):
            continue
        return BitemporalSample(
            pre=np.clip(pre_img, 0.0, 1.0).astype(np.float32),
            post=np.clip(post_img, 0.0, 1.0).astype(np.float32),
            mask=mask,
        )
    raise ConfigError(
        f"could not hit change fraction in [{lo}, {hi}] within {MAX_TRIES} tries; "
        "bounds are infeasible for the configured shapes"
    )


# ---------------------------------------------------------------------------
# on-disk datasets


def sample_paths(root: Path, split: str, sample_id: str) -> tuple[Path, Path, Path]:
    base = Path(root) / split
    return (
        base / "A" / f"{sample_id}.ppm",
        base / "B" / f"{sample_id}.ppm",
        base / "label" / f"{sample_id}.pgm",
    )


def generate_synthetic_dataset(cfg: SynthConfig, out_root) -> dict[str, DatasetIndex]:
    """Render and write all splits; returns one index per split.

    Per-sample rng streams are spawned from (seed, split index, sample
    index), so any sample's retries never shift its neighbours.
    """
    out_root = Path(out_root)
    indexes: dict[str, DatasetIndex] = {}
    counts = (cfg.train_count, cfg.val_count, cfg.test_count)
    for split_idx, (split, count) in enumerate(zip(SPLITS, counts)):
        for sub in ("A", "B", "label"):
            (out_root / split / sub).mkdir(parents=True, exist_ok=True)
        ids = []
        for i in range(count):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(split_idx, i)))
            sample = render_sample(cfg, rng)
            sample_id = f"{split}_{i:05d}"
            a, b, label = sample_paths(out_root, split, sample_id)
            save_ppm(sample.pre, a)
            save_ppm(sample.post, b)
            save_pgm(sample.mask.astype(np.float32), label)
            ids.append(sample_id)
        write_atomic(out_root / split / "manifest.txt", "".join(f"{s}\n" for s in ids).encode("utf-8"))
        indexes[split] = DatasetIndex(root=out_root, split=split, ids=ids)
    return indexes


def load_index(root, split: str) -> DatasetIndex:
    root = Path(root)
    manifest = root / split / "manifest.txt"
    try:
        text = read_input(manifest, "manifest").decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {manifest} is not valid UTF-8: {exc}")
    first_line: dict[str, int] = {}  # id -> manifest line, in manifest order
    for lineno, line in enumerate(text.splitlines(), 1):
        sample_id = line.strip()
        # an id names one file per folder; a path in it would reach outside the dataset root
        if any(c in sample_id for c in "/\\\0") or sample_id in (".", ".."):
            raise DataError(f"{manifest}:{lineno}: sample id {sample_id!r} is not a single path component")
        # a repeated id would be scored twice by eval and trained on twice per epoch
        if sample_id in first_line:
            raise DataError(f"{manifest}:{lineno}: sample id {sample_id!r} repeats line {first_line[sample_id]}")
        if sample_id:
            first_line[sample_id] = lineno
    return DatasetIndex(root=root, split=split, ids=list(first_line))


def load_sample(index: DatasetIndex, sample_id: str) -> BitemporalSample:
    a, b, label = sample_paths(index.root, index.split, sample_id)
    pre = load_ppm(a)
    post = load_ppm(b)
    mask_map = load_pgm(label)
    if pre.shape != post.shape or pre.shape[1:] != mask_map.shape:
        raise DataError(
            f"sample {sample_id!r}: inconsistent shapes pre={pre.shape} "
            f"post={post.shape} mask={mask_map.shape}"
        )
    if not ((mask_map == 0) | (mask_map == 1)).all():
        raise DataError(f"sample {sample_id!r}: mask is not binary")
    return BitemporalSample(pre=pre, post=post, mask=mask_map.astype(np.uint8))


def batch_iter(index: DatasetIndex, batch_size: int, seed: int = 0, shuffle: bool = False, epoch: int = 0):
    """Yield (pre (N,3,H,W), post (N,3,H,W), mask (N,H,W), ids) batches.

    Shuffle order is a pure function of (seed, epoch); the final partial
    batch is emitted as-is.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = list(range(len(index.ids)))
    if shuffle:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch,)))
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = [index.ids[j] for j in order[start : start + batch_size]]
        samples = [load_sample(index, sid) for sid in chunk]
        shapes = [s.pre.shape[1:] for s in samples]
        for sid, shape in zip(chunk, shapes):
            if shape != shapes[0]:
                raise DataError(f"batch mixes image sizes: sample {chunk[0]!r} is {shapes[0]}, sample {sid!r} is {shape}")
        pre = np.stack([s.pre for s in samples])
        post = np.stack([s.post for s in samples])
        mask = np.stack([s.mask for s in samples])
        yield pre, post, mask, chunk
