import itertools
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from changedet.checkpoint import save_checkpoint
from changedet.data import SynthConfig, generate_synthetic_dataset
from changedet.errors import ConfigError, DataError, FormatError
from changedet.model import ChangeDetector, preset
from changedet.train import TrainConfig, fit, make_teacher

E2E_DATA = SynthConfig(
    image_size=64,
    train_count=200,
    val_count=50,
    test_count=50,
    change_min=0.15,
    change_max=0.40,
    seed=0,
)
E2E_TRAIN = TrainConfig(
    batch_size=2,
    base_lr=3e-3,
    epochs=20,
    seed=0,
    teacher_mode="oracle",
    augment=False,
)


@pytest.fixture(scope="session")
def e2e_run(tmp_path_factory):
    """One full desk-scale training run, shared by every test that needs it."""
    root = tmp_path_factory.mktemp("e2e")
    start = time.perf_counter()
    generate_synthetic_dataset(E2E_DATA, root)
    student = ChangeDetector(preset("tiny"), seed=0)
    result = fit(student, make_teacher(E2E_TRAIN), root, E2E_TRAIN)
    seconds = time.perf_counter() - start
    ckpt = root / "student.ckpt"
    save_checkpoint(result.model, ckpt)
    return SimpleNamespace(root=root, result=result, seconds=seconds, ckpt=ckpt)


# A header edit writes a run of these: digits and whitespace keep a text
# header parseable while making its numbers large, and 0x00 and 0xff make a
# binary length or dimension tiny or huge.
HEADER_BYTES = np.frombuffer(b"0123456789 \n#=,\x00\x7f\xff", dtype=np.uint8)


def _mutants(blob: bytes, header: int, rng):
    """One seeded corruption of `blob` after another, cycling through byte
    flips, a truncation, inserted bytes and the replacement of one of the
    first `header` bytes by one to four header bytes."""
    for kind in itertools.cycle(("flip", "truncate", "insert", "header")):
        out = bytearray(blob)
        if kind == "flip":
            for at in rng.integers(0, len(out), size=rng.integers(1, 5)):
                out[at] ^= int(rng.integers(1, 256))
        elif kind == "truncate":
            del out[int(rng.integers(0, len(out))) :]
        elif kind == "insert":
            at = int(rng.integers(0, len(out) + 1))
            out[at:at] = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        else:
            at = int(rng.integers(0, header))
            out[at : at + 1] = rng.choice(HEADER_BYTES, size=int(rng.integers(1, 5))).tobytes()
        yield bytes(out)


@pytest.fixture
def mutation_sweep():
    """Check a file reader against seeded corruptions of one good file.

    ``sweep(blob, path, load, header)`` writes each of `count` mutants of
    `blob` per seed to `path` and calls ``load()``.  The load must return or
    raise FormatError, ConfigError or DataError, and its traced peak
    allocation must stay within three times the file size plus 64 KiB: a
    reader that allocates from a size it has not checked fails here.
    """

    def sweep(blob: bytes, path, load, header: int, seeds=(0, 1), count=150):
        tracemalloc.start()
        try:
            for seed in seeds:
                mutants = _mutants(blob, header, np.random.default_rng(seed))
                for i, mutant in zip(range(count), mutants):
                    path.write_bytes(mutant)
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    try:
                        load()
                    except (FormatError, ConfigError, DataError):
                        pass
                    except Exception as exc:
                        pytest.fail(f"seed {seed}, mutant {i}: {exc!r}")
                    peak = tracemalloc.get_traced_memory()[1] - before
                    assert peak <= 3 * len(mutant) + 64 * 1024, f"seed {seed}, mutant {i}: peak {peak} B"
        finally:
            tracemalloc.stop()

    return sweep
