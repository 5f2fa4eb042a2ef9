import time
from types import SimpleNamespace

import pytest

from changedet.checkpoint import save_checkpoint
from changedet.data import SynthConfig, generate_synthetic_dataset
from changedet.model import ChangeDetector, preset
from changedet.train import AugmentConfig, TrainConfig, fit, make_teacher

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
    augment=AugmentConfig(enabled=False),
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
