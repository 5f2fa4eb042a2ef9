import ctypes
import hashlib
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import changedet
from changedet import train
from changedet.checkpoint import save_checkpoint
from changedet.data import BitemporalSample, SynthConfig, generate_synthetic_dataset, load_index
from changedet.errors import ConfigError, DataError, NumericError
from changedet.losses import LossConfig
from changedet.metrics import ConfusionCounts, MetricsReport, evaluate
from changedet.model import ChangeDetector, parameter_names, preset
from changedet.train import (
    EpochLog,
    ModelTeacher,
    OracleTeacher,
    TrainConfig,
    augment_pair,
    fit,
    gaussian_blur3,
    make_teacher,
    oracle_teacher_predict,
)


def _sample(seed=0, size=16):
    rng = np.random.default_rng(seed)
    pre = rng.random((3, size, size), dtype=np.float32)
    post = rng.random((3, size, size), dtype=np.float32)
    mask = (rng.random((size, size)) > 0.7).astype(np.uint8)
    return BitemporalSample(pre=pre, post=post, mask=mask)


def _set_draws(monkeypatch, **constants):
    """Set augment_pair's module constants, e.g. FLIP_PROB=1.0, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(train, name, value)


class TestAugmentPair:
    def test_zero_probabilities_change_nothing(self, monkeypatch):
        s = _sample(1)
        _set_draws(monkeypatch, FLIP_PROB=0, JITTER_PROB=0, SCALE_PROB=0, BLUR_PROB=0)
        out = augment_pair(s, np.random.default_rng(0))
        assert np.array_equal(out.pre, s.pre)
        assert np.array_equal(out.post, s.post)
        assert np.array_equal(out.mask, s.mask)

    def test_fit_reads_the_augment_switch(self, train_root, monkeypatch):
        # augment_pair always augments; fit alone decides whether a batch meets it.
        def refuse(sample, rng):
            raise RuntimeError("augment_pair was called")

        monkeypatch.setattr(train, "augment_pair", refuse)
        off = TrainConfig(batch_size=4, epochs=1, seed=0, augment=False)
        fit(ChangeDetector(preset("nano"), seed=0), None, train_root, off)
        on = TrainConfig(batch_size=4, epochs=1, seed=0, augment=True)
        with pytest.raises(RuntimeError, match="augment_pair was called"):
            fit(ChangeDetector(preset("nano"), seed=0), None, train_root, on)

    def test_double_flip_is_identity(self, monkeypatch):
        s = _sample(3)
        _set_draws(monkeypatch, FLIP_PROB=1.0, JITTER_PROB=0, SCALE_PROB=0, BLUR_PROB=0)
        once = augment_pair(s, np.random.default_rng(0))
        twice = augment_pair(once, np.random.default_rng(1))
        assert not np.array_equal(once.pre, s.pre)
        assert np.array_equal(twice.pre, s.pre)
        assert np.array_equal(twice.post, s.post)
        assert np.array_equal(twice.mask, s.mask)

    def test_flips_move_mask_with_images(self, monkeypatch):
        s = _sample(4)
        _set_draws(monkeypatch, FLIP_PROB=1.0, JITTER_PROB=0, SCALE_PROB=0, BLUR_PROB=0)
        out = augment_pair(s, np.random.default_rng(0))
        assert np.array_equal(out.mask, s.mask[::-1, ::-1])
        assert np.array_equal(out.pre, s.pre[:, ::-1, ::-1])

    def test_jitter_leaves_geometry_and_mask_alone(self, monkeypatch):
        s = _sample(5)
        _set_draws(monkeypatch, FLIP_PROB=0, JITTER_PROB=1.0, SCALE_PROB=0, BLUR_PROB=0)
        out = augment_pair(s, np.random.default_rng(0))
        assert np.array_equal(out.mask, s.mask)
        assert not np.array_equal(out.pre, s.pre)
        assert out.pre.shape == s.pre.shape

    def test_mask_stays_binary_under_all_augmentations(self, monkeypatch):
        _set_draws(monkeypatch, FLIP_PROB=1.0, JITTER_PROB=1.0, SCALE_PROB=1.0, BLUR_PROB=1.0)
        rng = np.random.default_rng(6)
        for seed in range(8):
            out = augment_pair(_sample(seed), rng)
            assert set(np.unique(out.mask)) <= {0, 1}
            assert out.mask.dtype == np.uint8

    def test_shapes_survive_scale_crop(self, monkeypatch):
        s = _sample(7)
        _set_draws(monkeypatch, FLIP_PROB=0, JITTER_PROB=0, SCALE_PROB=1.0, BLUR_PROB=0)
        out = augment_pair(s, np.random.default_rng(3))
        assert out.pre.shape == s.pre.shape
        assert out.mask.shape == s.mask.shape

    def test_values_clamped_after_strong_jitter(self, monkeypatch):
        s = _sample(8)
        _set_draws(monkeypatch, FLIP_PROB=0, JITTER_PROB=1.0, JITTER_STRENGTH=0.9, SCALE_PROB=0, BLUR_PROB=0)
        out = augment_pair(s, np.random.default_rng(2))
        assert out.pre.min() >= 0.0 and out.pre.max() <= 1.0

    def test_same_rng_seed_reproduces_exactly(self, monkeypatch):
        _set_draws(monkeypatch, FLIP_PROB=0.5, JITTER_PROB=0.5, SCALE_PROB=0.5, BLUR_PROB=0.5)
        a = augment_pair(_sample(9), np.random.default_rng(42))
        b = augment_pair(_sample(9), np.random.default_rng(42))
        assert np.array_equal(a.pre, b.pre)
        assert np.array_equal(a.post, b.post)
        assert np.array_equal(a.mask, b.mask)


def test_default_augmentation_draws_are_pinned():
    # Eight samples through one generator at the module's draw settings; a
    # change to a probability, a range or the order of the draws moves it.
    rng = np.random.default_rng(123)
    h = hashlib.sha256()
    for seed in range(8):
        out = augment_pair(_sample(seed), rng)
        for array in (out.pre, out.post, out.mask):
            h.update(array.tobytes())
    assert h.hexdigest() == "c92ae6723bb1bd1bc07ead51af9ba4541c11baab00ea6b0bb9bc025c4752d3cf"


class TestGaussianBlur:
    def test_constant_image_unchanged(self):
        img = np.full((3, 9, 9), 0.37, dtype=np.float32)
        out = gaussian_blur3(img, 0.8)
        assert np.allclose(out, 0.37, atol=1e-6)

    def test_smooths_an_impulse(self):
        img = np.zeros((1, 7, 7), dtype=np.float32)
        img[0, 3, 3] = 1.0
        out = gaussian_blur3(img, 0.5)
        assert out[0, 3, 3] < 1.0
        assert out[0, 2, 3] > 0.0
        assert abs(out.sum() - 1.0) < 1e-6  # interior impulse: mass is conserved


class TestOracleTeacher:
    def test_default_smoothing_values(self):
        gt = np.array([[[0, 1]]], dtype=np.uint8)
        p = oracle_teacher_predict(gt)
        assert abs(p[0, 1, 0, 0] - 0.05) < 1e-7
        assert abs(p[0, 1, 0, 1] - 0.95) < 1e-7

    def test_channel_sums_are_one(self):
        rng = np.random.default_rng(0)
        gt = (rng.random((2, 16, 16)) > 0.5).astype(np.uint8)
        p = oracle_teacher_predict(gt)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_validation(self):
        with pytest.raises(DataError):
            oracle_teacher_predict(np.zeros((4, 4)))

    def test_teacher_object_uses_only_the_mask(self):
        gt = (np.random.default_rng(1).random((1, 8, 8)) > 0.5).astype(np.uint8)
        t = OracleTeacher()
        a = t.predict(np.zeros((1, 3, 8, 8)), np.zeros((1, 3, 8, 8)), gt)
        b = t.predict(np.ones((1, 3, 8, 8)), np.ones((1, 3, 8, 8)), gt)
        assert np.array_equal(a, b)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 8 and cfg.base_lr == 3e-4 and cfg.epochs == 20

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(teacher_mode="checkpoint")  # needs a path
        with pytest.raises(ConfigError):
            TrainConfig(teacher_checkpoint="x.ckpt")  # path without the mode

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("weight_decay", -0.01, "weight_decay must be >= 0, got -0.01"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_field_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("path", ["a\nb", "a\r\nb", "a\u2028b", "a\n"])
    def test_teacher_checkpoint_with_a_line_break_rejected(self, path):
        with pytest.raises(ConfigError, match=r"^teacher_checkpoint must fit on one line, got '"):
            TrainConfig(teacher_mode="checkpoint", teacher_checkpoint=path)

    def test_make_teacher_modes(self, tmp_path):
        assert make_teacher(TrainConfig(teacher_mode="none")) is None
        assert isinstance(make_teacher(TrainConfig(teacher_mode="oracle")), OracleTeacher)
        cfg = TrainConfig(teacher_mode="checkpoint", teacher_checkpoint=str(tmp_path / "missing.ckpt"))
        with pytest.raises(DataError):
            make_teacher(cfg)


@pytest.fixture(scope="module")
def train_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_data")
    cfg = SynthConfig(image_size=32, train_count=6, val_count=3, test_count=2, seed=11)
    generate_synthetic_dataset(cfg, root)
    return root


def _params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


def _checkpoint_bytes(model, tmp_path, tag):
    path = tmp_path / f"{tag}.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes()


def test_fit_keeps_every_parameter_in_one_arena(train_root, tmp_path):
    # init_state binds each parameter once and nothing in fit rebinds one, so
    # after a run every .data, and apart every .grad, still tiles one flat buffer.
    model = ChangeDetector(preset("nano"), seed=5)
    cfg = TrainConfig(batch_size=4, epochs=1, seed=5, augment=False, teacher_mode="oracle")
    fit(model, make_teacher(cfg), train_root, cfg)
    names = parameter_names(model.config)
    assert list(model.params) == names
    flats = []
    for attr in ("data", "grad"):
        views = [getattr(model.params[name], attr) for name in names]
        flat = views[0].base
        assert flat.ndim == 1 and flat.size == sum(v.size for v in views)
        offset = 0
        for view in views:
            assert view.base is flat
            assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize
            offset += view.size
        flats.append(flat)
    data, grad = flats
    assert data is not grad
    blob = _checkpoint_bytes(model, tmp_path, "arena")
    cfg_len = struct.unpack("<I", blob[8:12])[0]
    assert blob[12 + cfg_len :] == data.astype("<f4").tobytes()


class TestFit:
    def test_supervised_only_runs_and_logs(self, train_root):
        model = ChangeDetector(preset("nano"), seed=0)
        cfg = TrainConfig(batch_size=4, epochs=2, seed=0, augment=False)
        result = fit(model, None, train_root, cfg)
        assert len(result.logs) == 2
        assert all(entry.distill == 0.0 for entry in result.logs)
        assert result.logs[0].lr == 3e-4
        assert result.logs[1].lr < result.logs[0].lr

    def test_best_weights_reproduce_best_val_iou(self, train_root):
        model = ChangeDetector(preset("nano"), seed=1)
        cfg = TrainConfig(batch_size=4, epochs=3, seed=1, augment=False, teacher_mode="oracle")
        result = fit(model, make_teacher(cfg), train_root, cfg)
        assert result.best_val_iou == max(entry.val_iou for entry in result.logs)
        first_best = next(e.epoch for e in result.logs if e.val_iou == result.best_val_iou)
        assert result.best_epoch == first_best
        report = evaluate(result.model, load_index(train_root, "val"), batch_size=4)
        assert report.iou == result.best_val_iou

    def test_restored_weights_are_the_best_epochs(self, train_root, monkeypatch):
        # Validation IoU peaks at epoch 2 of 3; each epoch's weights are
        # copied when its log line is written, after its validation pass.
        ious = iter((0.5, 0.9, 0.1))
        monkeypatch.setattr(train, "evaluate",
                            lambda *args: MetricsReport(iou=next(ious), f1=0.0, oa=0.0, counts=ConfusionCounts()))
        model = ChangeDetector(preset("nano"), seed=2)
        cfg = TrainConfig(batch_size=4, epochs=3, seed=2, augment=False, teacher_mode="oracle")
        snapshots = []
        arrays = {}

        def log(_line):
            snapshots.append({name: p.data.copy() for name, p in model.params.items()})
            arrays.update({name: p.data for name, p in model.params.items()})

        result = fit(model, make_teacher(cfg), train_root, cfg, log=log)
        assert result.best_epoch == 2
        assert not all(np.array_equal(snapshots[1][k], snapshots[2][k]) for k in snapshots[1])
        for name, p in model.params.items():
            assert p.data is arrays[name]  # copied into the arena views, not rebound
            assert np.array_equal(p.data, snapshots[1][name])

    def test_two_runs_are_bit_identical(self, train_root, tmp_path):
        outs = []
        for run in range(2):
            model = ChangeDetector(preset("nano"), seed=7)
            cfg = TrainConfig(batch_size=4, epochs=2, seed=7, teacher_mode="oracle")
            result = fit(model, make_teacher(cfg), train_root, cfg)
            outs.append((result.log_text(), _checkpoint_bytes(result.model, tmp_path, f"run{run}")))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_teacher_parameters_never_move(self, train_root):
        teacher_model = ChangeDetector(preset("nano"), seed=3)
        teacher = ModelTeacher(teacher_model)
        before = _params_digest(teacher_model)
        student = ChangeDetector(preset("nano"), seed=4)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=3, augment=False)
        fit(student, teacher, train_root, cfg)
        assert _params_digest(teacher_model) == before
        assert all(not p.requires_grad for p in teacher_model.params.values())
        assert all(p.grad is None for p in teacher_model.params.values())

    @pytest.mark.parametrize("distill_loss,calls", [("mae", 2)])
    def test_teacher_is_called_only_when_distilling(self, train_root, distill_loss, calls):
        class CountingTeacher(OracleTeacher):
            calls = 0

            def predict(self, pre, post, gt):
                self.calls += 1
                return super().predict(pre, post, gt)

        teacher = CountingTeacher()
        student = ChangeDetector(preset("nano"), seed=8)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=8, augment=False)
        fit(student, teacher, train_root, cfg, loss=LossConfig(distill_loss=distill_loss))
        assert teacher.calls == calls  # 6 train pairs at batch 4: two steps

    def test_student_actually_changes(self, train_root):
        student = ChangeDetector(preset("nano"), seed=5)
        before = _params_digest(student)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=5, augment=False)
        fit(student, None, train_root, cfg)
        assert _params_digest(student) != before

    def test_nan_loss_aborts_with_context(self, train_root):
        student = ChangeDetector(preset("nano"), seed=6)
        for p in student.params.values():
            p.data[:] = 1e30
        cfg = TrainConfig(batch_size=4, epochs=1, seed=6, augment=False)
        with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
            fit(student, None, train_root, cfg)
        assert str(info.value) == "epoch 1, batch 0: conv2d produced non-finite values in stage stem"
        assert info.value.exit_code == 3

    def test_non_finite_teacher_output_names_epoch_batch_and_teacher(self, train_root):
        teacher_model = ChangeDetector(preset("nano"), seed=3)
        teacher_model.params["stem.pre.w"].data.flat[0] = np.nan  # a checkpoint refuses non-finite values
        student = ChangeDetector(preset("nano"), seed=4)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=3, augment=False)
        message = "^epoch 1, batch 0: teacher conv2d produced non-finite values in stage stem$"
        with pytest.raises(NumericError, match=message):
            fit(student, ModelTeacher(teacher_model), train_root, cfg)

    def test_empty_split_rejected(self, tmp_path):
        cfg = SynthConfig(image_size=32, train_count=2, val_count=0, test_count=0, seed=1)
        generate_synthetic_dataset(cfg, tmp_path)
        student = ChangeDetector(preset("nano"), seed=0)
        with pytest.raises(DataError):
            fit(student, None, tmp_path, TrainConfig(epochs=1))

    def test_overfits_a_single_batch(self, tmp_path):
        # one blocky shape per scene: the upsampled stride-4 logits can
        # represent the mask almost exactly, so CE can be driven near zero
        data = SynthConfig(image_size=32, train_count=4, val_count=2, test_count=0,
                           seed=5, shape_min=1, shape_max=1)
        generate_synthetic_dataset(data, tmp_path)
        student = ChangeDetector(preset("nano"), seed=2)
        cfg = TrainConfig(batch_size=4, base_lr=5e-3, weight_decay=0.0, epochs=200, seed=2, augment=False)
        result = fit(student, None, tmp_path, cfg, loss=LossConfig(alpha1=1.0, alpha2=0.0, alpha3=0.0))
        first, last = result.logs[0].train_loss, result.logs[-1].train_loss
        assert last <= 0.1 * first


class TestEpochLogLine:
    def test_line_round_trips_floats(self):
        entry = EpochLog(3, 1.5e-4, 0.1234567890123, 0.1, 0.2, 0.3, 0.5, 2 / 3, 0.5)
        line = entry.line()
        assert line.startswith("epoch=3 lr=0.00015 ")
        assert repr(2 / 3) in line


def _openblas_threads() -> int:
    libs = sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so*"))
    if not libs:
        pytest.skip("numpy is not linked against scipy-openblas64")
    query = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    query.argtypes, query.restype = [], ctypes.c_int
    return query()


def test_suite_runs_openblas_on_the_thread_count_of_the_environment():
    # The root conftest.py sets OPENBLAS_NUM_THREADS=1 unless the caller set
    # it, before numpy loads OpenBLAS; the library then reports that count.
    assert _openblas_threads() == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    generate_synthetic_dataset(SynthConfig(image_size=32, train_count=6, val_count=2, test_count=0, seed=4), tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\npreset = nano\n\n[train]\nepochs = 2\nbatch_size = 2\nseed = 0\n", encoding="utf-8")
    src = str(Path(changedet.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"threads{threads}.ckpt"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "changedet.cli", "train", "--config", str(cfg), "--data", str(tmp_path),
             "--out", str(ckpt), "--oracle-teacher"],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        epochs = [line for line in proc.stdout.splitlines() if line.startswith("epoch=")]
        assert len(epochs) == 2
        runs.append((epochs, ckpt.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
