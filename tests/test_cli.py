"""Command-line surface: exit codes, echoed configs, reproducible output."""

import contextlib
import io
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from changedet.checkpoint import load_checkpoint, save_checkpoint
from changedet.cli import main
from changedet.config import parse_run_config
from changedet.data import SynthConfig, generate_synthetic_dataset, load_index, sample_paths
from changedet.gradcheck import OpReport
from changedet.metrics import ConfusionCounts, confusion_from_masks
from changedet.model import ChangeDetector, preset
from changedet.netpbm import load_pgm, save_ppm


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def echoed_config(text):
    """Parse the non-comment lines of the echoed header back into a config."""
    lines = text.splitlines()
    body = lines[: lines.index("# end config")]
    return parse_run_config("\n".join(ln for ln in body if not ln.startswith("#")) + "\n")


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    generate_synthetic_dataset(
        SynthConfig(image_size=32, train_count=4, val_count=2, test_count=2, seed=11), root
    )
    return root


@pytest.fixture(scope="module")
def no_test_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_no_test")
    generate_synthetic_dataset(
        SynthConfig(image_size=32, train_count=1, val_count=1, test_count=0, seed=2), root
    )
    return root


TRAIN_CFG_TEXT = "[model]\npreset = nano\n\n[train]\nepochs = 2\nbatch_size = 2\nseed = 0\naugment = off\n"


@pytest.fixture(scope="module")
def nano_run(tmp_path_factory, data_root):
    """One CLI training run shared by the train/eval/predict/bench tests."""
    work = tmp_path_factory.mktemp("cli_train")
    cfg = work / "run.cfg"
    cfg.write_text(TRAIN_CFG_TEXT, encoding="utf-8")
    ckpt = work / "nano.npz"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["train", "--config", str(cfg), "--data", str(data_root), "--out", str(ckpt)])
    assert code == 0
    return SimpleNamespace(data=data_root, config=cfg, ckpt=ckpt, text=buf.getvalue())


# ---------------------------------------------------------------------------
# parser-level behaviour


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "changedet" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bench_source_flags_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--ckpt", "a.npz", "--config", "b.cfg"])
    assert exc.value.code == 2


def test_ablate_rejects_unknown_preset():
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--data", "d", "--preset", "widths"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset(capsys, tmp_path):
    out_dir = tmp_path / "ds"
    code, out, _ = run_cli(
        capsys, "synth", "--out", out_dir, "--size", 32,
        "--n-train", 2, "--n-val", 1, "--n-test", 1, "--seed", 3,
    )
    assert code == 0
    assert "train: 2 samples, mean change fraction" in out
    assert "# end config" in out
    for split, count in (("train", 2), ("val", 1), ("test", 1)):
        index = load_index(out_dir, split)
        assert len(index) == count
        for sid in index.ids:
            for path in sample_paths(out_dir, split, sid):
                assert path.is_file()
    rc = echoed_config(out)
    assert rc.data == SynthConfig(image_size=32, train_count=2, val_count=1, test_count=1, seed=3)


def test_synth_same_seed_same_bytes(capsys, tmp_path):
    trees = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys, "synth", "--out", out_dir, "--size", 32,
            "--n-train", 1, "--n-val", 1, "--n-test", 1, "--seed", 9,
        )
        assert code == 0
        files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
        trees.append({str(rel): (out_dir / rel).read_bytes() for rel in files})
    assert trees[0] == trees[1]


def test_synth_rejects_bad_size(capsys, tmp_path):
    code, _, err = run_cli(capsys, "synth", "--out", tmp_path / "ds", "--size", 33)
    assert code == 2
    assert err.startswith("error:")


def test_synth_refuses_nonempty_without_force(capsys, tmp_path):
    out_dir = tmp_path / "ds"
    args = ("synth", "--out", out_dir, "--size", 32, "--n-train", 1, "--n-val", 0, "--n-test", 0)
    assert run_cli(capsys, *args)[0] == 0
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "--force" in err
    assert run_cli(capsys, *args, "--force")[0] == 0


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_logs(nano_run):
    epoch_lines = [ln for ln in nano_run.text.splitlines() if ln.startswith("epoch=")]
    assert len(epoch_lines) == 2
    assert all(" distill=0.0 " in ln for ln in epoch_lines)  # no teacher configured
    assert "checkpoint = " in nano_run.text
    assert re.search(r"best epoch \d+: val_iou=\d", nano_run.text)
    assert nano_run.ckpt.is_file()
    model = load_checkpoint(nano_run.ckpt)
    assert model.config == preset("nano")


def test_train_echo_parses_back(nano_run):
    rc = echoed_config(nano_run.text)
    assert rc.model == preset("nano")
    assert rc.train.epochs == 2
    assert rc.train.batch_size == 2
    assert not rc.train.augment.enabled


def test_train_rerun_reproduces(capsys, nano_run, tmp_path):
    ckpt2 = tmp_path / "again.npz"
    code, out, _ = run_cli(
        capsys, "train", "--config", nano_run.config, "--data", nano_run.data, "--out", ckpt2,
    )
    assert code == 0
    pick = lambda text: [ln for ln in text.splitlines() if ln.startswith(("epoch=", "best epoch"))]
    assert pick(out) == pick(nano_run.text)
    assert ckpt2.read_bytes() == nano_run.ckpt.read_bytes()


def test_train_oracle_teacher_into_a_new_directory(capsys, nano_run, tmp_path):
    ckpt = tmp_path / "new" / "deeper" / "s.ckpt"
    code, out, _ = run_cli(
        capsys, "train", "--config", nano_run.config, "--data", nano_run.data, "--out", ckpt, "--oracle-teacher",
    )
    assert code == 0
    assert echoed_config(out).train.teacher_mode == "oracle"
    epoch_lines = [ln for ln in out.splitlines() if ln.startswith("epoch=")]
    assert len(epoch_lines) == 2 and not any(" distill=0.0 " in ln for ln in epoch_lines)
    assert load_checkpoint(ckpt).config == preset("nano")


def test_train_missing_teacher_checkpoint(capsys, data_root, tmp_path):
    code, _, err = run_cli(
        capsys, "train", "--data", data_root, "--out", tmp_path / "s.npz",
        "--teacher", tmp_path / "ghost.npz",
    )
    assert code == 2
    assert "error:" in err


def test_train_missing_data(capsys, tmp_path):
    code, _, err = run_cli(capsys, "train", "--data", tmp_path / "void", "--out", tmp_path / "s.npz")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_metrics(capsys, nano_run):
    code, out, _ = run_cli(capsys, "eval", "--ckpt", nano_run.ckpt, "--data", nano_run.data)
    assert code == 0
    assert "split = test (2 samples)" in out
    for key in ("iou = ", "f1 = ", "oa = ", "counts: tp=", "degenerate = "):
        assert key in out


def test_eval_twice_identical(capsys, nano_run):
    args = ("eval", "--ckpt", nano_run.ckpt, "--data", nano_run.data, "--split", "val")
    assert run_cli(capsys, *args) == run_cli(capsys, *args)


def test_eval_empty_split_rejected(capsys, nano_run, no_test_root):
    code, _, err = run_cli(capsys, "eval", "--ckpt", nano_run.ckpt, "--data", no_test_root)
    assert code == 2
    assert "error:" in err


def test_eval_matches_per_sample_predict(capsys, nano_run, tmp_path):
    """Batched evaluation equals predicting each pair alone and re-scoring."""
    code, out, _ = run_cli(capsys, "eval", "--ckpt", nano_run.ckpt, "--data", nano_run.data)
    assert code == 0
    tp, fp, fn, tn = map(int, re.search(r"counts: tp=(\d+) fp=(\d+) fn=(\d+) tn=(\d+)", out).groups())

    index = load_index(nano_run.data, "test")
    total = ConfusionCounts(0, 0, 0, 0)
    for sid in index.ids:
        a, b, label = sample_paths(nano_run.data, "test", sid)
        mask_path = tmp_path / f"{sid}.pgm"
        code, _, _ = run_cli(
            capsys, "predict", "--ckpt", nano_run.ckpt, "--pre", a, "--post", b, "--out", mask_path,
        )
        assert code == 0
        total = total + confusion_from_masks(load_pgm(mask_path), load_pgm(label))
    assert (total.tp, total.fp, total.fn, total.tn) == (tp, fp, fn, tn)


# ---------------------------------------------------------------------------
# predict


def test_predict_identical_pair_mostly_empty(capsys, e2e_run, tmp_path):
    # A pair with no change should produce an (almost) all-zero mask once
    # the model has actually learned; reuses the full training run.
    a, _, _ = sample_paths(e2e_run.root, "test", load_index(e2e_run.root, "test").ids[0])
    mask_path = tmp_path / "mask.pgm"
    code, out, _ = run_cli(
        capsys, "predict", "--ckpt", e2e_run.ckpt, "--pre", a, "--post", a, "--out", mask_path,
    )
    assert code == 0
    assert "changed pixels:" in out
    raw = mask_path.read_bytes()
    assert raw.startswith(b"P5")
    assert set(raw.split(b"\n", 3)[3]) <= {0, 255}
    assert load_pgm(mask_path).mean() < 0.05


def test_predict_size_mismatch(capsys, nano_run, tmp_path):
    big = tmp_path / "big.ppm"
    save_ppm(np.zeros((3, 64, 64), dtype=np.float32), big)
    a, _, _ = sample_paths(nano_run.data, "test", load_index(nano_run.data, "test").ids[0])
    code, _, err = run_cli(
        capsys, "predict", "--ckpt", nano_run.ckpt, "--pre", a, "--post", big,
        "--out", tmp_path / "m.pgm",
    )
    assert code == 2
    assert "differ" in err


def test_predict_out_in_missing_directory_exits_2(capsys, nano_run, tmp_path):
    a, b, _ = sample_paths(nano_run.data, "test", load_index(nano_run.data, "test").ids[0])
    out_path = tmp_path / "missing" / "m.pgm"
    code, _, err = run_cli(capsys, "predict", "--ckpt", nano_run.ckpt, "--pre", a, "--post", b, "--out", out_path)
    assert code == 2
    assert err.startswith("error: ") and "No such file or directory" in err
    assert err.endswith(f": {str(out_path)!r}\n")


def test_predict_missing_image(capsys, nano_run, tmp_path):
    code, _, err = run_cli(
        capsys, "predict", "--ckpt", nano_run.ckpt, "--pre", tmp_path / "no.ppm",
        "--post", tmp_path / "no.ppm", "--out", tmp_path / "m.pgm",
    )
    assert code == 2
    assert "not found" in err


# ---------------------------------------------------------------------------
# bench


def test_bench_single_run_marks_low_confidence(capsys):
    code, out, _ = run_cli(capsys, "bench", "--preset", "nano", "--size", 32, "--runs", 1, "--warmup", 0)
    assert code == 0
    assert "[low confidence: single run]" in out
    assert "latency median = " in out
    assert (
        "\ninput size = 32x32\n"
        "params total = 125906\n"
        "params stem = 456\n"
        "params encoder = 123048\n"
        "params fusion = 0\n"
        "params head = 2402\n"
        "flops total = 1406912\n"
        "flops stem = 225280\n"
        "flops encoder = 779904\n"
        "flops fusion = 66752\n"
        "flops head = 334976\n"
        "latency median = "
    ) in out


def test_bench_reports_blas_build_and_thread_settings(capsys):
    code, out, _ = run_cli(capsys, "bench", "--preset", "nano", "--size", 32, "--runs", 1, "--warmup", 0)
    assert code == 0
    assert re.search(r"^env blas = \S", out, re.MULTILINE)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert f"\nenv {var} = {os.environ.get(var, 'unset')}\n" in out


def test_bench_multiple_runs_no_marker(capsys):
    code, out, _ = run_cli(capsys, "bench", "--preset", "nano", "--size", 32, "--runs", 2, "--warmup", 0)
    assert code == 0
    assert "low confidence" not in out


def test_bench_flops_scale_with_area(capsys):
    totals = []
    for size in (32, 64):
        _, out, _ = run_cli(capsys, "bench", "--preset", "nano", "--size", size, "--runs", 1, "--warmup", 0)
        totals.append(int(re.search(r"flops total = (\d+)", out).group(1)))
    assert totals[1] == 4 * totals[0]


def test_bench_from_checkpoint(capsys, nano_run):
    code, out, _ = run_cli(capsys, "bench", "--ckpt", nano_run.ckpt, "--size", 32, "--runs", 1, "--warmup", 0)
    assert code == 0
    assert "params total = " in out
    assert "env " in out


def test_bench_from_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\npreset = nano\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "bench", "--config", cfg, "--size", 32, "--runs", 1, "--warmup", 0)
    assert code == 0
    assert f"\n# config = {cfg}\n" in out
    assert echoed_config(out).model == preset("nano")
    assert "\nparams total = 125906\n" in out


def test_bench_config_with_three_value_input_size_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\npreset = nano\ninput_size = 96,96,96\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bench", "--config", cfg, "--size", 32, "--runs", 1, "--warmup", 0)
    assert code == 2
    assert err.startswith("error: input_size needs 2 values")


def test_bench_rejects_bad_size(capsys):
    code, _, err = run_cli(capsys, "bench", "--preset", "nano", "--size", 33, "--runs", 1)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# ablate

_ROW = re.compile(r"^(\S+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(\d+)\s+(\d+)$")


def _table_rows(out):
    rows = {}
    for line in out.splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = SimpleNamespace(
                iou=float(match.group(2)), params=int(match.group(5)), flops=int(match.group(6)),
            )
    return rows


def test_ablate_components_table(capsys, data_root):
    code, out, _ = run_cli(
        capsys, "ablate", "--data", data_root, "--preset", "components",
        "--model-preset", "nano", "--epochs", 1, "--batch-size", 2,
    )
    assert code == 0
    rows = _table_rows(out)
    assert list(rows) == ["naive", "emff", "emff+bce", "emff+bce+mae"]
    assert rows["emff"].params < rows["naive"].params
    assert rows["emff"].flops < rows["naive"].flops


def test_ablate_losses_table(capsys, data_root):
    code, out, _ = run_cli(
        capsys, "ablate", "--data", data_root, "--preset", "losses",
        "--model-preset", "nano", "--epochs", 1, "--batch-size", 2,
    )
    assert code == 0
    assert list(_table_rows(out)) == ["ce+kl", "ce+mse", "soft_miou+mae", "ce+mae"]


def test_ablate_backbones_table(capsys, data_root):
    code, out, _ = run_cli(
        capsys, "ablate", "--data", data_root, "--preset", "backbones",
        "--epochs", 1, "--batch-size", 2,
    )
    assert code == 0
    rows = _table_rows(out)
    assert list(rows) == ["nano", "tiny", "small"]
    assert rows["nano"].params < rows["tiny"].params < rows["small"].params


def test_ablate_needs_test_split(capsys, no_test_root):
    code, _, err = run_cli(
        capsys, "ablate", "--data", no_test_root, "--preset", "components",
        "--model-preset", "nano", "--epochs", 1,
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_single_op(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--op", "relu", "--instances", 5)
    assert code == 0
    assert "PASS relu" in out
    assert "1 of 1 ops passed" in out


def test_gradcheck_unknown_op(capsys):
    code, _, err = run_cli(capsys, "gradcheck", "--op", "frobnicate")
    assert code == 2
    assert "unknown gradcheck op" in err


def test_gradcheck_failure_exits_nonzero(capsys, monkeypatch):
    import changedet.cli as cli

    broken = OpReport(op="relu", instances=5, max_rel_err=1.0, passed=False, seconds=0.0)
    monkeypatch.setattr(cli, "check_op", lambda *a, **k: broken)
    code, out, _ = run_cli(capsys, "gradcheck", "--op", "relu", "--instances", 5)
    assert code == 1
    assert "FAIL relu" in out
    assert "0 of 1 ops passed" in out


# ---------------------------------------------------------------------------
# malformed input ends in one error line and exit 2


def _non_utf8_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"[model]\npreset = nano\n; \xff\n")
    return ["bench", "--config", cfg, "--size", 32, "--runs", 1, "--warmup", 0]


def _non_utf8_manifest(tmp_path):
    ckpt = tmp_path / "nano.ckpt"
    save_checkpoint(ChangeDetector(preset("nano")), ckpt)
    (tmp_path / "data" / "test").mkdir(parents=True)
    (tmp_path / "data" / "test" / "manifest.txt").write_bytes(b"\xff\n")
    return ["eval", "--ckpt", ckpt, "--data", tmp_path / "data"]


def _one_pair_test_split(tmp_path, name, size):
    root = tmp_path / name
    generate_synthetic_dataset(SynthConfig(image_size=size, train_count=0, val_count=0, test_count=1, seed=1), root)
    return root


def _mixed_size_test_split(tmp_path):
    ckpt = tmp_path / "nano.ckpt"
    save_checkpoint(ChangeDetector(preset("nano")), ckpt)
    root = _one_pair_test_split(tmp_path, "data", 32)
    big = _one_pair_test_split(tmp_path, "big", 64)
    for src, dst in zip(sample_paths(big, "test", "test_00000"), sample_paths(root, "test", "big")):
        dst.write_bytes(src.read_bytes())
    (root / "test" / "manifest.txt").write_text("test_00000\nbig\n", encoding="utf-8")
    return ["eval", "--ckpt", ckpt, "--data", root]


def _manifest_id_outside_root(tmp_path):
    ckpt = tmp_path / "nano.ckpt"
    save_checkpoint(ChangeDetector(preset("nano")), ckpt)
    root = _one_pair_test_split(tmp_path, "data", 32)
    # A, B and label of this id all resolve to real files under tmp_path/outside
    a, _, label = sample_paths(root, "test", "test_00000")
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "x.ppm").write_bytes(a.read_bytes())
    (tmp_path / "outside" / "x.pgm").write_bytes(label.read_bytes())
    (root / "test" / "manifest.txt").write_text("../../../outside/x\n", encoding="utf-8")
    return ["eval", "--ckpt", ckpt, "--data", root]


def _manifest_duplicate_id(tmp_path):
    ckpt = tmp_path / "nano.ckpt"
    save_checkpoint(ChangeDetector(preset("nano")), ckpt)
    root = _one_pair_test_split(tmp_path, "data", 32)
    (root / "test" / "manifest.txt").write_text("test_00000\ntest_00000\n", encoding="utf-8")
    return ["eval", "--ckpt", ckpt, "--data", root]


def _nan_bias_checkpoint(tmp_path):
    model = ChangeDetector(preset("nano"))
    model.params[list(model.params)[-1]].data[...] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(model, ckpt)
    return ckpt


def _eval_nan_checkpoint(tmp_path):
    return ["eval", "--ckpt", _nan_bias_checkpoint(tmp_path), "--data", _one_pair_test_split(tmp_path, "data", 32)]


def _predict_nan_checkpoint(tmp_path):
    a, b, _ = sample_paths(_one_pair_test_split(tmp_path, "data", 32), "test", "test_00000")
    return ["predict", "--ckpt", _nan_bias_checkpoint(tmp_path), "--pre", a, "--post", b, "--out", tmp_path / "m.pgm"]


def _nano_checkpoint(tmp_path):
    ckpt = tmp_path / "nano.ckpt"
    save_checkpoint(ChangeDetector(preset("nano")), ckpt)
    return ckpt


def _predict_argv(tmp_path, pre=None, post=None):
    """predict with a nano checkpoint on one real pair, with pre or post replaced."""
    a, b, _ = sample_paths(_one_pair_test_split(tmp_path, "data", 32), "test", "test_00000")
    ckpt = _nano_checkpoint(tmp_path)
    return ["predict", "--ckpt", ckpt, "--pre", pre or a, "--post", post or b, "--out", tmp_path / "m.pgm"]


def _eval_truncated_checkpoint(tmp_path):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(b"EOC")
    return ["eval", "--ckpt", ckpt, "--data", tmp_path]


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp_path: ["gradcheck", "--op", "relu", "--instances", 0],
        lambda tmp_path: ["gradcheck", "--instances", -3],
        lambda tmp_path: ["gradcheck", "--op", "relu", "--seed", -1],
        lambda tmp_path: ["synth", "--out", tmp_path / "ds", "--size", 32, "--seed", -1],
        _non_utf8_config,
        _non_utf8_manifest,
        _mixed_size_test_split,
        _manifest_id_outside_root,
        _manifest_duplicate_id,
        _eval_nan_checkpoint,
        _predict_nan_checkpoint,
        lambda tmp_path: _predict_argv(tmp_path, pre=tmp_path / "no.ppm"),
        lambda tmp_path: _predict_argv(tmp_path, post=tmp_path),
        lambda tmp_path: ["train", "--config", tmp_path / "no.cfg", "--data", tmp_path, "--out", tmp_path / "m.ckpt"],
        lambda tmp_path: ["bench", "--config", tmp_path, "--size", 32, "--runs", 1, "--warmup", 0],
        lambda tmp_path: ["eval", "--ckpt", _nano_checkpoint(tmp_path), "--data", tmp_path],
        _eval_truncated_checkpoint,
    ],
    ids=[
        "gradcheck-zero-instances", "gradcheck-negative-instances", "gradcheck-negative-seed",
        "synth-negative-seed", "non-utf8-config", "non-utf8-manifest",
        "eval-mixed-image-sizes", "manifest-id-outside-root", "manifest-duplicate-id",
        "eval-nan-checkpoint", "predict-nan-checkpoint",
        "predict-missing-pre", "predict-directory-post", "train-missing-config",
        "bench-config-directory", "eval-no-manifest", "eval-truncated-checkpoint",
    ],
)
def test_malformed_input_exits_2_with_one_error_line(capsys, tmp_path, make_argv):
    code, _, err = run_cli(capsys, *make_argv(tmp_path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# output log mirroring


def test_log_mirrors_stdout(capsys, tmp_path):
    log = tmp_path / "run.log"
    _, out, _ = run_cli(
        capsys, "bench", "--preset", "nano", "--size", 32, "--runs", 1, "--warmup", 0, "--log", log,
    )
    assert log.read_text(encoding="utf-8") == out


def test_log_captures_errors_too(capsys, tmp_path):
    log = tmp_path / "run.log"
    code, _, err = run_cli(capsys, "synth", "--out", tmp_path / "ds", "--size", 33, "--log", log)
    assert code == 2
    assert "error:" in log.read_text(encoding="utf-8")


def test_log_in_missing_directory_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "gradcheck", "--op", "relu", "--instances", 1, "--log", tmp_path / "missing" / "x.log",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
