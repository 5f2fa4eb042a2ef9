"""Acceptance gate: ten shipping criteria, one test and one PASS/FAIL line each.

Every test prints its verdict line before asserting, so the captured output
of a failing run still names the criterion that fell over.  Tolerances are
pinned here and nowhere else; loosening one is a deliberate, reviewable act.
"""

import re
import time
from types import SimpleNamespace

import numpy as np
import oracles
import pytest

import changedet.tensor as T
from changedet.checkpoint import save_checkpoint
from changedet.cli import main as cli_main
from changedet.data import SynthConfig, generate_synthetic_dataset, load_index
from changedet.gradcheck import check_all
from changedet.losses import bce_loss, ce_loss, kl_loss, mae_loss, mse_loss, soft_miou_loss
from changedet.metrics import ConfusionCounts, evaluate, metrics_from_confusion
from changedet.model import (
    ChangeDetector,
    PyramidFeatures,
    conv_specs,
    emff_fuse,
    fusion_parameter_names,
    preset,
)
from changedet.optim import lr_at
from changedet.profiling import count_flops, param_counts
from changedet.tensor import FlopCounter, Tensor
from changedet.train import TrainConfig, fit, make_teacher


def _verdict(num: int, text: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def _const(arr) -> Tensor:
    return Tensor(np.ascontiguousarray(arr), requires_grad=False)


@pytest.fixture(scope="module")
def micro_root(tmp_path_factory):
    """A very small dataset for the criteria that must train something."""
    root = tmp_path_factory.mktemp("acceptance_data")
    generate_synthetic_dataset(
        SynthConfig(image_size=32, train_count=4, val_count=2, test_count=2, seed=11), root
    )
    return root


def test_criterion_01_gradient_accuracy():
    start = time.perf_counter()
    reports = check_all(instances=20, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in reports)
    ok = (
        all(r.passed for r in reports)
        and worst < 1e-4
        and all(r.instances >= 20 for r in reports)
        and elapsed < 120.0
    )
    _verdict(
        1,
        f"analytic gradients of all {len(reports)} ops within 1e-4 of central "
        f"differences (worst {worst:.2e}, {elapsed:.1f}s < 120s)",
        ok,
    )


def test_criterion_02_engine_matches_references():
    rng = np.random.default_rng(2)
    f32 = lambda shape, lo=-1.0, hi=1.0: rng.uniform(lo, hi, shape).astype(np.float32)

    # channel pooling and channel mean: same accumulation order, bit-exact
    x = f32((2, 8, 5, 7))
    exact = np.array_equal(T.channel_avg_pool(_const(x), 4).data, oracles.channel_avg_pool_oracle(x, 4))
    x = f32((2, 12, 4, 4))
    exact &= np.array_equal(T.channel_avg_pool(_const(x), 3).data, oracles.channel_avg_pool_oracle(x, 3))
    exact &= np.array_equal(T.channel_max_pool(_const(x), 4).data, oracles.channel_max_pool_oracle(x, 4))
    x = f32((2, 7, 5, 3))
    exact &= np.array_equal(T.channel_mean(_const(x)).data, oracles.channel_mean_oracle(x))

    # grouped strided padded convolution in 32-bit: within 1e-5 of the loop
    xc = f32((2, 6, 10, 9))
    wc = f32((8, 3, 3, 3))
    bc = f32((1, 8, 1, 1))
    got = T.conv2d(_const(xc), _const(wc), _const(bc), stride=2, padding=1, groups=2).data
    conv_err = float(np.abs(got - oracles.conv2d_oracle(xc, wc, bc, stride=2, padding=1, groups=2)).max())

    # every loss against its float64 straight-loop form: within 1e-6
    logits = f32((2, 2, 6, 5), -3.0, 3.0)
    labels = rng.integers(0, 2, (2, 1, 6, 5))
    p_s = T.softmax_channel(_const(logits)).data
    p_t = T.softmax_channel(_const(f32((2, 2, 6, 5), -3.0, 3.0))).data
    pmap = f32((2, 1, 6, 5), 0.02, 0.98)
    ymap = rng.integers(0, 2, (2, 1, 6, 5))
    onehot = np.zeros_like(p_s)
    np.put_along_axis(onehot, labels, 1.0, axis=1)
    loss_err = max(
        abs(ce_loss(_const(logits), labels).item() - oracles.ce_loss_oracle(logits, labels)),
        abs(bce_loss(_const(pmap), ymap).item() - oracles.bce_loss_oracle(pmap, ymap)),
        abs(mae_loss(_const(p_s), p_t).item() - oracles.mae_loss_oracle(p_s, p_t)),
        abs(mse_loss(_const(p_s), p_t).item() - oracles.mse_loss_oracle(p_s, p_t)),
        abs(kl_loss(_const(p_s), p_t).item() - oracles.kl_loss_oracle(p_t, p_s)),
        abs(soft_miou_loss(_const(p_s), labels).item() - oracles.soft_miou_loss_oracle(p_s, onehot)),
    )

    ok = exact and conv_err <= 1e-5 and loss_err <= 1e-6
    _verdict(
        2,
        f"pooling/mean bit-exact, conv within 1e-5 ({conv_err:.2e}), "
        f"losses within 1e-6 ({loss_err:.2e}) of straight-loop references",
        ok,
    )


def test_criterion_03_fusion_contract():
    config = preset("tiny")
    model = ChangeDetector(config, seed=0)
    no_params = param_counts(model.params).fusion == 0 and fusion_parameter_names(config) == []

    rng = np.random.default_rng(7)
    pre = rng.random((2, 3, 64, 64), dtype=np.float32)
    post = rng.random((2, 3, 64, 64), dtype=np.float32)
    fused = model.forward(pre, post).fused
    c1, c4 = config.encoder_widths[0], config.encoder_widths[3]
    shape_ok = fused.shape == (2, c1 + c4, 16, 16)

    # all-zero stage 3 closes the gate: the deep branch drops out bit-exactly
    s1 = _const(rng.uniform(0.1, 1.0, (1, 16, 16, 16)).astype(np.float32))
    s2 = _const(rng.uniform(0.1, 1.0, (1, 32, 8, 8)).astype(np.float32))
    s3 = _const(np.zeros((1, 64, 4, 4), dtype=np.float32))
    s4 = _const(rng.uniform(-1.0, 1.0, (1, 128, 2, 2)).astype(np.float32))
    gated, _, detail = emff_fuse(PyramidFeatures(s1, s2, s3, s4), (16, 32, 64, 128))
    s2r = T.bilinear_resize(s2, 16, 16)
    s4r = T.bilinear_resize(s4, 16, 16)
    want = np.concatenate([s1.data + T.channel_max_pool(s2r, 16).data, s4r.data], axis=1)
    gate_ok = (
        np.all(detail.gate.data == 0.0)
        and np.all(detail.e4.data == 0.0)
        and np.array_equal(gated.data, want)
    )

    ok = no_params and shape_ok and gate_ok
    _verdict(
        3,
        f"fusion owns 0 parameters, emits (N,{c1 + c4},H/4,W/4), "
        "and a zero stage-3 map reduces it to the shallow path bit-exactly",
        ok,
    )


def test_criterion_04_end_to_end_learning(e2e_run):
    start = time.perf_counter()
    report = evaluate(e2e_run.result.model, load_index(e2e_run.root, "test"))
    total_seconds = e2e_run.seconds + (time.perf_counter() - start)
    ok = report.iou >= 0.60 and report.f1 >= 0.75 and total_seconds <= 900.0
    _verdict(
        4,
        f"trained student reaches change IoU {report.iou:.4f} (>=0.60) and "
        f"F1 {report.f1:.4f} (>=0.75) in {total_seconds:.0f}s (<=900s)",
        ok,
    )


def test_criterion_05_component_ablation(micro_root, capsys):
    code = cli_main([
        "ablate", "--data", str(micro_root), "--preset", "components",
        "--model-preset", "nano", "--epochs", "1", "--batch-size", "2",
    ])
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines():
        match = re.match(r"^(\S+)\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(\d+)\s+(\d+)$", line)
        if match:
            rows[match.group(1)] = SimpleNamespace(params=int(match.group(2)), flops=int(match.group(3)))
    completes = code == 0 and list(rows) == ["naive", "emff", "emff+bce", "emff+bce+mae"]
    cheaper = (
        completes
        and rows["emff"].params < rows["naive"].params
        and rows["emff"].flops < rows["naive"].flops
    )
    _verdict(
        5,
        "component ablation retrains all four rows; parameter-free fusion has "
        "strictly fewer params and flops than the projection baseline at equal widths",
        completes and cheaper,
    )


def test_criterion_06_teacher_isolation(micro_root, tmp_path):
    ckpt = tmp_path / "teacher.npz"
    save_checkpoint(ChangeDetector(preset("nano"), seed=3), ckpt)
    config = TrainConfig(
        batch_size=2, epochs=1, seed=0,
        teacher_mode="checkpoint", teacher_checkpoint=str(ckpt),
        augment=False,
    )
    teacher = make_teacher(config)
    before = {name: p.data.tobytes() for name, p in teacher.model.params.items()}
    fit(ChangeDetector(preset("nano"), seed=0), teacher, micro_root, config)
    after = {name: p.data.tobytes() for name, p in teacher.model.params.items()}
    untouched = before == after
    no_grads = all(p.grad is None and not p.requires_grad for p in teacher.model.params.values())
    _verdict(
        6,
        "teacher parameters byte-identical across training and never receive a gradient",
        untouched and no_grads,
    )


def test_criterion_07_learning_rate_schedule():
    base = TrainConfig().base_lr
    total = 1000
    values = [lr_at(step, total, base) for step in range(total + 1)]
    ok = (
        base == 3e-4
        and values[0] == 3e-4
        and values[-1] == 0.0
        and all(a >= b for a, b in zip(values, values[1:]))
        and lr_at(total + 7, total, base) == 0.0
    )
    _verdict(7, "lr starts at exactly 3e-4, hits exactly 0 at the last step, never increases", ok)


def test_criterion_08_bit_exact_reruns(micro_root, tmp_path):
    outcomes = []
    for tag in ("first", "second"):
        config = TrainConfig(batch_size=2, epochs=2, seed=4, teacher_mode="oracle")
        student = ChangeDetector(preset("nano"), seed=1)
        result = fit(student, make_teacher(config), micro_root, config)
        path = tmp_path / f"{tag}.npz"
        save_checkpoint(result.model, path)
        outcomes.append((result.log_text(), path.read_bytes()))
    ok = outcomes[0] == outcomes[1]
    _verdict(8, "two identical runs (augmentation on) give bit-identical logs and checkpoints", ok)


def test_criterion_09_metric_identities():
    report = metrics_from_confusion(ConfusionCounts(tp=2, fp=1, fn=1, tn=0))
    hand_ok = (
        report.iou == 0.5
        and abs(report.f1 - 2.0 / 3.0) <= 1e-12
        and report.oa == 0.5
        and not report.degenerate
    )
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
        r = metrics_from_confusion(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        worst = max(worst, abs(r.f1 - 2.0 * r.iou / (1.0 + r.iou)))
    ok = hand_ok and worst <= 1e-12
    _verdict(
        9,
        f"hand-built 2x2 table gives iou 0.5, f1 0.6667, oa 0.5; f1 == 2*iou/(1+iou) "
        f"on 1000 random tables (worst gap {worst:.1e})",
        ok,
    )


def test_criterion_10_flop_accounting():
    # Cost model, restated independently of the engine: a k x k conv on an
    # HW-pixel output with c_out channels does 2*HW*c_out*(k*k*c_in/groups)
    # multiply-add flops plus HW*c_out bias adds; bilinear resize pays 8 per
    # output element; concatenation is free; every other op pays 1 per
    # output element.  Batch size 1 throughout.
    def conv(hw, c_out, taps):
        return 2 * hw * c_out * taps + hw * c_out

    stem = (
        conv(32 * 32, 8, 9 * 3)      # earlier image branch, 3x3 stride 2
        + conv(32 * 32, 8, 9 * 3)    # later image branch
        + conv(32 * 32, 16, 9 * 1)   # depthwise 3x3 over the 16-ch concat
        + conv(32 * 32, 16, 1 * 16)  # pointwise mix down to width 16
        + conv(32 * 32, 16, 9 * 1)   # second depthwise 3x3
    )
    encoder = (
        # stage 1: 16 -> 16 at 16x16, one residual block
        conv(16 * 16, 16, 9 * 16)
        + 2 * conv(16 * 16, 16, 9 * 16) + 3 * 16 * 16 * 16
        # stage 2: 16 -> 32 at 8x8, one residual block
        + conv(8 * 8, 32, 9 * 16)
        + 2 * conv(8 * 8, 32, 9 * 32) + 3 * 8 * 8 * 32
        # stage 3: 32 -> 64 at 4x4, two residual blocks
        + conv(4 * 4, 64, 9 * 32)
        + 2 * (2 * conv(4 * 4, 64, 9 * 64) + 3 * 4 * 4 * 64)
        # stage 4: 64 -> 128 at 2x2, one residual block
        + conv(2 * 2, 128, 9 * 64)
        + 2 * conv(2 * 2, 128, 9 * 128) + 3 * 2 * 2 * 128
    )
    hw = 16 * 16  # fusion and head run at stride 4
    fusion = (
        8 * 32 * hw + 8 * 64 * hw + 8 * 128 * hw  # three upsamples to 16x16
        + 64 * hw                                 # average deepest down to 64 ch
        + hw + hw                                 # stage-3 channel mean, tanh gate
        + 64 * hw                                 # gate multiply
        + 64 * hw                                 # add into stage 3
        + 32 * hw                                 # average down to 32 ch
        + 32 * hw                                 # add into stage 2
        + 16 * hw                                 # max down to 16 ch
        + 16 * hw                                 # add into stage 1
        + 0                                       # concat with resized deepest
        + hw                                      # channel mean of the fused map
    )
    head = (
        conv(hw, 64, 1 * 144)   # 1x1 squeeze of the 144-ch fused map
        + 64 * hw               # relu
        + conv(hw, 2, 1 * 64)   # 1x1 to two classes
        + 8 * 2 * 64 * 64       # upsample logits to 64x64
        + 2 * 64 * 64           # softmax
        + 8 * 64 * 64           # upsample the auxiliary map
        + 64 * 64               # sigmoid
    )

    report = count_flops(preset("tiny"), (64, 64))
    stages_ok = (report.stem, report.encoder, report.fusion, report.head) == (stem, encoder, fusion, head)
    total_ok = report.total == stem + encoder + fusion + head

    # pinned hand examples for the two primitive cost formulas
    specs = [
        s for s in conv_specs(preset("tiny"))
        if (s.c_out, s.c_in_per_group, s.kernel) == (32, 16, 3)
    ]
    param_ok = 3 * 3 * 16 * 32 + 32 == 4640 and specs and specs[0].param_count == 4640
    with FlopCounter() as fc:
        T.conv2d(
            _const(np.zeros((1, 16, 8, 8), dtype=np.float32)),
            _const(np.zeros((2, 16, 1, 1), dtype=np.float32)),
            _const(np.zeros((1, 2, 1, 1), dtype=np.float32)),
        )
    pointwise_ok = fc.total == 2 * 8 * 8 * 2 * 16 + 8 * 8 * 2 == 4224

    ok = stages_ok and total_ok and bool(param_ok) and pointwise_ok
    _verdict(
        10,
        f"measured flops ({report.total}) equal the hand-derived per-layer sum "
        f"({stem + encoder + fusion + head}) stage by stage; 4640-param and 4224-flop "
        "hand examples hold",
        ok,
    )
