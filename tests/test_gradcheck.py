"""The gradient checker: spot passes, and proof it catches broken backward."""

import numpy as np
import pytest

from changedet import gradcheck as G
from changedet import model as M
from changedet import tensor as T
from changedet.errors import ConfigError
from changedet.losses import DISTILL_LOSSES, GT_LOSSES, LossSelection, LossWeights, compute_losses
from changedet.model import FUSION_MODES


def test_spot_ops_pass_quickly():
    for name in ("conv2d", "channel_max_pool", "softmax_channel", "kl_loss"):
        report = G.check_op(name, instances=4, seed=7)
        assert report.passed, f"{name}: max rel err {report.max_rel_err}"
        assert report.max_rel_err < 1e-6


def test_same_seed_reproduces_exact_errors():
    a = G.check_op("bilinear_resize", instances=3, seed=11)
    b = G.check_op("bilinear_resize", instances=3, seed=11)
    assert a.max_rel_err == b.max_rel_err


def test_unknown_op_rejected():
    with pytest.raises(ConfigError):
        G.check_op("transposed_conv")


def test_checker_detects_a_wrong_gradient():
    # an op whose backward is off by 10%: the checker must flag it
    def broken_double(x):
        out = x.data * 2.0

        def backward(gout):
            T._accum(x, gout * 2.2)

        return T._emit("broken_double", out, backward)

    rng = np.random.default_rng(0)
    arrays = {"x": rng.normal(size=(1, 2, 3, 3))}
    err = G.check_instance(arrays, lambda t: broken_double(t["x"]), rng)
    assert err > 1e-2


def test_checker_detects_a_missing_gradient():
    def forgetful_add(a, b):
        out = a.data + b.data

        def backward(gout):
            T._accum(a, gout)  # silently drops b

        return T._emit("forgetful_add", out, backward)

    rng = np.random.default_rng(1)
    arrays = {
        "a": rng.normal(size=(1, 1, 2, 2)),
        "b": rng.normal(size=(1, 1, 2, 2)),
    }
    err = G.check_instance(arrays, lambda t: forgetful_add(t["a"], t["b"]), rng)
    assert err > 0.1


def test_registry_covers_primitives_and_losses():
    names = set(G.REGISTRY)
    for required in (
        "conv2d", "channel_avg_pool", "channel_max_pool", "channel_mean",
        "bilinear_resize", "relu", "tanh", "sigmoid", "add", "mul_broadcast",
        "concat_channel", "softmax_channel",
        "ce_loss", "bce_loss", "mae_loss", "mse_loss", "kl_loss", "soft_miou_loss",
    ):
        assert required in names


def _network_loss(config, params, pre, post, gt, teacher, selection):
    out = M.ChangeDetector(config, params=params).forward(pre, post)
    total, _ = compute_losses(out.logits, out.probs, out.boundary, gt, teacher, LossWeights(), selection)
    return total


# The per-op checks cannot see composition errors: closure order, gradient
# accumulation into shared inputs, or the fusion and head wiring.  This check
# runs the whole float64 network through compute_losses and compares the
# directional derivative along random parameter directions with a central
# difference.  The step is 1e-7: at 1e-6 a relu or channel-max kink crosses
# inside the step for some of these cases (relative errors up to 8e-2),
# while below 1e-7 rounding of the summed loss takes over (3e-5 at 1e-8).
# At 1e-7 the worst measured error over all 16 cases is 1.3e-6
# (emff/soft_miou/mse), so the bound leaves a margin of more than 50x.
NETWORK_STEP = 1e-7
NETWORK_BOUND = 1e-4


# distill_loss None is training without a teacher: no distillation term.
@pytest.mark.parametrize("distill_loss", [*DISTILL_LOSSES, pytest.param(None, id="none")])
@pytest.mark.parametrize("gt_loss", GT_LOSSES)
@pytest.mark.parametrize("fusion_mode", FUSION_MODES)
def test_whole_network_directional_derivative_matches_central_difference(fusion_mode, gt_loss, distill_loss):
    config = M.preset("nano", fusion_mode=fusion_mode)
    selection = LossSelection(gt_loss=gt_loss, distill_loss=distill_loss or "mae")
    worst = 0.0
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        params = M.init_params(config, seed=seed, dtype=np.float64)
        pre, post = rng.uniform(0.0, 1.0, (2, 2, 3, 32, 32))
        gt = (rng.uniform(size=(2, 1, 32, 32)) > 0.6).astype(np.float64)
        change = rng.uniform(0.05, 0.95, (2, 1, 32, 32))
        teacher = None if distill_loss is None else np.concatenate([1.0 - change, change], axis=1)
        with T.Tape() as tape:
            loss = _network_loss(config, params, pre, post, gt, teacher, selection)
        tape.backward(loss)
        for _ in range(4):
            direction = {name: rng.standard_normal(p.shape) for name, p in params.items()}
            analytic = sum(float((p.grad * direction[name]).sum()) for name, p in params.items())
            moved = [
                _network_loss(
                    config, {name: T.Tensor(p.data + sign * NETWORK_STEP * direction[name]) for name, p in params.items()},
                    pre, post, gt, teacher, selection,
                ).item()
                for sign in (1.0, -1.0)
            ]
            numeric = (moved[0] - moved[1]) / (2.0 * NETWORK_STEP)
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
    assert worst < NETWORK_BOUND
