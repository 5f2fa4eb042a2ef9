"""Loss values against loop oracles, closed-form gradients, detachment."""

import numpy as np
import pytest

from changedet import losses as L
from changedet import tensor as T
from changedet.errors import ConfigError, DataError, ShapeError

import oracles


def rand_probs(shape, seed, dtype=np.float64):
    """Random 2-class per-pixel distributions bounded away from 0 and 1."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 0.95, size=(shape[0], 1) + shape[2:])
    p = np.concatenate([a, 1.0 - a], axis=1)
    return p.astype(dtype)


def rand_mask(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=(shape[0], 1) + shape[2:]) > 0.5).astype(np.float32)


class TestCeLoss:
    def test_uniform_logits_give_ln2(self):
        logits = T.Tensor(np.zeros((2, 2, 4, 4), np.float64))
        gt = rand_mask((2, 2, 4, 4), 0)
        assert L.ce_loss(logits, gt).item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        gt = rand_mask((1, 2, 4, 4), 1)
        logits = np.zeros((1, 2, 4, 4), np.float64)
        np.put_along_axis(logits, gt.astype(np.int64), 50.0, axis=1)
        assert L.ce_loss(T.Tensor(logits), gt).item() < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0, 3, size=(2, 2, 5, 6))
        gt = rand_mask((2, 2, 5, 6), 3)
        got = L.ce_loss(T.Tensor(logits), gt).item()
        want = oracles.ce_loss_oracle(logits, gt)
        assert got == pytest.approx(want, abs=1e-6)

    def test_rejects_nonbinary_gt(self):
        logits = T.Tensor(np.zeros((1, 2, 2, 2), np.float64))
        with pytest.raises(DataError):
            L.ce_loss(logits, np.full((1, 1, 2, 2), 2.0))

    def test_gradient_closed_form(self):
        # d/dz of mean(-log softmax_true) is (softmax - onehot)/Npix
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(1, 2, 3, 3))
        gt = rand_mask((1, 2, 3, 3), 5)
        lt = T.Tensor(logits)
        with T.Tape() as tape:
            loss = L.ce_loss(lt, gt)
        tape.backward(loss)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(logits)
        np.put_along_axis(onehot, gt.astype(np.int64), 1.0, axis=1)
        np.testing.assert_allclose(lt.grad, (p - onehot) / 9.0, rtol=1e-10)


@pytest.mark.parametrize(
    "loss,channels",
    [(L.ce_loss, 2), (L.bce_loss, 1), (L.soft_miou_loss, 2)],
    ids=["ce", "bce", "soft_miou"],
)
def test_nonbinary_gt_error_lists_distinct_values(loss, channels):
    gt = np.array([0.0, 1.0, 0.5, 2.0, 1.0, 0.5]).reshape(1, 1, 2, 3)
    x = T.Tensor(np.full((1, channels, 2, 3), 0.5))
    with pytest.raises(DataError, match=r"must be binary, found values \[0\.  0\.5 1\.  2\. \]$"):
        loss(x, gt)


@pytest.mark.parametrize(
    "loss,channels,gt_hw,message",
    [
        (L.ce_loss, 3, (2, 3), "ce_loss expects 2-class logits, got C=3"),
        (L.bce_loss, 2, (2, 3), "bce_loss expects a single-channel map, got C=2"),
        (L.soft_miou_loss, 3, (2, 3), "soft_miou_loss expects 2-class probabilities, got C=3"),
        (L.ce_loss, 2, (3, 2), r"ground truth must be \(1,1,2,3\), got \(1, 1, 3, 2\)"),
    ],
    ids=["ce-channels", "bce-channels", "soft_miou-channels", "gt-shape"],
)
def test_wrong_shape_rejected(loss, channels, gt_hw, message):
    x = T.Tensor(np.full((1, channels, 2, 3), 0.5))
    with pytest.raises(ShapeError, match=message):
        loss(x, np.zeros((1, 1) + gt_hw))


class TestBceLoss:
    def test_half_gives_ln2(self):
        p = T.Tensor(np.full((1, 1, 3, 3), 0.5, np.float64))
        gt = rand_mask((1, 1, 3, 3), 6)
        assert L.bce_loss(p, gt).item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_perfect_prediction_hits_clamp_floor(self):
        gt = rand_mask((1, 1, 4, 4), 7)
        loss = L.bce_loss(T.Tensor(gt.astype(np.float64)), gt).item()
        assert 0.0 <= loss <= 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.01, 0.99, size=(2, 1, 4, 5))
        gt = rand_mask((2, 1, 4, 5), 9)
        got = L.bce_loss(T.Tensor(p), gt).item()
        assert got == pytest.approx(oracles.bce_loss_oracle(p, gt), abs=1e-6)

    def test_clamped_pixels_get_zero_gradient(self):
        p = np.array([[[[0.0, 0.5, 1.0]]]], np.float64)
        gt = np.array([[[[1.0, 1.0, 0.0]]]], np.float32)
        pt = T.Tensor(p)
        with T.Tape() as tape:
            loss = L.bce_loss(pt, gt)
        tape.backward(loss)
        assert pt.grad[0, 0, 0, 0] == 0.0  # clamped at floor
        assert pt.grad[0, 0, 0, 2] == 0.0  # clamped at ceiling
        assert pt.grad[0, 0, 0, 1] != 0.0


class TestDistillLosses:
    def test_zero_when_equal(self):
        p = rand_probs((2, 2, 4, 4), 10)
        pt = T.Tensor(p)
        assert L.mae_loss(pt, p).item() == 0.0
        assert L.mse_loss(T.Tensor(p), p).item() == 0.0
        assert L.kl_loss(T.Tensor(p), p).item() == pytest.approx(0.0, abs=1e-12)

    def test_mae_hand_value(self):
        p_s = np.array([[[[0.2]], [[0.8]]]], np.float64)
        p_t = np.array([[[[0.4]], [[0.6]]]], np.float64)
        assert L.mae_loss(T.Tensor(p_s), p_t).item() == pytest.approx(0.2, rel=1e-12)

    def test_mse_hand_value(self):
        p_s = np.array([[[[0.2]], [[0.8]]]], np.float64)
        p_t = np.array([[[[0.4]], [[0.6]]]], np.float64)
        assert L.mse_loss(T.Tensor(p_s), p_t).item() == pytest.approx(0.04, rel=1e-10)

    def test_kl_nonnegative_on_random_pixels(self):
        p_s = rand_probs((4, 2, 16, 16), 11)  # 1024 pixels
        p_t = rand_probs((4, 2, 16, 16), 12)
        assert L.kl_loss(T.Tensor(p_s), p_t).item() >= 0.0

    @pytest.mark.parametrize("fn,oracle", [
        (L.mae_loss, oracles.mae_loss_oracle),
        (L.mse_loss, oracles.mse_loss_oracle),
    ])
    def test_pointwise_losses_match_oracle(self, fn, oracle):
        p_s = rand_probs((2, 2, 5, 5), 13)
        p_t = rand_probs((2, 2, 5, 5), 14)
        assert fn(T.Tensor(p_s), p_t).item() == pytest.approx(oracle(p_s, p_t), abs=1e-6)

    def test_kl_matches_oracle(self):
        p_s = rand_probs((2, 2, 5, 5), 15)
        p_t = rand_probs((2, 2, 5, 5), 16)
        got = L.kl_loss(T.Tensor(p_s), p_t).item()
        assert got == pytest.approx(oracles.kl_loss_oracle(p_t, p_s), abs=1e-6)

    def test_teacher_never_receives_gradient(self):
        p_s = T.Tensor(rand_probs((1, 2, 4, 4), 17))
        p_t = T.Tensor(rand_probs((1, 2, 4, 4), 18))
        for fn in (L.mae_loss, L.mse_loss, L.kl_loss):
            with T.Tape() as tape:
                loss = fn(p_s, p_t)
            tape.backward(loss)
            assert p_t.grad is None
            p_s.grad = None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.mae_loss(T.Tensor(np.zeros((1, 2, 4, 4), np.float64)), np.zeros((1, 2, 5, 5)))


class TestSoftMiouLoss:
    def test_one_hot_match_is_zero(self):
        gt = rand_mask((2, 2, 6, 6), 19)
        y = np.zeros((2, 2, 6, 6), np.float64)
        np.put_along_axis(y, gt.astype(np.int64), 1.0, axis=1)
        assert L.soft_miou_loss(T.Tensor(y), gt).item() == pytest.approx(0.0, abs=1e-6)

    def test_range(self):
        for seed in range(5):
            p = rand_probs((1, 2, 8, 8), 20 + seed)
            gt = rand_mask((1, 2, 8, 8), 30 + seed)
            v = L.soft_miou_loss(T.Tensor(p), gt).item()
            assert 0.0 <= v < 1.0

    def test_matches_loop_oracle(self):
        p = rand_probs((2, 2, 5, 4), 40)
        gt = rand_mask((2, 2, 5, 4), 41)
        y = np.zeros_like(p)
        np.put_along_axis(y, gt.astype(np.int64), 1.0, axis=1)
        got = L.soft_miou_loss(T.Tensor(p), gt).item()
        assert got == pytest.approx(oracles.soft_miou_loss_oracle(p, y), abs=1e-6)

    def test_gradient_against_finite_differences(self):
        p = rand_probs((1, 2, 3, 3), 42)
        gt = rand_mask((1, 2, 3, 3), 43)
        pt = T.Tensor(p)
        with T.Tape() as tape:
            loss = L.soft_miou_loss(pt, gt)
        tape.backward(loss)
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + 1e-6
            up = L.soft_miou_loss(T.Tensor(p), gt).item()
            p[ix] = orig - 1e-6
            dn = L.soft_miou_loss(T.Tensor(p), gt).item()
            p[ix] = orig
            num[ix] = (up - dn) / 2e-6
            it.iternext()
        np.testing.assert_allclose(pt.grad, num, rtol=1e-4, atol=1e-9)


class TestTotalLoss:
    """The total compute_losses returns: alpha1*gt + alpha2*boundary + alpha3*distill."""

    @staticmethod
    def _total(weights, selection, logits=None, teacher=True):
        # Zero logits give p = 0.5 everywhere: ce and the bce of that map are
        # both ln 2, and mae against a (0.3, 0.7) teacher is 0.2.
        logits = T.Tensor(np.zeros((1, 2, 4, 4)) if logits is None else logits)
        gt = rand_mask((1, 2, 4, 4), 60)
        probs = T.softmax_channel(logits)
        boundary = T.channel_max_pool(probs, 1)
        teacher_probs = np.concatenate([np.full((1, 1, 4, 4), 0.3), np.full((1, 1, 4, 4), 0.7)], axis=1)
        return L.compute_losses(logits, probs, boundary, gt, teacher_probs if teacher else None, weights, selection)

    def test_weighted_sum_hand_value(self):
        total, parts = self._total(L.LossWeights(1.0, 0.5, 1.0), L.LossSelection("ce", "mae"))
        assert total.item() == pytest.approx(1.5 * np.log(2.0) + 0.2, rel=1e-12)
        assert parts["total"] == total.item()

    def test_alpha3_zero_equals_none_selection(self):
        logits = np.random.default_rng(61).normal(size=(1, 2, 4, 4))
        a = self._total(L.LossWeights(1.0, 0.5, 0.0), L.LossSelection("ce", "mae"), logits)[0].item()
        b = self._total(L.LossWeights(1.0, 0.5, 1.0), L.LossSelection("ce", "none"), logits)[0].item()
        c = self._total(L.LossWeights(1.0, 0.5, 1.0), L.LossSelection("ce", "mae"), logits, teacher=False)[0].item()
        assert a == b == c

    def test_all_zero_parts_give_zero(self):
        # Zero weights make every weighted part zero.
        total, _ = self._total(L.LossWeights(0.0, 0.0, 0.0), L.LossSelection("ce", "mae"))
        assert total.item() == 0.0

    def test_linear_in_each_alpha(self):
        logits = np.random.default_rng(62).normal(size=(1, 2, 4, 4))
        selection = L.LossSelection("ce", "mae")
        base, parts = self._total(L.LossWeights(1.0, 1.0, 1.0), selection, logits)
        for i, key in enumerate(("gt", "boundary", "distill")):
            alphas = [1.0, 1.0, 1.0]
            alphas[i] = 2.0
            double = self._total(L.LossWeights(*alphas), selection, logits)[0].item()
            assert double - base.item() == pytest.approx(parts[key], rel=1e-9)

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            L.LossWeights(-0.1, 0.5, 1.0)
        with pytest.raises(ConfigError):
            L.LossWeights(float("nan"), 0.5, 1.0)

    def test_selection_validation(self):
        with pytest.raises(ConfigError):
            L.LossSelection(gt_loss="dice")
        with pytest.raises(ConfigError):
            L.LossSelection(distill_loss="cosine")


class TestComputeLosses:
    def test_breakdown_consistent_and_backward_reaches_logits(self):
        rng = np.random.default_rng(50)
        logits = T.Tensor(rng.normal(size=(2, 2, 8, 8)))
        gt = rand_mask((2, 2, 8, 8), 51)
        teacher = rand_probs((2, 2, 8, 8), 52)
        with T.Tape() as tape:
            probs = T.softmax_channel(logits)
            boundary = T.channel_max_pool(probs, 1)
            total, parts = L.compute_losses(
                logits, probs, boundary, gt, teacher, L.LossWeights(), L.LossSelection("ce", "kl")
            )
        tape.backward(total)
        want = parts["gt"] * 1.0 + parts["boundary"] * 0.5 + parts["distill"] * 1.0
        assert parts["total"] == pytest.approx(want, rel=1e-6)
        assert logits.grad is not None
        assert np.isfinite(logits.grad).all()

    def test_no_teacher_drops_distill_term(self):
        rng = np.random.default_rng(53)
        logits = T.Tensor(rng.normal(size=(1, 2, 4, 4)))
        gt = rand_mask((1, 2, 4, 4), 54)
        with T.Tape():
            probs = T.softmax_channel(logits)
            boundary = T.channel_max_pool(probs, 1)
            total, parts = L.compute_losses(
                logits, probs, boundary, gt, None, L.LossWeights(), L.LossSelection("ce", "mae")
            )
        assert parts["distill"] == 0.0
        assert parts["total"] == pytest.approx(parts["gt"] + 0.5 * parts["boundary"], rel=1e-6)
