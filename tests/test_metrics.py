import numpy as np
import pytest

from changedet import metrics
from changedet.data import DatasetIndex, SynthConfig, batch_iter, generate_synthetic_dataset, load_index
from changedet.errors import DataError, NumericError, ShapeError
from changedet.metrics import (
    ConfusionCounts,
    confusion_from_masks,
    evaluate,
    metrics_from_confusion,
)
from changedet.model import ChangeDetector, preset, predict_mask


class TestConfusionFromMasks:
    def test_hand_counted_2x2(self):
        pred = np.array([[1, 0], [1, 1]])
        gt = np.array([[1, 1], [0, 1]])
        c = confusion_from_masks(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 0)

    def test_perfect_prediction(self):
        gt = np.array([[1, 0, 1], [0, 0, 1]])
        c = confusion_from_masks(gt, gt)
        assert c.fp == 0 and c.fn == 0
        assert c.tp == 3 and c.tn == 3

    def test_swapping_masks_swaps_fp_and_fn(self):
        rng = np.random.default_rng(7)
        pred = (rng.random((4, 9, 9)) > 0.5).astype(np.uint8)
        gt = (rng.random((4, 9, 9)) > 0.7).astype(np.uint8)
        a = confusion_from_masks(pred, gt)
        b = confusion_from_masks(gt, pred)
        assert (a.tp, a.tn) == (b.tp, b.tn)
        assert (a.fp, a.fn) == (b.fn, b.fp)

    def test_counts_are_additive_over_images(self):
        rng = np.random.default_rng(3)
        pred = (rng.random((5, 8, 8)) > 0.4).astype(np.uint8)
        gt = (rng.random((5, 8, 8)) > 0.6).astype(np.uint8)
        whole = confusion_from_masks(pred, gt)
        parts = ConfusionCounts()
        for i in range(5):
            parts = parts + confusion_from_masks(pred[i], gt[i])
        assert parts == whole

    def test_total_covers_every_pixel(self):
        pred = np.zeros((2, 6, 6), dtype=np.uint8)
        gt = np.ones((2, 6, 6), dtype=np.uint8)
        assert confusion_from_masks(pred, gt).total == 72

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion_from_masks(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(DataError):
            confusion_from_masks(np.array([[0, 2]]), np.array([[0, 1]]))
        with pytest.raises(DataError):
            confusion_from_masks(np.array([[0, 1]]), np.array([[0.5, 1]]))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, bool])
    def test_matches_boolean_formula_on_random_masks(self, dtype):
        rng = np.random.default_rng(9)
        for shape in [(8, 128, 128), (3, 7, 5), (0, 4, 4)]:
            pred = (rng.random(shape) > 0.6).astype(dtype)
            gt = (rng.random(shape) > 0.3).astype(dtype)
            p, g = pred.astype(bool), gt.astype(bool)
            want = (np.count_nonzero(p & g), np.count_nonzero(p & ~g),
                    np.count_nonzero(~p & g), np.count_nonzero(~p & ~g))
            c = confusion_from_masks(pred, gt)
            assert (c.tp, c.fp, c.fn, c.tn) == want
            assert all(type(v) is int for v in (c.tp, c.fp, c.fn, c.tn))

    def test_non_binary_message_lists_the_distinct_values(self):
        pred = np.array([[[0, 1, 5, 3, 2, 7]]])
        with pytest.raises(DataError, match=r"^pred mask is not binary, found values \[0 1 2 3\]$"):
            confusion_from_masks(pred, np.zeros_like(pred))
        gt = np.array([[[np.nan, 1.0]]])
        with pytest.raises(DataError, match=r"^gt mask is not binary, found values \[ 1. nan\]$"):
            confusion_from_masks(np.zeros_like(gt), gt)


class TestMetricsFromConfusion:
    def test_hand_counted_example(self):
        r = metrics_from_confusion(ConfusionCounts(tp=2, fp=1, fn=1, tn=0))
        assert r.iou == 0.5
        assert abs(r.f1 - 2 / 3) < 1e-12
        assert r.oa == 0.5
        assert not r.degenerate

    def test_f1_iou_identity_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
            r = metrics_from_confusion(ConfusionCounts(tp, fp, fn, tn))
            assert abs(r.f1 - 2 * r.iou / (1 + r.iou)) < 1e-12

    def test_both_masks_empty_is_degenerate_perfection(self):
        r = metrics_from_confusion(ConfusionCounts(tp=0, fp=0, fn=0, tn=36))
        assert r.iou == 1.0 and r.f1 == 1.0 and r.oa == 1.0
        assert r.degenerate

    def test_missed_everything_is_zero_not_degenerate(self):
        r = metrics_from_confusion(ConfusionCounts(tp=0, fp=0, fn=10, tn=26))
        assert r.iou == 0.0 and r.f1 == 0.0
        assert not r.degenerate

    def test_zero_pixels_is_fully_degenerate(self):
        r = metrics_from_confusion(ConfusionCounts())
        assert r.iou == r.f1 == r.oa == 1.0
        assert r.degenerate

    def test_oa_counts_both_classes(self):
        r = metrics_from_confusion(ConfusionCounts(tp=10, fp=5, fn=5, tn=80))
        assert r.oa == 0.9


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("metrics_data")
    cfg = SynthConfig(image_size=32, train_count=0, val_count=0, test_count=6, seed=5)
    generate_synthetic_dataset(cfg, root)
    return root


class TestEvaluate:
    def test_covers_every_pixel_and_repeats_exactly(self, tiny_dataset):
        model = ChangeDetector(preset("nano"), seed=1)
        index = load_index(tiny_dataset, "test")
        first = evaluate(model, index, batch_size=4)
        second = evaluate(model, index, batch_size=3)
        assert first.counts.total == 6 * 32 * 32
        assert first == second  # batch split cannot change the counts

    def test_empty_split_rejected(self, tiny_dataset):
        index = DatasetIndex(root=tiny_dataset, split="test", ids=[])
        model = ChangeDetector(preset("nano"), seed=1)
        with pytest.raises(DataError):
            evaluate(model, index)

    def test_split_counts_equal_a_serial_loop_over_images(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr("changedet.model.SPLIT_MIN_PIXELS", 1)
        model = ChangeDetector(preset("nano"), seed=2)
        index = load_index(tiny_dataset, "test")
        serial = ConfusionCounts()
        for pre, post, mask, _ids in batch_iter(index, 1):
            serial = serial + confusion_from_masks(predict_mask(model.forward(pre, post).probs), mask)
        assert evaluate(model, index, batch_size=5).counts == serial

    def test_split_nan_in_the_worker_half_names_its_stage(self, tiny_dataset, monkeypatch):
        # predict_probs hands the first N // 2 images to one of its two worker threads.
        monkeypatch.setattr("changedet.model.SPLIT_MIN_PIXELS", 1)
        model = ChangeDetector(preset("nano"), seed=3)
        index = load_index(tiny_dataset, "test")
        before = evaluate(model, index, batch_size=4)

        def planted(index, batch_size):
            for pre, post, mask, ids in batch_iter(index, batch_size):
                pre[0, 1, 5, 7] = np.nan
                yield pre, post, mask, ids

        with monkeypatch.context() as m:
            m.setattr(metrics, "batch_iter", planted)
            with pytest.raises(NumericError, match="^conv2d produced non-finite values in stage stem$"):
                evaluate(model, index, batch_size=4)
        assert evaluate(model, index, batch_size=4) == before
