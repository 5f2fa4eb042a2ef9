"""File formats, scene synthesis, dataset layout, batch iteration."""

import numpy as np
import pytest

from changedet import data as D
from changedet import netpbm
from changedet.errors import ConfigError, DataError, FormatError


def small_cfg(**kw):
    base = dict(image_size=32, train_count=6, val_count=3, test_count=3, seed=9)
    base.update(kw)
    return D.SynthConfig(**base)


class TestNetpbm:
    def test_ppm_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.round(rng.uniform(size=(3, 5, 7)) * 255) / np.float32(255.0)
        img = img.astype(np.float32)
        p = tmp_path / "img.ppm"
        netpbm.save_ppm(img, p)
        again = netpbm.load_ppm(p)
        assert np.array_equal(again, img)

    def test_pgm_round_trip_and_all_ones(self, tmp_path):
        p = tmp_path / "mask.pgm"
        netpbm.save_pgm(np.ones((4, 6), np.float32), p)
        out = netpbm.load_pgm(p)
        assert out.shape == (4, 6)
        assert (out == 1.0).all()

    def test_quantization_rounds_and_clamps(self, tmp_path):
        p = tmp_path / "img.ppm"
        img = np.array([-0.5, 0.0, 0.5, 1.0, 1.5], np.float32)
        netpbm.save_ppm(np.tile(img, (3, 1, 1)), p)
        out = netpbm.load_ppm(p)
        np.testing.assert_allclose(out[0, 0], [0.0, 0.0, 128 / 255, 1.0, 1.0], atol=1e-7)

    def test_ascii_variant_rejected(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P3\n1 1\n255\n255 0 0\n")
        with pytest.raises(FormatError):
            netpbm.load_ppm(p)

    def test_wrong_magic_for_kind(self, tmp_path):
        p = tmp_path / "x.pgm"
        netpbm.save_pgm(np.zeros((2, 2), np.float32), p)
        with pytest.raises(FormatError):
            netpbm.load_ppm(p)  # P5 body read as P6

    def test_short_payload_rejected(self, tmp_path):
        p = tmp_path / "img.ppm"
        netpbm.save_ppm(np.zeros((3, 4, 4), np.float32), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            netpbm.load_ppm(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "img.ppm"
        netpbm.save_ppm(np.zeros((3, 2, 2), np.float32), p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            netpbm.load_ppm(p)

    def test_maxval_must_be_255(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            netpbm.load_pgm(p)

    @pytest.mark.parametrize(
        "blob,message",
        [
            (b"P5\n2 1", "header ended before width/height/maxval"),
            (b"P5\n2 x1\n255\n\x00\x00", r"unexpected byte b'x' in header"),
            (b"P5\n2 1\n255", "missing whitespace after maxval"),
            (b"P5\n0 1\n255\n", "bad dimensions 0x1"),
        ],
        ids=["ends-early", "unexpected-byte", "no-whitespace-after-maxval", "zero-width"],
    )
    def test_malformed_header_rejected(self, tmp_path, blob, message):
        p = tmp_path / "img.pgm"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            netpbm.load_pgm(p)

    @pytest.mark.parametrize(
        "save,array,message",
        [
            (netpbm.save_ppm, np.zeros((4, 4), np.float32), r"save_ppm needs a \(3,H,W\) image, got \(4, 4\)"),
            (netpbm.save_ppm, np.zeros((1, 4, 4), np.float32), r"save_ppm needs a \(3,H,W\) image"),
            (netpbm.save_pgm, np.zeros((1, 4, 4), np.float32), r"save_pgm needs an \(H,W\) map, got \(1, 4, 4\)"),
        ],
        ids=["ppm-2d", "ppm-1-channel", "pgm-3d"],
    )
    def test_writer_rejects_wrong_rank(self, tmp_path, save, array, message):
        with pytest.raises(FormatError, match=message):
            save(array, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_comments_in_header_ok(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n# more\n255\n\x07\xff")
        out = netpbm.load_pgm(p)
        np.testing.assert_allclose(out[0], [7 / 255, 1.0], atol=1e-7)


class TestSynthConfig:
    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            D.SynthConfig(change_fraction=(0.5, 0.2))
        with pytest.raises(ConfigError):
            D.SynthConfig(image_size=33)
        with pytest.raises(ConfigError):
            D.SynthConfig(shape_count=(0, 3))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("val_count", -1, "split counts must be non-negative"),
            ("drift", -0.1, "drift and noise_sigma must be non-negative"),
            ("noise_sigma", -0.1, "drift and noise_sigma must be non-negative"),
            ("max_retries", 0, "max_retries must be >= 1"),
        ],
    )
    def test_negative_field_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            D.SynthConfig(**{field: value})


class TestRenderSample:
    def test_deterministic_for_equal_streams(self):
        cfg = small_cfg()
        a = D.render_sample(cfg, np.random.default_rng(42))
        b = D.render_sample(cfg, np.random.default_rng(42))
        assert np.array_equal(a.pre, b.pre)
        assert np.array_equal(a.post, b.post)
        assert np.array_equal(a.mask, b.mask)

    def test_values_in_range_and_mask_binary(self):
        cfg = small_cfg()
        s = D.render_sample(cfg, np.random.default_rng(1))
        for img in (s.pre, s.post):
            assert img.min() >= 0.0 and img.max() <= 1.0
            assert img.dtype == np.float32
        assert set(np.unique(s.mask)) <= {0, 1}

    def test_unchanged_scene_has_empty_mask(self):
        cfg = small_cfg(shape_count=(1, 1), change_fraction=(0.0, 0.0))
        s = D.render_sample(cfg, np.random.default_rng(2))
        assert s.mask.sum() == 0

    def test_infeasible_fraction_raises(self):
        cfg = small_cfg(change_fraction=(0.95, 1.0), max_retries=10)
        with pytest.raises(ConfigError, match="bounds are infeasible"):
            D.render_sample(cfg, np.random.default_rng(3))

    def test_fraction_respected(self):
        cfg = small_cfg(change_fraction=(0.05, 0.4))
        for seed in range(5):
            s = D.render_sample(cfg, np.random.default_rng(seed))
            assert 0.05 <= s.mask.mean() <= 0.4


class TestGenerateDataset:
    def test_counts_and_layout(self, tmp_path):
        cfg = small_cfg()
        idx = D.generate_synthetic_dataset(cfg, tmp_path)
        assert [len(idx[s]) for s in ("train", "val", "test")] == [6, 3, 3]
        files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.p?m"))
        assert len(files) == 3 * (6 + 3 + 3)
        assert "train/A/train_00000.ppm" in files
        assert "val/label/val_00002.pgm" in files

    def test_fractions_hold_on_disk(self, tmp_path):
        cfg = small_cfg()
        idx = D.generate_synthetic_dataset(cfg, tmp_path)
        lo, hi = cfg.change_fraction
        for split in ("train", "val", "test"):
            for sid in idx[split].ids:
                s = D.load_sample(idx[split], sid)
                assert lo <= s.mask.mean() <= hi, sid

    def test_generation_is_byte_deterministic(self, tmp_path):
        cfg = small_cfg()
        D.generate_synthetic_dataset(cfg, tmp_path / "a")
        D.generate_synthetic_dataset(cfg, tmp_path / "b")
        for p in sorted((tmp_path / "a").rglob("*")):
            if p.is_file():
                q = tmp_path / "b" / p.relative_to(tmp_path / "a")
                assert q.read_bytes() == p.read_bytes(), p.name

    def test_ids_unique_across_splits(self, tmp_path):
        idx = D.generate_synthetic_dataset(small_cfg(), tmp_path)
        all_ids = [i for s in idx.values() for i in s.ids]
        assert len(all_ids) == len(set(all_ids))

    def test_index_round_trip(self, tmp_path):
        D.generate_synthetic_dataset(small_cfg(), tmp_path)
        idx = D.load_index(tmp_path, "val")
        assert idx.ids == [f"val_{i:05d}" for i in range(3)]
        s = D.load_sample(idx, idx.ids[0])
        assert s.pre.shape == (3, 32, 32)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(DataError):
            D.load_index(tmp_path, "train")

    @pytest.mark.parametrize("bad_id", ["../../../outside/x", "a/b", "/abs", "a\\b", "..", "."])
    def test_manifest_id_must_be_one_path_component(self, tmp_path, bad_id):
        D.generate_synthetic_dataset(small_cfg(), tmp_path)
        manifest = tmp_path / "val" / "manifest.txt"
        manifest.write_text(f"val_00000\n\n{bad_id}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"manifest\.txt:3: sample id .* is not a single path component"):
            D.load_index(tmp_path, "val")

    def test_manifest_rejects_a_repeated_id(self, tmp_path):
        D.generate_synthetic_dataset(small_cfg(), tmp_path)
        manifest = tmp_path / "val" / "manifest.txt"
        manifest.write_text("val_00000\nval_00001\n\nval_00000\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"manifest\.txt:4: sample id 'val_00000' repeats line 1$"):
            D.load_index(tmp_path, "val")

    def test_missing_file_names_the_id(self, tmp_path):
        idx_all = D.generate_synthetic_dataset(small_cfg(), tmp_path)
        idx = idx_all["test"]
        victim = idx.ids[1]
        D.sample_paths(tmp_path, "test", victim)[1].unlink()
        with pytest.raises(DataError, match=victim):
            D.load_sample(idx, victim)

    def test_inconsistent_shapes_rejected(self, tmp_path):
        idx = D.generate_synthetic_dataset(small_cfg(), tmp_path)["val"]
        label = D.sample_paths(tmp_path, "val", idx.ids[0])[2]
        netpbm.save_pgm(np.zeros((32, 16), np.float32), label)
        with pytest.raises(DataError, match=r"inconsistent shapes pre=\(3, 32, 32\) post=\(3, 32, 32\) mask=\(32, 16\)"):
            D.load_sample(idx, idx.ids[0])

    def test_nonbinary_mask_rejected(self, tmp_path):
        idx = D.generate_synthetic_dataset(small_cfg(), tmp_path)["val"]
        label = D.sample_paths(tmp_path, "val", idx.ids[0])[2]
        blob = bytearray(label.read_bytes())
        blob[-1] = 128
        label.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="binary"):
            D.load_sample(idx, idx.ids[0])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    D.generate_synthetic_dataset(small_cfg(train_count=10), root)
    return D.load_index(root, "train")


class TestBatchIter:
    def test_batch_shapes_and_partial_tail(self, dataset):
        sizes = []
        for pre, post, mask, ids in D.batch_iter(dataset, batch_size=4):
            assert pre.shape[1:] == (3, 32, 32)
            assert post.shape == pre.shape
            assert mask.shape == (pre.shape[0], 32, 32)
            assert len(ids) == pre.shape[0]
            sizes.append(pre.shape[0])
        assert sizes == [4, 4, 2]

    def test_unshuffled_keeps_index_order(self, dataset):
        seen = [i for _, _, _, ids in D.batch_iter(dataset, 3) for i in ids]
        assert seen == dataset.ids

    def test_shuffle_is_seed_and_epoch_deterministic(self, dataset):
        def order(seed, epoch):
            return [i for _, _, _, ids in D.batch_iter(dataset, 4, seed=seed, shuffle=True, epoch=epoch) for i in ids]

        assert order(5, 0) == order(5, 0)
        assert order(5, 0) != order(5, 1)
        assert order(5, 0) != order(6, 0)
        assert sorted(order(5, 0)) == sorted(dataset.ids)

    def test_mixed_image_sizes_name_both_samples(self, tmp_path):
        D.generate_synthetic_dataset(small_cfg(train_count=0, val_count=0, test_count=2), tmp_path / "a")
        D.generate_synthetic_dataset(small_cfg(image_size=64, train_count=0, val_count=0), tmp_path / "b")
        for src, dst in zip(D.sample_paths(tmp_path / "b", "test", "test_00000"),
                            D.sample_paths(tmp_path / "a", "test", "big")):
            dst.write_bytes(src.read_bytes())
        (tmp_path / "a" / "test" / "manifest.txt").write_text("test_00000\ntest_00001\nbig\n", encoding="utf-8")
        index = D.load_index(tmp_path / "a", "test")
        assert [ids for _, _, _, ids in D.batch_iter(index, 2)][0] == ["test_00000", "test_00001"]
        with pytest.raises(DataError, match=r"'test_00000' is \(32, 32\), sample 'big' is \(64, 64\)"):
            list(D.batch_iter(index, 3))

    def test_bad_batch_size(self, dataset):
        with pytest.raises(ConfigError):
            next(D.batch_iter(dataset, 0))
