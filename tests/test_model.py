"""Network shapes, fusion contracts, parameter bookkeeping."""

import gc
import itertools
import os
import re
import signal
import sys
import threading
import traceback
import weakref
from dataclasses import fields

import numpy as np
import pytest

from changedet import model as M
from changedet import tensor as T
from changedet.errors import ConfigError, NumericError, ShapeError
from changedet.losses import LossConfig, compute_losses
from changedet.profiling import param_counts
from changedet.tensor import Tensor


def rand_pair(n=1, hw=64, seed=0):
    rng = np.random.default_rng(seed)
    pre = rng.uniform(0, 1, (n, 3, hw, hw)).astype(np.float32)
    post = rng.uniform(0, 1, (n, 3, hw, hw)).astype(np.float32)
    return pre, post


def zero_params(config):
    return {
        name: Tensor(np.zeros_like(p.data))
        for name, p in M.init_params(config, seed=0).items()
    }


class TestModelConfig:
    def test_presets_valid(self):
        for name in ("nano", "tiny", "small", "teacher"):
            cfg = M.preset(name)
            assert cfg.encoder_widths[3] % cfg.encoder_widths[2] == 0

    def test_width_ordering_enforced(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(encoder_widths=(32, 16, 64, 128))

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(encoder_widths=(16, 24, 64, 128))

    def test_widths_accepted_exactly_when_positive_non_decreasing_and_each_divides_the_next(self):
        for w in itertools.product((0, 1, 2, 3, 4, 6, 8, 12, 16), repeat=4):
            valid = min(w) >= 1 and all(lo <= hi and hi % lo == 0 for lo, hi in zip(w, w[1:]))
            try:
                M.ModelConfig(encoder_widths=w)
            except ConfigError:
                assert not valid, w
            else:
                assert valid, w

    def test_fusion_mode_enum(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(fusion_mode="bilinear")

    # One valid value away from the default per field.  A field missing here
    # fails the test below: every field must change the layers it builds.
    AWAY = {
        "stem_channels": 4,
        "encoder_widths": (8, 16, 32, 64),
        "encoder_depths": (1, 1, 1, 1),
        "head_hidden": 32,
        "fusion_mode": "naive",
    }

    @pytest.mark.parametrize("field", [f.name for f in fields(M.ModelConfig)])
    def test_every_field_shapes_the_model(self, field):
        assert field in self.AWAY, f"no away value for {field!r}"

        def layers(config):
            return [pair for spec in M.conv_specs(config) for pair in spec.params]

        assert layers(M.ModelConfig(**{field: self.AWAY[field]})) != layers(M.ModelConfig())

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("encoder_widths", (0, 16, 32, 64), "encoder widths must be >= 1"),
            ("encoder_depths", (1, -1, 1, 1), "encoder depths must be >= 0"),
            ("stem_channels", 0, "stem_channels must be >= 1, got 0"),
            ("head_hidden", 0, "head_hidden must be >= 1, got 0"),
        ],
    )
    def test_field_below_its_floor_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            M.ModelConfig(**{field: value})

    def test_preset_unknown_name(self):
        with pytest.raises(ConfigError):
            M.preset("huge")


class TestStem:
    def test_output_shape(self):
        cfg = M.preset("tiny")
        params = M.init_params(cfg, seed=1)
        pre, post = rand_pair()
        f = M.stem_forward(params, cfg, Tensor(pre), Tensor(post))
        assert f.shape == (1, 16, 32, 32)

    def test_zero_params_give_zero_output(self):
        cfg = M.preset("tiny")
        pre, post = rand_pair(seed=2)
        f = M.stem_forward(zero_params(cfg), cfg, Tensor(pre), Tensor(post))
        assert np.array_equal(f.data, np.zeros_like(f.data))

    def test_branches_are_not_symmetric(self):
        cfg = M.preset("tiny")
        params = M.init_params(cfg, seed=3)
        pre, post = rand_pair(seed=4)
        f_ab = M.stem_forward(params, cfg, Tensor(pre), Tensor(post))
        f_ba = M.stem_forward(params, cfg, Tensor(post), Tensor(pre))
        assert not np.allclose(f_ab.data, f_ba.data)

    def test_pair_shape_mismatch(self):
        cfg = M.preset("tiny")
        params = M.init_params(cfg, seed=5)
        with pytest.raises(ShapeError):
            M.stem_forward(
                params, cfg,
                Tensor(np.zeros((1, 3, 64, 64), np.float32)),
                Tensor(np.zeros((1, 3, 32, 32), np.float32)),
            )

    def test_non_rgb_pair_rejected(self):
        cfg = M.preset("tiny")
        gray = Tensor(np.zeros((1, 1, 64, 64), np.float32))
        with pytest.raises(ShapeError, match="stem: expected 3-channel images, got C=1"):
            M.stem_forward(M.init_params(cfg, seed=5), cfg, gray, gray)


class TestEncoder:
    def test_pyramid_shapes(self):
        cfg = M.preset("tiny")
        params = M.init_params(cfg, seed=6)
        f = Tensor(np.random.default_rng(7).normal(size=(1, 16, 32, 32)).astype(np.float32))
        pyr = M.encoder_forward(params, cfg, f)
        assert pyr.s1.shape == (1, 16, 16, 16)
        assert pyr.s2.shape == (1, 32, 8, 8)
        assert pyr.s3.shape == (1, 64, 4, 4)
        assert pyr.s4.shape == (1, 128, 2, 2)

    def test_zero_depths_is_four_convs(self):
        cfg = M.preset("tiny", encoder_depths=(0, 0, 0, 0))
        names = M.parameter_names(cfg)
        enc_names = [n for n in names if n.startswith("enc")]
        assert enc_names == [
            "enc1.down.w", "enc1.down.b", "enc2.down.w", "enc2.down.b",
            "enc3.down.w", "enc3.down.b", "enc4.down.w", "enc4.down.b",
        ]

    def test_zeroed_second_conv_makes_block_relu_identity(self):
        cfg = M.preset("tiny", encoder_depths=(1, 0, 0, 0))
        params = M.init_params(cfg, seed=8)
        params["enc1.res1.conv2.w"] = Tensor(np.zeros_like(params["enc1.res1.conv2.w"].data))
        params["enc1.res1.conv2.b"] = Tensor(np.zeros_like(params["enc1.res1.conv2.b"].data))
        f = Tensor(np.random.default_rng(9).normal(size=(1, 16, 32, 32)).astype(np.float32))
        pyr = M.encoder_forward(params, cfg, f)
        down = M._conv(params, M._spec_map(cfg)["enc1.down"], f)
        assert np.array_equal(pyr.s1.data, np.maximum(down.data, 0))

    def test_too_small_input_rejected(self):
        cfg = M.preset("tiny")
        params = M.init_params(cfg, seed=10)
        with pytest.raises(ConfigError):
            M.encoder_forward(params, cfg, Tensor(np.zeros((1, 16, 8, 8), np.float32)))


def make_pyramid(widths=(16, 32, 64, 128), hw=16, n=1, seed=11, dtype=np.float32):
    rng = np.random.default_rng(seed)
    sizes = [hw, hw // 2, hw // 4, hw // 8]
    return M.PyramidFeatures(
        *(Tensor(rng.normal(size=(n, c, s, s)).astype(dtype)) for c, s in zip(widths, sizes))
    )


class TestParameterFreeFusion:
    def test_output_shapes(self):
        pyr = make_pyramid()
        fused, fused_mean, detail = M.emff_fuse(pyr, (16, 32, 64, 128))
        assert fused.shape == (1, 144, 16, 16)
        assert fused_mean.shape == (1, 1, 16, 16)

    def test_owns_no_parameters(self):
        for mode_cfg in (M.preset("tiny"), M.preset("teacher"), M.preset("nano")):
            assert M.fusion_parameter_names(mode_cfg) == []

    def test_zero_stage3_neutralizes_the_gate(self):
        pyr = make_pyramid(seed=12)
        pyr.s3 = Tensor(np.zeros_like(pyr.s3.data))
        fused, fused_mean, detail = M.emff_fuse(pyr, (16, 32, 64, 128))
        assert np.array_equal(detail.gate.data, np.zeros_like(detail.gate.data))
        assert np.array_equal(detail.e4.data, np.zeros_like(detail.e4.data))
        # with a zero gate the enriched deep map degenerates to stage 3 bit-exactly
        assert np.array_equal(detail.e4_plus.data, detail.s3.data)

    def test_scaling_s4_by_two_scales_pooled_s4_exactly(self):
        pyr = make_pyramid(seed=13)
        _, _, d1 = M.emff_fuse(pyr, (16, 32, 64, 128))
        pyr2 = M.PyramidFeatures(pyr.s1, pyr.s2, pyr.s3, Tensor(pyr.s4.data * 2.0))
        _, _, d2 = M.emff_fuse(pyr2, (16, 32, 64, 128))
        # doubling only rescales exponents, so linear stages match bit-for-bit
        assert np.array_equal(d2.s4.data, d1.s4.data * 2.0)
        assert np.array_equal(d2.gate.data, d1.gate.data)  # gate reads stage 3 only
        assert np.array_equal(d2.e4.data, d1.e4.data * 2.0)

    def test_deterministic(self):
        pyr = make_pyramid(seed=14)
        a = M.emff_fuse(pyr, (16, 32, 64, 128))[0]
        b = M.emff_fuse(pyr, (16, 32, 64, 128))[0]
        assert np.array_equal(a.data, b.data)


class TestNaiveFusion:
    def test_shapes_and_param_count(self):
        cfg = M.preset("tiny", fusion_mode="naive")
        params = M.init_params(cfg, seed=15)
        assert M.fusion_parameter_names(cfg) == ["fuse.proj.w", "fuse.proj.b"]
        assert params["fuse.proj.w"].numel() + params["fuse.proj.b"].numel() == 240 * 144 + 144
        pyr = make_pyramid(seed=16)
        fused, fused_mean, _ = M.naive_fuse(params, pyr, cfg)
        assert fused.shape == (1, 144, 16, 16)

    def test_zero_projection_gives_zero_output(self):
        cfg = M.preset("tiny", fusion_mode="naive")
        params = zero_params(cfg)
        fused, _, _ = M.naive_fuse(params, make_pyramid(seed=17), cfg)
        assert np.array_equal(fused.data, np.zeros_like(fused.data))


class TestHeadAndFullForward:
    def test_full_forward_shapes_and_finiteness(self):
        net = M.ChangeDetector(M.preset("tiny"), seed=18)
        pre, post = rand_pair(seed=19)
        out = net.forward(pre, post)
        assert out.logits.shape == (1, 2, 64, 64)
        assert out.probs.shape == (1, 2, 64, 64)
        assert out.boundary.shape == (1, 1, 64, 64)
        assert out.fused.shape == (1, 144, 16, 16)
        assert np.isfinite(out.logits.data).all()

    def test_probs_sum_to_one(self):
        net = M.ChangeDetector(M.preset("nano"), seed=20)
        pre, post = rand_pair(seed=21)
        out = net.forward(pre, post)
        np.testing.assert_allclose(out.probs.data.sum(axis=1), 1.0, atol=1e-6)

    def test_boundary_in_open_unit_interval(self):
        net = M.ChangeDetector(M.preset("nano"), seed=22)
        pre, post = rand_pair(seed=23)
        out = net.forward(pre, post)
        assert (out.boundary.data > 0).all() and (out.boundary.data < 1).all()

    def test_zero_head_gives_uniform_probs(self):
        cfg = M.preset("nano")
        params = M.init_params(cfg, seed=24)
        for name in ("head.fc1.w", "head.fc1.b", "head.fc2.w", "head.fc2.b"):
            params[name] = Tensor(np.zeros_like(params[name].data))
        net = M.ChangeDetector(cfg, params=params)
        pre, post = rand_pair(seed=25)
        out = net.forward(pre, post)
        np.testing.assert_allclose(out.probs.data, 0.5, atol=1e-7)

    @pytest.mark.parametrize(
        "param, stage",
        [("stem.pw.w", "stem"), ("enc2.down.b", "encoder"), ("fuse.proj.w", "fusion"), ("head.fc2.w", "head")],
    )
    def test_non_finite_weight_names_its_stage(self, param, stage):
        net = M.ChangeDetector(M.preset("nano", fusion_mode="naive"), seed=26)
        net.params[param].data[...] = np.nan
        pre, post = rand_pair(seed=27)
        with pytest.raises(NumericError, match=f"^conv2d produced non-finite values in stage {stage}$"):
            net.forward(pre, post)

    def test_input_size_must_be_divisible(self):
        net = M.ChangeDetector(M.preset("nano"), seed=26)
        for h, w in ((48, 48), (0, 0)):
            bad = np.zeros((1, 3, h, w), np.float32)
            with pytest.raises(ShapeError, match=f"positive multiples of 32, got {h}x{w}$"):
                net.forward(bad, bad)

    def test_forward_works_off_config_size(self):
        # input size is a property of the batch, not baked into the weights
        net = M.ChangeDetector(M.preset("nano"), seed=27)
        pre, post = rand_pair(hw=96, seed=28)
        out = net.forward(pre, post)
        assert out.logits.shape == (1, 2, 96, 96)


class TestParameterAccounting:
    def test_tiny_total_matches_hand_arithmetic(self):
        # stem: 2*(8*27+8) + (16*9+16) + (16*16+16) + (16*9+16)
        stem = 2 * (8 * 27 + 8) + (16 * 9 + 16) + (16 * 16 + 16) + (16 * 9 + 16)
        enc1 = (16 * 16 * 9 + 16) + 2 * (16 * 16 * 9 + 16)
        enc2 = (32 * 16 * 9 + 32) + 2 * (32 * 32 * 9 + 32)
        enc3 = (64 * 32 * 9 + 64) + 4 * (64 * 64 * 9 + 64)
        enc4 = (128 * 64 * 9 + 128) + 2 * (128 * 128 * 9 + 128)
        head = (64 * 144 + 64) + (2 * 64 + 2)
        want = stem + enc1 + enc2 + enc3 + enc4 + head
        net = M.ChangeDetector(M.preset("tiny"), seed=29)
        assert param_counts(net.params).total == want

    def test_naive_mode_adds_exactly_the_projection(self):
        emff = param_counts(M.ChangeDetector(M.preset("tiny"), seed=30).params).total
        naive = param_counts(M.ChangeDetector(M.preset("tiny", fusion_mode="naive"), seed=30).params).total
        assert naive - emff == 240 * 144 + 144

    def test_init_is_seed_deterministic(self):
        a = M.init_params(M.preset("nano"), seed=5)
        b = M.init_params(M.preset("nano"), seed=5)
        c = M.init_params(M.preset("nano"), seed=6)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        assert any(not np.array_equal(a[k].data, c[k].data) for k in a)

    def test_init_respects_fan_in_bound(self):
        params = M.init_params(M.preset("tiny"), seed=31)
        w = params["enc2.down.w"].data  # fan_in = 16*9 = 144
        bound = (1.0 / 144) ** 0.5
        assert np.abs(w).max() <= bound

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fusion_mode", M.FUSION_MODES)
    @pytest.mark.parametrize("name", sorted(M.PRESETS))
    def test_init_draws_in_a_straight_loop_order(self, name, fusion_mode, dtype):
        # one generator; per layer in conv_specs order, the weight then the bias, each U(+-sqrt(1/fan_in))
        config = M.preset(name, fusion_mode=fusion_mode)
        rng = np.random.default_rng(34)
        want = {}
        for s in M.conv_specs(config):
            bound = float(np.sqrt(1.0 / (s.c_in_per_group * s.kernel * s.kernel)))
            want[s.name + ".w"] = rng.uniform(-bound, bound, (s.c_out, s.c_in_per_group, s.kernel, s.kernel))
            want[s.name + ".b"] = rng.uniform(-bound, bound, (1, s.c_out, 1, 1))
        got = M.init_params(config, seed=34, dtype=dtype)
        assert list(got) == list(want)
        for key, values in want.items():
            assert got[key].data.dtype == dtype
            assert got[key].data.tobytes() == values.astype(dtype).tobytes(), key

    def test_wrong_param_names_rejected(self):
        cfg = M.preset("nano")
        params = M.init_params(cfg, seed=32)
        params.pop("head.fc2.b")
        with pytest.raises(ConfigError):
            M.ChangeDetector(cfg, params=params)

    def test_param_dict_in_any_order_is_held_in_config_order(self):
        cfg = M.preset("nano")
        params = M.init_params(cfg, seed=33)
        backwards = dict(reversed(params.items()))
        net = M.ChangeDetector(cfg, params=backwards)
        assert list(net.params) == M.parameter_names(cfg)
        assert all(net.params[name] is p for name, p in params.items())
        backwards.pop("head.fc2.b")
        with pytest.raises(ConfigError, match=re.escape("parameter names do not match config: ['head.fc2.b']")):
            M.ChangeDetector(cfg, params=backwards)

    def test_wrong_param_shape_rejected(self):
        cfg = M.preset("nano")
        params = M.init_params(M.preset("nano", head_hidden=34), seed=32)  # nano has head_hidden=32
        want = "'head.fc1.w' has shape (34, 72, 1, 1), config expects (32, 72, 1, 1)"
        with pytest.raises(ConfigError, match=re.escape(want)):
            M.ChangeDetector(cfg, params=params)


class TestPredictMask:
    def test_tie_goes_to_no_change(self):
        p = np.full((1, 2, 2, 2), 0.5, np.float32)
        mask = M.predict_mask(p)
        assert mask.shape == (1, 2, 2)
        assert (mask == 0).all()

    def test_argmax(self):
        p = np.zeros((1, 2, 1, 2), np.float32)
        p[0, :, 0, 0] = (0.2, 0.8)
        p[0, :, 0, 1] = (0.9, 0.1)
        np.testing.assert_array_equal(M.predict_mask(p)[0, 0], [1, 0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_argmax_on_ties_infinities_and_nan(self, dtype):
        special = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf, np.nan], dtype)
        a0, a1 = np.meshgrid(special, special, indexing="ij")
        rng = np.random.default_rng(36)
        ties = rng.integers(0, 3, size=(2, 2, 9, 9)).astype(dtype)  # many equal pairs
        for p in (np.stack([a0, a1])[None], ties, rng.standard_normal((3, 2, 5, 7)).astype(dtype)):
            got = M.predict_mask(p)
            want = p.argmax(axis=1).astype(np.uint8)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)

    def test_values_binary(self):
        rng = np.random.default_rng(33)
        p = rng.uniform(size=(2, 2, 8, 8)).astype(np.float32)
        assert set(np.unique(M.predict_mask(p))) <= {0, 1}

    def test_shape_validated(self):
        with pytest.raises(ShapeError):
            M.predict_mask(np.zeros((1, 3, 4, 4), np.float32))


class TestGradientFlow:
    def test_backward_reaches_every_parameter(self):
        net = M.ChangeDetector(M.preset("nano"), seed=34)
        pre, post = rand_pair(hw=32, seed=35)
        with T.Tape() as tape:
            out = net.forward(pre, post)
            loss = T.sum_all(T.mul_broadcast(T.channel_mean(out.probs), out.boundary))
        tape.backward(loss)
        dead = [name for name, p in net.params.items() if p.grad is None]
        assert dead == []


class TestGraphOwnership:
    @pytest.mark.parametrize("fusion_mode", ["emff", "naive"])
    def test_dropped_tape_frees_its_graph_without_the_cyclic_collector(self, fusion_mode):
        # The tape owns the step's graph and nothing in the graph refers back
        # to it, so reference counting alone frees it.
        net = M.ChangeDetector(M.preset("nano", fusion_mode=fusion_mode), seed=36)
        pre, post = rand_pair(n=2, hw=32, seed=37)
        gt = np.zeros((2, 1, 32, 32), np.float32)
        gt[:, :, 8:20, 4:16] = 1

        def step():
            with T.Tape() as tape:
                out = net.forward(pre, post)
                total, _ = compute_losses(
                    out.logits, out.probs, out.boundary, gt, out.probs.data, LossConfig()
                )
                tape.backward(total)
            return weakref.ref(tape)

        step()  # the first call in a process leaves one-off garbage from lazy set-up in the libraries
        gc.collect()
        gc.disable()
        try:
            assert step()() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.fixture
def split_any_batch(monkeypatch):
    """predict_probs splits every batch of two or more, however small its images."""
    monkeypatch.setattr(M, "SPLIT_MIN_PIXELS", 1)


def record_forward_calls(net, monkeypatch) -> list[tuple[int, str, int]]:
    """Per forward call: batch size, and the name and ident of the thread that ran it."""
    calls = []
    forward = net.forward

    def spy(pre, post):
        calls.append((pre.shape[0], threading.current_thread().name, threading.get_ident()))
        return forward(pre, post)

    monkeypatch.setattr(net, "forward", spy)
    return calls


def forward_workers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "changedet-forward"]


def in_forked_child(job) -> bytes:
    """The bytes job() returns in an os.fork() child of this process.

    The child exits through os._exit whatever happens, so it never returns
    into the test runner, and SIGALRM's default action ends it if it hangs,
    for example on a job that no worker thread will ever take.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            signal.alarm(60)
            with os.fdopen(write, "wb") as f:
                f.write(job())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as f:
        result = f.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return result


class TestSplitForward:
    """predict_probs splits a forward-only batch across two worker threads, exactly.

    The tests named ``split`` also run in CI with the process pinned to one
    CPU, where every batch runs whole on the calling thread.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fusion_mode", ["emff", "naive"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_split_probs_equal_one_forward(self, n, fusion_mode, dtype, split_any_batch):
        config = M.preset("tiny", fusion_mode=fusion_mode)
        net = M.ChangeDetector(config, params=M.init_params(config, seed=40, dtype=dtype))
        pre, post = (a.astype(dtype) for a in rand_pair(n=n, seed=41))
        probs = net.predict_probs(pre, post)
        whole = net.forward(pre, post).probs.data
        assert probs.dtype == whole.dtype
        assert np.array_equal(probs, whole)

    @pytest.mark.parametrize("observer", ["tape", "flops"])
    def test_split_runs_inline_while_ops_are_observed(self, observer, split_any_batch, monkeypatch):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=42)
        pre, post = rand_pair(n=4, hw=32, seed=43)
        context = T.Tape if observer == "tape" else T.FlopCounter
        with context() as whole:
            net.forward(pre, post)
        with context() as split:
            probs = net.predict_probs(pre, post)
        if observer == "tape":
            # one record per op whatever the batch, so compare the output shapes too
            assert len(split) == len(whole)
            assert [out.shape for out, _ in split._records] == [out.shape for out, _ in whole._records]
        else:
            assert split.by_op == whole.by_op  # conv2d included
            assert split.by_stage == whole.by_stage
        assert np.array_equal(probs, net.forward(pre, post).probs.data)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_split_follows_the_cpu_affinity(self, cpus, split_any_batch, monkeypatch):
        # One CPU: one forward of the whole batch on this thread, no thread
        # started.  Two: N // 2 images on one worker thread, the rest on the other.
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=44)
        pre, post = rand_pair(n=5, hw=32, seed=45)
        whole = net.forward(pre, post).probs.data
        calls = record_forward_calls(net, monkeypatch)
        before = threading.enumerate()
        probs = net.predict_probs(pre, post)
        assert np.array_equal(probs, whole)
        if cpus == 1:
            assert calls == [(5, "MainThread", threading.get_ident())]
            assert threading.enumerate() == before
        else:
            assert sorted((size, name) for size, name, _ in calls) == [(2, "changedet-forward"), (3, "changedet-forward")]
            assert len({ident for *_, ident in calls}) == 2

    @pytest.mark.parametrize(
        "n, hw, sizes",
        [(3, 128, [3]), (2, 160, [2]), (4, 128, [2, 2]), (2, 192, [1, 1])],
        ids=["1x128²", "1x160²", "2x128²", "1x192²"],
    )
    def test_split_needs_enough_pixels_in_each_part(self, n, hw, sizes, monkeypatch):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=46)
        pre, post = rand_pair(n=n, hw=hw, seed=47)
        calls = record_forward_calls(net, monkeypatch)
        net.predict_probs(pre, post)
        assert sorted(size for size, *_ in calls) == sizes

    def test_split_starts_its_workers_at_the_first_split(self, split_any_batch, monkeypatch):
        # In a forked child no worker thread is left from this process's
        # splits, so the child shows when the first one starts.
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=48)
        pre, post = rand_pair(n=2, hw=32, seed=49)

        def job():
            assert forward_workers() == []
            net.predict_probs(pre[:1], post[:1])  # one image runs inline
            assert forward_workers() == []
            net.predict_probs(pre, post)
            workers = forward_workers()
            assert len(workers) == 2 and all(t.daemon for t in workers)
            return b"ok"

        assert in_forked_child(job) == b"ok"

    def test_split_runs_every_batch_on_the_same_two_workers(self, split_any_batch, monkeypatch):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=50)
        pre, post = rand_pair(n=4, hw=32, seed=51)
        calls = record_forward_calls(net, monkeypatch)
        net.predict_probs(pre, post)
        first = {ident for *_, ident in calls}
        calls.clear()
        net.predict_probs(pre, post)
        assert {ident for *_, ident in calls} == first
        assert len(first) == 2 and threading.get_ident() not in first
        assert {t.ident for t in forward_workers()} == first

    def test_split_in_a_forked_child_matches_the_parent(self, split_any_batch, monkeypatch):
        # The parent's workers do not exist in the child, which must start its
        # own rather than queue work for threads that are gone.
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=52)
        pre, post = rand_pair(n=4, hw=32, seed=53)
        probs = net.predict_probs(pre, post)
        assert forward_workers()
        assert in_forked_child(lambda: net.predict_probs(pre, post).tobytes()) == probs.tobytes()

    def test_split_from_several_threads_at_once(self, split_any_batch, monkeypatch):
        # More callers than cores, each queueing parts for the same two
        # workers while threads switch as often as the interpreter allows.
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=54)
        pairs = [rand_pair(n=2 + k, hw=32, seed=55 + k) for k in range(4)]
        wanted = [net.forward(pre, post).probs.data for pre, post in pairs]
        got: dict[int, list[np.ndarray]] = {}

        def caller(k):
            got[k] = [net.predict_probs(*pairs[k]) for _ in range(3)]

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(pairs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, want in enumerate(wanted):
            assert len(got[k]) == 3
            assert all(np.array_equal(probs, want) for probs in got[k])

    @pytest.mark.parametrize("image", [0, 3], ids=["first_part", "second_part"])
    def test_split_keeps_working_after_a_worker_raised(self, image, split_any_batch, monkeypatch):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        net = M.ChangeDetector(M.preset("nano"), seed=59)
        pre, post = rand_pair(n=4, hw=32, seed=60)
        bad = pre.copy()
        bad[image, 1, 5, 7] = np.nan
        with pytest.raises(NumericError, match="^conv2d produced non-finite values in stage stem$"):
            net.predict_probs(bad, post)
        # on a thread of its own, so that a worker that died leaves a failed test, not a hung one
        got = []
        caller = threading.Thread(target=lambda: got.append(net.predict_probs(pre, post)), daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        assert np.array_equal(got[0], net.forward(pre, post).probs.data)
