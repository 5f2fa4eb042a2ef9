import numpy as np
import pytest

from changedet import tensor as T
from changedet.errors import ConfigError
from changedet.model import ChangeDetector, ConvSpec, init_params, preset
from changedet.profiling import (
    count_flops,
    environment_info,
    measure_latency,
    param_counts,
)
from changedet.tensor import FlopCounter, Tensor


class TestParamCounts:
    def test_hand_counted_3x3_conv_layer(self):
        # 32 filters of 16x3x3 weights plus 32 biases
        spec = ConvSpec("x", c_out=32, c_in_per_group=16, kernel=3)
        assert spec.param_count == 32 * 16 * 9 + 32 == 4640

    def test_breakdown_sums_to_total(self):
        for name in ("nano", "tiny", "small"):
            model = ChangeDetector(preset(name))
            pc = param_counts(model.params)
            assert pc.total == pc.stem + pc.encoder + pc.fusion + pc.head
            assert pc.total == model.num_params()

    def test_parameter_free_fusion_counts_zero(self):
        pc = param_counts(init_params(preset("tiny")))
        assert pc.fusion == 0

    def test_naive_fusion_projection_size(self):
        # 1x1 conv from the concatenated 240 channels down to 144, plus bias
        pc = param_counts(init_params(preset("tiny", fusion_mode="naive")))
        assert pc.fusion == 144 * 240 + 144 == 34704

    def test_fusion_is_the_only_difference_between_modes(self):
        a = param_counts(init_params(preset("tiny")))
        b = param_counts(init_params(preset("tiny", fusion_mode="naive")))
        assert (a.stem, a.encoder, a.head) == (b.stem, b.encoder, b.head)
        assert b.total - a.total == 34704

    def test_parameter_outside_every_submodule_rejected(self):
        with pytest.raises(ConfigError, match="parameter 'decoder.w' belongs to no known submodule"):
            param_counts({"decoder.w": Tensor(np.zeros((1, 1, 1, 1), np.float32))})


class TestCountFlops:
    def test_idle_counter_reads_zero(self):
        with FlopCounter() as fc:
            pass
        assert fc.total == 0 and fc.by_op == {}

    def test_hand_counted_pointwise_conv(self):
        x = Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32), requires_grad=False)
        w = Tensor(np.zeros((2, 16, 1, 1), dtype=np.float32), requires_grad=False)
        b = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32), requires_grad=False)
        with FlopCounter() as fc:
            T.conv2d(x, w, b)
        assert fc.total == 2 * 8 * 8 * 2 * 16 + 8 * 8 * 2 == 4224

    def test_stage_breakdown_sums_to_total(self):
        r = count_flops(preset("nano"), (32, 32))
        assert r.total == r.stem + r.encoder + r.fusion + r.head
        assert sum(r.by_op.values()) == r.total
        assert r.total > 0

    def test_input_size_defaults_to_the_config(self):
        config = preset("nano", input_size=(64, 32))
        assert count_flops(config).input_size == config.input_size == (64, 32)

    def test_matches_flops_of_an_actual_forward(self):
        config = preset("nano", input_size=(32, 32))
        model = ChangeDetector(config, seed=3)
        rng = np.random.default_rng(0)
        pre = rng.random((1, 3, 32, 32), dtype=np.float32)
        post = rng.random((1, 3, 32, 32), dtype=np.float32)
        with FlopCounter() as fc:
            model.forward(pre, post)
        assert fc.total == count_flops(config).total

    @pytest.mark.parametrize("mode", ["emff", "naive"])
    def test_stages_match_the_stage_labels_of_an_actual_forward(self, mode):
        config = preset("nano", input_size=(32, 32), fusion_mode=mode)
        rng = np.random.default_rng(1)
        pre = rng.random((1, 3, 32, 32), dtype=np.float32)
        post = rng.random((1, 3, 32, 32), dtype=np.float32)
        with FlopCounter() as fc:
            ChangeDetector(config, seed=4).forward(pre, post)
        r = count_flops(config)
        assert fc.by_stage == {"stem": r.stem, "encoder": r.encoder, "fusion": r.fusion, "head": r.head}
        assert fc.by_op == r.by_op

    def test_grows_with_input_size(self):
        small = count_flops(preset("tiny"), (64, 64)).total
        large = count_flops(preset("tiny"), (128, 128)).total
        assert large > small
        # every op output scales with the input area, so the ratio is exact
        assert large == 4 * small

    def test_parameter_free_fusion_needs_fewer_flops(self):
        emff = count_flops(preset("tiny"), (64, 64))
        naive = count_flops(preset("tiny", fusion_mode="naive"), (64, 64))
        assert emff.fusion < naive.fusion
        assert emff.total < naive.total
        assert (emff.stem, emff.encoder, emff.head) == (naive.stem, naive.encoder, naive.head)

    def test_bad_input_size_rejected(self):
        with pytest.raises(ConfigError):
            count_flops(preset("tiny"), (48, 48))
        with pytest.raises(ConfigError):
            count_flops(preset("tiny"), (0, 0))


class TestMeasureLatency:
    def test_single_run_reports_its_only_sample(self):
        model = ChangeDetector(preset("nano", input_size=(32, 32)))
        samples = measure_latency(model, warmups=0, runs=1)
        assert len(samples) == 1 and samples[0] > 0

    def test_one_positive_sample_per_run(self):
        model = ChangeDetector(preset("nano", input_size=(32, 32)))
        samples = measure_latency(model, warmups=1, runs=3)
        assert len(samples) == 3
        assert all(s > 0 for s in samples)

    def test_environment_is_recorded(self):
        env = environment_info()
        assert set(env) >= {"platform", "python", "numpy"}
        assert env["numpy"] == np.__version__

    def test_invalid_run_counts_rejected(self):
        model = ChangeDetector(preset("nano", input_size=(32, 32)))
        with pytest.raises(ConfigError):
            measure_latency(model, runs=0)
        with pytest.raises(ConfigError):
            measure_latency(model, warmups=-1)
