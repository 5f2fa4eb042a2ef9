"""Engine ops against the frozen loop oracles, plus tape mechanics."""

import tracemalloc

import numpy as np
import pytest

from changedet import losses as L
from changedet import tensor as T
from changedet.errors import ConfigError, GraphError, NumericError, ShapeError

import oracles


def rand(shape, seed, dtype=np.float32, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape).astype(dtype)


def closure_arrays(tape):
    """Every array the last taped backward closure holds, directly or through a nested function.

    A tape keeps its closures alive until it is dropped, so these add to peak memory.
    """
    pending, arrays = [tape._records[-1][1]], []
    while pending:
        for cell in pending.pop().__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif callable(v) and hasattr(v, "__closure__"):
                pending.append(v)
    return arrays


class TestConv2d:
    @pytest.mark.parametrize(
        "shape,cout,k,stride,padding,groups",
        [
            ((2, 3, 6, 6), 4, 3, 1, 1, 1),
            ((1, 4, 5, 7), 6, 3, 2, 1, 2),
            ((2, 4, 6, 6), 4, 3, 1, 1, 4),  # depthwise
            ((1, 2, 4, 4), 3, 1, 1, 0, 1),  # pointwise
            ((1, 3, 5, 5), 4, 3, 2, 0, 1),
            ((1, 3, 8, 8), 2, 3, 2, 1, 1),
            ((2, 2, 5, 5), 2, 5, 1, 2, 1),
            ((2, 5, 4, 3), 3, 1, 1, 0, 1),  # pointwise, N=2
            ((2, 3, 7, 6), 3, 3, 2, 1, 3),  # depthwise, stride 2
            ((1, 4, 5, 5), 2, 3, 1, 1, 2),  # one output channel per group, two inputs each
            ((2, 1, 5, 5), 1, 3, 1, 1, 1),  # single-channel dense: groups == C_in == C_out
        ],
    )
    def test_matches_oracle_f32(self, shape, cout, k, stride, padding, groups):
        x = rand(shape, 1)
        w = rand((cout, shape[1] // groups, k, k), 2)
        b = rand((1, cout, 1, 1), 3)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, padding=padding, groups=groups)
        want = oracles.conv2d_oracle(x, w, b, stride=stride, padding=padding, groups=groups)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)

    def test_matches_oracle_f64_tight(self):
        x = rand((2, 3, 6, 6), 4, np.float64)
        w = rand((4, 3, 3, 3), 5, np.float64)
        b = rand((1, 4, 1, 1), 6, np.float64)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=1, padding=1)
        want = oracles.conv2d_oracle(x, w, b, stride=1, padding=1)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-14)

    def test_no_bias(self):
        x = rand((1, 2, 4, 4), 7)
        w = rand((3, 2, 3, 3), 8)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=1, padding=0)
        want = oracles.conv2d_oracle(x, w, None, stride=1, padding=0)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)

    def test_known_values(self):
        # 1x1 input, 1x1 kernel: out = x*w + b
        x = T.Tensor(np.full((1, 1, 1, 1), 3.0, np.float32))
        w = T.Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        b = T.Tensor(np.full((1, 1, 1, 1), 0.5, np.float32))
        out = T.conv2d(x, w, b)
        assert out.item() == pytest.approx(6.5)

    def test_pointwise_affine_hand_values(self):
        x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
        w = T.Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        b = T.Tensor(np.full((1, 1, 1, 1), 1.0, np.float32))
        out = T.conv2d(x, w, b)
        np.testing.assert_array_equal(out.data[0, 0], [[3.0, 5.0], [7.0, 9.0]])

    def test_pointwise_keeps_no_copy_of_its_input(self):
        # A taped 1x1, stride-1, unpadded conv multiplies the input as it lies;
        # a 3x3 conv of the same input builds 9 * 4 MiB of columns.
        x = T.Tensor(rand((1, 64, 128, 128), 13))
        w = T.Tensor(rand((8, 64, 1, 1), 14))
        tracemalloc.start()
        try:
            with T.Tape():
                T.conv2d(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes

    def test_padded_all_ones_counts_overlap(self):
        x = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = T.Tensor(np.ones((1, 1, 3, 3), np.float32))
        out = T.conv2d(x, w, padding=1)
        np.testing.assert_array_equal(
            out.data[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]
        )

    def test_depthwise_equals_per_channel_convolution(self):
        x = rand((1, 3, 6, 6), 70)
        w = rand((3, 1, 3, 3), 71)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1, groups=3)
        for c in range(3):
            alone = oracles.conv2d_oracle(x[:, c : c + 1], w[c : c + 1], None, stride=1, padding=1)
            np.testing.assert_allclose(got.data[:, c : c + 1], alone, rtol=1e-5, atol=1e-6)

    def test_identity_kernel(self):
        # 3x3 kernel with center 1 and zero padding reproduces the input
        x = rand((1, 1, 5, 5), 9)
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize(
        "shape,w_shape,stride,padding,groups",
        [
            ((1, 2, 5, 5), (3, 2, 3, 3), 2, 1, 1),
            ((1, 4, 5, 4), (6, 2, 3, 3), 1, 1, 2),
            ((2, 3, 5, 5), (3, 1, 3, 3), 1, 1, 3),
            ((1, 3, 6, 5), (3, 1, 3, 3), 2, 1, 3),
            ((2, 3, 4, 4), (2, 3, 1, 1), 1, 0, 1),
            ((1, 3, 5, 5), (2, 3, 1, 1), 2, 0, 1),
            ((1, 2, 3, 4), (2, 2, 1, 1), 1, 1, 1),
            ((1, 4, 5, 5), (2, 2, 3, 3), 1, 1, 2),
            ((2, 1, 5, 5), (1, 1, 3, 3), 1, 1, 1),
        ],
        ids=[
            "dense-s2-p1", "grouped", "depthwise-s1", "depthwise-s2", "pointwise-n2", "1x1-s2", "1x1-p1",
            "one-out-per-group", "single-channel",
        ],
    )
    def test_backward_matches_fd(self, shape, w_shape, stride, padding, groups):
        x = rand(shape, 10, np.float64)
        w = rand(w_shape, 11, np.float64)
        b = rand((1, w_shape[0], 1, 1), 12, np.float64)
        xt, wt, bt = T.Tensor(x), T.Tensor(w), T.Tensor(b)
        with T.Tape() as tape:
            out = T.conv2d(xt, wt, bt, stride=stride, padding=padding, groups=groups)
            loss = T.sum_all(out)
        tape.backward(loss)

        def f(xa, wa, ba):
            return oracles.conv2d_oracle(xa, wa, ba, stride=stride, padding=padding, groups=groups).sum()

        for arr, grad in ((x, xt.grad), (w, wt.grad), (b, bt.grad)):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + 1e-6
                up = f(x, w, b)
                arr[ix] = orig - 1e-6
                dn = f(x, w, b)
                arr[ix] = orig
                num[ix] = (up - dn) / 2e-6
                it.iternext()
            np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("w_shape,groups", [((3, 2, 3, 3), 1), ((2, 1, 3, 3), 2)])
    def test_backward_keeps_no_padded_input(self, w_shape, groups):
        x = T.Tensor(rand((1, 2, 5, 5), 16))
        w = T.Tensor(rand(w_shape, 17))
        with T.Tape() as tape:
            T.conv2d(x, w, stride=1, padding=2, groups=groups)
        padded_shape = (1, 2, 9, 9)
        for a in closure_arrays(tape):
            assert padded_shape not in (a.shape, getattr(a.base, "shape", None))

    @pytest.mark.parametrize("groups", [1, 2])
    def test_pointwise_backward_copies_no_input(self, groups):
        # A 1x1, stride-1, unpadded conv takes the input itself as its columns.
        x = T.Tensor(rand((2, 4, 3, 5), 18))
        w = T.Tensor(rand((6, 4 // groups, 1, 1), 19))
        with T.Tape() as tape:
            T.conv2d(x, w, groups=groups)
        input_sized = [a for a in closure_arrays(tape) if a.size == x.data.size]
        assert input_sized
        for a in input_sized:
            assert np.shares_memory(a, x.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,cout", [((3, 144, 16, 16), 64), ((1, 3, 1, 1), 5), ((2, 5, 4, 3), 3)], ids=["head-fc1", "1x1-map", "n2"]
    )
    def test_pointwise_dx_is_one_gemm_exactly(self, dtype, shape, cout):
        # An unpadded stride-1 1x1 conv scatters its dX once into a zeroed
        # canvas, so x.grad holds the bits of the single GEMM w^T @ gout.
        n, c, h, w = shape
        x = T.Tensor(rand(shape, 21, dtype))
        wt = T.Tensor(rand((cout, c, 1, 1), 22, dtype))
        with T.Tape() as tape:
            out = T.conv2d(x, wt)
        gout = rand(out.shape, 23, dtype)
        tape._seeded_backward(out, gout)
        want = np.matmul(wt.data.reshape(cout, c).T, gout.reshape(n, cout, h * w)).reshape(shape)
        assert x.grad.dtype == want.dtype
        assert np.array_equal(x.grad, want)

    def test_rejects_bad_geometry(self):
        x = T.Tensor(np.zeros((1, 4, 4, 4), np.float32))
        with pytest.raises(ConfigError):
            T.conv2d(x, T.Tensor(np.zeros((4, 2, 3, 3), np.float32)), groups=3)
        with pytest.raises(ShapeError):
            T.conv2d(x, T.Tensor(np.zeros((4, 3, 3, 3), np.float32)))
        with pytest.raises(ShapeError):
            T.conv2d(x, T.Tensor(np.zeros((4, 4, 7, 7), np.float32)))
        with pytest.raises(ShapeError):
            T.conv2d(
                x,
                T.Tensor(np.zeros((4, 4, 3, 3), np.float32)),
                T.Tensor(np.zeros((1, 5, 1, 1), np.float32)),
            )


class TestChannelPools:
    @pytest.mark.parametrize(
        "shape,c_out",
        [pytest.param((2, c, 3, 4), c_out, id=f"{c}-{c_out}") for c, c_out in [(8, 4), (8, 1), (6, 6), (12, 3)]]
        # the fusion shapes of preset tiny at 32x32 and 128x128 input
        + [
            pytest.param((8, c, hw, hw), c_out, id=f"fusion-{c}-{c_out}-{hw}x{hw}")
            for c, c_out in [(128, 64), (64, 32)]
            for hw in (8, 32)
        ],
    )
    def test_avg_matches_oracle_exactly(self, shape, c_out):
        x = rand(shape, shape[1])
        got = T.channel_avg_pool(T.Tensor(x), c_out)
        want = oracles.channel_avg_pool_oracle(x, c_out)
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("c,c_out", [(8, 4), (8, 1), (6, 6), (12, 3)])
    def test_max_matches_oracle_exactly(self, c, c_out):
        x = rand((2, c, 3, 4), c + 100)
        got = T.channel_max_pool(T.Tensor(x), c_out)
        want = oracles.channel_max_pool_oracle(x, c_out)
        assert np.array_equal(got.data, want)

    def test_mean_matches_oracle_exactly(self):
        # the last four are the fusion shapes of preset tiny at 32x32 and 128x128 input
        shapes = [(2, c, 4, 5) for c in (1, 2, 3, 7, 16)] + [(8, c, hw, hw) for c in (64, 144) for hw in (8, 32)]
        for shape in shapes:
            x = rand(shape, shape[1] + 200)
            got = T.channel_mean(T.Tensor(x))
            want = oracles.channel_mean_oracle(x)
            assert np.array_equal(got.data, want), shape

    def test_mean_of_one_pixel_is_close_to_oracle(self):
        # At H*W == 1 numpy sums 8 or more channels pairwise, not in loop
        # order, so only closeness holds; the model never pools at 1x1.
        x = rand((2, 144, 1, 1), 344, lo=0.0)
        np.testing.assert_allclose(T.channel_mean(T.Tensor(x)).data, oracles.channel_mean_oracle(x), rtol=1e-6, atol=0)

    def test_avg_of_repeated_groups_is_identity(self):
        # Pairwise group means are exact in IEEE: (a+b)/2 reconstructed from
        # equal halves round-trips bit-for-bit.
        base = rand((1, 4, 3, 3), 42)
        x = np.repeat(base, 2, axis=1)  # groups of two equal channels
        got = T.channel_avg_pool(T.Tensor(x), 4)
        assert np.array_equal(got.data, base)

    def test_pool_then_repeat_preserves_group_means(self):
        x = rand((1, 8, 3, 3), 43)
        pooled = T.channel_avg_pool(T.Tensor(x), 4)
        back = np.repeat(pooled.data, 2, axis=1)
        again = T.channel_avg_pool(T.Tensor(back), 4)
        assert np.array_equal(again.data, pooled.data)

    def test_avg_hand_values(self):
        x = T.Tensor(np.array([1.0, 3.0, 5.0, 7.0], np.float32).reshape(1, 4, 1, 1))
        np.testing.assert_array_equal(
            T.channel_avg_pool(x, 2).data.ravel(), [2.0, 6.0]
        )

    def test_max_hand_values(self):
        x = T.Tensor(np.array([1.0, 3.0, 5.0, 7.0], np.float32).reshape(1, 4, 1, 1))
        np.testing.assert_array_equal(
            T.channel_max_pool(x, 2).data.ravel(), [3.0, 7.0]
        )

    def test_avg_identity_when_c_out_equals_c(self):
        x = rand((2, 5, 3, 3), 44)
        out = T.channel_avg_pool(T.Tensor(x), 5)
        assert np.array_equal(out.data, x)

    def test_mean_hand_value_and_single_channel_identity(self):
        x = T.Tensor(np.array([1.0, 3.0], np.float32).reshape(1, 2, 1, 1))
        assert T.channel_mean(x).item() == 2.0
        single = rand((1, 1, 4, 4), 45)
        assert np.array_equal(T.channel_mean(T.Tensor(single)).data, single)

    def test_max_tie_gradient_goes_to_first(self):
        x = np.zeros((1, 2, 1, 1), np.float32)
        x[0, 0] = 1.0
        x[0, 1] = 1.0  # tie
        xt = T.Tensor(x)
        with T.Tape() as tape:
            out = T.channel_max_pool(xt, 1)
            loss = T.sum_all(out)
        tape.backward(loss)
        assert xt.grad[0, 0, 0, 0] == 1.0
        assert xt.grad[0, 1, 0, 0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_backward_is_bitwise_the_scatter_to_the_first_argmax(self, dtype):
        # Small integers make many ties within each group of 3; gout holds
        # -0.0 entries, whose sign must reach the argmax and nowhere else.
        rng = np.random.default_rng(47)
        x = rng.integers(0, 3, (2, 6, 3, 4)).astype(dtype)
        gout = rng.standard_normal((2, 2, 3, 4)).astype(dtype)
        gout[0, 0, 0, :3] = -0.0
        xt = T.Tensor(x)
        with T.Tape() as tape:
            out = T.channel_max_pool(xt, 2)
        tape._seeded_backward(out, gout)
        xs = x.reshape(2, 2, 3, 3, 4)
        want = np.zeros_like(xs)
        np.put_along_axis(want, xs.argmax(axis=2)[:, :, None], gout[:, :, None], axis=2)
        want = want.reshape(x.shape)
        assert xt.grad.dtype == want.dtype
        assert np.array_equal(xt.grad, want)
        assert np.array_equal(np.signbit(xt.grad), np.signbit(want))

    def test_avg_backward_spreads_evenly(self):
        x = rand((1, 4, 2, 2), 5)
        xt = T.Tensor(x)
        with T.Tape() as tape:
            out = T.channel_avg_pool(xt, 2)
            loss = T.sum_all(out)
        tape.backward(loss)
        np.testing.assert_allclose(xt.grad, np.full_like(x, 0.5))

    def test_mean_backward(self):
        x = rand((1, 4, 2, 2), 6)
        xt = T.Tensor(x)
        with T.Tape() as tape:
            loss = T.sum_all(T.channel_mean(xt))
        tape.backward(loss)
        np.testing.assert_allclose(xt.grad, np.full_like(x, 0.25))

    def test_rejects_indivisible_groups(self):
        x = T.Tensor(np.zeros((1, 6, 2, 2), np.float32))
        with pytest.raises(ConfigError):
            T.channel_avg_pool(x, 4)
        with pytest.raises(ConfigError):
            T.channel_max_pool(x, 5)

    @pytest.mark.parametrize(
        "op",
        [lambda t: T.channel_avg_pool(t, 1), lambda t: T.channel_max_pool(t, 1), T.channel_mean],
        ids=["channel_avg_pool", "channel_max_pool", "channel_mean"],
    )
    def test_empty_channel_axis_rejected(self, op):
        with pytest.raises(ShapeError, match="empty channel axis"):
            op(T.Tensor(np.zeros((1, 0, 2, 2), np.float32)))


@pytest.mark.parametrize("op", [T.relu, lambda t: T.channel_max_pool(t, 2)], ids=["relu", "channel_max_pool"])
def test_backward_keeps_no_forward_built_array(op):
    # The relu mask and the max-pool argmax are built in backward; the
    # closure holds at most the input's own buffer or a view of it.
    x = T.Tensor(rand((2, 4, 3, 3), 46))
    with T.Tape() as tape:
        op(x)
    for a in closure_arrays(tape):
        assert a is x.data or a.base is x.data, a.shape


class TestBilinearResize:
    def test_known_1d_upsample(self):
        # Row [0, 2] doubled: centers land at -0.25, 0.25, 0.75, 1.25 ->
        # clamped interpolation gives [0, 0.5, 1.5, 2].
        x = np.array([[[[0.0, 2.0]]]], np.float32)
        out = T.bilinear_resize(T.Tensor(x), 1, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.5, 1.5, 2.0], atol=1e-7)

    @pytest.mark.parametrize(
        "in_hw,out_hw",
        [((4, 4), (8, 8)), ((5, 7), (16, 16)), ((8, 8), (3, 5)), ((2, 2), (64, 64)), ((6, 4), (6, 8))],
    )
    def test_matches_oracle(self, in_hw, out_hw):
        x = rand((2, 3) + in_hw, sum(in_hw))
        got = T.bilinear_resize(T.Tensor(x), *out_hw)
        want = oracles.bilinear_resize_oracle(x, *out_hw)
        np.testing.assert_allclose(got.data, want, rtol=1e-6, atol=1e-7)

    def test_repeat_call_is_bit_identical(self):
        x = rand((2, 3, 5, 7), 18)
        first = T.bilinear_resize(T.Tensor(x), 13, 11).data
        second = T.bilinear_resize(T.Tensor(x), 13, 11).data
        assert np.array_equal(first, second)

    def test_memoised_matrix_is_read_only(self):
        m = T._resize_matrix(5, 13, np.dtype(np.float32))
        assert m is T._resize_matrix(5, 13, np.dtype(np.float32))
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    @pytest.mark.parametrize("shape,out_hw", [((2, 3, 5, 7), (16, 9)), ((3, 8, 8), (5, 12)), ((6, 4), (6, 8))])
    def test_array_resize_matches_oracle(self, shape, out_hw):
        x = rand(shape, 19)
        got = T.resize_bilinear_array(x, *out_hw)
        want = oracles.bilinear_resize_oracle(x.reshape((-1, 1) + shape[-2:]), *out_hw)
        np.testing.assert_allclose(got, want.reshape(shape[:-2] + out_hw), rtol=1e-6, atol=1e-7)

    def test_identity_is_bit_exact(self):
        x = rand((2, 3, 7, 7), 13)
        out = T.bilinear_resize(T.Tensor(x), 7, 7)
        assert np.array_equal(out.data, x)

    def test_constant_preserved(self):
        x = np.full((1, 2, 3, 3), 0.7, np.float32)
        out = T.bilinear_resize(T.Tensor(x), 9, 5)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_backward_is_transpose(self):
        # <resize(x), g> == <x, resize^T(g)> for random g
        x = rand((1, 2, 4, 4), 14, np.float64)
        g = rand((1, 2, 6, 6), 15, np.float64)
        xt = T.Tensor(x)
        with T.Tape() as tape:
            out = T.bilinear_resize(xt, 6, 6)
        tape._seeded_backward(out, g)
        lhs = float((out.data * g).sum())
        rhs = float((x * xt.grad).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPointwise:
    def test_relu(self):
        x = np.array([[[[-2.0, -0.0, 0.0, 3.0]]]], np.float32)
        out = T.relu(T.Tensor(x))
        np.testing.assert_array_equal(out.data, [[[[0.0, 0.0, 0.0, 3.0]]]])

    def test_relu_backward_zero_at_kink(self):
        x = np.array([[[[-1.0, 0.0, 2.0]]]], np.float32)
        xt = T.Tensor(x)
        with T.Tape() as tape:
            loss = T.sum_all(T.relu(xt))
        tape.backward(loss)
        np.testing.assert_array_equal(xt.grad, [[[[0.0, 0.0, 1.0]]]])

    def test_tanh_and_grad(self):
        x = rand((1, 2, 3, 3), 16, np.float64)
        xt = T.Tensor(x)
        with T.Tape() as tape:
            loss = T.sum_all(T.tanh(xt))
        tape.backward(loss)
        np.testing.assert_allclose(xt.grad, 1 - np.tanh(x) ** 2, rtol=1e-12)

    def test_sigmoid_matches_closed_form_and_is_stable(self):
        x = np.array([[[[-500.0, -1.0, 0.0, 1.0, 500.0]]]], np.float64)
        out = T.sigmoid(T.Tensor(x))
        assert out.data[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[0, 0, 0, 2] == 0.5
        assert out.data[0, 0, 0, 4] == pytest.approx(1.0)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bit_equal_to_the_sign_masked_formula(self, dtype):
        # The formula sigmoid replaced: index each sign's entries and take
        # the form whose exp cannot overflow.
        def masked(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(43)
        info = np.finfo(dtype)
        edges = np.array([0.0, info.smallest_subnormal, 88.7, 103.9, 745.0, info.max], dtype)
        scaled = rng.standard_normal(1_000_000) * 10.0 ** rng.uniform(-3.0, 3.0, 1_000_000)
        z = np.concatenate([edges, -edges, scaled.astype(dtype)]).reshape(1, 1, 1, -1)
        assert T.sigmoid(T.Tensor(z)).data.tobytes() == masked(z).tobytes()

    def test_elementwise_dispatch(self):
        x = rand((1, 1, 2, 2), 17)
        np.testing.assert_array_equal(T.elementwise(T.Tensor(x), "relu").data, np.maximum(x, 0))
        with pytest.raises(ConfigError):
            T.elementwise(T.Tensor(x), "gelu")


class TestCombine:
    def test_add_and_backward_fanout(self):
        a = rand((1, 2, 2, 2), 18)
        at = T.Tensor(a)
        with T.Tape() as tape:
            s = T.add(at, at)  # same tensor twice: grads must accumulate
            loss = T.sum_all(s)
        tape.backward(loss)
        np.testing.assert_array_equal(s.data, a + a)
        np.testing.assert_array_equal(at.grad, np.full_like(a, 2.0))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor(np.zeros((1, 2, 2, 2), np.float32)), T.Tensor(np.zeros((1, 3, 2, 2), np.float32)))

    def test_mul_broadcast(self):
        gate = rand((2, 1, 3, 3), 19)
        x = rand((2, 4, 3, 3), 20)
        gt, xt = T.Tensor(gate), T.Tensor(x)
        with T.Tape() as tape:
            out = T.mul_broadcast(gt, xt)
            loss = T.sum_all(out)
        tape.backward(loss)
        np.testing.assert_allclose(out.data, gate * x, rtol=1e-6)
        np.testing.assert_allclose(gt.grad, x.sum(axis=1, keepdims=True), rtol=1e-5)
        np.testing.assert_allclose(xt.grad, np.broadcast_to(gate, x.shape), rtol=1e-6)

    def test_mul_broadcast_rejects_multichannel_gate(self):
        with pytest.raises(ShapeError):
            T.mul_broadcast(
                T.Tensor(np.zeros((1, 2, 3, 3), np.float32)),
                T.Tensor(np.zeros((1, 4, 3, 3), np.float32)),
            )

    def test_scale(self):
        x = rand((1, 1, 2, 2), 21)
        xt = T.Tensor(x)
        with T.Tape() as tape:
            loss = T.sum_all(T.scale(xt, -2.5))
        tape.backward(loss)
        np.testing.assert_allclose(xt.grad, np.full_like(x, -2.5))

    def test_concat_order_and_backward_routing(self):
        a = rand((1, 2, 2, 2), 22)
        b = rand((1, 3, 2, 2), 23)
        at, bt = T.Tensor(a), T.Tensor(b)
        with T.Tape() as tape:
            out = T.concat_channel([at, bt])
            loss = T.sum_all(T.scale(out, 1.0))
        tape.backward(loss)
        np.testing.assert_array_equal(out.data[:, :2], a)
        np.testing.assert_array_equal(out.data[:, 2:], b)
        np.testing.assert_array_equal(at.grad, np.ones_like(a))
        np.testing.assert_array_equal(bt.grad, np.ones_like(b))

    def test_softmax_matches_oracle(self):
        x = rand((2, 3, 4, 4), 24, lo=-5, hi=5)
        got = T.softmax_channel(T.Tensor(x))
        want = oracles.softmax_channel_oracle(x)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(got.data.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_stable_at_large_logits(self):
        x = np.array([[[[1000.0]], [[1000.0]]]], np.float32)
        out = T.softmax_channel(T.Tensor(x))
        np.testing.assert_allclose(out.data, 0.5)

    def test_softmax_shift_invariance(self):
        x = rand((1, 3, 4, 4), 46, lo=-2, hi=2)
        shift = rand((1, 1, 4, 4), 47)
        a = T.softmax_channel(T.Tensor(x))
        b = T.softmax_channel(T.Tensor(x + shift))  # same constant every channel
        np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_concat_then_split_recovers_operands(self):
        a = rand((1, 2, 3, 3), 48)
        b = rand((1, 5, 3, 3), 49)
        out = T.concat_channel([T.Tensor(a), T.Tensor(b)])
        assert np.array_equal(out.data[:, :2], a)
        assert np.array_equal(out.data[:, 2:], b)

    def test_softmax_backward_sums_to_zero(self):
        x = rand((1, 4, 2, 2), 25, np.float64)
        xt = T.Tensor(x)
        g = rand((1, 4, 2, 2), 26, np.float64)
        with T.Tape() as tape:
            out = T.softmax_channel(xt)
        tape._seeded_backward(out, g)
        # softmax Jacobian rows are orthogonal to the constant vector
        np.testing.assert_allclose(xt.grad.sum(axis=1), 0.0, atol=1e-12)


def _probs(seed, c=2):
    return rand((2, c, 3, 3), seed, np.float64, 0.05, 0.95)


GT = (rand((2, 1, 3, 3), 33, np.float64, 0.0, 1.0) > 0.5).astype(np.int64)

# Every op and loss with its operands, by name.  Each operand in turn is
# frozen in test_requires_grad_false_receives_no_grad.
FROZEN_CASES = {
    "conv2d": (
        lambda x, weight, bias: T.conv2d(x, weight, bias, padding=1),
        {"x": rand((2, 2, 3, 3), 30), "weight": rand((2, 2, 3, 3), 31), "bias": rand((1, 2, 1, 1), 34)},
    ),
    "channel_avg_pool": (lambda x: T.channel_avg_pool(x, 2), {"x": rand((2, 4, 3, 3), 35)}),
    "channel_max_pool": (lambda x: T.channel_max_pool(x, 2), {"x": rand((2, 4, 3, 3), 36)}),
    "channel_mean": (T.channel_mean, {"x": rand((2, 4, 3, 3), 37)}),
    "sum_all": (T.sum_all, {"x": rand((2, 4, 3, 3), 38)}),
    "bilinear_resize": (lambda x: T.bilinear_resize(x, 4, 6), {"x": rand((2, 2, 3, 3), 39)}),
    "relu": (T.relu, {"x": rand((2, 2, 3, 3), 40)}),
    "tanh": (T.tanh, {"x": rand((2, 2, 3, 3), 41)}),
    "sigmoid": (T.sigmoid, {"x": rand((2, 2, 3, 3), 42)}),
    "add": (T.add, {"a": rand((2, 2, 3, 3), 43), "b": rand((2, 2, 3, 3), 44)}),
    "mul_broadcast": (T.mul_broadcast, {"gate": rand((2, 1, 3, 3), 45), "x": rand((2, 4, 3, 3), 47)}),
    "scale": (lambda x: T.scale(x, 3.0), {"x": rand((2, 2, 3, 3), 48)}),
    "concat_channel": (lambda a, b: T.concat_channel([a, b]), {"a": rand((2, 1, 3, 3), 49), "b": rand((2, 3, 3, 3), 50)}),
    "softmax_channel": (T.softmax_channel, {"x": rand((2, 3, 3, 3), 51)}),
    "ce_loss": (lambda x: L.ce_loss(x, GT), {"x": rand((2, 2, 3, 3), 52, np.float64)}),
    "bce_loss": (lambda x: L.bce_loss(x, GT), {"x": _probs(53, c=1)}),
    "mae_loss": (lambda x: L.mae_loss(x, _probs(54)), {"x": _probs(55)}),
    "mse_loss": (lambda x: L.mse_loss(x, _probs(56)), {"x": _probs(57)}),
    "kl_loss": (lambda x: L.kl_loss(x, _probs(58)), {"x": _probs(59)}),
    "soft_miou_loss": (lambda x: L.soft_miou_loss(x, GT), {"x": _probs(60)}),
}


class TestTapeMechanics:
    def test_no_tape_means_no_recording(self):
        xt = T.Tensor(rand((1, 1, 2, 2), 27))
        with T.Tape() as tape:
            T.relu(xt)
        T.relu(xt)
        assert len(tape) == 1

    def test_backward_requires_scalar(self):
        xt = T.Tensor(rand((1, 1, 2, 2), 28))
        with T.Tape() as tape:
            out = T.relu(xt)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_backward_rejects_foreign_tensor(self):
        with T.Tape() as tape:
            pass
        loose = T.Tensor(np.zeros((1, 1, 1, 1), np.float32))
        with pytest.raises(GraphError):
            tape.backward(loose)

    def test_tape_single_use(self):
        xt = T.Tensor(rand((1, 1, 1, 1), 29))
        with T.Tape() as tape:
            loss = T.sum_all(xt)
        tape.backward(loss)
        with pytest.raises(GraphError):
            tape.backward(loss)

    def test_nested_tapes_rejected(self):
        with T.Tape():
            with pytest.raises(GraphError):
                with T.Tape():
                    pass

    def test_tape_cleared_after_exception(self):
        try:
            with T.Tape():
                raise ValueError("boom")
        except ValueError:
            pass
        assert T.active_tape() is None

    @pytest.mark.parametrize(
        "op,frozen",
        [
            pytest.param(op, i, id=f"{op}-{name}")
            for op, (_, operands) in FROZEN_CASES.items()
            for i, name in enumerate(operands)
        ],
    )
    def test_requires_grad_false_receives_no_grad(self, op, frozen):
        fn, operands = FROZEN_CASES[op]

        def grads(frozen_index):
            ts = [T.Tensor(a, requires_grad=i != frozen_index) for i, a in enumerate(operands.values())]
            with T.Tape() as tape:
                loss = T.sum_all(fn(*ts))
            tape.backward(loss)
            return [t.grad for t in ts]

        want, got = grads(None), grads(frozen)
        assert all(g is not None for g in want)
        assert got[frozen] is None
        for i in range(len(got)):
            if i != frozen:
                np.testing.assert_array_equal(got[i], want[i])

    def test_grad_accumulates_across_branches(self):
        xt = T.Tensor(rand((1, 1, 2, 2), 32))
        with T.Tape() as tape:
            a = T.scale(xt, 2.0)
            b = T.scale(xt, 3.0)
            loss = T.sum_all(T.add(a, b))
        tape.backward(loss)
        np.testing.assert_allclose(xt.grad, np.full((1, 1, 2, 2), 5.0))

    def test_non_finite_raises(self):
        x = T.Tensor(np.array([[[[1e20]]]], np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.mul_broadcast(x, x)  # overflows float32 -> inf

    def test_non_finite_error_names_the_active_stage(self):
        x = T.Tensor(np.array([[[[np.nan]]]], np.float32))
        with pytest.raises(NumericError, match=r"^relu produced non-finite values in stage encoder$"):
            with T.stage("encoder"):
                T.relu(x)
        with pytest.raises(NumericError, match=r"^relu produced non-finite values$"):
            T.relu(x)

    def test_stage_restores_the_previous_label_on_exception(self):
        x = T.Tensor(np.ones((1, 1, 2, 2), np.float32))
        with T.FlopCounter() as fc:
            with T.stage("outer"):
                with pytest.raises(RuntimeError):
                    with T.stage("inner"):
                        T.relu(x)
                        raise RuntimeError("boom")
                T.relu(x)
            T.relu(x)
        assert fc.by_stage == {"inner": 4, "outer": 4, None: 4}
        assert fc.by_op == {"relu": 12} and fc.total == 12

    def test_rank_enforced(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((2, 3), np.float32))

    def test_dtype_coercion(self):
        t = T.Tensor(np.zeros((1, 1, 1, 1), np.int64))
        assert t.dtype == np.float32
        t64 = T.Tensor(np.zeros((1, 1, 1, 1), np.float64))
        assert t64.dtype == np.float64

    def test_mixed_dtype_rejected(self):
        a = T.Tensor(np.zeros((1, 1, 1, 1), np.float32))
        b = T.Tensor(np.zeros((1, 1, 1, 1), np.float64))
        with pytest.raises(ShapeError):
            T.add(a, b)


def _nested_flop_counters():
    with T.FlopCounter(), T.FlopCounter():
        pass


def _zeros(*shape):
    return T.Tensor(np.zeros(shape, np.float32))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (_nested_flop_counters, GraphError, "a FlopCounter is already active on this thread"),
        (lambda: _zeros(1, 1, 1, 2).item(), ShapeError, r"item\(\) needs a single element, got shape \(1, 1, 1, 2\)"),
        (lambda: T.conv2d(_zeros(1, 2, 4, 4), _zeros(3, 2, 3, 2)), ShapeError, "conv2d: kernel must be square, got 3x2"),
        (lambda: T.conv2d(_zeros(1, 2, 4, 4), _zeros(3, 2, 3, 3), stride=0), ConfigError, r"conv2d: bad stride/padding \(0, 0\)"),
        (lambda: T.conv2d(_zeros(1, 2, 4, 4), _zeros(3, 2, 3, 3), padding=-1), ConfigError, r"conv2d: bad stride/padding \(1, -1\)"),
        (lambda: T.bilinear_resize(_zeros(1, 1, 4, 4), 0, 4), ConfigError, r"bilinear_resize: bad target size \(0, 4\)"),
        (lambda: T.concat_channel([]), ShapeError, "concat_channel: empty operand list"),
        (lambda: T.concat_channel([_zeros(1, 1, 4, 4), _zeros(1, 1, 4, 5)]), ShapeError, "concat_channel: N/H/W mismatch"),
        (lambda: T.softmax_channel(_zeros(1, 1, 2, 2)), ShapeError, "softmax_channel: needs C >= 2, got C=1"),
    ],
    ids=[
        "nested-flop-counter", "item-of-many", "conv-non-square-kernel", "conv-zero-stride",
        "conv-negative-padding", "resize-empty-target", "concat-nothing", "concat-hw-mismatch",
        "softmax-one-channel",
    ],
)
def test_bad_call_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
