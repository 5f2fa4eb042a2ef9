"""Optimizer closed forms and schedule endpoints."""

import gc
import tracemalloc

import numpy as np
import pytest

from changedet import optim
from changedet.errors import ConfigError
from changedet.model import ChangeDetector, conv_specs, preset
from changedet.tensor import Tape, Tensor, sum_all


def one_param(value, grad=0.0):
    """A bound (1, 1, 1, 1) parameter "w" and its state, with grad written through its view."""
    params = {"w": Tensor(np.full((1, 1, 1, 1), value, np.float32))}
    state = optim.init_state(params)
    params["w"].grad[...] = grad
    return params, state


def entry(params, state, flat, name):
    """Parameter name's slice of one of the state's flat buffers, in its shape."""
    data = params[name].data
    start = (data.ctypes.data - state.data.ctypes.data) // data.itemsize
    return flat[start : start + data.size].reshape(data.shape)


class TestLrSchedule:
    def test_endpoints_exact(self):
        assert optim.lr_at(0, 1000, 3e-4) == 3e-4
        assert optim.lr_at(1000, 1000, 3e-4) == 0.0

    def test_midpoint(self):
        assert optim.lr_at(500, 1000, 3e-4) == pytest.approx(1.5e-4, rel=1e-12)

    def test_monotone_nonincreasing_and_clamped(self):
        vals = [optim.lr_at(s, 100, 1e-3) for s in range(0, 130, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert optim.lr_at(150, 100, 1e-3) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            optim.lr_at(0, 0, 1e-3)
        with pytest.raises(ConfigError):
            optim.lr_at(0, 10, 0.0)


class TestAdamW:
    def test_first_step_closed_form_no_decay(self):
        params, state = one_param(1.0, grad=1.0)
        optim.adamw_step(state, lr=0.1, weight_decay=0.0)
        # m_hat = v_hat = 1 exactly at step 1, so w = 1 - 0.1/(1 + eps)
        assert params["w"].data.reshape(()) == pytest.approx(0.9, abs=1e-6)

    def test_first_step_closed_form_with_decay(self):
        params, state = one_param(1.0, grad=1.0)
        optim.adamw_step(state, lr=0.1, weight_decay=0.01)
        assert params["w"].data.reshape(()) == pytest.approx(0.899, abs=1e-6)

    def test_zero_grad_no_decay_is_identity(self):
        params, state = one_param(0.73, grad=0.0)
        for _ in range(5):
            optim.adamw_step(state, lr=0.1, weight_decay=0.0)
        assert params["w"].data.reshape(()) == pytest.approx(0.73, abs=1e-7)

    def test_unreached_parameter_still_decays(self):
        params, state = one_param(1.0)  # backward never writes .grad, so it stays zero
        before = float(params["w"].data.reshape(()))
        optim.adamw_step(state, lr=0.1, weight_decay=0.01)
        after = float(params["w"].data.reshape(()))
        assert after < before
        assert after == pytest.approx(before * (1 - 0.1 * 0.01), rel=1e-6)

    def test_decay_strictly_shrinks_magnitude(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        params = {"w": p}
        state = optim.init_state(params)
        norm0 = float(np.abs(p.data).sum())
        optim.adamw_step(state, lr=0.05, weight_decay=0.1)
        assert float(np.abs(p.data).sum()) < norm0

    def test_moments_follow_recurrence(self):
        params, state = one_param(0.0, grad=2.0)
        optim.adamw_step(state, lr=0.0, weight_decay=0.0)
        assert entry(params, state, state.m, "w").reshape(()) == pytest.approx(0.2, rel=1e-6)
        assert entry(params, state, state.v, "w").reshape(()) == pytest.approx(0.004, rel=1e-5)
        params["w"].grad[...] = 1.0
        optim.adamw_step(state, lr=0.0, weight_decay=0.0)
        assert entry(params, state, state.m, "w").reshape(()) == pytest.approx(0.9 * 0.2 + 0.1 * 1.0, rel=1e-6)
        assert state.step == 2

    def test_descends_a_quadratic(self):
        # minimize (w - 3)^2 by feeding its gradient manually
        params, state = one_param(0.0)
        for step in range(300):
            w = float(params["w"].data.reshape(()))
            params["w"].grad[...] = 2 * (w - 3.0)
            optim.adamw_step(state, lr=0.05, weight_decay=0.0)
        assert float(params["w"].data.reshape(())) == pytest.approx(3.0, abs=0.05)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_temporaries_formula(self, dtype):
        # The update written with plain temporaries is the reference; the
        # in-place form must reproduce it bit for bit, moments included.
        def reference(params, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for name, p in params.items():
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m[name] *= beta1
                m[name] += (1.0 - beta1) * g
                v[name] *= beta2
                v[name] += (1.0 - beta2) * (g * g)
                m_hat = m[name] / bc1
                v_hat = v[name] / bc2
                p.data -= (lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)).astype(p.data.dtype)

        rng = np.random.default_rng(5)
        shapes = {"a": (4, 3, 3, 3), "b": (1, 4, 1, 1), "c": (2, 1, 3, 3)}
        fast = {k: Tensor(rng.normal(size=s).astype(dtype)) for k, s in shapes.items()}
        slow = {k: Tensor(t.data.copy()) for k, t in fast.items()}
        state = optim.init_state(fast)
        m = {k: np.zeros_like(t.data) for k, t in slow.items()}
        v = {k: np.zeros_like(t.data) for k, t in slow.items()}
        for step in range(1, 51):
            for k, s in shapes.items():
                g = None if (k == "c" and step % 7 == 0) else rng.normal(size=s).astype(dtype)
                fast[k].grad[...] = 0 if g is None else g
                slow[k].grad = g
            lr = optim.lr_at(step - 1, 50, 3e-3)
            optim.adamw_step(state, lr)
            reference(slow, m, v, step, lr)
        for k in shapes:
            assert np.array_equal(fast[k].data, slow[k].data)
            assert np.array_equal(entry(fast, state, state.m, k), m[k])
            assert np.array_equal(entry(fast, state, state.v, k), v[k])

    def test_resumed_state_continues_bit_identically(self):
        # data, m, v and step are the whole state: copied into a fresh
        # init_state they continue the run exactly.
        rng = np.random.default_rng(6)
        shapes = {"a": (4, 3, 3, 3), "b": (1, 4, 1, 1)}
        run = {k: Tensor(rng.normal(size=s).astype(np.float32)) for k, s in shapes.items()}
        state = optim.init_state(run)
        grads = [{k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()} for _ in range(8)]

        def step(params, st, g):
            for k in shapes:
                params[k].grad[...] = g[k]
            optim.adamw_step(st, lr=1e-2)

        for g in grads[:5]:
            step(run, state, g)
        resumed = {k: Tensor(np.zeros(s, np.float32)) for k, s in shapes.items()}
        fresh = optim.init_state(resumed)
        for name in ("data", "m", "v"):
            np.copyto(getattr(fresh, name), getattr(state, name))
        fresh.step = state.step
        for g in grads[5:]:
            step(run, state, g)
            step(resumed, fresh, g)
        assert fresh.step == state.step == 8
        for name in ("data", "m", "v"):
            assert np.array_equal(getattr(fresh, name), getattr(state, name))

    def test_bad_betas_rejected(self):
        _, state = one_param(1.0, grad=1.0)
        with pytest.raises(ConfigError):
            optim.adamw_step(state, lr=0.1, beta1=1.0)


class TestArena:
    def test_views_tile_the_flat_buffers_in_conv_specs_order(self):
        net = ChangeDetector(preset("nano"), seed=1)
        before = {name: p.data.copy() for name, p in net.params.items()}
        state = optim.init_state(net.params)
        offset = 0
        for spec in conv_specs(net.config):
            for name in (spec.name + ".w", spec.name + ".b"):
                p = net.params[name]
                for view, flat in ((p.data, state.data), (p.grad, state.grad),
                                   (entry(net.params, state, state.m, name), state.m),
                                   (entry(net.params, state, state.v, name), state.v)):
                    assert view.base is flat
                    assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize
                    assert view.shape == p.shape
                np.testing.assert_array_equal(p.data, before[name])
                assert not p.grad.any()
                offset += p.numel()
        assert offset == state.data.size == sum(p.numel() for p in net.params.values())

    def test_optimizer_keeps_the_arena_and_two_blocks_resident(self):
        # After one step the optimizer holds the four flat buffers and two
        # work blocks, nothing per parameter beyond views.  The flat values
        # replace the model's own arrays, but tracemalloc cannot see those
        # freed because they were allocated before it started.
        net = ChangeDetector(preset("tiny"), seed=0)
        rng = np.random.default_rng(2)
        pre, post = (rng.random((2, 3, 64, 64), dtype=np.float32) for _ in range(2))

        def step():
            with Tape() as tape:
                out = net.forward(pre, post)
                loss = sum_all(out.probs)
            tape.backward(loss)

        step()  # warms every memo a forward fills
        for p in net.params.values():
            p.grad = None
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = optim.init_state(net.params)
            step()
            optim.adamw_step(state, lr=1e-3)
            gc.collect()
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = sum(p.numel() for p in net.params.values())
        arrays = (4 * n + 2 * min(optim.BLOCK, n)) * 4
        assert arrays <= resident <= arrays + 128 * 1024

    def test_mixed_dtypes_rejected(self):
        params = {"a": Tensor(np.zeros((1, 1, 1, 1), np.float32)), "b": Tensor(np.zeros((1, 1, 1, 1), np.float64))}
        with pytest.raises(ConfigError):
            optim.init_state(params)
