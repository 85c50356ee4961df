import copy
import hashlib
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth.errors import ConfigError, NumericsError, ShapeError
from fractaldepth.nnet import (AdamWState, LrSchedule, MlpParams, Workspace, _matmul,
                               adamw_step, frame, init_mlp, load_checkpoint, lr_at,
                               mlp_backward, mlp_forward, save_checkpoint, scratch, time_embed)
from fractaldepth.core import ScaleConfig
from fractaldepth.rng import RngStream
from fractaldepth.vcfr import ConvPyramidParams, extract_features, extract_features_backward
from gradcheck import grad_check


class TestTimeEmbed:
    def test_t_zero(self):
        e = time_embed(0, 8)
        assert np.allclose(e[0::2], 0.0)
        assert np.allclose(e[1::2], 1.0)

    def test_bounded(self):
        for t in np.random.default_rng(0).uniform(0, 1e6, 50):
            assert np.all(np.abs(time_embed(t, 16)) <= 1.0)

    def test_injective_up_to_T(self):
        embs = time_embed(np.arange(1, 101), 16)
        for i in range(100):
            for j in range(i + 1, 100):
                assert not np.allclose(embs[i], embs[j])

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            time_embed(1, 7)


class TestMlpForward:
    def test_zero_params_zero_output(self):
        p = MlpParams(weights=[np.zeros((3, 4)), np.zeros((4, 2))],
                      biases=[np.zeros(4), np.zeros(2)])
        y, _ = mlp_forward(p, np.ones((1, 3)))
        assert np.array_equal(y, np.zeros((1, 2)))

    def test_identity_single_layer(self):
        p = MlpParams(weights=[np.eye(5)], biases=[np.zeros(5)])
        x = np.random.default_rng(0).normal(size=(1, 5))
        y, _ = mlp_forward(p, x)
        assert np.allclose(y, x)

    def test_matrix_oracle_two_layer(self):
        rng = np.random.default_rng(1)
        w0, b0 = rng.normal(size=(4, 6)), rng.normal(size=6)
        w1, b1 = rng.normal(size=(6, 3)), rng.normal(size=3)
        p = MlpParams(weights=[w0, w1], biases=[b0, b1])
        x = rng.normal(size=(1, 4))
        a0 = x @ w0 + b0
        h0 = a0 / (1 + np.exp(-a0))
        expect = h0 @ w1 + b1
        y, _ = mlp_forward(p, x)
        assert np.max(np.abs(y - expect)) <= 1e-12

    def test_dim_mismatch(self):
        p = MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros((1, 4)))

    def test_vector_input_rejected(self):
        # x is a (batch, dim) matrix; a vector is not read as one row
        p = init_mlp([5, 4, 2], RngStream(1))
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros(5))
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros(3), pre0=np.zeros(4))


class TestMlpForwardPre0:
    """A forward with the trailing input columns projected ahead of time."""

    @given(st.integers(0, 9), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_full_input(self, k, rows, seed):
        p = init_mlp([9, 7, 7, 3], RngStream(seed, ("pre0",)))
        x = RngStream(seed, ("x",)).normal((rows, 9))
        w0, b0 = p.weights[0], p.biases[0]
        y, _ = mlp_forward(p, x[:, :k], pre0=x[:, k:] @ w0[k:] + b0)
        y_ref, _ = mlp_forward(p, x)
        assert np.max(np.abs(y - y_ref)) <= 1e-12

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_cached_backward_matches_full_input(self, k):
        # the training layout: x holds the first k columns, pre0 projects the
        # rest; the backward gives W0's first k rows and the pre-activation
        # gradient, from which the rest of W0 follows
        p = init_mlp([9, 7, 7, 3], RngStream(k, ("pre0bw",)))
        x = RngStream(k, ("x",)).normal((5, 9))
        dy = RngStream(k, ("dy",)).normal((5, 3))
        w0 = p.weights[0]
        y, cache = mlp_forward(p, x[:, :k], x[:, k:] @ w0[k:] + p.biases[0])
        g = mlp_backward(p, cache, dy)
        y_ref, cache_ref = mlp_forward(p, x)
        ref = mlp_backward(p, cache_ref, dy)
        assert np.max(np.abs(y - y_ref)) <= 1e-12
        assert g.weights[0].shape == (k, 7) and ref.weights[0].shape == (9, 7)
        assert np.max(np.abs(g.pre0 - ref.pre0)) <= 1e-12
        dw0 = np.concatenate([g.weights[0], x[:, k:].T @ g.pre0])
        for a, b in zip([dw0] + g.weights[1:] + g.biases, ref.weights + ref.biases):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_shape_mismatch(self):
        p = init_mlp([5, 4, 2], RngStream(1))
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros((2, 6)), pre0=np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros((2, 3)), pre0=np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            mlp_forward(p, np.zeros((2, 3)), pre0=np.zeros(5))


class TestMlpForwardNoCache:
    """The forward adds biases and applies SiLU in place, with or without
    its cache; its output and cache must equal the out-of-place arithmetic
    bit for bit."""

    @staticmethod
    def _out_of_place(params, x, pre0):
        """The output, each layer's input and each hidden sigmoid."""
        inputs, sigmoids = [], []
        h = x
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            inputs.append(h)
            a = h @ w[:h.shape[1]] + pre0 if i == 0 else h @ w + b
            if i == len(params.weights) - 1:
                return a, inputs, sigmoids
            sigmoids.append(1.0 / (1.0 + np.exp(-a)))
            h = a / (1.0 + np.exp(-a))

    @pytest.mark.parametrize("rows", [1, 16, 256, 257, 300])
    def test_bit_identical(self, rows):
        # the sampler's layout: one token column, time and condition hoisted
        p = init_mlp([1 + 16 + 17, 256, 256, 256, 1], RngStream(rows, ("nc",)))
        x = RngStream(rows, ("x",)).normal((rows, 34))
        pre0 = x[:, 1:] @ p.weights[0][1:] + p.biases[0]
        # without pre0, layer 0 adds b0 to the product with all of W0
        for xs, pre0_ref, pre0_arg in ((x[:, :1], pre0, pre0), (x, p.biases[0], None)):
            ref = self._out_of_place(p, xs, pre0_ref)
            for want_cache in (True, False):
                y, cache = mlp_forward(p, xs, pre0=pre0_arg, want_cache=want_cache)
                assert np.array_equal(y, ref[0])
                if not want_cache:
                    assert cache is None
                    continue
                for kept, expect in zip(cache, ref[1:]):
                    assert len(kept) == len(expect)
                    assert all(np.array_equal(a, b) for a, b in zip(kept, expect))


class TestMlpForwardFloat32:
    """Weights given in float32 make a float32 forward, as the sampler runs it."""

    @staticmethod
    def _f32(p):
        return MlpParams(weights=[w.astype(np.float32) for w in p.weights],
                         biases=[b.astype(np.float32) for b in p.biases])

    def test_keeps_weight_dtype(self):
        p = init_mlp([6, 32, 32, 3], RngStream(5, ("f32",)))
        x = RngStream(6).normal((4, 6), "x")
        pre0 = x[:, 2:] @ p.weights[0][2:] + p.biases[0]
        y, _ = mlp_forward(self._f32(p), x)
        y_pre0, _ = mlp_forward(self._f32(p), x[:, :2], pre0=pre0)
        assert y.dtype == y_pre0.dtype == np.float32
        # float32 keeps 24 bits; through two 32-wide hidden layers the output
        # stays within a few hundred float32 spacings of the float64 forward
        y64, _ = mlp_forward(p, x)
        tol = 256 * np.finfo(np.float32).eps * np.max(np.abs(y64))
        assert np.max(np.abs(y - y64)) <= tol and np.max(np.abs(y_pre0 - y64)) <= tol
        # float64 weights still cast a float32 input up
        assert mlp_forward(p, x.astype(np.float32))[0].dtype == np.float64

    def test_silu_overflow_silent(self):
        # exp(-a) overflows float32 below a = -88.7; silu(a) is then -0 or a
        # tiny negative, and no RuntimeWarning is raised
        p = MlpParams(weights=[np.eye(3, dtype=np.float32)] * 2,
                      biases=[np.zeros(3, dtype=np.float32)] * 2)
        pre0 = np.array([[-100.0, -1e4, -3e38], [-88.0, -89.0, -1e3]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = mlp_forward(p, np.zeros((2, 0), dtype=np.float32), pre0=pre0)
        assert y.dtype == np.float32 and np.all(np.isfinite(y))
        assert np.all(y <= 0) and np.max(np.abs(y)) < 1e-35


class TestOneColumnProducts:
    """Layer 0 at token_dim 1 and the backward's ``g @ W.T`` at a one-unit
    output layer have a one-column left operand; they go through BLAS with
    the bytes of ``@``: each entry is one rounded multiply."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_matmul(self, dtype):
        rng = np.random.default_rng(0)
        for rows, cols in ((1, 256), (7, 3), (512, 256), (1024, 256)):
            a = rng.normal(size=(rows, 1)).astype(dtype)
            a[::3] = 0.0                          # signed zeros in the products
            b = rng.normal(size=(1, cols)).astype(dtype)
            out = _matmul(a, b)
            assert out.dtype == dtype and out.tobytes() == (a @ b).tobytes()
        w = rng.normal(size=(256, 1)).astype(dtype)      # a (256, 1) output layer
        g = rng.normal(size=(512, 1)).astype(dtype)
        assert _matmul(g, w.T).tobytes() == (g @ w.T).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mlp_token_dim_one(self, dtype):
        # a [1 token column, pre0] -> 16 -> 1 net, forward and backward,
        # against the same layers written with @
        p = init_mlp([4, 16, 1], RngStream(2, ("k1",)))
        p = MlpParams(weights=[w.astype(dtype) for w in p.weights],
                      biases=[b.astype(dtype) for b in p.biases])
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 1)).astype(dtype)
        pre0 = rng.normal(size=(300, 16)).astype(dtype)
        g_out = rng.normal(size=(300, 1)).astype(dtype)
        y, cache = mlp_forward(p, x, pre0)
        grads = mlp_backward(p, cache, g_out)
        a0 = x @ p.weights[0][:1]
        a0 += pre0
        h = a0 / (1 + np.exp(-a0))
        s = 1 / (1 + np.exp(-a0))
        ref_y = h @ p.weights[1] + p.biases[1]
        g = g_out.copy()
        dw1 = h.T @ g
        g = g @ p.weights[1].T
        g *= h * (1 - s) + 1 - (1 - s)
        assert y.tobytes() == ref_y.tobytes()
        assert grads.weights[1].tobytes() == dw1.tobytes()
        assert grads.pre0.tobytes() == g.tobytes()


class TestSiluOverflow:
    """exp(-x) overflows below x = -88.7 in float32 and -709 in float64;
    silu and its derivative then take their limits, with no warning, in the
    MLP and in the conv pyramid."""

    @pytest.mark.parametrize("dtype, x", [(np.float32, -100.0), (np.float64, -800.0)])
    def test_limits_without_warning(self, dtype, x):
        a = np.array([x, -x], dtype=dtype)
        p = MlpParams(weights=[np.eye(2, dtype=dtype)] * 2, biases=[np.zeros(2, dtype=dtype)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, cache = mlp_forward(p, a[None])
            g = mlp_backward(p, cache, np.ones((1, 2)))
        assert y.dtype == dtype
        assert y[0, 0] == 0 and y[0, 1] == -x    # silu(-big) = -0, silu(big) = big
        # W1 = I: the pre-activation grad is silu'(-big) = 0, silu'(big) = 1
        assert np.array_equal(g.pre0[0], [0.0, 1.0])

    @pytest.mark.parametrize("dtype, x", [(np.float32, 100.0), (np.float64, 800.0)])
    def test_conv_pyramid_limits_without_warning(self, dtype, x):
        # layer 1 is its bias (-x, x); layer 2's centre tap sends channel 1
        # to (x, -x): each layer meets both limits at every pixel
        w2 = np.zeros((3, 3, 2, 2), dtype=dtype)
        w2[1, 1] = [[0.0, 0.0], [1.0, -1.0]]
        params = ConvPyramidParams(w1=np.zeros((3, 3, 3, 2), dtype=dtype),
                                   b1=np.array([-x, x], dtype=dtype), w2=w2,
                                   b2=np.zeros(2, dtype=dtype))
        cfg = ScaleConfig(levels=((1, 1), (2, 1), (4, 1), (8, 1)), d_min=0.1, d_max=10.0)
        image = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats, cache = extract_features(image, cfg, params)
            grad_feats = [np.zeros_like(f) for f in feats[:-1]] + [np.ones_like(feats[-1])]
            grads = extract_features_backward(grad_feats, cfg, params, cache)
        # read after the backward: it leaves the returned grids as they were
        assert feats[-1].dtype == dtype and np.all(feats[-1] == [x, 0.0])
        # silu' is 1 on the live channel and 0 on the other, at both layers
        assert np.array_equal(grads["conv.b2"], [64.0, 0.0])
        assert np.array_equal(grads["conv.b1"], [0.0, 64.0])


class TestMlpBackward:
    def test_zero_grad(self):
        p = init_mlp([3, 5, 2], RngStream(0))
        y, cache = mlp_forward(p, np.ones((1, 3)))
        g = mlp_backward(p, cache, np.zeros((1, 2)))
        assert all(np.all(w == 0) for w in g.weights)
        assert np.all(g.pre0 == 0)

    def test_linear_layer_hand_grad(self):
        # single linear layer, loss = sum(y): dW[i, j] = x[i]
        p = MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        x = np.array([[1.0, 2.0, 3.0]])
        _, cache = mlp_forward(p, x)
        g = mlp_backward(p, cache, np.ones((1, 2)))
        assert np.allclose(g.weights[0], np.outer(x, np.ones(2)))
        assert np.allclose(g.biases[0], 1.0)

    def test_finite_difference_all_params(self):
        p = init_mlp([4, 8, 8, 3], RngStream(3))
        x = RngStream(4).normal((1, 4), "x")
        report = grad_check(p, x, tolerance=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"


class TestMlpBackwardDtype:
    """The backward computes in the dtype of the weights, as training runs it
    in float32; float64 weights keep the float64 backward bit for bit."""

    @staticmethod
    def _case(seed):
        p = init_mlp([10, 32, 32, 3], RngStream(seed, ("bwd",)))
        rng = RngStream(seed + 1, ("bwd",))
        return p, rng.normal((48, 6), "x"), rng.normal((48, 32), "pre0"), rng.normal((48, 3), "g")

    @staticmethod
    def _grads(p, x, pre0, g):
        _, cache = mlp_forward(p, x, pre0)
        grads = mlp_backward(p, cache, g)
        return grads.weights + grads.biases + [grads.pre0]

    def test_float64_matches_recorded_digest(self):
        # recorded from the backward that always computed in float64
        h = hashlib.sha256()
        for a in self._grads(*self._case(11)):
            assert a.dtype == np.float64
            h.update(a.tobytes())
        assert h.hexdigest() == "92482e1181f520033fb879c2f03030561cde05b6901ecee8492c2347b681f70b"

    @pytest.mark.parametrize("seed", [11, 14, 15])
    def test_float32_within_k_u(self, seed):
        # Each gradient is reached through the forward's sums (7, 32 and 32
        # terms: layer 0 meets 6 columns of x plus pre0), the backward's (3
        # and 32 terms) and the weight and bias sums over the 48 rows, from
        # inputs and weights cast to float32 with one rounding each.  A
        # K-term float32 sum moves by at most K u of its terms' magnitudes
        # (u = 2**-24; Higham, Accuracy and Stability, 3.1).  Taking those
        # magnitudes at about each tensor's largest entry, the first-order
        # errors add up to (2 + 7 + 32 + 32 + 3 + 32 + 48) u = 156 u of it
        # (measured <= 7.6 u over ten seeds, at most 6.0 u on these three)
        p, x, pre0, g = self._case(seed)
        p32 = MlpParams(weights=[w.astype(np.float32) for w in p.weights],
                        biases=[b.astype(np.float32) for b in p.biases])
        for a, ref in zip(self._grads(p32, x, pre0, g), self._grads(p, x, pre0, g)):
            assert a.dtype == np.float32
            assert np.max(np.abs(a - ref)) <= 156 * 2.0 ** -24 * np.max(np.abs(ref))


class TestGradCheckHarness:
    def test_corrupted_backward_fails(self):
        p = init_mlp([3, 6, 2], RngStream(5))
        x = RngStream(6).normal((3,), "x")
        good = grad_check(p, x)
        assert good.passed
        # negative control: flipping a weight after computing analytic grads
        # is equivalent to checking against the wrong function
        import fractaldepth.nnet as nn
        orig = nn.mlp_backward

        def corrupted(params, cache, g):
            out = orig(params, cache, g)
            out.weights[0] = -out.weights[0]
            return out

        nn.mlp_backward = corrupted
        try:
            bad = grad_check(p, x)
        finally:
            nn.mlp_backward = orig
        assert not bad.passed

    def test_zero_everything_trivial_pass(self):
        p = MlpParams(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
        report = grad_check(p, np.zeros(2))
        assert report.passed and report.max_rel_error == 0.0


class TestAdamW:
    def test_zero_grads_no_decay(self):
        p = {"w": np.ones((2, 2))}
        g = {"w": np.zeros((2, 2))}
        st = AdamWState()
        adamw_step(p, g, st, lr=0.1, weight_decay=0.0)
        assert np.allclose(p["w"], 1.0)

    def test_first_step_sign_direction(self):
        p = {"w": np.zeros(3)}
        grad = np.array([1.0, -2.0, 0.5])
        st = AdamWState()
        adamw_step(p, {"w": grad.copy()}, st, lr=0.01, weight_decay=0.0)
        expect = -0.01 * grad / (np.abs(grad) + 1e-8)
        assert np.allclose(p["w"], expect)

    def test_decay_pure_shrink(self):
        p = {"w": np.full(4, 2.0)}
        st = AdamWState()
        adamw_step(p, {"w": np.zeros(4)}, st, lr=0.1, weight_decay=0.05)
        assert np.allclose(p["w"], 2.0 * (1 - 0.1 * 0.05))

    def test_nonfinite_rejected_state_unchanged(self):
        p = {"w": np.ones(2)}
        st = AdamWState()
        with pytest.raises(NumericsError):
            adamw_step(p, {"w": np.array([1.0, np.nan])}, st, lr=0.1, weight_decay=0.05)
        assert st.step == 0 and np.allclose(p["w"], 1.0)

    def test_shape_mismatch_rejected_state_unchanged(self):
        p = {"a": np.ones(2), "b": np.ones(3)}
        st = AdamWState()
        with pytest.raises(ShapeError):
            adamw_step(p, {"a": np.ones(2), "b": np.ones(4)}, st, lr=0.1, weight_decay=0.05)
        assert st.step == 0 and not st.m and np.all(p["a"] == 1.0)

    def test_gradient_beyond_float32_moments_rejected(self):
        # finite in float64, but its square could overflow the float32 v
        p = {"a": np.ones(2), "b": np.ones(3)}
        st = AdamWState()
        adamw_step(p, {"a": np.ones(2), "b": np.ones(3)}, st, lr=0.1, weight_decay=0.05)
        before = {k: v.copy() for k, v in p.items()}
        m, v = {k: a.copy() for k, a in st.m.items()}, {k: a.copy() for k, a in st.v.items()}
        with pytest.raises(NumericsError, match="'b'"):
            adamw_step(p, {"a": np.ones(2), "b": np.array([1.0, -1e20, 0.0])}, st, lr=0.1,
                       weight_decay=0.05)
        assert st.step == 1
        for k in p:
            assert p[k].tobytes() == before[k].tobytes()
            assert st.m[k].tobytes() == m[k].tobytes() and st.v[k].tobytes() == v[k].tobytes()
        # a norm just under 2**61, the largest accepted, leaves everything finite
        adamw_step(p, {"a": np.ones(2), "b": np.array([1.0, -2.0 ** 60.9, 0.0])}, st, lr=0.1,
                   weight_decay=0.05)
        assert all(np.all(np.isfinite(a)) for a in [*p.values(), *st.m.values(), *st.v.values()])

    @staticmethod
    def _out_of_place_step(params, grads, state, lr, betas=(0.9, 0.95), weight_decay=0.05,
                           eps=1e-8, dtype=np.float32):
        """The AdamW formula with one temporary array per operation, on
        moments of ``dtype`` and the gradient cast to it."""
        b1, b2 = betas
        state.step += 1
        t = state.step
        for name, p in params.items():
            g = grads[name].astype(dtype)
            m = state.m.setdefault(name, np.zeros(p.shape, dtype))
            v = state.v.setdefault(name, np.zeros(p.shape, dtype))
            p *= (1.0 - lr * weight_decay)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += g * g * (1 - b2)
            step_size = lr / (1 - b1 ** t)
            p -= m / (np.sqrt(v) * (1 / math.sqrt(1 - b2 ** t)) + eps) * step_size

    def test_bit_identical_to_out_of_place(self):
        shapes = {"w": (300, 257), "b": (5,), "conv": (3, 3, 2, 4), "one": (1,), "m": (7, 5)}
        rng = np.random.default_rng(3)
        ours = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in ours.items()}
        st_ours, st_ref = AdamWState(), AdamWState()
        for step in range(20):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-9, 3)
                     for k, s in shapes.items()}
            lr = 1e-3 * (1 + step % 7)
            adamw_step(ours, grads, st_ours, lr, weight_decay=0.05)
            self._out_of_place_step(ref, grads, st_ref, lr, weight_decay=0.05)
        for k in shapes:
            for a, b in ((ours[k], ref[k]), (st_ours.m[k], st_ref.m[k]),
                         (st_ours.v[k], st_ref.v[k])):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), k

    def test_float32_params_bit_identical_to_out_of_place(self):
        # a model's parameters are float32, and its gradients float32 but for
        # the float64 sums over pixels (here "b"): the in-place step equals
        # the formula run out of place in float32 bit for bit
        shapes = {"w": (300, 257), "b": (5,), "conv": (3, 3, 2, 4), "one": (1,)}
        rng = np.random.default_rng(4)
        ours = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in ours.items()}
        st_ours, st_ref = AdamWState(), AdamWState()
        for step in range(20):
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-9, 3))
                     .astype(np.float64 if k == "b" else np.float32) for k, s in shapes.items()}
            lr = 1e-3 * (1 + step % 7)
            adamw_step(ours, grads, st_ours, lr, weight_decay=0.05)
            self._out_of_place_step(ref, grads, st_ref, lr, weight_decay=0.05)
        for k in shapes:
            for a, b in ((ours[k], ref[k]), (st_ours.m[k], st_ref.m[k]),
                         (st_ours.v[k], st_ref.v[k])):
                assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes(), k

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_step_within_k_u(self, seed):
        # One step from a shared state whose moments float32 holds exactly,
        # against the same formula in float64.  The float32 numerator
        # (b1 m + (1 - b1) g) times lr / c1 meets eight roundings: the cast
        # of g, the scalars b1, 1 - b1 and lr / c1, two products, the sum and
        # the product with lr / c1.  Its error is at most 8 u (u = 2**-24) of
        # the magnitude n = lr (b1 |m| + (1 - b1) |g|) / c1, whatever the
        # cancellation.  v adds positive terms: g cast and squared, the
        # scalars b2 and 1 - b2, three products and a sum put v within 7 u
        # relative and its root within 3.5 u; the factor 1 / sqrt(c2) and
        # its product add 2 u, the sum with _EPS 1 u and the quotient 1 u.
        # So each update is within (8 + 7.5) u = 15.5 u of
        # n / (sqrt(vhat) + eps); p stays float64, whose rounding adds
        # 2**-52 |p| (measured <= 5.3 u over ten seeds).
        rng = np.random.default_rng(seed)
        shape = (64, 33)
        p64 = rng.normal(size=shape)
        st32, st64 = AdamWState(), AdamWState()
        p32 = {"w": p64.copy()}
        for _ in range(5):       # float32 moments of mixed signs
            adamw_step(p32, {"w": rng.normal(size=shape) * 10.0 ** rng.integers(-3, 2)}, st32,
                       lr=1e-3, weight_decay=0.05)
        st64.m = {"w": st32.m["w"].astype(np.float64)}
        st64.v = {"w": st32.v["w"].astype(np.float64)}
        st64.step = st32.step
        m, t = st64.m["w"].copy(), st32.step + 1
        p = {"w": p32["w"].copy()}
        g = rng.normal(size=shape)
        lr = 3e-3
        adamw_step(p32, {"w": g}, st32, lr, weight_decay=0.05)
        self._out_of_place_step(p, {"w": g}, st64, lr, weight_decay=0.05, dtype=np.float64)
        b1, b2 = 0.9, 0.95
        n = lr * (b1 * np.abs(m) + (1 - b1) * np.abs(g)) / (1 - b1 ** t)
        bound = 15.5 * 2.0 ** -24 * n / (np.sqrt(st64.v["w"] / (1 - b2 ** t)) + 1e-8)
        assert np.all(np.abs(p32["w"] - p["w"]) <= bound + 2.0 ** -52 * np.abs(p["w"]))

    def test_peak_memory_two_scratch_arrays(self):
        from fractaldepth.bench import RunConfig, build_model
        params = build_model(RunConfig()).named_params()
        rng = np.random.default_rng(0)
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        st = AdamWState()
        adamw_step(params, grads, st, lr=1e-3, weight_decay=0.05)    # makes the moments
        largest = max(p.nbytes for p in params.values())
        tracemalloc.start()
        try:
            adamw_step(params, grads, st, lr=1e-3, weight_decay=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * largest + 16 * 1024, (peak, largest)

    def test_quadratic_descent(self):
        # loss = 0.5 ||w - target||^2; 200 steps reduce it monotonically
        # after the first 10
        rng = np.random.default_rng(0)
        target = rng.uniform(5.0, 15.0, size=8)
        p = {"w": np.zeros(8)}
        st = AdamWState()
        losses = []
        for _ in range(200):
            g = p["w"] - target
            losses.append(0.5 * float(np.sum(g * g)))
            adamw_step(p, {"w": g}, st, lr=0.02, weight_decay=0.0)
        assert all(b <= a + 1e-12 for a, b in zip(losses[10:], losses[11:]))


class TestWorkspace:
    """A workspace lays its regions out as a stack of frames."""

    BIG = (256, 256)              # float32: 256 KiB, over the pooled minimum

    def test_sibling_frames_share_memory(self):
        ws = Workspace()
        with ws.scope():
            a = ws.get("a", self.BIG)
            with ws.scope():
                b = ws.get("b", self.BIG)
            with ws.scope():
                c = ws.get("c", self.BIG)
            assert np.shares_memory(b, c) and not np.shares_memory(a, b)
            assert all(x.flags.c_contiguous and x.dtype == np.float32 for x in (a, b, c))

    def test_key_reused_within_its_frame(self):
        ws = Workspace()
        with ws.scope():
            big = ws.get("k", (512, 256))
            small = ws.get("k", self.BIG, np.float64)
            assert small.dtype == np.float64 and np.shares_memory(big, small)
            with ws.scope():
                # too small a region for this request: a new one, bound in
                # the inner frame only
                bigger = ws.get("k", (1024, 256))
                assert not np.shares_memory(big, bigger)
            assert np.shares_memory(big, ws.get("k", self.BIG))

    def test_equal_steps_allocate_once(self):
        ws = Workspace()
        held = []
        for _ in range(3):
            with ws.scope():
                for i in range(6):
                    ws.get(("layer", i), (64 * (i + 2), 256))
            held.append(ws.nbytes)
        assert held[0] > 0 and held == [held[0]] * 3

    def test_small_requests_and_no_workspace_are_new(self):
        ws = Workspace()
        with ws.scope():
            assert not np.shares_memory(ws.get("s", (16, 16)), ws.get("s", (16, 16)))
        with frame(None):
            a, b = scratch(None, "b", self.BIG), scratch(None, "b", self.BIG)
            assert a.shape == self.BIG and a.dtype == np.float32 and not np.shares_memory(a, b)

    def test_copy_starts_empty(self):
        ws = Workspace()
        with ws.scope():
            ws.get("a", self.BIG)
        copied = copy.deepcopy(ws)
        assert ws.nbytes > 0 and copied.nbytes == 0

    def test_mlp_through_workspace_same_bytes(self):
        # blocks of 300 and 512 rows through one workspace's regions, bound
        # at 512 rows by the first forward, give the gradients of a backward
        # that makes its own arrays
        params = init_mlp([24, 256, 256, 256, 4], RngStream(3, ("ws",)))
        params = MlpParams(weights=[w.astype(np.float32) for w in params.weights],
                           biases=[b.astype(np.float32) for b in params.biases])
        rng = RngStream(4, ("ws",))
        ws = Workspace()
        with ws.scope():
            for rows in (300, 512):
                x = rng.normal((rows, 24), "x", rows)
                g_out = rng.normal((rows, 4), "g", rows)
                y, cache = mlp_forward(params, x, ws=ws, rows=512)
                y_ref, cache_ref = mlp_forward(params, x)
                assert y.tobytes() == y_ref.tobytes()
                got, want = mlp_backward(params, cache, g_out, ws), mlp_backward(params, cache_ref,
                                                                                 g_out)
                for a, b in zip(got.weights + got.biases + [got.pre0],
                                want.weights + want.biases + [want.pre0]):
                    assert a.tobytes() == b.tobytes()
        assert ws.nbytes < 8 * 512 * 256 * 4


class TestLrSchedule:
    sched = LrSchedule(base_lr=1e-3, warmup_steps=100, total_steps=1000, final_lr=1e-5)

    def test_warmup_endpoint(self):
        assert lr_at(100, self.sched) == pytest.approx(1e-3)
        assert lr_at(0, self.sched) == 0.0

    def test_final(self):
        assert lr_at(1000, self.sched) == 1e-5
        assert lr_at(5000, self.sched) == 1e-5

    def test_cosine_midpoint(self):
        mid = 100 + (1000 - 100) // 2
        assert lr_at(mid, self.sched) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_junction_continuity(self):
        ramp = self.sched.base_lr * 100 / self.sched.warmup_steps
        assert abs(lr_at(100, self.sched) - ramp) <= 1e-12 * self.sched.base_lr


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = RngStream(11)
        params = {"mlp0.w0": rng.normal((7, 5), 0), "mlp0.b0": rng.normal((5,), 1),
                  "conv.w1": rng.normal((3, 3, 3, 4), 2)}
        meta = {"level_index": [0, 1], "hidden": [256]}
        path = tmp_path / "model.fadn"
        save_checkpoint(path, params, meta)
        loaded, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for k, v in params.items():
            assert v.shape == loaded[k].shape
            assert np.array_equal(v, loaded[k])

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.fadn"
        save_checkpoint(path, {"x": np.zeros(2)}, {})
        assert path.read_bytes()[:5] == b"FADN1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fadn"
        path.write_bytes(b"NOPE!" + b"\0" * 16)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @staticmethod
    def _small(tmp_path):
        path = tmp_path / "small.fadn"
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                        {"hidden": [4]})
        return path, path.read_bytes()

    def _rejected(self, path, data):
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=str(path.name)):
            load_checkpoint(path)

    def test_every_prefix_rejected(self, tmp_path):
        path, data = self._small(tmp_path)
        cut = tmp_path / "cut.fadn"
        for n in range(len(data)):
            self._rejected(cut, data[:n])

    def test_flipped_manifest_byte_rejected(self, tmp_path):
        path, data = self._small(tmp_path)
        (mlen,) = struct.unpack("<I", data[5:9])
        bad = tmp_path / "flip.fadn"
        for i in range(9, 9 + mlen):
            flipped = bytearray(data)
            flipped[i] ^= 0x80
            self._rejected(bad, bytes(flipped))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data = self._small(tmp_path)
        self._rejected(tmp_path / "long.fadn", data + b"\0")

    @pytest.mark.parametrize("change, match", [
        (lambda d: d[:-1], "cut short"), (lambda d: d + b"\0" * 8, "8 trailing bytes")],
        ids=["cut", "trailing"])
    def test_size_checked_before_targets(self, tmp_path, change, match):
        def never_called(meta, shapes):
            raise AssertionError("targets called for a checkpoint of the wrong size")

        path, data = self._small(tmp_path)
        path.write_bytes(change(data))
        with pytest.raises(ConfigError, match=f"small.fadn: .*{match}"):
            load_checkpoint(path, never_called)

    @pytest.mark.parametrize("manifest", [
        b"[]", b'{"meta": {}}', b'{"meta": [], "tensors": []}',
        b'{"meta": {}, "tensors": [{"name": "x", "shape": [-1]}]}',
        b'{"meta": {}, "tensors": [{"name": "x", "shape": 2}]}'],
        ids=["list", "no_tensors", "meta_list", "negative_dim", "scalar_shape"])
    def test_bad_manifest_layout_rejected(self, tmp_path, manifest):
        data = b"FADN1" + struct.pack("<I", len(manifest)) + manifest
        self._rejected(tmp_path / "layout.fadn", data)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        manifest = (b'{"meta": {}, "tensors": '
                    b'[{"name": "x", "shape": []}, {"name": "x", "shape": []}]}')
        data = b"FADN1" + struct.pack("<I", len(manifest)) + manifest + b"\0" * 16
        self._rejected(tmp_path / "twice.fadn", data)
