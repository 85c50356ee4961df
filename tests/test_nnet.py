import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth.errors import ConfigError, NumericsError, ShapeError
from fractaldepth.nnet import (AdamWState, LrSchedule, MlpParams, adamw_step, grad_check,
                               init_mlp, load_checkpoint, lr_at, mlp_backward, mlp_forward,
                               save_checkpoint, silu, silu_grad, time_embed)
from fractaldepth.rng import RngStream


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
            h = silu(a)

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


class TestSiluOverflow:
    """exp(-x) overflows below x = -88.7 in float32 and -709 in float64;
    silu and its derivative then take their limits, with no warning."""

    @pytest.mark.parametrize("dtype, x", [(np.float32, -100.0), (np.float64, -800.0)])
    def test_limits_without_warning(self, dtype, x):
        a = np.array([x, -x], dtype=dtype)
        p = MlpParams(weights=[np.eye(2, dtype=dtype)] * 2, biases=[np.zeros(2, dtype=dtype)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, ds = silu(a), silu_grad(a)
            y, cache = mlp_forward(p, a[None])
            g = mlp_backward(p, cache, np.ones((1, 2)))
        assert s.dtype == ds.dtype == dtype
        assert s[0] == 0 and s[1] == -x          # silu(-big) = -0, silu(big) = big
        assert ds[0] == 0 and ds[1] == 1
        assert np.array_equal(y[0], s)
        assert np.array_equal(g.pre0[0], ds)     # W1 = I: the pre-activation grad is silu


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
            bad = nn.grad_check(p, x)
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
        adamw_step(p, {"w": grad.copy()}, st, lr=0.01, weight_decay=0.0, eps=1e-8)
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
            adamw_step(p, {"w": np.array([1.0, np.nan])}, st, lr=0.1)
        assert st.step == 0 and np.allclose(p["w"], 1.0)

    def test_shape_mismatch_rejected_state_unchanged(self):
        p = {"a": np.ones(2), "b": np.ones(3)}
        st = AdamWState()
        with pytest.raises(ShapeError):
            adamw_step(p, {"a": np.ones(2), "b": np.ones(4)}, st, lr=0.1)
        assert st.step == 0 and not st.m and np.all(p["a"] == 1.0)

    @staticmethod
    def _out_of_place_step(params, grads, state, lr, betas=(0.9, 0.95), weight_decay=0.05,
                           eps=1e-8):
        """The AdamW formula with one temporary array per operation."""
        b1, b2 = betas
        state.step += 1
        t = state.step
        for name, p in params.items():
            g = grads[name]
            m = state.m.setdefault(name, np.zeros_like(p))
            v = state.v.setdefault(name, np.zeros_like(p))
            p *= (1.0 - lr * weight_decay)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)

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
                assert a.tobytes() == b.tobytes(), k

    def test_peak_memory_two_scratch_arrays(self):
        from fractaldepth.bench import RunConfig, build_model
        params = build_model(RunConfig()).named_params()
        rng = np.random.default_rng(0)
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        st = AdamWState()
        adamw_step(params, grads, st, lr=1e-3)        # makes the moments
        largest = max(p.nbytes for p in params.values())
        tracemalloc.start()
        try:
            adamw_step(params, grads, st, lr=1e-3)
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
        save_checkpoint(path, {"x": np.zeros(2)})
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
