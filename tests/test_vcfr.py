import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fractaldepth.core import ScaleConfig, downsample_mean
from fractaldepth.errors import ShapeError
from fractaldepth.rng import RngStream
from fractaldepth.vcfr import (ConvPyramidParams, append_guidance_token, conv3x3_forward,
                               conv3x3_input_grad, extract_features, extract_features_backward,
                               init_conv_pyramid, refine_condition, refine_condition_backward)

CFG = ScaleConfig(levels=((1, 1), (4, 1), (16, 1), (32, 4)), d_min=0.1, d_max=10.0)


def _params(seed=0, F=8):
    return init_conv_pyramid(F, RngStream(seed, ("t",)))


def conv3x3_einsum(x, w, b):
    """Reference: explicit 3x3 windows of the edge-padded input."""
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))  # (H, W, Cin, 3, 3)
    return np.einsum("hwcij,ijcd->hwd", win, w) + b


class TestConv3x3:
    @pytest.mark.parametrize("shape", [(1, 1, 3), (5, 7, 3), (16, 16, 8), (9, 4, 2)])
    def test_matches_einsum_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, 3, shape[2], 5))
        b = rng.normal(size=5)
        a, xp = conv3x3_forward(x, w, b)
        assert a.shape == shape[:2] + (5,)
        assert np.max(np.abs(a - conv3x3_einsum(x, w, b))) <= 1e-12
        assert np.array_equal(xp[1:-1, 1:-1], x)

    @pytest.mark.parametrize("shape", [(1, 1, 3), (5, 7, 3), (9, 4, 2)])
    def test_input_grad_is_adjoint(self, shape):
        # <conv(x) - b, g> = <x, input_grad(g)> for the linear part of the conv
        rng = np.random.default_rng(sum(shape) + 1)
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, 3, shape[2], 5))
        g = rng.normal(size=shape[:2] + (5,))
        a, _ = conv3x3_forward(x, w, np.zeros(5))
        assert np.vdot(a, g) == pytest.approx(np.vdot(x, conv3x3_input_grad(g, w)), rel=1e-12)


class TestExtractFeatures:
    def test_constant_image_constant_features(self):
        params = _params()
        image = np.full((32, 32, 3), 0.4)
        feats, _ = extract_features(image, CFG, params)
        assert len(feats) == 4
        for f in feats:
            assert np.allclose(f, f.reshape(-1, f.shape[-1])[0], atol=1e-12)

    def test_receptive_field_bound(self):
        params = _params()
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, (32, 32, 3))
        b = a.copy()
        b[16, 16] += 0.1
        fa = extract_features(a, CFG, params)[0][-1]
        fb = extract_features(b, CFG, params)[0][-1]
        diff = np.abs(fa - fb).sum(axis=-1)
        # two 3x3 convs: 5x5 receptive field around the perturbed pixel
        ys, xs = np.nonzero(diff > 1e-14)
        assert np.all(np.abs(ys - 16) <= 2) and np.all(np.abs(xs - 16) <= 2)

    def test_deterministic(self):
        params = _params()
        image = np.random.default_rng(1).uniform(0, 1, (32, 32, 3))
        a, _ = extract_features(image, CFG, params)
        b, _ = extract_features(image, CFG, params)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_resolution_mismatch(self):
        with pytest.raises(ShapeError):
            extract_features(np.zeros((16, 16, 3)), CFG, _params())

    @pytest.mark.parametrize("F", [4, 16])
    def test_bit_identical_to_out_of_place(self, F):
        # SiLU runs in place; the grids, which generation reads, must equal
        # the out-of-place arithmetic bit for bit, each coarser grid pooled
        # from the next finer one, and the cache holds each layer's padded
        # input and sigmoid and the output, no pre-activation
        params = _params(seed=F, F=F)
        image = np.random.default_rng(F).uniform(0, 1, (32, 32, 3))
        a1, xp1 = conv3x3_forward(image, params.w1, params.b1)
        h1 = a1 / (1.0 + np.exp(-a1))
        a2, xp2 = conv3x3_forward(h1, params.w2, params.b2)
        f = a2 / (1.0 + np.exp(-a2))
        grids = [f]
        for res, _ in reversed(CFG.levels[:-1]):
            grids.insert(0, downsample_mean(grids[0], res))
        feats, cache = extract_features(image, CFG, params)
        assert len(feats) == len(CFG.levels)
        for grid, ref in zip(feats, grids):
            assert grid.dtype == np.float64 and grid.tobytes() == ref.tobytes()
        # the finest grid is the output itself, not a pooled copy
        assert feats[-1] is cache[-1]
        expect = (xp1, 1.0 / (1.0 + np.exp(-a1)), xp2, 1.0 / (1.0 + np.exp(-a2)), f)
        assert len(cache) == len(expect)
        for kept, ref in zip(cache, expect):
            assert kept.tobytes() == ref.tobytes()

    def test_backward_leaves_grids_intact(self):
        # the finest grid is the cache's output features; the backward forms
        # silu' without writing into any grid the caller holds
        params = _params(seed=5, F=4)
        image = np.random.default_rng(5).uniform(0, 1, (32, 32, 3))
        feats, cache = extract_features(image, CFG, params)
        before = [f.copy() for f in feats]
        extract_features_backward([np.ones_like(f) for f in feats], CFG, params, cache)
        for f, ref in zip(feats, before):
            assert np.array_equal(f, ref)

    def test_nested_pooling_needs_only_divisibility(self):
        # 2 does not divide 3: the coarsest level pools from the finest grid
        cfg = ScaleConfig(levels=((2, 1), (3, 1), (12, 1)), d_min=0.1, d_max=10.0)
        params = _params(seed=6, F=4)
        image = np.random.default_rng(6).uniform(0, 1, (12, 12, 3))
        feats, cache = extract_features(image, cfg, params)
        assert [f.shape[0] for f in feats] == [2, 3, 12]
        for f in feats:
            assert np.allclose(f, downsample_mean(cache[-1], f.shape[0]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("F", [4, 16])
    def test_float32_params_give_float32_pyramid(self, F):
        # the pyramid computes in its parameters' dtype, as generation runs
        # it.  A K-term float32 sum rounds within K u of the sum of its terms'
        # magnitudes (u = EPS32 / 2; Higham, Accuracy and Stability, 3.1).
        # Each layer-2 feature sums 9 F + 1 terms over layer-1 outputs that
        # sum 28; the magnitudes sum to about 3 times the largest feature
        # (measured 2.9), so the grids stay within 1.5 (9 F + 29) EPS32 of it
        # (measured 1.5 EPS32); the pools' sums of 2x2 and 4x4 blocks add at
        # most 16 u, inside that margin
        params = _params(seed=F, F=F)
        p32 = ConvPyramidParams(*(p.astype(np.float32) for p in
                                  (params.w1, params.b1, params.w2, params.b2)))
        image = np.random.default_rng(F).uniform(0, 1, (32, 32, 3))
        feats32, cache = extract_features(image, CFG, p32)
        feats64, _ = extract_features(image, CFG, params)
        assert all(a.dtype == np.float32 for a in feats32 + list(cache))
        tol = 1.5 * (9 * F + 29) * np.finfo(np.float32).eps * np.max(np.abs(feats64[-1]))
        for a, b in zip(feats32, feats64):
            assert np.max(np.abs(a - b)) <= tol

    @pytest.mark.parametrize("F", [4, 16])
    def test_float32_backward_within_k_u(self, F):
        # the backward computes in the dtype of the parameters and cache, as
        # training runs it, and returns the weight gradients in it and the
        # bias gradients, sums over the pixels, in float64.  Against the float64
        # pyramid and backward, on the same float64 feature gradients, each
        # gradient is reached through the forward's sums (28 terms at layer
        # 1, 9 F + 1 at layer 2), the sum of the 4 levels' gradients, the
        # input gradient's 9 F terms and the weight sums over the HW = 1024
        # pixels, plus a few roundings for the casts and each silu'.  A
        # K-term float32 sum moves by at most K u of its terms' magnitudes
        # (u = 2**-24); taken at about each tensor's largest entry, as for
        # the MLP backward, that is (18 F + HW + 40) u of it (measured
        # <= 37 u over five seeds at each F)
        params = _params(seed=F + 1, F=F)
        p32 = ConvPyramidParams(*(p.astype(np.float32) for p in
                                  (params.w1, params.b1, params.w2, params.b2)))
        image = np.random.default_rng(F).uniform(0, 1, (32, 32, 3))
        f64, c64 = extract_features(image, CFG, params)
        _, c32 = extract_features(image, CFG, p32)
        rng = np.random.default_rng(F + 2)
        grad_feats = [rng.normal(size=f.shape) for f in f64]
        ours = extract_features_backward(grad_feats, CFG, p32, c32)
        ref = extract_features_backward(grad_feats, CFG, params, c64)
        tol = (18 * F + 32 * 32 + 40) * 2.0 ** -24
        for name, a in ours.items():
            assert ref[name].dtype == np.float64
            assert a.dtype == (np.float64 if name.startswith("conv.b") else np.float32), name
            assert np.max(np.abs(a - ref[name])) <= tol * np.max(np.abs(ref[name])), name

    def test_backward_finite_difference(self):
        params = _params(seed=2, F=4)
        image = np.random.default_rng(2).uniform(0, 1, (32, 32, 3))
        feats, cache = extract_features(image, CFG, params)
        # loss = sum of squares of every level's features
        grad_feats = [2 * f for f in feats]
        grads = extract_features_backward(grad_feats, CFG, params, cache)

        def loss():
            fs, _ = extract_features(image, CFG, params)
            return sum(float(np.sum(f * f)) for f in fs)

        h = 1e-6
        rng = np.random.default_rng(3)
        for name, p in params.named().items():
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss()
                flat[idx] = orig - h
                lm = loss()
                flat[idx] = orig
                num = (lp - lm) / (2 * h)
                ana = grads[name].reshape(-1)[idx]
                assert num == pytest.approx(ana, rel=1e-4, abs=1e-8), name


class TestRefineCondition:
    def test_gate_at_rest(self):
        f = np.random.default_rng(0).normal(size=(4, 4, 8))
        cond, _ = refine_condition(f, np.zeros((4, 4)), gate_w=1.0, gate_b=0.0, patch=1)
        assert np.allclose(cond, 1.5 * f.reshape(16, 8))

    def test_zero_features_zero_condition(self):
        z = np.random.default_rng(1).normal(size=(4, 4))
        cond, _ = refine_condition(np.zeros((4, 4, 8)), z, 0.7, -0.2, patch=2)
        assert np.all(cond == 0)

    def test_per_cell_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(4, 4, 3))
        z = rng.normal(size=(4, 4))
        w, b = 0.9, 0.1
        cond, _ = refine_condition(f, z, w, b, patch=2)
        expect = np.zeros((4, 3))
        for ti, (i0, j0) in enumerate([(0, 0), (0, 2), (2, 0), (2, 2)]):
            acc = np.zeros(3)
            for di in range(2):
                for dj in range(2):
                    i, j = i0 + di, j0 + dj
                    s = 1 / (1 + np.exp(-(w * z[i, j] + b)))
                    acc += f[i, j] * s + f[i, j]
            expect[ti] = acc / 4
        assert np.max(np.abs(cond - expect)) <= 1e-12

    def test_resolution_mismatch(self):
        with pytest.raises(ShapeError):
            refine_condition(np.zeros((4, 4, 2)), np.zeros((8, 8)), 1.0, 0.0, 1)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(4, 4, 3))
        z = rng.normal(size=(4, 4))
        w, b = 0.8, -0.3
        pooled, cache = refine_condition(f, z, w, b, patch=2)
        df, dw, db = refine_condition_backward(2 * pooled, cache)

        def loss(fv, wv, bv):
            out, _ = refine_condition(fv, z, wv, bv, patch=2)
            return float(np.sum(out * out))

        h = 1e-6
        assert (loss(f, w + h, b) - loss(f, w - h, b)) / (2 * h) == pytest.approx(dw, rel=1e-6)
        assert (loss(f, w, b + h) - loss(f, w, b - h)) / (2 * h) == pytest.approx(db, rel=1e-6)
        for idx in rng.choice(f.size, size=5, replace=False):
            flat = f.reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss(f, w, b)
            flat[idx] = orig - h
            lm = loss(f, w, b)
            flat[idx] = orig
            assert (lp - lm) / (2 * h) == pytest.approx(df.reshape(-1)[idx], rel=1e-5, abs=1e-9)


class TestGuidanceToken:
    def test_constant_depth(self):
        d = 2.5
        z = np.full((4, 4), 2 * (np.log(d) - np.log(0.1)) / (np.log(10.0) - np.log(0.1)) - 1)
        cond = append_guidance_token(np.zeros((16, 2)), z, CFG)
        assert cond.shape == (16, 3)
        assert np.allclose(cond[:, 2], np.log(d))

    def test_zero_latent_midpoint(self):
        cond = append_guidance_token(np.zeros((4, 1)), np.zeros((2, 2)), CFG)
        assert np.allclose(cond[:, 1], np.log(np.sqrt(0.1 * 10.0)))

    def test_mean_of_log_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, (6, 6))
        span = np.log(10.0) - np.log(0.1)
        lnd = np.log(0.1) + (z + 1) / 2 * span
        cond = append_guidance_token(np.zeros((36, 1)), z, CFG)
        assert cond[0, 1] == pytest.approx(lnd.mean(), rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-1, 1, (4, 4))
        perm = rng.permutation(16)
        a = append_guidance_token(np.zeros((1, 1)), z, CFG)[0, 1]
        b = append_guidance_token(np.zeros((1, 1)), z.reshape(-1)[perm].reshape(4, 4), CFG)[0, 1]
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_grid(self):
        with pytest.raises(ShapeError):
            append_guidance_token(np.zeros((1, 1)), np.zeros((0, 0)), CFG)
