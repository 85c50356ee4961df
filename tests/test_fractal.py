import copy
import functools
import hashlib
import json
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractaldepth.fractal as fractal_mod
from fractaldepth import bench, vcfr
from fractaldepth.core import (DepthMap, ScaleConfig, downsample_mean, log_normalize,
                               named_scale_config, split_patches, upsample_bilinear)
from fractaldepth.diffusion import forward_noise
from fractaldepth.errors import ConfigError, InputError, NumericsError, ShapeError
from fractaldepth.fractal import (ModelSpec, decode_level_depth, encode_targets, generate,
                                  init_model, load_model, save_model, save_trace, train_step)
from fractaldepth.nnet import (Workspace, adamw_step, load_checkpoint, mlp_backward,
                               mlp_forward, save_checkpoint, time_embed)
from fractaldepth.rng import RngStream

CFG = ScaleConfig(levels=((1, 1), (4, 1), (8, 2)), d_min=0.1, d_max=10.0)

# The sampler's MLP runs in float32, spaced EPS32 = 2**-23 ~ 1.2e-7 at 1.0;
# the chain state is float64.  Two runs whose float32 products round
# differently (against the float64 ``predictor=`` reference, or one row
# inside products of different row counts) differ by the rounding of their
# noise predictions, a few EPS32 relative to those.  Each reverse step adds
# its prediction with the coefficient (1 - alpha)/sqrt(1 - abar), and the
# coefficients of a chain sum to about 1, so latents differ by a few EPS32
# times the largest predicted noise.  The random-init models here (final
# layer scaled by 0.01) predict noise below 0.05, so one EPS32 bounds their
# latents (they measured <= 2e-8).  A depth is exp-linear in its latent with
# slope ln(d_max / d_min) / 2 <= 2.3 on these layouts, so depths are held to
# 2.3 EPS32 relative.
EPS32 = float(np.finfo(np.float32).eps)
LATENT_TOL = EPS32
DEPTH_RTOL = 2.3 * EPS32


def assert_f32_close(a_trace, b_trace, latent_tol=LATENT_TOL, depth_rtol=DEPTH_RTOL):
    """Latents within ``latent_tol``, and final depths within ``depth_rtol`` relative."""
    for x, y in zip(a_trace.latents, b_trace.latents):
        assert np.max(np.abs(x - y)) <= latent_tol
    x, y = a_trace.final.values, b_trace.final.values
    assert np.max(np.abs(x - y) / y) <= depth_rtol


def make_spec(cfg, T, hidden, feature_dim, time_dim, timestep_reuse, shared_unit=True):
    """A model on ``cfg``'s layout whose T betas run linearly from 1e-4 to 0.02;
    its levels of equal MLP sizes share one unit unless ``shared_unit`` is false."""
    return ModelSpec(levels=cfg.levels, d_min=cfg.d_min, d_max=cfg.d_max, T=T, beta_start=1e-4,
                     beta_end=0.02, hidden=hidden, feature_dim=feature_dim, time_dim=time_dim,
                     timestep_reuse=timestep_reuse, shared_unit=shared_unit)


def small_model(seed=0, T=10, hidden=(16, 16), shared_unit=True):
    """Levels 0 and 1 of ``CFG`` share one unit (unless ``shared_unit`` is
    false), and level 2 has its own MLP."""
    return init_model(make_spec(CFG, T, hidden, feature_dim=4, time_dim=4, timestep_reuse=2,
                                shared_unit=shared_unit), seed)


def float64_copy(params):
    """An ``MlpParams`` or ``vcfr.ConvPyramidParams`` with the values of
    ``params``, widened to float64: the float64 reference arithmetic on the
    model's float32 weights."""
    def widen(a):
        return [widen(x) for x in a] if isinstance(a, list) else a.astype(np.float64)

    return type(params)(**{k: widen(v) for k, v in vars(params).items()})


def scene(seed=0):
    rng = np.random.default_rng(seed)
    image = rng.uniform(0, 1, (8, 8, 3))
    gt = DepthMap(values=rng.uniform(0.5, 8.0, (8, 8)))
    return image, gt


class TestEncodeTargets:
    def test_constant_depth(self):
        model = small_model()
        gt = DepthMap(values=np.full((8, 8), 2.0))
        targets = encode_targets(gt, model)
        z = log_normalize(gt, CFG)[0, 0]
        for t in targets:
            assert np.allclose(t, z)

    def test_finest_round_trips(self):
        model = small_model()
        _, gt = scene(1)
        targets = encode_targets(gt, model)
        from fractaldepth.core import denormalize
        back = denormalize(targets[-1], CFG)
        assert np.max(np.abs(back.values - gt.values)) <= 1e-12

    def test_block_means(self):
        model = small_model()
        _, gt = scene(2)
        targets = encode_targets(gt, model)
        fine = log_normalize(gt, CFG)
        assert np.allclose(targets[1], downsample_mean(fine, 4))

    def test_resolution_mismatch(self):
        model = small_model()
        with pytest.raises(ShapeError):
            encode_targets(DepthMap(values=np.ones((4, 4)) * 2), model)


class TestTrainStep:
    def test_losses_finite_and_nonnegative(self):
        model = small_model()
        image, gt = scene(3)
        losses = train_step(model, image, gt, RngStream(0, ("s",)), lr=1e-3, weight_decay=0.05)
        assert len(losses) == 3
        assert all(np.isfinite(l) and l >= 0 for l in losses)

    def test_fixed_seed_bit_identical(self):
        image, gt = scene(4)
        runs = []
        for _ in range(2):
            model = small_model(seed=5)
            runs.append(train_step(model, image, gt, RngStream(1, ("s",)), lr=1e-3,
                                   weight_decay=0.05))
        assert runs[0] == runs[1]

    def test_initial_loss_near_unit_variance(self):
        model = small_model(seed=6, T=50)
        rng = RngStream(2, ("loss",))
        total = []
        for step in range(100):
            image, gt = scene(100 + step)
            # lr=0 keeps parameters at initialization
            total.append(np.mean(train_step(model, image, gt, rng.child(step), lr=0.0,
                                            weight_decay=0.05)))
        assert np.mean(total) == pytest.approx(1.0, abs=0.2)

    def test_loss_decreases_with_training(self):
        model = small_model(seed=7, T=20)
        image, gt = scene(8)
        rng = RngStream(3, ("t",))
        first = np.mean(train_step(model, image, gt, rng.child(0), lr=3e-3, weight_decay=0.05))
        for step in range(1, 60):
            last = np.mean(train_step(model, image, gt, rng.child(step), lr=3e-3,
                                      weight_decay=0.05))
        assert last < first

    @staticmethod
    def _assert_step_rejected(model, image, gt, error, match):
        """train_step raises ``error`` with no warning, and moves no
        parameter and no AdamW state."""
        before = {k: p.copy() for k, p in model.named_params().items()}
        state = model.opt_state
        m, v, step = ({k: a.copy() for k, a in state.m.items()},
                      {k: a.copy() for k, a in state.v.items()}, state.step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                train_step(model, image, gt, RngStream(4, ("bad",)), lr=1e-3, weight_decay=0.05)
        for k, p in model.named_params().items():
            assert p.tobytes() == before[k].tobytes(), k
        assert state.step == step and state.m.keys() == m.keys() and state.v.keys() == v.keys()
        for k in m:
            assert state.m[k].tobytes() == m[k].tobytes() and state.v[k].tobytes() == v[k].tobytes()

    # level 1's last two layers scaled so its float32 forward overflows
    # (outputs ~1e42) while the weights and their float64 forward stay
    # finite; or an inf in its last layer, which a float32 weight holds
    # where a value beyond float32's range would be
    @staticmethod
    def _break(model, case):
        mlp = model.mlps[1]
        if case == "inf":
            mlp.weights[2][3, 0] = np.inf
            return
        mlp.weights[1] *= 1e22
        mlp.weights[2] *= 1e22
        x = RngStream(5, ("x",)).normal((16, mlp.sizes[0]), "x")
        assert np.all(np.isfinite(mlp_forward(float64_copy(mlp), x)[0]))

    @pytest.mark.parametrize("case", ["forward", "inf"])
    def test_float32_overflow_rejected(self, case):
        model = small_model(seed=8, shared_unit=False)
        image, gt = scene(5)
        train_step(model, image, gt, RngStream(4, ("ok",)), lr=1e-3, weight_decay=0.05)
        self._break(model, case)
        self._assert_step_rejected(model, image, gt, NumericsError, "level 1")

    @pytest.mark.parametrize("case", ["forward", "inf"])
    def test_float32_overflow_in_unit_rejected(self, case):
        # levels 0 and 1 run the broken unit, in one block; level 0's loss
        # is named
        model = small_model(seed=8)
        image, gt = scene(5)
        train_step(model, image, gt, RngStream(4, ("ok",)), lr=1e-3, weight_decay=0.05)
        self._break(model, case)
        self._assert_step_rejected(model, image, gt, NumericsError, "level 0")

    # generate's pixel check runs first: a NaN pixel would surface as a
    # non-finite loss, and 1e39 as an overflow warning in the float32 cast
    @pytest.mark.parametrize("bad", [np.nan, 1e39], ids=["nan", "1e39"])
    def test_unusable_pixel_rejected(self, bad):
        model = small_model(seed=8)
        image, gt = scene(5)
        train_step(model, image, gt, RngStream(4, ("ok",)), lr=1e-3, weight_decay=0.05)
        image[3, 3, 0] = bad
        self._assert_step_rejected(model, image, gt, InputError, "float32")


def _per_draw_grads(model, image, gt, rng):
    """The losses and gradients of a training step as a loop over levels and
    draws, one forward and backward per draw: the reference for the stacked
    pass of ``loss_and_grads``.  It runs the conv pyramid and the MLP as
    training does, in float32 on the model's weights, the MLP on the float64
    projection of the condition, and sums each draw's gradients into float64
    as it goes."""
    targets = encode_targets(gt, model)
    feats, feat_cache = vcfr.extract_features(image, model.cfg, model.conv)
    grads = {name: np.zeros(p.shape) for name, p in model.named_params().items()}
    unit_name = {level: name for name, _, levels in model.units() for level in levels}
    feat_grads = []
    losses = []
    R = model.spec.timestep_reuse
    td = model.spec.time_dim
    for level, lv in enumerate(model.cfg.levels):
        cond, fuse_cache = fractal_mod._build_condition(model, feats,
                                                        targets[level - 1] if level else None,
                                                        level)
        z_star = split_patches(targets[level], lv.patch_size).reshape(lv.token_count, -1)
        mlp = model.mlps[level]
        k = lv.token_dim + td
        pre0 = (cond @ mlp.weights[0][k:] + mlp.biases[0]).astype(np.float32)
        level_loss = 0.0
        dcond = np.zeros_like(cond)
        for r in range(R):
            t = int(rng.integers(1, model.sched.T + 1, "t", level, r))
            eps = rng.normal(z_star.shape, "eps", level, r)
            z_t = forward_noise(z_star, t, eps, model.sched)
            emb = np.broadcast_to(time_embed(float(t), td), (lv.token_count, td))
            y, cache = mlp_forward(mlp, np.concatenate([z_t, emb], axis=1), pre0)
            diff = y - eps
            level_loss += float(np.mean(diff * diff)) / R
            g = mlp_backward(mlp, cache, 2.0 * diff / (diff.size * R))
            g0 = g.pre0.astype(np.float64)
            # the levels of a shared unit add into its one set of gradients
            for name, gv in g.named(unit_name[level]).items():
                if name.endswith(".w0"):        # the backward's rows, then cond's
                    grads[name][:k] += gv
                    grads[name][k:] += cond.T @ g0
                else:
                    grads[name] += gv
            dcond += g0 @ mlp.weights[0][k:].T
        losses.append(level_loss)
        df, dw, db = vcfr.refine_condition_backward(dcond[:, :model.spec.feature_dim],
                                                  fuse_cache)
        grads["gate_w"][level] += dw
        grads["gate_b"][level] += db
        feat_grads.append(df)
    for name, gv in vcfr.extract_features_backward(feat_grads, model.cfg, model.conv,
                                                   feat_cache).items():
        grads[name] += gv
    return losses, grads


class TestStackedTrainStep:
    """train_step stacks the R draws of every level that runs one unit into
    row blocks and projects each condition once; only the order of its sums
    differs from the per-draw loop, which runs the same float32 MLP and sums
    the levels of a shared unit into its gradients."""

    # The two paths differ only in float32 sums taken in another order: the
    # weight and bias gradients summed over a block's rows (rows of several
    # levels, for a shared unit), against per-draw sums added in float64,
    # and the GEMM blocking of a stacked product against a one-draw product.
    # A K-term float32 sum moves by at most K u of its terms' magnitudes
    # (u = 2**-24; Higham, Accuracy and Stability, 3.1), and the largest
    # block here is K = 512 rows (two level-2 draws of the desk unit at
    # R >= 2), so each sum agrees within 2 K u = 1024 u of its magnitudes in
    # the two orders.  Both paths run the same float32 conv pyramid, so its
    # backward's sums meet only that reordering, through the feature
    # gradients.  The gradients are held in each tensor's norm to 1024 u
    # (measured <= 67 u over model seeds 4-8), the losses to 1024 u relative
    # (measured <= 2.2 u).
    #
    # The parameters after the steps: AdamW moves an entry by
    # lr m^ / (sqrt(v^) + eps), which is invariant to the scale of its
    # gradients.  Where an entry's gradient stays clear of its rounding, the
    # update moves by that small relative change, and the entries are held
    # in each tensor's norm to 1024 u.  Where an entry's gradient cancels to
    # within the gradient bound of 0 (1024 u of its tensor's norm) at some
    # step, its sign or size is set by rounding, and the update may take any
    # value AdamW allows.  m^ and v^ weigh the gradients g_k by a_k and b_k,
    # so by Cauchy-Schwarz |m^| <= sqrt(sum a_k**2 / b_k) sqrt(v^), a factor
    # of 1.001 for t <= 3 at betas (0.9, 0.95): each update is at most
    # 1.001 lr in size, two of them differ by at most 2.002 lr, and such an
    # entry is held to 2.002 lr per step.  The weight decay shrinks a
    # difference.  Measured over model seeds 4-9: the held-out entries moved
    # <= 0.01 lr, the rest <= 411 u of their norm (desk R = 2, seed 7);
    # the whole norm read up to 11 662 u there (conv.b1, whose norm after
    # three steps from 0 is about 3 lr sqrt(F)).
    TOL = 1024 * 2.0 ** -24

    @staticmethod
    def _model(name, R, seed=4):
        """Desk (levels 0-2 share a unit), two levels with one MLP each, or
        three levels whose first two share a unit."""
        if name == "desk":
            return init_model(make_spec(named_scale_config("desk"), 60, (256, 256, 256),
                                        feature_dim=16, time_dim=16, timestep_reuse=R), seed)
        levels = {"two_level": ((2, 1), (8, 2)), "three_level": ((1, 1), (2, 1), (8, 2))}[name]
        cfg = ScaleConfig(levels=levels, d_min=0.1, d_max=10.0)
        return init_model(make_spec(cfg, 30, (24, 24), feature_dim=4, time_dim=6,
                                    timestep_reuse=R), seed)

    def test_desk_unit(self):
        model = self._model("desk", 4)
        assert [(name, levels) for name, _, levels in model.units()] == [
            ("unit", (0, 1, 2)), ("mlp3", (3,))]
        assert sum(p.size for p in model.named_params().values()) == 398_617

    @pytest.mark.parametrize("R", [1, 2, 4])
    @pytest.mark.parametrize("name", ["two_level", "desk", "three_level"])
    def test_matches_per_draw_loop(self, name, R):
        for seed in range(4, 10):
            self._check_against_per_draw_loop(name, R, seed)

    def _check_against_per_draw_loop(self, name, R, seed):
        stacked, reference = self._model(name, R, seed), self._model(name, R, seed)
        res = stacked.cfg.final_resolution
        rng = RngStream(9, ("stack",))
        lr, steps = 2e-3, 3
        # the entries whose reference gradient is within the gradient bound
        # of 0 at some step
        cancelled = {k: np.zeros(p.shape, bool) for k, p in reference.named_params().items()}
        for step in range(steps):
            image, gt = bench.gen_scene(bench.SceneSpec(seed=step, resolution=res))
            a = train_step(stacked, image, gt, rng.child(step), lr=lr, weight_decay=0.05)
            b, grads = _per_draw_grads(reference, image, gt, rng.child(step))
            adamw_step(reference.named_params(), grads, reference.opt_state, lr,
                       weight_decay=0.05)
            np.testing.assert_allclose(a, b, rtol=self.TOL, atol=0)
            for key, g in grads.items():
                cancelled[key] |= np.abs(g) <= self.TOL * np.linalg.norm(g)
        ref = reference.named_params()
        for key, p in stacked.named_params().items():
            diff = p.astype(np.float64) - ref[key]
            held = cancelled[key]
            assert np.linalg.norm(diff[~held]) <= self.TOL * np.linalg.norm(ref[key]), (key, seed)
            assert np.all(np.abs(diff[held]) <= 2.002 * lr * steps), (key, seed)

    @pytest.mark.parametrize("R", [1, 2, 4])
    @pytest.mark.parametrize("name", ["two_level", "desk", "three_level"])
    def test_gradients_match_per_draw_loop(self, name, R):
        # one model, stepped by the reference's gradients, so that both
        # gradients of a step are taken at the same parameters
        model = self._model(name, R)
        rng = RngStream(9, ("stack",))
        for step in range(3):
            image, gt = bench.gen_scene(bench.SceneSpec(seed=step,
                                                        resolution=model.cfg.final_resolution))
            _, stacked = fractal_mod.loss_and_grads(model, image, gt, rng.child(step))
            _, reference = _per_draw_grads(model, image, gt, rng.child(step))
            assert stacked.keys() == reference.keys()
            for key, g in reference.items():
                assert np.linalg.norm(stacked[key] - g) <= self.TOL * np.linalg.norm(g), key
            adamw_step(model.named_params(), reference, model.opt_state, 2e-3, weight_decay=0.05)

    def test_no_draws_rejected(self):
        with pytest.raises(ConfigError, match="timestep_reuse"):
            self._model("two_level", 0)

    def test_finite_difference(self):
        model = self._model("three_level", 2, seed=5)
        # a few steps away from the initialisation, so no gradient is trivial
        for step in range(3):
            train_step(model, *scene(20 + step), RngStream(2, ("fd", step)), lr=3e-3,
                       weight_decay=0.05)
        image, gt = scene(30)
        rng = RngStream(3, ("fd",))          # the same draws on every call
        _, grads = fractal_mod.loss_and_grads(model, image, gt, rng)
        f, td = model.spec.feature_dim, model.spec.time_dim
        entries = [("gate_w", (1,)), ("gate_b", (0,)), ("gate_b", (1,)), ("gate_w", (2,)),
                   ("conv.w1", (1, 2, 0, 3)), ("conv.w1", (0, 0, 2, 1))]
        assert [name for name, _, _ in model.units()] == ["unit", "mlp2"]
        for name, mlp, levels in model.units():
            d = model.cfg.levels[levels[0]].token_dim
            # token, time, pooled-feature, guidance and (finest) context rows
            rows = [0, d, d + td, d + td + f - 1, d + td + f]
            if levels[-1] == model.n_levels - 1:
                rows.append(mlp.weights[0].shape[0] - 1)
            entries += [(f"{name}.w0", (r, 3)) for r in rows]
            entries += [(f"{name}.b0", (5,)), (f"{name}.w1", (2, 7))]
        # The loss runs the conv pyramid and the MLP in float32.  The MLP's
        # outputs y (|y| < 0.1 here) round by about sqrt(K) u |y| (K = 24
        # hidden units, u = 2**-24), and the loss, a float64 mean of N = 136
        # squared residuals r (|r| ~ 1), by about 2 |r| sqrt(K) u |y| /
        # sqrt(N) ~ 5e-9 (measured ~3e-9) from one parameter value to the
        # next.  The float32 features round within a few u, and the cast of
        # the projected condition to float32 rounds the MLP's input at that
        # level anyway, so they add noise of the same order.  A central
        # difference divides it by 2 h: h = 1e-2 leaves about 2.5e-7, under
        # the absolute floor of 5e-7.  Its truncation error h**2 |L'''| / 6
        # is smaller still: the measured error falls from h = 1e-3 to 1e-2
        # (to 1.4e-7 at most, on a conv.w1 entry), so rounding dominates
        # there.  The float32 analytic gradient's sums round within K u of
        # their terms' magnitudes, and 1e-3 relative leaves room for terms
        # that cancel 600-fold.
        # The parameters are float32, so the difference is taken over the
        # two values they store, not 2 h.
        params = model.named_params()
        h = 1e-2
        for name, idx in entries:
            p = params[name]
            orig = p[idx]
            p[idx] = orig + h
            hi = float(p[idx])
            up = sum(fractal_mod.loss_and_grads(model, image, gt, rng)[0])
            p[idx] = orig - h
            lo = float(p[idx])
            down = sum(fractal_mod.loss_and_grads(model, image, gt, rng)[0])
            p[idx] = orig
            numeric = (up - down) / (hi - lo)
            assert numeric == pytest.approx(grads[name][idx], rel=1e-3, abs=5e-7), (name, idx)


class TestModelSpec:
    """Every int field of a spec takes an int or a numpy integer, and its
    ConfigError names the field: int() would read 2.5 as 2, "4" as 4 and
    True as 1."""

    @staticmethod
    def _fields():
        return asdict(make_spec(CFG, 10, (16, 16), feature_dim=4, time_dim=4, timestep_reuse=2))

    @pytest.mark.parametrize("name, value, match", [
        ("T", 10.0, "T"), ("T", "10", "T"), ("hidden", (16, 16.5), "hidden"),
        ("hidden", (16, True), "hidden"), ("feature_dim", True, "feature_dim"),
        ("time_dim", "4", "time_dim"), ("timestep_reuse", 2.5, "timestep_reuse"),
        ("levels", ((1, 1), (4, 1), (8.7, 2)), r"levels\[2\] resolution"),
        ("levels", ((1, 1), (4, "1"), (8, 2)), r"levels\[1\] patch")])
    def test_non_int_rejected(self, name, value, match):
        fields = self._fields()
        fields[name] = value
        with pytest.raises(ConfigError, match=match):
            ModelSpec(**fields)

    def test_numpy_ints_accepted(self):
        fields = self._fields()
        fields.update(T=np.int64(10), hidden=(np.int32(16), 16), timestep_reuse=np.int64(2),
                      levels=((1, 1), (np.int64(4), 1), (8, np.int16(2))))
        spec = ModelSpec(**fields)
        assert spec == make_spec(CFG, 10, (16, 16), feature_dim=4, time_dim=4, timestep_reuse=2)
        ints = [spec.T, spec.timestep_reuse, *spec.hidden, *(v for l in spec.levels for v in l)]
        assert all(type(v) is int for v in ints)
        image, gt = scene(3)
        train_step(init_model(spec, 0), image, gt, RngStream(1, ("np",)), lr=1e-3,
                   weight_decay=0.05)


class TestSpecBounds:
    """A spec past a bound fails with ConfigError naming it, before any
    array of its schedule or model exists."""

    @staticmethod
    def _fields(**change):
        fields = asdict(make_spec(CFG, 10, (16, 16), feature_dim=4, time_dim=4, timestep_reuse=2))
        fields.update(change)
        return fields

    @pytest.mark.parametrize("name, layout, shared", [
        ("desk", "desk", True), ("paper", "paper", True), ("paper_table", "paper-table", True),
        ("desk_per_level", "desk", False)])
    def test_param_count_is_the_model_size(self, name, layout, shared):
        cfg = named_scale_config(layout)
        spec = make_spec(cfg, 10, (256, 256, 256), feature_dim=16, time_dim=16, timestep_reuse=4,
                         shared_unit=shared)
        model = fractal_mod._empty_model(spec, fractal_mod._no_storage)
        assert spec.param_count() == sum(p.size for p in model.named_params().values())

    @pytest.mark.parametrize("change, match", [
        ({"T": fractal_mod.MAX_T + 1}, "MAX_T"),
        ({"T": 10 ** 20}, "MAX_T"),
        ({"hidden": (1,) * (fractal_mod.MAX_HIDDEN_LAYERS + 1)}, "MAX_HIDDEN_LAYERS"),
        ({"hidden": (10 ** 7,) * 3}, "hidden widths .* MAX_PARAMS"),
        ({"hidden": (10 ** 20,)}, "hidden widths .* MAX_PARAMS"),
        ({"feature_dim": 10 ** 6}, "feature_dim=1000000.* MAX_PARAMS")],
        ids=["T", "T_huge", "depth", "width", "width_huge", "feature_dim"])
    def test_past_bound_rejected_before_allocating(self, change, match):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=match):
                ModelSpec(**self._fields(**change))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_at_bounds_accepted(self):
        spec = ModelSpec(**self._fields(T=fractal_mod.MAX_T,
                                        hidden=(1,) * fractal_mod.MAX_HIDDEN_LAYERS))
        assert spec.schedule().T == fractal_mod.MAX_T


class TestOneParameterSet:
    """Every parameter is float32, and training and generation run the MLPs
    and the conv pyramid on the model's own arrays, copying none."""

    @staticmethod
    def _record(monkeypatch):
        """The parameter objects each patched call receives, by call."""
        seen = {"mlp_forward": [], "mlp_backward": [], "extract_features": []}

        def recording(module, name, pos):
            orig = getattr(module, name)

            def call(*args, **kwargs):
                seen[name].append(args[pos])
                return orig(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        recording(fractal_mod, "mlp_forward", 0)
        recording(fractal_mod, "mlp_backward", 0)
        recording(vcfr, "extract_features", 2)
        return seen

    @pytest.mark.parametrize("run", ["generate_n1", "generate_n2", "train_step"])
    def test_calls_get_the_model_arrays(self, monkeypatch, run):
        model = bench.build_model(bench.RunConfig())
        arrays = model.named_params()
        image, gt = bench.model_scene(model, 3)
        seen = self._record(monkeypatch)
        if run == "train_step":
            train_step(model, image, gt, RngStream(2, ("own",)), lr=1e-3, weight_decay=0.05)
        else:
            n = int(run[-1])
            generate(model, image, [RngStream(2, ("own", k)) for k in range(n)], tau=1.0)
        assert seen["extract_features"] and all(c is model.conv
                                                for c in seen["extract_features"])
        assert seen["mlp_forward"] and all(any(m is p for p in model.mlps)
                                           for m in seen["mlp_forward"] + seen["mlp_backward"])
        assert bool(seen["mlp_backward"]) == (run == "train_step")
        # the step updated the same arrays in place, and they stay float32
        after = model.named_params()
        assert all(after[k] is a and a.dtype == np.float32 for k, a in arrays.items())

    def test_named_params_float32(self):
        built = [small_model(), small_model(shared_unit=False), bench.build_model(bench.RunConfig()),
                 _reference_model()]
        for model in built:
            assert all(p.dtype == np.float32 for p in model.named_params().values())
        image, gt = scene(4)
        train_step(built[0], image, gt, RngStream(3, ("f32",)), lr=1e-3, weight_decay=0.05)
        assert all(p.dtype == np.float32 for p in built[0].named_params().values())
        assert all(a.dtype == np.float32 for s in (built[0].opt_state.m, built[0].opt_state.v)
                   for a in s.values())

    def test_init_rounds_float64_draws(self):
        # the seeded model holds its float64 draws rounded once to float32,
        # on the RNG paths they always had
        model = small_model(seed=6)
        rng = RngStream(6, ("init",))
        drawn = vcfr.init_conv_pyramid(model.spec.feature_dim, rng.child("conv")).named()
        for name, mlp, levels in model.units():
            drawn.update(fractal_mod.init_mlp(mlp.sizes, rng.child("mlp", levels[0]),
                                              final_scale=0.01).named(name))
        params = model.named_params()
        assert drawn.keys() == params.keys() - {"gate_w", "gate_b"}
        for name, value in drawn.items():
            assert value.dtype == np.float64
            assert params[name].tobytes() == value.astype(np.float32).tobytes(), name


class TestTwoSharedUnits:
    """A five-level layout with two groups of equal MLP sizes: levels 0-1
    share ``unit``, levels 2-3 share ``unit1``, and the finest level keeps
    ``mlp4``."""

    CFG5 = ScaleConfig(levels=((1, 1), (2, 1), (4, 2), (8, 2), (16, 4)))

    @classmethod
    def _model(cls, seed=0):
        return init_model(make_spec(cls.CFG5, 10, (16, 16), feature_dim=4, time_dim=4,
                                    timestep_reuse=2), seed)

    @staticmethod
    def _scene(seed):
        rng = np.random.default_rng(seed)
        return (rng.uniform(0, 1, (16, 16, 3)),
                DepthMap(values=rng.uniform(0.5, 8.0, (16, 16))))

    def test_units(self):
        model = self._model()
        assert [(name, levels) for name, _, levels in model.units()] == [
            ("unit", (0, 1)), ("unit1", (2, 3)), ("mlp4", (4,))]
        assert model.mlps[0] is model.mlps[1] and model.mlps[2] is model.mlps[3]
        assert len({id(m) for m in model.mlps}) == 3

    def test_named_params_once(self):
        params = self._model().named_params()
        assert len({id(a) for a in params.values()}) == len(params)
        prefixes = {name.split(".")[0] for name in params if "." in name}
        assert {"unit", "unit1", "mlp4"} <= prefixes
        assert not prefixes & {"mlp0", "mlp1", "mlp2", "mlp3"}

    def test_unit1_drawn_on_level2_path(self):
        model = self._model(seed=5)
        params = model.named_params()
        drawn = fractal_mod.init_mlp(model.mlps[2].sizes,
                                     RngStream(5, ("init",)).child("mlp", 2),
                                     final_scale=0.01).named("unit1")
        for name, value in drawn.items():
            assert params[name].tobytes() == value.astype(np.float32).tobytes(), name

    def test_save_load_save(self, tmp_path):
        model = self._model(seed=2)
        image, gt = self._scene(1)
        train_step(model, image, gt, RngStream(2, ("u1",)), lr=1e-3, weight_decay=0.05)
        path, again = tmp_path / "m.fadn", tmp_path / "again.fadn"
        save_model(path, model)
        loaded = load_model(path)
        assert [(n, l) for n, _, l in loaded.units()] == [(n, l) for n, _, l in model.units()]
        save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_train_step_finite(self):
        model = self._model(seed=3)
        image, gt = self._scene(2)
        losses = train_step(model, image, gt, RngStream(3, ("u1",)), lr=1e-3, weight_decay=0.05)
        assert len(losses) == 5 and all(np.isfinite(l) and l >= 0 for l in losses)

    def test_generate_latent_shapes(self):
        model = self._model(seed=4)
        image, _ = self._scene(3)
        trace = generate(model, image, RngStream(4, ("u1",)), tau=1.0)
        assert [l.shape for l in trace.latents] == [(r, r) for r in (1, 2, 4, 8, 16)]
        assert trace.final.values.shape == (16, 16)

    def test_model_derives_views_from_spec(self):
        # cfg and sched are derived from the spec, never passed in
        assert [f.name for f in fields(fractal_mod.FractalModel)] == [
            "spec", "conv", "gate_w", "gate_b", "mlps", "opt_state"]
        model = self._model()
        assert model.plan is model.cfg == self.CFG5
        assert np.array_equal(model.sched.alpha_bar, model.spec.schedule().alpha_bar)
        with pytest.raises(TypeError):
            fractal_mod.FractalModel(spec=model.spec, cfg=model.cfg, conv=model.conv,
                                     gate_w=model.gate_w, gate_b=model.gate_b, mlps=model.mlps)


class TestGenerate:
    def test_trace_structure(self):
        model = small_model()
        image, _ = scene(9)
        trace = generate(model, image, RngStream(4, ("g",)), tau=0.0)
        assert len(trace.latents) == 3
        for latent, (res, _) in zip(trace.latents, CFG.levels):
            assert latent.shape == (res, res)
        d = trace.final
        assert d.values.shape == (8, 8)
        assert d.values.min() >= CFG.d_min and d.values.max() <= CFG.d_max
        assert np.array_equal(d.values, decode_level_depth(trace.latents[-1], model).values)

    def test_outputs_float64(self):
        # the MLP runs in float32; the chain state and every output are float64
        model = small_model()
        image, _ = scene(9)
        for trace in generate(model, image, [RngStream(4, ("g",)), RngStream(5, ("g",))],
                              tau=1.0):
            assert all(l.dtype == np.float64 for l in trace.latents)
            assert trace.final.values.dtype == np.float64
        assert all(w.dtype == np.float32 for m in model.mlps for w in m.weights)

    def test_same_seed_bit_identical(self):
        model = small_model()
        image, _ = scene(10)
        a = generate(model, image, RngStream(5, ("g",)), tau=1.0)
        b = generate(model, image, RngStream(5, ("g",)), tau=1.0)
        for x, y in zip(a.latents, b.latents):
            assert np.array_equal(x, y)
        assert np.array_equal(a.final.values, b.final.values)

    def test_analytic_oracle_recovers_targets(self):
        model = small_model(T=100)
        image, gt = scene(11)
        targets = encode_targets(DepthMap(values=gt.values), model)
        token_targets = []
        from fractaldepth.core import split_patches
        for level, lv in enumerate(model.cfg.levels):
            token_targets.append(split_patches(targets[level], lv.patch_size)
                                 .reshape(lv.token_count, lv.token_dim))

        def oracle(level, z, t, cond):
            ab = model.sched.abar(t)
            return (z - np.sqrt(ab) * token_targets[level]) / np.sqrt(1 - ab)

        trace = generate(model, image, RngStream(6, ("o",)), tau=0.0, predictor=oracle)
        assert np.max(np.abs(trace.final.values - gt.values)) <= 1e-6

    def test_coarse_to_fine_dependency(self):
        # level i's condition depends only on image features and level i-1:
        # overriding the predictor per level and perturbing only the finest
        # level must leave coarser latents unchanged
        model = small_model()
        image, _ = scene(12)
        calls = []

        def tracking(level, z, t, cond):
            calls.append(level)
            return np.zeros_like(z)

        trace = generate(model, image, RngStream(7, ("d",)), tau=0.0, predictor=tracking)
        # strictly coarse -> fine ordering of all predictor calls
        assert calls == sorted(calls)

        def finest_shifted(level, z, t, cond):
            return np.full_like(z, 0.1) if level == 2 else np.zeros_like(z)

        trace2 = generate(model, image, RngStream(7, ("d",)), tau=0.0, predictor=finest_shifted)
        for lvl in range(2):
            assert np.array_equal(trace.latents[lvl], trace2.latents[lvl])
        assert not np.array_equal(trace.latents[2], trace2.latents[2])

    def test_token_accounting_matches_plan(self):
        model = small_model()
        image, _ = scene(13)
        seen = {}

        def count(level, z, t, cond):
            seen[level] = z.shape[0]
            return np.zeros_like(z)

        generate(model, image, RngStream(8, ("c",)), tau=0.0, predictor=count)
        assert [seen[i] for i in range(3)] == [l.token_count for l in model.cfg.levels]


class TestGenerateHoistedCondition:
    """generate projects each level's condition once per chain and runs the
    MLP in float32; a float64 predictor that feeds the full [z, time, cond]
    row, at every step, to the MLP's weights widened to float64 is the
    reference."""

    @staticmethod
    def _full_concat(model):
        mlps = [float64_copy(mlp) for mlp in model.mlps]

        def predict(level, z, t, cond):
            td = model.spec.time_dim
            emb = np.broadcast_to(time_embed(float(t), td), (z.shape[0], td))
            return mlp_forward(mlps[level], np.concatenate([z, emb, cond], axis=1))[0]
        return predict

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("levels", [((2, 1), (8, 2)), None], ids=["two_level", "desk"])
    def test_matches_full_concat(self, levels, tau):
        if levels is None:
            cfg = named_scale_config("desk")
            model = init_model(make_spec(cfg, 60, (256, 256, 256), feature_dim=16,
                                         time_dim=16, timestep_reuse=4), seed=3)
        else:
            cfg = ScaleConfig(levels=levels, d_min=0.1, d_max=10.0)
            model = init_model(make_spec(cfg, 30, (32, 32), feature_dim=4, time_dim=6,
                                         timestep_reuse=4), seed=3)
        res = cfg.final_resolution
        image = np.random.default_rng(4).uniform(0, 1, (res, res, 3))
        a = generate(model, image, RngStream(12, ("h",)), tau=tau)
        b = generate(model, image, RngStream(12, ("h",)), tau=tau,
                     predictor=self._full_concat(model))
        assert_f32_close(a, b)


@functools.lru_cache(maxsize=None)
def _batch_model(name):
    """A small model on the desk layout, or on a 2-level layout whose 144
    finest tokens put a sample boundary inside a row block."""
    if name == "desk":
        return init_model(make_spec(named_scale_config("desk"), 8, (32, 32), feature_dim=4,
                                    time_dim=4, timestep_reuse=4), seed=2)
    cfg = ScaleConfig(levels=((3, 1), (12, 1)), d_min=0.1, d_max=10.0)
    return init_model(make_spec(cfg, 8, (24, 24), feature_dim=4, time_dim=6, timestep_reuse=4),
                      seed=2)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "desk_seed0.fadn"


@functools.lru_cache(maxsize=None)
def _reference_model():
    return load_model(REFERENCE)


class TestRespacedReference:
    """The respaced chain on the stored desk checkpoint."""

    # SHA-256 of the tau = 0 latents of scenes 11 and 12 from the chain that
    # runs every one of the 60 steps, recorded with the float32 sampler and
    # the float32 conv pyramid, whose features round differently from the
    # float64 one's (TestFloat32Pyramid bounds the move), on the checkpoint
    # loaded into float32 parameters (re-recorded from 77293012... when the
    # parameters became float32: the condition and time projections now use
    # float32-valued weights); numpy 2.4.6, OpenBLAS 0.3.31; another BLAS
    # build may round the products differently
    FULL_CHAIN_SHA256 = "ae3eaca0f83308688896277aebc2b59ad3a692c766243c636352606328dc9abb"
    # the full 60-step chain's mean RMSE at tau = 0 on scenes 2e7+0..15, and
    # its fused N = 8 RMSE on scenes 3e7+0..3 with sigma^2 = beta
    FULL_CHAIN_RMSE = 0.6923
    FULL_CHAIN_FUSED_RMSE = 1.3345624197417003

    def test_all_steps_reproduce_full_chain(self, monkeypatch):
        import hashlib
        from fractaldepth import bench
        model = _reference_model()
        monkeypatch.setattr(fractal_mod, "COARSE_STEPS", model.sched.T)
        monkeypatch.setattr(fractal_mod, "SAMPLE_STEPS", model.sched.T)
        cfg = bench.RunConfig()

        def full_chain(image, s, **kw):
            # the unrespaced schedule itself, not respace(sched, T)
            with monkeypatch.context() as m:
                m.setattr(fractal_mod, "respace", lambda sched, steps: sched)
                return generate(model, image, RngStream(s, ("sample",)), tau=0.0, **kw)

        h = hashlib.sha256()
        for s in (11, 12):
            image, _ = bench.gen_scene(cfg.scene_spec(s))
            trace = generate(model, image, RngStream(s, ("sample",)), tau=0.0)
            reference = full_chain(image, s)
            for a, b in zip(trace.latents, reference.latents):
                assert np.array_equal(a, b)
                h.update(np.ascontiguousarray(a).tobytes())
            # the float64 full-row MLP: trained weights predict noise of unit
            # size, so the bounds of EPS32 are scaled by 16 (measured: 2.4 and
            # 5.6 EPS32)
            full_row = TestGenerateHoistedCondition._full_concat(model)
            assert_f32_close(trace, full_chain(image, s, predictor=full_row),
                             16 * LATENT_TOL, 16 * DEPTH_RTOL)
        assert h.hexdigest() == self.FULL_CHAIN_SHA256

    def test_quality_floor(self):
        # no benchmark metric sees quality: these bounds keep the step count
        # honest
        from fractaldepth import bench
        model = _reference_model()
        cfg = bench.RunConfig()
        mean, _ = bench.run_eval(cfg, model, None, 16)
        assert mean.rmse <= 1.02 * self.FULL_CHAIN_RMSE
        ((_, fused, _),) = bench.run_multisample(cfg, model, [8], None, 4)
        assert fused.rmse <= self.FULL_CHAIN_FUSED_RMSE


class TestStepBudget:
    """Each level's reverse chain runs its own budget: COARSE_STEPS above the
    finest level, SAMPLE_STEPS at it, each capped at T."""

    @pytest.mark.parametrize("layout, T", [("desk", 60), ("small", 10), ("two_level", 60),
                                           ("two_level", 5)])
    def test_predictor_sees_each_levels_steps(self, layout, T):
        cfg = {"desk": named_scale_config("desk"), "small": CFG,
               "two_level": ScaleConfig(levels=((4, 1), (8, 2)), d_min=0.1, d_max=10.0)}[layout]
        model = init_model(make_spec(cfg, T, (8,), feature_dim=4, time_dim=4, timestep_reuse=1),
                           seed=0)
        image, _ = bench.model_scene(model, 5)
        seen = []

        def oracle(level, z, t, cond):
            seen.append((level, t))
            return np.zeros_like(z)

        generate(model, image, RngStream(0, ("budget",)), tau=1.0, predictor=oracle)
        n = model.n_levels
        want = [min(8, T)] * (n - 1) + [min(15, T)]
        assert list(fractal_mod.sample_steps(model)) == want
        assert [level for level, _ in seen] == sorted(level for level, _ in seen)
        for level in range(n):
            ts = [t for l, t in seen if l == level]
            # one call per kept timestep, distinct, from T down to 1
            assert len(set(ts)) == len(ts) == want[level]
            assert ts == sorted(ts, reverse=True) and ts[0] == T and ts[-1] == 1


class TestFloat32Pyramid:
    """generate and training run the conv pyramid in float32, on the model's
    own float32 parameters; the float64 pyramid on those values widened is
    the reference."""

    # The float32 pyramid rounds each feature within a few EPS32 of the
    # largest one (test_vcfr.py bounds it; measured 2.2 on the reference
    # checkpoint and 6.0 on the seeded paper model).  The features reach the
    # MLP only through the projected condition, which the sampler already
    # rounds to float32, so the two runs differ by float32 rounding of their
    # noise predictions, a few EPS32 relative to those: the case the bounds at
    # the top of this file are derived for.  The random-init desk model
    # predicts noise below 0.05 and keeps LATENT_TOL and DEPTH_RTOL (measured
    # 0.01 and 0.02 EPS32); the trained reference predicts noise of unit size,
    # so its bounds are scaled by 16, as in TestRespacedReference (measured on
    # scenes 11..18: latents 8.3 and depths 16.0 EPS32).
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("name, scale", [("desk", 1), ("reference", 16)])
    def test_matches_float64_pyramid(self, monkeypatch, name, scale, tau):
        model = _reference_model() if name == "reference" else _batch_model("desk")
        extract = vcfr.extract_features
        conv64 = float64_copy(model.conv)
        dtypes = []

        def float64_pyramid(image, cfg, params):
            dtypes.append(params.w1.dtype)
            return extract(image, cfg, conv64)

        for s in (11, 12):
            image, _ = bench.gen_scene(bench.RunConfig().scene_spec(s))
            trace = generate(model, image, RngStream(s, ("sample",)), tau=tau)
            with monkeypatch.context() as m:
                m.setattr(vcfr, "extract_features", float64_pyramid)
                reference = generate(model, image, RngStream(s, ("sample",)), tau=tau)
            assert_f32_close(trace, reference, scale * LATENT_TOL, scale * DEPTH_RTOL)
        # generate handed the pyramid the model's float32 parameters
        assert dtypes == [np.float32, np.float32]
        assert all(p.dtype == np.float32 for p in model.conv.named().values())

    def test_training_sees_generation_features(self, monkeypatch):
        # both run the pyramid on the model's float32 parameters, so they
        # see the same feature bytes; the weight gradients reach AdamW in
        # float32, and the gate and conv bias sums over pixels in float64
        model = _batch_model("desk")
        extract = vcfr.extract_features
        seen = []

        def recorded(image, cfg, params, *ws):
            feats, cache = extract(image, cfg, params, *ws)
            seen.append((params.w1.dtype, b"".join(f.tobytes() for f in feats)))
            return feats, cache

        image, gt = bench.gen_scene(bench.RunConfig().scene_spec(3))
        monkeypatch.setattr(vcfr, "extract_features", recorded)
        generate(model, image, RngStream(3, ("sample",)), tau=0.0)
        _, grads = fractal_mod.loss_and_grads(model, image, gt, RngStream(3, ("train",)))
        assert seen[0] == seen[1] and seen[0][0] == np.float32
        sums = {"gate_w", "gate_b", "conv.b1", "conv.b2"}
        assert {k: g.dtype for k, g in grads.items()} == {
            k: np.float64 if k in sums else np.float32 for k in grads}
        assert all(p.dtype == np.float32 for p in model.conv.named().values())


class TestBatchedGenerate:
    """N generations of one image as one batch: sample k equals a single
    run on stream k."""

    @given(st.sampled_from(["desk", "two_level"]), st.integers(1, 4),
           st.sampled_from([0.0, 1.0]), st.integers(0, 1000))
    @settings(max_examples=16, deadline=None)
    def test_sample_k_matches_single_run(self, name, n, tau, seed):
        model = _batch_model(name)
        res = model.cfg.final_resolution
        image = np.random.default_rng(seed).uniform(0, 1, (res, res, 3))
        streams = [RngStream(seed, ("b",)).child("sample", k) for k in range(n)]
        batch = generate(model, image, streams, tau=tau)
        assert isinstance(batch, list) and len(batch) == n
        # a single run's float32 products have fewer rows than the batch's,
        # and sgemm may round a row differently at another row count
        for stream, trace in zip(streams, batch):
            assert_f32_close(generate(model, image, stream, tau=tau), trace)

    def test_oracle_predictor_sees_stacked_batch(self):
        model = small_model(T=100)
        image, gt = scene(11)
        targets = encode_targets(DepthMap(values=gt.values), model)
        from fractaldepth.core import split_patches
        n = 3
        token_targets = [split_patches(targets[level], lv.patch_size)
                         .reshape(lv.token_count, lv.token_dim)
                         for level, lv in enumerate(model.cfg.levels)]
        seen = []

        def oracle(level, z, t, cond):
            seen.append((level, z.shape, cond.shape))
            target = np.tile(token_targets[level], (z.shape[0] // len(token_targets[level]), 1))
            ab = model.sched.abar(t)
            return (z - np.sqrt(ab) * target) / np.sqrt(1 - ab)

        streams = [RngStream(6, ("o",)).child("sample", k) for k in range(n)]
        batch = generate(model, image, streams, tau=1.0, predictor=oracle)
        for level, z_shape, cond_shape in seen:
            lv = model.cfg.levels[level]
            assert z_shape == (n * lv.token_count, lv.token_dim)
            # pooled features, guidance token and, at the finest level, the
            # center patch and its 4-neighborhood context
            cond_dim = model.spec.feature_dim + 1 + 5 * lv.token_dim * (level == model.n_levels - 1)
            assert cond_shape == (n * lv.token_count, cond_dim)
        # one call per kept step of each level's respaced chain: 8 + 8 + 15
        assert len(seen) == sum(fractal_mod.sample_steps(model)) == 31
        for stream, trace in zip(streams, batch):
            alone = generate(model, image, stream, tau=1.0, predictor=oracle)
            for a, b in zip(alone.latents, trace.latents):
                assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(trace.final.values - gt.values)) <= 1e-6

    def test_empty_stream_list(self):
        model = small_model()
        image, _ = scene(1)
        with pytest.raises(InputError):
            generate(model, image, [], tau=0.0)


class TestNonFiniteImage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        model = small_model()
        image, _ = scene(16)
        image[3, 5, 1] = bad
        with pytest.raises(InputError):
            generate(model, image, RngStream(0, ("n",)), tau=0.0)
        with pytest.raises(InputError):
            generate(model, image, [RngStream(0, ("n",)), RngStream(1, ("n",))], tau=1.0)


class TestFloat32OverflowImage:
    """The pyramid casts the image to float32: a finite pixel beyond float32's
    range would become inf, and the depth NaN."""

    @pytest.mark.parametrize("bad", [3.5e38, -1e300])
    def test_rejected_before_first_chain(self, bad):
        model = small_model()
        image, _ = scene(16)
        image[3, 5, 1] = bad
        calls = []

        def predictor(level, z, t, cond):
            calls.append(t)
            return np.zeros_like(z)

        with pytest.raises(InputError, match="float32"):
            generate(model, image, RngStream(0, ("n",)), tau=0.0, predictor=predictor)
        with pytest.raises(InputError, match="float32"):
            generate(model, image, [RngStream(0, ("n",)), RngStream(1, ("n",))], tau=1.0,
                     predictor=predictor)
        assert calls == []


class TestLargeFinitePixel:
    """A pixel of 1e6 fits float32 and passes generate's check.  On the desk
    reference it drives the fusion gate's exp past float64's range; the gate
    takes its limit 0 with no warning, and every depth stays finite."""

    def test_depth_finite_without_warning(self):
        model = _reference_model()
        image, _ = bench.gen_scene(bench.SceneSpec(seed=3,
                                                   resolution=model.cfg.final_resolution))
        image[5, 7, 1] = 1e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = [generate(model, image, RngStream(0, ("big",)), tau=0.0),
                      *generate(model, image, [RngStream(0, ("big",)), RngStream(1, ("big",))],
                                tau=1.0)]
        for trace in traces:
            assert np.all(np.isfinite(trace.final.values))


class TestHugeTau:
    """A huge finite tau overflows the reverse chain (in float32 first, where
    the MLP casts the chain state): generate raises NumericsError naming the
    level, with no warning and before any decode."""

    @pytest.mark.parametrize("tau", [1e200, 1e300])
    def test_rejected_before_decode(self, monkeypatch, tau):
        model = small_model()
        image, _ = scene(16)
        decoded = []
        monkeypatch.setattr(fractal_mod, "decode_level_depth", lambda *a: decoded.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="level 0: non-finite"):
                generate(model, image, RngStream(0, ("n",)), tau=tau)
            with pytest.raises(NumericsError, match="level 0: non-finite"):
                generate(model, image, [RngStream(0, ("n",)), RngStream(1, ("n",))], tau=tau)
        assert decoded == []

    def test_large_tau_stays_finite(self):
        # tau = 1e20 scales the noise far past any depth, but no float32 cast
        # overflows: the latents stay finite and the depths clamp
        model = _reference_model()
        image, _ = bench.model_scene(model, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = generate(model, image, RngStream(0, ("sample",)), tau=1e20)
        assert np.all(np.isfinite(trace.final.values))


class TestNonFiniteTau:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_rejected_before_first_step(self, tau):
        model = small_model()
        image, _ = scene(16)
        calls = []

        def predictor(level, z, t, cond):
            calls.append(t)
            return np.zeros_like(z)

        with pytest.raises(InputError, match="tau"):
            generate(model, image, RngStream(0, ("n",)), tau=tau, predictor=predictor)
        assert calls == []


class TestDecodeLevelDepth:
    def test_finest_is_pure_denormalize(self):
        model = small_model()
        latent = np.random.default_rng(0).uniform(-1, 1, (8, 8))
        from fractaldepth.core import denormalize
        out = decode_level_depth(latent, model)
        assert np.array_equal(out.values, denormalize(latent, CFG).values)

    def test_constant_latent(self):
        model = small_model()
        out = decode_level_depth(np.zeros((4, 4)), model)
        assert np.allclose(out.values, np.sqrt(0.1 * 10.0))

    def test_compose_oracle(self):
        model = small_model()
        latent = np.random.default_rng(1).uniform(-1, 1, (4, 4))
        out = decode_level_depth(latent, model)
        up = upsample_bilinear(latent, 8)
        span = np.log(10.0) - np.log(0.1)
        expect = np.exp(np.log(0.1) + (up + 1) / 2 * span)
        assert np.max(np.abs(out.values - expect)) <= 1e-12


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        model = small_model(seed=9)
        image, gt = scene(14)
        train_step(model, image, gt, RngStream(9, ("p",)), lr=1e-3, weight_decay=0.05)
        path = tmp_path / "m.fadn"
        save_model(path, model)
        # the meta is the spec, and the spec survives the round trip
        assert load_checkpoint(path)[1] == json.loads(json.dumps(asdict(model.spec)))
        loaded = load_model(path)
        assert loaded.spec == model.spec
        for (k, a), (k2, b) in zip(sorted(model.named_params().items()),
                                   sorted(loaded.named_params().items())):
            assert k == k2 and np.array_equal(a, b)
        a = generate(model, image, RngStream(10, ("q",)), tau=0.0)
        b = generate(loaded, image, RngStream(10, ("q",)), tau=0.0)
        assert np.array_equal(a.final.values, b.final.values)

    def test_load_draws_no_init(self, tmp_path, monkeypatch):
        # the checkpoint fills every parameter, so no random init is drawn
        path = tmp_path / "m.fadn"
        save_model(path, small_model(seed=3))

        def no_draw(self, *ids):
            raise AssertionError(f"load_model drew from RngStream path {self.prefix + ids}")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        loaded = load_model(path)
        monkeypatch.undo()
        again = tmp_path / "again.fadn"
        save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_reference_checkpoint_loads(self):
        model = load_model(REFERENCE)
        assert model.cfg == named_scale_config("desk")

    def test_reference_loads_per_level(self):
        # its meta predates shared_unit: one MLP per level, as it was trained
        model = _reference_model()
        assert "shared_unit" not in load_checkpoint(REFERENCE)[1]
        assert model.spec.shared_unit is False
        assert len({id(m) for m in model.mlps}) == 4
        assert [name for name, _, _ in model.units()] == ["mlp0", "mlp1", "mlp2", "mlp3"]

    def test_shared_unit_round_trip(self, tmp_path):
        # one unit object for levels 0-2 after the load, filled once from
        # the file: the reloaded model generates the in-memory one's bytes
        model = bench.build_model(bench.RunConfig())
        image, gt = bench.model_scene(model, 3)
        train_step(model, image, gt, RngStream(9, ("p",)), lr=1e-3, weight_decay=0.05)
        path = tmp_path / "m.fadn"
        save_model(path, model)
        names = list(load_checkpoint(path)[0])
        assert names.count("unit.w0") == 1
        assert not any(n.startswith(("mlp0.", "mlp1.", "mlp2.")) for n in names)
        loaded = load_model(path)
        assert loaded.spec.shared_unit is True
        assert loaded.mlps[0] is loaded.mlps[1] is loaded.mlps[2] is not loaded.mlps[3]
        a = generate(model, image, RngStream(10, ("q",)), tau=0.0)
        b = generate(loaded, image, RngStream(10, ("q",)), tau=0.0)
        for x, y in zip(a.latents + [a.final.values], b.latents + [b.final.values]):
            assert x.tobytes() == y.tobytes()
        # float32 widens to the file's float64 exactly, so the loaded model
        # writes the file it was read from
        again = tmp_path / "again.fadn"
        save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_load_holds_one_copy(self):
        # the tensors stream into the model's own arrays: the peak is those
        # arrays plus bookkeeping, well below the largest tensor again
        nbytes = [p.nbytes for p in _reference_model().named_params().values()]
        tracemalloc.start()
        try:
            load_model(REFERENCE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(nbytes) <= peak <= sum(nbytes) + max(nbytes) // 2, (peak, sum(nbytes))

    def test_meta_without_level_index(self, tmp_path):
        # the key is no longer written; checkpoints that carry it still load
        path = tmp_path / "m.fadn"
        save_model(path, small_model())
        assert "level_index" not in load_checkpoint(path)[1]
        assert "level_index" in load_checkpoint(REFERENCE)[1]
        self._rewrite(path, lambda p, m: m.update({"level_index": [0, 1, 2]}))
        load_model(path)

    @pytest.mark.parametrize("cut", [7, 100, -1000])
    def test_truncated_rejected(self, tmp_path, cut):
        path = tmp_path / "m.fadn"
        save_model(path, small_model())
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ConfigError, match="m.fadn"):
            load_model(path)

    @staticmethod
    def _rewrite(path, edit):
        """Save a small model, then re-save its tensors and meta after edit()."""
        save_model(path, small_model())
        params, meta = load_checkpoint(path)
        edit(params, meta)
        save_checkpoint(path, params, meta)

    @pytest.mark.parametrize("edit", [
        lambda p, m: p.update({"gate_w": np.ones(1)}),               # would broadcast
        lambda p, m: p.update({"unit.w0": p["unit.w0"].T.copy()}),   # transposed
        lambda p, m: p.pop("gate_b"),
        lambda p, m: p.update({"extra": np.zeros(2)}),
        lambda p, m: m.pop("T"),
        lambda p, m: m.update({"levels": [[4, 1], [1, 1]]}),
        lambda p, m: m.update({"hidden": 16}),
        lambda p, m: m.update({"shared_unit": 1}),
        lambda p, m: m.update({"shared_unit": False}),       # tensors of the shared layout
        # int() would read these as 8 and 2, and the tensors agree with that
        lambda p, m: m.update({"levels": [[1, 1], [4, 1], [8.7, 2]]}),
        lambda p, m: m.update({"timestep_reuse": 2.5}),
    ], ids=["broadcast", "transposed", "missing", "extra", "no_T", "bad_levels",
            "bad_hidden", "shared_not_bool", "per_level_meta", "float_level", "float_reuse"])
    def test_mismatched_checkpoint_rejected(self, tmp_path, edit):
        path = tmp_path / "m.fadn"
        self._rewrite(path, edit)
        with pytest.raises(ConfigError, match="m.fadn"):
            load_model(path)

    def test_zero_width_rejected(self, tmp_path):
        # tensors that agree with the zero-width meta, so only the layer-size
        # check can reject it (not a ZeroDivisionError: nothing is initialised)
        def zero_width(p, m):
            m["hidden"] = [0, 0]
            for u in ("unit", "mlp2"):
                p[f"{u}.w0"] = np.zeros((p[f"{u}.w0"].shape[0], 0))
                p[f"{u}.w1"] = np.zeros((0, 0))
                p[f"{u}.w2"] = np.zeros((0, p[f"{u}.w2"].shape[1]))
                p[f"{u}.b0"] = p[f"{u}.b1"] = np.zeros(0)

        path = tmp_path / "m.fadn"
        self._rewrite(path, zero_width)
        with pytest.raises(ConfigError, match="m.fadn.*layer sizes"):
            load_model(path)

    def test_odd_time_dim_rejected(self, tmp_path):
        # tensors that agree with time_dim = 3 (one embedding row fewer in
        # each w0), so only the time_dim check can reject it
        def odd_time_dim(p, m):
            m["time_dim"] = 3
            for u in ("unit", "mlp2"):
                p[f"{u}.w0"] = p[f"{u}.w0"][1:].copy()

        path = tmp_path / "m.fadn"
        self._rewrite(path, odd_time_dim)
        with pytest.raises(ConfigError, match="m.fadn.*time_dim even"):
            load_model(path)

    @pytest.mark.parametrize("width, match", [
        (4096, r"m\.fadn: tensor 'unit\.w0' has shape"),
        (1_000_000, r"m\.fadn: .*MAX_PARAMS")], ids=["4096", "1000000"])
    def test_oversized_meta_rejected_before_allocating(self, tmp_path, width, match):
        # the small model's tensors under a meta of far wider layers: the
        # shapes are compared before any parameter exists (the 4096-wide
        # hidden layer alone is 64 MB); at 10**6 (a 3.6 TiB unit) the spec's
        # parameter bound rejects the meta before that
        path = tmp_path / "m.fadn"
        self._rewrite(path, lambda p, m: m.update({"hidden": [width, width]}))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=match):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    # SHA-256 of the reference checkpoint re-saved by save_model: its
    # tensors as the float32 parameters hold them (each stored float64 value
    # rounded to float32, then widened exactly; re-recorded from 8d094bff...
    # when the parameters became float32), and its meta without the
    # level_index key it was written with and with "shared_unit": false,
    # the default its meta lacked
    RESAVED_SHA256 = "aba7c5f8b5bd4cdf2abc39faccff48837e3262ae146f63a2c04f449ed18ed19c"

    def test_reference_resaves_unchanged(self, tmp_path):
        path = tmp_path / "ref.fadn"
        save_model(path, load_model(REFERENCE))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.RESAVED_SHA256

    def test_reference_loads_rounded_to_float32(self):
        stored = load_checkpoint(REFERENCE)[0]
        loaded = load_model(REFERENCE).named_params()
        assert stored.keys() == loaded.keys()
        for name, value in stored.items():
            assert value.dtype == np.float64
            assert loaded[name].tobytes() == value.astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39],
                             ids=["nan", "inf", "-inf", "1e39", "-1e39"])
    def test_unusable_tensor_rejected(self, tmp_path, value):
        # the sampler runs every MLP and the pyramid in float32, where a
        # finite 1e39 is inf
        def poison(p, m):
            p["mlp2.w1"][3, 5] = value

        path = tmp_path / "m.fadn"
        self._rewrite(path, poison)
        with pytest.raises(ConfigError, match=r"m\.fadn: tensor 'mlp2\.w1'"):
            load_model(path)

    def test_trace_dump(self, tmp_path):
        model = small_model()
        image, _ = scene(15)
        trace = generate(model, image, RngStream(11, ("t",)), tau=0.0)
        out = tmp_path / "run"
        save_trace(trace, out, {"seed": 11, "tau": 0.0, "config": "test"})
        assert (out / "depth.pfm").exists() and (out / "depth.pgm").exists()
        assert (out / "latent_level0.pfm").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "seed=11" in manifest and "tau=0.0" in manifest


class TestTrainWorkspace:
    """train_step's large arrays live in the model's workspace, reused from
    step to step; it is scratch, not model state."""

    @staticmethod
    def _desk():
        return bench.build_model(bench.RunConfig())

    @staticmethod
    def _steps(model, steps, empty_first=False):
        losses = []
        for i in steps:
            if empty_first:
                model.workspace = Workspace()
            image, gt = bench.gen_scene(bench.RunConfig().scene_spec(i))
            losses.append(train_step(model, image, gt, RngStream(9, ("ws",)).child(i), lr=2e-3,
                                     weight_decay=0.05))
        return losses

    def test_warm_step_allocates_little(self):
        # the peak of new allocations in a warm desk step: 7.83 MiB when every
        # step made its own arrays, 0.96 MiB (numpy 2.4) with the workspace,
        # whose arrays under 128 KiB are still made anew
        model = self._desk()
        self._steps(model, range(2))
        tracemalloc.start()
        try:
            self._steps(model, [2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20, peak / 2 ** 20

    def test_warm_equals_emptied(self):
        # the same bytes whether each step meets the regions of the last or
        # new ones
        warm, emptied = self._desk(), self._desk()
        assert self._steps(warm, range(3)) == self._steps(emptied, range(3), empty_first=True)
        a, b = warm.named_params(), emptied.named_params()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name
            assert warm.opt_state.m[name].tobytes() == emptied.opt_state.m[name].tobytes(), name
            assert warm.opt_state.v[name].tobytes() == emptied.opt_state.v[name].tobytes(), name

    @pytest.mark.parametrize("feature_dim", [4, 16])
    def test_paper_layout_equals_no_workspace(self, feature_dim):
        # at final resolution 256 every conv array is pooled; with 4
        # features layer 2's sigmoid is exactly one chunk, the size of the
        # one layer 1's padded input, which the backward reads, is laid in
        cfg = bench.RunConfig(scale_config="paper", hidden_width=16, hidden_depth=1,
                              feature_dim=feature_dim, timestep_reuse=1)
        model = bench.build_model(cfg)
        image, gt = bench.gen_scene(cfg.scene_spec(0))
        ws = Workspace()
        with ws.scope():
            pooled = fractal_mod.loss_and_grads(model, image, gt, RngStream(4, ("p",)), ws)
            plain = fractal_mod.loss_and_grads(model, image, gt, RngStream(4, ("p",)))
            assert pooled[0] == plain[0]
            assert pooled[1].keys() == plain[1].keys()
            for name, g in plain[1].items():
                assert np.asarray(pooled[1][name]).tobytes() == np.asarray(g).tobytes(), name

    def test_not_model_state(self, tmp_path):
        # trained through the workspace or through loss_and_grads and
        # adamw_step without one (which allocate as they did before it), a
        # model has the same parameters and writes the same checkpoint
        model, plain = self._desk(), self._desk()
        self._steps(model, range(2))
        assert model.workspace.nbytes > 0
        for i in range(2):
            image, gt = bench.gen_scene(bench.RunConfig().scene_spec(i))
            _, grads = fractal_mod.loss_and_grads(plain, image, gt,
                                                  RngStream(9, ("ws",)).child(i))
            adamw_step(plain.named_params(), grads, plain.opt_state, 2e-3, 0.05)
        assert model.named_params().keys() == plain.named_params().keys()
        save_model(tmp_path / "a.fadn", model)
        save_model(tmp_path / "b.fadn", plain)
        assert (tmp_path / "a.fadn").read_bytes() == (tmp_path / "b.fadn").read_bytes()
        # a copy (the benchmark's snapshot) starts with an empty workspace,
        # and generation neither reads nor fills it
        copied = copy.deepcopy(model)
        assert copied.workspace.nbytes == 0
        image, _ = bench.gen_scene(bench.RunConfig().scene_spec(7))
        traces = [generate(m, image, RngStream(3, ("g",)), tau=1.0) for m in (model, copied)]
        assert [l.tobytes() for l in traces[0].latents] == [l.tobytes() for l in traces[1].latents]
        assert copied.workspace.nbytes == 0
