import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractaldepth.fractal as fractal_mod
from fractaldepth import bench, vcfr
from fractaldepth.core import (DepthMap, ScaleConfig, downsample_mean, log_normalize,
                               named_scale_config, split_patches, upsample_bilinear)
from fractaldepth.diffusion import forward_noise, make_linear_schedule
from fractaldepth.errors import ConfigError, InputError, ShapeError
from fractaldepth.fractal import (decode_level_depth, encode_targets, generate, init_model,
                                  load_model, save_model, save_trace, train_step)
from fractaldepth.nnet import (adamw_step, load_checkpoint, mlp_backward, mlp_forward,
                               save_checkpoint, time_embed)
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


def small_model(seed=0, T=10, hidden=(16, 16)):
    return init_model(CFG, seed=seed, sched=make_linear_schedule(T), hidden=hidden,
                      feature_dim=4, time_dim=4, timestep_reuse=2)


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
        losses = train_step(model, image, gt, RngStream(0, ("s",)), lr=1e-3)
        assert len(losses) == 3
        assert all(np.isfinite(l) and l >= 0 for l in losses)

    def test_fixed_seed_bit_identical(self):
        image, gt = scene(4)
        runs = []
        for _ in range(2):
            model = small_model(seed=5)
            runs.append(train_step(model, image, gt, RngStream(1, ("s",)), lr=1e-3))
        assert runs[0] == runs[1]

    def test_initial_loss_near_unit_variance(self):
        model = small_model(seed=6, T=50)
        rng = RngStream(2, ("loss",))
        total = []
        for step in range(100):
            image, gt = scene(100 + step)
            # lr=0 keeps parameters at initialization
            total.append(np.mean(train_step(model, image, gt, rng.child(step), lr=0.0)))
        assert np.mean(total) == pytest.approx(1.0, abs=0.2)

    def test_loss_decreases_with_training(self):
        model = small_model(seed=7, T=20)
        image, gt = scene(8)
        rng = RngStream(3, ("t",))
        first = np.mean(train_step(model, image, gt, rng.child(0), lr=3e-3))
        for step in range(1, 60):
            last = np.mean(train_step(model, image, gt, rng.child(step), lr=3e-3))
        assert last < first


def _per_draw_step(model, image, gt, rng, lr, weight_decay=0.05):
    """The training step as a loop over levels and draws, one forward and
    backward of the full [z_t, time, cond] rows per draw: the reference for
    the stacked pass of ``train_step``."""
    targets = encode_targets(gt, model)
    feats, feat_cache = vcfr.extract_features(image, model.cfg, model.conv)
    grads = {name: np.zeros_like(p) for name, p in model.named_params().items()}
    feat_grads = []
    losses = []
    R = model.timestep_reuse
    for level, lv in enumerate(model.plan.levels):
        state = fractal_mod._level_state(model, level, targets[level - 1] if level else None)
        cond, fuse_cache = fractal_mod._build_condition(model, feats, state, level)
        z_star = split_patches(targets[level], lv.patch_size).reshape(lv.token_count, -1)
        level_loss = 0.0
        dcond = np.zeros_like(cond)
        for r in range(R):
            t = int(rng.integers(1, model.sched.T + 1, "t", level, r))
            eps = rng.normal(z_star.shape, "eps", level, r)
            z_t = forward_noise(z_star, t, eps, model.sched)
            emb = np.broadcast_to(time_embed(float(t), model.time_dim),
                                  (lv.token_count, model.time_dim))
            y, cache = mlp_forward(model.mlps[level], np.concatenate([z_t, emb, cond], axis=1))
            diff = y - eps
            level_loss += float(np.mean(diff * diff)) / R
            g = mlp_backward(model.mlps[level], cache, 2.0 * diff / (diff.size * R))
            for name, gv in g.named(f"mlp{level}").items():
                grads[name] += gv
            dcond += g.pre0 @ model.mlps[level].weights[0][lv.token_dim + model.time_dim:].T
        losses.append(level_loss)
        df, dw, db = vcfr.refine_condition_backward(dcond[:, :model.feature_dim], fuse_cache)
        grads["gate_w"][level] += dw
        grads["gate_b"][level] += db
        feat_grads.append(df)
    for name, gv in vcfr.extract_features_backward(feat_grads, model.cfg, model.conv,
                                                   feat_cache).items():
        grads[name] += gv
    adamw_step(model.named_params(), grads, model.opt_state, lr, weight_decay=weight_decay)
    return losses


class TestStackedTrainStep:
    """train_step stacks a level's R draws into row blocks and projects the
    condition once; only the order of its sums differs from the per-draw
    loop."""

    @staticmethod
    def _model(name, R, seed=4):
        if name == "desk":
            return init_model(named_scale_config("desk"), seed=seed,
                              sched=make_linear_schedule(60), timestep_reuse=R)
        cfg = ScaleConfig(levels=((2, 1), (8, 2)), d_min=0.1, d_max=10.0)
        return init_model(cfg, seed=seed, sched=make_linear_schedule(30), hidden=(24, 24),
                          feature_dim=4, time_dim=6, timestep_reuse=R)

    @pytest.mark.parametrize("R", [1, 2, 4])
    @pytest.mark.parametrize("name", ["two_level", "desk"])
    def test_matches_per_draw_loop(self, name, R):
        stacked, reference = self._model(name, R), self._model(name, R)
        res = stacked.cfg.final_resolution
        rng = RngStream(9, ("stack",))
        for step in range(3):
            image, gt = bench.gen_scene(bench.SceneSpec(seed=step, resolution=res))
            a = train_step(stacked, image, gt, rng.child(step), lr=2e-3)
            b = _per_draw_step(reference, image, gt, rng.child(step), lr=2e-3)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        # relative in each tensor's norm: AdamW divides every entry by its own
        # gradient's size, so an entry whose gradient is near 0 carries the
        # rounding of its sum into the parameter unscaled (measured: <= 1.5e-13
        # in norm, up to 3e-9 in a single entry)
        ref = reference.named_params()
        for key, p in stacked.named_params().items():
            assert np.linalg.norm(p - ref[key]) <= 1e-12 * np.linalg.norm(ref[key]), key

    def test_no_draws_rejected(self):
        with pytest.raises(ConfigError, match="timestep_reuse"):
            self._model("two_level", 0)

    def test_finite_difference(self):
        model = self._model("two_level", 2, seed=5)
        # a few steps away from the initialisation, so no gradient is trivial
        for step in range(3):
            train_step(model, *scene(20 + step), RngStream(2, ("fd", step)), lr=3e-3)
        image, gt = scene(30)
        rng = RngStream(3, ("fd",))          # the same draws on every call
        _, grads = fractal_mod.loss_and_grads(model, image, gt, rng)
        f, td = model.feature_dim, model.time_dim
        entries = [("gate_w", (1,)), ("gate_b", (0,)), ("gate_b", (1,)),
                   ("conv.w1", (1, 2, 0, 3)), ("conv.w1", (0, 0, 2, 1))]
        for level, lv in enumerate(model.plan.levels):
            d = lv.token_dim
            # token, time, pooled-feature, guidance and (finest) context rows
            rows = [0, d, d + td, d + td + f - 1, d + td + f]
            if level == model.n_levels - 1:
                rows.append(model.mlps[level].weights[0].shape[0] - 1)
            entries += [(f"mlp{level}.w0", (r, 3)) for r in rows]
            entries += [(f"mlp{level}.b0", (5,)), (f"mlp{level}.w1", (2, 7))]
        params = model.named_params()
        h = 1e-6
        for name, idx in entries:
            p = params[name]
            orig = p[idx]
            p[idx] = orig + h
            up = sum(fractal_mod.loss_and_grads(model, image, gt, rng)[0])
            p[idx] = orig - h
            down = sum(fractal_mod.loss_and_grads(model, image, gt, rng)[0])
            p[idx] = orig
            numeric = (up - down) / (2 * h)
            assert numeric == pytest.approx(grads[name][idx], rel=1e-5, abs=1e-9), (name, idx)


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
        assert all(w.dtype == np.float64 for m in model.mlps for w in m.weights)

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
        for level, lv in enumerate(model.plan.levels):
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
        assert tuple(seen[i] for i in range(3)) == model.plan.token_counts


class TestGenerateHoistedCondition:
    """generate projects each level's condition once per chain and runs the
    MLP in float32; a float64 predictor that feeds the full [z, time, cond]
    row to the MLP at every step is the reference."""

    @staticmethod
    def _full_concat(model):
        def predict(level, z, t, cond):
            emb = np.broadcast_to(time_embed(float(t), model.time_dim), (z.shape[0], model.time_dim))
            return mlp_forward(model.mlps[level], np.concatenate([z, emb, cond], axis=1))[0]
        return predict

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("levels", [((2, 1), (8, 2)), None], ids=["two_level", "desk"])
    def test_matches_full_concat(self, levels, tau):
        if levels is None:
            cfg = named_scale_config("desk")
            model = init_model(cfg, seed=3, sched=make_linear_schedule(60))
        else:
            cfg = ScaleConfig(levels=levels, d_min=0.1, d_max=10.0)
            model = init_model(cfg, seed=3, sched=make_linear_schedule(30), hidden=(32, 32),
                               feature_dim=4, time_dim=6)
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
        return init_model(named_scale_config("desk"), seed=2, sched=make_linear_schedule(8),
                          hidden=(32, 32), feature_dim=4, time_dim=4)
    cfg = ScaleConfig(levels=((3, 1), (12, 1)), d_min=0.1, d_max=10.0)
    return init_model(cfg, seed=2, sched=make_linear_schedule(8), hidden=(24, 24),
                      feature_dim=4, time_dim=6)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "desk_seed0.fadn"


@functools.lru_cache(maxsize=None)
def _reference_model():
    return load_model(REFERENCE)


class TestRespacedReference:
    """The respaced chain on the stored desk checkpoint."""

    # SHA-256 of the tau = 0 latents of scenes 11 and 12 from the chain that
    # runs every one of the 60 steps, recorded with the float32 sampler
    # (numpy 2.4.6, OpenBLAS 0.3.31; another BLAS build may round the
    # products differently)
    FULL_CHAIN_SHA256 = "92158ce9192a03599a8d50afd0d78c2dddc5540f68e7e656dc30e03e1d297951"
    # the full 60-step chain's mean RMSE at tau = 0 on scenes 2e7+0..15, and
    # its fused N = 8 RMSE on scenes 3e7+0..3 with sigma^2 = beta
    FULL_CHAIN_RMSE = 0.6923
    FULL_CHAIN_FUSED_RMSE = 1.3345624197417003

    def test_all_steps_reproduce_full_chain(self, monkeypatch):
        import hashlib
        from fractaldepth import bench
        model = _reference_model()
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
            # size, so the bounds of EPS32 are scaled by 16 (measured: 2.8 and
            # 6.5 EPS32)
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
        mean, _ = bench.run_eval(cfg, None, None, model=model)
        assert mean.rmse <= 1.02 * self.FULL_CHAIN_RMSE
        ((_, fused, _),) = bench.run_multisample(cfg, None, [8], None, n_scenes=4, model=model)
        assert fused.rmse <= self.FULL_CHAIN_FUSED_RMSE


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
                         for level, lv in enumerate(model.plan.levels)]
        seen = []

        def oracle(level, z, t, cond):
            seen.append((level, z.shape, cond.shape))
            target = np.tile(token_targets[level], (z.shape[0] // len(token_targets[level]), 1))
            ab = model.sched.abar(t)
            return (z - np.sqrt(ab) * target) / np.sqrt(1 - ab)

        streams = [RngStream(6, ("o",)).child("sample", k) for k in range(n)]
        batch = generate(model, image, streams, tau=1.0, predictor=oracle)
        for level, z_shape, cond_shape in seen:
            lv = model.plan.levels[level]
            assert z_shape == (n * lv.token_count, lv.token_dim)
            assert cond_shape == (n * lv.token_count, model.cond_dim(level))
        # one call per kept step of the respaced chain
        assert len(seen) == model.n_levels * min(fractal_mod.SAMPLE_STEPS, model.sched.T)
        for stream, trace in zip(streams, batch):
            alone = generate(model, image, stream, tau=1.0, predictor=oracle)
            for a, b in zip(alone.latents, trace.latents):
                assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(trace.final.values - gt.values)) <= 1e-6

    def test_empty_stream_list(self):
        model = small_model()
        image, _ = scene(1)
        with pytest.raises(InputError):
            generate(model, image, [])


class TestNonFiniteImage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        model = small_model()
        image, _ = scene(16)
        image[3, 5, 1] = bad
        with pytest.raises(InputError):
            generate(model, image, RngStream(0, ("n",)))
        with pytest.raises(InputError):
            generate(model, image, [RngStream(0, ("n",)), RngStream(1, ("n",))], tau=1.0)


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
        train_step(model, image, gt, RngStream(9, ("p",)), lr=1e-3)
        path = tmp_path / "m.fadn"
        save_model(path, model)
        loaded = load_model(path)
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
        lambda p, m: p.update({"mlp0.w0": p["mlp0.w0"].T.copy()}),   # transposed
        lambda p, m: p.pop("gate_b"),
        lambda p, m: p.update({"extra": np.zeros(2)}),
        lambda p, m: m.pop("T"),
        lambda p, m: m.update({"levels": [[4, 1], [1, 1]]}),
        lambda p, m: m.update({"hidden": 16}),
    ], ids=["broadcast", "transposed", "missing", "extra", "no_T", "bad_levels",
            "bad_hidden"])
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
            for i in range(len(CFG.levels)):
                p[f"mlp{i}.w0"] = np.zeros((p[f"mlp{i}.w0"].shape[0], 0))
                p[f"mlp{i}.w1"] = np.zeros((0, 0))
                p[f"mlp{i}.w2"] = np.zeros((0, p[f"mlp{i}.w2"].shape[1]))
                p[f"mlp{i}.b0"] = p[f"mlp{i}.b1"] = np.zeros(0)

        path = tmp_path / "m.fadn"
        self._rewrite(path, zero_width)
        with pytest.raises(ConfigError, match="m.fadn.*layer sizes"):
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
