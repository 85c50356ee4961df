import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth.core import (DepthMap, ScaleConfig, downsample_mean, log_normalize,
                               named_scale_config, upsample_bilinear)
from fractaldepth.diffusion import make_linear_schedule
from fractaldepth.errors import InputError, ShapeError
from fractaldepth.fractal import (_predict, decode_level_depth, encode_targets, generate,
                                  init_model, load_model, save_model, save_trace, train_step)
from fractaldepth.rng import RngStream

CFG = ScaleConfig(levels=((1, 1), (4, 1), (8, 2)), d_min=0.1, d_max=10.0)


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


class TestGenerate:
    def test_trace_structure(self):
        model = small_model()
        image, _ = scene(9)
        trace = generate(model, image, RngStream(4, ("g",)), tau=0.0)
        assert len(trace.latents) == 3 and len(trace.depths) == 3
        for latent, (res, _) in zip(trace.latents, CFG.levels):
            assert latent.shape == (res, res)
        for d in trace.depths:
            assert d.values.shape == (8, 8)
            assert d.values.min() >= CFG.d_min and d.values.max() <= CFG.d_max

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
    """generate projects each level's condition once per chain; a predictor
    that feeds the full [z, time, cond] row to the MLP at every step is the
    reference."""

    @staticmethod
    def _full_concat(model):
        return lambda level, z, t, cond: _predict(model, level, z, t, cond)[0]

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
        for x, y in zip(a.latents, b.latents):
            assert np.max(np.abs(x - y)) <= 1e-10
        assert np.max(np.abs(a.final.values - b.final.values)) <= 1e-10


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
        for stream, trace in zip(streams, batch):
            alone = generate(model, image, stream, tau=tau)
            for a, b in zip(alone.latents, trace.latents):
                assert np.max(np.abs(a - b)) <= 1e-12
            for a, b in zip(alone.depths, trace.depths):
                assert np.max(np.abs(a.values - b.values)) <= 1e-12

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
        assert len(seen) == model.n_levels * model.sched.T   # one call per step
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
