import functools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fractaldepth.bench import (RunConfig, SceneSpec, build_model, gen_scene,
                                load_run_config, metrics, multisample_scene, run_eval,
                                run_multisample, run_train)
from fractaldepth.core import DepthMap
from fractaldepth.errors import ConfigError, InputError, ShapeError
from fractaldepth.fractal import load_model
from fractaldepth.rng import RngStream
from fractaldepth.urca import URCAConfig


class TestGenScene:
    def test_deterministic(self):
        a_img, a_d = gen_scene(SceneSpec(seed=3))
        b_img, b_d = gen_scene(SceneSpec(seed=3))
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_d.values, b_d.values)

    def test_seed_changes_scene(self):
        a_img, _ = gen_scene(SceneSpec(seed=1))
        b_img, _ = gen_scene(SceneSpec(seed=2))
        assert not np.array_equal(a_img, b_img)

    def test_depth_range_and_shape(self):
        spec = SceneSpec(seed=0, resolution=32, depth_min=0.5, depth_max=8.0)
        image, d = gen_scene(spec)
        assert image.shape == (32, 32, 3) and d.values.shape == (32, 32)
        assert np.all(image >= 0) and np.all(image <= 1)
        assert d.values.min() >= 0.5 and d.values.max() <= 8.0

    def test_depth_range_many_seeds(self):
        spec = SceneSpec(resolution=16)
        for seed in range(200):
            _, d = gen_scene(SceneSpec(seed=seed, resolution=16))
            assert d.values.min() >= spec.depth_min - 1e-9
            assert d.values.max() <= spec.depth_max + 1e-9

    def test_zero_objects_smooth_ramp(self):
        # no occluders: depth is a planar ramp, so second differences along
        # both axes vanish
        spec = SceneSpec(seed=5, min_objects=0, max_objects=0, noise=0.0)
        _, d = gen_scene(spec)
        assert np.max(np.abs(np.diff(d.values, n=2, axis=0))) <= 1e-9
        assert np.max(np.abs(np.diff(d.values, n=2, axis=1))) <= 1e-9

    def test_objects_occlude(self):
        # objects only ever decrease depth relative to the object-free scene
        base = gen_scene(SceneSpec(seed=7, min_objects=0, max_objects=0, noise=0.0))[1]
        spec = SceneSpec(seed=7, min_objects=3, max_objects=3, noise=0.0)
        _, d = gen_scene(spec)
        # same seed draws the same background before the object loop
        assert np.all(d.values <= base.values + 1e-12)
        assert np.any(d.values < base.values - 1e-6)


class TestMetrics:
    def test_perfect_prediction(self):
        gt = DepthMap(values=np.random.default_rng(0).uniform(1, 5, (8, 8)))
        r = metrics(gt, gt)
        assert r.abs_rel == 0 and r.rmse == 0 and r.rmse_log == 0
        assert r.delta1 == 1 and r.delta2 == 1 and r.delta3 == 1

    def test_double_depth_oracle(self):
        g = np.random.default_rng(1).uniform(1, 4, (6, 6))
        r = metrics(DepthMap(values=2 * g), DepthMap(values=g))
        assert r.abs_rel == pytest.approx(1.0)
        assert r.sq_rel == pytest.approx(float(np.mean(g)))
        assert r.rmse == pytest.approx(float(np.sqrt(np.mean(g * g))))
        assert r.rmse_log == pytest.approx(np.log(2.0))
        # ratio 2 exceeds 1.25 and 1.25^2 but not 1.25^3 ~ 1.953... no: 2 > 1.953
        assert r.delta1 == 0 and r.delta2 == 0 and r.delta3 == 0

    def test_mild_ratio_within_delta1(self):
        g = np.random.default_rng(2).uniform(1, 4, (5, 5))
        r = metrics(DepthMap(values=1.2 * g), DepthMap(values=g))
        assert r.delta1 == 1

    def test_delta_monotone(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(1, 5, (10, 10))
        p = g * np.exp(rng.normal(0, 0.3, g.shape))
        r = metrics(DepthMap(values=p), DepthMap(values=g))
        assert r.delta1 <= r.delta2 <= r.delta3

    def test_mask_restricts(self):
        g = np.ones((4, 4))
        p = np.ones((4, 4))
        p[0, 0] = 100.0  # invalid pixel must be ignored
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        r = metrics(DepthMap(values=p, valid_mask=mask), DepthMap(values=g))
        assert r.abs_rel == 0 and r.delta1 == 1

    def test_empty_mask_rejected(self):
        z = np.zeros((3, 3), dtype=bool)
        with pytest.raises(InputError):
            metrics(DepthMap(values=np.ones((3, 3)), valid_mask=z),
                    DepthMap(values=np.ones((3, 3))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics(DepthMap(values=np.ones((3, 3))), DepthMap(values=np.ones((4, 4))))

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            metrics(DepthMap(values=np.zeros((2, 2))), DepthMap(values=np.ones((2, 2))))


# values that parse but that RunConfig rejects, by test id
_REJECTED = {
    "scale_config": ("scale_config", "nonsense"),
    "tau_inf": ("tau", math.inf),
    "multisample_tau_nan": ("multisample_tau", math.nan),
    "threshold_nan": ("uncertainty_threshold", math.nan),
    "threshold_inf": ("uncertainty_threshold", math.inf),
    "threshold_negative": ("uncertainty_threshold", -1.0),
    "val_scenes": ("val_scenes", 0),                # validation runs by default
    "hidden_depth": ("hidden_depth", -2),
    # a config that builds no model fails whichever command reads it
    "time_dim_odd": ("time_dim", 3),
    "feature_dim_zero": ("feature_dim", 0),
    "timestep_reuse_zero": ("timestep_reuse", 0),
    # a non-finite rate or decay writes NaN into every weight at the first step
    "base_lr_nan": ("base_lr", math.nan),
    "base_lr_negative": ("base_lr", -1.0),
    "final_lr_inf": ("final_lr", math.inf),
    "final_lr_negative": ("final_lr", -1e-5),
    "weight_decay_nan": ("weight_decay", math.nan),
    "weight_decay_negative": ("weight_decay", -0.05),
    # a run that trains nothing, or skips warm-up, fails before it writes
    "epochs_zero": ("epochs", 0),
    "epochs_negative": ("epochs", -1),
    "train_scenes_zero": ("train_scenes", 0),
    "warmup_epochs_negative": ("warmup_epochs", -1),
}


def _named(key):
    """A pattern for the key in an error message (the scale config's spells
    it with a space)."""
    return key.replace("_", "[_ ]")


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        cfg.scale()
        cfg.model_spec()

    def test_urca_and_scene_settings_are_their_own_defaults(self):
        # no URCA or scene setting is a run key: each is the default of
        # URCAConfig or SceneSpec
        assert len(fields(RunConfig)) == 21
        assert len(fields(URCAConfig)) == 6
        assert not any(f.name.startswith(("urca", "scene")) for f in fields(RunConfig))
        assert RunConfig().scene_spec(7) == SceneSpec(seed=7, resolution=64)
        assert RunConfig(scale_config="paper").scene_spec(7) == SceneSpec(seed=7, resolution=256)

    def test_load_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nseed = 7\nbase_lr = 0.001  # inline\ntimesteps=20\n\n")
        cfg = load_run_config(p)
        assert cfg.seed == 7 and cfg.base_lr == 0.001 and cfg.timesteps == 20
        assert cfg.scale_config == "desk"

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        # urca_gamma and urca_lambda were run keys; the gauge sum(alpha) = N
        # and a prior weight set by the map size replaced lambda
        for line in ("not_a_key = 3", "urca_gamma = 0.5", "urca_lambda = 1e5"):
            p.write_text(f"{line}\n")
            with pytest.raises(ConfigError, match="bad.cfg:1: unknown key"):
                load_run_config(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"seed = 5\n\xff\xfe = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg: not UTF-8 text \(byte 0xff\)"):
            load_run_config(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_run_config(p)

    @pytest.mark.parametrize("line, where", [
        # urca_lambda is no longer a key, so any value of it fails on its line
        ("urca_lambda = -1", "bad.cfg:2: unknown key"),
        ("urca_lambda = nan", "bad.cfg:2: unknown key"),
        ("epochs = 2.5", "bad.cfg:2: "),            # does not convert
        ("seed = x", "bad.cfg:2: "),
        # only a file can give a key twice; the last value must not win quietly
        ("tau = 0.5\ntau = 1", "bad.cfg:3: key 'tau' repeats line 2"),
    ] + [(f"{key} = {value}", f"bad.cfg: .*{_named(key)}") for key, value in _REJECTED.values()],
        ids=["urca_lambda", "urca_lambda_nan", "epochs", "seed", "tau_repeated", *_REJECTED])
    def test_invalid_values_caught_eagerly(self, tmp_path, line, where):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# comment\n{line}\n")
        with pytest.raises(ConfigError, match=where):
            load_run_config(p)

    @pytest.mark.parametrize("key, value", _REJECTED.values(), ids=_REJECTED)
    def test_invalid_values_rejected_by_constructor(self, key, value):
        # a CLI override goes through replace(), a Python caller through the
        # constructor: both meet the checks a file does
        with pytest.raises(ConfigError, match=_named(key)):
            RunConfig(**{key: value})
        with pytest.raises(ConfigError, match=_named(key)):
            replace(RunConfig(), **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("epochs", 1.5), ("epochs", True), ("seed", 2.0), ("timestep_reuse", False),
        ("tau", "0"), ("base_lr", True), ("scale_config", 3)],
        ids=["int_float", "int_bool", "seed_float", "int_false", "float_str", "float_bool",
             "str_int"])
    def test_wrong_type_rejected(self, key, value):
        # checked against each field's annotation before any value check,
        # so the error names the key, not a TypeError deeper down
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            RunConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            replace(RunConfig(), **{key: value})

    def test_float_fields_take_ints(self):
        cfg = RunConfig(tau=1, base_lr=0, uncertainty_threshold=2)
        assert (cfg.tau, cfg.base_lr, cfg.uncertainty_threshold) == (1.0, 0.0, 2.0)

    def test_no_val_scenes_without_validation(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("val_every = 0\nval_scenes = 0\n")
        assert load_run_config(p).val_scenes == 0

    @pytest.mark.parametrize("key", ["hidden_width", "feature_dim", "time_dim"])
    def test_zero_layer_size_rejected(self, key):
        with pytest.raises(ConfigError, match="layer sizes"):
            build_model(_tiny_cfg(**{key: 0}))

    def test_negative_hidden_depth_rejected(self):
        # (16,) * -2 is (), which would build one-layer linear MLPs
        with pytest.raises(ConfigError, match="hidden_depth"):
            build_model(_tiny_cfg(hidden_depth=-2))

    @pytest.mark.parametrize("time_dim", [1, 3])
    def test_odd_time_dim_rejected(self, time_dim):
        # rejected at build time, not at the first time_embed of a step
        with pytest.raises(ConfigError, match="time_dim even"):
            build_model(_tiny_cfg(time_dim=time_dim))


def _tiny_cfg(**kw):
    base = dict(train_scenes=4, epochs=1, val_every=0, val_scenes=1,
                timesteps=10, hidden_width=16, hidden_depth=2,
                feature_dim=4, time_dim=4, timestep_reuse=1)
    base.update(kw)
    return RunConfig(**base)


class TestRunners:
    def test_train_writes_artifacts(self, tmp_path):
        cfg = _tiny_cfg()
        ckpt = run_train(cfg, tmp_path)
        assert (tmp_path / "checkpoint.fadn").exists()
        assert (tmp_path / "loss_curve.csv").exists()
        lines = (tmp_path / "loss_curve.csv").read_text().strip().splitlines()
        assert lines[0].startswith("step,lr,loss_level0")
        assert len(lines) == 1 + 4  # header + one row per step

    def test_eval_csv(self, tmp_path):
        cfg = _tiny_cfg()
        ckpt = run_train(cfg, tmp_path / "train")
        out = tmp_path / "eval.csv"
        mean, reports = run_eval(cfg, load_model(ckpt), out, 2)
        assert len(reports) == 2
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 + 1  # header, scenes, mean row
        assert lines[-1].startswith("mean,")
        assert np.isfinite(mean.rmse)

    def test_multisample_prefix_property(self, monkeypatch):
        # sample k's RNG path is independent of N, so the samples of an N=1
        # or N=2 run are the first samples of the N=8 run
        import fractaldepth.bench as bench_mod
        from fractaldepth.fractal import SAMPLE_STEPS, sample_steps
        cfg = _tiny_cfg(timesteps=60)
        model = build_model(cfg)
        assert sample_steps(model) == SAMPLE_STEPS < model.sched.T   # respaced chains
        runs = {}
        generate = bench_mod.generate

        def recording(model, image, rngs, **kw):
            traces = generate(model, image, rngs, **kw)
            runs[len(traces)] = traces
            return traces

        monkeypatch.setattr(bench_mod, "generate", recording)
        for n in (1, 2, 8):
            out, _, _ = multisample_scene(model, cfg, 42, n, RngStream(0, ("m",)))
            assert out.alignment.alpha.shape == (n,)
        # the sampler's MLP runs in float32, and sgemm may round a row
        # differently in products of 1, 2 and 8 rows (here at level 0, whose
        # single token is one row per sample); the chain state is float64,
        # so sample k differs only by that rounding of its noise predictions:
        # a few float32 spacings EPS32 = 2**-23 relative to predictions below
        # 0.05 at this random init, summed with chain coefficients that add
        # up to about 1.  One EPS32 bounds the latents, and 2.3 EPS32 (the
        # slope ln(d_max / d_min) / 2 of depth in latent) the depths, relative
        eps32 = float(np.finfo(np.float32).eps)
        pairs = [(runs[2][0], runs[8][0]), (runs[2][1], runs[8][1]),
                 (runs[1][0], runs[2][0]), (runs[1][0], runs[8][0])]
        for a, b in pairs:
            for x, y in zip(a.latents, b.latents):
                assert np.max(np.abs(x - y)) <= eps32
            assert np.max(np.abs(a.final.values - b.final.values) / b.final.values) <= 2.3 * eps32

    def test_scenes_at_model_scale(self):
        # a paper-scale model under the desk run config: the scenes follow
        # the model's resolution, not cfg.scale_config
        cfg = _tiny_cfg()
        model = build_model(_tiny_cfg(scale_config="paper"))
        out, u_norm, gt = multisample_scene(model, cfg, 42, 2, RngStream(0, ("m",)))
        assert out.consensus.values.shape == u_norm.shape == gt.values.shape == (256, 256)
        mean, reports = run_eval(cfg, model, None, 1)
        assert len(reports) == 1 and np.isfinite(mean.rmse)

    def test_multisample_normalises_by_fusion_gamma(self, monkeypatch):
        # u_norm divides by N (N + gamma) with the gamma the fusion used
        import fractaldepth.bench as bench_mod
        monkeypatch.setattr(bench_mod, "URCAConfig", functools.partial(URCAConfig, gamma=0.0))
        cfg = _tiny_cfg()
        n = 2
        out, u_norm, _ = multisample_scene(build_model(cfg), cfg, 42, n, RngStream(0, ("m",)))
        assert np.array_equal(u_norm, out.uncertainty / n ** 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_multisample_nonfinite_image(self, monkeypatch, bad):
        import fractaldepth.bench as bench_mod
        cfg = _tiny_cfg()
        scene = bench_mod.gen_scene

        def corrupted(spec):
            image, gt = scene(spec)
            image[0, 0, 2] = bad
            return image, gt

        monkeypatch.setattr(bench_mod, "gen_scene", corrupted)
        with pytest.raises(InputError):
            multisample_scene(build_model(cfg), cfg, 42, 2, RngStream(0, ("m",)))

    def test_multisample_csv(self, tmp_path):
        cfg = _tiny_cfg()
        ckpt = run_train(cfg, tmp_path / "t")
        out = tmp_path / "ms.csv"
        summaries = run_multisample(cfg, load_model(ckpt), [1, 2], out, 1)
        assert [n for n, _, _ in summaries] == [1, 2]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("n,abs_rel,sq_rel,rmse,rmse_log,delta1,delta2,delta3,u_exceedance,"
                            "converged")
        assert len(lines) == 3
        # one scene per N: its alignment converged or it did not; a single
        # sample needs no iteration
        converged = [float(line.split(",")[-1]) for line in lines[1:]]
        assert converged[0] == 1.0 and converged[1] in (0.0, 1.0)

    @pytest.mark.parametrize("runner", ["eval", "multisample", "validation"])
    def test_no_scenes_rejected(self, tmp_path, runner):
        # a mean over no scenes would be NaN metrics, written as a CSV of NaNs
        cfg = _tiny_cfg()
        model = build_model(cfg)
        out = tmp_path / "out.csv"
        if runner == "validation":      # the run config itself is rejected
            with pytest.raises(ConfigError, match="val_scenes"):
                run_train(_tiny_cfg(val_every=2, val_scenes=0), tmp_path)
        else:
            with pytest.raises(InputError, match="scene count"):
                if runner == "eval":
                    run_eval(cfg, model, out, 0)
                else:
                    run_multisample(cfg, model, [1], out, 0)
        assert not any(tmp_path.glob("*.csv"))

    def test_untrained_run_rejected(self, tmp_path):
        # epochs = 0 would save an untrained checkpoint beside empty CSVs
        with pytest.raises(ConfigError, match="epochs"):
            run_train(RunConfig(epochs=0), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_multisample_bad_n(self):
        with pytest.raises(InputError):
            run_multisample(_tiny_cfg(), build_model(_tiny_cfg()), [0], None, 10)

    def test_train_deterministic(self, tmp_path):
        cfg = _tiny_cfg()
        run_train(cfg, tmp_path / "a")
        run_train(cfg, tmp_path / "b")
        assert ((tmp_path / "a" / "loss_curve.csv").read_bytes()
                == (tmp_path / "b" / "loss_curve.csv").read_bytes())
        assert ((tmp_path / "a" / "checkpoint.fadn").read_bytes()
                == (tmp_path / "b" / "checkpoint.fadn").read_bytes())
