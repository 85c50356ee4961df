import functools
import shutil

import numpy as np
import pytest

from fractaldepth import fractal, imgio, urca
from fractaldepth.bench import RunConfig, SceneSpec, build_model, gen_scene
from fractaldepth.cli import main
from fractaldepth.imgio import read_depth_pfm, read_pfm
from fractaldepth.urca import URCAConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPlan:
    def test_desk(self, capsys):
        code, out = run(capsys, "plan", "--scale-config", "desk")
        assert code == 0
        assert "(1, 16, 256, 64)" in out
        assert "sequential stages: 4" in out
        assert "4096" in out
        # one row per level, coarse first
        assert [line.split()[0] for line in out.splitlines()[2:6]] == ["g4", "g3", "g2", "g1"]

    def test_paper_flags_table_discrepancy(self, capsys):
        code, out = run(capsys, "plan", "--scale-config", "paper")
        assert code == 0
        assert "(1, 16, 256, 256)" in out
        assert "65536" in out
        assert "paper-table" in out  # the alternative reading is surfaced

    def test_paper_table(self, capsys):
        code, out = run(capsys, "plan", "--scale-config", "paper-table")
        assert code == 0
        assert "(1, 16, 16, 256)" in out


class TestScene:
    def test_writes_files(self, tmp_path, capsys):
        code, _ = run(capsys, "scene", "--seed", "4", "--out", str(tmp_path / "s"))
        assert code == 0
        d = read_depth_pfm(tmp_path / "s" / "depth.pfm")
        assert d.values.shape == (64, 64)
        assert (tmp_path / "s" / "depth.pgm").exists()
        assert (tmp_path / "s" / "image_r.pfm").exists()

    def test_config_seed(self, tmp_path, capsys):
        cfg = tmp_path / "seed5.cfg"
        cfg.write_text("seed = 5\n")
        code, out = run(capsys, "scene", "--config", str(cfg), "--out", str(tmp_path / "s"))
        assert code == 0 and "scene seed=5 " in out
        d = read_depth_pfm(tmp_path / "s" / "depth.pfm")
        _, depth = gen_scene(SceneSpec(seed=5))
        assert np.array_equal(d.values, depth.values.astype(np.float32))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text("train_scenes = 4\nepochs = 1\nval_every = 0\ntimesteps = 10\n"
                   "hidden_width = 16\nhidden_depth = 2\nfeature_dim = 4\n"
                   "time_dim = 4\ntimestep_reuse = 1\n")
    code = main(["train", "--config", str(cfg), "--out", str(root / "train")])
    assert code == 0
    return cfg, root / "train" / "checkpoint.fadn", root


class TestPipelines:
    def test_eval(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        code, out = run(capsys, "eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--scenes", "2", "--out", str(root / "eval"))
        assert code == 0
        assert "mean: abs_rel=" in out
        assert (root / "eval" / "eval.csv").exists()

    def test_sample_trace(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        code, _ = run(capsys, "sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                      "--seed", "3", "--tau", "1.0", "--out", str(root / "trace"))
        assert code == 0
        assert (root / "trace" / "depth.pfm").exists()
        fields = dict(line.split("=", 1)
                      for line in (root / "trace" / "manifest.txt").read_text().splitlines())
        assert fields["tau"] == "1.0"
        # the reverse steps of each level, coarse -> fine: COARSE_STEPS and
        # SAMPLE_STEPS, each capped at the tiny config's T = 10
        assert fields["steps"] == "8,8,8,10"

    def test_sample_nonfinite_tau(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        code = main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--tau", "nan", "--out", str(root / "nan")])
        err = capsys.readouterr().err
        # the run config rejects it before the checkpoint is read
        assert code == 2 and err.startswith("ConfigError: ") and "tau" in err
        assert not (root / "nan").exists()

    def test_config_seed_picks_the_scene(self, tiny_run, capsys):
        # a config's seed and --seed are one run setting: the same scene,
        # noise and manifest
        cfg, ckpt, root = tiny_run
        seeded = root / "seed5.cfg"
        seeded.write_text(cfg.read_text() + "seed = 5\n")
        assert main(["sample", "--config", str(seeded), "--checkpoint", str(ckpt),
                     "--out", str(root / "cfg5")]) == 0
        assert main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--seed", "5", "--out", str(root / "arg5")]) == 0
        for name in ("depth.pfm", "manifest.txt"):
            assert (root / "cfg5" / name).read_bytes() == (root / "arg5" / name).read_bytes()

    def test_fuse(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        for seed in (3, 4):
            main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--seed", str(seed), "--tau", "1.0", "--out", str(root / f"t{seed}")])
        code, out = run(capsys, "fuse", "--config", str(cfg),
                        str(root / "t3" / "depth.pfm"), str(root / "t4" / "depth.pfm"),
                        "--out", str(root / "fused"))
        assert code == 0
        assert "fraction of pixels with U >" in out
        c = read_depth_pfm(root / "fused" / "consensus.pfm")
        assert c.values.shape == (64, 64)
        stats = (root / "fused" / "uncertainty_stats.csv").read_text().splitlines()
        assert stats[0] == "bin_left,count" and len(stats) == 65
        fields = dict(line.split("=", 1)
                      for line in (root / "fused" / "alignment.txt").read_text().splitlines())
        assert set(fields) == {"alpha", "beta", "iterations", "converged", "objective",
                               "bisection_rounds"}
        assert len(fields["alpha"].split(",")) == len(fields["beta"].split(",")) == 2
        assert fields["converged"] == "True" and int(fields["iterations"]) >= 1
        assert float(fields["objective"]) >= 0.0
        assert 1 <= int(fields["bisection_rounds"]) < urca._MAX_ROUNDS
        assert "did not converge" not in out and "bisection stopped" not in out

    def test_fuse_writes_normalised_uncertainty(self, tiny_run, capsys):
        # uncertainty.pfm and the printed fraction are the reliability proxy
        # U, not the raw energy; without --trace-dir no recursive term
        # enters the energy, so U is the energy over N * N
        cfg, ckpt, root = tiny_run
        for seed in (10, 11):
            main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--seed", str(seed), "--tau", "1.0", "--out", str(root / f"t{seed}")])
        paths = [root / "t10" / "depth.pfm", root / "t11" / "depth.pfm"]
        code, out = run(capsys, "fuse", "--config", str(cfg), *map(str, paths),
                        "--out", str(root / "norm"))
        assert code == 0
        raw = urca.fuse([read_depth_pfm(p) for p in paths], None, URCAConfig()).uncertainty
        u_norm = raw / 2 ** 2
        assert np.array_equal(read_pfm(root / "norm" / "uncertainty.pfm"),
                              u_norm.astype(np.float32).astype(np.float64))
        assert f"fraction of pixels with U > 1.0: {np.mean(u_norm > 1.0):.6f}" in out

    def test_fuse_reports_cap(self, tiny_run, capsys, monkeypatch):
        cfg, ckpt, root = tiny_run
        for seed in (5, 6):
            main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--seed", str(seed), "--tau", "1.0", "--out", str(root / f"t{seed}")])
        monkeypatch.setattr(urca, "URCAConfig", functools.partial(URCAConfig, max_iter=1))
        code, out = run(capsys, "fuse", "--config", str(cfg),
                        str(root / "t5" / "depth.pfm"), str(root / "t6" / "depth.pfm"),
                        "--out", str(root / "capped"))
        assert code == 0
        assert "alignment did not converge in 1 iterations" in out
        text = (root / "capped" / "alignment.txt").read_text()
        assert "converged=False\n" in text and "iterations=1\n" in text

    def test_fuse_reports_bisection_cap(self, tiny_run, capsys, monkeypatch):
        cfg, ckpt, root = tiny_run
        for seed in (12, 13):
            main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--seed", str(seed), "--tau", "1.0", "--out", str(root / f"t{seed}")])
        monkeypatch.setattr(urca, "_MAX_ROUNDS", 3)
        code, out = run(capsys, "fuse", "--config", str(cfg),
                        str(root / "t12" / "depth.pfm"), str(root / "t13" / "depth.pfm"),
                        "--out", str(root / "bisect"))
        assert code == 0
        assert "consensus bisection stopped at its cap of 3 rounds" in out
        assert "bisection_rounds=3\n" in (root / "bisect" / "alignment.txt").read_text()

    def test_fuse_trace_dir(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        for seed in (7, 8):
            main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                  "--seed", str(seed), "--tau", "1.0", "--out", str(root / f"t{seed}")])
        samples = [str(root / "t7" / "depth.pfm"), str(root / "t8" / "depth.pfm")]
        code, _ = run(capsys, "fuse", "--config", str(cfg), *samples,
                      "--out", str(root / "plain"))
        assert code == 0
        code, out = run(capsys, "fuse", "--config", str(cfg), *samples, "--trace-dir",
                        str(root / "t7"), "--checkpoint", str(ckpt), "--out", str(root / "rec"))
        assert code == 0 and "fraction of pixels with U >" in out
        rec = read_depth_pfm(root / "rec" / "consensus.pfm").values
        plain = read_depth_pfm(root / "plain" / "consensus.pfm").values
        # the recursive term of the four level latents moves the consensus
        assert rec.shape == (64, 64) and not np.array_equal(rec, plain)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_fuse_trace_dir_level_count(self, tiny_run, capsys, change):
        cfg, ckpt, root = tiny_run
        main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
              "--seed", "9", "--out", str(root / change)])
        if change == "missing":
            (root / change / "latent_level3.pfm").unlink()
        else:
            shutil.copy(root / change / "latent_level3.pfm", root / change / "latent_level4.pfm")
        code = main(["fuse", "--config", str(cfg), str(root / change / "depth.pfm"),
                     str(root / change / "depth.pfm"), "--trace-dir", str(root / change),
                     "--checkpoint", str(ckpt), "--out", str(root / f"{change}_fused")])
        assert code == 2 and capsys.readouterr().err.startswith("InputError: ")


class TestModelScale:
    """sample and eval build their scenes at the checkpoint's resolution,
    whatever the run config's scale."""

    def test_paper_checkpoint_without_config(self, tmp_path, capsys):
        model = build_model(RunConfig(scale_config="paper"))
        ckpt = tmp_path / "paper.fadn"
        fractal.save_model(ckpt, model)
        code, _ = run(capsys, "sample", "--checkpoint", str(ckpt), "--out", str(tmp_path / "s"))
        assert code == 0
        assert read_depth_pfm(tmp_path / "s" / "depth.pfm").values.shape == (256, 256)
        fields = dict(line.split("=", 1)
                      for line in (tmp_path / "s" / "manifest.txt").read_text().splitlines())
        assert fields["levels"] == "((1, 1), (4, 1), (16, 1), (256, 16))"
        assert "config" not in fields
        code, out = run(capsys, "eval", "--checkpoint", str(ckpt), "--scenes", "1",
                        "--out", str(tmp_path / "e"))
        assert code == 0 and "mean: abs_rel=" in out


class TestRemovedOptions:
    """Options a command never reads are not accepted."""

    @pytest.mark.parametrize("argv", [
        ["scene", "--tau", "1.0"],
        ["fuse", "a.pfm", "--seed", "1"],
        ["fuse", "a.pfm", "--tau", "1.0"]], ids=["scene_tau", "fuse_seed", "fuse_tau"])
    def test_unrecognized(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestTypedErrors:
    """A library error is one stderr line and exit status 2, not a traceback."""

    def _fails(self, capsys, argv, cls):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"{cls}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(b"Pf\n2 2\n-1.0\n")      # header only, no pixels
        err = self._fails(capsys, ["fuse", str(bad), str(bad), "--out", str(tmp_path / "o")],
                          "InputError")
        assert "bad.pfm" in err

    def test_no_scenes(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        err = self._fails(capsys, ["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                                   "--scenes", "0", "--out", str(root / "eval0")], "InputError")
        assert "scene count" in err
        # rejected before the checkpoint is read or --out is made
        assert not (root / "eval0").exists()

    def test_trace_dir_without_checkpoint(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "--out",
              str(root / "nockpt")])
        depth = str(root / "nockpt" / "depth.pfm")
        err = self._fails(capsys, ["fuse", depth, depth, "--trace-dir", str(root / "nockpt"),
                                   "--out", str(root / "nockpt_fused")], "InputError")
        assert "--checkpoint" in err

    def test_checkpoint_without_trace_dir(self, tmp_path, capsys):
        # the checkpoint would never be read, so a missing one is not an excuse
        depth = str(tmp_path / "d.pfm")
        imgio.write_pfm(depth, np.ones((4, 4)))
        err = self._fails(capsys, ["fuse", depth, depth, "--checkpoint",
                                   str(tmp_path / "missing.fadn"), "--out", str(tmp_path / "o")],
                          "InputError")
        assert "--trace-dir" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["checkpoint", "pfm", "config"])
    def test_missing_path(self, tmp_path, capsys, kind):
        missing = str(tmp_path / f"missing.{kind}")
        out = ["--out", str(tmp_path / "o")]
        argv = {"checkpoint": ["sample", "--checkpoint", missing],
                "pfm": ["fuse", missing, missing],
                "config": ["eval", "--config", missing, "--checkpoint", missing]}[kind]
        err = self._fails(capsys, argv + out, "FileNotFoundError")
        assert missing in err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 5\n\xff\xfe = 1\n")
        err = self._fails(capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                          "ConfigError")
        assert "bad.cfg" in err and "UTF-8" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("shape", [(16, 16), (4, 8)], ids=["wrong_size", "non_square"])
    def test_trace_latent_off_grid(self, tiny_run, capsys, shape):
        # a latent no larger than the final grid would upsample and fuse:
        # each must be on its level's grid (level 1: 4 x 4)
        cfg, ckpt, root = tiny_run
        trace = root / f"grid{shape[0]}x{shape[1]}"
        main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(trace)])
        imgio.write_pfm(trace / "latent_level1.pfm", np.zeros(shape))
        depth = str(trace / "depth.pfm")
        err = self._fails(capsys, ["fuse", depth, depth, "--trace-dir", str(trace),
                                   "--checkpoint", str(ckpt), "--out", str(trace / "fused")],
                          "InputError")
        assert "latent_level1.pfm" in err and str(shape) in err and "4 x 4" in err
        assert not (trace / "fused").exists()

    def test_trace_latent_nonfinite(self, tiny_run, capsys):
        # a latent on its grid that holds nan fails naming its file, before
        # the fusion sees it
        cfg, ckpt, root = tiny_run
        trace = root / "nan_latent"
        main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(trace)])
        imgio.write_pfm(trace / "latent_level1.pfm", np.full((4, 4), np.nan))
        depth = str(trace / "depth.pfm")
        err = self._fails(capsys, ["fuse", depth, depth, "--trace-dir", str(trace),
                                   "--checkpoint", str(ckpt), "--out", str(trace / "fused")],
                          "InputError")
        assert str(trace / "latent_level1.pfm") in err and "nan" in err
        assert not (trace / "fused").exists()

    def test_zero_layer_size(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("feature_dim = 0\n")
        err = self._fails(capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                          "ConfigError")
        assert "layer sizes" in err

    def test_unbuildable_model_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("time_dim = 3\n")
        err = self._fails(capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                          "ConfigError")
        assert "time_dim" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("line", ["time_dim = 3", "feature_dim = 0", "timestep_reuse = 0"])
    def test_unbuildable_model_config(self, tmp_path, capsys, line):
        # every command checks the model keys of its config, not only train
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"{line}\n")
        err = self._fails(capsys, ["scene", "--config", str(cfg), "--out", str(tmp_path / "s")],
                          "ConfigError")
        assert "model.cfg" in err and line.split()[0] in err
        assert not (tmp_path / "s").exists()

    def test_diverged_chain(self, tiny_run, capsys):
        # a huge finite tau overflows the reverse chain
        cfg, ckpt, root = tiny_run
        err = self._fails(capsys, ["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                                   "--tau", "1e200", "--out", str(root / "huge")], "NumericsError")
        assert "level 0" in err
        assert not (root / "huge").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nonfinite_tau(self, tiny_run, capsys, command):
        # rejected with the run config, before a step is trained, a
        # checkpoint is read or --out is made
        cfg, ckpt, root = tiny_run
        out = root / f"{command}_nan"
        argv = [command, "--config", str(cfg), "--tau", "nan", "--out", str(out)]
        if command == "eval":
            argv += ["--checkpoint", str(ckpt)]
        err = self._fails(capsys, argv, "ConfigError")
        assert "tau" in err
        assert not out.exists()

    def test_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("uncertainty_threshold = nan\n")
        err = self._fails(capsys, ["scene", "--config", str(cfg), "--out", str(tmp_path / "s")],
                          "ConfigError")
        assert "nan.cfg" in err and "uncertainty_threshold" in err
