import functools
import shutil

import numpy as np
import pytest

from fractaldepth import fractal, urca
from fractaldepth.cli import main
from fractaldepth.imgio import read_depth_pfm
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
        # the reverse steps run per level: the tiny config has T = 10
        assert fields["steps"] == str(min(fractal.SAMPLE_STEPS, 10))

    def test_sample_nonfinite_tau(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        code = main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--tau", "nan", "--out", str(root / "nan")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("InputError: ") and "tau" in err
        assert not (root / "nan").exists()

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
        assert set(fields) == {"alpha", "beta", "iterations", "converged", "objective"}
        assert len(fields["alpha"].split(",")) == len(fields["beta"].split(",")) == 2
        assert fields["converged"] == "True" and int(fields["iterations"]) >= 1
        assert float(fields["objective"]) >= 0.0
        assert "did not converge" not in out

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
        assert not (root / "eval0" / "eval.csv").exists()

    def test_trace_dir_without_checkpoint(self, tiny_run, capsys):
        cfg, ckpt, root = tiny_run
        main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "--out",
              str(root / "nockpt")])
        depth = str(root / "nockpt" / "depth.pfm")
        err = self._fails(capsys, ["fuse", depth, depth, "--trace-dir", str(root / "nockpt"),
                                   "--out", str(root / "nockpt_fused")], "InputError")
        assert "--checkpoint" in err

    def test_zero_layer_size(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("feature_dim = 0\n")
        err = self._fails(capsys, ["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
                          "ConfigError")
        assert "layer sizes" in err

    def test_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("uncertainty_threshold = nan\n")
        err = self._fails(capsys, ["scene", "--config", str(cfg), "--out", str(tmp_path / "s")],
                          "ConfigError")
        assert "nan.cfg" in err and "uncertainty_threshold" in err
