import shutil

import numpy as np
import pytest

from fractaldepth import bench
from fractaldepth.cli import main
from fractaldepth.errors import InputError
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
        assert (root / "trace" / "manifest.txt").exists()

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
        assert (root / "fused" / "uncertainty_stats.csv").exists()
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
        monkeypatch.setattr(bench.RunConfig, "urca",
                            lambda self: URCAConfig(lam=self.urca_lambda, max_iter=1))
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
        with pytest.raises(InputError):
            main(["fuse", "--config", str(cfg), str(root / change / "depth.pfm"),
                  str(root / change / "depth.pfm"), "--trace-dir", str(root / change),
                  "--checkpoint", str(ckpt), "--out", str(root / f"{change}_fused")])
