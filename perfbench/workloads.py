"""The four benchmark workloads: set-up, one op, output checks and digests.

Each workload is built from the workload seed alone.  The seed picks the
scene seeds and the ``RngStream`` seed; the model is either the stored
reference checkpoint or the seeded initialisation of a ``RunConfig``.
Every call into the package goes through a module attribute
(``fractal.generate``, ``bench.multisample_scene``, ...) so that a traced
run, which patches those attributes, sees it.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os

import numpy as np

from fractaldepth import bench, fractal, imgio, urca
from fractaldepth.nnet import LrSchedule, lr_at
from fractaldepth.rng import RngStream

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "desk_seed0.fadn")
# Made by `fractaldepth train --seed 0` with the default desk RunConfig; see
# NOTES.md.  The stored bytes are authoritative: set-up refuses any other
# file, so parent and change always run the same model.
CHECKPOINT_SHA256 = "fc9bd9dd88414e03efef37ff5cb497ca2dc0fe06c588209c3ba3c204289e3c2c"

# The objective trace of the IRLS alignment may not rise by more than this
# between iterations (the monotonicity tolerance of acceptance criterion 06).
MONOTONE_TOL = 1e-9


def load_reference_model():
    """The desk checkpoint, after its SHA-256 is checked."""
    with open(CHECKPOINT, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise SystemExit(
            f"perfbench: {CHECKPOINT}: SHA-256 {digest} != recorded {CHECKPOINT_SHA256}; "
            "restore the stored file (NOTES.md says how it was made)")
    return fractal.load_model(CHECKPOINT)


def _scene_seeds(seed: int, name: str, count: int) -> list:
    g = RngStream(seed, ("perfbench", name)).generator("scene-seeds")
    return [int(s) for s in g.integers(0, 2 ** 31, size=count)]


def _hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _check_generation(trace, model) -> list:
    """Shape, finiteness and clamp range of a GenerationTrace."""
    problems = []
    res = model.cfg.final_resolution
    final = trace.final.values
    if final.shape != (res, res):
        problems.append(f"final shape {final.shape} != ({res}, {res})")
    if not np.all(np.isfinite(final)):
        problems.append("non-finite depth")
    elif final.min() < model.cfg.d_min or final.max() > model.cfg.d_max:
        problems.append(f"depth outside [{model.cfg.d_min}, {model.cfg.d_max}]")
    if len(trace.latents) != model.n_levels:
        problems.append(f"{len(trace.latents)} latents for {model.n_levels} levels")
    for lv, latent in zip(model.plan.levels, trace.latents):
        if latent.shape != (lv.resolution, lv.resolution):
            problems.append(f"latent shape {latent.shape} at resolution {lv.resolution}")
    return problems


class Workload:
    """One op at a time, closed loop.  Subclasses fill in the hooks."""

    name = ""
    quality_units = {}

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.rng = RngStream(seed, ("perfbench", self.name))
        self.quality = {k: [] for k in self.quality_units}

    def op(self, i: int):
        """The timed program work of op ``i``; returns its outputs."""
        raise NotImplementedError

    def check(self, out) -> list:
        """Problems found in the outputs of one op (empty when correct)."""
        raise NotImplementedError

    def digest(self, out) -> str:
        """SHA-256 over every output byte of one op."""
        raise NotImplementedError

    def record_quality(self, out) -> None:
        pass

    def quality_summary(self) -> dict:
        return {k: float(np.mean(v)) for k, v in self.quality.items() if v}

    # Ops of stateless workloads can be re-run as they are; a stateful one
    # (training) overrides these to rewind its model.
    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass


class DeskGenerate(Workload):
    name = "desk_generate"
    quality_units = {"rmse": "m", "delta1": "frac"}
    n_scenes = 32

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.model = load_reference_model()
        self.cfg = bench.RunConfig()
        self.scenes = [bench.gen_scene(self.cfg.scene_spec(s))
                       for s in _scene_seeds(seed, self.name, self.n_scenes)]
        self.out_dir = os.path.join(work_dir, "trace")

    def op(self, i):
        image, gt = self.scenes[i % self.n_scenes]
        trace = fractal.generate(self.model, image, self.rng.child("op", i), tau=0.0)
        fractal.save_trace(trace, self.out_dir, {"seed": self.seed, "op": i, "tau": 0.0,
                                                 "config": self.cfg.scale_config})
        return trace, bench.metrics(trace.final, gt)

    def _files(self):
        return sorted(os.listdir(self.out_dir))

    def check(self, out):
        trace, _ = out
        problems = _check_generation(trace, self.model)
        expected = sorted([f"latent_level{k}.pfm" for k in range(self.model.n_levels)]
                          + ["depth.pfm", "depth.pgm", "manifest.txt"])
        if self._files() != expected:
            problems.append(f"trace files {self._files()} != {expected}")
        else:
            back = imgio.read_pfm(os.path.join(self.out_dir, "depth.pfm"))
            if not np.array_equal(back, trace.final.values.astype(np.float32)):
                problems.append("depth.pfm does not read back as the generated depth")
        return problems

    def digest(self, out):
        trace, _ = out
        blobs = []
        for name in self._files():
            with open(os.path.join(self.out_dir, name), "rb") as f:
                blobs.append(np.frombuffer(f.read(), dtype=np.uint8))
        return _hash(trace.final.values, *trace.latents, *blobs)

    def record_quality(self, out):
        _, report = out
        self.quality["rmse"].append(report.rmse)
        self.quality["delta1"].append(report.delta1)


class DeskFuse8(Workload):
    name = "desk_fuse8"
    quality_units = {"rmse": "m", "delta1": "frac", "u_exceedance": "frac"}
    n_samples = 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.model = load_reference_model()
        self.cfg = bench.RunConfig()
        self.scene_seeds = _scene_seeds(seed, self.name, 1024)

    def op(self, i):
        out, u_norm, gt = bench.multisample_scene(
            self.model, self.cfg, self.scene_seeds[i % len(self.scene_seeds)],
            self.n_samples, self.rng)
        report = bench.metrics(out.consensus, gt)
        _, _, exceed = urca.uncertainty_stats(u_norm, self.cfg.uncertainty_threshold)
        return out, u_norm, report, exceed

    def check(self, res):
        out, u_norm, _, _ = res
        problems = []
        shape = (self.model.cfg.final_resolution,) * 2
        if out.consensus.values.shape != shape:
            problems.append(f"consensus shape {out.consensus.values.shape} != {shape}")
        if not np.all(np.isfinite(out.consensus.values)):
            problems.append("non-finite consensus")
        if not (np.all(np.isfinite(out.uncertainty)) and np.all(out.uncertainty >= 0)):
            problems.append("uncertainty not finite and >= 0")
        trace = out.alignment.objective_trace
        rises = [b - a for a, b in zip(trace, trace[1:]) if b > a + MONOTONE_TOL]
        if rises:
            problems.append(f"alignment objective rose {len(rises)} times (max {max(rises):.3g})")
        return problems

    def digest(self, res):
        out, u_norm, _, _ = res
        a = out.alignment
        return _hash(out.consensus.values, out.consensus.valid_mask, out.uncertainty, u_norm,
                     a.alpha, a.beta, np.asarray(a.objective_trace))

    def record_quality(self, res):
        _, _, report, exceed = res
        self.quality["rmse"].append(report.rmse)
        self.quality["delta1"].append(report.delta1)
        self.quality["u_exceedance"].append(exceed)


class DeskTrain(Workload):
    name = "desk_train"
    quality_units = {"train_loss": "mse"}

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cfg = bench.RunConfig()
        self.model = bench.build_model(self.cfg)
        self.scene_seeds = _scene_seeds(seed, self.name, 4096)
        # the schedule run_train builds for this config
        total = self.cfg.epochs * self.cfg.train_scenes
        self.lr_sched = LrSchedule(
            base_lr=self.cfg.base_lr,
            warmup_steps=min(self.cfg.warmup_epochs * self.cfg.train_scenes, total // 10),
            total_steps=total, final_lr=self.cfg.final_lr)

    def op(self, i):
        image, gt = bench.gen_scene(self.cfg.scene_spec(self.scene_seeds[i % len(self.scene_seeds)]))
        return fractal.train_step(self.model, image, gt, self.rng.child("step", i),
                                  lr_at(i, self.lr_sched), weight_decay=self.cfg.weight_decay)

    def check(self, losses):
        if len(losses) != self.model.n_levels or not all(map(math.isfinite, losses)):
            return [f"losses {losses} are not one finite value per level"]
        return []

    def digest(self, losses):
        return _hash(np.asarray(losses), *self.model.named_params().values())

    def record_quality(self, losses):
        self.quality["train_loss"].append(float(np.mean(losses)))

    def quality_summary(self):
        losses = self.quality["train_loss"]
        if not losses:
            return {}
        tail = losses[len(losses) - max(1, len(losses) // 4):]
        return {"train_loss": float(np.mean(tail))}

    def snapshot(self):
        return copy.deepcopy(self.model)

    def restore(self, snap):
        self.model = copy.deepcopy(snap)


class PaperGenerate(Workload):
    name = "paper_generate"
    n_scenes = 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cfg = bench.RunConfig(scale_config="paper")
        self.model = bench.build_model(self.cfg)
        self.images = [bench.gen_scene(self.cfg.scene_spec(s))[0]
                       for s in _scene_seeds(seed, self.name, self.n_scenes)]

    def op(self, i):
        return fractal.generate(self.model, self.images[i % self.n_scenes],
                                self.rng.child("op", i), tau=0.0)

    def check(self, trace):
        return _check_generation(trace, self.model)

    def digest(self, trace):
        return _hash(trace.final.values, *trace.latents)


WORKLOADS = {w.name: w for w in (DeskGenerate, DeskFuse8, DeskTrain, PaperGenerate)}
