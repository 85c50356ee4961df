"""Synthetic scenes, depth metrics, the run config and experiment runners."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import DepthMap, ScaleConfig, named_scale_config
from .errors import ConfigError, FractalDepthError, InputError, ShapeError
# load_model is not called here, but perfbench/tracer.py patches this binding
from .fractal import (FractalModel, ModelSpec, decode_level_depth, generate,  # noqa: F401
                      init_model, load_model, save_model, train_step)
from .nnet import LrSchedule, lr_at
from .rng import RngStream
from .urca import URCAConfig, fuse, uncertainty_stats


# --- Scene generation ------------------------------------------------------

@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    resolution: int = 64
    min_objects: int = 2
    max_objects: int = 6
    depth_min: float = 0.5
    depth_max: float = 8.0
    noise: float = 0.02


def gen_scene(spec: SceneSpec):
    """Procedural RGB/depth pair: gradient background plus occluding shapes.

    Depth at a pixel is the minimum over covering surfaces (nearer objects
    occlude); brightness is proportional to inverse depth.
    """
    res = spec.resolution
    rng = RngStream(spec.seed, ("scene",))
    g = rng.generator("draws")
    yy, xx = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    u, v = xx / max(res - 1, 1), yy / max(res - 1, 1)

    d0, d1 = sorted(g.uniform(spec.depth_min, spec.depth_max, 2))
    theta = g.uniform(0, 2 * math.pi)
    proj = u * math.cos(theta) + v * math.sin(theta)
    # normalize the directional ramp to [0, 1] so depth stays in [d0, d1]
    ramp = (proj - proj.min()) / max(proj.max() - proj.min(), 1e-12)
    depth = d0 + (d1 - d0) * ramp
    hue_map = np.full((res, res), g.uniform(0, 1))

    k = int(g.integers(spec.min_objects, spec.max_objects + 1))
    for _ in range(k):
        od = g.uniform(spec.depth_min, spec.depth_max)
        hue = g.uniform(0, 1)
        cx, cy = g.uniform(0.1, 0.9, 2)
        rx, ry = g.uniform(0.05, 0.3, 2)
        if g.uniform(0, 1) < 0.5:
            inside = (np.abs(u - cx) < rx) & (np.abs(v - cy) < ry)
        else:
            inside = ((u - cx) / rx) ** 2 + ((v - cy) / ry) ** 2 < 1.0
        nearer = inside & (od < depth)
        depth = np.where(nearer, od, depth)
        hue_map = np.where(nearer, hue, hue_map)

    brightness = np.clip(spec.depth_min / depth, 0.0, 1.0)
    image = np.empty((res, res, 3))
    # per-pixel hue -> rgb, vectorized over the three channel formulas
    x6 = hue_map * 6.0
    image[:, :, 0] = np.clip(np.abs(x6 - 3.0) - 1.0, 0.0, 1.0)
    image[:, :, 1] = np.clip(2.0 - np.abs(x6 - 2.0), 0.0, 1.0)
    image[:, :, 2] = np.clip(2.0 - np.abs(x6 - 4.0), 0.0, 1.0)
    image *= brightness[:, :, None]
    if spec.noise > 0:
        image += spec.noise * g.standard_normal(image.shape)
    image = np.clip(image, 0.0, 1.0)
    return image, DepthMap(values=depth)


# --- Metrics ---------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float


def metrics(pred: DepthMap, gt: DepthMap) -> MetricsReport:
    """Standard monocular depth metrics over the joint valid mask."""
    if pred.values.shape != gt.values.shape:
        raise ShapeError(f"resolution mismatch {pred.values.shape} vs {gt.values.shape}")
    mask = pred.valid_mask & gt.valid_mask
    if not mask.any():
        raise InputError("empty valid mask")
    p = pred.values[mask]
    g = gt.values[mask]
    if np.any(g <= 0) or np.any(p <= 0):
        raise InputError("metrics require positive depths on the valid mask")
    thresh = np.maximum(p / g, g / p)
    diff = p - g
    return MetricsReport(
        abs_rel=float(np.mean(np.abs(diff) / g)),
        sq_rel=float(np.mean(diff * diff / g)),
        rmse=float(np.sqrt(np.mean(diff * diff))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(thresh < 1.25)),
        delta2=float(np.mean(thresh < 1.25 ** 2)),
        delta3=float(np.mean(thresh < 1.25 ** 3)),
    )


# --- Run configuration -----------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    scale_config: str = "desk"
    seed: int = 0
    # schedule
    timesteps: int = 60
    beta_start: float = 1e-4
    beta_end: float = 0.12
    # training
    train_scenes: int = 512
    epochs: int = 2
    base_lr: float = 2e-3
    final_lr: float = 1e-5
    warmup_epochs: int = 5
    weight_decay: float = 0.05
    hidden_width: int = 256
    hidden_depth: int = 3
    feature_dim: int = 16
    time_dim: int = 16
    timestep_reuse: int = 4
    val_scenes: int = 8
    val_every: int = 256
    # inference
    tau: float = 0.0
    multisample_tau: float = 1.0
    # the URCA solver settings are the URCAConfig defaults, and the scene
    # settings those of SceneSpec
    uncertainty_threshold: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # int fields take ints (not bools); float fields take ints too
            want = {"int": (int,), "float": (int, float), "str": (str,)}[f.type]
            if not isinstance(value, want) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        self.model_spec()       # the run must build a model
        if not (math.isfinite(self.tau) and math.isfinite(self.multisample_tau)):
            raise ConfigError(f"tau and multisample_tau must be finite, "
                              f"got {self.tau} and {self.multisample_tau}")
        for key in ("base_lr", "final_lr", "weight_decay", "uncertainty_threshold"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        for key, low in (("epochs", 1), ("train_scenes", 1), ("warmup_epochs", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.val_every > 0 and self.val_scenes < 1:
            raise ConfigError(f"val_scenes must be >= 1 when val_every > 0, "
                              f"got {self.val_scenes}")

    def scale(self) -> ScaleConfig:
        return named_scale_config(self.scale_config)

    def scene_spec(self, seed: int) -> SceneSpec:
        return SceneSpec(seed=seed, resolution=self.scale().final_resolution)

    def model_spec(self) -> ModelSpec:
        if self.hidden_depth < 0:
            raise ConfigError(f"hidden_depth must be >= 0, got {self.hidden_depth}")
        scale = self.scale()
        return ModelSpec(levels=scale.levels, d_min=scale.d_min, d_max=scale.d_max,
                         T=self.timesteps, beta_start=self.beta_start, beta_end=self.beta_end,
                         hidden=(self.hidden_width,) * self.hidden_depth,
                         feature_dim=self.feature_dim, time_dim=self.time_dim,
                         timestep_reuse=self.timestep_reuse)


def load_run_config(path) -> RunConfig:
    """Plain-text key=value config, one entry per line, '#' comments.

    Only parses: the ``RunConfig`` it builds checks the values, and its
    ``ConfigError`` names the file.
    """
    values, lines = {}, {}
    valid = {f.name: f.type for f in fields(RunConfig)}
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x})") from None
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        convert = {"int": int, "float": float}.get(valid[key], str)
        try:
            values[key] = convert(val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} = {val!r} is not "
                              f"{convert.__name__}") from None
    try:
        return RunConfig(**values)
    except FractalDepthError as e:
        raise ConfigError(f"{path}: {e}") from e


def build_model(cfg: RunConfig) -> FractalModel:
    return init_model(cfg.model_spec(), cfg.seed)


# --- Runners ---------------------------------------------------------------

# the first scene seed of each runner's held-out scenes
VAL_SEED_BASE, EVAL_SEED_BASE, MULTISAMPLE_SEED_BASE = 10_000_000, 20_000_000, 30_000_000


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


_METRIC_HEADER = [f.name for f in fields(MetricsReport)]


def _metrics_row(report: MetricsReport):
    return [f"{getattr(report, name):.6f}" for name in _METRIC_HEADER]


def _mean_report(reports) -> MetricsReport:
    """Field-wise mean of per-scene reports; ``InputError`` if there are none."""
    if not reports:
        raise InputError("no scenes to average: the scene count must be >= 1")
    return MetricsReport(*[float(np.mean([getattr(r, f.name) for r in reports]))
                           for f in fields(MetricsReport)])


def model_scene(model: FractalModel, seed: int):
    """The scene of ``seed`` at the model's final resolution."""
    return gen_scene(SceneSpec(seed=seed, resolution=model.cfg.final_resolution))


def eval_scenes(model: FractalModel, cfg: RunConfig, scene_seeds, rng: RngStream):
    """Single-sample evaluation; returns (mean MetricsReport, per-scene list)."""
    reports = []
    for s in scene_seeds:
        image, gt = model_scene(model, s)
        trace = generate(model, image, rng.child("eval", s), tau=cfg.tau)
        reports.append(metrics(trace.final, gt))
    return _mean_report(reports), reports


def run_train(cfg: RunConfig, out_dir) -> str:
    """Train on generated scenes; writes checkpoint + loss/validation CSVs."""
    model = build_model(cfg)
    os.makedirs(out_dir, exist_ok=True)
    rng = RngStream(cfg.seed, ("train",))
    total = cfg.epochs * cfg.train_scenes
    lr_sched = LrSchedule(base_lr=cfg.base_lr,
                          warmup_steps=min(cfg.warmup_epochs * cfg.train_scenes, total // 10),
                          total_steps=total, final_lr=cfg.final_lr)
    loss_rows = []
    val_rows = []
    val_seeds = [VAL_SEED_BASE + i for i in range(cfg.val_scenes)]
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.generator("order", epoch).permutation(cfg.train_scenes)
        for scene_idx in order:
            image, gt = gen_scene(cfg.scene_spec(int(scene_idx)))
            lr = lr_at(step, lr_sched)
            losses = train_step(model, image, gt, rng.child("step", step), lr,
                                weight_decay=cfg.weight_decay)
            loss_rows.append([step, f"{lr:.8f}"] + [f"{l:.6f}" for l in losses])
            step += 1
            if cfg.val_every > 0 and step % cfg.val_every == 0:
                mean, _ = eval_scenes(model, cfg, val_seeds, rng.child("val", step))
                val_rows.append([step] + _metrics_row(mean))
    ckpt = os.path.join(out_dir, "checkpoint.fadn")
    save_model(ckpt, model)
    _write_csv(os.path.join(out_dir, "loss_curve.csv"),
               ["step", "lr"] + [f"loss_level{i}" for i in range(model.n_levels)], loss_rows)
    _write_csv(os.path.join(out_dir, "validation.csv"), ["step"] + _METRIC_HEADER, val_rows)
    return ckpt


def run_eval(cfg: RunConfig, model: FractalModel, out_csv, n_scenes: int):
    """Held-out single-sample evaluation; writes one CSV row per scene."""
    rng = RngStream(cfg.seed, ("evalrun",))
    seeds = [EVAL_SEED_BASE + i for i in range(n_scenes)]
    mean, reports = eval_scenes(model, cfg, seeds, rng)
    rows = [[s] + _metrics_row(r) for s, r in zip(seeds, reports)]
    rows.append(["mean"] + _metrics_row(mean))
    if out_csv:
        _write_csv(out_csv, ["scene"] + _METRIC_HEADER, rows)
    return mean, reports


def multisample_scene(model: FractalModel, cfg: RunConfig, scene_seed: int, n: int,
                      rng: RngStream):
    """N stochastic generations + URCA fusion for one scene.

    The N generations run as one batch.  Sample k reuses the RNG path
    ("sample", k) regardless of n, so results for smaller N are prefixes of
    larger-N runs up to float32 rounding: the sampler's MLP runs in float32,
    and a row of a float32 product of one row count (at level 0, one row per
    sample) may round differently from the same row at another.
    """
    image, gt = model_scene(model, scene_seed)
    srng = rng.child("scene", scene_seed)
    traces = generate(model, image, [srng.child("sample", k) for k in range(n)],
                      tau=cfg.multisample_tau)
    levels = [decode_level_depth(latent, model) for latent in traces[0].latents]
    out = fuse([t.final for t in traces], levels, URCAConfig())
    return out, out.reliability, gt


def run_multisample(cfg: RunConfig, model: FractalModel, n_list, out_csv, n_scenes: int):
    """Per-N fused metrics and uncertainty exceedance; one CSV row per N.

    Returns ``(n, mean MetricsReport, exceedance)`` per N.  The CSV also
    records, as ``converged``, the fraction of the N's scenes whose sample
    alignment converged before its iteration cap.
    """
    if any(n < 1 for n in n_list):
        raise InputError("sample counts must be >= 1")
    rng = RngStream(cfg.seed, ("multisample",))
    rows = []
    summaries = []
    for n in n_list:
        reports = []
        exceed = []
        converged = []
        for i in range(n_scenes):
            out, u_norm, gt = multisample_scene(model, cfg, MULTISAMPLE_SEED_BASE + i, n, rng)
            reports.append(metrics(out.consensus, gt))
            _, _, frac = uncertainty_stats(u_norm, cfg.uncertainty_threshold)
            exceed.append(frac)
            converged.append(out.alignment.converged)
        mean = _mean_report(reports)
        frac = float(np.mean(exceed))
        rows.append([n] + _metrics_row(mean) + [f"{frac:.6f}", f"{np.mean(converged):.6f}"])
        summaries.append((n, mean, frac))
    if out_csv:
        _write_csv(out_csv, ["n"] + _METRIC_HEADER + ["u_exceedance", "converged"], rows)
    return summaries
