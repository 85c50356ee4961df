"""Coarse-to-fine recursive depth generation.

Each level owns a noise-predictor MLP sized for its token layout; the
level condition is built by the VCFR fusion from the image features and
the depth state handed down from the previous level (teacher-forced
targets during training, sampled latents during generation).  The finest
level additionally receives the center patch and its 4-neighborhood
context of the upsampled previous latent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import vcfr
from .core import (DepthMap, ScaleConfig, SchedulePlan, build_schedule_plan, denormalize,
                   downsample_mean, log_normalize, reassemble_patches, split_patches,
                   split_patches_with_context, upsample_bilinear)
from .diffusion import NoiseSchedule, forward_noise, make_linear_schedule, sample
# not called here: perfbench/tracer.py times reverse steps by patching this binding
from .diffusion import reverse_step  # noqa: F401
from .errors import InputError, NumericsError, ShapeError
from .nnet import (AdamWState, MlpParams, adamw_step, init_mlp, mlp_backward, mlp_forward,
                   time_embed)
from .rng import RngStream


@dataclass
class FractalModel:
    cfg: ScaleConfig
    plan: SchedulePlan
    sched: NoiseSchedule
    conv: vcfr.ConvPyramidParams
    gate_w: np.ndarray          # (L,) fusion gate scales
    gate_b: np.ndarray          # (L,) fusion gate shifts
    mlps: list                  # per-level MlpParams
    feature_dim: int = 16
    time_dim: int = 16
    timestep_reuse: int = 4     # timestep draws per condition per example
    opt_state: AdamWState = field(default_factory=AdamWState)

    @property
    def n_levels(self) -> int:
        return len(self.plan.levels)

    def cond_dim(self, level: int) -> int:
        base = self.feature_dim + 1
        if level == self.n_levels - 1:
            base += 5 * self.plan.levels[level].token_dim
        return base

    def named_params(self) -> dict:
        out = dict(self.conv.named())
        out["gate_w"] = self.gate_w
        out["gate_b"] = self.gate_b
        for i, mlp in enumerate(self.mlps):
            out.update(mlp.named(f"mlp{i}"))
        return out


def init_model(cfg: ScaleConfig, seed: int = 0, sched: NoiseSchedule = None,
               hidden=(256, 256, 256), feature_dim: int = 16, time_dim: int = 16,
               timestep_reuse: int = 4) -> FractalModel:
    plan = build_schedule_plan(cfg)
    if sched is None:
        sched = make_linear_schedule(100)
    rng = RngStream(seed, ("init",))
    conv = vcfr.init_conv_pyramid(feature_dim, rng.child("conv"))
    mlps = []
    model = FractalModel(cfg=cfg, plan=plan, sched=sched, conv=conv,
                         gate_w=np.ones(len(plan.levels)),
                         gate_b=np.zeros(len(plan.levels)),
                         mlps=mlps, feature_dim=feature_dim, time_dim=time_dim,
                         timestep_reuse=timestep_reuse)
    for i, lv in enumerate(plan.levels):
        in_dim = lv.token_dim + time_dim + model.cond_dim(i)
        sizes = [in_dim, *hidden, lv.token_dim]
        # small final layer keeps the initial loss near the unit noise variance
        mlps.append(init_mlp(sizes, rng.child("mlp", i), final_scale=0.01))
    return model


def encode_targets(gt: DepthMap, model: FractalModel) -> list:
    """Scale-wise target latents: block means of the normalized log-depth."""
    res_final = model.cfg.final_resolution
    if gt.values.shape != (res_final, res_final):
        raise ShapeError(f"gt resolution {gt.values.shape} != ({res_final}, {res_final})")
    z_fine = log_normalize(gt, model.cfg)
    return [downsample_mean(z_fine, lv.resolution) for lv in model.plan.levels]


def _level_state(model: FractalModel, level: int, prev_latent) -> np.ndarray:
    res = model.plan.levels[level].resolution
    if level == 0 or prev_latent is None:
        return np.zeros((res, res))
    return upsample_bilinear(prev_latent, res)


def _build_condition(model: FractalModel, feats: list, state: np.ndarray, level: int,
                     want_cache: bool = False):
    lv = model.plan.levels[level]
    out = vcfr.refine_condition(feats[level], state, model.gate_w[level],
                                model.gate_b[level], lv.patch_size, want_cache=want_cache)
    pooled, fuse_cache = out if want_cache else (out, None)
    cond = vcfr.append_guidance_token(pooled, state, model.cfg)
    if level == model.n_levels - 1:
        center, ctx = split_patches_with_context(state, lv.patch_size)
        n = center.shape[0]
        cond = np.concatenate([cond, center.reshape(n, -1), ctx.reshape(n, -1)], axis=1)
    return (cond, fuse_cache) if want_cache else cond


def _predict(model: FractalModel, level: int, z_tokens: np.ndarray, t: int,
             cond: np.ndarray):
    emb = np.broadcast_to(time_embed(float(t), model.time_dim), (z_tokens.shape[0], model.time_dim))
    x = np.concatenate([z_tokens, emb, cond], axis=1)
    return mlp_forward(model.mlps[level], x)


def train_step(model: FractalModel, image: np.ndarray, gt: DepthMap, rng: RngStream,
               lr: float, weight_decay: float = 0.05) -> list:
    """One teacher-forced optimizer step; returns the per-level losses."""
    targets = encode_targets(gt, model)
    feats, feat_cache = vcfr.extract_features(image, model.cfg, model.conv, want_cache=True)
    grads = {name: np.zeros_like(p) for name, p in model.named_params().items()}
    feat_grads = [None] * model.n_levels
    losses = []
    R = model.timestep_reuse
    T = model.sched.T
    for level, lv in enumerate(model.plan.levels):
        state = _level_state(model, level, targets[level - 1] if level > 0 else None)
        cond, fuse_cache = _build_condition(model, feats, state, level, want_cache=True)
        z_star = split_patches(targets[level], lv.patch_size).reshape(lv.token_count, lv.token_dim)
        level_loss = 0.0
        dcond_total = np.zeros_like(cond)
        for r in range(R):
            t = int(rng.integers(1, T + 1, "t", level, r))
            eps = rng.normal(z_star.shape, "eps", level, r)
            z_t = forward_noise(z_star, t, eps, model.sched)
            y, cache = _predict(model, level, z_t, t, cond)
            diff = y - eps
            level_loss += float(np.mean(diff * diff)) / R
            dy = 2.0 * diff / (diff.size * R)
            g = mlp_backward(model.mlps[level], cache, dy)
            for name, gv in g.named(f"mlp{level}").items():
                grads[name] += gv
            dcond_total += g.x[:, lv.token_dim + model.time_dim:]
        losses.append(level_loss)
        if not np.isfinite(level_loss):
            raise NumericsError(f"non-finite loss at level {level}; step rejected")
        # condition gradient: only the pooled feature block trains upstream
        # parameters (guidance and patch context come from fixed targets)
        df, dw, db = vcfr.refine_condition_backward(dcond_total[:, :model.feature_dim], fuse_cache)
        grads[f"gate_w"][level] += dw
        grads[f"gate_b"][level] += db
        feat_grads[level] = df
    conv_grads = vcfr.extract_features_backward(feat_grads, model.cfg, model.conv, feat_cache)
    for name, gv in conv_grads.items():
        grads[name] += gv
    adamw_step(model.named_params(), grads, model.opt_state, lr, weight_decay=weight_decay)
    return losses


@dataclass
class GenerationTrace:
    latents: list      # per-level sampled latent grids, coarse -> fine
    depths: list       # per-level DepthMap decoded at the final resolution
    final: DepthMap


def decode_level_depth(latent: np.ndarray, model: FractalModel) -> DepthMap:
    return denormalize(upsample_bilinear(latent, model.cfg.final_resolution), model.cfg)


# Row block of the sampler's MLP forward.  On a 2-vCPU OpenBLAS host,
# 128-row blocks made an 8-sample scene slower, and 512-row blocks made it
# faster but raised its peak RSS by 5 MB, above that of unbatched sampling
# (README "Performance").
_BLOCK = 256


def _predict_blocks(mlp: MlpParams, z: np.ndarray, cond_pre: list,
                    time_row: np.ndarray) -> np.ndarray:
    """The hoisted MLP forward, one call per ``_BLOCK`` rows of ``z``.

    ``cond_pre`` holds the projected conditions block by block; the step's
    time row is added to one block at a time.
    """
    out = [mlp_forward(mlp, z[i * _BLOCK:(i + 1) * _BLOCK], block + time_row)[0]
           for i, block in enumerate(cond_pre)]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _reverse_chain(model: FractalModel, level: int, cond: np.ndarray, lrngs: list,
                   tau: float, predictor) -> np.ndarray:
    """One level's reverse chain over the N stacked samples; returns z_0.

    ``cond`` holds the N conditions stacked like the tokens, and sample k
    draws its noise from ``lrngs[k]``.
    """
    lv = model.plan.levels[level]
    if predictor is None:
        # the condition and the time embeddings do not change along the
        # chain: project them through W0 once, not at every step.  The
        # projection is kept in row blocks: a single (N*tokens, hidden)
        # array (4 MB at N = 8) raises glibc's heap thresholds and the
        # peak RSS of an 8-sample scene by 2-5 MB
        mlp = model.mlps[level]
        w0 = mlp.weights[0]
        d = lv.token_dim
        cond_pre = [cond[r:r + _BLOCK] @ w0[d + model.time_dim:] + mlp.biases[0]
                    for r in range(0, cond.shape[0], _BLOCK)]
        time_pre = (time_embed(np.arange(1, model.sched.T + 1), model.time_dim)
                    @ w0[d:d + model.time_dim])

        def pred(z, t, _cond):
            return _predict_blocks(mlp, z, cond_pre, time_pre[t - 1])
    else:
        def pred(z, t, c):
            return predictor(level, z, t, c)
    return sample(pred, cond, (lv.token_count, lv.token_dim), model.sched, tau,
                  [r.child("tokens") for r in lrngs])


def generate(model: FractalModel, image: np.ndarray, rng, tau: float = 0.0,
             predictor=None):
    """Full coarse-to-fine generation pass.

    ``rng`` is one :class:`RngStream`, which gives one
    :class:`GenerationTrace`, or a sequence of N streams, which gives a list
    of N traces of the same image.  The N reverse chains run as one batch:
    the conv features are computed once, and each level stacks the N
    samples' tokens and conditions into ``(N*tokens, dim)`` arrays, so every
    step of ``diffusion.sample`` is one ``reverse_step`` and a few MLP calls
    of at most ``_BLOCK`` rows.  Sample k draws its noise from stream k on the
    same paths as a single run on that stream.

    ``predictor(level, z_tokens, t, cond)`` overrides the trained MLPs when
    given (used by the analytic-noise oracle tests); it receives the stacked
    tokens and conditions.
    """
    single = isinstance(rng, RngStream)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise InputError("generate needs at least one RNG stream")
    image = np.asarray(image, dtype=np.float64)
    if not np.all(np.isfinite(image)):
        raise InputError("image has non-finite pixels")
    feats = vcfr.extract_features(image, model.cfg, model.conv)
    latents = [[] for _ in rngs]
    for level, lv in enumerate(model.plan.levels):
        prevs = [l[-1] if l else None for l in latents]
        cond = np.concatenate([_build_condition(model, feats, _level_state(model, level, p), level)
                               for p in prevs])
        z = _reverse_chain(model, level, cond, [r.child("level", level) for r in rngs], tau,
                           predictor)
        for k, zk in enumerate(np.split(z, len(rngs))):
            latents[k].append(reassemble_patches(
                zk.reshape(lv.token_count, lv.patch_size, lv.patch_size), lv.resolution))
    traces = []
    for sample_latents in latents:
        depths = [decode_level_depth(latent, model) for latent in sample_latents]
        traces.append(GenerationTrace(latents=sample_latents, depths=depths, final=depths[-1]))
    return traces[0] if single else traces


# --- Checkpoint + trace persistence ---------------------------------------

def model_meta(model: FractalModel) -> dict:
    return {
        "levels": [list(l) for l in model.cfg.levels],
        "d_min": model.cfg.d_min,
        "d_max": model.cfg.d_max,
        "T": model.sched.T,
        "beta_start": float(model.sched.beta[0]),
        "beta_end": float(model.sched.beta[-1]),
        "feature_dim": model.feature_dim,
        "time_dim": model.time_dim,
        "timestep_reuse": model.timestep_reuse,
        "hidden": [int(s) for s in model.mlps[0].sizes[1:-1]],
        "level_index": list(range(len(model.plan.levels))),
    }


def save_model(path, model: FractalModel) -> None:
    from .nnet import save_checkpoint
    save_checkpoint(path, model.named_params(), meta=model_meta(model))


def load_model(path) -> FractalModel:
    from .nnet import load_checkpoint
    params, meta = load_checkpoint(path)
    cfg = ScaleConfig(levels=tuple(tuple(l) for l in meta["levels"]),
                      d_min=meta["d_min"], d_max=meta["d_max"])
    sched = make_linear_schedule(meta["T"], meta["beta_start"], meta["beta_end"])
    model = init_model(cfg, sched=sched, hidden=tuple(meta["hidden"]),
                       feature_dim=meta["feature_dim"], time_dim=meta["time_dim"],
                       timestep_reuse=meta["timestep_reuse"])
    for name, p in model.named_params().items():
        p[...] = params[name]
    return model


def save_trace(trace: GenerationTrace, out_dir, manifest: dict) -> None:
    """Per-level PFM latents, final PGM/PFM depth and a key=value manifest."""
    from .imgio import write_depth_pfm, write_pfm, write_pgm16
    os.makedirs(out_dir, exist_ok=True)
    for i, latent in enumerate(trace.latents):
        write_pfm(os.path.join(out_dir, f"latent_level{i}.pfm"), latent)
    write_depth_pfm(os.path.join(out_dir, "depth.pfm"), trace.final)
    write_pgm16(os.path.join(out_dir, "depth.pgm"), trace.final)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        for k, v in manifest.items():
            f.write(f"{k}={v}\n")
