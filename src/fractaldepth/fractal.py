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
from .diffusion import NoiseSchedule, forward_noise, make_linear_schedule, respace, sample
# not called here: perfbench/tracer.py times reverse steps by patching this binding
from .diffusion import reverse_step  # noqa: F401
from .errors import ConfigError, FractalDepthError, InputError, NumericsError, ShapeError
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
    feature_dim: int
    time_dim: int
    timestep_reuse: int         # timestep draws per condition per example
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


def init_model(cfg: ScaleConfig, seed: int = 0, *, sched: NoiseSchedule,
               hidden=(256, 256, 256), feature_dim: int = 16, time_dim: int = 16,
               timestep_reuse: int = 4) -> FractalModel:
    rng = RngStream(seed, ("init",))
    # small final layer keeps the initial loss near the unit noise variance
    return _assemble_model(cfg, sched, hidden, feature_dim, time_dim, timestep_reuse,
                           lambda f: vcfr.init_conv_pyramid(f, rng.child("conv")),
                           lambda i, sizes: init_mlp(sizes, rng.child("mlp", i),
                                                     final_scale=0.01))


def _assemble_model(cfg: ScaleConfig, sched: NoiseSchedule, hidden, feature_dim: int,
                    time_dim: int, timestep_reuse: int, make_conv, make_mlp) -> FractalModel:
    """The model around the conv pyramid ``make_conv(feature_dim)``; level
    i's MLP is ``make_mlp(i, layer sizes)``."""
    if timestep_reuse < 1:
        raise ConfigError(f"timestep_reuse must be >= 1, got {timestep_reuse}")
    if min((feature_dim, time_dim, *hidden)) < 1:
        raise ConfigError(f"layer sizes must be >= 1, got hidden={tuple(hidden)}, "
                          f"feature_dim={feature_dim}, time_dim={time_dim}")
    plan = build_schedule_plan(cfg)
    model = FractalModel(cfg=cfg, plan=plan, sched=sched, conv=make_conv(feature_dim),
                         gate_w=np.ones(len(plan.levels)),
                         gate_b=np.zeros(len(plan.levels)),
                         mlps=[], feature_dim=feature_dim, time_dim=time_dim,
                         timestep_reuse=timestep_reuse)
    for i, lv in enumerate(plan.levels):
        in_dim = lv.token_dim + time_dim + model.cond_dim(i)
        model.mlps.append(make_mlp(i, [in_dim, *hidden, lv.token_dim]))
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


def _build_condition(model: FractalModel, feats: list, state: np.ndarray, level: int):
    """The level's condition rows, and the cache of its VCFR fusion."""
    lv = model.plan.levels[level]
    pooled, fuse_cache = vcfr.refine_condition(feats[level], state, model.gate_w[level],
                                               model.gate_b[level], lv.patch_size)
    cond = vcfr.append_guidance_token(pooled, state, model.cfg)
    if level == model.n_levels - 1:
        center, ctx = split_patches_with_context(state, lv.patch_size)
        n = center.shape[0]
        cond = np.concatenate([cond, center.reshape(n, -1), ctx.reshape(n, -1)], axis=1)
    return cond, fuse_cache


# Rows of one stacked forward/backward in training: whole draws of a level,
# at least one.  On a 2-vCPU OpenBLAS host, 1024-row blocks (level 2's four
# draws at once) made desk_train slower (p50 61.4-62.2 against 58.0-58.9 ms)
# and raised its peak RSS from 76 to 89.5 MB (README "Performance").
_TRAIN_BLOCK = 256


def _level_loss_and_grads(model: FractalModel, level: int, z_star: np.ndarray,
                          cond: np.ndarray, rng: RngStream):
    """The denoising loss of one level, averaged over its R timestep draws.

    Returns the loss, the gradients of the level's MLP by parameter name,
    and the gradient of the condition's pooled-feature columns.  The draws'
    rows are stacked and run through the MLP in blocks of whole draws, one
    forward and one backward per block; the condition, which every draw
    shares, is projected through its rows of W0 once.
    """
    lv = model.plan.levels[level]
    mlp = model.mlps[level]
    n, d, td = lv.token_count, lv.token_dim, model.time_dim
    R = model.timestep_reuse
    x = np.empty((R * n, d + td))          # each draw's [z_t, time] rows
    eps = np.empty((R * n, d))
    for r in range(R):
        t = int(rng.integers(1, model.sched.T + 1, "t", level, r))
        rows = slice(r * n, (r + 1) * n)
        eps[rows] = rng.normal((n, d), "eps", level, r)
        x[rows, :d] = forward_noise(z_star, t, eps[rows], model.sched)
        x[rows, d:] = time_embed(float(t), td)
    w0 = mlp.weights[0]
    cond_pre = cond @ w0[d + td:] + mlp.biases[0]
    per_block = min(R, max(1, _TRAIN_BLOCK // n))
    pre0 = np.tile(cond_pre, (per_block, 1)) if per_block > 1 else cond_pre
    total = None                           # the blocks' MlpGrads, summed
    sq_sum = 0.0
    for lo in range(0, R, per_block):
        k = min(per_block, R - lo)
        rows = slice(lo * n, (lo + k) * n)
        y, cache = mlp_forward(mlp, x[rows], pre0[:k * n])
        y -= eps[rows]
        sq_sum += float(np.vdot(y, y))
        y *= 2.0 / (n * d * R)
        g = mlp_backward(mlp, cache, y)
        # one block's activations at a time: holding them into the next
        # block's forward raised desk_train's peak RSS by 2-3 MB
        del y, cache
        g0 = g.pre0.reshape(k, n, -1).sum(axis=0)    # summed over the draws
        if total is None:
            total, g0_sum = g, g0
        else:
            for acc, part in zip(total.weights + total.biases, g.weights + g.biases):
                acc += part
            g0_sum += g0
        del g
    # the backward gave W0's [z_t, time] rows; the condition rows follow
    w0_grad = np.empty_like(w0)
    w0_grad[:d + td] = total.weights[0]
    np.matmul(cond.T, g0_sum, out=w0_grad[d + td:])
    total.weights[0] = w0_grad
    return (sq_sum / (n * d * R), total.named(f"mlp{level}"),
            g0_sum @ w0[d + td:d + td + model.feature_dim].T)


def loss_and_grads(model: FractalModel, image: np.ndarray, gt: DepthMap, rng: RngStream):
    """The per-level losses of one teacher-forced step, and the gradients of
    their sum by parameter name.  ``NumericsError`` if a loss is not finite."""
    targets = encode_targets(gt, model)
    feats, feat_cache = vcfr.extract_features(image, model.cfg, model.conv)
    grads = {"gate_w": np.zeros(model.n_levels), "gate_b": np.zeros(model.n_levels)}
    feat_grads = []
    losses = []
    for level, lv in enumerate(model.plan.levels):
        state = _level_state(model, level, targets[level - 1] if level > 0 else None)
        cond, fuse_cache = _build_condition(model, feats, state, level)
        z_star = split_patches(targets[level], lv.patch_size).reshape(lv.token_count, lv.token_dim)
        level_loss, mlp_grads, dfeat = _level_loss_and_grads(model, level, z_star, cond, rng)
        losses.append(level_loss)
        if not np.isfinite(level_loss):
            raise NumericsError(f"non-finite loss at level {level}; step rejected")
        grads.update(mlp_grads)
        # condition gradient: only the pooled feature block trains upstream
        # parameters (guidance and patch context come from fixed targets)
        df, dw, db = vcfr.refine_condition_backward(dfeat, fuse_cache)
        grads["gate_w"][level] = dw
        grads["gate_b"][level] = db
        feat_grads.append(df)
    grads.update(vcfr.extract_features_backward(feat_grads, model.cfg, model.conv, feat_cache))
    return losses, grads


def train_step(model: FractalModel, image: np.ndarray, gt: DepthMap, rng: RngStream,
               lr: float, weight_decay: float = 0.05) -> list:
    """One teacher-forced optimizer step; returns the per-level losses."""
    losses, grads = loss_and_grads(model, image, gt, rng)
    adamw_step(model.named_params(), grads, model.opt_state, lr, weight_decay=weight_decay)
    return losses


@dataclass
class GenerationTrace:
    latents: list      # per-level sampled latent grids, coarse -> fine
    final: DepthMap    # the finest latent decoded


def decode_level_depth(latent: np.ndarray, model: FractalModel) -> DepthMap:
    return denormalize(upsample_bilinear(latent, model.cfg.final_resolution), model.cfg)


# Reverse steps per level at generation: the kept timesteps of
# ``diffusion.respace``.  On the desk reference checkpoint (16 held-out
# scenes, tau = 0) 15 steps read RMSE 0.702 against 0.692 with all 60, and
# 10 steps 0.717 (README "Performance").
SAMPLE_STEPS = 15


def sample_steps(model: FractalModel) -> int:
    """The reverse steps each level of ``generate`` runs."""
    return min(SAMPLE_STEPS, model.sched.T)


# Row block of the sampler's MLP forward, sized by bytes: a (512, 256)
# float32 hidden activation is 0.5 MB, as the 256-row float64 block was.  On
# a 2-vCPU OpenBLAS host, 512-row float32 blocks made an 8-sample scene
# faster than 256-row ones at the same peak RSS; with float64, 512 rows had
# raised the peak RSS by 5 MB (README "Performance").
_BLOCK = 512


def _predict_blocks(mlp: MlpParams, z: np.ndarray, cond_pre: list,
                    time_row: np.ndarray) -> np.ndarray:
    """The hoisted MLP forward, one call per ``_BLOCK`` rows of ``z``.

    ``cond_pre`` holds the projected conditions block by block; the step's
    time row is added to one block at a time.  The output has the dtype of
    ``mlp``.
    """
    out = [mlp_forward(mlp, z[i * _BLOCK:(i + 1) * _BLOCK], block + time_row,
                       want_cache=False)[0]
           for i, block in enumerate(cond_pre)]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _reverse_chain(model: FractalModel, level: int, cond: np.ndarray, lrngs: list,
                   tau: float, predictor) -> np.ndarray:
    """One level's reverse chain over the N stacked samples; returns z_0.

    ``cond`` holds the N conditions stacked like the tokens, and sample k
    draws its noise from ``lrngs[k]``.  The chain runs on the
    ``sample_steps(model)`` kept timesteps of ``model.sched``.

    The level's MLP runs in float32, on copies of its weights made here, so
    a model changed by training never leaves a stale copy.  The chain state
    and every step around the MLP stay float64; a ``predictor`` is called
    with float64 arrays.
    """
    lv = model.plan.levels[level]
    sched = respace(model.sched, sample_steps(model))
    if predictor is None:
        # the condition and the time embeddings do not change along the
        # chain: project them through W0 once (in float64), not at every
        # step.  The projection is kept in row blocks: a single
        # (N*tokens, hidden) array (4 MB at N = 8 in float64) raises glibc's
        # heap thresholds and the peak RSS of an 8-sample scene by 2-5 MB
        mlp = model.mlps[level]
        w0 = mlp.weights[0]
        d = lv.token_dim
        cond_pre = [(cond[r:r + _BLOCK] @ w0[d + model.time_dim:] + mlp.biases[0])
                    .astype(np.float32) for r in range(0, cond.shape[0], _BLOCK)]
        time_pre = time_embed(sched.t, model.time_dim) @ w0[d:d + model.time_dim]
        time_rows = dict(zip(sched.t.tolist(), time_pre.astype(np.float32)))
        mlp32 = MlpParams(weights=[w.astype(np.float32) for w in mlp.weights],
                          biases=[b.astype(np.float32) for b in mlp.biases])

        def pred(z, t, _cond):
            eps = _predict_blocks(mlp32, z.astype(np.float32), cond_pre, time_rows[t])
            return eps.astype(np.float64)
    else:
        def pred(z, t, c):
            return predictor(level, z, t, c)
    return sample(pred, cond, (lv.token_count, lv.token_dim), sched, tau,
                  [r.child("tokens") for r in lrngs])


def generate(model: FractalModel, image: np.ndarray, rng, tau: float = 0.0,
             predictor=None):
    """Full coarse-to-fine generation pass.

    ``rng`` is one :class:`RngStream`, which gives one
    :class:`GenerationTrace`, or a sequence of N streams, which gives a list
    of N traces of the same image.  The N reverse chains run as one batch:
    the conv features are computed once, and each level stacks the N
    samples' tokens and conditions into ``(N*tokens, dim)`` arrays, so every
    step of ``diffusion.sample`` is one ``reverse_step`` and a few float32
    MLP calls of at most ``_BLOCK`` rows.  Sample k draws its noise from
    stream k on the same paths as a single run on that stream.

    ``predictor(level, z_tokens, t, cond)`` overrides the trained MLPs when
    given (used by the analytic-noise oracle tests); it receives the stacked
    tokens and conditions as float64 arrays.
    """
    single = isinstance(rng, RngStream)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise InputError("generate needs at least one RNG stream")
    image = np.asarray(image, dtype=np.float64)
    if not np.all(np.isfinite(image)):
        raise InputError("image has non-finite pixels")
    # [0] drops the conv cache here: held, it would stay alive through every
    # chain (27 MB at 256 x 256)
    feats = vcfr.extract_features(image, model.cfg, model.conv)[0]
    latents = [[] for _ in rngs]
    for level, lv in enumerate(model.plan.levels):
        prevs = [l[-1] if l else None for l in latents]
        cond = np.concatenate([_build_condition(model, feats, _level_state(model, level, p),
                                                level)[0] for p in prevs])
        z = _reverse_chain(model, level, cond, [r.child("level", level) for r in rngs], tau,
                           predictor)
        for k, zk in enumerate(np.split(z, len(rngs))):
            latents[k].append(reassemble_patches(
                zk.reshape(lv.token_count, lv.patch_size, lv.patch_size), lv.resolution))
    traces = [GenerationTrace(latents=l, final=decode_level_depth(l[-1], model)) for l in latents]
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
    }


def save_model(path, model: FractalModel) -> None:
    from .nnet import save_checkpoint
    save_checkpoint(path, model.named_params(), meta=model_meta(model))


def load_model(path) -> FractalModel:
    """Rebuild a model from a checkpoint; ``ConfigError`` naming the path if
    its meta or tensors do not describe one.

    The model is built from the manifest first, on uninitialised storage
    (no random initialisation is drawn), and each tensor's bytes are then
    read straight into its parameter array.
    """
    from .nnet import read_checkpoint_manifest, read_checkpoint_tensors
    with open(path, "rb") as f:
        meta, entries = read_checkpoint_manifest(f, path)
        try:
            cfg = ScaleConfig(levels=tuple(tuple(l) for l in meta["levels"]),
                              d_min=meta["d_min"], d_max=meta["d_max"])
            sched = make_linear_schedule(meta["T"], meta["beta_start"], meta["beta_end"])
            model = _assemble_model(cfg, sched, tuple(meta["hidden"]), meta["feature_dim"],
                                    meta["time_dim"], meta["timestep_reuse"],
                                    vcfr.ConvPyramidParams.empty,
                                    lambda i, sizes: MlpParams.empty(sizes))
        except (KeyError, TypeError, ValueError, FractalDepthError) as e:
            raise ConfigError(f"{path}: checkpoint meta does not describe a model: {e!r}") from e
        named = model.named_params()
        shapes = dict(entries)
        if set(named) != set(shapes):
            raise ConfigError(f"{path}: checkpoint tensors {sorted(set(shapes) ^ set(named))} "
                              "do not match the model")
        for name, p in named.items():
            if shapes[name] != p.shape:
                raise ConfigError(f"{path}: tensor {name!r} has shape {shapes[name]}, "
                                  f"the model needs {p.shape}")
        read_checkpoint_tensors(f, path, entries, lambda name, shape: named[name])
    return model


def save_trace(trace: GenerationTrace, out_dir, manifest: dict) -> None:
    """Per-level PFM latents, final PGM/PFM depth and a key=value manifest."""
    # imported at call time, so that perfbench/tracer.py's patched writers are seen
    from .imgio import write_pfm, write_pgm16
    os.makedirs(out_dir, exist_ok=True)
    for i, latent in enumerate(trace.latents):
        write_pfm(os.path.join(out_dir, f"latent_level{i}.pfm"), latent)
    write_pfm(os.path.join(out_dir, "depth.pfm"), trace.final.values)
    write_pgm16(os.path.join(out_dir, "depth.pgm"), trace.final)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        for k, v in manifest.items():
            f.write(f"{k}={v}\n")
