"""Coarse-to-fine recursive depth generation.

A model is its :class:`ModelSpec` plus its parameters; its scale config and
noise schedule are derived from the spec.  Each level (a ``core.Level``)
runs a noise-predictor MLP sized for its token layout, and by default levels
whose MLP sizes are equal share one: the base unit the self-similar
hierarchy repeats (the finest level, whose condition carries the patch
context, keeps its own).  The level condition is built by the VCFR fusion
from the image features and the depth state: zeros at level 0, then the
previous level's latent upsampled (teacher-forced targets during training,
sampled latents during generation), by one rule for both.  The finest level
additionally receives the center patch and its 4-neighborhood context of
that state.

Every parameter is float32, the one dtype training, generation and AdamW
work in: the conv pyramid and the MLPs run on the model's own arrays, with
no per-call copy.  Float64 remains where a sum needs it: the squared
errors, the conv bias sums over the pixels, the condition projections, W0's
condition rows and the ``pre0`` gradient sums, and the chain state.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import imgio, vcfr
from .core import (DepthMap, ScaleConfig, checked_int, denormalize, downsample_mean,
                   log_normalize, reassemble_patches, split_patches, split_patches_with_context,
                   upsample_bilinear)
from .diffusion import NoiseSchedule, forward_noise, make_linear_schedule, respace, sample
# not called here: perfbench/tracer.py times reverse steps by patching this binding
from .diffusion import reverse_step  # noqa: F401
from .errors import ConfigError, FractalDepthError, InputError, NumericsError, ShapeError
from .nnet import (AdamWState, MlpGrads, MlpParams, Workspace, adamw_step, check_tensor_shapes,
                   frame, init_mlp, mlp_backward, mlp_forward, load_checkpoint, save_checkpoint,
                   scratch, time_embed)
from .rng import RngStream


# Bounds on a spec's sizes, each checked before any array of its model or
# its noise schedule exists, so that a typo in a config or a checkpoint's
# meta fails with ConfigError, not in the allocator:
# - MAX_T: each of the schedule's five float64 arrays holds T values.
#   100 000 steps (0.8 MB an array) are 25 times the 4000-step chains of
#   Nichol & Dhariwal (arXiv:2102.09672).
# - MAX_HIDDEN_LAYERS: a layer costs what its parameter count does not
#   show.  Per distinct MLP it holds about 1 KB of Python objects (its
#   arrays, their AdamW moments, gradients and names), and it adds one
#   Python-level GEMM call to each MLP call.  Layers of width 1 add 2
#   parameters each, so MAX_PARAMS alone would admit some 16M of them on a
#   two-MLP model: about 30 GB of objects, and hours per training step.
#   The unit has 3 (RunConfig's default); 64 leaves room for any depth study.
# - MAX_PARAMS: training holds four float32 copies of the parameters (the
#   weights, their gradients and AdamW's two moments), 1 GiB at 2**26; the
#   desk model has 0.4M and the paper-scale one 0.7M.  Counted from the
#   sizes (ModelSpec.param_count), never allocated.
MAX_T = 100_000
MAX_HIDDEN_LAYERS = 64
MAX_PARAMS = 2 ** 26


@dataclass(frozen=True)
class ModelSpec:
    """Everything that shapes a model: its level layout and depth range, its
    noise schedule, and the sizes of the unit every level repeats (the MLP's
    hidden widths, the conv features, the time embedding) with the timestep
    draws of a training step, and whether levels of equal MLP sizes share
    one unit (the default, the layout ``RunConfig`` builds; false gives one
    MLP per level).  A checkpoint's meta is ``asdict(spec)``.

    Construction normalises ``levels`` to a tuple of ``core.Level`` and
    ``hidden`` to a tuple of ints, and raises ``ConfigError`` unless the spec
    builds a model within ``MAX_T``, ``MAX_HIDDEN_LAYERS`` and
    ``MAX_PARAMS``; an int field (a level's resolution or patch, ``T``, a
    hidden width, ``feature_dim``, ``time_dim``, ``timestep_reuse``) takes an
    int or a numpy integer, and its error names the field.
    """

    levels: tuple            # (Level, ...) coarse -> fine
    d_min: float
    d_max: float
    T: int
    beta_start: float
    beta_end: float
    hidden: tuple            # MLP hidden widths
    feature_dim: int
    time_dim: int
    timestep_reuse: int      # timestep draws per condition per example
    shared_unit: bool = True    # levels of equal MLP sizes share one MLP

    def __post_init__(self):
        for name in ("T", "feature_dim", "time_dim", "timestep_reuse"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        if len(self.hidden) > MAX_HIDDEN_LAYERS:
            raise ConfigError(f"hidden has {len(self.hidden)} layers, beyond "
                              f"MAX_HIDDEN_LAYERS = {MAX_HIDDEN_LAYERS}")
        object.__setattr__(self, "hidden", tuple(checked_int("hidden", h) for h in self.hidden))
        # each raises ConfigError unless valid
        object.__setattr__(self, "levels", self.scale().levels)
        if self.T > MAX_T:
            raise ConfigError(f"T = {self.T} is beyond MAX_T = {MAX_T}")
        self.schedule()
        if self.timestep_reuse < 1:
            raise ConfigError(f"timestep_reuse must be >= 1, got {self.timestep_reuse}")
        if min((self.feature_dim, self.time_dim, *self.hidden)) < 1 or self.time_dim % 2:
            raise ConfigError(f"layer sizes must be >= 1 and time_dim even (sin/cos pairs), got "
                              f"hidden={self.hidden}, feature_dim={self.feature_dim}, "
                              f"time_dim={self.time_dim}")
        if not isinstance(self.shared_unit, bool):
            raise ConfigError(f"shared_unit must be a bool, got {self.shared_unit!r}")
        if self.param_count() > MAX_PARAMS:
            raise ConfigError(f"hidden widths {self.hidden} with feature_dim={self.feature_dim}, "
                              f"time_dim={self.time_dim} on these levels make "
                              f"{self.param_count():,} parameters, beyond "
                              f"MAX_PARAMS = {MAX_PARAMS:,}")

    def scale(self) -> ScaleConfig:
        return ScaleConfig(levels=self.levels, d_min=self.d_min, d_max=self.d_max)

    def schedule(self) -> NoiseSchedule:
        return make_linear_schedule(self.T, self.beta_start, self.beta_end)

    def mlp_sizes(self) -> list:
        """Each level's MLP sizes: the input ([z_t, time] and the condition:
        pooled features and the guidance token, and at the finest level the
        center patch and its 4-neighborhood context), the hidden widths and
        the token."""
        last = len(self.levels) - 1
        return [(lv.token_dim + self.time_dim + self.feature_dim + 1
                 + (5 * lv.token_dim if i == last else 0), *self.hidden, lv.token_dim)
                for i, lv in enumerate(self.levels)]

    def param_count(self) -> int:
        """The parameters of the spec's model, counted from its sizes: the
        conv pyramid, two gate scalars per level and each distinct MLP."""
        f = self.feature_dim
        mlps = set(self.mlp_sizes()) if self.shared_unit else self.mlp_sizes()
        return (27 * f + f + 9 * f * f + f + 2 * len(self.levels)
                + sum(a * b + b for sizes in mlps for a, b in zip(sizes[:-1], sizes[1:])))


@dataclass
class FractalModel:
    """A model is its spec plus its parameters; its scale config ``cfg`` and
    noise schedule ``sched`` are derived from the spec, never passed in."""

    spec: ModelSpec
    conv: vcfr.ConvPyramidParams
    gate_w: np.ndarray          # (L,) fusion gate scales
    gate_b: np.ndarray          # (L,) fusion gate shifts
    mlps: list                  # each level's MlpParams; shared levels hold one object
    # every parameter array (conv, gate_w, gate_b, mlps) is float32
    opt_state: AdamWState = field(default_factory=AdamWState)

    def __post_init__(self):
        self.cfg = self.spec.scale()
        self.sched = self.spec.schedule()
        # train_step's scratch arrays, reused from step to step: not a field,
        # so never saved or compared, not a parameter, and empty in a new,
        # loaded or copied model
        self.workspace = Workspace()
        # the same ScaleConfig under a second name, kept only because the
        # benchmark's generation check (perfbench/workloads.py) reads
        # model.plan.levels
        self.plan = self.cfg

    @property
    def n_levels(self) -> int:
        return len(self.cfg.levels)

    def units(self) -> list:
        """``(name, mlp, levels)`` for each distinct MLP, in the order of its
        first level.  One level's own MLP is ``mlp<level>``; a unit that
        several levels share is ``unit`` (further ones, on layouts that have
        them, ``unit1``, ``unit2``, ...)."""
        levels = {}
        for i, mlp in enumerate(self.mlps):
            levels.setdefault(id(mlp), []).append(i)
        out = []
        for ls in levels.values():
            shared = sum(len(u[2]) > 1 for u in out)
            name = f"mlp{ls[0]}" if len(ls) == 1 else f"unit{shared or ''}"
            out.append((name, self.mlps[ls[0]], tuple(ls)))
        return out

    def named_params(self) -> dict:
        """Every parameter array once, by name: a shared unit's as ``unit.*``."""
        out = dict(self.conv.named())
        out["gate_w"] = self.gate_w
        out["gate_b"] = self.gate_b
        for name, mlp, _ in self.units():
            out.update(mlp.named(name))
        return out


def _empty_model(spec: ModelSpec, alloc=np.empty) -> FractalModel:
    """The model of ``spec`` on uninitialised float32 storage (the gates at
    scale 1 and shift 0), for an initialisation or a checkpoint to fill;
    ``alloc(shape, dtype)`` makes each conv and MLP array."""
    n = len(spec.levels)
    units = {}           # the MLPs by sizes when levels share them, else by level
    mlps = []
    for i, sizes in enumerate(spec.mlp_sizes()):
        key = sizes if spec.shared_unit else i
        if key not in units:
            units[key] = MlpParams.empty(sizes, alloc)
        mlps.append(units[key])
    return FractalModel(spec=spec, conv=vcfr.ConvPyramidParams.empty(spec.feature_dim, alloc),
                        gate_w=np.ones(n, np.float32), gate_b=np.zeros(n, np.float32),
                        mlps=mlps)


def init_model(spec: ModelSpec, seed: int) -> FractalModel:
    """The seeded model of ``spec``: float64 draws, stored rounded to float32."""
    model = _empty_model(spec)
    rng = RngStream(seed, ("init",))
    for name, value in vcfr.init_conv_pyramid(spec.feature_dim, rng.child("conv")).named().items():
        model.named_params()[name][...] = value
    # each MLP is drawn on the path of its first level, a shared unit on
    # level 0's, and stored layer by layer; a small final layer keeps the
    # initial loss near the unit noise variance
    for _, mlp, levels in model.units():
        init_mlp(mlp.sizes, rng.child("mlp", levels[0]), final_scale=0.01, into=mlp)
    return model


def encode_targets(gt: DepthMap, model: FractalModel) -> list:
    """Scale-wise target latents: block means of the normalized log-depth."""
    res_final = model.cfg.final_resolution
    if gt.values.shape != (res_final, res_final):
        raise ShapeError(f"gt resolution {gt.values.shape} != ({res_final}, {res_final})")
    z_fine = log_normalize(gt, model.cfg)
    return [downsample_mean(z_fine, lv.resolution) for lv in model.cfg.levels]


def _build_condition(model: FractalModel, feats: list, prev_latent, level: int,
                     ws: Workspace = None):
    """The level's condition rows, and the cache of its VCFR fusion (whose
    scratch array is a region of ``ws``).

    The depth state they are built from is zeros at level 0 (``prev_latent``
    None), and after it ``prev_latent``, the previous level's latent (its
    target in training, its sample in generation), upsampled to the level's
    grid."""
    lv = model.cfg.levels[level]
    state = (np.zeros((lv.resolution, lv.resolution)) if prev_latent is None
             else upsample_bilinear(prev_latent, lv.resolution))
    pooled, fuse_cache = vcfr.refine_condition(feats[level], state, model.gate_w[level],
                                               model.gate_b[level], lv.patch_size, ws)
    cond = vcfr.append_guidance_token(pooled, state, model.cfg)
    if level == model.n_levels - 1:
        center, ctx = split_patches_with_context(state, lv.patch_size)
        n = center.shape[0]
        cond = np.concatenate([cond, center.reshape(n, -1), ctx.reshape(n, -1)], axis=1)
    return cond, fuse_cache


_F32_MAX = float(np.finfo(np.float32).max)


def _checked_image(image) -> np.ndarray:
    """``image`` as float64; ``InputError`` for a pixel that is nan, inf or
    beyond float32's range, which the float32 conv pyramid of training and
    generation would turn into inf."""
    image = np.asarray(image, dtype=np.float64)
    if not np.all(np.abs(image) <= _F32_MAX):
        raise InputError("image has pixels that are nan, inf or beyond float32's range")
    return image


# Rows of one float32 MLP call, in training (whole timestep draws, at least
# one) and at generation.  Sized by bytes: a (512, 256) float32 hidden
# activation is 0.5 MB, as the former 256-row float64 block was.  On a
# 2-vCPU OpenBLAS host (README "Performance"):
# - training (10 s desk_train runs, 3 seeds): blocks of 256, 512 and 1024
#   rows read p50 21.4-22.2, 20.2-20.5 and 20.9-21.5 ms, at peak RSS 74.1,
#   74.6-75.3 and 78.3-80.0 MB;
# - generation: 512-row blocks made an 8-sample scene faster than 256-row
#   ones at the same peak RSS; with float64, 512 rows had raised the peak
#   RSS by 5 MB.  One call per step over all rows (no blocks) read desk_fuse8
#   p50 121.0-121.7 ms against 118.7-119.6 ms, at peak RSS 63.4 MB against
#   59.0-59.6 MB.
_BLOCK = 512


def _unit_loss_and_grads(model: FractalModel, name: str, mlp: MlpParams, levels: tuple,
                         z_stars: list, conds: list, rng: RngStream, ws: Workspace):
    """The denoising losses of the levels that run ``mlp``, the unit
    ``name``, each averaged over its R timestep draws, and the gradients of
    their sum.

    Returns each level's loss and its condition's pooled-feature gradient,
    by level, and the unit's :class:`MlpGrads`.  The rows of every draw of
    every level of the unit are stacked, level after level (desk levels
    0-2: 4 + 64 + 1024 rows), and run through the MLP in blocks of whole
    draws of at most ``_BLOCK`` rows, one forward and one backward per
    block.  Each level's condition, which its draws share, is projected
    through its rows of W0 once; each level's loss and ``pre0`` gradient are
    read from its own rows, and the unit's gradient is the sum of its
    levels'.

    Its large arrays are regions of the workspace ``ws``, in a frame of
    their own, so every unit of a step runs in the same memory; the MLP's
    are bound at the size of the largest block, so that every block reuses
    them.  The unit's gradients, ``("grad", name, ...)``, are bound in the
    caller's frame and outlive the call.

    The MLP forward and backward run in float32 on the model's own weights,
    as at generation, without loss scaling, and the unit's weight and bias
    gradients are float32: the first block's copied in, the later blocks'
    added in place.  The condition projections are float64 and cast to
    float32 once.  The squared-error sums, the ``pre0`` gradient sums over
    the draws, W0's condition rows (stored into the float32 W0 gradient)
    and the feature gradients are float64.  ``NumericsError`` names the
    first level whose loss is not finite (a float32 overflow among them),
    before that block's backward.
    """
    d = model.cfg.levels[levels[0]].token_dim      # equal sizes: one token_dim
    td, R, k = model.spec.time_dim, model.spec.timestep_reuse, d + model.spec.time_dim
    # each draw's (level, r, first row, rows), packed in order into blocks
    # of at most _BLOCK rows (a longer draw alone)
    blocks, rows = [[]], 0
    for level in levels:
        n = model.cfg.levels[level].token_count
        for r in range(R):
            if blocks[-1] and rows + n - blocks[-1][0][2] > _BLOCK:
                blocks.append([])
            blocks[-1].append((level, r, rows, n))
            rows += n
    total = MlpGrads(weights=[scratch(ws, ("grad", name, "w", i), w.shape, w.dtype)
                              for i, w in enumerate(mlp.weights)],
                     biases=[scratch(ws, ("grad", name, "b", i), b.shape, b.dtype)
                             for i, b in enumerate(mlp.biases)], pre0=None)
    with frame(ws):
        x = scratch(ws, "x", (rows, k))                  # each draw's [z_t, time] rows
        eps = scratch(ws, "eps", (rows, d), np.float64)
        for level, r, lo, n in (draw for block in blocks for draw in block):
            t = int(rng.integers(1, model.sched.T + 1, "t", level, r))
            eps[lo:lo + n] = rng.normal((n, d), "eps", level, r)
            x[lo:lo + n, :d] = forward_noise(z_stars[level], t, eps[lo:lo + n], model.sched)
            x[lo:lo + n, d:] = time_embed(float(t), td)
        w0 = mlp.weights[0]
        cond_pre, g0 = {}, {}              # g0: float64 sums over draws
        for j, l in enumerate(levels):
            cond_pre[l] = scratch(ws, ("cond.pre0", j), (conds[l].shape[0], w0.shape[1]))
            g0[l] = scratch(ws, ("cond.dpre0", j), cond_pre[l].shape, np.float64)
            g0[l].fill(0.0)
        # each level's condition projected through W0's condition rows (cast
        # to float64 once, as the mixed product would) plus b0, in float32
        with frame(ws):
            w0_cond = scratch(ws, "w0.cond", w0[k:].shape, np.float64)
            w0_cond[...] = w0[k:]
            for l in levels:
                proj = np.matmul(conds[l], w0_cond,
                                 out=scratch(ws, "cond.proj", cond_pre[l].shape, np.float64))
                proj += mlp.biases[0]
                cond_pre[l][...] = proj
        sq_sums = dict.fromkeys(levels, 0.0)
        # the backward gives W0's [z_t, time] rows; the condition rows follow
        sums = [total.weights[0][:k], *total.weights[1:], *total.biases]
        # every block's arrays in the regions of the largest
        most = max(b[-1][2] + b[-1][3] - b[0][2] for b in blocks)
        pre0_rows = scratch(ws, "pre0", (most, w0.shape[1]))
        for j, block in enumerate(blocks):
            lo, hi = block[0][2], block[-1][2] + block[-1][3]
            pre0 = np.concatenate([cond_pre[draw[0]] for draw in block], out=pre0_rows[:hi - lo])
            # a float32 overflow in the forward gives inf or nan: both surface
            # as the non-finite loss rejected below, before any backward
            with np.errstate(over="ignore", invalid="ignore"):
                y, cache = mlp_forward(mlp, x[lo:hi], pre0, ws=ws, rows=most)
                # float64, as the sums of its squares, over the block's noise
                # rows: nothing reads them after
                diff = np.subtract(y, eps[lo:hi], out=eps[lo:hi])
                for level, _, a, n in block:
                    part = diff[a - lo:a - lo + n]
                    sq_sums[level] += float(np.vdot(part, part))
                    part *= 2.0 / (n * d * R)
            bad = [l for l in levels if not np.isfinite(sq_sums[l])]
            if bad:
                raise NumericsError(f"non-finite loss at level {bad[0]}; step rejected")
            g = mlp_backward(mlp, cache, diff, ws)
            for level, _, a, n in block:
                g0[level] += g.pre0[a - lo:a - lo + n]
            for acc, part in zip(sums, g.weights + g.biases):
                if j:
                    acc += part
                else:
                    acc[...] = part
        # W0's condition rows: each level's product, summed in float64
        dw0_cond = scratch(ws, "dw0.cond", w0[k:].shape, np.float64)
        for j, l in enumerate(levels):
            if j:
                part = scratch(ws, "dw0.cond.part", dw0_cond.shape, np.float64)
                dw0_cond += np.matmul(conds[l].T, g0[l], out=part)
            else:
                np.matmul(conds[l].T, g0[l], out=dw0_cond)
        total.weights[0][k:] = dw0_cond
        losses = {l: sq_sums[l] / (model.cfg.levels[l].token_count * d * R) for l in levels}
        return losses, {l: g0[l] @ w0[k:k + model.spec.feature_dim].T for l in levels}, total


def loss_and_grads(model: FractalModel, image: np.ndarray, gt: DepthMap, rng: RngStream,
                   ws: Workspace = None):
    """The per-level losses of one teacher-forced step, and the gradients of
    their sum by parameter name; a shared unit's gradient sums those of its
    levels.  Every large array is a region of the workspace ``ws`` (a new
    array when none is given); the MLP gradients returned stay valid until
    the frame open at the call exits.  The weight gradients are float32, as
    the parameters; the gate and conv bias gradients, sums over pixels, are
    float64.  The conv pyramid and its backward run in float32 on
    ``model.conv`` itself, so the features equal those ``generate``
    computes bit for bit.  ``InputError`` for a pixel ``generate`` rejects,
    and ``NumericsError`` if a loss is not finite, both before any gradient
    is formed."""
    image = _checked_image(image)
    targets = encode_targets(gt, model)
    feats, feat_cache = vcfr.extract_features(image, model.cfg, model.conv, ws)
    conds, fuse_caches, z_stars = [], [], []
    for level, lv in enumerate(model.cfg.levels):
        cond, fuse_cache = _build_condition(model, feats, targets[level - 1] if level else None,
                                            level, ws)
        conds.append(cond)
        fuse_caches.append(fuse_cache)
        z_stars.append(split_patches(targets[level], lv.patch_size)
                       .reshape(lv.token_count, lv.token_dim))
    grads = {"gate_w": np.zeros(model.n_levels), "gate_b": np.zeros(model.n_levels)}
    losses, dfeats = {}, {}
    for name, mlp, levels in model.units():
        lvl_losses, lvl_dfeats, g = _unit_loss_and_grads(model, name, mlp, levels, z_stars, conds,
                                                         rng, ws)
        losses.update(lvl_losses)
        dfeats.update(lvl_dfeats)
        grads.update(g.named(name))
    feat_grads = []
    with frame(ws):
        for level in range(model.n_levels):
            # condition gradient: only the pooled feature block trains upstream
            # parameters (guidance and patch context come from fixed targets)
            df, grads["gate_w"][level], grads["gate_b"][level] = vcfr.refine_condition_backward(
                dfeats[level], fuse_caches[level], ws)
            feat_grads.append(df)
        grads.update(vcfr.extract_features_backward(feat_grads, model.cfg, model.conv, feat_cache,
                                                    ws))
    return [losses[level] for level in range(model.n_levels)], grads


def train_step(model: FractalModel, image: np.ndarray, gt: DepthMap, rng: RngStream,
               lr: float, weight_decay: float) -> list:
    """One teacher-forced optimizer step; returns the per-level losses.  Its
    large arrays are regions of ``model.workspace``, in one frame that exits
    with the step, so the next step reuses them."""
    ws = model.workspace
    with ws.scope():
        losses, grads = loss_and_grads(model, image, gt, rng, ws)
        adamw_step(model.named_params(), grads, model.opt_state, lr, weight_decay, ws)
    return losses


@dataclass
class GenerationTrace:
    latents: list      # per-level sampled latent grids, coarse -> fine
    final: DepthMap    # the finest latent decoded


def decode_level_depth(latent: np.ndarray, model: FractalModel) -> DepthMap:
    return denormalize(upsample_bilinear(latent, model.cfg.final_resolution), model.cfg)


# Reverse steps per level at generation, the kept timesteps of
# ``diffusion.respace``: every level above the finest runs COARSE_STEPS and
# the finest SAMPLE_STEPS, each capped at T.  On the desk reference
# checkpoint (16 held-out scenes, tau = 0) 15 steps at every level read RMSE
# 0.702 against 0.692 with all 60, and 10 steps 0.717.  Against 15 at every
# level, 8-8-8-15 read a lower RMSE at tau = 0 (48 validation scenes) and
# no higher a fused RMSE at tau = 1 (N = 8, 12 scenes) on the reference and
# two trained models, each over 3 RNG seeds; the finest level needs its 15
# (README "Performance").
COARSE_STEPS = 8
SAMPLE_STEPS = 15


def sample_steps(model: FractalModel) -> tuple:
    """The reverse steps each level of ``generate`` runs, coarse -> fine."""
    T = model.sched.T
    return (min(COARSE_STEPS, T),) * (model.n_levels - 1) + (min(SAMPLE_STEPS, T),)


def _reverse_chain(model: FractalModel, level: int, cond: np.ndarray, lrngs: list,
                   tau: float, predictor) -> np.ndarray:
    """One level's reverse chain over the N stacked samples; returns z_0.

    ``cond`` holds the N conditions stacked like the tokens, and sample k
    draws its noise from ``lrngs[k]``.  The chain runs on the
    ``sample_steps(model)[level]`` kept timesteps of ``model.sched``.

    The level's MLP runs in float32 on its own weights.  The chain state and
    every step around the MLP stay float64; a ``predictor`` is called with
    float64 arrays.
    """
    lv = model.cfg.levels[level]
    sched = respace(model.sched, sample_steps(model)[level])
    if predictor is None:
        # the condition and the time embeddings do not change along the
        # chain: project them through W0 once (in float64), not at every
        # step.  The projection is kept in row blocks: a single
        # (N*tokens, hidden) array (4 MB at N = 8 in float64) raises glibc's
        # heap thresholds and the peak RSS of an 8-sample scene by 2-5 MB
        mlp = model.mlps[level]
        w0 = mlp.weights[0]
        d, td = lv.token_dim, model.spec.time_dim
        cond_pre = [(cond[r:r + _BLOCK] @ w0[d + td:] + mlp.biases[0])
                    .astype(np.float32) for r in range(0, cond.shape[0], _BLOCK)]
        time_pre = time_embed(sched.t, td) @ w0[d:d + td]
        time_rows = dict(zip(sched.t.tolist(), time_pre.astype(np.float32)))

        def pred(z, t):
            # one float32 MLP call per _BLOCK rows, each adding the step's
            # time row to its block of projected conditions; the float64
            # join is exact
            z32 = z.astype(np.float32)
            blocks = [mlp_forward(mlp, z32[i * _BLOCK:(i + 1) * _BLOCK],
                                  block + time_rows[t], want_cache=False)[0]
                      for i, block in enumerate(cond_pre)]
            return np.concatenate(blocks, dtype=np.float64)
    else:
        def pred(z, t):
            return predictor(level, z, t, cond)
    return sample(pred, (lv.token_count, lv.token_dim), sched, tau,
                  [r.child("tokens") for r in lrngs])


def generate(model: FractalModel, image: np.ndarray, rng, tau: float, predictor=None):
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

    The conv features are computed in float32; the conditions built from
    them are float64.  ``NumericsError`` names the level whose chain ends
    with non-finite latents (a huge finite ``tau`` overflows it), before
    any depth is decoded.
    """
    single = isinstance(rng, RngStream)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise InputError("generate needs at least one RNG stream")
    image = _checked_image(image)
    # the conv pyramid runs in float32, as in training.  [0] drops its
    # cache: held, the rest of it (13 MB at 256 x 256) would stay alive
    # through every chain
    feats = vcfr.extract_features(image, model.cfg, model.conv)[0]
    latents = [[] for _ in rngs]
    for level, lv in enumerate(model.cfg.levels):
        prevs = [l[-1] if l else None for l in latents]
        cond = np.concatenate([_build_condition(model, feats, p, level)[0] for p in prevs])
        # a huge finite tau overflows the chain (in float32 first, where the
        # MLP casts it); its NaN would decode to a NaN depth
        with np.errstate(over="ignore", invalid="ignore"):
            z = _reverse_chain(model, level, cond, [r.child("level", level) for r in rngs],
                               tau, predictor)
        if not np.all(np.isfinite(z)):
            raise NumericsError(f"level {level}: non-finite latents at the chain's end, tau={tau}")
        for k, zk in enumerate(np.split(z, len(rngs))):
            latents[k].append(reassemble_patches(
                zk.reshape(lv.token_count, lv.patch_size, lv.patch_size), lv.resolution))
    traces = [GenerationTrace(latents=l, final=decode_level_depth(l[-1], model)) for l in latents]
    return traces[0] if single else traces


# --- Checkpoint + trace persistence ---------------------------------------

def save_model(path, model: FractalModel) -> None:
    save_checkpoint(path, model.named_params(), asdict(model.spec))


def _no_storage(shape, dtype) -> np.ndarray:
    """A read-only zero-strided stand-in for an array of ``shape``: it
    allocates nothing, whatever the shape."""
    return np.broadcast_to(np.zeros((), dtype), shape)


def load_model(path) -> FractalModel:
    """Rebuild a model from a checkpoint; ``ConfigError`` naming the path if
    its meta or tensors do not describe one, or a tensor holds nan, inf or a
    value beyond float32's range (the parameters are float32).

    The spec is the :class:`ModelSpec` fields of the manifest's meta (other
    keys are ignored, and a field with a default may be absent).  Its
    parameter shapes, read from the model built on :func:`_no_storage`, are
    compared with the manifest's before any parameter is allocated, so a
    meta that describes a model larger than the file fails without one.  The
    model is then built on uninitialised storage, so no random
    initialisation is drawn, and :func:`nnet.load_checkpoint` reads each
    tensor's float64 values, rounded to float32, into its parameter array, a
    shared unit's once; a value beyond float32's range reads as inf.
    """
    model = None

    def targets(meta, shapes):
        nonlocal model
        try:
            # a meta written before shared_unit existed (that of the stored
            # reference, perfbench/desk_seed0.fadn) lacks the key: its
            # tensors are one MLP per level
            meta = {"shared_unit": False, **meta}
            spec = ModelSpec(**{f.name: meta[f.name] for f in fields(ModelSpec) if f.name in meta})
            layout = _empty_model(spec, _no_storage).named_params()
        except (TypeError, ValueError, FractalDepthError) as e:
            raise ConfigError(f"{path}: checkpoint meta does not describe a model: {e!r}") from e
        check_tensor_shapes(path, shapes, {n: p.shape for n, p in layout.items()})
        model = _empty_model(spec)
        return model.named_params()

    load_checkpoint(path, targets)
    for name, p in model.named_params().items():
        # min and max, unlike abs, allocate nothing; either is nan if p holds one
        if not -_F32_MAX <= p.min() <= p.max() <= _F32_MAX:
            raise ConfigError(f"{path}: tensor {name!r} holds nan, inf or values beyond float32")
    return model


def save_trace(trace: GenerationTrace, out_dir, manifest: dict) -> None:
    """Per-level PFM latents, final PGM/PFM depth and a key=value manifest."""
    os.makedirs(out_dir, exist_ok=True)
    for i, latent in enumerate(trace.latents):
        imgio.write_pfm(os.path.join(out_dir, f"latent_level{i}.pfm"), latent)
    imgio.write_pfm(os.path.join(out_dir, "depth.pfm"), trace.final.values)
    imgio.write_pgm16(os.path.join(out_dir, "depth.pgm"), trace.final)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        for k, v in manifest.items():
            f.write(f"{k}={v}\n")


def load_trace_depths(trace_dir, model: FractalModel) -> list:
    """The decoded depth of each level latent :func:`save_trace` wrote to
    ``trace_dir``; ``InputError`` naming the file if a latent is not on its
    level's grid or holds nan or inf, before any is decoded."""
    names = [f"latent_level{i}.pfm" for i in range(model.n_levels)]
    found = sorted(fnmatch.filter(os.listdir(trace_dir), "latent_level*.pfm"))
    if found != sorted(names):
        raise InputError(f"{trace_dir}: expected {names}, found {found}")
    latents = [imgio.read_pfm(os.path.join(trace_dir, n)) for n in names]
    for name, latent, lv in zip(names, latents, model.cfg.levels):
        if latent.shape != (lv.resolution, lv.resolution):
            raise InputError(f"{os.path.join(trace_dir, name)}: latent of shape {latent.shape}, "
                             f"not the level's {lv.resolution} x {lv.resolution}")
        if not np.all(np.isfinite(latent)):
            raise InputError(f"{os.path.join(trace_dir, name)}: latent holds nan or inf")
    return [decode_level_depth(latent, model) for latent in latents]
