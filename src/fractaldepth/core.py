"""Grids, depth maps, the level layout, resampling and normalization.

Latent grids are plain float64 ``(H, W)`` arrays in a nominal [-1, 1]
range; depth maps carry metric values in meters plus a validity mask.
All resampling conventions (block-mean downsampling, half-pixel bilinear
upsampling with edge clamping) are fixed here because the recursive
consistency term of the consensus stage depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ResampleError, ShapeError


@dataclass
class DepthMap:
    """Metric depth in meters with a per-pixel validity mask."""

    values: np.ndarray            # (H, W) float64, meters
    valid_mask: np.ndarray = None  # (H, W) bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ShapeError(f"depth map must be 2-D, got shape {self.values.shape}")
        if self.valid_mask is None:
            self.valid_mask = np.ones(self.values.shape, dtype=bool)
        else:
            self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
            if self.valid_mask.shape != self.values.shape:
                raise ShapeError("valid_mask shape must match values")


def checked_int(name: str, value) -> int:
    """``value`` as an int if it is an int or a numpy integer; ``ConfigError``
    naming ``name`` for anything else, a bool, float or str among them."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    return int(value)


class Level(NamedTuple):
    """One level of the hierarchy: a square grid of ``resolution`` cells cut
    into row-major tokens of ``patch_size`` x ``patch_size`` cells."""

    resolution: int
    patch_size: int

    @property
    def token_count(self) -> int:
        return (self.resolution // self.patch_size) ** 2

    @property
    def token_dim(self) -> int:
        return self.patch_size * self.patch_size


@dataclass(frozen=True)
class ScaleConfig:
    """Coarse-to-fine level layout plus the metric depth clamp range.

    ``levels`` is an ordered tuple of :class:`Level` with strictly
    increasing resolutions; the last level is the output resolution.
    """

    levels: tuple            # (Level, ...) coarse -> fine
    d_min: float = 0.1
    d_max: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(
            Level(checked_int(f"levels[{i}] resolution", r), checked_int(f"levels[{i}] patch", p))
            for i, (r, p) in enumerate(self.levels)))
        if not (2 <= len(self.levels) <= 8):
            raise ConfigError(f"need 2..8 levels, got {len(self.levels)}")
        if self.d_min <= 0:
            raise ConfigError("d_min must be positive")
        if self.d_min >= self.d_max:
            raise ConfigError("d_min must be < d_max")
        prev = 0
        for res, patch in self.levels:
            if res <= prev:
                raise ConfigError(f"level resolutions must strictly increase, got {res} after {prev}")
            if patch < 1 or res % patch != 0:
                raise ConfigError(f"resolution {res} not divisible by patch {patch}")
            prev = res

    @property
    def final_resolution(self) -> int:
        return self.levels[-1].resolution


# Named hierarchies, each on the default depth range.  "desk" is the default
# working configuration; "paper" reproduces the published 1 -> 4 -> 16 -> 256
# level layout where the token formula gives sequence length 256 at the
# 16x16 level (the published table lists 16 there, which corresponds to the
# alternative "paper-table" reading with 4x4 patches at that level).
NAMED_CONFIGS = {
    "desk": ((1, 1), (4, 1), (16, 1), (64, 8)),
    "paper": ((1, 1), (4, 1), (16, 1), (256, 16)),
    "paper-table": ((1, 1), (4, 1), (16, 4), (256, 16)),
}


def named_scale_config(name: str) -> ScaleConfig:
    if name not in NAMED_CONFIGS:
        raise ConfigError(f"unknown scale config {name!r}; choose from {sorted(NAMED_CONFIGS)}")
    return ScaleConfig(levels=NAMED_CONFIGS[name])


def downsample_mean(grid: np.ndarray, target: int) -> np.ndarray:
    """Block-mean downsample of a square grid to ``target`` x ``target``.

    Axes past the first two (e.g. feature channels) are kept as they are.
    A floating grid keeps its dtype; any other is cast to float64.
    """
    grid = np.asarray(grid)
    if grid.dtype.kind != "f":
        grid = grid.astype(np.float64)
    h, w = grid.shape[:2]
    if h != w:
        raise ResampleError(f"expected square grid, got {grid.shape}")
    if target < 1 or h % target != 0:
        raise ResampleError(f"target {target} does not divide source {h}")
    b = h // target
    return grid.reshape((target, b, target, b) + grid.shape[2:]).mean(axis=(1, 3))


def downsample_mean_adjoint(grad: np.ndarray, block: int, out: np.ndarray = None) -> np.ndarray:
    """Adjoint of ``downsample_mean`` with ``block`` x ``block`` blocks: each
    output gradient spreads uniformly over the cells of its block.  Written
    into ``out`` when given, a C-contiguous array of the result's shape."""
    grad = np.asarray(grad)
    n, m = grad.shape[:2]
    if out is None:
        out = np.empty((n * block, m * block) + grad.shape[2:], np.result_type(grad, 1.0))
    out.reshape((n, block, m, block) + grad.shape[2:])[...] = grad[:, None, :, None]
    out /= block * block
    return out


def upsample_bilinear(grid: np.ndarray, target: int) -> np.ndarray:
    """Bilinear upsample with cell-center alignment and edge clamping."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape
    if h != w:
        raise ResampleError(f"expected square grid, got {grid.shape}")
    if target < h:
        raise ResampleError(f"target {target} smaller than source {h}")
    if target == h:
        return grid.copy()
    # half-pixel sample positions, clamped to the source extent
    coords = (np.arange(target) + 0.5) * (h / target) - 0.5
    coords = np.clip(coords, 0.0, h - 1.0)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, h - 1)
    frac = coords - lo
    rows = grid[lo][:, lo] * (1 - frac)[:, None] * (1 - frac)[None, :]
    rows += grid[lo][:, hi] * (1 - frac)[:, None] * frac[None, :]
    rows += grid[hi][:, lo] * frac[:, None] * (1 - frac)[None, :]
    rows += grid[hi][:, hi] * frac[:, None] * frac[None, :]
    return rows


def log_normalize(d: DepthMap, cfg: ScaleConfig) -> np.ndarray:
    """Map clamped metric depth to [-1, 1] linearly in log-depth."""
    clamped = np.clip(d.values, cfg.d_min, cfg.d_max)
    span = math.log(cfg.d_max) - math.log(cfg.d_min)
    return 2.0 * (np.log(clamped) - math.log(cfg.d_min)) / span - 1.0


def latent_to_log_depth(z: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Recover ln(depth in meters) from a normalized latent (no clamping)."""
    span = math.log(cfg.d_max) - math.log(cfg.d_min)
    return math.log(cfg.d_min) + (np.asarray(z, dtype=np.float64) + 1.0) * 0.5 * span


def denormalize(z: np.ndarray, cfg: ScaleConfig) -> DepthMap:
    """Inverse of :func:`log_normalize`; latents are clamped to [-1, 1]."""
    d = np.exp(latent_to_log_depth(np.clip(np.asarray(z, dtype=np.float64), -1.0, 1.0), cfg))
    # exp/log round-trip can land epsilon outside the clamp range
    return DepthMap(values=np.clip(d, cfg.d_min, cfg.d_max))


def split_patches(grid: np.ndarray, patch: int) -> np.ndarray:
    """Row-major (n_tokens, patch, patch) view of a square grid."""
    grid = np.asarray(grid, dtype=np.float64)
    h = grid.shape[0]
    if grid.shape[0] != grid.shape[1] or h % patch != 0:
        raise ResampleError(f"patch {patch} does not tile grid {grid.shape}")
    n = h // patch
    return grid.reshape(n, patch, n, patch).transpose(0, 2, 1, 3).reshape(n * n, patch, patch)


def reassemble_patches(patches: np.ndarray, resolution: int) -> np.ndarray:
    """Inverse of :func:`split_patches`."""
    patches = np.asarray(patches, dtype=np.float64)
    k, p, _ = patches.shape
    n = resolution // p
    if n * n != k or n * p != resolution:
        raise ResampleError(f"{k} patches of size {p} do not tile {resolution}x{resolution}")
    return patches.reshape(n, n, p, p).transpose(0, 2, 1, 3).reshape(resolution, resolution)


def split_patches_with_context(grid: np.ndarray, patch: int):
    """Patches plus their 4-neighborhood context (top, bottom, left, right).

    Missing neighbors at the border are filled by edge replication of the
    grid.  Returns ``(patches, contexts)`` where ``patches`` is
    (n_tokens, p, p) row-major and ``contexts`` is (n_tokens, 4, p, p).
    """
    grid = np.asarray(grid, dtype=np.float64)
    h = grid.shape[0]
    if grid.shape[0] != grid.shape[1] or h % patch != 0:
        raise ResampleError(f"patch {patch} does not tile grid {grid.shape}")
    p = patch
    padded = np.pad(grid, p, mode="edge")
    # each neighbor grid is the padded grid shifted by one patch
    contexts = np.stack([split_patches(padded[:h, p:h + p], p),           # top
                         split_patches(padded[2 * p:, p:h + p], p),       # bottom
                         split_patches(padded[p:h + p, :h], p),           # left
                         split_patches(padded[p:h + p, 2 * p:], p)],      # right
                        axis=1)
    return split_patches(grid, p), contexts
