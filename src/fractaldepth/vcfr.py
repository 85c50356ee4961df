"""Scale-specific visual-depth conditioning.

A fixed two-layer 3x3 convolutional pyramid (edge-padded, SiLU) produces a
feature map at the finest resolution which is average-pooled down to every
level.  Per level, the features are fused with the current depth state by
a scalar sigmoid gate with a residual path, pooled per token, and extended
with a guidance scalar equal to the mean log-depth of the current state.
All gradients are hand-derived so the extractor and fusion parameters can
be trained jointly with the noise predictors.  Each forward returns its
output and the cache its backward reads; generation drops the cache at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScaleConfig, downsample_mean, downsample_mean_adjoint, latent_to_log_depth
from .errors import ShapeError
from .nnet import silu, silu_grad
from .rng import RngStream


# --- 3x3 convolution with edge padding ------------------------------------

def conv3x3_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (H, W, Cin), w: (3, 3, Cin, Cout), b: (Cout). Edge padding keeps
    constant inputs constant. Returns (pre-activation, padded input)."""
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    h, wd, _ = x.shape
    # one GEMM per kernel offset over the shifted input, accumulated in place
    a = np.broadcast_to(b, (h, wd, w.shape[3])).copy()
    for di in range(3):
        for dj in range(3):
            a += xp[di:di + h, dj:dj + wd] @ w[di, dj]
    return a, xp


def conv3x3_backward(grad_a: np.ndarray, xp: np.ndarray, w: np.ndarray):
    """Gradients of the pre-activation wrt (w, b); ``xp`` is the padded
    input returned by :func:`conv3x3_forward`."""
    h, wd, cin = xp.shape[0] - 2, xp.shape[1] - 2, xp.shape[2]
    g2 = grad_a.reshape(h * wd, -1)
    db = g2.sum(axis=0)
    dw = np.empty_like(w)
    for di in range(3):
        for dj in range(3):
            dw[di, dj] = xp[di:di + h, dj:dj + wd].reshape(h * wd, cin).T @ g2
    return dw, db


def conv3x3_input_grad(grad_a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of the pre-activation wrt the unpadded input x."""
    h, wd = grad_a.shape[:2]
    dxp = np.zeros((h + 2, wd + 2, w.shape[2]))
    for di in range(3):
        for dj in range(3):
            # grad wrt padded x at offset (di, dj) of each window
            dxp[di:di + h, dj:dj + wd] += grad_a @ w[di, dj].T
    # fold edge-replicated borders back onto the interior
    dx = dxp[1:-1, 1:-1].copy()
    dx[0, :] += dxp[0, 1:-1]
    dx[-1, :] += dxp[-1, 1:-1]
    dx[:, 0] += dxp[1:-1, 0]
    dx[:, -1] += dxp[1:-1, -1]
    dx[0, 0] += dxp[0, 0]
    dx[0, -1] += dxp[0, -1]
    dx[-1, 0] += dxp[-1, 0]
    dx[-1, -1] += dxp[-1, -1]
    return dx


@dataclass
class ConvPyramidParams:
    w1: np.ndarray  # (3, 3, 3, F)
    b1: np.ndarray
    w2: np.ndarray  # (3, 3, F, F)
    b2: np.ndarray

    def named(self, prefix: str = "conv") -> dict:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}

    @classmethod
    def empty(cls, feature_dim: int) -> "ConvPyramidParams":
        """The pyramid on uninitialised float64 storage, for a checkpoint to fill."""
        f = feature_dim
        return cls(w1=np.empty((3, 3, 3, f)), b1=np.empty(f),
                   w2=np.empty((3, 3, f, f)), b2=np.empty(f))


def init_conv_pyramid(feature_dim: int, rng: RngStream) -> ConvPyramidParams:
    def he(shape, fan_in, *ids):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(shape, *ids, low=-bound, high=bound)

    return ConvPyramidParams(
        w1=he((3, 3, 3, feature_dim), 27, "conv", "w1"),
        b1=np.zeros(feature_dim),
        w2=he((3, 3, feature_dim, feature_dim), 9 * feature_dim, "conv", "w2"),
        b2=np.zeros(feature_dim),
    )


def extract_features(image: np.ndarray, cfg: ScaleConfig, params: ConvPyramidParams):
    """Per-level feature grids from an (H, W, 3) image in [0, 1], and the
    cache :func:`extract_features_backward` reads.

    The cache holds both layers' pre-activations and padded inputs; a
    caller with no backward to run drops it at once.
    """
    image = np.asarray(image, dtype=np.float64)
    res_final = cfg.final_resolution
    if image.shape != (res_final, res_final, 3):
        raise ShapeError(f"image shape {image.shape} != ({res_final}, {res_final}, 3)")
    a1, xp1 = conv3x3_forward(image, params.w1, params.b1)
    h1 = silu(a1)
    a2, xp2 = conv3x3_forward(h1, params.w2, params.b2)
    f = silu(a2)
    return [downsample_mean(f, res) for res, _ in cfg.levels], (a1, xp1, a2, xp2)


def extract_features_backward(grad_feats, cfg: ScaleConfig, params: ConvPyramidParams, cache) -> dict:
    """Accumulate per-level feature-grid gradients into conv parameter grads."""
    a1, xp1, a2, xp2 = cache
    res_final = cfg.final_resolution
    df = np.zeros(a2.shape)
    for (res, _), g in zip(cfg.levels, grad_feats):
        if g is None:
            continue
        df += downsample_mean_adjoint(g, res_final // res)
    da2 = df * silu_grad(a2)
    dw2, db2 = conv3x3_backward(da2, xp2, params.w2)
    da1 = conv3x3_input_grad(da2, params.w2) * silu_grad(a1)
    dw1, db1 = conv3x3_backward(da1, xp1, params.w1)
    return {"conv.w1": dw1, "conv.b1": db1, "conv.w2": dw2, "conv.b2": db2}


# --- Gated fusion + token pooling -----------------------------------------

def refine_condition(f: np.ndarray, z: np.ndarray, gate_w: float, gate_b: float,
                     patch: int):
    """Per-cell gated fusion g = f * sigmoid(w z + b) + f, pooled per token.

    ``f`` is (res, res, F), ``z`` is (res, res); tokens follow the level's
    row-major patch partition.  Returns the (n_tokens, F) pooled tokens and
    the cache :func:`refine_condition_backward` reads.
    """
    f = np.asarray(f, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if f.shape[:2] != z.shape:
        raise ShapeError(f"feature grid {f.shape[:2]} != depth state {z.shape}")
    res = z.shape[0]
    s = 1.0 / (1.0 + np.exp(-(gate_w * z + gate_b)))
    g = f * (1.0 + s)[:, :, None]
    n = res // patch
    return downsample_mean(g, n).reshape(n * n, -1), (f, z, s, patch)


def refine_condition_backward(grad_tokens: np.ndarray, cache):
    """Gradients wrt (f, gate_w, gate_b); the depth state is not trained."""
    f, z, s, patch = cache
    res = z.shape[0]
    n = res // patch
    dg = downsample_mean_adjoint(grad_tokens.reshape(n, n, -1), patch)
    df = dg * (1.0 + s)[:, :, None]
    ds = (dg * f).sum(axis=2)
    dpre = ds * s * (1.0 - s)
    dw = float((dpre * z).sum())
    db = float(dpre.sum())
    return df, dw, db


def append_guidance_token(cond_tokens: np.ndarray, z: np.ndarray, cfg: ScaleConfig) -> np.ndarray:
    """Append the mean log-depth (ln meters) of the state to every token."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("empty depth state grid")
    guidance = float(np.mean(latent_to_log_depth(z, cfg)))
    col = np.full((cond_tokens.shape[0], 1), guidance)
    return np.concatenate([cond_tokens, col], axis=1)
