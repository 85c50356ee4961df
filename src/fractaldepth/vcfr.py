"""Scale-specific visual-depth conditioning.

A fixed two-layer 3x3 convolutional pyramid (edge-padded, SiLU) produces a
feature map at the finest resolution, which is the finest level's grid; each
coarser level's grid is the block mean of a finer one.  The pyramid and its
backward compute in the dtype of their parameters: a model's are float32,
and generation and training pass them as they are; float64 parameters give
the float64 pyramid the finite-difference tests check.  Per level, the
features are fused with the current depth state by a scalar sigmoid gate
with a residual path, pooled per token, and extended with a guidance scalar
equal to the mean log-depth of the current state.
All gradients are hand-derived so the extractor and fusion parameters can
be trained jointly with the noise predictors.  Each forward returns its
output and the cache its backward reads; generation drops the cache at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScaleConfig, downsample_mean, downsample_mean_adjoint, latent_to_log_depth
from .errors import ShapeError
from .nnet import silu_grad_inplace, silu_inplace
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
    input returned by :func:`conv3x3_forward`.  ``dw`` has the dtype of
    ``w``; ``db``, a sum over every pixel, is summed in float64."""
    h, wd, cin = xp.shape[0] - 2, xp.shape[1] - 2, xp.shape[2]
    g2 = grad_a.reshape(h * wd, -1)
    db = g2.sum(axis=0, dtype=np.float64)
    dw = np.empty_like(w)
    for di in range(3):
        for dj in range(3):
            dw[di, dj] = xp[di:di + h, dj:dj + wd].reshape(h * wd, cin).T @ g2
    return dw, db


def conv3x3_input_grad(grad_a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of the pre-activation wrt the unpadded input x, in the dtype
    of ``grad_a`` and ``w``."""
    h, wd, cout = grad_a.shape
    dtype = np.result_type(grad_a, w)
    g2 = grad_a.reshape(h * wd, cout)
    dxp = np.zeros((h + 2, wd + 2, w.shape[2]), dtype=dtype)
    # one 2-D GEMM per kernel offset into one scratch array: the grad wrt
    # padded x at offset (di, dj) of each window
    tmp = np.empty((h * wd, w.shape[2]), dtype=dtype)
    for di in range(3):
        for dj in range(3):
            np.matmul(g2, w[di, dj].T, out=tmp)
            dxp[di:di + h, dj:dj + wd] += tmp.reshape(h, wd, -1)
    # fold the edge-padding border onto the interior: rows, then columns
    dxp[1] += dxp[0]
    dxp[-2] += dxp[-1]
    dxp[:, 1] += dxp[:, 0]
    dxp[:, -2] += dxp[:, -1]
    return dxp[1:-1, 1:-1]


@dataclass
class ConvPyramidParams:
    w1: np.ndarray  # (3, 3, 3, F)
    b1: np.ndarray
    w2: np.ndarray  # (3, 3, F, F)
    b2: np.ndarray

    def named(self) -> dict:
        return {"conv.w1": self.w1, "conv.b1": self.b1, "conv.w2": self.w2, "conv.b2": self.b2}

    @classmethod
    def empty(cls, feature_dim: int, alloc=np.empty) -> "ConvPyramidParams":
        """The pyramid on uninitialised float32 storage, the model's one
        parameter dtype, for an initialisation or a checkpoint to fill;
        ``alloc(shape, dtype)`` makes each array."""
        f = feature_dim
        return cls(w1=alloc((3, 3, 3, f), np.float32), b1=alloc(f, np.float32),
                   w2=alloc((3, 3, f, f), np.float32), b2=alloc(f, np.float32))


def init_conv_pyramid(feature_dim: int, rng: RngStream) -> ConvPyramidParams:
    """He-style scaled-uniform fan-in initialization, drawn in float64."""
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

    The image is cast to the dtype of ``params``, and every array made here
    has that dtype, as in :func:`nnet.mlp_forward`.  SiLU runs in place.  The
    finest grid is layer 2's output itself; each coarser one is pooled from
    the coarsest finer grid its resolution divides (the next finer one on
    every named layout).  The cache holds each layer's padded input and
    sigmoid and the output features (layer 2's padded input holds layer 1's
    output); a caller with no backward drops it.
    """
    image = np.asarray(image, dtype=params.w1.dtype)
    res_final = cfg.final_resolution
    if image.shape != (res_final, res_final, 3):
        raise ShapeError(f"image shape {image.shape} != ({res_final}, {res_final}, 3)")
    h1, xp1 = conv3x3_forward(image, params.w1, params.b1)
    s1 = silu_inplace(h1, True)
    f, xp2 = conv3x3_forward(h1, params.w2, params.b2)
    s2 = silu_inplace(f, True)
    grids = [f]
    for res, _ in reversed(cfg.levels[:-1]):
        src = next((g for g in reversed(grids) if g.shape[0] % res == 0), f)
        grids.append(downsample_mean(src, res))
    return grids[::-1], (xp1, s1, xp2, s2, f)


def extract_features_backward(grad_feats, cfg: ScaleConfig, params: ConvPyramidParams, cache) -> dict:
    """Accumulate per-level feature-grid gradients into conv parameter grads.

    Computes in the dtype of ``params`` and the cache, float32 in training,
    and returns the weight gradients in it; the bias gradients, sums over
    every pixel, are summed and returned in float64.  The SiLU
    derivatives are formed in the cache, so it serves one backward.  The
    output features ``f`` are also the finest grid the caller holds, so
    layer 2's derivative is formed in a copy of them, and the grids
    :func:`extract_features` returned are never written.
    """
    xp1, s1, xp2, s2, f = cache
    res_final = cfg.final_resolution
    da2 = np.zeros(f.shape, dtype=f.dtype)
    for (res, _), g in zip(cfg.levels, grad_feats):
        # the adjoint of a block mean, downsample_mean_adjoint's values,
        # broadcast over each block of da2 with no full-size temporary
        b = res_final // res
        blocks = da2.reshape(res, b, res, b, -1)
        np.add(blocks, (g / (b * b))[:, None, :, None], out=blocks, casting="same_kind")
    da2 *= silu_grad_inplace(f.copy(), s2)
    dw2, db2 = conv3x3_backward(da2, xp2, params.w2)
    da1 = conv3x3_input_grad(da2, params.w2)
    da1 *= silu_grad_inplace(xp2[1:-1, 1:-1], s1)
    dw1, db1 = conv3x3_backward(da1, xp1, params.w1)
    return ConvPyramidParams(w1=dw1, b1=db1, w2=dw2, b2=db2).named()


# --- Gated fusion + token pooling -----------------------------------------

def refine_condition(f: np.ndarray, z: np.ndarray, gate_w: float, gate_b: float,
                     patch: int):
    """Per-cell gated fusion g = f * sigmoid(w z + b) + f, pooled per token.

    ``f`` is (res, res, F), ``z`` is (res, res); tokens follow the level's
    row-major patch partition.  Returns the (n_tokens, F) pooled tokens and
    the cache :func:`refine_condition_backward` reads.  ``f`` may be float32:
    it is widened to float64 first, so the tokens are float64, and the
    product is formed in place, with the bytes of the mixed product.
    """
    f = np.asarray(f)
    z = np.asarray(z, dtype=np.float64)
    if f.shape[:2] != z.shape:
        raise ShapeError(f"feature grid {f.shape[:2]} != depth state {z.shape}")
    res = z.shape[0]
    # exp(-a) overflows below a = -709, where the gate 1 / (1 + inf) is 0,
    # its limit, as in nnet.silu_inplace; the overflow is not reported
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-(gate_w * z + gate_b)))
    g = f.astype(np.float64)
    g *= (1.0 + s)[:, :, None]
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
