"""Uncertainty-aware robust consensus aggregation.

Stochastic depth samples are first brought into a common affine frame by
minimizing a Charbonnier-smoothed pairwise L1 energy with a quadratic
scale regularizer lam * sum((alpha - 1)^2).  The energy is convex in all 2N
parameters.  Each iteration solves one bordered 2N x 2N system, with the
shift gauge sum(beta) = 0 as a Lagrange row, for a Newton step on the
energy.  A step that would raise the energy is replaced by the joint IRLS
step (Holland & Welsch 1977): the weighted least-squares minimizer of the
majorizer that puts w = 0.5 / sqrt(r^2 + eps^2) on every squared residual.
So the objective trace never rises.  IRLS alone converges only linearly
on this nearly-L1 energy: 50-70 iterations on 8-sample desk stacks, and
more than 100 on about a third of small random stacks.  With the Newton
step it takes 5-9 and at most about 55.
One GEMM of the weights against a fixed basis [1, s_k, s_k s_l] gives
every pairwise sum the system needs, and pixels are walked in blocks of
``_BLOCK``, so memory is O(N^2 * _BLOCK) whatever the map size.  The loop
stops when an iteration lowers the objective by no more than ``tol`` times
its value (relative), or after ``max_iter`` iterations; ``AlignmentParams``
reports ``iterations`` and ``converged``.  The default lam = 100 keeps the
scales away from the collapse alpha -> 0 that a small lam admits (the
pairwise energy shrinks with the scale; at lam = 1 noisy affine copies of
one 16 x 16 map align at alpha ~ 0.02).  The energy grows with the pixel
count and lam does not, so larger maps need a larger lam: ``RunConfig``
passes 1e5 for 64 x 64 maps.

Fusion then minimizes, per pixel, a strictly convex robust energy over the
aligned samples plus a weighted recursive cross-scale consistency term; the
minimizer is the consensus depth and the minimum energy is the uncertainty
proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DepthMap
from .errors import InputError, ShapeError


@dataclass(frozen=True)
class URCAConfig:
    lam: float = 100.0          # scale-regularizer weight
    gamma: float = 0.5          # recursive-term weight
    tau_s: float = 0.1          # sample residual normalization (meters)
    tau_r: float = 0.1          # recursive residual normalization (meters)
    delta_stab: float = 1e-6    # stabilizer (meters)
    eps_c: float = 1e-3         # Charbonnier smoothing
    tol: float = 1e-10          # alignment stop: relative objective decrease
    max_iter: int = 100
    z_tol: float = 1e-6         # per-pixel search tolerance

    def __post_init__(self):
        if self.lam <= 0 or self.gamma < 0 or self.tau_s <= 0 or self.tau_r <= 0:
            raise InputError("need lam > 0, gamma >= 0, tau_s > 0, tau_r > 0")
        if self.delta_stab < 0 or self.eps_c <= 0:
            raise InputError("need delta_stab >= 0, eps_c > 0")


def charbonnier(x, eps_c: float):
    """rho(x) = sqrt(x^2 + eps^2) - eps: even, convex, rho(0) = 0."""
    if eps_c <= 0:
        raise InputError("eps_c must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = np.sqrt(x * x + eps_c * eps_c) - eps_c
    return float(out) if out.ndim == 0 else out


@dataclass
class AlignmentParams:
    alpha: np.ndarray   # (N,) scales
    beta: np.ndarray    # (N,) shifts, gauge sum(beta) = 0
    objective_trace: list = field(default_factory=list)
    iterations: int = 0         # len(objective_trace) - 1
    converged: bool = True      # False when the loop ended on max_iter


# Pixels per block of the pairwise pass: bounds the (pairs x pixels) and
# (pixels x basis) temporaries, so memory does not grow as N^2 * P.
_BLOCK = 4096


def _basis(block: np.ndarray) -> np.ndarray:
    """Products f_k * f_l (k <= l) of the factors [s_0 .. s_{N-1}, 1].

    For N samples that is [s_k s_l, s_k, 1]: every per-pixel term of the
    pairwise normal equations, so one GEMM with the weights sums them all.
    """
    ext = np.vstack([block, np.ones((1, block.shape[1]))])
    ti, tj = np.triu_indices(len(ext))
    return (ext[ti] * ext[tj]).T


def _pair_roots(block, alpha, beta, ia, ib, eps_c: float):
    """Residuals r and sqrt(r^2 + eps^2) of every sample pair over one block."""
    aligned = alpha[:, None] * block + beta[:, None]
    r = aligned[ia] - aligned[ib]
    root = r * r
    root += eps_c * eps_c
    return r, np.sqrt(root, out=root)


def align_samples(samples, cfg: URCAConfig = URCAConfig()) -> AlignmentParams:
    """Estimate per-sample affine parameters by safeguarded Newton / IRLS.

    Each iteration solves one bordered 2N x 2N system for a Newton step on
    the Charbonnier objective, with the shift gauge sum(beta) = 0 as a
    Lagrange row.  A step that would raise the objective is replaced by the
    joint IRLS step, which minimizes the weighted-square majorizer
    (w = 0.5 / sqrt(r^2 + eps^2)) and so cannot raise it either.  The loop
    stops once an iteration lowers the objective by no more than
    ``cfg.tol`` relative, or after ``cfg.max_iter`` iterations.
    """
    if len(samples) < 2:
        raise InputError(f"need at least 2 samples, got {len(samples)}")
    if any(s.values.shape != samples[0].values.shape for s in samples):
        raise ShapeError("samples must share one resolution")
    stack = np.stack([s.values.reshape(-1) for s in samples])
    if not np.all(np.isfinite(stack)):
        raise InputError("sample depths must be finite")
    n, n_pix = stack.shape
    ia, ib = np.triu_indices(n, 1)
    m = len(ia)
    blocks = [stack[:, j:j + _BLOCK] for j in range(0, n_pix, _BLOCK)]
    floor = m * n_pix * cfg.eps_c    # sum of the roots at zero residual
    alpha = np.ones(n)
    beta = np.zeros(n)
    if np.all(stack == stack[0]):
        roots = sum(float(_pair_roots(b, alpha, beta, ia, ib, cfg.eps_c)[1].sum())
                    for b in blocks)
        return AlignmentParams(alpha=alpha, beta=beta, objective_trace=[roots - floor])

    # Pair (a, b) has residual x . (alpha_a, alpha_b, beta_a, beta_b) with
    # x = (s_a, -s_b, 1, -1) = sign * f, f = (s_a, s_b, 1, 1).  Its share of
    # the normal matrix is sum(w x x^T) and of the gradient sum(v x): entry
    # (i, j) is sign_i sign_j times the weighted basis column of f_i f_j.
    factor = np.stack([ia, ib, np.full(m, n), np.full(m, n)], axis=1)
    ti, tj = np.triu_indices(n + 1)
    col = np.empty((n + 1, n + 1), dtype=np.intp)
    col[ti, tj] = col[tj, ti] = np.arange(len(ti))
    row = np.arange(m)[:, None] * len(ti)
    mat_cols = row[:, :, None] + col[factor[:, :, None], factor[:, None, :]]
    vec_cols = row + col[factor, n]
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    dest = np.stack([ia, ib, n + ia, n + ib], axis=1)
    irls_rhs = np.zeros(2 * n + 1)
    irls_rhs[:n] = cfg.lam
    basis = _basis(stack) if len(blocks) == 1 else None
    eps2 = cfg.eps_c * cfg.eps_c

    def evaluate(alpha, beta):
        """Objective, and per pair the basis sums weighted by halves of the
        IRLS weight 1 / root, the derivative r / root and the curvature
        eps^2 / root^3 of each Charbonnier term."""
        roots = 0.0
        sums = 0.0
        for b in blocks:
            r, root = _pair_roots(b, alpha, beta, ia, ib, cfg.eps_c)
            roots += float(root.sum())
            w = np.empty((3,) + r.shape)
            np.divide(0.5, root, out=w[0])
            np.multiply(w[0], r, out=w[1])
            np.divide(w[0], root, out=w[2])
            w[2] *= eps2 / root
            sums = sums + w.reshape(3 * m, -1) @ (basis if basis is not None else _basis(b))
        obj = roots - floor + cfg.lam * float(np.sum((alpha - 1.0) ** 2))
        return obj, sums.reshape(3, -1)

    def bordered(pair_sums):
        """Normal matrix plus lam on the alpha diagonal, bordered by sum(beta)."""
        lhs = np.zeros((2 * n + 1, 2 * n + 1))
        np.add.at(lhs, (dest[:, :, None], dest[:, None, :]),
                  sign[:, None] * sign * pair_sums[mat_cols])
        lhs[np.arange(n), np.arange(n)] += cfg.lam
        lhs[n:2 * n, 2 * n] = lhs[2 * n, n:2 * n] = 1.0
        return lhs

    obj, sums = evaluate(alpha, beta)
    trace = [obj]
    converged = False
    for _ in range(cfg.max_iter):
        grad = np.zeros(2 * n + 1)
        np.add.at(grad, dest, sign * sums[1][vec_cols])
        grad[:n] += cfg.lam * (alpha - 1.0)
        step = np.linalg.solve(bordered(sums[2]), -grad)
        new = (alpha + step[:n], beta + step[n:2 * n])
        new_obj, new_sums = evaluate(*new)
        if not new_obj <= obj:
            sol = np.linalg.solve(bordered(sums[0]), irls_rhs)
            new = (sol[:n], sol[n:2 * n])
            new_obj, new_sums = evaluate(*new)
        (alpha, beta), obj, sums = new, new_obj, new_sums
        trace.append(obj)
        if trace[-2] - obj <= cfg.tol * abs(trace[-2]):
            converged = True
            break
    return AlignmentParams(alpha=alpha, beta=beta, objective_trace=trace,
                           iterations=len(trace) - 1, converged=converged)


def apply_affine(sample: DepthMap, alpha: float, beta: float) -> DepthMap:
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise InputError("affine parameters must be finite")
    return DepthMap(values=alpha * sample.values + beta,
                    valid_mask=sample.valid_mask.copy())


# --- Per-pixel robust consensus -------------------------------------------

def _energy(z, s, r, w_k, cfg: URCAConfig):
    """E(z) for stacked samples s (N, ...) and recursive values r (K, ...)."""
    cs = cfg.tau_s + cfg.delta_stab
    cr = cfg.tau_r + cfg.delta_stab
    e = charbonnier((s - z) / cs, cfg.eps_c).sum(axis=0)
    if r is not None and len(r) > 0 and cfg.gamma != 0.0:
        rho = charbonnier((r - z) / cr, cfg.eps_c)
        e = e + cfg.gamma * np.tensordot(w_k, rho, axes=(0, 0))
    return e


def _energy_derivs(z, s, r, w_k, cfg: URCAConfig):
    cs = cfg.tau_s + cfg.delta_stab
    cr = cfg.tau_r + cfg.delta_stab
    eps2 = cfg.eps_c * cfg.eps_c

    def d1d2(vals, c, w):
        u = (vals - z) / c
        root = np.sqrt(u * u + eps2)
        d1 = (-(u / root) / c * w).sum(axis=0)
        d2 = ((eps2 / root ** 3) / (c * c) * w).sum(axis=0)
        return d1, d2

    d1, d2 = d1d2(s, cs, np.ones(len(s))[(...,) + (None,) * (s.ndim - 1)])
    if r is not None and len(r) > 0 and cfg.gamma != 0.0:
        wk = cfg.gamma * w_k[(...,) + (None,) * (r.ndim - 1)]
        e1, e2 = d1d2(r, cr, wk)
        d1, d2 = d1 + e1, d2 + e2
    return d1, d2


def _consensus_minimize(s: np.ndarray, r, w_k, cfg: URCAConfig):
    """Vectorized ternary search plus one Newton polish over the last axes."""
    lo = s.min(axis=0).astype(np.float64)
    hi = s.max(axis=0).astype(np.float64)
    if r is not None and len(r) > 0 and cfg.gamma != 0.0:
        lo = np.minimum(lo, r.min(axis=0))
        hi = np.maximum(hi, r.max(axis=0))
    span = float(np.max(hi - lo))
    it = 0
    while span > cfg.z_tol and it < 200:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        e1 = _energy(m1, s, r, w_k, cfg)
        e2 = _energy(m2, s, r, w_k, cfg)
        take_left = e1 <= e2
        hi = np.where(take_left, m2, hi)
        lo = np.where(take_left, lo, m1)
        span = float(np.max(hi - lo))
        it += 1
    z = (lo + hi) / 2.0
    d1, d2 = _energy_derivs(z, s, r, w_k, cfg)
    step = np.where(d2 > 0, d1 / np.where(d2 > 0, d2, 1.0), 0.0)
    z = z - np.clip(step, -cfg.z_tol * 10, cfg.z_tol * 10)
    return z, _energy(z, s, r, w_k, cfg)


def consensus_pixel(s, r=None, cfg: URCAConfig = URCAConfig()):
    """Consensus value M and uncertainty U = E(M) for one pixel."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise InputError("need at least one sample value")
    r = None if r is None else np.asarray(r, dtype=np.float64).reshape(-1)
    w_k = np.full(len(r), 1.0 / len(r)) if r is not None and len(r) else None
    z, u = _consensus_minimize(s, r, w_k, cfg)
    return float(z), float(u)


@dataclass
class ConsensusOutput:
    consensus: DepthMap
    uncertainty: np.ndarray     # per-pixel minimum energy, >= 0
    alignment: AlignmentParams = None


def fuse(samples, trace_depths=None, cfg: URCAConfig = URCAConfig()) -> ConsensusOutput:
    """Align, then run the per-pixel consensus over a full map.

    ``samples`` are DepthMaps from repeated stochastic generation;
    ``trace_depths`` are the per-level decoded maps (coarse -> fine) of one
    generation run, each affine-fitted to the aligned sample mean before
    entering the recursive term.
    """
    if len(samples) == 0:
        raise InputError("need at least one sample")
    shape = samples[0].values.shape
    if any(s.values.shape != shape for s in samples):
        raise ShapeError("sample resolutions differ")
    if not all(np.all(np.isfinite(s.values)) for s in samples):
        raise InputError("sample depths must be finite")
    if len(samples) >= 2:
        align = align_samples(samples, cfg)
        aligned = np.stack([align.alpha[i] * samples[i].values + align.beta[i]
                            for i in range(len(samples))])
    else:
        align = AlignmentParams(alpha=np.ones(1), beta=np.zeros(1), objective_trace=[0.0])
        aligned = np.stack([samples[0].values])
    r = None
    if trace_depths is not None and len(trace_depths) > 0 and cfg.gamma != 0.0:
        if any(d.values.shape != shape for d in trace_depths):
            raise ShapeError("trace depth resolutions differ from samples")
        if not all(np.all(np.isfinite(d.values)) for d in trace_depths):
            raise InputError("trace depths must be finite")
        ref = aligned.mean(axis=0).reshape(-1)
        fitted = []
        for d in trace_depths:
            x = d.values.reshape(-1)
            a_mat = np.stack([x, np.ones_like(x)], axis=1)
            coef, *_ = np.linalg.lstsq(a_mat, ref, rcond=None)
            fitted.append(coef[0] * d.values + coef[1])
        r = np.stack(fitted)
    w_k = np.full(len(r), 1.0 / len(r)) if r is not None else None
    m, u = _consensus_minimize(aligned, r, w_k, cfg)
    mask = np.logical_and.reduce([s.valid_mask for s in samples])
    return ConsensusOutput(consensus=DepthMap(values=m, valid_mask=mask),
                           uncertainty=u, alignment=align)


def uncertainty_stats(u_map: np.ndarray, threshold: float = 1.0, bins: int = 64):
    """Fixed-bin histogram over [0, max] and the exceedance fraction."""
    u = np.asarray(u_map, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(u)):
        raise InputError("uncertainty map must be finite")
    top = float(u.max()) if u.size else 0.0
    edges = np.linspace(0.0, top if top > 0 else 1.0, bins + 1)
    hist, _ = np.histogram(u, bins=edges)
    exceedance = float(np.mean(u > threshold)) if u.size else 0.0
    return hist, edges, exceedance
