"""Uncertainty-aware robust consensus aggregation.

Any N >= 1 stochastic depth samples are first brought into a common affine
frame by minimizing a Charbonnier-smoothed pairwise L1 energy plus the prior
lam * sum((alpha - 1)^2), under the gauges sum(alpha) = N and sum(beta) = 0.
The prior weight is lam = pairs * pixels / 2, so the objective divided by
pairs * pixels is the mean pairwise energy plus ||alpha - 1||^2 / 2 and its
minimiser does not depend on the map size.  The scale gauge rules out the
collapse alpha -> 0 by construction; the prior only keeps the scales near 1
where the data leave them free (flat maps).  The energy is convex in all 2N
parameters.  Each iteration solves one bordered (2N + 2) x (2N + 2) system,
with both gauges as Lagrange rows, for a Newton step on the energy.  A step
that would raise the energy is replaced by the joint IRLS step (Holland &
Welsch 1977): the weighted least-squares minimizer of the majorizer that puts
w = 0.5 / sqrt(r^2 + eps^2) on every squared residual.  So the objective
trace never rises.  IRLS alone converges only linearly on this nearly-L1
energy; with the Newton step 8-sample desk stacks take 5-12 iterations.  One
GEMM of the weights against a fixed basis [1, s_k, s_k s_l] gives every
pairwise sum the system needs, and pixels are walked in blocks of
``_BLOCK``, so memory is O(N^2 * _BLOCK) whatever the map size.  The system
is built from depths centred by the mean of the whole stack, so the products
s_k s_l keep the per-sample differences of depths far from 0 m.  The loop
stops when an iteration lowers the objective by no more than ``_TOL`` times
its value, at a zero gradient (one sample, or identical ones), or after
``max_iter`` iterations.  The returned shifts are moved so that their median
is 0, so one outlying sample cannot move the common shift.

Fusion then minimizes, per pixel, a strictly convex robust energy over the
aligned samples plus a weighted recursive cross-scale consistency term; the
minimizer is the consensus depth and the minimum energy is the uncertainty
proxy.  The solver bisects on the sign of the increasing derivative E' until
every bracket is at most 1e-6 m wide, then takes one Newton step clipped to
the bracket.  Where E is flat (to ~1e-13 between the two middle samples of
an even N) the sign of E' is still well defined, so last-bit input changes
do not move the consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DepthMap
from .errors import InputError, ShapeError


@dataclass(frozen=True)
class URCAConfig:
    gamma: float = 0.5          # recursive-term weight
    tau_s: float = 0.1          # sample residual normalization (meters)
    tau_r: float = 0.1          # recursive residual normalization (meters)
    delta_stab: float = 1e-6    # stabilizer (meters)
    eps_c: float = 1e-3         # Charbonnier smoothing
    max_iter: int = 100

    def __post_init__(self):
        values = (self.gamma, self.tau_s, self.tau_r, self.delta_stab, self.eps_c)
        if not np.all(np.isfinite(values)):
            raise InputError(f"URCA settings must be finite, got {values}")
        if not (self.gamma >= 0 and self.tau_s > 0 and self.tau_r > 0):
            raise InputError("need gamma >= 0, tau_s > 0, tau_r > 0")
        if not (self.delta_stab >= 0 and self.eps_c > 0):
            raise InputError("need delta_stab >= 0, eps_c > 0")


@dataclass
class AlignmentParams:
    alpha: np.ndarray   # (N,) scales, gauge sum(alpha) = N
    beta: np.ndarray    # (N,) shifts, gauge median(beta) = 0
    objective_trace: list
    iterations: int             # len(objective_trace) - 1
    converged: bool             # False when the loop ended on max_iter


# Pixels per block of the pairwise pass: bounds the (pairs x pixels) and
# (pixels x basis) temporaries, so memory does not grow as N^2 * P.
_BLOCK = 4096
# Alignment stops once an iteration lowers the objective by no more than
# _TOL times its value.
_TOL = 1e-10
# Bisection stops once every bracket is at most _Z_TOL m wide.  Past ~1e10 m
# the float spacing exceeds _Z_TOL, so _MAX_ROUNDS ends the loop on any
# finite input; 64 halvings bring any bracket under 1.8e13 m to _Z_TOL.
_Z_TOL = 1e-6
_MAX_ROUNDS = 64
_HIST_BINS = 64     # bins of the uncertainty_stats histogram


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

    Each iteration solves one bordered (2N + 2) x (2N + 2) system for a
    Newton step on the Charbonnier objective, with the gauges sum(alpha) = N
    and sum(beta) = 0 as Lagrange rows.  A step that would raise the
    objective is replaced by the joint IRLS step, which minimizes the
    weighted-square majorizer (w = 0.5 / sqrt(r^2 + eps^2)) and so cannot
    raise it either.  The loop stops once an iteration lowers the objective
    by no more than ``_TOL`` relative, at a gradient of exactly zero, or
    after ``cfg.max_iter`` iterations.  The shifts are returned with
    median(beta) = 0.  Any N >= 1 samples of one shape are accepted.
    """
    if len(samples) == 0:
        raise InputError("need at least one sample")
    if any(s.values.shape != samples[0].values.shape for s in samples):
        raise ShapeError("samples must share one resolution")
    stack = np.stack([s.values.reshape(-1) for s in samples])
    if not np.all(np.isfinite(stack)):
        raise InputError("sample depths must be finite")
    # A common shift of every beta leaves the energy unchanged, so on centred
    # depths the start and iterates are those of raw depths; beta is mapped
    # back at the end.
    centre = stack.mean()
    stack -= centre
    n, n_pix = stack.shape
    ia, ib = np.triu_indices(n, 1)
    m = len(ia)
    blocks = [stack[:, j:j + _BLOCK] for j in range(0, n_pix, _BLOCK)]
    floor = m * n_pix * cfg.eps_c    # sum of the roots at zero residual
    lam = 0.5 * m * n_pix            # prior weight: half the pairwise term count
    alpha = np.ones(n)
    beta = np.zeros(n)

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
    # IRLS solves for the new point: the prior pulls alpha to 1, the last
    # two rows are sum(beta) = 0 and sum(alpha) = N
    irls_rhs = np.zeros(2 * n + 2)
    irls_rhs[:n] = lam
    irls_rhs[-1] = n
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
            sums = sums + w.reshape(3 * m, b.shape[1]) @ (basis if basis is not None else _basis(b))
        obj = roots - floor + lam * float(np.sum((alpha - 1.0) ** 2))
        return obj, sums.reshape(3, -1)

    def bordered(pair_sums):
        """Normal matrix plus lam on the alpha diagonal, bordered by the
        gauge rows sum(beta) and sum(alpha)."""
        lhs = np.zeros((2 * n + 2, 2 * n + 2))
        np.add.at(lhs, (dest[:, :, None], dest[:, None, :]),
                  sign[:, None] * sign * pair_sums[mat_cols])
        lhs[np.arange(n), np.arange(n)] += lam
        lhs[n:2 * n, 2 * n] = lhs[2 * n, n:2 * n] = 1.0
        lhs[:n, 2 * n + 1] = lhs[2 * n + 1, :n] = 1.0
        return lhs

    obj, sums = evaluate(alpha, beta)
    trace = [obj]
    converged = False
    for _ in range(cfg.max_iter):
        grad = np.zeros(2 * n + 2)
        np.add.at(grad, dest, sign * sums[1][vec_cols])
        grad[:n] += lam * (alpha - 1.0)
        if not grad.any():      # one sample, or identical samples
            converged = True
            break
        step = np.linalg.solve(bordered(sums[2]), -grad)
        new = (alpha + step[:n], beta + step[n:2 * n])
        new_obj, new_sums = evaluate(*new)
        if not new_obj <= obj:
            sol = np.linalg.solve(bordered(sums[0]), irls_rhs)
            new = (sol[:n], sol[n:2 * n])
            new_obj, new_sums = evaluate(*new)
        (alpha, beta), obj, sums = new, new_obj, new_sums
        trace.append(obj)
        if trace[-2] - obj <= _TOL * abs(trace[-2]):
            converged = True
            break
    beta = beta - centre * alpha
    # median from a sort: np.median would import numpy.ma, ~1 MB of modules
    order = np.sort(beta)
    beta -= 0.5 * (order[(n - 1) // 2] + order[n // 2])
    return AlignmentParams(alpha=alpha, beta=beta, objective_trace=trace,
                           iterations=len(trace) - 1, converged=converged)


# --- Per-pixel robust consensus -------------------------------------------


def _energy(z, vals, scale, weight, eps_c: float, slope_only: bool = False):
    """E, E' and E'' at z of sum_k weight_k * rho((vals_k - z) / scale_k);
    E' alone with ``slope_only``, bit for bit the same, for the bisection.

    ``vals`` is (rows, ...) and ``z`` broadcasts against one row; ``scale``
    and ``weight`` are (rows,).  The row sums are contractions with BLAS.
    """
    u = vals - z
    u /= scale.reshape((-1,) + (1,) * (vals.ndim - 1))
    root = u * u
    root += eps_c * eps_c
    np.sqrt(root, out=root)
    if slope_only:
        np.divide(1.0, root, out=root)
        root *= u
        return -np.tensordot(weight / scale, root, 1)
    inv = 1.0 / root
    e = np.tensordot(weight, root, 1) - eps_c * weight.sum()
    d1 = -np.tensordot(weight / scale, u * inv, 1)
    d2 = np.tensordot(weight * (eps_c / scale) ** 2, inv * inv * inv, 1)
    return e, d1, d2


def _consensus_minimize(s: np.ndarray, r, cfg: URCAConfig):
    """Per-pixel minimiser M and minimum energy U over the trailing axes, and
    the bisection's halvings (``_MAX_ROUNDS`` when it stopped on the cap).

    Samples s (N, ...) and recursive values r (K, ...) form one stack, rows
    scaled by tau_s or tau_r (+ delta_stab) and weighted 1 or gamma / K.
    """
    vals = s if r is None else np.concatenate([s, r])
    n, k = len(s), len(vals) - len(s)
    scale = np.repeat([cfg.tau_s, cfg.tau_r], [n, k]) + cfg.delta_stab
    weight = np.repeat([1.0, cfg.gamma / max(k, 1)], [n, k])
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    rounds = 0
    while rounds < _MAX_ROUNDS and np.max(hi - lo) > _Z_TOL:
        rounds += 1
        mid = 0.5 * (lo + hi)
        rising = _energy(mid, vals, scale, weight, cfg.eps_c, True) >= 0     # E' alone
        lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
    z = 0.5 * (lo + hi)
    _, d1, d2 = _energy(z, vals, scale, weight, cfg.eps_c)
    z = np.clip(z - d1 / d2, lo, hi)
    return z, _energy(z, vals, scale, weight, cfg.eps_c)[0], rounds


@dataclass
class ConsensusOutput:
    consensus: DepthMap
    uncertainty: np.ndarray     # per-pixel minimum energy, >= 0
    reliability: np.ndarray     # the reliability proxy U, see fuse
    alignment: AlignmentParams
    bisection_rounds: int       # consensus halvings; _MAX_ROUNDS means it hit the cap


def fuse(samples, trace_depths=None, cfg: URCAConfig = URCAConfig()) -> ConsensusOutput:
    """Align, then run the per-pixel consensus over a full map.

    ``samples`` are DepthMaps from repeated stochastic generation;
    ``trace_depths`` are the per-level decoded maps (coarse -> fine) of one
    generation run, each affine-fitted to the aligned sample mean before
    entering the recursive term.
    The reliability proxy U is the energy over N times its weight, N + gamma
    with the recursive term and N without: the mean disagreement, times 1/N
    for the uncertainty of the consensus.
    """
    align = align_samples(samples, cfg)
    aligned = np.stack([align.alpha[i] * samples[i].values + align.beta[i]
                        for i in range(len(samples))])
    r = None
    if trace_depths is not None and len(trace_depths) > 0 and cfg.gamma != 0.0:
        if any(d.values.shape != aligned.shape[1:] for d in trace_depths):
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
    m, u, rounds = _consensus_minimize(aligned, r, cfg)
    n = len(samples)
    mask = np.logical_and.reduce([s.valid_mask for s in samples])
    return ConsensusOutput(consensus=DepthMap(values=m, valid_mask=mask), uncertainty=u,
                           reliability=u / (n * (n + cfg.gamma)) if r is not None else u / (n * n),
                           alignment=align, bisection_rounds=rounds)


def uncertainty_stats(u_map: np.ndarray, threshold: float):
    """``_HIST_BINS``-bin histogram over [0, max] and the exceedance fraction."""
    u = np.asarray(u_map, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(u)):
        raise InputError("uncertainty map must be finite")
    if not np.isfinite(threshold):
        raise InputError(f"uncertainty threshold must be finite, got {threshold}")
    top = float(u.max()) if u.size else 0.0
    edges = np.linspace(0.0, top if top > 0 else 1.0, _HIST_BINS + 1)
    hist, _ = np.histogram(u, bins=edges)
    exceedance = float(np.mean(u > threshold)) if u.size else 0.0
    return hist, edges, exceedance
