"""Noise schedule, forward noising, diffusion loss and reverse sampling.

The working objects are plain float64 arrays (a latent grid, or a batch
of flattened tokens); every operation is a pure function of its inputs.
Timesteps are 1-based: t runs over 1..T, with the convention
alpha_bar_0 = 1 so the final denoising step (t=1) is exact and noiseless.

``sample`` is the package's one reverse loop.  It runs a single chain, or N
chains stacked along axis 0 with per-chain noise streams; ``fractal``
generates every level through it, with a predictor that reuses the level's
hoisted first-layer projections.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ShapeError, TimestepError
from .rng import RngStream


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep coefficients; arrays are indexed by t-1."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray

    @property
    def T(self) -> int:
        return len(self.beta)

    def abar(self, t: int) -> float:
        """alpha_bar_t with alpha_bar_0 = 1."""
        if t == 0:
            return 1.0
        return float(self.alpha_bar[t - 1])


def make_linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta)
    sigma[0] = 0.0  # noiseless final step: z_0 is a point estimate
    return NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar, sigma=sigma)


def schedule_to_csv(sched: NoiseSchedule, path) -> None:
    """Dump (t, beta, alpha, alpha_bar, sigma) rows for audit."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "beta", "alpha", "alpha_bar", "sigma"])
        for t in range(1, sched.T + 1):
            w.writerow([t] + [repr(float(a[t - 1])) for a in
                              (sched.beta, sched.alpha, sched.alpha_bar, sched.sigma)])


def _check_t(t: int, sched: NoiseSchedule) -> None:
    if not (1 <= t <= sched.T):
        raise TimestepError(f"t={t} outside [1, {sched.T}]")


def forward_noise(z_star: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """z_t = sqrt(abar_t) z* + sqrt(1 - abar_t) eps."""
    _check_t(t, sched)
    z_star = np.asarray(z_star, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z_star.shape != eps.shape:
        raise ShapeError(f"shape mismatch {z_star.shape} vs {eps.shape}")
    ab = sched.abar(t)
    return np.sqrt(ab) * z_star + np.sqrt(1.0 - ab) * eps


def diffusion_loss(eps_true: np.ndarray, eps_pred: np.ndarray) -> float:
    """Mean squared error over all cells."""
    eps_true = np.asarray(eps_true, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    if eps_true.shape != eps_pred.shape:
        raise ShapeError(f"shape mismatch {eps_true.shape} vs {eps_pred.shape}")
    diff = eps_pred - eps_true
    return float(np.mean(diff * diff))


def reverse_step(z_t: np.ndarray, t: int, eps_pred: np.ndarray, sched: NoiseSchedule,
                 tau: float = 0.0, noise: np.ndarray = None) -> np.ndarray:
    """One denoising step; the temperature scales only the stochastic term."""
    _check_t(t, sched)
    z_t = np.asarray(z_t, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    if z_t.shape != eps_pred.shape:
        raise ShapeError(f"shape mismatch {z_t.shape} vs {eps_pred.shape}")
    a = sched.alpha[t - 1]
    ab = sched.abar(t)
    mean = (z_t - ((1.0 - a) / np.sqrt(1.0 - ab)) * eps_pred) / np.sqrt(a)
    s = tau * sched.sigma[t - 1]
    if s != 0.0:
        if noise is None:
            raise ShapeError("stochastic step needs a noise draw")
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != z_t.shape:
            raise ShapeError(f"noise shape {noise.shape} != {z_t.shape}")
        mean = mean + s * noise
    return mean


def sample(predictor, condition, shape, sched: NoiseSchedule, tau: float,
           rng) -> np.ndarray:
    """Full reverse chain z_T -> z_0.

    ``predictor(z_t, t, condition)`` returns the predicted noise.  ``rng`` is
    one :class:`RngStream`, or a sequence of N streams: then N chains of
    ``shape`` run stacked along axis 0, the result has shape
    ``(N * shape[0], ...)``, and chain k draws its initial state and step
    noise from stream k on the same paths as a single run on that stream.
    """
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    if not rngs:
        raise InputError("sample needs at least one RNG stream")
    z = np.concatenate([r.normal(shape, "init") for r in rngs])
    for t in range(sched.T, 0, -1):
        eps = np.asarray(predictor(z, t, condition), dtype=np.float64)
        if eps.shape != z.shape:
            raise ShapeError(f"predictor output shape {eps.shape} != {z.shape}")
        noise = None
        if tau != 0.0 and sched.sigma[t - 1] != 0.0:
            noise = np.concatenate([r.normal(shape, t, "step") for r in rngs])
        z = reverse_step(z, t, eps, sched, tau, noise)
    return z
