"""Noise schedule, forward noising and reverse sampling.

The working objects are float64 arrays (a latent grid, or a batch of
flattened tokens); every operation is a pure function of its inputs.  The
chain state, the schedule and every reverse step stay float64, whatever
arithmetic the predictor uses: ``fractal`` runs its noise-predictor MLP in
float32 and hands ``sample`` its prediction cast back to float64.
Timesteps are 1-based: t runs over 1..T, with the convention
alpha_bar_0 = 1 so the final denoising step (t=1) is exact and noiseless.

A schedule's arrays are indexed by its step k = 1..len; ``t[k-1]`` is the
diffusion timestep of step k.  ``make_linear_schedule`` keeps every
timestep (t = k); ``respace`` keeps a subsequence of them, as in Nichol &
Dhariwal, *Improved DDPMs* (arXiv:2102.09672, section 4): each kept pair
t -> t' takes one step with alpha = abar_t / abar_t'.  Every stochastic step
draws its noise with the DDPM posterior variance (Ho et al.,
arXiv:2006.11239, section 3.2)
sigma^2 = (1 - abar_t') / (1 - abar_t) * (1 - alpha), which is 0 at t' = 0,
so the last step of any schedule is noiseless.

``sample`` is the package's one reverse loop.  It runs a single chain, or N
chains stacked along axis 0 with per-chain noise streams, on whatever
schedule it is given; ``fractal`` generates every level through it on a
respaced schedule, with a predictor that reuses the level's hoisted
first-layer projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ShapeError, TimestepError
from .rng import RngStream


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step coefficients; arrays are indexed by step k-1.

    ``t`` holds each step's diffusion timestep, ascending; ``beta`` and
    ``alpha = 1 - beta`` are those of the step from ``t[k-1]`` to the
    previous kept timestep (0 for the first step).
    """

    t: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray

    @property
    def T(self) -> int:
        """The number of steps."""
        return len(self.beta)

    def abar(self, k: int) -> float:
        """alpha_bar at step k, with alpha_bar_0 = 1."""
        if k == 0:
            return 1.0
        return float(self.alpha_bar[k - 1])


def _posterior_sigma(beta: np.ndarray, alpha_bar: np.ndarray) -> np.ndarray:
    """sqrt of the posterior variance (1 - abar_prev) / (1 - abar) * beta per step."""
    abar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    return np.sqrt((1.0 - abar_prev) / (1.0 - alpha_bar) * beta)


def make_linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(t=np.arange(1, T + 1), beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         sigma=_posterior_sigma(beta, alpha_bar))


def respace(sched: NoiseSchedule, steps: int) -> NoiseSchedule:
    """The sub-schedule over the kept timesteps round(linspace(T, 1, steps)).

    Where two kept timesteps are consecutive the step keeps ``sched``'s own
    beta and alpha, because abar_t / abar_{t-1} is not bit-equal to alpha_t;
    so ``respace(sched, sched.T)`` equals ``sched`` array for array.
    """
    if not 1 <= steps <= sched.T:
        raise ConfigError(f"need 1 <= steps <= {sched.T}, got {steps}")
    idx = np.round(np.linspace(sched.T, 1, steps)).astype(np.int64)[::-1] - 1
    alpha_bar = sched.alpha_bar[idx]
    prev = np.concatenate([[-1], idx[:-1]])
    consecutive = idx - prev == 1
    abar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    alpha = np.where(consecutive, sched.alpha[idx], alpha_bar / abar_prev)
    beta = np.where(consecutive, sched.beta[idx], 1.0 - alpha)
    return NoiseSchedule(t=sched.t[idx], beta=beta, alpha=alpha, alpha_bar=alpha_bar,
                         sigma=_posterior_sigma(beta, alpha_bar))


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


def reverse_step(z_t: np.ndarray, t: int, eps_pred: np.ndarray, sched: NoiseSchedule,
                 tau: float = 0.0, noise: np.ndarray = None) -> np.ndarray:
    """Step ``t`` of ``sched`` (the timestep itself on an unrespaced schedule).

    The temperature scales only the stochastic term.
    """
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
    """Full reverse chain over the steps of ``sched``, last to first.

    ``predictor(z_t, t, condition)`` returns the predicted noise; ``t`` is the
    step's diffusion timestep, which also keys its noise draw.  ``rng`` is
    one :class:`RngStream`, or a sequence of N streams: then N chains of
    ``shape`` run stacked along axis 0, the result has shape
    ``(N * shape[0], ...)``, and chain k draws its initial state and step
    noise from stream k on the same paths as a single run on that stream.
    """
    if not np.isfinite(tau):
        raise InputError(f"sample needs a finite tau, got {tau}")
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    if not rngs:
        raise InputError("sample needs at least one RNG stream")
    z = np.concatenate([r.normal(shape, "init") for r in rngs])
    for k in range(sched.T, 0, -1):
        t = int(sched.t[k - 1])
        eps = np.asarray(predictor(z, t, condition), dtype=np.float64)
        if eps.shape != z.shape:
            raise ShapeError(f"predictor output shape {eps.shape} != {z.shape}")
        noise = None
        if tau != 0.0 and sched.sigma[k - 1] != 0.0:
            noise = np.concatenate([r.normal(shape, t, "step") for r in rngs])
        z = reverse_step(z, k, eps, sched, tau, noise)
    return z
