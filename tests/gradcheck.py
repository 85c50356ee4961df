"""Central-finite-difference check of the MLP's hand-written backward,
shared by criterion 01 and the nnet tests."""

from dataclasses import dataclass

import numpy as np

from fractaldepth import nnet


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool


def grad_check(params: nnet.MlpParams, x: np.ndarray, tolerance: float = 1e-4,
               h: float = 1e-5) -> GradCheckReport:
    """Analytic vs central-finite-difference gradients of L = 0.5*||y||^2;
    a vector ``x`` is one input row.  The forward and backward are looked up
    on :mod:`fractaldepth.nnet` at each call, so a test can patch them."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y, cache = nnet.mlp_forward(params, x)
    grads = nnet.mlp_backward(params, cache, y)
    analytic = grads.named("p")
    tensors = params.named("p")
    max_rel = 0.0
    for name, p in tensors.items():
        a = analytic[name]
        flat = p.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            yp, _ = nnet.mlp_forward(params, x)
            flat[idx] = orig - h
            ym, _ = nnet.mlp_forward(params, x)
            flat[idx] = orig
            num = (0.5 * np.sum(yp * yp) - 0.5 * np.sum(ym * ym)) / (2 * h)
            ana = a.reshape(-1)[idx]
            denom = max(abs(num), abs(ana), 1e-8)
            rel = abs(num - ana) / denom if (num != 0.0 or ana != 0.0) else 0.0
            max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_error=max_rel, passed=max_rel <= tolerance)
