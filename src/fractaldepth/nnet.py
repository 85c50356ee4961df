"""Noise predictor network with hand-derived gradients, plus optimizer bits.

The predictor is a small fully-connected net (SiLU hidden layers, linear
output) on (batch, dim) inputs.  One forward loop serves every caller: it
optionally takes the layer-0 pre-activation of hoisted input columns and
optionally keeps the activations its backward needs.  Backward passes are
written out explicitly and validated against central finite differences; no
autodiff framework is involved.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError
from .rng import RngStream


# exp(-x) overflows to inf for x below -88.7 in float32 (-709 in float64).
# The sigmoid 1 / (1 + inf) is then 0 and silu(x) = x / inf is -0, their
# limits, so the overflow is not reported.

def silu(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def silu_grad(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def time_embed(t, dim: int) -> np.ndarray:
    """Interleaved sin/cos features of the timestep.

    Frequencies form a geometric series from 1 down to 1/10000.  ``t`` may
    be a scalar or an array; one embedding row is produced per entry.
    """
    if dim % 2 != 0 or dim < 2:
        raise ConfigError(f"time embedding dim must be even and >= 2, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    if half == 1:
        freqs = np.ones(1)
    else:
        freqs = 10000.0 ** (-np.arange(half) / (half - 1))
    ang = t[..., None] * freqs
    out = np.empty(t.shape + (dim,))
    out[..., 0::2] = np.sin(ang)
    out[..., 1::2] = np.cos(ang)
    return out


@dataclass
class MlpParams:
    """Per-layer weights (in x out) and biases; hidden layers use SiLU."""

    weights: list
    biases: list

    @property
    def sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def named(self, prefix: str) -> dict:
        return _named_layers(self.weights, self.biases, prefix)

    @classmethod
    def empty(cls, sizes) -> "MlpParams":
        """Layers of ``sizes`` on uninitialised float64 storage, for a
        checkpoint to fill."""
        return cls(weights=[np.empty((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
                   biases=[np.empty(b) for b in sizes[1:]])


def _named_layers(weights: list, biases: list, prefix: str) -> dict:
    out = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    return out


def init_mlp(sizes, rng: RngStream, final_scale: float = 1.0) -> MlpParams:
    """He-style scaled-uniform fan-in initialization."""
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform((fan_in, fan_out), "w", i, low=-bound, high=bound)
        if i == len(sizes) - 2:
            w = w * final_scale
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def mlp_forward(params: MlpParams, x: np.ndarray, pre0: np.ndarray = None,
                want_cache: bool = True):
    """Returns (output, cache) for a (batch, dim) input ``x``.

    Layer 0 computes ``x @ W0[:k] + pre0``, ``k`` being the columns of
    ``x``; without ``pre0`` that is ``x @ W0 + b0``.  A ``pre0`` given is the
    layer-0 pre-activation of the input columns past ``x`` (their product
    with the rest of ``W0``, plus ``b0``), one row or one per row of ``x``,
    so callers project inputs that do not change between calls once.

    Each hidden layer applies SiLU in place, through one scratch array, and
    its output equals that of the out-of-place arithmetic bit for bit.  The
    cache holds what :func:`mlp_backward` needs, ``(inputs, sigmoids)``:
    each layer's input and each hidden layer's sigmoid.  ``want_cache=False``
    keeps neither and returns ``None`` as the cache.

    ``x`` and ``pre0`` are cast to the dtype of the weights, so float32
    weights give a float32 forward and output.
    """
    w0 = params.weights[0]
    x = np.asarray(x, dtype=w0.dtype)
    if pre0 is None:
        pre0 = params.biases[0]
        fits = x.ndim == 2 and x.shape[1] == w0.shape[0]
    else:
        pre0 = np.asarray(pre0, dtype=w0.dtype)
        fits = (x.ndim == 2 and x.shape[1] <= w0.shape[0]
                and pre0.shape in ((w0.shape[1],), (x.shape[0], w0.shape[1])))
    if not fits:
        raise ShapeError(f"input {x.shape} with pre0 {pre0.shape} does not fit "
                         f"first layer {w0.shape}")
    inputs, sigmoids = [], []
    h = x
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if want_cache:
            inputs.append(h)
        a = h @ w[:h.shape[1]]
        a += pre0 if i == 0 else b
        if i != n_layers - 1:
            # silu(a) = a / (1 + exp(-a)) with e = 1 + exp(-a) as scratch
            e = np.negative(a)
            with np.errstate(over="ignore"):
                np.exp(e, out=e)
            e += 1.0
            a /= e
            if want_cache:
                sigmoids.append(np.reciprocal(e, out=e))
        h = a
    return h, ((inputs, sigmoids) if want_cache else None)


@dataclass
class MlpGrads:
    weights: list
    biases: list
    pre0: np.ndarray    # gradient of the layer-0 pre-activation, per row

    def named(self, prefix: str) -> dict:
        return _named_layers(self.weights, self.biases, prefix)


def mlp_backward(params: MlpParams, cache, grad_out: np.ndarray) -> MlpGrads:
    """Exact reverse-mode gradients for :func:`mlp_forward`.

    ``weights[0]`` is ``inputs[0].T @ g``: the rows of ``W0`` that ``x``
    met, which is all of ``W0`` after a forward without ``pre0``.  ``pre0``
    is the gradient of the layer-0 pre-activation, one row per input row;
    the input gradient is ``pre0 @ W0[:k].T``, and a caller that projected
    other columns into ``pre0`` applies their chain rule from it.

    The backward works in the cache's hidden activations, so one cache
    serves one backward.
    """
    inputs, sigmoids = cache
    g = np.asarray(grad_out, dtype=np.float64)
    out_shape = (inputs[0].shape[0], params.weights[-1].shape[1])
    if g.shape != out_shape:
        raise ShapeError(f"output grad shape {g.shape} != {out_shape}")
    n_layers = len(params.weights)
    dws = [None] * n_layers
    dbs = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i != n_layers - 1:
            # silu'(a) = s + h (1 - s) from the kept sigmoid s and h = silu(a),
            # written as h q + 1 - q with q = 1 - s into the two cached arrays
            # (no later step reads them); g is this call's own array here
            h = inputs[i + 1]
            q = np.subtract(1.0, sigmoids[i], out=sigmoids[i])
            h *= q
            h += 1.0
            h -= q
            g *= h
        dws[i] = inputs[i].T @ g
        dbs[i] = g.sum(axis=0)
        if i:
            g = g @ params.weights[i].T
    return MlpGrads(weights=dws, biases=dbs, pre0=g)


# --- AdamW ----------------------------------------------------------------

@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adamw_step(params: dict, grads: dict, state: AdamWState, lr: float,
               betas=(0.9, 0.95), weight_decay: float = 0.05, eps: float = 1e-8) -> None:
    """One decoupled-weight-decay Adam step over a dict of parameter arrays.

    Rejects the whole step (state untouched) if any gradient is non-finite
    or does not have its parameter's shape.  The update runs in place, in
    two scratch arrays the size of the largest tensor, with the operations
    and their order of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, so it
    equals that formula bit for bit.
    """
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeError(f"{name}: param shape {p.shape} != grad shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for {name!r}; step rejected")
    b1, b2 = betas
    state.step += 1
    t = state.step
    size = max((p.size for p in params.values()), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        a = scratch_a[:p.size].reshape(p.shape)
        b = scratch_b[:p.size].reshape(p.shape)
        # decoupled decay applied before the moment update
        p *= (1.0 - lr * weight_decay)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += np.multiply(1 - b1, g, out=a)
        v *= b2
        np.multiply(1 - b2, g, out=a)
        a *= g
        v += a
        np.divide(m, 1 - b1 ** t, out=a)     # mhat
        a *= lr
        np.divide(v, 1 - b2 ** t, out=b)     # vhat
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


@dataclass(frozen=True)
class LrSchedule:
    base_lr: float
    warmup_steps: int
    total_steps: int
    final_lr: float


def lr_at(step: int, sched: LrSchedule) -> float:
    """Linear warmup 0 -> base, then cosine base -> final; clamps past total."""
    if step >= sched.total_steps:
        return sched.final_lr
    if sched.warmup_steps > 0 and step < sched.warmup_steps:
        return sched.base_lr * step / sched.warmup_steps
    span = sched.total_steps - sched.warmup_steps
    frac = (step - sched.warmup_steps) / span
    return sched.final_lr + (sched.base_lr - sched.final_lr) * 0.5 * (1.0 + math.cos(math.pi * frac))


# --- Gradient verification ------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    tolerance: float


def grad_check(params: MlpParams, x: np.ndarray, tolerance: float = 1e-4,
               h: float = 1e-5) -> GradCheckReport:
    """Analytic vs central-finite-difference gradients of L = 0.5*||y||^2;
    a vector ``x`` is one input row."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y, cache = mlp_forward(params, x)
    grads = mlp_backward(params, cache, y)
    analytic = grads.named("p")
    tensors = params.named("p")
    max_rel = 0.0
    for name, p in tensors.items():
        a = analytic[name]
        flat = p.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            yp, _ = mlp_forward(params, x)
            flat[idx] = orig - h
            ym, _ = mlp_forward(params, x)
            flat[idx] = orig
            num = (0.5 * np.sum(yp * yp) - 0.5 * np.sum(ym * ym)) / (2 * h)
            ana = a.reshape(-1)[idx]
            denom = max(abs(num), abs(ana), 1e-8)
            rel = abs(num - ana) / denom if (num != 0.0 or ana != 0.0) else 0.0
            max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_error=max_rel, passed=max_rel <= tolerance,
                           tolerance=tolerance)


# --- Checkpoint container -------------------------------------------------

_MAGIC = b"FADN1"


def save_checkpoint(path, named_params: dict, meta: dict = None) -> None:
    """Binary container: magic, JSON manifest, little-endian float64 blobs."""
    manifest = {
        "meta": meta or {},
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in named_params.items()],
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(mbytes)))
        f.write(mbytes)
        for v in named_params.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def read_checkpoint_manifest(f, path):
    """Reads the magic, header and manifest of the checkpoint open as ``f``.

    Returns ``(meta, entries)``, ``entries`` being the ``(name, shape)`` of
    each tensor in file order, and leaves ``f`` at the first tensor's bytes.
    A file whose header is cut short or whose manifest does not parse raises
    ``ConfigError`` naming ``path``.
    """
    size = os.fstat(f.fileno()).st_size
    if f.read(len(_MAGIC)) != _MAGIC:
        raise ConfigError(f"{path}: bad checkpoint magic")
    head = f.read(4)
    if len(head) < 4:
        raise ConfigError(f"{path}: checkpoint cut short in its header")
    (mlen,) = struct.unpack("<I", head)
    if mlen > size - f.tell():
        raise ConfigError(f"{path}: checkpoint cut short in its manifest")
    try:
        manifest = json.loads(f.read(mlen).decode("utf-8"))
        meta = manifest["meta"]
        entries = [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]]
        if not (isinstance(meta, dict)
                and all(isinstance(n, str) and all(type(d) is int and d >= 0 for d in shape)
                        for n, shape in entries)
                and len({n for n, _ in entries}) == len(entries)):
            raise ValueError("unexpected manifest layout")
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{path}: checkpoint manifest does not parse: {e}") from e
    return meta, entries


def read_checkpoint_tensors(f, path, entries, target) -> None:
    """Reads each tensor's bytes straight into ``target(name, shape)``.

    ``target`` returns a C-contiguous float64 array of that shape; ``f`` is
    at the first tensor, as ``read_checkpoint_manifest`` leaves it.  A file
    that ends before its last tensor, or carries bytes after it, raises
    ``ConfigError`` naming ``path``.
    """
    size = os.fstat(f.fileno()).st_size
    for name, shape in entries:
        nbytes = 8 * math.prod(shape)
        # checked before the target is made, so a corrupt shape allocates nothing
        if nbytes > size - f.tell():
            raise ConfigError(f"{path}: checkpoint cut short in tensor {name!r}")
        out = target(name, shape)
        if f.readinto(out) != nbytes:
            raise ConfigError(f"{path}: checkpoint cut short in tensor {name!r}")
        if sys.byteorder != "little":   # the file holds little-endian float64
            out.byteswap(inplace=True)
    if f.tell() != size:
        raise ConfigError(f"{path}: {size - f.tell()} trailing bytes after the last tensor")


def load_checkpoint(path):
    """Returns (named_params, meta); round-trips bit-exactly.

    A file that is cut short, carries trailing bytes or whose manifest does
    not parse raises ``ConfigError`` naming the path.
    """
    params = {}

    def new_tensor(name, shape):
        params[name] = np.empty(shape)
        return params[name]

    with open(path, "rb") as f:
        meta, entries = read_checkpoint_manifest(f, path)
        read_checkpoint_tensors(f, path, entries, new_tensor)
    return params, meta
