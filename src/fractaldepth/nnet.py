"""Noise predictor network with hand-derived gradients, plus optimizer bits.

The predictor is a small fully-connected net (SiLU hidden layers, linear
output) on (batch, dim) inputs.  One forward loop serves every caller: it
optionally takes the layer-0 pre-activation of hoisted input columns and
optionally keeps the activations its backward needs.  Backward passes are
written out explicitly and validated against central finite differences; no
autodiff framework is involved.  The in-place SiLU and its derivative also
serve the conv pyramid of :mod:`vcfr`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError
from .rng import RngStream


# exp(-x) overflows to inf for x below -88.7 in float32 (-709 in float64).
# The sigmoid 1 / (1 + inf) is then 0 and silu(x) = x / inf is -0, their
# limits, so the overflow is not reported.

def silu_inplace(a: np.ndarray, keep_sigmoid: bool):
    """silu(a) = a / (1 + exp(-a)) into ``a``, through one scratch array, bit
    for bit the out-of-place result; returns the sigmoid 1 / (1 + exp(-a))
    in that array when ``keep_sigmoid``, else ``None``."""
    e = np.negative(a)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    a /= e
    return np.reciprocal(e, out=e) if keep_sigmoid else None


def silu_grad_inplace(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """silu'(a) = s + h (1 - s) from h = silu(a) and s = sigmoid(a), with no
    exp: written as h q + 1 - q with q = 1 - s, into ``h`` (returned) and
    ``s``, so a cache that held them serves one backward."""
    q = np.subtract(1.0, s, out=s)
    h *= q
    h += 1.0
    h -= q
    return h


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays, through BLAS when ``a`` has one column too:
    ``np.matmul`` takes numpy's own loop for such a product, several times
    slower than the GEMM ``np.dot`` calls.  Each entry of a one-column
    product is one rounded multiply, so both give the same bytes."""
    return np.dot(a, b) if a.shape[1] == 1 else a @ b


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
    def empty(cls, sizes, alloc=np.empty) -> "MlpParams":
        """Layers of ``sizes`` on uninitialised float32 storage, the model's
        one parameter dtype, for an initialisation or a checkpoint to fill;
        ``alloc(shape, dtype)`` makes each array."""
        return cls(weights=[alloc((a, b), np.float32) for a, b in zip(sizes[:-1], sizes[1:])],
                   biases=[alloc(b, np.float32) for b in sizes[1:]])


def _named_layers(weights: list, biases: list, prefix: str) -> dict:
    out = {}
    for i, (w, b) in enumerate(zip(weights, biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    return out


def init_mlp(sizes, rng: RngStream, final_scale: float = 1.0) -> MlpParams:
    """He-style scaled-uniform fan-in initialization, drawn in float64."""
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
        a = _matmul(h, w[:h.shape[1]])
        a += pre0 if i == 0 else b
        if i != n_layers - 1:
            sigmoids.append(silu_inplace(a, want_cache))
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
    serves one backward.  It computes in the dtype of the weights, as the
    forward does: ``grad_out`` is cast to it, and every gradient returned has
    it.  Float32 weights give a float32 backward; float64 weights the float64
    one.
    """
    inputs, sigmoids = cache
    g = np.asarray(grad_out, dtype=params.weights[0].dtype)
    out_shape = (inputs[0].shape[0], params.weights[-1].shape[1])
    if g.shape != out_shape:
        raise ShapeError(f"output grad shape {g.shape} != {out_shape}")
    n_layers = len(params.weights)
    dws = [None] * n_layers
    dbs = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i != n_layers - 1:
            # no later step reads inputs[i + 1] or sigmoids[i]; g is this
            # call's own array here
            g *= silu_grad_inplace(inputs[i + 1], sigmoids[i])
        dws[i] = inputs[i].T @ g
        dbs[i] = g.sum(axis=0)
        if i:
            g = _matmul(g, params.weights[i].T)
    return MlpGrads(weights=dws, biases=dbs, pre0=g)


# --- AdamW ----------------------------------------------------------------

@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


_BETAS, _EPS = (0.9, 0.95), 1e-8      # AdamW moment decays and denominator guard
# The largest gradient norm a step accepts.  The float32 second moment is a
# decayed mean of g**2, so below 2**61 it stays under 2**122 ~ 5.3e36, and
# float32's largest value is 3.4e38.
_GRAD_NORM_MAX = 2.0 ** 61


def adamw_step(params: dict, grads: dict, state: AdamWState, lr: float,
               weight_decay: float) -> None:
    """One decoupled-weight-decay Adam step over a dict of parameter arrays.

    Rejects the whole step (state untouched) if any gradient is non-finite,
    has a norm beyond ``_GRAD_NORM_MAX`` or does not have its parameter's
    shape.  The model's parameters and the moments m and v are float32
    (Dettmers et al., *8-bit Optimizers*, arXiv:2110.02861, keep the moments
    narrower still), and the update is formed from the gradient in float32
    (a float64 one, a bias or gate sum, is cast), in two float32 scratch
    arrays the size of the largest tensor.  No float64 master copy is kept:
    the smallest step the schedule takes (lr 1e-5) is still about 170 times
    float32's unit roundoff relative to a weight of size 1, so updates do not
    vanish in rounding as they would in half precision.  Its operations and
    their order are those of the decay ``p *= 1 - lr * weight_decay`` and
    ``p -= (lr / c1) * m / (sqrt(v) * (1 / sqrt(c2)) + _EPS)``, PyTorch's
    AdamW arithmetic with the bias corrections c1, c2 as scalars, so it
    equals that formula run out of place in float32 bit for bit.
    """
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeError(f"{name}: param shape {p.shape} != grad shape {g.shape}")
        flat = g.reshape(-1)
        # one BLAS pass; nan or inf in g makes the squared norm nan or inf
        if not float(np.vdot(flat, flat)) <= _GRAD_NORM_MAX ** 2:
            raise NumericsError(f"non-finite gradient, or one of norm beyond "
                                f"{_GRAD_NORM_MAX:.3g}, for {name!r}; step rejected")
    b1, b2 = _BETAS
    state.step += 1
    t = state.step
    # Python scalars meet float32 arrays below, so each rounds to float32
    step_size, root_c2 = lr / (1 - b1 ** t), math.sqrt(1 - b2 ** t)
    size = max((p.size for p in params.values()), default=0)
    scratch_a, scratch_b = np.empty(size, np.float32), np.empty(size, np.float32)
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros(p.shape, np.float32)
            state.v[name] = np.zeros(p.shape, np.float32)
        a = scratch_a[:p.size].reshape(p.shape)
        b = scratch_b[:p.size].reshape(p.shape)
        # decoupled decay applied before the moment update
        p *= (1.0 - lr * weight_decay)
        a[...] = grads[name]                 # g in float32
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += np.multiply(1 - b1, a, out=b)
        v *= b2
        np.multiply(a, a, out=b)
        b *= 1 - b2
        v += b
        np.sqrt(v, out=b)
        b *= 1 / root_c2
        b += _EPS
        np.divide(m, b, out=a)
        a *= step_size
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


# --- Checkpoint container -------------------------------------------------

_MAGIC = b"FADN1"
# float64 values per read of a checkpoint tensor (64 KB)
_READ_CHUNK = 8192


def save_checkpoint(path, named_params: dict, meta: dict) -> None:
    """Binary container: magic, JSON manifest, little-endian float64 blobs.
    A float32 array widens exactly, so it loads back bit for bit."""
    manifest = {
        "meta": meta,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in named_params.items()],
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(mbytes)))
        f.write(mbytes)
        for v in named_params.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def check_tensor_shapes(path, shapes: dict, wanted: dict) -> None:
    """``ConfigError`` naming ``path`` unless the checkpoint's tensor
    ``shapes`` (by name) are those a model ``wanted``."""
    if set(wanted) != set(shapes):
        raise ConfigError(f"{path}: checkpoint tensors {sorted(set(shapes) ^ set(wanted))} "
                          "do not match the model")
    for name, shape in shapes.items():
        if wanted[name] != shape:
            raise ConfigError(f"{path}: tensor {name!r} has shape {shape}, "
                              f"the model needs {wanted[name]}")


def load_checkpoint(path, targets=None):
    """Returns ``(named_params, meta)``; round-trips bit-exactly.

    The magic, header and manifest are parsed, and the tensors' byte total is
    checked against the bytes left in the file, before any array is made.
    The arrays are then ``targets(meta, shapes)``, given the manifest's meta
    and its tensor shapes by name, a dict of C-contiguous float32 or float64
    arrays, one per tensor of the file, or new float64 ones without
    ``targets``.  Each tensor's little-endian float64 values are read in
    chunks of ``_READ_CHUNK`` values into its array, so a float32 array holds
    each value rounded to float32 and no tensor is held twice; a value beyond
    float32's range becomes inf there, without a warning, for the caller to
    reject.  A file that is cut short, carries trailing bytes or whose
    manifest does not parse, and targets whose names or shapes differ from
    its tensors, raise ``ConfigError`` naming the path.
    """
    with open(path, "rb") as f:
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
            shapes = {e["name"]: tuple(e["shape"]) for e in manifest["tensors"]}
            if not (isinstance(meta, dict) and len(shapes) == len(manifest["tensors"])
                    and all(isinstance(n, str) and all(type(d) is int and d >= 0 for d in shape)
                            for n, shape in shapes.items())):
                raise ValueError("unexpected manifest layout")
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"{path}: checkpoint manifest does not parse: {e}") from e
        left = size - f.tell()
        nbytes = 8 * sum(math.prod(shape) for shape in shapes.values())
        if nbytes != left:
            raise ConfigError(f"{path}: checkpoint cut short in its tensors" if nbytes > left
                              else f"{path}: {left - nbytes} trailing bytes after the last tensor")
        params = targets(meta, shapes) if targets else {n: np.empty(s) for n, s in shapes.items()}
        check_tensor_shapes(path, shapes, {n: p.shape for n, p in params.items()})
        for name in shapes:
            flat = params[name].reshape(-1)
            with np.errstate(over="ignore"):
                for lo in range(0, flat.size, _READ_CHUNK):
                    part = flat[lo:lo + _READ_CHUNK]
                    part[...] = np.frombuffer(f.read(8 * part.size), dtype="<f8")
    return params, meta
