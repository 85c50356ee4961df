"""Counter-based randomness with a reproducibility contract.

Every draw is keyed by ``(seed, path)`` where ``path`` is a tuple of
integers and short strings naming the draw site (level, token, timestep,
draw index, ...).  Identical ``(seed, path)`` pairs yield identical values
no matter in which order the draws are made, so parallel or reordered
execution cannot change results.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(h: int, v: int) -> int:
    # splitmix64-style avalanche step
    h = (h ^ (v + 0x9E3779B97F4A7C15)) & _MASK
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h


@lru_cache(maxsize=256)
def _str_hash(c: str) -> int:
    # FNV-1a over the UTF-8 bytes; draw sites reuse a handful of names
    h = 0xCBF29CE484222325
    for byte in c.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _component_to_int(c) -> int:
    if isinstance(c, (int, np.integer)):
        return int(c) & _MASK
    if isinstance(c, str):
        return _str_hash(c)
    raise TypeError(f"rng path components must be int or str, got {type(c)!r}")


def _extend(h: int, ids: tuple) -> int:
    for c in ids:
        h = _mix(h, _component_to_int(c))
    return h


class RngStream:
    """Stateless generator factory keyed by (seed, path prefix)."""

    def __init__(self, seed: int, prefix: tuple = ()):
        self.seed = int(seed)
        self.prefix = tuple(prefix)
        # the prefix part of every draw's key, mixed once
        self._key = _extend(self.seed & _MASK, self.prefix)

    def child(self, *ids) -> "RngStream":
        """Stream whose draws live under an extended path prefix."""
        out = object.__new__(RngStream)
        out.seed = self.seed
        out.prefix = self.prefix + ids
        out._key = _extend(self._key, ids)
        return out

    def generator(self, *ids) -> np.random.Generator:
        h = _extend(self._key, ids)
        # second key word decorrelates from a plain counter
        return np.random.Generator(np.random.Philox(key=[h, _mix(h, 0x5851F42D4C957F2D)]))

    def normal(self, shape, *ids) -> np.ndarray:
        """Standard-normal draw at path ``prefix + ids``."""
        return self.generator(*ids).standard_normal(shape)

    def uniform(self, shape, *ids, low=0.0, high=1.0) -> np.ndarray:
        return self.generator(*ids).uniform(low, high, shape)

    def integers(self, low: int, high: int, *ids, size=None):
        """Uniform integers in [low, high) at path ``prefix + ids``."""
        return self.generator(*ids).integers(low, high, size=size)
