"""Depth map and latent grid file I/O.

Depth maps are written as 16-bit binary PGM (value = depth *
``COUNTS_PER_METER``, 0 marks invalid pixels) for viewing, and written and read
as 32-bit little-endian PFM with the conventional negative scale header.
Latent grids use PFM only.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .core import DepthMap
from .errors import InputError

COUNTS_PER_METER = 256.0      # PGM depth steps of 1/256 m


def write_pgm16(path, depth: DepthMap) -> None:
    scaled = np.round(depth.values * COUNTS_PER_METER)
    scaled = np.clip(scaled, 1, 65535).astype(">u2")
    scaled[~depth.valid_mask] = 0
    h, w = scaled.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(scaled.tobytes())


def write_pfm(path, values: np.ndarray) -> None:
    """Write a 2-D float array as grayscale PFM (bottom-up, little-endian)."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise InputError(f"PFM writer expects a 2-D array, got shape {values.shape}")
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.flipud(values).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise InputError(f"{path}: not a grayscale PFM file")
        dims = f.readline().split()
        scale = f.readline().strip()
        try:
            w, h = (int(d) for d in dims)
            scale = float(scale)
        except ValueError:
            raise InputError(f"{path}: malformed PFM header") from None
        if w < 0 or h < 0:
            raise InputError(f"{path}: negative PFM size {w} x {h}")
        if not 0.0 < abs(scale) < np.inf:   # its sign is the byte order
            raise InputError(f"{path}: PFM scale {scale} gives no byte order")
        # a header may claim more raster than the file holds; check before
        # asking f.read for that many bytes (pipes have no size to check)
        size = w * h * 4
        st = os.fstat(f.fileno())
        left = st.st_size - f.tell()
        if stat.S_ISREG(st.st_mode) and size > left:
            raise InputError(f"{path}: raster has {left} of {size} bytes")
        raw = f.read(size)
    if len(raw) != size:
        raise InputError(f"{path}: raster has {len(raw)} of {size} bytes")
    data = np.frombuffer(raw, dtype="<f4" if scale < 0 else ">f4").reshape(h, w)
    return np.flipud(data).astype(np.float64)


def read_depth_pfm(path) -> DepthMap:
    values = read_pfm(path)
    return DepthMap(values=values, valid_mask=np.isfinite(values) & (values > 0))
