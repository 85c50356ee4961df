"""Depth map and latent grid file I/O.

Depth maps are stored either as 16-bit binary PGM (value = depth *
counts_per_meter, 0 marks invalid pixels) or as 32-bit little-endian PFM
with the conventional negative scale header.  Latent grids use PFM only.
"""

from __future__ import annotations

import numpy as np

from .core import DepthMap
from .errors import InputError


def write_pgm16(path, depth: DepthMap, counts_per_meter: float = 256.0) -> None:
    scaled = np.round(depth.values * counts_per_meter)
    scaled = np.clip(scaled, 1, 65535).astype(">u2")
    scaled[~depth.valid_mask] = 0
    with open(path, "wb") as f:
        f.write(f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii"))
        f.write(scaled.tobytes())


def read_pgm16(path, counts_per_meter: float = 256.0) -> DepthMap:
    with open(path, "rb") as f:
        data = f.read()
    # parse exactly three header tokens; the raster starts one byte after
    # the whitespace that terminates maxval (raster bytes may themselves
    # look like whitespace, so a naive split would corrupt them)
    pos = 0
    tokens = []
    while len(tokens) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if tokens[0] != b"P5":
        raise InputError(f"{path}: not a binary PGM file")
    if not all(t.isdigit() for t in tokens[1:]):
        raise InputError(f"{path}: malformed PGM header {b' '.join(tokens)!r}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 65535:
        raise InputError(f"{path}: expected 16-bit PGM, maxval={maxval}")
    raw = data[pos:pos + width * height * 2]
    if len(raw) != width * height * 2:
        raise InputError(f"{path}: raster has {len(raw)} of {width * height * 2} bytes")
    counts = np.frombuffer(raw, dtype=">u2").reshape(height, width).astype(np.float64)
    valid = counts > 0
    values = np.where(valid, counts / counts_per_meter, 1.0)
    return DepthMap(values=values, valid_mask=valid)


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
        raw = f.read(w * h * 4)
    if len(raw) != w * h * 4:
        raise InputError(f"{path}: raster has {len(raw)} of {w * h * 4} bytes")
    data = np.frombuffer(raw, dtype="<f4" if scale < 0 else ">f4").reshape(h, w)
    return np.flipud(data).astype(np.float64)


def write_depth_pfm(path, depth: DepthMap) -> None:
    write_pfm(path, depth.values)


def read_depth_pfm(path) -> DepthMap:
    values = read_pfm(path)
    return DepthMap(values=values, valid_mask=np.isfinite(values) & (values > 0))
