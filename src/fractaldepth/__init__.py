"""Fractal next-scale autoregressive depth generation with per-scale
conditional diffusion and robust consensus aggregation.

Each name is imported from the module that defines it, e.g.
``from fractaldepth.fractal import generate``."""

__version__ = "0.1.0"
