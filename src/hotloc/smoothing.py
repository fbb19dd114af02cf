"""Gaussian kernel smoothing of weight grids.

The smoothed value of a pixel is the kernel-weighted average of the whole
map, with weights ``exp(-d^2 / (2 h))`` where ``d`` is the Euclidean
distance between pixel centers in normalized map coordinates: pixel ``i``
sits at ``i / (m - 1)``, so the first and last pixel centers are exactly
one map edge apart. The constant Gaussian prefactor cancels in the
average and is omitted.

The kernel factors as ``g(dx) g(dy)`` with the 1-D factor
``g(k) = exp(-(k delta)^2 / (2 h))``, so the whole average is one
separable pass: ``(G V G) / (G 1 G)`` with ``G`` the banded symmetric
Toeplitz matrix of ``g``. 1-D factors below ``tail`` are dropped, which
gives the truncated kernel a square support.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TAIL = 1e-12


def _kernel_factor(m: int, h: float, tail: float) -> np.ndarray:
    """The 1-D kernel factor ``g(k)`` for pixel offsets k = -R..R.

    R is the largest offset whose factor reaches ``tail``, capped at
    m - 1 (a window that already spans the whole map).
    """
    if m < 2:
        raise ValueError("kernel needs m >= 2")
    if h <= 0:
        raise ValueError(f"bandwidth h must be positive, got {h}")
    if not 0 < tail < 1:
        raise ValueError(f"tail must be in (0, 1), got {tail}")
    delta = 1.0 / (m - 1)
    # exp(-(delta*r)^2 / (2h)) >= tail  <=>  r^2 <= -2h*ln(tail)/delta^2
    rmax = math.sqrt(-2.0 * h * math.log(tail)) / delta
    # rmax is infinite when h is so large that 2h overflows.
    radius = int(min(rmax, m - 1))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-((offsets * delta) ** 2) / (2.0 * h))
    g[g < tail] = 0.0
    return g


def truncated_kernel(m: int, h: float, tail: float = DEFAULT_TAIL) -> np.ndarray:
    """Build the truncated Gaussian kernel for an m x m grid.

    Returns the (2R+1, 2R+1) array ``g(dx) g(dy)`` with entries below
    ``tail`` zeroed; its centre row is ``_kernel_factor(m, h, tail)``.
    """
    g = _kernel_factor(m, h, tail)
    kernel = np.outer(g, g)
    kernel[kernel < tail] = 0.0
    return kernel


def smooth_grid(values: np.ndarray, h: float, tail: float = DEFAULT_TAIL) -> np.ndarray:
    """Smooth a square grid with the truncated Gaussian kernel average."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square grid, got shape {values.shape}")
    m = values.shape[0]
    g = _kernel_factor(m, h, tail)
    radius = g.size // 2
    # weights[i, j] = g(i - j): the banded symmetric Toeplitz matrix G.
    column = np.zeros(m)
    column[: radius + 1] = g[radius:]
    idx = np.arange(m)
    weights = column[np.abs(idx[:, None] - idx)]
    # The denominator takes the same matmul path as the numerator, so a
    # constant map whose scaling is exact in floats comes back unchanged.
    return (weights @ values @ weights) / (weights @ np.ones_like(values) @ weights)
