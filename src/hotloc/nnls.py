"""Fitting the importance factors: non-negative least squares against the
potential hotspot map.

The five flattened KPI maps form the columns of a tall design matrix A and
the flattened potential map the target b; the importance vector is the
minimizer of ||A x - b||_2 subject to x >= 0. With five columns there are
only 31 candidate supports, so the solver is exact: it solves the
unconstrained least-squares problem on each support and keeps the first
whose solution satisfies the optimality conditions.

Most supports fail those conditions by a wide margin, which the small
Gram system ``G = A^T A``, ``c = A^T b`` already shows. Each support is
first screened on its |S| x |S| block of G, and only a support that does
not clearly fail there gets the exact least-squares solve on the tall A.
The screen skips no support the exact test would accept, so the accepted
support, x and the residual are those of the plain enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hotloc.bounds import MAX_MAGNITUDE
from hotloc.kpi import WeightMap
from hotloc.localize import KPI_COUNT

# Both optimality tests compare against RTOL * max|A^T b|, so the fit does
# not depend on the units of the maps: scaling A and b together by any
# factor leaves the support unchanged and scales x as the math says.
RTOL = 1e-12

# The screen skips a support only when its Gram solution fails a test by
# more than a change of SCREEN_RTOL * max|A^T b| in each entry of A^T b
# could explain; that covers the rounding of both the Gram solve and the
# exact solve, about 1e-15 of max|A^T b| on the desk and metro fits. A
# support whose Gram block has a condition number above COND_LIMIT, where
# the Gram solve loses too many digits to say, always gets the exact test.
SCREEN_RTOL = 1e-6
COND_LIMIT = 1e6


@dataclass
class DesignSystem:
    """The flattened least-squares system: A has one row per pixel in
    row-major (i, then j) order and one column per KPI map; b is the
    flattened potential map. Every entry is at most :data:`MAX_MAGNITUDE`
    in magnitude, so ``A^T A`` and ``A^T b`` are finite for any system
    that fits in memory."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError(f"shape mismatch: A {self.A.shape}, b {self.b.shape}")
        # Reductions, not an array-sized test; a NaN fails every comparison.
        if not (-MAX_MAGNITUDE <= self.b.min() and self.b.max() <= MAX_MAGNITUDE and self.A.max() <= MAX_MAGNITUDE):
            raise ValueError(f"design system entries must be finite and at most {MAX_MAGNITUDE:g} in magnitude")
        if self.A.min() < 0:
            raise ValueError("design matrix columns are weight maps and must be non-negative")


def build_system(maps: tuple[WeightMap, ...], potential: WeightMap) -> DesignSystem:
    """Flatten the five KPI maps and the potential map into A and b."""
    if len(maps) != KPI_COUNT:
        raise ValueError(f"expected {KPI_COUNT} KPI maps")
    if any(wmap.spec != maps[0].spec for wmap in (*maps, potential)):
        raise ValueError("all maps must share one grid")
    A = np.column_stack([wmap.values.reshape(-1) for wmap in maps])
    return DesignSystem(A=A, b=potential.values.reshape(-1).copy())


@dataclass
class NnlsResult:
    x: np.ndarray
    residual: float
    iterations: int  # exact least-squares solves on the tall A


@np.errstate(all="ignore")  # a non-finite value never clearly fails
def _clearly_failing(G: np.ndarray, c: np.ndarray, tol: float, margin: float) -> set[tuple[int, ...]]:
    """The supports whose Gram system shows that they fail the exact test:
    a solution entry below zero, or an off-support gradient entry above
    ``tol``, by more than a change of at most ``margin`` in each entry of
    ``c`` can move it. No ill-conditioned block is among them. The blocks
    of each support size are screened in one stacked pass."""
    n = len(c)
    failing = set()
    for size in range(1, n + 1):
        supports = np.array(list(combinations(range(n), size)))
        blocks = G[supports[:, :, None], supports[:, None, :]]
        eig = np.linalg.eigvalsh(blocks)
        kept = eig[:, 0] * COND_LIMIT > eig[:, -1]
        if not kept.any():
            continue
        supports, blocks, low = supports[kept], blocks[kept], eig[kept, 0]
        z = np.linalg.solve(blocks, c[supports][:, :, None])[:, :, 0]
        # ||block^-1||_2 = 1 / low, and the change of c is at most
        # sqrt(|S|) * margin in the 2-norm.
        radius = (math.sqrt(size) * margin / low)[:, None]
        others = np.array([[j for j in range(n) if j not in s] for s in supports.tolist()], dtype=np.intp)
        cross = G[others[:, :, None], supports[:, None, :]]
        gradient = c[others] - (cross @ z[:, :, None])[:, :, 0]
        bound = tol + margin + radius * np.hypot.reduce(cross, axis=2)
        fails = (z < -radius).any(axis=1) | (gradient > bound).any(axis=1)
        failing.update(map(tuple, supports[fails].tolist()))
    return failing


def solve_nnls(system: DesignSystem) -> NnlsResult:
    """Exact non-negative least squares by support enumeration.

    Supports are tried in order of size, then of column index. On each one
    the minimum-norm least-squares solution is taken; the first that is
    strictly positive and whose negative gradient ``A^T (b - A x)`` is at
    most ``tol = RTOL * max|A^T b|`` off the support satisfies the
    optimality conditions, which suffice for this convex problem.
    ``x = 0`` when ``A^T b <= tol``. A support the Gram screen shows to
    fail is skipped without that solve (:func:`_clearly_failing`).
    """
    A, b = system.A, system.b
    n = A.shape[1]
    gradient = A.T @ b
    scale = np.abs(gradient).max()
    tol = RTOL * scale
    if (gradient <= tol).all():
        return NnlsResult(np.zeros(n), float(np.linalg.norm(b)), 0)
    skipped = _clearly_failing(A.T @ A, gradient, tol, float(SCREEN_RTOL * scale))
    supports = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    solves = 0
    for support in supports:
        if support in skipped:
            continue
        columns = list(support)
        z = np.linalg.lstsq(A[:, columns], b, rcond=None)[0]
        solves += 1
        if (z <= 0).any():
            continue
        x = np.zeros(n)
        x[columns] = z
        residual = b - A @ x
        if (np.delete(A.T @ residual, columns) <= tol).all():
            return NnlsResult(x, float(np.linalg.norm(residual)), solves)
    raise ValueError(
        f"importance fit: none of the {len(supports)} column supports satisfies "
        f"the NNLS optimality conditions within {tol:g} ({solves} solved exactly)"
    )
