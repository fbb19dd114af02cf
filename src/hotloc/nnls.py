"""Fitting the importance factors: non-negative least squares against the
potential hotspot map.

The five flattened KPI maps form the columns of a tall design matrix A and
the flattened potential map the target b; the importance vector is the
minimizer of ||A x - b||_2 subject to x >= 0. With five columns there are
only 31 candidate supports, so the solver is exact: it solves the
unconstrained least-squares problem on each support and keeps the first
whose solution satisfies the optimality conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hotloc.kpi import WeightMap
from hotloc.localize import KPI_COUNT, ImportanceVector

# Both optimality tests compare against RTOL * max|A^T b|, so the fit does
# not depend on the units of the maps: scaling A and b together by any
# factor leaves the support unchanged and scales x as the math says.
RTOL = 1e-12


@dataclass
class DesignSystem:
    """The flattened least-squares system: A has one row per pixel in
    row-major (i, then j) order and one column per KPI map; b is the
    flattened potential map."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError(f"shape mismatch: A {self.A.shape}, b {self.b.shape}")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("design system must be finite")
        if self.A.min() < 0:
            raise ValueError("design matrix columns are weight maps and must be non-negative")


def build_system(maps: tuple[WeightMap, ...], potential: WeightMap) -> DesignSystem:
    """Flatten the five KPI maps and the potential map into A and b. A map
    whose squared norm overflows, which would make ``A^T A`` or ``A^T b``
    infinite, is refused by its label."""
    if len(maps) != KPI_COUNT:
        raise ValueError(f"expected {KPI_COUNT} KPI maps")
    ref = maps[0]
    with np.errstate(over="ignore"):
        for wmap in (*maps, potential):
            if wmap.spec != ref.spec:
                raise ValueError("all maps must share one grid")
            flat = wmap.values.reshape(-1)
            if not np.isfinite(flat @ flat):
                raise ValueError(f"map {wmap.label!r}: the squared norm of its weights overflows")
    A = np.column_stack([wmap.values.reshape(-1) for wmap in maps])
    b = potential.values.reshape(-1).copy()
    return DesignSystem(A=A, b=b)


@dataclass
class NnlsResult:
    x: np.ndarray
    residual: float
    iterations: int  # least-squares solves made

    def importance(self) -> ImportanceVector:
        return ImportanceVector(tuple(float(v) for v in self.x))


def solve_nnls(system: DesignSystem) -> NnlsResult:
    """Exact non-negative least squares by support enumeration.

    Supports are tried in order of size, then of column index. On each one
    the minimum-norm least-squares solution is taken; the first that is
    strictly positive and whose negative gradient ``A^T (b - A x)`` is at
    most ``tol = RTOL * max|A^T b|`` off the support satisfies the
    optimality conditions, which suffice for this convex problem.
    ``x = 0`` when ``A^T b <= tol``.
    """
    A, b = system.A, system.b
    n = A.shape[1]
    gradient = A.T @ b
    tol = RTOL * np.abs(gradient).max()
    if (gradient <= tol).all():
        return NnlsResult(np.zeros(n), float(np.linalg.norm(b)), 0)
    solves = 0
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
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
        f"importance fit: none of the {solves} column supports satisfies "
        f"the NNLS optimality conditions within {tol:g}"
    )
