"""Fitting the importance factors: non-negative least squares against the
potential hotspot map.

The five flattened KPI maps form the columns of a tall design matrix A and
the flattened potential map the target b; the importance vector is the
minimizer of ||A x - b||_2 subject to x >= 0. The solver is an active-set
method: on the current free set the Newton step for the linear residual is
the minimum-norm solution of the reduced least-squares system, with
backtracking onto the constraint boundary whenever a free coordinate would
turn negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hotloc.kpi import WeightMap
from hotloc.localize import KPI_COUNT, ImportanceVector

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100


class IterationLimitError(Exception):
    """Raised when the active-set loop exceeds its iteration budget; carries
    the best iterate found so far."""

    def __init__(self, best_x: np.ndarray, residual: float, iterations: int):
        super().__init__(
            f"no convergence within {iterations} active-set iterations "
            f"(best residual {residual:.6g})"
        )
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations


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

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.A @ x - self.b))


def build_system(maps: tuple[WeightMap, ...], potential: WeightMap) -> DesignSystem:
    """Flatten the five KPI maps and the potential map into A and b."""
    if len(maps) != KPI_COUNT:
        raise ValueError(f"expected {KPI_COUNT} KPI maps")
    ref = maps[0]
    for wmap in (*maps[1:], potential):
        if wmap.values.shape != ref.values.shape or wmap.pixel_size != ref.pixel_size:
            raise ValueError("all maps must share one grid")
    A = np.column_stack([wmap.values.reshape(-1) for wmap in maps])
    b = potential.values.reshape(-1).copy()
    return DesignSystem(A=A, b=b)


@dataclass
class NnlsResult:
    x: np.ndarray
    residual: float
    iterations: int
    residual_history: list[float]

    def importance(self) -> ImportanceVector:
        return ImportanceVector(tuple(float(v) for v in self.x))


def solve_nnls(
    system: DesignSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> NnlsResult:
    """Active-set non-negative least squares.

    Returns an x >= 0 satisfying the problem's optimality conditions within
    ``tol``: gradient components are >= -tol on zero coordinates and zero
    within tol on positive ones. Rank-deficient reduced systems are handled
    by the minimum-norm step. Raises :class:`IterationLimitError` (carrying
    the best iterate) if the active set fails to settle within
    ``max_iter`` changes.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    A, b = system.A, system.b
    n = A.shape[1]
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    residual = b - A @ x
    history = [float(np.linalg.norm(residual))]

    def reduced_solve() -> np.ndarray:
        z = np.zeros(n)
        z[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
        return z

    for _ in range(max_iter):
        w = A.T @ residual  # negative gradient
        candidates = np.flatnonzero(~free & (w > tol))
        if candidates.size == 0:
            return NnlsResult(x, history[-1], len(history) - 1, history)

        free[candidates[np.argmax(w[candidates])]] = True

        # Re-solve on the free set, backtracking onto the constraint
        # boundary while the unconstrained step leaves the orthant.
        z = reduced_solve()
        while (free & (z <= 0)).any():
            blocking = free & (z <= 0)
            gap = x - z
            movable = blocking & (gap > 0)
            alpha = float(np.min(x[movable] / gap[movable])) if movable.any() else 0.0
            x = x + alpha * (z - x)
            x[blocking & (x < tol)] = 0.0
            free &= x > 0
            if not free.any():
                break
            x[~free] = 0.0
            z = reduced_solve()

        x = np.where(free, z, 0.0)
        residual = b - A @ x
        history.append(float(np.linalg.norm(residual)))

    w = A.T @ residual
    if not ((~free & (w > tol)).any() or (np.abs(w[free]) > tol).any()):
        return NnlsResult(x, history[-1], len(history) - 1, history)
    raise IterationLimitError(best_x=x, residual=history[-1], iterations=len(history) - 1)
