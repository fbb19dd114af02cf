"""Projection of per-cell KPIs onto the coverage grid and their fusion
into one smoothed traffic estimate.

Five per-KPI weight maps are built first: TA ring fractions (step 1), AoA
sector fractions (step 2), the neighbor level of each pixel's second-best
server (step 3), averaged load over similarly loaded handover candidates
on congested cells (step 4) and the scaled arithmetic/harmonic throughput
gap split by cell center versus edge (step 5). Step 6 fuses them with
non-negative importance factors and step 7 applies the Gaussian kernel
smoother.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hotloc.bounds import MAX_DB, MAX_MAGNITUDE, Bounded, bounded
from hotloc.grid import UNCOVERED, CoverageGrid, ServerMaps, aoa_zone_layer, ta_zone_layer
from hotloc.kpi import KPI_LABELS, LABEL_FUSED, LABEL_SMOOTHED, KpiSet, WeightMap
from hotloc.smoothing import DEFAULT_TAIL, smooth_grid

KPI_COUNT = len(KPI_LABELS)


@dataclass(frozen=True)
class ImportanceVector:
    """Non-negative fusion factors for the five KPI maps, in the order
    TA, AoA, neighbor level, load, throughput gap; not all zero, since the
    evaluation normalizes the fused map."""

    values: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.values) != KPI_COUNT:
            raise ValueError(f"importance vector needs {KPI_COUNT} entries")
        if not (np.isfinite(self.values).all() and min(self.values) >= 0):
            raise ValueError(
                f"importance factors must be finite and non-negative, got {self.values}"
            )
        if max(self.values) > MAX_MAGNITUDE:
            raise ValueError(f"importance factors must be at most {MAX_MAGNITUDE:g}, got {self.values}")
        if not any(self.values):
            raise ValueError("importance factors must not all be zero")


@dataclass(frozen=True)
class LocalizerParams(Bounded):
    """Thresholds and bandwidths for the localization steps.

    ``epsilon`` bounds the load difference for two cells to count as
    behaving alike; ``lambda_ho_db`` bounds their RSRP difference at a
    pixel (6 dB by default, independent of ``sim.handover_margin_db``);
    ``rho_threshold`` marks a serving cell as congested. ``rsrp0_dbm``
    splits cell center from edge (None selects the per-cell median serving
    RSRP). ``mu0_bps`` scales the throughput gap and ``h`` is the smoothing
    bandwidth in squared normalized map units.
    """

    epsilon: float = bounded(0.1, gt=0, lt=1)
    # Step 4 divides by the candidates, the serving cell among them only
    # for a positive margin.
    lambda_ho_db: float = bounded(6.0, gt=0, le=MAX_DB)
    rho_threshold: float = bounded(0.7, gt=0, lt=1)
    rsrp0_dbm: float | None = bounded(None, ge=-MAX_DB, le=MAX_DB)
    mu0_bps: float = bounded(2e6, gt=0, le=MAX_MAGNITUDE)
    h: float = bounded(1e-3, gt=0)
    kernel_tail: float = bounded(DEFAULT_TAIL, gt=0, lt=1)


def _cell_rows(kpis: KpiSet, grid: CoverageGrid, field: str) -> np.ndarray:
    """One row per cell of a per-cell KPI array, in grid order, plus a
    zero row that UNCOVERED (-1) indices pick."""
    rows = [getattr(kpis.cells[c.cell_id], field) for c in grid.cells]
    return np.vstack([*rows, np.zeros_like(rows[0])])


def step1_ta(kpis: KpiSet, grid: CoverageGrid, servers: ServerMaps) -> WeightMap:
    """Each covered pixel gets its serving cell's TA fraction for the ring
    the pixel lies in: one lookup into the (n + 1) x 6 table of fractions
    at (serving cell, ring)."""
    zones = ta_zone_layer(grid.spec, grid.sites(servers.best))
    out = _cell_rows(kpis, grid, "ta")[servers.best, zones]
    return WeightMap(out, grid.spec, KPI_LABELS[0])


def step2_aoa(kpis: KpiSet, grid: CoverageGrid, servers: ServerMaps) -> WeightMap:
    """Each covered pixel gets its serving cell's AoA fraction for the
    bearing sector the pixel lies in, looked up like step 1."""
    zones = aoa_zone_layer(grid.spec, grid.sites(servers.best)) + 1
    out = _cell_rows(kpis, grid, "aoa")[servers.best, zones]
    return WeightMap(out, grid.spec, KPI_LABELS[1])


def step3_neighbor(kpis: KpiSet, grid: CoverageGrid, servers: ServerMaps) -> WeightMap:
    """Each pixel gets the serving cell's neighbor level of the pixel's
    second-best server; zero when there is none or it is not a configured
    neighbor."""
    # Level table (serving, second best), zero outside each S_k; the spare
    # last row and column absorb the -1 sentinels of both maps.
    table = np.zeros((grid.n_cells + 1, grid.n_cells + 1))
    for k, cell in enumerate(grid.cells):
        for nb_id, frac in kpis.cells[cell.cell_id].neighbor_level.items():
            table[k, grid.cell_index(nb_id)] = frac
    return WeightMap(table[servers.best, servers.second], grid.spec, KPI_LABELS[2])


def step4_load(
    kpis: KpiSet, grid: CoverageGrid, servers: ServerMaps, params: LocalizerParams
) -> WeightMap:
    """On pixels of congested cells, average the load over the cells that
    are both similarly loaded and received within the handover margin at
    that pixel; elsewhere zero.

    The serving cell always belongs to that candidate set, so the average
    is well defined. The loop runs over the candidate cell, each pass
    vectorized over the congested pixels whose serving cell it is similar
    to, in ascending cell order as a per-pixel sum would add them. Memory
    stays O(m^2) plus the n x n similarity matrix.
    """
    rho = np.array([kpis.cells[c.cell_id].load_time for c in grid.cells])
    congested = rho > params.rho_threshold
    best = servers.best.reshape(-1)
    pixels = np.flatnonzero(np.append(congested, False)[best])
    serving = best[pixels]
    similar = np.abs(rho[:, None] - rho) < params.epsilon
    rsrp = grid.rsrp.reshape(grid.n_cells, -1)
    own = servers.level.reshape(-1)[pixels]
    rho_sum = np.zeros(pixels.size)
    count = np.zeros(pixels.size)
    for other in np.flatnonzero(similar[congested].any(axis=0)):
        rows = np.flatnonzero(similar[serving, other])
        diff = np.abs(own[rows] - rsrp[other, pixels[rows]])
        near = np.nan_to_num(diff, nan=np.inf) < params.lambda_ho_db
        rho_sum[rows] += np.where(near, rho[other], 0.0)
        count[rows] += near
    out = np.zeros(best.size)
    out[pixels] = rho_sum / count
    return WeightMap(out.reshape(grid.spec.m, grid.spec.m), grid.spec, KPI_LABELS[3])


def _rsrp0_per_cell(grid: CoverageGrid, servers: ServerMaps, params: LocalizerParams) -> np.ndarray:
    """Center/edge RSRP threshold per cell: the configured value, or the
    median serving RSRP over the cell's covered pixels, taken from one
    sort of the covered pixels by (cell, RSRP)."""
    if params.rsrp0_dbm is not None:
        return np.full(grid.n_cells, params.rsrp0_dbm)
    best = servers.best.reshape(-1)
    covered = best != UNCOVERED
    cell_of = best[covered]
    level = servers.level.reshape(-1)[covered]
    order = np.lexsort((level, cell_of))
    level = level[order]
    count = np.bincount(cell_of, minlength=grid.n_cells)
    start = np.cumsum(count) - count
    served = count > 0
    lo = (start + (count - 1) // 2)[served]
    hi = (start + count // 2)[served]
    thresholds = np.full(grid.n_cells, -np.inf)
    # The mean of the two middle values, or of the middle one with itself,
    # as np.median takes it.
    thresholds[served] = (level[lo] + level[hi]) / 2
    return thresholds


def step5_throughput(
    kpis: KpiSet, grid: CoverageGrid, servers: ServerMaps, params: LocalizerParams
) -> WeightMap:
    """Scaled throughput gap, assigned directly on cell-center pixels and
    complemented on cell-edge pixels.

    The gap is (AMT - HMT) / mu0 clamped to [0, 1]; pixels whose serving
    RSRP is at or above the center/edge threshold count as center.
    """
    gaps = np.zeros(grid.n_cells)
    for k, cell in enumerate(grid.cells):
        ck = kpis.cells[cell.cell_id]
        gaps[k] = min(max((ck.amt_bps - ck.hmt_bps) / params.mu0_bps, 0.0), 1.0)
    rsrp0 = _rsrp0_per_cell(grid, servers, params)
    best = servers.best
    gap = gaps[best]
    center = servers.level >= rsrp0[best]
    out = np.where(best == UNCOVERED, 0.0, np.where(center, gap, 1.0 - gap))
    return WeightMap(out, grid.spec, KPI_LABELS[4])


def step6_combine(
    maps: tuple[WeightMap, WeightMap, WeightMap, WeightMap, WeightMap],
    x: ImportanceVector,
) -> WeightMap:
    """Fuse the five KPI maps into one weighted sum. A sum that is zero
    everywhere raises ValueError naming the factors and the KPI maps that
    are zero everywhere: the evaluation cannot normalize it."""
    if len(maps) != KPI_COUNT:
        raise ValueError(f"expected {KPI_COUNT} maps")
    first = maps[0]
    fused = np.zeros_like(first.values)
    for weight, wmap in zip(x.values, maps):
        if wmap.spec != first.spec:
            raise ValueError("KPI maps must share one grid")
        fused = fused + weight * wmap.values
    if not fused.any():
        zero = [wmap.label for wmap in maps if not wmap.values.any()]
        raise ValueError(
            f"the fused map is zero everywhere: importance factors {list(x.values)}, "
            f"all-zero KPI maps {zero}"
        )
    return WeightMap(fused, first.spec, LABEL_FUSED)


def step7_smooth(
    fused: WeightMap, params: LocalizerParams, uncovered_mask: np.ndarray
) -> WeightMap:
    """Smooth the fused map with the truncated Gaussian kernel average.

    One separable pass of ``smooth_grid`` with bandwidth ``params.h``;
    1-D kernel factors below ``params.kernel_tail`` are dropped, so each
    pixel averages over a square window. The pixels of ``uncovered_mask``
    are zeroed in the result since no traffic can originate there.
    """
    smoothed = smooth_grid(fused.values, params.h, params.kernel_tail)
    # The kernel average of non-negative data can pick up sign noise at the
    # float epsilon level; clip to keep the weight-map contract.
    smoothed = np.where(uncovered_mask, 0.0, np.clip(smoothed, 0.0, None))
    return WeightMap(smoothed, fused.spec, LABEL_SMOOTHED)


def compute_kpi_maps(
    kpis: KpiSet, grid: CoverageGrid, servers: ServerMaps, params: LocalizerParams
) -> tuple[WeightMap, WeightMap, WeightMap, WeightMap, WeightMap]:
    """Check ``kpis`` against the grid, then run steps 1 to 5 on it."""
    kpis.validate(grid)
    return (
        step1_ta(kpis, grid, servers),
        step2_aoa(kpis, grid, servers),
        step3_neighbor(kpis, grid, servers),
        step4_load(kpis, grid, servers, params),
        step5_throughput(kpis, grid, servers, params),
    )


@dataclass
class LocalizationResult:
    """The fused (step 6) and smoothed (step 7) maps of one localization
    run."""

    fused: WeightMap
    smoothed: WeightMap


def localize(
    kpi_maps: tuple[WeightMap, WeightMap, WeightMap, WeightMap, WeightMap],
    x: ImportanceVector,
    params: LocalizerParams,
    uncovered_mask: np.ndarray,
) -> LocalizationResult:
    """Steps 6 and 7: fuse the five KPI maps with ``x`` and smooth the
    result, zeroing the uncovered pixels."""
    fused = step6_combine(kpi_maps, x)
    return LocalizationResult(fused, step7_smooth(fused, params, uncovered_mask))
