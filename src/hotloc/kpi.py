"""Per-cell KPI containers, ground-truth traffic generation, the potential
hotspot prior and the analytic KPI oracle.

The oracle plays the role of an ideal network management export: given the
true pixel traffic weights it computes exactly the per-cell distributions
(TA rings, AoA sectors, handover-candidate levels), the load time and the
arithmetic/harmonic mean throughputs that the localization steps later
invert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hotloc.grid import (
    CoverageGrid,
    GridSpec,
    ServerMaps,
    TA_ZONE_COUNT,
    UNCOVERED,
    aoa_zone_layer,
    header_row,
    open_text,
    read_end,
    read_header,
    read_rows,
    read_spec,
    read_text,
    reject_separators,
    repr_lookup,
    ta_zone_layer,
    text_rows,
)

DIST_TOL = 1e-9

# WeightMap label vocabulary used by the pipeline stages.
LABEL_TRUTH = "ground_truth"
LABEL_FUSED = "fused"
LABEL_SMOOTHED = "smoothed"
LABEL_POTENTIAL = "potential"
KPI_LABELS = ("q1", "q2", "q3", "q4", "q5")


@dataclass
class CellKpis:
    """The five KPI values reported for one cell.

    ``ta`` holds the six ring fractions (index = ring), ``aoa`` the three
    sector fractions in zone order (-1, 0, +1), ``neighbor_level`` the
    handover-candidate fractions keyed by neighbor cell id. Distribution
    KPIs either sum to 1 or are all zero (empty cell).
    """

    ta: np.ndarray
    aoa: np.ndarray
    neighbor_level: dict[str, float]
    load_time: float
    amt_bps: float
    hmt_bps: float

    def __post_init__(self):
        self.ta = np.asarray(self.ta, dtype=np.float64)
        self.aoa = np.asarray(self.aoa, dtype=np.float64)

    def validate(self) -> None:
        if self.ta.shape != (TA_ZONE_COUNT,) or self.aoa.shape != (3,):
            raise ValueError("ta must have 6 entries and aoa 3")
        for name, values in (("ta", self.ta), ("aoa", self.aoa)):
            if not (np.isfinite(values).all() and values.min() >= 0):
                raise ValueError(
                    f"{name} fractions must be finite and non-negative, got {values.tolist()}"
                )
            total = float(values.sum())
            if not (abs(total) <= DIST_TOL or abs(total - 1) <= DIST_TOL):
                raise ValueError(f"{name} fractions must sum to 0 or 1, got {total}")
        if self.neighbor_level:
            levels = list(self.neighbor_level.values())
            if not (np.isfinite(levels).all() and min(levels) >= 0):
                raise ValueError(
                    f"neighbor_level fractions must be finite and non-negative, "
                    f"got {self.neighbor_level}"
                )
            total = sum(levels)
            if abs(total - 1) > DIST_TOL:
                raise ValueError(f"neighbor_level must sum to 1, got {total}")
        if not 0.0 <= self.load_time <= 1.0:
            raise ValueError(f"load_time must be in [0, 1], got {self.load_time}")
        if not np.isfinite([self.amt_bps, self.hmt_bps]).all():
            raise ValueError(
                f"throughputs must be finite, got amt_bps={self.amt_bps} hmt_bps={self.hmt_bps}"
            )
        if self.amt_bps < 0 or self.hmt_bps < 0 or self.hmt_bps > self.amt_bps:
            raise ValueError(
                f"throughputs need 0 <= hmt <= amt, got amt={self.amt_bps} hmt={self.hmt_bps}"
            )

    @classmethod
    def empty(cls) -> "CellKpis":
        return cls(np.zeros(TA_ZONE_COUNT), np.zeros(3), {}, 0.0, 0.0, 0.0)

    def is_empty(self) -> bool:
        return (
            self.ta.sum() == 0.0
            and self.aoa.sum() == 0.0
            and not self.neighbor_level
            and self.load_time == 0.0
            and self.amt_bps == 0.0
            and self.hmt_bps == 0.0
        )


@dataclass
class KpiSet:
    """KPIs for every cell of a coverage grid plus provenance metadata."""

    cells: dict[str, CellKpis]
    source: str = "oracle"
    window_s: float | None = None

    def validate(self, grid: CoverageGrid | None = None) -> None:
        """Check the header and every cell; with ``grid``, also that the cells
        are the grid's and that neighbor levels name configured neighbors."""
        if not isinstance(self.source, str):
            raise ValueError(f"source must be a string, got {self.source!r}")
        window = self.window_s
        if window is not None and not (type(window) in (int, float) and 0 <= window < np.inf):
            raise ValueError(f"window_s must be null or a finite non-negative number, got {window!r}")
        for cell_id, kpis in self.cells.items():
            try:
                kpis.validate()
            except ValueError as exc:
                raise ValueError(f"cell {cell_id!r}: {exc}") from exc
        if grid is not None:
            expected = {c.cell_id for c in grid.cells}
            if set(self.cells) != expected:
                raise ValueError("KPI set does not cover exactly the grid's cells")
            for cell in grid.cells:
                named = set(self.cells[cell.cell_id].neighbor_level)
                unknown = sorted(named - expected)
                stray = sorted(named - set(cell.neighbors))
                if unknown or stray:
                    what = "cells not on the grid" if unknown else "cells that are not its configured neighbors"
                    raise ValueError(f"cell {cell.cell_id!r}: neighbor_level names {what}: {unknown or stray}")

    def all_empty(self) -> bool:
        return all(k.is_empty() for k in self.cells.values())


@dataclass
class WeightMap:
    """Non-negative (m, m) traffic weights on the grid ``spec``, with a stage label."""

    values: np.ndarray
    spec: GridSpec
    label: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.m, self.m):
            raise ValueError(f"weight map must be square, {self.m}x{self.m} as its grid, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("weight map entries must be finite")
        if self.values.min() < 0:
            raise ValueError("weight map entries must be non-negative")

    m = property(lambda self: self.spec.m)
    # Read by perfbench/gate.py; they go once the gate compares ``spec``.
    pixel_size = property(lambda self: self.spec.pixel_size)
    origin = property(lambda self: self.spec.origin)

    def total(self) -> float:
        return float(self.values.sum())

    def normalized(self, label: str | None = None) -> "WeightMap":
        """Copy scaled to unit total; raises on an all-zero map."""
        total = self.total()
        if total <= 0:
            raise ValueError("cannot normalize an all-zero weight map")
        return WeightMap(self.values / total, self.spec, label or self.label)


@dataclass(frozen=True)
class HotspotZone:
    """One potential hotspot region: a disk or an axis-aligned rectangle
    with a non-negative importance weight."""

    shape: str
    importance: float
    center: tuple[float, float] | None = None
    radius: float | None = None
    corners: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.importance < 0:
            raise ValueError("zone importance must be non-negative")
        if self.shape == "disk":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise ValueError("disk zone needs a center and a positive radius")
        elif self.shape == "rect":
            if self.corners is None:
                raise ValueError("rect zone needs corners (xmin, ymin, xmax, ymax)")
            xmin, ymin, xmax, ymax = self.corners
            if xmin >= xmax or ymin >= ymax:
                raise ValueError("rect zone corners are degenerate")
        else:
            raise ValueError(f"unknown zone shape {self.shape!r}")


@dataclass
class PotentialHotspotSpec:
    """User-authored list of likely hotspot zones."""

    zones: list[HotspotZone] = field(default_factory=list)


@dataclass(frozen=True)
class TrafficComponent:
    """One traffic concentration: Gaussian bump center, spread and amplitude."""

    center: tuple[float, float]
    sigma: float
    amplitude: float

    def __post_init__(self):
        if self.sigma <= 0 or self.amplitude <= 0:
            raise ValueError("component sigma and amplitude must be positive")


@dataclass
class TrafficModel:
    """Mixture model for synthetic ground-truth traffic.

    The generated weight per pixel is ``exp(sum of Gaussian bumps + noise)
    - 1 + floor``, clipped at zero and normalized, which gives spatially
    clustered weights with a heavy upper tail and one peak per component.
    """

    components: list[TrafficComponent] = field(default_factory=list)
    floor: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not self.components and self.floor <= 0:
            raise ValueError("traffic model needs at least one component or a positive floor")


def generate_ground_truth(model: TrafficModel, spec: GridSpec, seed: int) -> WeightMap:
    """Sample the normalized ground-truth traffic weight map."""
    cx, cy = spec.center_coords()
    bumps = np.zeros((spec.m, spec.m))
    for comp in model.components:
        d2 = (cx - comp.center[0]) ** 2 + (cy - comp.center[1]) ** 2
        bumps += comp.amplitude * np.exp(-d2 / (2.0 * comp.sigma**2))
    if model.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        bumps += rng.normal(0.0, model.noise_sigma, size=bumps.shape)
    weights = np.clip(np.exp(bumps) - 1.0 + model.floor, 0.0, None)
    total = weights.sum()
    if total <= 0:
        raise ValueError("degenerate traffic model: generated map is all zero")
    return WeightMap(weights / total, spec, LABEL_TRUTH)


def rasterize_potential_map(spec_zones: PotentialHotspotSpec, spec: GridSpec) -> WeightMap:
    """Paint zone importances onto the grid; overlaps keep the maximum."""
    cx, cy = spec.center_coords()
    values = np.zeros((spec.m, spec.m))
    for zone in spec_zones.zones:
        if zone.shape == "disk":
            d2 = (cx - zone.center[0]) ** 2 + (cy - zone.center[1]) ** 2
            inside = d2 <= zone.radius**2
        else:
            xmin, ymin, xmax, ymax = zone.corners
            inside = (cx >= xmin) & (cx <= xmax) & (cy >= ymin) & (cy <= ymax)
        values[inside] = np.maximum(values[inside], zone.importance)
    return WeightMap(values, spec, LABEL_POTENTIAL)


@dataclass(frozen=True)
class OracleParams:
    """Knobs for the analytic KPI oracle.

    ``rho_cap`` converts a cell's traffic mass into a load time via
    ``min(1, mass / rho_cap)``. The throughput curve is piecewise linear in
    RSRP from ``r_min_bps`` at the admission threshold up to ``mu0_bps`` at
    ``rsrp_hi_dbm`` and flat outside that span.
    """

    rho_cap: float = 0.1
    mu0_bps: float = 2e6
    r_min_bps: float = 1e5
    rsrp_hi_dbm: float = -80.0

    def __post_init__(self):
        if self.rho_cap <= 0 or self.mu0_bps <= 0:
            raise ValueError("rho_cap and mu0_bps must be positive")
        if not 0 < self.r_min_bps <= self.mu0_bps:
            raise ValueError("need 0 < r_min_bps <= mu0_bps")


def throughput_curve(rsrp_dbm: np.ndarray, q_rxlevmin: float, params: OracleParams) -> np.ndarray:
    """Monotone RSRP to per-UE throughput mapping (bit/s)."""
    span = params.rsrp_hi_dbm - q_rxlevmin
    if span <= 0:
        raise ValueError("rsrp_hi_dbm must exceed the admission threshold")
    frac = np.clip((np.asarray(rsrp_dbm, dtype=np.float64) - q_rxlevmin) / span, 0.0, 1.0)
    return params.r_min_bps + (params.mu0_bps - params.r_min_bps) * frac


def oracle_kpis(
    truth: WeightMap,
    grid: CoverageGrid,
    servers: ServerMaps,
    params: OracleParams,
) -> KpiSet:
    """Compute the KPI set an ideal management system would report for a
    known traffic distribution.

    Per cell: TA/AoA fractions are the truth mass per zone over the cell's
    mass; neighbor levels are the mass split by second-best server,
    restricted to the configured neighbor list and renormalized; load time
    is the capped cell mass; the two mean throughputs are the traffic
    weighted arithmetic and harmonic means of the RSRP-derived per-pixel
    throughput. Cells without traffic get all-zero KPIs.

    The covered pixels are grouped once by a stable sort on the serving
    cell, and once more on the second-best server for the neighbor
    masses, so each group is one contiguous slice that keeps row-major
    order. Every per-cell sum is then taken over exactly the values, in
    exactly the order, that a boolean mask of the cell would select:
    ``.sum()`` of a slice pairs its values as the mask's sum does, and the
    zone masses come from one ``np.bincount`` whose bins each add their
    values in that order. The results are bitwise those of a per-cell
    loop.
    """
    if truth.spec != grid.spec or servers.best.shape != truth.values.shape:
        raise ValueError("truth map, grid and server maps must share one grid")

    n = grid.n_cells
    sites = grid.sites(servers.best)
    best = servers.best.reshape(-1)
    covered = np.flatnonzero(best != UNCOVERED)
    pixels = covered[np.argsort(best[covered], kind="stable")]
    cell_of = best[pixels].astype(np.intp)
    bounds = np.searchsorted(cell_of, np.arange(n + 1))
    w = truth.values.reshape(-1)[pixels]

    ta_zones = ta_zone_layer(grid.spec, sites).reshape(-1)[pixels]
    ta_mass = np.bincount(
        cell_of * TA_ZONE_COUNT + ta_zones, weights=w, minlength=n * TA_ZONE_COUNT
    ).reshape(n, TA_ZONE_COUNT)
    aoa_zones = aoa_zone_layer(grid.spec, sites).reshape(-1)[pixels] + 1
    aoa_mass = np.bincount(cell_of * 3 + aoa_zones, weights=w, minlength=n * 3).reshape(n, 3)

    # Within a cell, a stable sort on the second-best server (-1 first)
    # keeps each (cell, second) group in row-major order.
    pair = cell_of * (n + 1) + (servers.second.reshape(-1)[pixels] + 1)
    by_pair = np.argsort(pair, kind="stable")
    pair, w_by_pair = pair[by_pair], w[by_pair]

    level = grid.serving_rsrp(servers).reshape(-1)[pixels]
    rates = throughput_curve(level, grid.q_rxlevmin, params)
    w_times_rate = w * rates
    w_over_rate = w / rates

    cells: dict[str, CellKpis] = {}
    for k, cell in enumerate(grid.cells):
        group = slice(bounds[k], bounds[k + 1])
        total = float(w[group].sum())
        if total <= 0.0:
            cells[cell.cell_id] = CellKpis.empty()
            continue

        ta = ta_mass[k] / total
        aoa = aoa_mass[k] / total

        neighbor_level: dict[str, float] = {}
        masses = []
        for nb_id in cell.neighbors:
            key = k * (n + 1) + grid.cell_index(nb_id) + 1
            lo, hi = np.searchsorted(pair, [key, key + 1])
            masses.append((nb_id, float(w_by_pair[lo:hi].sum())))
        nb_total = sum(mass for _, mass in masses)
        if nb_total > 0:
            neighbor_level = {nb: mass / nb_total for nb, mass in masses}

        load = min(1.0, total / params.rho_cap)

        amt = float(w_times_rate[group].sum()) / total
        hmt = total / float(w_over_rate[group].sum())
        hmt = min(hmt, amt)

        cells[cell.cell_id] = CellKpis(ta, aoa, neighbor_level, load, amt, hmt)

    return KpiSet(cells=cells, source="oracle", window_s=None)


# ---------------------------------------------------------------------------
# File formats
#
# A weight map is plain text:
#   line 1: "hotloc-weightmap,1"                 (magic, format version)
#   header rows: m,<int> / pixel_size,<float> / label,<text> /
#                origin,<x>,<y>
#   marker row:  i,j,weight
#   data rows:   one i,j,<weight> row per pixel, in row-major order
#
# The m, pixel_size and origin rows are the map's grid, as in grid.csv.
# Row order is i-major and i is world x, so the rows walk the map column
# by column of a north-up picture. Weights are finite and non-negative.
# The header and data rows follow the rules of grid.csv (hotloc.grid),
# whose reader this one shares.
# ---------------------------------------------------------------------------

_WMAP_MAGIC = "hotloc-weightmap,1"
_WMAP_KEYS = dict.fromkeys(("m", "pixel_size", "label", "origin"), False)
_MAP_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("weight", np.float64)])


def save_weight_map(wmap: WeightMap, path: str | Path) -> None:
    """Write a weight map as CSV: header rows, then one ``i,j,weight`` row
    per pixel in row-major order. A label holding ``,`` or a line break
    raises ValueError."""
    reject_separators("weight map label", wmap.label, ",")
    lines = [_WMAP_MAGIC]
    lines.append(f"m,{wmap.m}")
    lines.append(f"pixel_size,{wmap.spec.pixel_size!r}")
    lines.append(f"label,{wmap.label}")
    lines.append(f"origin,{wmap.spec.origin[0]!r},{wmap.spec.origin[1]!r}")
    lines.append("i,j,weight")
    m = wmap.m
    coords = np.arange(m).astype(f"S{len(str(m - 1))}")
    weights = repr_lookup(wmap.values)(wmap.values.reshape(-1))
    rows = text_rows([np.repeat(coords, m), np.tile(coords, m), weights])
    Path(path).write_bytes(("\n".join(lines) + "\n").encode() + rows)


def load_weight_map(path: str | Path) -> WeightMap:
    """Read a weight map written by :func:`save_weight_map`. The header
    rows :func:`read_header` rejects, a garbled label, the grid
    :func:`read_spec` refuses, a pixel out of row-major order, a negative
    or NaN weight, the rows :func:`read_rows` and :func:`read_end` reject
    and a byte that is not UTF-8 raise ValueError naming the file, and
    the line for a row. The weights are copied out of the parsed rows."""
    with open_text(path) as fh:
        header, start = read_header(path, fh, "weight map", _WMAP_MAGIC, "i,j,weight", _WMAP_KEYS)
        label = header_row(header, "label", path, str)[0]
        spec = read_spec(header, path, 3)
        m = spec.m
        rows = read_rows(path, fh, start, m * m, _MAP_ROW, "")
        i, j, weights = rows["i"], rows["j"], rows["weight"]
        # i and j are compared apart: i * m + j could wrap around int64.
        pixel = np.arange(m * m)
        # NaN compares false, so "< 0" alone would let a NaN weight through.
        bad = (i != pixel // m) | (j != pixel % m) | ~(weights >= 0)
        if bad.any():
            k = int(np.argmax(bad))
            if (i[k], j[k]) != divmod(k, m):
                reason = f"expected pixel {divmod(k, m)}, got ({i[k]}, {j[k]})"
            else:
                reason = f"weight {float(weights[k])!r} is negative or NaN"
            raise ValueError(f"{path}: line {start + k + 1}: {reason}")
        read_end(path, fh, start + m * m, m * m)
    return WeightMap(np.ascontiguousarray(weights.reshape(m, m)), spec, label)


def save_kpi_set(kpis: KpiSet, path: str | Path) -> None:
    """Write a KPI set as JSON with one object per cell."""
    doc = {
        "source": kpis.source,
        "window_s": kpis.window_s,
        "cells": [
            {
                "cell_id": cell_id,
                "ta": [float(v) for v in k.ta],
                "aoa": [float(v) for v in k.aoa],
                "neighbor_level": {nb: float(v) for nb, v in k.neighbor_level.items()},
                "load_time": float(k.load_time),
                "amt_bps": float(k.amt_bps),
                "hmt_bps": float(k.hmt_bps),
            }
            for cell_id, k in kpis.cells.items()
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _json_float(value, what: str) -> float:
    """``value`` as a float when it is a JSON number, else ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _cell_entry(entry) -> tuple[str, CellKpis]:
    """One entry of the ``cells`` list of a KPI file as (cell id, KPIs)."""
    if not isinstance(entry, dict):
        raise ValueError(f"each cell must be an object, got {entry!r}")
    cell_id = entry["cell_id"]
    if not isinstance(cell_id, str):
        raise ValueError(f"cell_id must be a string, got {cell_id!r}")
    what = f"cell {cell_id!r}: "
    ta = np.array(entry["ta"], dtype=np.float64)
    aoa = np.array(entry["aoa"], dtype=np.float64)
    levels = entry["neighbor_level"]
    if not isinstance(levels, dict):
        raise ValueError(f"{what}neighbor_level must be an object, got {levels!r}")
    neighbor_level = {nb: _json_float(v, f"{what}neighbor_level[{nb!r}]") for nb, v in levels.items()}
    scalars = [_json_float(entry[key], what + key) for key in ("load_time", "amt_bps", "hmt_bps")]
    return cell_id, CellKpis(ta, aoa, neighbor_level, *scalars)


def load_kpi_set(path: str | Path, grid: CoverageGrid | None = None) -> KpiSet:
    """Read a KPI set written by :func:`save_kpi_set` and validate it, with
    ``grid`` against that grid. Text that is not JSON, a document or cell
    of the wrong shape, a missing field, a bad value and a cell set that
    does not fit ``grid`` raise ValueError naming the file, and the line
    for a byte that is not UTF-8."""
    text = read_text(path)
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        if not isinstance(doc["cells"], list):
            raise ValueError("'cells' must be a list")
        cells: dict[str, CellKpis] = {}
        for cell_id, cell in map(_cell_entry, doc["cells"]):
            if cell_id in cells:
                raise ValueError(f"duplicate cell_id {cell_id!r}")
            cells[cell_id] = cell
        kpis = KpiSet(cells=cells, source=doc["source"], window_s=doc["window_s"])
        kpis.validate(grid)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return kpis


def save_potential_spec(spec_zones: PotentialHotspotSpec, path: str | Path) -> None:
    """Write the prior as the ``potential`` section of a scenario config."""
    zones = []
    for zone in spec_zones.zones:
        entry: dict = {"shape": zone.shape, "importance": zone.importance}
        if zone.shape == "disk":
            entry["center"] = list(zone.center)
            entry["radius_m"] = zone.radius
        else:
            entry["corners"] = list(zone.corners)
        zones.append(entry)
    Path(path).write_text(json.dumps({"zones": zones}, indent=2) + "\n")


def load_potential_spec(path: str | Path) -> PotentialHotspotSpec:
    """Read a prior written by :func:`save_potential_spec` through the
    config reader; every error names the file."""
    from hotloc.scenario import read_section  # scenario imports this module

    text = read_text(path)
    try:
        return read_section(json.loads(text), PotentialHotspotSpec, "potential")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
