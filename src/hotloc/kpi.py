"""Per-cell KPI containers, ground-truth traffic generation, the potential
hotspot prior and the analytic KPI oracle.

The oracle plays the role of an ideal network management export: given the
true pixel traffic weights it computes exactly the per-cell distributions
(TA rings, AoA sectors, handover-candidate levels), the load time and the
arithmetic/harmonic mean throughputs that the localization steps later
invert.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hotloc.bounds import (
    MAX_DB,
    MAX_MAGNITUDE,
    MAX_METERS,
    Bounded,
    ConfigError,
    InputError,
    bounded,
    json_float,
    read_section,
    section_doc,
    shown,
)
from hotloc.grid import (
    CoverageGrid,
    GridSpec,
    ServerMaps,
    TA_ZONE_COUNT,
    UNCOVERED,
    aoa_zone_layer,
    check_line_end,
    header_lines,
    open_text,
    read_header,
    read_json,
    read_spec,
    reject_separators,
    repr_table,
    ta_zone_layer,
    text_rows,
    write_json,
)

DIST_TOL = 1e-9
# The largest sum of traffic bumps: exp(600) is about 4e260, so even the
# 2^28 pixels the cube bound admits sum to a finite total.
MAX_BUMP = 600.0

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
    KPIs either sum to 1 or are all zero (empty cell). These and the
    other cell rules are checked by :meth:`KpiSet.validate` alone.
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


# The words of each cell rule's refusal, in the order KpiSet.validate checks the rules.
_CELL_REASONS = (
    lambda k: "ta must have 6 entries and aoa 3",
    lambda k: f"ta fractions must be finite and non-negative, got {k.ta.tolist()}",
    lambda k: f"ta fractions must sum to 0 or 1, got {float(k.ta.sum())}",
    lambda k: f"aoa fractions must be finite and non-negative, got {k.aoa.tolist()}",
    lambda k: f"aoa fractions must sum to 0 or 1, got {float(k.aoa.sum())}",
    lambda k: f"neighbor_level fractions must be finite and non-negative, got {k.neighbor_level}",
    lambda k: f"neighbor_level must sum to 1, got {sum(k.neighbor_level.values())}",
    lambda k: f"load_time must be in [0, 1], got {k.load_time}",
    lambda k: f"throughputs must be finite, got amt_bps={k.amt_bps} hmt_bps={k.hmt_bps}",
    lambda k: f"throughputs need 0 <= hmt <= amt, got amt={k.amt_bps} hmt={k.hmt_bps}",
)


@dataclass
class KpiSet:
    """KPIs for every cell of a coverage grid plus provenance metadata."""

    cells: dict[str, CellKpis]
    source: str = "oracle"
    window_s: float | None = None

    def validate(self, grid: CoverageGrid | None = None) -> None:
        """Check the header and every cell; with ``grid``, also that the cells
        are the grid's and that neighbor levels name configured neighbors.

        The cell rules live here alone, checked in this order: the shape;
        ta finite and non-negative, then summing to 0 or 1; the same for
        aoa; neighbor levels, if any, finite and non-negative, then summing
        to 1 (Python's ``sum``); load time in [0, 1]; throughputs finite;
        0 <= hmt <= amt. One pass over all cells stacked gives a mask of
        the cells that keep each rule. The first cell, in dict order, that
        breaks one raises InputError at that cell, with no source, in the
        words of ``_CELL_REASONS`` for the first rule it breaks."""
        if not isinstance(self.source, str):
            raise ValueError(f"source must be a string, got {shown(self.source)}")
        window = self.window_s
        try:
            valid = window is None or 0 <= json_float(window) < np.inf
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"window_s must be null or a finite non-negative number, got {shown(window)}")
        cells = list(self.cells.values())
        n = len(cells)
        shaped = [k.ta.shape == (TA_ZONE_COUNT,) and k.aoa.shape == (3,) for k in cells]
        ta, aoa = [k.ta for k in cells], [k.aoa for k in cells]
        if not all(shaped):  # stacked as empty, having failed the first rule
            for i in itertools.compress(range(n), (not ok for ok in shaped)):
                ta[i], aoa[i] = np.zeros(TA_ZONE_COUNT), np.zeros(3)
        levels = [k.neighbor_level for k in cells]
        flat_levels = np.fromiter(itertools.chain.from_iterable(cell.values() for cell in levels), np.float64)
        # All ta, then all aoa, then all level values, and which are finite and non-negative.
        values = np.concatenate([*ta, *aoa, flat_levels])
        nonneg = (values >= 0) & (values < np.inf)
        # A row with a value that fails fails before its sum; zeros in its
        # place keep inf - inf from warning, and every total >= 0.
        summed = np.where(nonneg, values, 0.0)
        keeps = [np.array(shaped, bool)]
        for start, width in ((0, TA_ZONE_COUNT), (TA_ZONE_COUNT * n, 3)):
            rows = slice(start, start + width * n)
            # Each row's sum() bit for bit; finite values may overflow to inf, which the rule refuses.
            with np.errstate(over="ignore"):
                total = summed[rows].reshape(n, width).sum(axis=1)
            keeps += [nonneg[rows].reshape(n, width).all(axis=1), np.minimum(total, np.abs(total - 1)) <= DIST_TOL]
        level_nonneg = nonneg[(TA_ZONE_COUNT + 3) * n :]
        cell_level_nonneg = np.ones(n, bool)
        if not level_nonneg.all():
            cell_level_nonneg[np.repeat(np.arange(n), list(map(len, levels)))[~level_nonneg]] = False
        level_total = np.array([sum(cell.values()) if cell else 1.0 for cell in levels])  # no levels, no sum
        keeps += [cell_level_nonneg, np.abs(level_total - 1) <= DIST_TOL]
        scalars = itertools.chain.from_iterable((k.load_time, k.amt_bps, k.hmt_bps) for k in cells)
        load, amt, hmt = np.fromiter(scalars, np.float64, 3 * n).reshape(n, 3).T
        keeps += [(load >= 0) & (load <= 1), np.isfinite(amt) & np.isfinite(hmt), (hmt >= 0) & (hmt <= amt)]
        good = np.logical_and.reduce(keeps)
        if not good.all():
            i = int(good.argmin())
            rule = next(r for r, kept in enumerate(keeps) if not kept[i])
            with np.errstate(over="ignore"):  # the sum the reason shows may be inf
                reason = _CELL_REASONS[rule](cells[i])
            raise InputError("", f"cell {list(self.cells)[i]!r}", reason)
        if grid is not None:
            expected = {c.cell_id for c in grid.cells}
            missing = [c.cell_id for c in grid.cells if c.cell_id not in self.cells]
            extra = [cell_id for cell_id in self.cells if cell_id not in expected]
            if missing or extra:
                counts = (("grid cells missing", missing), ("cells not on the grid", extra))
                listed = "; ".join(f"{what}: {len(ids)}, the first {ids[0]!r}" for what, ids in counts if ids)
                raise ValueError(f"KPI set does not cover exactly the grid's cells: {listed}")
            for cell in grid.cells:
                named = set(self.cells[cell.cell_id].neighbor_level)
                unknown = sorted(named - expected)
                stray = sorted(named - set(cell.neighbors))
                if unknown or stray:
                    what = "cells not on the grid" if unknown else "cells that are not its configured neighbors"
                    reason = f"neighbor_level names {what}: {unknown or stray}"
                    raise InputError("", f"cell {cell.cell_id!r}", reason)

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

    def normalized(self) -> "WeightMap":
        """Copy scaled to unit total; raises on an all-zero map."""
        total = self.total()
        if total <= 0:
            raise ValueError("cannot normalize an all-zero weight map")
        return WeightMap(self.values / total, self.spec, self.label)


@dataclass(frozen=True)
class HotspotZone(Bounded):
    """One potential hotspot region: a disk or an axis-aligned rectangle
    with a non-negative importance weight. The shape, checked first,
    requires its own fields and refuses the other shape's."""

    SHAPES = {"disk": ("center", "radius"), "rect": ("corners",)}  # the fields each takes

    shape: str
    importance: float = bounded(ge=0, le=MAX_MAGNITUDE)
    center: tuple[float, float] | None = bounded(None, ge=-MAX_METERS, le=MAX_METERS)
    radius: float | None = bounded(None, key="radius_m", gt=0, le=MAX_METERS)
    corners: tuple[float, float, float, float] | None = bounded(None, ge=-MAX_METERS, le=MAX_METERS)

    def __post_init__(self):
        if not isinstance(self.shape, str) or self.shape not in self.SHAPES:
            raise ConfigError("shape", f"unknown zone shape {self.shape!r}")
        own = self.SHAPES[self.shape]
        for name in (name for names in self.SHAPES.values() for name in names):
            if (getattr(self, name) is None) == (name in own):
                reason = "missing required field" if name in own else f"is not a field of a {self.shape} zone"
                raise ConfigError(name, reason)
        super().__post_init__()
        if self.corners is not None:
            xmin, ymin, xmax, ymax = self.corners
            if xmin >= xmax or ymin >= ymax:
                raise ConfigError("corners", "are degenerate: need xmin < xmax and ymin < ymax")


@dataclass
class PotentialHotspotSpec:
    """User-authored list of likely hotspot zones."""

    zones: list[HotspotZone] = field(default_factory=list)


@dataclass(frozen=True)
class TrafficComponent(Bounded):
    """One traffic concentration: Gaussian bump center, spread and amplitude."""

    center: tuple[float, float] = bounded(ge=-MAX_METERS, le=MAX_METERS)
    # generate_ground_truth divides by 2 sigma^2.
    sigma: float = bounded(key="sigma_m", ge=1e-3, le=MAX_METERS)
    # exp of the summed bumps must stay finite (see TrafficModel).
    amplitude: float = bounded(gt=0, le=MAX_BUMP)


@dataclass
class TrafficModel(Bounded):
    """Mixture model for synthetic ground-truth traffic.

    The generated weight per pixel is ``exp(sum of Gaussian bumps + noise)
    - 1 + floor``, clipped at zero and normalized, which gives spatially
    clustered weights with a heavy upper tail and one peak per component.
    """

    components: list[TrafficComponent] = field(default_factory=list)
    floor: float = bounded(0.0, ge=-MAX_MAGNITUDE, le=MAX_MAGNITUDE)
    noise_sigma: float = bounded(0.0, ge=0)

    def __post_init__(self):
        super().__post_init__()
        if not self.components and self.floor <= 0:
            raise ConfigError(("floor", "components"), "must be positive when there are no components")
        # 8 noise_sigma bounds every noise draw of 2^28 pixels but for odds below 1e-6.
        if sum(c.amplitude for c in self.components) + 8 * self.noise_sigma > MAX_BUMP:
            raise ConfigError(("components", "noise_sigma"), f"amplitudes plus 8 noise_sigma exceed {MAX_BUMP:g}")


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
        raise ConfigError(("traffic.components", "traffic.floor"), "the generated truth map is all zero")
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
class OracleParams(Bounded):
    """Knobs for the analytic KPI oracle.

    ``rho_cap`` converts a cell's traffic mass into a load time via
    ``min(1, mass / rho_cap)``. The throughput curve is piecewise linear in
    RSRP from ``r_min_bps`` at the admission threshold up to ``mu0_bps`` at
    ``rsrp_hi_dbm`` and flat outside that span.
    """

    rho_cap: float = bounded(0.1, gt=0, le=MAX_MAGNITUDE)
    mu0_bps: float = bounded(2e6, gt=0, le=MAX_MAGNITUDE)
    # The harmonic mean divides by rates down to r_min_bps.
    r_min_bps: float = bounded(1e5, ge=1.0)
    rsrp_hi_dbm: float = bounded(-80.0, ge=-MAX_DB, le=MAX_DB)

    def __post_init__(self):
        super().__post_init__()
        if self.r_min_bps > self.mu0_bps:
            raise ConfigError(("r_min_bps", "mu0_bps"), "must be at most mu0_bps")


def throughput_curve(rsrp_dbm: np.ndarray, q_rxlevmin: float, params: OracleParams) -> np.ndarray:
    """Monotone RSRP to per-UE throughput mapping (bit/s)."""
    span = params.rsrp_hi_dbm - q_rxlevmin
    if span <= 0:
        raise ConfigError(("oracle.rsrp_hi_dbm", "grid.q_rxlevmin_dbm"), "must exceed the admission threshold")
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

    level = servers.level.reshape(-1)[pixels]
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
#                origin,<x>,<y> / i,j,weight
#   data rows:   one i,j,<weight> row per pixel, in row-major order
#
# The m, pixel_size and origin rows are the map's grid, as in grid.csv.
# The header rows are lines 2-6, once each and in this order (_WMAP_HEADER,
# which save_weight_map writes and load_weight_map reads); the i,j,weight
# row ends the header. Row order is i-major and i is world x, so the rows
# walk the map column by column of a north-up picture. Weights are finite
# and non-negative. The m * m data rows follow the header with no blank
# line among them, each ended by "\n" as in grid.csv; blank lines after the
# last are skipped.
#
# save_weight_map writes the rows with two fields: the pixel's "i,j" text,
# the same for every map of a size and so built once per m
# (_pixel_column), and the weight's repr from grid.repr_table.
# ---------------------------------------------------------------------------

_WMAP_MAGIC = "hotloc-weightmap,1"
_WMAP_HEADER = (
    ("m", int, 1), ("pixel_size", float, 1), ("label", str, 1), ("origin", float, 2), ("i,j,weight", str, 0)
)
_MAP_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("weight", np.float64)])


@functools.lru_cache(maxsize=2)
def _pixel_column(m: int) -> np.ndarray:
    """The ``i,j`` text of each pixel of an m x m map in row order, as
    one read-only (m * m,) bytes array: every map of a run shares it. The
    rows of the i of each digit count are written as one block, so each
    text starts its array slot and only its end is NUL padding."""
    width = len(str(m - 1))
    digits = np.arange(m).astype(f"S{width}").view(np.uint8).reshape(m, width)
    column = np.zeros((m, m, 2 * width + 1), np.uint8)
    for count in range(1, width + 1):
        rows = slice(10 ** (count - 1) if count > 1 else 0, min(10**count, m))
        column[rows, :, :count] = digits[rows, None, :count]
        column[rows, :, count] = ord(",")
        column[rows, :, count + 1 : count + 1 + width] = digits
    column = column.view(f"S{2 * width + 1}").reshape(-1)
    column.flags.writeable = False
    return column


def save_weight_map(wmap: WeightMap, path: str | Path) -> None:
    """Write a weight map as CSV: header rows, then one ``i,j,weight`` row
    per pixel in row-major order. A label holding ``,`` or a line break
    raises ValueError."""
    reject_separators("weight map label", wmap.label, ",")
    spec, m = wmap.spec, wmap.m
    lines = header_lines(_WMAP_MAGIC, _WMAP_HEADER, [(m,), (spec.pixel_size,), (wmap.label,), spec.origin, ()])
    texts, index = repr_table(wmap.values.reshape(-1))
    rows = text_rows([_pixel_column(m), texts.take(index)])
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode() + rows)


def _parse(lines: list[str], dtype: np.dtype = _MAP_ROW) -> np.ndarray | None:
    """``lines`` parsed by ``np.loadtxt`` as one row of ``dtype`` each;
    None when numpy refuses one of them or a blank one gives no row."""
    try:
        with warnings.catch_warnings():
            # A blank line gives no row, which the count below refuses.
            warnings.simplefilter("ignore", UserWarning)
            # numpy before 2.0 reads "1.5" into an int column with this warning.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    return rows if len(rows) == len(lines) else None


def _map_rows(lines: list[str]) -> np.ndarray | None:
    """``lines`` as the rows of a map: None unless :func:`_parse` reads
    each as one ``_MAP_ROW`` with a weight that is not infinite."""
    rows = _parse(lines)
    return None if rows is None or np.isinf(rows["weight"]).any() else rows


def _refused_row(lines: list[str]) -> tuple[int, str]:
    """The index of the first of ``lines`` that :func:`_map_rows` refuses,
    found by bisecting with it over about twice the lines, and the reason:
    the field count, the first field :func:`_parse` refuses alone or the
    infinite weight."""
    good, bad = 0, len(lines)  # lines[:good] are rows, lines[good:bad] hold a refused one
    while bad - good > 1:
        mid = (good + bad) // 2
        if _map_rows(lines[good:mid]) is None:
            bad = mid
        else:
            good = mid
    line = lines[good].rstrip("\n")
    fields = line.split(",") if line.strip() else []
    if len(fields) != 3:
        return good, f"expected 3 values, got {len(fields)}"
    for column, field in enumerate(fields, 1):
        value = _parse([field], _MAP_ROW[column - 1])
        if value is None:
            return good, f"value {column} {shown(field)} does not read as {_MAP_ROW[column - 1]}"
    if np.isinf(value).any():
        return good, f"value 3 {shown(field)} is not finite or NaN"
    return good, f"numpy does not read the row {shown(line)}"


def load_weight_map(path: str | Path) -> WeightMap:
    """Read a weight map written by :func:`save_weight_map`. A missing,
    garbled or misplaced header row, the grid :func:`read_spec` refuses,
    a last data row without its line end, the first data row
    :func:`_map_rows` refuses, a map cut short, a line
    after its last row, a pixel out of row-major order, a negative or NaN
    weight and a byte that is not UTF-8 raise InputError, at the line for
    a row. At most m * m lines are read before the rows are checked, so an
    ``m`` too large for the file costs no more than the file."""
    with open_text(path) as fh:
        header = read_header(path, fh, "weight map", _WMAP_MAGIC, _WMAP_HEADER)
        (m,), (pixel_size,), (label,), origin, _ = header
        spec = read_spec(path, m, pixel_size, origin)
        start, count = len(_WMAP_HEADER) + 1, m * m
        lines = list(itertools.islice(fh, count))
        if lines:
            check_line_end(path, start + len(lines), lines[-1])
        rows = _map_rows(lines)
        if rows is None:
            k, reason = _refused_row(lines)
            raise InputError(path, f"line {start + k + 1}", reason)
        if len(rows) < count:
            raise InputError(path, f"line {start + len(rows) + 1}", f"the file ends after {len(rows)} of {count} rows")
        for line_no, line in enumerate(fh, start + count + 1):
            if line.strip():
                raise InputError(path, f"line {line_no}", f"more than {count} rows")
        i, j, weights = rows["i"], rows["j"], rows["weight"]
        # i and j are compared apart: i * m + j could wrap around int64.
        pixel = np.arange(count)
        # NaN compares false, so "< 0" alone would let a NaN weight through.
        bad = (i != pixel // m) | (j != pixel % m) | ~(weights >= 0)
        if bad.any():
            k = int(np.argmax(bad))
            if (i[k], j[k]) != divmod(k, m):
                reason = f"expected pixel {divmod(k, m)}, got ({i[k]}, {j[k]})"
            else:
                reason = f"weight {float(weights[k])!r} is negative or NaN"
            raise InputError(path, f"line {start + k + 1}", reason)
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
    write_json(path, doc)


def _cell_entry(entry) -> tuple[str, CellKpis]:
    """One entry of the ``cells`` list of a KPI file as (cell id, KPIs),
    every number read by :func:`json_float`: a float, as JSON gives every
    number of a file :func:`save_kpi_set` wrote, is kept as it is."""
    if not isinstance(entry, dict):
        raise ValueError(f"each cell must be an object, got {shown(entry)}")
    cell_id = entry["cell_id"]
    if not isinstance(cell_id, str):
        raise ValueError(f"cell_id must be a string, got {shown(cell_id)}")
    where = f"cell {cell_id!r}"
    for key in ("ta", "aoa", "neighbor_level", "load_time", "amt_bps", "hmt_bps"):
        if key not in entry:
            raise InputError("", where, f"missing field {key!r}")
    for key, kind in (("ta", list), ("aoa", list), ("neighbor_level", dict)):
        if not isinstance(entry[key], kind):
            what = "an object" if kind is dict else "a list"
            raise InputError("", where, f"{key} must be {what}, got {shown(entry[key])}")

    def number(value, key: str) -> float:
        try:
            return json_float(value)
        except ValueError as exc:
            raise InputError("", where, f"{key} {exc}") from None

    ta, aoa = (
        [v if type(v) is float else number(v, f"{key}[{k}]") for k, v in enumerate(entry[key])]
        for key in ("ta", "aoa")
    )
    levels = {
        nb: v if type(v) is float else number(v, f"neighbor_level[{nb!r}]")
        for nb, v in entry["neighbor_level"].items()
    }
    scalars = [number(entry[key], key) for key in ("load_time", "amt_bps", "hmt_bps")]
    return cell_id, CellKpis(ta, aoa, levels, *scalars)


def load_kpi_set(path: str | Path, grid: CoverageGrid | None = None) -> KpiSet:
    """Read a KPI set written by :func:`save_kpi_set` and validate it, with
    ``grid`` against that grid. Text that is not JSON, a document or cell
    of the wrong shape, a missing field, a bad value and a cell set that
    does not fit ``grid`` raise InputError, at the cell or, for a byte
    that is not UTF-8, the line."""
    doc = read_json(path)
    try:
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
    except KeyError as exc:
        raise InputError(path, None, f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError.of(path, exc) from exc
    return kpis


def save_potential_spec(spec_zones: PotentialHotspotSpec, path: str | Path) -> None:
    """Write the prior as the ``potential`` section of a scenario config."""
    write_json(path, section_doc(spec_zones))


def load_potential_spec(path: str | Path) -> PotentialHotspotSpec:
    """Read a prior written by :func:`save_potential_spec` through the
    config reader; every error is an InputError of the file, at the
    config key it is about."""
    doc = read_json(path)
    try:
        return read_section(doc, PotentialHotspotSpec, "potential")
    except ValueError as exc:
        raise InputError.of(path, exc) from exc
