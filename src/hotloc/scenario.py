"""Synthetic scenario construction from a JSON configuration.

A scenario bundles everything one experiment needs: a hexagonal
tri-sector site layout with a log-distance/antenna-pattern RSRP model, a
ground-truth traffic map, the potential-hotspot prior, and the parameter
blocks for the KPI oracle, the simulator, the localizer and the
evaluator. Construction is deterministic given the config and master
seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from hotloc.bounds import (
    MAX_DB,
    MAX_METERS,
    Bounded,
    ConfigError,
    InputError,
    bounded,
    read_object,
    read_section,
    read_value,
    shown,
)
from hotloc.evaluate import EvalConfig
from hotloc.grid import (
    CellInfo,
    CoverageGrid,
    GridSpec,
    ServerMaps,
    boresight_offset,
    compute_server_maps,
    read_json,
)
from hotloc.kpi import (
    OracleParams,
    PotentialHotspotSpec,
    TrafficModel,
    WeightMap,
    generate_ground_truth,
)
from hotloc.localize import LocalizerParams
from hotloc.sim import SimConfig, check_step

SCHEMA_VERSION = 1
DEFAULT_Q_RXLEVMIN_DBM = -115.0

# Decouples the shadowing draw from the traffic-noise draw under one
# master seed.
_SHADOWING_SEED_OFFSET = 7_919

# The dense float64 RSRP cube, cells * m^2 * 8 bytes, that synthesis,
# the server maps and the grid writer hold whole: 2 GiB admits the metro
# layout (183 cells) at m=1024, 1.5 GB, on a host of a few GB.
MAX_CUBE_BYTES = 2 * 1024**3


@dataclass(frozen=True)
class PathlossParams(Bounded):
    """Log-distance path loss with a parabolic sector antenna pattern.

    RSRP = tx_power - ref_loss - 10 n log10(max(d, d0)/d0)
           - min(12 (delta / beamwidth)^2, max_attenuation) [+ shadowing],
    with delta the bearing offset from boresight. Values below
    ``prune_below_dbm`` are treated as unmeasured (no coverage).
    """

    tx_power_dbm: float = bounded(46.0, ge=-MAX_DB, le=MAX_DB)
    ref_loss_db: float = bounded(116.0, ge=-MAX_DB, le=MAX_DB)
    # Measured exponents lie between about 1.6 and 6.5; at 10 the level
    # already falls 100 dB per decade of distance.
    exponent: float = bounded(3.0, gt=0, le=10.0)
    # log10(distance / d0_m) overflows for a d0_m near zero.
    d0_m: float = bounded(25.0, ge=1e-3, le=MAX_METERS)
    # 12 (delta / beamwidth)^2 overflows for a beamwidth near zero.
    beamwidth_deg: float = bounded(65.0, ge=1e-3)
    max_attenuation_db: float = bounded(25.0, ge=0, le=MAX_DB)
    shadowing_sigma_db: float = bounded(0.0, ge=0, le=MAX_DB)
    prune_below_dbm: float = bounded(-140.0, ge=-MAX_DB, le=MAX_DB)


@dataclass(frozen=True)
class LayoutParams(Bounded):
    site_count: int = bounded(7, ge=1)
    isd_m: float = bounded(500.0, gt=0, le=MAX_METERS)
    # A sector id ends in one letter, A to Z.
    sectors_per_site: int = bounded(3, ge=1, le=26)
    neighbor_radius_factor: float = bounded(1.5, gt=0)
    pathloss: PathlossParams = PathlossParams()


@dataclass(frozen=True)
class ScenarioConfig(Bounded):
    """Every parameter of a run, frozen: the master seed ``seed`` is copied
    into ``sim.seed`` on construction, ``dataclasses.replace`` included."""

    spec: GridSpec
    q_rxlevmin_dbm: float
    layout: LayoutParams
    traffic: TrafficModel
    potential: PotentialHotspotSpec
    oracle: OracleParams
    sim: SimConfig
    localizer: LocalizerParams
    evaluation: EvalConfig
    seed: int = bounded(0, ge=0)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "sim", replace(self.sim, seed=self.seed))


@dataclass
class Scenario:
    """A fully built experiment: coverage, servers, truth and prior."""

    config: ScenarioConfig
    grid: CoverageGrid
    servers: ServerMaps
    truth: WeightMap
    potential: PotentialHotspotSpec


def _hex_spiral():
    """Axial coordinates (q, r) of the hexagonal lattice, ring by ring from
    the center outward, without end."""
    yield 0, 0
    for ring in itertools.count(1):
        q, r = (-ring, ring)  # ring start, then walk the six edges
        for dq, dr in [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]:
            for _ in range(ring):
                yield q, r
                q, r = q + dq, r + dr


def hex_site_positions(count: int, isd_m: float, spec: GridSpec) -> np.ndarray:
    """Site coordinates on a hexagonal lattice centered on the map, spiral
    order outward. The first site off the map raises ConfigError before
    any later site is built."""
    xmin, ymin = spec.origin
    center = (xmin + spec.extent / 2.0, ymin + spec.extent / 2.0)
    sites = []
    for k, (q, r) in zip(range(count), _hex_spiral()):
        x = center[0] + isd_m * (q + r / 2.0)
        y = center[1] + isd_m * (math.sqrt(3.0) / 2.0) * r
        if not (xmin <= x <= xmin + spec.extent and ymin <= y <= ymin + spec.extent):
            raise ConfigError(
                "layout.site_count",
                f"site {k} at ({x:.1f}, {y:.1f}) falls outside the map; "
                "grow the map or shrink isd_m",
            )
        sites.append((x, y))
    return np.array(sites)


def _sector_id(site: int, sector: int, width: int) -> str:
    """The id of a sector: its site number padded to ``width`` digits, so
    that ids sort in row order (``compute_server_maps`` breaks ties by
    id), and a letter."""
    return f"BS{site + 1:0{width}d}{chr(ord('A') + sector)}"


def build_cells(config: ScenarioConfig) -> list[CellInfo]:
    """Lay out sites and sectors and derive neighbor lists (all cells on
    sites within neighbor_radius_factor * ISD, other sectors of the same
    site included)."""
    layout = config.layout
    sites = hex_site_positions(layout.site_count, layout.isd_m, config.spec)

    sector_step = 2.0 * math.pi / layout.sectors_per_site
    width = max(2, len(str(layout.site_count)))
    ids: list[list[str]] = [
        [_sector_id(s, sec, width) for sec in range(layout.sectors_per_site)]
        for s in range(layout.site_count)
    ]
    radius = layout.neighbor_radius_factor * layout.isd_m
    cells: list[CellInfo] = []
    for s in range(layout.site_count):
        # One vector pass per site: a pairwise loop in Python takes
        # minutes at the thousands of sites the cube bound admits.
        near = np.flatnonzero(np.hypot(*(sites - sites[s]).T) <= radius + 1e-9)
        for sec in range(layout.sectors_per_site):
            me = ids[s][sec]
            neighbors = tuple(
                other for o in near for other in ids[o] if other != me
            )
            cells.append(
                CellInfo(
                    cell_id=me,
                    site_position=(float(sites[s, 0]), float(sites[s, 1])),
                    azimuth=sec * sector_step,
                    neighbors=neighbors,
                )
            )
    return cells


def synthesize_rsrp(config: ScenarioConfig, cells: list[CellInfo]) -> np.ndarray:
    """Per-cell RSRP layers from the path-loss model; NaN below the prune
    floor.

    The bearing and the path-loss level ``tx_power - loss`` depend only on
    the site, so they are computed once for each run of cells with one
    ``site_position`` (a site's sectors, when cells are site-major) and
    each cell subtracts only its antenna pattern. With shadowing, each
    cell adds one full normal layer, drawn in cell order."""
    p = config.layout.pathloss
    cx, cy = config.spec.center_coords()
    beam = math.radians(p.beamwidth_deg)
    layers = np.empty((len(cells), config.spec.m, config.spec.m))
    rng = (
        np.random.default_rng(config.seed + _SHADOWING_SEED_OFFSET)
        if p.shadowing_sigma_db > 0
        else None
    )
    site = None
    for level, cell in zip(layers, cells):
        if cell.site_position != site:
            site = cell.site_position
            dx = cx - site[0]
            dy = cy - site[1]
            bearing = np.arctan2(dx, dy)
            loss = p.ref_loss_db + 10.0 * p.exponent * np.log10(
                np.maximum(np.hypot(dx, dy), p.d0_m) / p.d0_m
            )
            unpatterned = p.tx_power_dbm - loss
        delta = boresight_offset(bearing, cell.azimuth)
        pattern = np.minimum(12.0 * (delta / beam) ** 2, p.max_attenuation_db)
        np.subtract(unpatterned, pattern, out=level)
        if rng is not None:
            level += rng.normal(0.0, p.shadowing_sigma_db, size=level.shape)
        level[level < p.prune_below_dbm] = np.nan
    return layers


def build_scenario(config: ScenarioConfig) -> Scenario:
    cells = build_cells(config)
    rsrp = synthesize_rsrp(config, cells)
    grid = CoverageGrid(
        spec=config.spec, cells=cells, rsrp=rsrp, q_rxlevmin=config.q_rxlevmin_dbm
    )
    servers = compute_server_maps(grid)
    truth = generate_ground_truth(config.traffic, config.spec, config.seed)
    return Scenario(
        config=config,
        grid=grid,
        servers=servers,
        truth=truth,
        potential=config.potential,
    )


# -- JSON configuration ------------------------------------------------

# Every section is read by :func:`read_section` into the type of its
# field of ScenarioConfig, and ``grid`` into :class:`GridParams`.
_SECTIONS = ("layout", "traffic", "potential", "oracle", "sim", "localizer", "evaluation")
_ROOT_KEYS = ("schema", "seed", "grid", *_SECTIONS)


def _check_cube(names, cells: int, m) -> None:
    """Raise ConfigError naming ``names`` when the RSRP cube of ``cells``
    layers of m x m pixels takes more than :data:`MAX_CUBE_BYTES`. Integer
    counts multiply exactly; a float product overflows on a huge count."""
    if 8 * cells * m * m > MAX_CUBE_BYTES:
        raise ConfigError(
            names, f"an RSRP cube of {shown(cells)} x {m:g} x {m:g} float64 values "
            f"(m = grid.extent_m / grid.pixel_size_m) takes more than {MAX_CUBE_BYTES} bytes"
        )


@dataclass(frozen=True)
class GridParams(Bounded):
    """The ``grid`` section, read into ``ScenarioConfig.spec``."""

    extent_m: float = bounded(gt=0)
    pixel_size_m: float = bounded(gt=0, le=MAX_METERS)
    origin: tuple[float, float] = bounded((0.0, 0.0), ge=-MAX_METERS, le=MAX_METERS)
    q_rxlevmin_dbm: float = bounded(DEFAULT_Q_RXLEVMIN_DBM, ge=-MAX_DB, le=MAX_DB)

    def __post_init__(self):
        super().__post_init__()
        m = self.extent_m / self.pixel_size_m
        # One layer, before the rounding below, which an infinite m overflows.
        _check_cube(("extent_m", "pixel_size_m"), 1, m)
        if abs(m - round(m)) > 1e-9 or round(m) < 2:
            raise ConfigError(
                ("extent_m", "pixel_size_m"),
                f"{self.extent_m} is not an integer multiple (>= 2) of pixel_size_m {self.pixel_size_m}",
            )


def parse_scenario_config(data: dict, seed_override: int | None = None) -> ScenarioConfig:
    read_object(data, "", _ROOT_KEYS, ("grid", "traffic"))
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {shown(schema)}")
    seed = read_value(data.get("seed", 0), int, "seed")
    grid = read_section(data["grid"], GridParams, "grid")
    spec = GridSpec(round(grid.extent_m / grid.pixel_size_m), grid.pixel_size_m, grid.origin)
    types = get_type_hints(ScenarioConfig)
    config = ScenarioConfig(
        spec=spec,
        q_rxlevmin_dbm=grid.q_rxlevmin_dbm,
        **{key: read_section(data.get(key, {}), types[key], key) for key in _SECTIONS},
        seed=seed if seed_override is None else seed_override,
    )
    check_step(config.sim, spec)
    layout, pathloss = config.layout, config.layout.pathloss
    cells = layout.site_count * layout.sectors_per_site
    _check_cube(("layout.site_count", "layout.sectors_per_site"), cells, spec.m)
    # A cell's median level peaks at tx_power_dbm - ref_loss_db, on boresight.
    if pathloss.tx_power_dbm - pathloss.ref_loss_db < max(grid.q_rxlevmin_dbm, pathloss.prune_below_dbm):
        raise ConfigError(
            [f"layout.pathloss.{k}" for k in ("tx_power_dbm", "ref_loss_db", "prune_below_dbm")]
            + ["grid.q_rxlevmin_dbm"],
            "less ref_loss_db is below the admission threshold or the prune floor: no pixel is covered",
        )
    build_cells(config)  # surface layout/map inconsistencies at load time
    return config


def load_scenario_config(path: str | Path, seed_override: int | None = None) -> ScenarioConfig:
    """The config in the JSON file ``path``, with ``seed_override``, when
    given, as its master seed. Every error is a ConfigError: of the file
    for text that is not JSON or not UTF-8 (:func:`read_json`) and for a
    document that is not an object, else of the dotted key, ``seed`` for
    a negative seed or seed override."""
    try:
        data = read_json(path)
    except InputError as exc:  # not JSON, or a byte that is not UTF-8 at its line
        raise ConfigError(exc.source, exc.message, exc.where) from None
    if not isinstance(data, dict):
        raise ConfigError(str(path), "config root must be an object")
    return parse_scenario_config(data, seed_override)
