"""Synthetic scenario construction from a JSON configuration.

A scenario bundles everything one experiment needs: a hexagonal
tri-sector site layout with a log-distance/antenna-pattern RSRP model, a
ground-truth traffic map, the potential-hotspot prior, and the parameter
blocks for the KPI oracle, the simulator, the localizer and the
evaluator. Construction is deterministic given the config and master
seed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from hotloc.evaluate import EvalConfig
from hotloc.grid import (
    CellInfo,
    CoverageGrid,
    GridSpec,
    ServerMaps,
    compute_server_maps,
    read_text,
)
from hotloc.kpi import (
    HotspotZone,
    OracleParams,
    PotentialHotspotSpec,
    TrafficComponent,
    TrafficModel,
    WeightMap,
    generate_ground_truth,
)
from hotloc.localize import LocalizerParams
from hotloc.sim import SimConfig

SCHEMA_VERSION = 1
DEFAULT_Q_RXLEVMIN_DBM = -115.0

# Decouples the shadowing draw from the traffic-noise draw under one
# master seed.
_SHADOWING_SEED_OFFSET = 7_919


class ConfigError(ValueError):
    """Invalid scenario configuration; ``field`` holds the dotted path,
    empty for the document as a whole."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


@dataclass(frozen=True)
class PathlossParams:
    """Log-distance path loss with a parabolic sector antenna pattern.

    RSRP = tx_power - ref_loss - 10 n log10(max(d, d0)/d0)
           - min(12 (delta / beamwidth)^2, max_attenuation) [+ shadowing],
    with delta the bearing offset from boresight. Values below
    ``prune_below_dbm`` are treated as unmeasured (no coverage).
    """

    tx_power_dbm: float = 46.0
    ref_loss_db: float = 116.0
    exponent: float = 3.0
    d0_m: float = 25.0
    beamwidth_deg: float = 65.0
    max_attenuation_db: float = 25.0
    shadowing_sigma_db: float = 0.0
    prune_below_dbm: float = -140.0

    def __post_init__(self):
        if self.exponent <= 0 or self.d0_m <= 0 or self.beamwidth_deg <= 0:
            raise ValueError("exponent, d0_m and beamwidth_deg must be positive")
        if self.max_attenuation_db < 0 or self.shadowing_sigma_db < 0:
            raise ValueError("attenuations must be non-negative")


@dataclass(frozen=True)
class LayoutParams:
    site_count: int = 7
    isd_m: float = 500.0
    sectors_per_site: int = 3
    neighbor_radius_factor: float = 1.5
    pathloss: PathlossParams = PathlossParams()

    def __post_init__(self):
        if self.site_count < 1:
            raise ValueError("site_count must be at least 1")
        if self.isd_m <= 0:
            raise ValueError("isd_m must be positive")
        if self.sectors_per_site < 1:
            raise ValueError("sectors_per_site must be at least 1")
        if self.neighbor_radius_factor <= 0:
            raise ValueError("neighbor_radius_factor must be positive")


@dataclass
class ScenarioConfig:
    spec: GridSpec
    q_rxlevmin_dbm: float
    layout: LayoutParams
    traffic: TrafficModel
    potential: PotentialHotspotSpec
    oracle: OracleParams
    sim: SimConfig
    localizer: LocalizerParams
    evaluation: EvalConfig
    seed: int = 0

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Copy with the master seed (and the simulator seed) replaced."""
        return replace(self, seed=seed, sim=replace(self.sim, seed=seed))


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


def _sector_id(site: int, sector: int) -> str:
    return f"BS{site + 1:02d}{chr(ord('A') + sector)}"


def build_cells(config: ScenarioConfig) -> list[CellInfo]:
    """Lay out sites and sectors and derive neighbor lists (all cells on
    sites within neighbor_radius_factor * ISD, other sectors of the same
    site included)."""
    layout = config.layout
    if layout.sectors_per_site > 26:
        raise ConfigError("layout.sectors_per_site", "at most 26: a sector id ends in a letter A to Z")
    sites = hex_site_positions(layout.site_count, layout.isd_m, config.spec)

    sector_step = 2.0 * math.pi / layout.sectors_per_site
    ids: list[list[str]] = [
        [_sector_id(s, sec) for sec in range(layout.sectors_per_site)]
        for s in range(layout.site_count)
    ]
    radius = layout.neighbor_radius_factor * layout.isd_m
    cells: list[CellInfo] = []
    for s in range(layout.site_count):
        near = [
            o
            for o in range(layout.site_count)
            if math.dist(sites[s], sites[o]) <= radius + 1e-9
        ]
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
    floor."""
    p = config.layout.pathloss
    cx, cy = config.spec.center_coords()
    beam = math.radians(p.beamwidth_deg)
    layers = np.empty((len(cells), config.spec.m, config.spec.m))
    rng = (
        np.random.default_rng(config.seed + _SHADOWING_SEED_OFFSET)
        if p.shadowing_sigma_db > 0
        else None
    )
    for k, cell in enumerate(cells):
        dx = cx - cell.site_position[0]
        dy = cy - cell.site_position[1]
        dist = np.hypot(dx, dy)
        bearing = np.arctan2(dx, dy)
        delta = np.mod(bearing - cell.azimuth + math.pi, 2.0 * math.pi) - math.pi
        pattern = np.minimum(12.0 * (delta / beam) ** 2, p.max_attenuation_db)
        loss = p.ref_loss_db + 10.0 * p.exponent * np.log10(
            np.maximum(dist, p.d0_m) / p.d0_m
        )
        level = p.tx_power_dbm - loss - pattern
        if rng is not None:
            level = level + rng.normal(0.0, p.shadowing_sigma_db, size=level.shape)
        level[level < p.prune_below_dbm] = np.nan
        layers[k] = level
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

# Every section is read by :func:`read_section` from the fields of its
# dataclass and their types. Listed by hand: the root keys, the grid keys
# (the grid section turns ``extent_m`` into ``m``), the keys of each zone
# shape and the two fields whose JSON key differs from their name.
_SECTIONS = ("layout", "traffic", "potential", "oracle", "sim", "localizer", "evaluation")
_ROOT_KEYS = ("schema", "seed", "grid", *_SECTIONS)
_GRID_KEYS = {
    "extent_m": float, "pixel_size_m": float, "origin": tuple[float, float], "q_rxlevmin_dbm": float,
}
_ZONE_KEYS = {
    "disk": ("shape", "importance", "center", "radius_m"),
    "rect": ("shape", "importance", "corners"),
}
_JSON_KEYS = {(TrafficComponent, "sigma"): "sigma_m", (HotspotZone, "radius"): "radius_m"}


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(value, path: str, keys, required=()) -> dict:
    """``value``, which must be a JSON object with no key outside ``keys``
    and every key of ``required``."""
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    for key in value:
        if key not in keys:
            raise ConfigError(_field(path, key), "unknown key")
    for key in required:
        if key not in value:
            raise ConfigError(_field(path, key), "missing required field")
    return value


def _is_finite_number(value) -> bool:
    """False for booleans, NaN and +-Infinity (which Python's json module
    accepts) and integers beyond the float range."""
    try:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and math.isfinite(value)
    except OverflowError:
        return False


@functools.cache
def _fields(cls) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, type, required) for each field of the
    dataclass ``cls``. ``seed`` is a root key and reaches the simulator
    through :meth:`ScenarioConfig.with_seed`."""
    hints = get_type_hints(cls)
    return {
        _JSON_KEYS.get((cls, f.name), f.name): (
            f.name,
            hints[f.name],
            f.default is MISSING and f.default_factory is MISSING,
        )
        for f in fields(cls)
        if f.name != "seed"
    }


def _read(value, tp, path: str):
    """``value`` read as the type ``tp``: a dataclass from an object, a
    ``list[X]`` from a list of X, a tuple of floats from a list of finite
    numbers (of the tuple's length, or non-empty for ``tuple[float,
    ...]``), an int from an integral number, a str from a string and a
    float from a finite number. ``X | None`` is read as X."""
    if get_origin(tp) in (Union, UnionType):
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return read_section(value, tp, path)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return [_read(item, args[0], f"{path}[{k}]") for k, item in enumerate(value)]
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        what = f"a list of {size}" if size else "a non-empty list of"
        expected = f"expected {what} finite numbers, got {value!r}"
        if not isinstance(value, (list, tuple)) or not value or (size and len(value) != size):
            raise ConfigError(path, expected)
        for k, item in enumerate(value):
            if not _is_finite_number(item):
                raise ConfigError(path, f"{expected}: {path}[{k}] is {item!r}")
        return tuple(float(v) for v in value)
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not _is_finite_number(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if tp is int:
        if value != int(value):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return int(value)
    return float(value)


def read_section(value, cls, path: str):
    """The dataclass ``cls`` read from the config section ``value`` at the
    dotted ``path``. Its keys are the fields of ``cls``, each read by
    :func:`_read`, and a field without a default is required; a zone
    takes the keys of its ``shape``, all of them required. Every error is
    a ConfigError naming the offending key."""
    spec = _fields(cls)
    if cls is HotspotZone:
        # The shape decides the other keys, so it is checked first.
        shape = _object(value, path, value, ("shape",))["shape"]
        if not isinstance(shape, str) or shape not in _ZONE_KEYS:
            raise ConfigError(f"{path}.shape", f"unknown shape {shape!r}")
        keys = required = _ZONE_KEYS[shape]
    else:
        keys, required = spec, [key for key, (_, _, req) in spec.items() if req]
    _object(value, path, keys, required)
    kwargs = {
        name: _read(value[key], tp, f"{path}.{key}")
        for key, (name, tp, _) in spec.items()
        if key in value
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_grid(data) -> tuple[GridSpec, float]:
    _object(data, "grid", _GRID_KEYS, ("extent_m", "pixel_size_m"))
    grid = {"origin": (0.0, 0.0), "q_rxlevmin_dbm": DEFAULT_Q_RXLEVMIN_DBM}
    grid.update((key, _read(value, _GRID_KEYS[key], f"grid.{key}")) for key, value in data.items())
    extent, pixel = grid["extent_m"], grid["pixel_size_m"]
    if pixel <= 0:
        raise ConfigError("grid.pixel_size_m", "must be positive")
    m = extent / pixel
    if abs(m - round(m)) > 1e-9 or round(m) < 2:
        raise ConfigError(
            "grid.extent_m", f"extent {extent} is not an integer multiple (>= 2) of {pixel}"
        )
    spec = GridSpec(m=int(round(m)), pixel_size=pixel, origin=grid["origin"])
    return spec, grid["q_rxlevmin_dbm"]


def parse_scenario_config(data: dict, seed_override: int | None = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "config root must be an object")
    _object(data, "", _ROOT_KEYS, ("grid", "traffic"))
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema!r}")
    seed = _read(data.get("seed", 0), int, "seed")
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    spec, q_rxlevmin = _parse_grid(data["grid"])
    sections = _fields(ScenarioConfig)
    config = ScenarioConfig(
        spec=spec,
        q_rxlevmin_dbm=q_rxlevmin,
        **{key: read_section(data.get(key, {}), sections[key][1], key) for key in _SECTIONS},
    ).with_seed(seed if seed_override is None else seed_override)
    build_cells(config)  # surface layout/map inconsistencies at load time
    return config


def load_scenario_config(path: str | Path, seed_override: int | None = None) -> ScenarioConfig:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:  # a byte that is not UTF-8, named by its line
        raise ConfigError("", str(exc)) from None
    return parse_scenario_config(data, seed_override)
