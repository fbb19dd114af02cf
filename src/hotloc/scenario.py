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
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from hotloc.evaluate import EvalConfig
from hotloc.grid import CellInfo, CoverageGrid, GridSpec, ServerMaps, compute_server_maps
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
    """Invalid scenario configuration; ``field`` holds the dotted path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
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

# Keys of the root and of the sections whose JSON names differ from their
# dataclass fields (``extent_m``, ``sigma_m``, ``radius_m``). Every
# parameter block takes its keys from its dataclass, in :func:`_params`.
_ROOT_KEYS = (
    "schema", "seed", "grid", "layout", "traffic", "potential",
    "oracle", "sim", "localizer", "evaluation",
)
_GRID_KEYS = ("extent_m", "pixel_size_m", "origin", "q_rxlevmin_dbm")
_TRAFFIC_KEYS = ("components", "floor", "noise_sigma")
_COMPONENT_KEYS = ("center", "sigma_m", "amplitude")
_ZONE_KEYS = {
    "disk": ("shape", "importance", "center", "radius_m"),
    "rect": ("shape", "importance", "corners"),
}


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(data: dict, key: str, path: str, required: bool = True, default=None):
    if key not in data:
        if required:
            raise ConfigError(_field(path, key), "missing required field")
        return default
    return data[key]


def _object(value, path: str, keys) -> dict:
    """``value``, which must be a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    for key in value:
        if key not in keys:
            raise ConfigError(_field(path, key), "unknown key")
    return value


def _list(data: dict, key: str, path: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{path}.{key}", f"expected a list, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """False for NaN and +-Infinity, which Python's json module accepts."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_number(value, field: str) -> None:
    if not _is_number(value):
        raise ConfigError(field, f"expected a number, got {value!r}")
    if not _is_finite_number(value):
        raise ConfigError(field, f"must be finite, got {value!r}")


def _number(data: dict, key: str, path: str, required: bool = True, default=None) -> float:
    value = _get(data, key, path, required, default)
    if value is None:
        return default
    _check_number(value, _field(path, key))
    return float(value)


def _pair(data: dict, key: str, path: str, default=None) -> tuple[float, float]:
    value = _get(data, key, path, default is None, default)
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_finite_number(v) for v in value)
    ):
        raise ConfigError(_field(path, key), f"expected [x, y] of finite numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def _value(value, default, field: str):
    """``value`` checked by the type of the field's ``default``: an int
    needs an integral number, a tuple a non-empty list of finite numbers,
    anything else a finite number."""
    if isinstance(default, tuple):
        if (
            not isinstance(value, (list, tuple))
            or not value
            or not all(_is_finite_number(v) for v in value)
        ):
            raise ConfigError(field, f"expected a non-empty list of finite numbers, got {value!r}")
        return tuple(float(v) for v in value)
    _check_number(value, field)
    if isinstance(default, int):
        if value != int(value):
            raise ConfigError(field, f"expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _params(data: dict, key: str, cls, parent: str = ""):
    """The ``cls`` parameter block from the optional object ``data[key]``.

    The block's keys and defaults are the fields of ``cls``; a field whose
    default is a dataclass is a nested block. ``seed`` is a root key and
    reaches the simulator through :meth:`ScenarioConfig.with_seed`.
    """
    path = _field(parent, key)
    defaults = {f.name: f.default for f in fields(cls) if f.name != "seed"}
    raw = _object(data.get(key, {}), path, defaults)
    kwargs = {
        name: _params(raw, name, type(defaults[name]), path)
        if is_dataclass(defaults[name])
        else _value(value, defaults[name], f"{path}.{name}")
        for name, value in raw.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_grid(data) -> tuple[GridSpec, float]:
    _object(data, "grid", _GRID_KEYS)
    extent = _number(data, "extent_m", "grid")
    pixel = _number(data, "pixel_size_m", "grid")
    if pixel <= 0:
        raise ConfigError("grid.pixel_size_m", "must be positive")
    m = extent / pixel
    if abs(m - round(m)) > 1e-9 or round(m) < 2:
        raise ConfigError(
            "grid.extent_m", f"extent {extent} is not an integer multiple (>= 2) of {pixel}"
        )
    origin = _pair(data, "origin", "grid", default=(0.0, 0.0))
    q_rxlevmin = _number(data, "q_rxlevmin_dbm", "grid", required=False, default=DEFAULT_Q_RXLEVMIN_DBM)
    return GridSpec(m=int(round(m)), pixel_size=pixel, origin=origin), q_rxlevmin


def _parse_traffic(data) -> TrafficModel:
    _object(data, "traffic", _TRAFFIC_KEYS)
    components = []
    for idx, comp in enumerate(_list(data, "components", "traffic")):
        path = f"traffic.components[{idx}]"
        _object(comp, path, _COMPONENT_KEYS)
        try:
            components.append(
                TrafficComponent(
                    center=_pair(comp, "center", path),
                    sigma=_number(comp, "sigma_m", path),
                    amplitude=_number(comp, "amplitude", path),
                )
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    try:
        return TrafficModel(
            components=components,
            floor=_number(data, "floor", "traffic", False, 0.0),
            noise_sigma=_number(data, "noise_sigma", "traffic", False, 0.0),
        )
    except ValueError as exc:
        raise ConfigError("traffic", str(exc)) from exc


def _parse_potential(data) -> PotentialHotspotSpec:
    _object(data, "potential", ("zones",))
    zones = []
    for idx, zone in enumerate(_list(data, "zones", "potential")):
        path = f"potential.zones[{idx}]"
        if not isinstance(zone, dict):
            raise ConfigError(path, "expected an object")
        shape = _get(zone, "shape", path)
        if not isinstance(shape, str) or shape not in _ZONE_KEYS:
            raise ConfigError(f"{path}.shape", f"unknown shape {shape!r}")
        _object(zone, path, _ZONE_KEYS[shape])
        try:
            if shape == "disk":
                zones.append(
                    HotspotZone(
                        shape="disk",
                        importance=_number(zone, "importance", path),
                        center=_pair(zone, "center", path),
                        radius=_number(zone, "radius_m", path),
                    )
                )
            else:
                corners = _get(zone, "corners", path)
                if (
                    not isinstance(corners, (list, tuple))
                    or len(corners) != 4
                    or not all(_is_finite_number(v) for v in corners)
                ):
                    raise ConfigError(
                        f"{path}.corners", "expected [xmin, ymin, xmax, ymax] of finite numbers"
                    )
                zones.append(
                    HotspotZone(
                        shape="rect",
                        importance=_number(zone, "importance", path),
                        corners=tuple(float(v) for v in corners),
                    )
                )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    return PotentialHotspotSpec(zones=zones)


def parse_scenario_config(data: dict, seed_override: int | None = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "config root must be an object")
    _object(data, "", _ROOT_KEYS)
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema!r}")
    seed = _value(data.get("seed", 0), 0, "seed")
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    spec, q_rxlevmin = _parse_grid(_get(data, "grid", ""))
    config = ScenarioConfig(
        spec=spec,
        q_rxlevmin_dbm=q_rxlevmin,
        layout=_params(data, "layout", LayoutParams),
        traffic=_parse_traffic(_get(data, "traffic", "")),
        potential=_parse_potential(data.get("potential", {})),
        oracle=_params(data, "oracle", OracleParams),
        sim=_params(data, "sim", SimConfig),
        localizer=_params(data, "localizer", LocalizerParams),
        evaluation=_params(data, "evaluation", EvalConfig),
    ).with_seed(seed if seed_override is None else seed_override)
    build_cells(config)  # surface layout/map inconsistencies at load time
    return config


def load_scenario_config(path: str | Path, seed_override: int | None = None) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"not valid JSON: {exc}") from exc
    return parse_scenario_config(data, seed_override)
