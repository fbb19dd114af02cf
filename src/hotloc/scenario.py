"""Synthetic scenario construction from a JSON configuration.

A scenario bundles everything one experiment needs: a hexagonal
tri-sector site layout with a log-distance/antenna-pattern RSRP model, a
ground-truth traffic map, the potential-hotspot prior, and the parameter
blocks for the KPI oracle, the simulator, the localizer and the
evaluator. Construction is deterministic given the config and master
seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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


def hex_site_positions(count: int, isd_m: float, center: tuple[float, float]) -> np.ndarray:
    """Site coordinates on a hexagonal lattice, spiral order from the
    center outward."""
    axial: list[tuple[int, int]] = [(0, 0)]
    directions = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    ring = 1
    while len(axial) < count:
        q, r = (-ring, ring)  # ring start, then walk the six edges
        for dq, dr in directions:
            for _ in range(ring):
                axial.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    out = np.empty((count, 2))
    for k, (q, r) in enumerate(axial[:count]):
        out[k, 0] = center[0] + isd_m * (q + r / 2.0)
        out[k, 1] = center[1] + isd_m * (math.sqrt(3.0) / 2.0) * r
    return out


def _sector_id(site: int, sector: int) -> str:
    return f"BS{site + 1:02d}{chr(ord('A') + sector)}"


def build_cells(config: ScenarioConfig) -> list[CellInfo]:
    """Lay out sites and sectors and derive neighbor lists (all cells on
    sites within neighbor_radius_factor * ISD, other sectors of the same
    site included)."""
    layout = config.layout
    extent = config.spec.m * config.spec.pixel_size
    center = (config.spec.origin[0] + extent / 2.0, config.spec.origin[1] + extent / 2.0)
    sites = hex_site_positions(layout.site_count, layout.isd_m, center)

    xmin, ymin = config.spec.origin
    for k, (x, y) in enumerate(sites):
        if not (xmin <= x <= xmin + extent and ymin <= y <= ymin + extent):
            raise ConfigError(
                "layout.site_count",
                f"site {k} at ({x:.1f}, {y:.1f}) falls outside the map; "
                "grow the map or shrink isd_m",
            )

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

def _get(data: dict, key: str, path: str, required: bool = True, default=None):
    if key not in data:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    return data[key]


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
    _check_number(value, f"{path}.{key}" if path else key)
    return float(value)


def _pair(data: dict, key: str, path: str, default=None) -> tuple[float, float]:
    value = _get(data, key, path, default is None, default)
    field = f"{path}.{key}" if path else key
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_finite_number(v) for v in value)
    ):
        raise ConfigError(field, f"expected [x, y] of finite numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def _parse_grid(data: dict) -> tuple[GridSpec, float]:
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


def _parse_layout(data: dict) -> LayoutParams:
    pl_data = _get(data, "pathloss", "layout", required=False, default={})
    layout_defaults = LayoutParams()
    defaults = layout_defaults.pathloss
    try:
        pathloss = PathlossParams(
            tx_power_dbm=_number(pl_data, "tx_power_dbm", "layout.pathloss", False, defaults.tx_power_dbm),
            ref_loss_db=_number(pl_data, "ref_loss_db", "layout.pathloss", False, defaults.ref_loss_db),
            exponent=_number(pl_data, "exponent", "layout.pathloss", False, defaults.exponent),
            d0_m=_number(pl_data, "d0_m", "layout.pathloss", False, defaults.d0_m),
            beamwidth_deg=_number(pl_data, "beamwidth_deg", "layout.pathloss", False, defaults.beamwidth_deg),
            max_attenuation_db=_number(pl_data, "max_attenuation_db", "layout.pathloss", False, defaults.max_attenuation_db),
            shadowing_sigma_db=_number(pl_data, "shadowing_sigma_db", "layout.pathloss", False, defaults.shadowing_sigma_db),
            prune_below_dbm=_number(pl_data, "prune_below_dbm", "layout.pathloss", False, defaults.prune_below_dbm),
        )
        return LayoutParams(
            site_count=int(_number(data, "site_count", "layout", False, layout_defaults.site_count)),
            isd_m=_number(data, "isd_m", "layout", False, layout_defaults.isd_m),
            sectors_per_site=int(
                _number(data, "sectors_per_site", "layout", False, layout_defaults.sectors_per_site)
            ),
            neighbor_radius_factor=_number(
                data, "neighbor_radius_factor", "layout", False, layout_defaults.neighbor_radius_factor
            ),
            pathloss=pathloss,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("layout", str(exc)) from exc


def _parse_traffic(data: dict) -> TrafficModel:
    raw = _get(data, "components", "traffic", required=False, default=[])
    components = []
    for idx, comp in enumerate(raw):
        path = f"traffic.components[{idx}]"
        if not isinstance(comp, dict):
            raise ConfigError(path, "expected an object")
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


def _parse_potential(data: dict) -> PotentialHotspotSpec:
    raw = _get(data, "zones", "potential", required=False, default=[])
    zones = []
    for idx, zone in enumerate(raw):
        path = f"potential.zones[{idx}]"
        if not isinstance(zone, dict):
            raise ConfigError(path, "expected an object")
        shape = _get(zone, "shape", path)
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
            elif shape == "rect":
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
            else:
                raise ConfigError(f"{path}.shape", f"unknown shape {shape!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    return PotentialHotspotSpec(zones=zones)


def _parse_block(data: dict, key: str, cls, field_map: dict[str, str]):
    """Build a parameter dataclass from an optional JSON object, mapping
    JSON keys to constructor arguments."""
    raw = _get(data, key, "", required=False, default={})
    if not isinstance(raw, dict):
        raise ConfigError(key, "expected an object")
    kwargs = {}
    for json_key, arg in field_map.items():
        if json_key in raw:
            value = raw[json_key]
            _check_number(value, f"{key}.{json_key}")
            kwargs[arg] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def parse_scenario_config(data: dict, seed_override: int | None = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "config root must be an object")
    schema = _get(data, "schema", "", required=False, default=SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema!r}")
    seed = int(_number(data, "seed", "", required=False, default=0))
    if seed_override is not None:
        seed = seed_override

    spec, q_rxlevmin = _parse_grid(_get(data, "grid", ""))
    layout = _parse_layout(_get(data, "layout", "", required=False, default={}))
    traffic = _parse_traffic(_get(data, "traffic", ""))
    potential = _parse_potential(_get(data, "potential", "", required=False, default={}))

    oracle = _parse_block(
        data,
        "oracle",
        OracleParams,
        {
            "rho_cap": "rho_cap",
            "mu0_bps": "mu0_bps",
            "r_min_bps": "r_min_bps",
            "rsrp_hi_dbm": "rsrp_hi_dbm",
        },
    )
    sim_raw = _get(data, "sim", "", required=False, default={})
    if not isinstance(sim_raw, dict):
        raise ConfigError("sim", "expected an object")
    defaults = SimConfig()
    try:
        sim = SimConfig(
            arrival_rate=_number(sim_raw, "arrival_rate", "sim", False, defaults.arrival_rate),
            file_size_bits=_number(sim_raw, "file_size_bits", "sim", False, defaults.file_size_bits),
            mobile_fraction=_number(sim_raw, "mobile_fraction", "sim", False, defaults.mobile_fraction),
            speed_kmh=_number(sim_raw, "speed_kmh", "sim", False, defaults.speed_kmh),
            handover_margin_db=_number(sim_raw, "handover_margin_db", "sim", False, defaults.handover_margin_db),
            duration_s=_number(sim_raw, "duration_s", "sim", False, defaults.duration_s),
            tick_s=_number(sim_raw, "tick_s", "sim", False, defaults.tick_s),
            capacity_per_cell_bps=_number(sim_raw, "capacity_per_cell_bps", "sim", False, defaults.capacity_per_cell_bps),
            mu0_bps=_number(sim_raw, "mu0_bps", "sim", False, defaults.mu0_bps),
            max_ue_per_cell=int(_number(sim_raw, "max_ue_per_cell", "sim", False, defaults.max_ue_per_cell)),
            seed=seed,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("sim", str(exc)) from exc

    localizer = _parse_block(
        data,
        "localizer",
        LocalizerParams,
        {
            "epsilon": "epsilon",
            "lambda_ho_db": "lambda_ho_db",
            "rho_threshold": "rho_threshold",
            "rsrp0_dbm": "rsrp0_dbm",
            "mu0_bps": "mu0_bps",
            "h": "h",
            "kernel_tail": "kernel_tail",
        },
    )

    eval_raw = _get(data, "evaluation", "", required=False, default={})
    if not isinstance(eval_raw, dict):
        raise ConfigError("evaluation", "expected an object")
    p_list = eval_raw.get("p_list", list(EvalConfig().p_list))
    if (
        not isinstance(p_list, (list, tuple))
        or not p_list
        or not all(_is_finite_number(p) for p in p_list)
    ):
        raise ConfigError("evaluation.p_list", f"expected a list of fractions, got {p_list!r}")
    try:
        evaluation = EvalConfig(
            peak_count=int(_number(eval_raw, "peak_count", "evaluation", False, EvalConfig().peak_count)),
            suppression_radius_m=_number(
                eval_raw, "suppression_radius_m", "evaluation", False, EvalConfig().suppression_radius_m
            ),
            p_list=tuple(float(p) for p in p_list),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("evaluation", str(exc)) from exc

    config = ScenarioConfig(
        spec=spec,
        q_rxlevmin_dbm=q_rxlevmin,
        layout=layout,
        traffic=traffic,
        potential=potential,
        oracle=oracle,
        sim=sim,
        localizer=localizer,
        evaluation=evaluation,
        seed=seed,
    )
    build_cells(config)  # surface layout/map inconsistencies at load time
    return config


def load_scenario_config(path: str | Path, seed_override: int | None = None) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"not valid JSON: {exc}") from exc
    return parse_scenario_config(data, seed_override)
