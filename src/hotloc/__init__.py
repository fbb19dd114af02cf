"""Traffic hotspot localization from per-cell O&M KPIs.

The package turns aggregated cell counters (timing-advance and
angle-of-arrival distributions, neighbor handover levels, load time and
throughput means) into a pixel-level traffic weight map over a coverage
grid, fuses the per-KPI maps with fitted non-negative importance factors
and smooths the result into a hotspot estimate.
"""

from hotloc.grid import (
    CellInfo,
    CoverageGrid,
    GridSpec,
    ServerMaps,
    compute_server_maps,
    load_grid,
    save_grid,
)
from hotloc.kpi import (
    CellKpis,
    KpiSet,
    OracleParams,
    PotentialHotspotSpec,
    TrafficComponent,
    TrafficModel,
    WeightMap,
    generate_ground_truth,
    oracle_kpis,
    rasterize_potential_map,
)
from hotloc.localize import (
    ImportanceVector,
    LocalizationResult,
    LocalizerParams,
    compute_kpi_maps,
    localize,
)
from hotloc.nnls import build_system, solve_nnls
from hotloc.evaluate import EvalConfig, EvalReport, compare_variants
from hotloc.sim import SimConfig, run_simulation
from hotloc.scenario import Scenario, ScenarioConfig, build_scenario, load_scenario_config
from hotloc.pipeline import StageError, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "CellInfo",
    "CellKpis",
    "CoverageGrid",
    "EvalConfig",
    "EvalReport",
    "GridSpec",
    "ImportanceVector",
    "KpiSet",
    "LocalizationResult",
    "LocalizerParams",
    "OracleParams",
    "PotentialHotspotSpec",
    "Scenario",
    "ScenarioConfig",
    "ServerMaps",
    "SimConfig",
    "StageError",
    "TrafficComponent",
    "TrafficModel",
    "WeightMap",
    "build_scenario",
    "build_system",
    "compare_variants",
    "compute_kpi_maps",
    "compute_server_maps",
    "generate_ground_truth",
    "load_grid",
    "load_scenario_config",
    "localize",
    "oracle_kpis",
    "rasterize_potential_map",
    "run_pipeline",
    "run_simulation",
    "save_grid",
    "solve_nnls",
    "__version__",
]
