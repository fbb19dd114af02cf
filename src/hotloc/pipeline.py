"""End-to-end pipeline: scenario construction, KPI source, importance
fitting, localization and evaluation, with every intermediate written to
the output directory.

Each stage is one ``_run_<stage>`` function that takes the artifacts it
consumes (grid, server maps, truth, KPIs, maps, config blocks) and writes
the artifacts it produces. :func:`run_pipeline` feeds them from memory;
the CLI's stage subcommands feed them from files. Stages run in a fixed
order and failures carry the stage name, so a caller (the CLI in
particular) can report exactly where a run died.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hotloc.evaluate import (
    EvalConfig,
    EvalReport,
    compare_variants,
    save_report,
    write_report_csvs,
)
from hotloc.kpi import (
    KPI_LABELS,
    KpiSet,
    WeightMap,
    oracle_kpis,
    rasterize_potential_map,
    save_kpi_set,
    save_potential_spec,
    save_weight_map,
)
from hotloc.grid import CoverageGrid, ServerMaps, save_grid
from hotloc.localize import (
    ImportanceVector,
    LocalizationResult,
    LocalizerParams,
    compute_kpi_maps,
    localize,
    step6_combine,
)
from hotloc.nnls import DesignSystem, build_system, solve_nnls
from hotloc.scenario import Scenario, ScenarioConfig, build_scenario
from hotloc.sim import KPI_SOURCE_SIM, run_simulation

KPI_SOURCE_ORACLE = "oracle"

VARIANT_TA_ONLY = "ta_only"
VARIANT_TA_NEIGHBOR = "ta_neighbor"
VARIANT_STEP6 = "step6"
VARIANT_STEP7 = "step7"
ALL_VARIANTS = (VARIANT_TA_ONLY, VARIANT_TA_NEIGHBOR, VARIANT_STEP6, VARIANT_STEP7)

# Which KPI-map columns stay active per restricted variant.
VARIANT_COLUMNS = {
    VARIANT_TA_ONLY: (0,),
    VARIANT_TA_NEIGHBOR: (0, 2),
}


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass
class PipelineResult:
    scenario: Scenario
    kpis: KpiSet
    kpi_maps: tuple[WeightMap, ...]
    potential_map: WeightMap
    x: ImportanceVector
    fit_residual: float | None
    localization: LocalizationResult
    variant_maps: dict[str, WeightMap]
    report: EvalReport
    out_dir: Path


def stage(name: str):
    """Decorator: any failure of the wrapped call that does not already
    name a stage is raised as a :class:`StageError` of stage ``name``."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, str(exc)) from exc

        return run

    return wrap


def restricted_fit(system: DesignSystem, columns: tuple[int, ...]) -> ImportanceVector:
    """Importance fit on only the given columns of ``system``; the other
    KPI maps are forced out of the model and get factor zero."""
    result = solve_nnls(DesignSystem(A=system.A[:, list(columns)], b=system.b))
    full = np.zeros(system.A.shape[1])
    full[list(columns)] = result.x
    return ImportanceVector(tuple(float(v) for v in full))


@stage("scenario")
def _run_scenario(config: ScenarioConfig, out: Path) -> tuple[Scenario, WeightMap]:
    scenario = build_scenario(config)
    potential_map = rasterize_potential_map(scenario.potential, config.spec)
    if potential_map.total() <= 0:
        raise ValueError("potential-hotspot spec paints no importance anywhere")
    save_grid(scenario.grid, out / "grid.csv")
    save_weight_map(scenario.truth, out / "truth.csv")
    save_potential_spec(scenario.potential, out / "potential.json")
    save_weight_map(potential_map, out / "potential.csv")
    return scenario, potential_map


@stage("kpis")
def _run_kpis(
    grid: CoverageGrid,
    servers: ServerMaps,
    truth: WeightMap,
    config: ScenarioConfig,
    kpi_source: str,
    out: Path,
    event_log: bool = False,
) -> KpiSet:
    """Per-cell KPIs from the oracle (``config.oracle``) or the simulator
    (``config.sim``)."""
    if kpi_source == KPI_SOURCE_ORACLE:
        kpis = oracle_kpis(truth, grid, servers, config.oracle)
    elif kpi_source == KPI_SOURCE_SIM:
        log_path = str(out / "events.csv") if event_log else None
        kpis = run_simulation(config.sim, truth, grid, servers, log_path)
    else:
        raise ValueError(f"unknown KPI source {kpi_source!r}")
    if kpis.all_empty():
        raise ValueError(
            "empty system: no cell accumulated any KPI mass "
            "(zero traffic or nothing admitted)"
        )
    save_kpi_set(kpis, out / "kpis.json")
    return kpis


@stage("maps")
def _run_maps(
    grid: CoverageGrid,
    servers: ServerMaps,
    kpis: KpiSet,
    params: LocalizerParams,
    out: Path,
) -> tuple[WeightMap, ...]:
    maps = compute_kpi_maps(kpis, grid, servers, params)
    for label, wmap in zip(KPI_LABELS, maps):
        save_weight_map(wmap, out / f"{label}.csv")
    return maps


@stage("optimize")
def _run_optimize(
    kpi_maps: tuple[WeightMap, ...],
    potential_map: WeightMap,
    x_override: ImportanceVector | None,
    out: Path,
) -> tuple[ImportanceVector, float | None]:
    """The fitted importance vector, or ``x_override`` when given, written
    to ``importance.json``; an all-zero fit is refused before the write."""
    x, residual = x_override, None
    if x is None:
        result = solve_nnls(build_system(tuple(kpi_maps), potential_map))
        if not result.x.any():
            raise ValueError(
                "importance fit: every factor is zero; "
                "the potential-hotspot prior overlaps none of the KPI maps"
            )
        x, residual = result.importance(), result.residual
    total = sum(x.values)
    doc = {
        "x": list(x.values),
        "residual": residual,
        "x_normalized": [v / total for v in x.values],
        "fitted": x_override is None,
    }
    with open(out / "importance.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return x, residual


def load_importance(path: Path) -> ImportanceVector:
    """The importance vector of an ``importance.json`` written by the
    optimize stage."""
    if not path.exists():
        raise ValueError(f"no importance vector: {path} not found, run optimize first")
    try:
        doc = json.loads(path.read_text())
        x = doc.get("x") if isinstance(doc, dict) else None
        if not (
            isinstance(x, list)
            and len(x) == len(KPI_LABELS)
            and all(type(v) in (int, float) for v in x)
        ):
            raise ValueError(f"'x' must be a list of {len(KPI_LABELS)} numbers")
        return ImportanceVector(tuple(float(v) for v in x))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def variant_maps(
    kpi_maps: tuple[WeightMap, ...],
    potential_map: WeightMap,
    fused: WeightMap,
    smoothed: WeightMap,
) -> dict[str, WeightMap]:
    """Every variant's map: the fused and smoothed estimates as ``step6``
    and ``step7``, and the fused maps of the restricted variants, each
    fitted on its own KPI columns of one design system."""
    system = build_system(tuple(kpi_maps), potential_map)
    maps = {}
    for name, columns in VARIANT_COLUMNS.items():
        try:
            maps[name] = step6_combine(kpi_maps, restricted_fit(system, columns))
        except ValueError as exc:
            raise ValueError(f"{name} fit: {exc}") from exc
    maps[VARIANT_STEP6] = fused
    maps[VARIANT_STEP7] = smoothed
    return maps


@stage("localize")
def _run_localize(
    servers: ServerMaps,
    kpi_maps: tuple[WeightMap, ...],
    potential_map: WeightMap,
    x: ImportanceVector,
    params: LocalizerParams,
    out: Path,
) -> tuple[LocalizationResult, dict[str, WeightMap]]:
    """Fused and smoothed estimates with the importance vector ``x``, and
    every variant's map."""
    result = localize(kpi_maps, x, params, servers.uncovered_mask())
    save_weight_map(result.fused, out / "fused.csv")
    save_weight_map(result.smoothed, out / "smoothed.csv")
    return result, variant_maps(kpi_maps, potential_map, result.fused, result.smoothed)


@stage("evaluate")
def _run_evaluate(
    truth: WeightMap, maps: dict[str, WeightMap], config: EvalConfig, out: Path
) -> EvalReport:
    """Score every variant in ``maps`` against the ground truth."""
    report = compare_variants(truth, maps, config)
    save_report(report, out / "report.json")
    write_report_csvs(
        report, out / "peaks.csv", out / "detection.csv", out / "cdf.csv"
    )
    return report


def run_pipeline(
    config: ScenarioConfig,
    out_dir: str | Path,
    kpi_source: str = KPI_SOURCE_ORACLE,
    x_override: ImportanceVector | None = None,
    event_log: bool = False,
) -> PipelineResult:
    """Run every stage and leave all artifacts in ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scenario, potential_map = _run_scenario(config, out)
    grid, servers = scenario.grid, scenario.servers
    kpis = _run_kpis(grid, servers, scenario.truth, config, kpi_source, out, event_log)
    kpi_maps = _run_maps(grid, servers, kpis, config.localizer, out)
    x, residual = _run_optimize(kpi_maps, potential_map, x_override, out)
    localization, maps = _run_localize(
        servers, kpi_maps, potential_map, x, config.localizer, out
    )
    report = _run_evaluate(scenario.truth, maps, config.evaluation, out)

    return PipelineResult(
        scenario=scenario,
        kpis=kpis,
        kpi_maps=kpi_maps,
        potential_map=potential_map,
        x=x,
        fit_residual=residual,
        localization=localization,
        variant_maps=maps,
        report=report,
        out_dir=out,
    )
