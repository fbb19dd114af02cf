"""End-to-end pipeline: scenario construction, KPI source, importance
fitting, localization and evaluation, with every intermediate written to
the output directory.

Each stage is one ``_run_<stage>`` function that takes the artifacts it
consumes (grid, server maps, truth, KPIs, maps) and the settings from a
:class:`Run`, writes the artifacts it produces and puts them on the run.
:func:`run_stages` runs any ordered subset of the stages: what an earlier
stage of the same call made is passed on in memory, and every other input
is read through :data:`READERS` before the first stage runs.
:func:`run_pipeline` runs them all, from memory alone; the CLI's stage
subcommands run their own stages on an artifact directory. Stages run in
a fixed order and failures carry the stage name, so a caller (the CLI in
particular) can report exactly where a run died.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hotloc.evaluate import (
    EvalReport,
    compare_variants,
    save_report,
    write_report_csvs,
)
from hotloc.kpi import (
    KPI_LABELS,
    KpiSet,
    WeightMap,
    load_kpi_set,
    load_weight_map,
    oracle_kpis,
    rasterize_potential_map,
    save_kpi_set,
    save_potential_spec,
    save_weight_map,
)
from hotloc.grid import CoverageGrid, compute_server_maps, load_grid, read_text, save_grid
from hotloc.localize import (
    ImportanceVector,
    LocalizationResult,
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


def restricted_fit(system: DesignSystem, columns: tuple[int, ...]) -> ImportanceVector:
    """Importance fit on only the given columns of ``system``; the other
    KPI maps are forced out of the model and get factor zero."""
    result = solve_nnls(DesignSystem(A=system.A[:, list(columns)], b=system.b))
    full = np.zeros(system.A.shape[1])
    full[list(columns)] = result.x
    return ImportanceVector(tuple(float(v) for v in full))


class Run(SimpleNamespace):
    """One call of :func:`run_stages`: its settings (``config``,
    ``out_dir``, ``kpi_source``, ``x_override``, ``event_log``), the path
    and spec of the first grid or map read (``first_spec``) and the
    artifacts its stages take and make, named as in :data:`STAGE_INPUTS`
    and :class:`PipelineResult`."""


def _run_scenario(run: Run) -> None:
    scenario = build_scenario(run.config)
    potential_map = rasterize_potential_map(scenario.potential, run.config.spec)
    if potential_map.total() <= 0:
        raise ValueError("potential-hotspot spec paints no importance anywhere")
    save_grid(scenario.grid, run.out_dir / "grid.csv")
    save_weight_map(scenario.truth, run.out_dir / "truth.csv")
    save_potential_spec(scenario.potential, run.out_dir / "potential.json")
    save_weight_map(potential_map, run.out_dir / "potential.csv")
    run.scenario, run.potential_map = scenario, potential_map
    run.grid, run.servers, run.truth = scenario.grid, scenario.servers, scenario.truth


def _run_kpis(run: Run) -> None:
    """Per-cell KPIs from the oracle (``config.oracle``) or the simulator
    (``config.sim``)."""
    if run.kpi_source == KPI_SOURCE_ORACLE:
        kpis = oracle_kpis(run.truth, run.grid, run.servers, run.config.oracle)
    elif run.kpi_source == KPI_SOURCE_SIM:
        log_path = str(run.out_dir / "events.csv") if run.event_log else None
        kpis = run_simulation(run.config.sim, run.truth, run.grid, run.servers, log_path)
    else:
        raise ValueError(f"unknown KPI source {run.kpi_source!r}")
    if kpis.all_empty():
        raise ValueError(
            "empty system: no cell accumulated any KPI mass "
            "(zero traffic or nothing admitted)"
        )
    save_kpi_set(kpis, run.out_dir / "kpis.json")
    run.kpis = kpis


def _run_maps(run: Run) -> None:
    run.kpi_maps = compute_kpi_maps(run.kpis, run.grid, run.servers, run.config.localizer)
    for label, wmap in zip(KPI_LABELS, run.kpi_maps):
        save_weight_map(wmap, run.out_dir / f"{label}.csv")


def _run_optimize(run: Run) -> None:
    """The fitted importance vector, or ``x_override`` when given, written
    to ``importance.json``; an all-zero fit is refused before the write."""
    x, residual = run.x_override, None
    if x is None:
        result = solve_nnls(build_system(tuple(run.kpi_maps), run.potential_map))
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
        "fitted": run.x_override is None,
    }
    with open(run.out_dir / "importance.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    run.x, run.fit_residual = x, residual


def load_importance(path: Path) -> ImportanceVector:
    """The importance vector of an ``importance.json`` written by the
    optimize stage. Every error names the file, and the line for a byte
    that is not UTF-8."""
    text = read_text(path)
    try:
        doc = json.loads(text)
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


def _run_localize(run: Run) -> None:
    """Fused and smoothed estimates with the importance vector ``x``, and
    every variant's map."""
    result = localize(run.kpi_maps, run.x, run.config.localizer, run.servers.uncovered_mask())
    save_weight_map(result.fused, run.out_dir / "fused.csv")
    save_weight_map(result.smoothed, run.out_dir / "smoothed.csv")
    run.localization = result
    run.variant_maps = variant_maps(run.kpi_maps, run.potential_map, result.fused, result.smoothed)


def _run_evaluate(run: Run) -> None:
    """Score every variant in ``variant_maps`` against the ground truth."""
    run.report = compare_variants(run.truth, run.variant_maps, run.config.evaluation)
    save_report(run.report, run.out_dir / "report.json")
    write_report_csvs(
        run.report, run.out_dir / "peaks.csv", run.out_dir / "detection.csv", run.out_dir / "cdf.csv"
    )


# The artifacts each stage takes, by name, in the order they are read.
STAGE_INPUTS = {
    "scenario": (),
    "kpis": ("grid", "servers", "truth"),
    "maps": ("grid", "servers", "kpis"),
    "optimize": ("kpi_maps", "potential_map"),
    "localize": ("servers", "kpi_maps", "potential_map", "x"),
    "evaluate": ("truth", "variant_maps"),
}

# How a stage input is read when no stage of the call makes it: (the stage
# that writes it, its files, the loader, the inputs the loader takes after
# the files' paths). An input without files is derived from inputs read
# the same way.
READERS = {
    "grid": ("scenario", ("grid.csv",), load_grid, ()),
    "servers": ("scenario", (), compute_server_maps, ("grid",)),
    "truth": ("scenario", ("truth.csv",), load_weight_map, ()),
    "potential_map": ("scenario", ("potential.csv",), load_weight_map, ()),
    "kpis": ("kpis", ("kpis.json",), load_kpi_set, ("grid",)),
    "kpi_maps": (
        "maps",
        tuple(f"{label}.csv" for label in KPI_LABELS),
        lambda *paths: tuple(map(load_weight_map, paths)),
        (),
    ),
    "x": ("optimize", ("importance.json",), load_importance, ()),
    "fused": ("localize", ("fused.csv",), load_weight_map, ()),
    "smoothed": ("localize", ("smoothed.csv",), load_weight_map, ()),
    "variant_maps": (
        "localize", (), variant_maps, ("kpi_maps", "potential_map", "fused", "smoothed")
    ),
}


def _read(name: str, source: Path, run: Run) -> None:
    """Read input ``name`` from ``source`` onto ``run``, after the inputs
    its loader takes. A missing file raises ValueError naming the file and
    the stage that writes it, and a grid or map on another grid than the
    first one read raises ValueError naming both files and both specs."""
    writer, files, load, needs = READERS[name]
    for need in needs:
        if not hasattr(run, need):
            _read(need, source, run)
    paths = [source / file for file in files]
    for path in paths:
        if not path.exists():
            raise ValueError(f"{path} not found, run {writer} first")
    value = load(*paths, *(getattr(run, need) for need in needs))
    for path, item in zip(paths, value if isinstance(value, tuple) else (value,)):
        if isinstance(item, (CoverageGrid, WeightMap)):
            run.first_spec = run.first_spec or (path, item.spec)
            first, spec = run.first_spec
            if item.spec != spec:
                raise ValueError(f"{path}: {item.spec} is not the grid of {first}, {spec}")
    setattr(run, name, value)


def run_stages(
    stages: tuple[str, ...],
    config: ScenarioConfig,
    out_dir: str | Path,
    in_dir: str | Path | None = None,
    kpi_source: str = KPI_SOURCE_ORACLE,
    x_override: ImportanceVector | None = None,
    event_log: bool = False,
) -> Run:
    """Run ``stages`` (names of :data:`STAGE_INPUTS`, run in pipeline
    order) and leave their artifacts in ``out_dir``. Every input that none
    of them makes is read from ``in_dir`` (default: ``out_dir``) before
    the first stage runs, so a bad file fails the call, not a stage; a
    stage's failure is raised as a :class:`StageError` of that stage.
    ``x_override`` stands in for the fitted importance vector."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = Run(
        config=config, out_dir=out, kpi_source=kpi_source, x_override=x_override,
        event_log=event_log, first_spec=None,
    )
    if x_override is not None:
        run.x = x_override
    source = out if in_dir is None else Path(in_dir)
    for name in (name for s in stages for name in STAGE_INPUTS[s]):
        if not hasattr(run, name) and READERS[name][0] not in stages:
            _read(name, source, run)
    for s in STAGE_INPUTS:
        if s in stages:
            try:
                globals()[f"_run_{s}"](run)
            except Exception as exc:
                raise StageError(s, str(exc)) from exc
    return run


def run_pipeline(
    config: ScenarioConfig,
    out_dir: str | Path,
    kpi_source: str = KPI_SOURCE_ORACLE,
    x_override: ImportanceVector | None = None,
    event_log: bool = False,
) -> PipelineResult:
    """Run every stage and leave all artifacts in ``out_dir``; no artifact
    is read back."""
    run = run_stages(
        tuple(STAGE_INPUTS), config, out_dir, None, kpi_source, x_override, event_log
    )
    return PipelineResult(**{f.name: getattr(run, f.name) for f in fields(PipelineResult)})
