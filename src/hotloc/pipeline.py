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
a fixed order and a failure is a :class:`StageError` that carries the
stage name and the exception, so a caller (the CLI in particular) can
report exactly where a run died and which input it refused.

Each stage's files are declared once, in :data:`STAGE_OUTPUTS`, and only
:func:`run_stages` removes them: right before the stage runs, and after
it fails, with those of every later stage of the call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from hotloc.bounds import MAX_MAGNITUDE, InputError, json_float
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
from hotloc.grid import CoverageGrid, compute_server_maps, load_grid, read_json, save_grid, write_json
from hotloc.localize import (
    KPI_COUNT,
    ImportanceVector,
    LocalizationResult,
    compute_kpi_maps,
    localize,
    step6_combine,
)
from hotloc.nnls import DesignSystem, build_system, solve_nnls
from hotloc.scenario import ConfigError, Scenario, ScenarioConfig, build_scenario
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
    """The pipeline stage ``stage`` failed with the exception ``cause``.
    The text is the cause's, after ``(seed N)`` when ``seed`` names the
    run of a seed sweep."""

    def __init__(self, stage: str, cause: Exception, seed: int | None = None):
        super().__init__(("" if seed is None else f"(seed {seed}) ") + str(cause))
        self.stage, self.cause, self.seed = stage, cause, seed


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


def fit_importance(system: DesignSystem, name: str = "importance") -> tuple[ImportanceVector, float]:
    """The NNLS importance vector of ``system`` and its residual. The fit
    ``importance`` takes every KPI column; a restricted variant ``name``
    takes its :data:`VARIANT_COLUMNS` alone, and the other KPI maps get
    factor zero. A fit that is all zero or has a factor above
    :data:`MAX_MAGNITUDE` raises ConfigError naming the prior's zones."""
    columns = VARIANT_COLUMNS.get(name)
    # The full fit solves on A itself: a copy of its columns costs memory
    # and can change the BLAS bits.
    result = solve_nnls(system if columns is None else DesignSystem(A=system.A[:, list(columns)], b=system.b))
    if not result.x.any():
        reason = f"{name} fit: every factor is zero; the potential-hotspot prior overlaps none of the KPI maps"
        raise ConfigError("potential.zones", reason)
    if (top := float(result.x.max())) > MAX_MAGNITUDE:
        reason = f"{name} fit: factor {top!r} is above {MAX_MAGNITUDE:g}; the prior's importances are too large"
        raise ConfigError("potential.zones", reason)
    x = np.zeros(system.A.shape[1])
    x[list(columns or range(len(x)))] = result.x
    return ImportanceVector(tuple(float(v) for v in x)), result.residual


class Run(SimpleNamespace):
    """One call of :func:`run_stages`: its settings (``config``,
    ``out_dir``, ``kpi_source``, ``x_override``, ``event_log``) and the
    artifacts its stages take and make, named as in :data:`STAGE_INPUTS`
    and :class:`PipelineResult`."""


def _run_scenario(run: Run) -> None:
    scenario = build_scenario(run.config)
    potential_map = rasterize_potential_map(scenario.potential, run.config.spec)
    if potential_map.total() <= 0:
        raise ConfigError("potential.zones", "potential-hotspot spec paints no importance anywhere")
    save_grid(scenario.grid, run.out_dir / "grid.csv")
    save_weight_map(scenario.truth, run.out_dir / "truth.csv")
    save_potential_spec(scenario.potential, run.out_dir / "potential.json")
    save_weight_map(potential_map, run.out_dir / "potential.csv")
    run.scenario, run.potential_map = scenario, potential_map
    run.grid, run.servers, run.truth = scenario.grid, scenario.servers, scenario.truth


def _run_kpis(run: Run) -> None:
    """Per-cell KPIs from the oracle (``config.oracle``) or the simulator
    (``config.sim``), which writes its event log ``events.csv`` when
    ``event_log`` is set."""
    if run.kpi_source == KPI_SOURCE_ORACLE:
        kpis = oracle_kpis(run.truth, run.grid, run.servers, run.config.oracle)
    elif run.kpi_source == KPI_SOURCE_SIM:
        log = str(run.out_dir / "events.csv") if run.event_log else None
        kpis = run_simulation(run.config.sim, run.truth, run.grid, run.servers, log)
    else:
        raise ValueError(f"unknown KPI source {run.kpi_source!r}")
    if kpis.all_empty():
        sim = run.kpi_source == KPI_SOURCE_SIM  # the simulator also needs arrivals
        raise ConfigError(
            ("sim.arrival_rate", "sim.duration_s") if sim else ("traffic", "layout"),
            "empty system: no cell accumulated any KPI mass (zero traffic or nothing admitted)",
        )
    save_kpi_set(kpis, run.out_dir / "kpis.json")
    run.kpis = kpis


def _run_maps(run: Run) -> None:
    run.kpi_maps = compute_kpi_maps(run.kpis, run.grid, run.servers, run.config.localizer)
    for label, wmap in zip(KPI_LABELS, run.kpi_maps):
        save_weight_map(wmap, run.out_dir / f"{label}.csv")


def _run_optimize(run: Run) -> None:
    """The fitted importance vector (:func:`fit_importance`), or
    ``x_override`` when given, written to ``importance.json``."""
    x, residual = run.x_override, None
    if x is None:
        x, residual = fit_importance(build_system(tuple(run.kpi_maps), run.potential_map))
    total = sum(x.values)
    doc = {
        "x": list(x.values),
        "residual": residual,
        "x_normalized": [v / total for v in x.values],
        "fitted": run.x_override is None,
    }
    write_json(run.out_dir / "importance.json", doc)
    run.x, run.fit_residual = x, residual


def load_importance(path: Path) -> ImportanceVector:
    """The importance vector of an ``importance.json`` written by the
    optimize stage. Every error is an InputError of the file, at the line
    for a byte that is not UTF-8."""
    doc = read_json(path)
    x = doc.get("x") if isinstance(doc, dict) else None
    shape = f"'x' must be a list of {KPI_COUNT} numbers"
    if not (isinstance(x, list) and len(x) == KPI_COUNT):
        raise InputError(path, None, shape)
    values = []
    for k, v in enumerate(x):
        try:
            values.append(json_float(v))
        except ValueError as exc:
            raise InputError(path, None, f"{shape}: x[{k}] {exc}") from None
    try:
        return ImportanceVector(tuple(values))
    except ValueError as exc:
        raise InputError.of(path, exc) from exc


def variant_maps(
    kpi_maps: tuple[WeightMap, ...], potential_map: WeightMap, fused: WeightMap, smoothed: WeightMap
) -> dict[str, WeightMap]:
    """Every variant's map: the fused and smoothed estimates as ``step6``
    and ``step7``, and the fused maps of the restricted variants, each
    fitted on its own KPI columns of one system (:func:`fit_importance`)."""
    system = build_system(tuple(kpi_maps), potential_map)
    maps = {name: step6_combine(kpi_maps, fit_importance(system, name)[0]) for name in VARIANT_COLUMNS}
    maps[VARIANT_STEP6] = fused
    maps[VARIANT_STEP7] = smoothed
    return maps


def _run_localize(run: Run) -> None:
    """Fused and smoothed estimates with the importance vector ``x``, and
    every variant's map."""
    result = localize(run.kpi_maps, run.x, run.config.localizer, run.servers.uncovered_mask())
    for wmap in (result.fused, result.smoothed):
        _check_weights(wmap, f"{wmap.label} map of importance factors {list(run.x.values)}")
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

# The files each stage writes, events.csv only with the simulator's event
# log; run_stages alone removes them (remove_files).
STAGE_OUTPUTS = {
    "scenario": ("grid.csv", "grid.npy", "truth.csv", "potential.json", "potential.csv"),
    "kpis": ("kpis.json", "events.csv"),
    "maps": tuple(f"{label}.csv" for label in KPI_LABELS),
    "optimize": ("importance.json",),
    "localize": ("fused.csv", "smoothed.csv"),
    "evaluate": ("report.json", "peaks.csv", "detection.csv", "cdf.csv"),
}

# How a stage input is read when no stage of the call makes it: (the stage
# that writes it, its files, the loader, the inputs the loader takes after
# the files' paths). An input without files is derived from inputs read
# the same way. load_grid finds the cube file beside grid.csv; it is
# listed so that a missing one is named with its stage.
READERS = {
    "grid": ("scenario", ("grid.csv", "grid.npy"), lambda path, _cube: load_grid(path), ()),
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


def _check_against_config(path: Path, item, config: ScenarioConfig) -> None:
    """Raise ConfigError naming the config key, ``path`` and both values
    where the grid or map ``item`` read from ``path`` is off the config's
    grid, or a grid has another ``q_rxlevmin``."""
    spec, ref = item.spec, config.spec
    pairs = [
        ("grid.pixel_size_m", spec.pixel_size, ref.pixel_size),
        ("grid.extent_m", spec.extent, ref.extent),
        *((f"grid.origin[{k}]", spec.origin[k], ref.origin[k]) for k in range(2)),
    ]
    if isinstance(item, CoverageGrid):
        pairs.append(("grid.q_rxlevmin_dbm", item.q_rxlevmin, config.q_rxlevmin_dbm))
    for key, got, want in pairs:
        if got != want:
            raise ConfigError(key, f"{want!r} does not match {path}, which has {got!r}")


def _check_weights(wmap: WeightMap, source) -> None:
    """Raise InputError of ``source`` if ``wmap`` has a weight above :data:`MAX_MAGNITUDE`."""
    if (top := float(wmap.values.max())) > MAX_MAGNITUDE:
        raise InputError(source, None, f"weight {top!r} is above {MAX_MAGNITUDE:g}")


def _read(name: str, source: Path, run: Run) -> None:
    """Read input ``name`` from ``source`` onto ``run``, after the inputs
    its loader takes. A missing file, named with the stage that writes it,
    and a map weight above :data:`MAX_MAGNITUDE` raise InputError, as the
    loaders do; a grid or map that does not match the config raises
    ConfigError (:func:`_check_against_config`)."""
    writer, files, load, needs = READERS[name]
    for need in needs:
        if not hasattr(run, need):
            _read(need, source, run)
    paths = [source / file for file in files]
    for path in paths:
        if not path.exists():
            raise InputError(path, None, f"not found, run {writer} first")
    value = load(*paths, *(getattr(run, need) for need in needs))
    for path, item in zip(paths, value if isinstance(value, tuple) else (value,)):
        if isinstance(item, (CoverageGrid, WeightMap)):
            _check_against_config(path, item, run.config)
        if isinstance(item, WeightMap):
            _check_weights(item, path)
    setattr(run, name, value)


def remove_files(out: Path, names, strict: bool = True) -> None:
    """Unlink each file of ``names`` in ``out`` that exists, so that what a
    stage writes there is a new file: a hard link, symlink or read-only
    file is replaced, not written through. A directory raises
    IsADirectoryError and stays; with ``strict`` False an OSError passes.
    On an ext4 root on a virtual disk, 18 files of 80 KB took 1.1-1.7 ms
    unlinked and created anew, 2.3-3.1 ms truncated in place, and 3.6-5.6
    ms as temporary files renamed over the old, which would keep each old
    file whole until its new one is complete."""
    for name in names:
        try:
            (out / name).unlink(missing_ok=True)
        except OSError:
            if strict:
                raise


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
    the first stage runs, so a bad file or one off the config's grid
    fails the call, not a stage, and removes nothing. Each stage's
    :data:`STAGE_OUTPUTS` are removed right before it runs; a stage's
    failure removes those of that stage and of every later stage of the
    call, then is raised as a :class:`StageError` of that stage.
    ``x_override`` stands in for the fitted importance vector."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = Run(
        config=config, out_dir=out, kpi_source=kpi_source, x_override=x_override,
        event_log=event_log,
    )
    if x_override is not None:
        run.x = x_override
    source = out if in_dir is None else Path(in_dir)
    for name in (name for s in stages for name in STAGE_INPUTS[s]):
        if not hasattr(run, name) and READERS[name][0] not in stages:
            _read(name, source, run)
    ordered = [s for s in STAGE_INPUTS if s in stages]
    for k, s in enumerate(ordered):
        try:
            remove_files(out, STAGE_OUTPUTS[s])
            globals()[f"_run_{s}"](run)
        except Exception as exc:
            for later in ordered[k:]:
                remove_files(out, STAGE_OUTPUTS[later], strict=False)
            raise StageError(s, exc) from exc
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
