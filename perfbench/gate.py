"""Correctness gate: every repetition of a workload reads its artifacts
back through the public loaders and must pass every check here, or it
counts as a failed run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hotloc import grid as grid_io
from hotloc import kpi as kpi_io
from hotloc.grid import CoverageGrid
from hotloc.kpi import KPI_LABELS, KpiSet, PotentialHotspotSpec, WeightMap
from hotloc.nnls import build_system
from hotloc.pipeline import PipelineResult

REPORT_REL_TOL = 1e-12
# The active-set solver's optimality tolerance (hotloc.nnls.DEFAULT_TOL),
# held here so that a solver swap cannot loosen the check.
NNLS_TOL = 1e-9
# grid.csv stores azimuths in degrees; the radians round trip may move
# the last bits.
AZIMUTH_ABS_TOL = 1e-12

WEIGHT_MAP_FILES = ("truth", "potential", *KPI_LABELS, "fused", "smoothed")


@dataclass
class Artifacts:
    """One run's output directory, read back through the public loaders."""

    grid: CoverageGrid
    maps: dict[str, WeightMap]
    kpis: KpiSet
    potential: PotentialHotspotSpec


def readback(out: Path) -> Artifacts:
    # Loaders are looked up on their modules at call time so that a traced
    # run sees them wrapped.
    return Artifacts(
        grid=grid_io.load_grid(out / "grid.csv"),
        maps={name: kpi_io.load_weight_map(out / f"{name}.csv") for name in WEIGHT_MAP_FILES},
        kpis=kpi_io.load_kpi_set(out / "kpis.json"),
        potential=kpi_io.load_potential_spec(out / "potential.json"),
    )


def json_mismatch(a, b, path: str = "$") -> str | None:
    """First difference between two JSON documents, floats compared at
    REPORT_REL_TOL (the golden-report comparison of the test suite); None
    when they agree."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for key in a:
            found = json_mismatch(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for idx, (va, vb) in enumerate(zip(a, b)):
            found = json_mismatch(va, vb, f"{path}[{idx}]")
            if found:
                return found
        return None
    if isinstance(a, float) or isinstance(b, float):
        if math.isclose(a, b, rel_tol=REPORT_REL_TOL, abs_tol=1e-15):
            return None
        return f"{path}: {a!r} != {b!r}"
    return None if a == b else f"{path}: {a!r} != {b!r}"


def _map_mismatch(name: str, got: WeightMap, want: WeightMap) -> str | None:
    if not np.array_equal(got.values, want.values):
        return f"{name}.csv: values differ from the in-memory map"
    if (got.pixel_size, got.label, tuple(got.origin)) != (
        want.pixel_size,
        want.label,
        tuple(want.origin),
    ):
        return f"{name}.csv: header differs from the in-memory map"
    return None


def _grid_mismatch(got: CoverageGrid, want: CoverageGrid) -> str | None:
    if got.spec != want.spec or got.q_rxlevmin != want.q_rxlevmin:
        return "grid.csv: header differs from the in-memory grid"
    if len(got.cells) != len(want.cells):
        return "grid.csv: cell count differs"
    for a, b in zip(got.cells, want.cells):
        if (a.cell_id, a.site_position, a.neighbors) != (b.cell_id, b.site_position, b.neighbors):
            return f"grid.csv: cell {b.cell_id} differs"
        if abs(a.azimuth - b.azimuth) > AZIMUTH_ABS_TOL:
            return f"grid.csv: azimuth of {b.cell_id} differs"
    if not np.array_equal(got.rsrp, want.rsrp, equal_nan=True):
        return "grid.csv: rsrp layers differ from the in-memory grid"
    return None


def _kpis_mismatch(got: KpiSet, want: KpiSet) -> str | None:
    if (got.source, got.window_s, list(got.cells)) != (want.source, want.window_s, list(want.cells)):
        return "kpis.json: header or cell list differs"
    for cell_id, w in want.cells.items():
        g = got.cells[cell_id]
        same = (
            np.array_equal(g.ta, w.ta)
            and np.array_equal(g.aoa, w.aoa)
            and g.neighbor_level == w.neighbor_level
            and (g.load_time, g.amt_bps, g.hmt_bps) == (w.load_time, w.amt_bps, w.hmt_bps)
        )
        if not same:
            return f"kpis.json: cell {cell_id} differs from the in-memory KPIs"
    return None


def readback_failures(result: PipelineResult, art: Artifacts) -> list[str]:
    want_maps = {
        "truth": result.scenario.truth,
        "potential": result.potential_map,
        **dict(zip(KPI_LABELS, result.kpi_maps)),
        "fused": result.localization.fused,
        "smoothed": result.localization.smoothed,
    }
    found = [_map_mismatch(name, art.maps[name], want) for name, want in want_maps.items()]
    found.append(_grid_mismatch(art.grid, result.scenario.grid))
    found.append(_kpis_mismatch(art.kpis, result.kpis))
    if art.potential != result.scenario.potential:
        found.append("potential.json: zones differ from the scenario's prior")
    return [f for f in found if f]


def nnls_failures(result: PipelineResult) -> list[str]:
    """Optimality of the fitted importance vector, checked from outside:
    with w = A^T (b - A x), x >= 0, w <= tol where x = 0 and |w| <= tol
    where x > 0."""
    system = build_system(tuple(result.kpi_maps), result.potential_map)
    x = np.array(result.x.values)
    w = system.A.T @ (system.b - system.A @ x)
    zero = x == 0
    if (x < 0).any() or (w[zero] > NNLS_TOL).any() or (np.abs(w[~zero]) > NNLS_TOL).any():
        return [f"nnls: optimality conditions fail, x={x.tolist()} w={w.tolist()}"]
    return []


def check_run(result: PipelineResult, reference: Path | None) -> list[str]:
    """Every check of one repetition's result beside its read-back
    (``readback_failures``); an empty list means correct."""
    failures = []
    try:
        result.kpis.validate(result.scenario.grid)
    except ValueError as exc:
        failures.append(f"kpis: {exc}")
    smoothed = result.localization.smoothed.values
    if (smoothed < 0).any():
        failures.append("smoothed map has negative weights")
    if (smoothed[result.scenario.servers.uncovered_mask()] != 0).any():
        failures.append("smoothed map is non-zero on uncovered pixels")
    failures += nnls_failures(result)
    if reference is not None:
        report = json.loads((result.out_dir / "report.json").read_text())
        found = json_mismatch(report, json.loads(reference.read_text()))
        if found:
            failures.append(f"report.json differs from {reference.name}: {found}")
    return failures


@dataclass
class Tally:
    """Attempted and failed repetitions; a repetition fails when it raises
    or any check fails."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)
