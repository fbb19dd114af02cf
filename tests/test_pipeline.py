import errno
import json
import math
import os
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_CONFIG, GOLDEN_REPORT, SIM_CONFIG, put_byte
from hotloc.bounds import ConfigError, InputError
from hotloc.grid import GridSpec
from hotloc.kpi import WeightMap
from hotloc.localize import ImportanceVector
from hotloc import pipeline
from hotloc.nnls import build_system
from hotloc.pipeline import (
    ALL_VARIANTS,
    VARIANT_COLUMNS,
    READERS,
    STAGE_INPUTS,
    STAGE_OUTPUTS,
    StageError,
    fit_importance,
    load_importance,
    run_pipeline,
    run_stages,
    variant_maps,
)
from hotloc.scenario import load_scenario_config

EXPECTED_ARTIFACTS = (
    "grid.csv",
    "grid.npy",
    "truth.csv",
    "potential.json",
    "potential.csv",
    "kpis.json",
    "q1.csv",
    "q2.csv",
    "q3.csv",
    "q4.csv",
    "q5.csv",
    "importance.json",
    "fused.csv",
    "smoothed.csv",
    "report.json",
    "peaks.csv",
    "detection.csv",
    "cdf.csv",
)


def assert_json_close(a, b, path="$", rel=1e-12):
    if isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), f"{path}: keys {sorted(a)} != {sorted(b)}"
        for key in a:
            assert_json_close(a[key], b[key], f"{path}.{key}", rel)
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for idx, (va, vb) in enumerate(zip(a, b)):
            assert_json_close(va, vb, f"{path}[{idx}]", rel)
    elif isinstance(a, float) or isinstance(b, float):
        assert math.isclose(a, b, rel_tol=rel, abs_tol=1e-15), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestDeskRun:
    def test_report_matches_golden(self, desk_run):
        generated = json.loads((desk_run.out_dir / "report.json").read_text())
        golden = json.loads(GOLDEN_REPORT.read_text())
        assert_json_close(generated, golden)

    def test_all_artifacts_written(self, desk_run):
        for name in EXPECTED_ARTIFACTS:
            assert (desk_run.out_dir / name).exists(), name

    def test_importance_fit_recorded(self, desk_run):
        doc = json.loads((desk_run.out_dir / "importance.json").read_text())
        assert doc.keys() == {"x", "residual", "x_normalized", "fitted"}
        assert doc["fitted"] is True
        assert len(doc["x"]) == 5
        assert doc["residual"] == desk_run.fit_residual
        assert sum(doc["x_normalized"]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(doc["x"], list(desk_run.x.values))

    def test_variant_maps_cover_all_variants(self, desk_run):
        assert set(desk_run.variant_maps) == set(ALL_VARIANTS)
        assert set(desk_run.report.variants) == set(ALL_VARIANTS)
        for name, wmap in desk_run.variant_maps.items():
            assert isinstance(wmap, WeightMap)
            assert wmap.values.shape == (60, 60)

    def test_smoothed_beats_fused_on_peak_distance(self, desk_run):
        means = {k: v.mean_distance_m for k, v in desk_run.report.variants.items()}
        assert means["step7"] <= means["step6"]


def test_run_pipeline_reads_no_artifact(monkeypatch, tmp_path):
    """Every stage input of a full run comes from memory: with every
    reader refusing, the run still completes."""

    def refuse(*args):
        raise AssertionError("run_pipeline read an artifact back")

    readers = {name: (stage, files, refuse, needs) for name, (stage, files, _, needs) in pipeline.READERS.items()}
    monkeypatch.setattr(pipeline, "READERS", readers)
    result = run_pipeline(load_scenario_config(SIM_CONFIG), tmp_path / "run")
    assert set(result.report.variants) == set(ALL_VARIANTS)


class TestFitImportance:
    def test_inactive_columns_forced_to_zero(self):
        rng = np.random.default_rng(41)
        maps = tuple(
            WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), f"q{k + 1}") for k in range(5)
        )
        potential = WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), "potential")
        for name, columns in VARIANT_COLUMNS.items():
            x, _ = fit_importance(build_system(maps, potential), name)
            for idx, value in enumerate(x.values):
                if idx not in columns:
                    assert value == 0.0

    def test_single_column_fit_is_projection(self):
        rng = np.random.default_rng(42)
        base = rng.random((6, 6))
        maps = tuple(WeightMap(base, GridSpec(6, 25.0), f"q{k + 1}") for k in range(5))
        potential = WeightMap(base * 2.5, GridSpec(6, 25.0), "potential")
        x, residual = fit_importance(build_system(maps, potential), "ta_only")
        assert x.values[0] == pytest.approx(2.5, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_full_fit_is_the_nnls_solution(self):
        rng = np.random.default_rng(43)
        maps = tuple(WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), f"q{k + 1}") for k in range(5))
        system = build_system(maps, WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), "potential"))
        x, residual = fit_importance(system)
        result = pipeline.solve_nnls(system)
        assert x.values == tuple(result.x.tolist()) and residual == result.residual

    def test_zero_restricted_fit_names_the_variant(self):
        # q1 lives where the prior is zero, so ta_only fits x = 0 while
        # ta_neighbor, on q1 and q3, does not.
        half = np.zeros((6, 6))
        half[:3] = 1.0
        maps = tuple(WeightMap(half if k else 1.0 - half, GridSpec(6, 25.0), f"q{k + 1}") for k in range(5))
        potential = WeightMap(half, GridSpec(6, 25.0), "potential")
        with pytest.raises(ConfigError) as excinfo:
            variant_maps(maps, potential, maps[0], maps[0])
        assert excinfo.value.source == "potential.zones"
        assert excinfo.value.message == (
            "ta_only fit: every factor is zero; "
            "the potential-hotspot prior overlaps none of the KPI maps"
        )


class TestPipelineErrors:
    def test_idle_simulation_fails_in_kpi_stage(self, tmp_path):
        config = load_scenario_config(SIM_CONFIG)
        idle = replace(config, sim=replace(config.sim, arrival_rate=0.0))
        with pytest.raises(StageError, match="empty system") as excinfo:
            run_pipeline(idle, tmp_path / "idle", kpi_source="sim")
        assert excinfo.value.stage == "kpis"

    def test_unknown_kpi_source(self, tmp_path):
        config = load_scenario_config(SIM_CONFIG)
        with pytest.raises(StageError, match="unknown KPI source") as excinfo:
            run_pipeline(config, tmp_path / "x", kpi_source="guesswork")
        assert excinfo.value.stage == "kpis"

    def test_importance_byte_not_utf8_named_by_line(self, tmp_path):
        path = tmp_path / "importance.json"
        path.write_text(json.dumps({"x": [0.2] * 5}, indent=2) + "\n")
        message = put_byte(path, 3)
        with pytest.raises(InputError) as excinfo:
            load_importance(path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert (excinfo.value.source, excinfo.value.where) == (str(path), "line 3")

    def test_importance_huge_factor_is_named(self, tmp_path):
        """A factor beyond the float range is refused by the number rule of
        every JSON input, shown in %g form."""
        path = tmp_path / "importance.json"
        path.write_text(json.dumps({"x": [0.2, 10**400, 0.2, 0.2, 0.2]}))
        with pytest.raises(InputError) as excinfo:
            load_importance(path)
        reason = "'x' must be a list of 5 numbers: x[1] must be finite, got 1e+400"
        assert (excinfo.value.source, excinfo.value.where, excinfo.value.message) == (str(path), None, reason)

    def test_empty_potential_fails_in_scenario_stage(self, tmp_path):
        config = load_scenario_config(SIM_CONFIG)
        bare = replace(config, potential=replace(config.potential, zones=[]))
        with pytest.raises(StageError, match="paints no importance") as excinfo:
            run_pipeline(bare, tmp_path / "bare")
        assert excinfo.value.stage == "scenario"


class TestSimPipeline:
    def test_sim_source_round_trip_is_deterministic(self, tmp_path):
        config = load_scenario_config(SIM_CONFIG)
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_pipeline(config, out, kpi_source="sim", event_log=True)
            assert (out / "events.csv").exists()
            assert set(result.report.variants) == set(ALL_VARIANTS)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_full_cells_feed_step4(self, tmp_path):
        # One slot per cell keeps every sim-small cell full for more than
        # rho_threshold of the ticks, and blocks arrivals on the way.
        config = load_scenario_config(SIM_CONFIG)
        config = replace(config, sim=replace(config.sim, max_ue_per_cell=1))
        out = tmp_path / "full"
        result = run_pipeline(config, out, kpi_source="sim", event_log=True)
        loads = [ck.load_time for ck in result.kpis.cells.values()]
        assert max(loads) > config.localizer.rho_threshold
        assert b",block," in (out / "events.csv").read_bytes()
        q4 = result.kpi_maps[3]
        assert q4.label == "q4" and q4.values.any()
        report = json.loads((out / "report.json").read_text())
        assert set(report["variants"]) == set(ALL_VARIANTS)

    def test_x_override_skips_fitting(self, tmp_path):
        config = load_scenario_config(SIM_CONFIG)
        result = run_pipeline(
            config, tmp_path / "o", x_override=ImportanceVector((0.2,) * 5)
        )
        assert result.x.values == (0.2,) * 5
        assert result.fit_residual is None
        doc = json.loads((tmp_path / "o" / "importance.json").read_text())
        assert doc["fitted"] is False
        assert doc["residual"] is None


# The tracemalloc peak of each stage run alone, reading its inputs from a
# finished run, in bytes per (cell, pixel) of the desk layout on a 128x128
# grid: about 1.25 times the measured peak (scenario 15.9, kpis 14.7,
# maps 16.7, optimize 7.5, localize 18.9, evaluate 20.8). The cube is 8
# bytes per (cell, pixel), so one more full-cube temporary fails the
# scenario, kpis and maps bounds.
STAGE_PEAK_BOUNDS = {
    "scenario": 20.0,
    "kpis": 18.5,
    "maps": 21.0,
    "optimize": 9.5,
    "localize": 23.5,
    "evaluate": 26.0,
}


@pytest.fixture(scope="module")
def desk_128(tmp_path_factory):
    """The desk layout on a 128x128 grid, and a full run of it."""
    config = load_scenario_config(DESK_CONFIG)
    config = replace(config, spec=GridSpec(128, config.spec.extent / 128, config.spec.origin))
    assert config.layout.site_count * config.layout.sectors_per_site == 21
    out = tmp_path_factory.mktemp("desk-128")
    run_pipeline(config, out)
    return config, out


@pytest.mark.parametrize("stage", STAGE_INPUTS)
def test_stage_memory_bound(desk_128, tmp_path, stage):
    config, run_dir = desk_128
    tracemalloc.start()
    try:
        run_stages((stage,), config, tmp_path, in_dir=run_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (21 * 128**2) < STAGE_PEAK_BOUNDS[stage]


@pytest.fixture(scope="module")
def sim_runs(tmp_path_factory):
    """Two simulator runs of sim-small with the event log: at seed 1, the
    earlier run that a failing run goes over, and at seed 0, the failing
    run's own files."""
    runs = []
    for seed in (1, 0):
        out = tmp_path_factory.mktemp(f"sim-seed-{seed}")
        run_pipeline(load_scenario_config(SIM_CONFIG, seed), out, kpi_source="sim", event_log=True)
        runs.append(out)
    return runs


def test_full_run_leaves_exactly_the_declared_files(sim_runs):
    assert {path.name for path in sim_runs[1].iterdir()} == {
        name for files in STAGE_OUTPUTS.values() for name in files
    }


@pytest.mark.parametrize("name", READERS)
def test_read_files_are_their_writers_outputs(name):
    writer, files, _, _ = READERS[name]
    assert set(files) <= set(STAGE_OUTPUTS[writer])


# The last file each stage writes, and the pipeline's writers: in
# test_failed_stage_leaves_none_of_its_files the writer of that file fails
# right after writing it, as on a full disk, so the stage has written all
# of its files when it fails.
LAST_WRITTEN = {
    "scenario": "potential.csv",
    "kpis": "kpis.json",
    "maps": "q5.csv",
    "optimize": "importance.json",
    "localize": "smoothed.csv",
    "evaluate": "cdf.csv",
}
WRITERS = (
    "save_grid", "save_weight_map", "save_potential_spec", "save_kpi_set", "write_json", "save_report",
    "write_report_csvs",
)


@pytest.mark.parametrize("alone", [False, True], ids=["pipeline", "alone"])
@pytest.mark.parametrize("stage", STAGE_OUTPUTS)
def test_failed_stage_leaves_none_of_its_files(monkeypatch, sim_runs, tmp_path, stage, alone):
    """Over a complete earlier run, a stage that fails after its writes
    leaves none of its files and none of a later stage's of the call; the
    stages before it in the call leave this run's files, as new files, and
    every other file stays as it was."""
    earlier, own = sim_runs
    out, links = tmp_path / "out", tmp_path / "links"
    shutil.copytree(earlier, out)
    links.mkdir()
    for path in out.iterdir():
        os.link(path, links / path.name)

    def failing(writer):
        def write(*args):
            writer(*args)
            if any(isinstance(arg, Path) and arg.name == LAST_WRITTEN[stage] for arg in args):
                raise OSError(errno.ENOSPC, "No space left on device")

        return write

    for name in WRITERS:
        monkeypatch.setattr(pipeline, name, failing(getattr(pipeline, name)))
    stages = (stage,) if alone else tuple(STAGE_OUTPUTS)
    with pytest.raises(StageError) as excinfo:
        run_stages(stages, load_scenario_config(SIM_CONFIG, 0), out, kpi_source="sim", event_log=True)
    assert excinfo.value.stage == stage and excinfo.value.cause.errno == errno.ENOSPC
    k = stages.index(stage)
    gone = {name for s in stages[k:] for name in STAGE_OUTPUTS[s]}
    written = {name for s in stages[:k] for name in STAGE_OUTPUTS[s]}
    assert {path.name for path in out.iterdir()} == {path.name for path in links.iterdir()} - gone
    for name in written:
        assert (out / name).read_bytes() == (own / name).read_bytes(), name
        assert (out / name).stat().st_nlink == 1, name
    for path in links.iterdir():
        if path.name not in gone | written:
            assert (out / path.name).samefile(path), path.name
