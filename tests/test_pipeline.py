import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import GOLDEN_REPORT, SIM_CONFIG, put_byte
from hotloc.grid import GridSpec
from hotloc.kpi import WeightMap
from hotloc.localize import ImportanceVector
from hotloc import pipeline
from hotloc.nnls import build_system
from hotloc.pipeline import (
    ALL_VARIANTS,
    VARIANT_COLUMNS,
    StageError,
    load_importance,
    restricted_fit,
    run_pipeline,
    variant_maps,
)
from hotloc.scenario import load_scenario_config

EXPECTED_ARTIFACTS = (
    "grid.csv",
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


class TestRestrictedFit:
    def test_inactive_columns_forced_to_zero(self):
        rng = np.random.default_rng(41)
        maps = tuple(
            WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), f"q{k + 1}") for k in range(5)
        )
        potential = WeightMap(rng.random((6, 6)), GridSpec(6, 25.0), "potential")
        for columns in VARIANT_COLUMNS.values():
            x = restricted_fit(build_system(maps, potential), columns)
            for idx, value in enumerate(x.values):
                if idx not in columns:
                    assert value == 0.0

    def test_single_column_fit_is_projection(self):
        rng = np.random.default_rng(42)
        base = rng.random((6, 6))
        maps = tuple(WeightMap(base, GridSpec(6, 25.0), f"q{k + 1}") for k in range(5))
        potential = WeightMap(base * 2.5, GridSpec(6, 25.0), "potential")
        x = restricted_fit(build_system(maps, potential), (0,))
        assert x.values[0] == pytest.approx(2.5, abs=1e-12)

    def test_zero_restricted_fit_names_the_variant(self):
        # q1 lives where the prior is zero, so ta_only fits x = 0 while
        # ta_neighbor, on q1 and q3, does not.
        half = np.zeros((6, 6))
        half[:3] = 1.0
        maps = tuple(WeightMap(half if k else 1.0 - half, GridSpec(6, 25.0), f"q{k + 1}") for k in range(5))
        potential = WeightMap(half, GridSpec(6, 25.0), "potential")
        with pytest.raises(ValueError, match="^ta_only fit: importance factors must not all be zero$"):
            variant_maps(maps, potential, maps[0], maps[0])


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
        with pytest.raises(ValueError) as excinfo:
            load_importance(path)
        assert str(excinfo.value) == f"{path}: {message}"

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
