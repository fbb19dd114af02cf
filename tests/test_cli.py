import csv
import json
import os
import re
import shutil

import pytest
from click.testing import CliRunner

from conftest import DESK_CONFIG, REPO_ROOT, SIM_CONFIG, put_byte
from hotloc.cli import main
from hotloc.pipeline import READERS

CONFIG = str(SIM_CONFIG)


@pytest.fixture()
def runner():
    return CliRunner()


def fails(runner, stage, *args):
    """Run a command that must fail cleanly in ``stage``: exit status 1,
    the stage named on stderr and no uncaught exception."""
    result = runner.invoke(main, list(args))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"hotloc: stage {stage}:" in result.stderr
    assert "Traceback" not in result.output
    return result.stderr


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    if result.exit_code != 0 and result.exception and not isinstance(
        result.exception, SystemExit
    ):
        raise result.exception
    return result


class TestGenScenario:
    def test_writes_artifacts(self, runner, tmp_path):
        out = tmp_path / "scn"
        result = invoke(runner, "gen-scenario", "--config", CONFIG, "--out", str(out))
        assert result.exit_code == 0
        assert "3 cells, m=32" in result.output
        for name in ("grid.csv", "truth.csv", "potential.json"):
            assert (out / name).exists()

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke(runner, "gen-scenario", "--config", CONFIG, "--out", str(a))
        invoke(runner, "gen-scenario", "--config", CONFIG, "--out", str(b))
        for name in ("grid.csv", "truth.csv", "potential.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["gen-scenario", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)],
        )
        assert result.exit_code == 2
        assert "does not exist" in result.stderr

    def test_invalid_config_reports_stage(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"extent_m": 100.0, "pixel_size_m": 3.0}}))
        result = runner.invoke(
            main, ["gen-scenario", "--config", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert "hotloc: stage config:" in result.stderr


class TestStageCommands:
    """The piecemeal flow: scenario, KPIs, maps, fit, localize, evaluate,
    all sharing one artifact directory."""

    def test_full_stagewise_flow(self, runner, tmp_path):
        art = str(tmp_path / "art")
        invoke(runner, "gen-scenario", "--config", CONFIG, "--out", art)

        result = invoke(runner, "oracle-kpis", "--config", CONFIG, "--out", art)
        assert result.exit_code == 0
        assert "oracle KPIs for 3 cells" in result.output
        assert (tmp_path / "art" / "kpis.json").exists()

        # optimize writes the KPI maps that localize fuses.
        result = invoke(runner, "optimize", "--config", CONFIG, "--out", art)
        assert result.exit_code == 0
        assert "residual" in result.output
        doc = json.loads((tmp_path / "art" / "importance.json").read_text())
        assert doc["fitted"] is True
        assert len(doc["x"]) == 5

        # First localize pass with explicit factors.
        result = invoke(
            runner,
            "localize",
            "--config", CONFIG,
            "--out", art,
            "--x-override", "0.2,0.2,0.2,0.2,0.2",
        )
        assert result.exit_code == 0
        for name in ("q1.csv", "q2.csv", "q3.csv", "q4.csv", "q5.csv", "fused.csv", "smoothed.csv"):
            assert (tmp_path / "art" / name).exists()

        # Second localize pass picks the fitted vector up from disk.
        result = invoke(runner, "localize", "--config", CONFIG, "--out", art)
        assert result.exit_code == 0

        result = invoke(runner, "evaluate", "--config", CONFIG, "--out", art)
        assert result.exit_code == 0
        report = json.loads((tmp_path / "art" / "report.json").read_text())
        assert set(report["variants"]) == {"ta_only", "ta_neighbor", "step6", "step7"}
        for name in ("peaks.csv", "detection.csv", "cdf.csv"):
            assert (tmp_path / "art" / name).exists()

    def test_simulate_with_event_log(self, runner, tmp_path):
        art = str(tmp_path / "art")
        invoke(runner, "gen-scenario", "--config", CONFIG, "--out", art)
        result = invoke(
            runner, "simulate", "--config", CONFIG, "--out", art, "--events"
        )
        assert result.exit_code == 0
        assert "simulated KPIs for 3 cells" in result.output
        assert (tmp_path / "art" / "events.csv").exists()
        assert (tmp_path / "art" / "kpis.json").exists()

    def test_separate_input_directory(self, runner, tmp_path):
        src = str(tmp_path / "src")
        dst = tmp_path / "dst"
        invoke(runner, "gen-scenario", "--config", CONFIG, "--out", src)
        result = invoke(
            runner,
            "oracle-kpis", "--config", CONFIG, "--out", str(dst), "--in", src,
        )
        assert result.exit_code == 0
        assert (dst / "kpis.json").exists()

    def test_localize_without_importance_vector(self, runner, tmp_path):
        art = str(tmp_path / "art")
        for command in ("gen-scenario", "oracle-kpis", "optimize"):
            invoke(runner, command, "--config", CONFIG, "--out", art)
        (tmp_path / "art" / "importance.json").unlink()
        result = runner.invoke(
            main, ["localize", "--config", CONFIG, "--out", art]
        )
        assert result.exit_code == 1
        assert "hotloc: stage localize:" in result.stderr
        assert f"{tmp_path / 'art' / 'importance.json'} not found, run optimize first" in result.stderr


STAGEWISE_ARTIFACTS = (
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


class TestStagewiseEqualsPipeline:
    @pytest.mark.parametrize(
        "kpi_command, pipeline_args, extra",
        [
            (["oracle-kpis"], [], ()),
            (["simulate", "--events"], ["--kpi-source", "sim", "--events"], ("events.csv",)),
        ],
        ids=["oracle", "sim"],
    )
    def test_readme_flow_matches_pipeline(self, runner, tmp_path, kpi_command, pipeline_args, extra):
        """The README's five stage commands, with nothing else run in
        between, leave the same files as one ``hotloc pipeline``, byte for
        byte: the report and its tables with all four variants included,
        and the event log when the KPIs come from the simulator."""
        art, whole = tmp_path / "art", tmp_path / "whole"
        for command in (["gen-scenario"], kpi_command, ["optimize"], ["localize"], ["evaluate"]):
            result = invoke(runner, *command, "--config", CONFIG, "--out", str(art))
            assert result.exit_code == 0, (command, result.output)
        invoke(runner, "pipeline", "--config", CONFIG, "--out", str(whole), *pipeline_args)
        names = sorted(path.name for path in art.iterdir())
        assert names == sorted(STAGEWISE_ARTIFACTS + extra)
        assert names == sorted(path.name for path in whole.iterdir())
        for name in names:
            assert (art / name).read_bytes() == (whole / name).read_bytes(), name
        report = json.loads((art / "report.json").read_text())
        assert set(report["variants"]) == {"ta_only", "ta_neighbor", "step6", "step7"}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Every artifact of one oracle ``hotloc pipeline`` run on sim-small."""
    art = tmp_path_factory.mktemp("pipeline")
    assert invoke(CliRunner(), "pipeline", "--config", CONFIG, "--out", str(art)).exit_code == 0
    return art


def readme_stage_table():
    """(subcommand, files read, files written) for each subcommand of the
    README's stage table."""
    text = (REPO_ROOT / "README.md").read_text()
    section = text[text.index("## Stage by stage") : text.index("## Configuration")]

    def files(cell):
        cell = cell.replace("`q1.csv` .. `q5.csv`", ", ".join(f"`q{k}.csv`" for k in range(1, 6)))
        return frozenset(re.findall(r"`([\w.]+\.(?:csv|json))`", cell))

    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            commands, _stages, reads, writes = line.strip("|").split("|")
            for command in re.findall(r"`([\w-]+)`", commands):
                rows.append((command, files(reads), files(writes)))
    return rows


README_STAGE_TABLE = readme_stage_table()


def test_readme_stage_table_lists_every_stage_subcommand():
    assert sorted(row[0] for row in README_STAGE_TABLE) == sorted(set(main.commands) - {"pipeline"})


@pytest.mark.parametrize(
    "command, reads, writes", README_STAGE_TABLE, ids=[row[0] for row in README_STAGE_TABLE]
)
def test_readme_stage_table_is_true(runner, pipeline_dir, tmp_path, command, reads, writes):
    """Given only the files of its ``reads`` column and the config, a
    subcommand succeeds, writes exactly the files of its ``writes`` column
    and leaves the files it read as they were. Without any one of them it
    fails, naming the file and the stage that writes it."""
    writer = {file: stage for stage, files, _, _ in READERS.values() for file in files}
    for missing in sorted(reads):
        art = tmp_path / f"without-{missing}"
        art.mkdir()
        for name in reads - {missing}:
            shutil.copy(pipeline_dir / name, art / name)
        config = shutil.copy(SIM_CONFIG, art / "config.json")
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(art)])
        assert result.exit_code == 1, result.output
        assert f"{art / missing} not found, run {writer[missing]} first" in result.stderr

    art = tmp_path / "art"
    art.mkdir()
    for name in reads:
        shutil.copy(pipeline_dir / name, art / name)
        os.utime(art / name, ns=(10**9, 10**9))
    config = shutil.copy(SIM_CONFIG, art / "config.json")
    result = invoke(runner, command, "--config", str(config), "--out", str(art))
    assert result.exit_code == 0, result.output
    assert {path.name for path in art.iterdir()} == reads | writes | {"config.json"}
    for name in reads:
        assert (art / name).read_bytes() == (pipeline_dir / name).read_bytes(), name
        assert (art / name).stat().st_mtime_ns == 10**9, name


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """Artifacts of ``gen-scenario`` and ``oracle-kpis`` on sim-small."""
    art = tmp_path_factory.mktemp("scenario")
    runner = CliRunner()
    for command in ("gen-scenario", "oracle-kpis"):
        assert invoke(runner, command, "--config", CONFIG, "--out", str(art)).exit_code == 0
    return art


@pytest.fixture(scope="module")
def optimized_dir(scenario_dir, tmp_path_factory):
    """``scenario_dir`` after ``optimize``: everything ``localize`` reads."""
    art = tmp_path_factory.mktemp("optimized") / "art"
    shutil.copytree(scenario_dir, art)
    assert invoke(CliRunner(), "optimize", "--config", CONFIG, "--out", str(art)).exit_code == 0
    return art


class TestBadInputs:
    """Broken artifacts fail in the stage that reads them, with the file
    and the field named and no traceback."""

    def copy(self, scenario_dir, tmp_path):
        art = tmp_path / "art"
        shutil.copytree(scenario_dir, art)
        return art

    def drop_row(self, path, row):
        text = path.read_text()
        assert f"\n{row}\n" in text
        path.write_text(text.replace(f"\n{row}\n", "\n", 1))

    def test_grid_without_m_row(self, runner, optimized_dir, tmp_path):
        art = self.copy(optimized_dir, tmp_path)
        self.drop_row(art / "grid.csv", "m,32")
        err = fails(
            runner, "localize",
            "localize", "--config", CONFIG, "--out", str(art), "--x-override", "1,1,1,1,1",
        )
        assert "grid.csv: missing or garbled 'm' header row" in err

    def test_grid_row_outside_the_grid(self, runner, scenario_dir, tmp_path):
        # A 33rd value in a row of the 32x32 grid.
        art = self.copy(scenario_dir, tmp_path)
        path = art / "grid.csv"
        lines = path.read_text().splitlines()
        line_no = lines.index("rsrp") + 2
        lines[line_no - 1] += ",-42.0"
        path.write_text("\n".join(lines) + "\n")
        cell_id = next(line for line in lines if line.startswith("cell,")).split(",")[1]
        err = fails(runner, "kpis", "oracle-kpis", "--config", CONFIG, "--out", str(art))
        assert f"grid.csv: line {line_no}: cell '{cell_id}': expected 32 values, got 33" in err

    def test_non_finite_cell_site_fails_in_kpi_stage(self, runner, scenario_dir, tmp_path):
        art = self.copy(scenario_dir, tmp_path)
        path = art / "grid.csv"
        lines = path.read_text().splitlines()
        line_no = next(k for k, line in enumerate(lines, 1) if line.startswith("cell,BS01A,"))
        fields = lines[line_no - 1].split(",")
        fields[2] = "nan"
        lines[line_no - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        (art / "kpis.json").unlink()
        err = fails(runner, "kpis", "oracle-kpis", "--config", CONFIG, "--out", str(art))
        assert f"grid.csv: line {line_no}: cell 'BS01A': site (nan, 400.0) and azimuth" in err
        assert not (art / "kpis.json").exists()

    def test_potential_map_cut_off_before_its_rows(self, runner, scenario_dir, tmp_path):
        art = self.copy(scenario_dir, tmp_path)
        path = art / "potential.csv"
        text = path.read_text()
        path.write_text(text[: text.index("i,j,weight")])
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert "potential.csv: missing i,j,weight section" in err

    def test_overflowing_map_named_by_label(self, runner, pipeline_dir, tmp_path):
        # 1e308 is a finite weight, so the loader takes it, but its square
        # overflows the design system's A^T A.
        art = self.copy(pipeline_dir, tmp_path)
        path = art / "q3.csv"
        lines = path.read_text().splitlines()
        row = lines.index("i,j,weight") + 1
        lines[row] = "0,0,1e308"
        path.write_text("\n".join(lines) + "\n")
        err = fails(runner, "evaluate", "evaluate", "--config", CONFIG, "--out", str(art))
        assert "map 'q3': the squared norm of its weights overflows" in err

    def test_truth_without_m_row(self, runner, optimized_dir, tmp_path):
        art = self.copy(optimized_dir, tmp_path)
        invoke(runner, "localize", "--config", CONFIG, "--out", str(art), "--x-override", "1,1,1,1,1")
        self.drop_row(art / "truth.csv", "m,32")
        err = fails(runner, "evaluate", "evaluate", "--config", CONFIG, "--out", str(art))
        assert "truth.csv: missing or garbled 'm' header row" in err

    @pytest.mark.parametrize(
        "name, row, command, stage, other",
        [
            ("truth.csv", "pixel_size,50.0", "oracle-kpis", "kpis", "grid.csv"),
            ("truth.csv", "pixel_size,50.0", "evaluate", "evaluate", "q1.csv"),
            ("fused.csv", "origin,100.0,0.0", "evaluate", "evaluate", "truth.csv"),
            ("q3.csv", "origin,100.0,0.0", "localize", "localize", "grid.csv"),
            ("q1.csv", "origin,100.0,0.0", "localize", "localize", "grid.csv"),
            ("potential.csv", "pixel_size,50.0", "optimize", "optimize", "grid.csv"),
        ],
    )
    def test_map_on_another_grid_names_both_files(
        self, runner, pipeline_dir, tmp_path, name, row, command, stage, other
    ):
        art = self.copy(pipeline_dir, tmp_path)
        path = art / name
        key = row.split(",")[0]
        path.write_text(re.sub(f"^{key},.*$", row, path.read_text(), count=1, flags=re.M))
        report = (art / "report.json").read_bytes()
        err = fails(runner, stage, command, "--config", CONFIG, "--out", str(art))
        assert "is not the grid of" in err
        assert str(path) in err and str(art / other) in err
        assert (art / "report.json").read_bytes() == report

    @pytest.mark.parametrize(
        "name, m, command, stage",
        [("q3.csv", 100000000, "localize", "localize"), ("grid.csv", 3000000, "oracle-kpis", "kpis")],
    )
    def test_m_too_large_for_the_file_named(self, runner, pipeline_dir, tmp_path, name, m, command, stage):
        art = self.copy(pipeline_dir, tmp_path)
        path = art / name
        path.write_text(path.read_text().replace("\nm,32\n", f"\nm,{m}\n", 1))
        err = fails(runner, stage, command, "--config", CONFIG, "--out", str(art))
        assert f"{path}: m={m} needs" in err

    def test_all_zero_smoothed_map_named_by_its_variant(self, runner, pipeline_dir, tmp_path):
        art = self.copy(pipeline_dir, tmp_path)
        path = art / "smoothed.csv"
        path.write_text(re.sub(r"^(\d+,\d+),.*$", r"\1,0.0", path.read_text(), flags=re.M))
        err = fails(runner, "evaluate", "evaluate", "--config", CONFIG, "--out", str(art))
        assert "variant 'step7': cannot normalize an all-zero weight map" in err

    def edit_kpis(self, art, edit):
        path = art / "kpis.json"
        doc = json.loads(path.read_text())
        edit(doc["cells"][0])
        path.write_text(json.dumps(doc))
        return doc["cells"][0]["cell_id"]

    def test_nan_load_time_and_negative_ta_fail_at_load(self, runner, scenario_dir, tmp_path):
        art = self.copy(scenario_dir, tmp_path)

        def edit(cell):
            cell["load_time"] = float("nan")
            cell["ta"][0] = -0.5
            cell["ta"][1] += 0.5

        cell_id = self.edit_kpis(art, edit)
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert f"kpis.json: cell '{cell_id}': ta fractions must be finite and non-negative" in err
        assert "weight map entries" not in err

    def test_nan_amt_fails_at_load(self, runner, scenario_dir, tmp_path):
        art = self.copy(scenario_dir, tmp_path)
        cell_id = self.edit_kpis(art, lambda cell: cell.update(amt_bps=float("nan")))
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert f"cell '{cell_id}': throughputs must be finite" in err

    def test_unknown_neighbor_id(self, runner, scenario_dir, tmp_path):
        art = self.copy(scenario_dir, tmp_path)

        def edit(cell):
            cell["neighbor_level"] = {"NOPE": 1.0}

        cell_id = self.edit_kpis(art, edit)
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert (
            f"{art / 'kpis.json'}: cell '{cell_id}': neighbor_level names cells not on the grid: ['NOPE']"
        ) in err

    def test_level_for_a_cell_that_is_not_a_neighbor(self, runner, tmp_path):
        # On the desk grid BS05A is second best on one of BS02B's pixels,
        # but it is not one of BS02B's configured neighbors.
        art = tmp_path / "art"
        for command in ("gen-scenario", "oracle-kpis"):
            invoke(runner, command, "--config", str(DESK_CONFIG), "--out", str(art))
        path = art / "kpis.json"
        doc = json.loads(path.read_text())
        (cell,) = [c for c in doc["cells"] if c["cell_id"] == "BS02B"]
        cell["neighbor_level"] = {"BS05A": 1.0}
        path.write_text(json.dumps(doc))
        err = fails(runner, "optimize", "optimize", "--config", str(DESK_CONFIG), "--out", str(art))
        assert (
            f"{path}: cell 'BS02B': neighbor_level names cells that are not its configured neighbors: ['BS05A']"
        ) in err
        assert not (art / "q3.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("source", ["x"], "source must be a string, got ['x']"),
            ("window_s", "abc", "window_s must be null or a finite non-negative number, got 'abc'"),
            ("window_s", -1.0, "window_s must be null or a finite non-negative number, got -1.0"),
            ("window_s", float("nan"), "window_s must be null or a finite non-negative number, got nan"),
        ],
    )
    def test_malformed_kpi_header_names_the_file(self, runner, scenario_dir, tmp_path, key, value, message):
        art = self.copy(scenario_dir, tmp_path)
        path = art / "kpis.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert f"{path}: {message}" in err
        assert not (art / "importance.json").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("neighbor_level", [], "neighbor_level must be an object, got []"),
            ("load_time", None, "load_time must be a number, got None"),
            ("cell_id", ["BS01A"], "cell_id must be a string, got ['BS01A']"),
        ],
    )
    def test_malformed_kpi_cell_names_the_file(
        self, runner, scenario_dir, tmp_path, field, value, message
    ):
        art = self.copy(scenario_dir, tmp_path)
        self.edit_kpis(art, lambda cell: cell.update({field: value}))
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert f"{art / 'kpis.json'}: " in err
        assert message in err

    @pytest.mark.parametrize(
        "command, row, replacement, reason",
        [
            (
                "oracle-kpis",
                "cell,BS01A,400.0,400.0,0.0,BS01B;BS01C",
                "cell,BS01A,400.0,400.0,0.0,BS01B;BS01C;ZZ",
                "neighbors ['ZZ'] are not cells of the grid",
            ),
            (
                "simulate",
                "cell,BS01A,400.0,400.0,0.0,BS01B;BS01C",
                "cell,BS01A,400.0,400.0,0.0,BS01B;BS01C;ZZ",
                "neighbors ['ZZ'] are not cells of the grid",
            ),
            (
                "oracle-kpis",
                "cell,BS01C,400.0,400.0,239.99999999999997,BS01A;BS01B",
                "cell,BS01A,400.0,400.0,239.99999999999997,BS01C;BS01B",
                "cell id 'BS01A' already given on line 7",
            ),
        ],
        ids=["unknown-neighbor", "unknown-neighbor-simulate", "repeated-id"],
    )
    def test_bad_cell_row_named_by_line(
        self, runner, scenario_dir, tmp_path, command, row, replacement, reason
    ):
        art = self.copy(scenario_dir, tmp_path)
        path = art / "grid.csv"
        lines = path.read_text().splitlines()
        line_no = lines.index(row) + 1
        lines[line_no - 1] = replacement
        path.write_text("\n".join(lines) + "\n")
        err = fails(runner, "kpis", command, "--config", CONFIG, "--out", str(art))
        assert f"grid.csv: line {line_no}: {reason}: {replacement!r}" in err

    def test_repeated_cell_id(self, runner, scenario_dir, tmp_path):
        # A copy of the first cell with other KPIs, appended: the fit must
        # not silently use the copy.
        art = self.copy(scenario_dir, tmp_path)
        path = art / "kpis.json"
        doc = json.loads(path.read_text())
        doc["cells"].append(dict(doc["cells"][0], load_time=0.99))
        path.write_text(json.dumps(doc))
        err = fails(runner, "optimize", "optimize", "--config", CONFIG, "--out", str(art))
        assert f"{path}: duplicate cell_id '{doc['cells'][0]['cell_id']}'" in err
        assert not (art / "importance.json").exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("kpis.json", "[]", "expected a JSON object, got list"),
            ("kpis.json", "cells: none", "not JSON: Expecting value: line 1 column 1 (char 0)"),
            ("importance.json", "x = 1", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
    )
    def test_malformed_json_names_the_file(
        self, runner, optimized_dir, tmp_path, name, text, message
    ):
        art = self.copy(optimized_dir, tmp_path)
        (art / name).write_text(text)
        command = "localize" if name == "importance.json" else "optimize"
        err = fails(runner, command, command, "--config", CONFIG, "--out", str(art))
        assert f"{art / name}: {message}" in err
        assert not (art / "fused.csv").exists()

    @pytest.mark.parametrize("name, stage", [("grid.csv", "localize"), ("config.json", "config")])
    def test_byte_not_utf8_names_the_file(self, runner, optimized_dir, tmp_path, name, stage):
        art = self.copy(optimized_dir, tmp_path)
        shutil.copy(CONFIG, art / "config.json")
        path = art / name
        message = put_byte(path, 2)
        config = str(art / "config.json")
        err = fails(runner, stage, "localize", "--config", config, "--out", str(art))
        assert f"hotloc: stage {stage}: {path}: {message}" in err
        assert not (art / "fused.csv").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"residual": 1.0}, "'x' must be a list of 5 numbers"),
            ({"x": ["a", 0, 0, 0, 0]}, "'x' must be a list of 5 numbers"),
            ({"x": [0.5, 0.5]}, "'x' must be a list of 5 numbers"),
            ([0.2, 0.2, 0.2, 0.2, 0.2], "'x' must be a list of 5 numbers"),
            ({"x": [0.1, -0.1, 0, 0, 0]}, "must be finite and non-negative"),
            ({"x": [float("nan"), 0, 0, 0, 0]}, "must be finite and non-negative"),
            ({"x": [0, 0, 0, 0, 0.0]}, "importance factors must not all be zero"),
        ],
    )
    def test_bad_importance_vector(self, runner, optimized_dir, tmp_path, doc, message):
        art = self.copy(optimized_dir, tmp_path)
        (art / "importance.json").write_text(json.dumps(doc))
        err = fails(runner, "localize", "localize", "--config", CONFIG, "--out", str(art))
        assert message in err
        assert not (art / "fused.csv").exists()


class TestXOverrideParsing:
    def test_wrong_arity(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "pipeline",
                "--config", CONFIG,
                "--out", str(tmp_path),
                "--x-override", "1,2,3",
            ],
        )
        assert result.exit_code == 2
        assert "five comma-separated values" in result.stderr

    def test_negative_factor(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "pipeline",
                "--config", CONFIG,
                "--out", str(tmp_path),
                "--x-override", "1,0,0,0,-2",
            ],
        )
        assert result.exit_code == 2
        assert "non-negative" in result.stderr

    @pytest.mark.parametrize("command", ["pipeline", "localize"])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan,0,0,0,0", "must be finite"),
            ("1e400,0,0,0,0", "must be finite"),
            ("1,inf,0,0,0", "must be finite"),
            ("0,0,0,0,0", "must not all be zero"),
        ],
    )
    def test_unusable_vector_rejected_at_the_option(self, runner, tmp_path, command, value, message):
        # Rejected before any stage runs: nothing is written.
        out = tmp_path / "out"
        result = runner.invoke(
            main, [command, "--config", CONFIG, "--out", str(out), "--x-override", value]
        )
        assert result.exit_code == 2
        assert message in result.stderr
        assert not out.exists()


class TestPipelineCommand:
    def test_oracle_run(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(runner, "pipeline", "--config", CONFIG, "--out", str(out))
        assert result.exit_code == 0
        assert "x = (" in result.output
        for label in ("ta_only", "ta_neighbor", "step6", "step7"):
            assert f"{label}: mean peak distance" in result.output
        assert (out / "report.json").exists()

    def test_sim_run_with_events(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(
            runner,
            "pipeline",
            "--config", CONFIG,
            "--out", str(out),
            "--kpi-source", "sim",
            "--events",
        )
        assert result.exit_code == 0
        assert (out / "events.csv").exists()

    def test_nan_config_number_fails_in_config_stage(self, runner, tmp_path):
        # json reads the NaN literal; a NaN margin made every UE with a
        # configured neighbor hand over.
        text = SIM_CONFIG.read_text().replace(
            '"handover_margin_db": 6.0', '"handover_margin_db": NaN'
        )
        assert "NaN" in text
        bad = tmp_path / "nan.json"
        bad.write_text(text)
        # Config errors are reported before any stage runs, as "config".
        err = fails(
            runner,
            "config",
            "pipeline",
            "--config", str(bad),
            "--out", str(tmp_path / "out"),
            "--kpi-source", "sim",
        )
        assert "sim.handover_margin_db: must be finite, got nan" in err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("sim", "arival_rate", 40.0, "sim.arival_rate: unknown key"),
            ("layout", "site_count", 1.5, "layout.site_count: expected an integer, got 1.5"),
            (None, "seed", -3, "seed: must be non-negative, got -3"),
            ("layout", "pathloss", 3, "layout.pathloss: expected an object"),
        ],
    )
    def test_bad_config_fails_in_config_stage(self, runner, tmp_path, section, key, value, message):
        doc = json.loads(SIM_CONFIG.read_text())
        (doc[section] if section else doc)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        err = fails(runner, "config", "pipeline", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert message in err
        assert not (tmp_path / "out" / "grid.csv").exists()

    @pytest.mark.parametrize("option, value", [("--seed", "-3"), ("--seeds", "0,-3")])
    def test_negative_seed_option_rejected(self, runner, tmp_path, option, value):
        result = runner.invoke(
            main, ["pipeline", "--config", CONFIG, "--out", str(tmp_path / "out"), option, value]
        )
        assert result.exit_code == 2
        assert "Invalid value" in result.stderr
        assert not (tmp_path / "out" / "grid.csv").exists()

    def test_seed_and_seeds_exclude_each_other(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["pipeline", "--config", CONFIG, "--out", str(out), "--seed", "5", "--seeds", "1"]
        )
        assert result.exit_code == 2
        assert "--seed and --seeds exclude each other" in result.stderr
        assert not out.exists()

    def test_zero_fit_fails_in_optimize_stage(self, runner, tmp_path):
        # Nine pixels in ten uncovered and the prior's one zone in a corner
        # no cell reaches: the prior overlaps none of the KPI maps.
        doc = json.loads(SIM_CONFIG.read_text())
        doc["grid"]["q_rxlevmin_dbm"] = -95.0
        doc["potential"]["zones"] = [{"shape": "rect", "corners": [0, 0, 50, 50], "importance": 1.0}]
        config = tmp_path / "zero.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        err = fails(runner, "optimize", "pipeline", "--config", str(config), "--out", str(out))
        assert (
            "importance fit: every factor is zero; "
            "the potential-hotspot prior overlaps none of the KPI maps"
        ) in err
        assert (out / "q1.csv").exists()
        assert not (out / "importance.json").exists()

    def test_all_zero_fuse_fails_in_localize_stage(self, runner, tmp_path):
        # Under rho_cap 10 no cell is congested, so q4 is zero everywhere
        # and factors on q4 alone fuse to a map of zeros.
        doc = json.loads(SIM_CONFIG.read_text())
        doc["oracle"]["rho_cap"] = 10.0
        config = tmp_path / "calm.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        err = fails(
            runner, "localize",
            "pipeline", "--config", str(config), "--out", str(out), "--x-override", "0,0,0,1,0",
        )
        assert (
            "the fused map is zero everywhere: importance factors [0.0, 0.0, 0.0, 1.0, 0.0], "
            "all-zero KPI maps ['q4']"
        ) in err
        assert (out / "q4.csv").exists()
        assert not (out / "fused.csv").exists()
        assert not (out / "smoothed.csv").exists()

    def test_idle_sim_fails_in_kpi_stage(self, runner, tmp_path):
        doc = json.loads(SIM_CONFIG.read_text())
        doc["sim"]["arrival_rate"] = 0.0
        idle = tmp_path / "idle.json"
        idle.write_text(json.dumps(doc))
        result = runner.invoke(
            main,
            [
                "pipeline",
                "--config", str(idle),
                "--out", str(tmp_path / "out"),
                "--kpi-source", "sim",
            ],
        )
        assert result.exit_code == 1
        assert "hotloc: stage kpis:" in result.stderr
        assert "empty system" in result.stderr

    def test_seed_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = invoke(
            runner,
            "pipeline",
            "--config", CONFIG,
            "--out", str(out),
            "--seeds", "0,1",
        )
        assert result.exit_code == 0
        assert (out / "seed-0" / "report.json").exists()
        assert (out / "seed-1" / "report.json").exists()
        with open(out / "seeds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "variant", "mean_distance_m", "p", "detected"]
        # 2 seeds x 4 variants x 4 detection fractions.
        assert len(rows) == 1 + 2 * 4 * 4
        assert {r[0] for r in rows[1:]} == {"0", "1"}
        for row in rows[1:]:
            float(row[2]), float(row[3]), float(row[4])

    def test_bad_seeds_list(self, runner, tmp_path):
        out = tmp_path / "out"
        for seeds, message in [("1,zwei", "zwei"), ("-1", "non-negative"), ("1,1", "must not repeat")]:
            result = runner.invoke(
                main,
                [
                    "pipeline",
                    "--config", CONFIG,
                    "--out", str(out),
                    "--seeds", seeds,
                ],
            )
            assert result.exit_code == 2
            assert message in result.stderr
        assert not out.exists()
