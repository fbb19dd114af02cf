"""Tests of the benchmark itself: the correctness gate bites, the trace
nests and repeats, and BENCHMARK.json matches what the runner prints.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import hotloc.pipeline  # noqa: E402
from hotloc.localize import ImportanceVector  # noqa: E402


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    workload = workloads.desk_oracle(0)
    _, result, failures = bench.repetition(workload, out)
    assert failures == []
    return workload, result, out


def _copy_run(desk, tmp_path):
    workload, result, out = desk
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return workload, replace(result, out_dir=copy), copy


def _gate(workload, result, out) -> gate.Tally:
    tally = gate.Tally()
    tally.record(
        gate.readback_failures(result, gate.readback(out)) + gate.check_run(result, workload.reference)
    )
    return tally


def test_clean_run_passes(desk, tmp_path):
    tally = _gate(*_copy_run(desk, tmp_path))
    assert (tally.attempted, tally.failed) == (1, 0)


def test_perturbed_report_is_a_failed_run(desk, tmp_path):
    workload, result, out = _copy_run(desk, tmp_path)
    report = json.loads((out / "report.json").read_text())
    report["variants"]["step7"]["mean_distance_m"] *= 1 + 1e-9
    (out / "report.json").write_text(json.dumps(report))
    tally = _gate(workload, result, out)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "mean_distance_m" in tally.messages[0]


def test_perturbed_artifact_is_a_failed_run(desk, tmp_path):
    workload, result, out = _copy_run(desk, tmp_path)
    lines = (out / "q3.csv").read_text().splitlines()
    i, j, weight = lines[-1].split(",")
    lines[-1] = f"{i},{j},{float(weight) + 0.5!r}"
    (out / "q3.csv").write_text("\n".join(lines) + "\n")
    tally = _gate(workload, result, out)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.messages == ["q3.csv: values differ from the in-memory map"]


def test_non_optimal_importance_fails(desk):
    _, result, _ = desk
    doubled = ImportanceVector(tuple(2 * v for v in result.x.values))
    assert gate.nnls_failures(replace(result, x=doubled))
    assert gate.nnls_failures(result) == []


def _traced_twice(workload, out):
    runs = []
    with tracing.RssSampler() as sampler, tracing.instrument(tracing.Tracer(sampler)) as tracer:
        for run_id in (1, 2):
            tracer.run = run_id
            _, result, failures = bench.repetition(workload, out, tracer, event_log=True)
            assert failures == []
            assert tracer.nesting_failures(run_id) == []
            assert min(tracer.self_times(run_id).values()) >= 0
            runs.append(tracing.layer_metrics(tracer, run_id, result))
    return tracer, runs


def test_trace_nests_repeats_and_restores(tmp_path):
    original = hotloc.pipeline.save_grid
    tracer, (first, second) = _traced_twice(workloads.desk_oracle(0), tmp_path)
    assert hotloc.pipeline.save_grid is original
    assert tracer.missing == []
    assert set(first) == set(tracing.LAYER_METRICS)
    assert {k: first[k] for k in tracing.EXACT_COUNTS} == {k: second[k] for k in tracing.EXACT_COUNTS}
    assert first["nnls.solves"] == 3
    assert first["grid.zone_layer_calls"] > 0
    names = {s.name for s in tracer.spans}
    assert {f"stage.{s}" for s in tracing.STAGES} <= names
    for span in tracer.spans:
        if span.name.startswith("localize.step"):
            assert tracer.spans[span.parent].name in ("stage.maps", "stage.localize")


def test_simulator_counts_repeat(tmp_path):
    workload = workloads.desk_sim(3)
    short = replace(workload.config, sim=replace(workload.config.sim, duration_s=120.0))
    _, (first, second) = _traced_twice(replace(workload, config=short), tmp_path)
    counts = ("sim.arrivals", "sim.blocked", "sim.completions", "sim.handovers", "sim.ue_ticks")
    assert all(first[k] > 0 for k in ("sim.arrivals", "sim.completions", "sim.ue_ticks"))
    assert [first[k] for k in counts] == [second[k] for k in counts]


def test_sim_counts_come_from_the_logged_run():
    timed = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    timed["sim.run_s"] = 2.0
    logged = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    logged.update({"sim.run_s": 3.0, "sim.ue_ticks": 4e5, "sim.arrivals": 10, "sim.admit_ratio": 0.9})
    merged = tracing.with_sim_counts(timed, logged)
    assert (merged["sim.run_s"], merged["sim.arrivals"], merged["sim.admit_ratio"]) == (2.0, 10, 0.9)
    assert merged["sim.us_per_ue_tick"] == pytest.approx(5.0)


def test_sim_counts_from_event_log(tmp_path):
    log = tmp_path / "events.csv"
    log.write_text(
        "t,event,cell_id,ue_id\n"
        "0,arrive,A,0\n0,block,,1\n2,complete,A,0\n3,arrive,B,2\n4,handover,A,2\n"
    )
    # UE 0 is scheduled on ticks 0-2, UE 2 on ticks 3-9.
    assert tracing.sim_counts(log, n_ticks=10) == {
        "arrivals": 3, "blocked": 1, "completions": 1, "handovers": 1, "ue_ticks": 10,
    }


def test_missing_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    targets = (("hotloc.pipeline", "no_such_stage", "stage.none", None),)
    with tracing.instrument(tracer, targets):
        pass
    assert tracer.missing == ["hotloc.pipeline.no_such_stage"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("outer", 0.0, 10.0, None, 0),
        tracing.Span("a", 1.0, 4.0, 0, 0),
        tracing.Span("b", 5.0, 6.0, 0, 0),
    ]
    assert tracer.self_times(0) == {0: 6.0, 1: 3.0, 2: 1.0}
    tracer.spans.append(tracing.Span("late", 9.0, 11.0, 0, 0))
    assert tracer.nesting_failures(0)


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    # metro-oracle runs by hand only; see README.md.
    assert [w["name"] for w in spec["workloads"]] == ["desk-oracle", "desk-sim"]


def test_workload_inputs_follow_the_seed():
    same = workloads.build("desk-sim", 4, 1).config
    assert same == workloads.build("desk-sim", 4, 1).config
    assert same.sim.seed == 4 * workloads.SIM_DRAWS + 1
    metro = workloads.build("metro-oracle", 5).config
    assert metro.spec.m == 240 and len(metro.traffic.components) == 20
    assert metro.traffic == workloads.build("metro-oracle", 6).config.traffic
    centre = np.array([3000.0, 3000.0])
    assert all(
        np.linalg.norm(np.array(c.center) - centre) <= 2000.0 for c in metro.traffic.components
    )


def test_each_time_is_scaled_by_the_calibrations_around_it():
    ref = bench.CALIBRATION_REF_S
    rep = bench.Rep(
        wall_pipeline_s=2.0,
        wall_readback_s=[0.5, 0.3],
        calibration_s=[ref, 3 * ref, 2 * ref, 2 * ref],
        artifact_bytes=0,
        peak_dist_m=0.0,
        detected_p05=0.0,
    )
    assert rep.pipeline_s == pytest.approx(1.0)
    assert rep.readback_s == pytest.approx([0.2, 0.15])


def test_failed_run_exits_non_zero(monkeypatch, capsys):
    monkeypatch.setattr(bench.gate, "check_run", lambda result, reference: ["forced failure"])
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)
    assert bench.run("desk-oracle", 0, 0.1, False) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (line["correct"], line["failed"]) == (False, line["attempted"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
