"""Timed repetitions of one workload, the correctness gate on each, the
optional traced run and the result line."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import tracing
import workloads
from hotloc.pipeline import VARIANT_STEP7, PipelineResult, run_pipeline

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench_out"
MB = 1024.0 * 1024.0

# End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "readback_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "peak_dist_m": "m",
    "detected_p05": "fraction",
    "success_rate": "fraction",
}
DETECTION_P = 0.05
SETUP_SAMPLES = 9
# A read-back costs a few percent of a desk-sim repetition, so each
# untraced repetition reads its artifacts back this many times, each
# read timed and checked on its own; readback_s is the median over all.
READBACKS = 3

# The host is shared, and its speed moves by up to 1.9x over minutes,
# CPU time with it. So every timed call is bracketed by a fixed
# calibration loop that is not hotloc code, and each call's wall time is
# scaled by CALIBRATION_REF_S over the mean of the two calibrations
# around it: the time the call would take at the host speed where the
# loop takes CALIBRATION_REF_S. pipeline_s and readback_s are medians of
# the scaled times; the raw wall times are printed beside them and
# reported by the traced run.
CALIBRATION_ROWS = 10_000
CALIBRATION_SORTS = 90
CALIBRATION_REF_S = 0.05


class _Session:
    __slots__ = ("x", "ticks")

    def __init__(self):
        self.x = 0.0
        self.ticks = 0


def calibration_s() -> float:
    """Wall time of fixed work in three parts of about equal length, after
    the kinds of work that dominate hotloc runs. The host slows different
    code by different factors, and this mix tracked the pipeline best.
    The first part, like the CSV writers, updates a dictionary and
    formats floats. The second, like the simulator's tick loop, indexes
    small numpy arrays element by element and updates object attributes.
    The third, like the smoother and the KPI maps, runs whole-array numpy
    operations."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    rows = []
    for i in range(CALIBRATION_ROWS):
        counts[i % 997] = counts.get(i % 997, 0) + i * i
        rows.append(f"{i},{i * 0.5!r}")
    "\n".join(rows)
    hits = np.zeros((21, 16), dtype=np.int64)
    layer = np.arange(21 * 60 * 60, dtype=np.int64).reshape(21, 60, 60) % 16
    sessions = [_Session() for _ in range(64)]
    for k in range(CALIBRATION_ROWS):
        ue, cell = sessions[k & 63], k % 21
        hits[cell, layer[cell, k % 60, (k * 7) % 60]] += 1
        ue.x += math.sin(k * 0.001)
        ue.ticks += 1
    data = np.random.default_rng(0).random((150, 150))
    acc = data
    for _ in range(CALIBRATION_SORTS):
        acc = np.sort(data, axis=0) + acc * 0.5
    return time.perf_counter() - start


def calibrated(wall_s: float, before_s: float, after_s: float) -> float:
    return wall_s * CALIBRATION_REF_S * 2.0 / (before_s + after_s)


# Cost of a fresh `hotloc` invocation before any stage runs: importing
# the CLI (numpy, scipy, click) and building the workload's config.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import hotloc.cli
import workloads
workloads.build(sys.argv[2], int(sys.argv[3]))
print(time.perf_counter() - start)
"""


@dataclass
class Rep:
    """What one repetition leaves behind; the run's result itself is
    dropped, so repetitions do not add up in memory."""

    wall_pipeline_s: float
    wall_readback_s: list[float]
    # Taken before the pipeline, after it and after each read-back.
    calibration_s: list[float]
    artifact_bytes: int
    peak_dist_m: float
    detected_p05: float

    @property
    def pipeline_s(self) -> float:
        return calibrated(self.wall_pipeline_s, *self.calibration_s[:2])

    @property
    def readback_s(self) -> list[float]:
        cal = self.calibration_s
        return [calibrated(t, cal[k], cal[k + 1]) for k, t in enumerate(self.wall_readback_s, 1)]


def measure_setup(name: str, seed: int) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_PROBE, str(ROOT), name, str(seed)]
    samples = []
    # The first probe may compile bytecode into __pycache__; it is dropped.
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples[1:]


def repetition(
    workload: workloads.Workload,
    out: Path,
    tracer: tracing.Tracer | None = None,
    event_log: bool = False,
    readbacks: int = 1,
) -> tuple[Rep | None, PipelineResult | None, list[str]]:
    """One pipeline run plus ``readbacks`` read-backs of its artifacts,
    each timed apart, and the gate's verdict on them."""

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    # Every repetition starts from an empty garbage collector, so one
    # repetition's garbage is not collected inside the next one's timing.
    gc.collect()
    try:
        calibration = [calibration_s()]
        with span("pipeline"):
            start = time.perf_counter()
            result = run_pipeline(workload.config, out, workload.kpi_source, event_log=event_log)
            pipeline_s = time.perf_counter() - start
        calibration.append(calibration_s())
        readback_s = []
        failures = []
        for _ in range(readbacks):
            with span("readback"):
                start = time.perf_counter()
                artifacts = gate.readback(out)
                readback_s.append(time.perf_counter() - start)
            calibration.append(calibration_s())
            failures += gate.readback_failures(result, artifacts)
            del artifacts
        failures += gate.check_run(result, workload.reference)
    except Exception:
        # A repetition that raises is a failed run; the benchmark goes on.
        traceback.print_exc(file=sys.stderr)
        return None, None, [f"{workload.name}: repetition raised"]
    size = sum(p.stat().st_size for p in out.iterdir() if p.name != "events.csv")
    step7 = result.report.variants[VARIANT_STEP7]
    rep = Rep(
        wall_pipeline_s=pipeline_s,
        wall_readback_s=readback_s,
        calibration_s=calibration,
        artifact_bytes=size,
        peak_dist_m=step7.mean_distance_m,
        detected_p05=step7.detection[DETECTION_P],
    )
    return rep, result, failures


def _summary(name: str, unit: str, samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and the
    sample count."""
    line = f"  {name:<14} median {statistics.median(samples):.6g} {unit}"
    n = len(samples)
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        line += f", p{q} {statistics.quantiles(samples, n=100)[q - 1]:.6g} {unit}"
    return line + f", max {max(samples):.6g} {unit} (n={n})"


def _result_line(tally: gate.Tally, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    draws = workloads.draws(name)
    inputs = [workloads.build(name, seed, d) for d in range(draws)]
    out = OUT / f"{name}-{os.getpid()}"
    tally = gate.Tally()
    try:
        setup = measure_setup(name, seed)
        # Warm the code paths (lazy imports, first calls) on the small
        # desk input before timing; its result is not scored.
        run_pipeline(workloads.desk_oracle(seed).config, out / "warmup")

        reps: list[Rep] = []
        first_report = None
        start = last = time.perf_counter()
        # One repetition per input draw, then more while the next one is
        # expected to end within --seconds.
        while tally.attempted < draws or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            rep, result, failures = repetition(
                inputs[tally.attempted % draws], out / "plain", readbacks=READBACKS
            )
            del result  # not alive during the next repetition
            tally.record(failures)
            if rep is not None:
                reps.append(rep)
                if first_report is None and tally.attempted == 1:
                    first_report = (out / "plain" / "report.json").read_bytes()
        pipeline_s = [r.pipeline_s for r in reps] or [0.0]
        readback_s = [t for r in reps for t in r.readback_s] or [0.0]
        wall_pipeline_s = [r.wall_pipeline_s for r in reps] or [0.0]
        wall_readback_s = [t for r in reps for t in r.wall_readback_s] or [0.0]
        calibration = [t for r in reps for t in r.calibration_s] or [CALIBRATION_REF_S]

        if traced:
            layers = traced_run(name, seed, inputs[0], out, tally, first_report,
                                statistics.median(pipeline_s))
            layers["harness.wall_pipeline_s"] = statistics.median(wall_pipeline_s)
            layers["harness.wall_readback_s"] = statistics.median(wall_readback_s)
            layers["harness.calibration_s"] = statistics.median(calibration)
            metrics = {k: (v, tracing.LAYER_METRICS[k][0]) for k, v in layers.items()}
        else:
            quality = reps[:draws]
            metrics = {
                "pipeline_s": statistics.median(pipeline_s),
                "setup_s": statistics.median(setup),
                "readback_s": statistics.median(readback_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "artifact_mb": statistics.median(r.artifact_bytes for r in reps) / MB if reps else 0.0,
                "peak_dist_m": statistics.fmean(r.peak_dist_m for r in quality) if reps else 0.0,
                "detected_p05": statistics.fmean(r.detected_p05 for r in quality) if reps else 0.0,
                "success_rate": 1.0 - tally.failed / tally.attempted,
            }
            metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"{name} seed {seed}: {tally.attempted} runs, {tally.failed} failed "
          f"(error_rate {tally.failed / tally.attempted:.6g})")
    print(f"  times at the host speed where the calibration loop takes {CALIBRATION_REF_S} s:")
    print(_summary("pipeline_s", "s", pipeline_s))
    print(_summary("readback_s", "s", readback_s))
    print("  raw:")
    print(_summary("wall pipeline", "s", wall_pipeline_s))
    print(_summary("wall readback", "s", wall_readback_s))
    print(_summary("calibration", "s", calibration))
    print(_summary("setup_s", "s", setup))
    for message in tally.messages[:20]:
        print(f"  FAILED: {message}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<28} {v:.6g} {u}")
    print(_result_line(tally, metrics))
    return 1 if tally.failed else 0


def traced_run(
    name: str,
    seed: int,
    workload: workloads.Workload,
    out: Path,
    tally: gate.Tally,
    first_report: bytes | None,
    untraced_median_s: float,
) -> dict[str, float]:
    """Three traced repetitions of the first input. The first runs like an
    untraced one and gives the timings. The other two write the
    simulator's event log, which the first must not pay for; the second
    gives the simulator counts and the third must repeat every exact
    count."""
    runs: dict[int, dict[str, float]] = {}
    with tracing.RssSampler() as sampler:
        tracer = tracing.Tracer(sampler)
        with tracing.instrument(tracer):
            for run_id in (1, 2, 3):
                tracer.run = run_id
                run_out = out / f"traced-{run_id}"
                rep, result, failures = repetition(workload, run_out, tracer, event_log=run_id > 1)
                if result is not None:
                    failures += tracer.nesting_failures(run_id)
                    if (run_out / "report.json").read_bytes() != first_report:
                        failures.append("traced report.json differs from the untraced one")
                    runs[run_id] = tracing.layer_metrics(tracer, run_id, result)
                    runs[run_id]["trace.overhead_s"] = rep.pipeline_s - untraced_median_s
                    del result
                if run_id == 3 and {2, 3} <= runs.keys():
                    failures += [
                        f"count {k} did not repeat: {runs[2][k]!r} then {runs[3][k]!r}"
                        for k in tracing.EXACT_COUNTS
                        if runs[2][k] != runs[3][k]
                    ]
                tally.record(failures)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    for missing in tracer.missing:
        print(f"  trace: {missing} not found, its metrics read 0")
    if not {1, 2} <= runs.keys():
        return dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    return tracing.with_sim_counts(runs[1], runs[2])


def record_reference(name: str) -> int:
    """Rewrite the reference report of the workload's default input."""
    workload = workloads.build(name, 0)
    target = workload.reference
    if target is None or target.parent != workloads.REFERENCE_DIR:
        print(f"perfbench: {name} has no recorded reference", file=sys.stderr)
        return 2
    out = OUT / f"reference-{name}"
    try:
        run_pipeline(workload.config, out, workload.kpi_source)
        shutil.copyfile(out / "report.json", target)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"wrote {target.relative_to(ROOT)}")
    return 0
