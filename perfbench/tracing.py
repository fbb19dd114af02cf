"""Traced run: spans around calls into each layer, recorded from outside
the program by wrapping module attributes, and the per-layer metrics
derived from them.

A span records its name, start, end, parent span and run id. Spans stay
in memory until the benchmark writes them out at the end. A span's self
time is its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from gate import WEIGHT_MAP_FILES
from hotloc.smoothing import truncated_kernel

STAGES = ("scenario", "kpis", "maps", "optimize", "localize", "evaluate")
ZONE_LAYER = "grid.zone_layer"
NNLS_SOLVE = "nnls.solve"


def _nnls_note(result) -> dict:
    return {"iterations": result.iterations, "residual": result.residual}


# (module, attribute, span name, note). Each attribute is the name a
# caller looks up at call time, so wrapping it on that module puts a span
# around every such call. A note turns the return value into span info.
TARGETS = (
    *((("hotloc.pipeline", f"_run_{s}", f"stage.{s}", None)) for s in STAGES),
    ("hotloc.scenario", "build_cells", "scenario.build_cells", None),
    ("hotloc.scenario", "synthesize_rsrp", "scenario.synthesize_rsrp", None),
    ("hotloc.scenario", "compute_server_maps", "grid.server_maps", None),
    ("hotloc.scenario", "generate_ground_truth", "kpi.truth", None),
    ("hotloc.pipeline", "rasterize_potential_map", "kpi.potential", None),
    ("hotloc.pipeline", "save_grid", "grid.save", None),
    ("hotloc.pipeline", "save_weight_map", "kpi.save_map", None),
    ("hotloc.pipeline", "save_potential_spec", "kpi.save_potential", None),
    ("hotloc.pipeline", "oracle_kpis", "kpi.oracle", None),
    ("hotloc.pipeline", "run_simulation", "sim.run", None),
    ("hotloc.pipeline", "save_kpi_set", "kpi.save_kpis", None),
    ("hotloc.kpi", "ta_zone_layer", ZONE_LAYER, None),
    ("hotloc.kpi", "aoa_zone_layer", ZONE_LAYER, None),
    ("hotloc.localize", "ta_zone_layer", ZONE_LAYER, None),
    ("hotloc.localize", "aoa_zone_layer", ZONE_LAYER, None),
    ("hotloc.sim", "ta_zone_layer", ZONE_LAYER, None),
    ("hotloc.sim", "aoa_zone_layer", ZONE_LAYER, None),
    ("hotloc.localize", "step1_ta", "localize.step1", None),
    ("hotloc.localize", "step2_aoa", "localize.step2", None),
    ("hotloc.localize", "step3_neighbor", "localize.step3", None),
    ("hotloc.localize", "step4_load", "localize.step4", None),
    ("hotloc.localize", "step5_throughput", "localize.step5", None),
    ("hotloc.localize", "step6_combine", "localize.step6", None),
    ("hotloc.pipeline", "step6_combine", "localize.step6", None),
    ("hotloc.localize", "step7_smooth", "localize.step7", None),
    ("hotloc.localize", "smooth_grid", "smoothing.smooth", None),
    ("hotloc.pipeline", "build_system", "nnls.build", None),
    ("hotloc.pipeline", "solve_nnls", NNLS_SOLVE, _nnls_note),
    ("hotloc.pipeline", "compare_variants", "evaluate.compare", None),
    ("hotloc.pipeline", "save_report", "evaluate.write", None),
    ("hotloc.pipeline", "write_report_csvs", "evaluate.write", None),
    ("hotloc.grid", "load_grid", "grid.load", None),
    ("hotloc.kpi", "load_weight_map", "kpi.load_map", None),
    ("hotloc.kpi", "load_kpi_set", "kpi.load_kpis", None),
    ("hotloc.kpi", "load_potential_spec", "kpi.load_potential", None),
)

_PAGE = os.sysconf("SC_PAGE_SIZE")
MB = 1024.0 * 1024.0
RSS_INTERVAL_S = 0.002


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class RssSampler:
    """Background thread that keeps the highest resident set size seen
    since the last reset, sampled every RSS_INTERVAL_S seconds."""

    def __init__(self):
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.read()

    def reset(self) -> None:
        with self._lock:
            self._peak = rss_bytes()

    def read(self) -> int:
        with self._lock:
            self._peak = max(self._peak, rss_bytes())
            return self._peak

    def __enter__(self) -> "RssSampler":
        self.reset()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, sampler: RssSampler | None = None):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run = 0
        self._stack: list[int] = []
        self._sampler = sampler

    @contextmanager
    def span(self, name: str):
        span = Span(name, time.perf_counter(), float("nan"),
                    self._stack[-1] if self._stack else None, self.run)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        stage = self._sampler is not None and name.startswith("stage.")
        if stage:
            self._sampler.reset()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if stage:
                span.info["rss_bytes"] = self._sampler.read()

    def wrap(self, fn, name: str, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.info.update(note(result))
                return result

        return traced

    def run_spans(self, run: int) -> list[tuple[int, Span]]:
        return [(idx, s) for idx, s in enumerate(self.spans) if s.run == run]

    def self_times(self, run: int) -> dict[int, float]:
        """Span index -> duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for _, span in self.run_spans(run):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for idx, span in self.run_spans(run):
            covered, reach = 0.0, float("-inf")
            for child in sorted(children.get(idx, []), key=lambda c: c.start):
                start = max(child.start, reach)
                if child.end > start:
                    covered += child.end - start
                    reach = child.end
            out[idx] = span.duration - covered
        return out

    def nesting_failures(self, run: int) -> list[str]:
        failures = []
        for idx, span in self.run_spans(run):
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if not (parent.start <= span.start <= span.end <= parent.end and parent.run == span.run):
                failures.append(f"trace: span {span.name} lies outside its parent {parent.name}")
        failures += [
            f"trace: negative self time in {self.spans[idx].name}"
            for idx, value in self.self_times(run).items()
            if value < 0
        ]
        return failures

    def write(self, path: Path) -> None:
        doc = {"missing": self.missing, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n")


@contextmanager
def instrument(tracer: Tracer, targets=TARGETS):
    """Wrap every target attribute for the duration of the block and put
    the originals back afterwards. A target that no longer exists is
    recorded in ``tracer.missing``."""
    saved = []
    try:
        for module_name, attr, name, note in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def sim_counts(events: Path, n_ticks: int) -> dict[str, int]:
    """Simulator counters from its event log. A UE is scheduled on every
    tick from its arrival to its completion, both included, or to the end
    of the run."""
    counts: Counter = Counter()
    arrived: dict[str, int] = {}
    ue_ticks = 0
    with open(events, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for t, event, _cell, ue in rows:
            counts[event] += 1
            if event == "arrive":
                arrived[ue] = int(t)
            elif event == "complete":
                ue_ticks += int(t) - arrived.pop(ue) + 1
    ue_ticks += sum(n_ticks - t for t in arrived.values())
    return {
        "arrivals": counts["arrive"] + counts["block"],
        "blocked": counts["block"],
        "completions": counts["complete"],
        "handovers": counts["handover"],
        "ue_ticks": ue_ticks,
    }


# Per-layer metric -> (unit, better). Every traced run reports all of
# them; a layer a workload does not exercise reads 0.
LAYER_METRICS = {
    **{f"stage.{s}_s": ("s", "lower") for s in STAGES},
    **{f"stage.{s}_self_s": ("s", "lower") for s in STAGES},
    **{f"stage.{s}_rss_mb": ("MB", "lower") for s in STAGES},
    "scenario.build_cells_s": ("s", "lower"),
    "scenario.synthesize_rsrp_s": ("s", "lower"),
    "scenario.cube_mb": ("MB", "lower"),
    "grid.server_maps_s": ("s", "lower"),
    "grid.zone_layer_calls": ("count", "lower"),
    "grid.zone_layer_s": ("s", "lower"),
    "grid.save_s": ("s", "lower"),
    "grid.load_s": ("s", "lower"),
    "grid.file_mb": ("MB", "lower"),
    "kpi.truth_s": ("s", "lower"),
    "kpi.potential_s": ("s", "lower"),
    "kpi.oracle_s": ("s", "lower"),
    "kpi.save_map_s": ("s", "lower"),
    "kpi.save_map_calls": ("count", "lower"),
    "kpi.load_map_s": ("s", "lower"),
    "kpi.map_file_mb": ("MB", "lower"),
    "kpi.save_kpis_s": ("s", "lower"),
    "kpi.load_kpis_s": ("s", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.arrivals": ("count", "higher"),
    "sim.blocked": ("count", "lower"),
    "sim.completions": ("count", "higher"),
    "sim.handovers": ("count", "lower"),
    "sim.ue_ticks": ("count", "lower"),
    "sim.admit_ratio": ("fraction", "higher"),
    "sim.us_per_ue_tick": ("us", "lower"),
    **{f"localize.step{k}_s": ("s", "lower") for k in range(1, 8)},
    "localize.congested_cells": ("count", "lower"),
    "smoothing.smooth_s": ("s", "lower"),
    "smoothing.kernel_radius": ("px", "lower"),
    "smoothing.ops": ("count", "lower"),
    "smoothing.bytes": ("B", "lower"),
    "smoothing.ops_per_s": ("1/s", "higher"),
    "nnls.build_s": ("s", "lower"),
    "nnls.solve_s": ("s", "lower"),
    "nnls.solves": ("count", "lower"),
    "nnls.iterations": ("count", "lower"),
    "nnls.residual": ("norm", "lower"),
    "evaluate.compare_s": ("s", "lower"),
    "evaluate.write_s": ("s", "lower"),
    "evaluate.variants": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "harness.wall_pipeline_s": ("s", "lower"),
    "harness.wall_readback_s": ("s", "lower"),
    "harness.calibration_s": ("s", "lower"),
}

# Counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "grid.zone_layer_calls",
    "grid.file_mb",
    "kpi.save_map_calls",
    "kpi.map_file_mb",
    "sim.arrivals",
    "sim.blocked",
    "sim.completions",
    "sim.handovers",
    "sim.ue_ticks",
    "localize.congested_cells",
    "smoothing.ops",
    "smoothing.bytes",
    "nnls.solves",
    "nnls.iterations",
    "nnls.residual",
)

# Metrics read from the simulator's event log.
SIM_COUNTS = (
    "sim.arrivals",
    "sim.blocked",
    "sim.completions",
    "sim.handovers",
    "sim.ue_ticks",
    "sim.admit_ratio",
)

# Span name -> metric holding the summed duration of all its spans.
SPAN_SECONDS = {
    "scenario.build_cells": "scenario.build_cells_s",
    "scenario.synthesize_rsrp": "scenario.synthesize_rsrp_s",
    "grid.server_maps": "grid.server_maps_s",
    ZONE_LAYER: "grid.zone_layer_s",
    "grid.save": "grid.save_s",
    "grid.load": "grid.load_s",
    "kpi.truth": "kpi.truth_s",
    "kpi.potential": "kpi.potential_s",
    "kpi.oracle": "kpi.oracle_s",
    "kpi.save_map": "kpi.save_map_s",
    "kpi.load_map": "kpi.load_map_s",
    "kpi.save_kpis": "kpi.save_kpis_s",
    "kpi.load_kpis": "kpi.load_kpis_s",
    "sim.run": "sim.run_s",
    **{f"localize.step{k}": f"localize.step{k}_s" for k in range(1, 8)},
    "smoothing.smooth": "smoothing.smooth_s",
    "nnls.build": "nnls.build_s",
    NNLS_SOLVE: "nnls.solve_s",
    "evaluate.compare": "evaluate.compare_s",
    "evaluate.write": "evaluate.write_s",
}


def layer_metrics(tracer: Tracer, run: int, result) -> dict[str, float]:
    """Per-layer metrics of one traced repetition. ``result`` is its
    PipelineResult; the output directory must hold its artifacts. The
    simulator counts read 0 unless the repetition wrote the event log."""
    metrics = dict.fromkeys(LAYER_METRICS, 0)
    spans = tracer.run_spans(run)
    selfs = tracer.self_times(run)
    calls: Counter = Counter()
    for idx, span in spans:
        calls[span.name] += 1
        if span.name in SPAN_SECONDS:
            metrics[SPAN_SECONDS[span.name]] += span.duration
        stage = span.name.removeprefix("stage.")
        if stage in STAGES:
            metrics[f"stage.{stage}_s"] = span.duration
            metrics[f"stage.{stage}_self_s"] = selfs[idx]
            metrics[f"stage.{stage}_rss_mb"] = span.info["rss_bytes"] / MB
        if span.name == NNLS_SOLVE:
            metrics["nnls.iterations"] += span.info["iterations"]
    metrics["grid.zone_layer_calls"] = calls[ZONE_LAYER]
    metrics["kpi.save_map_calls"] = calls["kpi.save_map"]
    metrics["nnls.solves"] = calls[NNLS_SOLVE]

    config, grid, out = result.scenario.config, result.scenario.grid, result.out_dir
    m = grid.spec.m
    metrics["scenario.cube_mb"] = grid.n_cells * m * m * 8 / MB
    metrics["grid.file_mb"] = (out / "grid.csv").stat().st_size / MB
    metrics["kpi.map_file_mb"] = sum(
        (out / f"{name}.csv").stat().st_size for name in WEIGHT_MAP_FILES
    ) / MB

    if (out / "events.csv").exists():
        sim = sim_counts(out / "events.csv", config.sim.n_ticks)
        metrics.update({f"sim.{k}": v for k, v in sim.items()})
        if sim["arrivals"]:
            metrics["sim.admit_ratio"] = 1.0 - sim["blocked"] / sim["arrivals"]

    metrics["localize.congested_cells"] = sum(
        k.load_time > config.localizer.rho_threshold for k in result.kpis.cells.values()
    )
    # Computed, not measured: the smoother correlates the data and an
    # all-ones map with the kernel, one multiply-add per pixel and non-zero
    # kernel entry each, and divides the two. That makes eight passes over
    # m x m doubles: write the ones, read and write for each correlation,
    # read both and write the ratio.
    kernel = truncated_kernel(m, config.localizer.h, config.localizer.kernel_tail)
    metrics["smoothing.kernel_radius"] = kernel.shape[0] // 2
    metrics["smoothing.ops"] = 2 * m * m * int((kernel != 0).sum())
    metrics["smoothing.bytes"] = 8 * m * m * 8
    if metrics["smoothing.smooth_s"] > 0:
        metrics["smoothing.ops_per_s"] = metrics["smoothing.ops"] / metrics["smoothing.smooth_s"]
    metrics["nnls.residual"] = result.fit_residual or 0.0
    metrics["evaluate.variants"] = len(result.report.variants)
    return metrics


def with_sim_counts(timed: dict[str, float], logged: dict[str, float]) -> dict[str, float]:
    """The metrics of a repetition without the event log, which the
    program's own runs never write, completed with the simulator counts
    of a repetition that wrote it."""
    metrics = {**timed, **{k: logged[k] for k in SIM_COUNTS}}
    if metrics["sim.ue_ticks"]:
        metrics["sim.us_per_ue_tick"] = metrics["sim.run_s"] * 1e6 / metrics["sim.ue_ticks"]
    return metrics
