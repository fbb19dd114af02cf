from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tracemalloc
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_CONFIG, SIM_CONFIG, constant_grid, single_cell_grid
from hotloc import sim
from hotloc.grid import (
    TA_ZONE_COUNT,
    UNCOVERED,
    CoverageGrid,
    GridSpec,
    ServerMaps,
    aoa_zone_layer,
    compute_server_maps,
    ta_zone_layer,
)
from hotloc.kpi import LABEL_TRUTH, CellKpis, KpiSet, WeightMap, oracle_kpis, save_kpi_set
from hotloc.pipeline import run_pipeline
from hotloc.scenario import ConfigError, build_cells, build_scenario, load_scenario_config
from hotloc.sim import (
    BLOCK_ARRIVALS,
    KPI_SOURCE_SIM,
    MAX_ARRIVALS_PER_TICK,
    TRACK_CAP,
    SimConfig,
    _handover_slots,
    _lifetime,
    _neighbor_matrix,
    _reflect,
    check_step,
    run_simulation,
)


def delta_truth(m, pixel, hot_pixels):
    values = np.zeros((m, m))
    for i, j in hot_pixels:
        values[i, j] = 1.0
    return WeightMap(values / values.sum(), GridSpec(m, pixel), LABEL_TRUTH)


def uniform_truth(m, pixel):
    return WeightMap(np.full((m, m), 1.0 / (m * m)), GridSpec(m, pixel), LABEL_TRUTH)


def read_events(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


SIM_DIGESTS = Path(__file__).resolve().parent / "data" / "sim_digests.json"


def two_cell_corridor():
    """Cells A (x < 100 m) and B (x >= 100 m), each the other's neighbor,
    25 dB apart on either side of the midline."""
    left = np.full((8, 8), np.nan)
    left[:4] = -70.0
    left[4:] = -95.0
    right = np.full((8, 8), np.nan)
    right[4:] = -70.0
    right[:4] = -95.0
    grid = constant_grid(
        [
            ("A", (0.0, 100.0), math.pi / 2, left, ("B",)),
            ("B", (200.0, 100.0), 3 * math.pi / 2, right, ("A",)),
        ],
        m=8,
    )
    return grid, compute_server_maps(grid)


def far_corridor():
    """Cells A (x below 6 pixels) and B, each the other's neighbor, 25 dB
    apart on either side, on 1e-7 m pixels 1e9 m from the origin. There
    adjacent floats lie 1.2e-7 m apart, and the center of pixel 6 maps
    back to pixel 5, where a UE served by B triggers."""
    left = np.full((8, 8), -95.0)
    left[:6] = -70.0
    right = np.full((8, 8), -95.0)
    right[6:] = -70.0
    grid = constant_grid(
        [
            ("A", (1e9, 1e9 + 4e-7), math.pi / 2, left, ("B",)),
            ("B", (1e9 + 8e-7, 1e9 + 4e-7), 3 * math.pi / 2, right, ("A",)),
        ],
        pixel=1e-7,
        origin=(1e9, 1e9),
    )
    return grid, compute_server_maps(grid)


def patchy_grid():
    """Two neighbor cells with holes: A misses the top two columns, B covers
    the right half only, and the top-right block has no coverage at all."""
    a = np.full((8, 8), -72.0)
    a[:, 6:] = np.nan
    b = np.full((8, 8), np.nan)
    b[4:] = -80.0
    b[4:, 2:4] = -60.0
    grid = constant_grid(
        [
            ("A", (50.0, 50.0), 0.0, a, ("B",)),
            ("B", (150.0, 150.0), math.pi, b, ("A",)),
        ],
        m=8,
    )
    return grid, compute_server_maps(grid)


def tied_neighbors_grid():
    """A serves the left half; its neighbors B and C tie on the right half,
    so a report must go to the first configured one, C, except in the top
    two columns, where C has no signal and B must win."""
    a = np.full((8, 8), -95.0)
    a[:4] = -70.0
    b = np.full((8, 8), -100.0)
    b[4:] = -75.0
    c = b.copy()
    c[:, 6:] = np.nan
    grid = constant_grid(
        [
            ("A", (0.0, 100.0), math.pi / 2, a, ("C", "B")),
            ("B", (200.0, 50.0), 3 * math.pi / 2, b, ("A", "C")),
            ("C", (200.0, 150.0), 3 * math.pi / 2, c, ("B", "A")),
        ],
        m=8,
    )
    return grid, compute_server_maps(grid)


def _corridor_case(speed_kmh, cap, seed):
    # 400 km/h over a 2 s tick is a 222 m step across a 200 m map, so some
    # moves bounce off both walls of an axis.
    config = SimConfig(
        arrival_rate=4.0,
        duration_s=300.0,
        tick_s=2.0 if speed_kmh > 100 else 1.0,
        mobile_fraction=0.7,
        speed_kmh=speed_kmh,
        handover_margin_db=6.0,
        file_size_bits=2e7,
        max_ue_per_cell=cap,
        seed=seed,
    )
    return (config, *two_cell_corridor())


def sim_digest_cases():
    """Seeded simulator runs whose outputs are pinned by sha256, as
    ``name -> (config, grid, servers)``; every run uses a uniform truth."""
    cases = {}
    for speed in (30.0, 400.0):
        for cap in (6, 3):
            for seed in (3, 11):
                name = f"corridor-{speed:.0f}kmh-cap{cap}-seed{seed}"
                cases[name] = _corridor_case(speed, cap, seed)
    cases["patchy"] = (
        SimConfig(
            arrival_rate=3.0, duration_s=200.0, mobile_fraction=0.8,
            speed_kmh=60.0, file_size_bits=1e7, max_ue_per_cell=8, seed=5,
        ),
        *patchy_grid(),
    )
    cases["tied-neighbors"] = (
        SimConfig(
            arrival_rate=3.0, duration_s=200.0, mobile_fraction=0.6,
            speed_kmh=90.0, file_size_bits=1e7, max_ue_per_cell=5, seed=2,
        ),
        *tied_neighbors_grid(),
    )
    cases["contended-single-cell"] = (
        SimConfig(
            arrival_rate=8.0, duration_s=120.0, mobile_fraction=0.5,
            speed_kmh=50.0, capacity_per_cell_bps=3e6, max_ue_per_cell=10, seed=9,
        ),
        *single_cell_grid(m=8, site=(12.5, 12.5), level=-80.0),
    )
    return cases


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sim_digests(workdir):
    """sha256 of every pinned output: ``kpis.json`` and ``events.csv`` of
    each case in :func:`sim_digest_cases`, plus ``kpis.json``,
    ``events.csv`` and ``report.json`` of a ``configs/sim-small.json``
    pipeline run."""
    workdir = Path(workdir)
    digests = {}
    for name, (config, grid, servers) in sim_digest_cases().items():
        events = workdir / f"{name}-events.csv"
        kpis = run_simulation(
            config, uniform_truth(grid.spec.m, grid.spec.pixel_size), grid, servers,
            event_log_path=str(events),
        )
        kpis_path = workdir / f"{name}-kpis.json"
        save_kpi_set(kpis, kpis_path)
        digests[name] = {"kpis.json": _sha256(kpis_path), "events.csv": _sha256(events)}
    out = workdir / "sim-small"
    run_pipeline(load_scenario_config(SIM_CONFIG), out, kpi_source="sim", event_log=True)
    digests["sim-small-pipeline"] = {
        name: _sha256(out / name) for name in ("kpis.json", "events.csv", "report.json")
    }
    return digests


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            SimConfig(arrival_rate=-1.0)
        with pytest.raises(ValueError, match="file_size_bits"):
            SimConfig(arrival_rate=1.0, file_size_bits=0.0)
        with pytest.raises(ValueError, match="mobile_fraction"):
            SimConfig(arrival_rate=1.0, mobile_fraction=1.5)
        with pytest.raises(ValueError, match="max_ue_per_cell"):
            SimConfig(arrival_rate=1.0, max_ue_per_cell=0)
        with pytest.raises(ValueError, match="margin"):
            SimConfig(arrival_rate=1.0, handover_margin_db=-1.0)

    @pytest.mark.parametrize("name", ["speed_kmh", "handover_margin_db", "tick_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        # An infinite speed would fold positions back into the map forever.
        with pytest.raises(ValueError, match=f"^{name}: must be finite"):
            SimConfig(arrival_rate=1.0, **{name: value})

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("duration_s", {"duration_s": 1e308}),
            ("duration_s", {"tick_s": 1e-300}),
            ("arrival_rate", {"arrival_rate": 1e308}),
            ("arrival_rate", {"arrival_rate": 2e3, "tick_s": 1e3}),
        ],
    )
    def test_run_size_bounded(self, name, kwargs):
        with pytest.raises(ValueError, match=f"^{name}: must (be|give) at most"):
            SimConfig(**kwargs)

    def test_step_bounded_by_twice_the_extent(self):
        spec = GridSpec(8, 25.0)
        # 720 km/h over 1 s is 200 m, the map's extent; 1440 km/h twice it.
        check_step(SimConfig(speed_kmh=1440.0), spec)
        for config in (SimConfig(speed_kmh=1441.0), SimConfig(speed_kmh=1e308)):
            with pytest.raises(ConfigError, match="^sim.speed_kmh: moves a UE .* more than twice"):
                check_step(config, spec)
        grid, servers = single_cell_grid(m=8, site=(12.5, 12.5), level=-80.0)
        with pytest.raises(ConfigError, match="^sim.speed_kmh: moves a UE"):
            run_simulation(SimConfig(speed_kmh=1e308), uniform_truth(8, 25.0), grid, servers)

    def test_tick_count(self):
        assert SimConfig(arrival_rate=1.0, duration_s=10.0, tick_s=1.0).n_ticks == 10
        assert SimConfig(arrival_rate=1.0, duration_s=10.0, tick_s=4.0).n_ticks == 2
        assert SimConfig(arrival_rate=1.0, duration_s=0.4, tick_s=1.0).n_ticks == 1


class TestReflect:
    def reflect(self, positions):
        pos, flipped = _reflect(np.array(positions), 0.0, 10.0)
        return pos.tolist(), flipped.tolist()

    def test_inside_untouched(self):
        # Points on either edge are inside and keep their value.
        assert self.reflect([5.0, 0.0, 10.0, 0.25]) == (
            [5.0, 0.0, 10.0, 0.25],
            [False, False, False, False],
        )

    def test_single_reflection(self):
        assert self.reflect([-3.0, 13.0, -10.0, 20.0]) == (
            [3.0, 7.0, 10.0, 0.0],
            [True, True, True, True],
        )

    def test_double_reflection_restores_direction(self):
        # 25 folds at 10 to -5, then at 0 to 5; -12 folds at 0 to 12, then
        # at 10 to 8. The inside entry is not moved by the extra passes.
        assert self.reflect([25.0, -12.0, 4.0, 13.0]) == (
            [5.0, 8.0, 4.0, 7.0],
            [False, False, False, True],
        )


def _reference_move(pos, heading, step, spec):
    """One tick of movement as the loop made it before velocities were
    cached: a step at the heading's sine and cosine, and every heading
    folded by np.mod after every step. Returns the positions, the
    reflection flips and the headings."""
    lo = np.array(spec.origin).reshape(2, 1)
    hi = lo + spec.extent
    pos = pos.copy()
    pos[0] += step * np.sin(heading)
    pos[1] += step * np.cos(heading)
    flipped = np.zeros(pos.shape, dtype=bool)
    if np.count_nonzero((pos < lo) | (pos > hi)):
        pos, flipped = _reflect(pos, lo, hi)
        heading = np.where(flipped[0], -heading, heading)
        heading = np.where(flipped[1], math.pi - heading, heading)
    return pos, flipped, np.mod(heading, 2.0 * math.pi)


class TestMover:
    def test_heading_folded_to_two_pi(self):
        # Every UE starts at heading pi + 2**-51, which a reflection off a
        # y edge turns into -2**-51, and np.mod into 2*pi. On the next
        # move UE 0 moves at 2*pi without reflecting, UE 1 reflects off
        # the top edge and UE 2 off the left one. The moves are built
        # ``chunk`` at a time, each build from the state the last left:
        # one at a time as a run whose movers move tick by tick makes
        # them, so the fold lands between builds; three, so it lands
        # inside one; and all eight as one arrival's track.
        spec, step = GridSpec(8, 25.0), 150.0
        moves = 8
        ref_pos = np.array([[1.0, 1.0, 5e-14], [100.0, 0.5, 100.0]])
        ref_heading = np.full(3, np.nextafter(math.pi, 4.0))
        want, flips = [], []
        for _ in range(moves):
            ref_pos, flipped, ref_heading = _reference_move(ref_pos, ref_heading, step, spec)
            want.append((ref_pos, ref_heading))
            flips.append(flipped.tolist())
        assert flips[0] == [[False] * 3, [True] * 3]
        assert flips[1] == [[False, False, True], [False, True, False]]
        assert (want[0][1] == 2.0 * math.pi).all()
        # The move at 2*pi took UE 0 sideways; the one at 0 did not.
        assert want[1][0][0, 0] < 1.0 and want[2][0][0, 0] == want[1][0][0, 0]

        for chunk in (1, 3, 8):
            tracks = sim._Tracks(step, spec)
            state = np.empty((5, 3))
            state[:2] = [[1.0, 1.0, 5e-14], [100.0, 0.5, 100.0]]
            state[4] = np.nextafter(math.pi, 4.0)
            state[2:4] = tracks.velocity(state[4])
            for made in range(0, moves, chunk):
                pixels = np.empty((min(chunk, moves - made), 3), dtype=np.int64)
                tracks.build(state, pixels)
                for move, pixel in enumerate(pixels, made):
                    i, j = np.minimum((want[move][0] / spec.pixel_size).astype(int), spec.m - 1)
                    assert pixel.tolist() == (i * spec.m + j).tolist(), (chunk, move)
                pos, heading = want[made + len(pixels) - 1]
                assert state[:2].tobytes() == pos.tobytes(), (chunk, made)
                assert state[4].tobytes() == heading.tobytes(), (chunk, made)


class TestRunSimulation:
    def small_setup(self, m=8):
        grid, servers = single_cell_grid(m=m, site=(12.5, 12.5), level=-80.0)
        return grid, servers

    def test_one_tick_flood_is_admitted_without_a_copy(self):
        # 100k arrivals in one tick on desk, every one moving, holding
        # TRACK_CAP keys and admitted. Their block holds 182 bytes an
        # arrival (21 int64 rows and the rank) and the run peaks at about
        # 260 while it is made; with no UE in flight the tick takes it as
        # the UE block. Copied into the UE block, the tick peaked at about
        # 415; with the pixels, best cells, ticks and base keys kept until
        # the block was made, the run peaked at about 307.
        scenario = build_scenario(load_scenario_config(DESK_CONFIG))
        n = 100_000
        config = SimConfig(
            arrival_rate=float(n), duration_s=1.0, mobile_fraction=1.0, speed_kmh=30.0,
            capacity_per_cell_bps=2e7, max_ue_per_cell=10**6, file_size_bits=319.0,
        )
        assert _lifetime(config, TRACK_CAP + 1) == TRACK_CAP
        tracemalloc.start()
        try:
            kpis = run_simulation(config, scenario.truth, scenario.grid, scenario.servers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(ck.amt_bps > 0 for ck in kpis.cells.values())
        assert peak / n < 273

    def test_busy_hour_block_peak(self, monkeypatch):
        # The desk busy hour (seed 0, 40 arrivals/s of 4 Mbit for an hour):
        # the worst traced peak of making an arrival block, above what was
        # held on entering it, per arrival of the block. It reads about
        # 178 bytes; with each track kept as a float (moves, 2, n) array
        # and an intp copy of it, about 245.
        config = load_scenario_config(DESK_CONFIG, 0)
        scenario = build_scenario(config)
        busy = replace(config.sim, arrival_rate=40.0, file_size_bits=4e6, duration_s=3600.0)
        block, worst = sim._Arrivals.block, []

        def traced(self, *args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = block(self, *args)
            worst.append((tracemalloc.get_traced_memory()[1] - held) / max(1, result[0].shape[1]))
            return result

        monkeypatch.setattr(sim._Arrivals, "block", traced)
        tracemalloc.start()
        try:
            run_simulation(busy, scenario.truth, scenario.grid, scenario.servers)
        finally:
            tracemalloc.stop()
        assert len(worst) > 100
        assert max(worst) < 200

    def test_truth_validation(self):
        grid, servers = self.small_setup()
        config = SimConfig(arrival_rate=1.0, duration_s=5.0)
        zero = WeightMap(np.zeros((8, 8)), GridSpec(8, 25.0), LABEL_TRUTH)
        with pytest.raises(ValueError, match="all zero"):
            run_simulation(config, zero, grid, servers)
        doubled = WeightMap(np.full((8, 8), 2.0 / 64.0), GridSpec(8, 25.0), LABEL_TRUTH)
        with pytest.raises(ValueError, match="normalized"):
            run_simulation(config, doubled, grid, servers)
        wrong = uniform_truth(10, 25.0)
        with pytest.raises(ValueError, match="does not match"):
            run_simulation(config, wrong, grid, servers)

    def test_idle_network_emits_empty_kpis(self):
        grid, servers = self.small_setup()
        config = SimConfig(arrival_rate=0.0, duration_s=10.0)
        kpis = run_simulation(config, uniform_truth(8, 25.0), grid, servers)
        assert kpis.source == KPI_SOURCE_SIM
        assert kpis.window_s == 10.0
        assert all(ck.is_empty() for ck in kpis.cells.values())

    def test_reruns_are_byte_identical(self, tmp_path):
        grid, servers = self.small_setup()
        config = SimConfig(
            arrival_rate=3.0, duration_s=60.0, mobile_fraction=0.5, seed=42
        )
        truth = uniform_truth(8, 25.0)
        outputs = []
        for run in ("a", "b"):
            log = tmp_path / f"events-{run}.csv"
            kpis = run_simulation(config, truth, grid, servers, event_log_path=str(log))
            out = tmp_path / f"kpis-{run}.json"
            save_kpi_set(kpis, out)
            outputs.append((out.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_seed_changes_the_run(self, tmp_path):
        grid, servers = self.small_setup()
        truth = uniform_truth(8, 25.0)
        logs = []
        for seed in (1, 2):
            config = SimConfig(arrival_rate=3.0, duration_s=60.0, seed=seed)
            log = tmp_path / f"events-{seed}.csv"
            run_simulation(config, truth, grid, servers, event_log_path=str(log))
            logs.append(log.read_bytes())
        assert logs[0] != logs[1]

    def test_static_point_traffic_pins_the_zone_fractions(self):
        grid, servers = self.small_setup()
        # All traffic on pixel (4, 0): 100 m due East of the site, so ring 1
        # and AoA zone +1 for the north-facing sector.
        truth = delta_truth(8, 25.0, [(4, 0)])
        config = SimConfig(arrival_rate=2.0, duration_s=30.0, mobile_fraction=0.0)
        kpis = run_simulation(config, truth, grid, servers)
        ck = kpis.cells["BS01A"]
        np.testing.assert_array_equal(ck.ta, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(ck.aoa, [0.0, 0.0, 1.0])

    def test_uncontended_downloads_hit_the_rate_cap(self):
        grid, servers = self.small_setup()
        truth = delta_truth(8, 25.0, [(2, 2)])
        # One file fits in a single tick at the mu0 cap, so every completed
        # session reports exactly file/elapsed = 1e6 bps.
        config = SimConfig(
            arrival_rate=0.5,
            duration_s=120.0,
            mobile_fraction=0.0,
            file_size_bits=1e6,
            capacity_per_cell_bps=2e7,
            mu0_bps=2e6,
        )
        kpis = run_simulation(config, truth, grid, servers)
        ck = kpis.cells["BS01A"]
        assert ck.amt_bps == 1e6
        assert ck.hmt_bps == 1e6

    def test_throughput_means_are_ordered(self):
        grid, servers = self.small_setup()
        config = SimConfig(
            arrival_rate=8.0, duration_s=120.0, capacity_per_cell_bps=3e6, max_ue_per_cell=10
        )
        kpis = run_simulation(config, uniform_truth(8, 25.0), grid, servers)
        ck = kpis.cells["BS01A"]
        assert 0.0 < ck.hmt_bps <= ck.amt_bps

    def test_event_log_shape_and_conservation(self, tmp_path):
        grid, servers = self.small_setup()
        config = SimConfig(arrival_rate=5.0, duration_s=60.0, max_ue_per_cell=4)
        log = tmp_path / "events.csv"
        run_simulation(config, uniform_truth(8, 25.0), grid, servers, str(log))
        header, rows = read_events(str(log))
        assert header == ["t", "event", "cell_id", "ue_id"]
        by_kind = {}
        for _, event, _, _ in rows:
            by_kind[event] = by_kind.get(event, 0) + 1
        assert set(by_kind) <= {"arrive", "block", "complete", "handover"}
        assert by_kind.get("block", 0) > 0  # 4 slots against rate 5 must block
        # Every UE id arrives or blocks exactly once and completes at most once.
        arrived = [r[3] for r in rows if r[1] == "arrive"]
        completed = [r[3] for r in rows if r[1] == "complete"]
        assert len(set(arrived)) == len(arrived)
        assert set(completed) <= set(arrived)
        assert len(completed) <= len(arrived)

    def test_blocked_when_uncovered(self, tmp_path):
        layer = np.full((8, 8), np.nan)
        layer[:, :4] = -80.0
        grid = constant_grid([("BS01A", (12.5, 12.5), 0.0, layer, ())], m=8)
        servers = compute_server_maps(grid)
        # Traffic only on the uncovered half: every arrival blocks with no
        # cell attribution.
        truth = delta_truth(8, 25.0, [(4, 6), (2, 7)])
        config = SimConfig(arrival_rate=2.0, duration_s=20.0)
        log = tmp_path / "events.csv"
        kpis = run_simulation(config, truth, grid, servers, str(log))
        _, rows = read_events(str(log))
        assert rows, "expected at least one event"
        assert all(r[1] == "block" and r[2] == "" for r in rows)
        assert kpis.cells["BS01A"].is_empty()

    def test_mobility_triggers_handovers(self, tmp_path):
        grid, servers = two_cell_corridor()
        truth = uniform_truth(8, 25.0)
        config = SimConfig(
            arrival_rate=4.0,
            duration_s=300.0,
            mobile_fraction=1.0,
            speed_kmh=30.0,
            handover_margin_db=6.0,
            file_size_bits=5e7,
            seed=3,
        )
        log = tmp_path / "events.csv"
        kpis = run_simulation(config, truth, grid, servers, str(log))
        _, rows = read_events(str(log))
        handovers = [r for r in rows if r[1] == "handover"]
        assert handovers, "mobile UEs crossing the midline must hand over"
        assert {r[2] for r in handovers} <= {"A", "B"}
        for cell_id, ck in kpis.cells.items():
            other = "B" if cell_id == "A" else "A"
            if ck.neighbor_level:
                assert ck.neighbor_level == {other: 1.0}

    def test_handover_into_full_cell_reports_without_switching(self, tmp_path):
        grid, servers = two_cell_corridor()
        # One slot per cell and downloads that never finish: the first UE
        # admitted in each cell holds it for the whole run, so a UE that
        # crosses the midline files reports but can never switch.
        config = SimConfig(
            arrival_rate=5.0,
            duration_s=200.0,
            mobile_fraction=1.0,
            speed_kmh=200.0,
            file_size_bits=1e12,
            max_ue_per_cell=1,
            seed=1,
        )
        log = tmp_path / "events.csv"
        kpis = run_simulation(config, uniform_truth(8, 25.0), grid, servers, str(log))
        _, rows = read_events(str(log))
        arrivals = sorted(r[2] for r in rows if r[1] == "arrive")
        assert arrivals == ["A", "B"]
        assert not [r for r in rows if r[1] in ("handover", "complete")]
        reported = {c: ck.neighbor_level for c, ck in kpis.cells.items() if ck.neighbor_level}
        assert reported == {"A": {"B": 1.0}, "B": {"A": 1.0}}

    def test_static_ues_never_hand_over(self, tmp_path):
        grid, servers = two_cell_corridor()
        config = SimConfig(arrival_rate=4.0, duration_s=60.0, mobile_fraction=0.0)
        log = tmp_path / "events.csv"
        run_simulation(config, uniform_truth(8, 25.0), grid, servers, str(log))
        _, rows = read_events(str(log))
        assert all(r[1] != "handover" for r in rows)


class TestSimDigests:
    def test_outputs_match_the_recorded_digests(self, tmp_path):
        recorded = json.loads(SIM_DIGESTS.read_text())["digests"]
        assert sim_digests(tmp_path) == recorded


# The reference tick loop: hotloc.sim.run_simulation before its UE state
# was packed into blocks and its arrivals derived a block of ticks at a
# time. It shares the helpers that did not change since.


class _ReferenceEventLog:
    """The event log as csv.writer rows, written as they come."""

    def __init__(self, path: str | None, cell_ids: list[str]):
        self._fh = open(path, "w", newline="", encoding="utf-8") if path else None
        self._writer = None
        # Cell index UNCOVERED (-1) picks the trailing empty name.
        self._names = [*cell_ids, ""]
        if self._fh:
            self._writer = csv.writer(self._fh)
            self._writer.writerow(["t", "event", "cell_id", "ue_id"])

    @property
    def enabled(self) -> bool:
        return self._writer is not None

    def write(self, t: int, events, cells: np.ndarray, ue_ids: np.ndarray) -> None:
        """One row per entry of ``cells``/``ue_ids``; ``events`` is one event
        name for all rows or an array of names."""
        if self._writer is None:
            return
        events = repeat(events) if isinstance(events, str) else events.tolist()
        names = [self._names[c] for c in cells.tolist()]
        self._writer.writerows(zip(repeat(t), events, names, ue_ids.tolist()))

    def close(self) -> None:
        if self._fh:
            self._fh.close()


def _reference_admit(best: np.ndarray, attached: np.ndarray, max_ue: int) -> np.ndarray:
    """Admission mask for one tick's arrivals, in draw order: an arrival
    gets in when its best cell is covered and fewer earlier arrivals of the
    tick chose that cell than it has free slots."""
    order = np.argsort(best, kind="stable")
    ranked = best[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(ranked, ranked, side="left")
    return (best != UNCOVERED) & (rank < max_ue - attached[best])


@dataclass
class _ReferenceUes:
    """The UEs whose download is in flight, as parallel arrays in admission
    order. ``pixel`` is the flat index ``i * m + j`` of the UE's pixel."""

    ue_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    pixel: np.ndarray
    serving: np.ndarray
    remaining_bits: np.ndarray
    mobile: np.ndarray
    heading: np.ndarray
    start_tick: np.ndarray

    @classmethod
    def empty(cls) -> _ReferenceUes:
        return cls(
            ue_id=np.empty(0, dtype=np.int64),
            x=np.empty(0),
            y=np.empty(0),
            pixel=np.empty(0, dtype=np.intp),
            serving=np.empty(0, dtype=np.intp),
            remaining_bits=np.empty(0),
            mobile=np.empty(0, dtype=bool),
            heading=np.empty(0),
            start_tick=np.empty(0, dtype=np.int64),
        )

    def keep(self, mask: np.ndarray) -> _ReferenceUes:
        return _ReferenceUes(**{name: col[mask] for name, col in vars(self).items()})

    def extend(self, new: _ReferenceUes) -> _ReferenceUes:
        return _ReferenceUes(
            **{name: np.concatenate((col, getattr(new, name))) for name, col in vars(self).items()}
        )


def _reference_zone_stacks(grid: CoverageGrid) -> tuple[np.ndarray, np.ndarray]:
    """The TA and AoA zone layers of every cell, flattened to (cell,
    pixel), one zone-layer call per cell and layer."""
    return tuple(
        np.stack([layer(grid.spec, cell).reshape(-1) for cell in grid.cells])
        for layer in (ta_zone_layer, aoa_zone_layer)
    )


def _reference_handover_slots(rsrp: np.ndarray, neighbors: np.ndarray, margin_db: float) -> np.ndarray:
    """Per (cell, flat pixel): the column in ``neighbors`` of the neighbor a
    UE served by the cell at the pixel reports, or -1 when none beats the
    serving level by the margin. NaN levels read as -inf, and ``argmax``
    picks the first of equally strong neighbors. The table is int8 up to
    127 neighbors per cell."""
    slots = np.full(rsrp.shape, -1, dtype=np.min_scalar_type(-1 - neighbors.shape[1]))
    for cell, nbrs in enumerate(neighbors):
        nbrs = nbrs[nbrs >= 0]
        if nbrs.size:
            serving = np.where(np.isnan(rsrp[cell]), -math.inf, rsrp[cell])
            candidates = np.where(np.isnan(rsrp[nbrs]), -math.inf, rsrp[nbrs])
            trigger = candidates.max(axis=0) > serving + margin_db
            slots[cell, trigger] = np.argmax(candidates[:, trigger], axis=0)
    return slots


def reference_simulation(
    config: SimConfig,
    truth: WeightMap,
    grid: CoverageGrid,
    servers: ServerMaps,
    event_log_path: str | None = None,
) -> KpiSet:
    """The tick loop of :func:`hotloc.sim.run_simulation` as nine parallel
    UE arrays, two zone stacks and three arrival draws per tick, kept as
    the reference the packed loop must match byte for byte."""
    spec = grid.spec
    check_step(config, spec)
    if truth.spec != spec:
        raise ValueError("truth map does not match the grid")
    total_weight = truth.total()
    if total_weight <= 0:
        raise ValueError("truth map is all zero, nowhere to place UEs")
    if abs(total_weight - 1.0) > 1e-6:
        raise ValueError("truth map must be normalized")

    m = spec.m
    n_cells = len(grid.cells)
    rng = np.random.default_rng(config.seed)
    position_cdf = np.cumsum(truth.values.reshape(-1))
    position_cdf /= position_cdf[-1]

    # After a handover the serving cell is not the pixel's best server,
    # so the zones come from every cell's layers, not the serving tables.
    ta_layers, aoa_layers = _reference_zone_stacks(grid)
    best_of = servers.best.reshape(-1).astype(np.intp)
    neighbors = _neighbor_matrix(grid)
    handover_slots = _reference_handover_slots(
        grid.rsrp.reshape(n_cells, -1), neighbors, config.handover_margin_db
    )
    max_ue = config.max_ue_per_cell

    ta_counts = np.zeros((n_cells, TA_ZONE_COUNT), dtype=np.int64)
    aoa_counts = np.zeros((n_cells, 3), dtype=np.int64)
    reports = np.zeros((n_cells, n_cells), dtype=np.int64)
    full_ticks = np.zeros(n_cells, dtype=np.int64)
    # Cell and rate of every completed download, in completion order. Packed
    # at eight bytes each, they cost a busy desk hour's 138k completions
    # about 2 MB less peak memory than per-tick numpy chunks.
    done_cells = array("q")
    done_rates = array("d")

    ues = _ReferenceUes.empty()
    attached = np.zeros(n_cells, dtype=np.int64)
    next_ue = 0
    step = config.speed_kmh / 3.6 * config.tick_s
    xmin, ymin = spec.origin
    center_x, center_y = (c.reshape(-1) for c in spec.center_coords())
    xmax, ymax = xmin + spec.extent, ymin + spec.extent
    log = _ReferenceEventLog(event_log_path, [c.cell_id for c in grid.cells])

    try:
        for t in range(config.n_ticks):
            # Arrivals: positions from the traffic weights, admission by
            # coverage and slot availability.
            n_arrivals = int(rng.poisson(config.arrival_rate * config.tick_s))
            if n_arrivals:
                pix = np.searchsorted(position_cdf, rng.random(n_arrivals), side="right")
                pix = np.minimum(pix, position_cdf.size - 1)
                mobile = rng.random(n_arrivals) < config.mobile_fraction
                headings = rng.uniform(0.0, 2.0 * math.pi, n_arrivals)
                ue_ids = np.arange(next_ue, next_ue + n_arrivals)
                next_ue += n_arrivals
                best = best_of[pix]
                admitted = _reference_admit(best, attached, max_ue)
                if log.enabled:
                    log.write(t, np.where(admitted, "arrive", "block"), best, ue_ids)
                if np.count_nonzero(admitted):
                    cells = best[admitted]
                    attached += np.bincount(cells, minlength=n_cells)
                    ues = ues.extend(
                        _ReferenceUes(
                            ue_id=ue_ids[admitted],
                            x=center_x[pix[admitted]],
                            y=center_y[pix[admitted]],
                            pixel=pix[admitted],
                            serving=cells,
                            remaining_bits=np.full(cells.size, config.file_size_bits),
                            mobile=mobile[admitted],
                            heading=headings[admitted],
                            start_tick=np.full(cells.size, t),
                        )
                    )

            # Scheduling: equal capacity share capped at mu0; sample the
            # occupancy and load counters while the shares are known.
            full_ticks[attached >= max_ue] += 1
            serving, pixel = ues.serving, ues.pixel
            np.add.at(ta_counts, (serving, ta_layers[serving, pixel]), 1)
            np.add.at(aoa_counts, (serving, aoa_layers[serving, pixel] + 1), 1)
            rate = np.minimum(config.mu0_bps, config.capacity_per_cell_bps / attached[serving])
            ues.remaining_bits = np.maximum(0.0, ues.remaining_bits - rate * config.tick_s)

            # Completions.
            done = ues.remaining_bits <= 0.0
            if np.count_nonzero(done):
                cells = serving[done]
                elapsed = (t - ues.start_tick[done] + 1) * config.tick_s
                done_cells.extend(cells.tolist())
                done_rates.extend((config.file_size_bits / elapsed).tolist())
                attached -= np.bincount(cells, minlength=n_cells)
                log.write(t, "complete", cells, ues.ue_id[done])
                ues = ues.keep(~done)

            # Movement with specular reflection.
            if step > 0 and np.count_nonzero(ues.mobile):
                moving = ues.mobile
                heading = ues.heading[moving]
                x, flip_x = _reflect(ues.x[moving] + step * np.sin(heading), xmin, xmax)
                y, flip_y = _reflect(ues.y[moving] + step * np.cos(heading), ymin, ymax)
                heading = np.where(flip_x, -heading, heading)
                heading = np.where(flip_y, math.pi - heading, heading)
                ues.x[moving] = x
                ues.y[moving] = y
                ues.heading[moving] = np.mod(heading, 2.0 * math.pi)
                # Reflected coordinates are inside the map, so only the
                # far edge needs clamping into the last pixel.
                i = np.minimum(((x - xmin) / spec.pixel_size).astype(np.intp), m - 1)
                j = np.minimum(((y - ymin) / spec.pixel_size).astype(np.intp), m - 1)
                ues.pixel[moving] = i * m + j

            # Handover: the first strongest configured neighbor beating
            # serving by the margin files a report; the switch needs a free
            # slot, so switches resolve in array order.
            serving = ues.serving
            slot = handover_slots[serving, ues.pixel]
            trigger = np.flatnonzero(slot >= 0)
            if trigger.size:
                source = serving[trigger]
                target = neighbors[source, slot[trigger]]
                np.add.at(reports, (source, target), 1)
                switched = []
                for k, cell, dest in zip(trigger.tolist(), source.tolist(), target.tolist()):
                    if attached[dest] >= max_ue:
                        continue
                    attached[cell] -= 1
                    attached[dest] += 1
                    serving[k] = dest
                    switched.append(k)
                log.write(t, "handover", serving[switched], ues.ue_id[switched])
    finally:
        log.close()

    done_cells = np.frombuffer(done_cells, dtype=np.int64)
    done_rates = np.frombuffer(done_rates, dtype=np.float64)
    cells_out: dict[str, CellKpis] = {}
    for idx, cell in enumerate(grid.cells):
        occupancy = int(ta_counts[idx].sum())
        if occupancy:
            ta = ta_counts[idx] / occupancy
            aoa = aoa_counts[idx] / occupancy
        else:
            ta = np.zeros(TA_ZONE_COUNT)
            aoa = np.zeros(3)
        total_reports = int(reports[idx].sum())
        neighbor_level = {
            grid.cells[nb].cell_id: int(reports[idx, nb]) / total_reports
            for nb in np.flatnonzero(reports[idx]).tolist()
        }
        rates = done_rates[done_cells == idx]
        if rates.size:
            amt = float(np.mean(rates))
            hmt = float(rates.size / np.sum(1.0 / rates))
            hmt = min(hmt, amt)
        else:
            amt = hmt = 0.0
        cells_out[cell.cell_id] = CellKpis(
            ta=ta,
            aoa=aoa,
            neighbor_level=neighbor_level,
            load_time=float(full_ticks[idx] / config.n_ticks),
            amt_bps=amt,
            hmt_bps=hmt,
        )

    kpis = KpiSet(cells=cells_out, source=KPI_SOURCE_SIM, window_s=config.duration_s)
    kpis.validate(grid)
    return kpis


def _reference_cases():
    """Seeded runs, as ``name -> (config, truth, grid, servers, covers)``,
    where ``covers(rows, folds)`` checks from the event rows and the
    reflection record of :func:`_recording_reflect` that the run takes the
    path it is named for."""
    corridor = two_cell_corridor()
    tied = tied_neighbors_grid()
    far = far_corridor()
    uniform = uniform_truth(8, 25.0)
    events = lambda rows, kind: [r for r in rows if r[1] == kind]
    desk = load_scenario_config(DESK_CONFIG)
    desk_scenario = build_scenario(desk)
    busy = replace(desk.sim, arrival_rate=40.0, file_size_bits=4e6, duration_s=300.0)
    return {
        # 12 arrivals a tick against 4 slots: the rank test blocks some.
        "rank-blocking": (
            SimConfig(
                arrival_rate=12.0, duration_s=60.0, mobile_fraction=0.5, speed_kmh=20.0,
                file_size_bits=1e7, max_ue_per_cell=4, seed=4,
            ),
            uniform, *single_cell_grid(m=8, site=(12.5, 12.5), level=-80.0),
            lambda rows, folds: any(r[2] == "BS01A" for r in events(rows, "block")),
        ),
        "uncovered-arrivals": (
            SimConfig(
                arrival_rate=3.0, duration_s=200.0, mobile_fraction=0.8, speed_kmh=60.0,
                file_size_bits=1e7, max_ue_per_cell=8, seed=7,
            ),
            uniform, *patchy_grid(),
            lambda rows, folds: any(r[2] == "" for r in events(rows, "block")),
        ),
        # 400 km/h over a 2 s tick is 222 m on a 200 m map.
        "corner-bounces": (
            SimConfig(
                arrival_rate=4.0, duration_s=300.0, tick_s=2.0, mobile_fraction=1.0,
                speed_kmh=400.0, file_size_bits=2e7, max_ue_per_cell=6, seed=13,
            ),
            uniform, *corridor,
            lambda rows, folds: folds["corner"] and folds["double"] and events(rows, "handover"),
        ),
        # One slot per cell and downloads that never end: reports, no switch.
        "full-target": (
            SimConfig(
                arrival_rate=5.0, duration_s=200.0, mobile_fraction=1.0, speed_kmh=200.0,
                file_size_bits=1e12, max_ue_per_cell=1, seed=1,
            ),
            uniform, *corridor,
            lambda rows, folds: not events(rows, "handover"),
        ),
        "handover-contention": (
            SimConfig(
                arrival_rate=4.0, duration_s=300.0, mobile_fraction=0.7, speed_kmh=30.0,
                file_size_bits=2e7, max_ue_per_cell=3, seed=6,
            ),
            uniform, *corridor,
            lambda rows, folds: events(rows, "handover") and events(rows, "block"),
        ),
        # A lone UE gets mu0, two or more share the capacity.
        "zero-arrival-ticks": (
            SimConfig(
                arrival_rate=0.2, duration_s=300.0, mobile_fraction=0.6, speed_kmh=90.0,
                file_size_bits=1e7, capacity_per_cell_bps=3e6, max_ue_per_cell=5, seed=8,
            ),
            uniform, *tied,
            lambda rows, folds: len({r[0] for r in rows if r[1] in ("arrive", "block")}) < 200,
        ),
        "static": (
            SimConfig(arrival_rate=4.0, duration_s=120.0, mobile_fraction=0.0, seed=2),
            uniform, *corridor,
            lambda rows, folds: folds["calls"] == 0,
        ),
        "parked": (
            SimConfig(arrival_rate=4.0, duration_s=120.0, mobile_fraction=0.5, speed_kmh=0.0, seed=2),
            uniform, *corridor,
            lambda rows, folds: folds["calls"] == 0 and not events(rows, "handover"),
        ),
        # Server maps that hand each pixel to the next of three cells: a UE
        # that stays triggers from its first tick, and while its target is
        # full, on every tick until its download ends.
        "static-shifted-servers": (
            SimConfig(
                arrival_rate=0.5, duration_s=120.0, mobile_fraction=0.0, file_size_bits=2e7,
                max_ue_per_cell=1, seed=1,
            ),
            uniform, tied[0], replace(tied[1], best=(tied[1].best + 1) % 3),
            lambda rows, folds: events(rows, "handover") and events(rows, "block"),
        ),
        # Downloads outlast TRACK_CAP ticks, so every UE moves tick by tick;
        # one that stays moves at zero velocity from its pixel's center,
        # which can map to another pixel (see far_corridor).
        "far-origin": (
            SimConfig(
                arrival_rate=2.0, duration_s=120.0, mobile_fraction=0.5, speed_kmh=1e-6,
                file_size_bits=5e7, seed=2,
            ),
            WeightMap(np.full((8, 8), 1.0 / 64), far[0].spec, LABEL_TRUTH), *far,
            lambda rows, folds: sim._lifetime(REFERENCE_CASES["far-origin"][0], sim.TRACK_CAP + 1)
            > sim.TRACK_CAP,
        ),
        "desk-busy-300s": (
            busy, desk_scenario.truth, desk_scenario.grid, desk_scenario.servers,
            lambda rows, folds: events(rows, "complete") and events(rows, "block"),
        ),
        # Every download drains mu0 and lasts 4 ticks, the lifetime bound,
        # so a UE's check reads its key rows 1 to 3. At 5 m a tick only a
        # UE that starts 12.5 m from the midline crosses it, on its third
        # move: every trigger falls on a last key row, on the arrival tick
        # plus 2.
        "last-row-triggers": (
            SimConfig(
                arrival_rate=1.0, duration_s=300.0, mobile_fraction=1.0, speed_kmh=18.0,
                file_size_bits=7e6, max_ue_per_cell=10, seed=3,
            ),
            uniform, *corridor,
            lambda rows, folds: events(rows, "handover") and all(
                int(t) == int(arrived[0]) + 2
                for t, _, _, ue in events(rows, "handover")
                for arrived in events(rows, "arrive") if arrived[3] == ue
            ),
        ),
        # 75 m a tick and 4-tick downloads, one UE every three ticks: a UE
        # that hands over can bounce off the far wall and hand back, on a
        # key its arrival block did not see trigger, as late as its last.
        "ping-pong": (
            SimConfig(
                arrival_rate=0.3, duration_s=600.0, mobile_fraction=1.0, speed_kmh=270.0,
                file_size_bits=7e6, max_ue_per_cell=10, seed=0,
            ),
            uniform, *corridor,
            lambda rows, folds: any(
                n > 1 for n in Counter(ue for _, _, _, ue in events(rows, "handover")).values()
            ),
        ),
    }


REFERENCE_CASES = _reference_cases()


def _recording_reflect(folds):
    """:func:`hotloc.sim._reflect` that notes in ``folds`` whether a call
    folded one UE on both axes (a corner) or one coordinate twice."""

    def reflect(pos, lo, hi):
        folds["calls"] += 1
        out = (pos < lo) | (pos > hi)
        folds["corner"] |= bool(np.any(out.all(axis=0)))
        folds["double"] |= bool(np.any((pos < 2 * lo - hi) | (pos > 2 * hi - lo)))
        return _reflect(pos, lo, hi)

    return reflect


def _case_outputs(simulate, name, workdir, log=True):
    """``kpis.json`` and, with ``log``, ``events.csv`` of one reference
    case run by ``simulate``."""
    config, truth, grid, servers, _ = REFERENCE_CASES[name]
    workdir.mkdir(exist_ok=True)
    events = workdir / "events.csv"
    kpis = simulate(config, truth, grid, servers, str(events) if log else None)
    save_kpi_set(kpis, workdir / "kpis.json")
    return (workdir / "kpis.json").read_bytes(), events.read_bytes() if log else None


@pytest.fixture(scope="module")
def reference_outputs(tmp_path_factory):
    """The outputs of :func:`reference_simulation` per reference case,
    each run once."""
    outputs = {}

    def get(name):
        if name not in outputs:
            workdir = tmp_path_factory.mktemp(name)
            outputs[name] = _case_outputs(reference_simulation, name, workdir)
        return outputs[name]

    return get


class TestReferenceSimulation:
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_packed_loop_matches_the_reference(
        self, tmp_path, monkeypatch, reference_outputs, name
    ):
        folds = {"calls": 0, "corner": False, "double": False}
        monkeypatch.setattr(sim, "_reflect", _recording_reflect(folds))
        kpis, events = reference_outputs(name)
        assert _case_outputs(run_simulation, name, tmp_path / "packed") == (kpis, events)
        assert _case_outputs(run_simulation, name, tmp_path / "quiet", log=False)[0] == kpis
        _, rows = read_events(tmp_path / "packed" / "events.csv")
        assert REFERENCE_CASES[name][-1](rows, folds)

    # 7 divides no case's tick count; 10**9 ticks outlast every run.
    @pytest.mark.parametrize("ticks", [1, 7, 10**9])
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_block_size_leaves_the_outputs(
        self, tmp_path, monkeypatch, reference_outputs, name, ticks
    ):
        monkeypatch.setattr(sim, "_block_ticks", lambda config: ticks)
        assert _case_outputs(run_simulation, name, tmp_path) == reference_outputs(name)
        if name == "zero-arrival-ticks" and ticks == 7:
            _, rows = read_events(tmp_path / "events.csv")
            blocks = {int(r[0]) // 7 for r in rows if r[1] in ("arrive", "block")}
            assert len(blocks) < REFERENCE_CASES[name][0].n_ticks // 7, "no block without arrivals"

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_completion_chunks_leave_the_outputs(
        self, tmp_path, monkeypatch, reference_outputs, name
    ):
        # One entry: every tick that completes downloads starts a chunk of
        # just its completions, and every tick of more than one UE counts
        # its zone samples at once.
        monkeypatch.setattr(sim, "BUFFER_ENTRIES", 1)
        assert _case_outputs(run_simulation, name, tmp_path) == reference_outputs(name)

    # At 3 entries, zone samples are counted on most ticks and a tick's
    # keys often outgrow the buffer; most ticks start a completion chunk,
    # and a tick's completions can outgrow one. At 64, samples of many
    # ticks are counted together.
    @pytest.mark.parametrize("limit", [3, 64])
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_sample_buffers_leave_the_outputs(
        self, tmp_path, monkeypatch, reference_outputs, name, limit
    ):
        monkeypatch.setattr(sim, "BUFFER_ENTRIES", limit)
        assert _case_outputs(run_simulation, name, tmp_path) == reference_outputs(name)

    # At caps of 1, 2, 3 and 7 keys some moving cases hold a key for every
    # tick a download can last and the rest move tick by tick; the corner
    # bounces, full targets and handover contention also run in blocks of
    # 1 and 7 ticks, so tracks and moves meet block ends.
    @pytest.mark.parametrize(
        "name, cap, ticks",
        [(name, cap, None) for name in REFERENCE_CASES for cap in (1, 2, 3, 7)]
        + [
            (name, cap, ticks)
            for name in ("corner-bounces", "full-target", "handover-contention")
            for cap in (1, 2, 3, 7)
            for ticks in (1, 7)
        ],
    )
    def test_track_cap_leaves_the_outputs(
        self, tmp_path, monkeypatch, reference_outputs, name, cap, ticks
    ):
        monkeypatch.setattr(sim, "TRACK_CAP", cap)
        if ticks is not None:
            monkeypatch.setattr(sim, "_block_ticks", lambda config: ticks)
        assert _case_outputs(run_simulation, name, tmp_path) == reference_outputs(name)

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_no_download_outlives_the_lifetime_bound(self, reference_outputs, name):
        config = REFERENCE_CASES[name][0]
        bound = sim._lifetime(config, config.n_ticks + 1)
        arrived, longest = {}, 0
        for t, event, _, ue in csv.reader(io.StringIO(reference_outputs(name)[1].decode())):
            if event == "arrive":
                arrived[ue] = int(t)
            elif event == "complete":
                longest = max(longest, int(t) - arrived.pop(ue) + 1)
        assert longest <= bound
        if name == "desk-busy-300s":
            assert bound == longest == 10

    def test_lifetime_stops_at_the_cap(self):
        # 1e15 - 1e-300 is 1e15, so the drain never empties the file.
        config = SimConfig(mu0_bps=1e-300, file_size_bits=1e15)
        assert config.file_size_bits - config.mu0_bps == config.file_size_bits
        assert sim._lifetime(config, sim.TRACK_CAP) == sim.TRACK_CAP
        assert sim._lifetime(SimConfig(file_size_bits=1.0), sim.TRACK_CAP) == 1

    def test_block_ticks(self):
        # A block holds max(BLOCK_ARRIVALS, one tick's) arrivals in the
        # mean, and at least one tick.
        assert sim._block_ticks(SimConfig(arrival_rate=MAX_ARRIVALS_PER_TICK, duration_s=1e6)) == 1
        assert sim._block_ticks(SimConfig(arrival_rate=2.0 * BLOCK_ARRIVALS, duration_s=9.0)) == 1
        assert sim._block_ticks(SimConfig(arrival_rate=40.0, duration_s=3600.0)) == BLOCK_ARRIVALS // 40
        assert sim._block_ticks(SimConfig(arrival_rate=1.0, tick_s=4.0, duration_s=1e6)) == BLOCK_ARRIVALS // 4
        for rate, duration in ((0.0, 600.0), (1e-300, 1e6), (BLOCK_ARRIVALS / 10.0, 10.0)):
            config = SimConfig(arrival_rate=rate, duration_s=duration)
            assert sim._block_ticks(config) == config.n_ticks

    def test_event_log_writes_cell_ids_as_csv_writer_does(self, tmp_path):
        # csv.writer quotes an id holding a comma, a quote or a line
        # break; the log writes text as UTF-8.
        grid, servers = two_cell_corridor()
        ids = {"A": 'A,"1"', "B": "B\r\né"}
        cells = [
            replace(c, cell_id=ids[c.cell_id], neighbors=tuple(ids[n] for n in c.neighbors))
            for c in grid.cells
        ]
        grid = CoverageGrid(grid.spec, cells, grid.rsrp, grid.q_rxlevmin)
        config = replace(_corridor_case(30.0, 3, 6)[0], duration_s=120.0)
        logs = []
        for simulate in (reference_simulation, run_simulation):
            path = tmp_path / f"{simulate.__name__}.csv"
            simulate(config, uniform_truth(8, 25.0), grid, servers, str(path))
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]
        assert b',"A,""1""",' in logs[1] and b',"B\r\n\xc3\xa9",' in logs[1]

    @pytest.mark.parametrize("seed", range(20))
    def test_one_arrival_draw_is_the_three_draws(self, seed):
        # run_simulation draws poisson() and then random(3n) per tick, all
        # of a block's ticks before its first, where the reference draws
        # poisson(), random(n), random(n) and uniform(0, 2*pi, n) at the
        # start of each tick.
        merged, separate = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            n = int(merged.poisson(40.0))
            assert n == int(separate.poisson(40.0))
            draw = merged.random(3 * n)
            assert draw[:n].tobytes() == separate.random(n).tobytes()
            assert draw[n : 2 * n].tobytes() == separate.random(n).tobytes()
            heading = draw[2 * n :] * (2.0 * math.pi)
            assert heading.tobytes() == separate.uniform(0.0, 2.0 * math.pi, n).tobytes()


def _handover_case(sectors: int) -> CoverageGrid:
    """Desk's seven sites with ``sectors`` sectors each on a 12-pixel map.
    The levels lie on a 1 dB lattice, so neighbors tie; about one in five
    is NaN, as is every level of cell 0, and the last cell has no
    neighbors. With 26 sectors the middle site's cells have 181
    neighbors each."""
    desk = load_scenario_config(DESK_CONFIG)
    config = replace(
        desk, spec=GridSpec(12, 125.0), layout=replace(desk.layout, sectors_per_site=sectors)
    )
    cells = build_cells(config)
    cells[-1] = replace(cells[-1], neighbors=())
    rng = np.random.default_rng(sectors)
    rsrp = rng.integers(-110, -80, size=(len(cells), 12, 12)).astype(float)
    rsrp[rng.random(rsrp.shape) < 0.2] = np.nan
    rsrp[0] = np.nan
    return CoverageGrid(config.spec, cells, rsrp, config.q_rxlevmin_dbm)


class TestHandoverSlots:
    @pytest.mark.parametrize("margin", [0.0, 6.0])
    @pytest.mark.parametrize("sectors", [1, 3, 26])
    def test_table_matches_the_reference(self, sectors, margin):
        grid = _handover_case(sectors)
        neighbors = _neighbor_matrix(grid)
        rsrp = grid.rsrp.reshape(grid.n_cells, -1)
        got = _handover_slots(rsrp, neighbors, margin)
        want = _reference_handover_slots(rsrp, neighbors, margin)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.dtype == (np.int16 if neighbors.shape[1] > 127 else np.int8)
        assert (neighbors.shape[1] > 127) == (sectors == 26)
        # A NaN serving level triggers on any neighbor level; a cell
        # without neighbors never triggers.
        assert (got[0] >= 0).any() and (got[-1] == -1).all()
        # Some triggers pick the first of several equally strong neighbors.
        ties = 0
        for cell, nbrs in enumerate(neighbors):
            levels = rsrp[nbrs[nbrs >= 0]]
            top = np.max(np.where(np.isnan(levels), -math.inf, levels), axis=0, initial=-math.inf)
            ties += np.count_nonzero(((levels == top).sum(axis=0) > 1) & (got[cell] >= 0))
        assert ties > 0


def test_static_desk_agrees_with_the_oracle():
    """Without movement no UE hands over, and at 5 arrivals/s no desk cell
    fills, so a cell's TA and AoA samples are draws from the truth mass of
    its pixels, as the oracle's fractions are. Each fraction must lie
    within 5 standard errors of the oracle's, for n = rate * duration *
    the cell's truth mass samples and a variance floored at 1/n.

    Where the models differ, the run shows it: the simulator's neighbor
    level counts handover reports, so it is empty; its load time is the
    share of full ticks, so it is zero; and its rates follow the load
    alone, so a 1e6-bit file under mu0 = 2e6 bit/s takes one tick in
    every cell, where the oracle's AMT follows RSRP and varies."""
    desk = load_scenario_config(DESK_CONFIG)
    scenario = build_scenario(desk)
    config = replace(desk.sim, mobile_fraction=0.0, arrival_rate=5.0, duration_s=4 * 3600.0)
    simulated = run_simulation(config, scenario.truth, scenario.grid, scenario.servers)
    oracle = oracle_kpis(scenario.truth, scenario.grid, scenario.servers, desk.oracle)
    worst = 0.0
    completing = 0
    for k, cell in enumerate(scenario.grid.cells):
        sim_cell, oracle_cell = simulated.cells[cell.cell_id], oracle.cells[cell.cell_id]
        assert sim_cell.load_time == 0.0
        assert sim_cell.neighbor_level == {}
        if sim_cell.amt_bps:
            completing += 1
            # The harmonic mean sums n reciprocals, so it is 1e6 to rounding.
            assert sim_cell.amt_bps == 1e6
            assert sim_cell.hmt_bps == pytest.approx(1e6, rel=1e-12)
        mass = scenario.truth.values[scenario.servers.best == k].sum()
        n = config.arrival_rate * config.duration_s * mass
        for got, want in ((sim_cell.ta, oracle_cell.ta), (sim_cell.aoa, oracle_cell.aoa)):
            se = np.sqrt(np.maximum(want * (1.0 - want), 1.0 / n) / n)
            worst = max(worst, float(np.max(np.abs(got - want) / se)))
    assert worst <= 5.0
    assert completing == len(scenario.grid.cells)
    assert len({oracle.cells[c.cell_id].amt_bps for c in scenario.grid.cells}) > 1
