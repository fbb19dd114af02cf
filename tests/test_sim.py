import csv
import hashlib
import json
import math

from pathlib import Path

import numpy as np
import pytest

from conftest import SIM_CONFIG, constant_grid, single_cell_grid
from hotloc.grid import GridSpec, compute_server_maps
from hotloc.kpi import LABEL_TRUTH, WeightMap, save_kpi_set
from hotloc.pipeline import run_pipeline
from hotloc.scenario import load_scenario_config
from hotloc.sim import KPI_SOURCE_SIM, SimConfig, _reflect, run_simulation


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
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig(arrival_rate=1.0, **{name: value})

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


class TestRunSimulation:
    def small_setup(self, m=8):
        grid, servers = single_cell_grid(m=m, site=(12.5, 12.5), level=-80.0)
        return grid, servers

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
