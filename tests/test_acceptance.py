"""Release acceptance checks.

Eight criteria, one test each, covering oracle consistency, solver
optimality, fusion quality on the committed desk scenario, smoothing
invariants, simulator agreement and a set of hand-computed worked
examples. Each
test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and enforces the stated
tolerance and runtime bounds.
"""

import math
import time

import numpy as np
import pytest

from conftest import DESK_CONFIG, SIM_CONFIG, constant_grid, random_truth, single_cell_grid
from hotloc.grid import aoa_zone_layer, compute_server_maps, ta_zone_layer
from hotloc.kpi import CellKpis, KpiSet, oracle_kpis, save_kpi_set
from hotloc.localize import (
    LocalizerParams,
    step1_ta,
    step2_aoa,
    step3_neighbor,
    step5_throughput,
)
from hotloc.nnls import DesignSystem, build_system, solve_nnls
from hotloc.pipeline import run_pipeline
from hotloc.scenario import build_scenario, load_scenario_config
from hotloc.sim import run_simulation
from hotloc.smoothing import smooth_grid
from hotloc.evaluate import match_and_measure, HotspotPeak


def report(criterion: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert not failures, "; ".join(str(f) for f in failures)


def empty_kpis_except(grid, **filled):
    cells = {c.cell_id: filled.get(c.cell_id, CellKpis.empty()) for c in grid.cells}
    return KpiSet(cells=cells)


class TestCriterion1OracleRoundTrip:
    """Steps 1-3 painted from oracle KPIs are piecewise constant on their
    zone regions and equal the truth-mass fractions computed by brute
    force, for 20 random truth maps, in under 10 seconds."""

    def brute_force_maps(self, truth_values, grid, servers):
        m = grid.spec.m
        expected = [np.zeros((m, m)) for _ in range(3)]
        regions = [[] for _ in range(3)]
        for k, cell in enumerate(grid.cells):
            mask = servers.best == k
            if not mask.any():
                continue
            total = truth_values[mask].sum()
            rings = ta_zone_layer(grid.spec, cell)
            zones = aoa_zone_layer(grid.spec, cell)
            for r in range(6):
                region = mask & (rings == r)
                if region.any():
                    regions[0].append(region)
                    if total > 0:
                        expected[0][region] = truth_values[region].sum() / total
            for z in (-1, 0, 1):
                region = mask & (zones == z)
                if region.any():
                    regions[1].append(region)
                    if total > 0:
                        expected[1][region] = truth_values[region].sum() / total
            nb_idx = [grid.cell_index(n) for n in cell.neighbors]
            nb_mass = {
                n: truth_values[mask & (servers.second == n)].sum() for n in nb_idx
            }
            nb_total = sum(nb_mass.values())
            for n in nb_idx:
                region = mask & (servers.second == n)
                if region.any():
                    regions[2].append(region)
                    if nb_total > 0:
                        expected[2][region] = nb_mass[n] / nb_total
        return expected, regions

    def test_criterion_1(self):
        start = time.perf_counter()
        failures = []
        scenario = build_scenario(load_scenario_config(SIM_CONFIG))
        grid, servers = scenario.grid, scenario.servers
        rng = np.random.default_rng(1001)
        worst = 0.0
        for trial in range(20):
            truth = random_truth(grid.spec, rng, sparse=trial % 2 == 1)
            kpis = oracle_kpis(truth, grid, servers, scenario.config.oracle)
            painted = [
                step1_ta(kpis, grid, servers).values,
                step2_aoa(kpis, grid, servers).values,
                step3_neighbor(kpis, grid, servers).values,
            ]
            expected, regions = self.brute_force_maps(truth.values, grid, servers)
            for step, (out, exp, regs) in enumerate(
                zip(painted, expected, regions), start=1
            ):
                for region in regs:
                    vals = out[region]
                    if vals.max() != vals.min():
                        failures.append(
                            f"trial {trial}: step {step} not constant on a zone region"
                        )
                err = np.abs(out - exp).max()
                worst = max(worst, err)
                if err > 1e-9:
                    failures.append(
                        f"trial {trial}: step {step} off brute force by {err:.3g}"
                    )
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.1f} s >= 10 s")
        report(
            1,
            failures,
            f"20 truth maps, max fraction error {worst:.2e}, {elapsed:.2f} s",
        )


class TestCriterion2NnlsOracle:
    """On 50 random 100x5 systems the solver is at least as good as an
    independent 0.01-step lattice descent, satisfies its optimality
    conditions at 1e-9, and matches the unconstrained solution whenever
    that is non-negative, in under 10 seconds."""

    def lattice_descent(self, A, b, start, step=0.01):
        x = np.round(np.maximum(start, 0.0) / step) * step
        col_sq = (A * A).sum(axis=0)
        hi = max(2.0, float(x.max()) + 1.0)
        ts = np.arange(0.0, hi + step / 2, step)
        improved = True
        while improved:
            improved = False
            for i in range(A.shape[1]):
                r_full = b - A @ x
                base = float(r_full @ r_full)
                d = ts - x[i]
                vals = base - 2.0 * d * float(A[:, i] @ r_full) + d * d * col_sq[i]
                k = int(np.argmin(vals))
                if ts[k] != x[i] and vals[k] < base - 1e-15:
                    x[i] = ts[k]
                    improved = True
        return float(np.linalg.norm(A @ x - b))

    def test_criterion_2(self):
        start = time.perf_counter()
        failures = []
        rng = np.random.default_rng(2002)
        n_exact = 0
        for trial in range(50):
            A = rng.random((100, 5))
            if trial % 3 == 0:
                b = A @ (rng.random(5) + 0.2)
            else:
                b = A @ (rng.random(5) * 0.5) + rng.standard_normal(100)
            system = DesignSystem(A=A, b=b)
            result = solve_nnls(system)

            gradient = A.T @ (A @ result.x - b)
            active = result.x == 0.0
            if active.any() and gradient[active].min() < -1e-9:
                failures.append(f"trial {trial}: active gradient {gradient[active].min():.3g}")
            if (~active).any() and np.abs(gradient[~active]).max() > 1e-9:
                failures.append(
                    f"trial {trial}: free gradient {np.abs(gradient[~active]).max():.3g}"
                )

            lstsq = np.linalg.lstsq(A, b, rcond=None)[0]
            lattice = self.lattice_descent(A, b, lstsq.copy())
            if result.residual > lattice + 1e-9:
                failures.append(
                    f"trial {trial}: residual {result.residual:.9g} > lattice {lattice:.9g}"
                )
            if (lstsq >= 0).all():
                n_exact += 1
                if np.abs(result.x - lstsq).max() > 1e-8:
                    failures.append(
                        f"trial {trial}: unconstrained mismatch "
                        f"{np.abs(result.x - lstsq).max():.3g}"
                    )
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.1f} s >= 10 s")
        report(
            2,
            failures,
            f"50 systems, {n_exact} with non-negative unconstrained optimum, "
            f"{elapsed:.2f} s",
        )


class TestCriterion3FitBeatsUniform:
    """On the desk scenario the fitted importance vector attains a
    residual no worse than uniform weights (1/5 each). Exact inequality."""

    def test_criterion_3(self, desk_run):
        failures = []
        system = build_system(desk_run.kpi_maps, desk_run.potential_map)
        fitted = float(np.linalg.norm(system.A @ np.array(desk_run.x.values) - system.b))
        uniform = float(np.linalg.norm(system.A @ np.full(5, 0.2) - system.b))
        if not fitted <= uniform:
            failures.append(f"fitted {fitted!r} > uniform {uniform!r}")
        report(
            3,
            failures,
            f"fitted residual {fitted:.6f} <= uniform residual {uniform:.6f}",
        )


class TestCriterion4SmoothingImproves:
    """On a fresh desk pipeline run the smoothed estimate localizes at
    least as well as the raw fusion and its mean matched peak distance
    stays within 75 m (3 pixels), in under 60 seconds."""

    def test_criterion_4(self, tmp_path):
        start = time.perf_counter()
        config = load_scenario_config(DESK_CONFIG)
        result = run_pipeline(config, tmp_path / "desk", kpi_source="oracle")
        elapsed = time.perf_counter() - start
        failures = []
        means = {k: v.mean_distance_m for k, v in result.report.variants.items()}
        if not means["step7"] <= means["step6"]:
            failures.append(f"step7 {means['step7']:.2f} m > step6 {means['step6']:.2f} m")
        if not means["step7"] <= 75.0:
            failures.append(f"step7 {means['step7']:.2f} m > 75 m")
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f} s >= 60 s")
        report(
            4,
            failures,
            f"step6 {means['step6']:.1f} m, step7 {means['step7']:.1f} m, "
            f"{elapsed:.1f} s",
        )


class TestCriterion5MultiKpiBeatsTaOnly:
    """On the desk scenario the all-KPI fused estimate detects at least
    as much of the top-p traffic mass as the TA-only estimate for
    p in {0.5%, 1%, 2%, 5%}."""

    def test_criterion_5(self, desk_run):
        failures = []
        p_list = desk_run.scenario.config.evaluation.p_list
        assert set(p_list) == {0.005, 0.01, 0.02, 0.05}
        det_all = desk_run.report.variants["step6"].detection
        det_ta = desk_run.report.variants["ta_only"].detection
        margins = []
        for p in sorted(p_list):
            margin = det_all[p] - det_ta[p]
            margins.append(f"p={p}: {margin:+.2e}")
            if not det_all[p] >= det_ta[p]:
                failures.append(
                    f"p={p}: all-KPI {det_all[p]:.6f} < TA-only {det_ta[p]:.6f}"
                )
        report(5, failures, "; ".join(margins))


class TestCriterion6SmoothingInvariants:
    """Constant maps are exact fixed points of the smoother, outputs
    respect pixelwise min/max bounds exactly, and the truncated kernel
    stays within 1e-9 relative of the full untruncated sum on 20x20
    maps."""

    def full_sum(self, values, h):
        m = values.shape[0]
        delta = 1.0 / (m - 1)
        idx = np.arange(m)
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        fi, fj = ii.reshape(-1), jj.reshape(-1)
        d2 = (
            (fi[:, None] - fi[None, :]) ** 2 + (fj[:, None] - fj[None, :]) ** 2
        ) * delta**2
        kernel = np.exp(-d2 / (2.0 * h))
        out = kernel @ values.reshape(-1) / kernel.sum(axis=1)
        return out.reshape(m, m)

    def test_criterion_6(self):
        failures = []
        rng = np.random.default_rng(6006)
        worst_rel = 0.0
        for c in (1.0, 0.5, 4.0, 0.25):
            out = smooth_grid(np.full((20, 20), c), 1e-3)
            if not (out == c).all():
                failures.append(f"constant {c} not a fixed point")
        for _ in range(10):
            values = rng.random((20, 20))
            out = smooth_grid(values, 1e-3)
            if out.min() < values.min() or out.max() > values.max():
                failures.append("min/max bound violated")
            oracle = self.full_sum(values, 1e-3)
            rel = np.abs(out - oracle) / np.abs(oracle)
            worst_rel = max(worst_rel, float(rel.max()))
            if rel.max() > 1e-9:
                failures.append(f"truncated vs full sum off by {rel.max():.3g}")
        report(6, failures, f"worst truncation error {worst_rel:.2e} relative")


class TestCriterion7SimulatorMatchesOracle:
    """With static UEs and ample capacity, 600 simulated seconds on the
    3-cell layout reproduce the oracle's TA and AoA distributions within
    total variation 0.1 per cell, and reruns under one seed are
    byte-identical. Runtime under 30 seconds."""

    @staticmethod
    def tv(p, q):
        return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())

    def test_criterion_7(self, tmp_path):
        start = time.perf_counter()
        failures = []
        config = load_scenario_config(SIM_CONFIG)
        assert config.sim.mobile_fraction == 0.0
        scenario = build_scenario(config)
        oracle = oracle_kpis(
            scenario.truth, scenario.grid, scenario.servers, config.oracle
        )
        outputs = []
        for run in ("a", "b"):
            log = tmp_path / f"events-{run}.csv"
            kpis = run_simulation(
                config.sim, scenario.truth, scenario.grid, scenario.servers, str(log)
            )
            path = tmp_path / f"kpis-{run}.json"
            save_kpi_set(kpis, path)
            outputs.append((path.read_bytes(), log.read_bytes()))
        if outputs[0] != outputs[1]:
            failures.append("rerun with the same seed is not byte-identical")

        worst_tau = worst_phi = 0.0
        n_cells = 0
        for cell_id, ock in oracle.cells.items():
            sck = kpis.cells[cell_id]
            if ock.ta.sum() == 0:
                continue
            n_cells += 1
            if sck.ta.sum() == 0:
                failures.append(f"{cell_id}: simulator saw no traffic")
                continue
            tau = self.tv(ock.ta, sck.ta)
            phi = self.tv(ock.aoa, sck.aoa)
            worst_tau = max(worst_tau, tau)
            worst_phi = max(worst_phi, phi)
            if tau > 0.1:
                failures.append(f"{cell_id}: TA total variation {tau:.3f} > 0.1")
            if phi > 0.1:
                failures.append(f"{cell_id}: AoA total variation {phi:.3f} > 0.1")
        elapsed = time.perf_counter() - start
        if n_cells != 3:
            failures.append(f"expected 3 active cells, saw {n_cells}")
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.1f} s >= 30 s")
        report(
            7,
            failures,
            f"{n_cells} cells, worst TV: TA {worst_tau:.4f}, AoA {worst_phi:.4f}, "
            f"{elapsed:.2f} s",
        )


class TestCriterion8WorkedExamples:
    """The hand-computed worked examples reproduce exactly: the four-ring
    TA distribution read-out, a fixed set of eight neighbor levels, the
    44.72 m peak distance and the 0.6/0.4 throughput-gap split."""

    def ta_distribution_ok(self):
        grid, servers = single_cell_grid(m=8, site=(12.5, 12.5))
        kpis = empty_kpis_except(
            grid,
            BS01A=CellKpis(
                ta=np.array([0.3, 0.2, 0.4, 0.1, 0.0, 0.0]),
                aoa=np.array([0.0, 1.0, 0.0]),
                neighbor_level={},
                load_time=0.0,
                amt_bps=0.0,
                hmt_bps=0.0,
            ),
        )
        out = step1_ta(kpis, grid, servers).values
        # Probe one pixel per ring; (4, 0) sits exactly 100 m out.
        return (
            out[0, 0] == 0.3
            and out[4, 0] == 0.2
            and out[0, 7] == 0.4
            and out[7, 7] == 0.1
        )

    def neighbor_levels_ok(self):
        levels = {
            "BS3A": 0.2478,
            "BS7B": 0.1371,
            "BS3C": 0.1364,
            "BS6C": 0.1298,
            "BS2C": 0.1038,
            "BS2A": 0.1007,
            "BS3B": 0.0759,
            "BS4A": 0.0685,
        }
        neighbor_ids = list(levels)
        cells = [("BS1A", (100.0, 100.0), 0.0, -70.0, tuple(neighbor_ids))]
        for column, nb in enumerate(neighbor_ids):
            layer = np.full((8, 8), -120.0)
            layer[:, column] = -80.0
            cells.append((nb, (100.0, 100.0), 0.0, layer, ()))
        grid = constant_grid(cells, m=8)
        servers = compute_server_maps(grid)
        kpis = empty_kpis_except(
            grid,
            BS1A=CellKpis(
                ta=np.zeros(6),
                aoa=np.zeros(3),
                neighbor_level=dict(levels),
                load_time=0.0,
                amt_bps=0.0,
                hmt_bps=0.0,
            ),
        )
        out = step3_neighbor(kpis, grid, servers).values
        return all(
            (out[:, column] == levels[nb]).all()
            for column, nb in enumerate(neighbor_ids)
        )

    def peak_distance_ok(self):
        generated = [HotspotPeak(1100.0, 960.0, 1.0), HotspotPeak(760.0, 940.0, 1.0)]
        estimated = [HotspotPeak(1140.0, 940.0, 1.0), HotspotPeak(760.0, 900.0, 1.0)]
        result = match_and_measure(generated, estimated)
        dists = sorted(p.distance_m for p in result.pairs)
        return (
            dists[0] == 40.0
            and dists[1] == math.sqrt(2000.0)
            and round(dists[1], 2) == 44.72
        )

    def throughput_split_ok(self):
        layer = np.full((4, 4), -100.0)
        layer[:2] = -80.0
        grid = constant_grid([("A", (0.0, 0.0), 0.0, layer, ())], m=4)
        servers = compute_server_maps(grid)
        kpis = empty_kpis_except(
            grid,
            A=CellKpis(
                ta=np.zeros(6),
                aoa=np.zeros(3),
                neighbor_level={},
                load_time=0.0,
                amt_bps=8.0,
                hmt_bps=2.0,
            ),
        )
        params = LocalizerParams(rsrp0_dbm=-90.0, mu0_bps=10.0)
        out = step5_throughput(kpis, grid, servers, params).values
        return (out[:2] == 0.6).all() and (out[2:] == 0.4).all()

    def test_criterion_8(self):
        checks = {
            "TA distribution": self.ta_distribution_ok(),
            "neighbor levels": self.neighbor_levels_ok(),
            "peak distance 44.72 m": self.peak_distance_ok(),
            "throughput split 0.6/0.4": self.throughput_split_ok(),
        }
        failures = [name for name, ok in checks.items() if not ok]
        report(8, failures, ", ".join(f"{name} ok" for name in checks))
