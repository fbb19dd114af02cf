import re

import numpy as np
import pytest

from conftest import constant_grid, single_cell_grid
from hotloc.grid import compute_server_maps
from hotloc.kpi import KPI_LABELS, CellKpis, KpiSet, WeightMap
from hotloc.localize import (
    ImportanceVector,
    LocalizerParams,
    compute_kpi_maps,
    localize,
    step1_ta,
    step2_aoa,
    step3_neighbor,
    step4_load,
    step5_throughput,
    step6_combine,
    step7_smooth,
)


def kpi_set_for(grid, **overrides):
    cells = {}
    for cell in grid.cells:
        cells[cell.cell_id] = overrides.get(cell.cell_id, CellKpis.empty())
    return KpiSet(cells=cells)


def cell_kpis(ta=None, aoa=None, neighbor_level=None, load=0.0, amt=0.0, hmt=0.0):
    return CellKpis(
        ta=np.asarray(ta if ta is not None else np.zeros(6), dtype=np.float64),
        aoa=np.asarray(aoa if aoa is not None else np.zeros(3), dtype=np.float64),
        neighbor_level=neighbor_level or {},
        load_time=load,
        amt_bps=amt,
        hmt_bps=hmt,
    )


PARAMS = LocalizerParams()
UNIFORM = ImportanceVector((0.2,) * 5)


class TestImportanceVector:
    def test_validation(self):
        with pytest.raises(ValueError, match="5 entries"):
            ImportanceVector((1.0, 2.0))
        with pytest.raises(ValueError, match="non-negative"):
            ImportanceVector((0.1, -0.2, 0.3, 0.4, 0.5))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="must not all be zero"):
            ImportanceVector((0.0, 0.0, 0.0, 0.0, 0.0))


class TestStep1Ta:
    def test_worked_ring_fraction(self):
        # Fractions 30/20/40/10 percent over the first four rings; a pixel
        # about 100 m out sits in ring 1 and must read the 20 percent.
        grid, servers = single_cell_grid(m=8, site=(12.5, 12.5))
        kpis = kpi_set_for(
            grid,
            BS01A=cell_kpis(ta=[0.3, 0.2, 0.4, 0.1, 0.0, 0.0], aoa=[0.0, 1.0, 0.0]),
        )
        out = step1_ta(kpis, grid, servers)
        # Pixel (4, 0) center (112.5, 12.5): exactly 100 m from the site.
        assert out.values[4, 0] == 0.2
        assert out.values[0, 0] == 0.3
        assert out.label == KPI_LABELS[0]

    def test_piecewise_constant_on_rings(self):
        grid, servers = single_cell_grid(m=8, site=(12.5, 12.5))
        kpis = kpi_set_for(
            grid, BS01A=cell_kpis(ta=[0.5, 0.25, 0.125, 0.0625, 0.0625, 0.0])
        )
        out = step1_ta(kpis, grid, servers)
        from hotloc.grid import ta_zone_layer

        zones = ta_zone_layer(grid.spec, grid.cells[0])
        for ring in range(6):
            region = out.values[zones == ring]
            if region.size:
                assert (region == region[0]).all()

    def test_missing_cell_kpis_rejected(self):
        grid, servers = single_cell_grid()
        with pytest.raises(ValueError, match="exactly the grid's cells"):
            compute_kpi_maps(KpiSet(cells={}), grid, servers, PARAMS)


class TestStep2Aoa:
    def test_worked_sector_fraction(self):
        # 30/40/30 percent over zones (-1, 0, +1): boresight pixels read 40.
        grid, servers = single_cell_grid(m=8, site=(12.5, 12.5), azimuth=0.0)
        kpis = kpi_set_for(grid, BS01A=cell_kpis(aoa=[0.3, 0.4, 0.3]))
        out = step2_aoa(kpis, grid, servers)
        # Pixel (0, 4) is due North of the site: zone 0.
        assert out.values[0, 4] == 0.4
        # Pixel (4, 0) is due East: zone +1.
        assert out.values[4, 0] == 0.3


class TestStep3Neighbor:
    def test_level_of_second_best_server(self):
        a = np.full((6, 6), -70.0)
        b = np.full((6, 6), -120.0)
        b[:3] = -80.0
        c = np.full((6, 6), -120.0)
        c[3:] = -80.0
        grid = constant_grid(
            [
                ("A", (0.0, 0.0), 0.0, a, ("B", "C")),
                ("B", (0.0, 0.0), 0.0, b, ()),
                ("C", (0.0, 0.0), 0.0, c, ()),
            ],
            m=6,
        )
        servers = compute_server_maps(grid)
        kpis = kpi_set_for(
            grid, A=cell_kpis(neighbor_level={"B": 0.75, "C": 0.25})
        )
        out = step3_neighbor(kpis, grid, servers)
        assert (out.values[:3] == 0.75).all()
        assert (out.values[3:] == 0.25).all()

    def test_unlisted_second_best_scores_zero(self):
        grid = constant_grid(
            [
                ("A", (0.0, 0.0), 0.0, -70.0, ("C",)),
                ("B", (0.0, 0.0), 0.0, -80.0, ()),
                ("C", (0.0, 0.0), 0.0, -90.0, ()),
            ],
            m=4,
        )
        servers = compute_server_maps(grid)
        kpis = kpi_set_for(grid, A=cell_kpis(neighbor_level={"C": 1.0}))
        out = step3_neighbor(kpis, grid, servers)
        # Second-best everywhere is B, which A does not list.
        assert (out.values == 0.0).all()

    def test_no_second_best_scores_zero(self):
        grid, servers = single_cell_grid()
        kpis = kpi_set_for(grid)
        out = step3_neighbor(kpis, grid, servers)
        assert (out.values == 0.0).all()


class TestStep4Load:
    def overlap_grid(self, rho_a, rho_b, b_level):
        a = np.full((4, 4), -80.0)
        b = np.full((4, 4), b_level)
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, a, ("B",)), ("B", (0.0, 0.0), 0.0, b, ("A",))],
            m=4,
        )
        servers = compute_server_maps(grid)
        kpis = kpi_set_for(
            grid,
            A=cell_kpis(ta=[1, 0, 0, 0, 0, 0], aoa=[0, 1, 0], load=rho_a),
            B=cell_kpis(ta=[1, 0, 0, 0, 0, 0], aoa=[0, 1, 0], load=rho_b),
        )
        return grid, servers, kpis

    def test_average_over_similar_nearby_cells(self):
        grid, servers, kpis = self.overlap_grid(0.8, 0.75, b_level=-82.0)
        out = step4_load(kpis, grid, servers, PARAMS)
        np.testing.assert_allclose(out.values, (0.8 + 0.75) / 2)

    def test_below_congestion_threshold_is_zero(self):
        grid, servers, kpis = self.overlap_grid(0.5, 0.75, b_level=-82.0)
        out = step4_load(kpis, grid, servers, PARAMS)
        assert (out.values == 0.0).all()

    def test_dissimilar_load_excluded(self):
        grid, servers, kpis = self.overlap_grid(0.8, 0.3, b_level=-82.0)
        out = step4_load(kpis, grid, servers, PARAMS)
        np.testing.assert_allclose(out.values, 0.8)

    def test_rsrp_gap_beyond_margin_excluded(self):
        grid, servers, kpis = self.overlap_grid(0.8, 0.75, b_level=-95.0)
        out = step4_load(kpis, grid, servers, PARAMS)
        np.testing.assert_allclose(out.values, 0.8)

    def test_uncovered_neighbor_pixels_excluded(self):
        b = np.full((4, 4), np.nan)
        b[:2] = -82.0
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, -80.0, ("B",)), ("B", (0.0, 0.0), 0.0, b, ("A",))],
            m=4,
        )
        servers = compute_server_maps(grid)
        kpis = kpi_set_for(
            grid,
            A=cell_kpis(ta=[1, 0, 0, 0, 0, 0], aoa=[0, 1, 0], load=0.8),
            B=cell_kpis(load=0.75),
        )
        out = step4_load(kpis, grid, servers, PARAMS)
        np.testing.assert_allclose(out.values[:2], (0.8 + 0.75) / 2)
        np.testing.assert_allclose(out.values[2:], 0.8)


class TestStep5Throughput:
    def center_edge_grid(self):
        layer = np.full((4, 4), -100.0)
        layer[:2] = -80.0
        grid = constant_grid([("A", (0.0, 0.0), 0.0, layer, ())], m=4)
        return grid, compute_server_maps(grid)

    def test_worked_gap_split(self):
        grid, servers = self.center_edge_grid()
        kpis = kpi_set_for(grid, A=cell_kpis(amt=8.0, hmt=2.0))
        params = LocalizerParams(rsrp0_dbm=-90.0, mu0_bps=10.0)
        out = step5_throughput(kpis, grid, servers, params)
        assert (out.values[:2] == 0.6).all()
        assert (out.values[2:] == 0.4).all()

    def test_equal_means_mark_cell_edge(self):
        grid, servers = self.center_edge_grid()
        kpis = kpi_set_for(grid, A=cell_kpis(amt=5.0, hmt=5.0))
        params = LocalizerParams(rsrp0_dbm=-90.0, mu0_bps=10.0)
        out = step5_throughput(kpis, grid, servers, params)
        assert (out.values[:2] == 0.0).all()
        assert (out.values[2:] == 1.0).all()

    def test_threshold_tie_counts_as_center(self):
        grid, servers = self.center_edge_grid()
        kpis = kpi_set_for(grid, A=cell_kpis(amt=8.0, hmt=2.0))
        params = LocalizerParams(rsrp0_dbm=-80.0, mu0_bps=10.0)
        out = step5_throughput(kpis, grid, servers, params)
        assert (out.values[:2] == 0.6).all()

    def test_default_threshold_is_cell_median(self):
        grid, servers = self.center_edge_grid()
        kpis = kpi_set_for(grid, A=cell_kpis(amt=8.0, hmt=2.0))
        params = LocalizerParams(mu0_bps=10.0)
        out = step5_throughput(kpis, grid, servers, params)
        # Median of the two-level layer lands between; the strong half is
        # center, the weak half edge.
        assert (out.values[:2] == 0.6).all()
        assert (out.values[2:] == 0.4).all()

    def test_gap_clamped_to_unit(self):
        grid, servers = self.center_edge_grid()
        kpis = kpi_set_for(grid, A=cell_kpis(amt=25.0, hmt=2.0))
        params = LocalizerParams(rsrp0_dbm=-90.0, mu0_bps=10.0)
        out = step5_throughput(kpis, grid, servers, params)
        assert (out.values[:2] == 1.0).all()
        assert (out.values[2:] == 0.0).all()

    def test_inverted_means_rejected(self):
        grid, servers = self.center_edge_grid()
        kpis = kpi_set_for(grid, A=cell_kpis(amt=2.0, hmt=8.0))
        with pytest.raises(ValueError, match=r"cell 'A': throughputs need 0 <= hmt <= amt"):
            compute_kpi_maps(kpis, grid, servers, PARAMS)


class TestStep6Combine:
    def maps_of(self, arrays, pixel=25.0):
        return tuple(
            WeightMap(np.asarray(a, dtype=np.float64), pixel, f"q{k + 1}")
            for k, a in enumerate(arrays)
        )

    def test_uniform_weights_on_identical_maps(self):
        base = np.arange(16.0).reshape(4, 4)
        maps = self.maps_of([base] * 5)
        out = step6_combine(maps, UNIFORM)
        np.testing.assert_allclose(out.values, base)

    def test_basis_vector_selects_one_map(self):
        rng = np.random.default_rng(31)
        arrays = [rng.random((4, 4)) for _ in range(5)]
        maps = self.maps_of(arrays)
        out = step6_combine(maps, ImportanceVector((1.0, 0.0, 0.0, 0.0, 0.0)))
        np.testing.assert_array_equal(out.values, arrays[0])

    def test_matches_weighted_sum_of_published_factors(self):
        rng = np.random.default_rng(32)
        arrays = [rng.random((6, 6)) for _ in range(5)]
        maps = self.maps_of(arrays)
        x = ImportanceVector((0.418, 0.2689, 0.2281, 0.0358, 0.0491))
        out = step6_combine(maps, x)
        expected = sum(w * a for w, a in zip(x.values, arrays))
        np.testing.assert_allclose(out.values, expected, rtol=1e-15)

    def test_all_zero_fuse_rejected(self):
        arrays = [np.ones((4, 4))] * 5
        arrays[1] = arrays[3] = np.zeros((4, 4))
        x = ImportanceVector((0.0, 0.5, 0.0, 2.0, 0.0))
        message = (
            "the fused map is zero everywhere: importance factors [0.0, 0.5, 0.0, 2.0, 0.0], "
            "all-zero KPI maps ['q2', 'q4']"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step6_combine(self.maps_of(arrays), x)

    def test_grid_mismatch_rejected(self):
        maps = list(self.maps_of([np.zeros((4, 4))] * 5))
        maps[3] = WeightMap(np.zeros((5, 5)), 25.0, "q4")
        with pytest.raises(ValueError, match="share one grid"):
            step6_combine(tuple(maps), UNIFORM)


class TestStep7Smooth:
    def test_uncovered_pixels_zeroed(self):
        fused = WeightMap(np.ones((6, 6)), 25.0, "fused")
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        out = step7_smooth(fused, PARAMS, uncovered_mask=mask)
        assert out.values[0, 0] == 0.0
        assert out.values[3, 3] > 0.0
        assert out.label == "smoothed"

    def test_full_localize_chains_steps(self):
        grid, servers = single_cell_grid(m=8, site=(12.5, 12.5))
        kpis = kpi_set_for(
            grid,
            BS01A=cell_kpis(
                ta=[0.5, 0.5, 0, 0, 0, 0], aoa=[0.2, 0.6, 0.2], load=0.9, amt=8.0, hmt=2.0
            ),
        )
        maps = compute_kpi_maps(kpis, grid, servers, PARAMS)
        mask = servers.uncovered_mask()
        result = localize(maps, UNIFORM, PARAMS, mask)
        assert result.fused.values.shape == (8, 8)
        fused = step6_combine(maps, UNIFORM)
        np.testing.assert_array_equal(result.fused.values, fused.values)
        smoothed = step7_smooth(fused, PARAMS, mask)
        np.testing.assert_array_equal(result.smoothed.values, smoothed.values)
