import json
import math
import re

import numpy as np
import pytest

from conftest import constant_grid, put_byte, random_truth, single_cell_grid
from hotloc.grid import GridSpec, compute_server_maps, ta_zone_layer, aoa_zone_layer
from hotloc.kpi import (
    CellKpis,
    HotspotZone,
    KpiSet,
    OracleParams,
    PotentialHotspotSpec,
    TrafficComponent,
    TrafficModel,
    WeightMap,
    generate_ground_truth,
    load_kpi_set,
    load_potential_spec,
    load_weight_map,
    oracle_kpis,
    rasterize_potential_map,
    save_kpi_set,
    save_potential_spec,
    save_weight_map,
    throughput_curve,
)


class TestCellKpis:
    def good(self):
        return CellKpis(
            ta=np.array([0.3, 0.2, 0.4, 0.1, 0.0, 0.0]),
            aoa=np.array([0.3, 0.4, 0.3]),
            neighbor_level={"B": 0.6, "C": 0.4},
            load_time=0.5,
            amt_bps=2e6,
            hmt_bps=1e6,
        )

    def test_valid_distributions_pass(self):
        self.good().validate()

    def test_empty_cell_is_valid(self):
        empty = CellKpis.empty()
        empty.validate()
        assert empty.is_empty()
        assert not self.good().is_empty()

    def test_partial_sum_rejected(self):
        bad = self.good()
        bad.ta = np.array([0.3, 0.2, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="sum to 0 or 1"):
            bad.validate()

    def test_negative_fraction_rejected(self):
        bad = self.good()
        bad.aoa = np.array([-0.1, 0.6, 0.5])
        with pytest.raises(ValueError):
            bad.validate()

    def test_hmt_above_amt_rejected(self):
        bad = self.good()
        bad.hmt_bps = 3e6
        with pytest.raises(ValueError, match="hmt"):
            bad.validate()

    def test_load_range_enforced(self):
        bad = self.good()
        bad.load_time = 1.2
        with pytest.raises(ValueError, match="load_time"):
            bad.validate()

    @pytest.mark.parametrize("field", ["amt_bps", "hmt_bps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_throughput_rejected(self, field, value):
        bad = self.good()
        setattr(bad, field, value)
        with pytest.raises(ValueError, match="throughputs must be finite"):
            bad.validate()

    def test_non_finite_neighbor_level_rejected(self):
        bad = self.good()
        bad.neighbor_level = {"B": np.nan, "C": 1.0}
        with pytest.raises(ValueError, match="neighbor_level fractions must be finite"):
            bad.validate()


class TestWeightMap:
    def test_rejects_negative_and_non_square(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightMap(np.array([[1.0, -0.5], [0.0, 0.0]]), GridSpec(2, 25.0), "w")
        with pytest.raises(ValueError, match="square"):
            WeightMap(np.zeros((2, 3)), GridSpec(2, 25.0), "w")
        with pytest.raises(ValueError, match="finite"):
            WeightMap(np.array([[1.0, np.nan], [0.0, 0.0]]), GridSpec(2, 25.0), "w")

    def test_normalized(self):
        wmap = WeightMap(np.array([[1.0, 3.0], [0.0, 0.0]]), GridSpec(2, 25.0), "w")
        normalized = wmap.normalized("n")
        assert normalized.total() == 1.0
        assert normalized.label == "n"
        with pytest.raises(ValueError, match="all-zero"):
            WeightMap(np.zeros((2, 2)), GridSpec(2, 25.0), "w").normalized()

    def test_pixel_center_uses_origin(self):
        wmap = WeightMap(np.zeros((2, 2)), GridSpec(2, 10.0, (100.0, 200.0)), "w")
        cx, cy = wmap.spec.center_coords()
        assert (cx[0, 1], cy[0, 1]) == (105.0, 215.0)

    def test_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        wmap = WeightMap(rng.random((6, 6)), GridSpec(6, 12.5, (3.25, -7.5)), "tag")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        loaded = load_weight_map(path)
        np.testing.assert_array_equal(loaded.values, wmap.values)
        assert loaded.pixel_size == wmap.pixel_size
        assert loaded.label == wmap.label
        assert loaded.origin == wmap.origin

    @pytest.mark.parametrize("label", ["x,y", "x\ny", "x\r"])
    def test_separator_in_label_rejected_before_writing(self, tmp_path, label):
        path = tmp_path / "map.csv"
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), label), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "row, replacement",
        [
            ("m,6", ""),
            ("pixel_size,12.5", "pixel_size,twelve"),
            ("label,tag", ""),
            ("origin,3.25,-7.5", "origin,3.25"),
            ("origin,3.25,-7.5", ""),
        ],
    )
    def test_missing_or_garbled_header_row_named(self, tmp_path, row, replacement):
        wmap = WeightMap(np.ones((6, 6)), GridSpec(6, 12.5, (3.25, -7.5)), "tag")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        text = path.read_text()
        assert f"\n{row}\n" in text
        path.write_text(text.replace(f"\n{row}\n", f"\n{replacement}\n" if replacement else "\n"))
        key = row.split(",")[0]
        with pytest.raises(ValueError, match=f"map.csv: missing or garbled '{key}' header row"):
            load_weight_map(path)

    @pytest.mark.parametrize(
        "row, replacement, reason",
        [
            ("1,2,1.0", "1,2", "expected 3 values, got 2"),
            ("1,2,1.0", "1,2,1.0,5", "expected 3 values, got 4"),
            ("1,2,1.0", "1,2,1.0#5", "value 3 '1.0#5' is not a number"),
            ("1,2,1.0", "1e0,2,1.0", "value 1 '1e0' is not an integer"),
            ("1,2,1.0", "1,1.5,1.0", "value 2 '1.5' is not an integer"),
            ("1,2,1.0", "-1,2,1.0", "expected pixel (1, 2), got (-1, 2)"),
            ("1,2,1.0", "1,-1,1.0", "expected pixel (1, 2), got (1, -1)"),
            ("1,2,1.0", "3,2,1.0", "expected pixel (1, 2), got (3, 2)"),
            ("1,2,1.0", "1,3,1.0", "expected pixel (1, 2), got (1, 3)"),
            # 3 * 2**62 + (2**62 + 5) wraps around int64 to pixel 5, (1, 2).
            (
                "1,2,1.0",
                "4611686018427387904,4611686018427387909,1.0",
                "expected pixel (1, 2), got (4611686018427387904, 4611686018427387909)",
            ),
            # The bits of +inf read as an int64.
            (
                "1,2,1.0",
                "9218868437227405312,2,1.0",
                "expected pixel (1, 2), got (9218868437227405312, 2)",
            ),
            ("0,0,1.0", "0,0,-1.0", "weight -1.0 is negative or NaN"),
            ("1,2,1.0", "1,2,nan", "weight nan is negative or NaN"),
            ("1,2,1.0", "1,2,inf", "value 3 'inf' is not finite or NaN"),
        ],
        ids=[
            "short",
            "long",
            "hash",
            "exponent-index",
            "fraction-index",
            "negative-i",
            "negative-j",
            "i-past-edge",
            "j-past-edge",
            "int64-wrap",
            "inf-bits-index",
            "negative-weight",
            "nan-weight",
            "inf-weight",
        ],
    )
    def test_garbled_row_named_by_line(self, tmp_path, row, replacement, reason):
        wmap = WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        lines = path.read_text().splitlines()
        line_no = lines.index(row) + 1
        lines[line_no - 1] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: {reason}"

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("pixel_size,99.0", "header row already given on line 3"),
            ("label,tag", "header row already given on line 4"),
            ("foo,bar", "unknown header row"),
            ("", "unknown header row"),
        ],
    )
    def test_repeated_or_unknown_header_row_named_by_line(self, tmp_path, row, reason):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        text = path.read_text()
        path.write_text(text.replace("\ni,j,weight\n", f"\n{row}\ni,j,weight\n"))
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line 6: {reason}: {row!r}"

    @pytest.mark.parametrize("cut_before", ["i,j,weight", "pixel_size,12.5"])
    def test_map_cut_off_before_its_rows_rejected(self, tmp_path, cut_before):
        wmap = WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        text = path.read_text()
        path.write_text(text[: text.index(f"\n{cut_before}\n") + 1])
        with pytest.raises(ValueError, match=f"^{path}: missing i,j,weight section$"):
            load_weight_map(path)

    def test_map_cut_off_in_its_rows_named_by_line(self, tmp_path):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {len(lines)}: the file ends after 8 of 9 rows"

    def test_duplicate_row_named_by_line(self, tmp_path):
        # A row given twice is one row too many; the extra one is named.
        wmap = WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["1,2,7.0"]) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {len(lines) + 1}: more than 9 rows"

    def test_row_out_of_order_named_by_line(self, tmp_path):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.arange(9.0).reshape(3, 3), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        k = lines.index("1,1,4.0")
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {k + 1}: expected pixel (1, 1), got (1, 2)"

    def test_blank_line_among_the_rows_named_by_line(self, tmp_path):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.arange(9.0).reshape(3, 3), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        k = lines.index("1,1,4.0")
        path.write_text("\n".join(lines[:k] + [""] + lines[k:]) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {k + 1}: expected 3 values, got 0"

    @pytest.mark.parametrize("line_no", [2, 9])
    def test_byte_not_utf8_named_by_line(self, tmp_path, line_no):
        path = tmp_path / "q1.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "q1"), path)
        message = put_byte(path, line_no)
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_blank_lines_after_the_last_row_are_skipped(self, tmp_path):
        values = np.arange(9.0).reshape(3, 3)
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(values, GridSpec(3, 12.5), "tag"), path)
        path.write_text(path.read_text() + "\n \n")
        np.testing.assert_array_equal(load_weight_map(path).values, values)

    def test_row_after_the_last_row_named_by_line(self, tmp_path):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines() + ["", "0,0,1.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {len(lines)}: more than 9 rows"

    @pytest.mark.parametrize(
        "row, replacement, reason",
        [
            ("pixel_size,12.5", "pixel_size,nan", "pixel_size must be finite and positive, got nan"),
            ("pixel_size,12.5", "pixel_size,0.0", "pixel_size must be finite and positive, got 0.0"),
            ("pixel_size,12.5", "pixel_size,-25.0", "pixel_size must be finite and positive"),
            ("origin,3.25,-7.5", "origin,3.25,-inf", "origin must be finite, got (3.25, -inf)"),
        ],
    )
    def test_bad_geometry_header_names_the_file(self, tmp_path, row, replacement, reason):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5, (3.25, -7.5)), "tag"), path)
        text = path.read_text()
        assert f"\n{row}\n" in text
        path.write_text(text.replace(f"\n{row}\n", f"\n{replacement}\n"))
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value).startswith(f"{path}: {reason}")

    def test_m_too_large_for_the_file_refused_before_allocating(self, tmp_path):
        path = tmp_path / "q3.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "q3"), path)
        size = path.stat().st_size
        path.write_text(path.read_text().replace("\nm,3\n", "\nm,100000000\n", 1))
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == (
            f"{path}: m=100000000 needs 60000000000000000 bytes of rows or more, "
            f"the file holds {size + 8}"
        )

    def test_loaded_values_are_a_contiguous_copy(self, tmp_path):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.arange(9.0).reshape(3, 3), GridSpec(3, 12.5), "tag"), path)
        values = load_weight_map(path).values
        assert values.flags.c_contiguous and values.base is None

    def test_values_must_match_the_grid(self):
        with pytest.raises(ValueError, match=r"square, 3x3 as its grid, got \(2, 2\)"):
            WeightMap(np.ones((2, 2)), GridSpec(3, 25.0), "w")

    @pytest.mark.parametrize(
        "pixel_size, origin", [(math.nan, (0.0, 0.0)), (0.0, (0.0, 0.0)), (25.0, (0.0, math.inf))]
    )
    def test_geometry_must_be_finite(self, pixel_size, origin):
        with pytest.raises(ValueError, match="must be finite"):
            WeightMap(np.ones((2, 2)), GridSpec(2, pixel_size, origin), "w")


class TestGroundTruth:
    spec = GridSpec(m=20, pixel_size=25.0)

    def test_normalized_and_deterministic(self):
        model = TrafficModel(
            components=[TrafficComponent((250.0, 250.0), 80.0, 2.0)],
            floor=0.01,
            noise_sigma=0.1,
        )
        a = generate_ground_truth(model, self.spec, seed=5)
        b = generate_ground_truth(model, self.spec, seed=5)
        c = generate_ground_truth(model, self.spec, seed=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert abs(a.total() - 1.0) < 1e-12
        assert a.values.min() >= 0.0

    def test_peak_sits_at_component_center(self):
        model = TrafficModel(components=[TrafficComponent((262.5, 137.5), 60.0, 3.0)])
        truth = generate_ground_truth(model, self.spec, seed=0)
        i, j = np.unravel_index(np.argmax(truth.values), truth.values.shape)
        cx, cy = self.spec.center_coords()
        assert (cx[i, j], cy[i, j]) == (262.5, 137.5)

    def test_negative_floor_truncates_tails(self):
        model = TrafficModel(
            components=[TrafficComponent((250.0, 250.0), 60.0, 3.0)], floor=-0.15
        )
        truth = generate_ground_truth(model, self.spec, seed=0)
        # Pixels far from the bump carry exactly zero weight.
        assert truth.values[-1, -1] == 0.0
        assert truth.values[0, -1] == 0.0
        assert (truth.values > 0).any()

    def test_degenerate_model_rejected(self):
        with pytest.raises(ValueError, match="needs at least one component"):
            TrafficModel(components=[], floor=0.0)
        model = TrafficModel(
            components=[TrafficComponent((250.0, 250.0), 10.0, 0.001)], floor=-5.0
        )
        with pytest.raises(ValueError, match="all zero"):
            generate_ground_truth(model, self.spec, seed=0)


class TestPotentialMap:
    spec = GridSpec(m=8, pixel_size=25.0)

    def test_disk_zone(self):
        zones = PotentialHotspotSpec(
            [HotspotZone(shape="disk", importance=0.8, center=(100.0, 100.0), radius=40.0)]
        )
        wmap = rasterize_potential_map(zones, self.spec)
        # Center pixel (3, 3) sits at (87.5, 87.5), inside the disk.
        assert wmap.values[3, 3] == 0.8
        assert wmap.values[0, 0] == 0.0

    def test_rect_zone_and_overlap_keeps_max(self):
        zones = PotentialHotspotSpec(
            [
                HotspotZone(shape="rect", importance=0.5, corners=(0.0, 0.0, 200.0, 200.0)),
                HotspotZone(shape="disk", importance=0.9, center=(100.0, 100.0), radius=30.0),
            ]
        )
        wmap = rasterize_potential_map(zones, self.spec)
        assert wmap.values[0, 0] == 0.5
        assert wmap.values[3, 3] == 0.9

    def test_zone_validation(self):
        with pytest.raises(ValueError, match="positive radius"):
            HotspotZone(shape="disk", importance=1.0, center=(0.0, 0.0), radius=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            HotspotZone(shape="rect", importance=1.0, corners=(10.0, 0.0, 0.0, 10.0))
        with pytest.raises(ValueError, match="unknown zone shape"):
            HotspotZone(shape="blob", importance=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            HotspotZone(shape="disk", importance=-1.0, center=(0.0, 0.0), radius=1.0)

    def test_spec_file_round_trip(self, tmp_path):
        zones = PotentialHotspotSpec(
            [
                HotspotZone(shape="disk", importance=0.7, center=(10.0, 20.0), radius=5.0),
                HotspotZone(shape="rect", importance=1.0, corners=(0.0, 0.0, 9.0, 9.0)),
            ]
        )
        path = tmp_path / "zones.json"
        save_potential_spec(zones, path)
        assert load_potential_spec(path) == zones

    def test_byte_not_utf8_named_by_line(self, tmp_path):
        path = tmp_path / "potential.json"
        zone = HotspotZone(shape="disk", importance=1.0, center=(1.0, 2.0), radius=5.0)
        save_potential_spec(PotentialHotspotSpec([zone]), path)
        message = put_byte(path, 3)
        with pytest.raises(ValueError) as excinfo:
            load_potential_spec(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("zones: []", "not JSON: Expecting value"),
            (
                '{"zones": [{"shape": "disk", "importance": 1.0, "center": [1.0, 2.0], "radius": 5.0}]}',
                "potential.zones[0].radius: unknown key",
            ),
            (
                '{"zones": [{"shape": "disk", "importance": 1.0, "center": [1.0, 2.0]}]}',
                "potential.zones[0].radius_m: missing required field",
            ),
            (
                '{"zones": [{"shape": "disk", "importance": 1.0, "center": [NaN, 2.0], "radius_m": 5.0}]}',
                "potential.zones[0].center: expected a list of 2 finite numbers",
            ),
        ],
        ids=["not-json", "unknown-key", "missing-radius", "non-finite-centre"],
    )
    def test_malformed_spec_file_names_it(self, tmp_path, text, message):
        path = tmp_path / "potential.json"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            load_potential_spec(path)
        assert str(excinfo.value).startswith(f"{path}: {message}")


class TestThroughputCurve:
    params = OracleParams(rho_cap=0.1, mu0_bps=2e6, r_min_bps=1e5, rsrp_hi_dbm=-80.0)

    def test_endpoints_and_midpoint(self):
        q = -115.0
        assert throughput_curve(np.array(-115.0), q, self.params) == 1e5
        assert throughput_curve(np.array(-80.0), q, self.params) == 2e6
        mid = throughput_curve(np.array(-97.5), q, self.params)
        assert abs(mid - (1e5 + 2e6) / 2) < 1e-6

    def test_clamped_outside_span(self):
        q = -115.0
        assert throughput_curve(np.array(-140.0), q, self.params) == 1e5
        assert throughput_curve(np.array(-40.0), q, self.params) == 2e6

    def test_monotone(self):
        q = -115.0
        levels = np.linspace(-130.0, -60.0, 50)
        rates = throughput_curve(levels, q, self.params)
        assert (np.diff(rates) >= 0).all()

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            throughput_curve(np.array(-90.0), -80.0, self.params)


class TestOracle:
    params = OracleParams(rho_cap=0.1, mu0_bps=2e6, r_min_bps=1e5, rsrp_hi_dbm=-80.0)

    def two_cell_setup(self):
        a = np.full((8, 8), np.nan)
        a[:4] = -85.0
        b = np.full((8, 8), -95.0)
        grid = constant_grid(
            [
                ("A", (100.0, 100.0), 0.0, a, ("B",)),
                ("B", (100.0, 100.0), 2.0, b, ("A",)),
            ],
            m=8,
        )
        return grid, compute_server_maps(grid)

    def test_fractions_match_brute_force(self):
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(11)
        truth = random_truth(grid.spec, rng)
        kpis = oracle_kpis(truth, grid, servers, self.params)
        for k, cell in enumerate(grid.cells):
            mask = servers.best == k
            total = truth.values[mask].sum()
            ta_layer = ta_zone_layer(grid.spec, cell)
            aoa_layer = aoa_zone_layer(grid.spec, cell)
            for ring in range(6):
                expect = truth.values[mask & (ta_layer == ring)].sum() / total
                assert abs(kpis.cells[cell.cell_id].ta[ring] - expect) < 1e-12
            for zone in (-1, 0, 1):
                expect = truth.values[mask & (aoa_layer == zone)].sum() / total
                assert abs(kpis.cells[cell.cell_id].aoa[zone + 1] - expect) < 1e-12
            kpis.cells[cell.cell_id].validate()

    def test_neighbor_levels_split_by_second_best(self):
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(12)
        truth = random_truth(grid.spec, rng)
        kpis = oracle_kpis(truth, grid, servers, self.params)
        # All of A's pixels see B as runner-up, so the whole level is B's.
        assert kpis.cells["A"].neighbor_level == {"B": 1.0}
        # B's own half is outside A's coverage: no runner-up, no levels.
        assert kpis.cells["B"].neighbor_level == {}

    def test_unconfigured_neighbor_excluded(self):
        a = np.full((8, 8), np.nan)
        a[:4] = -85.0
        grid = constant_grid(
            [
                ("A", (100.0, 100.0), 0.0, a, ()),
                ("B", (100.0, 100.0), 2.0, -95.0, ("A",)),
            ],
            m=8,
        )
        servers = compute_server_maps(grid)
        rng = np.random.default_rng(13)
        truth = random_truth(grid.spec, rng)
        kpis = oracle_kpis(truth, grid, servers, self.params)
        assert kpis.cells["A"].neighbor_level == {}

    def test_load_time_caps_at_one(self):
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(14)
        truth = random_truth(grid.spec, rng)
        kpis = oracle_kpis(truth, grid, servers, self.params)
        for cid in ("A", "B"):
            mass = truth.values[servers.best == grid.cell_index(cid)].sum()
            assert kpis.cells[cid].load_time == min(1.0, mass / self.params.rho_cap)

    def test_throughput_means_ordered(self):
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(15)
        truth = random_truth(grid.spec, rng)
        kpis = oracle_kpis(truth, grid, servers, self.params)
        for cid in ("A", "B"):
            cell = kpis.cells[cid]
            assert 0 < cell.hmt_bps <= cell.amt_bps

    def test_cell_without_traffic_is_empty(self):
        grid, servers = self.two_cell_setup()
        values = np.zeros((8, 8))
        values[5, 5] = 1.0
        truth = WeightMap(values, grid.spec, "ground_truth")
        kpis = oracle_kpis(truth, grid, servers, self.params)
        # Pixel (5, 5) lies in B's half; A serves no traffic at all.
        assert kpis.cells["A"].is_empty()
        assert not kpis.cells["B"].is_empty()

    def test_kpi_set_file_round_trip(self, tmp_path):
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(16)
        truth = random_truth(grid.spec, rng)
        kpis = oracle_kpis(truth, grid, servers, self.params)
        path = tmp_path / "kpis.json"
        save_kpi_set(kpis, path)
        loaded = load_kpi_set(path)
        loaded.validate(grid)
        assert loaded.source == kpis.source
        for cid, cell in kpis.cells.items():
            back = loaded.cells[cid]
            np.testing.assert_array_equal(back.ta, cell.ta)
            np.testing.assert_array_equal(back.aoa, cell.aoa)
            assert back.neighbor_level == cell.neighbor_level
            assert back.load_time == cell.load_time
            assert back.amt_bps == cell.amt_bps
            assert back.hmt_bps == cell.hmt_bps

    def test_validate_against_grid_detects_missing_cell(self):
        grid, servers = self.two_cell_setup()
        kpis = KpiSet(cells={"A": CellKpis.empty()})
        with pytest.raises(ValueError, match="exactly the grid's cells"):
            kpis.validate(grid)

    def test_validate_against_grid_detects_unknown_neighbor(self):
        grid, servers = self.two_cell_setup()
        good = TestCellKpis().good()
        kpis = KpiSet(cells={"A": good, "B": CellKpis.empty()})
        with pytest.raises(ValueError, match=r"cell 'A': neighbor_level names cells not on the grid: \['C'\]"):
            kpis.validate(grid)

    def test_validate_against_grid_detects_level_for_non_neighbor(self):
        # C is on the grid but is not one of A's configured neighbors.
        grid = constant_grid(
            [
                ("A", (100.0, 100.0), 0.0, -85.0, ("B",)),
                ("B", (100.0, 100.0), 2.0, -90.0, ("A", "C")),
                ("C", (100.0, 100.0), 4.0, -95.0, ("B",)),
            ]
        )
        kpis = KpiSet(cells={"A": TestCellKpis().good(), "B": CellKpis.empty(), "C": CellKpis.empty()})
        with pytest.raises(
            ValueError,
            match=r"cell 'A': neighbor_level names cells that are not its configured neighbors: \['C'\]",
        ):
            kpis.validate(grid)

    def test_load_validates_every_cell(self, tmp_path):
        """The probe from a NaN load time and a negative TA fraction: the
        loader names the file, the cell and the field."""
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(16)
        kpis = oracle_kpis(random_truth(grid.spec, rng), grid, servers, self.params)
        path = tmp_path / "kpis.json"
        save_kpi_set(kpis, path)
        doc = json.loads(path.read_text())
        doc["cells"][1]["load_time"] = float("nan")
        doc["cells"][1]["ta"][0] = -0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"kpis.json: cell 'B': ta fractions must be finite and non-negative"):
            load_kpi_set(path)

    def test_load_rejects_nan_throughput(self, tmp_path):
        grid, servers = self.two_cell_setup()
        rng = np.random.default_rng(16)
        kpis = oracle_kpis(random_truth(grid.spec, rng), grid, servers, self.params)
        path = tmp_path / "kpis.json"
        save_kpi_set(kpis, path)
        doc = json.loads(path.read_text())
        doc["cells"][0]["amt_bps"] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"cell 'A': throughputs must be finite"):
            load_kpi_set(path)

    def test_load_names_byte_not_utf8_by_line(self, tmp_path):
        grid, servers = self.two_cell_setup()
        truth = random_truth(grid.spec, np.random.default_rng(16))
        kpis = oracle_kpis(truth, grid, servers, self.params)
        path = tmp_path / "kpis.json"
        save_kpi_set(kpis, path)
        message = put_byte(path, 5, b"\xc3")
        with pytest.raises(ValueError) as excinfo:
            load_kpi_set(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_load_names_missing_field(self, tmp_path):
        path = tmp_path / "kpis.json"
        path.write_text(json.dumps({"source": "oracle", "window_s": None, "cells": [{"cell_id": "A"}]}))
        with pytest.raises(ValueError, match="kpis.json: missing field 'ta'"):
            load_kpi_set(path)

