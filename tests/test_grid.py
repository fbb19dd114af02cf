import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hotloc
from conftest import constant_grid, put_byte
from hotloc.bounds import InputError
from hotloc.grid import (
    NO_SECOND,
    TA_GRANULARITY_M,
    TA_ZONE_COUNT,
    UNCOVERED,
    CellInfo,
    CoverageGrid,
    GridSpec,
    aoa_zone_layer,
    compute_server_maps,
    load_grid,
    save_grid,
    ta_zone_layer,
)
from hotloc.kpi import WeightMap, load_weight_map, save_weight_map
from test_serving_tables import aoa_zone, ta_zone


def cell_at(site, azimuth=0.0):
    return CellInfo(cell_id="C", site_position=site, azimuth=azimuth)


def argmax_server_maps(grid):
    """The two-``argmax`` form of ``compute_server_maps``: the best server
    over a copy of the cube with NaN as -inf, then the runner-up over a
    second copy with the best masked out."""
    filled = np.where(np.isnan(grid.rsrp), -np.inf, grid.rsrp)
    best = np.argmax(filled, axis=0).astype(np.int32)
    best_val = np.take_along_axis(filled, best[None].astype(np.intp), axis=0)[0]
    uncovered = ~np.isfinite(best_val) | (best_val < grid.q_rxlevmin)
    runner = filled.copy()
    ii, jj = np.meshgrid(np.arange(grid.spec.m), np.arange(grid.spec.m), indexing="ij")
    runner[best, ii, jj] = -np.inf
    second = np.argmax(runner, axis=0).astype(np.int32)
    second_val = np.take_along_axis(runner, second[None].astype(np.intp), axis=0)[0]
    second[~np.isfinite(second_val)] = NO_SECOND
    best[uncovered] = UNCOVERED
    second[uncovered] = NO_SECOND
    return best, second


class TestZones:
    # Site at a pixel center so distances are exact round numbers.
    spec = GridSpec(m=10, pixel_size=25.0)
    site = (12.5, 12.5)

    def zone_at_distance(self, dist):
        cell = cell_at((12.5 - dist, 12.5))
        return ta_zone_layer(self.spec, cell)[0, 0]

    def test_ring_zero_at_site(self):
        assert self.zone_at_distance(0.0) == 0

    def test_ring_one_at_100m(self):
        assert self.zone_at_distance(100.0) == 1

    def test_last_ring_is_open_ended(self):
        assert self.zone_at_distance(500.0) == 5
        assert self.zone_at_distance(5000.0) == 5

    def test_ring_boundaries_round_down(self):
        assert self.zone_at_distance(TA_GRANULARITY_M) == 1
        assert self.zone_at_distance(2 * TA_GRANULARITY_M) == 2
        assert self.zone_at_distance(5 * TA_GRANULARITY_M) == 5

    def aoa_at_bearing(self, bearing, azimuth):
        # Place the site one pixel away along the requested bearing.
        dist = 60.0
        site = (12.5 - dist * math.sin(bearing), 12.5 - dist * math.cos(bearing))
        return aoa_zone_layer(self.spec, cell_at(site, azimuth))[0, 0]

    def test_boresight_is_zone_zero(self):
        assert self.aoa_at_bearing(0.3, azimuth=0.3) == 0

    def test_wrapping_across_north(self):
        # Azimuth 350 degrees, pixel at bearing 10 degrees: offset 20 degrees.
        assert self.aoa_at_bearing(math.radians(10), math.radians(350)) == 0

    def test_right_angle_is_zone_plus_one(self):
        assert self.aoa_at_bearing(math.pi / 2, azimuth=0.0) == 1

    def test_left_of_boresight_is_zone_minus_one(self):
        assert self.aoa_at_bearing(-math.pi / 2 + 2 * math.pi, azimuth=0.0) == -1

    def test_boundary_offsets_belong_to_zone_zero(self):
        # Bearings 0 and pi come out of atan2 exact, so the offsets land
        # on the closed edges of the boresight sector up to the ulp the
        # layer's wrap leaves. Overshooting by 1e-6 flips the zone.
        half = math.pi / 6
        assert self.aoa_at_bearing(0.0, azimuth=half) == 0
        assert self.aoa_at_bearing(math.pi, azimuth=math.pi - half) == 0
        assert self.aoa_at_bearing(math.pi / 6 + 1e-6, azimuth=0.0) == 1
        assert self.aoa_at_bearing(0.0, azimuth=half + 1e-6) == -1

    def test_opposite_direction_is_zone_plus_one(self):
        # pi wraps into the closed upper half of the (-pi, pi] convention.
        assert self.aoa_at_bearing(math.pi, azimuth=0.0) == 1

    def test_site_pixel_gets_zone_zero(self):
        cell = cell_at(self.site, azimuth=1.0)
        assert aoa_zone_layer(self.spec, cell)[0, 0] == 0

    def test_zone_layers_match_scalar_functions(self):
        cell = CellInfo(cell_id="C", site_position=(80.0, 130.0), azimuth=2.1)
        ta_layer = ta_zone_layer(self.spec, cell)
        aoa_layer = aoa_zone_layer(self.spec, cell)
        for i in range(self.spec.m):
            for j in range(self.spec.m):
                assert ta_layer[i, j] == ta_zone(self.spec, cell, (i, j))
                assert aoa_layer[i, j] == aoa_zone(self.spec, cell, (i, j))

    def test_bearing_convention_north_clockwise(self):
        # Pixel (5, 5) holds the site; +j is North and +i is East.
        site = (137.5, 137.5)
        north = aoa_zone_layer(self.spec, cell_at(site, azimuth=0.0))
        east = aoa_zone_layer(self.spec, cell_at(site, azimuth=math.pi / 2))
        assert (north[5, 9], north[9, 5], north[1, 5]) == (0, 1, -1)
        assert (east[9, 5], east[5, 1], east[5, 9]) == (0, 1, -1)


class TestServerMaps:
    def test_single_cell_covers_everywhere(self):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4)
        servers = compute_server_maps(grid)
        assert (servers.best == 0).all()
        assert (servers.second == NO_SECOND).all()
        assert not servers.uncovered_mask().any()

    def test_strict_ordering(self):
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, -80.0, ()), ("B", (0.0, 0.0), 0.0, -90.0, ())],
            m=4,
        )
        servers = compute_server_maps(grid)
        assert (servers.best == 0).all()
        assert (servers.second == 1).all()

    def test_tie_goes_to_lowest_id(self):
        # The rows are out of id order, so a tie broken by row index would
        # give each pixel the other cell.
        for ids, best, second in ((("A", "B"), 0, 1), (("B", "A"), 1, 0), (("BS10A", "BS09A"), 1, 0)):
            grid = constant_grid([(cell_id, (0.0, 0.0), 0.0, -85.0, ()) for cell_id in ids], m=4)
            servers = compute_server_maps(grid)
            assert (servers.best == best).all()
            assert (servers.second == second).all()

    def test_runner_up_tie_goes_to_lowest_id(self):
        a = np.full((4, 4), -80.0)
        grid = constant_grid(
            [("C", (0.0, 0.0), 0.0, -90.0, ()), ("A", (0.0, 0.0), 0.0, a, ()), ("B", (0.0, 0.0), 0.0, -90.0, ())],
            m=4,
        )
        servers = compute_server_maps(grid)
        assert (servers.best == 1).all()
        assert (servers.second == 2).all()

    def test_below_threshold_is_uncovered(self):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -120.0, ())], m=4)
        servers = compute_server_maps(grid)
        assert (servers.best == UNCOVERED).all()
        assert (servers.second == NO_SECOND).all()
        assert servers.uncovered_mask().all()
        assert np.isnan(servers.level).all()

    def test_level_is_the_best_servers_rsrp(self):
        a = np.full((4, 4), -80.0)
        a[0] = np.nan
        b = np.full((4, 4), -70.0)
        b[:, 0] = -120.0
        b[3, 3] = np.nan
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, a, ()), ("B", (0.0, 0.0), 0.0, b, ())], m=4
        )
        servers = compute_server_maps(grid)
        want = np.where(servers.best == 1, b, a)
        want[0, 0] = np.nan  # A has no signal there and B is below the threshold
        np.testing.assert_array_equal(servers.level, want)

    def test_threshold_is_inclusive(self):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -115.0, ())], m=4)
        assert (compute_server_maps(grid).best == 0).all()

    def test_nan_means_no_signal(self):
        layer = np.full((4, 4), -90.0)
        layer[0, 0] = np.nan
        grid = constant_grid([("A", (0.0, 0.0), 0.0, layer, ())], m=4)
        servers = compute_server_maps(grid)
        assert servers.best[0, 0] == UNCOVERED
        assert servers.best[1, 1] == 0

    def test_second_best_ignores_admission_threshold(self):
        # The runner-up is reported even when its level is below q_rxlevmin.
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, -90.0, ()), ("B", (0.0, 0.0), 0.0, -130.0, ())],
            m=4,
        )
        servers = compute_server_maps(grid)
        assert (servers.best == 0).all()
        assert (servers.second == 1).all()

    def test_mixed_regions(self):
        a = np.full((4, 4), np.nan)
        a[:2] = -90.0
        b = np.full((4, 4), np.nan)
        b[1:] = -95.0
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, a, ()), ("B", (0.0, 0.0), 0.0, b, ())], m=4
        )
        servers = compute_server_maps(grid)
        assert (servers.best[0] == 0).all()
        assert (servers.second[0] == NO_SECOND).all()
        assert (servers.best[1] == 0).all()
        assert (servers.second[1] == 1).all()
        assert (servers.best[2:] == 1).all()
        assert (servers.second[2:] == NO_SECOND).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_two_argmax_form(self, seed):
        # Levels from a short list, so pixels tie for the best, for the
        # runner-up and for both; NaN holes, all-NaN pixels, pixels one
        # cell alone reaches and levels below the threshold.
        rng = np.random.default_rng(seed)
        n, m = 7, 12
        rsrp = rng.choice([-130.0, -115.0, -100.0, -90.0, -85.0], size=(n, m, m))
        rsrp[rng.random((n, m, m)) < 0.4] = np.nan
        rsrp[:, 0, :] = np.nan
        rsrp[:, 1, :] = np.nan
        rsrp[rng.integers(n, size=m), 1, np.arange(m)] = -95.0
        rsrp[:, 2, :] = -85.0
        grid = constant_grid([(f"C{k}", (0.0, 0.0), 0.0, rsrp[k], ()) for k in range(n)], m=m)
        servers = compute_server_maps(grid)
        best, second = argmax_server_maps(grid)
        np.testing.assert_array_equal(servers.best, best)
        np.testing.assert_array_equal(servers.second, second)
        assert servers.best.dtype == servers.second.dtype == np.int32
        # The fixture reaches each case the comparison must cover.
        assert (best[0] == UNCOVERED).all() and (second[1] == NO_SECOND).all()
        assert (best[2] == 0).all() and (second[2] == 1).all()
        assert (second[3:] >= 0).any() and (best[3:] == UNCOVERED).any()


class TestGridContainer:
    def test_shape_mismatch_rejected(self):
        spec = GridSpec(m=4, pixel_size=25.0)
        with pytest.raises(ValueError, match="does not match"):
            CoverageGrid(
                spec=spec,
                cells=[cell_at((0.0, 0.0))],
                rsrp=np.zeros((1, 3, 3)),
                q_rxlevmin=-115.0,
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            constant_grid(
                [("A", (0.0, 0.0), 0.0, -90.0, ()), ("A", (0.0, 0.0), 0.0, -91.0, ())],
                m=4,
            )

    def test_self_neighbor_rejected(self):
        with pytest.raises(ValueError, match="neighbor"):
            CellInfo(cell_id="A", site_position=(0.0, 0.0), azimuth=0.0, neighbors=("A",))

    def test_azimuth_normalized_into_full_circle(self):
        cell = CellInfo(cell_id="A", site_position=(0.0, 0.0), azimuth=-math.pi / 2)
        assert abs(cell.azimuth - 1.5 * math.pi) < 1e-12

    def test_grid_needs_at_least_two_pixels(self):
        with pytest.raises(ValueError, match="at least 2x2"):
            GridSpec(m=1, pixel_size=25.0)

    @pytest.mark.parametrize(
        "pixel_size, origin",
        [(math.nan, (0.0, 0.0)), (math.inf, (0.0, 0.0)), (25.0, (math.inf, 0.0)), (25.0, (0.0, math.nan))],
    )
    def test_grid_geometry_must_be_finite(self, pixel_size, origin):
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec(m=4, pixel_size=pixel_size, origin=origin)

    @pytest.mark.parametrize(
        "site, azimuth", [((math.nan, 0.0), 0.0), ((0.0, -math.inf), 0.0), ((0.0, 0.0), math.inf)]
    )
    def test_cell_site_and_azimuth_must_be_finite(self, site, azimuth):
        with pytest.raises(ValueError, match="cell 'A': .* must be finite"):
            CellInfo(cell_id="A", site_position=site, azimuth=azimuth)

    def test_spec_holds_plain_types(self):
        spec = GridSpec(np.int64(4), np.float64(25.0), [np.float64(0.0), 0])
        assert spec == GridSpec(4, 25.0) and hash(spec) == hash(GridSpec(4, 25.0))
        assert type(spec.m) is int and type(spec.pixel_size) is float
        assert type(spec.origin) is tuple and all(type(v) is float for v in spec.origin)
        assert GridSpec(4, 25.0, [0.0, 0.0]) == GridSpec(4, 25.0)
        assert GridSpec(4.0, 25.0).m == 4

    def test_pixel_center_is_the_center_coords_entry(self):
        spec = GridSpec(13, 7.3, (-1234.5, 987.25))
        cx, cy = spec.center_coords()
        for i, j in np.ndindex(cx.shape):
            # extract_peaks passes numpy indices from np.unravel_index.
            for index in ((i, j), (np.intp(i), np.intp(j))):
                assert spec.pixel_center(*index) == (cx[i, j], cy[i, j])

    @pytest.mark.parametrize("m", [4.5, math.nan, math.inf, "4"])
    def test_non_integral_m_rejected(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            GridSpec(m, 25.0)

    def test_origin_needs_two_coordinates(self):
        with pytest.raises(ValueError, match="origin must be two coordinates"):
            GridSpec(4, 25.0, (0.0, 0.0, 0.0))

    def test_numpy_spec_map_survives_the_file(self, tmp_path):
        wmap = WeightMap(np.arange(9.0).reshape(3, 3), GridSpec(3, np.float64(25.0)), "w")
        save_weight_map(wmap, tmp_path / "map.csv")
        assert b"pixel_size,25.0\n" in (tmp_path / "map.csv").read_bytes()
        back = load_weight_map(tmp_path / "map.csv")
        assert back.spec == wmap.spec
        np.testing.assert_array_equal(back.values, wmap.values)

    def test_q_rxlevmin_must_be_finite(self):
        with pytest.raises(ValueError, match="q_rxlevmin must be finite, got nan"):
            constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4, q_rxlevmin=math.nan)


class TestGridFile:
    def test_round_trip(self, tmp_path):
        layer_a = np.full((5, 5), -90.0)
        layer_a[4, 4] = np.nan
        layer_b = np.linspace(-120.0, -70.0, 25).reshape(5, 5)
        grid = constant_grid(
            [
                ("BS01A", (10.0, 20.0), 0.5, layer_a, ("BS01B",)),
                ("BS01B", (10.0, 20.0), 2.6, layer_b, ("BS01A",)),
            ],
            m=5,
            pixel=12.5,
            origin=(-30.0, 40.0),
        )
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        loaded = load_grid(path)
        assert loaded.spec == grid.spec
        assert loaded.q_rxlevmin == grid.q_rxlevmin
        assert [c.cell_id for c in loaded.cells] == ["BS01A", "BS01B"]
        assert loaded.cells[0].neighbors == ("BS01B",)
        for orig, back in zip(grid.cells, loaded.cells):
            assert back.site_position == orig.site_position
            assert abs(back.azimuth - orig.azimuth) < 1e-12
        np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)

    def test_round_trip_of_non_ascii_ids(self, tmp_path):
        layer = np.full((2, 2), -90.0)
        grid = constant_grid(
            [
                ("Zelle-\u00e4", (10.0, 20.0), 0.5, layer, ("\u00d8st",)),
                ("\u00d8st", (10.0, 20.0), 2.6, layer, ("Zelle-\u00e4",)),
            ],
            m=2,
        )
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        assert "cell,Zelle-\u00e4,".encode() in path.read_bytes()
        loaded = load_grid(path)
        assert [(c.cell_id, c.neighbors) for c in loaded.cells] == [
            ("Zelle-\u00e4", ("\u00d8st",)),
            ("\u00d8st", ("Zelle-\u00e4",)),
        ]

    @pytest.mark.parametrize(
        "cell_id, neighbor, name",
        [
            ("a,b", "B", "a,b"),
            ("a;b", "B", "a;b"),
            ("a\nb", "B", "a\nb"),
            ("A", "b,c", "b,c"),
            ("A", "b;c", "b;c"),
            ("A", "b\rc", "b\rc"),
            # numpy drops trailing NULs, so "A\0" would read as "A".
            ("A\0", "B", "A\0"),
            ("A", "B\0", "B\0"),
        ],
    )
    def test_separator_in_id_rejected_before_writing(self, tmp_path, cell_id, neighbor, name):
        grid = constant_grid([(cell_id, (0.0, 0.0), 0.0, -90.0, (neighbor,))], m=4)
        path = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_grid(grid, path)
        assert not path.exists() and not path.with_suffix(".npy").exists()

    @pytest.mark.parametrize("line_no", [1, 2, -1])
    def test_byte_not_utf8_named_by_line(self, tmp_path, line_no):
        # The last cell row of 400 cells lies past the first block a text
        # file decodes at a time.
        cells = [(f"C{k:03d}", (0.0, 0.0), 0.0, -90.0 - k, ()) for k in range(400)]
        grid = constant_grid(cells, m=2)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        if line_no < 0:
            line_no += path.read_bytes().count(b"\n") + 1
        message = put_byte(path, line_no)
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not-a-grid.csv"
        path.write_text("something,else\n")
        with pytest.raises(ValueError, match="not a hotloc"):
            load_grid(path)

    def test_cell_count_mismatch_rejected(self, tmp_path):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        text = path.read_text().replace("cells,1", "cells,2")
        path.write_text(text)
        with pytest.raises(ValueError, match="declares 2"):
            load_grid(path)

    @pytest.mark.parametrize(
        "row, replacement",
        [
            ("m,4", ""),
            ("m,4", "m,four"),
            ("pixel_size,25.0", ""),
            ("origin,0.0,0.0", "origin,0.0"),
            ("q_rxlevmin,-115.0", "q_rxlevmin,"),
            ("cells,1", ""),
        ],
    )
    def test_missing_or_garbled_header_row_named(self, tmp_path, row, replacement):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        text = path.read_text()
        assert f"\n{row}\n" in text
        path.write_text(text.replace(f"\n{row}\n", f"\n{replacement}\n" if replacement else "\n"))
        key = row.split(",")[0]
        # The header rows are read in order: a missing row is named at the
        # line it should be on, where the next row stands.
        where = f"line {text.splitlines().index(row) + 1}"
        with pytest.raises(InputError, match=f"grid.csv: {where}: missing or garbled '{key}' header row$"):
            load_grid(path)

    @pytest.mark.parametrize("first, second", [("m,4", "pixel_size,25.0"), ("q_rxlevmin,-115.0", "cells,1")])
    def test_header_rows_out_of_order_named_by_line(self, tmp_path, first, second):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        text = path.read_text()
        path.write_text(text.replace(f"\n{first}\n{second}\n", f"\n{second}\n{first}\n"))
        line_no = text.splitlines().index(first) + 1
        key = first.split(",")[0]
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: missing or garbled '{key}' header row"

    def test_blank_line_in_the_header_named_by_line(self, tmp_path):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        path.write_text(path.read_text().replace("\norigin,", "\n\norigin,"))
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: line 4: missing or garbled 'origin' header row"

    def test_grid_without_cells_refused(self, tmp_path):
        path = tmp_path / "grid.csv"
        save_grid(constant_grid([("A", (0.0, 0.0), 0.0, -90.0, ())], m=4), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line.replace("cells,1", "cells,0") for line in lines[:-1]) + "\n")
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: coverage grid needs at least one cell"

    def two_cell_file(self, tmp_path):
        """A 3x3 grid.csv of cells A and B; A leaves pixel (0, 0) uncovered."""
        layer = np.full((3, 3), -90.0)
        layer[0, 0] = np.nan
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, layer, ("B",)), ("B", (5.0, 0.0), 1.0, -80.0, ("A",))],
            m=3,
        )
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        return path

    @pytest.mark.parametrize(
        "row, fault",
        [
            ("q_rxlevmin,-60.0", "header row already given on line 5"),
            ("m,3", "header row already given on line 2"),
            ("foo,bar", "unknown header row"),
        ],
    )
    def test_repeated_or_unknown_header_row_named_by_line(self, tmp_path, row, fault):
        # ``fault`` says what the row is. Each header row is given once, on
        # its own line; after them every row is a cell row.
        path = self.two_cell_file(tmp_path)
        text = path.read_text()
        line_no = len(text.splitlines()) + 1
        path.write_text(f"{text}{row}\n")
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: expected a cell row: {row!r}"

    def test_duplicate_row_named_by_line(self, tmp_path):
        # A cell row given twice repeats its id; the second copy is named.
        path = self.two_cell_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        where = f"line {len(lines) + 1}"
        reason = f"cell id 'B' already given on line {len(lines)}: {lines[-1]!r}"
        assert str(excinfo.value) == f"{path}: {where}: {reason}"
        assert (excinfo.value.source, excinfo.value.where) == (str(path), where)

    def test_blank_lines_after_the_last_row_are_skipped(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        grid = load_grid(path)
        path.write_text(path.read_text() + "\n \n")
        np.testing.assert_array_equal(load_grid(path).rsrp, grid.rsrp)

    def test_cube_cut_off_in_a_layer_refused(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        cube = path.with_suffix(".npy")
        cube.write_bytes(cube.read_bytes()[: -8 * 4])
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        assert excinfo.value.source == str(cube)
        # The header gives the array's size, so the file is refused before
        # the array is allocated.
        assert str(excinfo.value) == f"{cube}: cut short: 112 of the array's 144 bytes"

    def test_version_one_file_refused_with_its_version(self, tmp_path):
        # Version 2 held the cube as text rows after the cell rows; no
        # reader of it is kept.
        path = self.two_cell_file(tmp_path)
        text = path.read_text()
        for version in (1, 2):
            path.write_text(text.replace("hotloc-grid,3\n", f"hotloc-grid,{version}\n", 1))
            with pytest.raises(ValueError) as excinfo:
                load_grid(path)
            assert str(excinfo.value) == (
                f"{path}: line 1: not a hotloc coverage grid file (hotloc-grid,3): 'hotloc-grid,{version}'"
            )

    @pytest.mark.parametrize(
        "row, replacement, reason",
        [
            ("pixel_size,25.0", "pixel_size,nan", "pixel_size must be finite and positive, got nan"),
            ("pixel_size,25.0", "pixel_size,-25.0", "pixel_size must be finite and positive"),
            ("origin,0.0,0.0", "origin,inf,0.0", "origin must be finite, got (inf, 0.0)"),
            ("q_rxlevmin,-115.0", "q_rxlevmin,nan", "q_rxlevmin must be finite, got nan"),
        ],
    )
    def test_non_finite_header_value_names_the_file(self, tmp_path, row, replacement, reason):
        path = self.two_cell_file(tmp_path)
        text = path.read_text()
        assert f"\n{row}\n" in text
        path.write_text(text.replace(f"\n{row}\n", f"\n{replacement}\n"))
        # Refused before the cube file is opened.
        path.with_suffix(".npy").unlink()
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        assert str(excinfo.value).startswith(f"{path}: {reason}")
        assert (excinfo.value.source, excinfo.value.where) == (str(path), None)

    def test_m_too_large_for_the_file_refused_before_allocating(self, tmp_path):
        # The stack would be 144 TB; only the cube file's header is read.
        path = self.two_cell_file(tmp_path)
        path.write_text(path.read_text().replace("\nm,3\n", "\nm,3000000\n", 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                load_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == (
            f"{path.with_suffix('.npy')}: shape (2, 3, 3), expected (2, 3000000, 3000000) "
            "(2 cells on the 3000000x3000000 grid of grid.csv)"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "row, replacement, reason",
        [
            (
                "cell,B,5.0,0.0,57.29577951308232,A",
                "cell,B,5.0",
                "not enough values to unpack (expected 6, got 3)",
            ),
            ("cell,A,0.0,0.0,0.0,B", "cell,A,zero,0.0,0.0,B", "could not convert"),
            (
                "cell,A,0.0,0.0,0.0,B",
                "cell,A,0.0,0.0,0.0,B;ZZ",
                "neighbors ['ZZ'] are not cells of the grid",
            ),
            (
                "cell,B,5.0,0.0,57.29577951308232,A",
                "cell,A,5.0,0.0,57.29577951308232,B",
                "cell id 'A' already given on line 7",
            ),
            ("cell,A,0.0,0.0,0.0,B", "cell,A\0,0.0,0.0,0.0,B", "cell id 'A\\x00' contains '\\x00'"),
            ("cell,A,0.0,0.0,0.0,B", "cell,A,0.0,0.0,0.0,B\0", "neighbor id 'B\\x00' contains"),
            (
                "cell,A,0.0,0.0,0.0,B",
                "cell,A,nan,0.0,0.0,B",
                "cell 'A': site (nan, 0.0) and azimuth 0.0 must be finite",
            ),
            (
                "cell,B,5.0,0.0,57.29577951308232,A",
                "cell,B,5.0,0.0,inf,A",
                "cell 'B': site (5.0, 0.0) and azimuth inf must be finite",
            ),
        ],
    )
    def test_garbled_row_named_by_line(self, tmp_path, row, replacement, reason):
        path = self.two_cell_file(tmp_path)
        lines = path.read_text().splitlines()
        line_no = lines.index(row) + 1
        lines[line_no - 1] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: line {line_no}: {reason}")
        assert message.endswith(repr(replacement))


    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"", "not a .npy file: it starts b''"),
            (b"hotloc-grid,3\n", "not a .npy file: it starts b'hotloc'"),
            (b"\x93NUMPY\x01\x00", "not a readable .npy array: "),
        ],
        ids=["empty", "text", "cut-header"],
    )
    def test_cube_that_is_not_npy_named(self, tmp_path, data, reason):
        path = self.two_cell_file(tmp_path)
        cube = path.with_suffix(".npy")
        cube.write_bytes(data)
        with pytest.raises(InputError) as excinfo:
            load_grid(path)
        assert str(excinfo.value).startswith(f"{cube}: {reason}")

    def test_cube_refusals_say_what_is_wrong(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        cube = path.with_suffix(".npy")
        rsrp = np.load(cube)
        cases = [
            (rsrp.astype(np.float32), "dtype <f4, expected float64 (<f8)"),
            (rsrp.astype(">f8"), "dtype >f8, expected float64 (<f8)"),
            (rsrp[:1], "shape (1, 3, 3), expected (2, 3, 3) (2 cells on the 3x3 grid of grid.csv)"),
            (np.where(np.arange(9).reshape(3, 3) == 4, -np.inf, rsrp), "rsrp values must be finite or NaN"),
        ]
        for array, reason in cases:
            np.save(cube, array)
            with pytest.raises(InputError) as excinfo:
                load_grid(path)
            assert str(excinfo.value) == f"{cube}: {reason}"
        np.save(cube, rsrp)
        cube.write_bytes(cube.read_bytes() + b"\0" * 5)
        with pytest.raises(InputError, match=r"grid\.npy: 5 bytes after the array$"):
            load_grid(path)
        np.save(cube, rsrp.astype(object), allow_pickle=True)
        with pytest.raises(InputError, match=r"grid\.npy: dtype \|O, expected float64 \(<f8\)$"):
            load_grid(path)
        np.save(cube, np.asfortranarray(rsrp))
        with pytest.raises(InputError, match=r"grid\.npy: a Fortran-ordered array, expected C order$"):
            load_grid(path)
        cube.unlink()
        with pytest.raises(InputError, match=r"grid\.npy: not found$"):
            load_grid(path)
        cube.mkdir()
        with pytest.raises(InputError, match=r"grid\.npy: cannot be read: Is a directory$"):
            load_grid(path)

    def test_cube_of_another_shape_refused_before_it_is_read(self, tmp_path):
        # A cube of 9 layers of 128 x 128 pixels whose grid.csv declares
        # 8 cells: the header is read, the values are not.
        m = 128
        grid = constant_grid([(f"C{k}", (0.0, 0.0), 0.0, -90.0 - k, ()) for k in range(9)], m=m)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line.replace("cells,9", "cells,8") for line in lines[:-1]) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"shape \(9, 128, 128\), expected \(8, 128, 128\)"):
                load_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Less than one layer of the cube.
        assert peak < grid.rsrp[0].nbytes


def test_load_grid_memory_is_bounded_by_the_block(tmp_path):
    # Nine layers of 128 x 128 random values. The cube file is read into
    # the stack, so beyond it only the infinity check's one-byte mask of a
    # few layers may be alive; reading the file into memory before copying
    # it would hold a second stack.
    m, cells = 128, 9
    rng = np.random.default_rng(0)
    grid = constant_grid(
        [(f"C{k}", (10.0 * k, 0.0), 0.0, rng.uniform(-120.0, -70.0, (m, m)), ()) for k in range(cells)],
        m=m,
    )
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    tracemalloc.start()
    try:
        loaded = load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)
    assert loaded.rsrp.flags.c_contiguous and loaded.rsrp.flags.writeable
    layer = loaded.rsrp.nbytes // cells
    assert peak < loaded.rsrp.nbytes + 2 * layer


# Run in a fresh interpreter: the rise of the peak resident set across
# load_grid, in bytes, and the bytes of the cube it read. The peak is
# VmHWM, the high-water mark of the process's own memory: ru_maxrss also
# keeps the peak of the process that started it, which is larger.
RSS_PROBE = r"""
import re, sys
from hotloc.grid import load_grid
def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"^VmHWM:\s+(\d+) kB$", fh.read(), re.M).group(1)) * 1024
before = peak()
grid = load_grid(sys.argv[1])
print(peak() - before, grid.rsrp.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak resident set from /proc")
def test_load_grid_holds_one_copy_of_the_cube(tmp_path):
    # 21 cells at m=512: the 44 MB cube is most of what load_grid holds.
    # The resident set counts the pages of a mapped file, so mapping the
    # cube and then copying it would hold it twice.
    m, cells = 512, 21
    grid = constant_grid([(f"C{k}", (10.0 * k, 0.0), 0.0, -90.0 - k, ()) for k in range(cells)], m=m)
    save_grid(grid, tmp_path / "grid.csv")
    del grid
    src = str(Path(hotloc.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, str(tmp_path / "grid.csv")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    rise, cube = map(int, result.stdout.split())
    assert cube == cells * m * m * 8
    assert rise < 1.3 * cube, f"load_grid raised the peak resident set by {rise / cube:.2f} cubes"


def test_every_nan_is_written_nan(tmp_path):
    # NaNs with the sign bit set or another payload read back as NaN,
    # with their bits.
    layer = np.full((3, 3), -90.0)
    payload = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
    layer[0] = (-np.nan, payload, np.nan)
    grid = constant_grid([("A", (0.0, 0.0), 0.0, layer, ())], m=3)
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    loaded = load_grid(path).rsrp
    np.testing.assert_array_equal(loaded, grid.rsrp)
    assert loaded.view(np.uint64).tolist() == grid.rsrp.view(np.uint64).tolist()
