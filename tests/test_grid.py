import math
import re

import numpy as np
import pytest

from conftest import constant_grid
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
from test_serving_tables import aoa_zone, ta_zone


def cell_at(site, azimuth=0.0):
    return CellInfo(cell_id="C", site_position=site, azimuth=azimuth)


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

    def test_tie_goes_to_lowest_index(self):
        grid = constant_grid(
            [("A", (0.0, 0.0), 0.0, -85.0, ()), ("B", (0.0, 0.0), 0.0, -85.0, ())],
            m=4,
        )
        servers = compute_server_maps(grid)
        assert (servers.best == 0).all()
        assert (servers.second == 1).all()

    def test_below_threshold_is_uncovered(self):
        grid = constant_grid([("A", (0.0, 0.0), 0.0, -120.0, ())], m=4)
        servers = compute_server_maps(grid)
        assert (servers.best == UNCOVERED).all()
        assert (servers.second == NO_SECOND).all()
        assert servers.uncovered_mask().all()

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

    @pytest.mark.parametrize(
        "cell_id, neighbor, name",
        [
            ("a,b", "B", "a,b"),
            ("a;b", "B", "a;b"),
            ("a\nb", "B", "a\nb"),
            ("A", "b,c", "b,c"),
            ("A", "b;c", "b;c"),
            ("A", "b\rc", "b\rc"),
        ],
    )
    def test_separator_in_id_rejected_before_writing(self, tmp_path, cell_id, neighbor, name):
        grid = constant_grid([(cell_id, (0.0, 0.0), 0.0, -90.0, (neighbor,))], m=4)
        path = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_grid(grid, path)
        assert not path.exists()

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
        with pytest.raises(ValueError, match=f"grid.csv: missing or garbled '{key}' header row"):
            load_grid(path)

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

    def test_rows_in_any_order(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        expected = load_grid(path)
        lines = path.read_text().splitlines()
        start = lines.index("rsrp") + 1
        # A nan value means no coverage, like an absent row.
        lines[start:] = lines[:start - 1:-1] + ["A,0,0,nan"]
        path.write_text("\n".join(lines) + "\n")
        np.testing.assert_array_equal(load_grid(path).rsrp, expected.rsrp)

    def test_row_only_python_reads_is_rejected(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        path.write_text(path.read_text().replace("\nA,1,1,-90.0\n", "\nA,0_1,1,-90.0\n"))
        with pytest.raises(ValueError, match=f"^{path}: garbled data row: "):
            load_grid(path)

    def test_duplicate_row_named_by_line(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        lines = path.read_text().splitlines()
        first = lines.index("A,1,1,-90.0") + 1
        path.write_text("\n".join(lines + ["A,1,1,-95.0"]) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == (
            f"{path}: line {len(lines) + 1}: pixel (1, 1) already given on line {first}: "
            "'A,1,1,-95.0'"
        )

    @pytest.mark.parametrize(
        "row, replacement, reason",
        [
            (
                "cell,B,5.0,0.0,57.29577951308232,A",
                "cell,B,5.0",
                "not enough values to unpack (expected 6, got 3)",
            ),
            ("cell,A,0.0,0.0,0.0,B", "cell,A,zero,0.0,0.0,B", "could not convert"),
            ("A,1,1,-90.0", "A,1", "not enough values to unpack (expected 4, got 2)"),
            ("A,1,2,-90.0", "A,1,2,-9o.0", "could not convert"),
            ("B,2,1,-80.0", "C,2,1,-80.0", "unknown cell id 'C'"),
            ("A,1,2,-90.0", "A,1,2,-90.0,5", "too many values to unpack (expected 4"),
            ("A,1,2,-90.0", "A,1,2,-90.0#5", "could not convert string to float: '-90.0#5'"),
            ("A,1,2,-90.0", "A,1e0,2,-90.0", "invalid literal for int() with base 10: '1e0'"),
            ("A,1,2,-90.0", "A,1,1.5,-90.0", "invalid literal for int() with base 10: '1.5'"),
            ("A,1,1,-90.0", "A,-1,0,-42.0", "pixel (-1, 0) outside the 3x3 grid"),
            ("A,1,1,-90.0", "A,1,-1,-42.0", "pixel (1, -1) outside the 3x3 grid"),
            ("B,2,1,-80.0", "B,3,1,-80.0", "pixel (3, 1) outside the 3x3 grid"),
            ("B,2,1,-80.0", "B,2,3,-80.0", "pixel (2, 3) outside the 3x3 grid"),
            ("A,1,1,-90.0", "A,1,1,inf", "value must be finite or NaN"),
            ("B,2,1,-80.0", "B,2,1,-inf", "value must be finite or NaN"),
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

