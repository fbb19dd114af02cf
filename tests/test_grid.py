import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import constant_grid, put_byte
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
        assert not path.exists()

    @pytest.mark.parametrize("line_no", [1, 2, -1])
    def test_byte_not_utf8_named_by_line(self, tmp_path, line_no):
        # The last line of a 40x40 grid lies past the first block a text
        # file decodes at a time.
        cells = [("A", (0.0, 0.0), 0.0, -90.0, ()), ("B", (0.0, 0.0), 0.0, -95.5, ())]
        grid = constant_grid(cells, m=40)
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

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("q_rxlevmin,-60.0", "header row already given on line 5"),
            ("m,3", "header row already given on line 2"),
            ("foo,bar", "unknown header row"),
        ],
    )
    def test_repeated_or_unknown_header_row_named_by_line(self, tmp_path, row, reason):
        # Cell rows repeat, one per cell; every other header row is given once.
        path = self.two_cell_file(tmp_path)
        text = path.read_text()
        line_no = text.splitlines().index("rsrp") + 1
        path.write_text(text.replace("\nrsrp\n", f"\n{row}\nrsrp\n"))
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: {reason}: {row!r}"

    def test_row_only_python_reads_is_rejected(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        path.write_text(path.read_text().replace("\n-90.0,-90.0,-90.0\n", "\n-90.0,-9_0.0,-90.0\n", 1))
        with pytest.raises(ValueError, match=f"^{path}: line 10: cell 'A': garbled rows from here: "):
            load_grid(path)

    def test_duplicate_row_named_by_line(self, tmp_path):
        # A row given twice is one row too many; the extra one is named.
        path = self.two_cell_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: line {len(lines) + 1}: more than 6 rows"

    def test_blank_lines_after_the_last_row_are_skipped(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        grid = load_grid(path)
        path.write_text(path.read_text() + "\n \n")
        np.testing.assert_array_equal(load_grid(path).rsrp, grid.rsrp)

    def test_file_cut_off_in_a_layer_named_by_line(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == (
            f"{path}: line {len(lines) - 1}: cell 'B': the file ends after 1 of 3 rows"
        )

    @pytest.mark.parametrize(
        "offset, replacement, reason",
        [
            (1, "-90.0,-90.0", "cell 'A': expected 3 values, got 2"),
            (4, "-80.0,-80.0,-80.0,-80.0", "cell 'B': expected 3 values, got 4"),
            (3, "-80.0;-80.0;-80.0", "cell 'B': expected 3 values, got 1"),
            (2, "", "cell 'A': expected 3 values, got 0"),
            (2, "-90.0,-9o.0,-90.0", "cell 'A': value 2 '-9o.0' is not a number"),
            (1, "-90.0,-90.0,-90.0#5", "cell 'A': value 3 '-90.0#5' is not a number"),
            (0, "nan,inf,-90.0", "cell 'A': value 2 'inf' is not finite or NaN"),
            (5, "-80.0,-80.0,-inf", "cell 'B': value 3 '-inf' is not finite or NaN"),
        ],
        ids=["short", "long", "semicolons", "blank", "garbled", "hash", "inf", "-inf"],
    )
    def test_bad_layer_row_named_by_line(self, tmp_path, offset, replacement, reason):
        path = self.two_cell_file(tmp_path)
        lines = path.read_text().splitlines()
        line_no = lines.index("rsrp") + 2 + offset
        lines[line_no - 1] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: {reason}"

    def test_version_one_file_refused_with_its_version(self, tmp_path):
        path = self.two_cell_file(tmp_path)
        path.write_text(path.read_text().replace("hotloc-grid,2\n", "hotloc-grid,1\n", 1))
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == (
            f"{path}: not a hotloc coverage grid file (hotloc-grid,2): 'hotloc-grid,1'"
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
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value).startswith(f"{path}: {reason}")

    def test_m_too_large_for_the_file_refused_before_allocating(self, tmp_path):
        # Two cells of m x m values take 2 * 2 * m^2 bytes or more; the
        # stack alone would be 144 TB.
        path = self.two_cell_file(tmp_path)
        size = path.stat().st_size
        path.write_text(path.read_text().replace("\nm,3\n", "\nm,3000000\n", 1))
        with pytest.raises(ValueError) as excinfo:
            load_grid(path)
        assert str(excinfo.value) == (
            f"{path}: m=3000000 needs 36000000000000 bytes of rows or more, "
            f"the file holds {size + 6}"
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


def test_load_grid_memory_is_bounded_by_the_block(tmp_path):
    # Nine layers of 128 x 128 random values. Beyond the stack, only the
    # text and the parse of a few layers may be alive at once; parsing
    # every layer in one call would hold another stack and all the text.
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
    layer = loaded.rsrp.nbytes // cells
    assert peak < loaded.rsrp.nbytes + 8 * layer


def test_every_nan_is_written_nan(tmp_path):
    # NaNs with the sign bit set or another payload read back as NaN.
    layer = np.full((3, 3), -90.0)
    payload = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
    layer[0] = (-np.nan, payload, np.nan)
    grid = constant_grid([("A", (0.0, 0.0), 0.0, layer, ())], m=3)
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    assert path.read_text().splitlines()[-3] == "nan,nan,nan"
    np.testing.assert_array_equal(load_grid(path).rsrp, grid.rsrp)
