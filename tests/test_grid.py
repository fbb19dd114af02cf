import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import constant_grid
from hotloc import grid as grid_module
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


def reference_rsrp(path) -> np.ndarray:
    """The RSRP stack of a grid.csv read one data row at a time with
    Python's own parsers: the reference for load_grid's bulk pass. A bad
    row raises ValueError whose argument is its 1-based line number."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    marker = lines.index("rsrp")
    ids, m = [], None
    for line in lines[1:marker]:
        key, _, rest = line.partition(",")
        if key == "cell":
            ids.append(rest.split(",")[0])
        elif key == "m":
            m = int(rest)
    rsrp = np.full((len(ids), m, m), np.nan)
    seen = set()
    for line_no, line in enumerate(lines[marker + 1 :], marker + 2):
        if not line:
            continue
        try:
            cell_id, i, j, value = line.split(",")
            key = (ids.index(cell_id), int(i), int(j))
            good = 0 <= key[1] < m and 0 <= key[2] < m and not math.isinf(float(value))
        except ValueError:
            good = False
        if not good or key in seen:
            raise ValueError(line_no)
        seen.add(key)
        rsrp[key] = float(value)
    return rsrp


def random_grid_file(tmp_path, ids, m=4, seed=0):
    """grid.csv of cells ``ids`` on an m x m grid, each layer of random
    RSRP with about a fifth of its pixels uncovered."""
    rng = np.random.default_rng(seed)
    cells = []
    for k, cell_id in enumerate(ids):
        layer = rng.uniform(-120.0, -70.0, (m, m))
        layer[rng.random((m, m)) < 0.2] = np.nan
        cells.append((cell_id, (10.0 * k, 0.0), 0.0, layer, ()))
    grid = constant_grid(cells, m=m)
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    return path, grid


def edit_data_rows(path, edit):
    """Replace the data rows of grid.csv by ``edit(rows)``."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    start = lines.index("rsrp") + 1
    lines[start:] = edit(lines[start:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestBlockedReader:
    """load_grid parses the data rows in blocks of ``_ROW_BLOCK``; with
    blocks of four rows, every file below spans more than two of them.
    The reader must agree with :func:`reference_rsrp` on every file."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(grid_module, "_ROW_BLOCK", 4)

    @pytest.mark.parametrize(
        "ids",
        [
            # One id a prefix of others, listed out of sorted order.
            ("AB", "A", "ABC", "B"),
            ("Zelle-\u00e4", "\u57fa\u7ad9-1", "A"),
        ],
    )
    def test_matches_reference(self, tmp_path, ids):
        path, grid = random_grid_file(tmp_path, ids)
        loaded = load_grid(path)
        assert [c.cell_id for c in loaded.cells] == list(ids)
        np.testing.assert_array_equal(loaded.rsrp, reference_rsrp(path))
        np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)

    def test_shuffled_rows_and_blank_lines(self, tmp_path):
        path, grid = random_grid_file(tmp_path, ("A", "AB", "B"))
        rng = np.random.default_rng(1)

        def shuffle(rows):
            # Layers interleaved, and blank lines in runs of up to three,
            # at the start, inside and across blocks and at the end.
            rows = [rows[k] for k in rng.permutation(len(rows))]
            for at in sorted(rng.choice(len(rows) + 1, size=12), reverse=True):
                rows[at:at] = [""] * int(rng.integers(1, 4))
            return [""] + rows + [""]

        edit_data_rows(path, shuffle)
        loaded = load_grid(path)
        np.testing.assert_array_equal(loaded.rsrp, reference_rsrp(path))
        np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)

    @pytest.mark.parametrize(
        "edit",
        [
            # The first row again in the last block.
            lambda rows: rows + ["", rows[0]],
            # A garbled value, unknown ids one and three characters
            # longer than the longest id, and one that is a prefix of a
            # known id, in the third block and later.
            lambda rows: rows[:10] + [rows[10].rsplit(",", 1)[0] + ",x"] + rows[11:],
            lambda rows: rows[:9] + ["ABZ" + rows[9][rows[9].index(",") :]] + rows[10:],
            lambda rows: rows[:9] + ["ABZZZ" + rows[9][rows[9].index(",") :]] + rows[10:],
            lambda rows: rows[:13] + ["A" + rows[13][rows[13].index(",") :]] + rows[14:],
            # A pixel outside the grid after the first block.
            lambda rows: rows[:5] + [rows[5].split(",")[0] + ",4,0,-90.0"] + rows[6:],
        ],
        ids=["duplicate", "garbled", "longer-id", "much-longer-id", "prefix-id", "outside"],
    )
    def test_bad_row_in_a_later_block_named_by_line(self, tmp_path, edit):
        path, _ = random_grid_file(tmp_path, ("AB", "BC", "CD"))
        edit_data_rows(path, edit)
        with pytest.raises(ValueError) as reference:
            reference_rsrp(path)
        (line_no,) = reference.value.args
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line_no}: "):
            load_grid(path)

    def test_weight_map_over_blocks(self, tmp_path):
        values = np.random.default_rng(2).random((5, 5))
        values[1, 2] = 0.0
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(values, 25.0, "q1"), path)
        np.testing.assert_array_equal(load_weight_map(path).values, values)


def test_load_grid_memory_is_bounded_by_the_block(tmp_path):
    # Nine full layers of 128 x 128 pixels: nine blocks of rows. Only the
    # stack, one bool per entry and one block's rows may be alive at once.
    m, cells = 128, 9
    grid = constant_grid(
        [(f"C{k}", (10.0 * k, 0.0), 0.0, -70.0 - k, ()) for k in range(cells)], m=m
    )
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    assert cells * m * m >= 8 * grid_module._ROW_BLOCK
    tracemalloc.start()
    try:
        loaded = load_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)
    allowance = loaded.rsrp.size + 200 * grid_module._ROW_BLOCK
    assert peak < loaded.rsrp.nbytes + allowance
