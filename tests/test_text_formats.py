"""Byte pins of the text artifacts: ``grid.csv``, the weight-map CSVs and
``cdf.csv``.

The per-row writers below are the reference implementations of the three
formats. The production writers must produce the same bytes on every
artifact of a desk run and on seeded grids and maps with edge values, and
``save(load(f))`` must give ``f`` back.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from hotloc.evaluate import write_report_csvs
from hotloc import grid as grid_module
from hotloc.grid import (
    CellInfo,
    CoverageGrid,
    GridSpec,
    load_grid,
    repr_lookup,
    save_grid,
    text_rows,
)
from hotloc.kpi import LABEL_TRUTH, WeightMap, load_weight_map, save_weight_map

EDGE_VALUES = (-0.0, 5e-324, 1e16, 1e-5, 1e-4)
# The longest reprs a double has: 24 characters negative, 23 positive.
LONGEST_NEGATIVE = (-2.2250738585072014e-308, -1.7976931348623157e308)
LONGEST_POSITIVE = (2.2250738585072014e-308, 1.7976931348623157e308)
# Pools the edge grids and maps draw repeated values from, one per format
# and the same for every seed, so values repeat within a layer or map,
# across layers and across maps.
GRID_POOL = np.random.default_rng(1234).uniform(-130.0, -60.0, size=8)
MAP_POOL = np.random.default_rng(5678).random(8)


def reference_grid_text(grid: CoverageGrid) -> str:
    spec = grid.spec
    lines = ["hotloc-grid,2"]
    lines.append(f"m,{spec.m}")
    lines.append(f"pixel_size,{spec.pixel_size!r}")
    lines.append(f"origin,{spec.origin[0]!r},{spec.origin[1]!r}")
    lines.append(f"q_rxlevmin,{grid.q_rxlevmin!r}")
    lines.append(f"cells,{grid.n_cells}")
    for cell in grid.cells:
        az_deg = math.degrees(cell.azimuth)
        nbs = ";".join(cell.neighbors)
        lines.append(
            f"cell,{cell.cell_id},{cell.site_position[0]!r},"
            f"{cell.site_position[1]!r},{az_deg!r},{nbs}"
        )
    lines.append("rsrp")
    for layer in grid.rsrp:
        lines += [",".join(map(repr, row)) for row in layer.tolist()]
    return "\n".join(lines) + "\n"


def reference_map_text(wmap: WeightMap) -> str:
    lines = ["hotloc-weightmap,1"]
    lines.append(f"m,{wmap.m}")
    lines.append(f"pixel_size,{wmap.pixel_size!r}")
    lines.append(f"label,{wmap.label}")
    lines.append(f"origin,{wmap.origin[0]!r},{wmap.origin[1]!r}")
    lines.append("i,j,weight")
    for i in range(wmap.m):
        row = wmap.values[i].tolist()
        for j in range(wmap.m):
            lines.append(f"{i},{j},{row[j]!r}")
    return "\n".join(lines) + "\n"


def reference_cdf_text(report) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["variant", "weight", "fraction"])
    series = [(LABEL_TRUTH, report.truth_cdf)]
    series += [(label, (v.cdf_weights, v.cdf_fractions)) for label, v in sorted(report.variants.items())]
    for label, (weights, fractions) in series:
        for w, f in zip(weights, fractions):
            writer.writerow([label, repr(float(w)), repr(float(f))])
    return fh.getvalue()


def edge_grid(seed: int) -> CoverageGrid:
    """Four cells with numeric-looking ids on a 7x7 grid: random RSRP, half
    of it drawn from ``GRID_POOL``, with NaN holes, one all-NaN layer,
    ``0.0`` and the 24-character reprs in the first layer and the edge
    values, ``-0.0`` among them, in the last one."""
    rng = np.random.default_rng(seed)
    m = 7
    rsrp = rng.uniform(-130.0, -60.0, size=(4, m, m))
    repeated = rng.random((4, m, m)) < 0.5
    rsrp[repeated] = rng.choice(GRID_POOL, size=np.count_nonzero(repeated))
    rsrp[rng.random((4, m, m)) < 0.3] = np.nan
    rsrp[1] = np.nan
    rsrp[0].flat[:3] = (0.0, *LONGEST_NEGATIVE)
    rsrp[3].flat[: len(EDGE_VALUES)] = EDGE_VALUES
    ids = ("12", "1e3", "nan", "-0.5")
    cells = [
        CellInfo(cell_id=cid, site_position=(25.0 * k, -12.5), azimuth=0.25 * k)
        for k, cid in enumerate(ids)
    ]
    return CoverageGrid(
        spec=GridSpec(m=m, pixel_size=12.5, origin=(-30.0, 40.0)),
        cells=cells,
        rsrp=rsrp,
        q_rxlevmin=-115.0,
    )


def edge_map(seed: int, m: int = 9) -> WeightMap:
    """An m x m weight map of random weights, half of them drawn from
    ``MAP_POOL``, zeros, the edge values and the 23-character reprs."""
    rng = np.random.default_rng(seed)
    values = rng.random((m, m)) * 10.0 ** rng.integers(-8, 8, size=(m, m))
    repeated = rng.random((m, m)) < 0.5
    values[repeated] = rng.choice(MAP_POOL, size=np.count_nonzero(repeated))
    values[rng.random((m, m)) < 0.2] = 0.0
    values.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    values.flat[-len(LONGEST_POSITIVE) :] = LONGEST_POSITIVE
    return WeightMap(values, GridSpec(m, 12.5, (3.25, -7.5)), "1e3")


def assert_round_trip(path, load, save):
    """``save(load(path))`` rewrites ``path`` byte for byte."""
    original = path.read_bytes()
    again = path.with_name("again-" + path.name)
    save(load(path), again)
    assert again.read_bytes() == original


class TestDeskArtifacts:
    def test_grid_csv_matches_reference(self, desk_run):
        path = desk_run.out_dir / "grid.csv"
        assert path.read_bytes() == reference_grid_text(desk_run.scenario.grid).encode()

    def test_weight_maps_match_reference(self, desk_run):
        maps = {
            "truth": desk_run.scenario.truth,
            "potential": desk_run.potential_map,
            "fused": desk_run.localization.fused,
            "smoothed": desk_run.localization.smoothed,
        }
        maps.update((wmap.label, wmap) for wmap in desk_run.kpi_maps)
        assert len(maps) == 9
        for name, wmap in maps.items():
            path = desk_run.out_dir / f"{name}.csv"
            assert path.read_bytes() == reference_map_text(wmap).encode(), name

    def test_cdf_csv_matches_reference(self, desk_run):
        path = desk_run.out_dir / "cdf.csv"
        assert path.read_bytes() == reference_cdf_text(desk_run.report).encode()

    def test_save_of_load_is_identity(self, desk_run, tmp_path):
        for path in sorted(desk_run.out_dir.glob("*.csv")):
            if path.name == "grid.csv":
                load, save = load_grid, save_grid
            elif path.read_text().startswith("hotloc-weightmap,1\n"):
                load, save = load_weight_map, save_weight_map
            else:
                continue
            copy = tmp_path / path.name
            copy.write_bytes(path.read_bytes())
            assert_round_trip(copy, load, save)


class TestEdgeValues:
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_bytes_and_round_trip(self, tmp_path, seed):
        grid = edge_grid(seed)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        assert path.read_bytes() == reference_grid_text(grid).encode()
        loaded = load_grid(path)
        np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)
        np.testing.assert_array_equal(np.signbit(loaded.rsrp), np.signbit(grid.rsrp))
        assert [c.cell_id for c in loaded.cells] == [c.cell_id for c in grid.cells]
        assert_round_trip(path, load_grid, save_grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_map_bytes_and_round_trip(self, tmp_path, seed):
        wmap = edge_map(seed)
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        assert path.read_bytes() == reference_map_text(wmap).encode()
        loaded = load_weight_map(path)
        np.testing.assert_array_equal(loaded.values, wmap.values)
        np.testing.assert_array_equal(np.signbit(loaded.values), np.signbit(wmap.values))
        assert_round_trip(path, load_weight_map, save_weight_map)

    @pytest.mark.parametrize("m", (11, 101))
    def test_map_bytes_with_multi_digit_indices(self, tmp_path, m):
        # Two- and three-digit pixel indices: the i and j texts are padded
        # to the widest index, and none of the padding may reach the file.
        wmap = edge_map(m, m)
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        assert path.read_bytes() == reference_map_text(wmap).encode()
        assert_round_trip(path, load_weight_map, save_weight_map)

    def test_cdf_bytes_with_edge_weights(self, tmp_path, desk_run):
        weights = np.array(sorted({0.0, *EDGE_VALUES[1:], 0.5}))
        fractions = np.linspace(0.0, 1.0, weights.size)
        edge_report = replace(desk_run.report, truth_cdf=(weights, fractions))
        paths = [tmp_path / name for name in ("peaks.csv", "detection.csv", "cdf.csv")]
        write_report_csvs(edge_report, *map(str, paths))
        assert paths[2].read_bytes() == reference_cdf_text(edge_report).encode()


class TestReprLookup:
    def test_matches_repr_on_random_bit_patterns(self, monkeypatch):
        # Batches smaller than the input, with a ragged last one.
        monkeypatch.setattr(grid_module, "_REPR_CHUNK", 999)
        rng = np.random.default_rng(0)
        top = np.iinfo(np.uint64).max
        bits = rng.integers(0, top, size=10_000, dtype=np.uint64, endpoint=True)
        # Subnormals: a zero exponent field under either sign.
        bits[:200] &= np.uint64((1 << 63) | ((1 << 52) - 1))
        # The smallest and largest subnormals and normals, signed zeros
        # and infinities.
        special = [5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308]
        special += [*LONGEST_NEGATIVE, *LONGEST_POSITIVE, 0.0, -0.0, math.inf, -math.inf]
        values = np.concatenate((bits.view(np.float64), special))
        values = values[~np.isnan(values)]
        # Every value again, in another order, so most of them repeat.
        values = np.concatenate((values, rng.permutation(values)))
        lookup = repr_lookup(values)
        texts = lookup(values)
        assert texts.dtype == np.dtype("S24")
        assert texts.tolist() == [repr(v).encode() for v in values.tolist()]
        part = values[::-7]
        assert lookup(part).tolist() == [repr(v).encode() for v in part.tolist()]

    def test_keeps_the_shape_of_its_input(self):
        values = np.array([[1.5, -0.0], [0.0, 1.5]])
        texts = repr_lookup(values)(values)
        assert texts.shape == (2, 2)
        assert texts.tolist() == [[b"1.5", b"-0.0"], [b"0.0", b"1.5"]]


class TestTextRows:
    def test_texts_that_fill_their_width(self):
        # No NUL pads a 24-character repr, and the padding of the shorter
        # ones goes.
        values = np.array([[*LONGEST_NEGATIVE], [0.5, LONGEST_NEGATIVE[0]]])
        texts = repr_lookup(values)(values)
        expected = "\n".join(",".join(map(repr, row)) for row in values.tolist()) + "\n"
        assert text_rows([texts]) == expected.encode()

    def test_crlf_ending(self):
        fields = [np.array([b"a", b"bc"]), np.array([b"1.5", b"-0.0"])]
        assert text_rows(fields, end=b"\r\n") == b"a,1.5\r\nbc,-0.0\r\n"

    def test_wide_field_between_columns(self):
        first = np.array([b"0", b"10"])
        wide = np.array([[b"x", b"yy", b"z"], [b"", b"q", b"rrr"]])
        last = np.array([b"1e-05", b"nan"])
        assert text_rows([first, wide, last]) == b"0,x,yy,z,1e-05\n10,,q,rrr,nan\n"

    def test_single_row(self):
        assert text_rows([np.array([b"7"]), np.array([[b"1.0", b"2.0"]])]) == b"7,1.0,2.0\n"
