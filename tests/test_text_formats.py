"""Byte pins of the grid's files, ``grid.csv`` and its cube ``grid.npy``,
and of the text artifacts: the weight-map CSVs, ``cdf.csv``, ``peaks.csv``
and ``detection.csv``.

The per-row writers below are the reference implementations of the
formats, and ``reference_cube_bytes`` writes the ``.npy`` format by its
specification, apart from numpy's writer, so the pins hold on every numpy
the project supports. The production writers must produce the same bytes
on every artifact of a desk run and on seeded grids and maps with edge
values, and ``save(load(f))`` must give ``f`` back.
"""

import csv
import io
import math
import operator
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hotloc import evaluate as evaluate_module, grid as grid_module, kpi as kpi_module
from hotloc.bounds import InputError
from hotloc.evaluate import write_report_csvs
from hotloc.grid import (
    CellInfo,
    CoverageGrid,
    GridSpec,
    load_grid,
    cube_path,
    repr_table,
    save_grid,
    text_rows,
)
from hotloc.kpi import LABEL_TRUTH, WeightMap, load_kpi_set, load_potential_spec, load_weight_map, save_weight_map
from hotloc.pipeline import load_importance

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
    lines = ["hotloc-grid,3"]
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
    return "\n".join(lines) + "\n"


def reference_cube_bytes(rsrp: np.ndarray) -> bytes:
    """The ``.npy`` file of the float64 cube ``rsrp``, format version 1.0:
    the magic, the header's length as a little-endian uint16 and the
    header, the repr of a dict padded with spaces to 21 digits of its
    first axis and then to a multiple of 64 bytes with the magic, ended
    by a newline; then the values, little-endian, in C order."""
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {rsrp.shape!r}, }}"
    header += " " * (21 - len(repr(rsrp.shape[0])))
    header += " " * (-(10 + len(header) + 1) % 64) + "\n"
    values = np.ascontiguousarray(rsrp, dtype="<f8").tobytes()
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode("latin1") + values


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


def reference_peaks_text(report) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["variant", "gen_x", "gen_y", "est_x", "est_y", "dist_m"])
    for label, variant in sorted(report.variants.items()):
        for pair in variant.pairs:
            gen, est = pair.generated, pair.estimated
            coords = [repr(gen.x), repr(gen.y), repr(est.x), repr(est.y)]
            writer.writerow([label, *coords, repr(pair.distance_m)])
    return fh.getvalue()


def reference_detection_text(report) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["variant", "p", "detected"])
    for label, variant in sorted(report.variants.items()):
        for p, detected in sorted(variant.detection.items()):
            writer.writerow([label, repr(p), repr(detected)])
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
    """``save(load(path))`` rewrites ``path`` byte for byte, and a grid's
    cube file beside it."""
    again = path.with_name("again-" + path.name)
    save(load(path), again)
    assert again.read_bytes() == path.read_bytes()
    if save is save_grid:
        assert cube_path(again).read_bytes() == cube_path(path).read_bytes()


def desk_maps(run) -> dict[str, WeightMap]:
    """The nine weight maps of a desk run, by file name."""
    maps = {
        "truth": run.scenario.truth,
        "potential": run.potential_map,
        "fused": run.localization.fused,
        "smoothed": run.localization.smoothed,
    }
    maps.update((wmap.label, wmap) for wmap in run.kpi_maps)
    assert len(maps) == 9
    return maps


class TestDeskArtifacts:
    def test_grid_csv_matches_reference(self, desk_run):
        path = desk_run.out_dir / "grid.csv"
        assert path.read_bytes() == reference_grid_text(desk_run.scenario.grid).encode()
        cube = desk_run.out_dir / "grid.npy"
        assert cube.read_bytes() == reference_cube_bytes(desk_run.scenario.grid.rsrp)

    def test_weight_maps_match_reference(self, desk_run):
        for name, wmap in desk_maps(desk_run).items():
            path = desk_run.out_dir / f"{name}.csv"
            assert path.read_bytes() == reference_map_text(wmap).encode(), name

    def test_cdf_csv_matches_reference(self, desk_run):
        path = desk_run.out_dir / "cdf.csv"
        assert path.read_bytes() == reference_cdf_text(desk_run.report).encode()

    def test_peaks_and_detection_csvs_match_reference(self, desk_run):
        report = desk_run.report
        assert report.variants and all(v.pairs and v.detection for v in report.variants.values())
        peaks = desk_run.out_dir / "peaks.csv"
        assert peaks.read_bytes() == reference_peaks_text(report).encode()
        detection = desk_run.out_dir / "detection.csv"
        assert detection.read_bytes() == reference_detection_text(report).encode()

    def test_save_of_load_is_identity(self, desk_run, tmp_path):
        for path in sorted(desk_run.out_dir.glob("*.csv")):
            if path.name == "grid.csv":
                load, save = load_grid, save_grid
                cube_path(tmp_path / path.name).write_bytes(cube_path(path).read_bytes())
            elif path.read_text().startswith("hotloc-weightmap,1\n"):
                load, save = load_weight_map, save_weight_map
            else:
                continue
            copy = tmp_path / path.name
            copy.write_bytes(path.read_bytes())
            assert_round_trip(copy, load, save)


def assert_prefixes_refused_or_whole(path, cuts, load, same):
    """Each prefix of the file ``path`` whose length is in ``cuts``, written
    over ``path``, is refused by ``load`` with an InputError of ``path``,
    or ``same`` as what ``load`` reads from the whole file. The file is
    cut shorter and shorter in place, longest prefix first."""
    data = path.read_bytes()
    whole = load(path)
    for cut in sorted(cuts, reverse=True):
        os.truncate(path, cut)
        try:
            loaded = load(path)
        except InputError as exc:
            assert exc.source == str(path), f"{path.name} cut at byte {cut}: {exc}"
        else:
            assert same(loaded, whole), f"{path.name} cut at byte {cut} reads as another {type(whole).__name__}"
    path.write_bytes(data)


def same_kpi_set(a, b):
    def cell(k):
        return k.ta.tolist(), k.aoa.tolist(), k.neighbor_level, k.load_time, k.amt_bps, k.hmt_bps

    return (a.source, a.window_s, {c: cell(k) for c, k in a.cells.items()}) == (
        b.source, b.window_s, {c: cell(k) for c, k in b.cells.items()}
    )


class TestCutShort:
    """A file cut short, as a full disk or a killed run leaves it, is
    refused naming the file, never read as a smaller valid one."""

    def test_every_prefix_of_the_desk_grid(self, desk_run, tmp_path):
        # Cut inside the neighbor list of the last cell row, grid.csv read
        # as a grid whose last cell has fewer neighbors.
        path = tmp_path / "grid.csv"
        path.write_bytes((desk_run.out_dir / "grid.csv").read_bytes())
        cube_path(path).write_bytes((desk_run.out_dir / "grid.npy").read_bytes())

        def same(a, b):
            return (a.spec, a.cells, a.q_rxlevmin) == (b.spec, b.cells, b.q_rxlevmin) and np.array_equal(
                a.rsrp, b.rsrp, equal_nan=True
            )

        assert_prefixes_refused_or_whole(path, range(path.stat().st_size), load_grid, same)

    def test_maps_cut_in_their_last_two_rows(self, desk_run, tmp_path):
        # Every desk map ends in zeros, and "0" reads as "0.0". A last
        # weight of many digits cut after one of them reads as another
        # number.
        maps = desk_maps(desk_run)
        values = maps["truth"].values.copy()
        values[-1, -1] = 0.012345678901234
        maps["long-last"] = WeightMap(values, maps["truth"].spec, "long-last")

        def same(a, b):
            return (a.spec, a.label) == (b.spec, b.label) and np.array_equal(a.values, b.values)

        for name, wmap in maps.items():
            path = tmp_path / f"{name}.csv"
            save_weight_map(wmap, path)
            data = path.read_bytes()
            second_last = data.rindex(b"\n", 0, data.rindex(b"\n", 0, len(data) - 1)) + 1
            assert_prefixes_refused_or_whole(path, range(second_last, len(data)), load_weight_map, same)

    @pytest.mark.parametrize(
        "name, load, same",
        [
            ("kpis.json", load_kpi_set, same_kpi_set),
            ("importance.json", load_importance, operator.eq),
            ("potential.json", load_potential_spec, operator.eq),
        ],
    )
    def test_every_prefix_of_the_desk_json(self, desk_run, tmp_path, name, load, same):
        # Only importance.json without its final newline reads, as the
        # same document.
        path = tmp_path / name
        path.write_bytes((desk_run.out_dir / name).read_bytes())
        assert_prefixes_refused_or_whole(path, range(path.stat().st_size), load, same)

    def test_cube_cut_in_its_header_data_and_last_value(self, desk_run, tmp_path):
        # Every byte of the .npy header, a stride through the data that
        # falls at every offset within a value, and the last 8 bytes.
        grid_path = tmp_path / "grid.csv"
        grid_path.write_bytes((desk_run.out_dir / "grid.csv").read_bytes())
        path = cube_path(grid_path)
        path.write_bytes((desk_run.out_dir / "grid.npy").read_bytes())
        size = path.stat().st_size
        with open(path, "rb") as fh:
            np.lib.format.read_magic(fh)
            header = fh.tell() + 2 + int.from_bytes(fh.read(2), "little")
        assert (size - header) % 8 == 0 and header % 64 == 0
        cuts = [*range(header + 1), *range(header, size, 4099), *range(size - 8, size)]

        def same(a, b):
            return np.array_equal(a.rsrp, b.rsrp, equal_nan=True)

        assert_prefixes_refused_or_whole(path, cuts, lambda _: load_grid(grid_path), same)

    @pytest.mark.parametrize("name, load", [("grid.csv", load_grid), ("q1.csv", load_weight_map)])
    def test_cut_row_named_by_line(self, desk_run, tmp_path, name, load):
        # The whole file but its final newline.
        path = tmp_path / name
        data = (desk_run.out_dir / name).read_bytes()[:-1]
        path.write_bytes(data)
        cube_path(path).write_bytes((desk_run.out_dir / "grid.npy").read_bytes())
        with pytest.raises(InputError) as excinfo:
            load(path)
        *rows, last = data.decode().split("\n")
        assert (excinfo.value.source, excinfo.value.where) == (str(path), f"line {len(rows) + 1}")
        assert excinfo.value.message == f"cut short: the row has no line end: {last!r}"


class TestEdgeValues:
    def test_small_cube_bytes(self, tmp_path):
        # One cell of 2 x 2 pixels, pinned to the byte: a 128-byte .npy
        # file whose header is padded to 118 bytes, then the 4 values.
        values = (-90.0, -0.0, math.nan, 5e-324)
        cells = [CellInfo("A", (0.0, 0.0), 0.0)]
        grid = CoverageGrid(GridSpec(2, 12.5), cells, np.array(values).reshape(1, 2, 2), -115.0)
        save_grid(grid, tmp_path / "grid.csv")
        header = "{'descr': '<f8', 'fortran_order': False, 'shape': (1, 2, 2), }"
        expected = b"\x93NUMPY\x01\x00\x76\x00" + (header + " " * 55 + "\n").encode()
        expected += struct.pack("<4d", *values)
        assert (tmp_path / "grid.npy").read_bytes() == expected == reference_cube_bytes(grid.rsrp)
        assert len(expected) == 128 + 4 * 8

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_bytes_and_round_trip(self, tmp_path, seed):
        grid = edge_grid(seed)
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        assert path.read_bytes() == reference_grid_text(grid).encode()
        assert cube_path(path).read_bytes() == reference_cube_bytes(grid.rsrp)
        loaded = load_grid(path)
        np.testing.assert_array_equal(loaded.rsrp, grid.rsrp)
        np.testing.assert_array_equal(np.signbit(loaded.rsrp), np.signbit(grid.rsrp))
        assert [c.cell_id for c in loaded.cells] == [c.cell_id for c in grid.cells]
        assert_round_trip(path, load_grid, save_grid)

    def test_grid_nan_of_any_sign_or_payload(self, tmp_path):
        grid = edge_grid(0)
        negative = np.copysign(np.nan, -1.0)
        payload = np.array([0x7FF0_0000_0000_0ABC, 0xFFF8_0000_0000_0001], np.uint64).view(np.float64)
        grid.rsrp[0].flat[3:6] = (negative, *payload)
        grid.rsrp[2, -1, :3] = (payload[1], negative, payload[0])
        path = tmp_path / "grid.csv"
        save_grid(grid, path)
        assert path.read_bytes() == reference_grid_text(grid).encode()
        # The cube keeps every NaN's bits.
        assert cube_path(path).read_bytes() == reference_cube_bytes(grid.rsrp)
        assert load_grid(path).rsrp.tobytes() == grid.rsrp.tobytes()

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

    @pytest.mark.parametrize("m", (2, 10, 11, 100, 101))
    def test_map_bytes_with_multi_digit_indices(self, tmp_path, m):
        # One-, two- and three-digit pixel indices, on either side of each
        # change of width: the i,j texts are padded to the widest, and none
        # of the padding may reach the file.
        wmap = edge_map(m, m)
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        assert path.read_bytes() == reference_map_text(wmap).encode()
        assert_round_trip(path, load_weight_map, save_weight_map)

    def test_maps_of_two_sizes_written_alternately(self, tmp_path):
        # The i,j column is cached by m: each map must take the column of
        # its own size, whether it is built, cached or built again.
        kpi_module._pixel_column.cache_clear()
        for k, m in enumerate((10, 11, 10, 11, 100, 10, 101, 11)):
            wmap = edge_map(k, m)
            path = tmp_path / f"map{k}.csv"
            save_weight_map(wmap, path)
            assert path.read_bytes() == reference_map_text(wmap).encode(), m
        column = kpi_module._pixel_column(11)
        assert column is kpi_module._pixel_column(11)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = b"9,9"
        assert column.tolist() == [f"{i},{j}".encode() for i in range(11) for j in range(11)]

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_map_bytes_around_the_kernel_threshold(self, tmp_path, monkeypatch, offset):
        # A map of one distinct value fewer than the kernel takes, as many
        # and one more: zeros of both signs, powers of two, decimals of 15
        # or fewer digits and random weights, some of them repeated.
        count = grid_module._KERNEL_MIN + offset
        kernel = []
        repr_bytes = grid_module._repr_bytes
        monkeypatch.setattr(grid_module, "_repr_bytes", lambda v: kernel.append(v.size) or repr_bytes(v))
        rng = np.random.default_rng(count)
        short = [round(v, int(d)) for v, d in zip(rng.random(60).tolist(), rng.integers(1, 16, 60))]
        shared = np.concatenate(([0.0, -0.0], np.ldexp(1.0, np.arange(-40, 20)), short))
        shared = np.unique(shared.view(np.uint64)).view(np.float64)
        distinct = np.concatenate((shared, rng.random(count - shared.size)))
        assert np.unique(distinct.view(np.uint64)).size == count
        m = 16
        values = np.concatenate((distinct, rng.choice(distinct, m * m - count)))
        wmap = WeightMap(rng.permutation(values).reshape(m, m), GridSpec(m, 12.5, (0.0, 0.0)), "edge")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        assert path.read_bytes() == reference_map_text(wmap).encode()
        assert kernel == ([count] if count >= grid_module._KERNEL_MIN else [])

    def test_cdf_bytes_with_edge_weights(self, tmp_path, desk_run):
        weights = np.array(sorted({0.0, *EDGE_VALUES[1:], 0.5}))
        fractions = np.linspace(0.0, 1.0, weights.size)
        edge_report = replace(desk_run.report, truth_cdf=(weights, fractions))
        paths = [tmp_path / name for name in ("peaks.csv", "detection.csv", "cdf.csv")]
        write_report_csvs(edge_report, *map(str, paths))
        assert paths[2].read_bytes() == reference_cdf_text(edge_report).encode()

    def test_cdf_bytes_with_shared_weights_and_fractions(self, tmp_path, desk_run):
        # Every series draws its weights and fractions from one set of
        # values, and some values are both a weight and a fraction.
        shared = np.array([0.0, 1e-05, 0.125, 0.25, 0.5, 0.75, 1.0])
        report = desk_run.report
        variants = {
            label: replace(v, cdf_weights=shared[k % 3 :], cdf_fractions=shared[k % 3 :][::-1])
            for k, (label, v) in enumerate(sorted(report.variants.items()))
        }
        shared_report = replace(report, truth_cdf=(shared[1:], shared[1:]), variants=variants)
        paths = [tmp_path / name for name in ("peaks.csv", "detection.csv", "cdf.csv")]
        write_report_csvs(shared_report, *map(str, paths))
        assert paths[2].read_bytes() == reference_cdf_text(shared_report).encode()


def repr_sample() -> np.ndarray:
    """Over a million doubles built to hit each decision of the numpy
    repr path, in a fixed order: log-uniform magnitudes over its range
    and past each end, the 4096 doubles on either side of
    every power of ten from 1e-8 to 1e17 (its nextafter neighbours, the
    1e-4 and 1e16 layout switches and the carries of 9.99..., such as
    99.99999999999999), then the values it leaves to ``repr``: powers of
    two, subnormals, signed zeros, infinities and NaN payloads. Every
    value appears under both signs."""
    rng = np.random.default_rng(32)
    parts = [10.0 ** rng.uniform(-7.5, 17.5, size=300_000)]
    steps = np.arange(-4096, 4097, dtype=np.int64)
    powers = np.array([float(f"1e{e}") for e in range(-8, 18)])
    parts.append((powers.view(np.int64)[:, None] + steps).view(np.float64).reshape(-1))
    parts.append(np.ldexp(1.0, np.arange(-1074, 1024, dtype=np.int32)))
    subnormal = rng.integers(1, 1 << 52, size=20_000, dtype=np.uint64)
    parts.append(subnormal.view(np.float64))
    payload = rng.integers(1, 1 << 52, size=1000, dtype=np.uint64) | np.uint64(0x7FF0_0000_0000_0000)
    parts += [payload.view(np.float64), np.array([0.0, math.inf, math.nan])]
    values = np.concatenate(parts)
    return np.concatenate((values, -values))


class TestReprTable:
    def test_numpy_path_matches_repr_on_its_decisions(self):
        values = repr_sample()
        assert values.size > 1_000_000
        texts, index = repr_table(values)
        texts = texts.astype("S24").take(index)
        expected = np.fromiter(map(repr, values.tolist()), "S24", values.size)
        wrong = np.flatnonzero(texts != expected)
        assert [(values[i], texts[i]) for i in wrong[:5]] == []

    def test_numpy_path_in_any_order(self):
        # repr_table gives the kernel values sorted by bit pattern, in few
        # layout groups; shuffled, every value is a group of its own.
        values = np.random.default_rng(7).permutation(repr_sample())[:20_000]
        expected = np.fromiter(map(repr, values.tolist()), "S24", values.size)
        assert grid_module._repr_bytes(values).tolist() == expected.tolist()

    def test_desk_map_and_cdf_values_mostly_take_the_numpy_path(self, desk_run, tmp_path, monkeypatch):
        # In a table of _KERNEL_MIN or more distinct values, only the
        # kernel's fallback calls repr; a regression that sends every value
        # there keeps the bytes and loses the speed. A smaller table goes to
        # repr whole and never reaches the kernel. The values are those a
        # desk run formats, in its nine weight maps and in cdf.csv, counted
        # through the writers' own repr_table calls.
        fallback, kernel, tables = [], [], []
        repr_each, repr_bytes = grid_module._repr_each, grid_module._repr_bytes

        def each(values):
            fallback.append(values.size)
            return repr_each(values)

        def numpy_path(values):
            kernel.append(values.size)
            return repr_bytes(values)

        def table(values):
            fallback.clear()
            kernel.clear()
            texts, index = repr_table(values)
            tables.append((texts.size, sum(fallback), sum(kernel)))
            return texts, index

        monkeypatch.setattr(grid_module, "_repr_each", each)
        monkeypatch.setattr(grid_module, "_repr_bytes", numpy_path)
        monkeypatch.setattr(kpi_module, "repr_table", table)
        monkeypatch.setattr(evaluate_module, "repr_table", table)
        names = []
        for name, wmap in desk_maps(desk_run).items():
            names.append(f"{name}.csv")
            save_weight_map(wmap, tmp_path / names[-1])
        map_tables = tables[:]
        tables.clear()
        report_names = ["peaks.csv", "detection.csv", "cdf.csv"]
        write_report_csvs(desk_run.report, *(str(tmp_path / name) for name in report_names))
        cdf_tables = tables[:]
        for name in names + report_names:
            assert (tmp_path / name).read_bytes() == (desk_run.out_dir / name).read_bytes(), name
        # The desk run writes both sizes: q1-q5 and potential have 6-97
        # distinct values, the other maps and cdf.csv 469 or more.
        small = [t for t in map_tables + cdf_tables if t[0] < grid_module._KERNEL_MIN]
        assert len(small) == 6
        assert all(kernel == 0 and fallback == distinct for distinct, fallback, kernel in small)
        shares = []
        for tables_of_file in (map_tables, cdf_tables):
            large = [t for t in tables_of_file if t[0] >= grid_module._KERNEL_MIN]
            assert all(kernel == distinct for distinct, _, kernel in large)
            shares.append((sum(t[1] for t in large), sum(t[0] for t in large)))
        # About 5% of the large maps' 6.3k distinct values and 8% of
        # cdf.csv's 10k fall back.
        (map_fallback, map_distinct), (cdf_fallback, cdf_distinct) = shares
        assert map_distinct > 5_000 and cdf_distinct > 10_000
        assert map_fallback <= 0.1 * map_distinct
        assert cdf_fallback <= 0.1 * cdf_distinct

    def test_matches_repr_on_random_bit_patterns(self, monkeypatch):
        # Batches smaller than the input, with a ragged last one.
        monkeypatch.setattr(grid_module, "_REPR_CHUNK", 999)
        rng = np.random.default_rng(0)
        top = np.iinfo(np.uint64).max
        bits = rng.integers(0, top, size=10_000, dtype=np.uint64, endpoint=True)
        # Subnormals: a zero exponent field under either sign.
        bits[:200] &= np.uint64((1 << 63) | ((1 << 52) - 1))
        # NaNs of both signs with random payloads.
        bits[200:300] |= np.uint64(0x7FF0_0000_0000_0001)
        # The smallest and largest subnormals and normals, signed zeros
        # and infinities.
        special = [5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308]
        special += [*LONGEST_NEGATIVE, *LONGEST_POSITIVE, 0.0, -0.0, math.inf, -math.inf]
        values = np.concatenate((bits.view(np.float64), special))
        # Every value again, in another order, so most of them repeat, and
        # a run of one value.
        values = np.concatenate((values, rng.permutation(values), np.full(2500, 0.5)))
        texts, index = repr_table(values)
        assert index.dtype == np.intp
        assert index.shape == values.shape
        assert 0 <= index.min() and index.max() < texts.size
        # One text per bit pattern, as wide as the longest.
        assert texts.size == np.unique(values.view(np.uint64)).size
        assert texts.dtype == np.dtype("S24")
        assert texts.take(index).tolist() == [repr(v).encode() for v in values.tolist()]

    def test_signed_zeros_in_one_call(self):
        values = np.array([0.0, -0.0, 0.0, -0.0])
        texts, index = repr_table(values)
        assert texts.tolist() == [b"0.0", b"-0.0"]
        assert index.tolist() == [0, 1, 0, 1]

    def test_keeps_the_shape_of_its_input(self):
        values = np.array([[1.5, -0.0], [0.0, 1.5]])
        texts, index = repr_table(values)
        assert index.shape == (2, 2)
        assert texts.dtype == np.dtype("S4")
        assert texts.take(index).tolist() == [[b"1.5", b"-0.0"], [b"0.0", b"1.5"]]

    def test_no_values(self):
        texts, index = repr_table(np.empty((0, 3)))
        assert texts.size == 0
        assert index.shape == (0, 3) and index.dtype == np.intp


class TestTextRows:
    def test_texts_that_fill_their_width(self):
        # No NUL pads a 24-character repr, and the padding of the shorter
        # ones goes.
        values = np.array([[*LONGEST_NEGATIVE], [0.5, LONGEST_NEGATIVE[0]]])
        texts, index = repr_table(values)
        columns = list(texts.take(index).T)
        expected = "\n".join(",".join(map(repr, row)) for row in values.tolist()) + "\n"
        assert text_rows(columns) == expected.encode()

    def test_crlf_ending(self):
        fields = [np.array([b"a", b"bc"]), np.array([b"1.5", b"-0.0"])]
        assert text_rows(fields, end=b"\r\n") == b"a,1.5\r\nbc,-0.0\r\n"

    def test_wide_field_between_columns(self):
        first = np.array([b"0", b"10"])
        wide = [np.array([b"x", b""]), np.array([b"yy", b"q"]), np.array([b"z", b"rrr"])]
        last = np.array([b"1e-05", b"nan"])
        assert text_rows([first, *wide, last]) == b"0,x,yy,z,1e-05\n10,,q,rrr,nan\n"

    def test_single_row(self):
        fields = [np.array([b"7"]), np.array([b"1.0"]), np.array([b"2.0"])]
        assert text_rows(fields) == b"7,1.0,2.0\n"


class TestWriterMemory:
    def save_grid_memory(self, tmp_path, uncovered):
        """The traced peak of ``save_grid`` on 100 cells at m=40 with a
        share ``uncovered`` of NaN, per covered value."""
        rng = np.random.default_rng(40)
        n_cells, m = 100, 40
        rsrp = rng.choice(rng.uniform(-130.0, -60.0, size=256), size=(n_cells, m, m))
        rsrp[rng.random(rsrp.shape) < uncovered] = np.nan
        covered = np.count_nonzero(~np.isnan(rsrp))
        assert abs(covered / rsrp.size - (1.0 - uncovered)) < 0.01
        cells = [CellInfo(f"C{k}", (25.0 * k, 0.0), 0.0) for k in range(n_cells)]
        grid = CoverageGrid(GridSpec(m, 12.5, (0.0, 0.0)), cells, rsrp, -115.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_grid(grid, tmp_path / "grid.csv")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert (tmp_path / "grid.csv").read_bytes() == reference_grid_text(grid).encode()
        assert (tmp_path / "grid.npy").read_bytes() == reference_cube_bytes(rsrp)
        return peak / covered

    def test_save_grid_memory_per_covered_value(self, tmp_path):
        # About 40% of the stack is NaN. The cube goes to its file as it
        # is, so the peak is the text of the cell rows, about 16 kB, 0.2
        # bytes a covered value; a copy of the cube adds 13, and a NaN
        # mask of it 1.7.
        assert self.save_grid_memory(tmp_path, 0.4) < 1.0

    def test_save_grid_memory_at_low_coverage(self, tmp_path):
        # 5% of the stack is covered, about as much as at m=1024 with 183
        # cells: the same 16 kB are about 2 bytes a covered value, and a
        # NaN mask of the cube adds 20.
        assert self.save_grid_memory(tmp_path, 0.95) < 8.0
