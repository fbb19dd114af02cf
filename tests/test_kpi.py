import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import constant_grid, put_byte, random_truth, single_cell_grid
from hotloc import kpi
from hotloc.bounds import ConfigError, InputError
from hotloc.grid import TA_ZONE_COUNT, GridSpec, compute_server_maps, ta_zone_layer, aoa_zone_layer
from hotloc.kpi import (
    DIST_TOL,
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
        KpiSet({"A": self.good()}).validate()

    def test_empty_cell_is_valid(self):
        empty = CellKpis.empty()
        KpiSet({"A": empty}).validate()
        assert empty.is_empty()
        assert not self.good().is_empty()

    def test_partial_sum_rejected(self):
        bad = self.good()
        bad.ta = np.array([0.3, 0.2, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="sum to 0 or 1"):
            KpiSet({"A": bad}).validate()

    def test_negative_fraction_rejected(self):
        bad = self.good()
        bad.aoa = np.array([-0.1, 0.6, 0.5])
        with pytest.raises(ValueError):
            KpiSet({"A": bad}).validate()

    def test_hmt_above_amt_rejected(self):
        bad = self.good()
        bad.hmt_bps = 3e6
        with pytest.raises(ValueError, match="hmt"):
            KpiSet({"A": bad}).validate()

    def test_load_range_enforced(self):
        bad = self.good()
        bad.load_time = 1.2
        with pytest.raises(ValueError, match="load_time"):
            KpiSet({"A": bad}).validate()

    @pytest.mark.parametrize("field", ["amt_bps", "hmt_bps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_throughput_rejected(self, field, value):
        bad = self.good()
        setattr(bad, field, value)
        with pytest.raises(ValueError, match="throughputs must be finite"):
            KpiSet({"A": bad}).validate()

    def test_non_finite_neighbor_level_rejected(self):
        bad = self.good()
        bad.neighbor_level = {"B": np.nan, "C": 1.0}
        with pytest.raises(ValueError, match="neighbor_level fractions must be finite"):
            KpiSet({"A": bad}).validate()


def reference_validate(cell: CellKpis) -> None:
    """The per-cell checks ``KpiSet.validate`` makes for all cells at once,
    written for one cell: the reference its stacked pass must agree with."""
    if cell.ta.shape != (TA_ZONE_COUNT,) or cell.aoa.shape != (3,):
        raise ValueError("ta must have 6 entries and aoa 3")
    for name, values in (("ta", cell.ta), ("aoa", cell.aoa)):
        if not (np.isfinite(values).all() and values.min() >= 0):
            raise ValueError(
                f"{name} fractions must be finite and non-negative, got {values.tolist()}"
            )
        total = float(values.sum())
        if not (abs(total) <= DIST_TOL or abs(total - 1) <= DIST_TOL):
            raise ValueError(f"{name} fractions must sum to 0 or 1, got {total}")
    if cell.neighbor_level:
        levels = list(cell.neighbor_level.values())
        if not (np.isfinite(levels).all() and min(levels) >= 0):
            raise ValueError(
                f"neighbor_level fractions must be finite and non-negative, "
                f"got {cell.neighbor_level}"
            )
        total = sum(levels)
        if abs(total - 1) > DIST_TOL:
            raise ValueError(f"neighbor_level must sum to 1, got {total}")
    if not 0.0 <= cell.load_time <= 1.0:
        raise ValueError(f"load_time must be in [0, 1], got {cell.load_time}")
    if not np.isfinite([cell.amt_bps, cell.hmt_bps]).all():
        raise ValueError(
            f"throughputs must be finite, got amt_bps={cell.amt_bps} hmt_bps={cell.hmt_bps}"
        )
    if cell.amt_bps < 0 or cell.hmt_bps < 0 or cell.hmt_bps > cell.amt_bps:
        raise ValueError(
            f"throughputs need 0 <= hmt <= amt, got amt={cell.amt_bps} hmt={cell.hmt_bps}"
        )


# One bad value of each kind a cell can hold: (field, value).
BAD_CELLS = {
    "ta-nan": ("ta", [0.5, np.nan, 0.5, 0.0, 0.0, 0.0]),
    "aoa-inf": ("aoa", [np.inf, 0.0, 0.0]),
    "ta-negative": ("ta", [0.5, -0.1, 0.6, 0.0, 0.0, 0.0]),
    "aoa-negative-zero-sum": ("aoa", [-0.5, 0.5, 0.0]),
    "ta-sum": ("ta", [0.3, 0.2, 0.0, 0.0, 0.0, 0.0]),
    "aoa-sum-just-above": ("aoa", [0.5, 0.5, 2e-9]),
    "wrong-shape": ("ta", [0.5, 0.5]),
    "level-nan": ("neighbor_level", {"B": np.nan, "C": 1.0}),
    "level-negative": ("neighbor_level", {"B": -0.5, "C": 1.5}),
    "level-sum": ("neighbor_level", {"B": 0.5, "C": 0.4}),
    "load-above": ("load_time", 1.2),
    "load-nan": ("load_time", np.nan),
    "amt-inf": ("amt_bps", np.inf),
    "hmt-nan": ("hmt_bps", np.nan),
    "hmt-above-amt": ("hmt_bps", 3e6),
    "amt-negative": ("amt_bps", -1.0),
}
# The start of each rule's refusal, in the order the rules are checked.
RULE_ORDER = (
    "ta must have",
    "ta fractions must be finite",
    "ta fractions must sum",
    "aoa fractions must be finite",
    "aoa fractions must sum",
    "neighbor_level fractions must be finite",
    "neighbor_level must sum",
    "load_time",
    "throughputs must be finite",
    "throughputs need",
)


def rule_of(message: str) -> int:
    (rule,) = [r for r, start in enumerate(RULE_ORDER) if message.startswith(start)]
    return rule


class TestStackedValidate:
    """``KpiSet.validate`` checks every cell rule for all cells at once: the
    cell it names and its message must be those of ``reference_validate``
    run cell by cell."""

    def cells(self, n=12):
        rng = np.random.default_rng(3)
        cells = {}
        for k in range(n):
            ta, aoa = rng.random(6), rng.random(3)
            cells[f"C{k}"] = CellKpis(ta / ta.sum(), aoa / aoa.sum(), {"B": 0.25, "C": 0.75}, 0.5, 2e6, 1e6)
        cells["C3"] = CellKpis.empty()
        return cells

    @staticmethod
    def first_refusal(cells) -> tuple[str, str] | None:
        for cell_id, cell in cells.items():
            try:
                reference_validate(cell)
            except ValueError as exc:
                return f"cell {cell_id!r}", str(exc)
        return None

    @staticmethod
    def stacked_refusal(cells) -> tuple[str, str] | None:
        try:
            KpiSet(cells).validate()
        except InputError as exc:
            return exc.where, exc.message
        return None

    @staticmethod
    def spoil(cell, kind):
        field, value = BAD_CELLS[kind]
        setattr(cell, field, np.array(value) if field in ("ta", "aoa") else value)

    def test_valid_set_passes(self):
        assert self.stacked_refusal(self.cells()) is None
        assert self.stacked_refusal({}) is None

    @pytest.mark.parametrize("kind", sorted(BAD_CELLS))
    def test_first_bad_cell_named_as_by_the_loop(self, kind):
        cells = self.cells()
        for cell_id in ("C5", "C9"):
            self.spoil(cells[cell_id], kind)
        expected = self.first_refusal(cells)
        assert expected is not None and expected[0] == "cell 'C5'"
        assert self.stacked_refusal(cells) == expected

    @pytest.mark.parametrize("first", sorted(BAD_CELLS))
    def test_two_faults_in_one_cell_named_by_the_first_rule(self, first):
        # Every ordered pair of kinds in one cell; a second kind on the same
        # field replaces the first. The cell is refused for the earliest rule
        # it breaks, and so with the words of that rule alone.
        for second in sorted(BAD_CELLS):
            cells = self.cells()
            self.spoil(cells["C5"], first)
            self.spoil(cells["C5"], second)
            expected = self.first_refusal(cells)
            assert self.stacked_refusal(cells) == expected, (first, second)
            kept = {BAD_CELLS[kind][0]: kind for kind in (first, second)}.values()
            alone = []
            for kind in kept:
                single = self.cells()
                self.spoil(single["C5"], kind)
                alone.append(rule_of(self.first_refusal(single)[1]))
            assert expected[0] == "cell 'C5'" and rule_of(expected[1]) == min(alone), (first, second)

    @pytest.mark.parametrize("field", ["ta", "aoa"])
    def test_finite_fractions_whose_sum_overflows_refused_without_a_warning(self, field):
        # 1e308 + 1e308 overflows to inf, and numpy warns on it; a
        # RuntimeWarning is an error under pytest.
        cells = self.cells()
        value = {"ta": [1e308, 1e308, 0, 0, 0, 0], "aoa": [1e308, 1e308, 0]}[field]
        setattr(cells["C7"], field, np.array(value))
        expected = ("cell 'C7'", f"{field} fractions must sum to 0 or 1, got inf")
        assert self.stacked_refusal(cells) == expected

    @pytest.mark.parametrize("field", ["ta", "aoa", "neighbor_level"])
    def test_inf_and_minus_inf_in_one_cell_refused_without_a_warning(self, field):
        # inf - inf is NaN, and numpy warns when a sum makes one; a
        # RuntimeWarning is an error under pytest.
        cells = self.cells()
        value = {
            "ta": np.array([np.inf, -np.inf, 0, 0, 0, 0]),
            "aoa": np.array([np.inf, -np.inf, 0]),
            "neighbor_level": {"B": np.inf, "C": -np.inf},
        }[field]
        setattr(cells["C7"], field, value)
        expected = self.first_refusal(cells)
        assert expected[0] == "cell 'C7'" and "finite and non-negative" in expected[1]
        assert self.stacked_refusal(cells) == expected

    def test_sums_at_the_tolerance_agree_with_the_loop(self):
        # Rows whose sums fall within a few ulps of 1 +- DIST_TOL: each
        # row alone, all the rows that pass alone together, and all rows.
        rng = np.random.default_rng(5)
        cells, passing = {}, {}
        for k in range(400):
            ta = rng.random(6)
            ta /= ta.sum()
            ta[rng.integers(6)] += rng.choice([-1.0, 1.0]) * kpi.DIST_TOL * (1.0 + rng.uniform(-1e-6, 1e-6))
            cells[f"C{k}"] = CellKpis(ta, np.array([0.0, 1.0, 0.0]), {}, 0.0, 0.0, 0.0)
            alone = self.first_refusal({f"C{k}": cells[f"C{k}"]})
            assert self.stacked_refusal({f"C{k}": cells[f"C{k}"]}) == alone
            if alone is None:
                passing[f"C{k}"] = cells[f"C{k}"]
        assert 50 < len(passing) < 350
        assert self.stacked_refusal(passing) is None
        assert self.stacked_refusal(cells) == self.first_refusal(cells) is not None


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
        normalized = wmap.normalized()
        assert normalized.total() == 1.0
        assert normalized.label == "w"
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
        # The header rows are read in order: a missing row is named at the
        # line it should be on, where the next row stands.
        where = f"line {text.splitlines().index(row) + 1}"
        with pytest.raises(InputError, match=f"map.csv: {where}: missing or garbled '{key}' header row$"):
            load_weight_map(path)

    @pytest.mark.parametrize(
        "first, second", [("m,3", "pixel_size,12.5"), ("origin,0.0,0.0", "i,j,weight")]
    )
    def test_header_rows_out_of_order_named_by_line(self, tmp_path, first, second):
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        text = path.read_text()
        path.write_text(text.replace(f"\n{first}\n{second}\n", f"\n{second}\n{first}\n"))
        line_no = text.splitlines().index(first) + 1
        key = first.split(",")[0]
        with pytest.raises(InputError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: missing or garbled '{key}' header row"

    @pytest.mark.parametrize(
        "row, replacement, reason",
        [
            ("1,2,1.0", "1,2", "expected 3 values, got 2"),
            ("1,2,1.0", "1,2,1.0,5", "expected 3 values, got 4"),
            ("1,2,1.0", "1,2,1.0#5", "value 3 '1.0#5' does not read as float64"),
            ("1,2,1.0", "1e0,2,1.0", "value 1 '1e0' does not read as int64"),
            ("1,2,1.0", "1,1.5,1.0", "value 2 '1.5' does not read as int64"),
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
            ("1,2,1.0", "1,2,-inf", "value 3 '-inf' is not finite or NaN"),
            ("1,2,1.0", "1;2;1.0", "expected 3 values, got 1"),
            ("1,2,1.0", "1,2,1.o", "value 3 '1.o' does not read as float64"),
            # An index beyond int64.
            ("1,2,1.0", "99999999999999999999,2,1.0", "value 1 '99999999999999999999' does not read as int64"),
            # A field longer than 40 characters is quoted by its first 20.
            ("1,2,1.0", "1,2," + "9" * 400, "value 3 '99999999999999999999'... (400 characters) is not finite or NaN"),
            ("1,2,1.0", "1,2," + "1" * 50 + "x", "value 3 '11111111111111111111'... (51 characters) does not read as float64"),
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
            "-inf-weight",
            "semicolons",
            "garbled-weight",
            "index-beyond-int64",
            "long-inf-weight",
            "long-garbled-weight",
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
        "row, fault",
        [
            ("pixel_size,99.0", "header row already given on line 3"),
            ("label,tag", "header row already given on line 4"),
            ("foo,bar", "unknown header row"),
            ("", "unknown header row"),
        ],
    )
    def test_repeated_or_unknown_header_row_named_by_line(self, tmp_path, row, fault):
        # ``fault`` says what the row is. Line 6 holds the i,j,weight row
        # that ends the header.
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        text = path.read_text()
        path.write_text(text.replace("\ni,j,weight\n", f"\n{row}\ni,j,weight\n"))
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line 6: missing or garbled 'i,j,weight' header row"

    @pytest.mark.parametrize("cut_before", ["i,j,weight", "pixel_size,12.5"])
    def test_map_cut_off_before_its_rows_rejected(self, tmp_path, cut_before):
        wmap = WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag")
        path = tmp_path / "map.csv"
        save_weight_map(wmap, path)
        text = path.read_text()
        path.write_text(text[: text.index(f"\n{cut_before}\n") + 1])
        # The first row the file lacks is named at its line.
        line_no = text.splitlines().index(cut_before) + 1
        key = cut_before.removesuffix(",12.5")
        with pytest.raises(ValueError, match=f"^{path}: line {line_no}: missing or garbled '{key}' header row$"):
            load_weight_map(path)

    def test_row_only_python_reads_is_rejected(self, tmp_path):
        # Python's float reads "1_0.0" and numpy's parser does not; numpy's
        # refusal is the one that counts, at the row's own line.
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        line_no = lines.index("1,2,1.0") + 1
        lines[line_no - 1] = "1,2,1_0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {line_no}: value 3 '1_0.0' does not read as float64"

    @pytest.mark.parametrize(
        "later, reason",
        [
            ("2,0,1.o", "value 3 '1_0.0' does not read as float64"),
            ("2,0,inf", "value 3 '1_0.0' does not read as float64"),
            ("2,0,1.0,5", "value 3 '1_0.0' does not read as float64"),
        ],
        ids=["garbled-weight", "inf-weight", "four-values"],
    )
    def test_first_refused_row_is_named(self, tmp_path, later, reason):
        # A row only numpy refuses, on line 10, comes before a row that
        # every parser refuses, on line 13: line 10 is named.
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        assert (lines[9], lines[12]) == ("1,0,1.0", "2,0,1.0")
        lines[9], lines[12] = "1,0,1_0.0", later
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line 10: {reason}"

    def test_refused_row_found_in_logarithmic_parses(self, tmp_path, monkeypatch):
        # The last of 4096 rows is garbled: the first parse of all rows,
        # 12 halvings and the fields alone stay within 20 parses.
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((64, 64)), GridSpec(64, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        lines[-1] = "63,63,1.o"
        path.write_text("\n".join(lines) + "\n")
        calls, parse = [], kpi._parse

        def counted(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(kpi, "_parse", counted)
        with pytest.raises(InputError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {len(lines)}: value 3 '1.o' does not read as float64"
        assert len(calls) <= 20

    def test_index_too_long_for_a_float_is_refused(self, tmp_path):
        # numpy refuses the index as an int64, and Python reads it as an
        # int that no float holds.
        path = tmp_path / "map.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "tag"), path)
        lines = path.read_text().splitlines()
        line_no = lines.index("1,2,1.0") + 1
        lines[line_no - 1] = "9" * 400 + ",2,1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError) as excinfo:
            load_weight_map(path)
        reason = "value 1 '99999999999999999999'... (400 characters) does not read as int64"
        assert str(excinfo.value) == f"{path}: line {line_no}: {reason}"

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
        with pytest.raises(InputError) as excinfo:
            load_weight_map(path)
        assert str(excinfo.value) == f"{path}: line {len(lines) + 1}: more than 9 rows"
        assert (excinfo.value.source, excinfo.value.where) == (str(path), f"line {len(lines) + 1}")

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
        # 10**16 rows are due; the reader takes the file's 9 and stops.
        path = tmp_path / "q3.csv"
        save_weight_map(WeightMap(np.ones((3, 3)), GridSpec(3, 12.5), "q3"), path)
        path.write_text(path.read_text().replace("\nm,3\n", "\nm,100000000\n", 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                load_weight_map(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == f"{path}: line 16: the file ends after 9 of 10000000000000000 rows"
        assert peak < 1 << 20

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
        with pytest.raises(ValueError, match="^floor: must be positive when there are no components"):
            TrafficModel(components=[], floor=0.0)
        model = TrafficModel(
            components=[TrafficComponent((250.0, 250.0), 10.0, 0.001)], floor=-5.0
        )
        with pytest.raises(ValueError, match="all zero"):
            generate_ground_truth(model, self.spec, seed=0)


POTENTIAL_JSON = b"""{
  "zones": [
    {
      "shape": "disk",
      "importance": 0.7,
      "center": [
        10.0,
        20.0
      ],
      "radius_m": 5.0
    },
    {
      "shape": "rect",
      "importance": 1.0,
      "corners": [
        0.0,
        0.0,
        9.0,
        9.0
      ]
    }
  ]
}
"""


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
        with pytest.raises(ValueError, match="^radius: must be positive"):
            HotspotZone(shape="disk", importance=1.0, center=(0.0, 0.0), radius=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            HotspotZone(shape="rect", importance=1.0, corners=(10.0, 0.0, 0.0, 10.0))
        with pytest.raises(ValueError, match="unknown zone shape"):
            HotspotZone(shape="blob", importance=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            HotspotZone(shape="disk", importance=-1.0, center=(0.0, 0.0), radius=1.0)

    def test_field_of_the_other_shape_refused(self):
        with pytest.raises(ConfigError) as excinfo:
            HotspotZone(shape="disk", importance=1.0, center=(0.0, 0.0), radius=1.0, corners=(0.0, 0.0, 1.0, 1.0))
        assert str(excinfo.value) == "corners: is not a field of a disk zone"
        with pytest.raises(ConfigError, match="^radius: is not a field of a rect zone$"):
            HotspotZone(shape="rect", importance=1.0, radius=1.0, corners=(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ConfigError, match="^center: missing required field$"):
            HotspotZone(shape="disk", importance=1.0, radius=1.0)

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

    def test_spec_file_bytes(self, tmp_path):
        # The potential section of a config: each zone's keys in field
        # order, the radius as radius_m, and no key of the other shape.
        zones = PotentialHotspotSpec(
            [
                HotspotZone(shape="disk", importance=0.7, center=(10.0, 20.0), radius=5.0),
                HotspotZone(shape="rect", importance=1.0, corners=(0.0, 0.0, 9.0, 9.0)),
            ]
        )
        path = tmp_path / "potential.json"
        save_potential_spec(zones, path)
        assert path.read_bytes() == POTENTIAL_JSON
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
        with pytest.raises(ConfigError, match="exceed") as excinfo:
            throughput_curve(np.array(-90.0), -80.0, self.params)
        assert excinfo.value.fields == ("oracle.rsrp_hi_dbm", "grid.q_rxlevmin_dbm")


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
            KpiSet({cell.cell_id: kpis.cells[cell.cell_id]}).validate()

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

    def test_validate_against_grid_names_missing_and_unknown_cells(self):
        grid, servers = self.two_cell_setup()
        kpis = KpiSet(cells={"A": CellKpis.empty()})
        with pytest.raises(ValueError, match=r"cells: grid cells missing: 1, the first 'B'$"):
            kpis.validate(grid)
        kpis = KpiSet(cells={"X": CellKpis.empty(), "A": CellKpis.empty(), "Y": CellKpis.empty()})
        reason = "grid cells missing: 1, the first 'B'; cells not on the grid: 2, the first 'X'"
        with pytest.raises(ValueError, match=f"^KPI set does not cover exactly the grid's cells: {reason}$"):
            kpis.validate(grid)
        kpis = KpiSet(cells={"A": CellKpis.empty(), "B": CellKpis.empty(), "Z": CellKpis.empty()})
        with pytest.raises(ValueError, match=r"cells: cells not on the grid: 1, the first 'Z'$"):
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
        message = r"kpis.json: cell 'B': ta fractions must be finite and non-negative"
        with pytest.raises(InputError, match=message) as excinfo:
            load_kpi_set(path)
        assert (excinfo.value.source, excinfo.value.where) == (str(path), "cell 'B'")

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
        with pytest.raises(InputError) as excinfo:
            load_kpi_set(path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert (excinfo.value.source, excinfo.value.where) == (str(path), "line 5")

    def test_load_names_missing_field(self, tmp_path):
        path = tmp_path / "kpis.json"
        path.write_text(json.dumps({"source": "oracle", "window_s": None, "cells": [{"cell_id": "A"}]}))
        with pytest.raises(ValueError, match="kpis.json: cell 'A': missing field 'ta'"):
            load_kpi_set(path)

    # A field missing from a cell is named at the cell, one missing from
    # the document at the file.
    def test_load_names_the_cell_a_field_is_missing_from(self, tmp_path):
        path = tmp_path / "kpis.json"
        cells = [{"cell_id": "A", "ta": [1.0, 0.0, 0.0]}]
        path.write_text(json.dumps({"source": "oracle", "window_s": None, "cells": cells}))
        with pytest.raises(InputError) as excinfo:
            load_kpi_set(path)
        assert str(excinfo.value) == f"{path}: cell 'A': missing field 'aoa'"
        assert (excinfo.value.source, excinfo.value.where) == (str(path), "cell 'A'")
        path.write_text(json.dumps({"source": "oracle", "cells": []}))
        with pytest.raises(InputError) as excinfo:
            load_kpi_set(path)
        assert str(excinfo.value) == f"{path}: missing field 'window_s'"
        assert excinfo.value.where is None

    # Every number of kpis.json is read by one rule (bounds.json_float): a
    # string or a bool is refused where it stands, and so is an integer
    # beyond the float range, shown in %g form, not as its 401 digits.
    @pytest.mark.parametrize(
        "keys, value, reason",
        [
            pytest.param(("ta", 0), "0.5", "ta[0] must be a number, got '0.5'", id="ta-string"),
            pytest.param(("aoa", 1), True, "aoa[1] must be a number, got True", id="aoa-bool"),
            pytest.param(("ta", 2), 10**400, "ta[2] must be finite, got 1e+400", id="ta-huge"),
            pytest.param(
                ("neighbor_level", "B"), 10**400, "neighbor_level['B'] must be finite, got 1e+400", id="level-huge"
            ),
            pytest.param(("neighbor_level", "B"), 0.5, "neighbor_level must sum to 1, got 0.5", id="level-sum"),
            pytest.param(("load_time",), 10**400, "load_time must be finite, got 1e+400", id="load_time-huge"),
            pytest.param(("amt_bps",), -(10**400), "amt_bps must be finite, got -1e+400", id="amt_bps-huge"),
            pytest.param(("ta",), 10**400, "ta must be a list, got 1e+400", id="ta-list-huge"),
        ],
    )
    def test_load_reads_cell_numbers_by_one_rule(self, tmp_path, keys, value, reason):
        grid, servers = self.two_cell_setup()
        kpis = oracle_kpis(random_truth(grid.spec, np.random.default_rng(16)), grid, servers, self.params)
        path = tmp_path / "kpis.json"
        save_kpi_set(kpis, path)
        doc = json.loads(path.read_text())
        target = doc["cells"][0]  # cell A, whose one neighbor is B
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as excinfo:
            load_kpi_set(path)
        error = excinfo.value
        assert (error.source, error.where, error.message) == (str(path), "cell 'A'", reason)

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"cells": [10**400]}, "each cell must be an object, got 1e+400"),
            ({"cells": [{"cell_id": [10**400]}]}, "cell_id must be a string, got [1e+400]"),
            ({"source": 10**400}, "source must be a string, got 1e+400"),
        ],
        ids=["cell", "cell_id", "source"],
    )
    def test_load_shows_a_huge_value_compactly(self, tmp_path, doc, reason):
        path = tmp_path / "kpis.json"
        path.write_text(json.dumps({"source": "oracle", "window_s": None, "cells": [], **doc}))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {re.escape(reason)}$"):
            load_kpi_set(path)

    def test_load_refuses_huge_window(self, tmp_path):
        path = tmp_path / "kpis.json"
        path.write_text(json.dumps({"source": "sim", "window_s": 10**400, "cells": []}))
        with pytest.raises(InputError) as excinfo:
            load_kpi_set(path)
        reason = "window_s must be null or a finite non-negative number, got 1e+400"
        assert (excinfo.value.source, excinfo.value.where, excinfo.value.message) == (str(path), None, reason)

