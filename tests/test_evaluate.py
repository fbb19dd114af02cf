import csv
import json
import math

import numpy as np
import pytest

from hotloc.evaluate import (
    EvalConfig,
    HotspotPeak,
    compare_variants,
    detection_percentage,
    extract_peaks,
    match_and_measure,
    report_to_dict,
    save_report,
    weight_cdf,
    write_report_csvs,
)
from hotloc.grid import GridSpec
from hotloc.kpi import LABEL_TRUTH, WeightMap


def peak(x, y, weight=1.0):
    return HotspotPeak(x=x, y=y, weight=weight)


def normalized_map(values, pixel=25.0, label="estimate"):
    values = np.asarray(values, dtype=np.float64)
    return WeightMap(values / values.sum(), GridSpec(len(values), pixel), label)


class TestHotspotPeak:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            peak(0.0, 0.0, weight=0.0)


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="peak_count"):
            EvalConfig(peak_count=0)
        with pytest.raises(ValueError, match="radius"):
            EvalConfig(suppression_radius_m=-1.0)
        with pytest.raises(ValueError, match="p values"):
            EvalConfig(p_list=(0.0,))
        with pytest.raises(ValueError, match="p values"):
            EvalConfig(p_list=())


class TestExtractPeaks:
    def test_finds_separated_maxima_in_order(self):
        values = np.zeros((8, 8))
        values[1, 1] = 0.5
        values[6, 6] = 0.9
        wmap = WeightMap(values, GridSpec(8, 25.0), "estimate")
        peaks = extract_peaks(wmap, count=2, suppression_radius_m=50.0)
        assert len(peaks) == 2
        # Strongest first, coordinates are pixel centers.
        assert (peaks[0].x, peaks[0].y, peaks[0].weight) == (162.5, 162.5, 0.9)
        assert (peaks[1].x, peaks[1].y, peaks[1].weight) == (37.5, 37.5, 0.5)

    def test_suppression_swallows_nearby_peaks(self):
        values = np.zeros((8, 8))
        values[4, 4] = 1.0
        values[4, 5] = 0.8  # 25 m away
        values[0, 0] = 0.1  # far away
        wmap = WeightMap(values, GridSpec(8, 25.0), "estimate")
        peaks = extract_peaks(wmap, count=3, suppression_radius_m=60.0)
        assert [p.weight for p in peaks] == [1.0, 0.1]

    def test_zero_radius_suppresses_only_the_peak_pixel(self):
        values = np.zeros((4, 4))
        values[2, 2] = 1.0
        values[2, 3] = 0.8
        wmap = WeightMap(values, GridSpec(4, 25.0), "estimate")
        peaks = extract_peaks(wmap, count=2, suppression_radius_m=0.0)
        assert [p.weight for p in peaks] == [1.0, 0.8]

    def test_stops_when_no_positive_weight_remains(self):
        values = np.zeros((4, 4))
        values[1, 1] = 1.0
        wmap = WeightMap(values, GridSpec(4, 25.0), "estimate")
        peaks = extract_peaks(wmap, count=5, suppression_radius_m=0.0)
        assert len(peaks) == 1

    def test_count_cap(self):
        rng = np.random.default_rng(3)
        wmap = WeightMap(rng.random((8, 8)) + 0.1, GridSpec(8, 25.0), "estimate")
        peaks = extract_peaks(wmap, count=4, suppression_radius_m=0.0)
        assert len(peaks) == 4

    def test_validation(self):
        wmap = WeightMap(np.ones((4, 4)), GridSpec(4, 25.0), "estimate")
        with pytest.raises(ValueError, match="count"):
            extract_peaks(wmap, count=0, suppression_radius_m=10.0)
        with pytest.raises(ValueError, match="radius"):
            extract_peaks(wmap, count=1, suppression_radius_m=-5.0)


class TestMatchAndMeasure:
    def test_two_pair_distances(self):
        generated = [peak(1100.0, 960.0), peak(760.0, 940.0)]
        estimated = [peak(1140.0, 940.0), peak(760.0, 900.0)]
        result = match_and_measure(generated, estimated)
        assert len(result.pairs) == 2
        # Pairs come back sorted by generated coordinates.
        assert result.pairs[0].generated.x == 760.0
        assert result.pairs[0].distance_m == 40.0
        assert result.pairs[1].distance_m == pytest.approx(math.sqrt(2000.0))
        assert round(result.pairs[1].distance_m, 2) == 44.72
        expected_mean = (40.0 + math.sqrt(2000.0)) / 2
        assert result.mean_distance_m == pytest.approx(expected_mean)

    def test_identical_lists_measure_zero(self):
        peaks = [peak(10.0, 20.0), peak(30.0, 40.0), peak(50.0, 60.0)]
        result = match_and_measure(peaks, list(peaks))
        assert result.mean_distance_m == 0.0
        assert all(p.distance_m == 0.0 for p in result.pairs)

    def test_greedy_order_is_one_to_one(self):
        generated = [peak(0.0, 0.0), peak(10.0, 0.0)]
        estimated = [peak(1.0, 0.0), peak(100.0, 0.0)]
        result = match_and_measure(generated, estimated)
        # Closest pair claims the shared estimate; the second generated peak
        # falls through to the remote one.
        assert result.pairs[0].distance_m == 1.0
        assert result.pairs[1].distance_m == 90.0
        assert result.mean_distance_m == 45.5

    def test_unequal_lengths_match_the_shorter(self):
        generated = [peak(0.0, 0.0), peak(100.0, 0.0), peak(200.0, 0.0)]
        estimated = [peak(1.0, 0.0)]
        result = match_and_measure(generated, estimated)
        assert len(result.pairs) == 1
        assert result.pairs[0].distance_m == 1.0

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            match_and_measure([], [peak(0.0, 0.0)])
        with pytest.raises(ValueError, match="non-empty"):
            match_and_measure([peak(0.0, 0.0)], [])


class TestDetectionPercentage:
    def brute_force(self, real, estimated, p):
        flat = real.values.reshape(-1)
        order = np.argsort(-flat, kind="stable")
        k = 1
        while flat[order[:k]].sum() < p and k < flat.size:
            k += 1
        return estimated.values.reshape(-1)[order[:k]].sum()

    def test_matches_brute_force_prefix(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            real = normalized_map(rng.random((12, 12)), label=LABEL_TRUTH)
            estimated = normalized_map(rng.random((12, 12)))
            for p in (0.005, 0.01, 0.02, 0.05, 0.25, 0.8):
                expected = self.brute_force(real, estimated, p)
                assert detection_percentage(real, estimated, p) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_self_detection_brackets_p(self):
        rng = np.random.default_rng(22)
        real = normalized_map(rng.random((16, 16)), label=LABEL_TRUTH)
        for p in (0.005, 0.05, 0.5):
            detected = detection_percentage(real, real, p)
            assert p <= detected <= p + real.values.max() + 1e-12

    def test_monotone_in_p(self):
        rng = np.random.default_rng(23)
        real = normalized_map(rng.random((10, 10)), label=LABEL_TRUTH)
        estimated = normalized_map(rng.random((10, 10)))
        values = [
            detection_percentage(real, estimated, p)
            for p in (0.01, 0.05, 0.2, 0.5, 0.9)
        ]
        assert (np.diff(values) >= -1e-12).all()

    def test_full_mass_at_p_one(self):
        rng = np.random.default_rng(24)
        real = normalized_map(rng.random((8, 8)), label=LABEL_TRUTH)
        estimated = normalized_map(rng.random((8, 8)))
        assert detection_percentage(real, estimated, 1.0) == pytest.approx(1.0)

    def test_concentrated_estimate_on_top_pixel(self):
        real = np.full((4, 4), 0.01)
        real[2, 1] = 1.0
        real = normalized_map(real, label=LABEL_TRUTH)
        estimated = np.zeros((4, 4))
        estimated[2, 1] = 1.0
        estimated = WeightMap(estimated, GridSpec(4, 25.0), "estimate")
        assert detection_percentage(real, estimated, 0.05) == 1.0

    def test_validation(self):
        real = normalized_map(np.ones((4, 4)), label=LABEL_TRUTH)
        estimated = normalized_map(np.ones((4, 4)))
        with pytest.raises(ValueError, match="p must lie"):
            detection_percentage(real, estimated, 0.0)
        with pytest.raises(ValueError, match="share one grid"):
            detection_percentage(real, normalized_map(np.ones((5, 5))), 0.05)
        unnormalized = WeightMap(np.ones((4, 4)), GridSpec(4, 25.0), "estimate")
        with pytest.raises(ValueError, match="real map must be normalized"):
            detection_percentage(unnormalized, estimated, 0.05)
        with pytest.raises(ValueError, match="estimated map must be normalized"):
            detection_percentage(real, unnormalized, 0.05)


class TestWeightCdf:
    def test_hand_example(self):
        wmap = WeightMap(np.array([[0.0, 1.0], [1.0, 3.0]]), GridSpec(2, 25.0), "estimate")
        weights, fractions = weight_cdf(wmap)
        np.testing.assert_array_equal(weights, [0.0, 1.0, 3.0])
        np.testing.assert_array_equal(fractions, [0.25, 0.75, 1.0])

    def test_shape_properties(self):
        rng = np.random.default_rng(25)
        wmap = WeightMap(rng.integers(0, 5, (9, 9)).astype(float), GridSpec(9, 25.0), "estimate")
        weights, fractions = weight_cdf(wmap)
        assert (np.diff(weights) > 0).all()
        assert (np.diff(fractions) > 0).all()
        assert fractions[-1] == 1.0
        assert weights.shape == fractions.shape


class TestCompareVariants:
    def setup_report(self):
        rng = np.random.default_rng(26)
        truth = WeightMap(rng.random((12, 12)), GridSpec(12, 25.0), LABEL_TRUTH)
        runs = {
            "copy": WeightMap(truth.values * 3.0, GridSpec(12, 25.0), "copy"),
            "other": WeightMap(rng.random((12, 12)), GridSpec(12, 25.0), "other"),
        }
        config = EvalConfig(peak_count=4, suppression_radius_m=50.0, p_list=(0.01, 0.05))
        return truth, runs, config

    def test_scaled_copy_matches_truth_exactly(self):
        truth, runs, config = self.setup_report()
        report = compare_variants(truth, runs, config)
        assert set(report.variants) == {"copy", "other"}
        assert report.variants["copy"].mean_distance_m == 0.0
        for p in config.p_list:
            assert report.variants["copy"].detection[p] == pytest.approx(
                detection_percentage(
                    truth.normalized(), truth.normalized(), p
                )
            )

    def test_empty_runs_rejected(self):
        truth, _, config = self.setup_report()
        with pytest.raises(ValueError, match="at least one variant"):
            compare_variants(truth, {}, config)

    def test_all_zero_map_named(self):
        truth, runs, config = self.setup_report()
        zero = WeightMap(np.zeros((12, 12)), truth.spec, "zero")
        with pytest.raises(ValueError, match="^ground truth: cannot normalize an all-zero weight map$"):
            compare_variants(zero, runs, config)
        with pytest.raises(ValueError, match="^variant 'step7': cannot normalize an all-zero weight map$"):
            compare_variants(truth, {**runs, "step7": zero}, config)

    def test_peaks_sit_on_pixel_centers_with_the_origin(self):
        values = np.zeros((4, 4))
        values[0, 1] = 1.0
        wmap = WeightMap(values, GridSpec(4, 10.0, (100.0, 200.0)), "estimate")
        (found,) = extract_peaks(wmap, count=1, suppression_radius_m=0.0)
        assert (found.x, found.y) == (105.0, 215.0)


class TestReportOutputs:
    def build_report(self):
        rng = np.random.default_rng(27)
        truth = WeightMap(rng.random((10, 10)), GridSpec(10, 25.0), LABEL_TRUTH)
        runs = {"est": WeightMap(rng.random((10, 10)), GridSpec(10, 25.0), "est")}
        config = EvalConfig(peak_count=3, suppression_radius_m=50.0, p_list=(0.01, 0.05))
        return compare_variants(truth, runs, config)

    def test_report_to_dict_layout(self):
        report = self.build_report()
        data = report_to_dict(report)
        assert data["config"]["peak_count"] == 3
        assert len(data["truth_peaks"]) == 3
        variant = data["variants"]["est"]
        assert set(variant["detection"]) == {"0.01", "0.05"}
        assert variant["mean_distance_m"] == report.variants["est"].mean_distance_m

    def test_save_report_round_trips_as_json(self, tmp_path):
        report = self.build_report()
        path = tmp_path / "report.json"
        save_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == report_to_dict(report)

    def test_csv_emission(self, tmp_path):
        report = self.build_report()
        peaks_path = tmp_path / "peaks.csv"
        detection_path = tmp_path / "detection.csv"
        cdf_path = tmp_path / "cdf.csv"
        write_report_csvs(report, str(peaks_path), str(detection_path), str(cdf_path))

        with open(peaks_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "gen_x", "gen_y", "est_x", "est_y", "dist_m"]
        pair = report.variants["est"].pairs[0]
        assert float(rows[1][5]) == pair.distance_m

        with open(detection_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "p", "detected"]
        assert float(rows[1][1]) == 0.01
        assert float(rows[1][2]) == report.variants["est"].detection[0.01]

        with open(cdf_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "weight", "fraction"]
        assert rows[1][0] == LABEL_TRUTH

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\nb", "a\0b"])
    def test_label_csv_would_quote_refused_before_writing(self, tmp_path, label):
        report = self.build_report()
        report.variants[label] = report.variants.pop("est")
        paths = [tmp_path / name for name in ("peaks.csv", "detection.csv", "cdf.csv")]
        with pytest.raises(ValueError, match="variant label"):
            write_report_csvs(report, *map(str, paths))
        assert not any(path.exists() for path in paths)
