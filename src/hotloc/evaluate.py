"""Evaluation instruments for localization quality.

:func:`compare_variants` scales the generated ground truth and each
estimated weight map to unit total, then runs three instruments on each
estimate against the truth:

* peak extraction and one-to-one peak matching, reported as per-pair
  Euclidean distances in meters plus their mean;
* detection percentage: the estimated weight mass falling on the pixels
  that hold the top p of the real traffic, the truth sorted once for
  every variant and p;
* the CDF of per-pixel weights, for distribution-shape comparison.

All three are pure and deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from hotloc.bounds import MAX_METERS, Bounded, bounded, section_doc
from hotloc.grid import create, reject_separators, repr_table, text_rows, write_json
from hotloc.kpi import LABEL_TRUTH, WeightMap

DEF_SUPPRESSION_RADIUS_M = 150.0
DEF_P_LIST = (0.005, 0.01, 0.02, 0.05)


@dataclass(frozen=True)
class HotspotPeak:
    """One extracted hotspot: world coordinates of the peak pixel center
    and the weight held there."""

    x: float
    y: float
    weight: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("peak weight must be positive")


@dataclass(frozen=True)
class PeakPair:
    generated: HotspotPeak
    estimated: HotspotPeak
    distance_m: float


@dataclass(frozen=True)
class EvalConfig(Bounded):
    peak_count: int = bounded(9, ge=1)
    suppression_radius_m: float = bounded(DEF_SUPPRESSION_RADIUS_M, ge=0, le=MAX_METERS)
    p_list: tuple[float, ...] = bounded(DEF_P_LIST, gt=0, le=1)


def extract_peaks(wmap: WeightMap, count: int, suppression_radius_m: float) -> list[HotspotPeak]:
    """Greedy peak extraction: repeatedly take the global maximum and
    suppress every pixel within the radius, until ``count`` peaks are found
    or no positive weight remains."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if suppression_radius_m < 0:
        raise ValueError("suppression radius must be non-negative")
    values = wmap.values.copy()
    # The suppression disk, as offsets from the peak within a window of
    # half-width ``reach``: a pixel past the radius's last whole pixel is
    # a full pixel beyond it, so the window holds every pixel the test
    # takes on the full grid.
    m, pixel = wmap.spec.m, wmap.spec.pixel_size
    radius = suppression_radius_m
    reach = m - 1 if radius >= (m - 1) * pixel else int(radius // pixel) + 1
    offsets = np.arange(-reach, reach + 1)
    disk = (offsets[:, None] ** 2 + offsets[None, :] ** 2) * pixel**2 <= radius**2
    peaks: list[HotspotPeak] = []
    while len(peaks) < count:
        i, j = np.unravel_index(np.argmax(values), values.shape)
        weight = float(values[i, j])
        if weight <= 0:
            break
        x, y = wmap.spec.pixel_center(i, j)
        peaks.append(HotspotPeak(x=float(x), y=float(y), weight=weight))
        # Suppression in world meters: pixel centers within the radius.
        top, left = max(i - reach, 0), max(j - reach, 0)
        window = values[top : i + reach + 1, left : j + reach + 1]
        r0, c0 = top - i + reach, left - j + reach
        window[disk[r0 : r0 + window.shape[0], c0 : c0 + window.shape[1]]] = 0.0
    return peaks


@dataclass
class MatchResult:
    pairs: list[PeakPair]
    mean_distance_m: float


def match_and_measure(
    generated: list[HotspotPeak], estimated: list[HotspotPeak]
) -> MatchResult:
    """Greedy one-to-one nearest matching.

    All generated-estimated pairs are ranked by increasing distance (ties
    broken by list positions) and accepted whenever both endpoints are
    still unmatched. The mean is over the matched pairs.
    """
    if not generated or not estimated:
        raise ValueError("both peak lists must be non-empty")
    ranked = sorted(
        (
            (math.dist((g.x, g.y), (e.x, e.y)), gi, ei)
            for gi, g in enumerate(generated)
            for ei, e in enumerate(estimated)
        ),
    )
    used_g: set[int] = set()
    used_e: set[int] = set()
    pairs: list[PeakPair] = []
    for dist, gi, ei in ranked:
        if gi in used_g or ei in used_e:
            continue
        used_g.add(gi)
        used_e.add(ei)
        pairs.append(PeakPair(generated[gi], estimated[ei], dist))
        if len(used_g) == len(generated) or len(used_e) == len(estimated):
            break
    pairs.sort(key=lambda p: (p.generated.x, p.generated.y))
    mean = sum(p.distance_m for p in pairs) / len(pairs)
    return MatchResult(pairs=pairs, mean_distance_m=mean)


def _top_traffic_pixels(real: WeightMap, p_list) -> list[np.ndarray]:
    """For each p, the flat indices of the top-p pixels of the normalized
    real traffic map.

    The real weights are sorted decreasing (stable, so tie pixels keep
    flattened order) and cut at the shortest prefix whose sum reaches p;
    the sort and its cumulative sum are shared by every p.
    """
    flat_real = real.values.reshape(-1)
    order = np.argsort(-flat_real, kind="stable")
    cumulative = np.cumsum(flat_real[order])
    cuts = np.searchsorted(cumulative, p_list, side="left")
    return [order[: int(cut) + 1] for cut in cuts]


def weight_cdf(wmap: WeightMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel weight CDF: (sorted distinct weights, fraction of pixels
    with weight at most each)."""
    weights, counts = np.unique(wmap.values, return_counts=True)
    return weights, np.cumsum(counts) / wmap.values.size


@dataclass
class VariantEval:
    label: str
    peaks: list[HotspotPeak]
    pairs: list[PeakPair]
    mean_distance_m: float
    detection: dict[float, float]
    cdf_weights: np.ndarray
    cdf_fractions: np.ndarray


@dataclass
class EvalReport:
    config: EvalConfig
    truth_peaks: list[HotspotPeak]
    truth_cdf: tuple[np.ndarray, np.ndarray]
    variants: dict[str, VariantEval] = field(default_factory=dict)


def _normalized(wmap: WeightMap, what: str) -> WeightMap:
    try:
        return wmap.normalized()
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _evaluate_one(
    label: str,
    wmap: WeightMap,
    truth: WeightMap,
    truth_peaks: list[HotspotPeak],
    top_pixels: list[np.ndarray],
    config: EvalConfig,
) -> VariantEval:
    normalized = _normalized(wmap, f"variant {label!r}")
    if normalized.spec != truth.spec:
        raise ValueError("real and estimated maps must share one grid")
    peaks = extract_peaks(normalized, config.peak_count, config.suppression_radius_m)
    match = match_and_measure(truth_peaks, peaks)
    flat = normalized.values.reshape(-1)
    detection = {p: float(flat[pixels].sum()) for p, pixels in zip(config.p_list, top_pixels)}
    weights, fractions = weight_cdf(normalized)
    return VariantEval(
        label=label,
        peaks=peaks,
        pairs=match.pairs,
        mean_distance_m=match.mean_distance_m,
        detection=detection,
        cdf_weights=weights,
        cdf_fractions=fractions,
    )


def compare_variants(
    truth: WeightMap, runs: dict[str, WeightMap], config: EvalConfig
) -> EvalReport:
    """Run all three instruments for every estimated variant against the
    ground truth and assemble the report; an all-zero map is named."""
    if not runs:
        raise ValueError("need at least one variant to evaluate")
    truth_n = _normalized(truth, "ground truth")
    truth_peaks = extract_peaks(truth_n, config.peak_count, config.suppression_radius_m)
    top_pixels = _top_traffic_pixels(truth_n, config.p_list)
    evals = [
        _evaluate_one(label, wmap, truth_n, truth_peaks, top_pixels, config)
        for label, wmap in runs.items()
    ]
    report = EvalReport(
        config=config,
        truth_peaks=truth_peaks,
        truth_cdf=weight_cdf(truth_n),
        variants={e.label: e for e in evals},
    )
    return report


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of the report."""

    def peak_row(p: HotspotPeak) -> dict:
        return {"x": p.x, "y": p.y, "weight": p.weight}

    return {
        "config": section_doc(report.config),
        "truth_peaks": [peak_row(p) for p in report.truth_peaks],
        "variants": {
            label: {
                "mean_distance_m": v.mean_distance_m,
                "peaks": [peak_row(p) for p in v.peaks],
                "pairs": [
                    {
                        "gen_x": pair.generated.x,
                        "gen_y": pair.generated.y,
                        "est_x": pair.estimated.x,
                        "est_y": pair.estimated.y,
                        "dist_m": pair.distance_m,
                    }
                    for pair in v.pairs
                ],
                "detection": {repr(p): d for p, d in sorted(v.detection.items())},
            }
            for label, v in sorted(report.variants.items())
        },
    }


def save_report(report: EvalReport, path: str) -> None:
    write_json(path, report_to_dict(report), sort_keys=True)


def write_report_csvs(report: EvalReport, peaks_path: str, detection_path: str, cdf_path: str) -> None:
    """Plot-ready CSV emission: peak pairs, detection rows, CDF series
    (ground truth included in the CDF file). A variant label holding
    ``,``, ``"`` or a line break, which csv.writer would quote, or a NUL
    raises ValueError before any file is written."""
    series = [(LABEL_TRUTH, report.truth_cdf)]
    series += [
        (label, (v.cdf_weights, v.cdf_fractions)) for label, v in sorted(report.variants.items())
    ]
    for label, _ in series:
        reject_separators("variant label", label, ',"\0')
    with create(peaks_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "gen_x", "gen_y", "est_x", "est_y", "dist_m"])
        for label, variant in sorted(report.variants.items()):
            for pair in variant.pairs:
                writer.writerow(
                    [
                        label,
                        repr(pair.generated.x),
                        repr(pair.generated.y),
                        repr(pair.estimated.x),
                        repr(pair.estimated.y),
                        repr(pair.distance_m),
                    ]
                )
    with create(detection_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "p", "detected"])
        for label, variant in sorted(report.variants.items()):
            for p, detected in sorted(variant.detection.items()):
                writer.writerow([label, repr(p), repr(detected)])
    with create(cdf_path) as fh:
        # csv.writer's line ending.
        fh.write(b"variant,weight,fraction\r\n")
        # One table formats every series: the fractions are k/N, which
        # repeat from series to series. The rows go a series at a time,
        # so their buffers are those of the longest series, not of all.
        values = np.concatenate([part for _, cdf in series for part in cdf])
        texts, index = repr_table(values)
        at = 0
        for label, (weights, _) in series:
            n = len(weights)
            rows = index[at : at + 2 * n].reshape(2, n)
            at += 2 * n
            labels = np.full(n, label.encode())
            fh.write(text_rows([labels, *texts.take(rows)], end=b"\r\n"))
