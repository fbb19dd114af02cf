"""Evaluation instruments for localization quality.

Three instruments, each comparing an estimated weight map against the
generated ground truth:

* peak extraction and one-to-one peak matching, reported as per-pair
  Euclidean distances in meters plus their mean;
* detection percentage: the estimated weight mass falling on the pixels
  that hold the top p of the real traffic;
* the CDF of per-pixel weights, for distribution-shape comparison.

All three are pure and deterministic.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from hotloc.grid import reject_separators, repr_lookup, text_rows
from hotloc.kpi import LABEL_TRUTH, WeightMap

NORMALIZATION_TOL = 1e-6
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
class EvalConfig:
    peak_count: int = 9
    suppression_radius_m: float = DEF_SUPPRESSION_RADIUS_M
    p_list: tuple[float, ...] = DEF_P_LIST

    def __post_init__(self):
        if self.peak_count < 1:
            raise ValueError("peak_count must be at least 1")
        if self.suppression_radius_m < 0:
            raise ValueError("suppression radius must be non-negative")
        if not self.p_list or any(not 0 < p <= 1 for p in self.p_list):
            raise ValueError("p values must lie in (0, 1]")


def extract_peaks(wmap: WeightMap, count: int, suppression_radius_m: float) -> list[HotspotPeak]:
    """Greedy peak extraction: repeatedly take the global maximum and
    suppress every pixel within the radius, until ``count`` peaks are found
    or no positive weight remains."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if suppression_radius_m < 0:
        raise ValueError("suppression radius must be non-negative")
    values = wmap.values.copy()
    cx, cy = wmap.spec.center_coords()
    ii, jj = np.indices(values.shape)
    peaks: list[HotspotPeak] = []
    while len(peaks) < count:
        i, j = np.unravel_index(np.argmax(values), values.shape)
        weight = float(values[i, j])
        if weight <= 0:
            break
        peaks.append(HotspotPeak(x=float(cx[i, j]), y=float(cy[i, j]), weight=weight))
        # Suppression in world meters; pixel centers within the radius.
        d2 = ((ii - i) ** 2 + (jj - j) ** 2) * wmap.spec.pixel_size**2
        values[d2 <= suppression_radius_m**2] = 0.0
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


def _check_normalized(wmap: WeightMap, name: str) -> None:
    total = wmap.total()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{name} map must be normalized to sum 1, got sum {total}")


def detection_percentage(real: WeightMap, estimated: WeightMap, p: float) -> float:
    """Estimated weight mass on the top-p real-traffic pixels.

    The real weights are sorted decreasing (stable, so tie pixels keep
    flattened order) and cut at the shortest prefix whose sum reaches p;
    the return value is the estimated weight summed over exactly that
    prefix of pixels.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if real.spec != estimated.spec:
        raise ValueError("real and estimated maps must share one grid")
    _check_normalized(real, "real")
    _check_normalized(estimated, "estimated")
    flat_real = real.values.reshape(-1)
    order = np.argsort(-flat_real, kind="stable")
    cumulative = np.cumsum(flat_real[order])
    cut = int(np.searchsorted(cumulative, p, side="left"))
    prefix = order[: cut + 1]
    return float(estimated.values.reshape(-1)[prefix].sum())


def weight_cdf(wmap: WeightMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel weight CDF: (sorted distinct weights, fraction of pixels
    with weight at most each)."""
    flat = np.sort(wmap.values.reshape(-1))
    weights, first_index = np.unique(flat, return_index=True)
    counts_at_most = np.append(first_index[1:], flat.size)
    return weights, counts_at_most / flat.size


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
    label: str, wmap: WeightMap, truth: WeightMap, truth_peaks: list[HotspotPeak], config: EvalConfig
) -> VariantEval:
    normalized = _normalized(wmap, f"variant {label!r}")
    peaks = extract_peaks(normalized, config.peak_count, config.suppression_radius_m)
    match = match_and_measure(truth_peaks, peaks)
    detection = {p: detection_percentage(truth, normalized, p) for p in config.p_list}
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
    evals = [
        _evaluate_one(label, wmap, truth_n, truth_peaks, config) for label, wmap in runs.items()
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
        "config": {
            "peak_count": report.config.peak_count,
            "suppression_radius_m": report.config.suppression_radius_m,
            "p_list": list(report.config.p_list),
        },
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
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    with open(peaks_path, "w", newline="") as fh:
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
    with open(detection_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "p", "detected"])
        for label, variant in sorted(report.variants.items()):
            for p, detected in sorted(variant.detection.items()):
                writer.writerow([label, repr(p), repr(detected)])
    with open(cdf_path, "wb") as fh:
        # csv.writer's line ending.
        fh.write(b"variant,weight,fraction\r\n")
        for label, (weights, fractions) in series:
            labels = np.full(len(weights), label.encode())
            texts = [repr_lookup(v)(v) for v in (weights, fractions)]
            fh.write(text_rows([labels, *texts], end=b"\r\n"))
