"""Exact image- and pixel-level detection metrics.

AUROC uses the tie-aware rank formulation (half credit for ties), AP the
step-wise precision-recall sum with ties grouped at one threshold. Both are
computed from one sort of all scores: for each distinct score some positive
holds, two binary searches count the scores below and at or below it. The
AUROC rank sum is then an exact integer sum; AP walks the positive
thresholds from the highest down and adds its terms in sequence. Both
depend only on the ordering of the scores, so any strictly increasing
transform of all scores leaves them bitwise unchanged. Labels must be 0 or
1; scores are converted to float64 regardless of the input dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import ceil
from typing import Mapping, Optional, Sequence

import numpy as np

from .tensorio import DatasetManifest


TOP_FRACTION = 0.01  # the default share of a map's highest pixels its image score averages


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. a single-class sample set)."""


def _as_score_label_arrays(scores, labels):
    """float64 scores and a boolean positive mask; labels must be 0 or 1."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError(f"scores and labels differ in length: {s.shape} vs {y.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite score")
    pos = y == 1
    if not np.all(pos | (y == 0)):
        raise ValueError("labels must be 0 or 1")
    return s, pos


def _positive_groups(s: np.ndarray, pos: np.ndarray):
    """For each distinct score some positive holds, in ascending order, three
    int arrays: the positives at that score, the scores strictly below it,
    and the scores at or below it. Sorts s in place."""
    t, count = np.unique(s[pos], return_counts=True)
    s.sort()
    return count, np.searchsorted(s, t, "left"), np.searchsorted(s, t, "right")


def _auroc(pos, groups) -> float:
    count, below, upto = groups
    n_pos = int(np.count_nonzero(pos))
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auroc needs both classes, got {n_pos} positives / {n_neg} negatives"
        )
    # a tie group at 0-based sorted positions below..upto-1 has the average
    # 1-based rank (below + upto + 1) / 2; the integer sum is exact
    rank_sum = 0.5 * int(np.sum(count * (below + upto + 1)))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_precision(pos, groups) -> float:
    count, below, _ = groups
    n_pos = int(np.count_nonzero(pos))
    if n_pos == 0:
        raise UndefinedMetricError("average_precision needs at least one positive")
    # a threshold no positive holds adds R_k - R_{k-1} = 0 exactly, so only
    # the positive thresholds contribute, from the highest down
    tp = np.cumsum(count[::-1])
    recall = tp / n_pos
    precision = tp / (pos.size - below[::-1])
    terms = np.diff(recall, prepend=0.0) * precision
    # cumsum adds in sequence; np.sum's pairwise order moves the last bit
    return float(np.cumsum(terms)[-1])


def auroc(scores, labels) -> float:
    """Probability a positive outscores a negative, ties counting half.

    Raises UndefinedMetricError unless both classes are present. scores is
    left unmodified.
    """
    s, pos = _as_score_label_arrays(scores, labels)
    return _auroc(pos, _positive_groups(s.copy(), pos))


def average_precision(scores, labels) -> float:
    """Step-wise AP: sum of (R_k - R_{k-1}) * P_k over descending unique
    thresholds. scores is left unmodified."""
    s, pos = _as_score_label_arrays(scores, labels)
    return _average_precision(pos, _positive_groups(s.copy(), pos))


def image_score(values: np.ndarray, top_fraction) -> float:
    """Mean of the ceil(top_fraction * count) largest pixel scores.

    `top_fraction="max"` averages the one largest, so it returns the maximum.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    m = 1 if top_fraction == "max" else ceil(top_fraction * v.size)
    top = np.partition(v, v.size - m)[v.size - m :]
    return float(np.mean(np.sort(top)))


@dataclass
class MetricsReport:
    """One row of detection results for a pool of test images."""

    scope: str  # "mixed", "class:<id>", or "macro"
    i_auroc: float
    i_ap: float
    p_auroc: Optional[float]
    p_ap: Optional[float]
    n_images: int
    n_pixels: int


def _image_row(e, values, masks, top_fraction):
    """One test image's (image score, 0/1 label, flat pixel scores, pixel
    labels); the pixel entries are None for an anomalous image without a mask."""
    score = image_score(values, top_fraction)
    anomalous = e.label == "anomalous"
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not anomalous:
        # normal test image: implicit all-zero mask
        pixel_labels = np.zeros(flat.size, dtype=bool)
    elif e.image_id in masks:
        mask = np.asarray(masks[e.image_id])
        if mask.shape != np.shape(values):
            raise ValueError(f"{e.image_id}: mask shape {mask.shape} != map shape "
                             f"{np.shape(values)}")
        pixel_labels = mask.ravel() > 0
    else:
        # anomalous without pixel ground truth: image metrics only
        flat = pixel_labels = None
    return score, int(anomalous), flat, pixel_labels


def _rank_metrics(scores, labels) -> tuple[float, float]:
    """(auroc, average_precision) of one pool from one sort; a float64 scores
    array is sorted in place, so it must be the pool's own."""
    s, pos = _as_score_label_arrays(scores, labels)
    groups = _positive_groups(s, pos)
    return _auroc(pos, groups), _average_precision(pos, groups)


def _pool_metrics(scope, rows) -> MetricsReport:
    img_scores = [r[0] for r in rows]
    img_labels = [r[1] for r in rows]
    pixels = [r[2:] for r in rows if r[2] is not None]
    n_pixels = sum(flat.size for flat, _ in pixels)

    i_auroc, i_ap = _rank_metrics(img_scores, img_labels)
    p_auroc = p_ap = None
    if pixels:
        ps = np.concatenate([flat for flat, _ in pixels])
        pl = np.concatenate([labels for _, labels in pixels])
        if pl.any() and not pl.all():
            p_auroc, p_ap = _rank_metrics(ps, pl)
    return MetricsReport(scope, i_auroc, i_ap, p_auroc, p_ap, len(rows), n_pixels)


def evaluate(
    manifest: DatasetManifest,
    score_maps: Mapping[str, np.ndarray],
    masks: Optional[Mapping[str, np.ndarray]] = None,
    top_fraction=TOP_FRACTION,
) -> list[MetricsReport]:
    """Score the test split: one mixed report, plus per-class reports and
    their macro average when the manifest carries class ids.

    Image metrics come from the top-fraction aggregate of each score map;
    pixel metrics pool all pixels of all test images (normal images count
    as all-negative).
    """
    masks = masks or {}
    entries = manifest.split("test")
    # each image is scored once; the mixed and per-class pools select its row
    rows = [_image_row(e, score_maps[e.image_id], masks, top_fraction) for e in entries]
    reports = [_pool_metrics("mixed", rows)]
    class_ids = sorted({e.class_id for e in entries if e.class_id is not None})
    if class_ids:
        per_class = [
            _pool_metrics(f"class:{cid}",
                          [r for e, r in zip(entries, rows) if e.class_id == cid])
            for cid in class_ids
        ]
        reports.extend(per_class)
        reports.append(macro_average(per_class))
    return reports


def macro_average(per_class: Sequence[MetricsReport]) -> MetricsReport:
    """Unweighted mean of per-class reports (the model-unified protocol): each
    metric's mean, None when a class lacks it, and each count's sum."""
    row = {}
    for f in fields(MetricsReport)[1:]:
        vals = [getattr(r, f.name) for r in per_class]
        row[f.name] = (sum(vals) if f.name.startswith("n_") else
                       None if None in vals else float(np.mean(vals)))
    return MetricsReport("macro", **row)
