"""Per-class score statistics and the alignment transforms.

A class's normal-score distribution is summarized by its pixel mean, the
mean of per-image maxima (robust stand-in for the population max), and
the population std. Alignment maps each class's scores through the
affine transform s -> (s - u) / (gamma - u), sending class normals to
mean 0 / reference-max 1 while preserving within-class rank order.
Only this module tells the two variants apart: `map_pair` and `variant_scale`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .tensorio import columns, read_csv

Scale = tuple[float, float]  # (u, gamma) of one image or class
VARIANTS = ("meanmax", "meanstd")  # pairs (u, gamma) and (u, sigma); see variant_scale


class DegenerateScaleWarning(UserWarning):
    """gamma - u fell below eps; the denominator was clamped."""


@dataclass
class ClassStats:
    """Normal-score statistics of one class, fitted on training maps only."""

    class_id: int
    u: float       # mean of all pixel scores
    gamma: float   # mean over images of the per-image max pixel score
    sigma: float   # population std of all pixel scores
    n_images: int
    n_pixels: int


def fit_class_stats(maps_by_class: Mapping[int, Sequence[np.ndarray]]) -> list[ClassStats]:
    """Fit ClassStats per class from training score maps, in float64.

    Fixed-order (manifest-order) accumulation keeps the result deterministic.
    """
    out = []
    for class_id in sorted(maps_by_class):
        maps = [np.asarray(m, dtype=np.float64) for m in maps_by_class[class_id]]
        pixels = np.concatenate([m.ravel() for m in maps])
        maxima = np.array([float(np.max(m)) for m in maps])
        out.append(
            ClassStats(
                class_id=class_id,
                u=float(np.mean(pixels)),
                gamma=float(np.mean(maxima)),
                sigma=float(np.std(pixels)),
                n_images=len(maps),
                n_pixels=int(pixels.size),
            )
        )
    return out


def normalize_meanmax(values: np.ndarray, u: float, gamma: float, eps: float = 1e-6) -> np.ndarray:
    """Mean-max normalization: each pixel becomes (s - u) / max(gamma - u, eps),
    in float64 whatever the dtype of `values`.

    A degenerate denominator (gamma - u < eps) is clamped to eps and
    flagged with DegenerateScaleWarning.
    """
    denom = gamma - u
    if denom < eps:
        warnings.warn(f"gamma - u = {denom:.3e} < eps; clamping",
                      DegenerateScaleWarning, stacklevel=2)
        denom = eps
    return (np.asarray(values, dtype=np.float64) - u) / denom


def map_pair(values: np.ndarray, variant: str) -> tuple[float, float]:
    """The pair a regressor of the variant (a VARIANTS name) learns from one
    score map, in float64: its (mean, max) for meanmax, (mean, std) for meanstd."""
    v = np.asarray(values, dtype=np.float64).ravel()
    return float(np.mean(v)), float(np.max(v) if variant == "meanmax" else np.std(v))


def variant_scale(variant: str, u: float, second: float) -> Scale:
    """The (u, gamma) of a variant's pair: meanmax's (u, gamma) as it is,
    meanstd's (u, sigma) as (u, u + 3*max(sigma, 0))."""
    if variant == "meanmax":
        return u, second
    return u, u + 3.0 * max(second, 0.0)


def scale_by_class(stats: Sequence[ClassStats], variant: str,
                   class_of: Callable[[str], Optional[int]]) -> Callable[[str], Scale]:
    """Per-image (u, gamma) under the variant, from the fitted stats of the class
    `class_of` gives the image: its label (oracle) or the classifier's prediction."""
    scales = {s.class_id: variant_scale(variant, s.u, s.gamma if variant == "meanmax" else s.sigma)
              for s in stats}

    def scale_of(image_id: str) -> Scale:
        cid = class_of(image_id)
        if cid not in scales:
            raise ValueError(f"{image_id}: no fitted stats for class {cid}")
        return scales[cid]
    return scale_of


def align_maps(maps: Mapping[str, np.ndarray],
               scale_of: Callable[[str], Scale]) -> dict[str, np.ndarray]:
    """Mean-max normalize each {image_id: map} entry with the (u, gamma)
    `scale_of` gives its image id. The oracle, classifier and regressor modes
    differ only in `scale_of`."""
    return {image_id: normalize_meanmax(values, *scale_of(image_id))
            for image_id, values in maps.items()}


def read_stats_csv(path) -> list[ClassStats]:
    """The ClassStats table `stats` writes. A repeated class_id, a non-finite
    statistic or a negative sigma is a ValueError naming the file and line."""
    seen = set()

    def parse(cells):
        cid, u, gamma, sigma, n_images, n_pixels = cells
        s = ClassStats(int(cid), float(u), float(gamma), float(sigma),
                       int(n_images), int(n_pixels))
        if not np.isfinite([s.u, s.gamma, s.sigma]).all():
            raise ValueError("non-finite statistic")
        if s.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if s.class_id in seen:
            raise ValueError(f"repeated class_id {s.class_id}")
        seen.add(s.class_id)
        return s

    return read_csv(path, columns(ClassStats), parse)
