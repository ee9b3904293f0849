"""Per-class score statistics and the alignment transforms.

A class's normal-score distribution is summarized by its pixel mean, the
mean of per-image maxima (robust stand-in for the population max), and
the population std. Alignment maps each class's scores through the
affine transform s -> (s - u) / (gamma - u), sending class normals to
mean 0 / reference-max 1 while preserving within-class rank order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np


Scale = tuple[float, float]  # (u, gamma) of one image or class


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

    CSV_HEADER = "class_id,u,gamma,sigma,n_images,n_pixels"

    def to_csv_row(self) -> str:
        return (f"{self.class_id},{self.u!r},{self.gamma!r},{self.sigma!r},"
                f"{self.n_images},{self.n_pixels}")


def fit_class_stats(maps_by_class: Mapping[int, Sequence[np.ndarray]]) -> list[ClassStats]:
    """Fit ClassStats per class from training score maps, in float64.

    Fixed-order (manifest-order) accumulation keeps the result deterministic.
    """
    out = []
    for class_id in sorted(maps_by_class):
        maps = [np.asarray(m, dtype=np.float64) for m in maps_by_class[class_id]]
        if not maps:
            raise ValueError(f"class {class_id}: empty score-map group")
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


def meanstd_gamma(u: float, sigma: float) -> float:
    """The mean/std variant's reference max: gamma = u + 3*sigma."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return u + 3.0 * sigma


def class_scales(stats: Sequence[ClassStats], variant: str = "meanmax") -> dict[int, Scale]:
    """Each class's (u, gamma) under the meanmax or meanstd variant."""
    if variant == "meanmax":
        return {s.class_id: (s.u, s.gamma) for s in stats}
    if variant == "meanstd":
        return {s.class_id: (s.u, meanstd_gamma(s.u, s.sigma)) for s in stats}
    raise ValueError(f"unknown variant {variant!r}")


def scale_by_class(scales: Mapping[int, Scale],
                   class_of: Callable[[str], Optional[int]]) -> Callable[[str], Scale]:
    """Per-image (u, gamma) of the class `class_of` gives the image: its
    label (oracle) or the classifier's prediction. None means unlabeled."""
    def scale_of(image_id: str) -> Scale:
        cid = class_of(image_id)
        if cid is None:
            raise KeyError(f"{image_id}: no class label")
        if cid not in scales:
            raise KeyError(f"{image_id}: no fitted stats for class {cid}")
        return scales[cid]
    return scale_of


def align_maps(maps: Mapping[str, np.ndarray], scale_of: Callable[[str], Scale],
               eps: float = 1e-6) -> dict[str, np.ndarray]:
    """Mean-max normalize each {image_id: map} entry with the (u, gamma)
    `scale_of` gives its image id. The oracle, classifier and regressor modes
    differ only in `scale_of`."""
    return {image_id: normalize_meanmax(values, *scale_of(image_id), eps)
            for image_id, values in maps.items()}


def write_stats_csv(path, stats: Sequence[ClassStats]) -> None:
    with open(path, "w") as f:
        f.write(ClassStats.CSV_HEADER + "\n")
        for s in stats:
            f.write(s.to_csv_row() + "\n")


def read_stats_csv(path) -> list[ClassStats]:
    stats = []
    with open(path) as f:
        header = f.readline().strip()
        if header != ClassStats.CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in f:
            if not line.strip():
                continue
            cid, u, gamma, sigma, n_img, n_pix = line.strip().split(",")
            stats.append(ClassStats(int(cid), float(u), float(gamma), float(sigma),
                                    int(n_img), int(n_pix)))
    return stats
