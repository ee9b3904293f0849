"""Deterministic synthetic multi-class benchmark and the memory-bank scorer.

Each class is an isotropic Gaussian blob in feature space whose spread
s_c is sampled log-uniformly, so raw nearest-neighbor anomaly scores of
different classes live on scales up to s_max/s_min apart. Anomalies
shift a random rectangle of the feature grid by a vector of norm
a * s_c, keeping per-class difficulty constant: the score-scale mismatch
is the only confound.

RNG discipline: numpy PCG64. The master stream is seeded with
SeedSequence([seed]); image i uses its own stream SeedSequence([seed, i])
so generation is order-independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .tensorio import (
    DatasetManifest,
    ImageEntry,
    TensorFormatError,
    read_tensor,
    write_json,
    write_manifest,
    write_tensor,
)


@dataclass
class SynthConfig:
    """The benchmark's settings: `gen`'s flags and `--config` keys are these fields."""
    k_classes: int = 8
    grid_h: int = 16
    grid_w: int = 16
    feat_dim: int = 8
    center_radius: float = 10.0
    spread_min: float = 0.25  # class spreads are log-uniform over [spread_min, spread_max]
    spread_max: float = 4.0
    anomaly_rel_magnitude: float = 3.0
    area_min: float = 0.05  # an anomaly covers a grid fraction in [area_min, area_max]
    area_max: float = 0.2
    train_normal: int = 100
    test_normal: int = 20
    test_anomalous: int = 20
    train_noise: int = 0  # anomalous images injected into train, still labeled normal
    seed: int = 0

    def validate(self):
        """Reject settings no benchmark can be made from, naming the field.

        A feature is a center coordinate plus spread * (z + an anomaly shift),
        so its magnitude is at most |center_radius| + spread_max * (13 +
        |anomaly_rel_magnitude|): numpy's Generator draws no standard normal z
        beyond 13. That bound must fit float32, the features' dtype."""
        for name, value in asdict(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        largest = abs(self.center_radius) + self.spread_max * (13 + abs(self.anomaly_rel_magnitude))
        if largest > float(np.finfo(np.float32).max):
            raise ValueError(f"|center_radius| + spread_max * (13 + |anomaly_rel_magnitude|) "
                             f"must be at most {np.finfo(np.float32).max:.6g} (float32), "
                             f"got {largest:.6g}")
        if self.k_classes < 2:
            raise ValueError("k_classes must be >= 2")
        h, w = self.grid_h, self.grid_w
        if min(h, w) < 1:
            raise ValueError(f"grid_h and grid_w must be >= 1, got {h} and {w}")
        if self.feat_dim < 1:
            raise ValueError(f"feat_dim must be >= 1, got {self.feat_dim}")
        if not 0.0 < self.spread_min <= self.spread_max:
            raise ValueError(f"need 0 < spread_min <= spread_max, "
                             f"got {self.spread_min} and {self.spread_max}")
        lo, hi = self.area_min, self.area_max
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(f"need 0 < area_min <= area_max < 1, got {lo} and {hi}")
        if not any(_fitting_sizes(h, w, lo, hi)):
            raise ValueError(f"no rectangle on the {h} x {w} grid has an area fraction "
                             f"between area_min {lo} and area_max {hi}")
        if min(self.train_normal, self.test_normal, self.test_anomalous) < 1:
            raise ValueError("image counts must be >= 1")
        if self.train_noise < 0:
            raise ValueError("train_noise must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _area_fits(rh, rw, h, w, lo, hi) -> bool:
    """The one anomaly-area test: rh x rw covers a fraction in [lo, hi] of h x w."""
    return lo <= rh * rw / (h * w) <= hi


def _fitting_sizes(h, w, lo, hi):
    """Each (rh, rw) that passes _area_fits on the h x w grid, rh-major."""
    return ((rh, rw) for rh in range(1, h + 1) for rw in range(1, w + 1)
            if _area_fits(rh, rw, h, w, lo, hi))


def _sample_rectangle(rng, h, w, lo, hi):
    """Axis-aligned rectangle whose area fraction is inside [lo, hi]: sized by a drawn
    fraction, or after 1,000 misses uniformly among the sizes that fit."""
    total = h * w
    for _ in range(1000):
        frac = rng.uniform(lo, hi)
        rh = int(rng.integers(1, h + 1))
        rw = min(w, max(1, round(frac * total / rh)))
        if _area_fits(rh, rw, h, w, lo, hi):
            break
    else:
        sizes = list(_fitting_sizes(h, w, lo, hi))
        rh, rw = sizes[int(rng.integers(len(sizes)))]
    top = int(rng.integers(0, h - rh + 1))
    left = int(rng.integers(0, w - rw + 1))
    return top, left, rh, rw


def _make_image(rng, center, spread, cfg, anomalous):
    h, w = cfg.grid_h, cfg.grid_w
    feats = center[:, None, None] + spread * rng.normal(size=(cfg.feat_dim, h, w))
    mask = None
    if anomalous:
        top, left, rh, rw = _sample_rectangle(rng, h, w, cfg.area_min, cfg.area_max)
        direction = rng.normal(size=cfg.feat_dim)
        direction /= np.linalg.norm(direction)
        shift = cfg.anomaly_rel_magnitude * spread * direction
        feats[:, top : top + rh, left : left + rw] += shift[:, None, None]
        mask = np.zeros((h, w), dtype=np.float32)
        mask[top : top + rh, left : left + rw] = 1.0
    return feats.astype(np.float32), mask


def generate(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Generate feature tensors, masks, and a manifest under out_dir.

    Class centers sit on a sphere of radius center_radius; per-class
    spreads are log-uniform over [spread_min, spread_max]. The output is a pure
    function of (cfg, seed): repeated runs are byte-identical.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(exist_ok=True)

    master = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    directions = master.normal(size=(cfg.k_classes, cfg.feat_dim))
    centers = cfg.center_radius * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    log_lo, log_hi = np.log(cfg.spread_min), np.log(cfg.spread_max)
    spreads = np.exp(master.uniform(log_lo, log_hi, size=cfg.k_classes))

    entries = []

    def emit(class_id, split, label, tag, i, anomalous_content):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, len(entries)]))
        feats, mask = _make_image(rng, centers[class_id], spreads[class_id], cfg,
                                  anomalous_content)
        image_id = f"c{class_id:02d}_{tag}_{i:04d}"
        feature_path = f"features/{image_id}.adt"
        write_tensor(out_dir / feature_path, feats)
        mask_path = None
        if mask is not None and label == "anomalous":
            mask_path = f"masks/{image_id}.adt"
            write_tensor(out_dir / mask_path, mask)
        entries.append(
            ImageEntry(
                image_id=image_id,
                split=split,
                label=label,
                class_id=class_id,
                feature_path=feature_path,
                mask_path=mask_path,
            )
        )

    for c in range(cfg.k_classes):
        for i in range(cfg.train_normal):
            emit(c, "train", "normal", "train", i, anomalous_content=False)
        # contaminated-train option: anomalous content, still labeled normal
        for i in range(cfg.train_noise):
            emit(c, "train", "normal", "trainnoise", i, anomalous_content=True)
        for i in range(cfg.test_normal):
            emit(c, "test", "normal", "testn", i, anomalous_content=False)
        for i in range(cfg.test_anomalous):
            emit(c, "test", "anomalous", "testa", i, anomalous_content=True)

    manifest = DatasetManifest(images=entries, root=out_dir)
    write_manifest(out_dir / "manifest.json", manifest)
    write_json(out_dir / "synth_config.json", asdict(cfg))
    return manifest


def fit_coreset(images: Iterable[np.ndarray], m_per_image: int, seed: int = 0) -> np.ndarray:
    """The memory bank of normal feature vectors, [M, D] float64:
    m_per_image uniformly subsampled grid locations of each [D, H, W]
    training image, in iteration order. images is consumed once and no image
    is kept, so memory grows with the bank, not with the training set."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    chunks = []
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for feats in images:
        d, h, w = feats.shape
        n_loc = h * w
        if not 1 <= m_per_image <= n_loc:
            raise ValueError(f"m_per_image must be in [1, {n_loc}], got {m_per_image}")
        flat = feats.reshape(d, n_loc).T
        idx = rng.permutation(n_loc)[:m_per_image]
        chunks.append(flat[np.sort(idx)])
    return np.concatenate(chunks, dtype=np.float64)


def score_knn(features: Sequence[np.ndarray], tree: cKDTree) -> list[np.ndarray]:
    """Per-location Euclidean distance to the nearest memory-bank point: one [H, W]
    map per [D, H, W] tensor, D the tree's dim; grids may differ. All rows are cast
    into one float64 [rows, D] buffer, the only copy, for one tree query on every
    CPU. Each row is answered on its own, so the maps are byte-identical to one
    single-threaded query per image."""
    shapes = [f.shape[1:] for f in features]
    ends = np.cumsum([h * w for h, w in shapes])
    rows = np.empty((ends[-1], tree.m), dtype=np.float64)
    for f, end, (h, w) in zip(features, ends, shapes):
        rows[end - h * w:end] = f.reshape(-1, h * w).T
    dist, _ = tree.query(rows, workers=-1)
    return [part.reshape(shape) for part, shape in zip(np.split(dist, ends[:-1]), shapes)]


def save_coreset(points: np.ndarray, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(out_dir / "points.adt", np.asarray(points, dtype=np.float64))


def load_coreset(in_dir) -> cKDTree:
    """The k-d tree over the saved memory bank; score_knn queries it. A points
    file that is not [M, D] is a TensorFormatError naming it and its shape."""
    path = Path(in_dir) / "points.adt"
    points = read_tensor(path)
    if points.ndim != 2:
        raise TensorFormatError(f"{path}: coreset points of shape {points.shape}, not [M, D]")
    return cKDTree(points)
