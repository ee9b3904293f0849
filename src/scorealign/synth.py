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

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .tensorio import (
    DatasetManifest,
    ImageEntry,
    read_tensor,
    write_manifest,
    write_tensor,
)


@dataclass
class SynthConfig:
    k_classes: int = 8
    grid: tuple = (16, 16)
    feat_dim: int = 8
    center_radius: float = 10.0
    spread_range: tuple = (0.25, 4.0)
    anomaly_rel_magnitude: float = 3.0
    anomaly_area_range: tuple = (0.05, 0.2)
    train_normal: int = 100
    test_normal: int = 20
    test_anomalous: int = 20
    train_noise: int = 0  # anomalous images injected into train, still labeled normal
    seed: int = 0

    def validate(self):
        if self.k_classes < 2:
            raise ValueError("k_classes must be >= 2")
        h, w = self.grid
        if min(h, w) < 1:
            raise ValueError(f"grid sides must be >= 1, got {self.grid}")
        if self.feat_dim < 1:
            raise ValueError(f"feat_dim must be >= 1, got {self.feat_dim}")
        if self.spread_range[0] <= 0 or self.spread_range[1] < self.spread_range[0]:
            raise ValueError(f"bad spread_range {self.spread_range}")
        lo, hi = self.anomaly_area_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(f"bad anomaly_area_range {self.anomaly_area_range}")
        # the same inclusive area-fraction test _sample_rectangle applies to a draw
        if not any(lo <= rh * rw / (h * w) <= hi
                   for rh in range(1, h + 1) for rw in range(1, w + 1)):
            raise ValueError(f"no rectangle on grid {self.grid} has an area fraction "
                             f"inside anomaly_area_range {self.anomaly_area_range}")
        if min(self.train_normal, self.test_normal, self.test_anomalous) < 1:
            raise ValueError("image counts must be >= 1")
        if self.train_noise < 0:
            raise ValueError("train_noise must be >= 0")


def _sample_rectangle(rng, h, w, area_range):
    """Axis-aligned rectangle whose area fraction is inside area_range."""
    lo, hi = area_range
    total = h * w
    for _ in range(1000):
        frac = rng.uniform(lo, hi)
        rh = int(rng.integers(1, h + 1))
        rw = min(w, max(1, round(frac * total / rh)))
        if lo <= rh * rw / total <= hi:
            top = int(rng.integers(0, h - rh + 1))
            left = int(rng.integers(0, w - rw + 1))
            return top, left, rh, rw
    raise RuntimeError("could not sample a rectangle inside the area range")


def _make_image(rng, center, spread, cfg, anomalous):
    h, w = cfg.grid
    feats = center[:, None, None] + spread * rng.normal(size=(cfg.feat_dim, h, w))
    mask = None
    if anomalous:
        top, left, rh, rw = _sample_rectangle(rng, h, w, cfg.anomaly_area_range)
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
    spreads are log-uniform over spread_range. The output is a pure
    function of (cfg, seed): repeated runs are byte-identical.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(exist_ok=True)

    master = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    directions = master.normal(size=(cfg.k_classes, cfg.feat_dim))
    centers = cfg.center_radius * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    log_lo, log_hi = np.log(cfg.spread_range[0]), np.log(cfg.spread_range[1])
    spreads = np.exp(master.uniform(log_lo, log_hi, size=cfg.k_classes))

    entries = []
    image_index = 0

    def emit(class_id, split, label, tag, i, anomalous_content):
        nonlocal image_index
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, image_index]))
        image_index += 1
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
    with open(out_dir / "synth_config.json", "w") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")
    return manifest


def fit_coreset(features: Mapping[str, np.ndarray], m_per_image: int, seed: int = 0) -> np.ndarray:
    """The memory bank of normal feature vectors, [M, feat_dim] float64:
    m_per_image uniformly subsampled grid locations per training image."""
    if not features:
        raise ValueError("empty training set")
    chunks = []
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for image_id in sorted(features):
        feats = np.asarray(features[image_id], dtype=np.float64)
        d, h, w = feats.shape
        n_loc = h * w
        if not 1 <= m_per_image <= n_loc:
            raise ValueError(f"m_per_image must be in [1, {n_loc}], got {m_per_image}")
        flat = feats.reshape(d, n_loc).T
        idx = rng.permutation(n_loc)[:m_per_image]
        chunks.append(flat[np.sort(idx)])
    return np.concatenate(chunks)


def score_knn(features: Sequence[np.ndarray], tree: cKDTree) -> list[np.ndarray]:
    """Per-location Euclidean distance to the nearest memory-bank point: one [H, W]
    map per [D, H, W] tensor; grids may differ. All rows go to one tree query
    on every CPU. Each row is answered on its own, so the maps are
    byte-identical to one single-threaded query per image."""
    rows, shapes = [], []
    for f in features:
        feats = np.asarray(f, dtype=np.float64)
        d, h, w = feats.shape
        if d != tree.m:
            raise ValueError(f"feature dim {d} != coreset dim {tree.m}")
        rows.append(feats.reshape(d, h * w).T)
        shapes.append((h, w))
    dist, _ = tree.query(np.concatenate(rows), workers=-1)
    ends = np.cumsum([h * w for h, w in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(dist, ends), shapes)]


def save_coreset(points: np.ndarray, m_per_image: int, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(out_dir / "points.adt", np.asarray(points, dtype=np.float64))
    with open(out_dir / "coreset.json", "w") as f:
        json.dump({"per_image_count": m_per_image,
                   "n_points": int(points.shape[0])}, f, indent=2)
        f.write("\n")


def load_coreset(in_dir) -> cKDTree:
    """The k-d tree over the saved memory bank; score_knn queries it."""
    return cKDTree(read_tensor(Path(in_dir) / "points.adt"))
