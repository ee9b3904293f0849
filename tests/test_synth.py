import filecmp
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from scorealign.metrics import evaluate
from scorealign.synth import (
    SynthConfig,
    fit_coreset,
    generate,
    load_coreset,
    save_coreset,
    score_knn,
)
from scorealign.tensorio import read_tensor

SMALL = dict(k_classes=3, grid=(8, 8), feat_dim=4,
             train_normal=10, test_normal=5, test_anomalous=5)


def _load_features(manifest, split):
    return {e.image_id: read_tensor(manifest.resolve(e.feature_path))
            for e in manifest.split(split)}


class TestConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SynthConfig(k_classes=1).validate()
        with pytest.raises(ValueError):
            SynthConfig(spread_range=(0.0, 1.0)).validate()
        with pytest.raises(ValueError):
            SynthConfig(anomaly_area_range=(0.5, 0.1)).validate()
        with pytest.raises(ValueError):
            SynthConfig(train_normal=0).validate()


class TestGenerate:
    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(**SMALL, seed=5)
        generate(cfg, tmp_path / "a")
        generate(cfg, tmp_path / "b")
        cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")

        def assert_same(c):
            assert not c.diff_files and not c.left_only and not c.right_only
            for sub in c.subdirs.values():
                assert_same(sub)

        assert_same(cmp)

    def test_counts_and_labels(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        man = generate(cfg, tmp_path)
        assert len(man.split("train")) == 3 * 10
        test = man.split("test")
        assert sum(e.label == "normal" for e in test) == 3 * 5
        assert sum(e.label == "anomalous" for e in test) == 3 * 5
        assert man.class_ids() == [0, 1, 2]
        # every anomalous test image carries a mask, normals never do
        for e in test:
            assert (e.mask_path is not None) == (e.label == "anomalous")

    def test_empirical_spread_matches_config(self, tmp_path):
        cfg = SynthConfig(k_classes=3, grid=(16, 16), feat_dim=4,
                          train_normal=30, test_normal=1, test_anomalous=1, seed=2)
        man = generate(cfg, tmp_path)
        with open(tmp_path / "synth_config.json") as f:
            assert json.load(f)["k_classes"] == 3
        feats = _load_features(man, "train")
        for cid in man.class_ids():
            per_class = np.stack([feats[e.image_id] for e in man.split("train")
                                  if e.class_id == cid])
            # centered per channel; pooled std estimates the class spread s_c
            centered = per_class - per_class.mean(axis=(0, 2, 3), keepdims=True)
            s_hat = float(np.std(centered))
            lo, hi = cfg.spread_range
            assert lo * 0.9 <= s_hat <= hi * 1.1
            # ~30 * 256 * 4 samples: within 10% of the true spread
            # (true value unknown here, so check against observed maxima dispersion)
        spreads = []
        for cid in man.class_ids():
            per_class = np.stack([feats[e.image_id] for e in man.split("train")
                                  if e.class_id == cid])
            centered = per_class - per_class.mean(axis=(0, 2, 3), keepdims=True)
            spreads.append(float(np.std(centered)))
        # log-uniform sampling over a 16x range: classes should actually differ
        assert max(spreads) / min(spreads) > 1.5

    def test_anomaly_masks_respect_area_range(self, tmp_path):
        cfg = SynthConfig(**SMALL, seed=9)
        man = generate(cfg, tmp_path)
        lo, hi = cfg.anomaly_area_range
        n_checked = 0
        for e in man.split("test"):
            if e.mask_path is None:
                continue
            mask = read_tensor(man.resolve(e.mask_path))
            frac = float(np.mean(mask > 0))
            assert lo <= frac <= hi
            n_checked += 1
        assert n_checked == 3 * 5

    def test_anomaly_shifts_features_inside_mask_only(self, tmp_path):
        cfg = SynthConfig(**SMALL, seed=4, anomaly_rel_magnitude=50.0,
                          spread_range=(2.0, 2.0))
        man = generate(cfg, tmp_path)
        e = next(x for x in man.split("test") if x.mask_path)
        feats = read_tensor(man.resolve(e.feature_path))
        mask = read_tensor(man.resolve(e.mask_path)) > 0
        norms = np.linalg.norm(feats, axis=0)
        # with a 50x shift the masked region is unmistakably displaced
        assert norms[mask].min() > norms[~mask].max()

    def test_train_noise_images_labeled_normal(self, tmp_path):
        cfg = SynthConfig(**SMALL, train_noise=2, seed=1)
        man = generate(cfg, tmp_path)
        noise = [e for e in man.split("train") if "trainnoise" in e.image_id]
        assert len(noise) == 3 * 2
        assert all(e.label == "normal" and e.mask_path is None for e in noise)


class TestCoreset:
    def test_full_sampling_keeps_every_location(self):
        rng = np.random.default_rng(0)
        feats = {"a": rng.normal(size=(4, 3, 3)).astype(np.float32)}
        points = fit_coreset(feats, m_per_image=9)
        assert points.shape == (9, 4)
        flat = np.asarray(feats["a"], dtype=np.float64).reshape(4, 9).T
        assert np.array_equal(np.sort(points, axis=0), np.sort(flat, axis=0))

    def test_seeded_subsampling_reproducible(self):
        rng = np.random.default_rng(1)
        feats = {f"i{i}": rng.normal(size=(4, 6, 6)).astype(np.float32)
                 for i in range(5)}
        a = fit_coreset(feats, 8, seed=3)
        b = fit_coreset(feats, 8, seed=3)
        c = fit_coreset(feats, 8, seed=4)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()
        assert a.shape == (40, 4)

    def test_invalid_m_rejected(self):
        feats = {"a": np.zeros((4, 3, 3), dtype=np.float32)}
        with pytest.raises(ValueError):
            fit_coreset(feats, 0)
        with pytest.raises(ValueError):
            fit_coreset(feats, 10)
        with pytest.raises(ValueError):
            fit_coreset({}, 1)

    def test_score_of_member_is_zero(self):
        rng = np.random.default_rng(2)
        feats = {"a": rng.normal(size=(4, 3, 3)).astype(np.float32)}
        tree = cKDTree(fit_coreset(feats, m_per_image=9))
        scores = score_knn([feats["a"]], tree)[0]
        assert np.allclose(scores, 0.0, atol=1e-7)

    def test_three_four_five_distance(self):
        tree = cKDTree(np.array([[0.0, 0.0]]))
        query = np.array([3.0, 4.0]).reshape(2, 1, 1)
        assert score_knn([query], tree)[0][0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            score_knn([np.zeros((4, 2, 2))], cKDTree(np.zeros((3, 2))))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = {"a": rng.normal(size=(4, 4, 4)).astype(np.float32)}
        points = fit_coreset(feats, 6)
        save_coreset(points, 6, tmp_path)
        back = load_coreset(tmp_path)
        assert back.data.tobytes() == points.tobytes()
        meta = json.loads((tmp_path / "coreset.json").read_text())
        assert meta == {"per_image_count": 6, "n_points": 6}


# small integers make duplicate points and equidistant neighbours common
VALUES = st.integers(-3, 3).map(float) | st.floats(-10, 10, width=32)
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def coreset_and_images(draw):
    """Coreset points with repeated rows, and float32 [D, H, W] images on
    differing grids, one of them 1x1."""
    dim = draw(st.integers(1, 4))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 40)), dim), elements=VALUES))
    repeats = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=10))
    points = np.concatenate([base, base[repeats]])
    grids = draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)),
                          min_size=1, max_size=5))
    grids.insert(draw(st.integers(0, len(grids))), (1, 1))
    assume(len(set(grids)) > 1)
    images = [draw(hnp.arrays(np.float32, (dim, h, w), elements=VALUES)) for h, w in grids]
    return points, images


class TestScoreKnnBatch:
    @PROPERTY_SETTINGS
    @given(coreset_and_images())
    def test_equals_single_threaded_query_per_image(self, case):
        points, images = case
        maps = score_knn(images, cKDTree(points))
        assert len(maps) == len(images)
        for smap, img in zip(maps, images):
            d, h, w = img.shape
            want, _ = cKDTree(points).query(img.astype(np.float64).reshape(d, h * w).T)
            assert smap.dtype == np.float64 and smap.shape == (h, w)
            assert smap.tobytes() == want.reshape(h, w).tobytes()

    def test_dim_mismatch_in_any_image_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            score_knn([np.zeros((2, 2, 2)), np.zeros((4, 1, 1))], cKDTree(np.zeros((3, 2))))


class TestScaleMismatchMechanism:
    def test_mixed_pooling_underperforms_macro(self, tmp_path):
        """A small instance of the headline effect: raw nearest-neighbor
        scores are fine per class but collapse when pooled across classes."""
        cfg = SynthConfig(k_classes=2, grid=(12, 12), feat_dim=4,
                          spread_range=(0.25, 4.0), train_normal=40,
                          test_normal=12, test_anomalous=12, seed=6)
        man = generate(cfg, tmp_path)
        train = _load_features(man, "train")
        test = _load_features(man, "test")
        tree = cKDTree(fit_coreset(train, 16, seed=0))
        maps = {i: score_knn([f], tree)[0] for i, f in test.items()}
        masks = {e.image_id: read_tensor(man.resolve(e.mask_path))
                 for e in man.split("test") if e.mask_path}
        reports = evaluate(man, maps, masks)
        by_scope = {r.scope: r for r in reports}
        assert by_scope["macro"].i_auroc - by_scope["mixed"].i_auroc > 0.05
        assert by_scope["macro"].i_auroc > 0.85
