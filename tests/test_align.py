import math

import numpy as np
import pytest

from scorealign.align import (
    ClassStats,
    DegenerateScaleWarning,
    ScoreMap,
    align_maps,
    class_scales,
    fit_class_stats,
    normalize_meanmax,
    normalize_meanstd,
    read_stats_csv,
    scale_by_class,
    write_stats_csv,
)
from scorealign.metrics import auroc, average_precision


class TestScoreMap:
    def test_coerces_to_float64(self):
        m = ScoreMap("a", np.ones((2, 2), dtype=np.float32))
        assert m.values.dtype == np.float64

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreMap("a", np.array([1.0, np.inf]))


class TestFitClassStats:
    def test_two_map_worked_example(self):
        maps = {3: [ScoreMap("a", np.array([[0.0, 2.0]])),
                    ScoreMap("b", np.array([[1.0, 3.0]]))]}
        (st,) = fit_class_stats(maps)
        assert st.class_id == 3
        assert st.u == 1.5
        assert st.gamma == 2.5  # mean of per-image maxima (2, 3)
        assert st.sigma == pytest.approx(math.sqrt(1.25), abs=1e-15)
        assert st.n_images == 2
        assert st.n_pixels == 4

    def test_constant_maps(self):
        maps = {0: [ScoreMap("a", np.full((3, 3), 5.0))]}
        (st,) = fit_class_stats(maps)
        assert (st.u, st.gamma, st.sigma) == (5.0, 5.0, 0.0)

    def test_sigma_is_population_std(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0]])
        (st,) = fit_class_stats({0: [ScoreMap("a", values)]})
        assert st.sigma == pytest.approx(np.std(values), abs=1e-15)  # ddof=0

    def test_classes_sorted(self):
        maps = {7: [ScoreMap("a", np.ones(2))], 2: [ScoreMap("b", np.ones(2))]}
        assert [s.class_id for s in fit_class_stats(maps)] == [2, 7]

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_class_stats({0: []})


class TestNormalize:
    def test_meanmax_worked_example(self):
        m = normalize_meanmax(ScoreMap("a", np.array([1.5, 2.5, 3.5])), 1.5, 2.5)
        assert np.array_equal(m.values, [0.0, 1.0, 2.0])

    def test_degenerate_scale_clamped(self):
        with pytest.warns(DegenerateScaleWarning):
            m = normalize_meanmax(ScoreMap("a", np.array([2.0])), 1.0, 1.0)
        assert m.values[0] == pytest.approx(1.0 / 1e-6)

    def test_meanstd_bitwise_equals_composite_meanmax(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            values = rng.normal(size=(4, 4)) * rng.uniform(0.1, 10)
            u = float(rng.normal())
            sigma = float(rng.uniform(0.0, 5.0))
            a = normalize_meanstd(ScoreMap("x", values), u, sigma)
            b = normalize_meanmax(ScoreMap("x", values), u, u + 3.0 * sigma)
            assert a.values.tobytes() == b.values.tobytes()

    def test_meanstd_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            normalize_meanstd(ScoreMap("a", np.ones(2)), 0.0, -1.0)


def _fitted_training_set(rng, class_id, loc, scale, n=30):
    return [ScoreMap(f"c{class_id}_{i}", rng.normal(loc, scale, size=(8, 8)))
            for i in range(n)]


def _oracle_align(maps, class_ids, stats, variant="meanmax"):
    """Label-driven alignment: each map takes its labelled class's (u, gamma)."""
    return align_maps(maps, scale_by_class(class_scales(stats, variant), class_ids.get))


class TestOracleAlignment:
    def test_aligned_training_stats_are_canonical(self):
        """Refitting stats on aligned maps gives u ~ 0 and gamma ~ 1."""
        rng = np.random.default_rng(17)
        maps_by_class = {
            0: _fitted_training_set(rng, 0, loc=1.0, scale=0.3),
            1: _fitted_training_set(rng, 1, loc=20.0, scale=4.0),
        }
        stats = fit_class_stats(maps_by_class)
        for cid, maps in maps_by_class.items():
            class_ids = {m.image_id: cid for m in maps}
            aligned = _oracle_align(maps, class_ids, stats)
            (new,) = fit_class_stats({cid: aligned})
            assert abs(new.u) < 1e-9
            assert abs(new.gamma - 1.0) < 1e-9

    def test_idempotent_with_canonical_stats(self):
        rng = np.random.default_rng(19)
        maps = {0: _fitted_training_set(rng, 0, loc=2.0, scale=1.0)}
        stats = fit_class_stats(maps)
        class_ids = {m.image_id: 0 for m in maps[0]}
        once = _oracle_align(maps[0], class_ids, stats)
        canonical = fit_class_stats({0: once})
        twice = _oracle_align(once, class_ids, canonical)
        for a, b in zip(once, twice):
            assert np.allclose(a.values, b.values, atol=1e-9)

    def test_within_class_metrics_bitwise_unchanged(self):
        """Alignment is affine with positive scale: ranks survive exactly."""
        rng = np.random.default_rng(23)
        maps = [ScoreMap(f"m{i}", np.round(rng.normal(1.0, 0.5, size=(6, 6)), 1))
                for i in range(20)]
        stats = fit_class_stats({0: maps})
        aligned = _oracle_align(maps, {m.image_id: 0 for m in maps}, stats)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        raw_scores = [float(np.max(m.values)) for m in maps]
        new_scores = [float(np.max(m.values)) for m in aligned]
        assert auroc(new_scores, labels) == auroc(raw_scores, labels)
        assert average_precision(new_scores, labels) == average_precision(raw_scores, labels)
        # same for pooled pixels
        pix_labels = rng.integers(0, 2, size=20 * 36)
        pix_labels[:2] = [0, 1]
        raw_pix = np.concatenate([m.values.ravel() for m in maps])
        new_pix = np.concatenate([m.values.ravel() for m in aligned])
        assert auroc(new_pix, pix_labels) == auroc(raw_pix, pix_labels)

    def test_missing_class_rejected(self):
        maps = [ScoreMap("a", np.ones(2))]
        stats = [ClassStats(0, 0.0, 1.0, 0.3, 1, 2)]
        with pytest.raises(KeyError, match="class 5"):
            _oracle_align(maps, {"a": 5}, stats)

    def test_missing_label_rejected(self):
        maps = [ScoreMap("a", np.ones(2))]
        with pytest.raises(KeyError, match="no class label"):
            _oracle_align(maps, {}, [ClassStats(0, 0.0, 1.0, 0.3, 1, 2)])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            class_scales([], variant="zscore")

    def test_meanstd_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            class_scales([ClassStats(0, 0.0, 1.0, -0.3, 1, 2)], variant="meanstd")

    def test_variants_differ_but_agree_on_composite(self):
        rng = np.random.default_rng(29)
        maps = {0: _fitted_training_set(rng, 0, loc=3.0, scale=1.0, n=10)}
        stats = fit_class_stats(maps)
        ids = {m.image_id: 0 for m in maps[0]}
        mm = _oracle_align(maps[0], ids, stats, variant="meanmax")
        ms = _oracle_align(maps[0], ids, stats, variant="meanstd")
        assert not np.array_equal(mm[0].values, ms[0].values)
        composite = [ClassStats(0, stats[0].u, stats[0].u + 3.0 * stats[0].sigma,
                                stats[0].sigma, stats[0].n_images, stats[0].n_pixels)]
        mm2 = _oracle_align(maps[0], ids, composite, variant="meanmax")
        for a, b in zip(ms, mm2):
            assert a.values.tobytes() == b.values.tobytes()


class TestStatsCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        maps = {0: _fitted_training_set(rng, 0, 1.0, 0.3, n=5),
                4: _fitted_training_set(rng, 4, 9.0, 2.0, n=5)}
        stats = fit_class_stats(maps)
        path = tmp_path / "stats.csv"
        write_stats_csv(path, stats)
        back = read_stats_csv(path)
        assert back == stats  # repr round-trip keeps floats exact

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_stats_csv(path)
