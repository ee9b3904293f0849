import math

import numpy as np
import pytest

from scorealign.align import (
    ClassStats,
    DegenerateScaleWarning,
    align_maps,
    class_scales,
    fit_class_stats,
    meanstd_gamma,
    normalize_meanmax,
    read_stats_csv,
    scale_by_class,
    write_stats_csv,
)
from scorealign.metrics import auroc, average_precision


class TestScoreMap:
    def test_coerces_to_float64(self):
        """float32 maps give the float64 results of their float64 copies, bit
        for bit: stats, then each alignment source through align_maps."""
        rng = np.random.default_rng(5)
        maps32 = {f"m{i}": rng.normal(2.0, 0.7, size=(6, 6)).astype(np.float32)
                  for i in range(8)}
        maps64 = {i: m.astype(np.float64) for i, m in maps32.items()}
        (st32,) = fit_class_stats({0: list(maps32.values())})
        (st64,) = fit_class_stats({0: list(maps64.values())})
        assert st32 == st64
        per_image = {image_id: (0.1 * n, 2.0 + n) for n, image_id in enumerate(maps32)}
        for scale_of in (scale_by_class(class_scales([st64], "meanmax"), lambda _: 0),
                         scale_by_class(class_scales([st64], "meanstd"), lambda _: 0),
                         per_image.__getitem__):
            a, b = align_maps(maps32, scale_of), align_maps(maps64, scale_of)
            assert list(a) == list(maps32)
            for image_id in maps32:
                assert a[image_id].dtype == np.float64
                assert a[image_id].tobytes() == b[image_id].tobytes()


class TestFitClassStats:
    def test_two_map_worked_example(self):
        maps = {3: [np.array([[0.0, 2.0]]), np.array([[1.0, 3.0]])]}
        (st,) = fit_class_stats(maps)
        assert st.class_id == 3
        assert st.u == 1.5
        assert st.gamma == 2.5  # mean of per-image maxima (2, 3)
        assert st.sigma == pytest.approx(math.sqrt(1.25), abs=1e-15)
        assert st.n_images == 2
        assert st.n_pixels == 4

    def test_constant_maps(self):
        maps = {0: [np.full((3, 3), 5.0)]}
        (st,) = fit_class_stats(maps)
        assert (st.u, st.gamma, st.sigma) == (5.0, 5.0, 0.0)

    def test_sigma_is_population_std(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0]])
        (st,) = fit_class_stats({0: [values]})
        assert st.sigma == pytest.approx(np.std(values), abs=1e-15)  # ddof=0

    def test_classes_sorted(self):
        maps = {7: [np.ones(2)], 2: [np.ones(2)]}
        assert [s.class_id for s in fit_class_stats(maps)] == [2, 7]

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_class_stats({0: []})


class TestNormalize:
    def test_meanmax_worked_example(self):
        m = normalize_meanmax(np.array([1.5, 2.5, 3.5]), 1.5, 2.5)
        assert np.array_equal(m, [0.0, 1.0, 2.0])

    def test_degenerate_scale_clamped(self):
        with pytest.warns(DegenerateScaleWarning):
            m = normalize_meanmax(np.array([2.0]), 1.0, 1.0)
        assert m[0] == pytest.approx(1.0 / 1e-6)

    def test_meanstd_bitwise_equals_composite_meanmax(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            values = rng.normal(size=(4, 4)) * rng.uniform(0.1, 10)
            u = float(rng.normal())
            sigma = float(rng.uniform(0.0, 5.0))
            stats = [ClassStats(0, u, 0.0, sigma, 1, values.size)]
            scale_of = scale_by_class(class_scales(stats, "meanstd"), lambda _: 0)
            a = align_maps({"x": values}, scale_of)["x"]
            b = normalize_meanmax(values, u, u + 3.0 * sigma)
            assert a.tobytes() == b.tobytes()

    def test_meanstd_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            meanstd_gamma(0.0, -1.0)


def _fitted_training_set(rng, class_id, loc, scale, n=30):
    return {f"c{class_id}_{i}": rng.normal(loc, scale, size=(8, 8)) for i in range(n)}


def _fit(maps_by_class):
    """fit_class_stats on {class_id: {image_id: map}}."""
    return fit_class_stats({cid: list(maps.values()) for cid, maps in maps_by_class.items()})


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
        stats = _fit(maps_by_class)
        for cid, maps in maps_by_class.items():
            class_ids = {image_id: cid for image_id in maps}
            aligned = _oracle_align(maps, class_ids, stats)
            (new,) = _fit({cid: aligned})
            assert abs(new.u) < 1e-9
            assert abs(new.gamma - 1.0) < 1e-9

    def test_idempotent_with_canonical_stats(self):
        rng = np.random.default_rng(19)
        maps = {0: _fitted_training_set(rng, 0, loc=2.0, scale=1.0)}
        stats = _fit(maps)
        class_ids = {image_id: 0 for image_id in maps[0]}
        once = _oracle_align(maps[0], class_ids, stats)
        canonical = _fit({0: once})
        twice = _oracle_align(once, class_ids, canonical)
        for a, b in zip(once.values(), twice.values()):
            assert np.allclose(a, b, atol=1e-9)

    def test_within_class_metrics_bitwise_unchanged(self):
        """Alignment is affine with positive scale: ranks survive exactly."""
        rng = np.random.default_rng(23)
        maps = {f"m{i}": np.round(rng.normal(1.0, 0.5, size=(6, 6)), 1) for i in range(20)}
        stats = _fit({0: maps})
        aligned = _oracle_align(maps, {image_id: 0 for image_id in maps}, stats)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        raw_scores = [float(np.max(m)) for m in maps.values()]
        new_scores = [float(np.max(m)) for m in aligned.values()]
        assert auroc(new_scores, labels) == auroc(raw_scores, labels)
        assert average_precision(new_scores, labels) == average_precision(raw_scores, labels)
        # same for pooled pixels
        pix_labels = rng.integers(0, 2, size=20 * 36)
        pix_labels[:2] = [0, 1]
        raw_pix = np.concatenate([m.ravel() for m in maps.values()])
        new_pix = np.concatenate([m.ravel() for m in aligned.values()])
        assert auroc(new_pix, pix_labels) == auroc(raw_pix, pix_labels)

    def test_missing_class_rejected(self):
        maps = {"a": np.ones(2)}
        stats = [ClassStats(0, 0.0, 1.0, 0.3, 1, 2)]
        with pytest.raises(KeyError, match="class 5"):
            _oracle_align(maps, {"a": 5}, stats)

    def test_missing_label_rejected(self):
        maps = {"a": np.ones(2)}
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
        stats = _fit(maps)
        ids = {image_id: 0 for image_id in maps[0]}
        mm = _oracle_align(maps[0], ids, stats, variant="meanmax")
        ms = _oracle_align(maps[0], ids, stats, variant="meanstd")
        assert not np.array_equal(mm["c0_0"], ms["c0_0"])
        composite = [ClassStats(0, stats[0].u, stats[0].u + 3.0 * stats[0].sigma,
                                stats[0].sigma, stats[0].n_images, stats[0].n_pixels)]
        mm2 = _oracle_align(maps[0], ids, composite, variant="meanmax")
        for a, b in zip(ms.values(), mm2.values()):
            assert a.tobytes() == b.tobytes()


class TestStatsCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        maps = {0: _fitted_training_set(rng, 0, 1.0, 0.3, n=5),
                4: _fitted_training_set(rng, 4, 9.0, 2.0, n=5)}
        stats = _fit(maps)
        path = tmp_path / "stats.csv"
        write_stats_csv(path, stats)
        back = read_stats_csv(path)
        assert back == stats  # repr round-trip keeps floats exact

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_stats_csv(path)
