from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scorealign.metrics import (
    MetricsReport,
    UndefinedMetricError,
    auroc,
    average_precision,
    evaluate,
    image_score,
    macro_average,
)
from scorealign.tensorio import DatasetManifest, ImageEntry, columns, write_csv


def auroc_pair_counting(scores, labels):
    """Independent O(n^2) oracle: count positive/negative pairs directly."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    diff = pos[:, None] - neg[None, :]
    wins = np.sum(diff > 0) + 0.5 * np.sum(diff == 0)
    return float(wins) / (len(pos) * len(neg))


def ap_brute_force(scores, labels):
    """Independent oracle: precision/recall at every distinct threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    thresholds = np.unique(s)[::-1]
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        kept = s >= t
        tp = int(np.sum(y[kept] == 1))
        recall = tp / n_pos
        precision = tp / int(np.sum(kept))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_crossing(self):
        # pairs: (.8>.1), (.8>.3), (.2>.1), (.2<.3) -> 3/4
        assert auroc([0.1, 0.3, 0.8, 0.2], [0, 0, 1, 1]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            auroc([np.nan, 0.2], [0, 1])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            # coarse quantization forces plenty of ties
            s = np.round(rng.normal(size=n), 1)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            assert auroc(s, y) == pytest.approx(auroc_pair_counting(s, y), abs=1e-12)


class TestAveragePrecision:
    def test_perfect_separation(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_all_positive(self):
        assert average_precision([0.3, 0.1, 0.9], [1, 1, 1]) == 1.0

    def test_worked_example(self):
        # thresholds .9/.8/.7: P=0, then P=1/2 (dR=1/2), then P=2/3 (dR=1/2)
        got = average_precision([0.9, 0.8, 0.7], [0, 1, 1])
        assert got == pytest.approx(0.25 + 1.0 / 3.0, abs=1e-15)

    def test_no_positive_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.1, 0.2], [0, 0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 120))
            s = np.round(rng.normal(size=n), 1)
            y = rng.integers(0, 2, size=n)
            if y.max() == 0:
                y[0] = 1
            assert average_precision(s, y) == pytest.approx(ap_brute_force(s, y), abs=1e-12)


@pytest.mark.parametrize("metric", [auroc, average_precision])
@pytest.mark.parametrize("labels", [[1, 2, 0], [1, -1, 0], [1, 0.5, 0]])
def test_labels_outside_zero_one_rejected(metric, labels):
    with pytest.raises(ValueError, match="0 or 1"):
        metric([0.9, 0.5, 0.1], labels)


@pytest.mark.parametrize("metric", [auroc, average_precision])
def test_inputs_are_left_unmodified(metric):
    """A float64 score array reaches the metric without a copy, so the sort
    must work on one of its own; the labels keep their order too."""
    rng = np.random.default_rng(7)
    scores = rng.normal(size=(4, 50))
    labels = rng.integers(0, 2, size=(4, 50))
    labels[0, :2] = 0, 1
    before = scores.copy(), labels.copy()
    metric(scores, labels)
    assert scores.tobytes() == before[0].tobytes()
    assert labels.tobytes() == before[1].tobytes()


@st.composite
def tied_levels(draw):
    """(level index per sample, labels, number of levels); fewer levels than samples force ties."""
    n = draw(st.integers(2, 80))
    n_levels = draw(st.integers(1, 40))
    idx = draw(st.lists(st.integers(0, n_levels - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(idx), np.array(y), n_levels


def distinct_sorted(n, dtype=np.float64):
    width = np.finfo(dtype).bits
    return st.lists(st.floats(-1e6, 1e6, width=width), min_size=n, max_size=n,
                    unique=True).map(lambda v: np.array(sorted(v), dtype=dtype))


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


class TestOracleProperties:
    @PROPERTY_SETTINGS
    @given(tied_levels(), st.data())
    def test_exactly_equal_to_oracles(self, case, data):
        idx, y, n_levels = case
        assume(y.max() == 1)
        s = data.draw(distinct_sorted(n_levels))[idx]
        assert average_precision(s, y) == ap_brute_force(s, y)
        if y.min() == 0:
            assert auroc(s, y) == auroc_pair_counting(s, y)

    @PROPERTY_SETTINGS
    @given(tied_levels(), st.data())
    def test_strictly_increasing_transform_bitwise(self, case, data):
        # the same ranks under two unrelated strictly increasing score sets
        idx, y, n_levels = case
        assume(y.max() == 1)
        a = data.draw(distinct_sorted(n_levels))[idx]
        b = data.draw(distinct_sorted(n_levels, np.float32))[idx]
        assert average_precision(a, y) == average_precision(b, y)
        if y.min() == 0:
            assert auroc(a, y) == auroc(b, y)


class TestRankInvariance:
    def test_strictly_increasing_transform_bitwise(self):
        rng = np.random.default_rng(5)
        s = np.round(rng.normal(size=200), 1)
        y = rng.integers(0, 2, size=200)
        y[0], y[1] = 0, 1
        for f in (lambda v: 3.0 * v + 7.0, np.exp, lambda v: v**3):
            assert auroc(f(s), y) == auroc(s, y)
            assert average_precision(f(s), y) == average_precision(s, y)


class TestImageScore:
    def test_small_map_top_one(self):
        assert image_score(np.array([0.9, 0.5, 0.1, 0.3]), 0.01) == 0.9

    def test_top_two_of_two_hundred(self):
        v = np.full(200, 0.1)
        v[7], v[123] = 0.8, 0.6
        assert image_score(v, 0.01) == pytest.approx(0.7, abs=1e-15)

    def test_full_fraction_is_mean(self):
        v = np.arange(10, dtype=np.float64)
        assert image_score(v, 1.0) == pytest.approx(np.mean(v), abs=1e-15)

    def test_max_mode(self):
        assert image_score(np.array([[0.2, 0.9], [0.3, 0.1]]), "max") == 0.9


def _toy_manifest():
    entries = [ImageEntry(f"tr{i}", "train", "normal", class_id=i % 2) for i in range(4)]
    # class 0 scores low, class 1 scores high; anomalies only slightly higher
    # within each class, so mixed pooling is confused but per-class is clean
    for cid in (0, 1):
        for i in range(4):
            entries.append(ImageEntry(f"n{cid}_{i}", "test", "normal", class_id=cid))
        for i in range(4):
            entries.append(
                ImageEntry(f"a{cid}_{i}", "test", "anomalous", class_id=cid,
                           mask_path=f"a{cid}_{i}.adt")
            )
    return DatasetManifest(images=entries)


def _toy_maps():
    maps, masks = {}, {}
    for cid, base in ((0, 0.0), (1, 10.0)):
        for i in range(4):
            maps[f"tr{cid * 2}"] = np.zeros((2, 2))
            maps[f"tr{cid * 2 + 1}"] = np.zeros((2, 2))
            maps[f"n{cid}_{i}"] = np.full((2, 2), base + 0.1 * i)
            m = np.full((2, 2), base + 0.1 * i)
            m[0, 0] = base + 1.0 + 0.1 * i
            maps[f"a{cid}_{i}"] = m
            masks[f"a{cid}_{i}"] = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    return maps, masks


class TestEvaluate:
    def test_mixed_confused_macro_clean(self):
        man = _toy_manifest()
        maps, masks = _toy_maps()
        reports = evaluate(man, maps, masks, top_fraction="max")
        by_scope = {r.scope: r for r in reports}
        assert set(by_scope) == {"mixed", "class:0", "class:1", "macro"}
        assert by_scope["class:0"].i_auroc == 1.0
        assert by_scope["class:1"].i_auroc == 1.0
        assert by_scope["macro"].i_auroc == 1.0
        # class-1 normals outscore class-0 anomalies, so mixed is degraded
        assert by_scope["mixed"].i_auroc < 0.8

    def test_pixel_pool_matches_direct_call(self):
        man = _toy_manifest()
        maps, masks = _toy_maps()
        reports = evaluate(man, maps, masks, top_fraction="max")
        mixed = next(r for r in reports if r.scope == "mixed")
        scores, labels = [], []
        for e in man.split("test"):
            scores.append(maps[e.image_id].ravel())
            if e.image_id in masks:
                labels.append((masks[e.image_id].ravel() > 0).astype(int))
            else:
                labels.append(np.zeros(4, dtype=int))
        assert mixed.p_auroc == auroc(np.concatenate(scores), np.concatenate(labels))
        assert mixed.n_pixels == 16 * 4

    def test_one_sort_per_pool_matches_the_public_metrics(self):
        """Each pool's AUROC and AP come from one sort of its own scores,
        equal to auroc and average_precision; the caller's maps are left alone."""
        man = _toy_manifest()
        maps, masks = _toy_maps()
        before = {k: v.copy() for k, v in maps.items()}
        test = man.split("test")
        y = [int(e.label == "anomalous") for e in test]
        pixels = np.concatenate([maps[e.image_id].ravel() for e in test])
        pixel_y = np.concatenate([masks[e.image_id].ravel() if e.image_id in masks
                                  else np.zeros(4) for e in test])
        for top_fraction in ("max", 0.5):
            mixed = evaluate(man, maps, masks, top_fraction=top_fraction)[0]
            scores = [image_score(maps[e.image_id], top_fraction) for e in test]
            assert (mixed.i_auroc, mixed.i_ap) == (auroc(scores, y), average_precision(scores, y))
            assert (mixed.p_auroc, mixed.p_ap) == (auroc(pixels, pixel_y),
                                                   average_precision(pixels, pixel_y))
        assert all(maps[k].tobytes() == v.tobytes() for k, v in before.items())

    def test_unlabeled_manifest_mixed_only(self):
        entries = [
            ImageEntry("n0", "test", "normal"),
            ImageEntry("a0", "test", "anomalous"),
        ]
        man = DatasetManifest(images=entries)
        maps = {"n0": np.zeros((2, 2)), "a0": np.ones((2, 2))}
        reports = evaluate(man, maps)
        assert [r.scope for r in reports] == ["mixed"]
        # no masks at all: image metrics defined, pixel metrics absent
        assert reports[0].i_auroc == 1.0
        assert reports[0].p_auroc is None

    def test_mask_shape_mismatch_rejected(self):
        man = _toy_manifest()
        maps, masks = _toy_maps()
        masks["a0_0"] = np.ones((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            evaluate(man, maps, masks)

    def test_no_test_images_undefined(self):
        man = DatasetManifest(images=[ImageEntry("t", "train", "normal")])
        with pytest.raises(UndefinedMetricError):
            evaluate(man, {"t": np.ones((2, 2))})

    def test_macro_average_values(self):
        a = MetricsReport("class:0", 1.0, 1.0, 0.5, 0.5, 4, 16)
        b = MetricsReport("class:1", 0.5, 0.7, None, None, 4, 16)
        m = macro_average([a, b])
        assert m.i_auroc == 0.75
        assert m.i_ap == pytest.approx(0.85)
        assert m.p_auroc is None
        assert m.n_images == 8

    def test_csv_round_trip_precision(self, tmp_path):
        man = _toy_manifest()
        maps, masks = _toy_maps()
        reports = evaluate(man, maps, masks)
        path = tmp_path / "r.csv"
        write_csv(path, columns(MetricsReport), map(astuple, reports))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "scope,i_auroc,i_ap,p_auroc,p_ap,n_images,n_pixels"
        row = lines[1].split(",")
        # repr round-trips float64 exactly
        assert float(row[1]) == reports[0].i_auroc
