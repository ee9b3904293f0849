import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scorealign import net
from scorealign.align import (
    ClassStats,
    DegenerateScaleWarning,
    align_maps,
    class_scales,
    normalize_meanmax,
    scale_by_class,
)
from scorealign.heads import (
    STRUCTURES,
    HeadConfig,
    HeadModel,
    TrainConfig,
    build_head,
    load_checkpoint,
    predict_class,
    predict_stats,
    predicted_scale,
    save_checkpoint,
    standardize,
    train_classifier,
    train_regressor,
)

GRID = (8, 8)
DIM = 4


def _class_images(rng, center, spread, n, prefix):
    """Features around `center`, score maps = per-location distance to it.

    Map statistics then scale linearly with `spread`, mimicking the
    nearest-neighbor scorer's class-scale mismatch.
    """
    feats, maps = {}, {}
    for i in range(n):
        noise = rng.normal(size=(DIM, *GRID))
        f = center[:, None, None] + spread * noise
        feats[f"{prefix}{i:03d}"] = f.astype(np.float32)
        maps[f"{prefix}{i:03d}"] = np.linalg.norm(spread * noise, axis=0)
    return feats, maps


def _training_set(feats, per_image):
    """The float64 stack of `feats` in sorted-id order and the matching rows
    of `per_image` (score maps or class ids), as the CLI hands them over."""
    ids = sorted(feats)
    return np.stack([feats[i].astype(np.float64) for i in ids]), [per_image[i] for i in ids]


def _const_model(out_vals, in_channels=DIM, target="meanmax", class_labels=None):
    """A head whose network output is the constant `out_vals` (zero weights,
    fixed bias); used to pin predictions in unit tests. A classifier when
    `class_labels` is given, else a regressor."""
    out_dim = len(out_vals)
    cfg = HeadConfig(structure="1lin", dropout_rate=0.0, target=target)
    network = build_head(cfg, in_channels, out_dim, np.random.default_rng(0))
    final = network.layers[-1]
    final.w.value[...] = 0.0
    final.b.value[...] = out_vals
    return HeadModel(
        config=cfg, in_channels=in_channels, network=network, seed=0,
        target_offset=np.zeros(out_dim), target_scale=np.ones(out_dim),
        input_offset=np.zeros(in_channels), input_scale=np.ones(in_channels),
        class_labels=class_labels,
    )


class TestImageStats:
    def test_worked_example(self):
        """A regressor's targets are its images' own (mean, max) or (mean,
        std) pixel scores; one image's targets are their own mean."""
        feats = {"a": np.zeros((DIM, 2, 2), dtype=np.float32)}
        maps = {"a": np.array([[0.0, 2.0], [1.0, 3.0]])}

        def targets(target):
            cfg = HeadConfig(structure="1lin", target=target)
            return train_regressor(*_training_set(feats, maps), cfg,
                                   TrainConfig(iterations=1)).target_offset

        u, gamma = targets("meanmax")
        u2, sigma = targets("meanstd")
        assert u == u2 == 1.5
        assert gamma == 3.0
        assert sigma == pytest.approx(np.std([0, 1, 2, 3]), abs=1e-15)


class TestStandardize:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_image_reference_bitwise(self, data):
        shape = tuple(data.draw(st.integers(1, n)) for n in (12, 4, 5, 5))
        feats = data.draw(arrays(np.float32, shape, elements=st.floats(-1e3, 1e3, width=32)))
        rows = sorted(data.draw(st.sets(st.integers(0, shape[0] - 1), min_size=1)))
        # reference: each image cast on its own, its sums added in row order
        total = total_sq = None
        for row in rows:
            f = feats[row].astype(np.float64)
            s, sq = f.sum(axis=(1, 2)), (f**2).sum(axis=(1, 2))
            total = s if total is None else total + s
            total_sq = sq if total_sq is None else total_sq + sq
        count = len(rows) * shape[2] * shape[3]
        mean = total / count
        std = np.maximum(np.sqrt(np.maximum(total_sq / count - mean**2, 0.0)), 1e-8)

        x = feats.astype(np.float64)
        offset, scale = standardize(x, rows)
        assert offset.tobytes() == mean.tobytes()
        assert scale.tobytes() == std.tobytes()
        for row in range(shape[0]):
            ref = (feats[row].astype(np.float64) - mean[:, None, None]) / std[:, None, None]
            assert x[row].tobytes() == ref.tobytes()

    def test_shared_standardized_stack_trains_the_same_head(self):
        rng = np.random.default_rng(6)
        feats, maps = _class_images(rng, np.ones(DIM), 2.0, 10, "x")
        cfg, tc = HeadConfig(structure="1conv+2lin", hidden_dim=8), TrainConfig(iterations=20)
        own = train_regressor(*_training_set(feats, maps), cfg, tc)
        x, row_maps = _training_set(feats, maps)
        norm = standardize(x, range(len(x)))
        shared = [train_regressor(x, row_maps, cfg, tc, norm) for _ in range(2)]
        for model in shared:
            assert model.loss_trace == own.loss_trace
            assert model.input_offset.tobytes() == own.input_offset.tobytes()
            for pa, pb in zip(model.network.parameters(), own.network.parameters()):
                assert pa.value.tobytes() == pb.value.tobytes()


class TestBuildHead:
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_structure_shapes(self, name):
        n_conv, n_linear = STRUCTURES[name]
        cfg = HeadConfig(structure=name, hidden_dim=16)
        network = build_head(cfg, DIM, 2, np.random.default_rng(0))
        convs = [l for l in network.layers if isinstance(l, net.Conv3x3)]
        linears = [l for l in network.layers if isinstance(l, net.Linear)]
        assert len(convs) == n_conv
        assert len(linears) == n_linear
        out = network.forward(np.zeros((2, DIM, *GRID)))
        assert out.shape == (2, 2)

    def test_one_dropout_per_linear(self):
        cfg = HeadConfig(structure="3lin", hidden_dim=8)
        network = build_head(cfg, DIM, 2, np.random.default_rng(0))
        dropouts = [l for l in network.layers if isinstance(l, net.Dropout)]
        assert len(dropouts) == 3

    def test_first_dropout_precedes_pooling(self):
        cfg = HeadConfig(structure="1conv+2lin")
        network = build_head(cfg, DIM, 2, np.random.default_rng(0))
        types = [type(l) for l in network.layers]
        assert types.index(net.Dropout) < types.index(net.GlobalAvgPool)

    def test_relu_variant(self):
        cfg = HeadConfig(activation="relu")
        network = build_head(cfg, DIM, 2, np.random.default_rng(0))
        assert any(isinstance(l, net.ReLU) for l in network.layers)
        assert not any(isinstance(l, net.GELU) for l in network.layers)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="structure"):
            HeadConfig(structure="3conv+2lin").validate()
        with pytest.raises(ValueError):
            HeadConfig(activation="tanh").validate()
        with pytest.raises(ValueError):
            HeadConfig(target="median").validate()
        with pytest.raises(ValueError):
            HeadConfig(alpha=0.0).validate()
        for hidden_dim in (0, -1):
            with pytest.raises(ValueError, match="hidden_dim"):
                HeadConfig(structure="2lin", hidden_dim=hidden_dim).validate()


class TestRegressor:
    def test_single_class_recovers_class_mean(self):
        rng = np.random.default_rng(100)
        center = rng.normal(size=DIM) * 5
        feats, maps = _class_images(rng, center, 1.0, 20, "tr")
        held_feats, held_maps = _class_images(rng, center, 1.0, 10, "ho")
        u_c = float(np.mean([m.mean() for m in maps.values()]))
        cfg = HeadConfig(structure="2lin", hidden_dim=32)
        model = train_regressor(*_training_set(feats, maps), cfg,
                                TrainConfig(iterations=400, seed=0))
        rel_errs = [abs(predict_stats(model, f)[0] - u_c) / u_c
                    for f in held_feats.values()]
        assert float(np.median(rel_errs)) <= 0.10

    def test_two_classes_sixteen_fold_scale(self):
        rng = np.random.default_rng(101)
        c0 = np.full(DIM, 4.0)
        c1 = -np.full(DIM, 4.0)
        f0, m0 = _class_images(rng, c0, 0.25, 30, "a")
        f1, m1 = _class_images(rng, c1, 4.0, 30, "b")
        feats = {**f0, **f1}
        maps = {**m0, **m1}
        h0, _ = _class_images(rng, c0, 0.25, 8, "ha")
        h1, _ = _class_images(rng, c1, 4.0, 8, "hb")
        cfg = HeadConfig(structure="2lin", hidden_dim=64)
        model = train_regressor(*_training_set(feats, maps), cfg,
                                TrainConfig(iterations=800, seed=0))
        g0 = np.median([predict_stats(model, f)[1] for f in h0.values()])
        g1 = np.median([predict_stats(model, f)[1] for f in h1.values()])
        assert 8.0 <= g1 / g0 <= 32.0

    def test_run_without_tail_average_is_valid_model(self):
        # 3 iterations leave int(AVG_FRAC * 3) = 0 steps to average
        rng = np.random.default_rng(102)
        feats, maps = _class_images(rng, np.zeros(DIM), 1.0, 4, "x")
        cfg = HeadConfig(structure="1lin")
        model = train_regressor(*_training_set(feats, maps), cfg, TrainConfig(iterations=3))
        assert len(model.loss_trace) == 3
        u_hat, g_hat = predict_stats(model, next(iter(feats.values())))
        assert np.isfinite(u_hat) and np.isfinite(g_hat)

    @pytest.mark.parametrize("field", ["iterations", "batch_size"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_nonpositive_train_config_rejected(self, field, value):
        rng = np.random.default_rng(102)
        feats, maps = _class_images(rng, np.zeros(DIM), 1.0, 4, "x")
        with pytest.raises(ValueError, match=field):
            train_regressor(*_training_set(feats, maps), HeadConfig(structure="1lin"),
                            TrainConfig(**{field: value}))

    def test_training_is_bitwise_reproducible(self):
        rng = np.random.default_rng(103)
        feats, maps = _class_images(rng, np.zeros(DIM), 1.0, 8, "x")
        cfg = HeadConfig(structure="1conv+2lin", hidden_dim=8)
        tc = TrainConfig(iterations=30, seed=7)
        a = train_regressor(*_training_set(feats, maps), cfg, tc)
        b = train_regressor(*_training_set(feats, maps), cfg, tc)
        for pa, pb in zip(a.network.parameters(), b.network.parameters()):
            assert pa.value.tobytes() == pb.value.tobytes()
        assert a.loss_trace == b.loss_trace

    def test_prediction_is_deterministic(self):
        rng = np.random.default_rng(104)
        feats, maps = _class_images(rng, np.zeros(DIM), 1.0, 8, "x")
        model = train_regressor(*_training_set(feats, maps),
                                HeadConfig(dropout_rate=0.5, hidden_dim=8),
                                TrainConfig(iterations=20))
        f = next(iter(feats.values()))
        assert predict_stats(model, f) == predict_stats(model, f)

    def test_missing_score_map_rejected(self):
        rng = np.random.default_rng(105)
        feats, maps = _class_images(rng, np.zeros(DIM), 1.0, 4, "x")
        x, rows = _training_set(feats, maps)
        with pytest.raises(ValueError, match="3 score maps for 4 training images"):
            train_regressor(x, rows[:3], HeadConfig(), TrainConfig(iterations=1))

    def test_wrong_mode_rejected(self):
        model = _const_model([0.0, 1.0], class_labels=[0, 1])
        with pytest.raises(ValueError, match="regressor"):
            predict_stats(model, np.zeros((DIM, *GRID), dtype=np.float32))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="0 score maps for 0 training images"):
            train_regressor(np.empty((0, DIM, *GRID)), [], HeadConfig(), TrainConfig())


class TestClassifier:
    @staticmethod
    def _two_class_data(rng, n=40):
        c0, c1 = np.full(DIM, 5.0), np.full(DIM, -5.0)
        f0, _ = _class_images(rng, c0, 1.0, n // 2, "a")
        f1, _ = _class_images(rng, c1, 1.0, n // 2, "b")
        feats = {**f0, **f1}
        labels = {i: (0 if i.startswith("a") else 1) for i in feats}
        return feats, labels

    def test_separable_classes_high_holdout_accuracy(self):
        rng = np.random.default_rng(200)
        feats, labels = self._two_class_data(rng)
        cfg = HeadConfig(structure="2lin", hidden_dim=32)
        model = train_classifier(*_training_set(feats, labels), cfg, TrainConfig(iterations=300))
        assert model.holdout_accuracy == 1.0

    def test_shuffled_labels_give_chance_accuracy(self):
        rng = np.random.default_rng(201)
        c = np.zeros(DIM)
        feats, _ = _class_images(rng, c, 1.0, 48, "x")
        labels = {i: int(rng.integers(0, 4)) for i in sorted(feats)}
        while len(set(labels.values())) < 4:  # ensure all 4 classes occur
            labels = {i: int(rng.integers(0, 4)) for i in sorted(feats)}
        cfg = HeadConfig(structure="2lin", hidden_dim=16)
        model = train_classifier(*_training_set(feats, labels), cfg, TrainConfig(iterations=200))
        assert model.holdout_accuracy <= 0.6  # chance is 0.25

    def test_single_class_rejected(self):
        rng = np.random.default_rng(202)
        feats, _ = _class_images(rng, np.zeros(DIM), 1.0, 4, "x")
        labels = {i: 0 for i in feats}
        with pytest.raises(ValueError, match="2 classes"):
            train_classifier(*_training_set(feats, labels), HeadConfig(),
                             TrainConfig(iterations=1))

    def test_out_dim_must_match_class_count(self):
        rng = np.random.default_rng(203)
        feats, _ = _class_images(rng, np.zeros(DIM), 1.0, 9, "x")
        labels = {i: n % 3 for n, i in enumerate(sorted(feats))}
        model = train_classifier(*_training_set(feats, labels),
                                 HeadConfig(structure="2lin", hidden_dim=8),
                                 TrainConfig(iterations=1))
        out = model.network.forward(np.zeros((1, DIM, *GRID)))
        assert out.shape == (1, 3)

    def test_wrong_mode_rejected(self):
        model = _const_model([1.0, 3.0])
        with pytest.raises(ValueError, match="classifier"):
            predict_class(model, np.zeros((DIM, *GRID), dtype=np.float32))

    def test_non_contiguous_class_ids_preserved(self):
        rng = np.random.default_rng(204)
        feats, labels = self._two_class_data(rng, n=16)
        labels = {i: (7 if v == 0 else 11) for i, v in labels.items()}
        cfg = HeadConfig(structure="2lin", hidden_dim=16)
        model = train_classifier(*_training_set(feats, labels), cfg, TrainConfig(iterations=150))
        pred = predict_class(model, feats["a000"])
        assert pred in (7, 11)

    def test_tie_break_lowest_class_id(self):
        model = _const_model([0.5, 0.5, 0.5], class_labels=[2, 5, 9])
        assert predict_class(model, np.zeros((DIM, *GRID), dtype=np.float32)) == 2


def _align_one(values, scale_of):
    (out,) = align_maps({"a": values}, scale_of).values()
    return out


def _regressor_scale_of(model, features):
    return lambda image_id: predicted_scale(model, features)


def _classifier_scale_of(model, stats, features):
    return scale_by_class(class_scales(stats),
                          lambda image_id: predict_class(model, features))


class TestCalibrate:
    def test_identity_stats(self):
        m = _align_one(np.array([0.1, 0.7]), lambda _: (0.0, 1.0))
        assert np.array_equal(m, [0.1, 0.7])

    def test_worked_example(self):
        m = _align_one(np.array([0.2, 0.4, 0.6]), lambda _: (0.2, 0.6))
        assert np.allclose(m, [0.0, 0.5, 1.0])

    def test_regressor_calibration_matches_predicted_stats(self):
        model = _const_model([1.0, 3.0])
        f = np.zeros((DIM, *GRID), dtype=np.float32)
        out = _align_one(np.full(GRID, 2.0), _regressor_scale_of(model, f))
        assert np.allclose(out, (2.0 - 1.0) / (3.0 - 1.0))

    def test_meanstd_regressor_uses_sigma(self):
        model = _const_model([1.0, 0.5], target="meanstd")
        f = np.zeros((DIM, *GRID), dtype=np.float32)
        values = np.full(GRID, 2.5)
        out = _align_one(values, _regressor_scale_of(model, f))
        ref = normalize_meanmax(values, 1.0, 1.0 + 3.0 * 0.5)
        assert out.tobytes() == ref.tobytes()

    def test_negative_predicted_sigma_clamped(self):
        model = _const_model([1.0, -2.0], target="meanstd")
        f = np.zeros((DIM, *GRID), dtype=np.float32)
        with pytest.warns(DegenerateScaleWarning):
            _align_one(np.full(GRID, 2.0), _regressor_scale_of(model, f))

    def test_classifier_calibration_selects_class_stats(self):
        model = _const_model([0.0, 5.0], class_labels=[0, 1])
        stats = [ClassStats(0, 0.0, 1.0, 0.3, 1, 4),
                 ClassStats(1, 10.0, 20.0, 3.0, 1, 4)]
        f = np.zeros((DIM, *GRID), dtype=np.float32)
        out = _align_one(np.full(GRID, 15.0), _classifier_scale_of(model, stats, f))
        assert np.allclose(out, 0.5)  # (15-10)/(20-10): class-1 stats

    def test_classifier_missing_stats_rejected(self):
        model = _const_model([5.0, 0.0], class_labels=[3, 4])
        f = np.zeros((DIM, *GRID), dtype=np.float32)
        with pytest.raises(KeyError, match="class 3"):
            _align_one(np.ones(2), _classifier_scale_of(model, [], f))


class TestCheckpoint:
    def test_regressor_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(300)
        feats, maps = _class_images(rng, np.ones(DIM), 1.0, 8, "x")
        model = train_regressor(*_training_set(feats, maps), HeadConfig(hidden_dim=8),
                                TrainConfig(iterations=25, seed=3))
        save_checkpoint(model, tmp_path / "ckpt")
        back = load_checkpoint(tmp_path / "ckpt")
        f = next(iter(feats.values()))
        assert predict_stats(back, f) == predict_stats(model, f)
        assert back.loss_trace == model.loss_trace
        assert back.config == model.config

    def test_classifier_round_trip_keeps_labels(self, tmp_path):
        rng = np.random.default_rng(301)
        feats, labels = TestClassifier._two_class_data(rng, n=16)
        labels = {i: v + 5 for i, v in labels.items()}
        cfg = HeadConfig(structure="2lin", hidden_dim=8)
        model = train_classifier(*_training_set(feats, labels), cfg, TrainConfig(iterations=40))
        save_checkpoint(model, tmp_path / "ckpt")
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.class_labels == [5, 6]
        assert back.holdout_accuracy == model.holdout_accuracy
        f = feats["a000"]
        assert predict_class(back, f) == predict_class(model, f)
