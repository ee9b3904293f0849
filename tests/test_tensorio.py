import numpy as np
import pytest

from scorealign.tensorio import (
    DatasetManifest,
    ImageEntry,
    ManifestError,
    TensorFormatError,
    read_manifest,
    read_tensor,
    write_manifest,
    write_tensor,
)


class TestTensorRoundTrip:
    def test_f64_round_trip_bitwise(self, tmp_path):
        arr = np.array([[0.0, 1.0], [2.0, 3.0]])
        path = tmp_path / "t.adt"
        write_tensor(path, arr)
        # 4 magic + 1 dtype + 1 ndim + 2*4 dims + 4*8 payload
        assert path.stat().st_size == 4 + 1 + 1 + 8 + 32
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert back.shape == (2, 2)
        assert np.array_equal(back, arr)

    def test_f32_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(3, 5, 2)).astype(np.float32)
        path = tmp_path / "t.adt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.tobytes() == arr.tobytes()

    def test_deterministic_bytes(self, tmp_path):
        arr = np.linspace(0, 1, 12).reshape(3, 4)
        write_tensor(tmp_path / "a.adt", arr)
        write_tensor(tmp_path / "b.adt", arr)
        assert (tmp_path / "a.adt").read_bytes() == (tmp_path / "b.adt").read_bytes()

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="non-finite"):
            write_tensor(tmp_path / "t.adt", np.array([np.nan]))
        with pytest.raises(TensorFormatError, match="non-finite"):
            write_tensor(tmp_path / "t.adt", np.array([np.inf, 1.0]))

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(TensorFormatError, match="dtype"):
            write_tensor(tmp_path / "t.adt", np.array([1, 2], dtype=np.int32))


class TestTensorReadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.adt"
        write_tensor(path, np.ones(3))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.adt"
        write_tensor(path, np.ones(4))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TensorFormatError, match="length"):
            read_tensor(path)

    def test_shape_payload_mismatch(self, tmp_path):
        # header claims 3 elements, payload holds 2
        path = tmp_path / "t.adt"
        write_tensor(path, np.array([1.0, 2.0]))
        raw = bytearray(path.read_bytes())
        raw[6] = 3  # first dim byte: 2 -> 3
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="length"):
            read_tensor(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "t.adt"
        write_tensor(path, np.array([1.0]))
        raw = path.read_bytes()[:10] + np.array([np.nan]).tobytes()
        path.write_bytes(raw)
        with pytest.raises(TensorFormatError, match="non-finite"):
            read_tensor(path)


def _manifest(entries):
    return DatasetManifest(images=entries)


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = _manifest([
            ImageEntry("a", "train", "normal", class_id=0, feature_path="f/a.adt"),
            ImageEntry("b", "test", "anomalous", class_id=1, mask_path="m/b.adt"),
        ])
        path = tmp_path / "manifest.json"
        write_manifest(path, m)
        back = read_manifest(path)
        assert len(back) == 2
        assert back.images == m.images

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, _manifest([]))
        assert len(read_manifest(path)) == 0

    def test_optional_class_id_absence_preserved(self, tmp_path):
        m = _manifest([ImageEntry("a", "test", "normal")])
        path = tmp_path / "manifest.json"
        write_manifest(path, m)
        back = read_manifest(path)
        assert back.images[0].class_id is None
        assert back.class_ids() == []

    def test_duplicate_id_rejected(self, tmp_path):
        m = _manifest([
            ImageEntry("a", "train", "normal"),
            ImageEntry("a", "test", "normal"),
        ])
        with pytest.raises(ManifestError, match="duplicate"):
            write_manifest(tmp_path / "m.json", m)

    def test_anomalous_train_rejected(self, tmp_path):
        m = _manifest([ImageEntry("a", "train", "anomalous")])
        with pytest.raises(ManifestError, match="train"):
            write_manifest(tmp_path / "m.json", m)

    def test_mask_on_normal_rejected(self):
        m = _manifest([ImageEntry("a", "test", "normal", mask_path="m.adt")])
        with pytest.raises(ManifestError, match="mask"):
            m.validate()

    def test_eager_passes_when_files_exist(self, tmp_path):
        write_tensor(tmp_path / "a.adt", np.ones(2))
        m = _manifest([ImageEntry("a", "train", "normal", feature_path="a.adt")])
        path = tmp_path / "manifest.json"
        write_manifest(path, m)
        back = read_manifest(path)
        feature = back.resolve(back.images[0].feature_path)
        assert feature == tmp_path / "a.adt"
        assert np.array_equal(read_tensor(feature), np.ones(2))

    def test_score_path_is_an_unknown_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"images": [{"image_id": "a", "split": "train", '
                        '"label": "normal", "score_path": "a.adt"}]}')
        with pytest.raises(ManifestError, match="unknown manifest fields.*score_path"):
            read_manifest(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"images": [{"image_id": "a", "split": "train", '
                        '"label": "normal", "surprise": 1}]}')
        with pytest.raises(ManifestError, match="unknown"):
            read_manifest(path)
