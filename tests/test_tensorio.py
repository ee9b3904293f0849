import ast
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scorealign
from scorealign.tensorio import (
    DatasetManifest,
    ImageEntry,
    ManifestError,
    TensorFormatError,
    csv_row,
    read_csv,
    read_json,
    read_manifest,
    read_tensor,
    write_csv,
    write_json,
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

    def test_strided_array_is_written_row_major(self, tmp_path):
        arr = np.arange(24.0).reshape(4, 6)[:, ::2].T
        write_tensor(tmp_path / "t.adt", arr)
        header = b"ADT1" + bytes([1, 2]) + struct.pack("<2I", 3, 4)
        assert (tmp_path / "t.adt").read_bytes() == header + arr.copy().tobytes()

    def test_contiguous_payload_is_written_without_a_copy(self, tmp_path):
        arr = np.ones((256, 1024), dtype=np.float32)
        tracemalloc.start()
        try:
            write_tensor(tmp_path / "t.adt", arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the finiteness check's bool array is a quarter of the payload; a bytes copy is all of it
        assert peak < arr.nbytes / 2
        assert read_tensor(tmp_path / "t.adt").tobytes() == arr.tobytes()

    def test_read_holds_the_bytes_read_and_the_array(self, tmp_path):
        arr = np.ones((256, 1024), dtype=np.float32)
        write_tensor(tmp_path / "t.adt", arr)
        tracemalloc.start()
        try:
            back = read_tensor(tmp_path / "t.adt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes and the returned copy; a sliced payload would be a third copy
        assert peak <= 2.2 * arr.nbytes
        assert back.tobytes() == arr.tobytes()

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="non-finite"):
            write_tensor(tmp_path / "t.adt", np.array([np.nan]))
        with pytest.raises(TensorFormatError, match="non-finite"):
            write_tensor(tmp_path / "t.adt", np.array([np.inf, 1.0]))

    @pytest.mark.parametrize("arr,match", [
        (np.float64(1.0), "ndim"),
        (np.ones((2, 0)), "positive"),
    ], ids=["0-d", "zero-size"])
    def test_unwritable_shape_rejected(self, tmp_path, arr, match):
        with pytest.raises(TensorFormatError, match=match):
            write_tensor(tmp_path / "t.adt", arr)
        assert not (tmp_path / "t.adt").exists()

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

    # a valid file holds 4 magic + 1 dtype + 1 ndim + 4 dim bytes, then 4 * 8 payload bytes
    @pytest.mark.parametrize("edit,match", [
        (lambda raw: raw[:5], "truncated header"),
        (lambda raw: raw[:8], "truncated dims"),
        (lambda raw: raw[:6] + bytes(4) + raw[10:], r"zero dim in shape \(0,\)"),
        # one float64 behind a 0-d header: write_tensor refuses that shape
        (lambda raw: raw[:5] + bytes([0]) + raw[10:18], r"ndim must be in \[1, 255\], got 0$"),
        # 65536**4 elements wrap around to 0 in int64, which an empty payload would match
        (lambda raw: raw[:5] + bytes([4]) + struct.pack("<4I", *[65536] * 4),
         r"payload length 0 does not match shape \(65536, 65536, 65536, 65536\)"),
    ], ids=["header", "dims", "zero-dim", "ndim-0", "count-overflow"])
    def test_malformed_header(self, tmp_path, edit, match):
        path = tmp_path / "t.adt"
        write_tensor(path, np.ones(4))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(TensorFormatError, match=match) as exc:
            read_tensor(path)
        assert str(exc.value).startswith(f"{path}: ")

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

    # write_manifest does not validate; read_manifest, where a manifest enters, does
    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(path, _manifest([
            ImageEntry("a", "train", "normal"),
            ImageEntry("a", "test", "normal"),
        ]))
        with pytest.raises(ManifestError, match="m.json: duplicate image_id 'a'"):
            read_manifest(path)

    def test_anomalous_train_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(path, _manifest([ImageEntry("a", "train", "anomalous")]))
        with pytest.raises(ManifestError, match="m.json: a: train split must contain"):
            read_manifest(path)

    @pytest.mark.parametrize("split,label,match", [
        ("val", "normal", "a: invalid split 'val'"),
        ("test", "odd", "a: invalid label 'odd'"),
    ], ids=["split", "label"])
    def test_unknown_split_or_label_rejected(self, tmp_path, split, label, match):
        path = tmp_path / "m.json"
        write_json(path, {"images": [{"image_id": "a", "split": split, "label": label}]})
        with pytest.raises(ManifestError, match=match):
            read_manifest(path)

    @pytest.mark.parametrize("image_id", ["", ".", "..", "../escaped", "a/b", "/abs", "a\x00b"])
    def test_image_id_that_is_no_file_name_rejected(self, tmp_path, image_id):
        """A score map is written as <image_id>.adt, so an id must be one file name in --out."""
        path = tmp_path / "m.json"
        write_json(path, {"images": [{"image_id": image_id, "split": "test", "label": "normal"}]})
        with pytest.raises(ManifestError) as info:
            read_manifest(path)
        assert str(info.value) == f"{path}: image_id {image_id!r} is not a file name"

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
        with pytest.raises(ManifestError,
                           match=r"m\.json: images\[0\]: unknown ImageEntry keys \['score_path'\]$"):
            read_manifest(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"images": [{"image_id": "a", "split": "train", '
                        '"label": "normal", "surprise": 1}]}')
        with pytest.raises(ManifestError, match="unknown"):
            read_manifest(path)


class TestTextCodec:
    def test_cells(self):
        row = csv_row(["a", 3, np.int64(4), 0.1, np.float64(1 / 3), np.float32(0.1), None])
        assert row == "a,3,4,0.1,0.3333333333333333,0.10000000149011612,"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("name", "x"), [("a", np.float64(0.1)), ("b", None)])
        assert path.read_text() == "name,x\na,0.1\nb,\n"
        assert read_csv(path, ("name", "x")) == [["a", "0.1"], ["b", ""]]

    @pytest.mark.parametrize("text,match", [
        ("", "header ''"),
        ("name,y\n", "header 'name,y'"),
        ("name,x\na,1\nb\n", r"t\.csv:3: 1 cells, expected 2"),
        ("name,x\na,1\n\n", r"t\.csv:3: 1 cells, expected 2"),
    ], ids=["empty", "other-header", "short-row", "blank-line"])
    def test_malformed_csv_rejected(self, tmp_path, text, match):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_csv(path, ("name", "x"))

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,x\na,1\nb,two\n")
        with pytest.raises(ValueError, match=r"t\.csv:3: could not convert"):
            read_csv(path, ("name", "x"), lambda cells: float(cells[1]))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"b": [1, 2.5], "a": None})
        assert path.read_text() == '{\n  "b": [\n    1,\n    2.5\n  ],\n  "a": null\n}\n'
        assert read_json(path) == {"b": [1, 2.5], "a": None}

    def test_text_files_are_written_only_here(self):
        """Outside tensorio no module calls json.dump or writes a file, so every
        file format is decided in one place."""
        offenders = []
        for path in sorted(Path(scorealign.__file__).parent.glob("*.py")):
            if path.name == "tensorio.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                bare = isinstance(func, ast.Name)
                name = func.id if bare else getattr(func, "attr", "")
                where = f"{path.name}:{node.lineno} {ast.unparse(func)}"
                if name == "dump" and (bare or ast.unparse(func.value) == "json"):
                    offenders.append(where)
                elif name in ("write_text", "write_bytes"):
                    offenders.append(where)
                elif name == "open":
                    # open(path, mode, ...) or path.open(mode, ...); read-only
                    # only when the mode is a literal of r, b and t
                    modes = node.args[1:2] if bare else node.args[:1]
                    modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
                    if not all(isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")
                               for m in modes):
                        offenders.append(where)
        assert offenders == []
