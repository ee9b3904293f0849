"""Binary tensor container ("ADT1"), dataset manifest, and the CSV/JSON codec.

Every stage of the pipeline communicates through these files, so their formats
are fixed here bit-exactly: files written on any host are byte identical given
identical inputs (tensors are little-endian throughout).
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

MAGIC = b"ADT1"

_DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_BY_DTYPE = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class TensorFormatError(ValueError):
    """Malformed tensor file or invalid tensor contents."""


class ManifestError(ValueError):
    """Manifest violates its schema or invariants."""


def write_tensor(path, arr: np.ndarray) -> None:
    """Write a float32/float64 array to `path` in the ADT1 container format.

    Layout: 4-byte magic "ADT1", 1-byte dtype code (0=f32, 1=f64), 1-byte
    ndim, ndim uint32 little-endian dims, then the elements little-endian
    row-major.
    """
    arr = np.asarray(arr)
    if arr.dtype not in _CODE_BY_DTYPE:
        raise TensorFormatError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    if arr.ndim < 1 or arr.ndim > 255:
        raise TensorFormatError(f"ndim must be in [1, 255], got {arr.ndim}")
    if any(d <= 0 for d in arr.shape):
        raise TensorFormatError(f"all dims must be positive, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise TensorFormatError("tensor contains non-finite elements")
    code = _CODE_BY_DTYPE[arr.dtype]
    header = MAGIC + bytes([code, arr.ndim]) + struct.pack("<%dI" % arr.ndim, *arr.shape)
    # written from the (contiguous little-endian) array's own buffer, not a bytes copy
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_BY_CODE[code])
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def read_tensor(path) -> np.ndarray:
    """Read an ADT1 tensor file, verifying magic, shape, and finiteness."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 6:
        raise TensorFormatError(f"{path}: truncated header")
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {raw[:4]!r}")
    code, ndim = raw[4], raw[5]
    if code not in _DTYPE_BY_CODE:
        raise TensorFormatError(f"{path}: unknown dtype code {code}")
    if ndim == 0:
        raise TensorFormatError(f"{path}: ndim must be in [1, 255], got 0")
    dims_end = 6 + 4 * ndim
    if len(raw) < dims_end:
        raise TensorFormatError(f"{path}: truncated dims")
    shape = struct.unpack("<%dI" % ndim, raw[6:dims_end])
    if any(d == 0 for d in shape):
        raise TensorFormatError(f"{path}: zero dim in shape {shape}")
    dtype = _DTYPE_BY_CODE[code]
    count = math.prod(shape)
    expected = dims_end + count * dtype.itemsize
    if len(raw) != expected:
        raise TensorFormatError(
            f"{path}: payload length {len(raw) - dims_end} does not match "
            f"shape {shape} ({count} x {dtype.itemsize} bytes)"
        )
    # a view of the bytes read: slicing them first would copy the payload
    arr = np.frombuffer(raw, dtype=dtype, offset=dims_end).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise TensorFormatError(f"{path}: non-finite element in payload")
    # native byte order, writable copy
    return arr.astype(dtype.newbyteorder("="), copy=True)


VALID_SPLITS = ("train", "test")
VALID_LABELS = ("normal", "anomalous")


@dataclass
class ImageEntry:
    """One image record of a dataset manifest."""

    image_id: str
    split: str
    label: str
    class_id: Optional[int] = None
    feature_path: Optional[str] = None
    mask_path: Optional[str] = None


@dataclass
class DatasetManifest:
    """Validated image inventory; file paths are relative to `root`."""

    images: list[ImageEntry] = field(default_factory=list)
    root: Path = field(default_factory=Path)

    def __len__(self) -> int:
        return len(self.images)

    def split(self, name: str) -> list[ImageEntry]:
        return [e for e in self.images if e.split == name]

    def class_ids(self) -> list[int]:
        """Sorted distinct class ids, empty if the manifest is unlabeled."""
        return sorted({e.class_id for e in self.images if e.class_id is not None})

    def resolve(self, rel_path: str) -> Path:
        return self.root / rel_path

    def validate(self, where="manifest") -> None:
        """Raise ManifestError naming `where` and the image on an invalid record."""
        seen: set[str] = set()
        for e in self.images:
            # an id names its score map file, <image_id>.adt inside a stage's --out
            if e.image_id in ("", ".", "..") or any(c in e.image_id for c in "/\0"):
                raise ManifestError(f"{where}: image_id {e.image_id!r} is not a file name")
            if e.image_id in seen:
                raise ManifestError(f"{where}: duplicate image_id {e.image_id!r}")
            seen.add(e.image_id)
            if e.split not in VALID_SPLITS:
                raise ManifestError(f"{where}: {e.image_id}: invalid split {e.split!r}")
            if e.label not in VALID_LABELS:
                raise ManifestError(f"{where}: {e.image_id}: invalid label {e.label!r}")
            if e.split == "train" and e.label != "normal":
                raise ManifestError(f"{where}: {e.image_id}: train split must contain "
                                    "only normal images")
            if e.mask_path is not None and e.label != "anomalous":
                raise ManifestError(f"{where}: {e.image_id}: mask_path on a normal image")


def read_manifest(path) -> DatasetManifest:
    """Read and validate a JSON manifest. Referenced files are not opened:
    the stage that reads one fails on it if it is missing."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), list):
        raise ManifestError(f"{path}: expected an object with an 'images' list")
    for i, rec in enumerate(doc["images"]):
        check_fields(f"{path}: images[{i}]", rec, ImageEntry, ManifestError)
    manifest = DatasetManifest([ImageEntry(**rec) for rec in doc["images"]], path.parent)
    manifest.validate(path)
    return manifest


def write_manifest(path, manifest: DatasetManifest) -> None:
    """Write a manifest to JSON without its None fields; read_manifest validates it."""
    images = [{k: v for k, v in asdict(e).items() if v is not None} for e in manifest.images]
    write_json(path, {"images": images})


def read_json(path):
    return json.loads(Path(path).read_text())


def write_json(path, doc) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# a field's type -> the name and the types of the JSON values it takes
_JSON_KINDS = {str: ("a string", str), int: ("an integer", int), float: ("a number", (int, float)),
               list: ("a list", list)}


def check_json(where: str, key: str, value, kind, error=ValueError) -> None:
    """Raise `error` naming `where` and `key` unless the JSON value is of the field
    type `kind`: str, int, float (an integer or not, finite as a float64), list[k] of
    any length (a bad entry is named key[i]), or a dataclass (an object of its
    fields, check_fields)."""
    origin = typing.get_origin(kind) or kind  # list[k] -> list
    if origin not in _JSON_KINDS:  # a dataclass
        return check_fields(f"{where}: {key}", value, kind, error)
    name, types = _JSON_KINDS[origin]
    if not isinstance(value, types) or isinstance(value, bool):
        raise error(f"{where}: {key} must be {name}, got {json.dumps(value)}")
    # NaN, ±Infinity and an integer beyond float64's range all fail this comparison
    if origin is float and not abs(value) <= sys.float_info.max:
        raise error(f"{where}: {key} must be finite, got {json.dumps(value)}")
    for i, entry in enumerate(value if types is list else ()):
        check_json(where, f"{key}[{i}]", entry, typing.get_args(kind)[0], error)


@functools.cache
def _json_fields(record_type) -> dict:
    """name -> (type, may be null, may be absent) of each field of the dataclass
    record_type: an Optional[k] field is of type k and may be null, and one whose
    default is None may be absent. Cached, as every manifest record needs it."""
    out = {}
    for f in fields(record_type):
        kind = typing.get_type_hints(record_type)[f.name]
        nullable = typing.get_origin(kind) is typing.Union
        out[f.name] = (typing.get_args(kind)[0] if nullable else kind, nullable, f.default is None)
    return out


def check_fields(where: str, doc, record_type, error=ValueError, partial=False) -> None:
    """Raise `error` naming `where` unless the JSON value doc is an object of the
    dataclass record_type's fields, each of the type its annotation names
    (check_json). An Optional field may be null. A field may be absent if its
    default is None, and any field if partial."""
    name, types = record_type.__name__, _json_fields(record_type)
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object of {name} fields")
    unknown = sorted(doc.keys() - types.keys())
    if unknown:
        raise error(f"{where}: unknown {name} keys {unknown}")
    for key, (kind, nullable, absent_ok) in types.items():
        if key not in doc and not (partial or absent_ok):
            raise error(f"{where}: {key} is missing")
        if key in doc and not (nullable and doc[key] is None):
            check_json(where, key, doc[key], kind, error)


def columns(record_type) -> list[str]:
    """The header of a table of dataclass records: its field names."""
    return [f.name for f in fields(record_type)]


def csv_row(values: Iterable) -> str:
    """One CSV line without its newline. None is an empty cell, and a float
    (numpy's too) the repr of the Python float, so it reads back exactly."""
    return ",".join("" if v is None
                    else repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in values)


def write_csv(path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("".join(csv_row(r) + "\n" for r in [header, *rows]))


def read_csv(path, header: Sequence[str], parse: Callable = list) -> list:
    """parse(cells) of every line after `header`. A line with the wrong cell count,
    or one parse raises ValueError on, is a ValueError naming the file and line."""
    lines = Path(path).read_text().splitlines() or [""]
    if lines[0] != csv_row(header):
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for n, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells, expected {len(header)}")
            rows.append(parse(cells))
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return rows
