"""Binary tensor container ("ADT1") and dataset manifest I/O.

Every stage of the pipeline communicates through these two file types, so
the format is fixed bit-exactly: files written on any host are byte
identical given identical inputs (little-endian throughout).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

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
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_BY_CODE[code]).tobytes()
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
    dims_end = 6 + 4 * ndim
    if len(raw) < dims_end:
        raise TensorFormatError(f"{path}: truncated dims")
    shape = struct.unpack("<%dI" % ndim, raw[6:dims_end])
    if any(d == 0 for d in shape):
        raise TensorFormatError(f"{path}: zero dim in shape {shape}")
    dtype = _DTYPE_BY_CODE[code]
    count = int(np.prod(shape))
    expected = dims_end + count * dtype.itemsize
    if len(raw) != expected:
        raise TensorFormatError(
            f"{path}: payload length {len(raw) - dims_end} does not match "
            f"shape {shape} ({count} x {dtype.itemsize} bytes)"
        )
    arr = np.frombuffer(raw[dims_end:], dtype=dtype).reshape(shape)
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

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


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

    def validate(self) -> None:
        seen: set[str] = set()
        for e in self.images:
            if e.image_id in seen:
                raise ManifestError(f"duplicate image_id {e.image_id!r}")
            seen.add(e.image_id)
            if e.split not in VALID_SPLITS:
                raise ManifestError(f"{e.image_id}: invalid split {e.split!r}")
            if e.label not in VALID_LABELS:
                raise ManifestError(f"{e.image_id}: invalid label {e.label!r}")
            if e.split == "train" and e.label != "normal":
                raise ManifestError(
                    f"{e.image_id}: train split must contain only normal images"
                )
            if e.mask_path is not None and e.label != "anomalous":
                raise ManifestError(f"{e.image_id}: mask_path on a normal image")


def read_manifest(path) -> DatasetManifest:
    """Read and validate a JSON manifest. Referenced files are not opened:
    the stage that reads one fails on it if it is missing."""
    path = Path(path)
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "images" not in doc:
        raise ManifestError(f"{path}: expected an object with an 'images' list")
    images = []
    for rec in doc["images"]:
        unknown = set(rec) - {f.name for f in fields(ImageEntry)}
        if unknown:
            raise ManifestError(f"{path}: unknown manifest fields {sorted(unknown)}")
        try:
            images.append(ImageEntry(**rec))
        except TypeError as exc:
            raise ManifestError(f"{path}: bad image record {rec}: {exc}") from exc
    manifest = DatasetManifest(images=images, root=path.parent)
    manifest.validate()
    return manifest


def write_manifest(path, manifest: DatasetManifest) -> None:
    """Write a manifest to JSON; round-trips through read_manifest."""
    manifest.validate()
    doc = {"images": [e.to_dict() for e in manifest.images]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
