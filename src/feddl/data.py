"""Dataset loading, synthetic blobs, normalisation, and client partitioning.

Data matrices are ``m x n`` with columns as points.  Supported sources:

* ``idx`` — the classic big-endian image/label binary pair (magic
  0x00000803 for images, 0x00000801 for labels); pixels are scaled to
  ``[0, 1]`` and each image flattened row-major into one column;
* ``csv`` — one point per row, numeric feature columns, optional label
  column, read by the package's one CSV reader (``matrixio.read_csv``);
* ``blobs`` — isotropic Gaussian clusters at deterministically placed
  centres.

Partition modes:

* ``iid`` — a seeded permutation split into near-equal shards;
* ``noniid_one_class`` — one class per client (requires P == #classes);
* ``noniid_two_class`` — two consecutive classes (in sorted label order)
  per client (requires 2P == #classes).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError, overflow_aborts
from .federation import ClientShard
from .matrixio import check_finite_rows, read_csv
from .privacy import stream_rng

__all__ = [
    "DatasetSpec",
    "PartitionMode",
    "PartitionSpec",
    "load_idx",
    "load_csv_dataset",
    "generate_blobs",
    "resolve_data_path",
    "load_dataset",
    "normalize",
    "subsample",
    "partition",
]

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


class PartitionMode(str, Enum):
    IID = "iid"
    NONIID_ONE_CLASS = "noniid_one_class"
    NONIID_TWO_CLASS = "noniid_two_class"


@dataclass(frozen=True)
class PartitionSpec:
    """How to split the dataset across simulated clients."""

    n_clients: int = 10
    mode: PartitionMode = PartitionMode.IID
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", PartitionMode(self.mode))
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")


@dataclass(frozen=True)
class BlobSpec:
    """Synthetic isotropic Gaussian clusters.

    The ``n_blobs`` centres are placed deterministically on a circle in
    the first two feature dimensions so that adjacent centres sit
    ``separation`` apart (on a line for 1-D).
    """

    n_blobs: int = 3
    points_per_blob: int = 100
    std: float = 1.0
    separation: float = 10.0
    dim: int = 2

    def __post_init__(self) -> None:
        for name in ("n_blobs", "points_per_blob", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (self.std >= 0 and np.isfinite(self.std)):
            raise ValueError(f"blob std must be finite and >= 0, got {self.std!r}")
        if not np.isfinite(self.separation):
            raise ValueError(f"blob separation must be finite, got {self.separation!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Where the data comes from and how it is pre-processed."""

    source: str = "blobs"  # "idx" | "csv" | "blobs"
    images_path: str = ""
    labels_path: str = ""
    csv_path: str = ""
    label_column: str = "label"
    blobs: BlobSpec = field(default_factory=BlobSpec)
    normalize: str = "none"  # "none" | "minmax01" | "zscore"
    subsample: int = 0  # 0 = keep everything
    seed: int = 0

    def __post_init__(self) -> None:
        if self.source not in ("idx", "csv", "blobs"):
            raise ValueError(f"unknown dataset source {self.source!r}")
        if self.normalize not in ("none", "minmax01", "zscore"):
            raise ValueError(f"unknown normalisation {self.normalize!r}")
        if self.subsample < 0:
            raise ValueError(f"subsample must be >= 0, got {self.subsample}")
        if self.source == "idx" and not (self.images_path and self.labels_path):
            raise ValueError("idx source needs images_path and labels_path")
        if self.source == "csv" and not self.csv_path:
            raise ValueError("csv source needs csv_path")


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    offset = f.tell()
    buf = f.read(count)
    if len(buf) != count:
        raise DataError(
            f"{path}: truncated while reading {what} at byte {offset} "
            f"(wanted {count} bytes, got {len(buf)})"
        )
    return buf


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an images/labels IDX pair.

    Returns ``(X, labels)`` with ``X`` of shape ``(rows*cols, count)``
    holding pixel values in ``[0, 1]``.  Malformed files are rejected
    with the byte offset of the problem.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    try:
        with open(images_path, "rb") as f:
            magic, count, rows, cols = struct.unpack(
                ">iiii", _read_exact(f, 16, images_path, "image header")
            )
            if magic != _IDX_IMAGES_MAGIC:
                raise DataError(
                    f"{images_path}: bad image magic 0x{magic:08x} at byte 0 "
                    f"(expected 0x{_IDX_IMAGES_MAGIC:08x})"
                )
            if count < 0 or rows <= 0 or cols <= 0:
                raise DataError(
                    f"{images_path}: implausible dimensions count={count} rows={rows} "
                    f"cols={cols} in header"
                )
            raw = _read_exact(f, count * rows * cols, images_path, f"{count} images")
            if f.read(1):
                raise DataError(f"{images_path}: trailing bytes after byte {f.tell() - 1}")
        with open(labels_path, "rb") as f:
            magic, lcount = struct.unpack(
                ">ii", _read_exact(f, 8, labels_path, "label header")
            )
            if magic != _IDX_LABELS_MAGIC:
                raise DataError(
                    f"{labels_path}: bad label magic 0x{magic:08x} at byte 0 "
                    f"(expected 0x{_IDX_LABELS_MAGIC:08x})"
                )
            lraw = _read_exact(f, lcount, labels_path, f"{lcount} labels")
            if f.read(1):
                raise DataError(f"{labels_path}: trailing bytes after byte {f.tell() - 1}")
    except OSError as exc:
        raise DataError(f"cannot read IDX data: {exc}") from exc
    if lcount != count:
        raise DataError(
            f"image/label count mismatch: {images_path} has {count} images but "
            f"{labels_path} has {lcount} labels"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    X = pixels.reshape(count, rows * cols).T
    labels = np.frombuffer(lraw, dtype=np.uint8).astype(np.int64)
    return X, labels


def load_csv_dataset(path, label_column: str = "label") -> tuple[np.ndarray, np.ndarray | None]:
    """Load a CSV with one point per row and a header line.

    The package's one CSV reader, ``matrixio.read_csv``, parses it and
    applies its row and label rules: the ``label_column`` (if present)
    becomes the label vector, and all other columns are the features,
    which must also be finite.  Returns ``(X, labels)`` with one column of
    ``X`` per point.
    """
    path = str(path)
    _, feats, labels = read_csv(path, label_column)
    check_finite_rows(path, feats, "feature")
    return feats.T, labels


def _blob_centers(spec: BlobSpec) -> np.ndarray:
    k, d = spec.n_blobs, spec.dim
    centers = np.zeros((k, d))
    if k == 1:
        return centers
    if d == 1:
        centers[:, 0] = spec.separation * np.arange(k)
        return centers
    radius = spec.separation / (2.0 * np.sin(np.pi / k)) if k > 2 else spec.separation / 2.0
    angles = 2.0 * np.pi * np.arange(k) / k
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def generate_blobs(spec: BlobSpec, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sample isotropic Gaussian blobs; returns ``(X, labels)``.  Points
    that overflow float64 (a huge ``std``) raise ``NumericalAbort``."""
    centers = _blob_centers(spec)
    rng = stream_rng(seed, "blobs")
    cols, labels = [], []
    for j in range(spec.n_blobs):
        with overflow_aborts(f"blob {j}: points overflow float64"):
            pts = centers[j][:, None] + spec.std * rng.normal(
                size=(spec.dim, spec.points_per_blob)
            )
        cols.append(pts)
        labels.append(np.full(spec.points_per_blob, j, dtype=np.int64))
    return np.hstack(cols), np.concatenate(labels)


def normalize(X: np.ndarray, mode: str) -> np.ndarray:
    """Per-feature normalisation; constant features map to zero."""
    if mode == "none":
        return X
    X = np.asarray(X, dtype=np.float64)
    if mode == "minmax01":
        lo, hi = X.min(axis=1, keepdims=True), X.max(axis=1, keepdims=True)
        span = hi - lo
        return np.where(span > 0, (X - lo) / np.where(span == 0, 1.0, span), 0.0)
    if mode == "zscore":
        mu = X.mean(axis=1, keepdims=True)
        sd = X.std(axis=1, keepdims=True)
        return np.where(sd > 0, (X - mu) / np.where(sd == 0, 1.0, sd), 0.0)
    raise ValueError(f"unknown normalisation {mode!r}")


def subsample(
    X: np.ndarray, labels: np.ndarray | None, n: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray | None]:
    """Seeded subsample (without replacement) of ``n`` columns."""
    total = X.shape[1]
    if n <= 0 or n >= total:
        return X, labels
    rng = stream_rng(seed, "subsample")
    idx = np.sort(rng.choice(total, size=n, replace=False))
    return X[:, idx], labels[idx] if labels is not None else None


def resolve_data_path(path) -> str:
    """Resolve a dataset path against the ``FEDDL_DATA_DIR`` environment
    variable: relative paths are joined onto it when it is set, absolute
    paths and the unset case pass through unchanged."""
    p = Path(path)
    base = os.environ.get("FEDDL_DATA_DIR", "")
    if base and not p.is_absolute():
        p = Path(base) / p
    return str(p)


def load_dataset(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """Load + normalise + subsample according to ``spec``."""
    if spec.source == "idx":
        X, labels = load_idx(
            resolve_data_path(spec.images_path), resolve_data_path(spec.labels_path)
        )
    elif spec.source == "csv":
        X, labels = load_csv_dataset(resolve_data_path(spec.csv_path), spec.label_column)
    else:
        X, labels = generate_blobs(spec.blobs, seed=spec.seed)
    X = normalize(X, spec.normalize)
    X, labels = subsample(X, labels, spec.subsample, seed=spec.seed)
    return X, labels


def partition(
    X: np.ndarray, labels: np.ndarray | None, spec: PartitionSpec
) -> list[ClientShard]:
    """Split the dataset columns into client shards.

    Every column lands in exactly one shard; shard weights are
    ``n_p / n_x``.  The class-based modes need labels and exact
    class-count compatibility.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    P = spec.n_clients
    if spec.mode is PartitionMode.IID:
        rng = stream_rng(spec.seed, "iid_partition")
        perm = rng.permutation(n)
        groups = [np.sort(g) for g in np.array_split(perm, P)]
    else:
        if labels is None:
            raise ValueError(f"partition mode {spec.mode.value} requires labels")
        classes = np.unique(labels)
        per_client = 1 if spec.mode is PartitionMode.NONIID_ONE_CLASS else 2
        if classes.size != per_client * P:
            raise ValueError(
                f"partition mode {spec.mode.value} needs exactly {per_client}*P classes; "
                f"got {classes.size} classes for P={P}"
            )
        groups = []
        for p in range(P):
            owned = classes[p * per_client : (p + 1) * per_client]
            groups.append(np.flatnonzero(np.isin(labels, owned)))
    shards = []
    for p, idx in enumerate(groups):
        if idx.size < 2:
            raise ValueError(
                f"client {p} would receive {idx.size} points; every shard needs >= 2 "
                f"(n={n}, P={P})"
            )
        shards.append(
            ClientShard(
                client_id=p, data=X[:, idx], weight=idx.size / n, indices=idx
            )
        )
    return shards
