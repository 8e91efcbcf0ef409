"""Binary matrix files and the CSV formats used by the pipeline.

Matrix container (``.fdlm``): a 16-byte header — magic ``FDLM``, u8
version (1), u8 dtype code (1 = float64), u16 reserved (0), u32 rows,
u32 cols, integers little-endian — followed by the row-major
little-endian float64 payload.

CSV files are RFC-4180-style with a header row.  Floats are written with
``repr``, which round-trips float64 exactly, so identical runs produce
byte-identical files.  Every CSV reader (here and in ``data``) applies
the same row rules: ``check_finite_rows`` rejects a non-finite value and
``integer_labels`` a numeric label that is not an integer, each with a
``DataError`` naming the row (the header is row 1).
"""

from __future__ import annotations

import csv as _csv
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_embedding_csv",
    "read_embedding_csv",
    "write_labels_csv",
    "read_labels_csv",
    "write_trace_csv",
    "write_metrics_csv",
]

_MAGIC = b"FDLM"
_VERSION = 1
_DTYPE_F64 = 1
_HEADER = struct.Struct("<4sBBHII")


def write_matrix(path, M: np.ndarray) -> None:
    """Write a 2-D float64 array to the binary matrix format."""
    M = np.ascontiguousarray(M, dtype="<f8")
    if M.ndim != 2:
        raise ValueError(f"only 2-D matrices are supported, got ndim={M.ndim}")
    rows, cols = M.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, _DTYPE_F64, 0, rows, cols))
        # A byte view of the C-contiguous array, not a copy of the payload
        # (``memoryview.cast`` would refuse an empty matrix).
        f.write(M.reshape(-1).view(np.uint8))


def read_matrix(path) -> np.ndarray:
    """Read a binary matrix file, validating header and payload size."""
    path = str(path)
    try:
        with open(path, "rb") as f:
            head = f.read(_HEADER.size)
            if len(head) != _HEADER.size:
                raise DataError(f"{path}: truncated header ({len(head)} of {_HEADER.size} bytes)")
            magic, version, dtype, _reserved, rows, cols = _HEADER.unpack(head)
            if magic != _MAGIC:
                raise DataError(f"{path}: bad magic {magic!r} at byte 0 (expected {_MAGIC!r})")
            if version != _VERSION:
                raise DataError(f"{path}: unsupported version {version} (expected {_VERSION})")
            if dtype != _DTYPE_F64:
                raise DataError(f"{path}: unsupported dtype code {dtype} (expected {_DTYPE_F64})")
            payload = f.read()
    except OSError as exc:
        raise DataError(f"cannot read matrix file: {exc}") from exc
    expected = rows * cols * 8
    if len(payload) != expected:
        raise DataError(
            f"{path}: payload has {len(payload)} bytes at byte {_HEADER.size}, "
            f"expected {expected} for {rows}x{cols} float64"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def check_finite_rows(path, X: np.ndarray, what: str) -> None:
    """Raise ``DataError`` naming the first row of ``X`` (one data row
    per CSV row) that holds a non-finite ``what``."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: non-finite {what} in row {bad[0] + 2}")


def integer_labels(path, values: np.ndarray, text) -> np.ndarray:
    """Numeric labels ``values``, parsed from the strings ``text``, as
    int64.  A value that is not an integer (non-integral, nan, inf or
    beyond int64) raises ``DataError`` naming its row; ``1.0`` is 1."""
    # ``< 2**63`` is false for nan and inf, and keeps the cast exact.
    bad = np.flatnonzero((values != np.floor(values)) | ~(np.abs(values) < 2.0**63))
    if bad.size:
        raise DataError(f"{path}: label {text[bad[0]]!r} in row {bad[0] + 2} is not an integer")
    return values.astype(np.int64)


def _fmt(x) -> str:
    return repr(float(x))


def write_embedding_csv(path, Z: np.ndarray, labels=None) -> None:
    """``point_id, z1..zd[, label]`` rows, one per embedded point."""
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    with open(path, "w", newline="") as f:
        w = _csv.writer(f, lineterminator="\n")
        header = ["point_id"] + [f"z{j + 1}" for j in range(d)] + (
            ["label"] if labels is not None else []
        )
        w.writerow(header)
        for i in range(n):
            row = [str(i)] + [_fmt(v) for v in Z[i]]
            if labels is not None:
                row.append(str(labels[i]))
            w.writerow(row)


def read_embedding_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Coordinates and integer labels (``None`` without a ``label``
    column) of an embedding CSV; coordinates must be finite."""
    path = str(path)
    try:
        with open(path, newline="") as f:
            reader = _csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty embedding CSV")
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read embedding CSV: {exc}") from exc
    has_label = header and header[-1] == "label"
    zcols = [j for j, h in enumerate(header) if h.startswith("z")]
    if not zcols or header[0] != "point_id":
        raise DataError(f"{path}: unexpected embedding header {header!r}")
    Z = np.empty((len(rows), len(zcols)))
    labels = np.empty(len(rows)) if has_label else None
    for i, row in enumerate(rows):
        try:
            Z[i] = [float(row[j]) for j in zcols]
            if labels is not None:
                labels[i] = float(row[-1])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed row {i + 2}: {exc}") from exc
    check_finite_rows(path, Z, "coordinate")
    if labels is not None:
        labels = integer_labels(path, labels, [row[-1] for row in rows])
    return Z, labels


def write_labels_csv(path, labels, true_labels=None) -> None:
    """``point_id, label[, true_label]`` rows."""
    with open(path, "w", newline="") as f:
        w = _csv.writer(f, lineterminator="\n")
        header = ["point_id", "label"] + (["true_label"] if true_labels is not None else [])
        w.writerow(header)
        for i, lab in enumerate(labels):
            row = [str(i), str(int(lab))]
            if true_labels is not None:
                row.append(str(true_labels[i]))
            w.writerow(row)


def read_labels_csv(path) -> np.ndarray:
    path = str(path)
    try:
        with open(path, newline="") as f:
            reader = _csv.reader(f)
            header = next(reader, None)
            if header is None or header[:2] != ["point_id", "label"]:
                raise DataError(f"{path}: unexpected labels header {header!r}")
            labels = [int(row[1]) for row in reader]
    except (OSError, ValueError, IndexError) as exc:
        raise DataError(f"cannot read labels CSV {path}: {exc}") from exc
    return np.asarray(labels, dtype=np.int64)


def write_trace_csv(path, trace) -> None:
    """Optimisation trace: ``round, local_step, F, displacement_sq, elapsed_ms``."""
    with open(path, "w", newline="") as f:
        w = _csv.writer(f, lineterminator="\n")
        w.writerow(["round", "local_step", "F", "displacement_sq", "elapsed_ms"])
        for s, t, obj, disp, ms in trace.to_rows():
            w.writerow([str(s), str(t), _fmt(obj), _fmt(disp), f"{ms:.3f}"])


def write_metrics_csv(path, rows: list[tuple[str, float]]) -> None:
    """``metric, value`` rows."""
    with open(path, "w", newline="") as f:
        w = _csv.writer(f, lineterminator="\n")
        w.writerow(["metric", "value"])
        for name, value in rows:
            w.writerow([name, _fmt(value)])
