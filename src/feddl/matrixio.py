"""Binary matrix files and the CSV formats used by the pipeline.

Matrix container (``.fdlm``): a 16-byte header — magic ``FDLM``, u8
version (1), u8 dtype code (1 = float64), u16 reserved (0), u32 rows,
u32 cols, integers little-endian — followed by the row-major
little-endian float64 payload.

CSV files are RFC-4180-style with a header row.  Floats are written with
``repr``, which round-trips float64 exactly, so identical runs produce
byte-identical files.  The package reads CSV in one place: ``read_csv``
reads datasets (``data.load_csv_dataset``) and embeddings
(``read_embedding_csv``) alike.  It rejects a row without the header's
field count, a non-numeric value and a numeric label that is not an
integer, and its callers (``check_finite_rows``) a non-finite value, each
with a ``DataError`` naming the row (the header is row 1).
"""

from __future__ import annotations

import csv as _csv
import io
import os
import stat
import struct
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_embedding_csv",
    "read_embedding_csv",
    "read_csv",
    "write_labels_csv",
    "write_trace_csv",
    "write_metrics_csv",
]

_MAGIC = b"FDLM"
_VERSION = 1
_DTYPE_F64 = 1
_HEADER = struct.Struct("<4sBBHII")


def write_matrix(path, M) -> None:
    """Write a 2-D matrix to the binary matrix format as float64.

    ``M`` is the matrix, or an iterator over its row panels (2-D blocks of
    whole rows, top to bottom) that is consumed as the file is written, so
    the whole matrix need not be held; the header's row count is written
    last.  An array is the one-panel case.  An exception while writing,
    one from the iterator too, deletes the partial file and is raised again.
    """
    panels = M if isinstance(M, Iterator) else iter([M])
    rows, cols = 0, None
    with open(path, "wb") as f:
        f.seek(_HEADER.size)
        try:
            for P in panels:
                P = np.ascontiguousarray(P, dtype="<f8")
                if P.ndim != 2:
                    raise ValueError(f"only 2-D matrices are supported, got ndim={P.ndim}")
                if cols is not None and P.shape[1] != cols:
                    raise ValueError(f"a row panel has {P.shape[1]} columns, the first had {cols}")
                rows, cols = rows + P.shape[0], P.shape[1]
                # A byte view of the C-contiguous panel, not a copy of the
                # payload (``memoryview.cast`` would refuse an empty matrix).
                f.write(P.reshape(-1).view(np.uint8))
                del P  # let the panel go before the iterator makes the next
        except BaseException:
            f.close()
            if Path(path).is_file():  # a device such as /dev/null stays
                Path(path).unlink()
            raise
        f.seek(0)
        f.write(_HEADER.pack(_MAGIC, _VERSION, _DTYPE_F64, 0, rows, cols or 0))


def read_matrix(path) -> np.ndarray:
    """Read a binary matrix file, validating header and payload size.

    The payload is read into the returned array itself, so reading holds
    one copy of the matrix.  A regular file's size is checked before the
    array is allocated, so a corrupt header asks for no memory."""
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
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                _check_payload(path, st.st_size - _HEADER.size, rows, cols)
            M = np.empty((rows, cols), dtype="<f8")
            got = f.readinto(M.reshape(-1).view(np.uint8))
            _check_payload(path, got + len(f.read()), rows, cols)
    except OSError as exc:
        raise DataError(f"cannot read matrix file: {exc}") from exc
    return M


def _check_payload(path: str, size: int, rows: int, cols: int) -> None:
    """``DataError`` unless the payload's ``size`` in bytes is that of a
    ``rows x cols`` float64 matrix."""
    expected = rows * cols * 8
    if size != expected:
        raise DataError(
            f"{path}: payload has {size} bytes at byte {_HEADER.size}, "
            f"expected {expected} for {rows}x{cols} float64"
        )


def check_finite_rows(path, X: np.ndarray, what: str) -> None:
    """Raise ``DataError`` naming the first row of ``X`` (one data row
    per CSV row) that holds a non-finite ``what``."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: non-finite {what} in row {bad[0] + 2}")


def _feature(column: str) -> str:
    return "feature"


def read_csv(
    path, label_column: str = "label", what: Callable[[str], str] = _feature
) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """The names of the numeric columns of a CSV with a header line, their
    values (one row per data row) and its labels.  ``what`` gives the word
    for a numeric column's values, by its name, in errors: "feature" by
    default.

    Every column but ``label_column`` must be numeric; ``label_column``
    (if present) becomes the label vector.  Numeric labels must be
    integers (``1.0`` counts as 1) and keep their value; labels that are
    not all numeric are coded by their distinct values.  Every row must
    have the header's field count.  A plain CSV is parsed by
    ``np.loadtxt`` (``_fast_csv``); any other, and any the fast parse
    refuses, row by row with ``csv`` and ``float`` (``_slow_csv``), which
    names the first bad row.  The values may be non-finite: the caller
    checks the columns it keeps (``check_finite_rows``).
    """
    path = str(path)
    try:
        with open(path, newline="") as f:
            text = f.read()
    except OSError as exc:
        raise DataError(f"cannot read CSV data: {exc}") from exc
    names, values, text_labels = _fast_csv(text, label_column) or _slow_csv(
        path, text, label_column, what
    )
    if text_labels is None:
        return names, values, None
    arr = np.asarray(text_labels)
    try:
        labels = arr.astype(np.float64)
    except ValueError:
        return names, values, np.unique(arr, return_inverse=True)[1].astype(np.int64)
    # ``< 2**63`` is false for nan and inf, and keeps the cast exact.
    bad = np.flatnonzero((labels != np.floor(labels)) | ~(np.abs(labels) < 2.0**63))
    if bad.size:
        raise DataError(
            f"{path}: label {text_labels[bad[0]]!r} in row {bad[0] + 2} is not an integer"
        )
    return names, values, labels.astype(np.int64)


def _columns(header: list[str], label_column: str) -> tuple[int | None, list[int]]:
    """Index of ``label_column`` in ``header`` (None without one) and the
    indices of the other, numeric, columns."""
    label_idx = header.index(label_column) if label_column in header else None
    return label_idx, [j for j in range(len(header)) if j != label_idx]


def _fast_csv(text: str, label_column: str) -> tuple[list[str], np.ndarray, list | None] | None:
    """``read_csv``'s column names, values and label strings of a plain
    CSV ``text``, the numbers parsed by ``np.loadtxt``; None when the text
    is not plain or the parse fails.

    Plain means no quote, carriage return or NUL, no blank line, a data
    row, a numeric column and the header's field count on every row.
    Then each line is one record split at every comma, as ``csv.reader``
    splits it, and ``np.loadtxt`` and ``float`` both round with
    ``PyOS_string_to_double``: the values are the doubles of the row
    loop.  ``loadtxt`` refuses some fields ``float`` takes (``1_0``,
    non-ASCII digits); those fall back to the loop.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or not all(lines):
        return None
    header = lines[0].split(",")
    if any(line.count(",") != len(header) - 1 for line in lines):
        return None
    label_idx, value_idx = _columns(header, label_column)
    if not value_idx:
        return None
    try:
        values = np.loadtxt(
            lines[1:], dtype=np.float64, delimiter=",", comments=None, usecols=value_idx, ndmin=2
        )
    except ValueError:
        return None
    if values.shape != (len(lines) - 1, len(value_idx)):
        return None
    labels = None if label_idx is None else [line.split(",")[label_idx] for line in lines[1:]]
    return [header[j] for j in value_idx], values, labels


def _slow_csv(
    path: str, text: str, label_column: str, what: Callable[[str], str] = _feature
) -> tuple[list[str], np.ndarray, list | None]:
    """``read_csv``'s column names, values and label strings of the CSV
    ``text`` by ``csv.reader`` and ``float``, row by row, raising
    ``DataError`` on the first bad row; a non-numeric field is named by
    ``what`` of its column."""
    reader = _csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty CSV") from None
    rows = list(reader)
    if not rows:
        raise DataError(f"{path}: CSV has a header but no data rows")
    label_idx, value_idx = _columns(header, label_column)
    values = np.empty((len(rows), len(value_idx)))
    labels = [] if label_idx is not None else None
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i + 2} has {len(row)} fields, header has {len(header)}"
            )
        for c, j in enumerate(value_idx):
            try:
                values[i, c] = float(row[j])
            except ValueError as exc:
                raise DataError(
                    f"{path}: non-numeric {what(header[j])} in row {i + 2}: {exc}"
                ) from exc
        if labels is not None:
            labels.append(row[label_idx])
    return [header[j] for j in value_idx], values, labels


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


def _embedding_column(column: str) -> str:
    return "point_id" if column == "point_id" else "coordinate"


def read_embedding_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Coordinates and labels (``None`` without a ``label`` column) of an
    embedding CSV, read by ``read_csv``.  The first numeric column must be
    ``point_id`` and the coordinates are the ``z*`` columns, which must be
    finite; the other numeric columns are dropped."""
    names, values, labels = read_csv(path, what=_embedding_column)
    zcols = [j for j, h in enumerate(names) if h.startswith("z")]
    if not zcols or names[0] != "point_id":
        raise DataError(f"{path}: unexpected embedding header {names!r}")
    # C order, as the coordinates were written: the metrics' reductions
    # round differently on the column-major array the indexing gives
    Z = np.ascontiguousarray(values[:, zcols])
    check_finite_rows(path, Z, "coordinate")
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


def write_trace_csv(path, trace) -> None:
    """Optimisation trace: ``round, local_step, F, displacement_sq, elapsed_ms``.

    ``F`` is logged once per round, on its last local step, at the
    landmarks the round produced; the other rows read ``nan``.
    """
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
