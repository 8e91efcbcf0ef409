import os
import struct
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from feddl.errors import DataError
from feddl.matrixio import (
    read_embedding_csv,
    read_matrix,
    write_embedding_csv,
    write_labels_csv,
    write_matrix,
    write_metrics_csv,
    write_trace_csv,
)

from helpers import read_labels

HEADER = struct.Struct("<4sBBHII")


def test_matrix_round_trip_bitwise(tmp_path, rng):
    M = rng.normal(size=(7, 5))
    M[0, 0] = -0.0
    M[1, 1] = 1e-308
    M[2, 2] = 1e308
    p = tmp_path / "m.fdlm"
    write_matrix(p, M)
    M2 = read_matrix(p)
    assert M2.shape == (7, 5) and M2.dtype == np.float64
    npt.assert_array_equal(M.view(np.uint64), M2.view(np.uint64))  # bit-for-bit


def test_matrix_header_layout(tmp_path):
    p = tmp_path / "m.fdlm"
    write_matrix(p, np.arange(6.0).reshape(2, 3))
    raw = p.read_bytes()
    magic, version, dtype, reserved, rows, cols = HEADER.unpack(raw[:16])
    assert (magic, version, dtype, reserved, rows, cols) == (b"FDLM", 1, 1, 0, 2, 3)
    payload = np.frombuffer(raw[16:], dtype="<f8")
    npt.assert_array_equal(payload, np.arange(6.0))  # row-major


def test_matrix_rewrite_is_byte_identical(tmp_path, rng):
    M = rng.normal(size=(4, 4))
    p1, p2 = tmp_path / "a.fdlm", tmp_path / "b.fdlm"
    write_matrix(p1, M)
    write_matrix(p2, read_matrix(p1))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "layout",
    [
        lambda M: M,
        lambda M: np.asfortranarray(M),
        lambda M: M[:, ::2],
        lambda M: M.astype(">f8"),
        lambda M: M.astype(np.float32),
        lambda M: M[:0],
    ],
    ids=["c-order", "f-order", "strided", "big-endian", "float32", "empty"],
)
def test_matrix_bytes_match_the_tobytes_encoding(tmp_path, rng, layout):
    M = layout(rng.normal(size=(6, 8)))
    p = tmp_path / "m.fdlm"
    write_matrix(p, M)
    ref = np.ascontiguousarray(M, dtype="<f8")
    expected = HEADER.pack(b"FDLM", 1, 1, 0, *ref.shape) + ref.tobytes(order="C")
    assert p.read_bytes() == expected


def test_matrix_write_makes_no_payload_copy(tmp_path, rng):
    M = rng.normal(size=(500, 500))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.fdlm", M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * M.nbytes


@pytest.mark.parametrize("heights", [[7], [1, 6], [3, 0, 4]], ids=["one", "two", "empty-panel"])
def test_matrix_written_by_row_panels_is_the_matrix_file(tmp_path, rng, heights):
    M = rng.normal(size=(7, 5))
    bounds = np.cumsum([0, *heights])
    panels, whole = tmp_path / "panels.fdlm", tmp_path / "whole.fdlm"
    write_matrix(panels, (M[a:b] for a, b in zip(bounds[:-1], bounds[1:])))
    write_matrix(whole, M)
    assert panels.read_bytes() == whole.read_bytes()


def test_row_panels_share_one_width(tmp_path):
    with pytest.raises(ValueError, match="a row panel has 3 columns, the first had 4"):
        write_matrix(tmp_path / "m.fdlm", iter([np.zeros((2, 4)), np.zeros((1, 3))]))


def test_row_panel_iterator_that_raises_leaves_no_file(tmp_path):
    def panels():
        yield np.zeros((2, 4))
        raise ValueError("the third row is not finite")

    p = tmp_path / "m.fdlm"
    with pytest.raises(ValueError, match="the third row is not finite"):
        write_matrix(p, panels())
    assert not p.exists()


def test_matrix_rejects_non_2d():
    with pytest.raises(ValueError, match="only 2-D"):
        write_matrix("/dev/null", np.zeros(3))


def test_matrix_header_errors(tmp_path):
    p = tmp_path / "m.fdlm"
    p.write_bytes(b"\x00" * 10)
    with pytest.raises(DataError, match="truncated header"):
        read_matrix(p)
    p.write_bytes(HEADER.pack(b"NOPE", 1, 1, 0, 1, 1) + bytes(8))
    with pytest.raises(DataError, match="bad magic"):
        read_matrix(p)
    p.write_bytes(HEADER.pack(b"FDLM", 9, 1, 0, 1, 1) + bytes(8))
    with pytest.raises(DataError, match="unsupported version 9"):
        read_matrix(p)
    p.write_bytes(HEADER.pack(b"FDLM", 1, 2, 0, 1, 1) + bytes(8))
    with pytest.raises(DataError, match="unsupported dtype code 2"):
        read_matrix(p)
    p.write_bytes(HEADER.pack(b"FDLM", 1, 1, 0, 2, 2) + bytes(8))
    with pytest.raises(DataError, match="payload has 8 bytes at byte 16, expected 32"):
        read_matrix(p)
    with pytest.raises(DataError, match="cannot read matrix file"):
        read_matrix(tmp_path / "missing.fdlm")


def _fifo_reads(tmp_path, data: bytes):
    """``read_matrix`` of ``data`` written into a named pipe, whose size
    cannot be known before it is read."""
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return read_matrix(fifo)
    finally:
        writer.join()


@pytest.mark.parametrize("source", ["file", "fifo"])
@pytest.mark.parametrize(
    "payload,size", [(bytes(8), 8), (bytes(40), 40)], ids=["short", "trailing-bytes"]
)
def test_matrix_payload_of_the_wrong_size(tmp_path, source, payload, size):
    data = HEADER.pack(b"FDLM", 1, 1, 0, 2, 2) + payload
    message = f"payload has {size} bytes at byte 16, expected 32 for 2x2 float64"
    with pytest.raises(DataError, match=message):
        if source == "file":
            (tmp_path / "m.fdlm").write_bytes(data)
            read_matrix(tmp_path / "m.fdlm")
        else:
            _fifo_reads(tmp_path, data)


def test_matrix_from_a_fifo_round_trips(tmp_path, rng):
    M = rng.normal(size=(3, 4))
    write_matrix(tmp_path / "m.fdlm", M)
    npt.assert_array_equal(_fifo_reads(tmp_path, (tmp_path / "m.fdlm").read_bytes()), M)


def test_matrix_read_holds_one_copy(tmp_path, rng):
    M = rng.normal(size=(500, 500))
    write_matrix(tmp_path / "m.fdlm", M)
    tracemalloc.start()
    try:
        R = read_matrix(tmp_path / "m.fdlm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    npt.assert_array_equal(R, M)
    assert R.flags.writeable
    assert peak < 1.1 * M.nbytes


def test_corrupt_header_allocates_nothing(tmp_path):
    # 2^31 x 2^31 float64 is 32 EiB: the size check comes before the array
    p = tmp_path / "m.fdlm"
    p.write_bytes(HEADER.pack(b"FDLM", 1, 1, 0, 2**31, 2**31) + bytes(8))
    with pytest.raises(DataError, match="payload has 8 bytes at byte 16"):
        read_matrix(p)


def test_embedding_csv_round_trip(tmp_path, rng):
    Z = rng.normal(size=(6, 2))
    labels = np.array([0, 1, 2, 0, 1, 2])
    p = tmp_path / "e.csv"
    write_embedding_csv(p, Z, labels)
    Z2, lab2 = read_embedding_csv(p)
    npt.assert_array_equal(Z, Z2)  # repr round-trips float64 exactly
    npt.assert_array_equal(labels, lab2)
    assert p.read_text().splitlines()[0] == "point_id,z1,z2,label"
    # labels that are not all numeric are coded by their distinct values
    p.write_text("point_id,z1,z2,label\n0,1.0,2.0,b\n1,3.0,4.0,a\n2,5.0,6.0,b\n")
    npt.assert_array_equal(read_embedding_csv(p)[1], [1, 0, 1])


def test_embedding_csv_without_labels(tmp_path, rng):
    Z = rng.normal(size=(3, 4))
    p = tmp_path / "e.csv"
    write_embedding_csv(p, Z)
    Z2, lab2 = read_embedding_csv(p)
    npt.assert_array_equal(Z, Z2)
    assert Z2.flags.c_contiguous  # the layout the metrics' sums were written for
    assert lab2 is None


def test_embedding_csv_errors(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("who,what\n1,2\n")
    with pytest.raises(DataError, match="unexpected embedding header"):
        read_embedding_csv(p)
    # a non-numeric field is named by its column's role, in any numeric column
    for text, word in [
        ("point_id,z1\n0,abc\n", "coordinate"),
        ("point_id,z1,z2,label\n0,0.5,0.5,0\n1,0.5,x,0\n", "coordinate"),
        ("point_id,z1,label\n0,0.5,0\nfirst,0.5,1\n", "point_id"),
        ("point_id,z1,weight\n0,0.5,heavy\n", "coordinate"),
    ]:
        p.write_text(text)
        row = text.count("\n")
        with pytest.raises(DataError, match=f"non-numeric {word} in row {row}:"):
            read_embedding_csv(p)
    # a row without its label, and one with a stray trailing field
    for row, fields in [("1,2.0,3.0", 3), ("1,2.0,3.0,1,9", 5)]:
        p.write_text(f"point_id,z1,z2,label\n0,0.5,0.5,0\n{row}\n")
        with pytest.raises(DataError, match=f"row 3 has {fields} fields, header has 4"):
            read_embedding_csv(p)


def test_labels_csv_round_trip(tmp_path):
    p = tmp_path / "l.csv"
    write_labels_csv(p, [2, 0, 1], true_labels=[1, 0, 1])
    assert p.read_text() == "point_id,label,true_label\n0,2,1\n1,0,0\n2,1,1\n"
    npt.assert_array_equal(read_labels(p), [2, 0, 1])


class _StubTrace:
    def to_rows(self):
        yield (0, 0, 1.5, 0.25, 12.3456)
        yield (0, 1, 1.25, 0.0625, 7.0)
        yield (1, 1, float("nan"), 0.5, 3.0)


def test_trace_csv_format(tmp_path):
    p = tmp_path / "t.csv"
    write_trace_csv(p, _StubTrace())
    lines = p.read_text().splitlines()
    assert lines[0] == "round,local_step,F,displacement_sq,elapsed_ms"
    assert lines[1] == "0,0,1.5,0.25,12.346"
    assert lines[2] == "0,1,1.25,0.0625,7.000"
    assert lines[3] == "1,1,nan,0.5,3.000"  # a step without an objective


def test_metrics_csv_format(tmp_path):
    p = tmp_path / "m.csv"
    write_metrics_csv(p, [("nmi", 0.5), ("sc", -0.125)])
    assert p.read_text() == "metric,value\nnmi,0.5\nsc,-0.125\n"
