import os
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from feddl import matrixio
from feddl.data import (
    BlobSpec,
    DatasetSpec,
    PartitionMode,
    PartitionSpec,
    generate_blobs,
    load_csv_dataset,
    load_dataset,
    load_idx,
    normalize,
    partition,
    resolve_data_path,
    subsample,
)
from feddl.errors import DataError
from feddl.matrixio import read_embedding_csv
from helpers import write_idx_pair


def test_idx_round_trip(tmp_path):
    r = np.random.default_rng(0)
    X = r.integers(0, 256, size=(6, 9)).astype(np.float64) / 255.0
    labels = r.integers(0, 10, size=9)
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx_pair(ip, lp, X, labels, rows=2, cols=3)
    X2, lab2 = load_idx(ip, lp)
    npt.assert_allclose(X2, X, atol=1e-12)
    npt.assert_array_equal(lab2, labels)


def test_idx_pixel_scaling(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, 1, 1, 3))
        f.write(bytes([0, 128, 255]))
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 1))
        f.write(bytes([7]))
    X, labels = load_idx(ip, lp)
    npt.assert_array_equal(X[:, 0], [0.0, 128 / 255.0, 1.0])
    assert labels[0] == 7


def test_idx_bad_image_magic(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000804, 0, 1, 1))
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 0))
    with pytest.raises(DataError, match="bad image magic 0x00000804 at byte 0"):
        load_idx(ip, lp)


def test_idx_truncated_header(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    ip.write_bytes(b"\x00\x00")
    lp.write_bytes(b"")
    with pytest.raises(DataError, match="truncated while reading image header at byte 0"):
        load_idx(ip, lp)


def test_idx_truncated_payload(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, 2, 2, 2))
        f.write(bytes(5))  # needs 8
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 2))
        f.write(bytes(2))
    with pytest.raises(DataError, match="truncated while reading 2 images at byte 16"):
        load_idx(ip, lp)


def test_idx_trailing_bytes(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, 1, 1, 1))
        f.write(bytes(2))  # one extra byte
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 1))
        f.write(bytes(1))
    with pytest.raises(DataError, match="trailing bytes"):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx_pair(ip, lp, np.zeros((4, 3)), np.zeros(3), rows=2, cols=2)
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, 2))
        f.write(bytes(2))
    with pytest.raises(DataError, match="count mismatch"):
        load_idx(ip, lp)


def test_idx_bad_label_magic(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx_pair(ip, lp, np.zeros((1, 2)), np.zeros(2))
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x00000999, 2))
        f.write(bytes(2))
    with pytest.raises(DataError, match="bad label magic"):
        load_idx(ip, lp)


def test_csv_with_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    X, labels = load_csv_dataset(p)
    npt.assert_array_equal(X, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    npt.assert_array_equal(labels, [0, 1, 0])  # string labels become codes
    p.write_text("x,label\n1,1.0\n2,-2\n3,7\n")
    npt.assert_array_equal(load_csv_dataset(p)[1], [1, -2, 7])  # integral labels keep their value


def test_csv_without_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,2\n3,4\n")
    X, labels = load_csv_dataset(p)
    assert labels is None
    assert X.shape == (2, 2)


def test_csv_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty CSV"):
        load_csv_dataset(p)
    p.write_text("x,label\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv_dataset(p)
    p.write_text("x,label\n1,0\n2\n")
    with pytest.raises(DataError, match="row 3 has 1 fields"):
        load_csv_dataset(p)
    p.write_text("x,label\nfoo,0\n")
    with pytest.raises(DataError, match="non-numeric feature in row 2"):
        load_csv_dataset(p)
    for value in ("nan", "inf", "-inf"):
        p.write_text(f"x,label\n1,0\n{value},1\n")
        with pytest.raises(DataError, match="non-finite feature in row 3"):
            load_csv_dataset(p)
    for label in ("0.7", "nan", "inf", "1e300"):
        p.write_text(f"x,label\n1,0\n2,{label}\n")
        with pytest.raises(DataError, match=f"label '{label}' in row 3 is not an integer"):
            load_csv_dataset(p)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


_FIELD_FORMATS = [repr, "{:.17e}".format, "{:.3g}".format, "{:E}".format, lambda x: f" {x!r} "]


def _quoted_crlf(text):
    """``text`` with every field quoted and CRLF line ends."""
    return "".join(
        ",".join(f'"{field}"' for field in line.split(",")) + "\r\n" for line in text.splitlines()
    )


#: column layouts of the bit test: a dataset's label at column 0-3, and an
#: embedding's ``point_id, z1..z3`` with and without its trailing label
_LAYOUTS = [0, 1, 2, 3, "embedding", "embedding-unlabelled"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and zeros
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 2.2250738585072014e-308]),
            ),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(range(len(_FIELD_FORMATS))),
    st.sampled_from(_LAYOUTS),
)
def test_fast_csv_parse_is_the_row_loop_bit_for_bit(tmp_path_factory, rows, fmt, layout):
    write = _FIELD_FORMATS[fmt]
    embedding = layout in ("embedding", "embedding-unlabelled")
    header = ["point_id", "z1", "z2", "z3"] if embedding else ["a", "b", "c"]
    lines = []
    for i, row in enumerate(rows):
        fields = [write(v) for v in row]
        if embedding:
            fields.insert(0, str(i))
        if layout != "embedding-unlabelled":
            fields.insert(len(fields) if embedding else layout, str(i % 3))
        lines.append(",".join(fields))
    if layout != "embedding-unlabelled":
        header.insert(len(header) if embedding else layout, "label")
    text = ",".join(header) + "\n" + "\n".join(lines) + "\n"
    fast = matrixio._fast_csv(text, "label")
    assert fast is not None
    slow = matrixio._slow_csv("d.csv", text, "label")
    assert fast[0] == slow[0]
    npt.assert_array_equal(_bits(fast[1]), _bits(slow[1]))
    assert fast[2] == slow[2]
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    p.write_text(text)
    # every field quoted and CRLF line ends: the row loop reads the same bits
    quoted = p.with_name("quoted.csv")
    quoted.write_bytes(_quoted_crlf(text).encode())
    assert matrixio._fast_csv(_quoted_crlf(text), "label") is None
    for path in (p, quoted):
        names, values, labels = matrixio.read_csv(path)
        assert names == slow[0]
        npt.assert_array_equal(_bits(values), _bits(slow[1]))
        if slow[2] is not None:
            npt.assert_array_equal(labels, np.arange(len(rows)) % 3)
        read, what, kept = (
            (read_embedding_csv, "coordinate", slice(1, None))
            if embedding
            else (load_csv_dataset, "feature", slice(None))
        )
        if not np.isfinite(slow[1]).all():  # a short format can round past the largest double
            with pytest.raises(DataError, match=f"non-finite {what}"):
                read(path)
            continue
        X, _ = read(path)
        npt.assert_array_equal(_bits(X if embedding else X.T), _bits(slow[1][:, kept]))


@pytest.mark.parametrize(
    "text",
    [
        'x,label\n"1.5",0\n2,1\n',  # a quoted feature
        'x,label\n1.5,"7"\n2,1\n',  # a quoted label: csv reads 7
        "x,label\r\n1.5,0\r\n2,1\r\n",  # CRLF line ends
        "x,label\n1_5,0\n2,1\n",  # float() takes underscores, loadtxt does not
        "x,label\n1.5,0\n\n2,1\n",  # a blank line
        "x,label\n1.5,0\n2\n",  # a short row
        "label\n0\n1\n",  # no feature column
    ],
    ids=["quoted", "quoted-label", "crlf", "underscore", "blank-line", "short-row", "labels-only"],
)
def test_csv_the_fast_parse_refuses_goes_through_the_row_loop(tmp_path, text):
    assert matrixio._fast_csv(text, "label") is None
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    try:
        slow = matrixio._slow_csv(str(p), text, "label")
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            load_csv_dataset(p)
    else:
        X, labels = load_csv_dataset(p)
        npt.assert_array_equal(X.T, slow[1])
        if "7" in text:
            npt.assert_array_equal(labels, [7, 1])


def test_blobs_shapes_and_labels():
    spec = BlobSpec(n_blobs=3, points_per_blob=40, std=0.1, separation=8.0, dim=2)
    X, labels = generate_blobs(spec, seed=0)
    assert X.shape == (2, 120)
    npt.assert_array_equal(labels, np.repeat([0, 1, 2], 40))
    centers = np.stack([X[:, labels == j].mean(axis=1) for j in range(3)])
    # adjacent centres sit ~separation apart on the placement circle
    npt.assert_allclose(np.linalg.norm(centers[0] - centers[1]), 8.0, atol=0.2)


def test_blobs_deterministic():
    spec = BlobSpec()
    X1, _ = generate_blobs(spec, seed=5)
    X2, _ = generate_blobs(spec, seed=5)
    npt.assert_array_equal(X1, X2)
    X3, _ = generate_blobs(spec, seed=6)
    assert np.any(X3 != X1)


def test_normalize_minmax_and_zscore(rng):
    X = rng.normal(size=(3, 50)) * 4.0 + 2.0
    X[2] = 7.0  # constant feature
    M = normalize(X, "minmax01")
    assert M.min() >= 0.0 and M.max() <= 1.0
    npt.assert_array_equal(M[2], np.zeros(50))
    Z = normalize(X, "zscore")
    npt.assert_allclose(Z[:2].mean(axis=1), 0.0, atol=1e-12)
    npt.assert_allclose(Z[:2].std(axis=1), 1.0, atol=1e-12)
    npt.assert_array_equal(Z[2], np.zeros(50))
    npt.assert_array_equal(normalize(X, "none"), X)


def test_subsample_seeded_without_replacement(rng):
    X = rng.normal(size=(2, 40))
    labels = np.arange(40)
    Xs, ls = subsample(X, labels, 15, seed=3)
    assert Xs.shape == (2, 15) and ls.shape == (15,)
    assert len(np.unique(ls)) == 15
    # labels stay aligned with their columns
    for j, lab in enumerate(ls):
        npt.assert_array_equal(Xs[:, j], X[:, lab])
    Xs2, ls2 = subsample(X, labels, 15, seed=3)
    npt.assert_array_equal(ls, ls2)
    # n == 0 or >= total keeps everything
    assert subsample(X, labels, 0)[0] is X
    assert subsample(X, labels, 40)[0] is X


def test_partition_iid_conserves_points(rng):
    X = rng.normal(size=(2, 23))
    shards = partition(X, None, PartitionSpec(n_clients=4, mode=PartitionMode.IID, seed=1))
    assert len(shards) == 4
    sizes = [s.n_points for s in shards]
    assert max(sizes) - min(sizes) <= 1
    all_idx = np.sort(np.concatenate([s.indices for s in shards]))
    npt.assert_array_equal(all_idx, np.arange(23))
    assert sum(s.weight for s in shards) == pytest.approx(1.0, abs=1e-12)
    for s in shards:
        npt.assert_array_equal(s.data, X[:, s.indices])


def test_partition_one_class_per_client(blob_points):
    X, labels = blob_points
    shards = partition(
        X, labels, PartitionSpec(n_clients=3, mode=PartitionMode.NONIID_ONE_CLASS)
    )
    for p, s in enumerate(shards):
        assert len(np.unique(labels[s.indices])) == 1
    with pytest.raises(ValueError, match="exactly 1\\*P classes"):
        partition(X, labels, PartitionSpec(n_clients=4, mode=PartitionMode.NONIID_ONE_CLASS))
    with pytest.raises(ValueError, match="requires labels"):
        partition(X, None, PartitionSpec(n_clients=3, mode=PartitionMode.NONIID_ONE_CLASS))


def test_partition_two_classes_per_client():
    X, labels = generate_blobs(BlobSpec(n_blobs=4, points_per_blob=10), seed=0)
    shards = partition(
        X, labels, PartitionSpec(n_clients=2, mode=PartitionMode.NONIID_TWO_CLASS)
    )
    owned = [np.unique(labels[s.indices]).tolist() for s in shards]
    assert owned == [[0, 1], [2, 3]]
    with pytest.raises(ValueError, match="exactly 2\\*P classes"):
        partition(X, labels, PartitionSpec(n_clients=3, mode=PartitionMode.NONIID_TWO_CLASS))


def test_load_dataset_blob_dispatch():
    spec = DatasetSpec(
        source="blobs",
        blobs=BlobSpec(n_blobs=2, points_per_blob=10),
        subsample=12,
        seed=0,
    )
    X, labels = load_dataset(spec)
    assert X.shape[1] == 12 and labels.shape == (12,)


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(source="nope")
    with pytest.raises(ValueError):
        DatasetSpec(normalize="nope")
    with pytest.raises(ValueError, match="images_path"):
        load_dataset(DatasetSpec(source="idx"))
    with pytest.raises(ValueError, match="csv_path"):
        load_dataset(DatasetSpec(source="csv"))


def test_data_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.delenv("FEDDL_DATA_DIR", raising=False)
    assert resolve_data_path("sub/f.csv") == "sub/f.csv"
    monkeypatch.setenv("FEDDL_DATA_DIR", str(tmp_path))
    assert resolve_data_path("sub/f.csv") == str(tmp_path / "sub" / "f.csv")
    assert resolve_data_path("/abs/f.csv") == "/abs/f.csv"
    # end to end: a relative csv path resolves against the data dir
    (tmp_path / "d.csv").write_text("x,label\n1,0\n2,1\n")
    X, labels = load_dataset(DatasetSpec(source="csv", csv_path="d.csv"))
    assert X.shape == (1, 2)
    npt.assert_array_equal(labels, [0, 1])
