import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from feddl import clustering
from feddl.clustering import ClusterAssignment, kmeans, spectral_cluster
from feddl.config import parse_config
from feddl.data import BlobSpec, generate_blobs
from feddl.kernels import KernelParams, gaussian_kernel, pairwise_sq_dist
from feddl.matrixio import read_matrix
from feddl.metrics import nmi
from feddl.nystrom import CompletedMatrix, MatrixKind
from feddl.pipeline import run_fed_speclust
from test_pipeline import TINY_INI


def test_kmeans_exact_two_clusters():
    Z = np.array([[0.0], [0.1], [10.0], [10.1]])
    out = kmeans(Z, 2, seed=0)
    assert isinstance(out, ClusterAssignment)
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]
    assert out.inertia == pytest.approx(4 * 0.05**2)


def test_kmeans_single_cluster_inertia():
    Z = np.array([[0.0], [2.0]])
    out = kmeans(Z, 1, seed=0)
    npt.assert_array_equal(out.labels, [0, 0])
    assert out.inertia == pytest.approx(2.0)  # both points 1 away from the mean


def test_kmeans_zero_inertia_with_c_equals_n():
    Z = np.array([[0.0], [5.0], [9.0]])
    out = kmeans(Z, 3, seed=1)
    assert sorted(out.labels.tolist()) == [0, 1, 2]
    assert out.inertia == 0.0


def test_kmeans_deterministic_and_restart_never_worse(rng):
    Z = rng.normal(size=(60, 2))
    a = kmeans(Z, 4, seed=7)
    b = kmeans(Z, 4, seed=7)
    npt.assert_array_equal(a.labels, b.labels)
    single = kmeans(Z, 4, seed=7, n_init=1)
    assert a.inertia <= single.inertia + 1e-12


def test_kmeans_validation(rng):
    Z = rng.normal(size=(5, 2))
    with pytest.raises(ValueError):
        kmeans(Z, 0)
    with pytest.raises(ValueError):
        kmeans(Z, 6)
    with pytest.raises(ValueError):
        kmeans(Z, 2, n_init=0)
    with pytest.raises(ValueError):
        kmeans(np.empty((0, 2)), 1)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_kmeans_labels_in_range_and_no_empty_cluster(seed, c):
    r = np.random.default_rng(seed)
    Z = r.normal(size=(25, 3))
    out = kmeans(Z, c, seed=0, n_init=2)
    assert out.labels.shape == (25,)
    assert out.labels.min() >= 0 and out.labels.max() < c
    assert len(np.unique(out.labels)) == c
    assert out.inertia >= 0


def test_spectral_block_diagonal_recovery():
    # two disconnected similarity blocks are recovered exactly
    K = np.zeros((6, 6))
    K[:3, :3] = 0.9
    K[3:, 3:] = 0.8
    np.fill_diagonal(K, 1.0)
    out = spectral_cluster(K, 2, seed=0)
    truth = np.repeat([0, 1], 3)
    assert nmi(out.labels, truth) == pytest.approx(1.0)


def test_spectral_on_blob_kernel(blob_points):
    X, labels = blob_points
    K = gaussian_kernel(pairwise_sq_dist(X, X), KernelParams(gamma=0.5))
    out = spectral_cluster(K, 3, seed=0)
    assert nmi(out.labels, labels) == pytest.approx(1.0)


def test_spectral_accepts_kernel_completion(blob_points):
    X, labels = blob_points
    K = gaussian_kernel(pairwise_sq_dist(X, X), KernelParams(gamma=0.5))
    completed = CompletedMatrix(values=K, kind=MatrixKind.KERNEL)
    out = spectral_cluster(completed, 3, seed=0)
    assert nmi(out.labels, labels) == pytest.approx(1.0)
    wrong_kind = CompletedMatrix(values=K, kind=MatrixKind.DISTANCE)
    with pytest.raises(ValueError, match="kernel-kind"):
        spectral_cluster(wrong_kind, 3)


def test_spectral_zero_degree_rows_become_singletons():
    K = np.zeros((6, 6))
    K[:2, :2] = 1.0
    K[2:4, 2:4] = 1.0
    # rows 4 and 5 have zero degree
    out = spectral_cluster(K, 2, seed=0)
    assert out.n_clusters == 4
    assert sorted(out.labels[4:].tolist()) == [2, 3]
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]


def test_spectral_validation():
    with pytest.raises(ValueError, match="square"):
        spectral_cluster(np.zeros((2, 3)), 2)
    with pytest.raises(ValueError, match="non-negative"):
        spectral_cluster(np.array([[1.0, -0.1], [-0.1, 1.0]]), 2)
    with pytest.raises(ValueError, match="not symmetric"):
        spectral_cluster(np.array([[1.0, 0.6], [0.1, 1.0]]), 2)
    with pytest.raises(ValueError, match="cluster count"):
        spectral_cluster(np.eye(3), 4)
    K = np.zeros((4, 4))
    K[:2, :2] = 1.0
    with pytest.raises(ValueError, match="nonzero degree"):
        spectral_cluster(K, 3)


def _blob_kernel(n_blobs, points_per_blob, seed):
    spec = BlobSpec(
        n_blobs=n_blobs, points_per_blob=points_per_blob, std=1.0, separation=6.0, dim=2
    )
    X, labels = generate_blobs(spec, seed=seed)
    return gaussian_kernel(pairwise_sq_dist(X, X), KernelParams(gamma=0.5)), labels


def _block_diagonal_kernel():
    K = np.zeros((30, 30))
    for lo, hi, v in ((0, 8, 0.9), (8, 18, 0.8), (18, 30, 0.7)):
        K[lo:hi, lo:hi] = v
    np.fill_diagonal(K, 1.0)
    return K


def _with_zero_degree_rows(K, at):
    keep = np.setdiff1d(np.arange(K.shape[0] + len(at)), at)
    out = np.zeros((K.shape[0] + len(at),) * 2)
    out[np.ix_(keep, keep)] = K
    return out


def _tiny_speclust_completion(tmp_path):
    out = run_fed_speclust(parse_config(TINY_INI), tmp_path)
    return read_matrix(out.files["completed_kernel.fdlm"])


def _lobpcg_spy(monkeypatch, replace=None):
    """Count the calls of ``lobpcg``; ``replace`` maps its result to
    what the call returns instead."""
    calls = []
    real = scipy.sparse.linalg.lobpcg

    def spy(*args, **kwargs):
        calls.append(args[1].shape)
        out = real(*args, **kwargs)
        return out if replace is None else replace(*out)

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", spy)
    return calls


def _dense_reference(K, c, seed):
    """``spectral_cluster`` with the dense eigensolve forced."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(clustering, "_iterative_embedding", lambda *args: None)
        return spectral_cluster(K, c, seed=seed)


SPECTRAL_CASES = {
    "blobs": (lambda tmp: _blob_kernel(3, 30, 7)[0], 3),
    "block-diagonal": (lambda tmp: _block_diagonal_kernel(), 3),
    "zero-degree-rows": (
        lambda tmp: _with_zero_degree_rows(_blob_kernel(3, 30, 7)[0], [0, 41, 92]),
        3,
    ),
    "tiny-speclust": (_tiny_speclust_completion, 3),
}


@pytest.mark.parametrize("make,c", SPECTRAL_CASES.values(), ids=SPECTRAL_CASES)
def test_iterative_path_matches_dense_reference(monkeypatch, tmp_path, make, c):
    K = make(tmp_path)
    calls = _lobpcg_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = spectral_cluster(K, c, seed=3)
    assert len(calls) == 1
    ref = _dense_reference(K, c, seed=3)
    assert out.labels.tobytes() == ref.labels.tobytes()
    assert out.n_clusters == ref.n_clusters and out.inertia == pytest.approx(ref.inertia)

    deg = K.sum(axis=1)
    lam, _ = clustering._iterative_embedding(K, deg, deg > 0, c, 3)
    lam_ref, _ = clustering._dense_embedding(K, c)
    npt.assert_allclose(lam, lam_ref, rtol=0, atol=1e-8)


@pytest.mark.parametrize("n_active,c", [(14, 3), (4, 4), (9, 2)])
def test_too_few_active_points_take_the_dense_path(monkeypatch, n_active, c):
    K = _with_zero_degree_rows(_blob_kernel(2, 10, 1)[0][:n_active, :n_active], [n_active])
    calls = _lobpcg_spy(monkeypatch)
    out = spectral_cluster(K, c, seed=0)
    assert calls == []
    assert out.n_clusters == c + 1
    assert len(np.unique(out.labels[:n_active])) == c


def _wrong_random(lam, V):
    return lam, np.linalg.qr(np.random.default_rng(0).normal(size=V.shape))[0]


WRONG_BLOCKS = {
    "random": _wrong_random,
    "zeros": lambda lam, V: (lam, np.zeros_like(V)),
    "nan": lambda lam, V: (lam, np.full_like(V, np.nan)),
    "wrong-eigenvalues": lambda lam, V: (lam + 0.1, V),
}


@pytest.mark.parametrize("wrong", WRONG_BLOCKS.values(), ids=WRONG_BLOCKS)
def test_wrong_lobpcg_block_falls_back_to_dense(monkeypatch, wrong):
    K, truth = _blob_kernel(3, 30, 7)
    ref = _dense_reference(K, 3, seed=0)
    calls = _lobpcg_spy(monkeypatch, replace=wrong)
    out = spectral_cluster(K, 3, seed=0)
    assert len(calls) == 1
    assert out.labels.tobytes() == ref.labels.tobytes()
    assert nmi(out.labels, truth) == pytest.approx(1.0)


def test_degenerate_kernel_reruns_are_identical(monkeypatch):
    # equal constant blocks: the leading eigenvalue 1 has multiplicity c
    K = np.kron(np.eye(3), np.ones((10, 10)))
    calls = _lobpcg_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [spectral_cluster(K, 3, seed=5).labels.tobytes() for _ in range(4)]
    assert len(calls) == 4
    assert len(set(runs)) == 1
    labels = np.frombuffer(runs[0], dtype=np.int64)
    assert nmi(labels, np.repeat([0, 1, 2], 10)) == pytest.approx(1.0)
    # k-means would hide a change of basis within the degenerate
    # eigenspace; the eigenvectors themselves repeat bit for bit too
    deg = K.sum(axis=1)
    bases = {clustering._iterative_embedding(K, deg, deg > 0, 3, 5)[1].tobytes() for _ in range(4)}
    assert len(bases) == 1


def test_iterative_path_allocates_nothing_of_size_n_squared(monkeypatch):
    K, truth = _blob_kernel(4, 250, 3)
    completed = CompletedMatrix(values=K, kind=MatrixKind.KERNEL)
    calls = _lobpcg_spy(monkeypatch)
    tracemalloc.start()
    try:
        out = spectral_cluster(completed, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    assert peak < 0.25 * K.nbytes
    assert nmi(out.labels, truth) > 0.9
