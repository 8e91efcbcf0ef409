import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from feddl import clustering
from feddl.clustering import ClusterAssignment, _normalized_operator, kmeans, spectral_cluster
from feddl.config import parse_config
from feddl.data import BlobSpec, generate_blobs
from feddl.kernels import (
    KernelParams,
    gaussian_kernel,
    pairwise_sq_dist,
    sq_dists,
)
from feddl.matrixio import read_matrix
from feddl.metrics import nmi
from feddl.nystrom import CompletedMatrix, MatrixKind, NystromFactors
from feddl.pipeline import run_fed_speclust
from feddl.privacy import stream_rng
from kernels_reference import normalized_adjacency
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
    # the first restart alone, on its stream of the seed
    single = clustering._kmeans_single(
        Z, 4, np.random.default_rng(np.random.SeedSequence([7, 4, 0])), 300, 1e-6
    )
    assert a.inertia <= single.inertia + 1e-12


def test_kmeans_validation(rng):
    Z = rng.normal(size=(5, 2))
    with pytest.raises(ValueError):
        kmeans(Z, 0)
    with pytest.raises(ValueError):
        kmeans(Z, 6)
    with pytest.raises(ValueError):
        kmeans(np.empty((0, 2)), 1)


def _unit_rows(r):
    """Unit rows around ten axes, as ``spectral_cluster`` hands them to k-means."""
    Z = r.normal(size=(2500, 10)) + 3 * np.eye(10)[r.integers(0, 10, 2500)]
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def _kmeans_single_reference(
    Z: np.ndarray, c: int, rng: np.random.Generator, max_iter: int, rel_tol: float
) -> ClusterAssignment:
    """``clustering._kmeans_single`` as it was when every Lloyd iteration
    recomputed the distances to the centres it started from."""
    n = Z.shape[0]
    centers = clustering._kmeans_pp_init(Z, c, rng)
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = sq_dists(Z, centers)
        labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), labels]
        for j in range(c):
            members = labels == j
            if not members.any():
                far = int(point_d2.argmax())
                centers[j] = Z[far]
                labels[far] = j
                d2j = np.einsum("ij,ij->i", Z - centers[j], Z - centers[j])
                point_d2 = np.minimum(point_d2, d2j)
                point_d2[far] = 0.0
                continue
            centers[j] = Z[members].mean(axis=0)
        d2 = sq_dists(Z, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if prev_inertia - inertia <= rel_tol * max(prev_inertia, 1e-300) and np.isfinite(
            prev_inertia
        ):
            prev_inertia = inertia
            break
        prev_inertia = inertia
    return ClusterAssignment(labels=labels, n_clusters=c, inertia=float(prev_inertia))


@pytest.mark.parametrize(
    "make_z,c",
    [
        (lambda r: r.normal(size=(300, 2)), 5),
        (lambda r: r.normal(size=(500, 10)) + 4 * np.eye(10)[r.integers(0, 10, 500)], 10),
        # four distinct points and six clusters: empty clusters are re-seeded
        (lambda r: np.repeat(r.normal(size=(4, 2)), 5, axis=0), 6),
        # one coordinate: ``mean`` sums pairwise, so the centres come one by one
        (lambda r: r.normal(size=(400, 1)), 4),
        (_unit_rows, 10),
    ],
    ids=["gaussian", "blobs", "reseeded", "one-coordinate", "unit-rows"],
)
@pytest.mark.parametrize("max_iter", [1, 2, 300])
def test_kmeans_single_matches_the_reference(make_z, c, max_iter):
    Z = make_z(np.random.default_rng(c))
    for restart in range(4):
        runs = [
            f(Z, c, np.random.default_rng([restart, 4]), max_iter, 1e-6)
            for f in (clustering._kmeans_single, _kmeans_single_reference)
        ]
        npt.assert_array_equal(runs[0].labels, runs[1].labels)
        assert runs[0].inertia == runs[1].inertia


def test_kmeans_single_reseeds_a_cluster_that_empties_mid_run(monkeypatch):
    Z = np.array([[1, 6], [6, 2], [2, 8], [4, 9], [9, 2], [0, 8], [3, 0], [6, 1]], dtype=float)
    start = np.array([[7, 7], [1, 2], [1, 4]], dtype=float)
    # every cluster has points at the start, and the first Lloyd step empties one
    first = sq_dists(Z, start).argmin(axis=1)
    assert np.bincount(first, minlength=3).all()
    centers = np.array([Z[first == j].mean(axis=0) for j in range(3)])
    assert not np.bincount(sq_dists(Z, centers).argmin(axis=1), minlength=3).all()
    monkeypatch.setattr(clustering, "_kmeans_pp_init", lambda Z, c, rng: start.copy())
    runs = [
        f(Z, 3, np.random.default_rng(0), 300, 1e-6)
        for f in (clustering._kmeans_single, _kmeans_single_reference)
    ]
    npt.assert_array_equal(runs[0].labels, runs[1].labels)
    assert runs[0].inertia == runs[1].inertia


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_kmeans_labels_in_range_and_no_empty_cluster(seed, c):
    r = np.random.default_rng(seed)
    Z = r.normal(size=(25, 3))
    out = kmeans(Z, c, seed=0)
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


def _solver_spy(monkeypatch, replace=None):
    """Count the calls of the block eigensolver; ``replace`` maps its
    result to what the call returns instead."""
    calls = []
    real = clustering._leading_eigenpairs

    def spy(matmat, X):
        calls.append(X.shape)
        out = real(matmat, X)
        return out if replace is None else replace(*out)

    monkeypatch.setattr(clustering, "_leading_eigenpairs", spy)
    return calls


def _lobpcg_reference(K, c, seed):
    """The leading ``c`` eigenpairs of the scaled operator by scipy's
    LOBPCG, from the solver's starting block, tolerance and iteration cap
    (the eigensolver the block solver replaced)."""
    deg = CompletedMatrix.coerce(K, MatrixKind.KERNEL).row_sums()
    active = deg > 0
    d = np.zeros(deg.size)
    d[active] = 1.0 / np.sqrt(deg[active])
    X0 = stream_rng(seed, "spectral_start").standard_normal((deg.size, c))
    X0[~active] = 0.0
    operand = K.operator if isinstance(K, CompletedMatrix) else K

    def matmat(X):
        return clustering._scaled_product(operand, d, X.reshape(deg.size, -1))

    op = scipy.sparse.linalg.LinearOperator(
        (deg.size,) * 2, matvec=matmat, matmat=matmat, dtype=np.float64
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        lam, V = scipy.sparse.linalg.lobpcg(
            op, X0, tol=clustering._EIGEN_TOL, maxiter=clustering._EIGEN_MAXITER, largest=True
        )
    order = np.argsort(-lam, kind="stable")
    return lam[order], V[:, order][active]


def _largest_principal_angle(U, V):
    """Largest principal angle between the column spans of the
    orthonormal blocks ``U`` and ``V`` (its sine, from the part of ``V``
    outside the span of ``U``)."""
    return float(np.linalg.norm(V - U @ (U.T @ V), 2))


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
    calls = _solver_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = spectral_cluster(K, c, seed=3)
    assert len(calls) == 1
    ref = _dense_reference(K, c, seed=3)
    assert out.labels.tobytes() == ref.labels.tobytes()
    assert out.n_clusters == ref.n_clusters and out.inertia == pytest.approx(ref.inertia)

    deg = K.sum(axis=1)
    lam, _ = clustering._iterative_embedding(*_normalized_operator(K, deg), c, 3)
    lam_ref, _ = clustering._dense_embedding(*_normalized_operator(K, deg), c)
    npt.assert_allclose(lam, lam_ref, rtol=0, atol=1e-8)


@pytest.mark.parametrize("make,c", SPECTRAL_CASES.values(), ids=SPECTRAL_CASES)
def test_dense_path_matches_scipy_eigh(tmp_path, make, c):
    K = make(tmp_path)
    lam, V = clustering._dense_embedding(*_normalized_operator(K, K.sum(axis=1)), c)
    _, _, S = normalized_adjacency(K)
    Lsym = np.eye(S.shape[0]) - S
    w_ref, V_ref = scipy.linalg.eigh(0.5 * (Lsym + Lsym.T), subset_by_index=(0, c - 1))
    npt.assert_allclose(lam, 1.0 - w_ref, rtol=0, atol=1e-8)
    assert _largest_principal_angle(V_ref, V) <= 1e-6


@pytest.mark.parametrize("n_active,c", [(14, 3), (4, 4), (9, 2)])
def test_too_few_active_points_take_the_dense_path(monkeypatch, n_active, c):
    K = _with_zero_degree_rows(_blob_kernel(2, 10, 1)[0][:n_active, :n_active], [n_active])
    calls = _solver_spy(monkeypatch)
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
def test_wrong_solver_block_falls_back_to_dense(monkeypatch, wrong):
    K, truth = _blob_kernel(3, 30, 7)
    ref = _dense_reference(K, 3, seed=0)
    calls = _solver_spy(monkeypatch, replace=wrong)
    out = spectral_cluster(K, 3, seed=0)
    assert len(calls) == 1
    assert out.labels.tobytes() == ref.labels.tobytes()
    assert nmi(out.labels, truth) == pytest.approx(1.0)


def test_degenerate_kernel_reruns_are_identical(monkeypatch):
    # equal constant blocks: the leading eigenvalue 1 has multiplicity c
    K = np.kron(np.eye(3), np.ones((10, 10)))
    calls = _solver_spy(monkeypatch)
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
    matmat, active = _normalized_operator(K, deg)
    bases = {clustering._iterative_embedding(matmat, active, 3, 5)[1].tobytes() for _ in range(4)}
    assert len(bases) == 1


def test_iterative_path_allocates_nothing_of_size_n_squared(monkeypatch):
    K, truth = _blob_kernel(4, 250, 3)
    completed = CompletedMatrix(values=K, kind=MatrixKind.KERNEL)
    calls = _solver_spy(monkeypatch)
    tracemalloc.start()
    try:
        out = spectral_cluster(completed, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    assert peak < 0.25 * K.nbytes
    assert nmi(out.labels, truth) > 0.9


def _factored(K):
    """``K`` as a made kernel completion that clipped nothing, of exact
    factors of ``K`` (from its eigendecomposition) and ``K``'s row sums.
    Its ``values`` are assembled from the factors with a unit diagonal, so
    they are ``K`` within rounding only where ``K``'s diagonal is 1."""
    w, V = np.linalg.eigh(K)
    pin = np.diagonal(K) - np.einsum("ij,ij->i", V * w, V)
    factors = NystromFactors(F=V * np.sqrt(np.abs(w)), signs=np.sign(w), pin=pin)
    return CompletedMatrix._made(MatrixKind.KERNEL, {}, factors, K.sum(axis=1), False)


def _tiny_speclust_factored(tmp_path):
    completed = run_fed_speclust(parse_config(TINY_INI), tmp_path).completed
    assert isinstance(completed.operator, NystromFactors)  # nystrom_complete clipped nothing
    return completed, completed.values


# each case makes a factored completion and the dense matrix its factors apply
FACTORED_CASES = {
    name: ((lambda tmp, make=make: (_factored(K := make(tmp)), K)), c)
    for name, (make, c) in SPECTRAL_CASES.items()
    if name != "tiny-speclust"
}
FACTORED_CASES["tiny-speclust"] = (_tiny_speclust_factored, 3)


def _product_spy(monkeypatch):
    """Record each ``_scaled_product`` as (operand type, inside the solver)."""
    calls, inside = [], [False]
    real_solver, real_product = clustering._leading_eigenpairs, clustering._scaled_product

    def solver(*args):
        inside[0] = True
        try:
            return real_solver(*args)
        finally:
            inside[0] = False

    def product(K, d, X):
        calls.append((type(K), inside[0]))
        return real_product(K, d, X)

    monkeypatch.setattr(clustering, "_leading_eigenpairs", solver)
    monkeypatch.setattr(clustering, "_scaled_product", product)
    return calls


@pytest.mark.parametrize("make,c", FACTORED_CASES.values(), ids=FACTORED_CASES)
def test_factored_path_matches_dense_path(monkeypatch, tmp_path, make, c):
    completed, K = make(tmp_path)
    calls = _product_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = spectral_cluster(completed, c, seed=3)
    # the solver and the check of its block ran on the factors alone
    assert {t for t, inside in calls if inside} == {NystromFactors}
    assert [t for t, inside in calls if not inside] == [NystromFactors]
    dense = spectral_cluster(K, c, seed=3)
    assert out.labels.tobytes() == dense.labels.tobytes()
    assert out.n_clusters == dense.n_clusters and out.inertia == pytest.approx(dense.inertia)

    deg = K.sum(axis=1)
    lam, _ = clustering._iterative_embedding(
        *_normalized_operator(completed.operator, deg), c, 3
    )
    lam_dense, _ = clustering._iterative_embedding(*_normalized_operator(K, deg), c, 3)
    npt.assert_allclose(lam, lam_dense, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "make,c",
    [
        *SPECTRAL_CASES.values(),
        *(((lambda tmp, make=make: make(tmp)[0]), c) for make, c in FACTORED_CASES.values()),
    ],
    ids=[*SPECTRAL_CASES, *(f"factored-{name}" for name in FACTORED_CASES)],
)
def test_block_solver_matches_lobpcg(tmp_path, make, c):
    K = make(tmp_path)
    operand = K.operator if isinstance(K, CompletedMatrix) else K
    deg = CompletedMatrix.coerce(K, MatrixKind.KERNEL).row_sums()
    lam, V = clustering._iterative_embedding(*_normalized_operator(operand, deg), c, 3)
    lam_ref, V_ref = _lobpcg_reference(K, c, 3)
    npt.assert_allclose(lam, lam_ref, rtol=0, atol=1e-8)
    assert _largest_principal_angle(V_ref, V) <= 1e-6


def test_clipping_completion_takes_the_dense_operator(monkeypatch, tmp_path):
    # the speclust configuration CI reruns for the dense operator: rank 3
    # of the landmark block undershoots 0, so the completion clips and its
    # factors no longer give it
    cfg = parse_config(
        "[dataset]\npoints_per_blob = 20\n\n[partition]\nclients = 3\n\n"
        "[federation]\nrounds = 3\nlandmarks = 12\n\n[completion]\nrank = 3\n\n"
        "[run]\nseed = 1\n"
    )
    calls = _product_spy(monkeypatch)
    out = run_fed_speclust(cfg, tmp_path)
    operator = out.completed.operator
    assert isinstance(out.completed.factors, NystromFactors)
    assert isinstance(operator, np.ndarray) and operator.min() == 0.0
    npt.assert_array_equal(operator, out.completed.values)
    assert calls and {t for t, _ in calls} == {np.ndarray}
    assert out.metrics.nmi == pytest.approx(1.0)


@pytest.mark.parametrize("wrong", WRONG_BLOCKS.values(), ids=WRONG_BLOCKS)
def test_wrong_factored_block_falls_back_to_eigh(monkeypatch, wrong):
    K, truth = _blob_kernel(3, 30, 7)
    ref = _dense_reference(K, 3, seed=0)
    calls = _solver_spy(monkeypatch, replace=wrong)
    out = spectral_cluster(_factored(K), 3, seed=0)
    assert len(calls) == 1
    assert out.labels.tobytes() == ref.labels.tobytes()
    assert nmi(out.labels, truth) == pytest.approx(1.0)

