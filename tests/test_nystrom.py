import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from feddl import nystrom
from feddl.kernels import KernelParams, gaussian_kernel, pairwise_sq_dist
from feddl.matrixio import write_matrix
from feddl.nystrom import (
    CompletedMatrix,
    CompletionParams,
    LandmarkBlock,
    MatrixKind,
    NystromFactors,
    _all_finite,
    _dense,
    _panels,
    _ridged_pinv,
    _symmetrize,
    _symmetry_gap,
    assemble_cross_block,
    evaluate_bounds,
    landmark_factor,
    nystrom_complete,
)
from nystrom_reference import pinv_product, product_completion, stacked_completion
from nystrom_reference import ridged_pinv as reference_ridged_pinv

PARAMS = KernelParams(gamma=0.5)


def kernel_block(Xa, Xb):
    return gaussian_kernel(pairwise_sq_dist(Xa, Xb), PARAMS)


def pinv(W, params):
    """The rank-k pseudo-inverse of the eigenpairs ``nystrom_complete``
    keeps, as one matrix."""
    return pinv_product(W.values, params)


def test_ridged_pinv_full_rank_is_inverse():
    W = LandmarkBlock(values=np.array([[1.0, 0.5], [0.5, 1.0]]), kind=MatrixKind.KERNEL)
    M = pinv(W, CompletionParams(rank_k=0))
    npt.assert_allclose(M, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], rtol=1e-14)


def test_ridged_pinv_rank_one_hand_value():
    # keep only the eigenvalue 1.5 with eigenvector (1,1)/sqrt(2)
    W = LandmarkBlock(values=np.array([[1.0, 0.5], [0.5, 1.0]]), kind=MatrixKind.KERNEL)
    M = pinv(W, CompletionParams(rank_k=1))
    npt.assert_allclose(M, np.full((2, 2), 1 / 3), rtol=1e-14)


def test_ridged_pinv_signed_matches_pinvh(rng):
    # squared-distance blocks are indefinite; signed inversion must agree
    # with the general symmetric pseudo-inverse
    X = rng.normal(size=(3, 8))
    D2 = pairwise_sq_dist(X, X)
    W = LandmarkBlock(values=D2, kind=MatrixKind.DISTANCE)
    M = pinv(W, CompletionParams(rank_k=0))
    npt.assert_allclose(M, scipy.linalg.pinvh(D2), rtol=1e-8, atol=1e-10)


def test_ridged_pinv_penrose_property(rng):
    X = rng.normal(size=(2, 6))
    W = LandmarkBlock(values=kernel_block(X, X), kind=MatrixKind.KERNEL)
    M = pinv(W, CompletionParams(rank_k=0))
    npt.assert_allclose(M @ W.values @ M, M, rtol=1e-9, atol=1e-12)
    npt.assert_allclose(W.values @ M @ W.values, W.values, rtol=1e-9, atol=1e-12)


def test_ridged_pinv_truncates_rank(rng):
    X = rng.normal(size=(2, 5))
    W = LandmarkBlock(values=kernel_block(X, X), kind=MatrixKind.KERNEL)
    M = pinv(W, CompletionParams(rank_k=2))
    eigs = np.abs(scipy.linalg.eigvalsh(M))
    assert np.sum(eigs > 1e-10 * eigs.max()) == 2


def test_nystrom_exact_when_landmarks_are_the_data_kernel(rng):
    X = rng.normal(size=(3, 12))
    K = kernel_block(X, X)
    W = LandmarkBlock(values=K, kind=MatrixKind.KERNEL)
    completed = nystrom_complete(K.copy(), W, CompletionParams(rank_k=12))
    assert np.linalg.norm(completed.values - K) / np.linalg.norm(K) < 1e-10


def test_nystrom_exact_when_landmarks_are_the_data_distance(rng):
    X = rng.normal(size=(3, 10))
    D2 = pairwise_sq_dist(X, X)
    W = LandmarkBlock(values=D2, kind=MatrixKind.DISTANCE)
    completed = nystrom_complete(D2.copy(), W, CompletionParams(rank_k=0))
    assert np.linalg.norm(completed.values - D2) / np.linalg.norm(D2) < 1e-10


def test_nystrom_preserves_known_columns(rng):
    # landmarks are a subset of the data; the completed entries against
    # landmark points must reproduce the uploaded blocks
    X = rng.normal(size=(2, 20))
    idx = np.arange(0, 20, 4)  # 5 landmarks
    Y = X[:, idx]
    B = kernel_block(X, Y)
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    completed = nystrom_complete(B, W, CompletionParams(rank_k=0))
    npt.assert_allclose(completed.values[:, idx], B, rtol=0, atol=1e-12)


def test_nystrom_distance_postprocessing(rng):
    X = rng.normal(size=(2, 15))
    Y = rng.normal(size=(2, 4))
    B = pairwise_sq_dist(X, Y)
    W = LandmarkBlock(values=pairwise_sq_dist(Y, Y), kind=MatrixKind.DISTANCE)
    completed = nystrom_complete(B, W, CompletionParams())
    assert completed.kind is MatrixKind.DISTANCE
    assert completed.values.min() >= 0
    npt.assert_array_equal(np.diag(completed.values), np.zeros(15))
    npt.assert_array_equal(completed.values, completed.values.T)


def test_nystrom_kernel_postprocessing(rng):
    X = rng.normal(size=(2, 15))
    Y = rng.normal(size=(2, 4))
    B = kernel_block(X, Y)
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    completed = nystrom_complete(B, W, CompletionParams())
    assert completed.kind is MatrixKind.KERNEL
    assert completed.values.min() >= 0 and completed.values.max() <= 1
    npt.assert_array_equal(np.diag(completed.values), np.ones(15))


def test_nystrom_provenance(rng):
    X = rng.normal(size=(2, 6))
    Y = rng.normal(size=(2, 3))
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    completed = nystrom_complete(
        kernel_block(X, Y), W, CompletionParams(rank_k=2), privacy_mode="data"
    )
    top = np.sort(np.abs(np.linalg.eigvalsh(W.values)))[::-1][:2]
    assert completed.provenance == {
        "n_landmarks": 3,
        "rank_k": 2,
        "ridge_lambda": 0.0,
        "kept_rank": 2,
        "kept_abs_eigenvalues": pytest.approx((top[1], top[0]), rel=1e-12),
        "kept_negative": 0,
        "privacy_mode": "data",
    }
    assert completed.n_points == 6


def _applied_ridge(W_values, params):
    W = LandmarkBlock(values=W_values, kind=MatrixKind.KERNEL)
    B = np.full((3, W.n_landmarks), 0.5)
    return nystrom_complete(B, W, params).provenance["ridge_lambda"]


def test_resolve_ridge_explicit_wins():
    assert _applied_ridge(np.eye(3), CompletionParams(ridge_lambda=0.5)) == 0.5


def test_resolve_ridge_auto_triggers_near_singularity():
    eps = 5e-12
    W = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])  # eigenvalues ~ {eps, 2}
    lam = _applied_ridge(W, CompletionParams(eigen_floor=0.0))
    assert lam == pytest.approx(1e-6 * (1.0 - eps))
    # a well-conditioned block needs no ridge
    assert _applied_ridge(np.eye(2), CompletionParams()) == 0.0


def test_auto_ridge_applied_end_to_end():
    eps = 5e-12
    Wv = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    W = LandmarkBlock(values=Wv, kind=MatrixKind.KERNEL)
    B = np.array([[0.9, 0.8], [0.2, 0.3], [0.5, 0.5]])
    completed = nystrom_complete(B, W, CompletionParams(eigen_floor=0.0))
    assert completed.provenance["ridge_lambda"] > 0
    assert np.isfinite(completed.values).all()


@pytest.mark.parametrize(
    "W_values,params,ridge",
    [
        (np.array([[1.0, 0.5], [0.5, 1.0]]), CompletionParams(), 0.0),
        (np.array([[1.0, 0.5], [0.5, 1.0]]), CompletionParams(ridge_lambda=1e-3), 1e-3),
        # the automatic ridge is decided by, and shifts, the one spectrum of W
        (
            np.array([[1.0, 1.0 - 5e-12], [1.0 - 5e-12, 1.0]]),
            CompletionParams(eigen_floor=0.0),
            1e-6 * (1.0 - 5e-12),
        ),
    ],
    ids=["no-ridge", "set-ridge", "auto-ridge"],
)
def test_completion_decomposes_landmark_block_once(monkeypatch, W_values, params, ridge):
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    W = LandmarkBlock(values=W_values, kind=MatrixKind.KERNEL)
    completed = nystrom_complete(np.array([[0.9, 0.8], [0.2, 0.3], [0.5, 0.5]]), W, params)
    assert calls == ["eigh"]
    assert completed.provenance["ridge_lambda"] == ridge


def _ridged_gaussian_case(dim, n_y, gamma, n=300):
    """Points ``X``, landmarks ``Y`` and the Gaussian blocks of ``gamma``
    of a landmark block near enough to singular for the automatic ridge."""
    r = np.random.default_rng(1000 * dim + n_y)
    X, Y = r.normal(size=(dim, n)), r.normal(size=(dim, n_y))
    params = KernelParams(gamma=gamma)
    block = lambda A, B: gaussian_kernel(pairwise_sq_dist(A, B), params)  # noqa: E731
    return X, Y, block(X, Y), block(Y, Y), block(X, X)


def test_auto_ridge_ignores_the_order_of_the_landmarks():
    _, Y, B, Wv, _ = _ridged_gaussian_case(dim=2, n_y=40, gamma=0.05)
    W = LandmarkBlock(values=Wv, kind=MatrixKind.KERNEL)
    completed = nystrom_complete(B, W, CompletionParams())
    ridge = completed.provenance["ridge_lambda"]
    assert ridge > 0
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(Y.shape[1])
        Wp = LandmarkBlock(values=Wv[np.ix_(perm, perm)], kind=MatrixKind.KERNEL)
        permuted = nystrom_complete(B[:, perm], Wp, CompletionParams())
        assert permuted.provenance["ridge_lambda"] == pytest.approx(ridge, rel=1e-12, abs=0)
        assert np.abs(permuted.values - completed.values).max() <= 1e-8


@pytest.mark.parametrize(
    "dim,n_y,gamma", [(2, 30, 0.05), (2, 120, 0.5), (3, 60, 0.05), (3, 200, 0.2), (4, 120, 0.05)]
)
def test_one_decomposition_is_as_accurate_as_two(dim, n_y, gamma):
    # error against the exact kernel, with the ridged pseudo-inverse of one
    # eigendecomposition and with the two-decomposition reference
    _, _, B, Wv, K = _ridged_gaussian_case(dim, n_y, gamma)
    params = CompletionParams()
    ours = nystrom_complete(B, LandmarkBlock(values=Wv, kind=MatrixKind.KERNEL), params)
    ridge = ours.provenance["ridge_lambda"]
    ref, ref_ridge = reference_ridged_pinv(Wv, params)
    assert ridge > 0 and ref_ridge > 0
    err, ref_err = (
        np.linalg.norm(M - K) / np.linalg.norm(K)
        for M in (ours.values, product_completion(B, ref, MatrixKind.KERNEL))
    )
    assert err <= 1.1 * ref_err


@pytest.mark.parametrize("m", [1, 2, 3])
def test_distance_block_keeps_at_most_m_plus_2_pairs(rng, m):
    # squared distances of points in R^m have rank at most m + 2
    X, Y = rng.normal(size=(m, 50)), rng.normal(size=(m, 20))
    W = LandmarkBlock(values=pairwise_sq_dist(Y, Y), kind=MatrixKind.DISTANCE)
    provenance = nystrom_complete(pairwise_sq_dist(X, Y), W, CompletionParams()).provenance
    assert 1 <= provenance["kept_rank"] <= m + 2
    low, high = provenance["kept_abs_eigenvalues"]
    assert 1e-12 * high < low <= high


def test_rank_k_keeps_k_pairs(rng):
    X, Y = rng.normal(size=(3, 50)), rng.normal(size=(3, 12))
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    provenance = nystrom_complete(kernel_block(X, Y), W, CompletionParams(rank_k=3)).provenance
    assert provenance["kept_rank"] == 3
    top = np.sort(np.abs(np.linalg.eigvalsh(W.values)))[::-1][:3]
    npt.assert_allclose(provenance["kept_abs_eigenvalues"], (top[2], top[0]), rtol=1e-12)


@pytest.mark.parametrize(
    "kind,params",
    [
        (MatrixKind.KERNEL, CompletionParams()),
        (MatrixKind.KERNEL, CompletionParams(rank_k=5)),
        (MatrixKind.KERNEL, CompletionParams(ridge_lambda=1e-3)),
        (MatrixKind.DISTANCE, CompletionParams()),
        (MatrixKind.DISTANCE, CompletionParams(rank_k=5)),
    ],
    ids=["kernel", "kernel-rank-5", "kernel-ridge", "distance", "distance-rank-5"],
)
def test_completion_matches_the_scipy_eigensolver(monkeypatch, rng, kind, params):
    # the completion with scipy's eigh of the landmark block, the
    # eigensolver numpy's replaced, as the reference
    X, Y = rng.normal(size=(3, 40)), rng.normal(size=(3, 12))
    block = kernel_block if kind is MatrixKind.KERNEL else pairwise_sq_dist
    W = LandmarkBlock(values=block(Y, Y), kind=kind)
    ours = nystrom_complete(block(X, Y), W, params).values
    monkeypatch.setattr(np.linalg, "eigh", scipy.linalg.eigh)
    ref = nystrom_complete(block(X, Y), W, params).values
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_assemble_cross_block_ranges():
    blocks = [np.zeros((3, 4)), np.ones((2, 4)), np.full((5, 4), 2.0)]
    B = assemble_cross_block(blocks, [7, 3, 9])
    npt.assert_array_equal(B, np.repeat([0.0, 1.0, 2.0], [3, 2, 5])[:, None] * np.ones(4))


def test_assemble_cross_block_validation():
    with pytest.raises(ValueError, match="at least one"):
        assemble_cross_block([], [])
    with pytest.raises(ValueError, match="client 4: block shape"):
        assemble_cross_block([np.zeros((2, 3)), np.zeros((2, 4))], [1, 4])
    with pytest.raises(ValueError, match="client ids"):
        assemble_cross_block([np.zeros((2, 3))], [1, 2])


def test_nystrom_complete_checks_the_cross_block():
    W = LandmarkBlock(values=np.array([[1.0, 0.5], [0.5, 1.0]]), kind=MatrixKind.KERNEL)
    with pytest.raises(ValueError, match="2-D"):
        nystrom_complete(np.zeros(2), W, CompletionParams())
    with pytest.raises(ValueError, match="non-finite"):
        nystrom_complete(np.array([[0.5, np.nan]]), W, CompletionParams())
    with pytest.raises(ValueError, match="3 landmark columns"):
        nystrom_complete(np.zeros((2, 3)), W, CompletionParams())


def test_landmark_block_validation():
    with pytest.raises(ValueError, match="square"):
        LandmarkBlock(values=np.zeros((2, 3)), kind=MatrixKind.DISTANCE)
    with pytest.raises(ValueError, match=">= 2"):
        LandmarkBlock(values=np.zeros((1, 1)), kind=MatrixKind.DISTANCE)
    with pytest.raises(ValueError, match="not symmetric"):
        LandmarkBlock(values=np.array([[0.0, 1.0], [2.0, 0.0]]), kind=MatrixKind.DISTANCE)
    with pytest.raises(ValueError, match="zero diagonal"):
        LandmarkBlock(values=np.array([[1.0, 0.5], [0.5, 1.0]]), kind=MatrixKind.DISTANCE)
    with pytest.raises(ValueError, match="unit diagonal"):
        LandmarkBlock(values=np.array([[0.0, 0.5], [0.5, 0.0]]), kind=MatrixKind.KERNEL)


def _with_entry(i, j, x):
    M = np.ones((3, 3)) - np.eye(3)
    M[i, j] = x
    return M


@pytest.mark.parametrize(
    "values,message",
    [
        (np.zeros((2, 3)), "distance matrix must be square"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "distance matrix contains non-finite"),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), "distance matrix must be non-negative"),
        (np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]), "distance matrix is not symmetric"),
        # the difference of this finite pair overflows
        (np.array([[0.0, 1e308], [-1e308, 0.0]]), "distance matrix is not symmetric"),
    ]
    + [
        (_with_entry(i, j, x), "distance matrix contains non-finite")
        for i, j in [(1, 1), (0, 2), (2, 0)]
        for x in [np.nan, np.inf, -np.inf]
    ],
    ids=["non-square", "nan", "negative", "asymmetric", "overflowing-pair"]
    + [f"{x}-{where}" for where in ["diagonal", "above", "below"] for x in ["nan", "inf", "-inf"]],
)
def test_completed_matrix_checks_itself(values, message):
    with pytest.raises(ValueError, match=message):
        CompletedMatrix(values=values, kind=MatrixKind.DISTANCE)


def test_completed_matrix_is_exactly_symmetric_and_keeps_symmetric_input():
    exact = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert CompletedMatrix(values=exact, kind=MatrixKind.DISTANCE).values is exact
    near = np.array([[0.0, 2.0], [2.0 + 1e-12, 0.0]])
    stored = CompletedMatrix(values=near, kind=MatrixKind.DISTANCE).values
    npt.assert_array_equal(stored, stored.T)
    assert stored[0, 1] == 0.5 * (2.0 + (2.0 + 1e-12))


# 1, 2, 63 and 64 fit in one tile, 65 and 129 end on a one-row tile,
# 600 is many tiles
TILE_SIZES = [1, 2, 63, 64, 65, 129, 600]


@pytest.mark.parametrize("n", TILE_SIZES)
@pytest.mark.parametrize("special", [False, True], ids=["normal", "special-values"])
def test_tiled_symmetrize_is_the_whole_array_formula(n, special):
    # signed zeros, nan, infinities and subnormals keep their bits
    r = np.random.default_rng(n)
    M = r.normal(size=(n, n))
    if special:
        values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310]
        where = r.uniform(size=(n, n)) < 0.3
        M[where] = r.choice(values, size=where.sum())
        M[n - 1, 0] = r.choice(values)
    with np.errstate(invalid="ignore"):  # inf + (-inf)
        expected = 0.5 * (M + M.T)
        _symmetrize(M)
    npt.assert_array_equal(M.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n", TILE_SIZES)
def test_panel_checks_are_the_whole_array_checks(n):
    A = np.random.default_rng(n).normal(size=(n, n))
    assert _symmetry_gap(A) == np.abs(A - A.T).max()
    assert _symmetry_gap(0.5 * (A + A.T)) == 0.0
    assert _all_finite(A)
    A[n - 1, 0] = np.nan  # in the last row panel
    assert not _all_finite(A)
    assert math.isnan(_symmetry_gap(A))


def test_completed_matrix_symmetrises_a_copy_of_an_asymmetric_input():
    n = 129
    A = np.abs(np.random.default_rng(0).normal(size=(n, n)))
    A = A + A.T
    A[n - 1, 0] += 1e-12
    before = A.copy()
    stored = CompletedMatrix(values=A, kind=MatrixKind.DISTANCE).values
    npt.assert_array_equal(A, before)
    npt.assert_array_equal(stored, 0.5 * (before + before.T))


def test_completion_holds_one_n_by_n_array(rng):
    n, n_y = 1000, 40
    X, Y = rng.normal(size=(3, n)), rng.normal(size=(3, n_y))
    B = kernel_block(X, Y)
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        completed = nystrom_complete(B, W, CompletionParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert completed.n_points == n
    assert peak - base <= 1.5 * n * n * 8


def _kernel_inputs(rng, gamma, n=150, n_y=20):
    """The cross block ``B`` and landmark block ``W`` of a Gaussian kernel
    on normal 3-D points and landmarks."""
    X, Y = rng.normal(size=(3, n)), rng.normal(size=(3, n_y))
    params = KernelParams(gamma=gamma)
    W = gaussian_kernel(pairwise_sq_dist(Y, Y), params)
    return (
        gaussian_kernel(pairwise_sq_dist(X, Y), params),
        LandmarkBlock(values=W, kind=MatrixKind.KERNEL),
    )


def _kernel_completion(rng, gamma, rank_k=0, n=150, n_y=20):
    B, W = _kernel_inputs(rng, gamma, n, n_y)
    return B, W, nystrom_complete(B, W, CompletionParams(rank_k=rank_k))


def test_kernel_completion_keeps_its_factors(rng):
    # a wide kernel on few landmarks: no entry of B W^+ B' leaves [0, 1],
    # and W is well enough conditioned for rounding to stay near 1e-16
    B, W, completed = _kernel_completion(rng, gamma=0.05, n_y=8)
    f = completed.factors
    assert isinstance(f, NystromFactors) and f.F.shape == B.shape
    V, w, _ = _ridged_pinv(W.values, CompletionParams())
    npt.assert_array_equal(f.signs, np.sign(w))
    npt.assert_allclose(f.F, B @ (V / np.sqrt(np.abs(w))), rtol=0, atol=1e-12)
    Winv = pinv(W, CompletionParams())
    raw = B @ Winv @ B.T
    npt.assert_allclose(f.pin, 1.0 - np.diagonal(raw), rtol=0, atol=1e-12)
    # exactly symmetric, and within rounding of the whole-array formula
    K = completed.values
    npt.assert_array_equal(K, K.T)
    expected = np.clip(0.5 * (raw + raw.T), 0.0, 1.0)
    np.fill_diagonal(expected, 1.0)
    npt.assert_allclose(K, expected, rtol=0, atol=1e-12)
    npt.assert_array_equal(completed.row_sums(), K.sum(axis=1))


def test_factors_apply_the_completed_matrix(rng):
    _, _, completed = _kernel_completion(rng, gamma=0.05, n_y=8)
    X = rng.normal(size=(completed.n_points, 4))
    KX = completed.values @ X
    npt.assert_allclose(completed.factors @ X, KX, rtol=0, atol=1e-12 * np.abs(KX).max())


def _whole_product(F, signs, kind):
    """The completion as it was made before the panel pass, and the raw
    product: ``F diag(signs) F'`` formed whole, symmetrised as a whole,
    clamped at 0 or clipped to [0, 1] and its diagonal pinned to 0 or 1."""
    raw = (F * signs) @ F.T
    M = 0.5 * (raw + raw.T)
    if kind is MatrixKind.DISTANCE:
        M = np.maximum(M, 0.0)
        np.fill_diagonal(M, 0.0)
    else:
        M = np.clip(M, 0.0, 1.0)
        np.fill_diagonal(M, 1.0)
    return M, raw


def _panel_inputs(r, n, n_y, case):
    """A factor ``F`` and signs whose product ``F diag(signs) F'`` is a
    kernel completion with every entry in [0, 1], one with entries above 1
    and none below 0, one whose last row and column lie below 0, or
    squared distances of an indefinite pseudo-inverse ``(A + A') / n_y``:
    ``F = B V |w|^1/2`` of its eigenpairs, with their signs."""
    B = r.uniform(size=(n, n_y))
    if case == "distance":
        A = r.normal(size=(n_y, n_y))
        w, V = np.linalg.eigh((A + A.T) / n_y)
        return B @ (V * np.sqrt(np.abs(w))), np.sign(w), MatrixKind.DISTANCE
    A = r.uniform(size=(n_y, n_y))
    F = B @ A / n_y**1.5  # each entry of F F' is in [0, 1]
    if case == "above-1":
        F = 8.0 * F
    if case == "below-0":
        F[-1] *= -1.0
    return F, np.ones(n_y), MatrixKind.KERNEL


@pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 641])
@pytest.mark.parametrize("n_y", [2, 12, 200])
@pytest.mark.parametrize("case", ["kernel", "above-1", "below-0", "distance"])
def test_kernel_panels_are_exactly_symmetric(n, n_y, case):
    r = np.random.default_rng(1000 * n + n_y)
    F, signs, kind = _panel_inputs(r, n, n_y, case)
    panels = list(_panels(F, signs, kind))
    assert [i0 for i0, *_ in panels] == list(range(0, n, 64))
    M = np.vstack([P for _, P, *_ in panels])
    npt.assert_array_equal(M, M.T)
    # assembled in one array, with its lower tiles copied, it is the same
    npt.assert_array_equal(_dense(F, signs, kind).view(np.int64), M.view(np.int64))
    # the reference: the whole product, symmetrised as a whole
    expected, raw = _whole_product(F, signs, kind)
    scale = np.abs(raw).max()
    npt.assert_allclose(M, expected, rtol=0, atol=1e-12 * scale)
    npt.assert_array_equal(np.diagonal(M), np.diagonal(expected))
    if n <= 64:  # one tile: the whole product itself
        npt.assert_array_equal(M.view(np.int64), expected.view(np.int64))
    diagonal = np.concatenate([d for _, _, d, _, _ in panels])
    npt.assert_allclose(diagonal, np.diagonal(raw), rtol=0, atol=1e-12 * scale)
    # each panel's range before the clamp or clip, with its diagonal pinned
    pinned = 0.5 * (raw + raw.T)
    np.fill_diagonal(pinned, 1.0 if kind is MatrixKind.KERNEL else 0.0)
    for i0, _, _, low, high in panels:
        rows = pinned[i0 : i0 + 64]
        npt.assert_allclose([low, high], [rows.min(), rows.max()], rtol=0, atol=1e-12 * scale)
    if kind is MatrixKind.KERNEL:
        low, high = min(p[3] for p in panels), max(p[4] for p in panels)
        assert (low < 0.0, high > 1.0) == (case == "below-0", case == "above-1")


@pytest.mark.parametrize("case", ["factored", "clipping", "distance"])
def test_completion_file_is_the_file_of_its_values(tmp_path, rng, case):
    if case == "distance":
        X, Y = rng.normal(size=(3, 150)), rng.normal(size=(3, 20))
        B = pairwise_sq_dist(X, Y)
        W = LandmarkBlock(values=pairwise_sq_dist(Y, Y), kind=MatrixKind.DISTANCE)
    else:
        B, W = _kernel_inputs(rng, 0.05 if case == "factored" else 0.5, n_y=8)
    path, seen = tmp_path / "completed.fdlm", []

    def write(M):
        seen.append("array" if isinstance(M, np.ndarray) else "panels")
        write_matrix(path, M)

    completed = nystrom_complete(B, W, CompletionParams(), write=write)
    # every completion is written once, by the pass's row panels, and kept
    # as its factors; only a kernel one that clipped nothing operates by them
    assert seen == ["panels"]
    assert isinstance(completed.factors, NystromFactors)
    assert isinstance(completed.operator, NystromFactors) is (case == "factored")
    reference = tmp_path / "reference.fdlm"
    write_matrix(reference, completed.values)
    assert path.read_bytes() == reference.read_bytes()


def test_only_user_arrays_pay_the_symmetry_pass(monkeypatch, rng):
    calls = []
    real = nystrom._symmetry_gap
    monkeypatch.setattr(nystrom, "_symmetry_gap", lambda A: calls.append(A.shape) or real(A))
    X, Y = rng.normal(size=(3, 150)), rng.normal(size=(3, 20))
    W = LandmarkBlock(values=pairwise_sq_dist(Y, Y), kind=MatrixKind.DISTANCE)
    assert calls == [(20, 20)]  # the landmark block is the caller's array
    completed = nystrom_complete(pairwise_sq_dist(X, Y), W, CompletionParams())
    assert calls == [(20, 20)]
    CompletedMatrix.coerce(completed.values.copy(), MatrixKind.DISTANCE)
    assert calls == [(20, 20), (150, 150)]


def _distance_completion(rng, n=50, n_y=10):
    X, Y = rng.normal(size=(3, n)), rng.normal(size=(3, n_y))
    W = LandmarkBlock(values=pairwise_sq_dist(Y, Y), kind=MatrixKind.DISTANCE)
    return nystrom_complete(pairwise_sq_dist(X, Y), W, CompletionParams())


def test_factored_kernel_completion_operates_by_its_factors(rng):
    _, _, completed = _kernel_completion(rng, gamma=0.05, n_y=8)
    assert completed.operator is completed.factors
    assert isinstance(completed.operator, NystromFactors)


def test_clipping_kernel_completion_operates_by_its_values(rng):
    B, W, completed = _kernel_completion(rng, gamma=0.5, rank_k=2)
    raw = B @ pinv(W, CompletionParams(rank_k=2)) @ B.T
    off = ~np.eye(raw.shape[0], dtype=bool)
    assert (raw[off] < 0).any()  # rank 2 of a narrow kernel undershoots 0
    operator = completed.operator
    assert isinstance(operator, np.ndarray) and operator.min() == 0.0
    npt.assert_array_equal(operator.view(np.int64), completed.values.view(np.int64))


def test_distance_completion_operates_by_its_values(rng):
    completed = _distance_completion(rng)
    operator = completed.operator
    assert isinstance(operator, np.ndarray)
    npt.assert_array_equal(operator.view(np.int64), completed.values.view(np.int64))
    # the values are assembled anew on each access, and not kept
    assert completed.values is not completed.values


MADE_CASES = {
    "distance": lambda rng: _distance_completion(rng, n=1000, n_y=20),
    "factored": lambda rng: _kernel_completion(rng, gamma=0.05, n=1000, n_y=8)[2],
    "clipping": lambda rng: _kernel_completion(rng, gamma=0.5, rank_k=2, n=1000)[2],
}


@pytest.mark.parametrize("case", MADE_CASES)
def test_completion_allocates_no_n_by_n_array(rng, case):
    tracemalloc.start()
    try:
        completed = MADE_CASES[case](rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert completed.n_points == 1000
    assert isinstance(completed.operator, NystromFactors) is (case == "factored")
    assert peak < 0.25 * 1000**2 * 8


@pytest.mark.parametrize("case", ["distance", "factored", "clipping", "array"])
def test_diagonal_is_the_diagonal_of_the_values(rng, case):
    if case == "array":
        values = np.array([[0.0, 1.0], [1.0, 0.25]])  # its own diagonal, not a pinned one
        completed = CompletedMatrix(values=values, kind=MatrixKind.DISTANCE)
    else:
        completed = {
            "distance": lambda: _distance_completion(rng),
            "factored": lambda: _kernel_completion(rng, gamma=0.05, n_y=8)[2],
            "clipping": lambda: _kernel_completion(rng, gamma=0.5, rank_k=2)[2],
        }[case]()
    npt.assert_array_equal(completed.diagonal(), np.diagonal(completed.values))


def test_completed_matrix_coerce():
    K = np.array([[1.0, 0.5], [0.5, 1.0]])
    completed = CompletedMatrix(values=K, kind=MatrixKind.KERNEL)
    assert CompletedMatrix.coerce(completed, MatrixKind.KERNEL) is completed
    wrapped = CompletedMatrix.coerce(K, MatrixKind.KERNEL)
    assert wrapped.kind is MatrixKind.KERNEL and wrapped.values is K
    with pytest.raises(ValueError, match="expected a distance-kind completion, got kernel-kind"):
        CompletedMatrix.coerce(completed, MatrixKind.DISTANCE)


def test_completion_params_validation():
    with pytest.raises(ValueError):
        CompletionParams(rank_k=-1)
    with pytest.raises(ValueError):
        CompletionParams(ridge_lambda=-0.1)
    with pytest.raises(ValueError):
        CompletionParams(eigen_floor=1.0)


def test_evaluate_bounds_dominates_realized_error(rng):
    X = rng.normal(size=(2, 25))
    Y = rng.normal(size=(2, 8))
    B = kernel_block(X, Y)
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    K_hat = nystrom_complete(B, W, CompletionParams(rank_k=8))
    K_true = kernel_block(X, X)
    rep = evaluate_bounds(Y, K_hat, PARAMS, X=X, K_true=K_true)
    assert rep.realized_frobenius is not None and rep.bound_frobenius is not None
    assert rep.realized_frobenius <= rep.bound_frobenius
    assert rep.noise_term == 0.0 and rep.xi_m is None
    assert rep.n_points == 25 and rep.n_landmarks == 8 and rep.rank_k == 8


def test_evaluate_bounds_noise_inflation(rng):
    X = rng.normal(size=(4, 20))
    Y = rng.normal(size=(4, 6))
    B = kernel_block(X, Y)
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    K_hat = nystrom_complete(B, W, CompletionParams(), privacy_mode="data")
    clean = evaluate_bounds(Y, K_hat, PARAMS, X=X)
    noisy = evaluate_bounds(Y, K_hat, PARAMS, X=X, privacy_mode="data", sigma=0.3, t=1.0)
    m, t = 4, 1.0
    assert noisy.xi_m == pytest.approx(math.sqrt(m + math.sqrt(2 * m * t) + 2 * t))
    assert noisy.noise_term > 0
    assert noisy.bound_frobenius > clean.bound_frobenius


def test_evaluate_bounds_without_k_true_never_assembles_the_values(monkeypatch, rng):
    # a factored completion of 150 points: three row panels
    _, _, K_hat = _kernel_completion(rng, gamma=0.05, n_y=8)
    assert K_hat.factors is not None
    monkeypatch.setattr(
        CompletedMatrix, "values", property(lambda self: pytest.fail("values was read"))
    )
    rep = evaluate_bounds(rng.normal(size=(3, 8)), K_hat, PARAMS)
    assert rep.spectral_rho == 1.0 and rep.realized_frobenius is None


REFERENCE_CASES = {
    # (kind, n_y, gamma of a kernel, rank_k, clips): a kernel completion
    # clips nothing at a wide bandwidth and clips at rank 2 of a narrow one
    "kernel": (MatrixKind.KERNEL, 8, 0.05, 0, False),
    "kernel-rank-5": (MatrixKind.KERNEL, 8, 0.05, 5, False),
    "kernel-clipping": (MatrixKind.KERNEL, 20, 0.5, 0, True),
    "kernel-clipping-rank-2": (MatrixKind.KERNEL, 20, 0.5, 2, True),
    # squared distances of 3-D points have rank 5 <= n_y: an indefinite W
    "distance": (MatrixKind.DISTANCE, 5, None, 0, None),
    "distance-rank-3": (MatrixKind.DISTANCE, 12, None, 3, None),
}


def _reference_inputs(rng, kind, n_y, gamma, n=150):
    X, Y = rng.normal(size=(3, n)), rng.normal(size=(3, n_y))
    if kind is MatrixKind.KERNEL:
        params = KernelParams(gamma=gamma)
        block = lambda A, C: gaussian_kernel(pairwise_sq_dist(A, C), params)  # noqa: E731
    else:
        block = pairwise_sq_dist
    return block(X, Y), LandmarkBlock(values=block(Y, Y), kind=kind)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_one_factor_completion_is_the_product_completion(rng, case):
    # F diag(signs) F' against L B', L = B W_k^+, as it was made before
    kind, n_y, gamma, rank_k, clips = REFERENCE_CASES[case]
    B, W = _reference_inputs(rng, kind, n_y, gamma)
    params = CompletionParams(rank_k=rank_k)
    completed = nystrom_complete(B, W, params)
    assert completed.provenance["kept_rank"] == (rank_k or n_y)  # k < n_y and k = n_y
    if clips is not None:
        assert completed.clipped is clips
    M, ref = completed.values, product_completion(B, pinv(W, params), kind)
    npt.assert_array_equal(M, M.T)
    npt.assert_array_equal(np.diagonal(M), np.full(M.shape[0], kind.pinned))
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["kernel", "kernel-clipping-rank-2", "distance"])
def test_one_upload_of_the_cross_block_gives_its_bits(tmp_path, rng, case):
    # a whole cross block is completed as the one upload of a single client
    kind, n_y, gamma, rank_k, _ = REFERENCE_CASES[case]
    B, W = _reference_inputs(rng, kind, n_y, gamma)
    before = B.copy()
    params = CompletionParams(rank_k=rank_k)
    files = tmp_path / "block.fdlm", tmp_path / "upload.fdlm"
    whole = nystrom_complete(B, W, params, write=lambda P: write_matrix(files[0], P))
    npt.assert_array_equal(B.view(np.int64), before.view(np.int64))  # the caller's B is kept
    assert not np.shares_memory(whole.factors.F, B)
    factor = landmark_factor(W, params)
    upload = factor.project(B)
    assert upload.shape == (B.shape[0], factor.kept_rank)
    uploaded = nystrom_complete(upload, factor, write=lambda P: write_matrix(files[1], P))
    assert uploaded.factors.F is upload
    assert uploaded.provenance == whole.provenance
    assert files[0].read_bytes() == files[1].read_bytes()
    for got, want in [
        (uploaded.factors.F, whole.factors.F),
        (uploaded.factors.signs, whole.factors.signs),
        (uploaded.factors.pin, whole.factors.pin),
        (uploaded.row_sums(), whole.row_sums()),
        (uploaded.values, whole.values),
    ]:
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


#: client row counts of 150 points: the 64-row blocks of the stacked cross
#: block, and splits that cut across them
CLIENT_SPLITS = {
    "blocks": ([64, 64, 22], True),
    "sixties": ([60, 60, 30], False),
    "ragged": ([1, 64, 13, 64, 8], False),
    "one-client": ([150], False),
}


@pytest.mark.parametrize("split", CLIENT_SPLITS)
@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_uploads_complete_as_the_stacked_cross_block(rng, case, split):
    # each client uploads B_p R, one product of its whole block; the
    # reference made F = B R from the stacked B by 64-row blocks.  A client
    # whose rows are one of those blocks makes the same product, so the
    # bits agree; other splits agree within rounding
    kind, n_y, gamma, rank_k, _ = REFERENCE_CASES[case]
    sizes, same_products = CLIENT_SPLITS[split]
    B, W = _reference_inputs(rng, kind, n_y, gamma)
    params = CompletionParams(rank_k=rank_k)
    factor = landmark_factor(W, params)
    bounds = np.cumsum([0] + sizes)
    uploads = [factor.project(B[r0:r1]) for r0, r1 in zip(bounds[:-1], bounds[1:])]
    assert [u.shape for u in uploads] == [(n_p, factor.kept_rank) for n_p in sizes]
    F = assemble_cross_block(uploads, list(range(len(sizes))))
    M = nystrom_complete(F, factor).values
    ref = stacked_completion(B, W.values, params, kind)
    if same_products:
        npt.assert_array_equal(M.view(np.int64), ref.view(np.int64))
    assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()


def test_nystrom_complete_checks_the_uploads(rng):
    B, W = _reference_inputs(rng, MatrixKind.DISTANCE, 12, None)
    factor = landmark_factor(W, CompletionParams(rank_k=3))
    with pytest.raises(ValueError, match="uploads must be 2-D"):
        nystrom_complete(np.zeros(3), factor)
    with pytest.raises(ValueError, match="uploads have 12 columns but the landmark factor keeps 3"):
        nystrom_complete(B, factor)
    # a non-finite upload is caught by the pass, as an overflowing one is
    with pytest.raises(ValueError, match="distance matrix contains non-finite entries"):
        nystrom_complete(np.full((4, 3), np.nan), factor)


@pytest.mark.parametrize("uploads", [True, False], ids=["uploads", "default"])
def test_completion_pass_holds_one_block_and_one_panel(rng, uploads):
    # the pass adds one 64-row panel and O(64 n_y) work to F: given the
    # clients' stacked uploads, F is theirs; given a cross block, made in
    # the traced span, F (k = n_y here) is a second n x n_y array, beside
    # the factor R (n_y x k) that the completion made
    n, n_y = 2500, 200
    X, Y = rng.normal(size=(3, n)), rng.normal(size=(3, n_y))
    B0 = kernel_block(X, Y)
    W = LandmarkBlock(values=kernel_block(Y, Y), kind=MatrixKind.KERNEL)
    factor = landmark_factor(W, CompletionParams())
    F = factor.project(B0) if uploads else None
    tracemalloc.start()
    try:
        if uploads:
            completed = nystrom_complete(F, factor)
        else:
            B = B0.copy()
            completed = nystrom_complete(B, W, CompletionParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert completed.factors.F.shape == (n, completed.provenance["kept_rank"])
    assert (completed.factors.F is F) is uploads
    block, panel, work = n * n_y * 8, 64 * n * 8, 4 * 64 * n_y * 8
    held = panel if uploads else 2 * block + factor.R.nbytes + panel
    assert held < peak <= held + work


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="no extended precision"
)
@pytest.mark.parametrize("dim,n_y,gamma", [(2, 30, 0.05), (2, 40, 0.05), (3, 60, 0.05)])
def test_one_factor_is_accurate_where_the_product_is_not(dim, n_y, gamma):
    # a landmark block near enough to singular for the automatic ridge:
    # against the kept eigenpairs' completion in extended precision, the
    # one factor is within rounding and L B' is not
    _, _, B, Wv, _ = _ridged_gaussian_case(dim, n_y, gamma)
    W, params = LandmarkBlock(values=Wv, kind=MatrixKind.KERNEL), CompletionParams()
    completed = nystrom_complete(B, W, params)
    assert completed.provenance["ridge_lambda"] > 0
    V, w, _ = _ridged_pinv(Wv, params)
    BV = B.astype(np.longdouble) @ V.astype(np.longdouble)
    exact = np.clip(((BV / w.astype(np.longdouble)) @ BV.T).astype(np.float64), 0.0, 1.0)
    np.fill_diagonal(exact, 1.0)
    err = np.abs(completed.values - exact).max()
    ref_err = np.abs(product_completion(B, pinv(W, params), MatrixKind.KERNEL) - exact).max()
    assert err <= 1e-12 < ref_err
