import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from feddl.kernels import (
    KernelParams,
    gaussian_kernel,
    median_heuristic_gamma,
    mmd,
    mmd_gradient,
    pairwise_sq_dist,
    sq_dists,
)
from feddl.clustering import _normalized_operator
from feddl.kernels import _NeighbourLists, _gaussian_block, _knn_rows, _operands, _row_panels
from helpers import central_fd
from kernels_reference import (
    gram_gaussian_block,
    gram_sq_dists,
    knn_indices,
    normalized_adjacency,
    whole_panel_lists,
)

EPS = np.finfo(np.float64).eps

# frozen output of tests/oracles/gen_mmd_reference.py
MMD_1D_REFERENCE = 0.53344181796638596  # {0,1} vs {2,3}, gamma=1
MMD_2D_REFERENCE = 0.0073387283287193943
MMD_2D_GRAD_REFERENCE = [
    [0.19354457061358481, -0.43024119456695303],
    [0.12809164618035406, 0.012990117190446959],
]
X_2D = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
Y_2D = np.array([[2.0, -1.0], [1.0, 0.5]])


def test_pairwise_sq_dist_hand_values():
    X = np.array([[0.0, 3.0], [0.0, 4.0]])
    D2 = pairwise_sq_dist(X, X)
    npt.assert_allclose(D2, [[0.0, 25.0], [25.0, 0.0]], rtol=0, atol=0)


def test_pairwise_sq_dist_cross():
    X = np.array([[0.0, 1.0]])
    Y = np.array([[2.0, 3.0, -1.0]])
    npt.assert_allclose(pairwise_sq_dist(X, Y), [[4.0, 9.0, 1.0], [1.0, 4.0, 4.0]])


def test_pairwise_self_is_symmetric_zero_diag(rng):
    X = rng.normal(size=(3, 20))
    D2 = pairwise_sq_dist(X, X)
    npt.assert_array_equal(D2, D2.T)
    npt.assert_array_equal(np.diag(D2), np.zeros(20))
    assert D2.min() >= 0


@pytest.mark.parametrize("n", [2, 65, 333, 1000])
def test_self_distances_are_symmetrised_in_place(n):
    # the doubles of the whole-array formula, without its second n x n array
    X = np.random.default_rng(n).normal(size=(5, n))
    D2 = sq_dists(X.T)
    expected = 0.5 * (D2 + D2.T)
    np.fill_diagonal(expected, 0.0)
    npt.assert_array_equal(pairwise_sq_dist(X, X).view(np.int64), expected.view(np.int64))
    if n == 1000:  # large enough for the 64 x 64 tiles not to count
        tracemalloc.start()
        try:
            pairwise_sq_dist(X, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * n * n * 8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pairwise_matches_direct_loop(seed):
    r = np.random.default_rng(seed)
    X = r.normal(size=(2, 5))
    Y = r.normal(size=(2, 4))
    D2 = pairwise_sq_dist(X, Y)
    for i in range(5):
        for j in range(4):
            d = X[:, i] - Y[:, j]
            assert abs(D2[i, j] - d @ d) < 1e-10


def test_pairwise_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="feature dimensions differ"):
        pairwise_sq_dist(np.zeros((2, 3)), np.zeros((3, 3)))


def _gram_bound(A, B):
    """``(d + 2) eps (||a||^2 + ||b||^2)`` between the rows of ``A`` and ``B``."""
    sq_a, sq_b = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
    return (A.shape[1] + 2) * EPS * (sq_a[:, None] + sq_b[None, :])


@pytest.mark.parametrize("seed", range(4))
def test_sq_dists_matches_pairwise_bitwise_and_the_gram_expansion_within_its_bound(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 70))
    X = rng.normal(size=(m, int(rng.integers(1, 80))))
    Y = rng.normal(size=(m, int(rng.integers(1, 80))))
    npt.assert_array_equal(sq_dists(X.T, Y.T), pairwise_sq_dist(X, Y))
    Z = X.T.copy()
    sq = np.einsum("ij,ij->i", Z, Z)
    rows = np.maximum(sq[:, None] - 2.0 * (Z @ Z.T) + sq[None, :], 0.0)
    assert (np.abs(sq_dists(Z) - rows) <= _gram_bound(Z, Z)).all()


def _far_points(rng, n, d, scale, offset):
    """``n`` rows in ``d`` dimensions about a common offset, a quarter of
    them repeating earlier rows."""
    A = offset + scale * rng.normal(size=(n, d))
    dup = rng.integers(0, n, size=n // 4)
    A[rng.integers(0, n, size=dup.size)] = A[dup]
    return A


@pytest.mark.parametrize("seed", range(60))
def test_augmented_core_is_within_its_bound_of_the_gram_expansion(seed):
    # scales 1e-3 to 1e4, offsets up to 1e4 of the scale: where ||a||^2 +
    # ||b||^2 - 2 a.b cancels most; rows repeated within and across sets
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 70))
    scale = 10.0 ** rng.uniform(-3.0, 4.0)
    offset = scale * rng.choice([0.0, 1.0, 1e2, 1e4]) * rng.normal(size=d)
    A = _far_points(rng, int(rng.integers(2, 60)), d, scale, offset)
    B = _far_points(rng, int(rng.integers(2, 60)), d, scale, offset)
    B[: min(5, len(A), len(B))] = A[: min(5, len(A), len(B))]
    gamma = 1.0 / (d * scale**2)  # kernel values away from 0 and 1
    (left_a, right_a), right_b = _operands(A), _operands(B)[1]
    for X, Y, right, same in ((A, B, right_b, False), (A, A, right_a, True)):
        bound = _gram_bound(X, Y)
        assert (np.abs(sq_dists(X, Y) - gram_sq_dists(X, Y)) <= bound).all()
        K = _gaussian_block(left_a, right, gamma, same)
        K_ref = gram_gaussian_block(A.T, A.T if same else B.T, gamma)
        # gamma times the distances' bound, and exp's own rounding
        assert (np.abs(K - K_ref) <= gamma * bound + EPS).all()


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
def test_same_set_gaussian_blocks_have_a_unit_diagonal(offset):
    # the self-terms of the MMD subtract n for the diagonal; far from the
    # origin the product leaves a point a distance of a few ulps from itself
    X = offset + np.random.default_rng(3).normal(size=(40, 5))
    left, right = _operands(X)
    assert (np.diagonal(_gaussian_block(left, right, 0.7, same=True)) == 1.0).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 39), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_knn_rows_matches_per_row_stable_argsort(n, k, levels, seed):
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    D = rng.integers(0, levels + 1, size=(n, n)).astype(np.float64)  # many ties
    D = D + D.T
    with_equal_rows = D.copy()
    with_equal_rows[rng.random(n) < 0.25] = 1.0  # every entry of the row ties
    for M in (D, with_equal_rows):
        # the panel readers' input: self at infinity, against the tests' reference
        own_at_inf = M.copy()
        np.fill_diagonal(own_at_inf, np.inf)
        for kk in (0, k, n - 1):
            npt.assert_array_equal(_knn_rows(own_at_inf, kk), knn_indices(M, kk))
        # square, short and wide, tall and narrow; k from 0 to every column
        for rows in (M, M[: n // 2 + 1], M[:, : n // 2 + 1]):
            for kk in (0, min(k, rows.shape[1]), rows.shape[1]):
                before = rows.copy()
                got = _knn_rows(rows, kk)
                npt.assert_array_equal(got, np.argsort(rows, axis=1, kind="stable")[:, :kk])
                assert got.shape == (rows.shape[0], kk) and got.base is None  # compact
                npt.assert_array_equal(rows, before)


@pytest.mark.parametrize(
    "m,n", [(129, 129), (257, 257), (300, 40), (40, 300)], ids=["129", "257", "tall", "wide"]
)
def test_knn_rows_across_row_panels(m, n):
    # 64-row panels, as the callers hand them: the last one has one row at
    # 129 and 257 points
    rng = np.random.default_rng(m + n)
    D = rng.integers(0, 3, size=(m, n)).astype(np.float64)  # many ties
    if m == n:
        D = D + D.T
    D[rng.random(m) < 0.1] = 1.0  # every entry of the row ties
    for k in (1, 15, n - 1, n):
        got = np.concatenate([_knn_rows(D[i0:i1], k) for i0, i1 in _row_panels(m)])
        npt.assert_array_equal(got, np.argsort(D, axis=1, kind="stable")[:, :k])
    if m == n:  # the panel reader puts each row's own entry at infinity
        for k in (1, 15, n - 1):
            lists = _NeighbourLists(k)
            for i0, i1 in _row_panels(n):
                lists.read(i0, D[i0:i1])
            order = knn_indices(D, k)
            npt.assert_array_equal(lists.indices, order)
            npt.assert_array_equal(lists.entries, np.take_along_axis(D, order, axis=1))


def test_neighbour_lists_work_in_row_panels():
    n = 1000
    D = sq_dists(np.random.default_rng(0).normal(size=(n, 3)))
    lists = _NeighbourLists(15)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for i0, i1 in _row_panels(n):
            lists.read(i0, D[i0:i1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    npt.assert_array_equal(lists.indices, knn_indices(D, 15))
    # a few rows' copy, their selection and the lists (0.03 n^2 x 8 B),
    # where a copy of the whole matrix would be n^2 and one of a 64-row
    # panel and its selection about 0.13 (measured 0.064)
    assert peak - base <= 0.1 * n * n * 8


@pytest.mark.parametrize("n", [1, 2, 17, 64, 129, 257])
@pytest.mark.parametrize("root", [False, True], ids=["entries", "roots"])
def test_neighbour_lists_are_the_whole_panel_selection(n, root):
    # selected a few rows at a time, the lists of every panel are those of
    # one selection of the whole panel, bit for bit, ties and square roots
    # that tie distinct entries included
    rng = np.random.default_rng(n)
    D = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    D = D + D.T
    D[rng.random(n) < 0.1] = 1.0
    # the next double up: distinct entries whose square roots tie
    D = np.where(rng.random((n, n)) < 0.3, np.nextafter(D, np.inf), D)
    for k in sorted({0, min(1, n - 1), min(15, n - 1), n - 1}):
        lists = _NeighbourLists(k, root=root)
        for i0, i1 in _row_panels(n):
            lists.read(i0, D[i0:i1])
        indices, entries = whole_panel_lists(D, k, root)
        npt.assert_array_equal(lists.indices, indices)
        npt.assert_array_equal(lists.entries.view(np.int64), entries.view(np.int64))


def test_gaussian_kernel_range_and_gamma_zero():
    D2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    K = gaussian_kernel(D2, KernelParams(gamma=1.5))
    npt.assert_allclose(K, [[1.0, math.exp(-3.0)], [math.exp(-3.0), 1.0]])
    npt.assert_array_equal(gaussian_kernel(D2, KernelParams(gamma=0.0)), np.ones((2, 2)))


@given(
    st.integers(1, 20),
    st.integers(1, 30),
    st.integers(1, 30),
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_gaussian_block_matches_public_kernel_bitwise(m, n_a, n_b, gamma, seed):
    # a block of two point sets is the public kernel of their distances; a
    # block of one set is that of its unsymmetrised distances, with its
    # diagonal pinned at 1
    r = np.random.default_rng(seed)
    A, B = r.normal(size=(m, n_a)), r.normal(size=(m, n_b))
    (left, right), right_b = _operands(A.T), _operands(B.T)[1]
    expected = gaussian_kernel(pairwise_sq_dist(A, B), KernelParams(gamma))
    assert _gaussian_block(left, right_b, gamma).tobytes() == expected.tobytes()
    expected = gaussian_kernel(sq_dists(A.T), KernelParams(gamma))
    np.fill_diagonal(expected, 1.0)
    assert _gaussian_block(left, right, gamma, same=True).tobytes() == expected.tobytes()


def _mmd(X, Y):
    return mmd(X, Y, KernelParams(gamma=1.0))


def _mmd_gradient(X, Y):
    return mmd_gradient(X, Y, KernelParams(gamma=1.0))


_OK = np.zeros((2, 3))
_NAN, _INF = np.full((2, 3), np.nan), np.full((2, 3), np.inf)
# id -> (function, first argument, second argument, exact message)
REJECTIONS = {
    "pairwise-non-finite": (pairwise_sq_dist, _NAN, _OK, "X contains non-finite entries"),
    "pairwise-feature-dims": (
        pairwise_sq_dist, _OK, np.zeros((3, 3)), "feature dimensions differ: X has 2 rows, Y has 3"
    ),
    "pairwise-1-d": (
        pairwise_sq_dist, np.zeros(3), _OK, "X must be a 2-D array of column points, got ndim=1"
    ),
    "mmd-non-finite": (_mmd, _OK, _INF, "Y contains non-finite entries"),
    "mmd-feature-dims": (
        _mmd, _OK, np.zeros((3, 3)), "feature dimensions differ: Xp has 2 rows, Y has 3"
    ),
    "mmd-1-d": (_mmd, _OK, np.zeros(3), "Y must be a 2-D array of column points, got ndim=1"),
    "mmd-one-point": (
        _mmd, np.zeros((2, 1)), _OK, "mmd needs >= 2 points on each side, got 1 and 3"
    ),
    "mmd_gradient-non-finite": (_mmd_gradient, -_INF, _OK, "Xp contains non-finite entries"),
    "mmd_gradient-feature-dims": (
        _mmd_gradient, np.zeros((4, 3)), _OK, "feature dimensions differ: Xp has 4 rows, Y has 2"
    ),
    "mmd_gradient-1-d": (
        _mmd_gradient, np.zeros(3), _OK, "Xp must be a 2-D array of column points, got ndim=1"
    ),
    "mmd_gradient-one-point": (
        _mmd_gradient,
        _OK,
        np.zeros((2, 1)),
        "mmd_gradient needs >= 2 points on each side, got 3 and 1",
    ),
}


@pytest.mark.parametrize("fn,X,Y,message", REJECTIONS.values(), ids=REJECTIONS)
def test_public_kernel_functions_reject_bad_arguments(fn, X, Y, message):
    with pytest.raises(ValueError) as excinfo:
        fn(X, Y)
    assert str(excinfo.value) == message


def test_gaussian_kernel_rejects_negative_distances():
    with pytest.raises(ValueError, match="negative"):
        gaussian_kernel(np.array([[-0.1]]), KernelParams(gamma=1.0))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(gamma=-1.0)
    with pytest.raises(ValueError):
        KernelParams(gamma=float("nan"))


def test_mmd_frozen_1d_value():
    X = np.array([[0.0, 1.0]])
    Y = np.array([[2.0, 3.0]])
    assert abs(mmd(X, Y, KernelParams(gamma=1.0)) - MMD_1D_REFERENCE) < 1e-14


def test_mmd_frozen_2d_value():
    v = mmd(X_2D, Y_2D, KernelParams(gamma=0.7))
    assert abs(v - MMD_2D_REFERENCE) < 1e-14


def test_mmd_gradient_frozen_2d_value():
    g = mmd_gradient(X_2D, Y_2D, KernelParams(gamma=0.7))
    npt.assert_allclose(g, MMD_2D_GRAD_REFERENCE, rtol=1e-12, atol=1e-15)


def test_mmd_zero_for_repeated_single_point():
    # Multisets of one repeated point are the exact zeros of the
    # unbiased estimator: every kernel entry is 1 and all three terms
    # cancel (up to the dot-product rounding of the distance matrix).
    X = np.tile(np.array([[0.3], [-1.2]]), (1, 5))
    Y = np.tile(np.array([[0.3], [-1.2]]), (1, 3))
    assert abs(mmd(X, Y, KernelParams(gamma=2.0))) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_mmd_rigid_motion_invariance(seed):
    r = np.random.default_rng(seed)
    X = r.normal(size=(2, 6))
    Y = r.normal(size=(2, 4))
    params = KernelParams(gamma=0.8)
    base = mmd(X, Y, params)
    theta = r.uniform(0, 2 * np.pi)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    t = r.normal(size=(2, 1))
    assert abs(mmd(R @ X + t, R @ Y + t, params) - base) < 1e-9


def test_mmd_positive_for_separated_sets(rng):
    # The cross term vanishes for far-apart sets, leaving the two
    # (positive) within-set terms.
    X = rng.normal(size=(2, 10))
    Y = rng.normal(size=(2, 10)) + 50.0
    assert mmd(X, Y, KernelParams(gamma=1.0)) > 0.05


def test_mmd_requires_two_points_per_side():
    with pytest.raises(ValueError, match=">= 2 points"):
        mmd(np.zeros((2, 1)), np.zeros((2, 3)), KernelParams(gamma=1.0))
    with pytest.raises(ValueError, match=">= 2 points"):
        mmd_gradient(np.zeros((2, 3)), np.zeros((2, 1)), KernelParams(gamma=1.0))


@pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
def test_mmd_gradient_matches_finite_differences(gamma):
    r = np.random.default_rng(17)
    X = r.normal(size=(3, 7))
    Y = r.normal(size=(3, 4))
    params = KernelParams(gamma=gamma)
    g = mmd_gradient(X, Y, params)
    fd = central_fd(lambda Yv: mmd(X, Yv, params), Y)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_mmd_gradient_zero_for_gamma_zero(rng):
    g = mmd_gradient(rng.normal(size=(2, 5)), rng.normal(size=(2, 3)), KernelParams(gamma=0.0))
    npt.assert_array_equal(g, np.zeros((2, 3)))


def test_median_heuristic_hand_value():
    # points 0, 1, 3 -> pairwise squared distances {1, 9, 4}, median 4
    Y = np.array([[0.0, 1.0, 3.0]])
    assert median_heuristic_gamma(Y) == 1.0 / 8.0


def test_median_heuristic_constant_points_fallback():
    assert median_heuristic_gamma(np.ones((3, 5))) == 1.0


def test_median_heuristic_subsample_deterministic(rng):
    Y = rng.normal(size=(2, 600))
    assert median_heuristic_gamma(Y) == median_heuristic_gamma(Y)


def test_normalized_operator_drops_isolated_points(rng):
    A = rng.random((6, 6))
    M = A + A.T
    M[2, :] = M[:, 2] = 0.0  # an isolated point
    matmat, active = _normalized_operator(M, M.sum(axis=1))
    keep = [0, 1, 3, 4, 5]
    npt.assert_array_equal(active, [True, True, False, True, True, True])
    d = M.sum(axis=1)[keep]
    S = matmat(np.eye(6))
    want = M[np.ix_(keep, keep)] / np.sqrt(np.outer(d, d))
    npt.assert_allclose(S[np.ix_(keep, keep)], want, rtol=1e-14)
    assert not S[2].any() and not S[:, 2].any()
    # the dense reference the eigensolver tests build on agrees
    npt.assert_allclose(normalized_adjacency(M)[2], want, rtol=1e-14)
