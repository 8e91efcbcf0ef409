"""The UMAP graph as sparse rows against the dense n x n memberships.

``umap_graph`` keeps the fuzzy union's non-zero entries as a ``CSRGraph``,
and the descent reads its edge lists, its canonical ranking and its
starting layout from those rows.  The entries, the edge lists, the
entropy and the ranking must have the bits the dense memberships give.
The layout must lie in the leading non-trivial eigenspace of the dense
normalised adjacency, by ``np.linalg.eigh``, wherever its eigensolver
converged, and must hold at least as much of it as the 50 subspace
steps it replaced.  Sizes sit around the 64-row panel height, with
spread and with tied distances.
"""

import numpy as np
import numpy.testing as npt
import pytest

import embed_reference as ref
from feddl import clustering
from feddl.embed import (
    _START_MAXITER,
    CSRGraph,
    _canonical_rank,
    _ce_constants,
    _spectral_layout,
    umap_graph,
)
from feddl.kernels import pairwise_sq_dist
from helpers import assert_bitwise
from kernels_reference import normalized_adjacency

SIZES = [5, 63, 64, 65, 129, 641]


def _sq_distances(n, tied):
    X = np.random.default_rng(n).normal(size=(4, n))
    if tied:  # points on a coarse grid: many tied distances, some coincident points
        X = np.round(2.0 * X)
    return pairwise_sq_dist(X, X)


def _leading_nontrivial(M, dim):
    """An orthonormal basis of the ``dim`` leading eigenvectors of the
    dense normalised adjacency of ``M`` orthogonal to ``sqrt(deg)``, by
    ``np.linalg.eigh`` on that complement of the active points, and 0 on
    the points of degree <= 0."""
    deg, active, S = normalized_adjacency(M.copy())
    t = np.sqrt(deg[active])
    m = t.size
    # the last m - 1 columns of the QR of [t | I] span the complement of t
    C = np.linalg.qr(np.column_stack([t, np.eye(m)]))[0][:, 1:m]
    _, U = np.linalg.eigh(C.T @ S @ C)
    basis = np.zeros((M.shape[0], dim))
    basis[active] = C @ U[:, : -dim - 1 : -1]
    return basis


def _ritz_sum(M, layout):
    """The sum of the Ritz values of the dense normalised adjacency of
    ``M`` on the span of ``layout`` (Ky Fan: at most the sum of as many
    leading eigenvalues)."""
    _, active, S = normalized_adjacency(M.copy())
    V = np.linalg.qr(layout[active])[0]
    return float(np.trace(V.T @ S @ V))


def _counted_layout(G, out_dim, noise):
    """``_spectral_layout`` and the number of its operator applications."""
    calls, real = [], clustering._scaled_product
    with pytest.MonkeyPatch.context() as m:
        m.setattr(clustering, "_scaled_product", lambda *args: calls.append(1) or real(*args))
        layout = _spectral_layout(G, out_dim, noise)
    return layout, len(calls)


def _assert_graph_matches_dense(G, M):
    """The entries, edge lists, entropy and ranking of the graph ``G`` are
    those of the dense ``M`` bit for bit, and its layout lies in the dense
    leading non-trivial eigenspace: within a principal angle of 1e-6
    where the block converged, in fewer than ``_START_MAXITER`` operator
    applications, or the dense path solved it, and with Ritz values
    summing at least as high as the old loop's
    (``embed_reference.spectral_layout``) everywhere."""
    dense = CSRGraph.from_dense(M, "mu")
    for name in ("indptr", "indices", "data"):
        assert_bitwise(getattr(G, name), getattr(dense, name))
    constants = _ce_constants(G)
    edges, entropy = ref.panel_ce_constants(M)
    assert len(constants.edges) == len(edges)
    for got, want in zip(constants.edges, edges):
        for a, b in zip(got, want):
            assert_bitwise(a, b)
    assert constants.entropy == entropy
    npt.assert_array_equal(_canonical_rank(G), ref._canonical_rank(M))
    n = M.shape[0]
    for out_dim in (2, 3):
        noise = np.random.default_rng([n, out_dim]).normal(size=(n, out_dim))
        layout, applied = _counted_layout(G, out_dim, noise)
        assert np.isfinite(layout).all() and np.abs(layout).max() == pytest.approx(10.0)
        assert applied <= _START_MAXITER
        assert not layout[M.sum(axis=1) <= 0].any()
        if applied < _START_MAXITER:
            V = np.linalg.qr(layout)[0]
            basis = _leading_nontrivial(M, out_dim)
            assert np.linalg.norm(V - basis @ (basis.T @ V), 2) <= 1e-6
        # converged or not, it holds at least as much of the leading
        # eigenspace as the 50 subspace steps it replaced did
        old = ref.spectral_layout(M, out_dim, noise)
        assert _ritz_sum(M, layout) >= _ritz_sum(M, old) - 1e-12


@pytest.mark.parametrize("tied", [False, True], ids=["spread", "tied"])
@pytest.mark.parametrize("n", SIZES)
def test_sparse_graph_is_the_dense_graph(n, tied):
    D = _sq_distances(n, tied)
    k = min(15, n - 1)
    G = umap_graph(D, n_neighbors=k)
    assert isinstance(G.matrix, CSRGraph)
    M = ref.umap_graph(D, k).values
    assert_bitwise(G.values, M)
    _assert_graph_matches_dense(G.matrix, M)


@pytest.mark.parametrize("n", [65, 129])
def test_graph_of_any_signs_and_isolated_points_matches_dense(n):
    # negative entries sort before a row's zeros; a point of degree <= 0,
    # with entries or without, is left out of the layout's operator
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.1)
    M = M + M.T
    M[3], M[:, 3] = 0.0, 0.0
    assert (M.sum(axis=1) <= 0).sum() > 1
    _assert_graph_matches_dense(CSRGraph.from_dense(M, "mu"), M)


@pytest.mark.parametrize("out_dim", [2, 3])
@pytest.mark.parametrize("n", range(2, 8))
def test_layout_of_a_few_points_is_finite_and_equivariant(n, out_dim):
    # below 5 out_dim points the dense path solves the start; at n = 2 a
    # block of 3 out_dim columns could not be held, and the one
    # non-trivial direction fills the first column alone
    rng = np.random.default_rng([n, out_dim])
    for k in range(1, n):
        X = rng.normal(size=(3, n))
        M = umap_graph(pairwise_sq_dist(X, X), n_neighbors=k).values
        noise = rng.normal(size=(n, out_dim))
        layout = _spectral_layout(CSRGraph.from_dense(M, "mu"), out_dim, noise)
        assert np.isfinite(layout).all() and np.abs(layout).max() == pytest.approx(10.0)
        assert not layout[:, n - 1 :].any()  # t's complement has n - 1 directions
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(n)
            G = CSRGraph.from_dense(M[np.ix_(perm, perm)], "mu")
            npt.assert_allclose(_spectral_layout(G, out_dim, noise[perm]), layout[perm], atol=1e-9)
