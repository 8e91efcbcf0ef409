"""The UMAP graph as sparse rows against the dense n x n memberships.

``umap_graph`` keeps the fuzzy union's non-zero entries as a ``CSRGraph``,
and the descent reads its edge lists, its canonical ranking and its
starting layout from those rows.  The entries, the edge lists, the
entropy and the ranking must have the bits the dense memberships give;
the layout, whose products sum each row in another order, must agree
with the dense one to within 1e-10.  Sizes sit around the 64-row panel
height, with spread and with tied distances.
"""

import numpy as np
import numpy.testing as npt
import pytest

import embed_reference as ref
from feddl.embed import (
    CSRGraph,
    _canonical_rank,
    _ce_constants,
    _spectral_layout,
    umap_graph,
)
from feddl.kernels import pairwise_sq_dist
from helpers import assert_bitwise

SIZES = [5, 63, 64, 65, 129, 641]


def _sq_distances(n, tied):
    X = np.random.default_rng(n).normal(size=(4, n))
    if tied:  # points on a coarse grid: many tied distances, some coincident points
        X = np.round(2.0 * X)
    return pairwise_sq_dist(X, X)


def _assert_graph_matches_dense(G, M):
    """The entries, edge lists, entropy and ranking of the graph ``G`` are
    those of the dense ``M`` bit for bit, and its layout is within 1e-10."""
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
        gap = np.abs(_spectral_layout(G, out_dim, noise) - ref.spectral_layout(M, out_dim, noise))
        assert gap.max() <= 1e-10


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
    # with entries or without, is left out of the layout's iteration
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.1)
    M = M + M.T
    M[3], M[:, 3] = 0.0, 0.0
    assert (M.sum(axis=1) <= 0).sum() > 1
    _assert_graph_matches_dense(CSRGraph.from_dense(M, "mu"), M)
