"""The completion's panel readers against the whole-array computations.

The t-SNE calibration, the UMAP graph's neighbour lists and the
neighbourhood preservation's neighbour lists read a distance completion
by its 64-row panels: fed by the completion's own pass, by a new pass
over a made completion's factors, or by the rows of an array.  Each must
give, bit for bit, what it gives on the whole assembled matrix, at
sizes around the panel height.
"""

import numpy as np
import numpy.testing as npt
import pytest

import feddl.nystrom as nystrom
from feddl.embed import _Calibration, tsne_affinities, umap_graph
from feddl.kernels import _NeighbourLists, pairwise_sq_dist, sq_dists
from feddl.metrics import _npa_lists, npa_knn
from feddl.nystrom import (
    CompletedMatrix,
    CompletionParams,
    LandmarkBlock,
    MatrixKind,
    nystrom_complete,
)
import embed_reference as ref
from helpers import assert_bitwise
from kernels_reference import knn_indices

SIZES = [5, 63, 64, 65, 129, 641]
NPA_KS = (1, 4, 10)


def _settings(n):
    """Perplexity and ``n_neighbors`` that ``n`` points allow."""
    return min(30.0, (n - 1) / 2.0), min(15, n - 1)


def _completion(n, readers=()):
    rng = np.random.default_rng(n)
    X, Y = rng.normal(size=(5, n)), rng.normal(size=(5, 12))
    W = LandmarkBlock(values=pairwise_sq_dist(Y, Y), kind=MatrixKind.DISTANCE)
    return nystrom_complete(pairwise_sq_dist(X, Y), W, CompletionParams(), readers=readers)


def _npa_whole_array(D, Z, ks):
    """``npa_knn`` as it was on the whole array of squared distances."""
    n = Z.shape[0]
    scored = sorted({v for v in ks if v <= n - 1})
    nl = knn_indices(np.sqrt(sq_dists(Z)), scored[-1])
    nh = knn_indices(D, scored[-1])
    out = {}
    for v in scored:
        per_row = [np.isin(nl[i, :v], nh[i, :v]).sum() / v for i in range(n)]
        out[v] = float(np.cumsum(per_row)[-1]) / n
    return out


def _counted_passes(monkeypatch):
    calls, real = [], nystrom._panels
    monkeypatch.setattr(nystrom, "_panels", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("source", ["fed", "made", "array"])
@pytest.mark.parametrize("n", SIZES)
def test_panel_readers_match_the_whole_array(monkeypatch, n, source):
    perplexity, k = _settings(n)
    Z = np.random.default_rng([n, 1]).normal(size=(n, 2))
    D = _completion(n).values
    calibration, lists = _Calibration(perplexity), _NeighbourLists(k, root=True)
    npa = _npa_lists(NPA_KS, n)
    passes = _counted_passes(monkeypatch)
    if source == "array":
        completed = CompletedMatrix(values=D, kind=MatrixKind.DISTANCE)
    else:
        completed = _completion(n, (calibration, lists, npa) if source == "fed" else ())
    P = tsne_affinities(completed, perplexity=perplexity)
    mu = umap_graph(completed, n_neighbors=k)
    scores = npa_knn(completed, Z, k=NPA_KS)
    # the fed readers serve every reader of the matrix from the completion's pass
    assert len(passes) == {"fed": 1, "made": 4, "array": 0}[source]
    P_ref = ref.tsne_affinities(D, perplexity=perplexity)
    assert_bitwise(P.values, P_ref.values)
    assert P.fallback_rows == P_ref.fallback_rows
    assert_bitwise(mu.values, ref.umap_graph(D, k).values)
    assert scores == _npa_whole_array(D, Z, NPA_KS)
    if source != "fed":
        lists = completed.read(lists)
        npa = completed.read(npa)
    root = np.sqrt(D)
    order = knn_indices(root, k)
    assert_bitwise(lists.indices, order)
    assert_bitwise(lists.entries, np.take_along_axis(root, order, axis=1))
    assert_bitwise(npa.indices, knn_indices(D, npa.k))


def test_a_fed_reader_is_handed_out_once(monkeypatch):
    n = 129
    perplexity, _ = _settings(n)
    completed = _completion(n, (_Calibration(perplexity),))
    passes = _counted_passes(monkeypatch)
    first = tsne_affinities(completed, perplexity=perplexity)
    assert passes == []
    # another perplexity, or the same one again, reads a pass of its own
    other = tsne_affinities(completed, perplexity=perplexity / 2)
    again = tsne_affinities(completed, perplexity=perplexity)
    assert len(passes) == 2
    assert_bitwise(first.values, again.values)
    assert not np.array_equal(first.values, other.values)


def test_npa_of_a_mismatched_completion_is_refused():
    completed = _completion(65)
    with pytest.raises(ValueError, match=r"high-dim distances must be 64x64, got \(65, 65\)"):
        npa_knn(completed, np.zeros((64, 2)))
    npt.assert_equal(npa_knn(completed, np.zeros((65, 2)), k=(65,)), {})
