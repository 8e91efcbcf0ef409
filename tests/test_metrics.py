import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

import feddl.metrics as metrics
from feddl.kernels import sq_dists
from feddl.metrics import (
    MetricsReport,
    ari,
    ca_knn,
    nmi,
    npa_knn,
    silhouette,
)
from feddl.metrics import _cluster_sums, _panel_sq_dists, _sum_panels
from feddl.nystrom import CompletedMatrix, MatrixKind
from kernels_reference import knn_indices

# frozen output of tests/oracles/gen_embed_metrics_reference.py
NMI_REFERENCE = 0.34559202994421136  # labels 0011 vs 0111
ARI_REFERENCE = 0.0
NMI_SPLIT_REFERENCE = 0.81649658092772603  # labels 0011 vs 0012
ARI_SPLIT_REFERENCE = 4.0 / 7.0
SILHOUETTE_REFERENCE = 870281 / 939120  # points [0, .5, 10, 11], labels 0011


def test_nmi_frozen_values():
    assert nmi([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(NMI_REFERENCE, abs=1e-13)
    assert nmi([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(NMI_SPLIT_REFERENCE, abs=1e-13)


def test_ari_frozen_values():
    assert ari([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(ARI_REFERENCE, abs=1e-13)
    assert ari([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(ARI_SPLIT_REFERENCE, abs=1e-13)


def test_nmi_ari_perfect_and_permuted():
    a = [0, 0, 1, 1, 2, 2]
    b = [2, 2, 0, 0, 1, 1]  # same partition, renamed labels
    assert nmi(a, a) == pytest.approx(1.0)
    assert nmi(a, b) == pytest.approx(1.0)
    assert ari(a, b) == pytest.approx(1.0)


def test_nmi_zero_entropy_conventions():
    const = [5, 5, 5, 5]
    assert nmi(const, const) == 1.0  # equal trivial partitions
    assert nmi(const, [0, 1, 0, 1]) == 0.0  # one side uninformative
    assert ari(const, const) == 1.0


def test_nmi_independent_labelings_near_zero():
    r = np.random.default_rng(0)
    a = r.integers(0, 4, size=3000)
    b = r.integers(0, 4, size=3000)
    assert abs(nmi(a, b)) < 0.01
    assert abs(ari(a, b)) < 0.01


def test_nmi_validation():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        ari([], [])


def test_silhouette_frozen_value():
    Z = np.array([[0.0], [0.5], [10.0], [11.0]])
    assert silhouette(Z, [0, 0, 1, 1]) == pytest.approx(SILHOUETTE_REFERENCE, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    Z = np.array([[0.0], [1.0], [10.0]])
    # point 2 is a singleton cluster -> contributes 0
    expected = (Fraction(9, 10) + Fraction(8, 9) + 0) / 3
    assert silhouette(Z, [0, 0, 1]) == pytest.approx(float(expected), abs=1e-12)


def test_silhouette_coincident_points_zero():
    Z = np.zeros((4, 2))
    assert silhouette(Z, [0, 0, 1, 1]) == 0.0


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError, match="two clusters"):
        silhouette(np.zeros((3, 1)), [0, 0, 0])


@pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 600, 641])
def test_cluster_sums_by_row_panels_are_the_whole_array_sums(n):
    # 64-row panels: at 65, 129 and 641 points the last row joins the panel before it
    rng = np.random.default_rng(n)
    Z = rng.normal(size=(n, 3))
    enc = np.arange(n) % 2 if n < 5 else rng.integers(0, 5, size=n)
    D = np.sqrt(np.vstack([P for _, P in _panel_sq_dists(Z, bounds=_sum_panels(n))]))
    expected = np.stack([D[:, enc == c].sum(axis=1) for c in range(enc.max() + 1)], axis=1)
    npt.assert_array_equal(_cluster_sums(Z, enc, enc.max() + 1), expected)


def _whole_array(monkeypatch):
    """Make the metrics take the embedding's distances as one whole
    array, the way they did before they took them by row panels."""
    monkeypatch.setattr(
        metrics, "_panel_sq_dists", lambda A, B=None, bounds=None: iter([(0, sq_dists(A, B))])
    )


@pytest.mark.parametrize("n", [5, 63, 64, 65, 129, 641])
def test_metrics_by_row_panels_match_the_whole_array(monkeypatch, n):
    # a last panel of one row at 65, 129 and 641 points
    rng = np.random.default_rng([n, 7])
    X = rng.normal(size=(n, 5))
    Z = X[:, :2] + 0.3 * rng.normal(size=(n, 2))
    Z[3] = Z[1]  # tied embedding distances
    labels = rng.integers(0, 3, size=n)
    Dh = CompletedMatrix(values=sq_dists(X), kind=MatrixKind.DISTANCE)
    ks = (1, 4, 10)
    panels = npa_knn(Dh, Z, ks), ca_knn(Z, labels, ks, seed=n), silhouette(Z, labels)
    _whole_array(monkeypatch)
    whole = npa_knn(Dh, Z, ks), ca_knn(Z, labels, ks, seed=n), silhouette(Z, labels)
    assert panels[:2] == whole[:2]
    # the panels' distances may differ from the whole product's in the last bit
    assert abs(panels[2] - whole[2]) <= 1e-15 * abs(whole[2])


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_npa_and_silhouette_hold_no_n_by_n_array():
    n = 1000
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 5))
    Dh = CompletedMatrix(values=sq_dists(X), kind=MatrixKind.DISTANCE)
    Z = X[:, :2] + 0.3 * rng.normal(size=(n, 2))
    n2 = n * n * 8
    # each side's 64-row panels of the distances and their selection, and
    # the neighbour lists
    assert _traced_peak(npa_knn, Dh, Z, [10, 30]) <= 0.35 * n2
    # the 64-row panels of the distances and their gathers of a cluster's columns
    assert _traced_peak(silhouette, Z, rng.integers(0, 5, size=n)) <= 0.2 * n2
    # the test points' 64-row panels of their distances to the training side
    assert _traced_peak(ca_knn, Z, rng.integers(0, 5, size=n)) <= 0.15 * n2


def test_ca_perfectly_separated_clusters():
    r = np.random.default_rng(1)
    Z = np.vstack([r.normal(size=(20, 2)), r.normal(size=(20, 2)) + 100.0])
    labels = np.repeat([0, 1], 20)
    assert ca_knn(Z, labels, k=(1, 5), seed=0) == {1: 1.0, 5: 1.0}


def test_ca_split_is_seeded_and_validated(rng):
    Z = rng.normal(size=(30, 2))
    labels = rng.integers(0, 3, size=30)
    assert ca_knn(Z, labels, k=(3,), seed=4) == ca_knn(Z, labels, k=(3,), seed=4)
    # a k above the training side's size gets no entry
    assert ca_knn(Z, labels, k=(25,), seed=0) == {}
    with pytest.raises(ValueError, match="split_ratio"):
        ca_knn(Z, labels, k=(1,), split_ratio=1.0)


def test_npa_identical_geometry_full_overlap(rng):
    Z = rng.normal(size=(25, 2))
    diff = Z[:, None, :] - Z[None, :, :]
    D_high = np.sqrt((diff**2).sum(axis=2))
    assert npa_knn(D_high, Z, k=(5,)) == {5: 1.0}


def _npa_knn_reference(Dh: np.ndarray, Z: np.ndarray, ks: list[int]) -> dict[int, float]:
    """``npa_knn``'s scores as they were computed with an n x n membership
    mask of the high-dimensional neighbours per k."""
    n = Z.shape[0]
    nl = knn_indices(np.sqrt(sq_dists(Z)), max(ks))
    nh = knn_indices(Dh, max(ks))
    out = {}
    for v in ks:
        in_high = np.zeros((n, n), dtype=bool)
        np.put_along_axis(in_high, nh[:, :v], True, axis=1)
        per_row = np.take_along_axis(in_high, nl[:, :v], axis=1).sum(axis=1) / v
        out[v] = float(np.cumsum(per_row)[-1]) / n
    return out


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_npa_matches_the_mask_reference(rng, ties):
    X = rng.normal(size=(200, 5))
    Z = X[:, :2] + 0.3 * rng.normal(size=(200, 2))
    if ties:  # integer grids: many equal distances on both sides
        X, Z = np.round(2 * X), np.round(2 * Z)
    Dh = sq_dists(X)
    ks = [1, 2, 10, 50, 199]
    assert npa_knn(Dh, Z, k=ks) == _npa_knn_reference(Dh, Z, ks)


def test_npa_validation(rng):
    Z = rng.normal(size=(10, 2))
    D = np.zeros((10, 10))
    with pytest.raises(ValueError, match="k must be >= 1"):
        npa_knn(D, Z, k=(0,))
    with pytest.raises(ValueError, match="must be"):
        npa_knn(np.zeros((9, 9)), Z, k=(3,))


def test_report_rows_ordering():
    rep = MetricsReport(
        ca={10: 0.9, 1: 0.8}, npa={10: 0.7}, nmi=0.5, sc=0.4, ari=0.3
    )
    names = [name for name, _ in rep.rows()]
    assert names == ["ca_knn_1", "ca_knn_10", "npa_knn_10", "nmi", "sc", "ari"]


def test_sequence_k_scores_every_k_from_one_ordering(rng):
    # integer coordinates give tied distances, so the tie-break is exercised
    Z = rng.integers(0, 4, size=(40, 2)).astype(float)
    labels = rng.integers(0, 3, size=40)
    D_high = rng.integers(0, 5, size=(40, 40)).astype(float)
    D_high = D_high + D_high.T
    ca = ca_knn(Z, labels, k=(10, 1, 3, 500), split_ratio=0.6, seed=2)
    assert ca == {
        k: ca_knn(Z, labels, k=(k,), split_ratio=0.6, seed=2)[k] for k in (1, 3, 10)
    }
    npa = npa_knn(D_high, Z, k=(5, 1, 39, 40))
    assert npa == {k: npa_knn(D_high, Z, k=(k,))[k] for k in (1, 5, 39)}
    # a k above n - 1 gets no entry
    assert npa_knn(D_high, Z, k=(40,)) == {}
    # one class per point leaves the test side empty: no k can be scored
    assert ca_knn(Z, np.arange(40), k=(1, 3)) == {}
    with pytest.raises(ValueError, match="k must be >= 1"):
        ca_knn(Z, labels, k=(0, 3))
