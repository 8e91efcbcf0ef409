"""Evaluation metrics for embeddings and clusterings.

* ``ca_knn`` — classification accuracy of a k-nearest-neighbour vote on
  a stratified train/test split of the embedding;
* ``npa_knn`` — neighbourhood preservation: mean overlap between each
  point's k nearest neighbours under the high-dimensional distances and
  under the embedding;
* ``nmi`` — normalised mutual information with geometric normalisation
  ``I(a; b) / sqrt(H(a) H(b))``;
* ``silhouette`` — mean silhouette coefficient (singletons score 0);
* ``ari`` — adjusted Rand index.

``MetricsReport`` bundles one run's numbers, in the rows that
``metrics.csv`` holds.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .kernels import _NeighbourLists, _distances, _operands, _row_panels, knn_indices
from .nystrom import CompletedMatrix, MatrixKind
from .privacy import stream_rng

__all__ = [
    "MetricsReport",
    "ca_knn",
    "npa_knn",
    "nmi",
    "silhouette",
    "ari",
]


def _check_labels(labels, n: int, name: str = "labels") -> np.ndarray:
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != n:
        raise ValueError(f"{name} must be 1-D of length {n}, got shape {lab.shape}")
    return lab


def _ks(k: Sequence[int]) -> tuple[int, ...]:
    if min(k, default=1) < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    return tuple(k)


def _panel_sq_dists(A: np.ndarray, B: np.ndarray | None = None, bounds=None):
    """``(r0, D)`` for each row panel ``[r0, r1)`` of ``bounds`` (by
    default the 64-row panels, ``kernels._row_panels``) of the squared
    distances between the rows of ``A`` and those of ``B`` (default
    ``A``): the panel's product of the operands, built once."""
    left, right = _operands(A)
    if B is not None:
        right = _operands(B)[1]
    for r0, r1 in _row_panels(A.shape[0]) if bounds is None else bounds:
        yield r0, _distances(left[r0:r1], right)


def ca_knn(
    Z: np.ndarray,
    labels,
    k: Sequence[int] = (10,),
    split_ratio: float = 0.7,
    seed: int = 0,
) -> dict[int, float]:
    """k-NN classification accuracy on a stratified split of ``Z``, per k.

    Per class, a ``split_ratio`` fraction (rounded, at least one point)
    goes to the training side.  Votes are majority with ties resolved
    toward the smallest label id; neighbour ties resolve by index.  One
    split and one neighbour ordering serve every k: the result maps each
    k the split can score to its accuracy, so a k above the training
    side's size, or any k when the test side is empty, gets no entry.
    The test points' neighbours are selected on 64-row panels of their
    distances to the training side, so no test x train array is held.
    """
    ks = _ks(k)
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    lab = _check_labels(labels, n)
    if not (0 < split_ratio < 1):
        raise ValueError(f"split_ratio must lie in (0, 1), got {split_ratio!r}")
    rng = stream_rng(seed, "ca_split")
    classes, enc = np.unique(lab, return_inverse=True)
    train_idx, test_idx = [], []
    for ci in range(classes.size):
        members = np.flatnonzero(enc == ci)
        members = members[rng.permutation(members.size)]
        n_train = min(max(int(round(split_ratio * members.size)), 1), members.size)
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    scored = {v for v in ks if v <= train.size} if test.size else set()
    k_max = max(scored, default=0)
    # a stable ordering: its first k columns are exactly the k nearest
    nearest = np.empty((test.size, k_max), dtype=np.intp)
    for r0, D in _panel_sq_dists(Z[test], Z[train]):
        nearest[r0 : r0 + D.shape[0]] = knn_indices(D, k_max, exclude_self=False)
    votes = enc[train][nearest]
    counts = np.zeros((test.size, classes.size), dtype=np.int64)
    acc = {}
    for j in range(k_max):
        np.add.at(counts, (np.arange(test.size), votes[:, j]), 1)
        if j + 1 in scored:
            pred = counts.argmax(axis=1)  # argmax returns the smallest index on ties
            acc[j + 1] = float(np.mean(pred == enc[test]))
    return acc


def _npa_lists(ks: Sequence[int], n: int) -> _NeighbourLists:
    """The panel reader of ``npa_knn``'s high-dimensional neighbour lists
    at ``ks`` on ``n`` points: one selection of the largest k it scores."""
    return _NeighbourLists(max((v for v in _ks(ks) if v <= n - 1), default=0))


def npa_knn(D_high, Z: np.ndarray, k: Sequence[int] = (10,)) -> dict[int, float]:
    """Neighbourhood preservation of the embedding, per k: the mean
    fraction of each point's k nearest high-dimensional neighbours that
    are also among its k nearest embedding neighbours.

    ``D_high`` is a distance-kind completion or an array checked as one.
    Self is excluded; ties break by index.  One ordering per side serves
    every k: the result maps each k up to n - 1 to its score, and a
    larger k gets no entry.  The high-dimensional ordering is selected on
    the 64-row panels of ``D_high`` by a panel reader (``_npa_lists``),
    the one the completion's pass fed when there is one, and the
    embedding's by the same reader on the 64-row panels of its distances,
    ranked on their square roots, so neither side holds an n x n array.
    """
    ks = _ks(k)
    completed = CompletedMatrix.coerce(D_high, MatrixKind.DISTANCE)
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if completed.n_points != n:
        m = completed.n_points
        raise ValueError(f"high-dim distances must be {n}x{n}, got {(m, m)}")
    scored = sorted({v for v in ks if v <= n - 1})
    if not scored:
        return {}
    # stable orderings: their first k columns are exactly the k nearest
    nh = completed.read(_npa_lists(ks, n)).indices
    low = _NeighbourLists(scored[-1], root=True)
    for r0, D in _panel_sq_dists(Z):
        low.read(r0, D)
    nl = low.indices
    # neighbour j of row i as the flat index i n + j: sorting each row of
    # the high-dimensional lists sorts them all, so one search tests every
    # embedding neighbour for membership in its row's list
    offsets = np.arange(n)[:, None] * n
    out = {}
    for v in scored:
        high = (np.sort(nh[:, :v], axis=1) + offsets).ravel()
        low = (nl[:, :v] + offsets).ravel()
        found = high[np.minimum(np.searchsorted(high, low), high.size - 1)] == low
        per_row = found.reshape(n, v).sum(axis=1) / v
        # accumulated left to right: a pairwise sum would move the last bit of the metric
        out[v] = float(np.cumsum(per_row)[-1]) / n
    return out


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def nmi(a, b) -> float:
    """Normalised mutual information ``I(a;b) / sqrt(H(a) H(b))``.

    When either labelling has zero entropy: 1.0 if both are the same
    single-class labelling, otherwise 0.0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("nmi needs two equal-length non-empty 1-D labellings")
    n = a.size
    table = _contingency(a, b)
    ha = _entropy(table.sum(axis=1), n)
    hb = _entropy(table.sum(axis=0), n)
    if ha == 0.0 or hb == 0.0:
        return 1.0 if ha == hb == 0.0 else 0.0
    nz = table > 0
    nij = table[nz].astype(np.float64)
    outer = (table.sum(axis=1)[:, None] * table.sum(axis=0)[None, :])[nz]
    mi = float((nij / n * np.log(n * nij / outer)).sum())
    return mi / math.sqrt(ha * hb)


def _sum_panels(n: int) -> list[tuple[int, int]]:
    """The 64-row panels of n rows (``kernels._row_panels``), a last panel
    of one row joined to the one before it."""
    bounds = _row_panels(n)
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        bounds[-2:] = [(bounds[-2][0], n)]
    return bounds


def _cluster_sums(Z: np.ndarray, enc: np.ndarray, n_classes: int) -> np.ndarray:
    """``sums[i, c]``: the total distance from point ``i`` to the points of
    cluster ``c``, gathered from the row panels (``_sum_panels``) of the
    distances between the rows of ``Z``.  numpy sums a gather of two or
    more rows column by column in index order, as it does the whole-array
    gather ``D[:, enc == c]``, but a one-row gather pairwise, so no panel
    has one row."""
    members = [np.flatnonzero(enc == ci) for ci in range(n_classes)]
    sums = np.zeros((Z.shape[0], n_classes))
    for r0, D in _panel_sq_dists(Z, bounds=_sum_panels(Z.shape[0])):
        np.sqrt(D, out=D)
        for ci, cols in enumerate(members):
            sums[r0 : r0 + D.shape[0], ci] = D[:, cols].sum(axis=1)
    return sums


def silhouette(Z: np.ndarray, labels) -> float:
    """Mean silhouette coefficient over all points.

    Per point ``(b - a) / max(a, b)`` with ``a`` the mean distance to its
    own cluster (excluding itself) and ``b`` the smallest mean distance
    to another cluster.  Singleton-cluster points score 0; a 0/0 (all
    coincident points) also scores 0.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    lab = _check_labels(labels, n)
    classes, enc = np.unique(lab, return_inverse=True)
    if classes.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    sizes = np.bincount(enc, minlength=classes.size)
    sums = _cluster_sums(Z, enc, classes.size)
    rows = np.arange(n)
    own = sizes[enc]
    means = sums / sizes[None, :]
    means[rows, enc] = np.inf
    b = means.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, enc] / (own - 1)
        denom = np.maximum(a, b)
        # singletons and 0/0 (all coincident points) score 0
        scores = np.where((own > 1) & (denom != 0.0), (b - a) / denom, 0.0)
    return float(scores.mean())


def _comb2(x: np.ndarray) -> float:
    x = x.astype(np.float64)
    return float((x * (x - 1.0) / 2.0).sum())


def ari(a, b) -> float:
    """Adjusted Rand index via pair counting.

    Degenerate cases where the expected and maximum index coincide
    (both labellings trivial and identical) return 1.0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("ari needs two equal-length non-empty 1-D labellings")
    n = a.size
    table = _contingency(a, b)
    index = _comb2(table.ravel())
    sum_a = _comb2(table.sum(axis=1))
    sum_b = _comb2(table.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return (index - expected) / denom


@dataclass(frozen=True)
class MetricsReport:
    """Metrics of a single run."""

    ca: dict[int, float] = field(default_factory=dict)
    npa: dict[int, float] = field(default_factory=dict)
    nmi: float | None = None
    sc: float | None = None
    ari: float | None = None

    def rows(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        for k in sorted(self.ca):
            out.append((f"ca_knn_{k}", self.ca[k]))
        for k in sorted(self.npa):
            out.append((f"npa_knn_{k}", self.npa[k]))
        for name in ("nmi", "sc", "ari"):
            v = getattr(self, name)
            if v is not None:
                out.append((name, v))
        return out
