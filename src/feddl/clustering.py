"""Spectral clustering on a completed kernel matrix, plus k-means.

The spectral path follows the normalised-cut recipe: with degree matrix
``Dg``, form ``L = I - Dg^{-1/2} K Dg^{-1/2}``, take the eigenvectors of
the ``c`` smallest eigenvalues, normalise the rows of the resulting
``n x c`` spectral embedding to unit length, and run k-means on them.

k-means is implemented here (rather than pulled in) because its exact
semantics are pinned: k-means++ seeding, Lloyd iterations until the
relative inertia change drops below 1e-6 (or 300 iterations), and empty
clusters re-seeded at the point farthest from its assigned centroid —
all deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import normalized_adjacency, sq_dists
from .nystrom import CompletedMatrix, MatrixKind

__all__ = ["ClusterAssignment", "kmeans", "spectral_cluster"]


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster labels in ``[0, n_clusters)`` plus the k-means inertia."""

    labels: np.ndarray
    n_clusters: int
    inertia: float


def _kmeans_pp_init(Z: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first centre uniform, then proportional to the
    squared distance to the nearest chosen centre."""
    n = Z.shape[0]
    centers = np.empty((c, Z.shape[1]))
    first = int(rng.integers(n))
    centers[0] = Z[first]
    d2 = np.einsum("ij,ij->i", Z - centers[0], Z - centers[0])
    for j in range(1, c):
        total = float(d2.sum())
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = Z[idx]
        dj = np.einsum("ij,ij->i", Z - centers[j], Z - centers[j])
        np.minimum(d2, dj, out=d2)
    return centers


def _kmeans_single(
    Z: np.ndarray, c: int, rng: np.random.Generator, max_iter: int, rel_tol: float
) -> ClusterAssignment:
    n = Z.shape[0]
    centers = _kmeans_pp_init(Z, c, rng)
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


def kmeans(
    Z: np.ndarray,
    c: int,
    seed: int = 0,
    max_iter: int = 300,
    rel_tol: float = 1e-6,
    n_init: int = 10,
) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init``
    restarts by inertia.

    Ties in the assignment step go to the lowest cluster index.  An empty
    cluster is re-seeded at the point currently farthest from its
    assigned centroid.  Restarts draw from per-restart substreams of the
    seed, so the result is deterministic; on an inertia tie the earliest
    restart wins.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise ValueError(f"k-means needs a non-empty 2-D array, got shape {Z.shape}")
    n = Z.shape[0]
    if not (1 <= c <= n):
        raise ValueError(f"cluster count must lie in [1, {n}], got {c}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    best: ClusterAssignment | None = None
    for restart in range(n_init):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4, restart]))
        cand = _kmeans_single(Z, c, rng, max_iter, rel_tol)
        if best is None or cand.inertia < best.inertia:
            best = cand
    return best


def spectral_cluster(K, c: int, seed: int = 0) -> ClusterAssignment:
    """Normalised spectral clustering of a symmetric non-negative
    similarity matrix (kernel-kind completion or plain array).

    Points with exactly zero degree cannot be related to anything: each
    one is put in its own extra singleton cluster (appended after the
    ``c`` spectral clusters); any point with a nonzero row participates
    in the spectral embedding as usual.
    """
    Kv = CompletedMatrix.coerce(K, MatrixKind.KERNEL).values
    n = Kv.shape[0]
    if not (2 <= c <= n):
        raise ValueError(f"cluster count must lie in [2, {n}], got {c}")

    _, active, S = normalized_adjacency(Kv)
    n_active = int(active.sum())
    if n_active < c:
        raise ValueError(
            f"only {n_active} points have nonzero degree; cannot form {c} clusters"
        )
    Lsym = np.eye(n_active) - S
    Lsym = 0.5 * (Lsym + Lsym.T)
    _, vecs = scipy.linalg.eigh(Lsym, subset_by_index=(0, c - 1))
    norms = np.linalg.norm(vecs, axis=1)
    rows = np.where(norms[:, None] > 0, vecs / np.where(norms == 0, 1.0, norms)[:, None], 0.0)
    inner = kmeans(rows, c, seed=seed)

    labels = np.empty(n, dtype=np.int64)
    labels[active] = inner.labels
    n_extra = 0
    for i in np.flatnonzero(~active):
        labels[i] = c + n_extra
        n_extra += 1
    return ClusterAssignment(labels=labels, n_clusters=c + n_extra, inertia=inner.inertia)
