"""Spectral clustering on a completed kernel matrix, plus k-means.

The spectral path follows the normalised-cut recipe: with degree matrix
``Dg``, take the eigenvectors of the ``c`` smallest eigenvalues of
``L = I - Dg^{-1/2} K Dg^{-1/2}`` (the ``c`` largest of
``S = Dg^{-1/2} K Dg^{-1/2}``), normalise the rows of the resulting
``n x c`` spectral embedding to unit length, and run k-means on them.

The eigenvectors come from LOBPCG (``scipy.sparse.linalg.lobpcg``) on
the operator ``X -> d ⊙ (K @ (d ⊙ X))`` with ``d = deg^{-1/2}`` on
points of nonzero degree and 0 elsewhere, so neither ``S`` nor ``L`` nor
any other n x n intermediate is formed.  The starting block is drawn
from ``SeedSequence([seed, 9])`` and LOBPCG draws nothing itself, so a
rerun is byte-identical.  A dense LAPACK eigensolve of ``L`` is the one
fallback: it runs when fewer than ``5 c`` points are active (too few for
a block of ``c`` vectors) or when the returned block is not orthonormal
or has an eigen-residual ``|S v - lambda v|`` above 1e-6.

k-means is implemented here (rather than pulled in) because its exact
semantics are pinned: k-means++ seeding, Lloyd iterations until the
relative inertia change drops below 1e-6 (or 300 iterations), and empty
clusters re-seeded at the point farthest from its assigned centroid —
all deterministic for a given seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import normalized_adjacency, sq_dists
from .nystrom import CompletedMatrix, MatrixKind

__all__ = ["ClusterAssignment", "kmeans", "spectral_cluster"]

#: ``SeedSequence([seed, 9])`` draws the LOBPCG starting block; tags 1-8
#: are other streams of the same seed.
_START_STREAM_TAG = 9
_LOBPCG_TOL = 1e-8
_LOBPCG_MAXITER = 200
#: largest eigen-residual (and orthonormality gap) of an accepted block
_RESIDUAL_TOL = 1e-6


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


def _dense_embedding(Kv: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``c`` eigenpairs of ``S`` on the active points, by a dense
    LAPACK eigensolve of ``L = I - S`` (the fallback of the iterative
    path and the reference its tests compare against)."""
    _, active, S = normalized_adjacency(Kv)
    Lsym = np.eye(S.shape[0]) - S
    Lsym = 0.5 * (Lsym + Lsym.T)
    w, vecs = scipy.linalg.eigh(Lsym, subset_by_index=(0, c - 1))
    return 1.0 - w, vecs


def _iterative_embedding(
    Kv: np.ndarray, deg: np.ndarray, active: np.ndarray, c: int, seed: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Leading ``c`` eigenpairs of ``d ⊙ (K @ (d ⊙ X))`` by LOBPCG from a
    seeded starting block, or ``None`` when the returned block is not an
    orthonormal set of eigenvectors within ``_RESIDUAL_TOL``.

    ``d`` is ``deg^{-1/2}`` on the ``active`` points and 0 elsewhere.
    Inactive rows and columns of a non-negative ``K`` are all zero, so the
    operator runs on the full ``K`` with vectors that are zero on the
    inactive points, and nothing of size n x n is formed.
    """
    # Imported here, not at module level, so that commands which never
    # cluster do not pay for it (about 5 MiB of peak RSS on the t-SNE and
    # UMAP benchmark workloads).
    import scipy.sparse.linalg

    n = Kv.shape[0]
    d = np.zeros(n)
    d[active] = 1.0 / np.sqrt(deg[active])

    def matmat(X: np.ndarray) -> np.ndarray:
        X = X.reshape(n, -1)
        return d[:, None] * (Kv @ (d[:, None] * X))

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matmat, matmat=matmat, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _START_STREAM_TAG]))
    X0 = rng.standard_normal((n, c))
    X0[~active] = 0.0
    # Non-convergence is judged below by the residual of the returned
    # block, which is what decides the fallback; lobpcg's own warnings
    # about its tolerance would only repeat that.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        lam, V = scipy.sparse.linalg.lobpcg(
            op, X0, tol=_LOBPCG_TOL, maxiter=_LOBPCG_MAXITER, largest=True
        )
    order = np.argsort(-lam, kind="stable")
    lam, V = lam[order], V[:, order]
    resid = np.linalg.norm(matmat(V) - V * lam[None, :], axis=0).max(initial=0.0)
    gram_gap = np.abs(V.T @ V - np.eye(c)).max(initial=0.0)
    # ``not <=`` also rejects a block holding nan.
    if not (resid <= _RESIDUAL_TOL and gram_gap <= _RESIDUAL_TOL):
        return None
    return lam, V[active]


def spectral_cluster(K, c: int, seed: int = 0) -> ClusterAssignment:
    """Normalised spectral clustering of a symmetric non-negative
    similarity matrix (kernel-kind completion or plain array).

    The ``c`` leading eigenvectors of ``S = Dg^{-1/2} K Dg^{-1/2}`` (the
    ``c`` smallest of the normalised Laplacian) come from LOBPCG on the
    operator ``X -> d ⊙ (K @ (d ⊙ X))`` with ``d = deg^{-1/2}``, started
    from a block drawn from ``seed``; no n x n intermediate is formed.  A dense eigensolve
    replaces it when fewer than ``5 c`` points are active, or when the
    returned block is not orthonormal or its largest residual
    ``|S v - lambda v|`` exceeds 1e-6.

    Points with exactly zero degree cannot be related to anything: each
    one is put in its own extra singleton cluster (appended after the
    ``c`` spectral clusters); any point with a nonzero row participates
    in the spectral embedding as usual.
    """
    Kv = CompletedMatrix.coerce(K, MatrixKind.KERNEL).values
    n = Kv.shape[0]
    if not (2 <= c <= n):
        raise ValueError(f"cluster count must lie in [2, {n}], got {c}")

    deg = Kv.sum(axis=1)
    active = deg > 0
    n_active = int(active.sum())
    if n_active < c:
        raise ValueError(
            f"only {n_active} points have nonzero degree; cannot form {c} clusters"
        )
    found = _iterative_embedding(Kv, deg, active, c, seed) if n_active >= 5 * c else None
    _, vecs = found if found is not None else _dense_embedding(Kv, c)
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
