"""Spectral clustering on a completed kernel matrix, plus k-means.

The spectral path follows the normalised-cut recipe: with degree matrix
``Dg``, take the eigenvectors of the ``c`` smallest eigenvalues of
``L = I - Dg^{-1/2} K Dg^{-1/2}`` (the ``c`` largest of
``S = Dg^{-1/2} K Dg^{-1/2}``), normalise the rows of the resulting
``n x c`` spectral embedding to unit length, and run k-means on them.

This module holds the package's one spectral eigensolver, which UMAP's
starting layout shares.  Its operator is ``X -> d ⊙ (M @ (d ⊙ X))``
with ``d = deg^{-1/2}`` on points of positive degree and 0 elsewhere
(``_normalized_operator``), for any ``@`` operand ``M``: a dense array,
a completion's ``NystromFactors`` (``F (signs ⊙ (F' Y)) + pin ⊙ Y``, at
``O(n k)`` per column) or an ``embed.CSRGraph``; no n x n ``S`` or
``L`` is formed.  The block solver runs Rayleigh–Ritz steps on an
orthonormal basis of ``[X, S X, X_prev]``, the subspace LOBPCG searches,
each applying the operator once.  The dense path applies it to the
identity columns of the active points, 64 at a time, and solves the
matrix they give with ``np.linalg.eigh``.

Spectral clustering reads the completion's ``operator`` once; the
degrees are its row sums.  The block starts from the seed's
``spectral_start`` stream, so a rerun is byte-identical, and is accepted
when it is orthonormal and its residual ``|S v - lambda v|`` is at most
1e-6.  The dense path replaces a block that fails, and is the only path
when fewer than ``5 c`` points are active.

k-means is implemented here (rather than pulled in) because its exact
semantics are pinned: k-means++ seeding, Lloyd iterations until the
relative inertia change drops below 1e-6 (or 300 iterations), and empty
clusters re-seeded at the point farthest from its assigned centroid —
all deterministic for a given seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _available_memory
from .kernels import _distances, _operands, _row_panels, _symmetrize
from .nystrom import CompletedMatrix, MatrixKind
from .privacy import stream_rng

__all__ = ["ClusterAssignment", "kmeans", "spectral_cluster"]

#: largest eigen-residual at which the block solver stops, and its iteration cap
_EIGEN_TOL = 1e-8
_EIGEN_MAXITER = 200
#: largest eigen-residual (and orthonormality gap) of an accepted block
_RESIDUAL_TOL = 1e-6
#: k-means restarts, Lloyd iterations per restart and the relative inertia
#: change that ends them
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-6
#: the dense path's resident peak in n^2 x 8 B with a dense operator: the
#: operator, its matrix on the active points and ``np.linalg.eigh``'s copy,
#: eigenvectors and workspace (6.2 by VmHWM at n = 2000; 5.2 on factors)
_DENSE_FALLBACK_PEAK_N2 = 6.3


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
    """One Lloyd run from a k-means++ start.  An iteration starts from the
    distances, labels and point distances the previous one ended with:
    its centres are unchanged since.

    The centre sums are one ``bincount`` per coordinate, which adds each
    cluster's points in index order as ``Z[members].mean(axis=0)`` does
    for two or more coordinates, so the centres are its doubles.  An
    iteration with an empty cluster updates the centres one by one
    instead (re-seeding moves a point into the empty cluster before the
    later clusters are averaged), and so does one-coordinate data, whose
    ``mean`` sums pairwise."""
    n = Z.shape[0]
    rows = np.arange(n)
    columns = np.ascontiguousarray(Z.T)
    left_z = _operands(Z)[0]
    centers = _kmeans_pp_init(Z, c, rng)
    d2 = _distances(left_z, _operands(centers)[1])
    labels = d2.argmin(axis=1)
    point_d2 = d2[rows, labels]
    prev_inertia = np.inf
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=c)
        if counts.all() and columns.shape[0] > 1:
            for k, col in enumerate(columns):
                centers[:, k] = np.bincount(labels, weights=col, minlength=c)
            centers /= counts[:, None]
        else:
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
        d2 = _distances(left_z, _operands(centers)[1])
        labels = d2.argmin(axis=1)
        point_d2 = d2[rows, labels]
        inertia = float(point_d2.sum())
        if prev_inertia - inertia <= rel_tol * max(prev_inertia, 1e-300) and np.isfinite(
            prev_inertia
        ):
            prev_inertia = inertia
            break
        prev_inertia = inertia
    return ClusterAssignment(labels=labels, n_clusters=c, inertia=float(prev_inertia))


def kmeans(Z: np.ndarray, c: int, seed: int = 0) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of 10 restarts by
    inertia; each runs until the relative inertia change drops below 1e-6
    or for 300 iterations.

    Ties in the assignment step go to the lowest cluster index.  An empty
    cluster is re-seeded at the point currently farthest from its
    assigned centroid.  Restart ``r`` draws from the seed's
    ``kmeans_restart`` stream at ``r``, so the result is deterministic; on
    an inertia tie the earliest restart wins.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise ValueError(f"k-means needs a non-empty 2-D array, got shape {Z.shape}")
    n = Z.shape[0]
    if not (1 <= c <= n):
        raise ValueError(f"cluster count must lie in [1, {n}], got {c}")
    best: ClusterAssignment | None = None
    for restart in range(_KMEANS_RESTARTS):
        rng = stream_rng(seed, "kmeans_restart", restart)
        cand = _kmeans_single(Z, c, rng, _KMEANS_MAX_ITER, _KMEANS_REL_TOL)
        if best is None or cand.inertia < best.inertia:
            best = cand
    return best


def _check_dense_fallback_fits(n: int) -> None:
    """``ConfigError`` when the dense path's peak on ``n`` points is more
    than the memory available, before it forms its matrix."""
    need = _DENSE_FALLBACK_PEAK_N2 * n * n * 8
    available = _available_memory()
    if available is not None and need > available:
        raise ConfigError(
            f"spectral clustering's dense eigensolve on {n} points needs about "
            f"{need / 2**20:.1f} MiB ({_DENSE_FALLBACK_PEAK_N2} x n^2 x 8 B), more than the "
            f"{available / 2**20:.1f} MiB of memory available"
        )


def _scaled_product(M, d: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``d ⊙ (M @ (d ⊙ X))`` for any ``@`` operand ``M``."""
    return d[:, None] * (M @ (d[:, None] * X))


def _normalized_operator(M, deg: np.ndarray):
    """The operator ``X -> d ⊙ (M @ (d ⊙ X))`` of the symmetric ``M`` (any
    ``@`` operand) and the mask of its active points, those of positive
    degree: ``d`` is ``deg^{-1/2}`` there and 0 elsewhere, the package's
    one ``deg^{-1/2}``."""
    active = deg > 0
    d = np.zeros(deg.size)
    d[active] = 1.0 / np.sqrt(deg[active])
    return functools.partial(_scaled_product, M, d), active


def _leading_eigenpairs(
    matmat, X: np.ndarray, maxiter: int = _EIGEN_MAXITER
) -> tuple[np.ndarray, np.ndarray]:
    """The ``c = X.shape[1]`` largest eigenvalues, in descending order, and
    their eigenvectors of the symmetric operator ``matmat``, from the
    starting block ``X``.

    Each iteration is a Rayleigh–Ritz step on the orthonormal basis ``Q =
    [X, P, Z]`` of ``[X, S X, X_prev]``: ``X`` holds the current Ritz
    vectors, ``P`` the part of the previous ones ``X`` does not span, and
    ``Z`` the residuals orthonormalised against both.  ``X`` and ``P``
    are combinations of the previous basis, so their images are too, and
    ``matmat`` is applied once per iteration, to ``Z``.  The iteration
    stops when every residual ``|S x - lambda x|``, taken from those same
    images, is at most ``_EIGEN_TOL``, or after ``maxiter`` steps, which
    apply ``matmat`` ``maxiter`` times; the caller judges the block it
    returns.
    """
    c = X.shape[1]
    Q = np.linalg.qr(X)[0]
    SQ = matmat(Q)
    for it in range(maxiter):
        H = Q.T @ SQ
        w, U = np.linalg.eigh(0.5 * (H + H.T))
        lam, U = w[: -c - 1 : -1], U[:, : -c - 1 : -1]
        # Q's first c columns are the previous block; in Q's coordinates,
        # the last c columns of V span the part of it the Ritz vectors U
        # do not
        V = np.linalg.qr(np.hstack([U, np.eye(U.shape[0], c)]))[0]
        V[:, :c] = U
        XP, SXP = Q @ V, SQ @ V
        X = XP[:, :c]
        R = SXP[:, :c] - X * lam
        if it == maxiter - 1 or np.linalg.norm(R, axis=0).max() <= _EIGEN_TOL:
            break
        # twice: one pass leaves R short of orthogonal to XP when the
        # residuals lie nearly in its span, as they do near convergence
        for _ in range(2):
            R -= XP @ (XP.T @ R)
        Z = np.linalg.qr(R)[0]
        Q, SQ = np.hstack([XP, Z]), np.hstack([SXP, matmat(Z)])
    return lam, X


def _dense_embedding(matmat, active: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``c`` (at most all) largest eigenvalues, descending, and their
    eigenvectors on the ``active`` points of the symmetric ``matmat``, by
    ``np.linalg.eigh`` of the symmetrised matrix it gives from their
    identity columns, 64 at a time."""
    idx = np.flatnonzero(active)
    A = np.empty((idx.size, idx.size))
    for j0, j1 in _row_panels(idx.size):
        E = np.zeros((active.size, j1 - j0))
        E[idx[j0:j1], np.arange(j1 - j0)] = 1.0
        A[:, j0:j1] = matmat(E)[idx]
    _symmetrize(A)
    w, vecs = np.linalg.eigh(A)
    return w[: -c - 1 : -1], vecs[:, : -c - 1 : -1]


def _iterative_embedding(
    matmat, active: np.ndarray, c: int, seed: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Leading ``c`` eigenpairs of ``matmat`` on the ``active`` points by one
    block solver run from ``seed``'s block, or ``None`` when the block is
    not orthonormal eigenvectors of ``matmat`` within ``_RESIDUAL_TOL``."""
    X0 = stream_rng(seed, "spectral_start").standard_normal((active.size, c))
    X0[~active] = 0.0
    lam, V = _leading_eigenpairs(matmat, X0)
    resid = np.linalg.norm(matmat(V) - V * lam, axis=0).max(initial=0.0)
    gram_gap = np.abs(V.T @ V - np.eye(c)).max(initial=0.0)
    # a block holding nan fails both comparisons
    if resid <= _RESIDUAL_TOL and gram_gap <= _RESIDUAL_TOL:
        return lam, V[active]
    return None


def spectral_cluster(K, c: int, seed: int = 0) -> ClusterAssignment:
    """Normalised spectral clustering of a symmetric non-negative
    similarity matrix (kernel-kind completion or plain array).

    The ``c`` leading eigenvectors of ``S = Dg^{-1/2} K Dg^{-1/2}`` come
    from the block eigensolver on the normalised operator of the
    completion's ``operator``, read once (a completion that clipped is
    made dense once), from a block drawn from ``seed``.  The dense path,
    on the same operator, replaces the block when fewer than ``5 c``
    points are active or the block fails its check; ``ConfigError`` is
    raised instead when its peak (``_DENSE_FALLBACK_PEAK_N2``) is more
    than the memory available.

    Points with exactly zero degree cannot be related to anything: each
    one is put in its own extra singleton cluster (appended after the
    ``c`` spectral clusters); any point with a nonzero row participates
    in the spectral embedding as usual.
    """
    completed = CompletedMatrix.coerce(K, MatrixKind.KERNEL)
    n = completed.n_points
    if not (2 <= c <= n):
        raise ValueError(f"cluster count must lie in [2, {n}], got {c}")

    matmat, active = _normalized_operator(completed.operator, completed.row_sums())
    n_active = int(active.sum())
    if n_active < c:
        raise ValueError(
            f"only {n_active} points have nonzero degree; cannot form {c} clusters"
        )
    solve = n_active >= 5 * c  # enough active points for a block of c vectors
    found = _iterative_embedding(matmat, active, c, seed) if solve else None
    if found is None:
        _check_dense_fallback_fits(n)
        found = _dense_embedding(matmat, active, c)
    _, vecs = found
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
