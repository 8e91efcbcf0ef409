"""The per-row calibrations and the whole-array embedding passes, kept as
references.

These are the embedding routines as they were before the calibrations ran
in lockstep, the symmetrisations and the canonical ranking ran by row
panels, and the passes swept upper-triangle row panels: one binary search
per row, whole-array symmetrisations and sorts, every term of the fuzzy
cross-entropy weighted over all n x n pairs, and every step of the t-SNE
pass on whole n x n arrays.  The tests check the calibrations, the
symmetrisations and the ranking against them bit for bit, and the passes
to within 1e-12 relative (a pass over each unordered pair once sums in
another order).

``DenseCalibration`` is the t-SNE calibration as it was before it summed
the joint affinities straight into their upper-triangle row panels: the
lockstep bisection's conditional affinities written into one n x n
array, symmetrised in place by 64 x 64 tiles, divided by 2n, the
diagonal zeroed.  The tests check the panels against it bit for bit.

``panel_ce_constants`` is the UMAP edge lists as they were made from the
dense n x n memberships, before the fuzzy graph was kept as sparse rows;
the tests check the sparse graph's edge lists and entropy against it bit
for bit.  ``spectral_layout`` is the UMAP starting layout as it was
before it shared the block eigensolver: 50 steps of subspace iteration
with Gram–Schmidt on the dense normalised adjacency.  The tests report
how far the layouts and the embeddings started from them differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from feddl.embed import AffinityMatrix, _row_affinities, _upper_panels
from feddl.kernels import _symmetrize, sq_dists
from feddl.nystrom import CompletedMatrix, MatrixKind
from kernels_reference import knn_indices, normalized_adjacency

_LOG_FLOOR = 1e-12


def _row_affinity(d2_row: np.ndarray, target_perp: float) -> tuple[np.ndarray, bool]:
    """Binary search on the precision ``beta = 1/(2 tau^2)`` of one row.

    Returns the conditional distribution over the other points and a flag
    marking a fallback to the uniform distribution when the search cannot
    reach the target (within ``1e-4``).
    """
    n_other = d2_row.size
    d = d2_row - d2_row.min()
    beta, lo, hi = 1.0, 0.0, math.inf
    p = np.full(n_other, 1.0 / n_other)
    for _ in range(128):
        e = np.exp(-beta * d)
        s = float(e.sum())
        p = e / s
        # Perplexity is base-invariant: exp of the entropy in nats equals
        # 2 to the entropy in bits.
        h = math.log(s) + beta * float((d * e).sum()) / s
        perp = math.exp(h)
        if abs(perp - target_perp) <= 1e-4:
            return p, False
        if perp > target_perp:  # too flat -> sharpen
            lo = beta
            beta = beta * 2.0 if hi == math.inf else 0.5 * (beta + hi)
        else:
            hi = beta
            beta = 0.5 * (beta + lo)
    # Could not bracket (e.g. all distances equal): uniform fallback.
    return np.full(n_other, 1.0 / n_other), True


def tsne_affinities(D, perplexity: float = 30.0) -> AffinityMatrix:
    """Symmetrised joint t-SNE affinities from squared distances.

    Requires ``3 <= n`` points and ``0 < perplexity < n``.  Each
    conditional row sums to one; the joint matrix ``(P + P') / (2N)``
    sums to one and has a zero diagonal.
    """
    D2 = CompletedMatrix.coerce(D, MatrixKind.DISTANCE).values
    n = D2.shape[0]
    if n < 3:
        raise ValueError(f"t-SNE affinities need >= 3 points, got {n}")
    if not (0 < perplexity < n):
        raise ValueError(f"perplexity must lie in (0, {n}), got {perplexity!r}")
    cond = np.zeros((n, n))
    fallbacks = []
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        row, fb = _row_affinity(D2[i, mask], perplexity)
        cond[i, mask] = row
        if fb:
            fallbacks.append(i)
    P = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(P, 0.0)
    return AffinityMatrix(matrix=P, kind="tsne_joint", fallback_rows=tuple(fallbacks))


@dataclass
class DenseCalibration:
    """Panel reader of the t-SNE calibration on one n x n array: each
    64-row panel's conditional affinities (``_row_affinities``, self left
    out) written into its rows of ``cond``; ``affinities`` symmetrises
    ``cond`` in place into ``(P + P') / (2N)`` with a zero diagonal."""

    perplexity: float
    cond: np.ndarray | None = field(default=None, compare=False, repr=False)
    fallbacks: list = field(default_factory=list, compare=False, repr=False)

    def read(self, r0: int, D2: np.ndarray) -> None:
        m, n = D2.shape
        if r0 == 0:
            self.cond, self.fallbacks = np.zeros((n, n)), []
        cols = np.arange(n)
        off = cols != cols[r0 : r0 + m, None]
        rows, fb = _row_affinities(D2[off].reshape(-1, n - 1), self.perplexity)
        self.cond[r0 : r0 + m][off] = rows.ravel()
        self.fallbacks += (r0 + np.flatnonzero(fb)).tolist()

    def affinities(self) -> AffinityMatrix:
        P = self.cond
        _symmetrize(P, np.add)
        P /= 2.0 * P.shape[0]
        np.fill_diagonal(P, 0.0)
        return AffinityMatrix(matrix=P, kind="tsne_joint", fallback_rows=tuple(self.fallbacks))


def _smooth_knn_sigma(d_shifted: np.ndarray, target: float) -> float:
    """Binary search for the scale solving ``sum exp(-d/sigma) = target``.

    ``d_shifted`` holds the rho-shifted non-negative neighbour distances.
    """

    def total(sigma: float) -> float:
        return float(np.exp(-d_shifted / sigma).sum())

    lo, hi = 0.0, 1.0
    for _ in range(64):
        if total(hi) >= target:
            break
        lo, hi = hi, hi * 2.0
    else:
        return hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if total(mid) < target:
            lo = mid
        else:
            hi = mid
    return max(0.5 * (lo + hi), 1e-12)


def umap_graph(D, n_neighbors: int = 15) -> AffinityMatrix:
    """Fuzzy neighbourhood graph from squared distances.

    Works on the square roots of the entries (plain distances);
    neighbours are chosen by distance with ties broken by index.  Each
    point's nearest neighbour receives membership one; memberships are
    symmetrised with the fuzzy union.
    """
    Dd = np.sqrt(CompletedMatrix.coerce(D, MatrixKind.DISTANCE).values)
    n = Dd.shape[0]
    if n < 2:
        raise ValueError(f"the UMAP graph needs >= 2 points, got {n}")
    if not (1 <= n_neighbors <= n - 1):
        raise ValueError(f"n_neighbors must lie in [1, {n - 1}], got {n_neighbors}")
    # neighbours are ranked on the square roots: sqrt can tie distinct d2
    order = knn_indices(Dd, n_neighbors)
    nd = np.take_along_axis(Dd, order, axis=1)
    shifted = np.maximum(nd - nd[:, :1], 0.0)  # rho_i is the nearest distance
    if n_neighbors == 1:
        memberships = np.ones_like(shifted)
    else:
        target = math.log2(n_neighbors)
        memberships = np.array([np.exp(-row / _smooth_knn_sigma(row, target)) for row in shifted])
    cond = np.zeros((n, n))
    np.put_along_axis(cond, order, memberships, axis=1)
    mu = cond + cond.T - cond * cond.T
    np.fill_diagonal(mu, 0.0)
    return AffinityMatrix(matrix=mu, kind="umap_membership")


def _ce_constants(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The ``Z``-free parts of the fuzzy cross-entropy.

    Returns the off-diagonal ``mu`` and ``1 - mu`` (zero diagonal) and
    ``sum mu log mu + (1 - mu) log(1 - mu)`` over the off-diagonal pairs,
    each term taken where its weight is positive, logs floored at 1e-12.
    """
    off = ~np.eye(mu.shape[0], dtype=bool)
    nu = 1.0 - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(mu > 0, mu * np.log(np.maximum(mu, _LOG_FLOOR)), 0.0)
        ent += np.where(nu > 0, nu * np.log(np.maximum(nu, _LOG_FLOOR)), 0.0)
    return np.where(off, mu, 0.0), np.where(off, nu, 0.0), float(np.sum(ent[off]))


def umap_ce_gradient(
    mu: np.ndarray,
    Z: np.ndarray,
    a: float = 1.0,
    b: float = 1.0,
    *,
    constants: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> tuple[float, np.ndarray]:
    """Fuzzy cross-entropy and its gradient for low-dim memberships
    ``w = 1 / (1 + a d^{2b})``.

    ``1 - w`` (and ``w``) are floored at 1e-12 consistently in the loss
    and the gradient, so finite differences of the returned loss match
    the returned gradient away from the floor region.  ``mu`` holds
    memberships in [0, 1].  The ``mu``-only terms of the loss come from
    ``constants`` (``_ce_constants(mu)``, computed here when omitted), so
    a call takes only ``log max(w, f)`` and ``log max(1 - w, f)``.
    """
    mu_off, nu_off, entropy = _ce_constants(mu) if constants is None else constants
    d2 = sq_dists(Z)
    if b == 1.0:
        d2b, d2bm1 = d2, 1.0
    else:
        np.maximum(d2, _LOG_FLOOR, out=d2)
        d2b, d2bm1 = np.power(d2, b), np.power(d2, b - 1.0)
    w = a * d2b
    w += 1.0
    np.reciprocal(w, out=w)
    one_minus_w = 1.0 - w

    buf = np.maximum(w, _LOG_FLOOR)
    np.log(buf, out=buf)
    loss = entropy - float(np.multiply(mu_off, buf, out=buf).sum())
    np.maximum(one_minus_w, _LOG_FLOOR, out=buf)
    np.log(buf, out=buf)
    loss -= float(np.multiply(nu_off, buf, out=buf).sum())

    # d w / d d2 = -a b d2^{b-1} w^2; chain through both log terms, each
    # only where its membership is above the floor.
    buf.fill(0.0)
    dldw = np.divide(nu_off, one_minus_w, out=buf, where=one_minus_w > _LOG_FLOOR)
    dldw -= np.divide(mu_off, w, out=np.zeros_like(w), where=w > _LOG_FLOOR)
    coeff = -a * b * d2bm1 * w  # d loss / d d2_ij (per ordered pair)
    coeff *= w
    coeff *= dldw
    grad = 4.0 * (coeff.sum(axis=1)[:, None] * Z - coeff @ Z)
    return loss, grad


def _student_t_weights(Z: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalised Student-t weights ``1/(1+||z_i-z_j||^2)`` and their sum."""
    W = sq_dists(Z)
    W += 1.0
    np.reciprocal(W, out=W)
    np.fill_diagonal(W, 0.0)
    return W, float(W.sum())


def _kl_constants(P: np.ndarray) -> tuple[float, float]:
    """The ``Z``-free parts of ``KL(P || Q)``:
    ``sum_{P>0} P log max(P, 1e-12)`` and ``sum_{P>0} P``."""
    pos = P > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p_log_p = float(np.sum(np.where(pos, P * np.log(np.maximum(P, _LOG_FLOOR)), 0.0)))
    return p_log_p, float(P[pos].sum())


def tsne_kl_gradient(
    P: np.ndarray,
    Z: np.ndarray,
    *,
    exaggeration: float = 1.0,
    constants: tuple[float, float] | None = None,
) -> tuple[float, np.ndarray]:
    """KL divergence ``KL(P || Q)`` and its gradient with respect to ``Z``.

    ``Q`` uses Student-t affinities; the gradient is
    ``4 sum_j (p_ij - q_ij) (1 + ||z_i - z_j||^2)^{-1} (z_i - z_j)``.
    Probabilities are floored at 1e-12 inside the logarithm only.

    One pass over the unnormalised weights ``W`` (sum ``s``) gives both:
    for non-negative ``P``, ``KL = sum_{P>0} P log max(P, f)
    - sum P log max(W, f s) + (sum_{P>0} P) log s``, since
    ``max(Q, f) = max(W, f s) / s`` keeps the floor ``f`` on ``Q`` exact.
    The gradient uses ``exaggeration * P``; the loss is always against
    ``P``.  ``constants`` are ``_kl_constants(P)``, computed here when
    omitted.
    """
    p_log_p, p_mass = _kl_constants(P) if constants is None else constants
    W, s = _student_t_weights(Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        buf = np.maximum(W, _LOG_FLOOR * s)
        np.log(buf, out=buf)
        kl = p_log_p - float(np.multiply(P, buf, out=buf).sum()) + p_mass * float(np.log(s))
        PQ = np.divide(W, -s, out=buf)
        PQ += P if exaggeration == 1.0 else exaggeration * P
        PQ *= W
    grad = 4.0 * (PQ.sum(axis=1)[:, None] * Z - PQ @ Z)
    return kl, grad


def _canonical_rank(A: np.ndarray) -> np.ndarray:
    """Canonical position of every point from the keys (row sum, row
    sum-of-squares, row maximum) of its sorted row, the whole array
    sorted at once."""
    S = np.sort(A, axis=1)
    k1 = S.sum(axis=1)
    k2 = (S * S).sum(axis=1)
    k3 = S[:, -1] if A.size else k1
    order = np.lexsort((k3, k2, k1))
    rank = np.empty(A.shape[0], dtype=np.intp)
    rank[order] = np.arange(A.shape[0])
    return rank


def panel_ce_constants(mu: np.ndarray) -> tuple[tuple, float]:
    """The edge lists of the dense symmetric ``mu``'s upper-triangle row
    panels, as ``(flat indices into the panel, mu, 1 - mu)`` of each
    panel's non-zero entries in row-major order, and ``sum mu log mu +
    (1 - mu) log(1 - mu)`` over the off-diagonal pairs."""
    edges, ent = [], 0.0
    for Mk in _upper_panels(mu, "mu"):
        e = np.flatnonzero(Mk)
        mu_e = Mk.take(e)
        nu_e = 1.0 - mu_e
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(mu_e > 0, mu_e * np.log(np.maximum(mu_e, _LOG_FLOOR)), 0.0)
            t += np.where(nu_e > 0, nu_e * np.log(np.maximum(nu_e, _LOG_FLOOR)), 0.0)
        ent += float(t.sum())
        edges.append((e, mu_e, nu_e))
    return tuple(edges), 2.0 * ent


def spectral_layout(M: np.ndarray, out_dim: int, noise: np.ndarray) -> np.ndarray:
    """The leading non-trivial eigenvectors of the dense normalised
    adjacency of ``M`` by 50 steps of subspace iteration from ``noise``,
    scaled to a maximum absolute coordinate of 10."""
    deg, active, S = normalized_adjacency(M)
    V = np.zeros((M.shape[0], out_dim))
    if int(active.sum()) >= 2:
        trivial = np.sqrt(deg[active])
        trivial = trivial / np.linalg.norm(trivial)
        B = noise[active]
        for _ in range(50):
            B = S @ B
            B = B - trivial[:, None] * (trivial @ B)[None, :]
            for j in range(out_dim):
                for i in range(j):
                    B[:, j] -= (B[:, i] @ B[:, j]) * B[:, i]
                nrm = np.linalg.norm(B[:, j])
                B[:, j] = B[:, j] / nrm if nrm > 1e-12 else 0.0
        V[active] = B
    peak = np.abs(V).max()
    if peak > 0:
        V *= 10.0 / peak
    return V
