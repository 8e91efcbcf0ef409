"""Low-dimensional embeddings computed from a completed distance matrix.

Both engines consume the completed matrix of *squared* Euclidean
distances (``CompletedMatrix`` of distance kind, or a plain symmetric
array with a zero diagonal) and perform full-batch gradient descent on a
dense objective — appropriate for the desk scales this package targets.

t-SNE
    Conditional affinities ``p_{j|i} ∝ exp(-d2_ij / (2 tau_i^2))`` with a
    per-row binary search on the precision so that the perplexity
    ``2^{H(p_.|i)}`` (entropy in bits) matches the target; symmetrised
    joint ``p_ij = (p_{i|j} + p_{j|i}) / (2N)``; Student-t low-dimensional
    affinities; gradient descent with momentum and early exaggeration on
    ``KL(P || Q)``.

UMAP
    Smooth-kNN calibration on the (unsquared) distances: per point the
    ``n_neighbors`` nearest define ``rho_i`` (nearest-neighbour distance)
    and a scale ``sigma_i`` solving
    ``sum_j exp(-max(0, d_ij - rho_i) / sigma_i) = log2(n_neighbors)``;
    fuzzy-union symmetrisation ``mu_ij = mu_{i|j} + mu_{j|i} -
    mu_{i|j} mu_{j|i}``; full-batch descent on the dense fuzzy
    cross-entropy with low-dimensional memberships
    ``1 / (1 + a ||z_i - z_j||^{2b})``.

Both descents run in ``_safeguarded_descent``: every step costs one pass
over the n x n Student-t (or membership) matrix, which returns the loss
and the gradient at the point reached, and an accepted step carries both
into the next iteration.  The terms of each objective that do not depend
on the embedding (``sum P log P``; ``sum mu log mu + (1 - mu) log(1 - mu)``)
are computed once per run.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalAbort
from .kernels import knn_indices, normalized_adjacency, sq_dists
from .nystrom import CompletedMatrix, MatrixKind

__all__ = [
    "EmbedConfig",
    "AffinityMatrix",
    "Embedding",
    "tsne_affinities",
    "tsne_kl_gradient",
    "tsne_embed",
    "umap_graph",
    "umap_ce_gradient",
    "umap_embed",
]

#: probability floor used wherever a log of an affinity is taken.
_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class EmbedConfig:
    """Shared configuration for both embedding engines.

    Engine-specific fields are ignored by the other engine.  Use
    ``tsne_defaults`` / ``umap_defaults`` for conventional settings.
    """

    out_dim: int = 2
    iterations: int = 1000
    learning_rate: float = 200.0
    momentum: float = 0.5
    final_momentum: float = 0.8
    momentum_switch_iter: int = 250
    early_exaggeration: float = 12.0
    early_exaggeration_iters: int = 250
    perplexity: float = 30.0
    n_neighbors: int = 15
    a: float = 1.0
    b: float = 1.0
    init_scale: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.out_dim < 1:
            raise ValueError(f"out_dim must be >= 1, got {self.out_dim}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        for name in ("momentum", "final_momentum"):
            v = getattr(self, name)
            if not (0 <= v < 1):
                raise ValueError(f"{name} must lie in [0, 1), got {v!r}")
        if self.early_exaggeration < 1:
            raise ValueError(f"early_exaggeration must be >= 1, got {self.early_exaggeration!r}")
        if self.early_exaggeration_iters < 0 or self.momentum_switch_iter < 0:
            raise ValueError("iteration thresholds must be >= 0")
        if not (self.perplexity > 0 and np.isfinite(self.perplexity)):
            raise ValueError(f"perplexity must be finite and > 0, got {self.perplexity!r}")
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not (self.init_scale > 0 and np.isfinite(self.init_scale)):
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale!r}")

    @classmethod
    def tsne_defaults(cls, **overrides) -> "EmbedConfig":
        return replace(cls(), **overrides)

    @classmethod
    def umap_defaults(cls, **overrides) -> "EmbedConfig":
        base = cls(
            iterations=500,
            learning_rate=0.1,
            momentum=0.0,
            final_momentum=0.0,
            momentum_switch_iter=0,
            early_exaggeration=1.0,
            early_exaggeration_iters=0,
            init_scale=1.0,
        )
        return replace(base, **overrides)


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric affinity/membership matrix with construction diagnostics.

    ``fallback_rows`` lists rows where the per-row calibration could not
    bracket its target (e.g. all-equal distances) and a uniform row was
    substituted.
    """

    values: np.ndarray
    kind: str
    fallback_rows: tuple[int, ...] = ()


@dataclass
class Embedding:
    """Low-dimensional point coordinates plus the objective trace.

    ``objective_trace[k]`` is the loss at iterate ``k`` (entry 0 is the
    initial configuration), length ``iterations + 1``.
    """

    Z: np.ndarray
    objective_trace: np.ndarray
    engine: str
    diagnostics: dict = field(default_factory=dict)


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
    return AffinityMatrix(values=P, kind="tsne_joint", fallback_rows=tuple(fallbacks))


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
    """Canonical position of every point, derived from row statistics.

    The keys (row sum, row sum-of-squares, row maximum) are accumulated
    over the *sorted* row, so a column permutation cannot change them
    even in the last bit; assigning seeded initialisation noise by
    canonical position then makes the embedding equivariant to global
    point reordering.  Exact key ties fall back to input order.
    """
    S = np.sort(A, axis=1)
    k1 = S.sum(axis=1)
    k2 = (S * S).sum(axis=1)
    k3 = S[:, -1] if A.size else k1
    order = np.lexsort((k3, k2, k1))
    rank = np.empty(A.shape[0], dtype=np.intp)
    rank[order] = np.arange(A.shape[0])
    return rank


def _safeguarded_descent(
    Z: np.ndarray,
    loss_grad: Callable[[np.ndarray, int], tuple[float, np.ndarray]],
    config: EmbedConfig,
    *,
    guard_from: int,
    clip: float | None,
    recentre: bool,
    engine: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Momentum gradient descent from ``Z``, one loss+gradient pass per step.

    ``loss_grad(Z, it)`` returns the loss at ``Z`` and the gradient that
    iteration ``it`` steps along; each step's pass is made at the point
    it reaches, so an accepted step carries its loss and gradient into
    the next iteration.  From iteration ``guard_from`` on, a step that
    would raise the loss is halved (damping the velocity) until it does
    not; after 30 halvings the iterate stays put, the velocity restarts
    and the current gradient is reused, so ``loss_grad`` must not depend
    on ``it`` from ``guard_from`` on.  ``clip`` bounds the descent
    direction elementwise; ``recentre`` moves every iterate's mean to the
    origin.  Returns the final ``Z``, the loss at every iterate and the
    number of damped steps.
    """

    def reach(Z: np.ndarray, step: np.ndarray, it: int) -> tuple[np.ndarray, float, np.ndarray]:
        cand = Z + step
        if recentre:
            cand -= cand.mean(axis=0)
        if not np.isfinite(cand).all():
            raise NumericalAbort(f"{engine} produced non-finite coordinates at iteration {it + 1}")
        return (cand, *loss_grad(cand, it + 1))

    V = np.zeros_like(Z)
    trace = np.empty(config.iterations + 1)
    damped_steps = 0
    loss, grad = loss_grad(Z, 0)
    for it in range(config.iterations):
        trace[it] = loss
        mom = config.momentum if it < config.momentum_switch_iter else config.final_momentum
        V = mom * V - config.learning_rate * (grad if clip is None else np.clip(grad, -clip, clip))
        step = V
        cand, loss_new, grad_new = reach(Z, step, it)
        if it >= guard_from:
            shrink = 0
            while loss_new > loss and shrink < 30:
                step = 0.5 * step
                cand, loss_new, grad_new = reach(Z, step, it)
                shrink += 1
            if loss_new > loss:  # stay put and restart the velocity
                V = np.zeros_like(Z)
                cand, loss_new, grad_new = Z, loss, grad
            elif shrink:
                damped_steps += 1
                V = step
        Z, loss, grad = cand, loss_new, grad_new
    trace[config.iterations] = loss
    return Z, trace, damped_steps


def tsne_embed(P: AffinityMatrix | np.ndarray, config: EmbedConfig) -> Embedding:
    """Momentum gradient descent on ``KL(P || Q)``.

    Early exaggeration multiplies ``P`` for the configured number of
    iterations; the momentum coefficient switches at its configured
    iteration; the trace records the loss against the *unexaggerated*
    affinities at every iterate.

    After the exaggeration phase every step is descent-safeguarded: a
    proposed momentum step that would increase the loss is halved (with
    the velocity damped accordingly) until the loss is non-increasing,
    so the recorded trace never rises once exaggeration ends.

    Every iterate and every halved candidate costs one Student-t pass,
    which gives the unexaggerated KL and the (exaggerated) gradient
    together; the ``Z``-free terms of the KL are computed once.
    """
    Pm = P.values if isinstance(P, AffinityMatrix) else np.asarray(P, dtype=np.float64)
    n = Pm.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    noise = rng.normal(size=(n, config.out_dim))
    Z = config.init_scale * noise[_canonical_rank(Pm)]
    constants = _kl_constants(Pm)

    def loss_grad(Zc: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        ex = config.early_exaggeration if it < config.early_exaggeration_iters else 1.0
        return tsne_kl_gradient(Pm, Zc, exaggeration=ex, constants=constants)

    Z, trace, damped_steps = _safeguarded_descent(
        Z, loss_grad, config, guard_from=config.early_exaggeration_iters, clip=None,
        recentre=True, engine="t-SNE",
    )
    return Embedding(
        Z=Z,
        objective_trace=trace,
        engine="tsne",
        diagnostics={"damped_steps": damped_steps},
    )


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
    return AffinityMatrix(values=mu, kind="umap_membership")


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


def _spectral_layout(M: np.ndarray, out_dim: int, noise: np.ndarray) -> np.ndarray:
    """Graph-spectral starting layout for the membership matrix ``M``.

    Computes the leading non-trivial eigenvectors of the symmetrically
    normalised adjacency by subspace iteration started from the seeded
    ``noise`` block.  Subspace iteration (rather than a LAPACK
    eigensolver) keeps the result equivariant under point reordering
    even when the leading eigenvalues are degenerate, because every step
    is an equivariant map of the equivariant starting block.  The layout
    is scaled to a maximum absolute coordinate of 10.
    """
    deg, active, S = normalized_adjacency(M)
    V = np.zeros((M.shape[0], out_dim))
    if int(active.sum()) >= 2:
        trivial = np.sqrt(deg[active])
        trivial = trivial / np.linalg.norm(trivial)
        B = noise[active]
        for _ in range(50):
            B = S @ B
            B = B - trivial[:, None] * (trivial @ B)[None, :]
            # Gram-Schmidt keeps the block well conditioned; rank-deficient
            # directions are left at zero.
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


def umap_embed(mu: AffinityMatrix | np.ndarray, config: EmbedConfig) -> Embedding:
    """Descent-safeguarded full-batch gradient descent on the dense
    fuzzy cross-entropy, started from a graph-spectral layout.

    Any step that would increase the loss is halved (damping the
    velocity) until it does not, so the objective trace is
    non-increasing from the first iteration.  Every iterate and every
    halved candidate costs one membership pass; the ``mu``-only terms of
    the loss are computed once.
    """
    M = mu.values if isinstance(mu, AffinityMatrix) else np.asarray(mu, dtype=np.float64)
    n = M.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
    rank = _canonical_rank(M)
    start_noise = rng.normal(size=(n, config.out_dim))[rank]
    jitter = rng.normal(size=(n, config.out_dim))[rank]
    Z = config.init_scale * (_spectral_layout(M, config.out_dim, start_noise) + 1e-4 * jitter)
    constants = _ce_constants(M)

    def loss_grad(Zc: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        return umap_ce_gradient(M, Zc, a=config.a, b=config.b, constants=constants)

    # The repulsive part of the cross-entropy diverges for near-coincident
    # non-neighbours; clipping the descent direction elementwise (the
    # conventional remedy) keeps one colliding pair from flinging points
    # across the layout.
    Z, trace, damped_steps = _safeguarded_descent(
        Z, loss_grad, config, guard_from=0, clip=4.0, recentre=False, engine="UMAP"
    )
    return Embedding(
        Z=Z,
        objective_trace=trace,
        engine="umap",
        diagnostics={"damped_steps": damped_steps},
    )
