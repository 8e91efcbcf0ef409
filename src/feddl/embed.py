"""Low-dimensional embeddings computed from a completed distance matrix.

Both engines consume the completed matrix of *squared* Euclidean
distances (``CompletedMatrix`` of distance kind, or a plain symmetric
array with a zero diagonal) and perform full-batch gradient descent on an
exact objective — appropriate for the desk scales this package targets.

t-SNE
    Conditional affinities ``p_{j|i} ∝ exp(-d2_ij / (2 tau_i^2))`` with a
    binary search on each row's precision so that the perplexity
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
    mu_{i|j} mu_{j|i}``; full-batch descent on the fuzzy cross-entropy
    with low-dimensional memberships ``1 / (1 + a ||z_i - z_j||^{2b})``,
    its attraction taken on the kNN edge list (the nonzero ``mu``) and its
    repulsion exactly over all pairs.

Both calibrations search every row in lockstep: all rows bisect at once,
each with its own bracket, stop rule and fallback, and each row's
arithmetic is that of a search on the row alone (t-SNE's runs over
blocks of rows to bound its memory).

Both descents run in ``_safeguarded_descent``: every step costs one pass
over the n x n Student-t (or membership) weights, which returns the loss
and the gradient at the point reached, and an accepted step carries both
into the next iteration.  The terms of each objective that do not depend
on the embedding (``sum P log P``; ``sum mu log mu + (1 - mu) log(1 - mu)``
and the edge list) are computed once per run.

A t-SNE pass writes into two n x n workspaces allocated once per descent,
the weights ``W`` and the gradient coefficients ``PQ``.  Its two products
run whole (``Z Z^T`` into ``W``, then ``PQ Z``), because a product taken
by row blocks changes the last bit of the gradient; every element-wise
step runs on blocks of ``_BLOCK_ROWS`` rows, which stay in cache.  A
UMAP pass writes into three n x n workspaces (four at ``b != 1``), also
allocated once per descent, so neither pass allocates an n x n array per
step and a descent's speed does not depend on how the allocator happens
to place its arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalAbort
from .kernels import _sq_norms, knn_indices, normalized_adjacency, sq_dists
from .nystrom import CompletedMatrix, MatrixKind
from .privacy import stream_rng

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

#: rows per block of the t-SNE calibration and of the t-SNE pass's
#: element-wise steps, which hold a few ``(rows, n)`` arrays at a time: at
#: n = 600 64 rows keep the calibration's peak at the two n x n arrays of
#: its result, and a pass's four block arrays (1.2 MiB) within a 2 MiB L2
_BLOCK_ROWS = 64


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
        if not (self.early_exaggeration >= 1 and np.isfinite(self.early_exaggeration)):
            raise ValueError(
                f"early_exaggeration must be finite and >= 1, got {self.early_exaggeration!r}"
            )
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


def _row_affinities(d2_rows: np.ndarray, target_perp: float) -> tuple[np.ndarray, np.ndarray]:
    """Binary search on the precision ``beta = 1/(2 tau^2)`` of every row
    at once.

    Each row of ``d2_rows`` holds one point's squared distances to the
    other points, and keeps its own bracket, precision and stop rule
    (perplexity within ``1e-4`` of the target) for at most 128 steps.
    Returns the conditional distributions and flags marking rows that
    could not reach the target and fell back to the uniform distribution.

    Every row's arithmetic is that of a search on the row alone (the
    tests check it bit for bit): the block's row sums reduce each row as
    its 1-D sum does, and the perplexity is taken with the scalar
    ``math.log``/``math.exp``, whose last bit numpy's vector versions do
    not always match.
    """
    m, n_other = d2_rows.shape
    d = d2_rows - d2_rows.min(axis=1, keepdims=True)
    P = np.full((m, n_other), 1.0 / n_other)
    fallback = np.ones(m, dtype=bool)
    rows = np.arange(m)  # rows still searching
    beta, lo, hi = np.ones(m), np.zeros(m), np.full(m, math.inf)
    for _ in range(128):
        e = np.exp(-beta[:, None] * d)
        s = e.sum(axis=1)
        q = beta * (d * e).sum(axis=1) / s
        # Perplexity is base-invariant: exp of the entropy in nats equals
        # 2 to the entropy in bits.
        perp = np.array([math.exp(math.log(si) + qi) for si, qi in zip(s.tolist(), q.tolist())])
        done = np.abs(perp - target_perp) <= 1e-4
        P[rows[done]] = e[done] / s[done, None]
        fallback[rows[done]] = False
        flat = perp > target_perp  # too flat -> sharpen
        sharper = np.where(hi == math.inf, beta * 2.0, 0.5 * (beta + hi))
        beta, lo, hi = (
            np.where(flat, sharper, 0.5 * (beta + lo)),
            np.where(flat, beta, lo),
            np.where(flat, hi, beta),
        )
        if done.any():
            live = ~done
            rows, d, beta, lo, hi = rows[live], d[live], beta[live], lo[live], hi[live]
            if not rows.size:
                break
    return P, fallback


def tsne_affinities(D, perplexity: float = 30.0) -> AffinityMatrix:
    """Symmetrised joint t-SNE affinities from squared distances.

    Requires ``3 <= n`` points and ``0 < perplexity < n``.  Each
    conditional row sums to one; the joint matrix ``(P + P') / (2N)``
    sums to one and has a zero diagonal.  Rows are calibrated in blocks
    of ``_BLOCK_ROWS``.
    """
    D2 = CompletedMatrix.coerce(D, MatrixKind.DISTANCE).values
    n = D2.shape[0]
    if n < 3:
        raise ValueError(f"t-SNE affinities need >= 3 points, got {n}")
    if not (0 < perplexity < n):
        raise ValueError(f"perplexity must lie in (0, {n}), got {perplexity!r}")
    cond = np.zeros((n, n))
    fallbacks = []
    cols = np.arange(n)
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, n))
        off = cols != cols[block, None]
        rows, fb = _row_affinities(D2[block][off].reshape(-1, n - 1), perplexity)
        cond[block][off] = rows.ravel()
        fallbacks += (start + np.flatnonzero(fb)).tolist()
    P = cond + cond.T
    P /= 2.0 * n
    np.fill_diagonal(P, 0.0)
    return AffinityMatrix(values=P, kind="tsne_joint", fallback_rows=tuple(fallbacks))


class _KLWorkspace:
    """The arrays a t-SNE pass on n points writes into, allocated once per
    descent: the Student-t weights ``W`` and the gradient coefficients
    ``PQ`` (both n x n) and a ``(_BLOCK_ROWS, n)`` scratch block."""

    def __init__(self, n: int) -> None:
        self.W = np.empty((n, n))
        self.PQ = np.empty((n, n))
        self.scratch = np.empty((min(_BLOCK_ROWS, n), n))


def _student_t_weights(Z: np.ndarray, W: np.ndarray) -> float:
    """Unnormalised Student-t weights ``1/(1+||z_i-z_j||^2)``, written into
    the n x n ``W``, and their sum.

    ``W`` holds ``1 / (1 + sq_dists(Z))`` with a zero diagonal, bit for
    bit: the Gram product runs whole (numpy takes ``Z @ Z.T`` as one
    syrk), and the rest of ``sq_dists``, the ``+ 1`` and the reciprocal run
    in place on blocks of ``_BLOCK_ROWS`` rows, which stay in cache.
    """
    sq = _sq_norms(Z)
    np.matmul(Z, Z.T, out=W)
    for start in range(0, W.shape[0], _BLOCK_ROWS):
        block = W[start : start + _BLOCK_ROWS]
        block *= -2.0
        block += sq[start : start + _BLOCK_ROWS, None]
        block += sq[None, :]
        np.maximum(block, 0.0, out=block)
        block += 1.0
        np.reciprocal(block, out=block)
    np.fill_diagonal(W, 0.0)
    return float(W.sum())


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
    workspace: _KLWorkspace | None = None,
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

    The pass writes into ``workspace`` (a ``_KLWorkspace(n)``, allocated
    here when omitted).  Its two products run whole, ``Z @ Z.T`` into
    ``W`` and ``PQ @ Z`` over the coefficients, and every element-wise
    step runs on blocks of ``_BLOCK_ROWS`` rows, so a block's arrays stay
    in cache and the exaggerated ``P`` is formed one block at a time.
    The gradient is that of the whole-array formula bit for bit; only the
    loss's ``sum P log max(W, f s)`` is summed block by block.
    """
    n = P.shape[0]
    p_log_p, p_mass = _kl_constants(P) if constants is None else constants
    ws = _KLWorkspace(n) if workspace is None else workspace
    W, PQ = ws.W, ws.PQ
    s = _student_t_weights(Z, W)
    floor = _LOG_FLOOR * s
    p_log_w = 0.0
    row_sums = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            Wb, Pb, PQb = W[rows], P[rows], PQ[rows]
            buf = ws.scratch[: Wb.shape[0]]
            np.maximum(Wb, floor, out=buf)
            np.log(buf, out=buf)
            p_log_w += float(np.multiply(Pb, buf, out=buf).sum())
            np.divide(Wb, -s, out=PQb)
            PQb += Pb if exaggeration == 1.0 else np.multiply(Pb, exaggeration, out=buf)
            PQb *= Wb
            row_sums[rows] = PQb.sum(axis=1)
    kl = p_log_p - p_log_w + p_mass * float(np.log(s))
    grad = 4.0 * (row_sums[:, None] * Z - PQ @ Z)
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
    together; the ``Z``-free terms of the KL and the pass's workspace
    are made once.
    """
    Pm = P.values if isinstance(P, AffinityMatrix) else np.asarray(P, dtype=np.float64)
    n = Pm.shape[0]
    rng = stream_rng(config.seed, "tsne_init")
    noise = rng.normal(size=(n, config.out_dim))
    Z = config.init_scale * noise[_canonical_rank(Pm)]
    constants = _kl_constants(Pm)
    workspace = _KLWorkspace(n)

    def loss_grad(Zc: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        ex = config.early_exaggeration if it < config.early_exaggeration_iters else 1.0
        return tsne_kl_gradient(Pm, Zc, exaggeration=ex, constants=constants, workspace=workspace)

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


def _smooth_knn_sigmas(shifted: np.ndarray, target: float) -> np.ndarray:
    """Bisection for every row's scale at once: ``sigma_i`` solves
    ``sum_j exp(-shifted_ij / sigma_i) = target``.

    ``shifted`` holds the rho-shifted non-negative neighbour distances.
    Each row doubles its upper bound from 1 until the sum reaches the
    target (a row still short after 64 doublings takes that bound), then
    bisects 64 times; the midpoint is floored at 1e-12.
    """
    m = shifted.shape[0]
    lo, hi = np.zeros(m), np.ones(m)

    def below(rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return np.exp(-shifted[rows] / sigma[:, None]).sum(axis=1) < target

    rows = np.arange(m)  # rows still doubling
    for _ in range(64):
        rows = rows[below(rows, hi[rows])]
        lo[rows], hi[rows] = hi[rows], hi[rows] * 2.0
        if not rows.size:
            break
    capped = rows
    rows = np.setdiff1d(np.arange(m), capped)
    for _ in range(64):  # hi starts >= 1 and halves at most 64 times: mid > 0
        mid = 0.5 * (lo[rows] + hi[rows])
        low = below(rows, mid)
        lo[rows[low]] = mid[low]
        hi[rows[~low]] = mid[~low]
    sigma = np.maximum(0.5 * (lo + hi), 1e-12)
    sigma[capped] = hi[capped]
    return sigma


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
        sigma = _smooth_knn_sigmas(shifted, math.log2(n_neighbors))
        memberships = np.exp(-shifted / sigma[:, None])
    cond = np.zeros((n, n))
    np.put_along_axis(cond, order, memberships, axis=1)
    mu = cond + cond.T
    mu -= cond * cond.T
    np.fill_diagonal(mu, 0.0)
    return AffinityMatrix(values=mu, kind="umap_membership")


def _ce_constants(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The ``Z``-free parts of the fuzzy cross-entropy: the edge list of
    ``mu`` and ``sum mu log mu + (1 - mu) log(1 - mu)``.

    The edges are the off-diagonal pairs with ``mu != 0``, a COO list in
    row-major order (about ``2 n_neighbors`` per row for a UMAP graph).
    Returns their flat indices ``i n + j``, ``mu`` and ``1 - mu`` on them,
    and the entropy sum; off the edges ``mu = 0``, so its terms are zero
    there.  Each term is taken where its weight is positive, logs floored
    at 1e-12.
    """
    n = mu.shape[0]
    edges = np.flatnonzero(mu)
    edges = edges[edges % (n + 1) != 0]  # flat index i (n + 1) is the diagonal
    mu_e = mu.take(edges)
    nu_e = 1.0 - mu_e
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(mu_e > 0, mu_e * np.log(np.maximum(mu_e, _LOG_FLOOR)), 0.0)
        ent += np.where(nu_e > 0, nu_e * np.log(np.maximum(nu_e, _LOG_FLOOR)), 0.0)
    return edges, mu_e, nu_e, float(ent.sum())


class _CEWorkspace:
    """The n x n arrays a UMAP pass on n points writes into, allocated
    once per descent: ``d2`` (then ``w``), ``1 - w`` (then the gradient
    coefficients at ``b = 1``), ``buf`` (the log terms, then
    ``d loss / d w``) and, at ``b != 1``, ``d2^(b-1)``."""

    def __init__(self, n: int, b: float) -> None:
        self.d2 = np.empty((n, n))
        self.one_minus_w = np.empty((n, n))
        self.buf = np.empty((n, n))
        self.d2bm1 = np.empty((n, n)) if b != 1.0 else None


def umap_ce_gradient(
    mu: np.ndarray,
    Z: np.ndarray,
    a: float = 1.0,
    b: float = 1.0,
    *,
    constants: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None,
    workspace: _CEWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Fuzzy cross-entropy and its gradient for low-dim memberships
    ``w = 1 / (1 + a d^{2b})``.

    ``1 - w`` (and ``w``) are floored at 1e-12 consistently in the loss
    and the gradient, so finite differences of the returned loss match
    the returned gradient away from the floor region.  ``mu`` holds
    memberships in [0, 1]; its edge list and ``mu``-only terms come from
    ``constants`` (``_ce_constants(mu)``, computed here when omitted).

    The attraction ``mu log w`` is taken on the edges.  The repulsion
    ``(1 - mu) log(1 - w)`` is taken over all off-diagonal pairs with
    ``1 - mu = 1``, then corrected on the edges; so a call takes one
    n x n ``log max(1 - w, f)`` and gives the gradient of the dense
    formula bit for bit.

    The pass writes into ``workspace`` (a ``_CEWorkspace(n, b)``,
    allocated here when omitted), so a descent that passes one allocates
    nothing of size n x n per call.
    """
    edges, mu_e, nu_e, entropy = _ce_constants(mu) if constants is None else constants
    ws = _CEWorkspace(Z.shape[0], b) if workspace is None else workspace
    d2 = sq_dists(Z, out=ws.d2)
    if b != 1.0:
        np.maximum(d2, _LOG_FLOOR, out=d2)
        d2bm1 = np.power(d2, b - 1.0, out=ws.d2bm1)
        np.power(d2, b, out=d2)
    w = np.multiply(d2, a, out=d2)
    w += 1.0
    np.reciprocal(w, out=w)
    one_minus_w = np.subtract(1.0, w, out=ws.one_minus_w)
    w_e = w.take(edges)
    one_minus_w_e = 1.0 - w_e

    buf = np.maximum(one_minus_w, _LOG_FLOOR, out=ws.buf)
    np.log(buf, out=buf)
    np.fill_diagonal(buf, 0.0)
    buf.put(edges, nu_e * buf.take(edges))
    loss = entropy - float(np.sum(mu_e * np.log(np.maximum(w_e, _LOG_FLOOR))))
    loss -= float(buf.sum())

    # d w / d d2 = -a b d2^{b-1} w^2; chain through both log terms, each
    # only where its membership is above the floor: d loss / d w is
    # 1 / (1 - w) off the edges and (1 - mu) / (1 - w) - mu / w on them.
    buf.fill(0.0)
    dldw = np.divide(1.0, one_minus_w, out=buf, where=one_minus_w > _LOG_FLOOR)
    np.fill_diagonal(dldw, 0.0)
    on_edges = np.zeros_like(w_e)
    np.divide(nu_e, one_minus_w_e, out=on_edges, where=one_minus_w_e > _LOG_FLOOR)
    on_edges -= np.divide(mu_e, w_e, out=np.zeros_like(w_e), where=w_e > _LOG_FLOOR)
    dldw.put(edges, on_edges)
    # d loss / d d2_ij (per ordered pair), built over 1 - w or d2^{b-1},
    # which are no longer needed
    if b == 1.0:
        coeff = np.multiply(w, -a * b, out=one_minus_w)
    else:
        coeff = np.multiply(d2bm1, -a * b, out=d2bm1)
        coeff *= w
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
    """Descent-safeguarded full-batch gradient descent on the exact
    fuzzy cross-entropy, started from a graph-spectral layout.

    Any step that would increase the loss is halved (damping the
    velocity) until it does not, so the objective trace is
    non-increasing from the first iteration.  Every iterate and every
    halved candidate costs one membership pass; the edge list and the
    ``mu``-only terms of the loss are computed once.
    """
    M = mu.values if isinstance(mu, AffinityMatrix) else np.asarray(mu, dtype=np.float64)
    n = M.shape[0]
    rng = stream_rng(config.seed, "umap_init")
    rank = _canonical_rank(M)
    start_noise = rng.normal(size=(n, config.out_dim))[rank]
    jitter = rng.normal(size=(n, config.out_dim))[rank]
    Z = config.init_scale * (_spectral_layout(M, config.out_dim, start_noise) + 1e-4 * jitter)
    constants = _ce_constants(M)
    workspace = _CEWorkspace(n, config.b)

    def loss_grad(Zc: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        return umap_ce_gradient(
            M, Zc, a=config.a, b=config.b, constants=constants, workspace=workspace
        )

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
