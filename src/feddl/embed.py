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
    mu_{i|j} mu_{j|i}``, kept as compressed sparse rows (``CSRGraph``);
    a spectral starting layout by the package's one spectral eigensolver
    (``clustering``) on those rows;
    full-batch descent on the fuzzy cross-entropy with low-dimensional
    memberships ``1 / (1 + a ||z_i - z_j||^{2b})``, its attraction taken
    on the kNN edge list (the nonzero ``mu``) and its repulsion exactly
    over all pairs.  No step holds an n x n array.

Both calibrations search every row in lockstep: all rows bisect at once,
each with its own bracket, stop rule and fallback, and each row's
arithmetic is that of a search on the row alone.  Neither reads the
distances as one n x n array: t-SNE's calibration and UMAP's neighbour
lists are panel readers (``CompletedMatrix.read``) of the completion's
64-row panels, which a pipeline run feeds from the completion's own pass.

Both descents run in ``_safeguarded_descent``: every step costs one pass
over the Student-t (or membership) weights of all pairs, which returns
the loss and the gradient at the point reached, and an accepted step
carries both into the next iteration.  The terms of each objective that
do not depend on the embedding (``sum P log P``; ``sum mu log mu + (1 -
mu) log(1 - mu)``) are computed once per run, with the affinities'
upper-triangle row panels: contiguous copies of ``P`` (about n^2 / 2
doubles) for t-SNE, per-panel kNN edge lists of ``mu`` for UMAP.

Both losses are sums over unordered pairs, so a pass is one sweep
(``_panel_sweep``) over the upper-triangle row panels of the pairs:
panel ``k`` holds rows ``[r0, r1)`` (64 of them, ``kernels._TILE``) and
columns ``[r0, n)``, the lower part of its diagonal block masked.  Each
panel's distances are one product of the layout's augmented operands
(``kernels._distances``), built once per sweep; its symmetric coefficients are
folded into the gradient's row sums and product with ``Z`` from both
sides.  A pass does half the element-wise work of one over all n^2
entries and writes only into three ``64 x n`` buffers allocated once per
descent (``_PanelWorkspace``), so no pass allocates an n x n array.  The
t-SNE pass needs ``s = sum W`` for its coefficients ``(e P - W / s) W``,
so it folds ``P W`` and ``W W`` apart and combines them once ``s`` is
known, and it floors ``Q`` in the loss by a second, loss-only sweep only
where an O(n) bound says the floor may bind.  Summed in this order, the
passes agree with the whole-array formulas to about 1e-13 relative, not
bit for bit, wherever the gradient is not a cancellation of much larger
terms: with points 1e7 from the origin, ``4 (sum_j C_ij z_i - sum_j
C_ij z_j)`` is rounding of those terms in either form, and the two
differ by 1e-9 relative or more.  Coincident points at b != 1 (a floored
d2 gives coefficients near 1e12) would be such a case, so the UMAP pass
applies those pairs' coefficients to ``z_i - z_j`` directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import _dense_embedding, _leading_eigenpairs, _normalized_operator
from .errors import NumericalAbort
from .kernels import (
    _TILE,
    _NeighbourLists,
    _distances,
    _operands,
    _row_panels,
    _sq_norms,
    _symmetrize,
)
from .nystrom import CompletedMatrix, MatrixKind, _symmetry_gap
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
#: the block solver's cap in UMAP's spectral start: its operator applications
_START_MAXITER = 50
#: UMAP gradient coefficients above this, which at b != 1 only pairs
#: within about 1e-3 of each other reach, are applied to ``z_i - z_j``
#: directly (``umap_ce_gradient``)
_DIRECT_COEFF = 1e6


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
class CSRGraph:
    """A square matrix as compressed sparse rows: row ``i``'s non-zero
    entries are ``data[indptr[i]:indptr[i + 1]]``, in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def dense(self, r0: int = 0, r1: int | None = None) -> np.ndarray:
        """Rows ``[r0, r1)`` of the matrix, by default all of them, as a
        dense array."""
        r1 = self.n if r1 is None else r1
        lo, hi = self.indptr[r0], self.indptr[r1]
        rows = np.repeat(np.arange(r1 - r0), np.diff(self.indptr[r0 : r1 + 1]))
        M = np.zeros((r1 - r0, self.n))
        M[rows, self.indices[lo:hi]] = self.data[lo:hi]
        return M

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """``M @ X`` for an ``n x m`` block ``X``, at O(nnz) per column:
        each column is one ``np.bincount`` over the entries, which sums
        each row's products in column order."""
        rows = self.rows()
        out = np.empty((self.n, X.shape[1]))
        for c in range(X.shape[1]):
            out[:, c] = np.bincount(rows, weights=self.data * X[self.indices, c], minlength=self.n)
        return out

    @classmethod
    def from_entries(cls, n: int, rows, indices, data) -> "CSRGraph":
        """The n x n matrix of the entries ``(rows, indices, data)``,
        given in row-major order."""
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, indices, data)

    @classmethod
    def from_dense(cls, M: np.ndarray, name: str) -> "CSRGraph":
        """The non-zero entries of the square ``M``, diagonal included.
        ``ValueError`` unless ``M`` is symmetric within 1e-12 of its
        largest entry (``_check_symmetric``)."""
        _check_symmetric(M, name)
        rows, indices = np.nonzero(M)  # row-major
        return cls.from_entries(M.shape[0], rows, indices, M[rows, indices])


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric affinity/membership matrix with construction diagnostics.

    ``matrix`` is t-SNE's joint affinities as an n x n array, or UMAP's
    fuzzy memberships as a ``CSRGraph`` of their O(n n_neighbors)
    non-zero entries.  ``values`` is the n x n array either way: a
    graph's is assembled on each access, and no pipeline stage asks for
    it.

    ``fallback_rows`` lists rows where the per-row calibration could not
    bracket its target (e.g. all-equal distances) and a uniform row was
    substituted.
    """

    matrix: np.ndarray | CSRGraph
    kind: str
    fallback_rows: tuple[int, ...] = ()

    @property
    def values(self) -> np.ndarray:
        return self.matrix.dense() if isinstance(self.matrix, CSRGraph) else self.matrix


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


@dataclass
class _Calibration:
    """Panel reader (``CompletedMatrix.read``) of ``tsne_affinities``: the
    conditional affinities of each 64-row panel of the squared distances
    (``_row_affinities``, self left out), written into the panel's rows of
    one n x n array, and the rows that fell back to the uniform
    distribution.  Readers of one perplexity are equal."""

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
        """The joint affinities ``(P + P') / (2N)`` with a zero diagonal,
        made in place in the conditional array (``kernels._symmetrize``)."""
        P = self.cond
        _symmetrize(P, np.add)
        P /= 2.0 * P.shape[0]
        np.fill_diagonal(P, 0.0)
        return AffinityMatrix(matrix=P, kind="tsne_joint", fallback_rows=tuple(self.fallbacks))


def tsne_affinities(D, perplexity: float = 30.0) -> AffinityMatrix:
    """Symmetrised joint t-SNE affinities from squared distances.

    Requires ``3 <= n`` points and ``0 < perplexity < n``.  Each
    conditional row sums to one; the joint matrix ``(P + P') / (2N)``
    sums to one and has a zero diagonal.  Rows are calibrated on the
    64-row panels of ``D`` by a panel reader (``_Calibration``), the one
    the completion's pass fed when there is one, and symmetrised in place
    (``kernels._symmetrize``).
    """
    completed = CompletedMatrix.coerce(D, MatrixKind.DISTANCE)
    n = completed.n_points
    if n < 3:
        raise ValueError(f"t-SNE affinities need >= 3 points, got {n}")
    if not (0 < perplexity < n):
        raise ValueError(f"perplexity must lie in (0, {n}), got {perplexity!r}")
    return completed.read(_Calibration(perplexity)).affinities()


class _PanelWorkspace:
    """The buffers a pass on n points writes into, allocated once per
    descent: three flat arrays of ``min(64, n) x n`` doubles (at n = 600,
    0.9 MiB together, within a 2 MiB L2).  A prefix of each, reshaped to
    the panel's ``(rows, columns)``, is that panel's contiguous
    distances, log terms and coefficients."""

    def __init__(self, n: int) -> None:
        self.flat = tuple(np.empty(min(_TILE, n) * n) for _ in range(3))

    def panel(self, m: int, w: int) -> tuple[np.ndarray, ...]:
        return tuple(f[: m * w].reshape(m, w) for f in self.flat)


#: True on and below the diagonal of a diagonal block
_LOWER = np.tri(_TILE, dtype=bool)


def _mask_lower(A: np.ndarray) -> np.ndarray:
    """Zero the diagonal and the strict lower part of the diagonal block
    (the first ``rows`` columns) of the upper row panel ``A``."""
    m = A.shape[0]
    np.copyto(A[:, :m], 0.0, where=_LOWER[:m, :m])
    return A


def _check_symmetric(M: np.ndarray, name: str) -> None:
    """``ValueError`` unless ``M`` is symmetric within 1e-12 of its largest
    entry (``nystrom._symmetry_gap``), because the passes read only its
    upper triangle."""
    scale = max(float(M.max(initial=0.0)), -float(M.min(initial=0.0)))
    if not _symmetry_gap(M) <= 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")


def _upper_panels(M: np.ndarray, name: str):
    """Each upper-triangle row panel of the square ``M``: rows ``[r0, r1)``
    and columns ``[r0, n)`` as a contiguous copy, its diagonal block's
    diagonal and lower part zeroed (the pairs another panel holds, or
    none).  ``M`` is checked by ``_check_symmetric``."""
    _check_symmetric(M, name)
    for r0, r1 in _row_panels(M.shape[0]):
        yield _mask_lower(M[r0:r1, r0:].copy())


def _panel_sweep(
    Z: np.ndarray,
    workspace: _PanelWorkspace,
    visit: Callable[..., tuple[np.ndarray, ...]],
    parts: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One sweep over the upper-triangle row panels of the pairs of ``Z``.

    Panel ``k`` covers rows ``[r0, r1)`` and columns ``[r0, n)``; its
    squared distances are the product of rows ``[r0, r1)`` of ``Z``'s left
    operand with rows ``[r0, n)`` of its right one (``kernels._operands``,
    built once per sweep), written into the workspace's first buffer, and
    ``visit(k, D, buf1, buf2)`` turns them into ``parts``
    coefficient panels ``C`` of symmetric coefficient matrices (each
    panel's diagonal block zero on and below its diagonal), the other two
    buffers free for it.  Each ``C`` is folded on both of its sides into
    its matrix's row sums ``rs[c]`` and product ``CZ[c]`` with ``Z``: one
    product with ``Z`` and a column of ones gives both.
    """
    n, d = Z.shape
    left, right = _operands(Z)
    Z1 = np.ones((n, d + 1))
    Z1[:, :d] = Z
    acc = np.zeros((parts, n, d + 1))  # CZ, then rs in the last column
    for k, (r0, r1) in enumerate(_row_panels(n)):
        D, *bufs = workspace.panel(r1 - r0, n - r0)
        _distances(left[r0:r1], right[r0:], out=D)
        for c, C in enumerate(visit(k, D, *bufs)):
            acc[c, r0:r1] += C @ Z1[r0:]
            acc[c, r0:] += C.T @ Z1[r0:r1]
    return acc[:, :, d], acc[:, :, :d]


@dataclass(frozen=True)
class _KLConstants:
    """The ``Z``-free parts of ``KL(P || Q)``: ``P``'s upper-triangle row
    panels (``_upper_panels``), ``sum_{P>0} P log max(P, 1e-12)`` and
    ``sum_{P>0} P`` over the off-diagonal pairs."""

    panels: tuple[np.ndarray, ...]
    p_log_p: float
    p_mass: float


def _kl_constants(P: np.ndarray) -> _KLConstants:
    """``_KLConstants`` of the symmetric ``P``, whose diagonal is not read."""
    panels = tuple(_upper_panels(P, "P"))
    p_log_p = p_mass = 0.0
    for Pk in panels:
        p = Pk[Pk > 0]
        p_log_p += float(np.sum(p * np.log(np.maximum(p, _LOG_FLOOR))))
        p_mass += float(p.sum())
    return _KLConstants(panels, 2.0 * p_log_p, 2.0 * p_mass)


def tsne_kl_gradient(
    P: np.ndarray,
    Z: np.ndarray,
    *,
    exaggeration: float = 1.0,
    constants: _KLConstants | None = None,
    workspace: _PanelWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """KL divergence ``KL(P || Q)`` and its gradient with respect to ``Z``.

    ``Q`` uses Student-t affinities; the gradient is
    ``4 sum_j (p_ij - q_ij) (1 + ||z_i - z_j||^2)^{-1} (z_i - z_j)``.
    Probabilities are floored at 1e-12 inside the logarithm only.  ``P``
    is symmetric (its diagonal is not read).

    One sweep over the unnormalised weights ``W`` (sum ``s``) gives both:
    for non-negative ``P``, ``KL = sum_{P>0} P log max(P, f)
    - sum P log max(W, f s) + (sum_{P>0} P) log s``, since
    ``max(Q, f) = max(W, f s) / s`` keeps the floor ``f`` on ``Q`` exact.
    The gradient uses ``exaggeration * P``; the loss is always against
    ``P``.  ``constants`` are ``_kl_constants(P)``, computed here when
    omitted.

    The sweep (``_panel_sweep``) visits each unordered pair once, in the
    upper-triangle row panels, and writes into ``workspace`` (a
    ``_PanelWorkspace(n)``, allocated here when omitted).  The gradient's
    coefficients ``(e P - W / s) W`` need ``s`` before they can be formed,
    so the sweep folds the two parts ``P W`` and ``W W`` separately and
    combines them once ``s`` is known.  It sums ``P log W`` unfloored:
    every ``W`` is at least ``1 / (1 + 4 max ||z||^2)``, so the floor
    ``f s`` binds nowhere when that bound clears it (by a factor 2, for
    the rounding of ``W``); otherwise a second, loss-only sweep takes
    ``P log max(W, f s)``.
    """
    n = P.shape[0]
    consts = _kl_constants(P) if constants is None else constants
    ws = _PanelWorkspace(n) if workspace is None else workspace
    sums = np.zeros(2)  # sum of P log W and of W over the upper triangle

    def visit(k: int, D: np.ndarray, L: np.ndarray, WW: np.ndarray):
        Pk = consts.panels[k]
        W = np.reciprocal(np.add(D, 1.0, out=D), out=D)
        sums[0] += np.vdot(Pk, np.log(W, out=L))
        sums[1] += _mask_lower(W).sum()
        return np.multiply(Pk, W, out=L), np.square(W, out=WW)

    (rs_pw, rs_ww), (pw_z, ww_z) = _panel_sweep(Z, ws, visit, 2)
    s = 2.0 * float(sums[1])
    floor = _LOG_FLOOR * s
    if 1.0 / (1.0 + 4.0 * float(_sq_norms(Z).max(initial=0.0))) < 2.0 * floor:
        sums[0] = 0.0

        def visit_floored(k: int, D: np.ndarray, L: np.ndarray, _: np.ndarray):
            W = np.reciprocal(np.add(D, 1.0, out=D), out=D)
            sums[0] += np.vdot(consts.panels[k], np.log(np.maximum(W, floor, out=L), out=L))
            return ()

        _panel_sweep(Z, ws, visit_floored, 0)
    kl = consts.p_log_p - 2.0 * float(sums[0]) + consts.p_mass * math.log(s)
    rs = exaggeration * rs_pw - rs_ww / s
    grad = 4.0 * (rs[:, None] * Z - (exaggeration * pw_z - ww_z / s))
    return kl, grad


def _canonical_rank(A: np.ndarray | CSRGraph) -> np.ndarray:
    """Canonical position of every point, derived from row statistics.

    The keys (row sum, row sum-of-squares, row maximum) are accumulated
    over the *sorted* row, so a column permutation cannot change them
    even in the last bit; assigning seeded initialisation noise by
    canonical position then makes the embedding equivariant to global
    point reordering.  Exact key ties fall back to input order.  Rows are
    sorted 64 at a time, and a row's keys do not depend on the rows
    sorted with it.  A graph's 64-row blocks are made dense from its
    entries (``CSRGraph.dense``) before they are sorted, so its keys are
    those of its dense rows, zeros included.
    """
    graph = isinstance(A, CSRGraph)
    n = A.n if graph else A.shape[0]
    k1, k2, k3 = np.empty(n), np.empty(n), np.empty(n)
    for r0, r1 in _row_panels(n):
        S = np.sort(A.dense(r0, r1) if graph else A[r0:r1], axis=1)
        k1[r0:r1] = S.sum(axis=1)
        k2[r0:r1] = (S * S).sum(axis=1)
        k3[r0:r1] = S[:, -1]
    order = np.lexsort((k3, k2, k1))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
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
    workspace = _PanelWorkspace(n)

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


def _fuzzy_union(cols: np.ndarray, memberships: np.ndarray) -> CSRGraph:
    """The fuzzy union ``mu_ij = a + b - a b`` of the conditional
    memberships ``a = mu_{j|i}`` (row ``i``'s at the columns ``cols[i]``,
    self excluded) and ``b = mu_{i|j}``, as a ``CSRGraph`` of its
    non-zero entries.  A pair in one list keeps its ``a`` (``a + 0 - a
    0`` is ``a``); a pair in both gets ``a + b - a b``, whose addition and
    product commute, so every entry has the bits of the dense formula."""
    n = cols.shape[0]
    rows = np.repeat(np.arange(n), cols.shape[1])
    cols, vals = cols.ravel(), memberships.ravel()
    edge = vals != 0.0
    rows, cols, vals = rows[edge], cols[edge], vals[edge]
    # every membership as (i, j) and as (j, i), sorted row-major: a pair in
    # both lists has its two entries next to each other
    keys = np.concatenate([rows * n + cols, cols * n + rows])
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], np.concatenate([vals, vals])[order]
    both = keys[1:] == keys[:-1]
    a, b = vals[:-1][both], vals[1:][both]
    vals[:-1][both] = a + b - a * b
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ~both
    keys = keys[first]
    return CSRGraph.from_entries(n, keys // n, keys % n, vals[first])


def _graph_lists(n_neighbors: int) -> _NeighbourLists:
    """``umap_graph``'s panel reader: lists ranked on square roots."""
    return _NeighbourLists(n_neighbors, root=True)


def umap_graph(D, n_neighbors: int = 15) -> AffinityMatrix:
    """Fuzzy neighbourhood graph from squared distances, as a
    ``CSRGraph`` of its O(n n_neighbors) memberships.

    Works on the square roots of the entries (plain distances);
    neighbours are chosen by distance with ties broken by index, on the
    64-row panels of ``D`` by a panel reader (``_graph_lists``), the one
    the completion's pass fed when there is one.  Each point's
    nearest neighbour receives membership one; memberships are
    symmetrised with the fuzzy union (``_fuzzy_union``), entry for entry
    the dense formula's.
    """
    completed = CompletedMatrix.coerce(D, MatrixKind.DISTANCE)
    n = completed.n_points
    if n < 2:
        raise ValueError(f"the UMAP graph needs >= 2 points, got {n}")
    if not (1 <= n_neighbors <= n - 1):
        raise ValueError(f"n_neighbors must lie in [1, {n - 1}], got {n_neighbors}")
    lists = completed.read(_graph_lists(n_neighbors))
    order, nd = lists.indices, lists.entries
    shifted = np.maximum(nd - nd[:, :1], 0.0)  # rho_i is the nearest distance
    if n_neighbors == 1:
        memberships = np.ones_like(shifted)
    else:
        sigma = _smooth_knn_sigmas(shifted, math.log2(n_neighbors))
        memberships = np.exp(-shifted / sigma[:, None])
    return AffinityMatrix(matrix=_fuzzy_union(order, memberships), kind="umap_membership")


@dataclass(frozen=True)
class _CEConstants:
    """The ``Z``-free parts of the fuzzy cross-entropy: per upper-triangle
    row panel, the flat indices into the panel of its edges (the pairs
    ``i < j`` with ``mu != 0``, in row-major order) and ``mu`` and
    ``1 - mu`` on them; and ``sum mu log mu + (1 - mu) log(1 - mu)`` over
    the off-diagonal pairs."""

    edges: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    entropy: float


def _as_graph(mu) -> CSRGraph:
    """The memberships ``mu`` (an ``AffinityMatrix``, a ``CSRGraph`` or a
    symmetric array) as a ``CSRGraph``."""
    if isinstance(mu, AffinityMatrix):
        mu = mu.matrix
    if isinstance(mu, CSRGraph):
        return mu
    return CSRGraph.from_dense(np.asarray(mu, dtype=np.float64), "mu")


def _ce_constants(mu) -> _CEConstants:
    """``_CEConstants`` of the symmetric ``mu`` (``_as_graph``), whose
    diagonal is not read: each panel's edges are its rows' entries right
    of the diagonal, their flat indices into the panel in row-major order.

    Off the edges ``mu = 0``, so the entropy's terms are zero there.  Each
    term is taken where its weight is positive, logs floored at 1e-12.
    """
    G = _as_graph(mu)
    n = G.n
    rows = G.rows()
    upper = G.indices > rows
    rows, cols, vals = rows[upper], G.indices[upper], G.data[upper]
    bounds = _row_panels(n)
    starts = np.searchsorted(rows, [r0 for r0, _ in bounds] + [n])
    edges, ent = [], 0.0
    for k, (r0, _) in enumerate(bounds):
        lo, hi = starts[k], starts[k + 1]
        e = (rows[lo:hi] - r0) * (n - r0) + (cols[lo:hi] - r0)
        mu_e = vals[lo:hi]
        nu_e = 1.0 - mu_e
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(mu_e > 0, mu_e * np.log(np.maximum(mu_e, _LOG_FLOOR)), 0.0)
            t += np.where(nu_e > 0, nu_e * np.log(np.maximum(nu_e, _LOG_FLOOR)), 0.0)
        ent += float(t.sum())
        edges.append((e, mu_e, nu_e))
    return _CEConstants(tuple(edges), 2.0 * ent)


def umap_ce_gradient(
    mu,
    Z: np.ndarray,
    a: float = 1.0,
    b: float = 1.0,
    *,
    constants: _CEConstants | None = None,
    workspace: _PanelWorkspace | None = None,
) -> tuple[float, np.ndarray]:
    """Fuzzy cross-entropy and its gradient for low-dim memberships
    ``w = 1 / (1 + a d^{2b})``.

    ``1 - w`` (and ``w``) are floored at 1e-12 consistently in the loss
    and the gradient, so finite differences of the returned loss match
    the returned gradient away from the floor region.  ``mu`` holds
    symmetric memberships in [0, 1] (its diagonal is not read), as
    ``_as_graph`` takes them; its edge lists and ``mu``-only terms come
    from ``constants`` (``_ce_constants(mu)``, computed here when
    omitted).

    The sweep (``_panel_sweep``) visits each unordered pair once, in the
    upper-triangle row panels, and writes into ``workspace`` (a
    ``_PanelWorkspace(n)``, allocated here when omitted).  In each panel
    the attraction ``mu log w`` is taken on the panel's edges, and the
    repulsion ``(1 - mu) log(1 - w)`` over all its pairs with
    ``1 - mu = 1``, then corrected on the edges; the gradient's
    coefficients are formed per pair.  At ``b != 1`` a pair whose
    coefficient exceeds ``_DIRECT_COEFF`` is taken out of the folded sums
    and added as ``C_ij (z_i - z_j)``, which is exactly 0 for coincident
    points: a floored ``d2`` gives coefficients near 1e12, and ``sum_j
    C_ij z_i - sum_j C_ij z_j`` would leave rounding noise of their size.
    """
    consts = _ce_constants(mu) if constants is None else constants
    ws = _PanelWorkspace(Z.shape[0]) if workspace is None else workspace
    sums = np.zeros(1)  # the attraction and repulsion over the upper triangle
    direct = []  # per panel: the pairs (i, j) taken out of the folded sums, and C_ij

    def visit(k: int, d2: np.ndarray, one_minus_w: np.ndarray, coeff: np.ndarray):
        edges, mu_e, nu_e = consts.edges[k]
        if b != 1.0:
            np.maximum(d2, _LOG_FLOOR, out=d2)
            np.power(d2, b - 1.0, out=coeff)
            np.power(d2, b, out=d2)
        w = d2 if a == 1.0 else np.multiply(d2, a, out=d2)
        w += 1.0
        np.reciprocal(w, out=w)
        np.subtract(1.0, w, out=one_minus_w)
        w_e = w.take(edges)
        one_minus_w_e = 1.0 - w_e
        # d w / d d2 = -a b d2^{b-1} w^2, its factor -a b applied to the
        # folded sums
        if b == 1.0:
            np.square(w, out=coeff)
        else:
            coeff *= w
            coeff *= w

        logs = np.maximum(one_minus_w, _LOG_FLOOR, out=w)  # w is no longer needed
        np.log(logs, out=logs)
        logs.put(edges, nu_e * logs.take(edges))
        sums[0] += np.sum(mu_e * np.log(np.maximum(w_e, _LOG_FLOOR)))
        sums[0] += _mask_lower(logs).sum()

        # chain through both log terms, each only where its membership is
        # above the floor: d loss / d w is 1 / (1 - w) off the edges and
        # (1 - mu) / (1 - w) - mu / w on them.
        dldw = logs
        dldw.fill(0.0)
        np.divide(1.0, one_minus_w, out=dldw, where=one_minus_w > _LOG_FLOOR)
        on_edges = np.zeros_like(w_e)
        np.divide(nu_e, one_minus_w_e, out=on_edges, where=one_minus_w_e > _LOG_FLOOR)
        on_edges -= np.divide(mu_e, w_e, out=np.zeros_like(w_e), where=w_e > _LOG_FLOOR)
        dldw.put(edges, on_edges)
        coeff *= _mask_lower(dldw)
        if b != 1.0:
            big = np.flatnonzero(np.abs(coeff, out=one_minus_w) > _DIRECT_COEFF)
            if big.size:
                i, j = np.divmod(big, coeff.shape[1])
                r0 = k * _TILE
                direct.append((r0 + i, r0 + j, coeff.take(big)))
                coeff.put(big, 0.0)
        return (coeff,)

    (rs,), (CZ,) = _panel_sweep(Z, ws, visit, 1)
    loss = consts.entropy - 2.0 * float(sums[0])
    g = rs[:, None] * Z - CZ
    if direct:
        i, j, c = (np.concatenate(parts) for parts in zip(*direct))
        t = c[:, None] * (Z[i] - Z[j])
        np.add.at(g, i, t)
        np.subtract.at(g, j, t)
    return loss, (-4.0 * a * b) * g


def _spectral_layout(G: CSRGraph, out_dim: int, noise: np.ndarray) -> np.ndarray:
    """Graph-spectral starting layout for the membership graph ``G``: the
    leading eigenvectors of its normalised adjacency ``S`` on its points
    of positive degree, with the trivial one, ``t ∝ sqrt(deg)``, projected
    out and sent below ``S``'s spectrum [-1, 1] (``P S P - 2 t t'``, ``P = I
    - t t'``).  The block solver runs from the seeded ``noise`` for at most
    ``_START_MAXITER`` operator applications; below ``5 out_dim`` active
    points the dense path keeps the whole eigenspace at the cut.  The
    columns are the Gram–Schmidt basis of ``noise`` projected onto the
    subspace found: each sign follows its start column, and the layout is
    equivariant under point reordering, degenerate eigenvalues included
    (on the block path, save one at the cut).  Other points, and columns
    past the ``n_active - 1`` non-trivial ones, are 0; the layout is
    scaled to a maximum absolute coordinate of 10.
    """
    deg = np.bincount(G.rows(), weights=G.data, minlength=G.n)
    S, active = _normalized_operator(G, deg)
    n_active = int(active.sum())
    dim = min(out_dim, n_active - 1)
    V = np.zeros((G.n, out_dim))
    if dim > 0:
        t = np.sqrt(np.where(active, deg, 0.0))
        t /= np.linalg.norm(t)

        def deflated(X: np.ndarray) -> np.ndarray:
            tX = t @ X
            Y = S(X - t[:, None] * tX)
            Y -= t[:, None] * (t @ Y + 2.0 * tX)
            return Y

        start = np.where(active[:, None], noise[:, :dim], 0.0)
        if n_active >= 5 * out_dim:
            U = _leading_eigenpairs(deflated, start, _START_MAXITER)[1]
        else:
            U = np.zeros((G.n, n_active))
            w, U[active] = _dense_embedding(deflated, active, n_active)
            U = U[:, w >= w[dim - 1] - 1e-9]  # the whole eigenspace at the cut
        # the block's QR can leave rounding on the other points' rows
        Q, R = np.linalg.qr(U[active] @ (U.T @ start))
        V[active, :dim] = Q * np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
    peak = np.abs(V).max()
    if peak > 0:
        V *= 10.0 / peak
    return V


def umap_embed(mu, config: EmbedConfig) -> Embedding:
    """Descent-safeguarded full-batch gradient descent on the exact
    fuzzy cross-entropy, started from a graph-spectral layout.  ``mu`` is
    the memberships as ``_as_graph`` takes them.

    Any step that would increase the loss is halved (damping the
    velocity) until it does not, so the objective trace is
    non-increasing from the first iteration.  Every iterate and every
    halved candidate costs one membership pass; the edge list and the
    ``mu``-only terms of the loss are computed once.
    """
    G = _as_graph(mu)
    n = G.n
    rng = stream_rng(config.seed, "umap_init")
    rank = _canonical_rank(G)
    start_noise = rng.normal(size=(n, config.out_dim))[rank]
    jitter = rng.normal(size=(n, config.out_dim))[rank]
    Z = config.init_scale * (_spectral_layout(G, config.out_dim, start_noise) + 1e-4 * jitter)
    constants = _ce_constants(G)
    workspace = _PanelWorkspace(n)

    def loss_grad(Zc: np.ndarray, it: int) -> tuple[float, np.ndarray]:
        return umap_ce_gradient(
            G, Zc, a=config.a, b=config.b, constants=constants, workspace=workspace
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
