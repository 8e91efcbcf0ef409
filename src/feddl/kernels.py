"""Gaussian-kernel primitives and the maximum mean discrepancy (MMD).

Conventions used throughout the package:

* data matrices are ``m x n`` arrays whose *columns* are points
  (``m`` features, ``n`` points);
* ``pairwise_sq_dist`` returns *squared* Euclidean distances;
* the Gaussian kernel is ``k(x, y) = exp(-gamma * ||x - y||^2)``;
* the MMD between a shard ``X`` (n_x points) and a candidate set ``Y``
  (n_y points) is the unbiased estimator

      [1' K_XX 1 - n_x] / (n_x (n_x - 1))
    - 2 * 1' K_XY 1 / (n_x n_y)
    + [1' K_YY 1 - n_y] / (n_y (n_y - 1))

  which requires at least two points on each side.

All reductions go through ``numpy`` sums (pairwise summation with a fixed
traversal order), so results do not depend on thread count.

Every squared distance in the package is one product of *augmented
operands* (``_operands``): a point set with rows ``A`` gets ``left = [-2A
| ||a||^2 | 1]`` and ``right = [A | 1 | ||a||^2]``, so that ``left_A @
right_B' = ||a||^2 + ||b||^2 - 2 a.b`` and the clamp of negative
round-off at zero is the one element-wise pass left (``_distances``).  A
caller that pairs one point set with many builds its operands once (the
fit: each shard's per run and each landmark matrix's once; the embedding
passes: the layout's once per sweep), so a block is the same double
whichever way its operands arrived.

Normalised adjacencies are applied, never formed, by
``clustering._normalized_operator``.

Validation boundary: the public functions here and ``federation.ClientShard``
check their arrays; ``sq_dists``, ``_distances``, ``_gaussian_block``, the
MMD terms and ``_mmd_gradient_core`` run unchecked on arrays that were
checked there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelParams",
    "pairwise_sq_dist",
    "gaussian_kernel",
    "mmd",
    "mmd_gradient",
    "median_heuristic_gamma",
]


@dataclass(frozen=True)
class KernelParams:
    """Bandwidth parameter of the Gaussian kernel.

    ``gamma`` must be finite and non-negative.  ``gamma == 0`` yields the
    degenerate all-ones kernel; it is accepted (useful in tests) but not a
    sensible operating point.
    """

    gamma: float

    def __post_init__(self) -> None:
        g = float(self.gamma)
        if not np.isfinite(g):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")
        if g < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma!r}")
        object.__setattr__(self, "gamma", g)


def _as_points(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array of column points, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of ``A``."""
    return np.einsum("ij,ij->i", A, A)


def _operands(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The augmented operands ``left = [-2A | ||a||^2 | 1]`` and ``right =
    [A | 1 | ||a||^2]`` of the rows of ``A``, as ``_distances`` takes them."""
    n, d = A.shape
    sq = _sq_norms(A)
    left = np.empty((n, d + 2))
    np.multiply(A, -2.0, out=left[:, :d])
    left[:, d] = sq
    left[:, d + 1] = 1.0
    right = np.empty((n, d + 2))
    right[:, :d] = A
    right[:, d] = 1.0
    right[:, d + 1] = sq
    return left, right


def _distances(
    left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared distances between the point sets of the operands ``left``
    and ``right`` (``_operands``): the one product ``left @ right'``,
    negative round-off clamped to zero in place, in ``out`` when given (a
    C-contiguous float64 array of the result's shape).  The product sums
    ``-2 a.b`` before ``||a||^2 + ||b||^2``, so finite points whose Gram
    expansion leaves float64 overflow in it and are reported under
    ``np.errstate(over="raise")``; it is within ``(d + 2) eps (||a||^2 +
    ||b||^2)`` of the textbook expansion ``||a||^2 - 2 a.b + ||b||^2``."""
    D2 = np.matmul(left, right.T, out=out)
    return np.maximum(D2, 0.0, out=D2)


def sq_dists(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the *rows* of ``A`` and ``B``
    (``B`` defaults to ``A``): ``_distances`` of their operands.

    It does no validation: callers pass finite 2-D float arrays with equal
    column counts.  A square result of one point set is neither
    symmetrised nor given a zero diagonal (``pairwise_sq_dist`` does both).
    """
    left, right = _operands(A)
    if B is not None:
        right = _operands(B)[1]
    return _distances(left, right)


@dataclass
class _NeighbourLists:
    """Panel reader (``nystrom.CompletedMatrix.read``) of a square matrix
    of squared distances: the ``k`` nearest other points of every row
    (``indices``) and their entries (``entries``), ranked on the entries
    or, with ``root``, on their square roots, which can tie distinct
    entries.  ``_knn_rows`` selects row by row, so the lists are those of
    a per-row stable argsort of the whole matrix, or of its square roots,
    with the diagonal at infinity.  Readers are equal when they select
    alike."""

    k: int
    root: bool = False
    indices: np.ndarray | None = field(default=None, compare=False, repr=False)
    entries: np.ndarray | None = field(default=None, compare=False, repr=False)

    def read(self, i0: int, panel: np.ndarray) -> None:
        m, n = panel.shape
        if i0 == 0:
            self.indices = np.empty((n, self.k), dtype=np.intp)
            self.entries = np.empty((n, self.k))
        D = np.sqrt(panel) if self.root else panel.copy()
        own = np.arange(m)
        D[own, i0 + own] = np.inf  # a row never selects itself
        order = _knn_rows(D, self.k)
        self.indices[i0 : i0 + m] = order
        self.entries[i0 : i0 + m] = np.take_along_axis(D, order, axis=1)


def _knn_rows(D: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of every row of the
    ``m x n`` array ``D`` (no NaN, ``0 <= k <= n``), as a compact
    ``m x k`` array.

    Ties break by index, as in a stable sort of the row.  A partial
    selection finds each row's k-th smallest value; the row keeps every
    entry below it and the lowest-index entries equal to it, k in all, and
    only those k are sorted (stably, from index order).
    """
    m = D.shape[0]
    if k == 0:
        return np.empty((m, 0), dtype=np.intp)
    kth = np.partition(D, k - 1, axis=1)[:, k - 1 : k].copy()  # frees the partitioned rows
    below = D < kth
    rows, cols = np.nonzero(D <= kth)  # row-major: each row's columns ascending
    tie = ~below[rows, cols]
    first = np.searchsorted(rows, np.arange(m))  # every row has k >= 1 entries here
    tie_rank = np.cumsum(tie)  # 1-based rank of a tie among all rows' ties...
    tie_rank -= (tie_rank - tie)[first][rows]  # ... and among its row's
    keep = ~tie | (tie_rank <= k - below.sum(axis=1)[rows])
    kept = cols[keep].reshape(m, k)
    order = np.argsort(np.take_along_axis(D, kept, axis=1), axis=1, kind="stable")
    return np.take_along_axis(kept, order, axis=1)


def _check_pair(X, Y, x_name: str, needs_two: str = ""):
    """The argument check of ``pairwise_sq_dist``, ``mmd`` and ``mmd_gradient``."""
    X, Y = _as_points(X, x_name), _as_points(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"feature dimensions differ: {x_name} has {X.shape[0]} rows, Y has {Y.shape[0]}"
        )
    if needs_two and min(X.shape[1], Y.shape[1]) < 2:
        raise ValueError(
            f"{needs_two} needs >= 2 points on each side, got {X.shape[1]} and {Y.shape[1]}"
        )
    return X, Y


#: side of the square tiles and height of the row panels that the n x n
#: passes here, in ``nystrom`` and in ``embed`` work on, so that each
#: step's temporaries stay in cache
_TILE = 64


def _row_panels(n: int) -> list[tuple[int, int]]:
    """Row range ``[i0, i1)`` of every 64-row panel of an n-row array."""
    return [(i0, min(i0 + _TILE, n)) for i0 in range(0, n, _TILE)]


def _tile_pairs(n: int):
    """The 64 x 64 tile pairs ``(I, J), I <= J`` of an n x n array, as
    ``(i0, i1, j0, j1)`` bounds."""
    for i0, i1 in _row_panels(n):
        for j0 in range(i0, n, _TILE):
            yield i0, i1, j0, min(j0 + _TILE, n)


def _symmetrize(
    M: np.ndarray,
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda a, b: 0.5 * (a + b),
) -> None:
    """``M <- combine(M, M')`` in place, one pair of 64 x 64 tiles ``(I,
    J), I <= J`` at a time; by default ``0.5 (M + M')``.  ``combine`` is an
    element-wise formula symmetric in its arguments up to commuting float
    additions and products (t-SNE's ``a + b``), so every entry is the
    double of the whole-array formula and the result is exactly
    symmetric."""
    for i0, i1, j0, j1 in _tile_pairs(M.shape[0]):
        s = combine(M[i0:i1, j0:j1], M[j0:j1, i0:i1].T)
        M[i0:i1, j0:j1] = s
        M[j0:j1, i0:i1] = s.T


def _col_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``pairwise_sq_dist`` without the argument check.  A square block of
    one point set is symmetrised in place (``_symmetrize``), so that it
    holds no second n x n array, and its diagonal is pinned at zero."""
    D2 = sq_dists(A.T, B.T)
    if B is A or (A.shape == B.shape and np.array_equal(A, B)):
        _symmetrize(D2)
        np.fill_diagonal(D2, 0.0)
    return D2


def _gaussian_block(
    left: np.ndarray, right: np.ndarray, gamma: float, same: bool = False
) -> np.ndarray:
    """``exp(-gamma D)`` of the distances ``D = _distances(left, right)``,
    unchecked and in place: the MMD's one kernel block.  A ``same`` block
    (``left`` and ``right`` of one point set) has its diagonal pinned at 1,
    as the self-terms' ``- n`` assumes; it is not symmetrised.  A block of
    two different point sets is ``gaussian_kernel(pairwise_sq_dist(A,
    B))`` bit for bit.  ``-gamma`` scales the distances, not the right
    operand: folded into the product it would shrink the Gram expansion
    below float64's limit for finite points whose distances overflow,
    which then go unreported."""
    K = _distances(left, right)
    if same:
        np.fill_diagonal(K, 0.0)
    K *= -gamma
    return np.exp(K, out=K)


def pairwise_sq_dist(X, Y) -> np.ndarray:
    """Squared Euclidean distances between column points of ``X`` and ``Y``.

    Returns an ``n_x x n_y`` matrix with entry ``(i, j)`` equal to
    ``||X[:, i] - Y[:, j]||^2``, computed by ``sq_dists``.  When both
    arguments hold the same points the result is symmetrised and its
    diagonal pinned to exactly zero.
    """
    return _col_sq_dists(*_check_pair(X, Y, "X"))


def gaussian_kernel(D2, params: KernelParams) -> np.ndarray:
    """Entry-wise Gaussian kernel ``exp(-gamma * D2)``.

    ``D2`` must hold finite, non-negative squared distances; the result
    lies in ``(0, 1]``.
    """
    D2 = np.asarray(D2, dtype=np.float64)
    if not np.isfinite(D2).all():
        raise ValueError("D2 contains non-finite entries")
    if D2.size and D2.min() < 0:
        raise ValueError("D2 contains negative entries; expected squared distances")
    return np.exp(-params.gamma * D2)


def _self_term(k_sum: float, n: int) -> float:
    """``[1' K_AA 1 - n] / (n (n - 1))`` from the block total ``k_sum = 1' K_AA 1``."""
    return (k_sum - n) / (n * (n - 1))


def _cross_term(k_sum: float, n_x: int, n_y: int) -> float:
    """``-2 * 1' K_XY 1 / (n_x n_y)`` from the block total ``k_sum = 1' K_XY 1``."""
    return -2.0 * k_sum / (n_x * n_y)


def mmd(Xp, Y, params: KernelParams) -> float:
    """Unbiased Gaussian-kernel MMD estimate between column sets.

    Both sides need at least two points.  The estimator can be slightly
    negative; it is exactly zero when both sides are copies of a single
    repeated point.
    """
    Xp, Y = _check_pair(Xp, Y, "Xp", "mmd")
    g, n_x, n_y = params.gamma, Xp.shape[1], Y.shape[1]
    (left_x, right_x), (left_y, right_y) = _operands(Xp.T), _operands(Y.T)
    return (
        _self_term(float(_gaussian_block(left_x, right_x, g, same=True).sum()), n_x)
        + _cross_term(float(_gaussian_block(left_x, right_y, g).sum()), n_x, n_y)
        + _self_term(float(_gaussian_block(left_y, right_y, g, same=True).sum()), n_y)
    )


@dataclass(frozen=True)
class _LandmarkSide:
    """What the MMD gradient needs of the landmarks ``Y`` alone: their
    right operand (``_operands``), which every cross block with them
    takes, and the gradient's self-part ``(4 gamma / (n_y (n_y - 1))) [Y
    K_YY - Y diag(1' K_YY)]``; ``k_sum`` is ``1' K_YY 1`` when it was
    asked for."""

    Y: np.ndarray
    right: np.ndarray
    grad: np.ndarray
    k_sum: float | None = None


def _landmark_side(Y: np.ndarray, gamma: float, with_sum: bool = False) -> _LandmarkSide:
    """The landmark side of ``mmd_gradient`` at ``Y``, unchecked.  ``K_YY``
    itself is not kept, only its total when ``with_sum`` is set."""
    n_y = Y.shape[1]
    left, right = _operands(Y.T)
    K = _gaussian_block(left, right, gamma, same=True)
    grad = (4.0 * gamma / (n_y * (n_y - 1))) * ((Y @ K) - Y * K.sum(axis=0)[None, :])
    return _LandmarkSide(Y=Y, right=right, grad=grad, k_sum=float(K.sum()) if with_sum else None)


def _mmd_gradient_core(
    Xp: np.ndarray, left_x: np.ndarray, side: _LandmarkSide, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """``mmd_gradient(Xp, side.Y)`` unchecked, from the left operand
    ``left_x`` of ``Xp``'s columns and the landmark side; also returns the
    cross block ``K_XY``."""
    Y = side.Y
    n_p, n_y = Xp.shape[1], Y.shape[1]
    Kxy = _gaussian_block(left_x, side.right, gamma)
    cross = (Xp @ Kxy) - Y * Kxy.sum(axis=0)[None, :]
    return (-4.0 * gamma / (n_p * n_y)) * cross + side.grad, Kxy


def mmd_gradient(Xp, Y, params: KernelParams) -> np.ndarray:
    """Gradient of ``mmd(Xp, Y)`` with respect to the landmark matrix ``Y``.

        (-4 gamma / (n_p n_y)) [ Xp K_XY - Y diag(1' K_XY) ]
      + ( 4 gamma / (n_y (n_y - 1))) [ Y K_YY - Y diag(1' K_YY) ]

    Returns an array with the shape of ``Y``.  ``gamma == 0`` gives an
    exactly zero gradient.
    """
    Xp, Y = _check_pair(Xp, Y, "Xp", "mmd_gradient")
    g = params.gamma
    return _mmd_gradient_core(Xp, _operands(Xp.T)[0], _landmark_side(Y, g), g)[0]


def median_heuristic_gamma(Y) -> float:
    """Bandwidth heuristic: ``1 / (2 * median pairwise squared distance)``.

    Evaluated on at most 256 columns of ``Y`` (evenly spaced, so the
    choice is deterministic).  Falls back to ``1.0`` when the median
    vanishes (all sampled points identical).
    """
    Y = _as_points(Y, "Y")
    if Y.shape[1] > 256:
        Y = Y[:, np.linspace(0, Y.shape[1] - 1, 256).round().astype(int)]
    n = Y.shape[1]
    if n < 2:
        return 1.0
    D2 = _col_sq_dists(Y, Y)
    med = float(np.median(D2[np.triu_indices(n, k=1)]))
    if not np.isfinite(med) or med <= 0.0:
        return 1.0
    return 1.0 / (2.0 * med)
