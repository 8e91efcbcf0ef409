"""Landmark-based (Nystrom) completion of global distance/kernel matrices.

Clients never share raw points, nor their blocks against the shared
landmarks: squared distances ``D2_{X_p,Y}`` or kernel values
``K_{X_p,Y}``, ``B_p`` (``n_p x n_y``).  With the landmark self-block
``W`` (``n_y x n_y``) the full matrix over all data points is completed
as

    Z_hat = B * pinv_k(W + lambda I) * B' = F * diag(signs) * F'

where ``B`` stacks the client blocks, ``pinv_k`` keeps the ``k``
eigenpairs ``(w_k, V_k)`` of largest magnitude (signed inversion, so
indefinite squared-distance blocks are handled) and ``lambda`` is a
ridge, configured or automatic, that shifts the spectrum of ``W``, which
is decomposed once.  The completion is made from one factor, ``F = B
R`` (``n_x x k``) with ``R = V_k |w_k|^-1/2``, and the signs of the kept
eigenvalues: the one-shot Nystrom factorisation (Williams & Seeger 2001;
Fowlkes, Belongie, Chung & Malik 2004).  ``R`` depends on the landmarks
alone, so the server broadcasts it (``landmark_factor``) and each client
uploads its own rows of ``F``, ``B_p R`` (``LandmarkFactor.project``),
which ``assemble_cross_block`` stacks in client order; the server never
holds the cross block ``B``.  The upload is post-processing of ``B_p``
with public values, so it reveals no more of the client's points than
its block would.

Matrix kinds and their post-processing:

* ``distance`` — entries are *squared* Euclidean distances: clamp
  negatives to zero, pin the diagonal to zero;
* ``kernel`` — Gaussian-kernel values: clip to ``[0, 1]``, pin the
  diagonal to one.

``LandmarkBlock`` and ``CompletedMatrix`` check themselves on
construction (square, finite, symmetric, and the diagonal of its kind or
non-negative entries) and store an exactly symmetric matrix, keeping an
input that already is one; ``CompletedMatrix.coerce`` turns a plain array
into a checked completion of the kind a consumer needs.  A completion
``nystrom_complete`` makes is symmetric and in range by construction, and
only its finiteness is checked.

Every completion is made in one pass over its 64-row panels.  Each panel
is assembled from 64 x 64 tiles ``(F[I] ⊙ signs) F[J]'`` that are
computed with the same operands and shape wherever they appear, so the
panels are exactly symmetric and within rounding of the whole product
``B W_k^+ B'``; each gets the diagonal of its kind and is clamped or
clipped entry by entry, which keeps it symmetric.  The pass checks every
entry, records the row sums and hands each panel to the caller's *panel
readers* and to its writer; it holds no n x n array, and one panel at a
time.  Every completion keeps only ``NystromFactors`` (``F``, ``signs``
and ``pin``, the diagonal of its kind less ``diag(F diag(signs) F')``),
its row sums, whether a kernel panel clipped and the readers its pass
fed; ``CompletedMatrix`` decides how it is read (``read``, ``values``,
``operator``, ``diagonal``).

A panel reader is an object whose ``read(i0, panel)`` takes the rows
``i0:i0 + 64`` of the matrix, every panel once from the top; it must not
modify the panel.  Those that compute from a matrix row by row (the
t-SNE calibration, the neighbour lists of the UMAP graph and of the
neighbourhood preservation) read its panels instead of its ``values``,
and give the same bits, since a panel's rows are the assembled matrix's.

``evaluate_bounds`` evaluates the a-priori error-bound diagnostics for a
completed kernel matrix (condition number of the augmented kernel, MMD
term, rank term, optional data-noise inflation) and, when the exact
matrix is available, the realized error.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .kernels import (
    KernelParams,
    _row_panels,
    _symmetrize,
    gaussian_kernel,
    mmd,
    pairwise_sq_dist,
)

__all__ = [
    "MatrixKind",
    "CompletionParams",
    "LandmarkBlock",
    "CompletedMatrix",
    "NystromFactors",
    "LandmarkFactor",
    "BoundReport",
    "assemble_cross_block",
    "landmark_factor",
    "nystrom_complete",
    "evaluate_bounds",
]

#: relative eigenvalue gap below which the automatic ridge kicks in.
_AUTO_RIDGE_TRIGGER = 1e-10
#: automatic ridge = this factor times the mean |off-diagonal entry| of W.
_AUTO_RIDGE_FACTOR = 1e-6


class MatrixKind(str, Enum):
    DISTANCE = "distance"
    KERNEL = "kernel"

    @property
    def pinned(self) -> float:
        """The diagonal of every completion of this kind: 0 or 1."""
        return 1.0 if self is MatrixKind.KERNEL else 0.0


@dataclass(frozen=True)
class CompletionParams:
    """Rank and regularisation of the completion.

    ``rank_k = 0`` means "use all landmarks" (``k = n_y``).  The ridge
    shifts the spectrum of ``W``; ``ridge_lambda = 0`` means automatic:
    when the smallest kept |eigenvalue| of ``W`` is below 1e-10 times the
    largest, 1e-6 times the mean |off-diagonal entry| of ``W`` (whatever
    the landmarks' order), else 0.  ``eigen_floor`` drops shifted
    eigenvalues below that fraction of the largest magnitude.
    """

    rank_k: int = 0
    ridge_lambda: float = 0.0
    eigen_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.rank_k < 0:
            raise ValueError(f"rank_k must be >= 0, got {self.rank_k}")
        if self.ridge_lambda < 0 or not np.isfinite(self.ridge_lambda):
            raise ValueError(f"ridge_lambda must be finite and >= 0, got {self.ridge_lambda!r}")
        if not (0 <= self.eigen_floor < 1):
            raise ValueError(f"eigen_floor must lie in [0, 1), got {self.eigen_floor!r}")


def _all_finite(A: np.ndarray) -> bool:
    """Whether every entry of ``A`` is finite, checked one row panel at a time."""
    return all(np.isfinite(A[i0:i1]).all() for i0, i1 in _row_panels(A.shape[0]))


def _symmetry_gap(A: np.ndarray) -> float:
    """``max |A - A'|`` of a square ``A``, one row panel of the upper
    triangle at a time (the gap matrix is symmetric).  It is not finite
    when an entry is not (``x - x`` is nan on the diagonal) or when a
    difference overflows; the first such panel ends the pass."""
    gap = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1 in _row_panels(A.shape[0]):
            d = A[i0:i1, i0:] - A[i0:, i0:i1].T
            panel = float(np.abs(d, out=d).max(initial=0.0))
            if not math.isfinite(panel):
                return panel
            gap = max(gap, panel)
    return gap


def _checked_symmetric(M, what: str, rtol: float) -> np.ndarray:
    """``M`` as a float64 array, checked to be square, finite and
    symmetric within ``rtol`` times max(1, largest |entry|), and returned
    exactly symmetric: an exactly symmetric input is returned as is, any
    other is symmetrised in a copy, since it belongs to the caller."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    gap = _symmetry_gap(A)
    # a finite A whose gap is not finite has a pair whose difference overflows
    if not math.isfinite(gap) and not _all_finite(A):
        raise ValueError(f"{what} contains non-finite entries")
    # an exactly symmetric A (every completion) needs no scale for its gap
    if gap and gap > rtol * max(1.0, float(A.max(initial=0.0)), -float(A.min(initial=0.0))):
        raise ValueError(f"{what} is not symmetric within {rtol:g}")
    if gap:
        A = A.copy()
        _symmetrize(A)
    return A


def _zero_diagonal(A: np.ndarray) -> bool:
    """Whether ``diag(A)`` is 0 within 1e-10 times max(1, largest |entry|)."""
    scale = max(1.0, float(A.max(initial=0.0)), -float(A.min(initial=0.0)))
    return float(np.abs(np.diagonal(A)).max(initial=0.0)) <= 1e-10 * scale


@dataclass(frozen=True)
class LandmarkBlock:
    """Symmetric landmark self-block ``W`` plus its matrix kind."""

    values: np.ndarray
    kind: MatrixKind

    def __post_init__(self) -> None:
        W = _checked_symmetric(self.values, "landmark block", 1e-10)
        if W.shape[0] < 2:
            raise ValueError(f"landmark block needs >= 2 landmarks, got {W.shape[0]}")
        kind = MatrixKind(self.kind)
        if kind is MatrixKind.DISTANCE and not _zero_diagonal(W):
            raise ValueError("distance-kind landmark block must have a zero diagonal")
        if kind is MatrixKind.KERNEL and float(np.abs(np.diagonal(W) - 1.0).max()) > 1e-8:
            raise ValueError("kernel-kind landmark block must have a unit diagonal")
        object.__setattr__(self, "values", W)
        object.__setattr__(self, "kind", kind)

    @property
    def n_landmarks(self) -> int:
        return self.values.shape[0]


def assemble_cross_block(blocks: Sequence[np.ndarray], client_ids: Sequence[int]) -> np.ndarray:
    """Stack per-client blocks in client order: the clients' uploads ``B_p
    R`` into ``F`` (``n_x x k``), or their landmark blocks into ``B``
    (``n_x x n_y``).

    All blocks must share the column count; ``client_ids`` name the
    offending client in errors.
    """
    if not blocks:
        raise ValueError("at least one client block is required")
    if len(client_ids) != len(blocks):
        raise ValueError(f"got {len(blocks)} blocks but {len(client_ids)} client ids")
    mats = [np.asarray(b, dtype=np.float64) for b in blocks]
    columns = mats[0].shape[1]
    for cid, b in zip(client_ids, mats):
        if b.ndim != 2 or b.shape[1] != columns:
            raise ValueError(
                f"client {cid}: block shape {b.shape} incompatible with {columns} columns"
            )
    return np.vstack(mats)


def _select_eigenpairs(w: np.ndarray, k: int, eigen_floor: float) -> np.ndarray:
    """Indices of the ``k`` eigenvalues of largest magnitude above the floor."""
    order = np.argsort(-np.abs(w), kind="stable")
    kept = order[:k]
    mags = np.abs(w[kept])
    top = mags[0] if mags.size else 0.0
    return kept[mags > eigen_floor * top]


def _rank(params: CompletionParams, n: int) -> int:
    return min(params.rank_k if params.rank_k else n, n)


def _ridged_pinv(W: np.ndarray, params: CompletionParams) -> tuple[np.ndarray, np.ndarray, float]:
    """The eigenpairs of ``W + lambda I`` that its signed rank-``k``
    pseudo-inverse ``V_k diag(1 / w_k) V_k'`` keeps, as the eigenvectors
    ``V_k`` and the shifted eigenvalues ``w_k``, and the ridge ``lambda``
    it applied.

    ``W`` is decomposed once.  The ridge, configured or automatic (see
    ``CompletionParams``), shifts its eigenvalues, which gives those of
    ``W + lambda I`` with the same eigenvectors.  The ``k`` shifted
    eigenvalues of largest magnitude above the floor are kept with their
    signs (indefinite blocks, squared-distance matrices, are valid
    inputs).  A block with no eigenvalue above the floor is numerically
    rank-zero and rejected.
    """
    n = W.shape[0]
    k = _rank(params, n)
    w, V = np.linalg.eigh(W)
    lam = params.ridge_lambda
    if lam == 0.0:
        mags = np.abs(w[_select_eigenpairs(w, k, params.eigen_floor)])
        if mags.size and mags.min() < _AUTO_RIDGE_TRIGGER * mags.max():
            lam = _AUTO_RIDGE_FACTOR * float(np.abs(W[~np.eye(n, dtype=bool)]).mean())
    if lam:
        w = w + lam
    kept = _select_eigenpairs(w, k, params.eigen_floor)
    if kept.size == 0:
        raise ValueError("landmark block is numerically rank-zero; cannot invert")
    return V[:, kept], w[kept], lam


@dataclass(frozen=True)
class LandmarkFactor:
    """What the server broadcasts for a completion: ``R = V_k |w_k|^-1/2``
    (``n_y x k``) of the kept eigenpairs ``(w_k, V_k)`` of ``W + lambda
    I`` (``_ridged_pinv``), their signs ``sign(w_k)``, the kind of the
    landmark block and the completion's provenance (``landmark_factor``).

    ``R`` is made from the landmarks alone, so a client's upload
    (``project``) is post-processing of its block with public values.
    """

    R: np.ndarray
    signs: np.ndarray
    kind: MatrixKind
    provenance: dict

    @property
    def kept_rank(self) -> int:
        return self.R.shape[1]

    def project(self, block: np.ndarray) -> np.ndarray:
        """A client's upload, its rows of ``F``: its block against the
        landmarks (``n_p x n_y``) times ``R``, one product of the whole
        block (``n_p x k``)."""
        return block @ self.R


def landmark_factor(W: LandmarkBlock, params: CompletionParams) -> LandmarkFactor:
    """The factor ``R = V_k |w_k|^-1/2`` and signs of one decomposition of
    ``W`` (``_ridged_pinv``).  Its provenance records the landmark count,
    the rank asked for, the resolved ridge, the eigenpairs kept
    (``kept_rank``), their least and largest |eigenvalue + ridge|
    (``kept_abs_eigenvalues``) and how many of them are negative
    (``kept_negative``)."""
    V, w, lam = _ridged_pinv(W.values, params)
    mags = np.abs(w)
    provenance = {
        "n_landmarks": W.n_landmarks,
        "rank_k": _rank(params, W.n_landmarks),
        "ridge_lambda": lam,
        "kept_rank": int(w.size),
        "kept_abs_eigenvalues": (float(mags.min()), float(mags.max())),
        "kept_negative": int((w < 0.0).sum()),
    }
    return LandmarkFactor(R=V / np.sqrt(mags), signs=np.sign(w), kind=W.kind, provenance=provenance)


@dataclass(frozen=True)
class NystromFactors:
    """The factors of a completion: ``F diag(signs) F' + diag(pin)``.

    ``F = B V_k |w_k|^-1/2`` (``n x k``) is the one factor of ``B W_k^+
    B'``, ``W_k^+ = V_k diag(1 / w_k) V_k'`` the signed pseudo-inverse of
    ``W + lambda I`` (``_ridged_pinv``), ``signs = sign(w_k)`` and ``pin``
    the diagonal of its kind less ``diag(F diag(signs) F')``.  They give
    the completion exactly, within rounding, only for a kernel completion
    that clipped nothing.  ``@`` costs ``O(n k)`` per column, and they hold
    one ``n x k`` array.
    """

    F: np.ndarray
    signs: np.ndarray
    pin: np.ndarray

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """``K @ X`` for an ``n x m`` block ``X``."""
        return self.F @ (self.signs[:, None] * (self.F.T @ X)) + self.pin[:, None] * X


def _panels(F: np.ndarray, signs: np.ndarray, kind: MatrixKind, out: np.ndarray | None = None):
    """The completion ``F diag(signs) F'`` of ``kind``, as ``(i0, panel,
    diagonal, low, high)`` for each 64-row panel from the top: the panel of
    rows ``i0:i0 + 64`` with the diagonal of its kind (0 or 1), clamped at
    0 (distance) or clipped to [0, 1] (kernel); the diagonal of ``F
    diag(signs) F'`` on those rows; and the panel's least and largest entry
    before the clamp or clip, nan when an entry is (a tile copied from
    ``out``, see below, enters as its own panel left it).  Each panel is a
    new array, which the pass lets go before it makes the next, or those
    rows of the n x n ``out``, so that a pass assembles the matrix in
    ``out``.

    A panel is assembled from tiles of fixed shape: ``t(I, J) = (F[I] ⊙
    signs) F[J]'`` for ``I < J`` is computed in panel ``I`` and, from the
    same operands, again in panel ``J``, which holds its transpose (copied
    from ``out`` when the panels are assembled there); a diagonal tile is
    ``0.5 (t + t')``.  So the panels are exactly symmetric, which products
    of whole row panels are not: those differ in the last bit from the
    whole product, by an amount that depends on the panel height.  The
    clamp and the clip act entry by entry, so they keep the panels
    symmetric.
    """
    n = F.shape[0]
    kernel = kind is MatrixKind.KERNEL
    bounds = _row_panels(n)
    for i0, i1 in bounds:
        left = F[i0:i1] * signs
        P = np.empty((i1 - i0, n)) if out is None else out[i0:i1]
        for j0, j1 in bounds:
            if j0 < i0:
                t = (F[j0:j1] * signs) @ F[i0:i1].T if out is None else out[j0:j1, i0:i1]
                P[:, j0:j1] = t.T
            elif j0 > i0:
                P[:, j0:j1] = left @ F[j0:j1].T
            else:
                t = left @ F[i0:i1].T
                diagonal = np.diagonal(t).copy()
                s = t + t.T
                s *= 0.5
                np.fill_diagonal(s, kind.pinned)
                P[:, i0:i1] = s
        low, high = float(P.min()), float(P.max())
        if kernel:
            if low < 0.0 or high > 1.0:  # an entry in range is its own clip
                np.clip(P, 0.0, 1.0, out=P)
        else:
            # not a clip to [0, inf): np.clip keeps -0.0, np.maximum gives +0.0
            np.maximum(P, 0.0, out=P)
        yield i0, P, diagonal, low, high
        del P


def _dense(F: np.ndarray, signs: np.ndarray, kind: MatrixKind) -> np.ndarray:
    """The completion ``F diag(signs) F'`` of ``kind`` as one n x n array,
    assembled by a pass of ``_panels``."""
    M = np.empty((F.shape[0], F.shape[0]))
    deque(_panels(F, signs, kind, M), maxlen=0)
    return M


class CompletedMatrix:
    """Completed global matrix over all data points, with provenance.

    Built from ``values``, which must be square, finite, non-negative and
    symmetric within 1e-8 of max(1, largest entry); it is stored exactly
    symmetric.

    A completion ``nystrom_complete`` made holds no n x n array, only its
    ``factors`` (one ``n x k`` array ``F``, the signs of the kept
    eigenvalues and the diagonal's pins), row sums and whether a kernel
    panel clipped (``clipped``).  Its
    ``values`` are assembled from the factors on each access, at the cost
    of one n x n array, and not kept.  Its ``operator``, what a consumer
    applies by ``@``, is the factors where they give the matrix exactly (a
    kernel completion that clipped nothing) and ``values`` otherwise.
    """

    def __init__(self, values, kind: MatrixKind) -> None:
        kind = MatrixKind(kind)
        what = f"{kind.value} matrix"
        M = np.asarray(values, dtype=np.float64)
        checked = _checked_symmetric(M, what, 1e-8)
        if M.min(initial=0.0) < 0:
            raise ValueError(f"{what} must be non-negative")
        self._values, self.kind, self.provenance = checked, kind, {}
        self.factors, self._row_sums, self._clipped, self._fed = None, None, False, []

    @classmethod
    def _made(cls, kind, provenance, factors, row_sums, clipped, fed=()) -> "CompletedMatrix":
        """A completion ``nystrom_complete`` has made, as its factors, its
        row sums, whether a kernel panel clipped and the panel readers its
        pass fed: exactly symmetric and of its kind's range by
        construction, so it is not checked again."""
        completed = cls.__new__(cls)
        completed._values, completed.kind, completed.provenance = None, kind, provenance
        completed.factors, completed._row_sums, completed._clipped = factors, row_sums, clipped
        completed._fed = list(fed)
        return completed

    @classmethod
    def coerce(cls, M, kind: MatrixKind) -> "CompletedMatrix":
        """``M`` as a checked ``kind``-kind completion: a completion must
        already be of that kind, a plain array is checked and wrapped."""
        if not isinstance(M, cls):
            return cls(values=M, kind=kind)
        if M.kind is not kind:
            raise ValueError(f"expected a {kind.value}-kind completion, got {M.kind.value}-kind")
        return M

    @property
    def n_points(self) -> int:
        return (self._values if self.factors is None else self.factors.F).shape[0]

    def read(self, reader):
        """The panel ``reader`` (see the module docstring), fed every row
        panel of the matrix.  A reader equal to it (``==``) that the
        completion's own pass fed (``nystrom_complete``'s ``readers``) is
        returned in its place, and only once, so that what it holds lives
        no longer than its caller needs it.  Otherwise ``reader`` reads a
        new pass: a made completion's panels are made again from its
        factors, bit for bit those of its first pass, and an array's are
        its rows.  Readers run with overflow and invalid operations
        ignored, as in ``nystrom_complete``'s pass."""
        for i, fed in enumerate(self._fed):
            if fed == reader:
                return self._fed.pop(i)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.factors is None:
                for i0, i1 in _row_panels(self.n_points):
                    reader.read(i0, self._values[i0:i1])
            else:
                f = self.factors
                for i0, P, *_ in _panels(f.F, f.signs, self.kind):
                    reader.read(i0, P)
                    del P
        return reader

    @property
    def values(self) -> np.ndarray:
        """The dense n x n matrix; a made completion's is assembled anew."""
        if self.factors is None:
            return self._values
        f = self.factors
        return _dense(f.F, f.signs, self.kind)

    @property
    def operator(self):
        """The matrix as a consumer applies it by ``@``: the factors of a
        kernel completion that clipped nothing, ``values`` otherwise."""
        if self.factors is not None and self.kind is MatrixKind.KERNEL and not self._clipped:
            return self.factors
        return self.values

    @property
    def clipped(self) -> bool:
        """Whether a made kernel completion's pass clipped an entry to [0, 1]."""
        return self._clipped and self.kind is MatrixKind.KERNEL

    def diagonal(self) -> np.ndarray:
        """The diagonal: a made completion's is pinned to its kind's (0 or
        1), one built from an array is that array's."""
        if self.factors is None:
            return np.diagonal(self._values)
        return np.full(self.n_points, self.kind.pinned)

    def row_sums(self) -> np.ndarray:
        """Each row's sum, as ``values.sum(axis=1)`` computes it."""
        return self._values.sum(axis=1) if self._row_sums is None else self._row_sums


def nystrom_complete(
    B: np.ndarray,
    W: LandmarkBlock | LandmarkFactor,
    params: CompletionParams = CompletionParams(),
    privacy_mode: str = "none",
    write=None,
    readers: Sequence = (),
) -> CompletedMatrix:
    """Complete the full data-by-data matrix from landmark blocks.

    Computes ``B pinv_k(W + lambda I) B'`` as ``F diag(signs) F'``, with
    the one factor ``F = B R``, ``R = V_k |w_k|^-1/2`` of the kept
    eigenpairs ``(w_k, V_k)`` of ``W + lambda I``, and ``signs =
    sign(w_k)`` (``NystromFactors``), and applies the kind-specific
    post-processing.  Given the landmark block ``W``, ``B`` is the stacked
    cross block (``n_x x n_y``, see ``assemble_cross_block``), ``W`` is
    decomposed with ``params`` (``landmark_factor``) and ``F`` is one
    client's upload of all of ``B``.  Given the ``LandmarkFactor`` the
    server broadcast, ``B`` is ``F`` itself, the clients' stacked uploads
    (``n_x x k``), and ``params`` is not read.  Provenance is the
    factor's (see ``landmark_factor``) and the privacy mode.

    The completion is made in one pass over its row panels (``_panels``),
    which checks that every entry is finite and records the row sums; it
    allocates no n x n array and holds one panel at a time.  Every
    completion, of either kind, is returned in one form: its ``factors``,
    its row sums and whether a kernel panel clipped (see
    ``CompletedMatrix``).

    The pass's panels go to two kinds of readers beside the checks.  Each
    of the panel ``readers`` (see the module docstring) reads every
    checked panel, under the pass's errstate, which ignores overflow and
    invalid operations; the completion keeps them, and
    ``CompletedMatrix.read`` hands each out once in place of an equal
    reader, so that a consumer that reads its matrix through one (t-SNE's
    calibration, the UMAP graph's and the neighbourhood preservation's
    neighbour lists) needs no second pass.  ``write``, when given, is
    called once, with an iterator over the checked panels that it
    consumes, each panel after the readers have read it.
    """
    B = np.asarray(B, dtype=np.float64)
    factored = isinstance(W, LandmarkFactor)
    what = "uploads" if factored else "cross block"
    if B.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {B.shape}")
    if factored:
        if B.shape[1] != W.kept_rank:
            raise ValueError(
                f"uploads have {B.shape[1]} columns but the landmark factor keeps "
                f"{W.kept_rank} eigenpairs"
            )
        factor, F = W, B
    else:
        if not _all_finite(B):
            raise ValueError("cross block contains non-finite entries")
        if B.shape[1] != W.n_landmarks:
            raise ValueError(
                f"cross block has {B.shape[1]} landmark columns but the landmark "
                f"block has {W.n_landmarks}"
            )
        factor = landmark_factor(W, params)
        F = factor.project(B)
    del B  # the pass reads F alone
    provenance = {**factor.provenance, "privacy_mode": str(privacy_mode)}
    kind, signs = factor.kind, factor.signs
    n = F.shape[0]
    diagonal, row_sums = np.empty(n), np.empty(n)
    clipped = False  # whether a panel left [0, 1] off its diagonal: a kernel one clipped

    def checked(panels):
        nonlocal clipped
        for i0, P, d, low, high in panels:
            i1 = i0 + P.shape[0]
            if not (math.isfinite(low) and math.isfinite(high) and np.isfinite(d).all()):
                raise ValueError(f"{kind.value} matrix contains non-finite entries")
            clipped |= low < 0.0 or high > 1.0
            diagonal[i0:i1] = d
            row_sums[i0:i1] = P.sum(axis=1)
            for reader in readers:
                reader.read(i0, P)
            yield P
            del P

    # An overflow stays non-finite, which the checks reject.
    with np.errstate(over="ignore", invalid="ignore"):
        panels = checked(_panels(F, signs, kind))
        if write is not None:
            write(panels)
        deque(panels, maxlen=0)  # the whole pass, or what ``write`` left of it
    pin = kind.pinned - diagonal
    factors = NystromFactors(F=F, signs=signs, pin=pin)
    return CompletedMatrix._made(kind, provenance, factors, row_sums, clipped, readers)


@dataclass(frozen=True)
class BoundReport:
    """A-priori completion-error diagnostics for a kernel completion.

    Fields not computable from the provided inputs are ``None``.  The
    Frobenius bound is

        sqrt(n_x + n_y - k) * cond * (mmd_term + 1) + rank_term [+ noise]

    and the spectral bound ``cond * (mmd_term + 1) + 2 n_x [+ noise]``,
    where the noise inflation (data-perturbation mode only) is
    ``sqrt(2) n_x gamma (sigma^2 xi_m^2 + sqrt(2) d_max sigma xi_m)``
    with ``xi_m = sqrt(m + sqrt(2 m t) + 2 t)`` for confidence
    parameter ``t`` and ``d_max`` the largest pairwise distance in the
    data.
    """

    n_points: int
    n_landmarks: int
    rank_k: int
    cond_number: float | None
    mmd_term: float | None
    rank_term: float
    spectral_rho: float
    xi_m: float | None
    noise_term: float
    bound_frobenius: float | None
    bound_spectral: float | None
    realized_frobenius: float | None


def evaluate_bounds(
    Y: np.ndarray,
    K_hat: CompletedMatrix,
    kernel_params: KernelParams,
    *,
    X: np.ndarray | None = None,
    K_true: np.ndarray | None = None,
    privacy_mode: str = "none",
    sigma: float = 0.0,
    t: float = 1.0,
) -> BoundReport:
    """Evaluate the error-bound diagnostics for a completed kernel matrix.

    ``X``/``Y`` are the (possibly perturbed) data and landmarks actually
    used to build the completion; without ``X`` the condition/MMD terms —
    and hence the bounds — cannot be evaluated and come back ``None``.
    Without ``K_true``, ``spectral_rho`` reads ``K_hat.diagonal()``, which
    is the pinned unit diagonal of a completion ``nystrom_complete`` made.
    """
    if K_hat.kind is not MatrixKind.KERNEL:
        raise ValueError("bounds are defined for kernel-kind completions")
    n_x = K_hat.n_points
    n_y = Y.shape[1]
    k = int(K_hat.provenance.get("rank_k", n_y))
    rank_term = 2.0 * k**0.25 * n_x * math.sqrt(1.0 + n_y / n_x)

    cond = mmd_term = None
    noise = 0.0
    xi = None
    if X is not None:
        X = np.asarray(X, dtype=np.float64)
        aug = np.hstack([Y, X])
        w = np.abs(np.linalg.eigvalsh(gaussian_kernel(pairwise_sq_dist(aug, aug), kernel_params)))
        wmin = float(w.min())
        cond = float(w.max()) / wmin if wmin > 0 else math.inf
        mmd_term = abs(mmd(X, Y, kernel_params)) / (n_x + n_y)
        if str(privacy_mode) == "data" and sigma > 0:
            m = X.shape[0]
            xi = math.sqrt(m + math.sqrt(2.0 * m * t) + 2.0 * t)
            d_max = math.sqrt(float(pairwise_sq_dist(X, X).max()))
            noise = (
                math.sqrt(2.0)
                * n_x
                * kernel_params.gamma
                * (sigma**2 * xi**2 + math.sqrt(2.0) * d_max * sigma * xi)
            )

    rho = float(np.max(K_hat.diagonal() if K_true is None else np.diagonal(K_true)))
    realized = None
    if K_true is not None:
        realized = float(np.linalg.norm(K_hat.values - np.asarray(K_true, dtype=np.float64)))

    bound_f = bound_s = None
    if cond is not None:
        bound_f = math.sqrt(n_x + n_y - k) * cond * (mmd_term + 1.0) + rank_term + noise
        bound_s = cond * (mmd_term + 1.0) + 2.0 * n_x + noise

    return BoundReport(
        n_points=n_x,
        n_landmarks=n_y,
        rank_k=k,
        cond_number=cond,
        mmd_term=mmd_term,
        rank_term=rank_term,
        spectral_rho=rho,
        xi_m=xi,
        noise_term=noise,
        bound_frobenius=bound_f,
        bound_spectral=bound_s,
        realized_frobenius=realized,
    )
