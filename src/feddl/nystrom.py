"""Landmark-based (Nystrom) completion of global distance/kernel matrices.

Clients never share raw points.  Each client ``p`` uploads only its block
against the shared landmarks: squared distances ``D2_{X_p,Y}`` or kernel
values ``K_{X_p,Y}``.  Stacking those blocks gives ``B`` (``n_x x n_y``);
together with the landmark self-block ``W`` (``n_y x n_y``) the full
matrix over all data points is completed as

    Z_hat = B * pinv_k(W + lambda I) * B'

where ``pinv_k`` keeps the ``k`` eigenvalues of largest magnitude (signed
inversion, so indefinite squared-distance blocks are handled) and
``lambda`` is an optional ridge for numerically singular blocks.

Matrix kinds and their post-processing:

* ``distance`` — entries are *squared* Euclidean distances: clamp
  negatives to zero, pin the diagonal to zero;
* ``kernel`` — Gaussian-kernel values: clip to ``[0, 1]``, pin the
  diagonal to one.

``LandmarkBlock`` and ``CompletedMatrix`` check themselves on
construction (square, finite, symmetric, and the diagonal of its kind or
non-negative entries) and store an exactly symmetric matrix, keeping an
input that already is one, so consumers read ``values`` as it is;
``CompletedMatrix.coerce`` turns a plain array into a checked completion
of the kind a consumer needs.

``evaluate_bounds`` evaluates the a-priori error-bound diagnostics for a
completed kernel matrix (condition number of the augmented kernel, MMD
term, rank term, optional data-noise inflation) and, when the exact
matrix is available, the realized error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.linalg

from .kernels import KernelParams, gaussian_kernel, mmd, pairwise_sq_dist

__all__ = [
    "MatrixKind",
    "CompletionParams",
    "LandmarkBlock",
    "CompletedMatrix",
    "BoundReport",
    "assemble_cross_block",
    "rank_k_pinv",
    "nystrom_complete",
    "evaluate_bounds",
]

#: relative eigenvalue gap below which the automatic ridge kicks in.
_AUTO_RIDGE_TRIGGER = 1e-10
#: automatic ridge = this factor times the mean |off-diagonal-adjacent| entry.
_AUTO_RIDGE_FACTOR = 1e-6


class MatrixKind(str, Enum):
    DISTANCE = "distance"
    KERNEL = "kernel"


@dataclass(frozen=True)
class CompletionParams:
    """Rank and regularisation of the completion.

    ``rank_k = 0`` means "use all landmarks" (``k = n_y``).
    ``ridge_lambda = 0`` enables the automatic ridge: when the smallest
    kept |eigenvalue| falls below ``1e-10`` times the largest, a ridge of
    ``1e-6`` times the mean |entry adjacent to the diagonal| is applied.
    ``eigen_floor`` drops eigenvalues below that fraction of the largest
    magnitude.
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


def _checked_symmetric(M, what: str, rtol: float) -> np.ndarray:
    """``M`` as a float64 array, checked to be square, finite and
    symmetric within ``rtol`` times max(1, largest |entry|), and returned
    exactly symmetric: an exactly symmetric input is returned as is."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{what} contains non-finite entries")
    asym = A - A.T
    np.abs(asym, out=asym)
    gap = float(asym.max(initial=0.0))
    del asym
    if gap > rtol * max(1.0, float(A.max(initial=0.0)), -float(A.min(initial=0.0))):
        raise ValueError(f"{what} is not symmetric within {rtol:g}")
    return A if gap == 0.0 else 0.5 * (A + A.T)


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
        diag = np.diagonal(W)
        scale = max(1.0, float(np.abs(W).max()))
        if kind is MatrixKind.DISTANCE and float(np.abs(diag).max()) > 1e-10 * scale:
            raise ValueError("distance-kind landmark block must have a zero diagonal")
        if kind is MatrixKind.KERNEL and float(np.abs(diag - 1.0).max()) > 1e-8:
            raise ValueError("kernel-kind landmark block must have a unit diagonal")
        object.__setattr__(self, "values", W)
        object.__setattr__(self, "kind", kind)

    @property
    def n_landmarks(self) -> int:
        return self.values.shape[0]


def assemble_cross_block(
    blocks: Sequence[np.ndarray], client_ids: Sequence[int] | None = None
) -> np.ndarray:
    """Stack per-client landmark blocks in client order into ``B``
    (``n_x x n_y``).

    All blocks must share the landmark (column) count; ``client_ids``
    (positional by default) name the offending client in errors.
    """
    if not blocks:
        raise ValueError("at least one client block is required")
    ids = list(client_ids) if client_ids is not None else list(range(len(blocks)))
    if len(ids) != len(blocks):
        raise ValueError(f"got {len(blocks)} blocks but {len(ids)} client ids")
    mats = [np.asarray(b, dtype=np.float64) for b in blocks]
    n_y = mats[0].shape[1]
    for cid, b in zip(ids, mats):
        if b.ndim != 2 or b.shape[1] != n_y:
            raise ValueError(
                f"client {cid}: block shape {b.shape} incompatible with {n_y} landmarks"
            )
    return np.vstack(mats)


def _select_eigenpairs(
    w: np.ndarray, k: int, eigen_floor: float
) -> np.ndarray:
    """Indices of the ``k`` eigenvalues of largest magnitude above the floor."""
    order = np.argsort(-np.abs(w), kind="stable")
    kept = order[:k]
    mags = np.abs(w[kept])
    top = mags[0] if mags.size else 0.0
    return kept[mags > eigen_floor * top]


def _rank(params: CompletionParams, n: int) -> int:
    return min(params.rank_k if params.rank_k else n, n)


def _auto_ridge(W: np.ndarray, w: np.ndarray, params: CompletionParams) -> float:
    """The automatic ridge for ``W`` with eigenvalues ``w``: nonzero only
    when the kept spectrum is numerically singular."""
    kept = _select_eigenpairs(w, _rank(params, W.shape[0]), params.eigen_floor)
    if kept.size == 0:
        return 0.0
    mags = np.abs(w[kept])
    if mags.min() < _AUTO_RIDGE_TRIGGER * mags.max():
        adjacent = np.abs(np.diagonal(W, offset=1))
        return _AUTO_RIDGE_FACTOR * float(adjacent.mean()) if adjacent.size else 0.0
    return 0.0


def _ridged_pinv(W: np.ndarray, params: CompletionParams) -> tuple[np.ndarray, float]:
    """``rank_k_pinv`` and the ridge it applied.

    A configured ridge takes one eigendecomposition, of ``W + lambda I``.
    Otherwise the one of ``W`` decides the automatic ridge and, when that
    is zero, is the pseudo-inverse; a nonzero one takes a second.
    """
    n = W.shape[0]
    lam = params.ridge_lambda
    if lam == 0.0:
        w, V = scipy.linalg.eigh(W)
        lam = _auto_ridge(W, w, params)
    if lam > 0.0:
        w, V = scipy.linalg.eigh(W + lam * np.eye(n))
    kept = _select_eigenpairs(w, _rank(params, n), params.eigen_floor)
    if kept.size == 0:
        raise ValueError("landmark block is numerically rank-zero; cannot invert")
    Vk = V[:, kept]
    M = (Vk / w[kept][None, :]) @ Vk.T
    return 0.5 * (M + M.T), lam


def rank_k_pinv(W: LandmarkBlock, params: CompletionParams) -> np.ndarray:
    """Signed rank-``k`` pseudo-inverse of ``W + lambda I``.

    Symmetric eigendecomposition; the ``k`` eigenvalues of largest
    magnitude above the floor are inverted with their signs (indefinite
    blocks — squared-distance matrices — are valid inputs).  A block with
    no eigenvalue above the floor is numerically rank-zero and rejected.
    """
    return _ridged_pinv(W.values, params)[0]


@dataclass(frozen=True)
class CompletedMatrix:
    """Completed global matrix over all data points, with provenance.

    ``values`` must be square, finite, non-negative and symmetric within
    1e-8 of max(1, largest entry); it is stored exactly symmetric.
    """

    values: np.ndarray
    kind: MatrixKind
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = MatrixKind(self.kind)
        what = f"{kind.value} matrix"
        M = np.asarray(self.values, dtype=np.float64)
        values = _checked_symmetric(M, what, 1e-8)
        if M.min(initial=0.0) < 0:
            raise ValueError(f"{what} must be non-negative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", kind)

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
        return self.values.shape[0]


def nystrom_complete(
    B: np.ndarray,
    W: LandmarkBlock,
    params: CompletionParams,
    privacy_mode: str = "none",
) -> CompletedMatrix:
    """Complete the full data-by-data matrix from landmark blocks.

    Computes ``B pinv_k(W + lambda I) B'`` from the stacked client blocks
    ``B`` (``n_x x n_y``, see ``assemble_cross_block``), symmetrises, and
    applies the kind-specific post-processing.  Provenance records the
    landmark count, effective rank, resolved ridge, and privacy mode.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"cross block must be 2-D, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise ValueError("cross block contains non-finite entries")
    if B.shape[1] != W.n_landmarks:
        raise ValueError(
            f"cross block has {B.shape[1]} landmark columns but the landmark "
            f"block has {W.n_landmarks}"
        )
    Winv, lam = _ridged_pinv(W.values, params)
    # In a distance completion an overflow stays non-finite, which
    # CompletedMatrix rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        M = B @ Winv @ B.T
        M = 0.5 * (M + M.T)
    if W.kind is MatrixKind.DISTANCE:
        np.maximum(M, 0.0, out=M)
        np.fill_diagonal(M, 0.0)
    else:
        np.clip(M, 0.0, 1.0, out=M)
        np.fill_diagonal(M, 1.0)
    return CompletedMatrix(
        values=M,
        kind=W.kind,
        provenance={
            "n_landmarks": W.n_landmarks,
            "rank_k": _rank(params, W.n_landmarks),
            "ridge_lambda": lam,
            "privacy_mode": str(privacy_mode),
        },
    )


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
        w = np.abs(scipy.linalg.eigvalsh(gaussian_kernel(pairwise_sq_dist(aug, aug), kernel_params)))
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

    rho_src = K_true if K_true is not None else K_hat.values
    rho = float(np.diagonal(rho_src).max())

    bound_f = bound_s = None
    if cond is not None:
        bound_f = math.sqrt(n_x + n_y - k) * cond * (mmd_term + 1.0) + rank_term + noise
        bound_s = cond * (mmd_term + 1.0) + 2.0 * n_x + noise

    realized = None
    if K_true is not None:
        realized = float(np.linalg.norm(K_hat.values - np.asarray(K_true, dtype=np.float64)))

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
