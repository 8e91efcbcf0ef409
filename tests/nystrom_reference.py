"""Earlier forms of the completion, kept as references.

``ridged_pinv`` is ``nystrom._ridged_pinv`` as it was before the landmark
block was decomposed once: the automatic ridge was sized from the entries
next to the diagonal of ``W``, so it depended on the order of the
landmarks, and any ridge took a second eigendecomposition, of ``W +
lambda I``.  The tests check that the one-decomposition pseudo-inverse
completes kernels about as accurately.

``pinv_product`` and ``product_completion`` are the completion as it was
made before it had one factor: the pseudo-inverse ``W_k^+`` formed as an
``n_y x n_y`` matrix (``pinv_product``), and the panels of ``L B'`` with
``L = B W_k^+``, assembled from tiles ``L[I] B[J]'`` in the same way as
``nystrom._panels`` assembles ``(F[I] ⊙ signs) F[J]'``.  The tests check
that the one-factor completion stays within rounding of it.

``stacked_completion`` is the one-factor completion as the server made
it before clients uploaded their rows of the factor: from the whole
stacked cross block ``B``, ``F = B R`` made one 64-row block at a time,
then the completion's pass.  The tests check that the completion from
the clients' uploads gives its bits where the uploads are its blocks'
products, and stays within rounding of it otherwise.
"""

from __future__ import annotations

import numpy as np

from feddl.kernels import _row_panels
from feddl.nystrom import (
    _AUTO_RIDGE_FACTOR,
    _AUTO_RIDGE_TRIGGER,
    CompletionParams,
    MatrixKind,
    _dense,
    _rank,
    _ridged_pinv,
    _select_eigenpairs,
    _symmetrize,
)


def auto_ridge(W: np.ndarray, w: np.ndarray, params: CompletionParams) -> float:
    """The automatic ridge for ``W`` with eigenvalues ``w``: nonzero only
    when the kept spectrum is numerically singular, and then the factor
    times the mean |entry adjacent to the diagonal|."""
    kept = _select_eigenpairs(w, _rank(params, W.shape[0]), params.eigen_floor)
    if kept.size == 0:
        return 0.0
    mags = np.abs(w[kept])
    if mags.min() < _AUTO_RIDGE_TRIGGER * mags.max():
        adjacent = np.abs(np.diagonal(W, offset=1))
        return _AUTO_RIDGE_FACTOR * float(adjacent.mean()) if adjacent.size else 0.0
    return 0.0


def ridged_pinv(W: np.ndarray, params: CompletionParams) -> tuple[np.ndarray, float]:
    """Signed rank-``k`` pseudo-inverse of ``W + lambda I`` and the ridge
    ``lambda``: the spectrum of ``W`` decides the automatic ridge, and a
    nonzero ridge decomposes ``W + lambda I`` anew."""
    n = W.shape[0]
    lam = params.ridge_lambda
    if lam == 0.0:
        w, V = np.linalg.eigh(W)
        lam = auto_ridge(W, w, params)
    if lam > 0.0:
        w, V = np.linalg.eigh(W + lam * np.eye(n))
    kept = _select_eigenpairs(w, _rank(params, n), params.eigen_floor)
    if kept.size == 0:
        raise ValueError("landmark block is numerically rank-zero; cannot invert")
    Vk = V[:, kept]
    Winv = (Vk / w[kept][None, :]) @ Vk.T
    _symmetrize(Winv)
    return Winv, lam


def pinv_product(W: np.ndarray, params: CompletionParams) -> np.ndarray:
    """The signed rank-``k`` pseudo-inverse ``V_k diag(1 / w_k) V_k'`` of
    ``W + lambda I``, of the eigenpairs ``nystrom._ridged_pinv`` keeps, as
    one exactly symmetric ``n_y x n_y`` matrix."""
    V, w, _ = _ridged_pinv(W, params)
    Winv = (V / w[None, :]) @ V.T
    _symmetrize(Winv)
    return Winv


def product_completion(B: np.ndarray, Winv: np.ndarray, kind: MatrixKind) -> np.ndarray:
    """The completion ``L B'``, ``L = B Winv``, of ``kind`` as one n x n
    array: tile ``L[I] B[J]'`` for ``I < J`` and its transpose below the
    diagonal, ``0.5 (t + t')`` on it, the diagonal of its kind pinned, then
    clamped at 0 (distance) or clipped to [0, 1] (kernel)."""
    L = B @ Winv
    n = L.shape[0]
    M = np.empty((n, n))
    bounds = _row_panels(n)
    for i0, i1 in bounds:
        for j0, j1 in bounds:
            if j0 < i0:
                M[i0:i1, j0:j1] = M[j0:j1, i0:i1].T
            elif j0 > i0:
                M[i0:i1, j0:j1] = L[i0:i1] @ B[j0:j1].T
            else:
                t = L[i0:i1] @ B[i0:i1].T
                s = t + t.T
                s *= 0.5
                np.fill_diagonal(s, kind.pinned)
                M[i0:i1, i0:i1] = s
    if kind is MatrixKind.KERNEL:
        return np.clip(M, 0.0, 1.0, out=M)
    return np.maximum(M, 0.0, out=M)


def stacked_completion(B: np.ndarray, W: np.ndarray, params: CompletionParams, kind: MatrixKind):
    """The completion of ``kind`` from the stacked cross block ``B`` and
    the landmark block ``W``, as one n x n array: ``F = B R``, ``R = V_k
    |w_k|^-1/2``, one 64-row block of ``B`` at a time, then the pass of
    ``nystrom._panels``."""
    V, w, _ = _ridged_pinv(W, params)
    R = V / np.sqrt(np.abs(w))
    F = np.empty((B.shape[0], R.shape[1]))
    for r0, r1 in _row_panels(B.shape[0]):
        F[r0:r1] = B[r0:r1] @ R
    return _dense(F, np.sign(w), kind)
