"""The pseudo-inverse of the landmark block with two eigendecompositions,
kept as a reference.

This is ``nystrom._ridged_pinv`` as it was before the landmark block was
decomposed once: the automatic ridge was sized from the entries next to
the diagonal of ``W``, so it depended on the order of the landmarks, and
any ridge took a second eigendecomposition, of ``W + lambda I``.  The
tests check that the one-decomposition pseudo-inverse completes kernels
about as accurately.
"""

from __future__ import annotations

import numpy as np

from feddl.nystrom import (
    _AUTO_RIDGE_FACTOR,
    _AUTO_RIDGE_TRIGGER,
    CompletionParams,
    _rank,
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
