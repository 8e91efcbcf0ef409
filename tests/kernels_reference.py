"""The Gram expansion of the squared distances, kept as a reference.

This is ``kernels.sq_dists`` and the MMD's Gaussian block as they were
before every squared distance became one product of augmented operands:
the Gram product ``A B'``, then four element-wise passes (``x -2``, ``+
||a||^2``, ``+ ||b||^2``, the clamp at zero), and for a block of one point
set a symmetrised copy with a zero diagonal before ``x -gamma`` and
``exp``.  The tests check the augmented core against it within ``(d + 2)
eps (||a||^2 + ||b||^2)`` per entry, and the kernel block within gamma
times that bound.

``normalized_adjacency`` is the dense normalised adjacency the spectral
paths once formed; the tests build their eigensolver references from it.

``knn_indices`` is the whole-matrix neighbour selection the panel readers
and the metrics are checked against.
"""

from __future__ import annotations

import numpy as np


def gram_sq_dists(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of ``A`` and ``B`` (default
    ``A``) by the Gram expansion, negative round-off clamped to zero."""
    B = A if B is None else B
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = sq_a if B is A else np.einsum("ij,ij->i", B, B)
    D2 = A @ B.T
    D2 *= -2.0
    D2 += sq_a[:, None]
    D2 += sq_b[None, :]
    return np.maximum(D2, 0.0, out=D2)


def gram_gaussian_block(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-gamma D)`` between the column points of ``A`` and ``B``; when
    ``B is A`` the distances are symmetrised and their diagonal zeroed."""
    D2 = gram_sq_dists(A.T, B.T)
    if B is A:
        D2 = 0.5 * (D2 + D2.T)
        np.fill_diagonal(D2, 0.0)
    D2 *= -gamma
    return np.exp(D2, out=D2)


def normalized_adjacency(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degrees ``d`` of a symmetric matrix ``M``, the mask of points with
    ``d > 0``, and the symmetrically normalised adjacency ``d^{-1/2} M
    d^{-1/2}`` restricted to those points, scaled in place in the one
    copy of ``M``'s active block (``kernels.normalized_adjacency`` before
    the package's spectral paths shared one normalised operator)."""
    deg = M.sum(axis=1)
    active = deg > 0
    d_isqrt = 1.0 / np.sqrt(deg[active])
    S = M[np.ix_(active, active)]
    S *= d_isqrt[:, None]
    S *= d_isqrt[None, :]
    return deg, active, S


def knn_indices(D: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` nearest other points of every row of the
    square ``D``: a stable argsort of each row with its own entry at
    +inf, so ties break by index and a row never selects itself."""
    D = D.copy()
    np.fill_diagonal(D, np.inf)
    return np.argsort(D, axis=1, kind="stable")[:, :k]
