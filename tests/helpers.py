"""Shared utilities for the test suite."""

from __future__ import annotations

import csv
import struct

import numpy as np


def central_fd(f, X: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    X = np.asarray(X, dtype=np.float64)
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return g


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    """``a`` and ``b`` are the same array bit for bit: dtype, shape, bytes."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative error in the Frobenius norm."""
    denom = np.linalg.norm(exact)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(exact)) / max(denom, 1e-300))


def within_cancelled_terms(g: np.ndarray, g_ref: np.ndarray, C: np.ndarray, Z: np.ndarray) -> bool:
    """Whether every entry of the gradient ``g`` is within 1e-12 of
    ``g_ref`` relative to the terms ``4 (sum_j C_ij z_i - sum_j C_ij z_j)``
    cancels, ``4 (|C|.sum(1) |z_i| + |C| @ |Z|)`` for the coefficients ``C``.
    Where those terms are far larger than the gradient, any two orders of
    summing them differ by far more than 1e-12 of the gradient."""
    A, aZ = np.abs(C), np.abs(Z)
    scale = 4.0 * (A.sum(axis=1)[:, None] * aZ + A @ aZ)
    return bool((np.abs(g - g_ref) <= 1e-12 * scale).all())


def read_labels(path) -> np.ndarray:
    """The ``label`` column of a ``labels.csv``."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][:2] == ["point_id", "label"], rows[0]
    return np.asarray([int(row[1]) for row in rows[1:]], dtype=np.int64)


def write_idx_pair(images_path, labels_path, X01: np.ndarray, labels: np.ndarray,
                   rows: int | None = None, cols: int | None = None) -> None:
    """Write a big-endian images/labels binary pair.

    ``X01`` is ``(rows*cols, count)`` with values in [0, 1]; pixels are
    quantised to uint8 via round(x * 255).
    """
    m, count = X01.shape
    if rows is None or cols is None:
        rows, cols = m, 1
    assert rows * cols == m
    pixels = np.clip(np.round(X01 * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, count, rows, cols))
        # column j is one flattened image
        f.write(pixels.T.tobytes(order="C"))
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, count))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def random_sq_distance_matrix(n: int, dim: int, rng: np.random.Generator,
                              scale: float = 1.0) -> np.ndarray:
    """Squared Euclidean distances of random points (valid metric input)."""
    P = scale * rng.normal(size=(n, dim))
    sq = np.einsum("ij,ij->i", P, P)
    D2 = sq[:, None] - 2.0 * (P @ P.T) + sq[None, :]
    np.maximum(D2, 0.0, out=D2)
    D2 = 0.5 * (D2 + D2.T)
    np.fill_diagonal(D2, 0.0)
    return D2


def relabel_match_rate(a: np.ndarray, b: np.ndarray) -> float:
    """Best-case agreement of two labelings under greedy label matching."""
    a = np.asarray(a)
    b = np.asarray(b)
    rate = 0
    for av in np.unique(a):
        mask = a == av
        vals, counts = np.unique(b[mask], return_counts=True)
        rate += counts.max()
    return rate / a.size
