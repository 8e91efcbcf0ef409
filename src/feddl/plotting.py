"""Self-contained SVG scatter plots of 2-D embeddings.

No plotting library is involved: the emitter writes a fixed-size SVG
with one circle per point, colours cycling through a fixed categorical
palette by label, and a legend.  All coordinates are formatted with a
fixed precision so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from html import escape

import numpy as np

__all__ = ["emit_scatter_svg", "PALETTE"]

#: fixed categorical palette (cycled when there are more labels).
PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_WIDTH, _HEIGHT, _PAD = 640, 480, 40


def _f(x: float) -> str:
    return f"{x:.3f}"


def emit_scatter_svg(path, Z: np.ndarray, labels=None, title: str = "") -> None:
    """Write a scatter plot of the first two embedding coordinates.

    Handles the degenerate cases (no points, a single point, collapsed
    extent) by padding the view box; unknown labels default to a single
    colour.  The title and the legend's labels are escaped as XML text.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or (Z.size and Z.shape[1] < 2):
        raise ValueError(f"need an n x >=2 coordinate array, got shape {Z.shape}")
    n = Z.shape[0]
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    labels = np.asarray(labels)
    classes = np.unique(labels) if n else np.empty(0, dtype=np.int64)

    if n:
        x, y = Z[:, 0], Z[:, 1]
        x_lo, x_hi = float(x.min()), float(x.max())
        y_lo, y_hi = float(y.min()), float(y.max())
    else:
        x_lo = y_lo = -1.0
        x_hi = y_hi = 1.0
    if x_hi - x_lo <= 0:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo <= 0:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    sx = (_WIDTH - 2 * _PAD) / (x_hi - x_lo)
    sy = (_HEIGHT - 2 * _PAD) / (y_hi - y_lo)

    def px(v: float) -> float:
        return _PAD + (v - x_lo) * sx

    def py(v: float) -> float:
        return _HEIGHT - _PAD - (v - y_lo) * sy

    color_of = {lab: PALETTE[i % len(PALETTE)] for i, lab in enumerate(classes.tolist())}
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_WIDTH - 2 * _PAD}" '
        f'height="{_HEIGHT - 2 * _PAD}" fill="none" stroke="#cccccc"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title, quote=False)}</text>'
        )
    for i in range(n):
        lines.append(
            f'<circle cx="{_f(px(Z[i, 0]))}" cy="{_f(py(Z[i, 1]))}" r="3" '
            f'fill="{color_of[labels[i]]}" fill-opacity="0.7"/>'
        )
    for i, lab in enumerate(classes.tolist()):
        ly = _PAD + 14 + 16 * i
        lines.append(
            f'<circle cx="{_WIDTH - _PAD - 70}" cy="{ly - 4}" r="4" fill="{color_of[lab]}"/>'
        )
        lines.append(
            f'<text x="{_WIDTH - _PAD - 60}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(str(lab), quote=False)}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
