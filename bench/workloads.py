"""Benchmark workloads and their seeded input generator.

Each workload is a blob dataset the benchmark writes itself as a CSV with
a ``label`` column, plus the INI configuration the pipeline runs on it.
The program only ever sees the CSV and the INI, so a workload is fully
determined by its definition below and the workload seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = ["Workload", "WORKLOADS", "generate_points", "write_inputs", "tiny"]


@dataclass(frozen=True)
class Workload:
    """One pipeline command on one generated dataset.

    The points are ``n_blobs`` isotropic Gaussian blobs of ``std`` around
    centres that sit ``radius`` from the origin along seeded orthonormal
    directions, so every pair of centres is ``radius * sqrt(2)`` apart and
    the overlap does not depend on the seed.  ``sections`` is the INI body
    the pipeline runs with, minus ``[dataset]`` and ``[run]``.
    """

    name: str
    why: str
    command: str  # "tsne" | "umap" | "speclust"
    n_blobs: int
    points_per_blob: int
    dim: int
    radius: float
    std: float
    sections: dict
    # Also run the configuration at ``workers = 1`` and require the same
    # artifacts as the multi-worker runs.
    check_workers: bool = False

    @property
    def n_points(self) -> int:
        return self.n_blobs * self.points_per_blob

    @property
    def n_clients(self) -> int:
        return int(self.sections["partition"]["clients"])

    @property
    def n_landmarks(self) -> int:
        return int(self.sections["federation"]["landmarks"])

    def config_text(self, csv_path: Path, seed: int, workers: int | None = None) -> str:
        """INI configuration for one run on the CSV at ``csv_path``."""
        sections = {
            "dataset": {"source": "csv", "csv_path": str(csv_path), "label_column": "label"},
            **{k: dict(v) for k, v in self.sections.items()},
            "run": {"seed": str(seed)},
        }
        if workers is not None:
            sections["federation"]["workers"] = str(workers)
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in keys.items())
            lines.append("")
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tsne-iid",
            why=(
                "t-SNE on IID clients: the exact KL descent dominates, so it exercises embed "
                "and leaves federation, nystrom and clustering small"
            ),
            command="tsne",
            n_blobs=10,
            points_per_blob=60,
            dim=64,
            radius=10.0,
            std=1.0,
            sections={
                "partition": {"clients": "10", "mode": "iid"},
                "federation": {"rounds": "20", "landmarks": "200", "workers": "1"},
                "embedding": {
                    "iterations": "150",
                    "early_exaggeration_iters": "40",
                    "momentum_switch_iter": "40",
                },
                "clustering": {"clusters": "10"},
            },
        ),
        Workload(
            name="speclust-noniid",
            why=(
                "spectral clustering on one-class clients: no embedding; the federated fit and "
                "the dense n x n completion and eigensolve dominate time and memory"
            ),
            command="speclust",
            n_blobs=10,
            points_per_blob=250,
            dim=64,
            radius=3.5,
            std=1.0,
            sections={
                "partition": {"clients": "10", "mode": "noniid_one_class"},
                "federation": {"rounds": "30", "landmarks": "200", "workers": "1"},
                "clustering": {"clusters": "10"},
            },
        ),
        Workload(
            name="umap-dpgrad",
            why=(
                "UMAP with noised gradient averaging on a 2-thread client pool: other loss, "
                "other upload and the threaded client path through the same layers"
            ),
            command="umap",
            n_blobs=10,
            points_per_blob=60,
            dim=64,
            radius=10.0,
            std=1.0,
            sections={
                "partition": {"clients": "10", "mode": "noniid_one_class"},
                "federation": {
                    "rounds": "30",
                    "landmarks": "200",
                    "aggregation": "average_gradients",
                    "workers": "2",
                },
                "privacy": {"mode": "gradient", "beta": "0.1"},
                "embedding": {"iterations": "150"},
                "clustering": {"clusters": "10"},
            },
            check_workers=True,
        ),
    )
}


def generate_points(wl: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (``n x dim``, rows shuffled) and integer labels for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, wl.n_points, wl.dim]))
    basis, _ = np.linalg.qr(rng.normal(size=(wl.dim, wl.dim)))
    centers = wl.radius * basis[:, : wl.n_blobs].T
    labels = np.repeat(np.arange(wl.n_blobs), wl.points_per_blob)
    X = centers[labels] + wl.std * rng.normal(size=(wl.n_points, wl.dim))
    order = rng.permutation(wl.n_points)
    return X[order], labels[order]


def write_inputs(wl: Workload, seed: int, csv_path: Path) -> int:
    """Write the workload's CSV for ``seed``; returns its size in bytes."""
    X, labels = generate_points(wl, seed)
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([f"x{j}" for j in range(wl.dim)] + ["label"])
        for row, lab in zip(X.tolist(), labels.tolist()):
            w.writerow([repr(v) for v in row] + [str(lab)])
    return csv_path.stat().st_size


def tiny(wl: Workload) -> Workload:
    """A seconds-long variant of ``wl`` with the same layers and options."""
    sections = {k: dict(v) for k, v in wl.sections.items()}
    sections["federation"].update(rounds="3", landmarks="20")
    if "embedding" in sections:
        sections["embedding"].update(iterations="12")
        if "early_exaggeration_iters" in sections["embedding"]:
            sections["embedding"].update(early_exaggeration_iters="4", momentum_switch_iter="4")
        sections["embedding"]["perplexity" if wl.command == "tsne" else "n_neighbors"] = "5"
    sections["evaluation"] = {"ca_ks": "1 10", "npa_ks": "10"}
    return replace(wl, points_per_blob=12, dim=16, sections=sections)
