"""End-to-end federated pipelines and manifest-driven reruns.

Every pipeline command (``COMMANDS``) runs through one driver, ``_run``:
load the data and reject any setting infeasible for the points loaded
(``_check_feasible``), learn landmarks federatedly (``fit`` stops here),
complete the squared-distance (``tsne``/``umap``) or kernel
(``speclust``) matrix from per-client blocks, embed and evaluate or
cluster, and write the artefacts from one ordered list of ``(file name,
writer)`` entries that also gives the manifest its ``[outputs]``.  Stage
functions are called through this module's names at call time, so a
wrapper installed on one of them sees every call.

``rerun_manifest`` re-executes a run's manifest.  With a fixed seed all
outputs except the manifest and the optimisation trace (both carry
wall-clock times) are byte-for-byte reproducible, for any worker count.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import kmeans, spectral_cluster
from .config import PipelineConfig, parse_manifest, render_manifest
from .data import load_dataset, partition
from .embed import EmbedConfig, tsne_affinities, tsne_embed, umap_embed, umap_graph
from .errors import ConfigError, DataError, NumericalAbort
from .federation import (
    FedResult,
    LandmarkInit,
    init_landmarks,
    perturb_shards,
    run_feddl,
    shards_meta,
)
from .kernels import KernelParams, gaussian_kernel, median_heuristic_gamma, pairwise_sq_dist
from .metrics import MetricsReport, ari, ca_knn, nmi, npa_knn, silhouette
from .matrixio import (
    read_embedding_csv,
    read_matrix,
    write_embedding_csv,
    write_labels_csv,
    write_matrix,
    write_metrics_csv,
    write_trace_csv,
)
from .nystrom import (
    CompletedMatrix,
    LandmarkBlock,
    MatrixKind,
    assemble_cross_block,
    nystrom_complete,
)
from .plotting import emit_scatter_svg

__all__ = [
    "COMMANDS",
    "RunOutputs",
    "run_fit",
    "run_fed_tsne",
    "run_fed_umap",
    "run_fed_speclust",
    "run_eval",
    "run_plot",
    "rerun_manifest",
]


@dataclass
class RunOutputs:
    """Artefacts of one pipeline run."""

    out_dir: Path
    files: dict
    fed: FedResult | None = None
    completed: CompletedMatrix | None = None
    embedding: object | None = None
    cluster_labels: np.ndarray | None = None
    metrics: MetricsReport | None = None
    gamma: float | None = None


def _output_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out


def _write(out: Path, writers: list) -> dict:
    """Run each ``(file name, writer)`` entry in order on ``out / name``."""
    files = {}
    for name, write in writers:
        files[name] = out / name
        write(files[name])
    return files


def _check_feasible(
    cfg: PipelineConfig, command: str, X: np.ndarray, labels: np.ndarray | None
) -> tuple[list, EmbedConfig | None]:
    """Partition the loaded data and check every setting that depends on
    the number ``n`` of points loaded, raising ``ConfigError`` before any
    compute.  Returns the shards and, for an embedding, the engine's
    resolved settings."""
    n = X.shape[1]
    try:
        shards = partition(X, labels, cfg.part)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if command == "speclust" and not 2 <= cfg.clusters <= n:
        raise ConfigError(
            f"clusters = {cfg.clusters} must lie in [2, {n}] for the {n} points loaded"
        )
    if command not in ("tsne", "umap"):
        return shards, None
    defaults = EmbedConfig.tsne_defaults if command == "tsne" else EmbedConfig.umap_defaults
    try:
        econf = defaults(**cfg.embed_overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if command == "tsne" and n < 3:
        raise ConfigError(f"t-SNE needs at least 3 points, got the {n} loaded")
    if command == "tsne" and not econf.perplexity < n:
        raise ConfigError(f"perplexity = {econf.perplexity:g} must be below the {n} points loaded")
    if command == "umap" and econf.n_neighbors > n - 1:
        raise ConfigError(
            f"n_neighbors = {econf.n_neighbors} exceeds the {n - 1} other points "
            f"of the {n} loaded"
        )
    return shards, econf


def _complete(
    shards: list, Y: np.ndarray, kernel: KernelParams, cfg: PipelineConfig, kind: MatrixKind
) -> CompletedMatrix:
    """Clients compute their blocks against the final landmarks; the
    server assembles and completes.  Blocks or a completion that leave
    float64 (finite points whose squared distances overflow, a landmark
    block too small to invert) abort numerically."""
    blocks = []
    for s in shards:
        with np.errstate(over="ignore", invalid="ignore"):
            D2 = pairwise_sq_dist(s.data, Y)
        if not np.isfinite(D2).all():
            raise NumericalAbort(
                f"client {s.client_id}: squared distances to the landmarks overflow float64"
            )
        blocks.append(D2 if kind is MatrixKind.DISTANCE else gaussian_kernel(D2, kernel))
    B = assemble_cross_block(blocks, [s.client_id for s in shards])
    W_D2 = pairwise_sq_dist(Y, Y)
    try:
        W = LandmarkBlock(
            values=W_D2 if kind is MatrixKind.DISTANCE else gaussian_kernel(W_D2, kernel),
            kind=kind,
        )
        return nystrom_complete(B, W, cfg.completion, privacy_mode=cfg.privacy.mode.value)
    except ValueError as exc:
        raise NumericalAbort(f"completion failed: {exc}") from exc


def _embedding_metrics(
    completed: CompletedMatrix | None,
    Z: np.ndarray,
    labels: np.ndarray | None,
    cfg: PipelineConfig,
) -> tuple[MetricsReport, np.ndarray]:
    """Metrics of an embedding; neighbourhood preservation needs the
    high-dimensional ``completed`` distances and is skipped without them.
    A k that the point count cannot serve gets no row."""
    n = Z.shape[0]
    ca = (
        ca_knn(Z, labels, k=cfg.ca_ks, split_ratio=cfg.ca_split, seed=cfg.seed)
        if labels is not None
        else {}
    )
    npa = npa_knn(completed, Z, k=cfg.npa_ks) if completed is not None else {}
    km = kmeans(Z, min(cfg.clusters, n), seed=cfg.seed)
    report = MetricsReport(
        ca=ca,
        npa=npa,
        nmi=nmi(labels, km.labels) if labels is not None else None,
        sc=silhouette(Z, km.labels) if km.n_clusters >= 2 else None,
        ari=ari(labels, km.labels) if labels is not None else None,
    )
    return report, km.labels


def _run(cfg: PipelineConfig, out_dir, command: str) -> RunOutputs:
    """The one pipeline driver: load, check, fit, complete, embed or
    cluster, evaluate, write."""
    out = _output_dir(out_dir)
    X, labels = load_dataset(cfg.dataset)
    shards, econf = _check_feasible(cfg, command, X, labels)
    shards = perturb_shards(shards, cfg.privacy)
    meta = shards_meta(shards, with_moments=cfg.fed.init is LandmarkInit.SEED_SAMPLE)
    Y0 = init_landmarks(meta, cfg.fed)
    try:
        kernel = KernelParams(
            gamma=cfg.gamma if cfg.gamma is not None else median_heuristic_gamma(Y0)
        )
    except ValueError as exc:  # only the heuristic can fail: cfg.gamma is checked
        raise NumericalAbort(f"bandwidth heuristic on the initial landmarks: {exc}") from exc
    order = np.concatenate([s.indices for s in shards])
    row_labels = labels[order] if labels is not None else None  # completion row order

    fed = run_feddl(shards, cfg.fed, kernel, privacy=cfg.privacy, Y0=Y0)
    res = RunOutputs(out_dir=out, files={}, fed=fed, gamma=kernel.gamma)
    writers = [
        ("landmarks.fdlm", lambda p: write_matrix(p, fed.landmarks)),
        ("trace.csv", lambda p: write_trace_csv(p, fed.trace)),
    ]
    if command != "fit":
        kind = MatrixKind.KERNEL if command == "speclust" else MatrixKind.DISTANCE
        completed = res.completed = _complete(shards, fed.landmarks, kernel, cfg, kind)
        name = f"completed_{kind.value}.fdlm"
        writers.append((name, lambda p: write_matrix(p, completed.values)))
    if econf is not None:
        if command == "tsne":
            emb = tsne_embed(tsne_affinities(completed, perplexity=econf.perplexity), econf)
        else:
            emb = umap_embed(umap_graph(completed, n_neighbors=econf.n_neighbors), econf)
        res.embedding = emb
        res.metrics, km_labels = _embedding_metrics(completed, emb.Z, row_labels, cfg)
        svg_labels = row_labels if row_labels is not None else km_labels
        title = f"fed-{command}"
        writers += [
            ("embedding.csv", lambda p: write_embedding_csv(p, emb.Z, labels=row_labels)),
            ("metrics.csv", lambda p: write_metrics_csv(p, res.metrics.rows())),
            ("scatter.svg", lambda p: emit_scatter_svg(p, emb.Z, labels=svg_labels, title=title)),
        ]
    elif command == "speclust":
        found = res.cluster_labels = spectral_cluster(completed, cfg.clusters, seed=cfg.seed).labels
        res.metrics = MetricsReport(
            nmi=nmi(row_labels, found) if row_labels is not None else None,
            ari=ari(row_labels, found) if row_labels is not None else None,
        )
        writers += [
            ("labels.csv", lambda p: write_labels_csv(p, found, true_labels=row_labels)),
            ("metrics.csv", lambda p: write_metrics_csv(p, res.metrics.rows())),
        ]

    resolved = {"gamma": kernel.gamma}
    if fed.gradient_sigmas is not None:
        resolved["gradient_sigmas"] = " ".join(repr(s) for s in fed.gradient_sigmas)
    manifest = render_manifest(
        cfg,
        command,
        resolved,
        [name for name, _ in writers],
        embed_resolved=asdict(econf) if econf is not None else None,
    )
    writers.append(("manifest.ini", lambda p: p.write_text(manifest)))
    res.files = _write(out, writers)
    return res


def run_fit(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Learn landmarks only; write landmarks, trace, and manifest."""
    return _run(cfg, out_dir, "fit")


def run_fed_tsne(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Federated t-SNE: fit, complete distances, embed, evaluate."""
    return _run(cfg, out_dir, "tsne")


def run_fed_umap(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Federated UMAP: fit, complete distances, embed, evaluate."""
    return _run(cfg, out_dir, "umap")


def run_fed_speclust(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Federated spectral clustering on the completed kernel matrix."""
    return _run(cfg, out_dir, "speclust")


#: pipeline command -> entry point; the CLI and ``rerun_manifest`` use this table
COMMANDS = {
    "fit": run_fit,
    "tsne": run_fed_tsne,
    "umap": run_fed_umap,
    "speclust": run_fed_speclust,
}


def run_eval(
    cfg: PipelineConfig,
    out_dir,
    embedding_path,
    distances_path=None,
) -> RunOutputs:
    """Metrics for a stored embedding (labels come from its CSV)."""
    out = _output_dir(out_dir)
    Z, labels = read_embedding_csv(embedding_path)
    completed = None
    if distances_path:
        D = read_matrix(distances_path)
        if D.shape != (Z.shape[0], Z.shape[0]):
            raise DataError(
                f"distance matrix is {D.shape[0]}x{D.shape[1]} but the embedding has "
                f"{Z.shape[0]} points (expected {Z.shape[0]}x{Z.shape[0]})"
            )
        try:
            completed = CompletedMatrix(values=D, kind=MatrixKind.DISTANCE)
        except ValueError as exc:
            raise DataError(f"{distances_path}: {exc}") from exc
    report, _ = _embedding_metrics(completed, Z, labels, cfg)
    manifest = render_manifest(cfg, "eval", {}, ["metrics.csv"])
    manifest += f"\n[eval_inputs]\nembedding = {Path(embedding_path).resolve()}\n"
    if distances_path:
        manifest += f"distances = {Path(distances_path).resolve()}\n"
    files = _write(out, [
        ("metrics.csv", lambda p: write_metrics_csv(p, report.rows())),
        ("manifest.ini", lambda p: p.write_text(manifest)),
    ])
    return RunOutputs(out_dir=out, files=files, metrics=report)


def run_plot(out_dir, embedding_path, title: str = "") -> RunOutputs:
    """Scatter SVG from a stored embedding CSV."""
    out = _output_dir(out_dir)
    Z, labels = read_embedding_csv(embedding_path)
    files = _write(
        out, [("scatter.svg", lambda p: emit_scatter_svg(p, Z, labels=labels, title=title))]
    )
    return RunOutputs(out_dir=out, files=files)


def rerun_manifest(manifest_path, out_dir, workers: int | None = None) -> RunOutputs:
    """Re-execute a saved manifest into ``out_dir``."""
    try:
        text = Path(manifest_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    command, cfg = parse_manifest(text)
    if workers is not None:
        cfg.fed = replace(cfg.fed, workers=workers)
    if command in COMMANDS:
        return COMMANDS[command](cfg, out_dir)
    if command == "eval":
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        if not cp.has_option("eval_inputs", "embedding"):
            raise ConfigError("eval manifest is missing its [eval_inputs] section")
        emb = cp.get("eval_inputs", "embedding")
        dist = cp.get("eval_inputs", "distances", fallback=None)
        return run_eval(cfg, out_dir, emb, dist)
    raise ConfigError(f"manifest command {command!r} cannot be re-run")
