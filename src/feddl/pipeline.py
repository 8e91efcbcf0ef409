"""End-to-end federated pipelines and manifest-driven reruns.

``run_fed_tsne`` / ``run_fed_umap``: learn landmarks federatedly,
complete the squared-distance matrix from per-client landmark blocks,
embed it, evaluate, and write all artefacts.

``run_fed_speclust``: same front half, but clients upload kernel blocks;
the completed kernel matrix is clustered spectrally.

Every run writes a manifest capturing the fully resolved configuration;
``rerun_manifest`` re-executes it.  With a fixed seed all outputs except
the manifest and the optimisation trace (both carry wall-clock times)
are byte-for-byte reproducible, for any worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import kmeans, spectral_cluster
from .config import PipelineConfig, render_manifest
from .data import load_dataset, partition
from .embed import EmbedConfig, tsne_affinities, tsne_embed, umap_embed, umap_graph
from .errors import ConfigError, DataError
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
    CompletionParams,
    LandmarkBlock,
    MatrixKind,
    assemble_cross_block,
    nystrom_complete,
)
from .plotting import emit_scatter_svg

__all__ = [
    "PreparedRun",
    "RunOutputs",
    "prepare_run",
    "run_fit",
    "run_fed_tsne",
    "run_fed_umap",
    "run_fed_speclust",
    "run_eval",
    "run_plot",
    "rerun_manifest",
]


@dataclass
class PreparedRun:
    """Dataset, shards, and initial landmarks for a pipeline run."""

    shards: list
    labels: np.ndarray | None  # aligned to completion row order
    Y0: np.ndarray
    kernel_params: KernelParams
    n_points: int


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


def prepare_run(cfg: PipelineConfig) -> PreparedRun:
    """Load, partition, apply one-shot data perturbation, initialise
    landmarks, and resolve the kernel bandwidth."""
    X, labels = load_dataset(cfg.dataset)
    try:
        shards = partition(X, labels, cfg.part)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    shards = perturb_shards(shards, cfg.privacy)
    meta = shards_meta(shards, with_moments=cfg.fed.init is LandmarkInit.SEED_SAMPLE)
    Y0 = init_landmarks(meta, cfg.fed)
    gamma = cfg.gamma if cfg.gamma is not None else median_heuristic_gamma(Y0)
    order = np.concatenate([s.indices for s in shards])
    row_labels = labels[order] if labels is not None else None
    return PreparedRun(
        shards=shards,
        labels=row_labels,
        Y0=Y0,
        kernel_params=KernelParams(gamma=gamma),
        n_points=X.shape[1],
    )


def _complete(
    prep: PreparedRun, Y: np.ndarray, cfg: PipelineConfig, kind: MatrixKind
) -> CompletedMatrix:
    """Clients compute their blocks against the final landmarks; the
    server assembles and completes."""
    blocks = []
    for s in prep.shards:
        D2 = pairwise_sq_dist(s.data, Y)
        blocks.append(D2 if kind is MatrixKind.DISTANCE else gaussian_kernel(D2, prep.kernel_params))
    B = assemble_cross_block(blocks, [s.client_id for s in prep.shards])
    W_D2 = pairwise_sq_dist(Y, Y)
    W = LandmarkBlock(
        values=W_D2 if kind is MatrixKind.DISTANCE else gaussian_kernel(W_D2, prep.kernel_params),
        kind=kind,
    )
    return nystrom_complete(B, W, cfg.completion, privacy_mode=cfg.privacy.mode.value)


def _embedding_metrics(
    completed: CompletedMatrix | None,
    Z: np.ndarray,
    labels: np.ndarray | None,
    cfg: PipelineConfig,
) -> tuple[MetricsReport, np.ndarray]:
    """Metrics of an embedding; neighbourhood preservation needs the
    high-dimensional ``completed`` distances and is skipped without them."""
    n = Z.shape[0]
    ca = {}
    if labels is not None:
        for k in cfg.ca_ks:
            try:
                ca[k] = ca_knn(Z, labels, k=k, split_ratio=cfg.ca_split, seed=cfg.seed)
            except ValueError:
                pass  # k exceeds the training side at this scale; skip
    npa = (
        {k: npa_knn(completed, Z, k=k) for k in cfg.npa_ks if 1 <= k <= n - 1}
        if completed is not None
        else {}
    )
    km = kmeans(Z, min(cfg.clusters, n), seed=cfg.seed)
    report = MetricsReport(
        ca=ca,
        npa=npa,
        nmi=nmi(labels, km.labels) if labels is not None else None,
        sc=silhouette(Z, km.labels) if km.n_clusters >= 2 else None,
        ari=ari(labels, km.labels) if labels is not None else None,
    )
    return report, km.labels


def _write_common(
    out: Path, cfg: PipelineConfig, command: str, prep: PreparedRun, fed: FedResult,
    extra_outputs: list[str], embed_resolved: dict | None = None,
) -> dict:
    files = {
        "landmarks.fdlm": out / "landmarks.fdlm",
        "trace.csv": out / "trace.csv",
        "manifest.ini": out / "manifest.ini",
    }
    write_matrix(files["landmarks.fdlm"], fed.landmarks)
    write_trace_csv(files["trace.csv"], fed.trace)
    resolved = {"gamma": prep.kernel_params.gamma}
    if fed.gradient_sigmas is not None:
        resolved["gradient_sigmas"] = " ".join(repr(s) for s in fed.gradient_sigmas)
    manifest = render_manifest(
        cfg,
        command,
        resolved,
        ["landmarks.fdlm", "trace.csv"] + extra_outputs,
        embed_resolved=embed_resolved,
    )
    files["manifest.ini"].write_text(manifest)
    return files


def _ensure_out(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_fit(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Federated landmark learning only."""
    out = _ensure_out(out_dir)
    prep = prepare_run(cfg)
    fed = run_feddl(prep.shards, cfg.fed, prep.kernel_params, privacy=cfg.privacy, Y0=prep.Y0)
    files = _write_common(out, cfg, "fit", prep, fed, [])
    return RunOutputs(out_dir=out, files=files, fed=fed, gamma=prep.kernel_params.gamma)


def _embed_config(cfg: PipelineConfig, engine: str, n: int) -> EmbedConfig:
    """The engine's resolved settings, checked against the ``n`` points
    loaded so that an infeasible setting fails before any compute."""
    defaults = EmbedConfig.tsne_defaults if engine == "tsne" else EmbedConfig.umap_defaults
    try:
        econf = defaults(**cfg.embed_overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if engine == "tsne" and not econf.perplexity < n:
        raise ConfigError(f"perplexity = {econf.perplexity:g} must be below the {n} points loaded")
    if engine == "umap" and econf.n_neighbors > n - 1:
        raise ConfigError(
            f"n_neighbors = {econf.n_neighbors} exceeds the {n - 1} other points "
            f"of the {n} loaded"
        )
    return econf


def _run_embedding(cfg: PipelineConfig, out_dir, engine: str) -> RunOutputs:
    out = _ensure_out(out_dir)
    prep = prepare_run(cfg)
    econf = _embed_config(cfg, engine, prep.n_points)
    fed = run_feddl(prep.shards, cfg.fed, prep.kernel_params, privacy=cfg.privacy, Y0=prep.Y0)
    completed = _complete(prep, fed.landmarks, cfg, MatrixKind.DISTANCE)

    if engine == "tsne":
        aff = tsne_affinities(completed, perplexity=econf.perplexity)
        emb = tsne_embed(aff, econf)
    else:
        aff = umap_graph(completed, n_neighbors=econf.n_neighbors)
        emb = umap_embed(aff, econf)
    report, km_labels = _embedding_metrics(completed, emb.Z, prep.labels, cfg)

    extra = ["completed_distance.fdlm", "embedding.csv", "metrics.csv", "scatter.svg"]
    embed_resolved = asdict(econf)
    files = _write_common(out, cfg, engine, prep, fed, extra, embed_resolved=embed_resolved)
    files["completed_distance.fdlm"] = out / "completed_distance.fdlm"
    write_matrix(files["completed_distance.fdlm"], completed.values)
    files["embedding.csv"] = out / "embedding.csv"
    write_embedding_csv(files["embedding.csv"], emb.Z, labels=prep.labels)
    files["metrics.csv"] = out / "metrics.csv"
    write_metrics_csv(files["metrics.csv"], report.rows())
    files["scatter.svg"] = out / "scatter.svg"
    svg_labels = prep.labels if prep.labels is not None else km_labels
    emit_scatter_svg(files["scatter.svg"], emb.Z, labels=svg_labels, title=f"fed-{engine}")
    return RunOutputs(
        out_dir=out,
        files=files,
        fed=fed,
        completed=completed,
        embedding=emb,
        metrics=report,
        gamma=prep.kernel_params.gamma,
    )


def run_fed_tsne(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Full federated t-SNE pipeline."""
    return _run_embedding(cfg, out_dir, "tsne")


def run_fed_umap(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Full federated UMAP pipeline."""
    return _run_embedding(cfg, out_dir, "umap")


def run_fed_speclust(cfg: PipelineConfig, out_dir) -> RunOutputs:
    """Federated spectral clustering on the completed kernel matrix."""
    out = _ensure_out(out_dir)
    prep = prepare_run(cfg)
    if not 2 <= cfg.clusters <= prep.n_points:
        raise ConfigError(
            f"clusters = {cfg.clusters} must lie in [2, {prep.n_points}] for the "
            f"{prep.n_points} points loaded"
        )
    fed = run_feddl(prep.shards, cfg.fed, prep.kernel_params, privacy=cfg.privacy, Y0=prep.Y0)
    completed = _complete(prep, fed.landmarks, cfg, MatrixKind.KERNEL)
    assign = spectral_cluster(completed, cfg.clusters, seed=cfg.seed)
    report = MetricsReport(
        nmi=nmi(prep.labels, assign.labels) if prep.labels is not None else None,
        ari=ari(prep.labels, assign.labels) if prep.labels is not None else None,
    )
    extra = ["completed_kernel.fdlm", "labels.csv", "metrics.csv"]
    files = _write_common(out, cfg, "speclust", prep, fed, extra)
    files["completed_kernel.fdlm"] = out / "completed_kernel.fdlm"
    write_matrix(files["completed_kernel.fdlm"], completed.values)
    files["labels.csv"] = out / "labels.csv"
    write_labels_csv(files["labels.csv"], assign.labels, true_labels=prep.labels)
    files["metrics.csv"] = out / "metrics.csv"
    write_metrics_csv(files["metrics.csv"], report.rows())
    return RunOutputs(
        out_dir=out,
        files=files,
        fed=fed,
        completed=completed,
        cluster_labels=assign.labels,
        metrics=report,
        gamma=prep.kernel_params.gamma,
    )


def run_eval(
    cfg: PipelineConfig,
    out_dir,
    embedding_path,
    distances_path=None,
) -> RunOutputs:
    """Metrics for a stored embedding (labels come from its CSV)."""
    out = _ensure_out(out_dir)
    Z, labels = read_embedding_csv(embedding_path)
    completed = None
    if distances_path:
        D = read_matrix(distances_path)
        if D.shape != (Z.shape[0], Z.shape[0]):
            raise DataError(
                f"distance matrix is {D.shape[0]}x{D.shape[1]} but the embedding has "
                f"{Z.shape[0]} points (expected {Z.shape[0]}x{Z.shape[0]})"
            )
        completed = CompletedMatrix(values=D, kind=MatrixKind.DISTANCE)
    report, _ = _embedding_metrics(completed, Z, labels, cfg)
    files = {"metrics.csv": out / "metrics.csv", "manifest.ini": out / "manifest.ini"}
    write_metrics_csv(files["metrics.csv"], report.rows())
    manifest = render_manifest(cfg, "eval", {}, ["metrics.csv"])
    inputs = f"\n[eval_inputs]\nembedding = {Path(embedding_path).resolve()}\n"
    if distances_path:
        inputs += f"distances = {Path(distances_path).resolve()}\n"
    files["manifest.ini"].write_text(manifest + inputs)
    return RunOutputs(out_dir=out, files=files, metrics=report)


def run_plot(out_dir, embedding_path, title: str = "") -> RunOutputs:
    """Scatter SVG from a stored embedding CSV."""
    out = _ensure_out(out_dir)
    Z, labels = read_embedding_csv(embedding_path)
    path = out / "scatter.svg"
    emit_scatter_svg(path, Z, labels=labels, title=title)
    return RunOutputs(out_dir=out, files={"scatter.svg": path})


def rerun_manifest(manifest_path, out_dir, workers: int | None = None) -> RunOutputs:
    """Re-execute a saved manifest into ``out_dir``."""
    from .config import parse_manifest

    try:
        text = Path(manifest_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    command, cfg = parse_manifest(text)
    if workers is not None:
        cfg.fed = replace(cfg.fed, workers=workers)
    if command == "fit":
        return run_fit(cfg, out_dir)
    if command == "tsne":
        return run_fed_tsne(cfg, out_dir)
    if command == "umap":
        return run_fed_umap(cfg, out_dir)
    if command == "speclust":
        return run_fed_speclust(cfg, out_dir)
    if command == "eval":
        import configparser

        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        if not cp.has_option("eval_inputs", "embedding"):
            raise ConfigError("eval manifest is missing its [eval_inputs] section")
        emb = cp.get("eval_inputs", "embedding")
        dist = cp.get("eval_inputs", "distances", fallback=None)
        return run_eval(cfg, out_dir, emb, dist)
    raise ConfigError(f"manifest command {command!r} cannot be re-run")
