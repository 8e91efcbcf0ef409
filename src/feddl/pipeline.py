"""End-to-end federated pipelines and manifest-driven reruns.

Every pipeline command (``COMMANDS``) runs through one driver, ``_run``:
load the data and reject any setting infeasible for the points loaded
(``_check_feasible``), learn landmarks federatedly (``fit`` stops here),
complete the squared-distance (``tsne``/``umap``) or kernel
(``speclust``) matrix from each client's rows of the landmark factor
(``_complete``), embed and evaluate or
cluster, and write the artefacts from one ordered list of ``(file name,
writer)`` entries that also gives the manifest its ``[outputs]``.  The
completed matrix is written as it is made, so its entry has no writer
and a run that fails after the completion leaves that file without a
manifest.  The completion's one pass over its row panels also feeds the
panel readers of the affinities or graph and of the neighbourhood
preservation (``_readers``), so that no stage after it reads the
distances as an n x n array.  Stage functions are called through this
module's names at call time, so a wrapper installed on one of them sees
every call.

The manifest's ``[resolved]`` section records what the run resolved:
the bandwidth, the fit's convergence diagnostic, the completion's
provenance and each client's upload in bytes (``client_upload_bytes``).

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
from .embed import (
    EmbedConfig,
    _Calibration,
    _graph_lists,
    tsne_affinities,
    tsne_embed,
    umap_embed,
    umap_graph,
)
from .errors import ConfigError, DataError, NumericalAbort, _available_memory, overflow_aborts
from .federation import (
    FedResult,
    convergence_diagnostic,
    init_landmarks,
    perturb_shards,
    run_feddl,
)
from .kernels import (
    KernelParams,
    gaussian_kernel,
    median_heuristic_gamma,
    pairwise_sq_dist,
)
from .metrics import MetricsReport, _npa_lists, ari, ca_knn, nmi, npa_knn, silhouette
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
    _zero_diagonal,
    assemble_cross_block,
    landmark_factor,
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
    """Run each ``(file name, writer)`` entry in order on ``out / name``;
    a ``None`` writer's file was written earlier in the run."""
    files = {}
    for name, write in writers:
        files[name] = out / name
        if write is not None:
            write(files[name])
    return files


#: each command's peak of dense n x n float64 arrays, in units of
#: n^2 x 8 B, as tracemalloc measured it over the second whole run in a
#: process at n = 1000: t-SNE 1.02, in the completion's pass (the
#: calibration's upper row panels of the joint affinities, 0.5, and about
#: eight 64 x n work arrays of the pass and one row block's bisection;
#: its descent holds the panels and its 64-row work arrays, 0.79).  A t-SNE
#: run holds no n x n array, so its multiple falls toward 0.5 as n grows
#: (0.71 at n = 2500).  UMAP peaks at 0.35, at ``b != 1`` too, in its
#: embedding (the completion's pass, one 64-row panel and the row-sized
#: work arrays of the neighbour lists read from it, holds 0.18).  A UMAP
#: run holds no n x n array: its graph is sparse rows (``embed.CSRGraph``)
#: and its descent and metrics work on 64-row panels, so its multiple,
#: made of O(64 n) arrays, falls as 1 / n (0.14 at n = 2500).  No stage
#: reads the completion's values.  Spectral clustering peaks at 1.09 when
#: its kernel completion clips: the one n x n array its ``operator``
#: assembles.  One that clips nothing holds no n x n array, but whether it
#: clips is known only after its pass, so the guard covers the clipped
#: case.  ``fit`` holds no n x n array.
_DENSE_PEAK_N2 = {"tsne": 1.05, "umap": 0.4, "speclust": 1.1}
#: the fit's peak in n_p^2 x 8 B, n_p the largest shard: the MMD self-term's
#: n_p x n_p block, one product of the shard's augmented operands turned
#: into kernel values in place (1.02 for one client at n = 1000)
_SHARD_PEAK_N2 = 1.05


def _embed_settings(cfg: PipelineConfig, command: str, n: int) -> EmbedConfig:
    """The t-SNE or UMAP engine's resolved settings, checked against the
    ``n`` points loaded."""
    defaults = EmbedConfig.tsne_defaults if command == "tsne" else EmbedConfig.umap_defaults
    try:
        econf = defaults(**cfg.embed_overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if econf.out_dim < 2:
        raise ConfigError(
            f"out_dim = {econf.out_dim} must be >= 2: the run plots the first two "
            f"coordinates in scatter.svg"
        )
    if command == "tsne" and n < 3:
        raise ConfigError(f"t-SNE needs at least 3 points, got the {n} loaded")
    if command == "tsne" and not econf.perplexity < n:
        raise ConfigError(f"perplexity = {econf.perplexity:g} must be below the {n} points loaded")
    if command == "umap" and econf.n_neighbors > n - 1:
        raise ConfigError(
            f"n_neighbors = {econf.n_neighbors} exceeds the {n - 1} other points "
            f"of the {n} loaded"
        )
    return econf


def _check_feasible(
    cfg: PipelineConfig, command: str, X: np.ndarray, labels: np.ndarray | None
) -> tuple[list, EmbedConfig | None]:
    """Partition the loaded data and check every setting that depends on
    the number ``n`` of points loaded, and that the command's n x n arrays
    and the fit's blocks on the largest client fit in the memory
    available, raising ``ConfigError`` before any compute.  Returns the
    shards and, for an embedding, the engine's resolved settings."""
    n = X.shape[1]
    try:
        shards = partition(X, labels, cfg.part)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if command == "speclust" and not 2 <= cfg.clusters <= n:
        raise ConfigError(
            f"clusters = {cfg.clusters} must lie in [2, {n}] for the {n} points loaded"
        )
    econf = _embed_settings(cfg, command, n) if command in ("tsne", "umap") else None
    dense = _DENSE_PEAK_N2.get(command, 0.0)
    n_p = max(s.n_points for s in shards)
    need, what = max(
        (dense * n * n * 8, f"n x n arrays ({dense} x n^2 x 8 B)"),
        (
            _SHARD_PEAK_N2 * n_p * n_p * 8,
            f"the fit's blocks on a client of {n_p} points ({_SHARD_PEAK_N2} x n_p^2 x 8 B)",
        ),
    )
    available = _available_memory()
    if available is not None and need > available:
        raise ConfigError(
            f"{command} on the {n} points loaded needs about {need / 2**20:.1f} MiB of "
            f"{what}, more than the {available / 2**20:.1f} MiB of memory available"
        )
    return shards, econf


def _readers(command: str, econf: EmbedConfig, cfg: PipelineConfig, n: int) -> tuple:
    """The panel readers that a t-SNE or UMAP run's affinities or graph
    and its neighbourhood preservation read its distance completion
    through, for the completion's pass to feed."""
    if command == "tsne":
        affinity = _Calibration(econf.perplexity)
    else:
        affinity = _graph_lists(econf.n_neighbors)
    return affinity, _npa_lists(cfg.npa_ks, n)


def _complete(
    shards: list,
    Y: np.ndarray,
    kernel: KernelParams,
    cfg: PipelineConfig,
    kind: MatrixKind,
    path: Path | None = None,
    readers: tuple = (),
) -> CompletedMatrix:
    """Clients compute their blocks against the final landmarks; the
    server decomposes the landmark block and broadcasts its factor ``R``
    (``nystrom.landmark_factor``); each client uploads its block times
    ``R``, its rows of the one Nystrom factor ``F``; the server stacks
    them and completes, writing the completion to ``path``, when given,
    by row panels as it is made, and feeding its panels to ``readers``.
    Blocks or a completion that leave float64 (finite points whose
    squared distances overflow, a landmark block too small to invert)
    abort numerically.  The overflow is raised rather than looked for in
    the blocks, because the Gram expansion clamps an overflowing ``2
    x.y`` to a distance of 0.  Every client's block is made and checked
    before the landmark block, so a client's overflow is reported before
    any fault of the landmarks.

    Nothing after the blocks reads the points, so ``shards``, the caller's
    list, is emptied once they are made.  Each block is let go once it is
    projected, and the server never holds the ``n x n_y`` cross block:
    the pass holds ``F`` (``n x k``) and a panel."""

    def sq_dist_block(A: np.ndarray, what: str) -> np.ndarray:
        with overflow_aborts(f"{what} overflow float64"):
            D2 = pairwise_sq_dist(A, Y)
        if not np.isfinite(D2).all():  # einsum's squared norms overflow without raising
            raise NumericalAbort(f"{what} overflow float64")
        return D2

    def block(A: np.ndarray, what: str) -> np.ndarray:
        """``A``'s block against the landmarks, of the completion's kind."""
        D2 = sq_dist_block(A, what)
        return D2 if kind is MatrixKind.DISTANCE else gaussian_kernel(D2, kernel)

    blocks = [
        block(s.data, f"client {s.client_id}: squared distances to the landmarks")
        for s in shards
    ]
    ids = [s.client_id for s in shards]
    shards.clear()
    W_values = block(Y, "squared distances between the landmarks")
    try:
        W = LandmarkBlock(values=W_values, kind=kind)
        del W_values
        factor = landmark_factor(W, cfg.completion)
        del W
        uploads = []
        while blocks:  # a client's block is not read once it is projected
            uploads.append(factor.project(blocks.pop(0)))
        F = assemble_cross_block(uploads, ids)
        del uploads  # F holds their values
        return nystrom_complete(
            F,
            factor,
            privacy_mode=cfg.privacy.mode.value,
            write=None if path is None else (lambda M: write_matrix(path, M)),
            readers=readers,
        )
    except ValueError as exc:
        raise NumericalAbort(f"completion failed: {exc}") from exc


def _completion_provenance(completed: CompletedMatrix) -> dict:
    """The manifest's ``[resolved]`` record of a completion: the ridge it
    applied, the eigenpairs of the landmark block it kept, their least and
    largest |eigenvalue + ridge|, how many are negative and, for a kernel
    completion, whether a panel clipped."""
    prov = completed.provenance
    record = {
        "ridge_lambda": repr(float(prov["ridge_lambda"])),
        "kept_rank": prov["kept_rank"],
        "kept_abs_eigenvalues": " ".join(repr(v) for v in prov["kept_abs_eigenvalues"]),
        "kept_negative": prov["kept_negative"],
    }
    if completed.kind is MatrixKind.KERNEL:
        record["clipped"] = "yes" if completed.clipped else "no"
    return record


def _client_upload_bytes(fit_bytes: int, rows: list, completed: CompletedMatrix | None) -> list:
    """Each client's upload in bytes, in client order: ``fit_bytes``, one
    array of the landmarks' shape a round, and its rows of the
    completion's factor ``F``."""
    F = None if completed is None else completed.factors.F
    row_bytes = 0 if F is None else F.shape[1] * F.itemsize
    return [fit_bytes + n_p * row_bytes for n_p in rows]


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
        sc=silhouette(Z, km.labels) if np.unique(km.labels).size >= 2 else None,
        ari=ari(labels, km.labels) if labels is not None else None,
    )
    return report, km.labels


def _run(cfg: PipelineConfig, out_dir, command: str) -> RunOutputs:
    """The one pipeline driver: load, check, fit, complete, embed or
    cluster, evaluate, write."""
    out = _output_dir(out_dir)
    X, labels = load_dataset(cfg.dataset)
    shards, econf = _check_feasible(cfg, command, X, labels)
    del X  # the shards hold copies of its columns
    shards = perturb_shards(shards, cfg.privacy)
    Y0 = init_landmarks(shards, cfg.fed)
    try:
        kernel = KernelParams(
            gamma=cfg.gamma if cfg.gamma is not None else median_heuristic_gamma(Y0)
        )
    except ValueError as exc:  # only the heuristic can fail: cfg.gamma is checked
        raise NumericalAbort(f"bandwidth heuristic on the initial landmarks: {exc}") from exc
    order = np.concatenate([s.indices for s in shards])
    rows = [s.n_points for s in shards]  # each client's rows of the completion
    row_labels = labels[order] if labels is not None else None  # completion row order

    fed = run_feddl(shards, cfg.fed, kernel, privacy=cfg.privacy, Y0=Y0)
    res = RunOutputs(out_dir=out, files={}, fed=fed, gamma=kernel.gamma)
    writers = [
        ("landmarks.fdlm", lambda p: write_matrix(p, fed.landmarks)),
        ("trace.csv", lambda p: write_trace_csv(p, fed.trace)),
    ]
    if command != "fit":
        kind = MatrixKind.KERNEL if command == "speclust" else MatrixKind.DISTANCE
        name = f"completed_{kind.value}.fdlm"
        # no name holds the readers: the affinities' one lives only as long as they do
        completed = res.completed = _complete(
            shards, fed.landmarks, kernel, cfg, kind, out / name,
            () if econf is None else _readers(command, econf, cfg, order.size),
        )
        del shards  # nothing after the completion reads the points
        writers.append((name, None))  # written as the completion was made
    if econf is not None:
        # a huge learning rate, scale, exaggeration or UMAP a/b overflows in
        # the initial layout or the descent; the guard sits here so that the
        # engines keep their caller's errstate as library functions
        with overflow_aborts(f"{command} embedding overflows float64"):
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
    resolved["convergence_diagnostic"] = repr(convergence_diagnostic(fed.trace))
    if res.completed is not None:
        resolved.update(_completion_provenance(res.completed))
    uploads = _client_upload_bytes(cfg.fed.rounds * fed.landmarks.nbytes, rows, res.completed)
    resolved["client_upload_bytes"] = " ".join(str(b) for b in uploads)
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
    """Metrics for a stored embedding (labels come from its CSV), and its
    neighbourhood preservation when given its squared distances."""
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
        if not _zero_diagonal(D):  # a kernel matrix, whose diagonal is 1
            raise DataError(f"{distances_path}: distance matrix must have a zero diagonal")
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
    if Z.shape[1] < 2:
        raise DataError(
            f"{embedding_path}: a scatter plot needs at least 2 coordinate columns, "
            f"got {Z.shape[1]}"
        )
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
