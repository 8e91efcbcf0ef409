"""Federated distance learning with landmark-based matrix completion.

Clients holding horizontal shards of a dataset jointly learn a compact
landmark set by minimising a kernel discrepancy between each shard and
the landmarks.  Pairwise distance or kernel matrices over the full
dataset are then completed from each client's rows of a landmark
factor, its block against the landmarks times the factor, and the
completed matrices feed t-SNE, UMAP, or spectral clustering.  Optional
Gaussian perturbation of data, gradients, or shared variables trades
accuracy for privacy.
"""

# Defined before the submodules load: ``config`` records it in manifests.
__version__ = "0.1.11"

from .clustering import ClusterAssignment, kmeans, spectral_cluster
from .config import PipelineConfig, parse_config, parse_config_file, render_manifest
from .data import (
    BlobSpec,
    DatasetSpec,
    PartitionMode,
    PartitionSpec,
    generate_blobs,
    load_dataset,
    load_idx,
    partition,
    resolve_data_path,
)
from .embed import (
    AffinityMatrix,
    EmbedConfig,
    Embedding,
    tsne_affinities,
    tsne_embed,
    umap_embed,
    umap_graph,
)
from .errors import ConfigError, DataError, NumericalAbort
from .federation import (
    Aggregation,
    ClientShard,
    FedConfig,
    FedResult,
    LandmarkInit,
    RoundTrace,
    convergence_diagnostic,
    init_landmarks,
    run_feddl,
)
from .kernels import (
    KernelParams,
    gaussian_kernel,
    median_heuristic_gamma,
    mmd,
    mmd_gradient,
    pairwise_sq_dist,
)
from .metrics import (
    MetricsReport,
    ari,
    ca_knn,
    nmi,
    npa_knn,
    silhouette,
)
from .nystrom import (
    BoundReport,
    CompletedMatrix,
    CompletionParams,
    LandmarkBlock,
    LandmarkFactor,
    MatrixKind,
    assemble_cross_block,
    evaluate_bounds,
    landmark_factor,
    nystrom_complete,
)
from .pipeline import (
    run_eval,
    run_fed_speclust,
    run_fed_tsne,
    run_fed_umap,
    run_fit,
    rerun_manifest,
)
from .privacy import (
    DpFeasibility,
    PrivacyMode,
    PrivacySpec,
    dp_check_data_mode,
    gaussian_sigma_for_dp,
    noise_rng,
    perturb_data,
    perturb_gradient,
    perturb_variable,
    sensitivity_delta,
)

__all__ = [
    "__version__",
    # errors
    "ConfigError",
    "DataError",
    "NumericalAbort",
    # kernels
    "KernelParams",
    "pairwise_sq_dist",
    "gaussian_kernel",
    "mmd",
    "mmd_gradient",
    "median_heuristic_gamma",
    # federation
    "Aggregation",
    "LandmarkInit",
    "FedConfig",
    "ClientShard",
    "FedResult",
    "RoundTrace",
    "init_landmarks",
    "run_feddl",
    "convergence_diagnostic",
    # privacy
    "PrivacyMode",
    "PrivacySpec",
    "DpFeasibility",
    "noise_rng",
    "perturb_data",
    "perturb_gradient",
    "perturb_variable",
    "sensitivity_delta",
    "gaussian_sigma_for_dp",
    "dp_check_data_mode",
    # completion
    "MatrixKind",
    "CompletionParams",
    "LandmarkBlock",
    "LandmarkFactor",
    "CompletedMatrix",
    "BoundReport",
    "assemble_cross_block",
    "landmark_factor",
    "nystrom_complete",
    "evaluate_bounds",
    # embedding
    "EmbedConfig",
    "AffinityMatrix",
    "Embedding",
    "tsne_affinities",
    "tsne_embed",
    "umap_graph",
    "umap_embed",
    # clustering
    "ClusterAssignment",
    "kmeans",
    "spectral_cluster",
    # metrics
    "MetricsReport",
    "ca_knn",
    "npa_knn",
    "nmi",
    "silhouette",
    "ari",
    # data
    "PartitionMode",
    "PartitionSpec",
    "BlobSpec",
    "DatasetSpec",
    "load_idx",
    "generate_blobs",
    "resolve_data_path",
    "load_dataset",
    "partition",
    # config / pipeline
    "PipelineConfig",
    "parse_config",
    "parse_config_file",
    "render_manifest",
    "run_fit",
    "run_fed_tsne",
    "run_fed_umap",
    "run_fed_speclust",
    "run_eval",
    "rerun_manifest",
]
