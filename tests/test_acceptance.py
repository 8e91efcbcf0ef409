"""End-to-end acceptance gate.

Thirteen independently checkable guarantees, one test (and one ``pytest
-v`` pass/fail line) each: gradient correctness against finite
differences, federation/centralized equivalence, completion exactness and
error bounds, estimator identities, embedding calibration and descent,
full-pipeline cluster recovery on synthetic and image data, privacy
calibration, and byte-level reproducibility across worker counts.

The image-data check prefers real IDX files named
``train-images-idx3-ubyte`` / ``train-labels-idx1-ubyte`` under the
``FEDDL_MNIST_DIR`` environment variable and otherwise synthesizes IDX
fixtures from scikit-learn's bundled ``digits`` set, exercising the same
loader path either way.
"""

import os
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from feddl.clustering import kmeans
from feddl.config import parse_config
from feddl.data import load_dataset
from feddl.embed import (
    EmbedConfig,
    _row_affinities,
    tsne_affinities,
    tsne_embed,
    tsne_kl_gradient,
    umap_ce_gradient,
    umap_graph,
)
from feddl.federation import ClientShard, FedConfig, run_feddl
from feddl.kernels import KernelParams, gaussian_kernel, mmd, mmd_gradient, pairwise_sq_dist
from feddl.metrics import nmi
from feddl.nystrom import (
    CompletionParams,
    LandmarkBlock,
    MatrixKind,
    evaluate_bounds,
    nystrom_complete,
)
from feddl.pipeline import rerun_manifest, run_fed_speclust, run_fed_tsne
from feddl.privacy import (
    DpFeasibility,
    SensitivityParams,
    dp_check_data_mode,
    gaussian_sigma_for_dp,
    noise_rng,
    perturb_data,
    sensitivity_delta,
)
from helpers import central_fd, write_idx_pair

# Three-blob scenario shared by the federated end-to-end checks: clusters
# separated by 10x their standard deviation, one label per client.
BLOBS_INI = """\
[dataset]
source = blobs
blob_count = 3
points_per_blob = 100
blob_std = 1.0
blob_separation = 10.0
blob_dim = 2

[partition]
clients = {clients}
mode = {mode}

[federation]
rounds = 50
local_steps = 3
step_size = 10.0
landmarks = 30

[clustering]
clusters = 3
{extra}"""


def blobs_config(seed, clients=3, mode="noniid_one_class", extra=""):
    return parse_config(
        BLOBS_INI.format(clients=clients, mode=mode, extra=extra), seed=seed
    )


def _strip_timing(trace_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:4]) for line in trace_text.splitlines())


def _strip_execution_fields(manifest_text: str) -> str:
    # creation time and worker count describe how a run was executed, not
    # what it computed; reruns may legitimately differ in both
    return "\n".join(
        line
        for line in manifest_text.splitlines()
        if not line.startswith(("created", "workers"))
    )


def test_criterion_01_mmd_gradient_matches_finite_differences():
    """Analytic landmark gradient vs central differences, 20 instances."""
    t0 = time.perf_counter()
    gammas = (0.3, 1.0, 3.0)
    worst = 0.0
    for trial in range(20):
        r = np.random.default_rng(100 + trial)
        X = r.normal(size=(5, 6))
        Y = r.normal(size=(5, 4))
        kp = KernelParams(gamma=gammas[trial % 3])
        g = mmd_gradient(X, Y, kp)
        fd = central_fd(lambda Yv: mmd(X, Yv, kp), Y)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
    assert worst < 1e-5
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_single_client_run_matches_centralized_descent():
    """One client, one local step: the protocol is plain gradient descent."""
    t0 = time.perf_counter()
    r = np.random.default_rng(7)
    X = r.normal(size=(4, 12))
    Y0 = r.normal(size=(4, 5))
    kp = KernelParams(gamma=0.8)
    eta, steps = 0.5, 100

    Y = Y0.copy()
    central_f = []
    for _ in range(steps):
        Y = Y - eta * mmd_gradient(X, Y, kp)
        central_f.append(mmd(X, Y, kp))

    shard = ClientShard(client_id=0, data=X, weight=1.0, indices=np.arange(12))
    fed = run_feddl(
        [shard],
        FedConfig(rounds=steps, local_steps=1, step_size=eta, n_landmarks=5, seed=0),
        kp,
        Y0=Y0,
    )
    assert np.max(np.abs(fed.landmarks - Y)) <= 1e-12  # final positions
    npt.assert_allclose(fed.trace.objective, central_f, rtol=0, atol=1e-12)  # every step
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_completion_exact_when_landmarks_span_data():
    """Landmarks = data, full rank, no ridge: completion is exact, and
    entries that were uploaded survive completion unchanged."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 40))
    kp = KernelParams(gamma=0.7)
    K_true = gaussian_kernel(pairwise_sq_dist(X, X), kp)

    W = LandmarkBlock(values=K_true.copy(), kind=MatrixKind.KERNEL)
    comp = nystrom_complete(K_true.copy(), W, CompletionParams(rank_k=40, ridge_lambda=0.0))
    rel = np.linalg.norm(comp.values - K_true) / np.linalg.norm(K_true)
    assert rel < 1e-8

    # landmark subset: the uploaded cross-block columns are preserved
    idx = np.arange(0, 40, 4)
    Ysub = X[:, idx]
    B = gaussian_kernel(pairwise_sq_dist(X, Ysub), kp)
    Wsub = LandmarkBlock(
        values=gaussian_kernel(pairwise_sq_dist(Ysub, Ysub), kp), kind=MatrixKind.KERNEL
    )
    comp2 = nystrom_complete(B, Wsub, CompletionParams())
    npt.assert_allclose(comp2.values[:, idx], B, rtol=0, atol=1e-12)
    assert time.perf_counter() - t0 < 2.0


def test_criterion_04_mmd_identity_and_rigid_motion_invariance():
    """Coincident multisets score zero; the estimator only sees shape."""
    kp = KernelParams(gamma=1.0)
    for trial in range(10):
        r = np.random.default_rng(40 + trial)
        point = r.normal(size=(3, 1))
        X = np.tile(point, (1, r.integers(2, 8)))
        Y = np.tile(point, (1, r.integers(2, 8)))
        assert abs(mmd(X, Y, kp)) < 1e-12

        X = r.normal(size=(3, 7))
        Y = r.normal(size=(3, 5))
        Q, _ = np.linalg.qr(r.normal(size=(3, 3)))
        t = r.normal(size=(3, 1))
        moved = abs(mmd(Q @ X + t, Q @ Y + t, kp) - mmd(X, Y, kp))
        assert moved < 1e-9


def test_criterion_05_tsne_perplexity_calibration_and_monotone_descent(tmp_path):
    """On a 200-point completed distance matrix every row hits its target
    perplexity, and the KL objective never increases after the
    exaggeration phase."""
    ini = """\
[dataset]
source = blobs
blob_count = 4
points_per_blob = 50
blob_std = 1.0
blob_separation = 8.0
blob_dim = 5

[partition]
clients = 4
mode = iid

[federation]
rounds = 20
local_steps = 3
step_size = 10.0
landmarks = 25

[clustering]
clusters = 4
"""
    out = run_fed_tsne(parse_config(ini, seed=3), tmp_path)
    D2 = out.completed.values
    n = D2.shape[0]
    assert n == 200
    target = 30.0
    worst = 0.0
    for i in range(n):
        rows, fallbacks = _row_affinities(D2[i, np.arange(n) != i][None, :], target)
        row, fallback = rows[0], fallbacks[0]
        assert not fallback
        entropy = -np.sum(np.where(row > 0, row * np.log(row), 0.0))
        worst = max(worst, abs(np.exp(entropy) - target))
    assert worst <= 1e-3
    assert tsne_affinities(out.completed, perplexity=target).fallback_rows == ()

    trace = out.embedding.objective_trace
    post = trace[EmbedConfig.tsne_defaults().early_exaggeration_iters :]
    assert np.max(np.diff(post)) <= 1e-9


def test_criterion_06_embedding_gradients_match_finite_differences(rng):
    """KL and cross-entropy analytic gradients vs central differences."""
    n = 10
    D2 = pairwise_sq_dist(rng.normal(size=(4, n)), rng.normal(size=(4, n)))
    np.fill_diagonal(D2, 0.0)
    D2 = (D2 + D2.T) / 2.0
    P = tsne_affinities(D2, perplexity=4.0).values
    Z = rng.normal(size=(n, 2))
    _, g = tsne_kl_gradient(P, Z)
    fd = central_fd(lambda Zv: tsne_kl_gradient(P, Zv)[0], Z)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4

    mu = umap_graph(D2, n_neighbors=4).values
    Zu = 3.0 * rng.normal(size=(n, 2))
    for a, b in ((1.0, 1.0), (1.577, 0.895)):
        _, g = umap_ce_gradient(mu, Zu, a=a, b=b)
        fd = central_fd(lambda Zv: umap_ce_gradient(mu, Zv, a=a, b=b)[0], Zu)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


def test_criterion_07_blob_recovery_federated_tsne_and_spectral(tmp_path):
    """Well-separated blobs, label-skewed clients: both full pipelines
    recover the clusters across seeds."""
    t0 = time.perf_counter()
    tsne_scores, spec_scores = [], []
    for seed in range(5):
        cfg = blobs_config(seed)
        tsne_scores.append(run_fed_tsne(cfg, tmp_path / f"t{seed}").metrics.nmi)
        spec_scores.append(run_fed_speclust(cfg, tmp_path / f"s{seed}").metrics.nmi)
    assert np.mean(tsne_scores) >= 0.9
    assert np.mean(spec_scores) >= 0.95
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_federated_digits_close_to_centralized(tmp_path):
    """Image data end to end: the federated embedding's cluster quality
    stays within 0.15 NMI of t-SNE on the exact distance matrix."""
    t0 = time.perf_counter()
    mnist_dir = os.environ.get("FEDDL_MNIST_DIR", "")
    if mnist_dir and (Path(mnist_dir) / "train-images-idx3-ubyte").exists():
        images = Path(mnist_dir) / "train-images-idx3-ubyte"
        labels = Path(mnist_dir) / "train-labels-idx1-ubyte"
    else:
        datasets = pytest.importorskip("sklearn.datasets")
        digits = datasets.load_digits()
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        write_idx_pair(images, labels, digits.data.T / 16.0, digits.target, rows=8, cols=8)

    ini = f"""\
[dataset]
source = idx
images_path = {images}
labels_path = {labels}
subsample = 2000

[partition]
clients = 10
mode = iid

[federation]
rounds = 50
local_steps = 3
step_size = 10.0
landmarks = 200

[clustering]
clusters = 10

[evaluation]
ca_ks = 1 10
"""
    fed_scores, central_scores = [], []
    for seed in range(3):
        cfg = parse_config(ini, seed=seed)
        fed_scores.append(run_fed_tsne(cfg, tmp_path / f"fed{seed}").metrics.nmi)

        X, y = load_dataset(cfg.dataset)
        aff = tsne_affinities(pairwise_sq_dist(X, X), perplexity=30.0)
        emb = tsne_embed(aff, EmbedConfig.tsne_defaults(seed=seed))
        km = kmeans(emb.Z, 10, seed=seed)
        central_scores.append(nmi(y, km.labels))
    assert abs(np.mean(fed_scores) - np.mean(central_scores)) <= 0.15
    assert time.perf_counter() - t0 < 900.0


def test_criterion_09_gradient_noise_degrades_mean_nmi(tmp_path):
    """More gradient noise cannot help, and zero noise leaves every
    artifact bit-identical to running with privacy off."""
    means = {}
    for beta in (0.0, 2.0):
        extra = f"\n[privacy]\nmode = gradient\nbeta = {beta}\n"
        scores = [
            run_fed_speclust(
                blobs_config(seed, extra=extra), tmp_path / f"b{beta}_{seed}"
            ).metrics.nmi
            for seed in range(5)
        ]
        means[beta] = np.mean(scores)
    assert means[2.0] <= means[0.0]

    for seed in range(5):
        run_fed_speclust(blobs_config(seed), tmp_path / f"off_{seed}")
        for name in ("landmarks.fdlm", "completed_kernel.fdlm", "labels.csv", "metrics.csv"):
            a = (tmp_path / f"b0.0_{seed}" / name).read_bytes()
            b = (tmp_path / f"off_{seed}" / name).read_bytes()
            assert a == b, f"seed {seed}: {name} differs with beta=0"


def test_criterion_10_nmi_stable_across_client_counts(tmp_path):
    """Splitting the same data over 5, 10, or 20 clients barely moves the
    recovered cluster quality."""
    means = []
    for clients in (5, 10, 20):
        scores = [
            run_fed_speclust(
                blobs_config(seed, clients=clients, mode="iid"),
                tmp_path / f"p{clients}_{seed}",
            ).metrics.nmi
            for seed in range(5)
        ]
        means.append(np.mean(scores))
    assert max(means) - min(means) <= 0.05


# frozen output of tests/oracles/gen_dp_reference.py
SENSITIVITY_REFERENCE = [
    ((1.0, 1.0, 2.0, 0.5, 10, 4), 1.4),
    ((0.3, 0.7, 1.1, 2.0, 7, 9), 1.5085714285714285),
    ((2.5, 0.1, 0.0, 0.05, 50, 16), 0.0082500000000000006),
    ((0.001, 0.01, 0.1, 30.0, 3, 2), 0.060339401537635424),
    ((4.0, 4.0, 4.0, 1.0, 1, 1), 4128.0),
]
SIGMA_REFERENCE = [
    ((1.0, 1e-05, 50, 1.4), 95.006078098069848),
    ((0.5, 0.001, 10, 0.25), 11.153501636088011),
    ((8.0, 1e-06, 200, 3.0), 59.802711467554615),
    ((2.0, 0.5, 1, 0.0001), 0.00019518362849145152),
    ((0.1, 0.01, 30, 7.0), 1729.3396414682042),
]
FEASIBILITY_REFERENCE = [
    ((1.0, 0.05, 0.01), False, 2.5372724823590393, 0.050745449647180787),
    ((10.0, 0.5, 0.1), True, 1.3537287260556711, 0.027074574521113423),
    ((100.0, 0.9, 1.0), True, 0.81056038266379147, 0.016211207653275829),
    ((0.5, 0.01, 0.001), False, 3.1075114600922395, 0.012430045840368958),
]


def test_criterion_11_privacy_calibration_matches_independent_reference():
    """Sensitivity, noise-scale, and feasibility formulas against values
    computed by a separate high-precision script; injected noise hits its
    target standard deviation."""
    for (tau_x, tau_y, upsilon, gamma, n_p, n_y), expected in SENSITIVITY_REFERENCE:
        v = sensitivity_delta(
            SensitivityParams(
                tau_x=tau_x, tau_y=tau_y, upsilon=upsilon, gamma=gamma, n_p=n_p, n_y=n_y
            )
        )
        assert abs(v - expected) <= 1e-12 * abs(expected)
    for (epsilon, delta, rounds, delta_sens), expected in SIGMA_REFERENCE:
        v = gaussian_sigma_for_dp(epsilon, delta, rounds, delta_sens)
        assert abs(v - expected) <= 1e-12 * abs(expected)
    for args, feasible, c, min_sigma in FEASIBILITY_REFERENCE:
        out = dp_check_data_mode(*args)
        assert isinstance(out, DpFeasibility)
        assert out.feasible is feasible
        assert abs(out.c_threshold - c) <= 1e-12 * c
        assert abs(out.min_sigma - min_sigma) <= 1e-12 * min_sigma

    sigma = gaussian_sigma_for_dp(1.0, 1e-5, 50, 1.4)
    noise = perturb_data(np.zeros((400, 250)), sigma, noise_rng(11, 0, 0, 0))
    assert noise.size == 100_000
    assert abs(np.std(noise) - sigma) < 0.02 * sigma


def test_criterion_12_completion_error_bound_holds():
    """The reported worst-case completion error dominates the realized
    error on random diagnostic instances."""
    for trial in range(10):
        r = np.random.default_rng(trial)
        n_x = 10 + 5 * trial  # up to 55 points
        X = r.normal(size=(3, n_x))
        Y = r.normal(size=(3, 8))
        kp = KernelParams(gamma=0.5)
        K_true = gaussian_kernel(pairwise_sq_dist(X, X), kp)
        B = gaussian_kernel(pairwise_sq_dist(X, Y), kp)
        W = LandmarkBlock(
            values=gaussian_kernel(pairwise_sq_dist(Y, Y), kp), kind=MatrixKind.KERNEL
        )
        comp = nystrom_complete(B, W, CompletionParams())
        report = evaluate_bounds(Y, comp, kp, X=X, K_true=K_true)
        assert report.realized_frobenius <= report.bound_frobenius, f"trial {trial}"


def test_criterion_13_manifest_rerun_byte_identical_across_worker_counts(tmp_path):
    """Any saved manifest reruns to the same bytes, single- or
    multi-threaded; only wall-clock fields may differ."""
    ini = """\
[dataset]
source = blobs
blob_count = 3
points_per_blob = 20
blob_std = 0.5
blob_separation = 10.0

[partition]
clients = 4
mode = iid

[federation]
rounds = 4
local_steps = 2
step_size = 5.0
landmarks = 12

[embedding]
iterations = 60
early_exaggeration_iters = 20
perplexity = 8.0
n_neighbors = 8
"""
    for run, numerical in (
        (run_fed_tsne, ("landmarks.fdlm", "completed_distance.fdlm", "embedding.csv",
                        "metrics.csv", "scatter.svg")),
        (run_fed_speclust, ("landmarks.fdlm", "completed_kernel.fdlm", "labels.csv",
                            "metrics.csv")),
    ):
        base = run(parse_config(ini, seed=2), tmp_path / run.__name__)
        manifest = base.files["manifest.ini"]
        for workers in (1, 4):
            again = rerun_manifest(manifest, tmp_path / f"{run.__name__}_w{workers}",
                                   workers=workers)
            for name in numerical:
                assert base.files[name].read_bytes() == again.files[name].read_bytes(), (
                    f"{run.__name__} workers={workers}: {name}"
                )
            assert _strip_timing(base.files["trace.csv"].read_text()) == _strip_timing(
                again.files["trace.csv"].read_text()
            )
            assert _strip_execution_fields(manifest.read_text()) == _strip_execution_fields(
                again.files["manifest.ini"].read_text()
            )
