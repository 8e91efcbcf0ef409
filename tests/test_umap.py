import numpy as np
import numpy.testing as npt
import pytest

from feddl import clustering
from feddl.embed import (
    _START_MAXITER,
    AffinityMatrix,
    EmbedConfig,
    _PanelWorkspace,
    _ce_constants,
    _smooth_knn_sigmas,
    umap_ce_gradient,
    umap_embed,
    umap_graph,
)
from feddl.errors import NumericalAbort
from feddl.kernels import pairwise_sq_dist
from helpers import central_fd, random_sq_distance_matrix, rel_err, within_cancelled_terms
import embed_reference as ref

# frozen output of tests/oracles/gen_embed_metrics_reference.py
SMOOTH_KNN_SIGMA = 1.778096575017367  # shifted distances [0,1,2,4], target log2(4)
UMAP_CE_REFERENCE = 1.3239150792391131

CE_MU3 = np.array([[0.0, 0.9, 0.2], [0.9, 0.0, 0.5], [0.2, 0.5, 0.0]])
CE_Z3 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])


def _smooth_knn_sigma(d_shifted, target):
    """``_smooth_knn_sigmas`` on one row."""
    return _smooth_knn_sigmas(d_shifted[None, :], target)[0]


def test_smooth_knn_sigma_matches_reference():
    sigma = _smooth_knn_sigma(np.array([0.0, 1.0, 2.0, 4.0]), 2.0)
    assert sigma == pytest.approx(SMOOTH_KNN_SIGMA, rel=1e-9)


def test_smooth_knn_sigma_satisfies_equation(rng):
    for _ in range(10):
        d = np.sort(rng.uniform(0, 3, size=8))
        d[0] = 0.0
        target = np.log2(8)
        sigma = _smooth_knn_sigma(d, target)
        assert np.exp(-d / sigma).sum() == pytest.approx(target, abs=1e-6)


def test_lockstep_sigmas_match_the_per_row_search(rng):
    shifted = np.sort(rng.uniform(0, 3, size=(40, 8)), axis=1)
    shifted[:, 0] = 0.0
    shifted[5] = 0.0  # all neighbours at rho: the sum is 8 at every scale
    shifted[7] = [0.0, *(1e20 * np.arange(1, 8))]  # never reaches the target: doubling cap
    for target in (np.log2(8), 1.5, 7.9):
        sigma = _smooth_knn_sigmas(shifted, target)
        npt.assert_array_equal(sigma, [ref._smooth_knn_sigma(row, target) for row in shifted])
    assert sigma[7] == 2.0**64


def _far_point(D2, i):
    """``D2`` with point ``i`` moved about 1e20 away from all the others,
    at distances spread enough that its smooth-kNN sum never reaches the
    target."""
    D2 = D2.copy()
    D2[i, :] = D2[:, i] = (1e20 * np.arange(1, D2.shape[0] + 1)) ** 2
    D2[i, i] = 0.0
    return D2


@pytest.mark.parametrize("n", [20, 60, 301])
@pytest.mark.parametrize("k", [1, 4, 15])
def test_lockstep_graph_matches_the_per_row_reference(rng, n, k):
    D2 = _far_point(random_sq_distance_matrix(n, 4, rng, scale=2.0), 9)
    npt.assert_array_equal(umap_graph(D2, n_neighbors=k).values, ref.umap_graph(D2, k).values)


def _ce_case(rng, n, case):
    """Memberships of a UMAP graph and a layout for one edge-pass case."""
    mu = umap_graph(random_sq_distance_matrix(n, 4, rng, scale=2.0), n_neighbors=5).values
    Z = 2.0 * rng.normal(size=(n, 2))
    if case == "coincident":  # 0 <= 1 - w <= 1e-12 on and off the edges
        Z[1], Z[5], Z[6], Z[n - 1] = Z[0], Z[4], Z[4], Z[0]
        for i, j in np.argwhere(np.triu(mu, 1) > 0)[::7]:
            Z[j] = Z[i] + 1e-7
    elif case == "zero_one_memberships":  # nu = 0 on some edges
        upper = np.triu(mu, 1)
        upper[(upper > 0) & (rng.random((n, n)) < 0.3)] = 1.0
        upper[rng.random((n, n)) < 0.02] = 0.0
        mu = upper + upper.T
    return mu, Z


@pytest.mark.parametrize("n", [60, 600])
@pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.577, 0.895)])
@pytest.mark.parametrize("case", ["spread", "coincident", "zero_one_memberships", "large_a"])
def test_edge_pass_matches_the_dense_reference(rng, n, a, b, case):
    mu, Z = _ce_case(rng, n, case)
    if case == "large_a":  # the diagonal's 1 - w exceeds the floor
        a *= 1e4
    loss, g = umap_ce_gradient(mu, Z, a=a, b=b, constants=_ce_constants(mu))
    loss_ref, g_ref = ref.umap_ce_gradient(mu, Z, a=a, b=b)
    if case == "coincident" and b != 1.0:
        # a floored d2 gives coefficients near 1e12: the reference's gradient
        # cancels far larger terms, and the pass takes those pairs apart
        C = _ce_direct(mu, Z, a, b)[2]
        assert within_cancelled_terms(g, g_ref, C, Z)
        assert rel_err(g, _pairwise_gradient(C, Z)) <= 1e-12
    else:
        assert rel_err(g, g_ref) <= 1e-12
    assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.577, 0.895)])
def test_edge_pass_leaves_nothing_in_its_workspace_for_the_next(rng, a, b):
    n = 129
    workspace = _PanelWorkspace(n)
    for arr in workspace.flat:
        arr.fill(np.nan)
    for case in ("spread", "zero_one_memberships"):
        mu, Z = _ce_case(rng, n, case)
        loss, g = umap_ce_gradient(mu, Z, a=a, b=b, workspace=workspace)
        loss_ref, g_ref = ref.umap_ce_gradient(mu, Z, a=a, b=b)
        assert rel_err(g, g_ref) <= 1e-12
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)


@pytest.mark.parametrize("i,j", [(0, 1), (100, 70)])
def test_asymmetric_mu_is_rejected_when_its_panels_are_built(rng, i, j):
    # the pass reads mu's upper triangle only; (100, 70) is in the second
    # panel's mirror
    mu, Z = _ce_case(rng, 129, "spread")
    mu[i, j] = 0.5 * (1.0 - mu[i, j])
    with pytest.raises(ValueError, match="mu must be symmetric"):
        _ce_constants(mu)
    with pytest.raises(ValueError, match="mu must be symmetric"):
        umap_ce_gradient(mu, Z)


def test_graph_nearest_neighbour_membership_one():
    # 1-D points 0, 1, 3 with a single neighbour: fuzzy union of one-hot
    # conditionals has hand-computable entries
    pts = np.array([0.0, 1.0, 3.0])
    d2 = (pts[:, None] - pts[None, :]) ** 2
    G = umap_graph(d2, n_neighbors=1)
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    expected = expected + expected.T - expected * expected.T
    np.fill_diagonal(expected, 0.0)
    npt.assert_array_equal(G.values, expected)


def test_graph_properties(rng):
    D2 = random_sq_distance_matrix(20, 3, rng)
    G = umap_graph(D2, n_neighbors=5)
    assert isinstance(G, AffinityMatrix) and G.kind == "umap_membership"
    V = G.values
    npt.assert_array_equal(V, V.T)
    npt.assert_array_equal(np.diag(V), np.zeros(20))
    assert V.min() >= 0 and V.max() <= 1.0
    # every point's nearest neighbour ends at full membership
    assert np.all(V.max(axis=1) == pytest.approx(1.0, abs=1e-12))
    # at most 2k neighbours can be nonzero after symmetrisation
    assert np.all((V > 0).sum(axis=1) <= 10)


def test_graph_validation(rng):
    D2 = random_sq_distance_matrix(5, 2, rng)
    with pytest.raises(ValueError, match="n_neighbors"):
        umap_graph(D2, n_neighbors=5)
    with pytest.raises(ValueError, match="n_neighbors"):
        umap_graph(D2, n_neighbors=0)


def test_ce_frozen_value():
    loss, _ = umap_ce_gradient(CE_MU3, CE_Z3, a=1.0, b=1.0)
    assert loss == pytest.approx(UMAP_CE_REFERENCE, abs=1e-12)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.577, 0.895)])
def test_ce_gradient_matches_finite_differences(rng, a, b):
    Z = 3.0 * rng.normal(size=(6, 2))  # spread out, away from the probability floor
    mu = rng.uniform(0.05, 0.95, size=(6, 6))
    mu = 0.5 * (mu + mu.T)
    np.fill_diagonal(mu, 0.0)
    _, g = umap_ce_gradient(mu, Z, a=a, b=b)
    fd = central_fd(lambda Zv: umap_ce_gradient(mu, Zv, a=a, b=b)[0], Z)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_ce_finite_at_coincident_points():
    Z = np.zeros((4, 2))
    mu = np.full((4, 4), 0.5)
    np.fill_diagonal(mu, 0.0)
    loss, g = umap_ce_gradient(mu, Z)
    assert np.isfinite(loss) and np.isfinite(g).all()


def test_ce_minimised_when_memberships_match():
    # w(d) = 1/(1+d^2); distances realizing w == mu are a stationary point
    mu01 = 0.5  # distance 1 realizes membership 0.5
    Z = np.array([[0.0], [1.0]])
    mu = np.array([[0.0, mu01], [mu01, 0.0]])
    loss, g = umap_ce_gradient(mu, Z)
    npt.assert_allclose(g, np.zeros_like(Z), atol=1e-12)
    # perturbing the distance increases the loss
    for dz in (-0.1, 0.1):
        loss2, _ = umap_ce_gradient(mu, Z + np.array([[0.0], [dz]]))
        assert loss2 > loss


def _ce_direct(mu, Z, a, b):
    """Fuzzy cross-entropy and gradient, every term taken per call, and
    the gradient's coefficients."""
    n = Z.shape[0]
    sq = np.einsum("ij,ij->i", Z, Z)
    d2 = sq[:, None] - 2.0 * (Z @ Z.T) + sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    off = ~np.eye(n, dtype=bool)
    d2b = np.power(np.maximum(d2, 1e-12), b) if b != 1.0 else d2
    w = 1.0 / (1.0 + a * d2b)
    one_minus_w = np.maximum(1.0 - w, 1e-12)
    wf = np.maximum(w, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        attract = np.where(mu > 0, mu * np.log(np.maximum(mu, 1e-12) / wf), 0.0)
        rep_mu = 1.0 - mu
        repulse = np.where(
            rep_mu > 0, rep_mu * np.log(np.maximum(rep_mu, 1e-12) / one_minus_w), 0.0
        )
    loss = float(np.sum(np.where(off, attract + repulse, 0.0)))
    d2bm1 = np.power(np.maximum(d2, 1e-12), b - 1.0) if b != 1.0 else 1.0
    dldw = np.where(off & (w > 1e-12), -mu / wf, 0.0) + np.where(
        off & (1.0 - w > 1e-12), (1.0 - mu) / one_minus_w, 0.0
    )
    coeff = np.where(off, dldw * (-a * b * d2bm1 * w * w), 0.0)
    return loss, 4.0 * (coeff.sum(axis=1)[:, None] * Z - coeff @ Z), coeff


def _pairwise_gradient(C, Z):
    """``4 sum_j C_ij (z_i - z_j)``, each pair's difference taken first, so
    that a pair of coincident points adds exactly 0."""
    return 4.0 * np.einsum("ij,ijk->ik", C, Z[:, None, :] - Z[None, :, :])


def test_coincident_points_at_b_not_1_add_no_rounding_noise(rng):
    # every pair's d2 is floored: each non-edge coefficient is near 1e12, and
    # folded into sum_j C_ij z_i - sum_j C_ij z_j it left noise of order 1
    mu = umap_graph(random_sq_distance_matrix(129, 4, rng, scale=2.0), n_neighbors=5)
    Z = np.tile([[0.3, -1.7]], (129, 1))
    _, g = umap_ce_gradient(mu, Z, a=1.577, b=0.895)
    assert np.abs(g).max() <= 1e-12


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.577, 0.895)])
@pytest.mark.parametrize("case", ["spread", "coincident", "zero_one_memberships"])
def test_hoisted_ce_matches_direct_formula(rng, case, a, b):
    n = 12
    mu = rng.uniform(0.05, 0.95, size=(n, n))
    mu = 0.5 * (mu + mu.T)
    Z = 2.0 * rng.normal(size=(n, 2))
    if case == "coincident":
        Z[1], Z[5], Z[6] = Z[0], Z[4], Z[4]
    elif case == "zero_one_memberships":
        mu[np.triu(rng.random((n, n)) < 0.3, 1)] = 0.0
        mu[np.triu(rng.random((n, n)) < 0.3, 1)] = 1.0
        mu = np.triu(mu, 1) + np.triu(mu, 1).T
    np.fill_diagonal(mu, 0.0)
    loss, g = umap_ce_gradient(mu, Z, a=a, b=b)
    loss_ref, g_ref, C = _ce_direct(mu, Z, a, b)
    assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
    if case == "coincident" and b != 1.0:  # the reference cancels far larger terms
        assert within_cancelled_terms(g, g_ref, C, Z)
        assert rel_err(g, _pairwise_gradient(C, Z)) <= 1e-12
    else:
        assert rel_err(g, g_ref) <= 1e-12


def test_embed_trace_monotone_from_start(rng):
    D2 = random_sq_distance_matrix(30, 4, rng, scale=2.0)
    G = umap_graph(D2, n_neighbors=6)
    emb = umap_embed(G, EmbedConfig.umap_defaults(iterations=80, seed=1))
    assert emb.engine == "umap"
    assert emb.objective_trace.shape == (81,)
    assert np.all(np.diff(emb.objective_trace) <= 1e-9)
    assert np.isfinite(emb.Z).all() and emb.Z.shape == (30, 2)
    assert isinstance(emb.diagnostics["damped_steps"], int)


def test_embed_is_deterministic(rng):
    D2 = random_sq_distance_matrix(15, 3, rng)
    G = umap_graph(D2, n_neighbors=4)
    config = EmbedConfig.umap_defaults(iterations=40, seed=5)
    a = umap_embed(G, config)
    b = umap_embed(G, config)
    npt.assert_array_equal(a.Z, b.Z)
    npt.assert_array_equal(a.objective_trace, b.objective_trace)


def test_embed_equivariant_under_point_reordering(rng):
    D2 = random_sq_distance_matrix(16, 3, rng)
    G = umap_graph(D2, n_neighbors=4).values
    perm = rng.permutation(16)
    config = EmbedConfig.umap_defaults(iterations=30, seed=2)
    base = umap_embed(G, config)
    shuffled = umap_embed(G[np.ix_(perm, perm)], config)
    # identical up to floating-point drift from permuted reductions
    npt.assert_allclose(shuffled.Z, base.Z[perm], atol=1e-6)


def test_spectral_start_applies_its_operator_at_most_50_times(monkeypatch):
    # 641 points whose leading eigenvalues lie close together: the block
    # stops at the cap, short of its tolerance
    X = np.random.default_rng(641).normal(size=(4, 641))
    G = umap_graph(pairwise_sq_dist(X, X), n_neighbors=15)
    calls, real = [], clustering._scaled_product
    monkeypatch.setattr(
        clustering, "_scaled_product", lambda *args: calls.append(1) or real(*args)
    )
    emb = umap_embed(G, EmbedConfig.umap_defaults(iterations=1))
    assert _START_MAXITER == 50 and len(calls) == 50
    assert np.isfinite(emb.Z).all()


def test_embed_aborts_on_non_finite_coordinates(rng):
    G = umap_graph(random_sq_distance_matrix(20, 3, rng), n_neighbors=5)
    config = EmbedConfig.umap_defaults(iterations=20, learning_rate=1e300)
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort, match="iteration 2"):
        umap_embed(G, config)


def test_embed_recovers_separated_blobs(blob_points):
    from feddl.clustering import kmeans
    from feddl.kernels import pairwise_sq_dist
    from feddl.metrics import nmi

    X, labels = blob_points
    G = umap_graph(pairwise_sq_dist(X, X), n_neighbors=15)
    emb = umap_embed(G, EmbedConfig.umap_defaults(iterations=300, seed=0))
    assert nmi(kmeans(emb.Z, 3, seed=0).labels, labels) >= 0.95
