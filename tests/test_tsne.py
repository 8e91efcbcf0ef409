import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from feddl.embed import (
    AffinityMatrix,
    EmbedConfig,
    _PanelWorkspace,
    _canonical_rank,
    _kl_constants,
    _row_affinities,
    tsne_affinities,
    tsne_embed,
    tsne_kl_gradient,
)
from feddl.errors import NumericalAbort
from feddl.kernels import _TILE
from helpers import central_fd, random_sq_distance_matrix, rel_err, within_cancelled_terms
import embed_reference as ref

# frozen output of tests/oracles/gen_embed_metrics_reference.py
TSNE_ROW_P = [0.72717726082691506, 0.23646217201215894, 0.036360567160926005]
TSNE_KL_REFERENCE = 0.065617267736727785

KL_P3 = np.array([[0.0, 0.2, 0.15], [0.2, 0.0, 0.15], [0.15, 0.15, 0.0]])
KL_Z3 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])


def _row_affinity(d2_row, target_perp):
    """``_row_affinities`` on one row."""
    P, fallback = _row_affinities(d2_row[None, :], target_perp)
    return P[0], fallback[0]


def test_row_affinity_matches_reference():
    p, fallback = _row_affinity(np.array([1.0, 4.0, 9.0]), 2.0)
    assert not fallback
    npt.assert_allclose(p, TSNE_ROW_P, atol=5e-4)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_row_affinity_hits_target_perplexity(rng):
    for _ in range(20):
        d2 = rng.uniform(0.1, 20.0, size=12)
        p, fallback = _row_affinity(d2, 5.0)
        assert not fallback
        h_bits = -np.sum(p * np.log2(p))
        assert abs(2.0**h_bits - 5.0) <= 1e-3


def test_row_affinity_uniform_fallback_on_equal_distances():
    p, fallback = _row_affinity(np.full(5, 2.5), 2.0)
    assert fallback
    npt.assert_array_equal(p, np.full(5, 0.2))


def _with_equal_rows(D2, rows, value=2.5):
    """``D2`` with every distance from each point of ``rows`` set to ``value``."""
    D2 = D2.copy()
    for i in rows:
        D2[i, :] = D2[:, i] = value
        D2[i, i] = 0.0
    return D2


def test_lockstep_stop_rule_matches_the_per_row_search_at_its_edge():
    # At beta = 1 this row's perplexity is 5.845022964596468 with the
    # scalar math.exp/math.log, and one ulp less with numpy's vector
    # exp/log on AVX-512 hosts; a target 1e-4 above it sits between the
    # two, so the stop rule decides the first step the scalar way only.
    d2 = np.array([
        2.0957843814333823, 0.9839823798512485, 0.4847500561072885, 2.436614907703066,
        0.39969349932341325, 0.0, 2.092157227132522, 1.8888690575540745,
    ])
    target = 5.8451229645964675
    P, fallback = _row_affinities(d2[None, :], target)
    p_ref, fb_ref = ref._row_affinity(d2, target)
    npt.assert_array_equal(P[0], p_ref)
    assert fallback[0] == fb_ref


@pytest.mark.parametrize("n", [60, _TILE, _TILE + 45])
def test_blocked_lockstep_affinities_match_the_per_row_reference(rng, n):
    # all-equal rows in the first and the last row block take the fallback
    D2 = _with_equal_rows(random_sq_distance_matrix(n, 4, rng, scale=2.0), (3, n - 2))
    for perp in (5.0, 30.0):
        P = tsne_affinities(D2, perplexity=perp)
        P_ref = ref.tsne_affinities(D2, perplexity=perp)
        npt.assert_array_equal(P.values, P_ref.values)
        assert P.fallback_rows == P_ref.fallback_rows
        assert {3, n - 2} <= set(P.fallback_rows)


def test_affinities_joint_properties(rng):
    D2 = random_sq_distance_matrix(15, 3, rng)
    P = tsne_affinities(D2, perplexity=4.0)
    assert isinstance(P, AffinityMatrix) and P.kind == "tsne_joint"
    V = P.values
    npt.assert_array_equal(V, V.T)
    npt.assert_array_equal(np.diag(V), np.zeros(15))
    assert V.min() >= 0
    assert V.sum() == pytest.approx(1.0, abs=1e-12)
    assert P.fallback_rows == ()


def test_affinities_input_validation(rng):
    D2 = random_sq_distance_matrix(6, 2, rng)
    with pytest.raises(ValueError, match="perplexity"):
        tsne_affinities(D2, perplexity=6.0)
    with pytest.raises(ValueError, match=">= 3"):
        tsne_affinities(np.zeros((2, 2)), perplexity=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        tsne_affinities(np.array([[0.0, 1.0, 2.0], [9.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="negative"):
        bad = D2.copy()
        bad[0, 1] = bad[1, 0] = -1.0
        tsne_affinities(bad)


def test_kl_frozen_value():
    kl, _ = tsne_kl_gradient(KL_P3, KL_Z3)
    assert kl == pytest.approx(TSNE_KL_REFERENCE, abs=1e-14)


def test_kl_gradient_matches_finite_differences(rng):
    D2 = random_sq_distance_matrix(10, 3, rng)
    P = tsne_affinities(D2, perplexity=3.0).values
    Z = rng.normal(size=(10, 2))
    _, g = tsne_kl_gradient(P, Z)
    fd = central_fd(lambda Zv: tsne_kl_gradient(P, Zv)[0], Z)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_kl_zero_gradient_when_q_matches_p():
    # with Q == P the gradient vanishes: realize it by feeding P computed
    # from the embedding's own Student-t affinities
    Z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [2.0, 1.0]])
    sq = (Z**2).sum(axis=1)
    d2 = sq[:, None] - 2 * Z @ Z.T + sq[None, :]
    W = 1.0 / (1.0 + d2)
    np.fill_diagonal(W, 0.0)
    P = W / W.sum()
    kl, g = tsne_kl_gradient(P, Z)
    assert kl == pytest.approx(0.0, abs=1e-14)
    npt.assert_allclose(g, np.zeros_like(Z), atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_kl_nonnegative_for_probability_inputs(seed):
    r = np.random.default_rng(seed)
    n = 6
    raw = r.uniform(0.1, 1.0, size=(n, n))
    raw = np.triu(raw, 1)
    P = (raw + raw.T) / raw.sum() / 2.0
    kl, _ = tsne_kl_gradient(P, r.normal(size=(n, 2)))
    assert kl >= -1e-12


def _kl_direct(P, Z, P_grad):
    """KL(P || Q) and the gradient with ``P_grad`` in place of ``P``,
    each from its own Student-t matrix, term by term; ``Q``; and the
    gradient's coefficients ``(P_grad - Q) W``."""
    sq = np.einsum("ij,ij->i", Z, Z)
    d2 = sq[:, None] - 2.0 * (Z @ Z.T) + sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    W = 1.0 / (1.0 + d2)
    np.fill_diagonal(W, 0.0)
    Q = W / W.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.log(np.maximum(P, 1e-12) / np.maximum(Q, 1e-12))
    kl = float(np.sum(np.where(P > 0, P * logterm, 0.0)))
    PQ = (P_grad - Q) * W
    return kl, 4.0 * (PQ.sum(axis=1)[:, None] * Z - PQ @ Z), Q, PQ


@pytest.mark.parametrize("case", ["zero_entries", "exaggerated", "q_floor"])
def test_fused_kl_gradient_matches_direct_formula(rng, case):
    n = 24
    P = tsne_affinities(random_sq_distance_matrix(n, 3, rng), perplexity=5.0).values
    Z = rng.normal(size=(n, 2))
    exaggeration = 1.0
    if case == "zero_entries":
        drop = np.triu(rng.random((n, n)) < 0.3, 1)
        P = np.where(drop | drop.T, 0.0, P)
        P /= P.sum()
    elif case == "exaggerated":
        exaggeration = 12.0
    else:  # half the points far away: their Q entries fall below the floor
        Z[n // 2 :] += 1e7
    kl, g = tsne_kl_gradient(P, Z, exaggeration=exaggeration)
    kl_ref, g_ref, Q, C = _kl_direct(P, Z, exaggeration * P)
    if case == "zero_entries":
        assert (P == 0).sum() > n
    assert abs(kl - kl_ref) <= 1e-12 * abs(kl_ref)
    if case == "q_floor":
        assert (Q[P > 0] < 1e-12).any()
        # points 1e7 from the origin: the gradient cancels far larger terms
        assert within_cancelled_terms(g, g_ref, C, Z)
    else:
        assert rel_err(g, g_ref) <= 1e-12


def _counted_sweeps(monkeypatch):
    """Calls of ``_panel_sweep`` from here on, each as its ``parts``."""
    import feddl.embed as embed_mod

    sweeps, real_sweep = [], embed_mod._panel_sweep

    def counted(Z, workspace, visit, parts):
        sweeps.append(parts)
        return real_sweep(Z, workspace, visit, parts)

    monkeypatch.setattr(embed_mod, "_panel_sweep", counted)
    return sweeps


@pytest.mark.parametrize("far", [0.0, 3e4, 1e7])
def test_floor_sweep_runs_only_where_the_floor_can_bind(rng, monkeypatch, far):
    # the bound 1 / (1 + 4 max ||z||^2) on W clears 2e-12 s only at 0; at
    # 3e4 no Q entry is floored all the same, at 1e7 the floor binds
    n = 24
    P = tsne_affinities(random_sq_distance_matrix(n, 3, rng), perplexity=5.0).values
    Z = rng.normal(size=(n, 2))
    Z[n // 2 :] += far
    sweeps = _counted_sweeps(monkeypatch)
    kl, g = tsne_kl_gradient(P, Z)
    kl_ref, g_ref, Q, C = _kl_direct(P, Z, P)
    assert sweeps == ([2] if far == 0.0 else [2, 0])
    assert (Q[P > 0] < 1e-12).any() == (far == 1e7)
    assert abs(kl - kl_ref) <= 1e-12 * abs(kl_ref)
    if far:  # the gradient cancels terms far larger than itself
        assert within_cancelled_terms(g, g_ref, C, Z)
    else:
        assert rel_err(g, g_ref) <= 1e-12


@functools.cache
def _joint_affinities(n):
    rng = np.random.default_rng(n)
    D2 = random_sq_distance_matrix(n, 5, rng, scale=2.0)
    return tsne_affinities(D2, perplexity=min(30.0, n - 1.5)).values


def _assert_matches_whole_array_pass(P, Z, exaggeration, workspace=None):
    kl, g = tsne_kl_gradient(P, Z, exaggeration=exaggeration, workspace=workspace)
    kl_ref, g_ref = ref.tsne_kl_gradient(P, Z, exaggeration=exaggeration)
    assert rel_err(g, g_ref) <= 1e-12
    assert abs(kl - kl_ref) <= 1e-12 * abs(kl_ref)


# a partial last panel (65, 127, 129, 641), exactly one panel (64) and less (3, 60)
@pytest.mark.parametrize("n", [3, 60, 64, 65, 127, 129, 600, 641])
@pytest.mark.parametrize("out_dim", [2, 3])
@pytest.mark.parametrize("exaggeration", [1.0, 12.0])
def test_blocked_kl_pass_matches_the_whole_array_reference(n, out_dim, exaggeration):
    Z = np.random.default_rng([n, out_dim]).normal(scale=3.0, size=(n, out_dim))
    _assert_matches_whole_array_pass(_joint_affinities(n), Z, exaggeration)


def test_kl_pass_leaves_nothing_in_its_workspace_for_the_next():
    n = 129
    P = _joint_affinities(n)
    rng = np.random.default_rng(7)
    workspace = _PanelWorkspace(n)
    for arr in workspace.flat:
        arr.fill(np.nan)
    _assert_matches_whole_array_pass(P, rng.normal(size=(n, 2)), 12.0, workspace)
    _assert_matches_whole_array_pass(P, 5.0 * rng.normal(size=(n, 2)), 1.0, workspace)


def test_embed_matches_a_descent_on_the_whole_array_pass(monkeypatch):
    import feddl.embed as embed_mod

    P = _joint_affinities(65)
    config = EmbedConfig.tsne_defaults(
        out_dim=3, iterations=80, early_exaggeration_iters=20, momentum_switch_iter=20, seed=3
    )
    emb = tsne_embed(P, config)

    def whole_array_pass(P, Z, *, constants=None, workspace=None, **kwargs):
        return ref.tsne_kl_gradient(P, Z, **kwargs)

    monkeypatch.setattr(embed_mod, "tsne_kl_gradient", whole_array_pass)
    emb_ref = tsne_embed(P, config)
    # The two passes differ in the last bits, which 80 steps amplify: at
    # config seeds 0-4 the largest difference was 9.6e-7 of max |Z| and
    # 3.3e-8 of a trace entry (seed 3, this one), so the bounds are 10x and
    # 30x that.
    npt.assert_allclose(emb.Z, emb_ref.Z, rtol=0, atol=1e-5 * np.abs(emb_ref.Z).max())
    npt.assert_allclose(emb.objective_trace, emb_ref.objective_trace, rtol=1e-6, atol=0)


def test_kl_pass_error_against_extended_precision_is_at_most_twice_the_whole_array_pass():
    # a converged descent on 600 points in 10 blobs, the size of the
    # benchmark's t-SNE run: the gradient at its end, summed by upper row
    # panels in two parts, against one taken in np.longdouble (measured:
    # 3.1e-12 against the whole-array pass's 2.4e-12)
    from feddl.data import BlobSpec, generate_blobs
    from feddl.kernels import pairwise_sq_dist

    X, _ = generate_blobs(BlobSpec(n_blobs=10, points_per_blob=60, dim=64), seed=1)
    P = tsne_affinities(pairwise_sq_dist(X, X), perplexity=30.0).values
    config = EmbedConfig.tsne_defaults(
        iterations=600, early_exaggeration_iters=40, momentum_switch_iter=40, seed=1
    )
    Z = tsne_embed(P, config).Z
    Zl = Z.astype(np.longdouble)
    diff = Zl[:, None, :] - Zl[None, :, :]
    W = 1.0 / (1.0 + (diff**2).sum(axis=2))
    np.fill_diagonal(W, 0.0)
    C = (P.astype(np.longdouble) - W / W.sum()) * W
    g_exact = (4.0 * (C[:, :, None] * diff).sum(axis=1)).astype(np.float64)
    err = rel_err(tsne_kl_gradient(P, Z)[1], g_exact)
    err_ref = rel_err(ref.tsne_kl_gradient(P, Z)[1], g_exact)
    assert 0.0 < err <= 2.0 * err_ref


@pytest.mark.parametrize("i,j", [(0, 1), (100, 70)])
def test_asymmetric_p_is_rejected_when_its_panels_are_built(i, j):
    # the pass reads P's upper triangle only; (100, 70) is in the second
    # panel's mirror.  A gap of 1e-13 of the largest entry is let through,
    # one of 1e-10 is not.
    P = _joint_affinities(129).copy()
    P[i, j] += 1e-13 * P.max()
    _kl_constants(P)
    P[i, j] += 1e-10 * P.max()
    Z = np.random.default_rng(0).normal(size=(129, 2))
    with pytest.raises(ValueError, match="P must be symmetric"):
        _kl_constants(P)
    with pytest.raises(ValueError, match="P must be symmetric"):
        tsne_kl_gradient(P, Z)
    with pytest.raises(ValueError, match="P must be symmetric"):
        tsne_embed(P, EmbedConfig.tsne_defaults(iterations=2))


@pytest.mark.parametrize("n", [5, 64, 65, 600, 641])
def test_blocked_canonical_rank_matches_the_whole_array_sort(n):
    A = random_sq_distance_matrix(n, 3, np.random.default_rng(n), scale=2.0)
    A[1] = A[2, ::-1]  # a permuted row: its keys tie, input order decides
    npt.assert_array_equal(_canonical_rank(A), ref._canonical_rank(A))


@pytest.mark.parametrize("learning_rate,halved", [(1000.0, False), (50.0, True)])
def test_embed_makes_one_student_t_pass_per_iterate(rng, monkeypatch, learning_rate, halved):
    import feddl.embed as embed_mod

    losses, real_pass = [], embed_mod.tsne_kl_gradient

    def counted_pass(*args, **kwargs):
        kl, g = real_pass(*args, **kwargs)
        losses.append(kl)
        return kl, g

    monkeypatch.setattr(embed_mod, "tsne_kl_gradient", counted_pass)
    sweeps = _counted_sweeps(monkeypatch)
    P = tsne_affinities(random_sq_distance_matrix(30, 4, rng, scale=2.0), perplexity=6.0)
    config = EmbedConfig.tsne_defaults(
        iterations=60,
        early_exaggeration_iters=15,
        momentum_switch_iter=15,
        learning_rate=learning_rate,
        seed=1,
    )
    emb = tsne_embed(P, config)
    # Every accepted pass's loss is on the trace (the exaggerated phase
    # included); a loss that is not is a rejected candidate, one halving.
    # A step refused 31 times would repeat a trace entry; none is here.
    on_trace = set(emb.objective_trace.tolist())
    assert len(on_trace) == config.iterations + 1
    halvings = sum(kl not in on_trace for kl in losses)
    # one sweep per pass: the floor's loss-only sweep never runs here
    assert sweeps == [2] * len(losses)
    assert len(losses) == config.iterations + 1 + halvings
    assert halvings >= emb.diagnostics["damped_steps"]
    assert (halvings > 0) == halved


def test_embed_trace_monotone_after_exaggeration(rng):
    D2 = random_sq_distance_matrix(40, 4, rng, scale=2.0)
    P = tsne_affinities(D2, perplexity=8.0)
    config = EmbedConfig.tsne_defaults(
        iterations=120, early_exaggeration_iters=30, seed=1
    )
    emb = tsne_embed(P, config)
    assert emb.engine == "tsne"
    assert emb.objective_trace.shape == (121,)
    post = emb.objective_trace[30:]
    assert np.all(np.diff(post) <= 1e-9)
    assert np.isfinite(emb.Z).all() and emb.Z.shape == (40, 2)
    # iterates are recentred
    npt.assert_allclose(emb.Z.mean(axis=0), np.zeros(2), atol=1e-9)


def test_embed_is_deterministic(rng):
    D2 = random_sq_distance_matrix(20, 3, rng)
    P = tsne_affinities(D2, perplexity=5.0)
    config = EmbedConfig.tsne_defaults(iterations=50, early_exaggeration_iters=10, seed=3)
    a = tsne_embed(P, config)
    b = tsne_embed(P, config)
    npt.assert_array_equal(a.Z, b.Z)
    npt.assert_array_equal(a.objective_trace, b.objective_trace)


def test_embed_equivariant_under_point_reordering(rng):
    D2 = random_sq_distance_matrix(18, 3, rng)
    P = tsne_affinities(D2, perplexity=4.0).values
    perm = rng.permutation(18)
    config = EmbedConfig.tsne_defaults(
        iterations=30, early_exaggeration_iters=10, seed=2
    )
    base = tsne_embed(P, config)
    shuffled = tsne_embed(P[np.ix_(perm, perm)], config)
    # identical up to floating-point drift from permuted reductions
    npt.assert_allclose(shuffled.Z, base.Z[perm], atol=1e-6)


def test_embed_aborts_on_non_finite_coordinates(rng):
    P = tsne_affinities(random_sq_distance_matrix(20, 3, rng), perplexity=5.0)
    config = EmbedConfig.tsne_defaults(iterations=20, learning_rate=1e300)
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort, match="iteration 2"):
        tsne_embed(P, config)


def test_embed_recovers_separated_blobs(blob_points):
    from feddl.clustering import kmeans
    from feddl.kernels import pairwise_sq_dist
    from feddl.metrics import nmi

    X, labels = blob_points
    P = tsne_affinities(pairwise_sq_dist(X, X), perplexity=20.0)
    emb = tsne_embed(P, EmbedConfig.tsne_defaults(iterations=400, seed=0))
    assert nmi(kmeans(emb.Z, 3, seed=0).labels, labels) >= 0.95


def test_embed_config_validation():
    with pytest.raises(ValueError):
        EmbedConfig(out_dim=0)
    with pytest.raises(ValueError):
        EmbedConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        EmbedConfig(momentum=1.0)
    with pytest.raises(ValueError):
        EmbedConfig(early_exaggeration=0.5)
    with pytest.raises(ValueError):
        EmbedConfig(perplexity=0.0)
    with pytest.raises(ValueError):
        EmbedConfig(iterations=0)
