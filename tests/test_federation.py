from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from feddl import federation, kernels
from feddl.errors import NumericalAbort
from feddl.federation import (
    Aggregation,
    ClientShard,
    FedConfig,
    LandmarkInit,
    aggregate,
    convergence_diagnostic,
    init_landmarks,
    local_update,
    perturb_shards,
    run_feddl,
)
from feddl.kernels import (
    KernelParams,
    _gaussian_block,
    _landmark_side,
    _operands,
    mmd_gradient,
)
from feddl.privacy import (
    SERVER_STREAM_ID,
    PrivacyMode,
    PrivacySpec,
    _add_noise,
    noise_rng,
    perturb_gradient,
    perturb_variable,
)

PARAMS = KernelParams(gamma=0.5)


def make_shards(n_clients=3, per=8, seed=0):
    r = np.random.default_rng(seed)
    shards = []
    total = n_clients * per
    for p in range(n_clients):
        X = r.normal(size=(2, per)) + 3.0 * p
        shards.append(
            ClientShard(
                client_id=p,
                data=X,
                weight=per / total,
                indices=np.arange(p * per, (p + 1) * per),
            )
        )
    return shards


def test_single_client_single_step_matches_centralized_descent():
    r = np.random.default_rng(3)
    X = r.normal(size=(2, 12))
    Y0 = r.normal(size=(2, 5))
    steps = 20
    cfg = FedConfig(rounds=steps, local_steps=1, step_size=0.5, n_landmarks=5)
    fed = run_feddl([ClientShard(0, X, 1.0)], cfg, PARAMS, Y0=Y0)
    Y = Y0.copy()
    for _ in range(steps):
        Y = Y - 0.5 * mmd_gradient(X, Y, PARAMS)
    assert np.max(np.abs(fed.landmarks - Y)) <= 1e-12


def test_identical_shards_match_single_client():
    r = np.random.default_rng(5)
    X = r.normal(size=(2, 9))
    Y0 = r.normal(size=(2, 4))
    cfg = FedConfig(rounds=4, local_steps=2, step_size=0.3, n_landmarks=4)
    one = run_feddl([ClientShard(0, X, 1.0)], cfg, PARAMS, Y0=Y0)
    clones = [ClientShard(p, X.copy(), 1.0 / 3.0) for p in range(3)]
    three = run_feddl(clones, cfg, PARAMS, Y0=Y0)
    npt.assert_allclose(three.landmarks, one.landmarks, rtol=0, atol=1e-12)


def test_aggregate_weighted_mean_hand_value():
    out = aggregate(
        [np.array([[2.0]]), np.array([[6.0]])],
        [0.25, 0.75],
        FedConfig(aggregation=Aggregation.AVERAGE_LANDMARKS),
    )
    npt.assert_array_equal(out, [[5.0]])


def test_aggregate_gradients_hand_value():
    cfg = FedConfig(aggregation=Aggregation.AVERAGE_GRADIENTS, server_step_size=0.1)
    out = aggregate(
        [np.array([[2.0]]), np.array([[4.0]])],
        [0.5, 0.5],
        cfg,
        Y_prev=np.array([[1.0]]),
    )
    npt.assert_allclose(out, [[0.7]], rtol=0, atol=1e-15)


def test_aggregate_validation():
    cfg = FedConfig()
    with pytest.raises(ValueError, match="sum to 1"):
        aggregate([np.zeros((1, 1))], [0.5], cfg)
    with pytest.raises(ValueError, match="equally sized"):
        aggregate([np.zeros((1, 1))], [0.5, 0.5], cfg)
    with pytest.raises(ValueError, match="previous global landmarks"):
        aggregate(
            [np.zeros((1, 1))],
            [1.0],
            FedConfig(aggregation=Aggregation.AVERAGE_GRADIENTS),
        )


def test_local_update_single_step_exact():
    r = np.random.default_rng(11)
    X = r.normal(size=(2, 6))
    Y = r.normal(size=(2, 3))
    out, iterates, _ = local_update(
        ClientShard(0, X, 1.0),
        _landmark_side(Y, PARAMS.gamma),
        step_size=0.2,
        local_steps=1,
        kernel_params=PARAMS,
    )
    assert len(iterates) == 1
    npt.assert_array_equal(iterates[0], Y - 0.2 * mmd_gradient(X, Y, PARAMS))
    npt.assert_array_equal(out, iterates[0])


# id -> privacy spec of the replayed run
REPLAY_PRIVACY = {
    "none": PrivacySpec(),
    "data": PrivacySpec(mode="data", sigma=0.3, seed=5),
    "gradient-beta": PrivacySpec(mode="gradient", beta=0.5, seed=5),
    "gradient-budget": PrivacySpec(
        mode="gradient", epsilon=1.0, delta=1e-5, tau_x=1.0, tau_y=2.0, upsilon=0.5, seed=5
    ),
    "variable": PrivacySpec(mode="variable", sigma=0.2, seed=5),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("local_steps", [1, 3])
@pytest.mark.parametrize("privacy", REPLAY_PRIVACY.values(), ids=REPLAY_PRIVACY)
@pytest.mark.parametrize("aggregation", list(Aggregation), ids=lambda a: a.value)
def test_trace_objective_matches_external_reconstruction(
    aggregation, privacy, local_steps, workers
):
    shards = make_shards(n_clients=3, per=6, seed=9)
    r = np.random.default_rng(1)
    Y0 = r.normal(size=(2, 4))
    cfg = FedConfig(
        rounds=3, local_steps=local_steps, step_size=0.4, n_landmarks=4,
        aggregation=aggregation, server_step_size=0.7, workers=workers,
    )
    fed = run_feddl(perturb_shards(shards, privacy), cfg, PARAMS, privacy=privacy, Y0=Y0)

    # replay the protocol by hand, through the public kernel functions
    shards = perturb_shards(shards, privacy)
    weights = [s.weight for s in shards]
    n_y, Q = Y0.shape[1], cfg.local_steps
    grad_agg = aggregation is Aggregation.AVERAGE_GRADIENTS

    def kernel_sum(A, B):  # the kernel block of mmd and mmd_gradient
        left, right = _operands(A.T)[0], _operands(B.T)[1]
        return float(_gaussian_block(left, right, PARAMS.gamma, same=B is A).sum())

    def self_term(A):
        n = A.shape[1]
        return (kernel_sum(A, A) - n) / (n * (n - 1))

    const_x = sum(w * self_term(s.data) for w, s in zip(weights, shards))

    def global_objective(Y):  # the association the trace has always used
        cross = sum(
            w * (-2.0 * kernel_sum(s.data, Y) / (s.n_points * n_y))
            for w, s in zip(weights, shards)
        )
        return const_x + cross + self_term(Y) * float(np.sum(weights))

    def noised(g, p, s, t):
        rng = noise_rng(privacy.seed, shards[p].client_id, s, t)
        if fed.gradient_sigmas is not None:
            return _add_noise(g, fed.gradient_sigmas[p], rng)
        return perturb_gradient(g, privacy.beta, rng)

    gradient_noise = privacy.mode is PrivacyMode.GRADIENT
    Y = Y0
    expected_f, expected_d = [], []
    for s in range(1, cfg.rounds + 1):
        locals_prev = [Y] * len(shards)
        prev_virtual = Y
        for t in range(1, Q + 1):
            locals_t = []
            for p, sh in enumerate(shards):
                g = mmd_gradient(sh.data, locals_prev[p], PARAMS)
                if gradient_noise and not grad_agg and t == Q:
                    g = noised(g, p, s, t)
                locals_t.append(locals_prev[p] - cfg.step_size * g)
            virtual = sum(w * L for w, L in zip(weights, locals_t))
            expected_f.append(global_objective(virtual))
            expected_d.append(float(np.linalg.norm(virtual - prev_virtual) ** 2))
            prev_virtual = virtual
            locals_prev = locals_t
        if grad_agg:
            uploads = [mmd_gradient(sh.data, L, PARAMS) for sh, L in zip(shards, locals_prev)]
            if gradient_noise:
                uploads = [noised(u, p, s, Q + 1) for p, u in enumerate(uploads)]
            Y = Y - cfg.server_step_size * sum(w * u for w, u in zip(weights, uploads))
        else:
            Y = sum(w * L for w, L in zip(weights, locals_prev))
        if privacy.mode is PrivacyMode.VARIABLE:
            Y = perturb_variable(Y, privacy.sigma, noise_rng(privacy.seed, SERVER_STREAM_ID, s, 0))
    npt.assert_array_equal(fed.trace.objective, expected_f)
    npt.assert_array_equal(fed.trace.displacement_sq, expected_d)
    npt.assert_array_equal(fed.landmarks, Y)


def test_trace_shape_and_ordering():
    shards = make_shards()
    cfg = FedConfig(rounds=4, local_steps=3, n_landmarks=3, step_size=0.1)
    fed = run_feddl(shards, cfg, PARAMS)
    n = 4 * 3
    assert fed.trace.round_idx.shape == (n,)
    expected_rounds = np.repeat(np.arange(1, 5), 3)
    expected_steps = np.tile(np.arange(1, 4), 4)
    npt.assert_array_equal(fed.trace.round_idx, expected_rounds)
    npt.assert_array_equal(fed.trace.local_step, expected_steps)
    assert np.all(fed.trace.elapsed_ms >= 0)
    assert convergence_diagnostic(fed.trace) == pytest.approx(
        float(np.mean(fed.trace.displacement_sq))
    )


def test_zero_rounds_returns_initial_landmarks():
    shards = make_shards()
    Y0 = np.random.default_rng(0).normal(size=(2, 3))
    fed = run_feddl(
        shards, FedConfig(rounds=0, local_steps=2, n_landmarks=3), PARAMS, Y0=Y0
    )
    npt.assert_array_equal(fed.landmarks, Y0)
    assert fed.trace.objective.shape == (0,)


def test_fedconfig_validation():
    with pytest.raises(ValueError):
        FedConfig(rounds=-1)
    with pytest.raises(ValueError):
        FedConfig(local_steps=0)
    with pytest.raises(ValueError):
        FedConfig(step_size=0.0)
    with pytest.raises(ValueError):
        FedConfig(n_landmarks=0)
    with pytest.raises(ValueError):
        FedConfig(workers=0)


def test_seed_sample_constant_point_reproduced_exactly():
    point = np.array([1.5, -2.0])
    shards = [
        ClientShard(p, np.tile(point[:, None], (1, 4)), 0.5) for p in range(2)
    ]
    Y = init_landmarks(shards, FedConfig(n_landmarks=6, init=LandmarkInit.SEED_SAMPLE))
    npt.assert_array_equal(Y, np.tile(point[:, None], (1, 6)))


def test_seed_sample_pools_shard_moments():
    r = np.random.default_rng(2)
    shards = [ClientShard(p, r.normal(size=(3, 50)) + p, 0.5) for p in range(2)]
    Y = init_landmarks(
        shards, FedConfig(n_landmarks=4000, init=LandmarkInit.SEED_SAMPLE, seed=1)
    )
    pooled = np.hstack([s.data for s in shards])
    npt.assert_allclose(Y.mean(axis=1), pooled.mean(axis=1), atol=0.15)
    npt.assert_allclose(Y.std(axis=1), pooled.std(axis=1), atol=0.15)


def test_gaussian_init_is_seeded_and_scaled():
    shards = make_shards()
    cfg = FedConfig(n_landmarks=5, init=LandmarkInit.GAUSSIAN_SCALED, init_scale=3.0, seed=4)
    A = init_landmarks(shards, cfg)
    B = init_landmarks(shards, cfg)
    npt.assert_array_equal(A, B)
    base = init_landmarks(
        shards,
        FedConfig(n_landmarks=5, init=LandmarkInit.GAUSSIAN_SCALED, init_scale=1.0, seed=4),
    )
    npt.assert_allclose(A, 3.0 * base, rtol=0, atol=0)


def test_worker_count_does_not_change_results():
    shards = make_shards(n_clients=4, per=6, seed=21)
    Y0 = np.random.default_rng(2).normal(size=(2, 3))
    base = run_feddl(
        shards, FedConfig(rounds=3, local_steps=2, n_landmarks=3, workers=1), PARAMS, Y0=Y0
    )
    threaded = run_feddl(
        shards, FedConfig(rounds=3, local_steps=2, n_landmarks=3, workers=4), PARAMS, Y0=Y0
    )
    npt.assert_array_equal(base.landmarks, threaded.landmarks)
    npt.assert_array_equal(base.trace.objective, threaded.trace.objective)


def test_divergent_step_size_aborts():
    shards = make_shards()
    with pytest.raises(NumericalAbort, match="divergence threshold"):
        run_feddl(
            shards,
            FedConfig(rounds=3, local_steps=2, step_size=1e12, n_landmarks=3),
            PARAMS,
        )


def test_run_feddl_input_validation():
    shards = make_shards(n_clients=2)
    bad_weights = [ClientShard(0, shards[0].data, 0.9), ClientShard(1, shards[1].data, 0.9)]
    with pytest.raises(ValueError, match="sum to 1"):
        run_feddl(bad_weights, FedConfig(n_landmarks=2, rounds=1), PARAMS)
    dup = [ClientShard(0, shards[0].data, 0.5), ClientShard(0, shards[1].data, 0.5)]
    with pytest.raises(ValueError, match="unique"):
        run_feddl(dup, FedConfig(n_landmarks=2, rounds=1), PARAMS)


def test_variable_mode_zero_sigma_is_bit_identical():
    shards = make_shards(seed=13)
    Y0 = np.random.default_rng(1).normal(size=(2, 3))
    cfg = FedConfig(rounds=2, local_steps=2, n_landmarks=3, step_size=0.2)
    clean = run_feddl(shards, cfg, PARAMS, Y0=Y0)
    silent = run_feddl(
        shards, cfg, PARAMS, privacy=PrivacySpec(mode="variable", sigma=0.0), Y0=Y0
    )
    npt.assert_array_equal(clean.landmarks, silent.landmarks)
    noisy = run_feddl(
        shards, cfg, PARAMS, privacy=PrivacySpec(mode="variable", sigma=0.5), Y0=Y0
    )
    assert np.any(noisy.landmarks != clean.landmarks)


def test_gradient_mode_budget_resolves_per_client_sigmas():
    shards = make_shards(n_clients=2, per=6)
    spec = PrivacySpec(
        mode="gradient", epsilon=1.0, delta=1e-5, tau_x=1.0, tau_y=2.0, upsilon=0.5
    )
    cfg = FedConfig(rounds=3, local_steps=1, n_landmarks=4, step_size=0.1)
    fed = run_feddl(shards, cfg, PARAMS, privacy=spec, Y0=np.zeros((2, 4)))
    assert fed.gradient_sigmas is not None and len(fed.gradient_sigmas) == 2
    from feddl.privacy import SensitivityParams, gaussian_sigma_for_dp, sensitivity_delta

    for s, got in zip(shards, fed.gradient_sigmas):
        d = sensitivity_delta(
            SensitivityParams(
                tau_x=1.0, tau_y=2.0, upsilon=0.5, gamma=PARAMS.gamma,
                n_p=s.n_points, n_y=4,
            )
        )
        assert got == gaussian_sigma_for_dp(1.0, 1e-5, 3, d)


def test_gradient_mode_beta_zero_matches_clean_run():
    shards = make_shards(seed=17)
    Y0 = np.random.default_rng(6).normal(size=(2, 3))
    cfg = FedConfig(rounds=2, local_steps=2, n_landmarks=3, step_size=0.2)
    clean = run_feddl(shards, cfg, PARAMS, Y0=Y0)
    silent = run_feddl(
        shards, cfg, PARAMS, privacy=PrivacySpec(mode="gradient", beta=0.0), Y0=Y0
    )
    npt.assert_array_equal(clean.landmarks, silent.landmarks)
    noisy = run_feddl(
        shards, cfg, PARAMS, privacy=PrivacySpec(mode="gradient", beta=1.0), Y0=Y0
    )
    assert np.any(noisy.landmarks != clean.landmarks)


def test_gradient_averaging_noises_only_the_upload():
    shards = make_shards(n_clients=4, per=6, seed=29)
    Y0 = np.random.default_rng(8).normal(size=(2, 3))
    cfg = FedConfig(
        rounds=3, local_steps=2, n_landmarks=3, step_size=0.2,
        aggregation=Aggregation.AVERAGE_GRADIENTS,
    )
    clean = run_feddl(shards, cfg, PARAMS, Y0=Y0)
    spec = PrivacySpec(mode="gradient", beta=0.5)
    noisy, threaded = (
        run_feddl(shards, replace(cfg, workers=w), PARAMS, privacy=spec, Y0=Y0) for w in (1, 2)
    )
    # round 1's local steps start from Y0 and see no noise; its upload does
    Q = cfg.local_steps
    npt.assert_array_equal(noisy.trace.objective[:Q], clean.trace.objective[:Q])
    npt.assert_array_equal(noisy.trace.displacement_sq[:Q], clean.trace.displacement_sq[:Q])
    assert np.all(noisy.trace.objective[Q:] != clean.trace.objective[Q:])
    assert np.any(noisy.landmarks != clean.landmarks)
    npt.assert_array_equal(threaded.landmarks, noisy.landmarks)
    npt.assert_array_equal(threaded.trace.objective, noisy.trace.objective)


def test_perturb_shards_only_in_data_mode(rng):
    shards = make_shards(seed=23)
    same = perturb_shards(shards, PrivacySpec(mode="variable", sigma=1.0))
    assert all(a.data is b.data for a, b in zip(same, shards))
    noisy = perturb_shards(shards, PrivacySpec(mode="data", sigma=0.3))
    assert all(np.any(a.data != b.data) for a, b in zip(noisy, shards))
    silent = perturb_shards(shards, PrivacySpec(mode="data", sigma=0.0))
    for a, b in zip(silent, shards):
        npt.assert_array_equal(a.data, b.data)


def test_init_landmarks_rejects_mixed_dims():
    with pytest.raises(ValueError, match="feature dim"):
        init_landmarks(
            [ClientShard(0, np.zeros((2, 4)), 0.5), ClientShard(1, np.zeros((3, 4)), 0.5)],
            FedConfig(),
        )


@pytest.mark.parametrize("init", list(LandmarkInit), ids=lambda i: i.value)
def test_run_feddl_initialises_through_init_landmarks(init):
    shards = make_shards(seed=6)
    # no rounds: the result's landmarks are the starting ones
    cfg = FedConfig(rounds=0, local_steps=1, n_landmarks=4, init=init, init_scale=2.0, seed=3)
    fed = run_feddl(shards, cfg, PARAMS)
    npt.assert_array_equal(fed.landmarks, init_landmarks(shards, cfg))


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_fit_checks_arrays_only_at_the_public_gradient(monkeypatch, aggregation):
    # ClientShard and run_feddl check the fit's arrays once; the loop runs
    # the unchecked gradient core and no argument check at all
    calls = {"pairwise_sq_dist": 0, "gaussian_kernel": 0, "_as_points": 0, "_mmd_gradient_core": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("pairwise_sq_dist", "gaussian_kernel", "_as_points"):
        counted(kernels, name)
    counted(federation, "_mmd_gradient_core")
    shards = make_shards()
    cfg = FedConfig(rounds=3, local_steps=2, n_landmarks=4, aggregation=aggregation)
    run_feddl(shards, cfg, PARAMS)
    assert calls["_mmd_gradient_core"] > 0
    assert calls["pairwise_sq_dist"] == calls["gaussian_kernel"] == calls["_as_points"] == 0


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_one_landmark_self_block_per_round_at_step_one(monkeypatch, aggregation):
    sides = []
    inner = federation._landmark_side

    def counted(Y, gamma, **kwargs):
        sides.append(Y)
        return inner(Y, gamma, **kwargs)

    monkeypatch.setattr(federation, "_landmark_side", counted)
    P, S, Q = 3, 4, 3
    cfg = FedConfig(
        rounds=S, local_steps=Q, n_landmarks=3, step_size=0.1, aggregation=aggregation
    )
    Y0 = np.random.default_rng(4).normal(size=(2, 3))
    run_feddl(make_shards(n_clients=P), cfg, PARAMS, Y0=Y0)
    # per round: the broadcast's, each client's steps 2..Q, and each
    # gradient upload's
    uploads = P if aggregation is Aggregation.AVERAGE_GRADIENTS else 0
    assert len(sides) == S * (1 + P * (Q - 1) + uploads)
    assert sides[0] is Y0
