import math

import numpy as np
import numpy.testing as npt
import pytest

from feddl.privacy import (
    SERVER_STREAM_ID,
    DpFeasibility,
    PrivacyMode,
    PrivacySpec,
    SensitivityParams,
    dp_check_data_mode,
    gaussian_sigma_for_dp,
    noise_rng,
    perturb_data,
    perturb_gradient,
    perturb_variable,
    sensitivity_delta,
)

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


@pytest.mark.parametrize("args,expected", SENSITIVITY_REFERENCE)
def test_sensitivity_matches_reference(args, expected):
    tau_x, tau_y, upsilon, gamma, n_p, n_y = args
    v = sensitivity_delta(
        SensitivityParams(
            tau_x=tau_x, tau_y=tau_y, upsilon=upsilon, gamma=gamma, n_p=n_p, n_y=n_y
        )
    )
    assert abs(v - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("args,expected", SIGMA_REFERENCE)
def test_calibrated_sigma_matches_reference(args, expected):
    epsilon, delta, rounds, delta_sens = args
    v = gaussian_sigma_for_dp(epsilon, delta, rounds, delta_sens)
    assert abs(v - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize(
    "args", [(1e-300, 0.5, 3, 1.0), (1.0, 0.5, 1, 1e200)], ids=["epsilon-squared", "sensitivity-squared"]
)
def test_calibrated_sigma_that_leaves_float64_is_inf(args):
    assert gaussian_sigma_for_dp(*args) == math.inf


@pytest.mark.parametrize("args,feasible,c,min_sigma", FEASIBILITY_REFERENCE)
def test_data_mode_feasibility_matches_reference(args, feasible, c, min_sigma):
    out = dp_check_data_mode(*args)
    assert isinstance(out, DpFeasibility)
    assert out.feasible is feasible
    assert abs(out.c_threshold - c) <= 1e-12 * c
    assert abs(out.min_sigma - min_sigma) <= 1e-12 * min_sigma


def test_sensitivity_validation():
    with pytest.raises(ValueError):
        SensitivityParams(tau_x=-1, tau_y=1, upsilon=1, gamma=1, n_p=2, n_y=2)
    with pytest.raises(ValueError):
        SensitivityParams(tau_x=1, tau_y=1, upsilon=1, gamma=1, n_p=0, n_y=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0, delta=0.1, rounds=1, delta_sens=1.0),
        dict(epsilon=1.0, delta=0.0, rounds=1, delta_sens=1.0),
        dict(epsilon=1.0, delta=1.5, rounds=1, delta_sens=1.0),
        dict(epsilon=1.0, delta=0.1, rounds=0, delta_sens=1.0),
        dict(epsilon=1.0, delta=0.1, rounds=1, delta_sens=-1.0),
    ],
)
def test_calibration_domain_errors(kwargs):
    with pytest.raises(ValueError):
        gaussian_sigma_for_dp(**kwargs)


def test_feasibility_domain_errors():
    with pytest.raises(ValueError):
        dp_check_data_mode(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        dp_check_data_mode(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dp_check_data_mode(1.0, 1.2, 1.0)


def test_noise_rng_reproducible_and_separated():
    a1 = noise_rng(3, 1, 2, 0).normal(size=8)
    a2 = noise_rng(3, 1, 2, 0).normal(size=8)
    npt.assert_array_equal(a1, a2)
    for other in [(4, 1, 2, 0), (3, 2, 2, 0), (3, 1, 3, 0), (3, 1, 2, 1)]:
        assert not np.array_equal(a1, noise_rng(*other).normal(size=8))


def test_server_stream_distinct_from_clients():
    srv = noise_rng(0, SERVER_STREAM_ID, 0, 0).normal(size=4)
    cli = noise_rng(0, 0, 0, 0).normal(size=4)
    assert not np.array_equal(srv, cli)


def test_zero_scale_short_circuits_bit_exact(rng):
    X = rng.normal(size=(3, 7))
    out = perturb_data(X, 0.0, noise_rng(0, 0, 0, 0))
    npt.assert_array_equal(out, X)
    g = rng.normal(size=(3, 4))
    npt.assert_array_equal(perturb_gradient(g, 0.0, noise_rng(0, 0, 0, 1)), g)
    npt.assert_array_equal(perturb_variable(X, 0.0, noise_rng(0, 0, 0, 2)), X)


def test_constant_gradient_unchanged():
    g = np.full((2, 5), 1.25)
    npt.assert_array_equal(perturb_gradient(g, 3.0, noise_rng(0, 0, 0, 0)), g)


def test_perturb_data_noise_scale(rng):
    sigma = 0.7
    out = perturb_data(np.zeros((400, 500)), sigma, noise_rng(9, 0, 0, 0))
    assert abs(np.std(out) - sigma) < 0.02 * sigma


def test_perturb_gradient_relative_scale():
    r = np.random.default_rng(4)
    g = r.normal(size=(300, 300))
    beta = 2.0
    out = perturb_gradient(g, beta, noise_rng(9, 0, 0, 0))
    noise = out - g
    expected = beta * np.std(g)
    assert abs(np.std(noise) - expected) < 0.02 * expected


def test_negative_scales_rejected(rng):
    with pytest.raises(ValueError):
        perturb_data(np.zeros((2, 2)), -0.1, noise_rng(0, 0, 0, 0))
    with pytest.raises(ValueError):
        perturb_gradient(np.zeros((2, 2)), -0.1, noise_rng(0, 0, 0, 0))


def test_privacy_spec_mode_coercion_and_validation():
    spec = PrivacySpec(mode="data", sigma=0.5)
    assert spec.mode is PrivacyMode.DATA
    with pytest.raises(ValueError):
        PrivacySpec(mode="none", sigma=0.5)
    with pytest.raises(ValueError):
        PrivacySpec(mode="data", beta=0.5)
    with pytest.raises(ValueError):
        PrivacySpec(mode="gradient", sigma=0.5)
    with pytest.raises(ValueError):
        PrivacySpec(mode="gradient", epsilon=1.0)  # missing delta
    with pytest.raises(ValueError):
        PrivacySpec(mode="gradient", epsilon=1.0, delta=1e-5)  # missing norm bounds
    ok = PrivacySpec(
        mode="gradient", epsilon=1.0, delta=1e-5, tau_x=1.0, tau_y=1.0, upsilon=1.0
    )
    assert ok.mode is PrivacyMode.GRADIENT
