"""Gaussian-noise perturbation modes and differential-privacy calibration.

Three perturbation points are supported in the federated loop:

* **data** — each client adds ``N(0, sigma^2)`` noise to its shard once,
  before any optimisation;
* **gradient** — the gradient a client communicates (the one whose effect
  leaves the device) is perturbed with noise scaled by ``beta`` times the
  population standard deviation of that gradient's entries; intermediate
  local steps stay clean;
* **variable** — the server adds ``N(0, sigma^2)`` noise to the
  aggregated landmark matrix each round before broadcasting it.

Calibration helpers:

* ``sensitivity_delta`` — L2 sensitivity of a client's communicated MMD
  gradient given norm bounds on data and landmarks;
* ``gaussian_sigma_for_dp`` — noise scale that makes ``S`` adaptive
  releases of a ``delta_sens``-sensitive quantity ``(epsilon, delta)``
  differentially private;
* ``dp_check_data_mode`` — feasibility check for the one-shot data mode:
  with noise scale ``c * 2 tau_X / epsilon`` the guarantee holds only
  when ``delta >= 2 c tau_X / epsilon`` with ``c = sqrt(2 ln(1.25/delta))``.

Noise streams are seeded from ``(run_seed, client_id, round, step)`` so a
run is reproducible regardless of client execution order; every other
seeded draw, data-mode noise included, has its own stream in ``_STREAMS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "PrivacyMode",
    "PrivacySpec",
    "SensitivityParams",
    "DpFeasibility",
    "noise_rng",
    "perturb_data",
    "perturb_gradient",
    "perturb_variable",
    "sensitivity_delta",
    "gaussian_sigma_for_dp",
    "dp_check_data_mode",
]

#: client_id slot used for server-side (variable-mode) noise streams.
SERVER_STREAM_ID = 0xFFFFFFFF

#: Tags of ``stream_rng``'s streams ``[seed, tag, *coords]``; only
#: ``kmeans_restart`` (the restart) and ``data_noise`` (the client id) have a
#: coordinate.  ``SeedSequence`` pads entropy with zeros to four words, so
#: ``noise_rng`` stays off them because gradient noise has round, step >= 1
#: and variable noise the client slot ``SERVER_STREAM_ID``, which is no tag.
_STREAMS = dict(
    landmark_init=1, tsne_init=2, umap_init=3, kmeans_restart=4, ca_split=5,
    blobs=6, subsample=7, iid_partition=8, spectral_start=9, data_noise=10,
)


class PrivacyMode(str, Enum):
    NONE = "none"
    DATA = "data"
    GRADIENT = "gradient"
    VARIABLE = "variable"


@dataclass(frozen=True)
class SensitivityParams:
    """Norm bounds entering the gradient-sensitivity formula.

    ``tau_x``: bound on data column norms; ``tau_y``: bound on landmark
    column norms; ``upsilon``: bound on the norm of any single landmark
    update; ``gamma``: kernel bandwidth; ``n_p``/``n_y``: shard and
    landmark counts.
    """

    tau_x: float
    tau_y: float
    upsilon: float
    gamma: float
    n_p: int
    n_y: int

    def __post_init__(self) -> None:
        for name in ("tau_x", "tau_y", "upsilon", "gamma"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if self.n_p < 1 or self.n_y < 1:
            raise ValueError(
                f"n_p and n_y must be >= 1, got n_p={self.n_p}, n_y={self.n_y}"
            )


@dataclass(frozen=True)
class PrivacySpec:
    """Which perturbation mode is active and how its noise is scaled.

    Exactly one noise source drives a non-``NONE`` run:

    * ``DATA`` / ``VARIABLE``: absolute scale ``sigma``;
    * ``GRADIENT``: either relative scale ``beta``, or an
      ``(epsilon, delta)`` budget from which a scale is calibrated via
      ``sensitivity_delta`` + ``gaussian_sigma_for_dp`` (requires
      ``tau_x``/``tau_y``/``upsilon``).

    Zero scales are permitted and short-circuit: the input is returned
    unchanged, bit for bit.
    """

    mode: PrivacyMode = PrivacyMode.NONE
    sigma: float = 0.0
    beta: float = 0.0
    epsilon: float | None = None
    delta: float | None = None
    tau_x: float | None = None
    tau_y: float | None = None
    upsilon: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        mode = PrivacyMode(self.mode)
        object.__setattr__(self, "mode", mode)
        for name in ("sigma", "beta"):
            v = getattr(self, name)
            if not (v >= 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        budgeted = self.epsilon is not None or self.delta is not None
        if mode is PrivacyMode.NONE:
            if self.sigma or self.beta or budgeted:
                raise ValueError("privacy mode 'none' must not set sigma, beta, or a budget")
        elif mode in (PrivacyMode.DATA, PrivacyMode.VARIABLE):
            if self.beta or budgeted:
                raise ValueError(
                    f"privacy mode '{mode.value}' is sigma-driven; beta/epsilon/delta must be unset"
                )
        elif mode is PrivacyMode.GRADIENT:
            if budgeted:
                if self.beta or self.sigma:
                    raise ValueError(
                        "budget-calibrated gradient mode must not also set sigma or beta"
                    )
                if self.epsilon is None or self.delta is None:
                    raise ValueError("budget calibration needs both epsilon and delta")
                if None in (self.tau_x, self.tau_y, self.upsilon):
                    raise ValueError(
                        "budget calibration needs tau_x, tau_y, and upsilon norm bounds"
                    )
                if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
                    raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
                if not (0 < self.delta <= 1):
                    raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")
                for name in ("tau_x", "tau_y", "upsilon"):
                    v = getattr(self, name)
                    if not (v >= 0 and np.isfinite(v)):
                        raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            elif self.sigma:
                raise ValueError("gradient mode without a budget is beta-driven; sigma must be 0")


def noise_rng(run_seed: int, client_id: int, round_idx: int, step: int) -> np.random.Generator:
    """Deterministic per-(client, round, step) noise stream."""
    seq = np.random.SeedSequence([int(run_seed), int(client_id), int(round_idx), int(step)])
    return np.random.default_rng(seq)


def stream_rng(seed: int, name: str, *coords: int) -> np.random.Generator:
    """The generator of the named stream of ``_STREAMS`` at ``coords``."""
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAMS[name], *coords]))


def _add_noise(A, sigma: float, rng: np.random.Generator) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if sigma < 0 or not np.isfinite(sigma):
        raise ValueError(f"noise scale must be finite and >= 0, got {sigma!r}")
    if sigma == 0.0:
        return A
    return A + rng.normal(0.0, sigma, size=A.shape)


def perturb_data(X, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One-shot data perturbation ``X + N(0, sigma^2)``.

    ``sigma == 0`` returns ``X`` unchanged (no draw is made).
    """
    return _add_noise(X, sigma, rng)


def perturb_gradient(g, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Relative gradient perturbation ``g + N(0, (beta * sd(g))^2)``.

    ``sd`` is the population standard deviation over all entries of
    ``g``.  ``beta == 0``, or an exactly constant gradient, returns ``g``
    unchanged.
    """
    g = np.asarray(g, dtype=np.float64)
    if beta < 0 or not np.isfinite(beta):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if beta == 0.0:
        return g
    sd = float(np.std(g))
    if sd == 0.0:
        return g
    return g + rng.normal(0.0, beta * sd, size=g.shape)


def perturb_variable(Y, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Round-wise perturbation of the aggregated landmark matrix."""
    return _add_noise(Y, sigma, rng)


def sensitivity_delta(params: SensitivityParams) -> float:
    """L2 sensitivity of a client's communicated MMD gradient:

        (8 sqrt(n_y) gamma tau_x / (n_p n_y))
        * (1 + 2 gamma (tau_x + tau_y) (tau_x + upsilon))
    """
    p = params
    lead = 8.0 * math.sqrt(p.n_y) * p.gamma * p.tau_x / (p.n_p * p.n_y)
    return lead * (1.0 + 2.0 * p.gamma * (p.tau_x + p.tau_y) * (p.tau_x + p.upsilon))


def gaussian_sigma_for_dp(epsilon: float, delta: float, rounds: int, delta_sens: float) -> float:
    """Noise scale for ``(epsilon, delta)``-DP over ``rounds`` adaptive
    releases of a quantity with L2 sensitivity ``delta_sens``:

        sigma^2 = 8 * rounds * delta_sens^2 * ln(e + epsilon/delta) / epsilon^2

    ``inf`` when that leaves float64: ``epsilon^2`` underflows to 0, or
    ``delta_sens^2`` overflows.
    """
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if not (0 < delta <= 1):
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds!r}")
    if delta_sens < 0 or not np.isfinite(delta_sens):
        raise ValueError(f"delta_sens must be finite and >= 0, got {delta_sens!r}")
    try:
        var = 8.0 * rounds * delta_sens**2 * math.log(math.e + epsilon / delta) / epsilon**2
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return math.sqrt(var)


@dataclass(frozen=True)
class DpFeasibility:
    """Result of the data-mode feasibility check."""

    feasible: bool
    c_threshold: float
    min_sigma: float


def dp_check_data_mode(epsilon: float, delta: float, tau_x: float) -> DpFeasibility:
    """Data-mode feasibility: with ``c = sqrt(2 ln(1.25/delta))`` the
    guarantee needs ``delta >= 2 c tau_x / epsilon``; the implied minimal
    noise scale is ``c * (2 tau_x) / epsilon`` (L2 sensitivity
    ``2 tau_x``).
    """
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if not (0 < delta <= 1):
        raise ValueError(
            f"delta must lie in (0, 1] so that ln(1.25/delta) > 0, got {delta!r}"
        )
    if tau_x < 0 or not np.isfinite(tau_x):
        raise ValueError(f"tau_x must be finite and >= 0, got {tau_x!r}")
    c = math.sqrt(2.0 * math.log(1.25 / delta))
    return DpFeasibility(
        feasible=delta >= 2.0 * c * tau_x / epsilon,
        c_threshold=c,
        min_sigma=c * 2.0 * tau_x / epsilon,
    )
