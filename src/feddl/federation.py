"""Federated landmark learning by distributed MMD minimisation.

A server keeps a landmark matrix ``Y`` (``m x n_y``, columns are
landmarks).  Each round it broadcasts ``Y``; every client runs ``Q``
gradient-descent steps on the MMD between its shard and ``Y`` and sends
back either its updated landmarks or its gradient; the server aggregates
with weights ``w_p = n_p / n_x`` and proceeds to the next round.

Client updates within a round are independent and may run on a thread
pool; aggregation reduces contributions in fixed client order, so the
result is identical for any worker count.

The per-round trace logs, for every local step ``t`` of round ``s``, the
weighted-average iterate ``Y^{s,t} = sum_p w_p Y_p^{s,t}``: the global
objective ``F = sum_p w_p mmd(X_p, Y^{s,t})``, the squared displacement
``||Y^{s,t} - Y^{s,t-1}||_F^2`` (whose mean is the convergence
diagnostic), and wall-clock time per round.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalAbort
from .kernels import KernelParams, _cross_term, _self_term, mmd_gradient
from .privacy import (
    SERVER_STREAM_ID,
    PrivacyMode,
    PrivacySpec,
    SensitivityParams,
    _add_noise,
    gaussian_sigma_for_dp,
    noise_rng,
    perturb_data,
    perturb_gradient,
    perturb_variable,
    sensitivity_delta,
)

__all__ = [
    "Aggregation",
    "LandmarkInit",
    "FedConfig",
    "ClientShard",
    "ShardsMeta",
    "RoundTrace",
    "FedResult",
    "shards_meta",
    "init_landmarks",
    "local_update",
    "aggregate",
    "run_feddl",
    "perturb_shards",
    "convergence_diagnostic",
]

#: fixed tag mixed into the seed stream used for landmark initialisation.
_INIT_STREAM_TAG = 1


class Aggregation(str, Enum):
    AVERAGE_LANDMARKS = "average_landmarks"
    AVERAGE_GRADIENTS = "average_gradients"


class LandmarkInit(str, Enum):
    GAUSSIAN_SCALED = "gaussian_scaled"
    SEED_SAMPLE = "seed_sample"


@dataclass(frozen=True)
class FedConfig:
    """Hyper-parameters of the federated landmark optimisation."""

    rounds: int = 50
    local_steps: int = 3
    step_size: float = 1.0
    server_step_size: float = 1.0
    aggregation: Aggregation = Aggregation.AVERAGE_LANDMARKS
    n_landmarks: int = 200
    init: LandmarkInit = LandmarkInit.SEED_SAMPLE
    init_scale: float = 1.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggregation", Aggregation(self.aggregation))
        object.__setattr__(self, "init", LandmarkInit(self.init))
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        for name in ("step_size", "server_step_size"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if self.n_landmarks < 2:
            raise ValueError(f"n_landmarks must be >= 2, got {self.n_landmarks}")
        if self.init_scale < 0 or not np.isfinite(self.init_scale):
            raise ValueError(f"init_scale must be finite and >= 0, got {self.init_scale!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ClientShard:
    """One client's slice of the dataset.

    ``data`` is ``m x n_p`` with columns as points; ``weight`` is the
    aggregation weight ``n_p / n_x``; ``indices`` maps shard columns back
    to column positions in the original dataset (used to align labels and
    to check that partitioning conserves the data).
    """

    client_id: int
    data: np.ndarray
    weight: float
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] < 2:
            raise ValueError(
                f"client {self.client_id}: shard must be 2-D with >= 2 points, "
                f"got shape {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError(f"client {self.client_id}: shard contains non-finite entries")
        if not (0 < self.weight <= 1):
            raise ValueError(
                f"client {self.client_id}: weight must lie in (0, 1], got {self.weight}"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @property
    def n_points(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ShardsMeta:
    """What the server may know before training starts.

    Feature dimension and per-client point counts are always available.
    Per-feature means/variances are populated only for the seeded
    initialisation mode, which deliberately leaks first and second
    moments of each shard to the server.
    """

    feature_dim: int
    counts: tuple[int, ...]
    means: np.ndarray | None = None
    variances: np.ndarray | None = None


def shards_meta(shards: Sequence[ClientShard], with_moments: bool = False) -> ShardsMeta:
    """Collect server-visible metadata (optionally shard moments) from clients."""
    if not shards:
        raise ValueError("at least one client shard is required")
    m = shards[0].data.shape[0]
    for s in shards:
        if s.data.shape[0] != m:
            raise ValueError(
                f"client {s.client_id}: feature dim {s.data.shape[0]} != {m} of client "
                f"{shards[0].client_id}"
            )
    counts = tuple(s.n_points for s in shards)
    means = variances = None
    if with_moments:
        # Moments of finite but huge data overflow; init_landmarks rejects
        # the landmarks drawn from them.
        with np.errstate(over="ignore", invalid="ignore"):
            means = np.stack([s.data.mean(axis=1) for s in shards])
            variances = np.stack([s.data.var(axis=1) for s in shards])
    return ShardsMeta(feature_dim=m, counts=counts, means=means, variances=variances)


def init_landmarks(meta: ShardsMeta, config: FedConfig) -> np.ndarray:
    """Server-side landmark initialisation (``m x n_landmarks``).

    ``gaussian_scaled`` draws i.i.d. standard normal entries times
    ``init_scale``.  ``seed_sample`` pools the leaked per-client moments
    into a diagonal Gaussian (population pooling, weighted by shard size)
    and samples landmarks from it; shards that all sit on one constant
    point therefore reproduce that point exactly.  Landmarks that
    overflow float64 (moments of finite but huge data, or a huge
    ``init_scale``) raise ``NumericalAbort``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _INIT_STREAM_TAG]))
    m, n_y = meta.feature_dim, config.n_landmarks
    if config.init is LandmarkInit.GAUSSIAN_SCALED:
        Y0 = config.init_scale * rng.normal(0.0, 1.0, size=(m, n_y))
    else:
        if meta.means is None or meta.variances is None:
            raise ValueError("seed_sample initialisation needs shard moments in ShardsMeta")
        w = np.asarray(meta.counts, dtype=np.float64)
        w /= w.sum()
        with np.errstate(over="ignore", invalid="ignore"):
            mu = w @ meta.means
            ex2 = w @ (meta.variances + meta.means**2)
            var = np.maximum(ex2 - mu**2, 0.0)
            Y0 = mu[:, None] + np.sqrt(var)[:, None] * rng.normal(0.0, 1.0, size=(m, n_y))
    if not np.isfinite(Y0).all():
        raise NumericalAbort(f"{config.init.value} initial landmarks overflow float64")
    return Y0


def local_update(
    data: np.ndarray,
    Y: np.ndarray,
    *,
    step_size: float,
    local_steps: int,
    kernel_params: KernelParams,
    step_noise: Callable[[int, np.ndarray], np.ndarray] | None = None,
    norm_cap: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run ``local_steps`` gradient-descent steps on ``mmd(data, Y)``.

    Returns the final landmark iterate and the list of iterates after
    each step (step ``t`` applies the gradient after any ``step_noise``
    hook).  ``norm_cap`` triggers a divergence abort when the iterate's
    Frobenius norm exceeds it.
    """
    Yp = np.asarray(Y, dtype=np.float64)
    iterates: list[np.ndarray] = []
    for t in range(1, local_steps + 1):
        g = mmd_gradient(data, Yp, kernel_params)
        if step_noise is not None:
            g = step_noise(t, g)
        if not np.isfinite(g).all():
            raise NumericalAbort(f"non-finite gradient at local step {t}")
        Yp = Yp - step_size * g
        iterates.append(Yp)
        if norm_cap is not None and np.linalg.norm(Yp) > norm_cap:
            raise NumericalAbort(
                f"landmark norm exceeded divergence threshold at local step {t}: "
                f"step size {step_size} too large"
            )
    return Yp, iterates


def _weighted_sum(updates: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """``sum_p w_p U_p`` accumulated in fixed client order."""
    acc = weights[0] * updates[0]
    for wp, up in zip(weights[1:], updates[1:]):
        acc += wp * up
    return acc


def aggregate(
    updates: Sequence[np.ndarray],
    weights: Sequence[float],
    config: FedConfig,
    Y_prev: np.ndarray | None = None,
) -> np.ndarray:
    """Server-side reduction in fixed client order.

    With landmark averaging, ``updates`` are client landmark matrices and
    the result is ``sum_p w_p Y_p``.  With gradient averaging, ``updates``
    are client gradients and the result is
    ``Y_prev - server_step_size * sum_p w_p g_p``.
    """
    if len(updates) != len(weights) or not updates:
        raise ValueError("updates and weights must be equally sized and non-empty")
    w = np.asarray(weights, dtype=np.float64)
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"aggregation weights must sum to 1, got {w.sum()!r}")
    acc = _weighted_sum(updates, list(w))
    if config.aggregation is Aggregation.AVERAGE_LANDMARKS:
        return acc
    if Y_prev is None:
        raise ValueError("gradient aggregation needs the previous global landmarks")
    return Y_prev - config.server_step_size * acc


@dataclass
class RoundTrace:
    """Per-local-step optimisation log (row-aligned arrays)."""

    round_idx: np.ndarray
    local_step: np.ndarray
    objective: np.ndarray
    displacement_sq: np.ndarray
    elapsed_ms: np.ndarray

    def to_rows(self) -> list[tuple[int, int, float, float, float]]:
        return [
            (int(s), int(t), float(f), float(d), float(e))
            for s, t, f, d, e in zip(
                self.round_idx,
                self.local_step,
                self.objective,
                self.displacement_sq,
                self.elapsed_ms,
            )
        ]


@dataclass
class FedResult:
    """Outcome of a federated optimisation run."""

    landmarks: np.ndarray
    trace: RoundTrace
    initial_landmarks: np.ndarray
    gradient_sigmas: tuple[float, ...] | None = None


def perturb_shards(shards: Sequence[ClientShard], spec: PrivacySpec) -> list[ClientShard]:
    """One-shot data perturbation, applied before any optimisation.

    Each client adds ``N(0, sigma^2)`` noise to its shard using its own
    noise stream ``(seed, client_id, 0, 0)``.  A no-op for other modes.
    """
    if spec.mode is not PrivacyMode.DATA:
        return list(shards)
    out = []
    for s in shards:
        rng = noise_rng(spec.seed, s.client_id, 0, 0)
        out.append(
            ClientShard(
                client_id=s.client_id,
                data=perturb_data(s.data, spec.sigma, rng),
                weight=s.weight,
                indices=s.indices,
            )
        )
    return out


def _resolve_gradient_sigmas(
    shards: Sequence[ClientShard],
    spec: PrivacySpec,
    config: FedConfig,
    kernel_params: KernelParams,
) -> tuple[float, ...] | None:
    """Per-client absolute noise scales for budget-calibrated gradient mode."""
    if spec.mode is not PrivacyMode.GRADIENT or spec.epsilon is None or config.rounds == 0:
        return None
    sigmas = []
    for s in shards:
        d = sensitivity_delta(
            SensitivityParams(
                tau_x=spec.tau_x,
                tau_y=spec.tau_y,
                upsilon=spec.upsilon,
                gamma=kernel_params.gamma,
                n_p=s.n_points,
                n_y=config.n_landmarks,
            )
        )
        sigmas.append(gaussian_sigma_for_dp(spec.epsilon, spec.delta, config.rounds, d))
    return tuple(sigmas)


def run_feddl(
    shards: Sequence[ClientShard],
    config: FedConfig,
    kernel_params: KernelParams,
    privacy: PrivacySpec | None = None,
    Y0: np.ndarray | None = None,
) -> FedResult:
    """Run the full federated optimisation loop.

    ``Y0`` overrides the built-in initialisation (which uses shard
    moments when ``config.init`` is ``seed_sample``).  Gradient-mode
    privacy perturbs only what leaves each client: the final local step's
    gradient under landmark averaging, or the uploaded gradient under
    gradient averaging.  Variable-mode privacy perturbs the aggregated
    landmarks before each broadcast.  Client data whose squared
    distances overflow float64 raise ``NumericalAbort``.
    """
    privacy = privacy or PrivacySpec()
    if not shards:
        raise ValueError("at least one client shard is required")
    ids = [s.client_id for s in shards]
    if len(set(ids)) != len(ids):
        raise ValueError(f"client ids must be unique, got {ids}")
    weights = [s.weight for s in shards]
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"shard weights must sum to 1, got {sum(weights)!r}")

    if Y0 is None:
        meta = shards_meta(shards, with_moments=config.init is LandmarkInit.SEED_SAMPLE)
        Y0 = init_landmarks(meta, config)
    Y0 = np.asarray(Y0, dtype=np.float64)
    for s in shards:
        if s.data.shape[0] != Y0.shape[0]:
            raise ValueError(
                f"client {s.client_id}: feature dim {s.data.shape[0]} != landmark dim "
                f"{Y0.shape[0]}"
            )
    norm_cap = 1e6 * max(float(np.linalg.norm(Y0)), 1.0)

    grad_sigmas = _resolve_gradient_sigmas(shards, privacy, config, kernel_params)
    # Objective bookkeeping: the shard self-term of the MMD does not
    # depend on Y, so it is computed once per client.  It is the one place
    # the fit pairs data points with each other, so data whose squared
    # distances overflow float64 abort here; the overflow is raised rather
    # than looked for in the result, because the Gram expansion clamps an
    # overflowing ``2 x.y`` to a distance of 0.
    self_terms = []
    for s in shards:
        try:
            with np.errstate(over="raise", invalid="raise"):
                self_terms.append(_self_term(s.data, kernel_params))
        except FloatingPointError as exc:
            raise NumericalAbort(
                f"client {s.client_id}: MMD self-term overflows float64 ({exc})"
            ) from exc
    const_x = sum(w * v for w, v in zip(weights, self_terms))

    def objective(Y: np.ndarray) -> float:
        cross = sum(
            w * _cross_term(s.data, Y, kernel_params) for w, s in zip(weights, shards)
        )
        return const_x + cross + _self_term(Y, kernel_params) * float(np.sum(weights))

    S, Q, eta = config.rounds, config.local_steps, config.step_size
    grad_agg = config.aggregation is Aggregation.AVERAGE_GRADIENTS
    gradient_noise = privacy.mode is PrivacyMode.GRADIENT

    def noised_gradient(g: np.ndarray, pos: int, s: int, t: int) -> np.ndarray:
        """Client ``pos``'s gradient-mode noise on ``g`` (round ``s``, stream step ``t``)."""
        rng = noise_rng(privacy.seed, shards[pos].client_id, s, t)
        if grad_sigmas is not None:
            return _add_noise(g, grad_sigmas[pos], rng)
        return perturb_gradient(g, privacy.beta, rng)

    def client_round(pos: int, s: int, Y_global: np.ndarray):
        shard = shards[pos]
        step_noise = None
        if gradient_noise and not grad_agg:
            # Only the final local step's gradient shapes what is uploaded.
            def step_noise(t: int, g: np.ndarray):
                return noised_gradient(g, pos, s, t) if t == Q else g

        Yp, iterates = local_update(
            shard.data,
            Y_global,
            step_size=eta,
            local_steps=Q,
            kernel_params=kernel_params,
            step_noise=step_noise,
            norm_cap=norm_cap,
        )
        upload = None
        if grad_agg:
            upload = mmd_gradient(shard.data, Yp, kernel_params)
            if gradient_noise:
                upload = noised_gradient(upload, pos, s, Q + 1)
        return Yp, iterates, upload

    P = len(shards)
    rows_s = np.empty(S * Q, dtype=np.int64)
    rows_t = np.empty(S * Q, dtype=np.int64)
    rows_f = np.empty(S * Q)
    rows_d = np.empty(S * Q)
    rows_e = np.empty(S * Q)

    Y = Y0
    pool = ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    try:
        for s in range(1, S + 1):
            t0 = time.perf_counter()
            if pool is not None:
                results = list(pool.map(lambda pos: client_round(pos, s, Y), range(P)))
            else:
                results = [client_round(pos, s, Y) for pos in range(P)]

            # The weighted-average iterate at every local step (the step-Q
            # average coincides bit-for-bit with landmark aggregation).
            prev_virtual = Y
            for t in range(1, Q + 1):
                virtual = _weighted_sum([r[1][t - 1] for r in results], weights)
                row = (s - 1) * Q + (t - 1)
                rows_s[row] = s
                rows_t[row] = t
                rows_f[row] = objective(virtual)
                rows_d[row] = float(np.linalg.norm(virtual - prev_virtual) ** 2)
                prev_virtual = virtual

            if grad_agg:
                uploads = [r[2] for r in results]
                Y_next = aggregate(uploads, weights, config, Y_prev=Y)
            else:
                Y_next = aggregate([r[0] for r in results], weights, config)
            if privacy.mode is PrivacyMode.VARIABLE:
                rng = noise_rng(privacy.seed, SERVER_STREAM_ID, s, 0)
                Y_next = perturb_variable(Y_next, privacy.sigma, rng)
            if not np.isfinite(Y_next).all():
                raise NumericalAbort(f"non-finite landmarks after round {s}")
            if float(np.linalg.norm(Y_next)) > norm_cap:
                raise NumericalAbort(
                    f"landmark norm exceeded divergence threshold after round {s}: "
                    f"step size {eta} too large"
                )
            Y = Y_next
            rows_e[(s - 1) * Q : s * Q] = (time.perf_counter() - t0) * 1e3
    finally:
        if pool is not None:
            pool.shutdown()

    trace = RoundTrace(
        round_idx=rows_s,
        local_step=rows_t,
        objective=rows_f,
        displacement_sq=rows_d,
        elapsed_ms=rows_e,
    )
    return FedResult(
        landmarks=Y, trace=trace, initial_landmarks=Y0, gradient_sigmas=grad_sigmas
    )


def convergence_diagnostic(trace: RoundTrace) -> float:
    """Mean squared per-step displacement of the averaged iterate.

    The quantity driven to zero by the convergence analysis:
    ``(1/(S Q)) sum_s sum_t ||Y^{s,t} - Y^{s,t-1}||_F^2``.
    """
    return float(np.mean(trace.displacement_sq))
