"""Federated landmark learning by distributed MMD minimisation.

A server keeps a landmark matrix ``Y`` (``m x n_y``, columns are
landmarks), initialised by ``init_landmarks`` from what the clients
disclose before training.  Each round it broadcasts ``Y``; every client
runs ``Q`` gradient-descent steps on the MMD between its shard and ``Y``
(``local_update``) and sends back either its updated landmarks or its
gradient; the server aggregates with weights ``w_p = n_p / n_x`` and
proceeds to the next round.

Client updates within a round are independent and may run on a thread
pool; aggregation reduces contributions in fixed client order, so the
result is identical for any worker count.

The per-round trace logs, for every local step ``t`` of round ``s``, the
weighted-average iterate ``Y^{s,t} = sum_p w_p Y_p^{s,t}``: the global
objective ``F = sum_p w_p mmd(X_p, Y^{s,t})``, the squared displacement
``||Y^{s,t} - Y^{s,t-1}||_F^2`` (whose mean is the convergence
diagnostic), and wall-clock time per round.

The kernel blocks of one round are shared where the arithmetic allows:
every client's local step 1 starts from the broadcast, so the landmark
side of the gradient (``K_YY``, its term and the landmarks' right
operand) is computed once per round and is what ``local_update``
receives as the broadcast.  Each shard's left operand
(``kernels._operands``) is built once per ``run_feddl`` and dropped when
it returns.
Under landmark averaging without variable-mode noise the step-``Q``
average *is* the next broadcast, so the objective of row ``(s, Q)`` is
filled in during round ``s + 1`` from the clients' step-1 totals
``1' K_XY 1`` and that round's ``1' K_YY 1``, with the same arithmetic
as a direct evaluation; the last round, the other steps and the other
modes evaluate it directly.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalAbort, overflow_aborts
from .kernels import (
    KernelParams,
    _cross_term,
    _gaussian_block,
    _landmark_side,
    _LandmarkSide,
    _mmd_gradient_core,
    _operands,
    _self_term,
    mmd_gradient,  # not called here; bench/tracer.py wraps this module's name
)
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
    stream_rng,
)

__all__ = [
    "Aggregation",
    "LandmarkInit",
    "FedConfig",
    "ClientShard",
    "RoundTrace",
    "FedResult",
    "init_landmarks",
    "local_update",
    "aggregate",
    "run_feddl",
    "perturb_shards",
    "convergence_diagnostic",
]


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


def init_landmarks(shards: Sequence[ClientShard], config: FedConfig) -> np.ndarray:
    """Server-side landmark initialisation (``m x n_landmarks``).

    The server knows the feature dimension, which every shard must
    share, and each client's point count.  ``gaussian_scaled`` draws
    i.i.d. standard normal entries times ``init_scale``.  ``seed_sample``
    has every client disclose its per-feature means and variances, which
    deliberately leaks first and second moments of each shard to the
    server; it pools them into a diagonal Gaussian (population pooling,
    weighted by shard size) and samples landmarks from it, so shards
    that all sit on one constant point reproduce that point exactly.
    Landmarks that overflow float64 (moments of finite but huge data, or
    a huge ``init_scale``) raise ``NumericalAbort``.
    """
    if not shards:
        raise ValueError("at least one client shard is required")
    m = shards[0].data.shape[0]
    for s in shards:
        if s.data.shape[0] != m:
            raise ValueError(
                f"client {s.client_id}: feature dim {s.data.shape[0]} != {m} of client "
                f"{shards[0].client_id}"
            )
    rng = stream_rng(config.seed, "landmark_init")
    n_y = config.n_landmarks
    if config.init is LandmarkInit.GAUSSIAN_SCALED:
        Y0 = config.init_scale * rng.normal(0.0, 1.0, size=(m, n_y))
    else:
        w = np.array([s.n_points for s in shards], dtype=np.float64)
        w /= w.sum()
        # Moments of finite but huge data overflow; the landmarks drawn
        # from them are rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            means = np.stack([s.data.mean(axis=1) for s in shards])
            variances = np.stack([s.data.var(axis=1) for s in shards])
            mu = w @ means
            ex2 = w @ (variances + means**2)
            var = np.maximum(ex2 - mu**2, 0.0)
            Y0 = mu[:, None] + np.sqrt(var)[:, None] * rng.normal(0.0, 1.0, size=(m, n_y))
    if not np.isfinite(Y0).all():
        raise NumericalAbort(f"{config.init.value} initial landmarks overflow float64")
    return Y0


def _exceeds(Y: np.ndarray, norm_cap: float) -> bool:
    """``||Y||_F > norm_cap``; a norm that overflows float64 exceeds any cap."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(Y)) > norm_cap


def local_update(
    shard: ClientShard,
    broadcast: _LandmarkSide,
    *,
    step_size: float,
    local_steps: int,
    kernel_params: KernelParams,
    final_noise: Callable[[np.ndarray], np.ndarray] | None = None,
    noise_setting: str = "final_noise",
    norm_cap: float | None = None,
    left: np.ndarray | None = None,
) -> tuple[np.ndarray, list[np.ndarray], float]:
    """Run ``local_steps`` gradient-descent steps on ``mmd(shard.data, Y)``
    from the broadcast landmarks ``Y = broadcast.Y``.

    ``broadcast`` is the landmark side of the gradient at ``Y``
    (``kernels._landmark_side``), which every client of a round shares;
    ``left`` is the shard's left operand (``kernels._operands``), built
    here when omitted.  Nothing is checked here: the shard checked its
    data when it was built, and ``Y`` is the server's.

    Returns the final landmark iterate, the list of iterates after each
    step, and ``1' K_XY 1`` of step 1 (the cross-block total of
    ``mmd(shard.data, Y)``).  ``final_noise`` perturbs the last step's
    gradient before it is applied; ``norm_cap`` triggers a divergence
    abort when an iterate's Frobenius norm exceeds it, which names the
    step size as the cause or, at the noised step, ``noise_setting``.
    """
    g = kernel_params.gamma
    if left is None:
        left = _operands(shard.data.T)[0]
    Yp = broadcast.Y
    iterates: list[np.ndarray] = []
    for t in range(1, local_steps + 1):
        side = broadcast if t == 1 else _landmark_side(Yp, g)
        grad, Kxy = _mmd_gradient_core(shard.data, left, side, g)
        if t == 1:
            cross_sum = float(Kxy.sum())
        side = Kxy = None  # neither is held while the next step builds its own
        if t == local_steps and final_noise is not None:
            grad = final_noise(grad)
        if not np.isfinite(grad).all():
            raise NumericalAbort(f"non-finite gradient at local step {t}")
        Yp = Yp - step_size * grad
        iterates.append(Yp)
        if norm_cap is not None and _exceeds(Yp, norm_cap):
            noised = t == local_steps and final_noise is not None
            cause = f"privacy noise ({noise_setting})" if noised else f"step size {step_size}"
            raise NumericalAbort(
                f"landmark norm exceeded divergence threshold at local step {t}: "
                f"{cause} too large"
            )
    return Yp, iterates, cross_sum


def _noise_setting(privacy: PrivacySpec) -> str:
    """The ``[privacy]`` setting that scales the noise of a noised run."""
    if privacy.mode is PrivacyMode.GRADIENT and privacy.epsilon is not None:
        return f"[privacy] epsilon = {privacy.epsilon}, delta = {privacy.delta}"
    if privacy.mode is PrivacyMode.GRADIENT:
        return f"[privacy] beta = {privacy.beta}"
    return f"[privacy] sigma = {privacy.sigma}"


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
    gradient_sigmas: tuple[float, ...] | None = None


def perturb_shards(shards: Sequence[ClientShard], spec: PrivacySpec) -> list[ClientShard]:
    """One-shot data perturbation, applied before any optimisation.

    Each client adds ``N(0, sigma^2)`` noise to its shard from its own
    ``data_noise`` stream, at its client id.  A no-op for other modes.
    Noise that overflows float64 raises ``NumericalAbort``.
    """
    if spec.mode is not PrivacyMode.DATA:
        return list(shards)
    out = []
    for s in shards:
        rng = stream_rng(spec.seed, "data_noise", s.client_id)
        with np.errstate(over="ignore"):  # reported below, naming the client
            data = perturb_data(s.data, spec.sigma, rng)
        if not np.isfinite(data).all():
            raise NumericalAbort(f"client {s.client_id}: data-mode noise overflows float64")
        out.append(
            ClientShard(client_id=s.client_id, data=data, weight=s.weight, indices=s.indices)
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
        sigma = gaussian_sigma_for_dp(spec.epsilon, spec.delta, config.rounds, d)
        if not np.isfinite(sigma):
            raise NumericalAbort(f"gradient noise scale overflows float64 ({_noise_setting(spec)})")
        sigmas.append(sigma)
    return tuple(sigmas)


def run_feddl(
    shards: Sequence[ClientShard],
    config: FedConfig,
    kernel_params: KernelParams,
    privacy: PrivacySpec | None = None,
    Y0: np.ndarray | None = None,
) -> FedResult:
    """Run the full federated optimisation loop.

    ``Y0`` overrides ``init_landmarks(shards, config)``.  Gradient-mode
    privacy perturbs only what leaves each client: the final local step's
    gradient under landmark averaging, or the uploaded gradient under
    gradient averaging.  Variable-mode privacy perturbs the aggregated
    landmarks before each broadcast.  ``NumericalAbort`` is raised for
    client data whose squared distances overflow float64, for landmarks
    whose norm or kernel block overflows, and for initial landmarks that
    see no data (every round-1 cross block is exactly 0).
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
        Y0 = init_landmarks(shards, config)
    Y0 = np.asarray(Y0, dtype=np.float64)
    for s in shards:
        if s.data.shape[0] != Y0.shape[0]:
            raise ValueError(
                f"client {s.client_id}: feature dim {s.data.shape[0]} != landmark dim "
                f"{Y0.shape[0]}"
            )
    with overflow_aborts("initial landmarks: norm overflows float64"):
        norm_cap = 1e6 * max(float(np.linalg.norm(Y0)), 1.0)

    g = kernel_params.gamma
    n_y = Y0.shape[1]
    grad_sigmas = _resolve_gradient_sigmas(shards, privacy, config, kernel_params)
    # Objective bookkeeping: the shard self-term of the MMD does not
    # depend on Y, so it is computed once per client.  It is the one place
    # the fit pairs data points with each other, so data whose squared
    # distances overflow float64 abort here; the overflow is raised rather
    # than looked for in the result, because the Gram expansion clamps an
    # overflowing ``2 x.y`` to a distance of 0.  Each shard's left operand
    # serves all its blocks of the run; the right one only this block.
    lefts, self_terms = [], []
    for s in shards:
        with overflow_aborts(f"client {s.client_id}: MMD self-term overflows float64"):
            left, right = _operands(s.data.T)
            K = _gaussian_block(left, right, g, same=True)
            self_terms.append(_self_term(float(K.sum()), s.n_points))
        lefts.append(left)
    del K, left, right  # the last self-term block is not held through the fit
    const_x = sum(w * v for w, v in zip(weights, self_terms))

    def objective(cross_sums: Sequence[float], k_yy: float) -> float:
        """``F`` from every client's ``1' K_XY 1`` and ``1' K_YY 1``."""
        cross = sum(
            w * _cross_term(k, s.n_points, n_y) for w, k, s in zip(weights, cross_sums, shards)
        )
        return const_x + cross + _self_term(k_yy, n_y) * float(np.sum(weights))

    def objective_at(Y: np.ndarray) -> float:
        """``F`` at ``Y``: every cross block shares ``Y``'s right operand."""
        left_y, right_y = _operands(Y.T)
        cross_sums = [float(_gaussian_block(left, right_y, g).sum()) for left in lefts]
        return objective(cross_sums, float(_gaussian_block(left_y, right_y, g, same=True).sum()))

    S, Q, eta = config.rounds, config.local_steps, config.step_size
    grad_agg = config.aggregation is Aggregation.AVERAGE_GRADIENTS
    gradient_noise = privacy.mode is PrivacyMode.GRADIENT
    # Under landmark averaging with no server noise the step-Q average is
    # the next broadcast bit for bit, so its objective is taken from the
    # next round's step-1 blocks instead of being evaluated twice.
    defer_step_q = not grad_agg and privacy.mode is not PrivacyMode.VARIABLE

    noise_setting = _noise_setting(privacy)  # named when noise breaks the norm cap

    def noised_gradient(g: np.ndarray, pos: int, s: int, t: int) -> np.ndarray:
        """Client ``pos``'s gradient-mode noise on ``g`` (round ``s``, stream step ``t``)."""
        rng = noise_rng(privacy.seed, shards[pos].client_id, s, t)
        if grad_sigmas is not None:
            return _add_noise(g, grad_sigmas[pos], rng)
        return perturb_gradient(g, privacy.beta, rng)

    def client_round(pos: int, s: int, broadcast: _LandmarkSide):
        shard = shards[pos]
        final_noise = None
        if gradient_noise and not grad_agg:
            # Only the final local step's gradient shapes what is uploaded.
            final_noise = partial(noised_gradient, pos=pos, s=s, t=Q)
        Yp, iterates, cross_sum = local_update(
            shard,
            broadcast,
            step_size=eta,
            local_steps=Q,
            kernel_params=kernel_params,
            final_noise=final_noise,
            noise_setting=noise_setting,
            norm_cap=norm_cap,
            left=lefts[pos],
        )
        upload = None
        if grad_agg:
            upload = _mmd_gradient_core(shard.data, lefts[pos], _landmark_side(Yp, g), g)[0]
            if gradient_noise:
                upload = noised_gradient(upload, pos, s, Q + 1)
        return Yp, iterates, upload, cross_sum

    P = len(shards)
    rows_s = np.empty(S * Q, dtype=np.int64)
    rows_t = np.empty(S * Q, dtype=np.int64)
    rows_f = np.empty(S * Q)
    rows_d = np.empty(S * Q)
    rows_e = np.empty(S * Q)

    Y = Y0
    deferred_row = None
    pool = ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    try:
        for s in range(1, S + 1):
            t0 = time.perf_counter()
            # One landmark side per round: every client's step 1 starts
            # from the broadcast.  Its overflow is raised, as the clients'
            # self-terms are.
            with overflow_aborts(f"landmarks of round {s}: MMD self-term overflows float64"):
                broadcast = _landmark_side(Y, g, with_sum=True)
            if pool is not None:
                results = pool.map(lambda pos: client_round(pos, s, broadcast), range(P))
            else:
                results = (client_round(pos, s, broadcast) for pos in range(P))
            # Each client's step-t iterate is folded into the running
            # average of step t as it arrives, in client order (the
            # accumulation of ``_weighted_sum``), and is then dropped; what
            # the server aggregates is kept.
            virtuals: list[np.ndarray] = []
            kept, cross_sums = [], []
            for pos, (Yp, iterates, upload, cross_sum) in enumerate(results):
                if pos == 0:
                    virtuals = [weights[0] * Yt for Yt in iterates]
                else:
                    for acc, Yt in zip(virtuals, iterates):
                        acc += weights[pos] * Yt
                kept.append(upload if grad_agg else Yp)
                cross_sums.append(cross_sum)
            if s == 1 and not any(cross_sums):
                raise NumericalAbort(
                    f"the initial landmarks see no data: every client's kernel block with "
                    f"them is 0 at gamma = {g:g}; lower [kernel] gamma or use "
                    f"[federation] init = seed_sample"
                )
            if deferred_row is not None:
                rows_f[deferred_row] = objective(cross_sums, broadcast.k_sum)
                deferred_row = None

            # The weighted-average iterate at every local step (the step-Q
            # average coincides bit-for-bit with landmark aggregation).
            prev_virtual = Y
            for t, virtual in enumerate(virtuals, start=1):
                row = (s - 1) * Q + (t - 1)
                rows_s[row] = s
                rows_t[row] = t
                if defer_step_q and t == Q and s < S:
                    deferred_row = row
                else:
                    rows_f[row] = objective_at(virtual)
                rows_d[row] = float(np.linalg.norm(virtual - prev_virtual) ** 2)
                prev_virtual = virtual

            if grad_agg:
                Y_next = aggregate(kept, weights, config, Y_prev=Y)
            else:
                Y_next = aggregate(kept, weights, config)
            if privacy.mode is PrivacyMode.VARIABLE:
                rng = noise_rng(privacy.seed, SERVER_STREAM_ID, s, 0)
                Y_next = perturb_variable(Y_next, privacy.sigma, rng)
            if not np.isfinite(Y_next).all():
                raise NumericalAbort(f"non-finite landmarks after round {s}")
            if _exceeds(Y_next, norm_cap):
                # noise on the landmarks or on the uploaded gradients
                noised = privacy.mode is PrivacyMode.VARIABLE or (gradient_noise and grad_agg)
                cause = f"privacy noise ({noise_setting})" if noised else f"step size {eta}"
                raise NumericalAbort(
                    f"landmark norm exceeded divergence threshold after round {s}: "
                    f"{cause} too large"
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
    return FedResult(landmarks=Y, trace=trace, gradient_sigmas=grad_sigmas)


def convergence_diagnostic(trace: RoundTrace) -> float:
    """Mean squared per-step displacement of the averaged iterate.

    The quantity driven to zero by the convergence analysis:
    ``(1/(S Q)) sum_s sum_t ||Y^{s,t} - Y^{s,t-1}||_F^2``; nan for a
    trace of no steps (``rounds = 0``).
    """
    steps = trace.displacement_sq
    return float(np.mean(steps)) if steps.size else float("nan")
