"""Variational loading of a target histogram into the walker.

The trainable object is the six-angle split-step parameter set. Training
minimises the mean squared error between the target histogram and the
position distribution after a fixed number of steps, using a local
derivative-free optimiser with optional random restarts. Everything is
seeded and exact (probabilities, not shot counts), so a given
configuration always reproduces the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as _sciopt

from .statevector import WalkerState, initial_state, position_distribution
from .target import TargetDistribution
from .walk import SsqwParams, WalkSchedule, evolve, wrap_angle

TWO_PI = 2.0 * math.pi

RESULT_FORMAT_VERSION = 1

MSE_SUM_TOL = 1e-6


def mse(p: np.ndarray, q: np.ndarray) -> float:
    """Mean squared error between two probability vectors of equal length."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    for name, v in (("first", p), ("second", q)):
        s = float(v.sum())
        if abs(s - 1.0) > MSE_SUM_TOL:
            raise ValueError(f"{name} vector sums to {s!r}, not 1 within {MSE_SUM_TOL}")
    d = p - q
    return float(np.mean(d * d))


def objective(
    params: SsqwParams,
    target: TargetDistribution,
    schedule: WalkSchedule,
    init: WalkerState,
) -> float:
    """MSE between the target and the walk's position distribution.

    Pure function of its arguments; evaluating twice gives bitwise equal
    results.
    """
    if init.num_positions != target.n_bins:
        raise ValueError(
            f"initial state has {init.num_positions} positions but target has {target.n_bins} bins"
        )
    final = evolve(init, params, schedule)
    return mse(target.probs, position_distribution(final))


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for train().

    max_iters bounds objective evaluations per restart. Restart 0 starts
    from initial_params; further restarts draw all free angles uniformly
    from [0, 2*pi) using the seed. symmetric_mode optimises only the two
    thetas, pins the four phase angles to zero, and (unless an explicit
    initial state is supplied) starts the walker in the balanced coin state
    (|up> + i |down>)/sqrt(2), which makes every reachable distribution
    symmetric about the start site.
    """

    max_iters: int = 800
    initial_params: SsqwParams = field(default_factory=SsqwParams.balanced)
    steps: WalkSchedule = field(default_factory=lambda: WalkSchedule(7))
    initial_trust_radius: float = 0.5
    final_trust_radius: float = 1e-6
    symmetric_mode: bool = False
    restarts: int = 1
    seed: int = 0
    optimizer: str = "cobyla"

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise ValueError(f"restarts must be a positive integer, got {self.restarts!r}")
        if not (0.0 < self.final_trust_radius < self.initial_trust_radius):
            raise ValueError(
                "need 0 < final_trust_radius < initial_trust_radius, got "
                f"{self.final_trust_radius!r} and {self.initial_trust_radius!r}"
            )
        if self.optimizer not in ("cobyla", "nelder-mead"):
            raise ValueError(f"optimizer must be 'cobyla' or 'nelder-mead', got {self.optimizer!r}")


@dataclass
class TrainingResult:
    best_params: SsqwParams
    best_mse: float
    mse_history: list[float]
    trained_dist: np.ndarray
    iterations_used: int
    config: OptimizerConfig
    metadata: dict


class _BudgetExhausted(Exception):
    pass


def _run_one_restart(f, x0: np.ndarray, config: OptimizerConfig) -> None:
    """Drive one local optimisation; results are captured by f's closure."""
    try:
        if config.optimizer == "cobyla":
            # COBYLA counts objective evaluations against maxiter itself, so
            # the budget guard inside f never fires on this path.
            _sciopt.minimize(
                f,
                x0,
                method="COBYLA",
                tol=config.final_trust_radius,
                options={"rhobeg": config.initial_trust_radius, "maxiter": config.max_iters},
            )
        else:
            _sciopt.minimize(
                f,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": config.max_iters,
                    "xatol": config.final_trust_radius,
                    "fatol": 1e-12,
                },
            )
    except _BudgetExhausted:
        pass


def _start_state(
    n_bins: int, symmetric: bool, x0: int | None = None, coin: str | None = None
) -> tuple[WalkerState, str]:
    """The walker's start state and the name of its coin.

    The walker sits at site ``x0`` (default: the centre) with coin "up" or
    "balanced", (|up> + i |down>)/sqrt(2) (default: balanced in symmetric
    mode, up otherwise).
    """
    if x0 is None:
        x0 = n_bins // 2
    if coin is None:
        coin = "balanced" if symmetric else "up"
    n_qubits = n_bins.bit_length() - 1
    if coin == "up":
        return initial_state(n_qubits, 1.0, 0.0, x0), coin
    r = 1.0 / math.sqrt(2.0)
    return initial_state(n_qubits, r, 1j * r, x0), coin


def train(
    target: TargetDistribution,
    config: OptimizerConfig | None = None,
    init: WalkerState | None = None,
) -> TrainingResult:
    """Fit split-step parameters to a target histogram.

    The walker ring size is taken from the target; the default initial
    state is coin-up at the centre site (balanced coin in symmetric mode).
    Returns the best parameters seen across all restarts together with the
    full evaluation history. Ties between restarts go to the earlier one.
    """
    if config is None:
        config = OptimizerConfig()
    n_bins = target.n_bins
    if init is None:
        init, coin_init = _start_state(n_bins, config.symmetric_mode)
    else:
        if init.num_positions != n_bins:
            raise ValueError(
                f"initial state has {init.num_positions} positions but target has {n_bins} bins"
            )
        coin_init = "custom"

    if config.symmetric_mode:
        nfree = 2
        p0 = config.initial_params
        x_init = np.array([p0.coin1.theta, p0.coin2.theta])

        def to_params(x: np.ndarray) -> SsqwParams:
            return SsqwParams.from_array([x[0], 0.0, 0.0, x[1], 0.0, 0.0])

    else:
        nfree = 6
        x_init = config.initial_params.to_array()

        def to_params(x: np.ndarray) -> SsqwParams:
            return SsqwParams.from_array(x)

    rng = np.random.default_rng(config.seed)
    starts = [x_init] + [rng.uniform(0.0, TWO_PI, nfree) for _ in range(config.restarts - 1)]

    history: list[float] = []
    evals_per_restart: list[int] = []
    best_val = math.inf
    best_x = x_init
    best_restart = 0

    for r_idx, x0 in enumerate(starts):
        evals_before = len(history)

        def f(x: np.ndarray) -> float:
            nonlocal best_val, best_x, best_restart
            if len(history) - evals_before >= config.max_iters:
                raise _BudgetExhausted
            v = objective(to_params(x), target, config.steps, init)
            history.append(v)
            if v < best_val:
                best_val = v
                best_x = np.array(x, dtype=np.float64)
                best_restart = r_idx
            return v

        _run_one_restart(f, np.asarray(x0, dtype=np.float64), config)
        evals_per_restart.append(len(history) - evals_before)
        if best_val == 0.0:
            break

    best_params = to_params(best_x)
    trained = position_distribution(evolve(init, best_params, config.steps))
    metadata = {
        "mode": "symmetric" if config.symmetric_mode else "full",
        "coin_init": coin_init,
        "start_site": int(np.argmax(position_distribution(init))),
        "optimizer": config.optimizer,
        "seed": config.seed,
        "rng": "numpy-default-pcg64",
        "restarts_run": len(evals_per_restart),
        "evals_per_restart": evals_per_restart,
        "best_restart": best_restart,
    }
    return TrainingResult(
        best_params=best_params,
        best_mse=best_val,
        mse_history=history,
        trained_dist=trained,
        iterations_used=len(history),
        config=config,
        metadata=metadata,
    )


def _coin_dict(theta: float, phi: float, lam: float) -> dict:
    return {"theta": wrap_angle(theta), "phi": wrap_angle(phi), "lam": wrap_angle(lam)}


def training_result_json_dict(result: TrainingResult) -> dict:
    """Serialisable view of a result. Angles are wrapped to [0, 2*pi)."""
    p = result.best_params
    cfg = result.config
    ip = cfg.initial_params
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "best_params": {
            "coin1": _coin_dict(p.coin1.theta, p.coin1.phi, p.coin1.lam),
            "coin2": _coin_dict(p.coin2.theta, p.coin2.phi, p.coin2.lam),
        },
        "best_mse": result.best_mse,
        "iterations_used": result.iterations_used,
        "n_bins": int(result.trained_dist.size),
        "trained_dist": [float(v) for v in result.trained_dist],
        "mse_history": [float(v) for v in result.mse_history],
        "config": {
            "max_iters": cfg.max_iters,
            "steps": cfg.steps.steps,
            "initial_trust_radius": cfg.initial_trust_radius,
            "final_trust_radius": cfg.final_trust_radius,
            "symmetric_mode": cfg.symmetric_mode,
            "restarts": cfg.restarts,
            "seed": cfg.seed,
            "optimizer": cfg.optimizer,
            "initial_params": {
                "coin1": {"theta": ip.coin1.theta, "phi": ip.coin1.phi, "lam": ip.coin1.lam},
                "coin2": {"theta": ip.coin2.theta, "phi": ip.coin2.phi, "lam": ip.coin2.lam},
            },
        },
        "metadata": result.metadata,
    }
