"""Variational loading of a target histogram into the walker.

The trainable object is the six-angle split-step parameter set. Training
minimises the mean squared error between the target histogram and the
position distribution after a fixed number of steps, with optional
random restarts. The one optimiser, "adjoint-bfgs", is a BFGS written
here in plain numpy on exact gradients from one adjoint sweep back
through the steps, so its path does not depend on the installed SciPy.
Everything is seeded and exact (probabilities, not shot counts), so a
given configuration always reproduces the same result.

objective() and train run every walk as a ``_ScoredWalk``: a
``walk._Walker`` built for one start, step count and target, and scored
against the target on the window it stepped, which for a localized start
is a light cone of the start alone: outside it the walk's probabilities
are exact zeros, so each bin there costs q^2, and the MSE equals that of
the M-site distribution bit for bit. Each walk is scored in its own score
row, (B, n) float64 built once with the walk and holding q^2 in every
bin: a call overwrites only the cone's bins with (p - q)^2 and takes the
mean of the row, the same reduce of the same values as a row built anew,
so the values keep their bits. A value and a value-and-gradient
call step the same window, the start's cone of the walk's steps. A
value's walk keeps no record; the gradient's is recorded: its forward
pass records the states that enter its coins and its adjoint sweep runs
back on that window from them, so its gradients equal those of the same
formula on the whole ring bit for bit. Only the results a caller gets
back as M-site arrays are built on the whole ring: evolve's state, and
train's ``trained_dist``, the cone probabilities its rounds walked at the
best point, scattered onto the ring.

The process keeps two walks between calls, each in a slot of its own that
a call empties while it runs, so that a nested or concurrent call builds
its own. objective() keeps its one-row scored walk, for the last start,
step count and target it was called with (see objective), so a solver's
repeated calls build neither the walk nor its row again. train() keeps
the recorded walk of its last fit's restarts (``_kept_recorded``), matched
by the inputs it is built from: the ring size, the start's arc and its
amplitudes on the cone, the steps and the rows. Its records take 32 (4t + 1) B w bytes
for t steps, B restarts and a w-site cone: 0.11 MB at the acceptance
config (16 bins, 7 steps, 8 restarts, 15 sites), and 0.37 MB with the
walk's coin entries, product buffers and accumulator terms. A fit builds
its own score row against its target.

The restarts are independent, so train() runs them as the rows of one
BFGS state. Each round evaluates every live restart's next point in one
batched value-and-gradient call, through the walk kernel and the adjoint
sweep together, and then updates all the rows at once by masks. Each row
of that call equals its own single call bit for bit, and the BFGS algebra
sums in one fixed order with no BLAS call (``_dots``), so results equal
running the restarts one after another, under every OpenBLAS kernel.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import asdict, dataclass, field

import numpy as np

from .statevector import WalkerState, _check_count, initial_state, position_distribution
from .target import TargetDistribution
from .walk import (
    TWO_PI,
    SsqwParams,
    WalkSchedule,
    _check_finite_angles,
    _coin_pair,
    _coin_stacks,
    _light_cone,
    _Walker,
)

# evolve stays importable as ssqw.optimize.evolve: benchmarks/spans.py
# hooks it by that name.
from .walk import evolve  # noqa: F401

RESULT_FORMAT_VERSION = 1

MSE_SUM_TOL = 1e-6

# The optimiser's name, echoed in every result's config and metadata.
OPTIMIZER_NAME = "adjoint-bfgs"

# Forward evaluations that one value-and-gradient call is charged against
# max_iters. One call on train's recorded walk measured 1.1-1.3 objective()
# calls at 4, 10 and 16 position qubits (one row, centre start, 7 steps,
# numpy 2.4, one pinned core of a 2-core Xeon), and the charge must not be
# below that. It stays 4: a new charge would change every result.
EVALS_PER_GRADIENT = 4

# Sufficient-decrease constant of the adjoint-bfgs line search.
_ARMIJO = 1e-4


def mse(p: np.ndarray, q: np.ndarray) -> float:
    """Mean squared error between two probability vectors of equal length."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    for name, v in (("first", p), ("second", q)):
        # A NaN sum, also inf - inf's (not warned about), fails "<= tol",
        # where it would pass "> tol".
        with np.errstate(invalid="ignore"):
            s = float(v.sum())
        if not abs(s - 1.0) <= MSE_SUM_TOL:
            raise ValueError(f"{name} vector sums to {s!r}, not 1 within {MSE_SUM_TOL}")
    d = p - q
    return float(np.mean(d * d))


class _ScoredWalk:
    """A ``walk._Walker`` of B = ``rows`` rows from ``init``, ``steps``
    steps long and recorded if ``record``, scored against ``target``: the
    walk of every objective value and gradient.

    Construction first checks that the start has one site per target bin,
    the one place that check is made. It then builds the walk, or takes
    ``walk``, one built from the same inputs (train()'s kept walk), and
    builds its score row: a C-contiguous (B, n) float64 array holding the
    target's q^2 in every row, kept with the walk, and the target's
    probabilities on the walk's cone, gathered once (``cone``). The start
    and the target are held by weak reference, so a kept walk keeps no
    caller's state alive, and each reference's death empties objective()'s
    slot if it holds this walk (``_forget``). A start and a target are
    frozen, with read-only arrays, so the walk and the row built for them
    stay theirs.
    """

    def __init__(
        self,
        init: WalkerState,
        steps: int,
        target: TargetDistribution,
        rows: int,
        record: bool,
        walk: _Walker | None = None,
    ) -> None:
        if init.num_positions != target.n_bins:
            raise ValueError(f"initial state has {init.num_positions} positions but target has {target.n_bins} bins")
        self.walk = _Walker(init, steps, rows, record) if walk is None else walk
        q = target.probs
        self.row = np.multiply(q, q, out=np.empty((rows, q.size)))
        self.cone = q[self.walk.sites]
        self.init, self.steps, self.target = weakref.ref(init, _forget), steps, weakref.ref(target, _forget)

    def values(self, coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The MSE against the target of the walk under each row's coin
        pair of a (B, 2, 2, 2) stack, scored in the score row.

        Returns the B values and the differences p - q of the walk's
        distributions from the target (B, w), on the w sites of the light
        cone it stepped, and keeps the distributions p as ``probs`` until
        the next call. Outside the cone every amplitude stays an exact
        zero, so p = 0 there and each squared difference is q^2 bit for
        bit: the row holds those, and each call overwrites the cone's sites
        with their (p - q)^2, the same sites on every call. So the values
        equal ``mse`` of each row's M-site distribution. The walk checked
        the amplitudes and their norm, and construction the grid; the check
        kept here is that of ``mse``, each row's probabilities summing to 1
        (the target's sum is checked when it is built).
        """
        run = self.walk.forward(coins)
        if not (np.abs(run.norms - 1.0) <= MSE_SUM_TOL).all():
            raise ValueError(f"walk distributions sum to {run.norms.tolist()!r}, not 1 within {MSE_SUM_TOL}")
        self.probs = run.probs
        d = run.probs - self.cone
        self.row[:, run.sites] = d * d
        # np.mean's two operations, without its Python-level wrapper.
        return np.add.reduce(self.row, axis=-1) / self.row.shape[1], d

    def values_and_gradients(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_mse_and_gradient`` at the B rows of ``angles``, on a recorded
        walk.

        The B sets run as one batch: the walk's forward pass is scored by
        ``values``, which gives each objective()'s value and checks bit for
        bit, on the same light cone that objective() steps. One adjoint
        sweep back through the steps (Jones & Gacon, arXiv:2009.02823),
        seeded with lambda = (2/n)(p - q) psi, where p is the walk's
        distribution, q the target and n the number of bins, gives the
        gradients on that cone from the states the forward pass recorded
        (see ``walk``). A row's gradient equals that of a one-row call, and
        that of the same formula on the whole ring, bit for bit.

        A non-finite angle raises the ValueError that ``CoinParams`` raises.
        """
        _check_finite_angles(angles)
        b = len(angles)
        # Each row's coin1, then its coin2, as the rows of one (2B, 3) array.
        coins, dcoins = _coin_stacks(angles.reshape(2 * b, 3))
        values, d = self.values(coins.reshape(b, 2, 2, 2))
        # (row, coin, 1, 2, 2) accumulators against (row, coin, angle, 2, 2) derivatives.
        g = self.walk.sweep((2.0 / self.row.shape[1]) * d).swapaxes(0, 1)[:, :, None]
        grad = 2.0 * np.add.reduce(dcoins.reshape(b, 2, 3, 2, 2) * g, axis=(3, 4)).real
        return values, grad.reshape(b, 6)


# The one walk objective() keeps between calls: empty, or a list of one
# _ScoredWalk. A call pops it, an atomic list operation, and puts one back
# only when it returns a value.
_kept: list[_ScoredWalk] = []


def _forget(ref: weakref.ref) -> None:
    """Empty objective()'s slot when ``ref``, the dead start or target of
    a ``_ScoredWalk``, is one of the kept walk's references. A call that
    puts its walk back in between loses it, which costs the next call a
    build and no bit of its value."""
    if any(ref is kept.init or ref is kept.target for kept in _kept[:]):
        _kept.clear()


def objective(
    params: SsqwParams,
    target: TargetDistribution,
    schedule: WalkSchedule,
    init: WalkerState,
) -> float:
    """MSE between the target and the walk's position distribution.

    Equals ``mse(target.probs, position_distribution(evolve(init, params,
    schedule)))`` bit for bit, with the same checks, but a localized start
    is stepped and scored on its light cone alone (``_ScoredWalk``), so no
    M-site state is built. Evaluating twice gives bitwise equal results.

    A variational solver calls it again and again on one start, schedule
    and target, so it keeps one unrecorded one-row ``_ScoredWalk``, a walk
    and its score row, for the last ``(init, steps, target)`` it was called
    with, matched by identity and held by weak reference, so a caller's
    state is never kept alive, and dropped once the start or the target is
    gone. A call writes the start into the walk and the cone's squared
    differences into the row before it reads either, so a kept walk gives
    the bits of a new one. A call takes the walk out while it runs and puts
    it back only once it has its value: a nested, concurrent or failed call
    builds its own.
    """
    steps = schedule.steps
    try:
        kept = _kept.pop()
    except IndexError:
        kept = None
    if kept is None or kept.init() is not init or kept.steps != steps or kept.target() is not target:
        kept = _ScoredWalk(init, steps, target, 1, record=False)
    value = float(kept.values(_coin_pair(params))[0][0])
    _kept[:] = (kept,)
    return value


# The one recorded walk train() keeps between calls: empty, or a list of
# one (key, _Walker) pair (``_walk_key``). A call pops it, an atomic list
# operation, and puts back the walk it started its rounds on only when
# they are done, so a nested, concurrent or failed call builds its own.
_kept_recorded: list[tuple[tuple, _Walker]] = []


def _walk_key(init: WalkerState, steps: int, rows: int) -> tuple:
    """What a walk of ``rows`` rows and ``steps`` steps from ``init`` is
    built from, but the start's amplitudes: the ring size, the start's
    arc, which with the ring size and the steps sets the cone, the steps
    and the rows. It holds no array."""
    return init.num_positions, init._arc, steps, rows


def _take_recorded(init: WalkerState, steps: int, rows: int) -> _Walker | None:
    """train()'s kept recorded walk, taken out of its slot, if it was built
    from what a walk of ``rows`` rows and ``steps`` steps from ``init`` is
    built from: the same ``_walk_key`` and the same start amplitudes on
    its cone, compared bit for bit. Else None, and the slot stays empty.

    Those amplitudes are what the walk copies into its first slot, so a
    walk that matches steps exactly as a new one would, and its buffers
    are written before they are read, so it gives the bits of a new one.
    """
    try:
        key, walk = _kept_recorded.pop()
    except IndexError:
        return None
    if key == _walk_key(init, steps, rows) and init.amps[:, walk.sites].tobytes() == walk.start.tobytes():
        return walk
    return None


def _mse_and_gradient(
    angles: np.ndarray,
    target: TargetDistribution,
    schedule: WalkSchedule,
    init: WalkerState,
) -> tuple[np.ndarray, np.ndarray]:
    """objective() and its exact gradient by the six angles, in
    ``SsqwParams.to_array`` order, at each row of a (B, 6) float64 angle
    array: B values and a (B, 6) array of gradients, from one call on a
    new recorded ``_ScoredWalk``; train() calls ``values_and_gradients``
    on one of its own, round after round."""
    return _ScoredWalk(init, schedule.steps, target, len(angles), record=True).values_and_gradients(angles)


def _reach_floor(
    target: TargetDistribution, init: WalkerState, schedule: WalkSchedule
) -> tuple[float, float]:
    """The target mass u outside the walk's light cone and the MSE floor
    it sets.

    A bin outside the cone keeps p_i = 0 and costs q_i^2. The r bins
    inside carry all of the walker's unit mass against target mass 1 - u,
    so by Cauchy-Schwarz their squared errors sum to at least u^2 / r. The
    floor is (sum of q_i^2 outside + u^2 / r) / n_bins.
    """
    n = target.n_bins
    cone = _light_cone(init, schedule.steps)
    outside = np.ones(n, dtype=bool)
    outside[cone] = False
    q = target.probs[outside]
    u = math.fsum(q)
    return u, (math.fsum(q * q) + u * u / cone.size) / n


def _free_angles(symmetric: bool) -> np.ndarray | slice:
    """Indices, in ``SsqwParams.to_array`` order, of the angles train()
    optimises: all six, as a slice, so that a row is read and written
    without fancy indexing, or the two thetas in symmetric mode."""
    return np.array([0, 3]) if symmetric else slice(None)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for train().

    max_iters bounds the forward evaluations charged to each restart: one
    per objective value, EVALS_PER_GRADIENT per value-and-gradient call.
    initial_trust_radius is the longest step one line search may take and
    final_trust_radius the shortest trial step it tries before the restart
    stops. Restart 0 starts from initial_params; further restarts draw all
    free angles uniformly from [0, 2*pi) using the seed. symmetric_mode
    optimises only the two thetas, pins the four phase angles to zero (so
    initial_params with a non-zero phase is refused), and (unless an
    explicit initial state is supplied) starts the walker in the
    balanced coin state (|up> + i |down>)/sqrt(2), which makes every
    reachable distribution symmetric about the start site.
    """

    max_iters: int = 800
    initial_params: SsqwParams = field(default_factory=SsqwParams.balanced)
    steps: WalkSchedule = field(default_factory=lambda: WalkSchedule(7))
    initial_trust_radius: float = 0.5
    final_trust_radius: float = 1e-6
    symmetric_mode: bool = False
    restarts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_iters", "restarts"):
            _check_count(getattr(self, name), name)
        _check_count(self.seed, "seed", least=0)
        if not (0.0 < self.final_trust_radius < self.initial_trust_radius < math.inf):
            raise ValueError(
                "need 0 < final_trust_radius < initial_trust_radius, both finite, got "
                f"{self.final_trust_radius!r} and {self.initial_trust_radius!r}"
            )
        if self.symmetric_mode:
            # Symmetric mode fits the thetas alone, with every phase at zero,
            # so a non-zero starting phase would be recorded but never used.
            coins = (self.initial_params.coin1, self.initial_params.coin2)
            set_phases = [
                f"{a}{k}={getattr(c, a)!r}"
                for k, c in enumerate(coins, 1)
                for a in ("phi", "lam")
                if getattr(c, a) != 0.0
            ]
            if set_phases:
                raise ValueError(f"symmetric_mode ties every phase to zero, got {', '.join(set_phases)}")


@dataclass
class TrainingResult:
    best_params: SsqwParams
    best_mse: float
    mse_history: list[float]
    trained_dist: np.ndarray
    iterations_used: int
    config: OptimizerConfig
    metadata: dict


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's a.b over the last axis: for (B, k) arrays a value a row,
    for (B, k, k) h and (B, 1, k) v each row's h v. np.add.reduce sums
    each row as it sums that row alone, and makes no BLAS call."""
    return np.add.reduce(a * b, axis=-1)


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


def _restart_starts(seed: int, count: int, size: int) -> list[np.ndarray]:
    """The start points of restarts 1 to ``count`` - 1, ``size`` angles
    each: restart r takes the next ``size`` draws of ``TWO_PI *
    rng.random()``, in restart order, from one ``random.Random(seed)``.

    Python documents that its Mersenne Twister (``random.Random``) repeats
    the ``random()`` sequence for a given seed across releases. numpy's own
    import already loads ``random``, so the draws cost no import, where
    numpy's random module costs 15-18 ms in a new process.
    """
    rng = random.Random(seed)
    return [np.array([TWO_PI * rng.random() for _ in range(size)]) for _ in range(count - 1)]


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

    Each restart runs BFGS on exact gradients with Armijo backtracking. Its
    first direction is minus the gradient; later ones come from the
    inverse-Hessian estimate, scaled at its first update by s.y / y.y. No
    step is longer than ``initial_trust_radius``, and each trial halves the
    step until it decreases the MSE enough. The metadata's
    ``stop_reasons`` names why each restart stopped, tested in this order:
    "no-descent" when its direction is not one of descent, "short-step"
    when a trial step would be shorter than ``final_trust_radius``, and
    "budget" when the next value-and-gradient call would take it past
    ``max_iters``; or "exact" for a restart that reached an MSE of exactly
    0, after which no further restart counts. ``evals_per_restart`` gives
    the evaluations charged to each: ``EVALS_PER_GRADIENT`` a point, except
    that a budget below that buys the start's value alone, charged 1.

    The restarts run in lockstep, one batched value-and-gradient call per
    round on one recorded walk, rebuilt with the live rows alone when they
    fall to half its rows or fewer; restarts after an exact hit are
    computed and then discarded. The result equals that of running them
    one after another. The first walk is the one the last fit kept, if it
    was built from the same inputs, and is kept for the next fit.
    ``trained_dist`` is the walk's distribution at the best point, taken
    from the round that walked it: each restart's cone probabilities at its
    lowest value so far are kept as the rounds go.
    """
    if config is None:
        config = OptimizerConfig()
    n_bins = target.n_bins
    if init is None:
        init, coin_init = _start_state(n_bins, config.symmetric_mode)
    else:
        coin_init = "custom"

    free = _free_angles(config.symmetric_mode)
    x_init = config.initial_params.to_array()[free]
    # Row r of every array is restart r's: point x, value f, gradient g,
    # direction d with its slope g.d and length, trial step t, the
    # inverse-Hessian estimate h it holds once "curved", next point p, and
    # the round it stopped in and why ("budget" unless another test says
    # otherwise). f starts at inf, so that every start is accepted.
    x = np.array([x_init, *_restart_starts(config.seed, config.restarts, x_init.size)])
    b, k = x.shape
    p, f, g, d = x.copy(), np.full(b, math.inf), np.zeros((b, k)), np.zeros((b, k))
    slope, norm, t = np.zeros(b), np.zeros(b), np.ones(b)
    h, curved, eye = np.zeros((b, k, k)), np.zeros(b, dtype=bool), np.eye(k)
    # Once every row is curved, no row takes a first update and none falls
    # back on -g, so both masked blocks below are skipped.
    all_curved = False
    live, last, reasons = np.ones(b, dtype=bool), np.zeros(b, dtype=int), np.full(b, "budget", dtype=object)
    radius, points, seen, f_new, g_new = config.initial_trust_radius, [], [], f, g.copy()

    # Walk row i is restart rows[i]'s. A stopped restart's row stays on its
    # last point, and its output is not read, until the live rows are half
    # of the rows or fewer: then the walk is rebuilt with those alone. The
    # first walk, of all b rows, is the kept one if it matches, and is kept
    # once the rounds are done; its scored walk checks a custom start's
    # grid before it takes or builds anything else.
    steps = config.steps.steps
    scored = _ScoredWalk(init, steps, target, b, record=True, walk=_take_recorded(init, steps, b))
    kept, sites = scored.walk, scored.walk.sites
    n_live, rows, angles = b, np.arange(b), np.zeros((b, 6))
    # Each restart's lowest value so far, where it first met it, and the
    # walk's probabilities on the cone there: trained_dist is the best
    # restart's row, so no walk is run again for it.
    low, low_probs = np.full(b, math.inf), np.zeros((b, sites.size))
    while n_live:
        if 2 * n_live <= rows.size:
            rows = live.nonzero()[0]
            scored = _ScoredWalk(init, steps, target, rows.size, record=True)
            angles = np.zeros((rows.size, 6))
        angles[:, free] = p[rows]
        values, grads = scored.values_and_gradients(angles)
        # A restart the walk no longer holds keeps its last, finite, f and g.
        f_new = f_new.copy()
        f_new[rows] = values
        g_new[rows] = grads[:, free]
        points.append(p)
        seen.append(f_new)
        # Every live restart is one of the walk's rows.
        lower = (live & (f_new < low))[rows]
        low[rows[lower]] = values[lower]
        low_probs[rows[lower]] = scored.probs[lower]
        if config.max_iters < EVALS_PER_GRADIENT:
            break  # the starts' values alone, each charged 1
        # Armijo: a live row accepts its trial point or halves its step.
        acc = live & (f_new <= f + _ARMIJO * t * slope)
        s, y = p - x, g_new - g
        sy = _dots(s, y)
        # The BFGS update V h V^T + rho s s^T, V = I - rho s y^T, rho = 1/s.y,
        # as h - rho (s u^T + u s^T) + (rho^2 y.u + rho) s s^T with u = h y, on
        # the accepting rows with s.y > 0; a first one sets h to (s.y/y.y) I.
        up = acc & (sy > 0.0)
        if not all_curved:
            first = up & ~curved
            if first.any():
                gamma = np.divide(sy, _dots(y, y), out=np.zeros(b), where=first)
                np.copyto(h, gamma[:, None, None] * eye, where=first[:, None, None])
                curved |= first
                all_curved = bool(curved.all())
        rho, u = np.divide(1.0, sy, out=np.zeros(b), where=up)[:, None, None], _dots(h, y[:, None])
        su, c = s[:, :, None] * u[:, None], rho * rho * _dots(y, u)[:, None, None] + rho
        np.copyto(h, h - rho * (su + su.transpose(0, 2, 1)) + c * (s[:, :, None] * s[:, None]), where=up[:, None, None])
        a = acc[:, None]
        np.copyto(x, p, where=a)
        np.copyto(f, f_new, where=acc)
        np.copyto(g, g_new, where=a)
        # An accepted row's new direction: -g until it is curved, then
        # -h g, clipped to the trust radius, with a trial step of 1.
        hg = _dots(h, g[:, None])
        if not all_curved:
            np.copyto(hg, g, where=~curved[:, None])
        d_new = -hg
        slope_new = _dots(g, d_new)
        norm_new = np.sqrt(_dots(d_new, d_new))
        scale = radius / np.maximum(norm_new, radius)
        np.copyto(d, d_new * scale[:, None], where=a)
        np.copyto(slope, slope_new * scale, where=acc)
        np.copyto(norm, np.minimum(norm_new, radius), where=acc)
        t *= 0.5
        t[acc] = 1.0
        # The stop tests: no descent, then a step too short, then the budget,
        # which every live row has spent alike, EVALS_PER_GRADIENT a round.
        no_descent = acc & ~(slope_new < 0.0)
        short = live & ~no_descent & (t * norm < config.final_trust_radius)
        stop = live if EVALS_PER_GRADIENT * (len(seen) + 1) > config.max_iters else no_descent | short
        if stop.any():
            reasons[no_descent] = "no-descent"
            reasons[short] = "short-step"
            last[stop] = len(seen) - 1
            live = live & ~stop
            n_live = int(np.count_nonzero(live))
        p = np.where(live[:, None], x + t[:, None] * d, p)
    _kept_recorded[:] = ((_walk_key(init, steps, b), kept),)

    # Everything below reads the restarts in order, as if each had run
    # alone after the one before it.
    seen = np.array(seen)
    charge = EVALS_PER_GRADIENT if config.max_iters >= EVALS_PER_GRADIENT else 1
    history, best_val, best_x, best_restart = [], math.inf, x_init, 0
    for r in range(b):
        values = seen[: last[r] + 1, r].tolist()
        history += values
        low = min(values)
        if low < best_val:
            best_val, best_x, best_restart = low, points[values.index(low)][r], r
        if best_val == 0.0:
            reasons[r] = "exact"
            break
    evals_per_restart = (charge * (last[: r + 1] + 1)).tolist()
    stop_reasons = reasons[: r + 1].tolist()

    best_angles = np.zeros(6)
    best_angles[free] = best_x
    best_params = SsqwParams.from_array(best_angles)
    trained = np.zeros(n_bins)
    trained[sites] = low_probs[best_restart]
    unreachable_mass, mse_floor = _reach_floor(target, init, config.steps)
    metadata = {
        "mode": "symmetric" if config.symmetric_mode else "full",
        "coin_init": coin_init,
        "start_site": int(np.argmax(position_distribution(init))),
        "unreachable_mass": unreachable_mass,
        "mse_floor": mse_floor,
        "optimizer": OPTIMIZER_NAME,
        "seed": config.seed,
        "rng": "python-random-mt19937",
        "restarts_run": len(evals_per_restart),
        "evals_per_restart": evals_per_restart,
        "evals_per_gradient": EVALS_PER_GRADIENT,
        "best_restart": best_restart,
        "stop_reasons": stop_reasons,
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


def training_result_json_dict(result: TrainingResult) -> dict:
    """Serialisable view of a result. Angles are wrapped to [0, 2*pi)."""
    cfg = result.config
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "best_params": asdict(result.best_params.wrapped()),
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
            "optimizer": OPTIMIZER_NAME,
            "initial_params": asdict(cfg.initial_params),
        },
        "metadata": result.metadata,
    }
