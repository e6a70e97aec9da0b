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
the M-site distribution bit for bit. A value and a value-and-gradient
call step the same window, the start's cone of the walk's steps. A
value's walk keeps no record; the gradient's is recorded: its forward
pass records the states that enter its coins and its adjoint sweep runs
back on that window from them, so its gradients equal those of the same
formula on the whole ring bit for bit. Only the results a caller gets
back as M-site arrays are built on the whole ring: evolve's state, and
train's ``trained_dist``, the cone probabilities its rounds walked at the
best point, scattered onto the ring.

A value is the correctly rounded sum of the M-bin row of squared
differences, by math.fsum, divided by M: fsum is exact before its one
rounding, so the value does not depend on the order of the terms, nor on
how numpy would sum them (Shewchuk, "Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates", DCG 18, 1997). So a
scored walk keeps the exact sum of the q^2 outside the cone as an
expansion, a few floats whose exact sum it is, and a call sums each row's
cone squares with that expansion by fsum: the value of the whole row, bit
for bit, from O(w) floats instead of M.

The process keeps one walk of each kind between calls, in ``_kept``:
objective()'s unrecorded one-row walk, and the recorded walk train()
started its last fit's restarts on. A call takes its kind's walk out
while it runs and puts one back when it is done, so a nested or
concurrent call builds its own, and takes it only if it was built from
the same inputs, matched by value: the ring size, the start's arc and
its amplitudes on the cone, the steps and the rows (``_take``). So a
fit's default start, a new object each fit, and a solver's repeated
calls build no walk again. A taken walk is aimed at the call's target,
which refills its target's probabilities on the cone and the outside
expansion unless the target is the one it was last aimed at. A recorded
walk's records take 32 (4t + 1) B w bytes for t steps, B restarts and a
w-site cone: 0.11 MB at the acceptance config (16 bins, 7 steps, 8
restarts, 15 sites), and 0.37 MB with the walk's coin entries, product
buffers and accumulator terms.

The restarts are independent, so train() runs them as the rows of one
BFGS state. Each round evaluates every live restart's next point in one
batched value-and-gradient call, through the walk kernel and the adjoint
sweep together, and then updates all the rows at once by masks. Each row
of that call equals its own single call bit for bit, and the BFGS algebra
sums in one fixed order with no BLAS call (``_dots``), so results equal
running the restarts one after another, under every OpenBLAS kernel.
Both fit modes run the same six-angle state: symmetric mode multiplies
each round's gradients by a fixed mask that is 0 at the four phases, so
they stay at +0.0. Each row's inverse-Hessian estimate starts as the
identity, and each restart's best point is kept as the rounds find it.

Each fit builds its arrays once, sized by the restarts B, the cone's w
sites and the six angles, never by its budget: the BFGS state and its
scratch, masks and views (``_Bfgs``); each restart's best value, point
and (B, w) cone probabilities, a (B, w) copy of each round's
probabilities and the masks that take them; and, with each recorded walk,
the sweep's seed views and its (2, 2, 2, B) accumulator buffer
(``walk._Walker``). A round writes into them with ``out=`` and masked
copies, the ufunc calls, operands and order of the formulas written with
temporaries, so every bit is theirs; what it allocates is the walk's
outputs and a copy of its values for the history, a list of one (B,) array
a round.
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
    _coin_pair,
    _coin_stacks,
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
    """Mean squared error between two probability vectors of equal length:
    the correctly rounded sum of the n squared differences (math.fsum),
    divided by n."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    for name, v in (("first", p), ("second", q)):
        if v.ndim != 1:
            raise ValueError(f"{name} vector must be 1-D, got shape {v.shape}")
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    for name, v in (("first", p), ("second", q)):
        # A NaN sum, also inf - inf's (not warned about), fails "<= tol",
        # where it would pass "> tol".
        with np.errstate(invalid="ignore"):
            s = float(v.sum())
        if not abs(s - 1.0) <= MSE_SUM_TOL:
            raise ValueError(f"{name} vector sums to {s!r}, not 1 within {MSE_SUM_TOL}")
    d = p - q
    return math.fsum(memoryview(d * d)) / d.size


def _outside(q: np.ndarray, cone: np.ndarray) -> np.ndarray:
    """The target probabilities ``q`` outside the ring indices ``cone``,
    but those that are 0: the terms of exact sums over the bins outside
    the cone, to which a 0 adds nothing, and few for a localized target."""
    keep = q != 0.0
    keep[cone] = False
    return q[keep]


# 1.0 in units of 2**-1074, the least subnormal: every finite float64 is a
# whole number of those units, so an exact sum of floats is an integer.
_SCALE = 1 << 1074


def _exact_sum(terms: np.ndarray) -> int:
    """The exact sum of the non-negative finite float64 ``terms``, a
    contiguous 1-D array, as a whole number of 2**-1074.

    A term's bits give it as an integer significand below 2**53 times 2**e
    units, e being its biased exponent less 1, or 0 for a subnormal. The
    significands are summed by exponent, each split into two halves of 27
    and 26 bits so that no int64 sum can overflow below 2**36 terms, and
    the sums of the exponents that occur are then shifted into one Python
    integer."""
    bits = terms.view(np.int64)
    biased, fraction = bits >> 52, bits & ((1 << 52) - 1)
    significand = np.where(biased > 0, fraction | (1 << 52), fraction)
    exponent = np.maximum(biased, 1) - 1
    sums = np.zeros((2, 2046), dtype=np.int64)
    np.add.at(sums[0], exponent, significand >> 26)
    np.add.at(sums[1], exponent, significand & ((1 << 26) - 1))
    used = np.flatnonzero(sums[0] | sums[1])
    high, low = sums[:, used].tolist()
    return sum(((h << 26) + lo) << e for e, h, lo in zip(used.tolist(), high, low))


class _ScoredWalk:
    """A ``walk._Walker`` of B = ``rows`` rows from ``init``, ``steps``
    steps long and recorded if ``record``, and what scores it against a
    target of n bins: the walk of every objective value and gradient.

    Construction checks the start, the one place it is checked: that it
    has one site per target bin, and, once the walk is built, that its
    squared norm is 1 within ``MSE_SUM_TOL``. Every call's walk keeps each
    row's norm within ``walk._checked``'s drift of the start's, so each
    value's distribution sums to 1 within ``MSE_SUM_TOL`` plus that drift,
    and no call checks the sum again. Last, it aims the walk at
    ``target`` (``aim``). ``key`` and ``start``, the walk's ``_walk_key``
    and the bytes of the start it copied, are what ``_take`` matches a
    kept walk by.
    """

    def __init__(self, init: WalkerState, steps: int, target: TargetDistribution, rows: int, record: bool) -> None:
        if init.num_positions != target.n_bins:
            raise ValueError(f"initial state has {init.num_positions} positions but target has {target.n_bins} bins")
        self.walk, self.key = _Walker(init, steps, rows, record), _walk_key(init, steps, rows)
        if not abs(self.walk.n0 - 1.0) <= MSE_SUM_TOL:
            raise ValueError(f"initial state's squared norm is {self.walk.n0!r}, not 1 within {MSE_SUM_TOL}")
        self.start = self.walk.start.tobytes()
        self.n, self.aimed = target.n_bins, None
        self.aim(target)

    def aim(self, target: TargetDistribution) -> None:
        """Fill what a score reads of ``target``, a target of n bins,
        unless it is the one the walk was last aimed at: its probabilities
        on the cone (``cone``), and ``outside``, an exact expansion of the
        sum of q^2 over the bins outside the cone. The terms are summed
        once, exactly, as an integer (``_exact_sum``); each part is then
        the remainder so far, correctly rounded by int / int, and taken
        off it, until it is 0. So each part is the rounded remainder of the
        ones before it, the parts that fsum of the terms, then fsum of the
        terms minus the parts so far, would give, and together they sum to
        the terms exactly. Where the cone covers the ring there are none;
        most targets need one or two, and a normal whose squared tails
        reach 5e-324 needs 20. The last target is held by a weak
        reference, so a walk keeps no caller's target alive, and a target
        is frozen, with a read-only array, so what was filled for it stays
        its own."""
        if self.aimed is not None and self.aimed() is target:
            return
        q, sites = target.probs, self.walk.sites
        self.cone = q[sites]
        out = _outside(q, sites)
        rest, parts = _exact_sum(np.multiply(out, out, out=out)), []
        while rest:
            parts.append(rest / _SCALE)
            n, d = parts[-1].as_integer_ratio()
            rest -= n * (_SCALE // d)
        self.outside, self.aimed = parts, weakref.ref(target)

    def score(self, d: np.ndarray) -> np.ndarray:
        """The B values for the differences p - q (B, w) on the cone: for
        each row, fsum of ``outside`` and the row's squared differences,
        the correctly rounded sum of its n squared differences, over n."""
        # Any order gives these bits; the parts last, fsum adds them to
        # few partial sums.
        return np.array([math.fsum(row + self.outside) for row in (d * d).tolist()]) / self.n

    def values(self, coins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The MSE against the target of the walk under each row's coin
        pair of a (B, 2, 2, 2) stack, by ``score``.

        Returns the B values and the differences p - q of the walk's
        distributions from the target (B, w), on the w sites of the light
        cone it stepped, and keeps the distributions p as ``probs`` until
        the next call. Outside the cone every amplitude stays an exact
        zero, so p = 0 there and each squared difference is q^2 bit for
        bit: the outside expansion sums those exactly, and fsum rounds
        their sum with the cone's (p - q)^2 once. So the values equal
        ``mse`` of each row's M-site distribution. Nothing is checked
        here: the walk checks the amplitudes and their norm
        (``walk._checked``), construction the grid and the start's mass,
        and the target checks its own sum when it is built.
        """
        run = self.walk.forward(coins)
        self.probs = run.probs
        d = run.probs - self.cone
        return self.score(d), d

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

        The angles are not scanned: a round's come from checked
        ``CoinParams``, finite draws and BFGS arithmetic, and a non-finite
        one makes its row's amplitudes non-finite, which the walk refuses
        with a ValueError before any value is used.
        """
        b = len(angles)
        # Each row's coin1, then its coin2, as the rows of one (2B, 3) array.
        coins, dcoins = _coin_stacks(angles.reshape(2 * b, 3))
        values, d = self.values(coins.reshape(b, 2, 2, 2))
        # (row, coin, 1, 2, 2) accumulators against (row, coin, angle, 2, 2) derivatives.
        g = self.walk.sweep(np.multiply(d, 2.0 / self.n, out=d)).swapaxes(0, 1)[:, :, None]
        grad = 2.0 * np.add.reduce(dcoins.reshape(b, 2, 3, 2, 2) * g, axis=(3, 4)).real
        return values, grad.reshape(b, 6)


# The walks the process keeps between calls, one of each kind: objective()'s
# unrecorded one-row walk under False, and under True the recorded walk
# train() started its last fit's rounds on. A call pops its kind's walk, an
# atomic dict operation (``_take``), and puts one back only once it has its
# results, so a nested, concurrent or failed call builds its own.
_kept: dict[bool, _ScoredWalk] = {}


def _walk_key(init: WalkerState, steps: int, rows: int) -> tuple:
    """What a walk of ``rows`` rows and ``steps`` steps from ``init`` is
    built from, but the start's amplitudes: the ring size, the start's
    arc, which with the ring size and the steps sets the cone, the steps
    and the rows. It holds no array."""
    return init.num_positions, init._arc, steps, rows


def _take(init: WalkerState, steps: int, target: TargetDistribution, rows: int, record: bool) -> _ScoredWalk:
    """A ``_ScoredWalk`` of ``rows`` rows and ``steps`` steps from ``init``,
    recorded if ``record``, aimed at ``target``: the kept walk of that
    kind, taken out of its slot, if it was built from the same
    ``_walk_key``, for a target of as many bins, and from the same start
    amplitudes on its cone, compared bit for bit; else a new one, which
    checks the start's grid and mass, and the slot stays empty. A walk that
    matches was built from a start of the same mass.

    Those amplitudes are what the walk copies into its first slot, so a
    walk that matches steps exactly as a new one would. Every buffer a
    call reads is written first, by ``aim`` or by the call, or holds what
    the walk was built with and no call writes: a recorded walk's start,
    and the +0 at the window ends its plans skip. So it gives the bits of
    a new one.
    """
    kept = _kept.pop(record, None)
    if (
        kept is None
        or kept.key != _walk_key(init, steps, rows)
        or kept.n != target.n_bins
        # take() gathers the cone in a third of the time indexing takes.
        or init.amps.take(kept.walk.sites, axis=1).tobytes() != kept.start
    ):
        return _ScoredWalk(init, steps, target, rows, record)
    kept.aim(target)
    return kept


def objective(
    params: SsqwParams,
    target: TargetDistribution,
    schedule: WalkSchedule,
    init: WalkerState,
) -> float:
    """MSE between the target and the walk's position distribution.

    Equals ``mse(target.probs, position_distribution(evolve(init, params,
    schedule)))`` bit for bit, the start's mass checked once, when its walk
    is built, instead of the distribution's sum (``_ScoredWalk``): a
    localized start is stepped and scored on its light cone alone, so no
    M-site state is built. Evaluating twice gives bitwise equal results.

    A variational solver calls it again and again on one start, schedule
    and target, so it keeps one unrecorded one-row ``_ScoredWalk``, which
    the next call takes if it was built from the same inputs (``_take``)
    and aims at its target. A call writes the start into the walk before
    it reads it, and a score keeps nothing from an earlier call, so a kept
    walk gives the bits of a new one.
    """
    kept = _take(init, schedule.steps, target, 1, False)
    value = float(kept.values(_coin_pair(params))[0][0])
    _kept[False] = kept
    return value


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


def _reach_floor(target: TargetDistribution, cone: np.ndarray) -> tuple[float, float]:
    """The target mass u outside ``cone``, the ring indices of the sites a
    walk stepped (``_Walker.sites``), and the MSE floor it sets.

    A bin outside the cone keeps p_i = 0 and costs q_i^2. The r bins
    inside carry all of the walker's unit mass against target mass 1 - u,
    so by Cauchy-Schwarz their squared errors sum to at least u^2 / r. The
    floor is (sum of q_i^2 outside + u^2 / r) / n_bins.
    """
    q = _outside(target.probs, cone)
    u = math.fsum(q)
    return u, (math.fsum(q * q) + u * u / cone.size) / target.n_bins


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for train().

    max_iters bounds the forward evaluations charged to each restart: one
    per objective value, EVALS_PER_GRADIENT per value-and-gradient call.
    initial_trust_radius is the longest step one line search may take and
    final_trust_radius the shortest trial step it tries before the restart
    stops. Restart 0 starts from initial_params; further restarts draw
    their free angles, all six or the two thetas, uniformly from
    [0, 2*pi) using the seed. symmetric_mode is the full fit with the
    four phase angles' gradients masked to zero, so the phases start at
    +0.0 and never move (initial_params with a non-zero phase is
    refused), and (unless an explicit initial state is supplied) it
    starts the walker in the balanced coin state (|up> + i |down>)/sqrt(2),
    which makes every reachable distribution symmetric about the start
    site.
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
        for name, least in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, least))
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


def _dots(a: np.ndarray, b: np.ndarray, out: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """Each row's a.b over the last axis into ``out``, through the buffer
    ``prods`` for the products: for (B, k) arrays a value a row, for (B, k,
    k) h and (B, 1, k) v each row's h v. np.add.reduce sums each row as it
    sums that row alone, and makes no BLAS call."""
    return np.add.reduce(np.multiply(a, b, out=prods), axis=-1, out=out)


class _Bfgs:
    """The lockstep BFGS state of a fit's B restarts, row r restart r's,
    and every array and view its rounds write, all built once per fit and
    sized by B and the 6 angles alone, never by the budget.

    The state: point ``x``, value ``f``, gradient ``g``, direction ``d``
    with its slope g.d and its length ``norm``, trial step ``t``, the
    inverse-Hessian estimate ``h``, the identity until its first update
    (``curved``), the next point ``p``, the round's values ``f_new`` and
    gradients ``g_new`` there, and the ``live`` rows. f starts at inf, so
    that every start is accepted.

    The scratch of ``step``: the (B, 6) s = p - x, y = g_new - g, u = h y
    and new direction ``dn``, and ``prods`` for (B, 6) products; the (B,
    6, 6) ``mats`` and s u^T; the (B,) s.y, y.u, rho, c, the scale, the new
    slope and length, and ``work``; the masks ``acc``, ``up``,
    ``no_descent`` and ``short``; and the views that broadcast them. So a
    round makes the ufunc calls of the BFGS formulas, on the same operands
    and in the same order as one written with temporaries, each writing
    with ``out=`` into a buffer, and keeps their bits. Rows that a mask
    leaves out are computed too, and discarded, as there.
    """

    def __init__(self, x: np.ndarray, radius: float, final_radius: float) -> None:
        b = len(x)
        self.radius, self.final_radius = radius, final_radius
        self.x, self.p = x, x.copy()
        # Arrays of one shape are the rows of one allocation.
        self.f, self.f_new = np.full((2, b), math.inf)
        self.g, self.g_new, self.d = np.zeros((3, b, 6))
        self.slope, self.norm = np.zeros((2, b))
        self.t = np.ones(b)
        self.h = np.empty((b, 6, 6))
        self.h[:] = np.eye(6)
        self.curved, self.live = np.zeros(b, dtype=bool), np.ones(b, dtype=bool)
        # Once every row is curved, no row takes a first update, so that
        # masked block of step is skipped.
        self.all_curved = False
        self.s, self.y, self.u, self.dn, self.prods = np.empty((5, b, 6))
        self.mats, self.su = np.empty((2, b, 6, 6))
        self.sy, self.yu, self.rho, self.c, self.scale, self.sn, self.nn, self.work = np.empty((8, b))
        self.acc, self.up, self.no_descent, self.short = np.empty((4, b), dtype=bool)
        self.s_col, self.s_row, self.u_row = self.s[:, :, None], self.s[:, None], self.u[:, None]
        self.y_row, self.g_row, self.su_t = self.y[:, None], self.g[:, None], self.su.transpose(0, 2, 1)
        self.rho3, self.c3, self.up3 = self.rho[:, None, None], self.c[:, None, None], self.up[:, None, None]
        self.acc_col, self.live_col = self.acc[:, None], self.live[:, None]
        self.scale_col, self.t_col = self.scale[:, None], self.t[:, None]

    def step(self) -> None:
        """One round's update from ``f_new`` and ``g_new`` at ``p``: the
        Armijo test, the BFGS update of h, the new directions and trial
        steps, and the stop tests' masks ``no_descent`` and ``short``."""
        x, p, f, g, h, t, f_new, g_new = self.x, self.p, self.f, self.g, self.h, self.t, self.f_new, self.g_new
        s, y, u, dn, prods, mats, su = self.s, self.y, self.u, self.dn, self.prods, self.mats, self.su
        sy, yu, rho, c, scale, sn, nn, work = self.sy, self.yu, self.rho, self.c, self.scale, self.sn, self.nn, self.work
        acc, up, no_descent, short, live, radius = self.acc, self.up, self.no_descent, self.short, self.live, self.radius
        # Armijo: a live row accepts its trial point or halves its step.
        np.multiply(_ARMIJO, t, out=work)
        np.multiply(work, self.slope, out=work)
        np.add(f, work, out=work)
        np.less_equal(f_new, work, out=acc)
        np.logical_and(live, acc, out=acc)
        np.subtract(p, x, out=s)
        np.subtract(g_new, g, out=y)
        _dots(s, y, sy, prods)
        # The BFGS update V h V^T + rho s s^T, V = I - rho s y^T, rho = 1/s.y,
        # as h - rho (s u^T + u s^T) + (rho^2 y.u + rho) s s^T with u = h y, on
        # the accepting rows with s.y > 0; a first one sets h to (s.y/y.y) I.
        np.greater(sy, 0.0, out=up)
        np.logical_and(acc, up, out=up)
        if not self.all_curved:
            first = up & ~self.curved
            if first.any():
                gamma = np.divide(sy, _dots(y, y, yu, prods), out=np.zeros(len(x)), where=first)
                np.copyto(h, gamma[:, None, None] * np.eye(6), where=first[:, None, None])
                self.curved |= first
                self.all_curved = bool(self.curved.all())
        # rho is 0 on the rows that h keeps, as in a new zeroed array, so
        # their discarded products cannot overflow on a stale rho.
        rho.fill(0.0)
        np.divide(1.0, sy, out=rho, where=up)
        _dots(h, self.y_row, u, mats)
        np.multiply(self.s_col, self.u_row, out=su)
        _dots(y, u, yu, prods)
        np.multiply(rho, rho, out=c)
        np.multiply(c, yu, out=c)
        np.add(c, rho, out=c)
        np.add(su, self.su_t, out=mats)
        np.multiply(self.rho3, mats, out=mats)
        np.subtract(h, mats, out=mats)
        np.multiply(self.s_col, self.s_row, out=su)
        np.multiply(self.c3, su, out=su)
        np.add(mats, su, out=mats)
        np.copyto(h, mats, where=self.up3)
        np.copyto(x, p, where=self.acc_col)
        np.copyto(f, f_new, where=acc)
        np.copyto(g, g_new, where=self.acc_col)
        # An accepted row's new direction -h g, clipped to the trust radius,
        # with a trial step of 1.
        _dots(h, self.g_row, dn, mats)
        np.negative(dn, out=dn)
        _dots(g, dn, sn, prods)
        _dots(dn, dn, nn, prods)
        np.sqrt(nn, out=nn)
        np.maximum(nn, radius, out=scale)
        np.divide(radius, scale, out=scale)
        np.multiply(dn, self.scale_col, out=dn)
        np.copyto(self.d, dn, where=self.acc_col)
        # No descent: acc & ~(slope < 0), as acc > (slope < 0) on booleans.
        np.less(sn, 0.0, out=no_descent)
        np.greater(acc, no_descent, out=no_descent)
        np.multiply(sn, scale, out=sn)
        np.copyto(self.slope, sn, where=acc)
        np.minimum(nn, radius, out=nn)
        np.copyto(self.norm, nn, where=acc)
        np.multiply(t, 0.5, out=t)
        np.copyto(t, 1.0, where=acc)
        # A step too short: live & ~no_descent & (t norm < final_radius).
        np.multiply(t, self.norm, out=work)
        np.less(work, self.final_radius, out=short)
        np.logical_and(live, short, out=short)
        np.greater(short, no_descent, out=short)

    def advance(self) -> None:
        """Move each live row's next point p to x + t d."""
        np.multiply(self.t_col, self.d, out=self.prods)
        np.add(self.x, self.prods, out=self.prods)
        np.copyto(self.p, self.prods, where=self.live_col)


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


def _restart_starts(seed: int, count: int, size: int) -> np.ndarray:
    """The start points of restarts 1 to ``count`` - 1, ``size`` angles
    each, as the rows of one array: restart r takes the next ``size``
    draws of ``TWO_PI * rng.random()``, in restart order, from one
    ``random.Random(seed)``.

    Python documents that its Mersenne Twister (``random.Random``) repeats
    the ``random()`` sequence for a given seed across releases. numpy's own
    import already loads ``random``, so the draws cost no import, where
    numpy's random module costs 15-18 ms in a new process.
    """
    rng = random.Random(seed)
    return np.array([TWO_PI * rng.random() for _ in range((count - 1) * size)]).reshape(count - 1, size)


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
    direction is minus the inverse-Hessian estimate h times the gradient.
    h starts as the identity, so the first direction is minus the gradient,
    and its first update sets it to (s.y / y.y) I. No step is longer than
    ``initial_trust_radius``, and each trial halves the step until it
    decreases the MSE enough. Symmetric mode is the same six-angle fit with
    the four phases' gradients masked to zero, so the phases start at +0.0
    and never move. The metadata's ``stop_reasons`` names why each restart
    stopped, tested in this order: "no-descent" when its direction is not
    one of descent, "short-step" when a trial step would be shorter than
    ``final_trust_radius``, and "budget" when the next value-and-gradient
    call would take it past ``max_iters``; or "exact" for a restart that
    reached an MSE of exactly 0, after which no further restart counts.
    ``evals_per_restart`` gives the evaluations charged to each:
    ``EVALS_PER_GRADIENT`` a point, except that a budget below that buys
    the start's value alone, charged 1.

    The restarts run in lockstep, one batched value-and-gradient call per
    round on one recorded walk, rebuilt with the live rows alone when they
    fall to half its rows or fewer; restarts after an exact hit are
    computed and then discarded. The result equals that of running them
    one after another. The first walk is the one the last fit kept, if it
    was built from the same inputs, and is kept for the next fit. Each
    restart's lowest value so far, its point and the walk's cone
    probabilities there are kept as the rounds find them, so
    ``best_params`` and ``trained_dist`` come from the round that walked
    the best point.

    A fit builds its buffers once, none sized by ``max_iters``: the BFGS
    state of ``_Bfgs``, with its scratch arrays, masks and views; the best
    value, point and cone probabilities of each restart, a (B, w) buffer a
    round copies the walk's probabilities into, and the ``lower`` and
    ``stop`` masks. Each round writes into them in place.
    """
    if config is None:
        config = OptimizerConfig()
    n_bins = target.n_bins
    if init is None:
        init, coin_init = _start_state(n_bins, config.symmetric_mode)
    else:
        coin_init = "custom"

    # Each round's gradients are masked: symmetric mode moves the two
    # thetas alone, and restarts draw those, so the phases stay at +0.0.
    mask = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]) if config.symmetric_mode else np.ones(6)
    free = mask.nonzero()[0]
    # Row r of every array is restart r's (``_Bfgs``), with the round it
    # stopped in and why ("budget" unless another test says otherwise).
    b = config.restarts
    x = np.zeros((b, 6))
    x[0, free] = config.initial_params.to_array()[free]
    x[1:, free] = _restart_starts(config.seed, b, free.size)
    state = _Bfgs(x, config.initial_trust_radius, config.final_trust_radius)
    p, f_new, g_new, live = state.p, state.f_new, state.g_new, state.live
    last, reasons, seen = np.zeros(b, dtype=int), np.full(b, "budget", dtype=object), []

    # Walk row i is restart rows[i]'s: rows is every row, as a slice, until
    # the first narrowing. A stopped restart's row stays on its last point,
    # and its output is not read, until the live rows are half of the rows
    # or fewer: then the walk is rebuilt with those alone. The first walk,
    # of all b rows, is the kept one if it matches, and is kept once the
    # rounds are done; a new one checks a custom start's grid before it
    # builds anything else, and its mass before the first round.
    steps = config.steps.steps
    scored = kept = _take(init, steps, target, b, True)
    sites = kept.walk.sites
    n_live, width, rows = b, b, slice(None)
    # Each restart's lowest value so far, and where it first met it: the
    # point, and the walk's probabilities on the cone there, so that no
    # walk is run again for trained_dist. A round copies the walk's
    # probabilities into probs, row r restart r's, and one mask, lower,
    # picks the rows whose value, point and probabilities it keeps.
    low, low_x, low_probs = np.full(b, math.inf), x.copy(), np.zeros((b, sites.size))
    probs, lower, stop = np.empty((b, sites.size)), np.empty(b, dtype=bool), np.empty(b, dtype=bool)
    lower_col = lower[:, None]
    while n_live:
        if 2 * n_live <= width:
            rows = live.nonzero()[0]
            width = rows.size
            scored = _ScoredWalk(init, steps, target, width, record=True)
        values, grads = scored.values_and_gradients(p[rows])
        # A restart the walk no longer holds keeps its last, finite, f and g.
        f_new[rows] = values
        g_new[rows] = np.multiply(grads, mask, out=grads)
        seen.append(f_new.copy())
        # Every live restart is one of the walk's rows.
        np.less(f_new, low, out=lower)
        np.logical_and(live, lower, out=lower)
        probs[rows] = scored.probs
        np.copyto(low, f_new, where=lower)
        np.copyto(low_x, p, where=lower_col)
        np.copyto(low_probs, probs, where=lower_col)
        if config.max_iters < EVALS_PER_GRADIENT:
            break  # the starts' values alone, each charged 1
        state.step()
        # The stop tests: no descent, then a step too short, then the budget,
        # which every live row has spent alike, EVALS_PER_GRADIENT a round.
        no_descent, short = state.no_descent, state.short
        if EVALS_PER_GRADIENT * (len(seen) + 1) > config.max_iters:
            np.copyto(stop, live)
        else:
            np.logical_or(no_descent, short, out=stop)
        if stop.any():
            reasons[no_descent] = "no-descent"
            reasons[short] = "short-step"
            last[stop] = len(seen) - 1
            np.greater(live, stop, out=live)
            n_live = int(np.count_nonzero(live))
        state.advance()
    _kept[True] = kept

    # Everything below reads the restarts in order, as if each had run
    # alone after the one before it.
    seen = np.array(seen)
    charge = EVALS_PER_GRADIENT if config.max_iters >= EVALS_PER_GRADIENT else 1
    history, best_val, best_restart = [], math.inf, 0
    for r, low_r in enumerate(low.tolist()):
        history += seen[: last[r] + 1, r].tolist()
        if low_r < best_val:
            best_val, best_restart = low_r, r
        if best_val == 0.0:
            reasons[r] = "exact"
            break
    evals_per_restart = (charge * (last[: r + 1] + 1)).tolist()
    stop_reasons = reasons[: r + 1].tolist()

    best_params = SsqwParams.from_array(low_x[best_restart])
    trained = np.zeros(n_bins)
    trained[sites] = low_probs[best_restart]
    unreachable_mass, mse_floor = _reach_floor(target, sites)
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
