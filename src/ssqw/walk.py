"""Coined walk operators on a ring.

A plain walk step is shift(coin(state)): the coin acts first, then the
conditional shift moves the up component one site right and the down
component one site left, with wraparound.

A split step decomposes the shift into half-shifts and interleaves two
coins. Reading right to left, one split step is

    W = S_minus . (I x C2) . S_plus . (I x C1)

so C1 is applied first, then S_plus (up moves right, down stays), then
C2, then S_minus (down moves left, up stays). Composing the two
half-shifts with no coin in between reproduces the plain shift exactly.

One half-step moves the amplitudes of every walk the package runs: a
coin on both coin rows, then one row shifted one site by slicing. Every
walk is a ``_Walker``, built once for a start, a number of steps and of
rows, and called once per set of coin pairs. It plans its half-steps when
it is built (``_half_step``): five ufunc calls on views of a source state,
a destination, its coins and one product buffer, laid end to end in one
flat list of calls for each pass, which a call makes in order with no
temporaries, no new views and no Python call per half-step. The views
that do not depend on the source and the destination are built once per
coin and direction (``_coin_views``). Each split step is two half-steps
(C1 with the up row moving right, C2 with the down row moving left). An
unrecorded walk plans those two and runs their ten calls once per step,
in place on one state. A recorded walk, the gradient's, plans every
half-step of its forward pass and of the adjoint sweep out of place, each
from one slot of a record into the next, and runs each list once, so the
states that enter the coins and the adjoint states that leave them are
recorded as they are stepped, with no copy. The sweep
carries the conjugate of the adjoint state alone back through the same
half-step, with the transposed coins and the opposite moves, and one
contraction of its record with the forward record gives both coins'
gradient accumulators. Where a row moves is known in one place,
``_shifts``, which the plans and the public ``apply_shift_*`` operators
(through ``_move``) take their shifted views from.

Each step moves an amplitude by -1, 0 or +1 site, so t steps from a
state whose occupied sites lie on the ring arc first..last fill only its
light cone first-t..last+t. One rule, ``_light_cone``, decides which sites
a walk steps, and in which order: that cone, whenever it is narrower than
the ring, else the whole ring as the window 0..M-1, its sites in ring
order. A cone that wraps past site 0 is the same cyclic sequence rotated
to start there, and everything that reads a window reads it in that order.
This is exact, not a truncation: every site outside the cone stays an
exact zero in the full-ring run too, and nothing reaches the cone's ends,
so its own wrap-around only moves zeros.
A ``WalkerState`` caches its arc (``WalkerState._arc``), so a start is
scanned once, and the cone is arithmetic on that arc.

A walk takes B coin pairs stacked as one (B, 2, 2, 2) array, coin1 then
coin2, copies the start's cone into each of the (2, B, w) batch's rows,
steps it, and checks the result once (``_checked``): finite amplitudes,
and each row's norm kept against the start's. ``evolve`` and the one-step
operators are its one-row case, scattered onto the ring (``_ring_walk``);
the MSE objective scores its batch in place. A value-and-gradient call
steps the same cone in a recorded walk; its forward record holds the 2t
states that enter the coins and the final state, and the sweep runs back
on that window from the record, and rebuilds no state. That is exact too:
the gradient reads the adjoint state at step i only where the state
entering a coin can be non-zero, within the start's cone of i steps (i + 1
for C2), and the window's wrap-around, moving in from its ends one site a
step, never gets there. Every row shares the start, and so its cone. Each
row is stepped by the same half-steps as it would be alone, so its result
equals its own B = 1 call bit for bit.

Coins are built from angle arrays: ``_coin_stacks`` takes the cosines
and sines of a (K, 3) array of (theta, phi, lam) rows from one np.cos and
one np.sin call, and evaluates the scalar formula on them into (K, 2, 2)
coins and their (K, 3, 2, 2) angle derivatives for the gradient
(``coin_matrix`` is the one-row case, and ``_coin_pair`` gives a
parameter set's pair as a (1, 2, 2, 2) stack). A plain step's pair is
that of ``SsqwParams(coin, IDENTITY_COIN)``, built by ``_coin_pair`` like
any other. A walk copies its coins' entries on each call to one
contiguous (2, 2, 2, B, w) array, so that each half-step multiplies each
coin row by the whole (2, B, w) state in one call on contiguous arrays of
equal shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# apply_coin stays importable as ssqw.walk.apply_coin: benchmarks/spans.py
# hooks it by that name.
from .statevector import NORM_TOL, WalkerState, _check_count, _norm_sq, _position_probs, apply_coin  # noqa: F401

TWO_PI = 2.0 * math.pi

MAX_DENSE_QUBITS = 4

OPERATOR_FORMAT_VERSION = 1

# The angles of a coin, in the order of its fields and of every angle array.
_ANGLE_NAMES = ("theta", "phi", "lam")


def wrap_angle(a: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    w = float(np.mod(a, TWO_PI))
    # np.mod of a tiny negative value can round up to the modulus itself.
    return 0.0 if w >= TWO_PI else w


@dataclass(frozen=True)
class CoinParams:
    """Euler-like angles (theta, phi, lam) of a single coin unitary."""

    theta: float
    phi: float = 0.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        for name in _ANGLE_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coin angle {name} must be finite, got {v!r}")

    def wrapped(self) -> "CoinParams":
        return CoinParams(wrap_angle(self.theta), wrap_angle(self.phi), wrap_angle(self.lam))


@dataclass(frozen=True)
class SsqwParams:
    """The six angles of one split step: coin1 acts before coin2."""

    coin1: CoinParams
    coin2: CoinParams

    @classmethod
    def from_array(cls, x) -> "SsqwParams":
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (6,):
            raise ValueError(f"expected 6 angles, got shape {x.shape}")
        return cls(CoinParams(x[0], x[1], x[2]), CoinParams(x[3], x[4], x[5]))

    def to_array(self) -> np.ndarray:
        c1, c2 = self.coin1, self.coin2
        return np.array([c1.theta, c1.phi, c1.lam, c2.theta, c2.phi, c2.lam])

    def wrapped(self) -> "SsqwParams":
        return SsqwParams(self.coin1.wrapped(), self.coin2.wrapped())

    @classmethod
    def balanced(cls) -> "SsqwParams":
        """Both coins at theta = pi/2 with zero phases."""
        half = CoinParams(math.pi / 2.0, 0.0, 0.0)
        return cls(half, half)


@dataclass(frozen=True)
class WalkSchedule:
    """Number of identical steps to apply."""

    steps: int

    def __post_init__(self) -> None:
        _check_count(self.steps, "steps")


def _check_finite_angles(angles: np.ndarray) -> None:
    """Raise the ValueError ``CoinParams`` raises for the first non-finite
    entry, in row-major order, of an array of (theta, phi, lam) triples
    whose rows hold whole triples."""
    finite = np.isfinite(angles)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"coin angle {_ANGLE_NAMES[i % 3]} must be finite, got {angles.flat[i]!r}")


def coin_matrix(coin: CoinParams) -> np.ndarray:
    """Coin unitary

        [[ cos(theta/2),              -exp(i lam) sin(theta/2)       ],
         [ exp(i phi) sin(theta/2),    exp(i (lam + phi)) cos(theta/2)]]

    which is unitary for any real angles. theta = pi/2, phi = 0, lam = pi
    gives the Hadamard coin.
    """
    angles = np.array([[coin.theta, coin.phi, coin.lam]], dtype=np.float64)
    return _coin_stacks(angles)[0][0]


def _coin_stacks(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``coin_matrix`` of each row (theta, phi, lam) of a (K, 3) float64
    angle array, stacked into a (K, 2, 2) array, and its derivatives by
    theta, phi and lam, from differentiating its formula entry by entry,
    stacked into a (K, 3, 2, 2) array: two views of one (K, 4, 2, 2)
    array, built by one np.fromiter call.

    The cosines and sines of theta/2, phi and lam come from one np.cos and
    one np.sin call. The formula is then evaluated on Python scalars, each
    subexpression that entries share (-exp(i lam)/2, and i exp(i lam)
    exp(i phi) cos(theta/2)) formed once. The coins stay Python scalars
    for two reasons. numpy's complex multiply fuses with FMA, so the same
    products on arrays differ from Python's in the last bit (43,842 of
    100,000 random products did), and every result would move. And an
    array replay that is exact, each product written out in float64
    parts, is no faster at 16 coins: 89 us against 36 (one core of a
    2-core Xeon, numpy 2.4).
    """
    half = angles / (2.0, 1.0, 1.0)
    entries: list[complex] = []
    for (c, cp, cl), (s, sp, sl) in zip(np.cos(half).tolist(), np.sin(half).tolist()):
        el, ep = complex(cl, sl), complex(cp, sp)
        h, k = -0.5 * el, 1j * el * ep * c
        # The coin, then its 2x2 entries by theta, by phi and by lam.
        entries += (c, -el * s, ep * s, el * ep * c, -0.5 * s, h * c, 0.5 * ep * c, h * ep * s)
        entries += (0.0, 0.0, 1j * ep * s, k, 0.0, -1j * el * s, 0.0, k)
    stack = np.fromiter(entries, dtype=np.complex128, count=len(entries)).reshape(-1, 4, 2, 2)
    return stack[:, 0], stack[:, 1:]


def _coin_pair(params: SsqwParams) -> np.ndarray:
    """The two coins of ``params`` as a (1, 2, 2, 2) stack, coin1 then
    coin2, from one ``_coin_stacks`` call: each equals ``coin_matrix`` of
    its angles."""
    return _coin_stacks(params.to_array().reshape(2, 3))[0][None]


# Handy named coins within the convention above, checked against their
# matrices in the test suite.
IDENTITY_COIN = CoinParams(0.0, 0.0, 0.0)
HADAMARD_COIN = CoinParams(math.pi / 2.0, 0.0, math.pi)
PAULI_X_COIN = CoinParams(math.pi, 0.0, math.pi)
PAULI_Y_COIN = CoinParams(math.pi, math.pi / 2.0, math.pi / 2.0)
PAULI_Z_COIN = CoinParams(0.0, 0.0, math.pi)


def apply_shift_dtqw(state: WalkerState) -> WalkerState:
    """Conditional shift: up moves x -> x+1, down moves x -> x-1 (mod ring)."""
    up, dn = state.amps
    out = np.empty_like(state.amps)
    _move(out[0], up, right=True)
    _move(out[1], dn, right=False)
    return WalkerState(out)


def apply_shift_plus(state: WalkerState) -> WalkerState:
    """Half shift: up moves x -> x+1, down stays."""
    out = state.amps.copy()
    _move(out[0], state.amps[0], right=True)
    return WalkerState(out)


def apply_shift_minus(state: WalkerState) -> WalkerState:
    """Half shift: down moves x -> x-1, up stays."""
    out = state.amps.copy()
    _move(out[1], state.amps[1], right=False)
    return WalkerState(out)


def _shifts(right: bool) -> tuple:
    """How a row moves one site around the ring along its last axis,
    right (x -> x+1) if ``right``, else left: two (to, from) pairs of
    index expressions, the body of the row and then the one site that
    wraps around. This is the only place that knows how a row moves.
    """
    if right:
        return (np.s_[..., 1:], np.s_[..., :-1]), (np.s_[..., 0], np.s_[..., -1])
    return (np.s_[..., :-1], np.s_[..., 1:]), (np.s_[..., -1], np.s_[..., 0])


def _move(dst: np.ndarray, src: np.ndarray, right: bool) -> None:
    """Write ``src`` into ``dst`` moved one site around the ring
    (``_shifts``). The arrays must not overlap."""
    for to, frm in _shifts(right):
        dst[to] = src[frm]


def _light_cone(state: WalkerState, steps: int) -> np.ndarray:
    """The light cone of ``steps`` steps from ``state``, as ring indices
    in ring order.

    With ``first`` and ``span`` the state's cached arc
    (``WalkerState._arc``), the cone is ``first - steps`` to
    ``first + span - 1 + steps`` (mod M). Each step moves an amplitude by
    -1, 0 or +1 site, so no site outside the cone is ever non-zero. When
    the cone covers the ring, or no site is occupied, it is the whole ring
    as the window 0..M-1. A cone that wraps past site 0 is the same cyclic
    sequence of sites rotated to start there, so stepped as a ring each
    site keeps its two neighbours.
    """
    m = state.num_positions
    # A state with no occupied site has no arc: take the whole ring.
    first, span = state._arc or (0, m)
    if span + 2 * steps >= m:
        return np.arange(m)
    return np.sort(np.arange(first - steps, first + span + steps) % m)


def _coin_views(entries: np.ndarray, products: np.ndarray, move_up: bool, right: bool) -> tuple:
    """The views of a half-step under one coin, its (2, 2, B, w)
    ``entries``, that do not depend on its source and destination, built
    once for every plan that shares them (``_half_step``): the coin rows,
    the (2, 2, B, w) ``products`` buffer and its terms, those of the moved
    row flattened and shifted (``_shifts``), and where the destination is
    written. The up row moves if ``move_up``, else the down row, right if
    ``right``, else left."""
    moves, stays = (0, 1) if move_up else (1, 0)
    (body_to, body_from), (wrap_to, wrap_from) = _shifts(right)
    terms = products[moves, 0], products[moves, 1]
    flat = [term.reshape(-1) for term in terms]
    return (
        (entries[0], products[0]),
        (entries[1], products[1]),
        (products[stays, 0], products[stays, 1]),
        (flat[0][body_from], flat[1][body_from]),
        (terms[0][wrap_from], terms[1][wrap_from]),
        (moves, stays, body_to, wrap_to),
    )


def _half_step(src: np.ndarray, dst: np.ndarray, views: tuple) -> tuple:
    """Plan half of a split step from a (2, B, w) state ``src`` into
    ``dst``: a coin on both coin rows, then one row moved one site around
    the ring. An unrecorded walk passes one array as both and steps it in
    place; a recorded walk steps from one slot of its record into the next.

    ``views`` are the coin's and the product buffer's (``_coin_views``),
    so only the views of ``dst`` are built here. The plan is five calls
    (ufunc, a, b, out), each made as ``ufunc(a, b, out)``, in order:

    1. and 2. ``products[r] = entries[r] * src``, coin row r times both
       coin rows of the state, for r = 0 and 1;
    3. the row r that stays, ``products[r, 0] + products[r, 1]``;
    4. the moved row's body, the same sum on the flattened B * w buffers,
       shifted by one site (``_shifts``). That also writes each batch
       row's first site (last, moving left) from its neighbour's last;
    5. the B sites that wrap around, which overwrites those.

    ``src`` is read only by the first two calls, so ``dst`` may be
    ``src``. Each new amplitude is ``c[r, 0] * up + c[r, 1] * dn`` with
    ``apply_coin``'s operand order, up to the order of the two terms of an
    exact-rounded sum, so bit for bit. A flattened view of a ``dst`` that
    is not C-contiguous would be a copy, so such a state is refused.
    """
    if not dst.flags.c_contiguous:
        raise ValueError("a half-step plan needs a C-contiguous state")
    (row0, made0), (row1, made1), stay, body, wrap, (moves, stays, body_to, wrap_to) = views
    moved = dst[moves]
    return (
        (np.multiply, row0, src, made0),
        (np.multiply, row1, src, made1),
        (np.add, *stay, dst[stays]),
        (np.add, *body, moved.reshape(-1)[body_to]),
        (np.add, *wrap, moved[wrap_to]),
    )


class _Walk(NamedTuple):
    """What a walk returns for a batch of B rows stepped on w sites."""

    # The final amplitudes, (2, B, w).
    final: np.ndarray
    # The w ring sites stepped, in ring order.
    sites: np.ndarray
    # Each row's position distribution, (B, w), and its sum, (B,).
    probs: np.ndarray
    norms: np.ndarray


def _checked(final: np.ndarray, sites: np.ndarray, n0: float, steps: int) -> _Walk:
    """The ``_Walk`` of a final (2, B, w) batch stepped ``steps`` steps on
    ``sites`` from a start of squared norm ``n0``, checked once: a
    non-finite amplitude raises ValueError, and a row whose norm moved
    from ``n0`` by more than ``NORM_TOL`` per step (relative to max(1, n0))
    raises ArithmeticError, which ``python -O`` does not strip. Every
    walk, recorded or not, is checked here."""
    probs = _position_probs(final)
    norms = np.add.reduce(probs, axis=-1)
    if not (np.abs(norms - n0) <= NORM_TOL * steps * max(1.0, n0)).all():
        # A non-finite amplitude makes its row's norm non-finite, which
        # fails the check above: only then are the amplitudes scanned.
        if not np.isfinite(final.view(np.float64)).all():
            raise ValueError("amplitudes must be finite")
        raise ArithmeticError(f"{steps} steps moved the norm from {n0!r} to {norms.tolist()!r}")
    return _Walk(final, sites, probs, norms)


# The most bytes of accumulator terms, and as many of their products, that
# a recorded ``_Walker`` holds at once. Both buffers then stay in a core's
# cache: at 256 bins x 64 steps x 8 rows the reduce took about half the
# time it took with 4 MiB of terms made by one strided multiply (one core
# of a 2-core Xeon, 2 MiB of L2 per core, numpy 2.4).
_TERMS_BYTES = 1 << 18


class _Walker:
    """``steps`` split steps from ``init`` under each of B rows of coin
    pairs, built once and called once per set of coins: every walk the
    package runs. The gradient's is built with ``record``.

    Construction does all the set-up, for the start's ``_light_cone`` of
    ``steps`` steps, w sites, which every row shares:

    - the start's sites and their squared norm;
    - the state record ``states``, 2 * steps + 1 slots of (2, B, w) if
      ``record``, else one;
    - the (2, 2, 2, B, w) ``entries``: element [k, r, c, b, x] is row b's
      coin k (0 for C1, 1 for C2) entry in row r and column c, so that each
      coin row [k, r] is laid out like a (2, B, w) state, which
      ``_half_step`` multiplies it by; and one product buffer;
    - the views of each coin and direction (``_coin_views``), and the
      forward plans (``_half_step``), laid end to end in the flat call
      list ``calls``, which ``forward`` runs ``repeats`` times: plan j
      steps slot j % slots into slot (j + 1) % slots, C1 with the up row
      moving right for even j and C2 with the down row moving left for odd
      j. So an unrecorded walk plans two, in place, and runs them once per
      step, and a recorded walk plans all 2 * steps out of place and runs
      them once: slot 2i + k holds the state that enters coin k of step i,
      and the last slot the final state. Every plan is five calls, so
      ``calls[5 * j + 2]`` writes half-step j's row that stays.

    A recorded walk also holds what ``sweep`` needs: the adjoint record
    ``lams``, (2 * steps, 2, B, w), whose slot 2i + k holds conj(lambda),
    the conjugate of the adjoint lambda as it leaves coin k of step i; the
    entries of the coins' transposes and their views; 2 * steps - 1 back
    plans in the flat call list ``back_calls``, from each adjoint slot into
    the one before, C2^T with the up row moving back left and C1^T with the
    down row moving back right; and the
    accumulator terms and their products, at most ``_TERMS_BYTES`` of each,
    with the views of both records that fill them.

    Copying the entries makes each multiply one call on three contiguous
    arrays of equal shape, numpy's fastest path: broadcasting one state
    row across both coin rows instead took about twice as long, at one row
    of 129 sites and at 8 rows of 15. Rows of tens of thousands of sites
    pay for the copies and the product buffer in memory traffic instead: a
    full-ring ``evolve`` on 2**12 to 2**16 sites took 0.98 to 1.28 times
    as long as with eight calls and three temporaries per half-step (timed
    on one core of a 2-core Xeon, numpy 2.4). No benchmark workload steps
    rows that long.

    A call then only refills the entries, makes the calls and reduces.
    ``forward`` steps coin pairs from the start and checks the result
    (``_checked``); ``sweep`` then gives their gradient accumulators for
    a seed. Nothing is validated in between: a walk starts from a
    ``WalkerState``'s amplitudes, takes unitary coins and checks what
    comes back. A step equals the composed public operators bit for bit.
    Each row is stepped by the same half-steps as it would be alone, so
    its results equal a one-row walk's bit for bit, and rows do not mix: a
    row's coins may stay as they were across calls.

    A recorded walk's records take 32 (4 * steps + 1) B w bytes.
    """

    def __init__(self, init: WalkerState, steps: int, rows: int, record: bool) -> None:
        self.steps = steps
        self.sites = _light_cone(init, steps)
        start = init.amps[:, self.sites]
        self.n0 = _norm_sq(start)
        self.start = start[:, None]
        shape = (rows, len(self.sites))
        slots = 2 * steps + 1 if record else 1
        self.states = np.empty((slots, 2) + shape, dtype=np.complex128)
        self.entries = np.empty((2, 2, 2) + shape, dtype=np.complex128)
        self.products = np.empty((2, 2) + shape, dtype=np.complex128)
        # Steps alternate coins: an even slot enters C1.
        coins = [_coin_views(self.entries[k], self.products, k == 0, k == 0) for k in (0, 1)]
        self.calls = [
            call
            for j in range(2 * steps if record else 2)
            for call in _half_step(self.states[j % slots], self.states[(j + 1) % slots], coins[j % 2])
        ]
        self.repeats = 1 if record else steps
        if record:
            self._plan_sweep(steps, *shape)

    def _plan_sweep(self, steps: int, b: int, w: int) -> None:
        """The adjoint record, the inverse entries, the back calls and the
        terms of ``sweep``'s reduce, lam[i, k, :, b, x] times
        psi[i, k, :, b, x]^T for each step i, coin k, batch row b and site
        x, a chunk of steps at a time: one multiply of the records as they
        lie, sites last, then one copy of its products into ``terms``, as
        (step and site, lam's row, psi's row, coin, batch row). Row 0 of
        ``terms`` holds the running sum, and a chunk's terms follow it."""
        self.lams = np.empty((2 * steps, 2, b, w), dtype=np.complex128)
        self.inverse = np.empty_like(self.entries)
        # Slot j of the adjoint record is followed by slot j - 1; an even
        # slot leaves C1.
        coins = [_coin_views(self.inverse[k], self.products, k == 1, k == 0) for k in (0, 1)]
        self.back_calls = [
            call
            for j in range(2 * steps - 1, 0, -1)
            for call in _half_step(self.lams[j], self.lams[j - 1], coins[j % 2])
        ]
        # (step, coin, lam's row, -, batch row, site) and
        # (step, coin, -, psi's row, batch row, site).
        lam = self.lams.reshape(steps, 2, 2, b, w)[:, :, :, None]
        psi = self.states[:-1].reshape(steps, 2, 2, b, w)[:, :, None]
        chunk = max(1, min(steps, _TERMS_BYTES // (w * 8 * b * 16)))
        made = np.empty((chunk, 2, 2, 2, b, w), dtype=np.complex128)
        self.terms = np.zeros((1 + chunk * w, 2, 2, 2, b), dtype=np.complex128)
        self.term_chunks = []
        for i in range(0, steps, chunk):
            n = min(chunk, steps - i)
            out = self.terms[1 : 1 + n * w].reshape(n, w, 2, 2, 2, b)
            moved = made[:n].transpose(0, 5, 2, 3, 1, 4)
            self.term_chunks.append((lam[i : i + n], psi[i : i + n], made[:n], moved, out, self.terms[: 1 + n * w]))

    def forward(self, coins: np.ndarray) -> _Walk:
        """Step the start under each row's coin pair of a (B, 2, 2, 2)
        stack, coin1 then coin2, and return the checked walk. Each call
        writes the start into slot 0 first, so it never goes on from the
        last call's final state. Its ``final`` is the record's last slot,
        which the next call overwrites."""
        self.entries[...] = coins.transpose(1, 2, 3, 0)[..., None]
        self.states[0] = self.start
        for _ in range(self.repeats):
            for ufunc, a, b, out in self.calls:
                ufunc(a, b, out)
        return _checked(self.states[-1], self.sites, self.n0, self.steps)

    def sweep(self, coef: np.ndarray) -> np.ndarray:
        """Reverse sweep for the coin gradients of L after ``forward``.

        The adjoint lambda of L at the final state psi is ``coef * psi``,
        for a real ``coef`` of a shape that broadcasts to psi's, so that
        dL = 2 Re sum(conj(lambda) * d psi). The sweep carries mu =
        conj(lambda) instead: lambda steps back by C^dagger, so mu steps
        back by the plain transpose C^T, and the shifts are real. It seeds
        mu with the conjugate of ``coef * psi``, undoes the last step's
        S_minus by moving the down row back right, then carries mu alone
        back through the planned half-steps (``back_calls``), from each
        slot of the adjoint record into the one before. Conjugation is
        exact, so slot 2i + k holds
        conj(lambda_out), lambda as it left coin k of step i, bit for bit,
        with no pass to conjugate the record, and one contraction of the
        two records gives

            G_k = sum over steps and sites of conj(lambda_out) psi_in^T

        at coin k, for which dL/da = 2 Re sum(dC_k/da * G_k) for each
        angle a of coin k, as a (2, B, 2, 2) array: G_1 then G_2.

        The sweep runs on the w sites ``forward`` stepped, the start's
        cone of ``steps`` steps, as a ring. That is exact if lambda is zero
        wherever psi is, as the MSE's (2/n)(p - q) psi is. At step i
        psi_in lies within the start's cone of i steps (of i + 1 for
        coin2), and lambda there depends only on lambda one site further
        out. The window's wrap-around moves in from its ends one site a
        step, so it only reaches sites where psi_in is zero.

        The terms are added one at a time, steps in order and each step's
        sites in ring order, the window's, by np.add.reduce over the
        leading axis. A sum that starts at +0 never becomes -0, so the
        exact zeros of a wider window add nothing, and a window's sums
        equal the full ring's bit for bit. A pairwise or BLAS sum, whose
        order moves with the window's width and offset, does not. A long
        record is summed a chunk of steps at a time, each chunk after the
        running sum.
        """
        np.copyto(self.inverse, self.entries.transpose(0, 2, 1, 3, 4))
        seed = np.multiply(coef, self.states[-1], out=self.products[0])
        np.conjugate(seed, out=seed)
        lam = self.lams[-1]
        # The last step's S_minus undone: it has no later coin to undo first.
        lam[0] = seed[0]
        _move(lam[1], seed[1], right=True)
        for ufunc, a, b, out in self.back_calls:
            ufunc(a, b, out)
        self.terms[0] = 0.0
        for lam, psi, made, moved, out, summed in self.term_chunks:
            np.multiply(lam, psi, out=made)
            np.copyto(out, moved)
            total = np.add.reduce(summed, axis=0)
            self.terms[0] = total
        return total.transpose(2, 3, 0, 1)


def _ring_walk(state: WalkerState, coins: np.ndarray, steps: int) -> WalkerState:
    """A walk from ``state`` under one coin pair, a (1, 2, 2, 2) stack,
    scattered onto the whole ring. Values equal the full-ring run; only
    the signs of exact zeros outside the cone may differ."""
    run = _Walker(state, steps, 1, record=False).forward(coins)
    out = np.zeros(state.amps.shape, dtype=np.complex128)
    out[:, run.sites] = run.final[:, 0]
    return WalkerState(out)


def apply_dtqw_step(state: WalkerState, coin: CoinParams) -> WalkerState:
    """One plain walk step: coin, then the full conditional shift.

    This is ``apply_ssqw_step`` under ``SsqwParams(coin, IDENTITY_COIN)``:
    with no coin between them, the two half-shifts make the full shift.
    """
    return apply_ssqw_step(state, SsqwParams(coin, IDENTITY_COIN))


def apply_ssqw_step(state: WalkerState, params: SsqwParams) -> WalkerState:
    """One split step: coin1, S_plus, coin2, S_minus, in that order."""
    return _ring_walk(state, _coin_pair(params), 1)


def evolve(state: WalkerState, params: SsqwParams, schedule: WalkSchedule) -> WalkerState:
    """Apply ``schedule.steps`` identical split steps."""
    return _ring_walk(state, _coin_pair(params), schedule.steps)


def dense_operator(transform, num_position_qubits: int) -> np.ndarray:
    """Materialise a state transform as a dense matrix by applying it to
    every basis vector. Meant for cross-checks, so the ring is capped at
    ``MAX_DENSE_QUBITS`` position qubits.
    """
    if not 1 <= num_position_qubits <= MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operators support 1..{MAX_DENSE_QUBITS} position qubits, got {num_position_qubits}"
        )
    dim = 2 * (1 << num_position_qubits)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        mat[:, j] = transform(WalkerState(e)).flat
    return mat


def ssqw_step_dense(params: SsqwParams, num_position_qubits: int) -> np.ndarray:
    """``apply_ssqw_step`` as a dense matrix; its coins are built once."""
    pair = _coin_pair(params)
    return dense_operator(lambda s: _ring_walk(s, pair, 1), num_position_qubits)


def dtqw_step_dense(coin: CoinParams, num_position_qubits: int) -> np.ndarray:
    """``apply_dtqw_step`` as a dense matrix: ``ssqw_step_dense`` under
    ``SsqwParams(coin, IDENTITY_COIN)``."""
    return ssqw_step_dense(SsqwParams(coin, IDENTITY_COIN), num_position_qubits)


def operator_to_json(mat: np.ndarray) -> str:
    """Serialise a dense operator, row-major, entries as (re, im) pairs."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    entries = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    return json.dumps(
        {"format_version": OPERATOR_FORMAT_VERSION, "dim": mat.shape[0], "entries": entries},
        indent=2,
    ) + "\n"
