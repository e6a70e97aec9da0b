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

One half-step, ``_half_step``, moves the amplitudes of every walk the
package runs: a coin on both coin rows, then one row shifted one site by
slicing. The forward kernel runs each split step as two of them (C1 with
the up row moving right, C2 with the down row moving left). The adjoint
sweep that gives the coin gradients runs the same half-step backwards,
with the conjugate-transposed coins and the opposite moves. The half-step
and the public ``apply_shift_*`` operators move a row by one helper,
``_move``.

Each step moves an amplitude by -1, 0 or +1 site, so t steps from a
state whose occupied sites lie on the ring arc first..last fill only its
light cone first-t..last+t. One rule, ``_light_cone``, decides which sites
a walk steps: that cone, whenever it is narrower than the ring, else the
whole ring. This is exact, not a truncation: every site outside the cone
stays an exact zero in the full-ring run too, and nothing reaches the
cone's ends, so its own wrap-around only moves zeros. A ``WalkerState``
caches its arc (``WalkerState._arc``), so a start is scanned once, and the
cone is arithmetic on that arc.

One entry, ``_walk``, owns every walk. It takes B coin pairs stacked as
(B, 2, 2) arrays, repeats the start's cone into a (2, B, w) batch, steps
it, and checks the result once: finite amplitudes, and each row's norm
kept against the start's. ``evolve`` and the one-step operators are its
B = 1 case, scattered onto the ring; the MSE objective scores its batch
in place. A walk that will be swept back steps the start's cone of twice
its steps instead, and the sweep runs on that same array: undoing t steps
from the final state, which lies within the start's cone of t, stays
within the cone of 2t. Every row shares the start, and so its cone. Each
row is stepped by the same half-steps as it would be alone, so its result
equals its own B = 1 call bit for bit.

Coins are built from angle arrays: ``_coin_factors`` takes the cosines
and sines of a (K, 3) array of (theta, phi, lam) rows from one np.cos and
one np.sin call, and ``_coins`` evaluates the scalar formula on them into
(K, 2, 2) coins (``coin_matrix`` is the one-row case, and ``_coin_pair``
gives a parameter set's two coins as (1, 2, 2) stacks); ``_coin_stacks``
adds their (K, 3, 2, 2) angle derivatives for the gradient. Each walk
copies its coins' entries once to the shape of the rows it steps
(``_entries``), so that the half-steps multiply contiguous arrays of equal
shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# apply_coin stays importable as ssqw.walk.apply_coin: benchmarks/spans.py
# hooks it by that name.
from .statevector import WalkerState, _position_probs, apply_coin  # noqa: F401

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
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")


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
    return _coins(_coin_factors(angles))[0]


def _coin_factors(angles: np.ndarray) -> list[tuple[float, float, complex, complex]]:
    """cos(theta/2), sin(theta/2), exp(i lam) and exp(i phi) for each row
    (theta, phi, lam) of a (K, 3) float64 angle array: the factors that
    ``coin_matrix`` and its derivatives are built from. One np.cos and one
    np.sin call give them all."""
    half = angles / (2.0, 1.0, 1.0)
    return [
        (c, s, complex(cl, sl), complex(cp, sp))
        for (c, cp, cl), (s, sp, sl) in zip(np.cos(half).tolist(), np.sin(half).tolist())
    ]


def _coins(factors: list) -> np.ndarray:
    """``coin_matrix`` of each of K coins, from their ``_coin_factors``,
    stacked into a (K, 2, 2) array."""
    entries = [v for c, s, el, ep in factors for v in (c, -el * s, ep * s, el * ep * c)]
    return np.array(entries, dtype=np.complex128).reshape(len(factors), 2, 2)


def _coin_stacks(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``coin_matrix`` of each row (theta, phi, lam) of a (K, 3) float64
    angle array, stacked into a (K, 2, 2) array, and its derivatives by
    theta, phi and lam, from differentiating its formula entry by entry,
    stacked into a (K, 3, 2, 2) array.
    """
    factors = _coin_factors(angles)
    # The 2x2 entries by theta, then by phi, then by lam.
    derivatives = [
        v
        for c, s, el, ep in factors
        for v in (
            *(-0.5 * s, -0.5 * el * c, 0.5 * ep * c, -0.5 * el * ep * s),
            *(0.0, 0.0, 1j * ep * s, 1j * el * ep * c),
            *(0.0, -1j * el * s, 0.0, 1j * el * ep * c),
        )
    ]
    return _coins(factors), np.array(derivatives, dtype=np.complex128).reshape(len(factors), 3, 2, 2)


def _coin_pair(params: SsqwParams) -> tuple[np.ndarray, np.ndarray]:
    """The two coins of ``params`` as (1, 2, 2) stacks, coin1 then coin2,
    from one ``_coins`` call: each equals ``coin_matrix`` of its angles."""
    coins = _coins(_coin_factors(params.to_array().reshape(2, 3)))
    return coins[:1], coins[1:]


# Handy named coins within the convention above, checked against their
# matrices in the test suite.
IDENTITY_COIN = CoinParams(0.0, 0.0, 0.0)
HADAMARD_COIN = CoinParams(math.pi / 2.0, 0.0, math.pi)
PAULI_X_COIN = CoinParams(math.pi, 0.0, math.pi)
PAULI_Y_COIN = CoinParams(math.pi, math.pi / 2.0, math.pi / 2.0)
PAULI_Z_COIN = CoinParams(0.0, 0.0, math.pi)

_IDENTITY_MATRIX = np.eye(2, dtype=np.complex128)[None]


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


def _move(dst: np.ndarray, src: np.ndarray, right: bool) -> None:
    """Write ``src`` into ``dst`` moved one site around the ring, along
    the last axis: right (x -> x+1) if ``right``, else left. The arrays
    must not overlap. This is the only place that knows how a row moves.
    """
    if right:
        dst[..., 1:] = src[..., :-1]
        dst[..., :1] = src[..., -1:]
    else:
        dst[..., :-1] = src[..., 1:]
        dst[..., -1:] = src[..., :1]


def _light_cone(state: WalkerState, steps: int) -> np.ndarray | None:
    """The light cone of ``steps`` steps from ``state``.

    With ``first`` and ``span`` the state's cached arc
    (``WalkerState._arc``), the cone is ``first - steps`` to
    ``first + span - 1 + steps``, returned as ring indices (mod M) in walk
    order. Each step moves an amplitude by -1, 0 or +1 site, so no site
    outside the cone is ever non-zero. Returns None when the cone covers
    the whole ring, or when no site is occupied.
    """
    m = state.num_positions
    # Any cone holds at least 2 * steps + 1 sites, so the arc need not be
    # found when that covers the ring: a 16-bin fit's gradient calls never
    # find it.
    if 2 * steps + 1 >= m:
        return None
    if state._arc is None:
        return None
    first, span = state._arc
    if span + 2 * steps >= m:
        return None
    return np.arange(first - steps, first + span + steps) % m


def _half_step(up: np.ndarray, dn: np.ndarray, coin: tuple, move_up: bool, right: bool) -> None:
    """Half of a split step, in place: a coin on both coin rows, then one
    row moved one site around the ring.

    ``up`` and ``dn`` are the two coin rows, with sites along their last
    axis; ``coin`` is the 2x2 coin as its four entries (c00, c01, c10,
    c11), each an array of the rows' shape (``_entries``).
    Each new row is formed as ``c[r, 0] * up + c[r, 1] * dn``, the
    expression ``apply_coin`` uses. Then the up row if ``move_up``, else
    the down row, moves one site right if ``right``, else left (``_move``).
    """
    c00, c01, c10, c11 = coin
    if move_up:
        moved = c00 * up + c01 * dn
        dn[...] = c10 * up + c11 * dn
        _move(up, moved, right)
    else:
        moved = c10 * up + c11 * dn
        up[...] = c00 * up + c01 * dn
        _move(dn, moved, right)


def _entries(coin: np.ndarray, shape: tuple[int, ...]) -> tuple:
    """The entries (c00, c01, c10, c11) of each coin of a (B, 2, 2) stack,
    each copied to a contiguous array of the row ``shape``, whose
    second-to-last axis is the batch's (or of length 1, for B = 1).

    A walk copies its coins once, so that every multiply in
    ``_half_step`` is between contiguous arrays of equal shape, numpy's
    fastest path: at 8 rows of 16 sites it took 0.6 us against 1.3 us for
    a (B, 1) column or a stride-0 view, and on one row of 129 sites 0.6 us
    against 1.1 us for a (1, 1)-column view. Rows of tens of thousands of
    elements pay for the copies in memory traffic instead: one row of
    65536 sites took 137 us per multiply against 61 us for a stride-0
    view, and a full-ring ``evolve`` on 2**12 to 2**16 sites 1.3 to 2.0
    times the time of Python scalar coins (timed on one core of a 2-core
    Xeon, numpy 2.4). No benchmark workload steps rows that long.
    """
    out = np.empty((4,) + shape, dtype=np.complex128)
    # Each entry as a (B, 1) column, broadcast along the sites.
    columns = coin.reshape(-1, 4).T[..., None]
    for k in range(4):
        out[k] = columns[k]
    return out[0], out[1], out[2], out[3]


def _walk(
    init: WalkerState, coin1: np.ndarray, coin2: np.ndarray, steps: int, swept: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run ``steps`` split steps from ``init`` under each of B coin pairs,
    stacked as (B, 2, 2) arrays, and check the result.

    Only the start's ``_light_cone`` is stepped: its sites are gathered
    and repeated into a (2, B, w) batch. The cone is that of ``steps``
    steps, or, if the walk will be ``swept`` back by ``_adjoint_sweep``, of
    ``2 * steps``, so that the sweep can run on the same array. Returns
    the final (2, B, w) amplitudes and the cone's w ring sites, or None
    for the whole ring. Every amplitude outside the start's
    ``steps``-step cone stays an exact zero.

    This is where every walk is checked, once: a non-finite amplitude
    raises ValueError, and a row whose norm moved from the start's by more
    than 1e-10 per step (relative to max(1, norm)) raises ArithmeticError,
    which ``python -O`` does not strip.
    """
    sites = _light_cone(init, 2 * steps if swept else steps)
    start = init.amps if sites is None else init.amps[:, sites]
    final = _steps_in_place(np.repeat(start[:, None], len(coin1), axis=1), coin1, coin2, steps)
    if not np.all(np.isfinite(final.view(np.float64))):
        raise ValueError("amplitudes must be finite")
    n0 = float(np.sum(start.real * start.real + start.imag * start.imag))
    norms = _position_probs(final).sum(axis=-1)
    if not np.all(np.abs(norms - n0) <= 1e-10 * steps * max(1.0, n0)):
        raise ArithmeticError(f"{steps} steps moved the norm from {n0!r} to {norms.tolist()!r}")
    return final, sites


def _ring_walk(state: WalkerState, coin1: np.ndarray, coin2: np.ndarray, steps: int) -> WalkerState:
    """``_walk`` from ``state`` under one coin pair, (1, 2, 2) stacks,
    scattered onto the whole ring. Values equal the full-ring run; only
    the signs of exact zeros outside the cone may differ."""
    final, sites = _walk(state, coin1, coin2, steps)
    if sites is None:
        return WalkerState(final[:, 0])
    out = np.zeros(state.amps.shape, dtype=np.complex128)
    out[:, sites] = final[:, 0]
    return WalkerState(out)


def _steps_in_place(out: np.ndarray, coin1: np.ndarray, coin2: np.ndarray, steps: int) -> np.ndarray:
    """Run ``steps`` split steps in place on a (2, B, w) batch under
    (B, 2, 2) coin stacks, and return it.

    Each step is two half-steps: coin1 with the up row moving right, then
    coin2 with the down row moving left. Nothing is validated here:
    ``_walk`` passes amplitudes from a ``WalkerState`` and unitary coins,
    and checks what comes back. A step equals the composed public
    operators bit for bit.
    """
    up, dn = out
    c1, c2 = _entries(coin1, up.shape), _entries(coin2, up.shape)
    for _ in range(steps):
        _half_step(up, dn, c1, move_up=True, right=True)
        _half_step(up, dn, c2, move_up=False, right=False)
    return out


def _adjoint_sweep(
    amps: np.ndarray, seed: np.ndarray, coin1: np.ndarray, coin2: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse sweep for the coin gradients of a real loss L of the final
    state of ``_walk``.

    ``amps`` is the final (2, B, w) batch psi under (B, 2, 2) coin stacks
    and ``seed`` the adjoint lambda of L at it, so that
    dL = 2 Re sum(conj(lambda) * d psi). The sweep undoes the ``steps``
    split steps one at a time, carrying psi and lambda back together
    through ``_half_step`` on their stacked rows, so it stores no
    trajectory. Its half-steps use C-dagger and the opposite
    moves: the later step's C1-dagger (the identity for the last step)
    with the down row moving back right, then C2-dagger with the up row
    moving back left. It returns the accumulators

        G_k = sum over steps and sites of conj(lambda_out) psi_in^T

    at coin k (lambda after the coin, psi before it), for which
    dL/da = 2 Re sum(dC_k/da * G_k) for each angle a of coin k, as one
    (B, 2, 2) stack per coin.

    The sweep runs on the w sites it is given, as a ring. That is exact
    for the sites ``_walk`` steps when ``swept``, the start's cone of
    ``2 * steps`` or the whole ring, if ``seed`` is zero wherever ``amps``
    is, as the MSE's (2/n)(p - q) psi is: after j undone steps psi and
    lambda lie within the final support widened by j sites, so within the
    start's cone of ``steps + j``. Nothing reaches the cone's ends, and its
    wrap-around only moves zeros.
    """
    z = np.stack([amps, seed], axis=1)
    up, dn = z
    # Views of z that the half-steps update in place. The batch axis leads
    # both factors of the accumulator's product.
    lam_rows = np.swapaxes(z[:, 1], 0, -2)
    psi_cols = np.moveaxis(z[:, 0], 0, -1)
    inv1 = _entries(np.swapaxes(coin1, -1, -2).conj(), up.shape)
    inv2 = _entries(np.swapaxes(coin2, -1, -2).conj(), up.shape)
    k1 = np.zeros(coin1.shape, dtype=np.complex128)
    k2 = np.zeros(coin2.shape, dtype=np.complex128)
    c1 = _entries(_IDENTITY_MATRIX, up.shape)
    for _ in range(steps):
        _half_step(up, dn, c1, move_up=False, right=True)
        # K is taken at the coin's output; G = K conj(C) once the sweep ends.
        k2 += lam_rows.conj() @ psi_cols
        _half_step(up, dn, inv2, move_up=True, right=False)
        k1 += lam_rows.conj() @ psi_cols
        c1 = inv1
    return k1 @ coin1.conj(), k2 @ coin2.conj()


def apply_dtqw_step(state: WalkerState, coin: CoinParams) -> WalkerState:
    """One plain walk step: coin, then the full conditional shift.

    This is a split step whose second coin is the identity.
    """
    return _ring_walk(state, coin_matrix(coin)[None], _IDENTITY_MATRIX, 1)


def apply_ssqw_step(state: WalkerState, params: SsqwParams) -> WalkerState:
    """One split step: coin1, S_plus, coin2, S_minus, in that order."""
    return _ring_walk(state, *_coin_pair(params), 1)


def evolve(state: WalkerState, params: SsqwParams, schedule: WalkSchedule) -> WalkerState:
    """Apply ``schedule.steps`` identical split steps."""
    return _ring_walk(state, *_coin_pair(params), schedule.steps)


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
    coins = _coin_pair(params)
    return dense_operator(lambda s: _ring_walk(s, *coins, 1), num_position_qubits)


def dtqw_step_dense(coin: CoinParams, num_position_qubits: int) -> np.ndarray:
    """``apply_dtqw_step`` as a dense matrix; its coin is built once."""
    c = coin_matrix(coin)[None]
    return dense_operator(lambda s: _ring_walk(s, c, _IDENTITY_MATRIX, 1), num_position_qubits)


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
