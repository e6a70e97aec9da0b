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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# apply_coin stays importable as ssqw.walk.apply_coin: benchmarks/spans.py
# hooks it by that name.
from .statevector import WalkerState, apply_coin  # noqa: F401

TWO_PI = 2.0 * math.pi

MAX_DENSE_QUBITS = 4

OPERATOR_FORMAT_VERSION = 1


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
        for name in ("theta", "phi", "lam"):
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
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")


def coin_matrix(params: CoinParams) -> np.ndarray:
    """Coin unitary

        [[ cos(theta/2),              -exp(i lam) sin(theta/2)       ],
         [ exp(i phi) sin(theta/2),    exp(i (lam + phi)) cos(theta/2)]]

    which is unitary for any real angles. theta = pi/2, phi = 0, lam = pi
    gives the Hadamard coin.
    """
    t2 = params.theta / 2.0
    c, s = math.cos(t2), math.sin(t2)
    el = complex(math.cos(params.lam), math.sin(params.lam))
    ep = complex(math.cos(params.phi), math.sin(params.phi))
    return np.array([[c, -el * s], [ep * s, el * ep * c]], dtype=np.complex128)


# Handy named coins within the convention above, checked against their
# matrices in the test suite.
IDENTITY_COIN = CoinParams(0.0, 0.0, 0.0)
HADAMARD_COIN = CoinParams(math.pi / 2.0, 0.0, math.pi)
PAULI_X_COIN = CoinParams(math.pi, 0.0, math.pi)
PAULI_Y_COIN = CoinParams(math.pi, math.pi / 2.0, math.pi / 2.0)
PAULI_Z_COIN = CoinParams(0.0, 0.0, math.pi)

_IDENTITY_MATRIX = np.eye(2, dtype=np.complex128)


def apply_shift_dtqw(state: WalkerState) -> WalkerState:
    """Conditional shift: up moves x -> x+1, down moves x -> x-1 (mod ring)."""
    up, dn = state.amps
    out = np.empty_like(state.amps)
    out[0] = np.roll(up, 1)
    out[1] = np.roll(dn, -1)
    return WalkerState(out)


def apply_shift_plus(state: WalkerState) -> WalkerState:
    """Half shift: up moves x -> x+1, down stays."""
    up, dn = state.amps
    out = np.empty_like(state.amps)
    out[0] = np.roll(up, 1)
    out[1] = dn
    return WalkerState(out)


def apply_shift_minus(state: WalkerState) -> WalkerState:
    """Half shift: down moves x -> x-1, up stays."""
    up, dn = state.amps
    out = np.empty_like(state.amps)
    out[0] = up
    out[1] = np.roll(dn, -1)
    return WalkerState(out)


def _run_steps(amps: np.ndarray, coin1: np.ndarray, coin2: np.ndarray, steps: int) -> np.ndarray:
    """Run ``steps`` split steps on a copy of a raw (2, M) amplitude array.

    Each step is coin1, the up row shifted one site right, coin2, the down
    row shifted one site left. The two rows of one working copy are updated
    in place and nothing is validated here: the public wrappers pass
    amplitudes from a ``WalkerState`` and unitary coins. Each coin row is
    formed as ``c[r, 0] * up + c[r, 1] * dn``, the expression ``apply_coin``
    uses, so a step equals the composed public operators bit for bit.
    """
    out = amps.copy()
    up, dn = out
    (a00, a01), (a10, a11) = coin1
    (b00, b01), (b10, b11) = coin2
    for _ in range(steps):
        new_up = a00 * up + a01 * dn
        dn[:] = a10 * up + a11 * dn
        up[1:] = new_up[:-1]
        up[0] = new_up[-1]
        new_dn = b10 * up + b11 * dn
        up[:] = b00 * up + b01 * dn
        dn[:-1] = new_dn[1:]
        dn[-1] = new_dn[0]
    return out


def apply_dtqw_step(state: WalkerState, coin: CoinParams) -> WalkerState:
    """One plain walk step: coin, then the full conditional shift.

    This is a split step whose second coin is the identity.
    """
    return WalkerState(_run_steps(state.amps, coin_matrix(coin), _IDENTITY_MATRIX, 1))


def apply_ssqw_step(state: WalkerState, params: SsqwParams) -> WalkerState:
    """One split step: coin1, S_plus, coin2, S_minus, in that order."""
    c1, c2 = coin_matrix(params.coin1), coin_matrix(params.coin2)
    return WalkerState(_run_steps(state.amps, c1, c2, 1))


def evolve(state: WalkerState, params: SsqwParams, schedule: WalkSchedule) -> WalkerState:
    """Apply ``schedule.steps`` identical split steps."""
    c1, c2 = coin_matrix(params.coin1), coin_matrix(params.coin2)
    out = WalkerState(_run_steps(state.amps, c1, c2, schedule.steps))
    assert abs(out.norm_sq() - state.norm_sq()) <= 1e-10 * schedule.steps * max(1.0, state.norm_sq())
    return out


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
    return dense_operator(lambda s: apply_ssqw_step(s, params), num_position_qubits)


def dtqw_step_dense(coin: CoinParams, num_position_qubits: int) -> np.ndarray:
    return dense_operator(lambda s: apply_dtqw_step(s, coin), num_position_qubits)


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
