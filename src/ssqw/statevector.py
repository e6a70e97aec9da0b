"""State of a walker with one coin qubit and a ring of 2**n positions.

Amplitudes are stored coin-major: a flat statevector of length 2 * 2**n
where entry ``c * 2**n + x`` holds the amplitude of coin state ``c`` at
position ``x``. Coin index 0 is "up", index 1 is "down". Internally the
same buffer is viewed as a (2, 2**n) array so operators can act on whole
coin rows at once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

MAX_POSITION_QUBITS = 24
NORM_TOL = 1e-10
UNITARITY_TOL = 1e-10

STATE_FORMAT_VERSION = 1


# The Python types json.loads returns for each JSON kind a key can be required to hold.
_JSON_KINDS = {"number": (int, float), "integer": int, "array": list, "object": dict}


def _json_object(payload, what: str, **kinds: str) -> dict:
    """payload, if it is a JSON object whose every key named in ``kinds``
    holds a value of the JSON kind given for it: "number", "integer",
    "array" or "object" (true and false are none of these).

    Otherwise raises ValueError naming ``what`` and the first missing or
    wrongly typed key.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key, kind in kinds.items():
        if key not in payload:
            raise ValueError(f"{what} has no {key!r} key")
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
            raise ValueError(f"{what} key {key!r} must be a JSON {kind}, got {json.dumps(value)}")
    return payload


def _json_floats(values: list, what: str) -> np.ndarray:
    """The JSON array ``values`` of numbers as a float64 array. An entry
    that is not a JSON number (strings, true and false are not) raises a
    ValueError naming ``what`` and the entry's index; an integer too large
    for a float raises one naming ``what``."""
    for i, value in enumerate(values):
        # type() rather than isinstance(): JSON true and false are not numbers.
        if type(value) not in (int, float):
            raise ValueError(f"{what} entry {i} must be a number, got {json.dumps(value)}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float") from None


def _check_count(value, name: str, least: int = 1) -> int:
    """``value`` as a Python int, if it is a Python or numpy integer
    (``_is_integer``) of at least ``least``, 1 or 0; else raise a
    ValueError naming ``name``. True is no count: it would run and be
    written to an artifact as true. The caller keeps the Python int, which
    json.dumps and random.Random take and a numpy integer they refuse."""
    if not _is_integer(value) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool, which
    Python counts as an int: True would size a ring of 2 sites or index a
    whole coin row."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


@dataclass(frozen=True)
class WalkerState:
    """Immutable walker state.

    ``amps`` has shape (2, num_positions), dtype complex128, and is marked
    read-only on construction. Operations return new states rather than
    mutating in place. Flattening ``amps`` row-major recovers the canonical
    coin-major statevector.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim == 1:
            if amps.size % 2 != 0:
                raise ValueError("flat statevector length must be even")
            amps = amps.reshape(2, -1)
        if amps.ndim != 2 or amps.shape[0] != 2:
            raise ValueError(f"expected shape (2, M), got {amps.shape}")
        m = amps.shape[1]
        n = m.bit_length() - 1
        if m < 2 or (1 << n) != m:
            raise ValueError(f"number of positions must be a power of two >= 2, got {m}")
        if n > MAX_POSITION_QUBITS:
            raise ValueError(f"{n} position qubits exceeds the cap of {MAX_POSITION_QUBITS}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def num_positions(self) -> int:
        return self.amps.shape[1]

    @property
    def num_position_qubits(self) -> int:
        return self.num_positions.bit_length() - 1

    @property
    def flat(self) -> np.ndarray:
        """Canonical coin-major statevector of length 2 * num_positions."""
        return self.amps.reshape(-1)

    def norm_sq(self) -> float:
        return _norm_sq(self.amps)

    @functools.cached_property
    def _arc(self) -> tuple[int, int] | None:
        """``(first, span)`` of the shortest ring arc that holds every site
        with a non-zero amplitude in either coin row: it runs from site
        ``first`` over ``span`` sites, wrapping past site M-1. None when no
        site is occupied. Found once per state: the amplitudes are
        read-only. ``initial_state`` knows its one occupied site and seeds
        it as ``(x0, 1)``, with no search.

        The arc is the complement of the largest cyclic gap between
        consecutive occupied sites, so a support that straddles site 0
        counts as the short arc it is.
        """
        m = self.num_positions
        occupied = np.flatnonzero(np.any(self.amps != 0, axis=0))
        if occupied.size == 0:
            return None
        # gaps[i] is the distance back from occupied[i] to the occupied site
        # before it. gaps[0] spans site 0 and wins ties, so the arc runs from
        # occupied[0] to occupied[-1] unless an inner gap is strictly longer.
        gaps = np.diff(occupied, prepend=occupied[-1] - m)
        k = int(np.argmax(gaps))
        return int(occupied[k]), m - int(gaps[k]) + 1


def initial_state(num_position_qubits: int, alpha: complex, beta: complex, x0: int = 0) -> WalkerState:
    """Product state (alpha |up> + beta |down>) at position ``x0``.

    The coin amplitudes must be normalised: | |alpha|^2 + |beta|^2 - 1 |
    may not exceed 1e-10.
    """
    if not _is_integer(num_position_qubits) or not 1 <= num_position_qubits <= MAX_POSITION_QUBITS:
        raise ValueError(
            f"num_position_qubits must be an integer in [1, {MAX_POSITION_QUBITS}], got {num_position_qubits!r}"
        )
    alpha = complex(alpha)
    beta = complex(beta)
    nrm = abs(alpha) ** 2 + abs(beta) ** 2
    if not math.isfinite(nrm) or abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"coin amplitudes are not normalised: |alpha|^2 + |beta|^2 = {nrm!r}")
    m = 1 << num_position_qubits
    # A bool would index a whole coin row, not one site.
    if not _is_integer(x0):
        raise ValueError(f"x0 must be an integer site, got {x0!r}")
    x0 = int(x0)
    if not 0 <= x0 < m:
        raise ValueError(f"x0 must be in [0, {m}), got {x0}")
    amps = np.zeros((2, m), dtype=np.complex128)
    amps[0, x0] = alpha
    amps[1, x0] = beta
    state = WalkerState(amps)
    # Normalised, so alpha or beta is not zero: x0 is the one occupied site.
    object.__setattr__(state, "_arc", (x0, 1))
    return state


def position_distribution(state: WalkerState) -> np.ndarray:
    """Probability of each position, coin traced out. Sums to the state norm."""
    return _position_probs(state.amps)


def _position_probs(amps: np.ndarray) -> np.ndarray:
    """``position_distribution`` of raw (2, ..., M) amplitudes: the coin
    axis 0 traced out, any further leading axes kept."""
    p = amps.real * amps.real + amps.imag * amps.imag
    return p[0] + p[1]


def _norm_sq(amps: np.ndarray) -> float:
    """The squared norm of raw amplitudes: of a state, or of a walk's start
    on its window, against which every walk from it is checked."""
    return float(np.sum(amps.real * amps.real + amps.imag * amps.imag))


def apply_coin(state: WalkerState, coin: np.ndarray) -> WalkerState:
    """Apply a 2x2 coin unitary to the coin register at every position.

    Rejects matrices that are not unitary to within 1e-10. The product is
    formed elementwise on the two coin rows so repeated runs are bitwise
    reproducible.
    """
    coin = np.asarray(coin, dtype=np.complex128)
    if coin.shape != (2, 2):
        raise ValueError(f"coin must be 2x2, got shape {coin.shape}")
    if not np.all(np.isfinite(coin.view(np.float64))):
        raise ValueError("coin entries must be finite")
    dev = np.abs(coin.conj().T @ coin - np.eye(2)).max()
    if dev > UNITARITY_TOL:
        raise ValueError(f"coin is not unitary: max |C†C - I| = {dev:.3e}")
    up, dn = state.amps
    out = np.empty_like(state.amps)
    out[0] = coin[0, 0] * up + coin[0, 1] * dn
    out[1] = coin[1, 0] * up + coin[1, 1] * dn
    new = WalkerState(out)
    n0, n1 = state.norm_sq(), new.norm_sq()
    if not abs(n1 - n0) <= NORM_TOL * max(1.0, n0):
        raise ArithmeticError(f"coin moved the norm from {n0!r} to {n1!r}")
    return new


def state_to_json(state: WalkerState) -> str:
    """Serialise a state snapshot. Amplitudes are (re, im) pairs in flat order."""
    flat = state.flat
    payload = {
        "format_version": STATE_FORMAT_VERSION,
        "num_position_qubits": state.num_position_qubits,
        "amps": [[float(z.real), float(z.imag)] for z in flat],
    }
    return json.dumps(payload, indent=2) + "\n"


def state_from_json(text: str) -> WalkerState:
    payload = _json_object(
        json.loads(text), "state JSON", amps="array", num_position_qubits="integer"
    )
    if payload.get("format_version") != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format_version: {payload.get('format_version')!r}")
    pairs = payload["amps"]
    # type() rather than isinstance(): JSON true and false are not numbers.
    if not all(isinstance(p, list) and len(p) == 2 and {type(v) for v in p} <= {int, float} for p in pairs):
        raise ValueError("state JSON amps must be [re, im] pairs of numbers")
    flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    state = WalkerState(flat)
    if state.num_position_qubits != payload["num_position_qubits"]:
        raise ValueError("num_position_qubits disagrees with amplitude count")
    return state
