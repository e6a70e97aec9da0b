"""Dump plain-walk position profiles for a few preset coins.

For each coin the walker starts at the center site and evolves for a fixed
number of steps from three initial coin states: up, down, and the balanced
superposition (|up> + i|down>)/sqrt(2). One CSV per coin, one probability
column per initial state, ready for plotting.

A plain walk step is a split step whose second coin is the identity, so
each profile is one ``evolve`` under that pair.
"""

import argparse
import math
import os

from ssqw import (
    HADAMARD_COIN,
    IDENTITY_COIN,
    PAULI_X_COIN,
    PAULI_Y_COIN,
    PAULI_Z_COIN,
    SsqwParams,
    WalkSchedule,
    evolve,
    initial_state,
    position_distribution,
)
from ssqw.target import _bin_table_csv

COINS = {
    "hadamard": HADAMARD_COIN,
    "identity": IDENTITY_COIN,
    "pauli_x": PAULI_X_COIN,
    "pauli_y": PAULI_Y_COIN,
    "pauli_z": PAULI_Z_COIN,
}

INITS = {
    "up": (1.0, 0.0),
    "down": (0.0, 1.0),
    "balanced": (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
}


def profile(coin, n, steps, alpha, beta):
    state = initial_state(n, alpha, beta, 2 ** (n - 1))
    return position_distribution(evolve(state, SsqwParams(coin, IDENTITY_COIN), WalkSchedule(steps)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qubits", type=int, default=8)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--coins", nargs="+", default=["hadamard", "pauli_x", "pauli_z"],
                    choices=sorted(COINS))
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    m = 2**args.qubits
    for name in args.coins:
        dists = {
            label: profile(COINS[name], args.qubits, args.steps, a, b)
            for label, (a, b) in INITS.items()
        }
        path = os.path.join(args.outdir, f"dtqw_{name}_t{args.steps}.csv")
        with open(path, "w") as fh:
            fh.write(_bin_table_csv(["position", *(f"p_{label}" for label in INITS)], *dists.values()))
        peak = int(dists["balanced"].argmax()) - m // 2
        print(f"{name:9s} wrote {path} (balanced-init peak at center{peak:+d})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
