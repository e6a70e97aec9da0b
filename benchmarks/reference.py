"""Computations that time the machine rather than the package.

``numpy_walk`` is an independent split-step loop: the output checks compare
the package against it, and the references below reuse it. The references
use only numpy, SciPy and this directory, never ssqw, so no change to the
package moves them.

Why the benchmark needs them: on a shared host the same operation's wall
time swings by up to 2x within minutes while CPU time equals wall time, so
other tenants change the speed of the cores themselves. Timing a fixed
reference right before and right after each operation, and dividing,
cancels that drift. ``fit`` mirrors ``train``'s mix of pure-Python COBYLA
bookkeeping and small-array numpy; ``wide`` mirrors ``evolve``'s passes
over a 2**16-site state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

REFERENCE_ANGLES = np.array([1.1, 0.4, 5.9, 2.0, 0.9, 0.2])


def numpy_walk(amps: np.ndarray, angles: np.ndarray, steps: int) -> np.ndarray:
    """Independent split-step loop: returns the final (2, M) amplitudes.

    Coin matrices come from the six angles by the documented convention
    [[cos(t/2), -e^{il} sin(t/2)], [e^{ip} sin(t/2), e^{i(l+p)} cos(t/2)]].
    """
    coins = []
    for theta, phi, lam in (angles[:3], angles[3:]):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        el, ep = complex(math.cos(lam), math.sin(lam)), complex(math.cos(phi), math.sin(phi))
        coins.append(((c, -el * s), (ep * s, el * ep * c)))
    (a, b), (c, d) = coins[0]
    (e, f), (g, h) = coins[1]
    up, dn = np.array(amps[0]), np.array(amps[1])
    for _ in range(steps):
        up, dn = a * up + b * dn, c * up + d * dn
        up = np.roll(up, 1)
        up, dn = e * up + f * dn, g * up + h * dn
        dn = np.roll(dn, -1)
    return np.stack([up, dn])


def _start(num_positions: int) -> np.ndarray:
    amps = np.zeros((2, num_positions), dtype=np.complex128)
    amps[0, num_positions // 2] = 1.0
    return amps


class Reference:
    """One fixed reference computation, ``fit`` or ``wide``."""

    def __init__(self, kind: str):
        if kind == "fit":
            self._amps = _start(16)
            cdf = stats.norm.cdf(np.linspace(0.0, 15.0, 17), 7.5, 1.875)
            self._target = np.diff(cdf) / (cdf[-1] - cdf[0])
            self.run = self._fit
        else:
            self._amps = _start(1 << 16)
            self.run = self._wide

    def _mse(self, x: np.ndarray) -> float:
        amps = numpy_walk(self._amps, x, 7)
        d = (amps.real**2 + amps.imag**2).sum(axis=0) - self._target
        return float(np.mean(d * d))

    def _fit(self) -> None:
        """150 COBYLA evaluations of a 16-site, 7-step fit: about 0.2-0.3 s."""
        optimize.minimize(self._mse, np.ones(6), method="COBYLA", options={"rhobeg": 0.5, "maxiter": 150})

    def _wide(self) -> None:
        """48 split steps on a 2**16-site ring: about 0.07 s."""
        numpy_walk(self._amps, REFERENCE_ANGLES, 48)
