"""Independent reference implementations for cross-checking the package.

Everything here is rebuilt from first principles with dense linear algebra
and plain Python, sharing no code paths with src/ssqw: dense operators come
from Kronecker products with explicit permutation matrices, the MSE uses
math.fsum, histogram binning is an index loop, and CDFs use math.erf
instead of scipy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

P_UP = np.array([[1.0, 0.0], [0.0, 0.0]])
P_DN = np.array([[0.0, 0.0], [0.0, 1.0]])


def coin_matrix_ref(theta: float, phi: float, lam: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (lam + phi)) * c],
        ],
        dtype=np.complex128,
    )


def coin_stack_ref(angles) -> tuple[np.ndarray, np.ndarray]:
    """The coin and its derivatives by theta, phi and lam for each row
    (theta, phi, lam) of a (K, 3) angle array, as (K, 2, 2) and
    (K, 3, 2, 2) arrays: the scalar formula as nested lists of Python
    numbers, one coin at a time.

    The cosines and sines come from one np.cos and one np.sin call on the
    (K, 3) array of theta/2, phi and lam, so that a comparison checks the
    complex arithmetic and the layout of the stacks, not the trig.
    """
    angles = np.asarray(angles, dtype=np.float64)
    half = np.column_stack([angles[:, 0] / 2.0, angles[:, 1], angles[:, 2]])
    coins, derivatives = [], []
    for (c, cp, cl), (s, sp, sl) in zip(np.cos(half).tolist(), np.sin(half).tolist()):
        ep, el = complex(cp, sp), complex(cl, sl)
        coins.append([[c, -el * s], [ep * s, el * ep * c]])
        derivatives.append(
            [
                [[-0.5 * s, -0.5 * el * c], [0.5 * ep * c, -0.5 * el * ep * s]],
                [[0.0, 0.0], [1j * ep * s, 1j * el * ep * c]],
                [[0.0, -1j * el * s], [0.0, 1j * el * ep * c]],
            ]
        )
    return np.array(coins, dtype=np.complex128), np.array(derivatives, dtype=np.complex128)


def half_step_ref(state: np.ndarray, coin: np.ndarray, move_up: bool, right: bool) -> np.ndarray:
    """Half of a split step on a (2, B, w) state under a (B, 2, 2) coin
    stack, as a new array: each new coin row c[r, 0] * up + c[r, 1] * dn,
    with the coin's entries copied to full (B, w) arrays and each product
    written entry first, then the up row if ``move_up``, else the down
    row, rolled one site right if ``right``, else left, by np.roll.
    """
    up, dn = np.asarray(state, dtype=np.complex128)
    c = [[np.repeat(coin[:, r, k, None], up.shape[-1], axis=-1) for k in (0, 1)] for r in (0, 1)]
    rows = [c[r][0] * up + c[r][1] * dn for r in (0, 1)]
    moved = 0 if move_up else 1
    rows[moved] = np.roll(rows[moved], 1 if right else -1, axis=-1)
    return np.stack(rows)


# The constants of the BFGS generator below, frozen with it.
EVALS_PER_GRADIENT = 4
_ARMIJO = 1e-4


def bfgs_ref(x0: np.ndarray, config):
    """One restart of adjoint-bfgs alone, frozen, with its algebra written
    on the restart's own vectors as np.add.reduce of elementwise products,
    with no BLAS call, and its inverse-Hessian update in its rank-two form:
    the per-restart reference that ``ssqw.optimize.train``'s batched state,
    one row per restart, is checked against.

    It yields each point, the free angles, is sent back ``(f, g)`` there,
    and returns its stop reason and the evaluations charged to it. Running
    a fit's restarts on it one after another, and comparing with train,
    checks that an edit to the batched state moves no bit of any result.
    """
    if config.max_iters < EVALS_PER_GRADIENT:
        yield x0
        return "budget", 1
    x = x0
    f, g = yield x
    charged = EVALS_PER_GRADIENT
    h = None  # inverse-Hessian estimate, set at the first curvature update
    eye = np.eye(x.size)
    while True:
        d = -g if h is None else -np.add.reduce(h * g, axis=-1)
        slope = float(np.add.reduce(g * d))
        if not slope < 0.0:
            return "no-descent", charged
        norm = math.sqrt(float(np.add.reduce(d * d)))
        if norm > config.initial_trust_radius:
            scale = config.initial_trust_radius / norm
            d, slope, norm = d * scale, slope * scale, config.initial_trust_radius
        t = 1.0
        while True:
            if t * norm < config.final_trust_radius:
                return "short-step", charged
            if charged + EVALS_PER_GRADIENT > config.max_iters:
                return "budget", charged
            x_new = x + t * d
            f_new, g_new = yield x_new
            charged += EVALS_PER_GRADIENT
            if f_new <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        s, y = x_new - x, g_new - g
        sy = float(np.add.reduce(s * y))
        if sy > 0.0:
            if h is None:
                h = (sy / float(np.add.reduce(y * y))) * eye
            rho = 1.0 / sy
            u = np.add.reduce(h * y, axis=-1)
            su = s[:, None] * u
            h = h - rho * (su + su.T) + (rho * rho * float(np.add.reduce(y * u)) + rho) * (s[:, None] * s)
        x, f, g = x_new, f_new, g_new


def roll_matrix(m: int, k: int) -> np.ndarray:
    """Permutation R with R|x> = |x + k mod m>."""
    r = np.zeros((m, m))
    for x in range(m):
        r[(x + k) % m, x] = 1.0
    return r


def dense_coin(mat2: np.ndarray, m: int) -> np.ndarray:
    return np.kron(mat2, np.eye(m))


def dense_shift_dtqw(m: int) -> np.ndarray:
    return np.kron(P_UP, roll_matrix(m, +1)) + np.kron(P_DN, roll_matrix(m, -1))


def dense_shift_plus(m: int) -> np.ndarray:
    return np.kron(P_UP, roll_matrix(m, +1)) + np.kron(P_DN, np.eye(m))


def dense_shift_minus(m: int) -> np.ndarray:
    return np.kron(P_UP, np.eye(m)) + np.kron(P_DN, roll_matrix(m, -1))


def dense_dtqw_step(theta: float, phi: float, lam: float, m: int) -> np.ndarray:
    return dense_shift_dtqw(m) @ dense_coin(coin_matrix_ref(theta, phi, lam), m)


def dense_ssqw_step(angles, m: int) -> np.ndarray:
    t1, p1, l1, t2, p2, l2 = angles
    return (
        dense_shift_minus(m)
        @ dense_coin(coin_matrix_ref(t2, p2, l2), m)
        @ dense_shift_plus(m)
        @ dense_coin(coin_matrix_ref(t1, p1, l1), m)
    )


def mse_ref(p, q) -> float:
    # d * d, not d ** 2: libm's pow is not correctly rounded everywhere.
    assert len(p) == len(q)
    return math.fsum(d * d for d in (float(a) - float(b) for a, b in zip(p, q))) / len(p)


def expansion_ref(terms) -> list[float]:
    """An exact expansion of the sum of float ``terms`` by fsum alone: fsum
    of the terms, then fsum of the terms minus the parts so far, until that
    residual is 0."""
    terms, parts = [float(x) for x in terms], []
    while residual := math.fsum(terms + [-x for x in parts]):
        parts.append(residual)
    return parts


def normal_cdf_ref(x: float, mu: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


def lognormal_cdf_ref(x: float, mu: float, sigma: float) -> float:
    if x <= 0.0:
        return 0.0
    return normal_cdf_ref(math.log(x), mu, sigma)


def analytic_histogram_ref(kind: str, mu: float, sigma: float, lo: float, hi: float, n_bins: int):
    cdf = normal_cdf_ref if kind == "normal" else lognormal_cdf_ref
    edges = [lo + (hi - lo) * i / n_bins for i in range(n_bins + 1)]
    raw = [cdf(edges[i + 1], mu, sigma) - cdf(edges[i], mu, sigma) for i in range(n_bins)]
    total = math.fsum(raw)
    return [r / total for r in raw], total


def bin_index_ref(value: float, lo: float, hi: float, n_bins: int):
    """Left-closed right-open bins, last bin closed on both sides."""
    if value < lo or value > hi:
        return None
    if value == hi:
        return n_bins - 1
    w = (hi - lo) / n_bins
    return min(int((value - lo) // w), n_bins - 1)


def histogram_ref(values, lo: float, hi: float, n_bins: int):
    counts = [0] * n_bins
    kept = 0
    for v in values:
        i = bin_index_ref(float(v), lo, hi, n_bins)
        if i is not None:
            counts[i] += 1
            kept += 1
    return counts, kept


def expected_payoff_ref(probs, lo: float, hi: float, strike: float) -> float:
    n = len(probs)
    w = (hi - lo) / n
    return math.fsum(float(p) * max(lo + (i + 0.5) * w - strike, 0.0) for i, p in enumerate(probs))


def mc_truncated_lognormal_payoff(
    mu_log: float,
    sigma_log: float,
    lo: float,
    hi: float,
    strike: float,
    n_samples: int,
    seed: int,
) -> float:
    """Monte Carlo E[max(S - K, 0)] with S lognormal truncated to (lo, hi).

    Uses the Philox generator so the stream is unrelated to the PCG64
    streams used inside the package.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    kept = []
    need = n_samples
    while need > 0:
        draw = rng.lognormal(mu_log, sigma_log, max(2 * need, 65536))
        good = draw[(draw > lo) & (draw < hi)]
        take = good[:need]
        kept.append(take)
        need -= take.size
    samples = np.concatenate(kept)
    return float(np.mean(np.maximum(samples - strike, 0.0)))


def random_walker_vec(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random normalised flat statevector of length 2m."""
    v = rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
    return v / np.linalg.norm(v)


def random_prob_vec(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.random(n) + 1e-12
    return v / v.sum()
