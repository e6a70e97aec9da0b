import contextlib
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssqw import (
    HADAMARD_COIN,
    IDENTITY_COIN,
    PAULI_X_COIN,
    PAULI_Y_COIN,
    PAULI_Z_COIN,
    CoinParams,
    Domain,
    SsqwParams,
    TargetDistribution,
    WalkerState,
    WalkSchedule,
    apply_coin,
    apply_dtqw_step,
    apply_shift_dtqw,
    apply_shift_minus,
    apply_shift_plus,
    apply_ssqw_step,
    coin_matrix,
    dense_operator,
    dtqw_step_dense,
    evolve,
    initial_state,
    operator_to_json,
    position_distribution,
    ssqw_step_dense,
    wrap_angle,
)
from ssqw import walk
from ssqw.optimize import _mse_and_gradient, objective

import oracles

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

HERE = os.path.dirname(__file__)


def angles_tuple():
    return st.tuples(ANGLES, ANGLES, ANGLES, ANGLES, ANGLES, ANGLES)


# ------------------------------------------------------------------ coins


def test_coin_matrix_identity():
    np.testing.assert_array_equal(coin_matrix(IDENTITY_COIN), np.eye(2, dtype=np.complex128))


def test_coin_matrix_named_presets():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    np.testing.assert_allclose(coin_matrix(HADAMARD_COIN), h, atol=1e-15)
    np.testing.assert_allclose(coin_matrix(PAULI_X_COIN), [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(coin_matrix(PAULI_Z_COIN), [[1, 0], [0, -1]], atol=1e-15)
    np.testing.assert_allclose(coin_matrix(PAULI_Y_COIN), [[0, -1j], [1j, 0]], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_coin_matrix_matches_substitution_oracle(theta, phi, lam):
    got = coin_matrix(CoinParams(theta, phi, lam))
    np.testing.assert_allclose(got, oracles.coin_matrix_ref(theta, phi, lam), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_coin_matrix_unitary(theta, phi, lam):
    c = coin_matrix(CoinParams(theta, phi, lam))
    np.testing.assert_allclose(c.conj().T @ c, np.eye(2), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_coin_matrix_theta_period_4pi(theta, phi, lam):
    a = coin_matrix(CoinParams(theta, phi, lam))
    b = coin_matrix(CoinParams(theta + 4.0 * math.pi, phi, lam))
    np.testing.assert_allclose(a, b, atol=1e-12)


# Negatives, multiples of pi/2 (exact zeros of sin at 0 and -0.0), values
# above 2*pi and +-1e6.
COIN_STACK_ANGLES = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    st.sampled_from([k * math.pi / 2.0 for k in range(-8, 9)] + [-0.0, 1e6, -1e6]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[COIN_STACK_ANGLES] * 3), min_size=1, max_size=12))
def test_coin_stacks_replay_the_scalar_formula(rows):
    angles = np.array(rows, dtype=np.float64)
    coins, derivatives = walk._coin_stacks(angles)
    ref_coins, ref_derivatives = oracles.coin_stack_ref(angles)
    assert coins.tobytes() == ref_coins.tobytes()
    assert derivatives.tobytes() == ref_derivatives.tobytes()
    # coin_matrix is the one-row case.
    row = angles[:1]
    assert coin_matrix(CoinParams(*row[0])).tobytes() == oracles.coin_stack_ref(row)[0][0].tobytes()


def test_coin_params_reject_nonfinite():
    with pytest.raises(ValueError):
        CoinParams(math.nan)
    with pytest.raises(ValueError):
        CoinParams(0.0, math.inf, 0.0)


@settings(max_examples=40, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_wrapped_params_same_matrix(theta, phi, lam):
    p = CoinParams(theta, phi, lam)
    w = p.wrapped()
    assert 0.0 <= w.theta < 2.0 * math.pi
    assert 0.0 <= w.phi < 2.0 * math.pi
    assert 0.0 <= w.lam < 2.0 * math.pi
    # wrapping by 2*pi can flip the global sign of the matrix but never
    # changes any output probability
    a = coin_matrix(p)
    b = coin_matrix(w)
    np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-12)


def test_wrap_angle_values():
    assert abs(wrap_angle(-0.1) - (2.0 * math.pi - 0.1)) < 1e-15
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(7.0) - (7.0 - 2.0 * math.pi)) < 1e-15


def test_ssqw_params_array_roundtrip():
    p = SsqwParams(CoinParams(0.1, 0.2, 0.3), CoinParams(0.4, 0.5, 0.6))
    np.testing.assert_array_equal(p.to_array(), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert SsqwParams.from_array(p.to_array()) == p


def test_walk_schedule_validation():
    with pytest.raises(ValueError):
        WalkSchedule(0)
    with pytest.raises(ValueError):
        WalkSchedule(-3)


# ----------------------------------------------------------------- shifts


def test_shift_dtqw_basis_moves():
    up = initial_state(2, 1.0, 0.0, 0)
    assert apply_shift_dtqw(up).amps[0, 1] == 1.0
    dn = initial_state(2, 0.0, 1.0, 0)
    assert apply_shift_dtqw(dn).amps[1, 3] == 1.0


def test_shift_dtqw_superposition():
    s = initial_state(3, INV_SQRT2, INV_SQRT2, 2)
    out = apply_shift_dtqw(s)
    assert abs(out.amps[0, 3] - INV_SQRT2) < 1e-15
    assert abs(out.amps[1, 1] - INV_SQRT2) < 1e-15


def test_shift_plus_moves_up_only():
    up = initial_state(3, 1.0, 0.0, 0)
    assert apply_shift_plus(up).amps[0, 1] == 1.0
    dn = initial_state(3, 0.0, 1.0, 5)
    np.testing.assert_array_equal(apply_shift_plus(dn).amps, dn.amps)


def test_shift_minus_moves_down_only():
    dn = initial_state(1, 0.0, 1.0, 1)
    assert apply_shift_minus(dn).amps[1, 0] == 1.0
    up = initial_state(1, 1.0, 0.0, 1)
    np.testing.assert_array_equal(apply_shift_minus(up).amps, up.amps)


def test_half_shifts_compose_to_full_shift_exactly():
    rng = np.random.default_rng(23)
    for m in (2, 4, 8):
        s = WalkerState(oracles.random_walker_vec(rng, m))
        got = apply_shift_minus(apply_shift_plus(s))
        expect = apply_shift_dtqw(s)
        np.testing.assert_array_equal(got.amps, expect.amps)

        angles = rng.uniform(-7.0, 7.0, size=6)
        p = SsqwParams.from_array(angles)
        composed = apply_shift_minus(
            apply_coin(apply_shift_plus(apply_coin(s, coin_matrix(p.coin1))), coin_matrix(p.coin2))
        )
        assert apply_ssqw_step(s, p).amps.tobytes() == composed.amps.tobytes()
        c = CoinParams(*angles[:3])
        np.testing.assert_array_equal(
            apply_dtqw_step(s, c).amps, apply_shift_dtqw(apply_coin(s, coin_matrix(c))).amps
        )


def test_shifts_match_dense_oracle():
    rng = np.random.default_rng(29)
    builders = [
        (apply_shift_dtqw, oracles.dense_shift_dtqw),
        (apply_shift_plus, oracles.dense_shift_plus),
        (apply_shift_minus, oracles.dense_shift_minus),
    ]
    for n in (1, 2, 3):
        m = 1 << n
        s = WalkerState(oracles.random_walker_vec(rng, m))
        for fast, dense in builders:
            np.testing.assert_allclose(fast(s).flat, dense(m) @ s.flat, atol=1e-15)


def test_shift_minus_is_adjoint_of_down_increment():
    m = 8
    down_inc = np.kron(oracles.P_UP, np.eye(m)) + np.kron(oracles.P_DN, oracles.roll_matrix(m, +1))
    np.testing.assert_array_equal(oracles.dense_shift_minus(m), down_inc.conj().T)
    got = dense_operator(apply_shift_minus, 3)
    np.testing.assert_allclose(got, down_inc.conj().T, atol=1e-15)


# ------------------------------------------------------------------ steps


def test_dtqw_step_hadamard_one_step():
    c = 8
    s = initial_state(4, 1.0, 0.0, c)
    out = apply_dtqw_step(s, HADAMARD_COIN)
    assert abs(out.amps[0, c + 1] - INV_SQRT2) < 1e-15
    assert abs(out.amps[1, c - 1] - INV_SQRT2) < 1e-15
    p = position_distribution(out)
    np.testing.assert_allclose([p[c - 1], p[c + 1]], [0.5, 0.5], atol=1e-15)


def test_dtqw_step_identity_transports():
    s = initial_state(3, 1.0, 0.0, 6)
    for t in range(1, 5):
        s = apply_dtqw_step(s, IDENTITY_COIN)
    assert position_distribution(s)[(6 + 4) % 8] == 1.0


def test_dtqw_hadamard_two_steps_hand_values():
    c = 8
    s = initial_state(4, 1.0, 0.0, c)
    for _ in range(2):
        s = apply_dtqw_step(s, HADAMARD_COIN)
    p = position_distribution(s)
    np.testing.assert_allclose([p[c - 2], p[c], p[c + 2]], [0.25, 0.5, 0.25], atol=1e-14)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_dtqw_two_steps_matches_dense_oracle():
    s = initial_state(4, 1.0, 0.0, 8)
    w = oracles.dense_dtqw_step(math.pi / 2.0, 0.0, math.pi, 16)
    expect = w @ (w @ s.flat)
    got = apply_dtqw_step(apply_dtqw_step(s, HADAMARD_COIN), HADAMARD_COIN)
    np.testing.assert_allclose(got.flat, expect, atol=1e-12)


def test_ssqw_identity_coins_transport():
    eye = SsqwParams(IDENTITY_COIN, IDENTITY_COIN)
    up = initial_state(3, 1.0, 0.0, 3)
    assert apply_ssqw_step(up, eye).amps[0, 4] == 1.0
    dn = initial_state(3, 0.0, 1.0, 3)
    assert apply_ssqw_step(dn, eye).amps[1, 2] == 1.0
    out = evolve(initial_state(3, 1.0, 0.0, 0), eye, WalkSchedule(3))
    assert out.amps[0, 3] == 1.0


@settings(max_examples=30, deadline=None)
@given(angles=angles_tuple(), seed=st.integers(0, 2**16))
def test_ssqw_step_matches_dense_oracle(angles, seed):
    params = SsqwParams.from_array(np.array(angles))
    for n in (1, 2, 3):
        m = 1 << n
        rng = np.random.default_rng(seed + n)
        s = WalkerState(oracles.random_walker_vec(rng, m))
        got = apply_ssqw_step(s, params).flat
        np.testing.assert_allclose(got, oracles.dense_ssqw_step(angles, m) @ s.flat, atol=1e-12)


def test_ssqw_step_dense_factorisation():
    angles = (0.9, 1.7, 0.2, 2.5, 0.8, 1.3)
    params = SsqwParams.from_array(np.array(angles))
    w = ssqw_step_dense(params, 3)
    np.testing.assert_allclose(w, oracles.dense_ssqw_step(angles, 8), atol=1e-12)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(16), atol=1e-12)


def test_evolve_t1_equals_single_step():
    params = SsqwParams(CoinParams(1.0, 0.5, 0.2), CoinParams(2.2, 0.1, 1.8))
    s = initial_state(3, INV_SQRT2, 1j * INV_SQRT2, 4)
    np.testing.assert_array_equal(
        evolve(s, params, WalkSchedule(1)).amps, apply_ssqw_step(s, params).amps
    )


def test_evolve_composition_exact():
    params = SsqwParams(CoinParams(0.8, 0.3, 2.0), CoinParams(1.9, 1.1, 0.4))
    s = initial_state(4, 1.0, 0.0, 8)
    whole = evolve(s, params, WalkSchedule(5))
    split = evolve(evolve(s, params, WalkSchedule(2)), params, WalkSchedule(3))
    np.testing.assert_array_equal(whole.amps, split.amps)


def test_evolve_benchmark_register_matches_dense_power():
    angles = (1.3, 0.25, 0.75, 2.4, 1.6, 0.1)
    params = SsqwParams.from_array(np.array(angles))
    s = initial_state(4, 1.0, 0.0, 8)
    got = position_distribution(evolve(s, params, WalkSchedule(7)))
    w = oracles.dense_ssqw_step(angles, 16)
    vec = np.linalg.matrix_power(w, 7) @ s.flat
    expect = np.abs(vec[:16]) ** 2 + np.abs(vec[16:]) ** 2
    np.testing.assert_allclose(got, expect, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(angles=angles_tuple(), t=st.integers(1, 10), seed=st.integers(0, 2**16))
def test_evolve_preserves_norm(angles, t, seed):
    rng = np.random.default_rng(seed)
    s = WalkerState(oracles.random_walker_vec(rng, 16))
    out = evolve(s, SsqwParams.from_array(np.array(angles)), WalkSchedule(t))
    assert abs(out.norm_sq() - 1.0) <= 1e-10 * t


@pytest.mark.parametrize("record", [False, True])
def test_walk_check_puts_finiteness_before_the_norm(record):
    # A non-finite coin entry makes its row's amplitudes and norm
    # non-finite: the walk raises the ValueError for the amplitudes, not
    # the ArithmeticError for the norm. A finite coin that is not unitary
    # raises the ArithmeticError.
    walker = walk._Walker(initial_state(4, 0.6, 0.8j, 8), 3, 2, record)
    unitary = walk._coin_pair(SsqwParams(CoinParams(1.3, 0.2, 0.7), CoinParams(0.6, 2.1, 1.4)))
    for bad in (math.nan, math.inf):
        coins = np.concatenate([unitary, unitary])
        coins[1, 0, 1, 0] = bad
        # inf times an exact zero amplitude warns of an invalid value.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^amplitudes must be finite$"):
            walker.forward(coins)
    with pytest.raises(ArithmeticError, match="3 steps moved the norm"):
        walker.forward(2.0 * np.concatenate([unitary, unitary]))


# ------------------------------------------------------------- light cone


@contextlib.contextmanager
def step_loop_widths():
    """Record the number of sites of every walk's final batch, as the walk
    checks it: every walk, recorded or not, is checked once, on the
    sites it stepped."""
    widths = []
    check = walk._checked

    def recording(final, *args):
        widths.append(final.shape[-1])
        return check(final, *args)

    with mock.patch.object(walk, "_checked", recording):
        yield widths


@contextlib.contextmanager
def half_step_widths():
    """Record the number of sites w of every half-step a walk runs, in
    order, read from the walk's flat call lists: each half-step is five
    calls, and its third writes the row that stays, (B, w)."""
    widths = []
    forward, sweep = walk._Walker.forward, walk._Walker.sweep

    def recording_forward(self, coins):
        widths.extend([call[3].shape[-1] for call in self.calls[2::5]] * self.repeats)
        return forward(self, coins)

    def recording_sweep(self, coef):
        widths.extend(call[3].shape[-1] for call in self.back_calls[2::5])
        return sweep(self, coef)

    with (
        mock.patch.object(walk._Walker, "forward", recording_forward),
        mock.patch.object(walk._Walker, "sweep", recording_sweep),
    ):
        yield widths


def run_plan(plan):
    """Make a half-step plan's calls in order, as a walk makes them."""
    for ufunc, a, b, out in plan:
        ufunc(a, b, out)


@st.composite
def localized_runs(draw):
    """A state on 2**1..2**10 sites with a contiguous support, and 1..40 steps.

    The support mostly ends near site M-1, so its light cone wraps past
    site 0; it may also start near site 0 or itself wrap. Over half of the
    draws put the cone width w + 2t between M/2 and M, or at M - 1, M or
    M + 1. The end sites may hold amplitude in one coin row only.
    """
    m = 1 << draw(st.integers(1, 10))
    steps = draw(st.integers(1, 40))
    cone = draw(st.sampled_from([None, None, None, m // 2 + 1, 3 * m // 4, m - 1, m, m + 1]))
    if cone is not None and cone - 2 >= 1:
        steps = min(steps, (cone - 1) // 2)
        w = cone - 2 * steps
    else:
        w = draw(st.integers(1, m))
    k = draw(st.integers(0, min(3, m - w)))
    side = draw(st.sampled_from(["ends-near-last", "ends-near-last", "starts-near-0", "wraps"]))
    first = {"ends-near-last": m - w - k, "starts-near-0": k, "wraps": m - 1 - min(k, w - 1)}[side]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros((2, m), dtype=np.complex128)
    sites = np.arange(first, first + w) % m
    amps[:, sites] = rng.normal(size=(2, w)) + 1j * rng.normal(size=(2, w))
    for end in {sites[0], sites[-1]}:
        amps[draw(st.sampled_from([(), (0,), (1,)])), end] = 0.0
    return WalkerState(amps / np.sqrt(np.sum(np.abs(amps) ** 2))), steps


def _arc(state):
    """The first site and the length of the shortest ring arc that holds
    every occupied site of ``state``, which starts at one of them."""
    m = state.num_positions
    occupied = np.flatnonzero(position_distribution(state))
    span, first = min((int(((occupied - r) % m).max()) + 1, int(r)) for r in occupied)
    return first, span


@settings(max_examples=150, deadline=None)
@given(run=localized_runs(), angles=angles_tuple())
def test_windowed_steps_equal_full_ring(run, angles):
    state, steps = run
    m = state.num_positions
    params = SsqwParams.from_array(np.array(angles))
    _, span = _arc(state)

    def full_ring(pair):
        # The walk on the window 0..M-1, whatever the start's cone.
        with mock.patch.object(walk, "_light_cone", lambda state, steps: np.arange(state.num_positions)):
            ring = walk._Walker(state, steps, 1, record=False)
        return ring.forward(pair).final[:, 0]

    with step_loop_widths() as widths:
        got = evolve(state, params, WalkSchedule(steps)).amps
    assert widths == [min(span + 2 * steps, m)]
    # array_equal treats -0.0 and 0.0 as equal: only the signs of exact
    # zeros outside the cone may differ from the full-ring run.
    assert np.array_equal(got, full_ring(walk._coin_pair(params)))

    ssqw_state, dtqw_state = state, state
    for _ in range(steps):
        ssqw_state = apply_ssqw_step(ssqw_state, params)
        dtqw_state = apply_dtqw_step(dtqw_state, params.coin1)
    assert np.array_equal(ssqw_state.amps, got)
    assert np.array_equal(dtqw_state.amps, full_ring(walk._coin_pair(SsqwParams(params.coin1, IDENTITY_COIN))))

    if m <= 32:
        w_ssqw = np.linalg.matrix_power(oracles.dense_ssqw_step(angles, m), steps)
        np.testing.assert_allclose(got.reshape(-1), w_ssqw @ state.flat, atol=1e-12)
        w_dtqw = np.linalg.matrix_power(oracles.dense_dtqw_step(*angles[:3], m), steps)
        np.testing.assert_allclose(dtqw_state.flat, w_dtqw @ state.flat, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(run=localized_runs(), angles=angles_tuple(), gradient=st.booleans())
def test_walk_steps_exactly_the_light_cone(run, angles, gradient):
    # A value and a value-and-gradient call both step the start's cone of
    # t steps, whatever share of the ring it covers, and the whole ring,
    # as the window 0..M-1, only once the cone reaches all M sites.
    state, steps = run
    m = state.num_positions
    params = SsqwParams.from_array(np.array(angles))
    first, span = _arc(state)
    assert state._arc == (first, span)
    cone = np.sort(np.arange(first - steps, first + span + steps) % m) if span + 2 * steps < m else np.arange(m)
    target = TargetDistribution(np.full(m, 1.0 / m), Domain(0.0, float(m)))
    with step_loop_widths() as widths:
        if gradient:
            _mse_and_gradient(params.to_array()[None], target, WalkSchedule(steps), state)
        else:
            evolve(state, params, WalkSchedule(steps))
    assert widths == [cone.size]
    walker = walk._Walker(state, steps, 1, record=gradient)
    final, sites, _, _ = walker.forward(walk._coin_pair(params))
    np.testing.assert_array_equal(sites, cone)
    # The batch of one row, recorded or not, scatters to evolve's state.
    assert final.shape == (2, 1, sites.size)
    ring = np.zeros((2, m), dtype=np.complex128)
    ring[:, sites] = final[:, 0]
    assert np.array_equal(ring, evolve(state, params, WalkSchedule(steps)).amps)
    # The record opens with the start, on the cone, and ends with the
    # final state; an unrecorded walk steps its one slot from the one to
    # the other.
    slots = 2 * steps + 1 if gradient else 1
    assert walker.states.shape == (slots, 2, 1, sites.size)
    assert np.shares_memory(final, walker.states[-1])
    if gradient:
        assert np.array_equal(walker.states[0, :, 0], state.amps[:, sites])


def test_step_loop_runs_only_the_light_cone():
    # A work count, not a timing: 64 steps from one site of a 2**16-site
    # ring touch 129 sites, and the 16-bin, 7-step fit's final evolve 15
    # of the 16. 20 steps from site M-2 of 2**10 sites touch 41, and 20
    # more from the 41 sites that fills, which straddle site 0, touch 81.
    params = SsqwParams(CoinParams(1.3, 0.2, 0.7), CoinParams(0.6, 2.1, 1.4))
    with step_loop_widths() as widths:
        evolve(initial_state(16, 1.0, 0.0, 1 << 15), params, WalkSchedule(64))
        evolve(initial_state(4, 1.0, 0.0, 8), params, WalkSchedule(7))
        wrapped = evolve(initial_state(10, 1.0, 0.0, (1 << 10) - 2), params, WalkSchedule(20))
        evolve(wrapped, params, WalkSchedule(20))
    assert widths == [129, 15, 41, 81]


def test_adjoint_sweep_runs_only_the_light_cone():
    # A value-and-gradient call steps the start's light cone of its steps,
    # forward and back: 64 steps from one site of 2**16 sites touch 129
    # sites, and the 16-bin, 7-step fit 15 of its 16. 10 steps from the
    # centre of 2**6 sites touch 21. 20 steps from site M-2 of 2**10 sites
    # touch 41, straddling site 0. Each step is two half-steps. The sweep
    # undoes as many steps, but the last step's S_minus needs no coin and
    # is a move alone, so it runs one half-step fewer.
    params = SsqwParams(CoinParams(1.3, 0.2, 0.7), CoinParams(0.6, 2.1, 1.4))
    rng = np.random.default_rng(43)
    with half_step_widths() as widths:
        for n, site, steps in ((16, 1 << 15, 64), (4, 8, 7), (6, 32, 10), (10, (1 << 10) - 2, 20)):
            m = 1 << n
            target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
            init = initial_state(n, 1.0, 0.0, site)
            _mse_and_gradient(params.to_array()[None], target, WalkSchedule(steps), init)
    assert widths == [129] * 255 + [15] * 27 + [21] * 39 + [41] * 79


def coin_views(coins, shape, move_up, right):
    """``walk._coin_views`` of a (B, 2, 2) coin stack for states of
    ``shape`` (B, w), its entries laid out as a ``walk._Walker`` lays out
    each coin's, and its own product buffer."""
    entries = np.empty((2, 2) + shape, dtype=np.complex128)
    entries[...] = coins.transpose(1, 2, 0)[..., None]
    products = np.empty((2, 2) + shape, dtype=np.complex128)
    return walk._coin_views(entries, products, move_up, right)


@st.composite
def half_step_cases(draw):
    """A (2, B, w) state and a (B, 2, 2) stack of unitary coins, B in 1..9
    and w in 2..40, from a seed."""
    b, w = draw(st.integers(1, 9)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=(2, b, w)) + 1j * rng.normal(size=(2, b, w))
    coins = walk._coin_stacks(rng.uniform(0.0, 2.0 * math.pi, (b, 3)))[0]
    return state, coins


@settings(max_examples=150, deadline=None)
@given(case=half_step_cases(), move_up=st.booleans(), right=st.booleans())
def test_half_step_plan_equals_the_two_term_expressions(case, move_up, right):
    # Every planned half-step, the forward ones (up right, down left) and
    # the sweep's (up left, down right), against the reference bit for bit.
    state, coins = case
    want = oracles.half_step_ref(state, coins, move_up, right)
    got = state.copy()
    views = coin_views(coins, got.shape[1:], move_up, right)
    plan = walk._half_step(got, got, views)
    run_plan(plan)
    assert got.tobytes() == want.tobytes()
    # Run again, the same views step the state the plan was built on.
    run_plan(plan)
    assert got.tobytes() == oracles.half_step_ref(want, coins, move_up, right).tobytes()
    # A state that is not C-contiguous would be flattened into copies.
    fortran = np.asfortranarray(state)
    with pytest.raises(ValueError, match="C-contiguous"):
        walk._half_step(fortran, fortran, views)


@settings(max_examples=150, deadline=None)
@given(case=half_step_cases(), move_up=st.booleans(), right=st.booleans())
def test_out_of_place_half_step_equals_the_in_place_plan(case, move_up, right):
    # A recorded walk steps from one slot of its record into the next: the
    # plan from src into dst writes what the in-place plan writes, bit for
    # bit, and leaves src as it was.
    state, coins = case
    views = coin_views(coins, state.shape[1:], move_up, right)
    in_place = state.copy()
    run_plan(walk._half_step(in_place, in_place, views))
    src, dst = state.copy(), np.full_like(state, np.nan)
    plan = walk._half_step(src, dst, views)
    run_plan(plan)
    assert dst.tobytes() == in_place.tobytes()
    assert src.tobytes() == state.tobytes()
    # Run again from a new source through the same views.
    src[...] = in_place
    run_plan(plan)
    run_plan(walk._half_step(in_place, in_place, views))
    assert dst.tobytes() == in_place.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=half_step_cases(), record=st.booleans())
def test_walker_leaves_its_start_as_it_was(case, record):
    # Every row of a walk starts from the start's amplitudes, which each
    # call copies into the walk's first slot: the rows step as the
    # reference steps a batch broadcast from the start, and the start's
    # amplitudes are left as they were.
    state, coins = case
    m = 1 << (state.shape[-1].bit_length() - 1)
    init = WalkerState(state[:, 0, :m])
    before = init.amps.tobytes()
    coins2 = coins[::-1]
    want = np.broadcast_to(init.amps[:, None], (2, len(coins), m))
    for _ in range(2):
        want = oracles.half_step_ref(want, coins, move_up=True, right=True)
        want = oracles.half_step_ref(want, coins2, move_up=False, right=False)
    got = walk._Walker(init, 2, len(coins), record).forward(np.stack([coins, coins2], axis=1))
    assert np.array_equal(got.sites, np.arange(m))
    assert got.final.tobytes() == want.tobytes()
    assert init.amps.tobytes() == before


@contextlib.contextmanager
def planned():
    """Count the half-step plans and the coin and direction view sets of
    every walk built inside."""
    counts = {"plans": 0, "views": 0}
    half_step, coin_views = walk._half_step, walk._coin_views

    def plan(*args):
        counts["plans"] += 1
        return half_step(*args)

    def views(*args):
        counts["views"] += 1
        return coin_views(*args)

    with mock.patch.object(walk, "_half_step", plan), mock.patch.object(walk, "_coin_views", views):
        yield counts


@pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
def test_planning_stays_flat_in_the_steps(record):
    # An unrecorded walk plans its two half-steps, one per coin, whatever
    # its steps, and a recorded walk its 2t forward and 2t - 1 back ones.
    # Either builds the views of each coin and direction once: 2 sets, and
    # 2 more for the sweep. A second forward call starts from the start
    # again, so it repeats the first one's final state.
    params = [SsqwParams(CoinParams(1.3, 0.2, 0.7), CoinParams(0.6, 2.1, 1.4)), SsqwParams.balanced()]
    pairs = np.concatenate([walk._coin_pair(p) for p in params])
    init = initial_state(10, 0.6, 0.8j, 3)
    for steps in (1, 64):
        with planned() as counts:
            walker = walk._Walker(init, steps, len(pairs), record)
        assert counts == ({"plans": 4 * steps - 1, "views": 4} if record else {"plans": 2, "views": 2})
        first = walker.forward(pairs).final.copy()
        if record:
            walker.sweep(np.linspace(-1.0, 1.0, first.shape[-1]))
        assert walker.forward(pairs).final.tobytes() == first.tobytes()
    if not record:
        # The evolve-wide objective: 64 steps on 2**16 sites, two plans.
        m = 1 << 16
        target = TargetDistribution(np.full(m, 1.0 / m), Domain(0.0, float(m)))
        with planned() as counts:
            objective(params[0], target, WalkSchedule(64), initial_state(16, 1.0, 0.0, m // 2))
        assert counts == {"plans": 2, "views": 2}


def _batched_rows_equal_single_calls(init, coins1, coins2, steps, sites):
    """Each row of a batched recorded walk and sweep, as bytes, against
    its own recorded walk of one row, all on the start's light cone,
    which has ``sites`` sites."""
    init = WalkerState(init)
    assert walk._light_cone(init, steps).size == sites

    def recorded(c1, c2):
        run = walk._Walker(init, steps, len(c1), record=True)
        return run, run.forward(np.stack([c1, c2], axis=1)).final.copy()

    batched, final = recorded(coins1, coins2)
    # An MSE-style seed: zero wherever the final state is.
    coef = np.linspace(-1.0, 1.0, sites)
    k1, k2 = batched.sweep(coef)
    for b in range(len(coins1)):
        c1, c2 = coins1[b : b + 1], coins2[b : b + 1]
        single, single_final = recorded(c1, c2)
        assert final[:, b].tobytes() == single_final[:, 0].tobytes()
        g1, g2 = single.sweep(coef)
        assert (k1[b].tobytes(), k2[b].tobytes()) == (g1[0].tobytes(), g2[0].tobytes())


def test_batched_kernel_rows_equal_single_calls():
    rng = np.random.default_rng(41)

    def coins(*params):
        return (
            np.stack([coin_matrix(p.coin1) for p in params]),
            np.stack([coin_matrix(p.coin2) for p in params]),
        )

    def random_params(n):
        return [SsqwParams.from_array(rng.uniform(0.0, 2.0 * math.pi, 6)) for _ in range(n)]

    # The 16-bin fit's full ring, from a random state.
    init = oracles.random_walker_vec(rng, 16).reshape(2, 16)
    _batched_rows_equal_single_calls(init, *coins(*random_params(5)), 7, 16)
    # A coin-up start at M-9 of 2**10 sites, 8 steps. The identity row's
    # final state is the one site M-1 and the random rows fill M-17..M-1,
    # the start's cone, on which every row runs.
    m = 1 << 10
    init = initial_state(10, 1.0, 0.0, m - 9).amps
    identity = SsqwParams(IDENTITY_COIN, IDENTITY_COIN)
    _batched_rows_equal_single_calls(init, *coins(identity, *random_params(4)), 8, 17)
    # From site 1, the cone wraps past site 0.
    init = initial_state(10, 0.6, 0.8j, 1).amps
    _batched_rows_equal_single_calls(init, *coins(*random_params(3)), 8, 17)


def test_evolve_linearity():
    rng = np.random.default_rng(31)
    v1 = oracles.random_walker_vec(rng, 8)
    v2 = oracles.random_walker_vec(rng, 8)
    a, b = 0.6 - 0.1j, -0.2 + 0.9j
    params = SsqwParams(CoinParams(1.4, 2.0, 0.3), CoinParams(0.7, 0.2, 2.8))
    sched = WalkSchedule(4)
    combined = evolve(WalkerState(a * v1 + b * v2), params, sched).flat
    separate = a * evolve(WalkerState(v1), params, sched).flat + b * evolve(
        WalkerState(v2), params, sched
    ).flat
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_distribution_invariant_under_theta_plus_4pi():
    base = (1.1, 0.4, 2.6, 2.0, 1.2, 0.5)
    s = initial_state(4, 1.0, 0.0, 8)
    sched = WalkSchedule(7)
    p0 = position_distribution(evolve(s, SsqwParams.from_array(np.array(base)), sched))
    for idx in (0, 3):
        shifted = list(base)
        shifted[idx] += 4.0 * math.pi
        p1 = position_distribution(evolve(s, SsqwParams.from_array(np.array(shifted)), sched))
        np.testing.assert_allclose(p1, p0, atol=1e-12)


def test_dtqw_symmetric_init_mirror_before_wrap():
    # balanced init at the ring centre keeps the Hadamard walk exactly
    # mirror-symmetric until the wavefront wraps
    n = 6
    c = 1 << (n - 1)
    s = initial_state(n, INV_SQRT2, 1j * INV_SQRT2, c)
    for t in range(1, (1 << (n - 1)) - 1):
        s = apply_dtqw_step(s, HADAMARD_COIN)
        p = position_distribution(s)
        for d in range(1, c):
            assert abs(p[c + d] - p[c - d]) <= 1e-10


# ------------------------------------------------------ dense dump helpers


def test_dense_operator_rejects_large_register():
    with pytest.raises(ValueError):
        dense_operator(apply_shift_dtqw, 5)


def test_operator_json_roundtrip():
    w = ssqw_step_dense(SsqwParams(CoinParams(0.3), CoinParams(1.2)), 1)
    payload = json.loads(operator_to_json(w))
    assert payload["dim"] == 4
    entries = np.array(payload["entries"])
    back = (entries[:, 0] + 1j * entries[:, 1]).reshape(4, 4)
    np.testing.assert_array_equal(back, w)


def test_golden_snapshot_evolution():
    with open(os.path.join(HERE, "data", "golden_state_n2_t3.json")) as fh:
        golden = json.load(fh)
    params = SsqwParams.from_array(np.array(golden["angles"]))
    alpha = complex(*golden["alpha"])
    beta = complex(*golden["beta"])
    s = initial_state(golden["num_position_qubits"], alpha, beta, golden["x0"])
    out = evolve(s, params, WalkSchedule(golden["steps"]))
    expect = np.array([complex(re, im) for re, im in golden["amps"]])
    np.testing.assert_allclose(out.flat, expect, atol=1e-12)


@pytest.mark.parametrize(
    "coin", [IDENTITY_COIN, HADAMARD_COIN, PAULI_X_COIN, PAULI_Y_COIN, PAULI_Z_COIN],
    ids=["identity", "hadamard", "pauli-x", "pauli-y", "pauli-z"],
)
def test_dtqw_step_dense_matches_the_oracle(coin):
    for n in range(1, 5):
        w = dtqw_step_dense(coin, n)
        np.testing.assert_allclose(w, oracles.dense_dtqw_step(coin.theta, coin.phi, coin.lam, 1 << n), atol=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SsqwParams.from_array(np.zeros(5)), r"expected 6 angles, got shape \(5,\)"),
        (lambda: operator_to_json(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    ],
    ids=["five-angles", "non-square-operator"],
)
def test_boundary_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
