import json
import math
import os

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
    SsqwParams,
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
    evolve,
    initial_state,
    operator_to_json,
    position_distribution,
    ssqw_step_dense,
    wrap_angle,
)

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
