import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssqw import (
    WalkerState,
    apply_coin,
    initial_state,
    position_distribution,
    state_from_json,
    state_to_json,
)
from ssqw.statevector import MAX_POSITION_QUBITS

import oracles

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_initial_state_coin_up_basis():
    s = initial_state(4, 1.0, 0.0, 0)
    assert s.flat[0] == 1.0
    assert np.count_nonzero(s.flat) == 1


def test_initial_state_balanced_layout():
    s = initial_state(1, INV_SQRT2, 1j * INV_SQRT2, 0)
    expect = np.array([INV_SQRT2, 0.0, 1j * INV_SQRT2, 0.0])
    np.testing.assert_array_equal(s.flat, expect)


def test_initial_state_down_component():
    s = initial_state(2, 0.0, 1.0, 3)
    assert s.amps[1, 3] == 1.0
    assert np.count_nonzero(s.flat) == 1
    # coin-major flat layout: index c * 2^N + x
    assert s.flat[1 * 4 + 3] == 1.0


def test_flat_layout_matches_grid():
    rng = np.random.default_rng(5)
    s = WalkerState(oracles.random_walker_vec(rng, 8))
    for c in range(2):
        for x in range(8):
            assert s.flat[c * 8 + x] == s.amps[c, x]


@pytest.mark.parametrize(
    "alpha,beta",
    [(1.0, 1.0), (0.5, 0.5), (1.0 + 1e-4, 0.0)],
)
def test_initial_state_rejects_unnormalised_coin(alpha, beta):
    with pytest.raises(ValueError):
        initial_state(3, alpha, beta, 0)


def test_initial_state_rejects_bad_x0():
    with pytest.raises(ValueError):
        initial_state(2, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        initial_state(2, 1.0, 0.0, -1)


def test_initial_state_rejects_a_site_that_is_no_integer():
    # True would index the whole up row, not site 1.
    for x0 in (True, np.bool_(False), 1.0):
        with pytest.raises(ValueError, match="x0 must be an integer site"):
            initial_state(2, 1.0, 0.0, x0)
    assert initial_state(2, 1.0, 0.0, np.int64(3))._arc == (3, 1)


def test_initial_state_seeds_the_arc_a_scan_finds():
    # The seeded arc, there before any read, equals the arc scanned on a
    # state built from the same amplitudes, at every site of 1- to
    # 10-qubit rings, with either coin amplitude zero or neither.
    for n in range(1, 11):
        for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (INV_SQRT2, 1j * INV_SQRT2)):
            for x0 in range(1 << n):
                state = initial_state(n, alpha, beta, x0)
                assert vars(state)["_arc"] == (x0, 1)
                assert WalkerState(state.amps)._arc == (x0, 1)


def test_initial_state_rejects_bad_register():
    with pytest.raises(ValueError):
        initial_state(0, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        initial_state(25, 1.0, 0.0, 0)


def test_initial_state_rejects_a_qubit_count_that_is_no_integer():
    # True would size a ring of 2 sites; 2.0 would fail in 1 << 2.0 with a
    # TypeError. A numpy integer is an integer.
    for n in (True, np.bool_(True), 2.0, "2"):
        with pytest.raises(ValueError, match="num_position_qubits must be an integer in"):
            initial_state(n, 1.0, 0.0, 0)
    assert initial_state(np.int64(2), 1.0, 0.0, 3).num_positions == 4


def test_walker_state_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        WalkerState(np.zeros((2, 3), dtype=np.complex128))


def test_walker_state_rejects_nonfinite():
    amps = np.zeros((2, 4), dtype=np.complex128)
    amps[0, 0] = np.nan
    with pytest.raises(ValueError):
        WalkerState(amps)


def test_walker_state_is_read_only():
    s = initial_state(2, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        s.amps[0, 0] = 0.0


def test_position_distribution_point_mass():
    s = initial_state(3, 1.0, 0.0, 0)
    p = position_distribution(s)
    assert p[0] == 1.0 and p.sum() == 1.0


def test_position_distribution_two_terms():
    amps = np.zeros((2, 4), dtype=np.complex128)
    amps[0, 1] = INV_SQRT2
    amps[1, 3] = INV_SQRT2
    p = position_distribution(WalkerState(amps))
    np.testing.assert_allclose(p, [0.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_position_distribution_born_rule_random():
    rng = np.random.default_rng(11)
    s = WalkerState(oracles.random_walker_vec(rng, 16))
    p = position_distribution(s)
    expect = [abs(s.amps[0, x]) ** 2 + abs(s.amps[1, x]) ** 2 for x in range(16)]
    np.testing.assert_allclose(p, expect, atol=1e-15)
    assert abs(p.sum() - 1.0) <= 1e-10


def test_apply_coin_identity_is_noop():
    rng = np.random.default_rng(3)
    s = WalkerState(oracles.random_walker_vec(rng, 8))
    out = apply_coin(s, np.eye(2, dtype=np.complex128))
    np.testing.assert_array_equal(out.amps, s.amps)


def test_apply_coin_hadamard_on_up():
    s = initial_state(3, 1.0, 0.0, 0)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = apply_coin(s, h)
    assert abs(out.amps[0, 0] - INV_SQRT2) < 1e-15
    assert abs(out.amps[1, 0] - INV_SQRT2) < 1e-15


def test_apply_coin_rejects_nonunitary():
    s = initial_state(2, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        apply_coin(s, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_apply_coin_rejects_bad_shape():
    s = initial_state(2, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        apply_coin(s, np.eye(3))


@settings(max_examples=40, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES, seed=st.integers(0, 2**16))
def test_apply_coin_matches_dense_oracle(theta, phi, lam, seed):
    rng = np.random.default_rng(seed)
    s = WalkerState(oracles.random_walker_vec(rng, 8))
    c = oracles.coin_matrix_ref(theta, phi, lam)
    got = apply_coin(s, c).flat
    expect = oracles.dense_coin(c, 8) @ s.flat
    np.testing.assert_allclose(got, expect, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES, seed=st.integers(0, 2**16))
def test_apply_coin_preserves_norm(theta, phi, lam, seed):
    rng = np.random.default_rng(seed)
    s = WalkerState(oracles.random_walker_vec(rng, 16))
    out = apply_coin(s, oracles.coin_matrix_ref(theta, phi, lam))
    assert abs(out.norm_sq() - 1.0) <= 1e-10


def test_apply_coin_linearity():
    rng = np.random.default_rng(7)
    v1 = oracles.random_walker_vec(rng, 8)
    v2 = oracles.random_walker_vec(rng, 8)
    a, b = 0.3 - 0.2j, 1.1 + 0.7j
    c = oracles.coin_matrix_ref(1.2, 0.4, 2.2)
    combined = apply_coin(WalkerState(a * v1 + b * v2), c).flat
    separate = a * apply_coin(WalkerState(v1), c).flat + b * apply_coin(WalkerState(v2), c).flat
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_state_json_roundtrip_exact():
    rng = np.random.default_rng(19)
    s = WalkerState(oracles.random_walker_vec(rng, 8))
    back = state_from_json(state_to_json(s))
    np.testing.assert_array_equal(back.amps, s.amps)
    assert back.num_position_qubits == s.num_position_qubits


def test_state_json_rejects_wrong_version():
    s = initial_state(2, 1.0, 0.0, 0)
    bad = state_to_json(s).replace('"format_version": 1', '"format_version": 99')
    with pytest.raises(ValueError):
        state_from_json(bad)


@pytest.mark.parametrize("entry", [5, ["a", 1], [1.0], [True, 0.0], None])
def test_state_json_rejects_an_amplitude_that_is_not_a_number_pair(entry):
    payload = json.loads(state_to_json(initial_state(2, 1.0, 0.0, 0)))
    payload["amps"][3] = entry
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        state_from_json(json.dumps(payload))


def test_state_json_rejects_non_object_and_missing_key():
    with pytest.raises(ValueError, match="not a JSON object"):
        state_from_json("[1, 0]")
    payload = json.loads(state_to_json(initial_state(2, 1.0, 0.0, 0)))
    del payload["amps"]
    with pytest.raises(ValueError, match="'amps'"):
        state_from_json(json.dumps(payload))


def _state_json_claiming(num_position_qubits):
    payload = json.loads(state_to_json(initial_state(2, 1.0, 0.0, 0)))
    payload["num_position_qubits"] = num_position_qubits
    return json.dumps(payload)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WalkerState(np.zeros(3)), "flat statevector length must be even"),
        (lambda: WalkerState(np.zeros((3, 4))), r"expected shape \(2, M\), got \(3, 4\)"),
        # A zero-stride view: the cap is checked before any M-site pass.
        (
            lambda: WalkerState(np.broadcast_to(np.complex128(0), (2, 1 << (MAX_POSITION_QUBITS + 1)))),
            f"{MAX_POSITION_QUBITS + 1} position qubits exceeds the cap of {MAX_POSITION_QUBITS}",
        ),
        (lambda: apply_coin(initial_state(2, 1.0, 0.0, 0), [[1.0, 0.0], [0.0, math.nan]]), "coin entries must be finite"),
        (lambda: state_from_json(_state_json_claiming(3)), "num_position_qubits disagrees with amplitude count"),
    ],
    ids=["odd-flat-length", "not-two-rows", "over-the-cap", "non-finite-coin", "qubit-count"],
)
def test_boundary_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
