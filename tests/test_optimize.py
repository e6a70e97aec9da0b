import contextlib
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssqw import (
    CoinParams,
    Domain,
    DistSpec,
    OptimizerConfig,
    SsqwParams,
    TargetDistribution,
    WalkSchedule,
    analytic_histogram,
    evolve,
    initial_state,
    mse,
    objective,
    position_distribution,
    train,
    training_result_json_dict,
)

from ssqw.optimize import (
    EVALS_PER_GRADIENT,
    OPTIMIZER_NAME,
    TrainingResult,
    _free_angles,
    _mse_and_gradient,
    _reach_floor,
    _restart_starts,
    _start_state,
)
from ssqw import optimize, walk
from ssqw.statevector import WalkerState, _position_probs
from ssqw.walk import _light_cone

import oracles

DOM = Domain(0.0, 15.0)

KNOWN_PARAMS = SsqwParams(CoinParams(1.1, 0.4, 5.9), CoinParams(2.0, 0.9, 0.2))


def self_generated_target(params=KNOWN_PARAMS, steps=7):
    init = initial_state(4, 1.0, 0.0, 8)
    p = position_distribution(evolve(init, params, WalkSchedule(steps)))
    return TargetDistribution(p, DOM, {"source": "ssqw-self"})


def ring_symmetric_target():
    # centred on the middle of bin 8 so bin masses pair up around site 8
    center = 8.5 * 15.0 / 16.0
    return analytic_histogram(DistSpec("normal", center, 1.875), DOM, 16)


def ring_asymmetry(p, x0=8):
    n = len(p)
    return max(abs(p[(x0 + d) % n] - p[(x0 - d) % n]) for d in range(1, n // 2))


# -------------------------------------------------------------------- mse


def test_mse_identical_is_zero():
    p = np.full(16, 1.0 / 16.0)
    assert mse(p, p) == 0.0


def test_mse_basis_vectors_quarter():
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0, 0.0])
    assert mse(a, b) == 0.5


def test_mse_matches_fsum_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.choice([8, 16, 32]))
        p = oracles.random_prob_vec(rng, n)
        q = oracles.random_prob_vec(rng, n)
        assert abs(mse(p, q) - oracles.mse_ref(p, q)) <= 1e-15


def test_mse_validation():
    with pytest.raises(ValueError):
        mse(np.full(8, 1.0 / 8.0), np.full(16, 1.0 / 16.0))
    with pytest.raises(ValueError):
        mse(np.full(8, 0.2), np.full(8, 1.0 / 8.0))
    # A non-finite vector has no sum near 1: a NaN sum, and inf - inf.
    q = np.full(3, 1.0 / 3.0)
    for bad in ([math.nan, 0.5, 0.5], [math.inf, -math.inf, 1.0]):
        for p, r in ((bad, q), (q, bad)):
            with pytest.raises(ValueError, match="sums to nan"):
                mse(p, r)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_mse_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = oracles.random_prob_vec(rng, 16)
    q = oracles.random_prob_vec(rng, 16)
    assert mse(p, q) >= 0.0
    assert mse(p, q) == mse(q, p)


# -------------------------------------------------------------- objective


def test_objective_self_distance_zero():
    target = self_generated_target()
    init = initial_state(4, 1.0, 0.0, 8)
    assert objective(KNOWN_PARAMS, target, WalkSchedule(7), init) == 0.0


def test_objective_identity_coins_vs_uniform_closed_form():
    target = analytic_histogram(DistSpec("uniform"), DOM, 16)
    init = initial_state(4, 1.0, 0.0, 8)
    eye = SsqwParams(CoinParams(0.0), CoinParams(0.0))
    got = objective(eye, target, WalkSchedule(7), init)
    # point mass at site 15 against uniform: ((1 - 1/16)^2 + 15/16^2) / 16
    assert got == 0.05859375


def test_objective_is_pure():
    target = ring_symmetric_target()
    init = initial_state(4, 1.0, 0.0, 8)
    p = SsqwParams(CoinParams(0.7, 1.1, 0.3), CoinParams(2.1, 0.2, 1.4))
    assert objective(p, target, WalkSchedule(7), init) == objective(
        p, target, WalkSchedule(7), init
    )


def test_objective_continuity_in_angles():
    target = ring_symmetric_target()
    init = initial_state(4, 1.0, 0.0, 8)
    base = np.array([1.3, 0.4, 0.9, 2.0, 0.6, 1.7])
    f0 = objective(SsqwParams.from_array(base), target, WalkSchedule(7), init)
    for i in range(6):
        x = base.copy()
        x[i] += 1e-9
        f1 = objective(SsqwParams.from_array(x), target, WalkSchedule(7), init)
        assert abs(f1 - f0) < 1e-7


def test_objective_shape_mismatch():
    target = ring_symmetric_target()
    init = initial_state(3, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        objective(KNOWN_PARAMS, target, WalkSchedule(7), init)


# ---------------------------------------------------- windowed value path


ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def localized_fits(draw):
    """A state on 2**3..2**10 sites whose occupied sites lie on an arc of
    w sites from a random first site (arcs past site M-1 straddle site 0),
    some of them left empty; 1..M/4 + 1 steps; and a random target with
    some bins at exactly 0."""
    m = 1 << draw(st.integers(3, 10))
    steps = draw(st.integers(1, m // 4 + 1))
    w = draw(st.integers(1, m // draw(st.sampled_from([1, 8, 8]))))
    first = draw(st.integers(0, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(w) < draw(st.floats(0.1, 1.0))
    keep[0] = True
    sites = (first + np.flatnonzero(keep)) % m
    amps = np.zeros((2, m), dtype=np.complex128)
    amps[:, sites] = rng.normal(size=(2, sites.size)) + 1j * rng.normal(size=(2, sites.size))
    amps[draw(st.sampled_from([(), (0,), (1,)])), sites[-1]] = 0.0
    q = oracles.random_prob_vec(rng, m)
    q[rng.random(m) < 0.2] = 0.0
    target = TargetDistribution(q / q.sum(), Domain(0.0, float(m)))
    return WalkerState(amps / np.sqrt(np.sum(np.abs(amps) ** 2))), WalkSchedule(steps), target


@settings(max_examples=150, deadline=None)
@given(fit=localized_fits(), angles=st.tuples(*[ANGLES] * 6))
def test_objective_equals_mse_of_the_full_ring_walk(fit, angles):
    init, schedule, target = fit
    params = SsqwParams.from_array(np.array(angles))
    full = mse(target.probs, position_distribution(evolve(init, params, schedule)))
    assert objective(params, target, schedule, init) == full


def full_ring_mse_and_gradient(angles, target, schedule, init):
    """_mse_and_gradient on M-site arrays: the recorded walk on the window
    0..M-1, mse() per row, and the sweep from the ring."""
    (coin1, dcoin1), (coin2, dcoin2) = (
        walk._coin_stacks(angles[:, :3]),
        walk._coin_stacks(angles[:, 3:]),
    )
    with mock.patch.object(walk, "_light_cone", lambda state, steps: np.arange(state.num_positions)):
        ring = walk._Walker(init, schedule.steps, len(angles), record=True)
    final = ring.forward(np.stack([coin1, coin2], axis=1)).final
    assert final.shape[-1] == init.num_positions
    p = _position_probs(final)
    values = [mse(target.probs, row) for row in p]
    g1, g2 = ring.sweep((2.0 / p.shape[-1]) * (p - target.probs))
    grad = [2.0 * np.real(np.sum(d * g[:, None], axis=(2, 3))) for d, g in ((dcoin1, g1), (dcoin2, g2))]
    return values, np.concatenate(grad, axis=1)


def test_windowed_gradient_equals_the_full_ring_formula():
    rng = np.random.default_rng(53)
    starts = [
        # The window M-17..M-1 ends at the ring's last site.
        (initial_state(10, 0.6, 0.8j, (1 << 10) - 9), 8),
        # The window wraps past site 0, and so does the walk's support
        # from step 2 on: the sums run in ring order, not walk order.
        (initial_state(10, 0.6, 0.8j, 1), 8),
        # A one-site start: a window of 17 sites.
        (initial_state(12, 1.0, 0.0, 5), 8),
        # The start's cone of 33 steps covers all 64 sites: the whole ring.
        (initial_state(6, 1.0, 0.0, 32), 33),
        # The 16-bin fit: a window of 15 of the 16 sites.
        (initial_state(4, 1.0, 0.0, 8), 7),
    ]
    for init, steps in starts:
        m = init.num_positions
        target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
        schedule = WalkSchedule(steps)
        params = rng.uniform(0.0, 2.0 * math.pi, (3, 6))
        # Diagonal coins move a coin-up start right by one site a step:
        # its final state is the one site x0 + steps, where the other
        # coins fill x0 - steps..x0 + steps.
        diagonal = np.array([[0.0, 0.4, 1.9, 0.0, 2.3, 0.7]])
        for rows in (params, params[:1], diagonal):
            values, grads = _mse_and_gradient(rows, target, schedule, init)
            full_values, full_grads = full_ring_mse_and_gradient(rows, target, schedule, init)
            assert np.array(values).tobytes() == np.array(full_values).tobytes()
            assert grads.tobytes() == full_grads.tobytes()


def test_accumulators_summed_in_step_chunks_keep_their_bits():
    # With room for one step's terms, or for three, the sums run a chunk of
    # steps at a time and give the bits of one chunk, on a window that
    # wraps past site 0 and on the whole ring.
    rng = np.random.default_rng(61)
    for init, steps in ((initial_state(10, 0.6, 0.8j, 1), 8), (initial_state(4, 1.0, 0.0, 8), 9)):
        m = init.num_positions
        target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
        rows = rng.uniform(0.0, 2.0 * math.pi, (3, 6))
        _, grads = _mse_and_gradient(rows, target, WalkSchedule(steps), init)
        w = min(2 * steps + 1, m)
        for room in (1, 3 * w * 8 * len(rows) * 16):
            with mock.patch.object(walk, "_TERMS_BYTES", room):
                _, chunked = _mse_and_gradient(rows, target, WalkSchedule(steps), init)
            assert chunked.tobytes() == grads.tobytes()


def test_objective_rejects_a_walk_whose_mass_is_not_1():
    # A start of norm 2 keeps its norm, but its distribution sums to 2:
    # mse() rejected it, and the windowed and full-ring paths still do.
    for n, x0, steps in ((10, 3, 8), (4, 8, 7)):
        m = 1 << n
        init = WalkerState(np.sqrt(2.0) * initial_state(n, 1.0, 0.0, x0).amps)
        target = TargetDistribution(np.full(m, 1.0 / m), Domain(0.0, float(m)))
        with pytest.raises(ValueError, match="not 1 within"):
            objective(KNOWN_PARAMS, target, WalkSchedule(steps), init)
        with pytest.raises(ValueError, match="not 1 within"):
            _mse_and_gradient(KNOWN_PARAMS.to_array()[None], target, WalkSchedule(steps), init)


def test_localized_objective_builds_no_ring_state():
    # A one-site start on 2**12 sites, 8 steps: neither objective nor a
    # value-and-gradient call builds a WalkerState or calls evolve.
    m = 1 << 12
    init = initial_state(12, 1.0, 0.0, 100)
    target = TargetDistribution(oracles.random_prob_vec(np.random.default_rng(59), m), Domain(0.0, float(m)))
    schedule = WalkSchedule(8)
    built = []
    post_init = WalkerState.__post_init__

    def refuse(*args, **kwargs):
        raise AssertionError("evolve called")

    def recording_post_init(self):
        built.append(self)
        post_init(self)

    with (
        mock.patch.object(optimize, "evolve", refuse),
        mock.patch.object(walk, "evolve", refuse),
        mock.patch.object(WalkerState, "__post_init__", recording_post_init),
    ):
        objective(KNOWN_PARAMS, target, schedule, init)
        objective(KNOWN_PARAMS, target, schedule, init)
        _mse_and_gradient(KNOWN_PARAMS.to_array()[None], target, schedule, init)
    assert built == []


def test_start_arc_is_found_once_per_state():
    # A one-site start on 2**12 sites, 8 steps: two objective values, a
    # value-and-gradient call and the reach floor all read the start's
    # cached arc, so its 4096 sites are searched once. On 16 sites the
    # 16-bin fit's 7-step value-and-gradient call and value share one
    # search of their start's arc, and an 8-step walk, whose cone covers
    # the ring, reads the same cached arc.
    m = 1 << 12
    init = initial_state(12, 1.0, 0.0, 100)
    target = TargetDistribution(oracles.random_prob_vec(np.random.default_rng(59), m), Domain(0.0, float(m)))
    schedule = WalkSchedule(8)
    small = initial_state(4, 1.0, 0.0, 8)
    small_target = self_generated_target()
    searched = []
    arc = WalkerState.__dict__["_arc"]
    search = arc.func

    def recording(state):
        searched.append(state.num_positions)
        return search(state)

    with mock.patch.object(arc, "func", recording):
        objective(KNOWN_PARAMS, target, schedule, init)
        objective(KNOWN_PARAMS, target, schedule, init)
        _mse_and_gradient(KNOWN_PARAMS.to_array()[None], target, schedule, init)
        assert _reach_floor(target, init, schedule)[0] > 0.0
        _mse_and_gradient(KNOWN_PARAMS.to_array()[None], small_target, WalkSchedule(7), small)
        objective(KNOWN_PARAMS, small_target, WalkSchedule(7), small)
        objective(KNOWN_PARAMS, small_target, WalkSchedule(8), small)
        assert _reach_floor(small_target, small, WalkSchedule(8)) == (0.0, 0.0)
    assert searched == [m, 16]


# ------------------------------------------------- objective's kept walk


def slot_triples():
    """Three (init, schedule, target) triples: a one-site start on 2**12
    sites at 8 steps, a 16-bin 8-step walk whose cone covers the ring, and
    a cone that wraps past site 0."""
    rng = np.random.default_rng(71)
    triples = []
    for init, steps in (
        (initial_state(12, 1.0, 0.0, 100), 8),
        (initial_state(4, 1.0, 0.0, 8), 8),
        (initial_state(10, 0.6, 0.8j, 1), 8),
    ):
        m = init.num_positions
        target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
        triples.append((init, WalkSchedule(steps), target))
    return triples


def full_ring_value(params, init, schedule, target):
    return mse(target.probs, position_distribution(evolve(init, params, schedule)))


def test_objective_keeps_its_bits_across_alternating_triples():
    # objective keeps one walk and score row, for the last triple it saw:
    # calls that alternate three triples, twice in a row on each, miss and
    # hit it in turn, and every value is that of the M-site walk. So do
    # triples that differ from one of them in one member alone: the start,
    # the steps (a 7-step cone of 15 of the 16 sites) or the target.
    (init, schedule, target), (small, _, small_target), wrapped = slot_triples()
    rng = np.random.default_rng(73)
    m = wrapped[2].n_bins
    assert _light_cone(wrapped[0], 8).tolist() == [*range(10), *range(m - 7, m)]
    other = TargetDistribution(oracles.random_prob_vec(rng, target.n_bins), target.domain)
    # Each triple differs from the one before it in one member, but for
    # the 16-bin one and the wrapped cone.
    triples = [
        (init, schedule, target),
        (initial_state(12, 1.0, 0.0, 200), schedule, target),
        (init, schedule, target),
        (init, schedule, other),
        (small, WalkSchedule(8), small_target),
        (small, WalkSchedule(7), small_target),
        wrapped,
    ]
    for _ in range(3):
        for init, schedule, target in triples:
            for angles in rng.uniform(0.0, 2.0 * math.pi, (2, 6)):
                params = SsqwParams.from_array(angles)
                assert objective(params, target, schedule, init) == full_ring_value(params, init, schedule, target)


def test_a_failed_objective_leaves_the_next_call_correct():
    # A call that raises, from a non-unitary coin pair on a kept walk or a
    # start on the wrong grid, leaves the next call's value exact.
    init, schedule, target = slot_triples()[0]
    params = SsqwParams.from_array(np.array([1.3, 0.4, 0.9, 2.0, 0.6, 1.7]))
    want = full_ring_value(params, init, schedule, target)
    assert objective(KNOWN_PARAMS, target, schedule, init) != want
    pair = optimize._coin_pair
    with mock.patch.object(optimize, "_coin_pair", lambda p: 1.1 * pair(p)):
        with pytest.raises(ArithmeticError):
            objective(params, target, schedule, init)
    assert objective(params, target, schedule, init) == want
    with pytest.raises(ValueError, match="initial state has 16 positions"):
        objective(params, target, schedule, initial_state(4, 1.0, 0.0, 8))
    assert objective(params, target, schedule, init) == want


@pytest.mark.parametrize("shared", [False, True], ids=["own-triples", "one-triple"])
def test_objective_on_threads_gives_the_single_threaded_values(shared):
    # Three threads each make 200 calls, on a triple of its own or all on
    # one, with the interpreter switching threads as often as it can: a
    # call holds the kept entry alone, so no two calls share a walk or a
    # score row.
    triples = slot_triples()
    if shared:
        triples = triples[1:2] * 3
    rng = np.random.default_rng(79)
    params = [[SsqwParams.from_array(a) for a in rng.uniform(0.0, 2.0 * math.pi, (200, 6))] for _ in triples]
    want = [[objective(p, target, schedule, init) for p in ps] for ps, (init, schedule, target) in zip(params, triples)]
    got = [[] for _ in triples]
    barrier = threading.Barrier(len(triples))

    def calls(k):
        init, schedule, target = triples[k]
        barrier.wait()
        got[k].extend(objective(p, target, schedule, init) for p in params[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls, args=(k,)) for k in range(len(triples))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_objective_keeps_no_caller_state_alive():
    init, schedule, target = slot_triples()[0]
    objective(KNOWN_PARAMS, target, schedule, init)
    objective(KNOWN_PARAMS, target, schedule, init)
    refs = weakref.ref(init), weakref.ref(target)
    del init, target
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert optimize._kept == []
    # Either one going empties the slot.
    for drop in ("init", "target"):
        triple = dict(zip(("init", "schedule", "target"), slot_triples()[0]))
        objective(KNOWN_PARAMS, triple["target"], triple["schedule"], triple["init"])
        assert len(optimize._kept) == 1
        del triple[drop]
        gc.collect()
        assert optimize._kept == []


def test_warm_objective_allocates_no_ring_sized_array():
    # The evolve-wide shape: a one-site start on 2**16 sites, 64 steps. A
    # second call reuses the first one's walk and score row, so nothing it
    # allocates grows with the ring: one float64 row of it is 512 KiB.
    m = 1 << 16
    init = initial_state(16, 1.0, 0.0, m // 2)
    target = TargetDistribution(oracles.random_prob_vec(np.random.default_rng(83), m), Domain(0.0, float(m)))
    schedule = WalkSchedule(64)
    objective(KNOWN_PARAMS, target, schedule, init)
    tracemalloc.start()
    try:
        objective(KNOWN_PARAMS, target, schedule, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_norm_checks_survive_python_O(tmp_path):
    # Under -O, with every planned half-step scaling the amplitudes by 1.1,
    # every norm check still raises ArithmeticError: evolve's, the one-step
    # operators', the objective's and the gradient's, all in walk._checked,
    # and apply_coin's. ssqw train exits 5.
    # The script itself cannot use assert, which -O strips.
    code = f"""
import numpy as np
from ssqw import cli, optimize, statevector, walk
from ssqw import *

if __debug__:
    raise SystemExit("not run under -O")
kernel = walk._half_step


def leaky(src, dst, *args, **kwargs):
    return kernel(src, dst, *args, **kwargs) + ((np.multiply, dst, 1.1, dst),)


walk._half_step = leaky


def raises_arithmetic(fn, *args):
    try:
        fn(*args)
    except ArithmeticError:
        return
    raise SystemExit(f"{{fn.__name__}} did not raise ArithmeticError")


params = SsqwParams.from_array(np.arange(1.0, 7.0))
for n, x0, steps in ((4, 8, 7), (10, 1020, 8)):
    m = 1 << n
    init = initial_state(n, 1.0, 0.0, x0)
    target = TargetDistribution(np.full(m, 1.0 / m), Domain(0.0, float(m)))
    raises_arithmetic(evolve, init, params, WalkSchedule(steps))
    raises_arithmetic(apply_ssqw_step, init, params)
    raises_arithmetic(apply_dtqw_step, init, params.coin1)
    raises_arithmetic(objective, params, target, WalkSchedule(steps), init)
    raises_arithmetic(optimize._mse_and_gradient, params.to_array()[None], target, WalkSchedule(steps), init)
state = initial_state(2, 1.0, 0.0, 1)
norm_sq = WalkerState.norm_sq
WalkerState.norm_sq = lambda self: 1.0 if self is state else 1.1
raises_arithmetic(statevector.apply_coin, state, np.eye(2))
WalkerState.norm_sq = norm_sq
target = {str(tmp_path / "target.json")!r}
if cli.main(["gen-target", "--kind", "normal", "--analytic", "--out", target]) != 0:
    raise SystemExit("gen-target failed")
code = cli.main(["train", "--target", target, "--max-iters", "8", "--out", {str(tmp_path / "r.json")!r}])
if code != cli.EXIT_OPTIMIZER:
    raise SystemExit(f"train exited {{code}}")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "optimiser failed" in proc.stderr


# ------------------------------------------------------------------ train


def test_train_fixed_point_zero_mse():
    target = self_generated_target()
    config = OptimizerConfig(initial_params=KNOWN_PARAMS, restarts=1, seed=0)
    result = train(target, config)
    assert result.best_mse == 0.0
    assert result.mse_history[0] == 0.0


def test_train_result_invariants():
    target = ring_symmetric_target()
    config = OptimizerConfig(max_iters=120, restarts=2, seed=4)
    result = train(target, config)
    assert result.best_mse == min(result.mse_history)
    assert result.iterations_used == len(result.mse_history)
    assert result.iterations_used <= 2 * 120
    assert all(n <= 120 for n in result.metadata["evals_per_restart"])
    assert result.best_mse >= 0.0
    # reproducing the trained distribution from best_params
    init = initial_state(4, 1.0, 0.0, 8)
    again = objective(result.best_params, target, config.steps, init)
    assert abs(again - result.best_mse) <= 1e-14
    np.testing.assert_allclose(
        result.trained_dist,
        position_distribution(evolve(init, result.best_params, config.steps)),
        atol=1e-15,
    )


def test_train_never_worse_than_start():
    target = ring_symmetric_target()
    config = OptimizerConfig(max_iters=40, restarts=1, seed=2)
    result = train(target, config)
    init = initial_state(4, 1.0, 0.0, 8)
    start = objective(config.initial_params, target, config.steps, init)
    assert result.best_mse <= start
    assert result.mse_history[0] == start


def test_train_deterministic_given_seed():
    target = ring_symmetric_target()
    config = OptimizerConfig(max_iters=60, restarts=2, seed=11)
    a = train(target, config)
    b = train(target, config)
    assert a.mse_history == b.mse_history
    assert a.best_mse == b.best_mse
    np.testing.assert_array_equal(a.trained_dist, b.trained_dist)
    assert a.best_params == b.best_params


def test_train_seed_changes_restart_draws():
    target = ring_symmetric_target()
    a = train(target, OptimizerConfig(max_iters=40, restarts=2, seed=0))
    b = train(target, OptimizerConfig(max_iters=40, restarts=2, seed=1))
    assert a.mse_history != b.mse_history


LARGE_SEEDS = [2**32 - 1, 2**32, 2**40 + 5, 2**63, 2**64 - 1, 2**64, 2**100 + 3, 2**128 + 7, 2**200 + 11]


def test_restart_starts_are_the_standard_librarys_stream():
    # train draws its restart starts from the standard library's Mersenne
    # Twister, without importing numpy's random module: restart r >= 1 takes
    # the next size draws of random.Random(seed).uniform(0, 2 pi), bit for
    # bit, for seeds of one to seven 32-bit words, both modes' sizes and 1
    # to 16 restarts. Every seed is checked at 16 restarts, and at
    # 1 + seed % 16; the large ones at all.
    for seed in [*range(500), *LARGE_SEEDS]:
        for size in (6, 2):
            rng = random.Random(seed)
            draws = [np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(size)]).tobytes() for _ in range(15)]
            counts = range(1, 17) if seed in LARGE_SEEDS else (16, 1 + seed % 16)
            for count in counts:
                starts = _restart_starts(seed, count, size)
                assert all(x.dtype == np.float64 and x.shape == (size,) for x in starts)
                assert [x.tobytes() for x in starts] == draws[: count - 1], (seed, size, count)
    # Python documents that random() repeats its sequence for a seed across
    # releases; these literals catch an interpreter whose stream differs.
    first = {
        0: ["0x1.538feaa4932bap+2", "0x1.30caa304974b0p+2", "0x1.523e656599dc9p+1",
            "0x1.a07766c4120e8p+0", "0x1.9b310804cbae0p+1", "0x1.45aad7e0776f4p+1"],
        7: ["0x1.04711759da7d2p+1", "0x1.e547c95dd653dp-1", "0x1.05c19bbdf3308p+2",
            "0x1.d20dc259721d6p-2", "0x1.aefb5c7948f50p+1", "0x1.261abf0806ff8p+1"],
    }
    for seed, angles in first.items():
        assert [float(v).hex() for v in _restart_starts(seed, 2, 6)[0]] == angles


def test_train_symmetric_mode_two_free_angles():
    target = ring_symmetric_target()
    config = OptimizerConfig(max_iters=150, restarts=1, seed=3, symmetric_mode=True)
    result = train(target, config)
    p = result.best_params
    assert p.coin1.phi == 0.0 and p.coin1.lam == 0.0
    assert p.coin2.phi == 0.0 and p.coin2.lam == 0.0
    assert result.metadata["mode"] == "symmetric"
    assert result.metadata["coin_init"] == "balanced"
    # balanced init with real coins keeps the walk exactly ring-symmetric
    assert ring_asymmetry(result.trained_dist) <= 1e-12


def test_symmetric_mode_asymmetry_never_beats_full_mode():
    target = ring_symmetric_target()
    sym = train(target, OptimizerConfig(max_iters=200, restarts=2, seed=5, symmetric_mode=True))
    full = train(target, OptimizerConfig(max_iters=200, restarts=2, seed=5))
    assert ring_asymmetry(sym.trained_dist) <= ring_asymmetry(full.trained_dist) + 1e-6


def test_train_custom_init_state():
    target = ring_symmetric_target()
    init = initial_state(4, 0.0, 1.0, 4)
    config = OptimizerConfig(max_iters=30, restarts=1, seed=0)
    result = train(target, config, init)
    assert result.metadata["coin_init"] == "custom"
    assert result.metadata["start_site"] == 4


def test_train_init_size_mismatch():
    target = ring_symmetric_target()
    init = initial_state(3, 1.0, 0.0, 4)
    with pytest.raises(ValueError, match="initial state has 8 positions but target has 16 bins"):
        train(target, OptimizerConfig(max_iters=10), init)


def test_grid_is_checked_before_any_walk_is_built():
    # train and objective check that the start has one site per bin where
    # they take their inputs, before they build a walk or a score row: a
    # _ScoredWalk checks it before it builds its _Walker, and its row after.
    target = ring_symmetric_target()
    init = initial_state(3, 1.0, 0.0, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("walk built")

    with mock.patch.object(optimize, "_Walker", refuse):
        with pytest.raises(ValueError, match="initial state has 8 positions but target has 16 bins"):
            train(target, OptimizerConfig(max_iters=10), init)
        with pytest.raises(ValueError, match="initial state has 8 positions but target has 16 bins"):
            objective(KNOWN_PARAMS, target, WalkSchedule(7), init)


def test_train_respects_budget_exactly():
    target = ring_symmetric_target()
    result = train(target, OptimizerConfig(max_iters=25, restarts=3, seed=1))
    assert result.iterations_used <= 75
    assert all(n <= 25 for n in result.metadata["evals_per_restart"])
    assert result.iterations_used == len(result.mse_history)
    # Budgets below one gradient call's charge still record each start
    # value, charged 1. Larger ones are spent whole gradient calls at a
    # time: no restart stops early here, and none is charged past max_iters.
    init = initial_state(4, 1.0, 0.0, 8)
    start = objective(SsqwParams.balanced(), target, WalkSchedule(7), init)
    assert EVALS_PER_GRADIENT > 3
    for max_iters in range(1, 14):
        result = train(target, OptimizerConfig(max_iters=max_iters, restarts=3, seed=1))
        if max_iters < EVALS_PER_GRADIENT:
            assert result.mse_history[0] == start
            charge, values = 1, 1
        else:
            values = max_iters // EVALS_PER_GRADIENT
            charge = EVALS_PER_GRADIENT * values
        assert result.metadata["evals_per_restart"] == [charge] * 3, max_iters
        assert result.metadata["stop_reasons"] == ["budget"] * 3, max_iters
        assert result.iterations_used == len(result.mse_history) == 3 * values


def test_stop_reasons_at_the_acceptance_config():
    target = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
    config = OptimizerConfig(max_iters=100, restarts=8, seed=7)
    meta = train(target, config).metadata
    reasons = meta["stop_reasons"]
    assert len(reasons) == meta["restarts_run"] == 8
    assert set(reasons) <= {"budget", "short-step", "no-descent"}
    # Restart 0 converges inside its budget; a restart stopped for its
    # budget could not afford one more value-and-gradient call.
    assert reasons[0] == "short-step"
    for reason, charged in zip(reasons, meta["evals_per_restart"]):
        assert charged <= config.max_iters
        if reason == "budget":
            assert charged + EVALS_PER_GRADIENT > config.max_iters


def test_stop_reason_exact_ends_the_restarts():
    result = train(self_generated_target(), OptimizerConfig(initial_params=KNOWN_PARAMS, restarts=3))
    assert result.metadata["restarts_run"] == 1
    assert result.metadata["stop_reasons"] == ["exact"]


def test_stop_reason_no_descent_on_a_zero_gradient():
    target = ring_symmetric_target()
    real = optimize._ScoredWalk.values_and_gradients

    def flat(scored, angles):
        values, grads = real(scored, angles)
        return values, np.zeros_like(grads)

    with mock.patch.object(optimize._ScoredWalk, "values_and_gradients", flat):
        result = train(target, OptimizerConfig(max_iters=40, restarts=2, seed=1))
    assert result.metadata["stop_reasons"] == ["no-descent"] * 2
    assert result.metadata["evals_per_restart"] == [EVALS_PER_GRADIENT] * 2


def test_non_finite_angle_in_a_round_raises_value_error():
    # A round checks its angle array once and raises CoinParams's
    # ValueError for the first non-finite angle: here restart 1's phi2.
    def starts(seed, count, size):
        x = np.ones(size)
        x[4] = math.nan
        return [x] * (count - 1)

    with mock.patch.object(optimize, "_restart_starts", starts):
        with pytest.raises(ValueError, match="coin angle phi must be finite"):
            train(ring_symmetric_target(), OptimizerConfig(restarts=2))
    angles = np.zeros((2, 6))
    angles[1, 3] = -math.inf
    init, _ = _start_state(16, symmetric=False)
    with pytest.raises(ValueError, match="coin angle theta must be finite"):
        _mse_and_gradient(angles, ring_symmetric_target(), WalkSchedule(7), init)


def sequential_train(target, config, init=None):
    """train() with its restarts run one after another: each restart's
    ``oracles.bfgs_ref`` generator runs to completion alone, one row per
    value-and-gradient call, and an exact hit stops the restarts that
    follow."""
    coin_init = "custom"
    if init is None:
        init, coin_init = _start_state(target.n_bins, config.symmetric_mode)
    free = _free_angles(config.symmetric_mode)
    x_init = config.initial_params.to_array()[free]
    rng = random.Random(config.seed)
    starts = [x_init] + [
        np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(x_init.size)]) for _ in range(config.restarts - 1)
    ]

    def to_angles(x):
        angles = np.zeros(6)
        angles[free] = x
        return angles

    history, best_val, best_x, best_restart = [], math.inf, x_init, 0
    evals_per_restart, stop_reasons = [], []
    for r, x0 in enumerate(starts):
        run = oracles.bfgs_ref(np.asarray(x0, dtype=np.float64), config)
        x = next(run)
        while True:
            [f], [g] = _mse_and_gradient(to_angles(x)[None], target, config.steps, init)
            history.append(f)
            if f < best_val:
                best_val, best_x, best_restart = f, x, r
            try:
                x = run.send((f, g[free]))
            except StopIteration as stop:
                reason, charged = stop.value
                break
        evals_per_restart.append(charged)
        stop_reasons.append("exact" if best_val == 0.0 else reason)
        if best_val == 0.0:
            break
    best_params = SsqwParams.from_array(to_angles(best_x))
    unreachable_mass, mse_floor = _reach_floor(target, init, config.steps)
    metadata = {
        "mode": "symmetric" if config.symmetric_mode else "full",
        "coin_init": coin_init,
        "start_site": int(np.argmax(position_distribution(init))),
        "unreachable_mass": unreachable_mass,
        "mse_floor": mse_floor,
        "optimizer": OPTIMIZER_NAME,
        "seed": config.seed,
        "rng": "python-random-mt19937",
        "restarts_run": len(evals_per_restart),
        "evals_per_restart": evals_per_restart,
        "evals_per_gradient": EVALS_PER_GRADIENT,
        "best_restart": best_restart,
        "stop_reasons": stop_reasons,
    }
    trained = position_distribution(evolve(init, best_params, config.steps))
    return TrainingResult(best_params, best_val, history, trained, len(history), config, metadata)


def _assert_lockstep_equals_sequential(target, config, init=None):
    lockstep = json.dumps(training_result_json_dict(train(target, config, init)))
    sequential = json.dumps(training_result_json_dict(sequential_train(target, config, init)))
    assert lockstep == sequential, config
    return lockstep


def test_lockstep_restarts_equal_sequential_runs():
    # train's one batched BFGS state against its restarts run one after
    # another on oracles.bfgs_ref, a frozen per-restart BFGS, so an edit
    # that moves one bit of any row's arithmetic fails here: budgets that
    # stop in each of the first rounds, an exact hit and a window at the
    # ring's end. The long fits are in
    # test_train_equals_sequential_restarts_on_a_frozen_bfgs.
    target = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
    for seed in (0, 1, 7):
        for restarts in (1, 3, 8):
            for max_iters in range(1, 14):
                config = OptimizerConfig(max_iters=max_iters, restarts=restarts, seed=seed)
                _assert_lockstep_equals_sequential(target, config)
    # Restart 0 hits the self-generated target exactly: restarts 1 and 2
    # run in lockstep with it but are discarded.
    config = OptimizerConfig(initial_params=KNOWN_PARAMS, restarts=3)
    _assert_lockstep_equals_sequential(self_generated_target(), config)
    # A custom start at M-9 of 2**10 sites: the window of a
    # value-and-gradient call ends at site M-1.
    rng = np.random.default_rng(43)
    m = 1 << 10
    wide = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
    config = OptimizerConfig(max_iters=100, restarts=3, seed=7, steps=WalkSchedule(8))
    _assert_lockstep_equals_sequential(wide, config, initial_state(10, 0.6, 0.8j, m - 9))


def test_train_equals_sequential_restarts_on_a_frozen_bfgs():
    # The same check on long fits: 1, 3 and 8 restarts of 100 evaluations
    # (the acceptance config among them) at three seeds, a symmetric fit,
    # and restarts that stop in different rounds, so that train() narrows
    # its gradient walk (test_train_narrows_its_recorded_walk_to_the_live_rows).
    normal = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
    for seed in (0, 1, 7):
        for restarts in (1, 3, 8):
            config = OptimizerConfig(max_iters=100, restarts=restarts, seed=seed)
            _assert_lockstep_equals_sequential(normal, config)
    config = OptimizerConfig(max_iters=100, restarts=8, seed=1, symmetric_mode=True)
    _assert_lockstep_equals_sequential(ring_symmetric_target(), config)
    _assert_lockstep_equals_sequential(normal, OptimizerConfig(max_iters=800, restarts=3, seed=1))


def _openblas_linked():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.get("name", "")


@pytest.mark.skipif(not _openblas_linked(), reason="numpy does not link OpenBLAS")
def test_train_gives_the_same_bits_under_each_blas_kernel():
    # train's BFGS state makes no BLAS call: its dot products and its h v
    # are np.add.reduce of elementwise products, summed in an order that no
    # OpenBLAS kernel picks. So under each kernel, forced in its own
    # process, the acceptance config and a fit whose rows narrow still equal
    # their restarts run one after another, and the child's SHA-256 of both
    # results equals this process's. A kernel the CPU cannot run kills its
    # child with a signal, and is skipped.
    code = """
import hashlib
from ssqw import DistSpec, Domain, OptimizerConfig, analytic_histogram
from test_optimize import _assert_lockstep_equals_sequential

target = analytic_histogram(DistSpec("normal", 7.5, 1.875), Domain(0.0, 15.0), 16)
for restarts, max_iters, seed in ((8, 100, 7), (3, 800, 1)):
    config = OptimizerConfig(max_iters=max_iters, restarts=restarts, seed=seed)
    print(hashlib.sha256(_assert_lockstep_equals_sequential(target, config).encode()).hexdigest())
"""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=kernel),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for kernel in ("SkylakeX", "Haswell", "Zen", "Prescott", "Nehalem")
    }
    target = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
    want = []
    for restarts, max_iters, seed in ((8, 100, 7), (3, 800, 1)):
        result = train(target, OptimizerConfig(max_iters=max_iters, restarts=restarts, seed=seed))
        want.append(hashlib.sha256(json.dumps(training_result_json_dict(result)).encode()).hexdigest())
    ran = []
    for kernel, child in children.items():
        out = child.communicate(timeout=120)[0]
        if child.returncode < 0:
            continue
        assert child.returncode == 0, f"{kernel}: {out[-2000:]}"
        assert out.split() == want, kernel
        ran.append(kernel)
    if not ran:
        pytest.skip("no OpenBLAS kernel could run here")


def _numpy_dispatch_targets():
    """numpy's SIMD dispatch targets, above its baseline, that this CPU
    runs: those ``NPY_DISABLE_CPU_FEATURES`` can turn off."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return [t for t in getattr(umath, "__cpu_dispatch__", []) if features.get(t)]


@pytest.mark.skipif(not _numpy_dispatch_targets(), reason="numpy dispatches to no SIMD target here")
def test_coins_and_bfgs_keep_their_bits_at_numpy_baseline_dispatch():
    # numpy's complex multiply fuses with FMA under its X86_V3 and X86_V4
    # targets and not at its X86_V2 baseline, so the walk's amplitudes, and
    # every fit, depend on the SIMD dispatch. The coin builder and the BFGS
    # state must not add to that: _coin_stacks evaluates its formula on
    # Python scalars, and the BFGS algebra is real float64 adds, multiplies
    # and square roots, which every target rounds alike. So a child with
    # every dispatch target turned off gives the same coins, and the same
    # trains on a polynomial surrogate for the walk, as a child with none
    # turned off. Skipped where numpy refuses the setting.
    code = """
import hashlib
import numpy as np
from ssqw import CoinParams, DistSpec, Domain, OptimizerConfig, SsqwParams, analytic_histogram, optimize, train
from test_optimize import _numpy_dispatch_targets

def surrogate(self, angles):
    # A double well in each angle, coupled in pairs: real float64
    # arithmetic, and no transcendental function.
    z = angles - 2.5
    w = np.array([1.0, 0.5, 0.25, 0.75, 0.4, 0.2])
    r = np.roll(z, 3, axis=1)
    values = np.add.reduce(w * (z * z - 1.0) ** 2 + 0.3 * z * r, axis=-1)
    # train() reads the walk's probabilities after each call; none are walked.
    self.probs = np.zeros((len(angles), self.cone.size))
    return values, 4.0 * w * z * (z * z - 1.0) + 0.6 * r

print(" ".join(_numpy_dispatch_targets()) or "none")
angles = np.array(optimize._restart_starts(3, 33, 6)).reshape(64, 3)
print(hashlib.sha256(b"".join(a.tobytes() for a in optimize._coin_stacks(angles))).hexdigest())
optimize._ScoredWalk.values_and_gradients = surrogate
target = analytic_histogram(DistSpec("normal", 7.5, 1.875), Domain(0.0, 15.0), 16)
start = SsqwParams(CoinParams(1.0, 0.0, 0.0), CoinParams(2.0, 0.0, 0.0))
for restarts, max_iters, seed, symmetric in ((8, 100, 7, False), (3, 800, 1, False), (8, 400, 0, True)):
    config = OptimizerConfig(max_iters, start, restarts=restarts, seed=seed, symmetric_mode=symmetric)
    result = train(target, config)
    fit = (result.best_params.to_array().tolist(), result.best_mse, result.mse_history, result.metadata)
    print(hashlib.sha256(repr(fit).encode()).hexdigest())
"""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    targets = " ".join(_numpy_dispatch_targets())
    # Added to any targets this process was started with turned off.
    disabled = f"{os.environ.get('NPY_DISABLE_CPU_FEATURES', '')} {targets}".strip()
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, **extra),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for name, extra in (("default", {}), ("baseline", {"NPY_DISABLE_CPU_FEATURES": disabled}))
    }
    outs = {name: child.communicate(timeout=120)[0] for name, child in children.items()}
    if children["baseline"].returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in outs["baseline"]:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled!r}")
    for name, child in children.items():
        assert child.returncode == 0, f"{name}: {outs[name][-2000:]}"
    default, baseline = outs["default"].splitlines(), outs["baseline"].splitlines()
    assert (default[0], baseline[0]) == (targets, "none")
    assert len(default) == 5 and baseline[1:] == default[1:]


@contextlib.contextmanager
def recorded_walk_widths():
    """Record the number of rows of every walk train() builds: each is
    recorded."""
    widths = []
    build = optimize._Walker

    def recording(init, steps, rows, record):
        assert record
        widths.append(rows)
        return build(init, steps, rows, record)

    with mock.patch.object(optimize, "_Walker", recording):
        yield widths


def test_train_narrows_its_recorded_walk_to_the_live_rows():
    # One recorded walk per fit, rebuilt only when the live restarts fall
    # to half its rows or fewer, at the live count: at most log2(restarts)
    # rebuilds. Until then a stopped restart's row stays on its last point:
    # at 8 x 100 restarts 0 and 3 stop by short step, and the walk keeps its
    # 8 rows.
    target = analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16)
    cases = (
        (3, 800, 1, [96, 136, 260], [3, 1]),
        (8, 800, 7, [96, 156, 248, 100, 360, 152, 552, 144], [8, 4, 2, 1]),
        (8, 800, 1, [96, 136, 260, 388, 236, 252, 192, 140], [8, 4, 2, 1]),
        (5, 800, 7, [96, 156, 248, 100, 360], [5, 2, 1]),
        (8, 100, 7, [96, 100, 100, 100, 100, 100, 100, 100], [8]),
        (1, 100, 7, [96], [1]),
    )
    for restarts, max_iters, seed, charged, want in cases:
        config = OptimizerConfig(max_iters=max_iters, restarts=restarts, seed=seed)
        # The walk the last fit kept would stand in for the first build.
        optimize._kept_recorded.clear()
        with recorded_walk_widths() as widths:
            result = train(target, config)
        assert result.metadata["evals_per_restart"] == charged
        assert widths == want, config


def result_bytes(result):
    """A training result as bytes: its JSON view and its trained_dist."""
    return json.dumps(training_result_json_dict(result)).encode() + result.trained_dist.tobytes()


def lognormal_target(n_bins=16):
    return analytic_histogram(DistSpec("lognormal", math.log(7.5) - 0.125, 0.5), DOM, n_bins)


def test_trained_dist_is_the_best_point_walked_again():
    # train() takes trained_dist from the round that first met each
    # restart's lowest value, with no walk after its rounds: it is the ring
    # distribution evolve() gives at best_params, bit for bit. The cases:
    # the acceptance config, a 64-bin 12-step fit on a 25-site cone, a
    # 16-bin 8-step fit on the whole ring, symmetric mode, a start off the
    # centre, restarts whose walk narrows, and budgets that buy the starts'
    # values alone (1) or one gradient call (4).
    off_centre = _start_state(16, False, 5, "balanced")[0]
    cases = (
        (16, OptimizerConfig(max_iters=100, restarts=8, seed=7), None),
        (64, OptimizerConfig(max_iters=100, restarts=4, seed=3, steps=WalkSchedule(12)), None),
        (16, OptimizerConfig(max_iters=100, restarts=8, seed=7, steps=WalkSchedule(8)), None),
        (16, OptimizerConfig(max_iters=200, restarts=4, seed=2, symmetric_mode=True), None),
        (16, OptimizerConfig(max_iters=100, restarts=4, seed=5), off_centre),
        (16, OptimizerConfig(max_iters=800, restarts=3, seed=1), None),
        (16, OptimizerConfig(max_iters=1, restarts=4, seed=4), None),
        (16, OptimizerConfig(max_iters=4, restarts=4, seed=4), None),
    )
    for n_bins, config, init in cases:
        for target in (analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, n_bins), lognormal_target(n_bins)):
            result = train(target, config, init)
            start = init if init is not None else _start_state(n_bins, config.symmetric_mode)[0]
            want = position_distribution(evolve(start, result.best_params, config.steps))
            assert result.trained_dist.tobytes() == want.tobytes(), (n_bins, config)


def test_train_keeps_one_recorded_walk_between_fits():
    # 30 acceptance fits in a row, alternating two targets on one start,
    # build one recorded walk: each fit after the first takes the walk the
    # last one kept, matched by the inputs it is built from, and builds its
    # own score row. A start with other amplitudes on the same cone, and
    # then other rows, each build their own. Every result equals that of
    # the same fit with the slot emptied first.
    targets = [analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16), lognormal_target()]
    config = OptimizerConfig(max_iters=100, restarts=8, seed=7)
    fits = [(targets[i % 2], config, None) for i in range(30)]
    fits += [(targets[0], config, _start_state(16, False, 8, "balanced")[0])] * 2
    fits += [(targets[1], OptimizerConfig(max_iters=100, restarts=4, seed=7), None)] * 2
    optimize._kept_recorded.clear()
    with recorded_walk_widths() as widths:
        kept = [result_bytes(train(*fit)) for fit in fits]
    assert widths == [8, 8, 4]
    # A start with the kept one's amplitudes on the kept cone and more mass
    # outside it has a wider cone of its own, on which its walk does not
    # sum to 1.
    amps = _start_state(16, False)[0].amps.copy()
    amps[0, 0] = 1.0
    with pytest.raises(ValueError, match="not 1 within"):
        train(targets[1], fits[-1][1], WalkerState(amps))
    for fit, got in zip(fits, kept):
        optimize._kept_recorded.clear()
        assert got == result_bytes(train(*fit))


def test_train_on_threads_gives_the_sequential_results():
    # Two acceptance fits on one start in two threads, with the interpreter
    # switching threads as often as it can: a fit holds the kept walk
    # alone, or builds its own, so no two fits share a walk, and each result
    # equals the same fit's run alone.
    targets = [analytic_histogram(DistSpec("normal", 7.5, 1.875), DOM, 16), lognormal_target()]
    config = OptimizerConfig(max_iters=100, restarts=8, seed=7)
    want = [result_bytes(train(target, config)) for target in targets]
    got = [None] * len(targets)
    barrier = threading.Barrier(len(targets))

    def fit(k):
        barrier.wait()
        got[k] = result_bytes(train(targets[k], config))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fit, args=(k,)) for k in range(len(targets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


@pytest.mark.parametrize(
    "n, site, steps, w",
    [(4, 8, 7, 15), (4, 8, 8, 16), (10, 2, 8, 17)],
    ids=["15-site-cone", "whole-ring", "cone-wraps-past-0"],
)
def test_recorded_walk_rounds_equal_one_shot_calls(n, site, steps, w):
    # One recorded scored walk called over several rounds of new
    # angles, at full width and then narrowed as train() narrows it, gives
    # every round's values and gradients the bits of a fresh one-shot
    # call. Rows whose angles stay as they were, as a stopped restart's
    # do, repeat their own results.
    rng = np.random.default_rng(67)
    m = 1 << n
    target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
    init = initial_state(n, 0.6, 0.8j, site)
    assert _light_cone(init, steps).size == w
    schedule = WalkSchedule(steps)
    angles = rng.uniform(0.0, 2.0 * math.pi, (5, 6))
    for rows in (5, 2):
        angles = angles[:rows].copy()
        scored = optimize._ScoredWalk(init, steps, target, rows, record=True)
        for _ in range(4):
            values, grads = scored.values_and_gradients(angles)
            fresh_values, fresh_grads = _mse_and_gradient(angles, target, schedule, init)
            assert np.array(values).tobytes() == np.array(fresh_values).tobytes()
            assert grads.tobytes() == fresh_grads.tobytes()
            # Row 0 keeps its angles, the others move.
            angles[1:] = rng.uniform(0.0, 2.0 * math.pi, (rows - 1, 6))


def test_batched_gradient_rows_equal_single_calls():
    # A coin-up start at M-9 of 2**10 sites: the identity-coin row's final
    # state is one site and the random rows' 17; every row is stepped and
    # swept on the start's window all the same.
    rng = np.random.default_rng(47)
    m = 1 << 10
    target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
    init = initial_state(10, 1.0, 0.0, m - 9)
    identity = np.zeros(6)
    params = rng.uniform(0.0, 2.0 * math.pi, (4, 6))
    params = np.insert(params, 2, identity, axis=0)
    values, grads = _mse_and_gradient(params, target, WalkSchedule(8), init)
    for p, value, grad in zip(params, values, grads):
        [single_value], [single_grad] = _mse_and_gradient(p[None], target, WalkSchedule(8), init)
        assert value == single_value == objective(SsqwParams.from_array(p), target, WalkSchedule(8), init)
        assert grad.tobytes() == single_grad.tobytes()


def test_symmetric_config_refuses_non_zero_phases():
    # Symmetric mode fits the thetas with every phase at zero, so a start
    # with a phase set would be recorded in the result but never used. The
    # error names each such phase; zero phases, and any theta, are taken.
    start = SsqwParams(CoinParams(1.0, 0.3, 0.0), CoinParams(2.0, 0.0, -1.5))
    with pytest.raises(ValueError, match=r"symmetric_mode ties every phase to zero, got phi1=0\.3, lam2=-1\.5$"):
        OptimizerConfig(initial_params=start, symmetric_mode=True)
    OptimizerConfig(initial_params=start)
    zero = SsqwParams(CoinParams(1.0, 0.0, -0.0), CoinParams(2.0, 0.0, 0.0))
    assert OptimizerConfig(initial_params=zero, symmetric_mode=True).initial_params == zero


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(initial_trust_radius=1e-6, final_trust_radius=1e-6)
    for radii in ({"initial_trust_radius": math.inf}, {"initial_trust_radius": math.nan},
                  {"final_trust_radius": math.inf}, {"final_trust_radius": math.nan}):
        with pytest.raises(ValueError, match="both finite"):
            OptimizerConfig(**radii)
    with pytest.raises(TypeError):
        OptimizerConfig(optimizer="adjoint-bfgs")
    # A bad seed is refused here, by name, not inside train by numpy; 0 is
    # a seed.
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            OptimizerConfig(seed=seed)
    assert OptimizerConfig(seed=0).seed == 0


def test_booleans_are_not_counts():
    # bool is an int subclass, but True is no count: it would train and be
    # written to the result JSON as "max_iters": true.
    for field in ("max_iters", "restarts"):
        for value in (True, False):
            with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
                OptimizerConfig(**{field: value})
    for value in (True, False):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            WalkSchedule(value)
        # True would train and be written as "seed": true.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            OptimizerConfig(seed=value)


def test_training_result_json_wrapped_angles():
    target = self_generated_target()
    config = OptimizerConfig(initial_params=KNOWN_PARAMS, restarts=1, seed=0)
    result = train(target, config)
    payload = training_result_json_dict(result)
    assert payload["format_version"] == 1
    for coin in ("coin1", "coin2"):
        for key in ("theta", "phi", "lam"):
            v = payload["best_params"][coin][key]
            assert 0.0 <= v < 2.0 * math.pi
    assert payload["best_mse"] == result.best_mse
    assert payload["config"]["optimizer"] == "adjoint-bfgs"
    assert payload["metadata"]["rng"] == "python-random-mt19937"
    assert len(payload["trained_dist"]) == 16


def test_default_train_never_calls_scipy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr("scipy.optimize.minimize", refuse)
    result = train(ring_symmetric_target(), OptimizerConfig(max_iters=40, restarts=2, seed=3))
    payload = training_result_json_dict(result)
    assert payload["config"]["optimizer"] == payload["metadata"]["optimizer"] == "adjoint-bfgs"
    assert result.metadata["evals_per_gradient"] == EVALS_PER_GRADIENT
    assert result.best_mse < result.mse_history[0]


def test_default_train_never_calls_numpy_roll(monkeypatch):
    # Both the forward pass and the adjoint sweep shift by slicing.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.roll called")

    monkeypatch.setattr(np, "roll", refuse)
    result = train(ring_symmetric_target(), OptimizerConfig(max_iters=40, restarts=2, seed=3))
    assert result.best_mse < result.mse_history[0]


# ------------------------------------------------------------ reach floor


def test_default_start_cannot_reach_bin_0_only():
    # 16 bins, start site 8, 7 steps: the light cone is sites 1..15.
    init, _ = _start_state(16, symmetric=False)
    np.testing.assert_array_equal(_light_cone(init, 7), np.arange(1, 16))
    q = np.arange(1.0, 17.0) / 136.0
    result = train(TargetDistribution(q, DOM), OptimizerConfig(max_iters=1))
    assert result.metadata["unreachable_mass"] == q[0]
    floor = (q[0] ** 2 + q[0] ** 2 / 15) / 16
    assert result.metadata["mse_floor"] == pytest.approx(floor, rel=1e-14)
    assert result.best_mse >= result.metadata["mse_floor"]


def test_mse_floor_zero_when_the_cone_covers_the_ring():
    result = train(ring_symmetric_target(), OptimizerConfig(max_iters=1, steps=WalkSchedule(8)))
    assert (result.metadata["unreachable_mass"], result.metadata["mse_floor"]) == (0.0, 0.0)


# --------------------------------------------------------------- gradient


def _central_differences(loss, x, h=1e-5):
    return np.array([(loss(x + h * e) - loss(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


def _assert_gradient_matches_both_oracles(x, psi0, q, steps):
    m = q.size
    target = TargetDistribution(q, Domain(0.0, float(m)))
    init = WalkerState(psi0)
    schedule = WalkSchedule(steps)

    def loss(a):
        return objective(SsqwParams.from_array(a), target, schedule, init)

    def dense_loss(a):
        psi = np.linalg.matrix_power(oracles.dense_ssqw_step(a, m), steps) @ psi0
        p = np.abs(psi[:m]) ** 2 + np.abs(psi[m:]) ** 2
        return oracles.mse_ref(q, p)

    [value], [grad] = _mse_and_gradient(x[None], target, schedule, init)
    assert value == loss(x)
    np.testing.assert_allclose(grad, _central_differences(loss, x), rtol=0, atol=1e-8)
    np.testing.assert_allclose(grad, _central_differences(dense_loss, x), rtol=0, atol=1e-8)


def test_mse_gradient_matches_both_oracles():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        m = 2**n
        for steps in (1, 2, 5, 9):
            x = rng.uniform(0.0, 2.0 * math.pi, 6)
            psi0 = oracles.random_walker_vec(rng, m)
            q = oracles.random_prob_vec(rng, m)
            _assert_gradient_matches_both_oracles(x, psi0, q, steps)
    # A one-site start on 64 sites: the forward pass and the adjoint sweep
    # step only its 11-site light cone of 5 steps.
    x = rng.uniform(0.0, 2.0 * math.pi, 6)
    psi0 = initial_state(6, 0.6, 0.8j, 32).flat
    _assert_gradient_matches_both_oracles(x, psi0, oracles.random_prob_vec(rng, 64), 5)
    # The acceptance shape: 7 steps from site 8 of 16 run on the 15-site
    # window 1..15, not on the ring.
    for coin in ((1.0, 0.0), (0.6, 0.8j)):
        x = rng.uniform(0.0, 2.0 * math.pi, 6)
        psi0 = initial_state(4, *coin, 8).flat
        _assert_gradient_matches_both_oracles(x, psi0, oracles.random_prob_vec(rng, 16), 7)


def test_windowed_sweep_gradient_equals_full_ring():
    # A start near site M-1 of a 2**10-site ring: the final state fills
    # sites M-13..M+3, and the forward pass and the sweep step only the
    # start's cone of 8 steps, the same sites, which wrap past site 0.
    rng = np.random.default_rng(37)
    m = 1 << 10
    target = TargetDistribution(oracles.random_prob_vec(rng, m), Domain(0.0, float(m)))
    init = initial_state(10, 0.6, 0.8j, m - 5)
    params = SsqwParams.from_array(rng.uniform(0.0, 2.0 * math.pi, 6))
    schedule = WalkSchedule(8)
    sites = _light_cone(init, schedule.steps)
    np.testing.assert_array_equal(sites, np.r_[0:4, m - 13 : m])
    p = position_distribution(evolve(init, params, schedule))
    np.testing.assert_array_equal(np.sort(sites), np.flatnonzero(p))
    [value], [grad] = _mse_and_gradient(params.to_array()[None], target, schedule, init)
    widths = []
    forward, sweep = walk._Walker.forward, walk._Walker.sweep

    # Each half-step is five calls of the walk's flat call lists, and its
    # third writes the row that stays, (B, w).
    def recording_forward(self, coins):
        widths.extend([call[3].shape[-1] for call in self.calls[2::5]] * self.repeats)
        return forward(self, coins)

    def recording_sweep(self, coef):
        widths.extend(call[3].shape[-1] for call in self.back_calls[2::5])
        return sweep(self, coef)

    with (
        mock.patch.object(walk, "_light_cone", lambda state, steps: np.arange(state.num_positions)),
        mock.patch.object(walk._Walker, "forward", recording_forward),
        mock.patch.object(walk._Walker, "sweep", recording_sweep),
    ):
        [full_value], [full_grad] = _mse_and_gradient(params.to_array()[None], target, schedule, init)
        # Forward pass and sweep (one half-step fewer: the last step's
        # S_minus is undone by a move alone), then evolve and objective:
        # on the window 0..M-1 every half-step runs on all M sites.
        assert widths == [m] * (4 * schedule.steps - 1)
        evolve(init, params, schedule)
        objective(params, target, schedule, init)
        assert widths == [m] * (8 * schedule.steps - 1)
        # optimize holds its own reference to _light_cone, so the reach
        # floor still sees the 17-site cone.
        assert _reach_floor(target, init, schedule)[0] > 0.0
    assert value == full_value
    assert np.max(np.abs(grad - full_grad)) <= 1e-12 * np.max(np.abs(full_grad))


def test_mse_gradient_symmetric_mode_projection():
    target = ring_symmetric_target()
    init, _ = _start_state(16, symmetric=True)
    free = _free_angles(True)
    rng = np.random.default_rng(29)
    for _ in range(5):
        thetas = rng.uniform(0.0, 2.0 * math.pi, 2)

        def loss(t):
            return objective(
                SsqwParams(CoinParams(t[0]), CoinParams(t[1])), target, WalkSchedule(7), init
            )

        angles = np.zeros(6)
        angles[free] = thetas
        [value], [grad] = _mse_and_gradient(angles[None], target, WalkSchedule(7), init)
        assert value == loss(thetas)
        np.testing.assert_allclose(grad[free], _central_differences(loss, thetas), rtol=0, atol=1e-8)
