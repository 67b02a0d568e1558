"""Simulation, strategy-evaluation and perturbation-probe tests.

The discrete goal evaluator from the oracle module doubles as an
independent referee here: a strategy replayed through discrete_goal at the
path's prices must reproduce the engine's realized totals exactly.
"""

import collections
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from liqzone import (
    CappedBachelier,
    CappedBlackScholes,
    CostParams,
    DeterministicDrift,
    DiscreteProblem,
    GKernel,
    GoalBreakdown,
    Martingale,
    PathSample,
    ac_policy,
    ac_position,
    discrete_goal,
    estimate_v0,
    estimate_v0_and_value,
    estimate_value,
    extra_rate,
    full_rate,
    optimal_policy,
    paired_value_difference,
    path_stream,
    probe_optimality,
    rate_surface,
    run_strategy,
    simulate_path,
    urgency,
    v1_target_zone,
    value_formula,
    TargetZoneState,
)
from liqzone import _workers, montecarlo
from liqzone.montecarlo import (_STEP_BLOCK, _path_block, _plan, _probe_alphas, _run_batch,
                                 _simulate_batch)
from liqzone.signals import _Z_SLACK, _barycentric
from engine_reference import reference_run
from quad_reference import quad_extra

# a quad reference that did not converge fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

SMALL_COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
BACH = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)


def _batch(model, horizon, n_steps, master_seed, first, count):
    """(grid, m): a batch's levels, every row formed by one call of its paths."""
    grid, paths = _simulate_batch(model, horizon, n_steps, master_seed, first, count)
    rows = np.empty((n_steps + 1, count))
    m, _ = paths(0, n_steps + 1, rows, np.empty_like(rows))
    return grid, m


def test_path_stream_reproducible_and_distinct():
    a = path_stream(42, 0).standard_normal(4)
    b = path_stream(42, 0).standard_normal(4)
    c = path_stream(42, 1).standard_normal(4)
    d = path_stream(43, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_path_stream_key_equals_int_form():
    # the two-word little-endian key is the 128-bit integer (seed << 64) | index
    seed, idx = 2024, 977
    ref = np.random.Generator(np.random.Philox(key=(seed << 64) | idx))
    np.testing.assert_array_equal(
        path_stream(seed, idx).standard_normal(16), ref.standard_normal(16))


def test_simulate_path_invariants():
    for model in (BACH,
                  CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.1),
                  Martingale(p0=1.0, sigma=0.5)):
        path = simulate_path(model, 1.0, 128, path_stream(7, 0))
        assert path.grid.size == 129
        np.testing.assert_array_equal(path.m_star, np.maximum.accumulate(path.m))
        assert np.all(path.p <= path.m)
        if isinstance(model, (CappedBachelier, CappedBlackScholes)):
            assert np.all(path.p <= model.p_bar + 1e-15)
            np.testing.assert_allclose(
                path.p, path.m - np.maximum(path.m_star - model.p_bar, 0.0),
                rtol=0.0, atol=0.0)


def test_deterministic_models_ignore_randomness():
    flat = simulate_path(Martingale(p0=1.0, sigma=0.0), 1.0, 16, path_stream(1, 0))
    np.testing.assert_array_equal(flat.p, np.ones(17))
    drift = DeterministicDrift(times=np.array([0.0, 1.0]),
                               values=np.array([-0.1, -0.1]), p0=1.0)
    path = simulate_path(drift, 1.0, 16, path_stream(1, 0))
    np.testing.assert_allclose(path.p, 1.0 - 0.1 * path.grid, rtol=1e-14)


def test_drift_path_needs_a_curve_covering_the_horizon():
    # a curve sampled on [0, 0.5] only: np.interp would hold it constant up to
    # T = 1, so the path, its value and the policy all refuse it alike
    drift = DeterministicDrift(times=np.array([0.0, 0.5]), values=np.array([-0.1, -0.1]), p0=1.0)
    kernel = GKernel.from_costs(UNIT_COSTS)
    calls = (lambda: simulate_path(drift, 1.0, 4, path_stream(0, 0)),
             lambda: estimate_value(drift, ac_policy(kernel), UNIT_COSTS, 4, 16, 0),
             lambda: optimal_policy(drift, kernel, UNIT_COSTS))
    for call in calls:
        with pytest.raises(ValueError, match=r"^model\.times must cover \[grid\[0\], horizon\]$"):
            call()


def test_batch_concatenation_is_bit_exact():
    (_, m), (_, m1), (_, m2) = (_batch(BACH, 1.0, 64, 99, first, count)
                                for first, count in ((0, 48), (0, 17), (17, 31)))
    p, p1, p2 = (BACH._cap(levels) for levels in (m, m1, m2))
    np.testing.assert_array_equal(m[:, :17], m1)
    np.testing.assert_array_equal(m[:, 17:], m2)
    np.testing.assert_array_equal(p[:, :17], p1)
    np.testing.assert_array_equal(p[:, 17:], p2)


def test_batch_column_matches_single_path():
    # neither sigma = 1.7 nor sqrt(1 / 7) is a power of two, so any reordering
    # of the level arithmetic between the single-path and batch code shows.
    # The re-key loads the seed and path index as Python ints: 2^64 - 1 is the
    # largest key word a uint64 holds
    for model in (BACH, CappedBachelier(m0=0.3, sigma=1.7, p_bar=2.0)):
        for n_steps, seed, first in ((7, 5, 0), (256, 5, 0), (64, 2**64 - 1, 2**64 - 8)):
            _, m = _batch(model, 1.0, n_steps, seed, first, 8)
            p = model._cap(m)
            for j in (0, 3, 5, 6, 7):
                path = simulate_path(model, 1.0, n_steps, path_stream(seed, first + j))
                np.testing.assert_array_equal(path.m, m[:, j])
                np.testing.assert_array_equal(path.p, p[:, j])


@pytest.mark.parametrize("model", [BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.1),
                                   Martingale(p0=1.0, sigma=0.5)],
                         ids=["bachelier", "bs", "martingale"])
def test_batch_across_path_blocks_is_bit_exact(model):
    # the paths from index 70 fill two path blocks and part of a third, and
    # the split starts the second batch inside the first one's second block;
    # 1024 steps take 128-path blocks, 4096 the floor of 64
    for n_steps in (1024, 4096):
        size = _path_block(n_steps)
        seed, first, count, cut = 99, 70, 2 * size + 22, size + 13
        assert count > 2 * size and count % size and size < cut < 2 * size
        (_, m), (_, m1), (_, m2) = (_batch(model, 1.0, n_steps, seed, lo, n)
                                    for lo, n in ((first, count), (first, cut),
                                                  (first + cut, count - cut)))
        p, p1, p2 = (model._cap(levels) for levels in (m, m1, m2))
        np.testing.assert_array_equal(m, np.hstack((m1, m2)))
        np.testing.assert_array_equal(p, np.hstack((p1, p2)))
        for j in range(count):
            path = simulate_path(model, 1.0, n_steps, path_stream(seed, first + j))
            np.testing.assert_array_equal(path.m, m[:, j])
            np.testing.assert_array_equal(path.p, p[:, j])


def test_batch_simulation_holds_no_full_size_scratch():
    # the time-major normals are the only full-size array: they pass through
    # one block of paths, and the levels and capped prices are formed by the
    # step loop
    n_steps, count = 1024, 2048
    tracemalloc.start()
    try:
        _simulate_batch(BACH, 1.0, n_steps, 5, 0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n_steps + 1) * count * 8 + 2 * 2**20


def test_concurrent_fills_equal_the_one_thread_fill():
    # three callers in user threads switching every 10 us: every batch, three
    # path blocks and part of a fourth, equals the one-thread fill
    for n_steps in (1024, 4096):
        count = 3 * _path_block(n_steps) + 5
        want = _batch(BACH, 1.0, n_steps, 7, 0, count)
        got = [None] * 3

        def run(k):
            got[k] = _batch(BACH, 1.0, n_steps, 7, 0, count)

        callers = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for batch in got:
            for g, w in zip(batch, want, strict=True):
                np.testing.assert_array_equal(g, w)


def test_estimators_hold_one_batch_at_a_time(monkeypatch):
    # a batch's normals are freed before the next batch is simulated: a
    # batch holds one full-size array, and a second one held at once exceeds
    # this bound.  The rest is the block of paths the normals are drawn in
    # (1 MiB here), one block of levels, prices, positions and rates, the
    # probe's weights and its per-block GEMM (0.4-1.2 MiB here): the probe
    # folds each block as it is run (holding the batch's X and U as well
    # peaked at 7.7 MB here, above its bound of 4.6 MB)
    count, n_steps, n_directions = 1024, 256, 20
    monkeypatch.setattr(montecarlo, "_BATCH_DEFAULT", count)
    # one process walks all three batches
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    batch = (n_steps + 1) * count * 8
    draw = _path_block(n_steps) * n_steps * 8
    kernel = GKernel.from_costs(UNIT_COSTS)
    # the martingale's table is a curve: a capped model's step rows
    # (n_steps x its z grid) would outweigh the batch
    calls = [
        (lambda n_paths: estimate_value(BACH, ac_policy(kernel), UNIT_COSTS, n_paths, n_steps, 3),
         0),
        (lambda n_paths: probe_optimality(Martingale(p0=1.0, sigma=0.5), kernel, UNIT_COSTS,
                                          n_paths, n_steps, 3, n_directions),
         3 * count * n_directions * 8),
    ]
    for call, functionals in calls:
        # a first call fills the interpreter's caches, which tracemalloc counts
        call(128)
        tracemalloc.start()
        try:
            call(3 * count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch + draw + functionals + 2**20


def test_batch_pass_holds_its_levels_and_one_block_of_prices(monkeypatch):
    # a one-process estimate_value of the capped model holds one full-size
    # array, the batch's normals, besides the plan's step rows: its levels
    # and prices are formed a block of steps at a time (with the batch's
    # capped prices held as well it peaked at 22.6 MiB here, above its bound
    # of 15.1 MiB)
    count, n_steps = 2048, 512
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    policy = optimal_policy(BACH, GKernel.from_costs(UNIT_COSTS), UNIT_COSTS)
    # a first call builds the policy's table and fills the interpreter's caches
    estimate_value(BACH, policy, UNIT_COSTS, 128, n_steps, 3)
    step_rows = n_steps * (policy.signal_table.z_grid.size + 1) * 8
    tracemalloc.start()
    try:
        estimate_value(BACH, policy, UNIT_COSTS, count, n_steps, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n_steps + 1) * count * 8 + step_rows + 2**21


def test_skorokhod_invariants_many_seeds():
    for seed in range(100):
        path = simulate_path(BACH, 1.0, 64, path_stream(seed, 0))
        pushed = np.maximum(path.m_star - BACH.p_bar, 0.0)
        np.testing.assert_array_equal(path.p, path.m - pushed)
        # push-down is minimal: active only once the max has crossed the barrier
        assert np.all((pushed > 0.0) == (path.m_star > BACH.p_bar))


def test_goal_breakdown_constant_rate_hand_case():
    # two steps of dt = 1/2 at constant price 1 and constant rate 1/2 with
    # lam = gamma = big_gamma = 1: X = (1, 3/4, 1/2), cash = 2 * (1/2)^3,
    # running penalty (1 + 9/16)/2, terminal penalty 1/4
    costs = CostParams(lam=1.0, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
    grid = np.array([0.0, 0.5, 1.0])
    ones = np.ones(3)
    path = PathSample(grid=grid, m=ones, p=ones)
    plan, bk = run_strategy(path, lambda t, x, state: 0.5, costs)
    np.testing.assert_allclose(plan.positions, [1.0, 0.75, 0.5], atol=1e-15)
    assert bk.cash == pytest.approx(0.25, abs=1e-15)
    assert bk.running_penalty == pytest.approx(0.78125, abs=1e-15)
    assert bk.terminal_asset == pytest.approx(0.5, abs=1e-15)
    assert bk.terminal_penalty == pytest.approx(0.25, abs=1e-15)
    assert bk.total == pytest.approx(0.25 + 0.5 - 0.78125 - 0.25, abs=1e-15)


def test_run_strategy_rejects_non_uniform_grid():
    # forward Euler steps by grid[1] - grid[0]; on [0, 0.1, 1.0] that would
    # break the plan's exact Euler identity, so the runner refuses the grid
    ones = np.ones(3)
    path = PathSample(grid=np.array([0.0, 0.1, 1.0]), m=ones, p=ones)
    with pytest.raises(ValueError, match="grid"):
        run_strategy(path, lambda t, x, state: 0.5, UNIT_COSTS)


def test_run_strategy_rejects_a_path_not_spanning_the_horizon():
    # the terminal penalty is charged at the path's last point and the goal
    # integrals start at its first, so a path on [0, 0.5] or [0.25, 0.75]
    # under T = 1 costs would be scored as another problem
    policy = optimal_policy(BACH, GKernel.from_costs(UNIT_COSTS), UNIT_COSTS)
    ones = np.ones(65)
    for path in (simulate_path(BACH, 0.5, 64, path_stream(1, 0)),
                 PathSample(grid=np.linspace(0.25, 0.75, 65), m=ones, p=ones)):
        with pytest.raises(ValueError, match=r"grid must span \[0, horizon = 1\.0\]"):
            run_strategy(path, policy, UNIT_COSTS)
    # the span is checked to relative 1e-9, as the uniformity is; a grid just
    # past T is scored too, since no policy is called at its last point
    for end in (1.0 - 5e-10, 1.0 + 5e-10):
        near = PathSample(grid=np.linspace(0.0, end, 65), m=ones, p=ones)
        plan, bk = run_strategy(near, policy, UNIT_COSTS)
        assert plan.rates.shape == (64,) and math.isfinite(bk.total)
    far = PathSample(grid=np.linspace(0.0, 1.0 - 2e-9, 65), m=ones, p=ones)
    with pytest.raises(ValueError, match="grid must span"):
        run_strategy(far, policy, UNIT_COSTS)


def test_no_trading_keeps_inventory_and_pays_penalties():
    costs = UNIT_COSTS
    path = simulate_path(BACH, 1.0, 32, path_stream(3, 0))
    plan, bk = run_strategy(path, lambda t, x, state: 0.0, costs)
    np.testing.assert_array_equal(plan.positions, np.ones(33))
    assert bk.cash == 0.0
    assert bk.terminal_asset == pytest.approx(float(path.p[-1]), rel=1e-15)
    assert bk.running_penalty == pytest.approx(costs.gamma * 1.0, rel=1e-12)


def test_realized_total_equals_discrete_goal():
    # independent referee: replaying the engine's own rates through the
    # oracle's goal evaluator at the path's prices must give the total
    model = BACH
    kernel = GKernel.from_costs(UNIT_COSTS)
    policy = optimal_policy(model, kernel, UNIT_COSTS)
    n = 64
    for j in range(4):
        path = simulate_path(model, 1.0, n, path_stream(11, j))
        plan, bk = run_strategy(path, policy, UNIT_COSTS)
        goal = discrete_goal(DiscreteProblem(path.p, UNIT_COSTS), plan.rates)
        assert bk.total == pytest.approx(goal, abs=1e-12)


def test_ac_policy_sigma_zero_tracks_closed_form():
    costs = UNIT_COSTS
    kernel = GKernel.from_costs(costs)
    model = Martingale(p0=1.0, sigma=0.0)
    path = simulate_path(model, 1.0, 4096, path_stream(0, 0))
    plan, _ = run_strategy(path, ac_policy(kernel), costs)
    ref = np.array([ac_position(kernel, t, 1.0) for t in plan.grid])
    assert np.max(np.abs(plan.positions - ref)) < 2e-3


def test_estimate_value_sigma_zero_has_zero_error():
    costs = UNIT_COSTS
    kernel = GKernel.from_costs(costs)
    model = Martingale(p0=1.0, sigma=0.0)
    est = estimate_value(model, ac_policy(kernel), costs, n_paths=16, n_steps=256,
                         master_seed=0)
    assert est.std_error == 0.0
    path = simulate_path(model, 1.0, 256, path_stream(0, 0))
    _, bk = run_strategy(path, ac_policy(kernel), costs)
    assert est.mean == pytest.approx(bk.total, rel=1e-14)


def _at_batch_size(monkeypatch, size, estimator, *args, **kwargs):
    monkeypatch.setattr(montecarlo, "_BATCH_DEFAULT", size)
    return estimator(*args, **kwargs)


def test_estimate_value_batch_size_independent(monkeypatch):
    est_a, est_b = (_at_batch_size(monkeypatch, size, estimate_value, BACH,
                                   ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS,
                                   n_paths=300, n_steps=64, master_seed=17)
                    for size in (64, 256))
    assert est_a.mean == est_b.mean
    assert est_a.std_error == est_b.std_error


def test_paired_and_probe_batch_size_independent(monkeypatch):
    kernel = GKernel.from_costs(SMALL_COSTS)
    policies = (optimal_policy(BACH, kernel, SMALL_COSTS), ac_policy(kernel))
    n_paths = 300
    args = dict(n_paths=n_paths, n_steps=64, master_seed=17)
    sizes = (64, 256, n_paths)
    paired = [_at_batch_size(monkeypatch, size, paired_value_difference, BACH, *policies,
                             SMALL_COSTS, **args)
              for size in sizes]
    assert paired[0] == paired[1] == paired[2]
    probes = [_at_batch_size(monkeypatch, size, probe_optimality, BACH, kernel, SMALL_COSTS,
                             **args)
              for size in sizes]
    for probe in probes[1:]:
        assert probe.value == probes[0].value
        for name in ("epsilons", "mean_gain", "std_error", "curvature"):
            np.testing.assert_array_equal(getattr(probe, name), getattr(probes[0], name))


_FORK_MODELS = [BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.1),
                Martingale(p0=1.0, sigma=0.5)]
# 301 paths in batches of 64: three workers get 100, 100 and 101 paths, and
# every range ends in a partial batch
_FORK_ARGS = dict(n_paths=301, n_steps=16, master_seed=17)


def _with_workers(monkeypatch, workers, estimator, *args, **kwargs):
    """estimator's result with its paths split over `workers` processes."""
    monkeypatch.setattr(montecarlo, "_BATCH_DEFAULT", 64)
    monkeypatch.setattr(montecarlo, "_FORK_MIN_PATH_STEPS", 1)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: workers)
    split = _workers.run
    seen = []

    def counted(work, items, count):
        seen.append((items, count))
        split(work, items, count)

    monkeypatch.setattr(_workers, "run", counted)
    result = estimator(*args, **kwargs)
    # a Black-Scholes table build splits its roots too
    assert [count for items, count in seen if items == _FORK_ARGS["n_paths"]] == [workers]
    return result


@pytest.mark.parametrize("model", _FORK_MODELS, ids=["bachelier", "bs", "martingale"])
def test_forked_workers_equal_one_process(model, monkeypatch):
    kernel = GKernel.from_costs(SMALL_COSTS)
    calls = [
        lambda: estimate_value(model, optimal_policy(model, kernel, SMALL_COSTS), SMALL_COSTS,
                               **_FORK_ARGS),
        lambda: paired_value_difference(model, optimal_policy(model, kernel, SMALL_COSTS),
                                        ac_policy(kernel), SMALL_COSTS, **_FORK_ARGS),
        lambda: estimate_v0(model, kernel, SMALL_COSTS, **_FORK_ARGS),
        lambda: estimate_v0_and_value(model, kernel, SMALL_COSTS, **_FORK_ARGS),
    ]
    for call in calls:
        one, two, three = (_with_workers(monkeypatch, workers, call) for workers in (1, 2, 3))
        assert one == two == three
    probes = [_with_workers(monkeypatch, workers, probe_optimality, model, kernel, SMALL_COSTS,
                          n_directions=3, **_FORK_ARGS)
              for workers in (1, 2, 3)]
    for probe in probes[1:]:
        assert probe.value == probes[0].value
        for name in ("epsilons", "mean_gain", "std_error", "curvature"):
            np.testing.assert_array_equal(getattr(probe, name), getattr(probes[0], name))


def _failing_batches(monkeypatch, fail):
    """_simulate_batch that calls fail(first) before simulating each batch."""
    simulate = montecarlo._simulate_batch

    def patched(model, horizon, n_steps, master_seed, first, count):
        fail(first)
        return simulate(model, horizon, n_steps, master_seed, first, count)

    monkeypatch.setattr(montecarlo, "_simulate_batch", patched)


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("error, raised, message", [
    (ValueError("path 200 failed"), ValueError, "^path 200 failed$"),
    (_Unpicklable("path 200 failed"), RuntimeError,
     "^a worker process raised _Unpicklable: path 200 failed$"),
], ids=["picklable", "unpicklable"])
def test_worker_error_is_raised_in_the_caller(error, raised, message, monkeypatch):
    # the last of three ranges starts at path 200
    def fail(first):
        if first >= 200:
            raise error

    _failing_batches(monkeypatch, fail)
    with pytest.raises(raised, match=message):
        _with_workers(monkeypatch, 3, estimate_value, BACH,
                      ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS, **_FORK_ARGS)
    _no_child_is_left()


def test_worker_killed_without_a_report_is_an_error(monkeypatch):
    caller = os.getpid()

    def fail(first):
        if first >= 200 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_batches(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="^a worker process ended with wait status 9$"):
        _with_workers(monkeypatch, 3, estimate_value, BACH,
                      ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS, **_FORK_ARGS)
    _no_child_is_left()


def test_interrupted_caller_kills_its_workers(monkeypatch):
    # the caller's range (paths 0-99) is interrupted while the workers of
    # the other two ranges sleep: they are killed and reaped, not awaited
    def fail(first):
        if first < 100:
            raise KeyboardInterrupt
        time.sleep(60)

    _failing_batches(monkeypatch, fail)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _with_workers(monkeypatch, 3, estimate_value, BACH,
                      ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS, **_FORK_ARGS)
    assert time.perf_counter() - start < 30
    _no_child_is_left()


def test_plain_callable_runs_every_path_in_the_caller(monkeypatch):
    # its side effects stay in this process: it sees every step of every path
    kernel = GKernel.from_costs(UNIT_COSTS)
    seen = collections.Counter()

    def signal_free(t, x, state):
        seen[t] += x.size
        return urgency(kernel, t) * x

    monkeypatch.setattr(montecarlo, "_BATCH_DEFAULT", 64)
    monkeypatch.setattr(montecarlo, "_FORK_MIN_PATH_STEPS", 1)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
    est = estimate_value(BACH, signal_free, UNIT_COSTS, **_FORK_ARGS)
    n_steps = _FORK_ARGS["n_steps"]
    assert seen == {t: _FORK_ARGS["n_paths"] for t in np.linspace(0.0, 1.0, n_steps + 1)[:-1]}
    assert est == _with_workers(monkeypatch, 3, estimate_value, BACH, ac_policy(kernel),
                                UNIT_COSTS, **_FORK_ARGS)


_FORK_WITH_BLAS_THREADS = """
import numpy as np
from liqzone import CappedBachelier, CostParams, GKernel, _workers, montecarlo, probe_optimality

a = np.ones((256, 256))
a @ a  # starts the BLAS thread pool before the fork
costs = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
model = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)
kernel = GKernel.from_costs(costs)
montecarlo._FORK_MIN_PATH_STEPS = 1
probes = []
for workers in (1, 2):
    _workers._usable_cpus = lambda: workers
    probes.append(probe_optimality(model, kernel, costs, 4100, 64, 5, n_directions=20))
assert probes[0].value == probes[1].value
for name in ("mean_gain", "std_error"):
    assert np.array_equal(getattr(probes[0], name), getattr(probes[1], name)), name
print("equal")
"""


def test_fork_after_blas_threads_start():
    # a forked child inherits no BLAS worker threads: its first GEMM must
    # not wait on them
    src = str(pathlib.Path(montecarlo.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FORK_WITH_BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "equal"


def test_paired_difference_uses_common_paths():
    kernel = GKernel.from_costs(SMALL_COSTS)
    opt = optimal_policy(BACH, kernel, SMALL_COSTS)
    ac = ac_policy(kernel)
    cmp = paired_value_difference(BACH, opt, ac, SMALL_COSTS, n_paths=2000, n_steps=256,
                                  master_seed=31)
    assert cmp.difference.mean == pytest.approx(
        cmp.value_a.mean - cmp.value_b.mean, abs=1e-12)
    independent_se = math.hypot(cmp.value_a.std_error, cmp.value_b.std_error)
    assert cmp.difference.std_error < independent_se


@pytest.mark.parametrize("model", [BACH, Martingale(p0=1.0, sigma=0.5)],
                         ids=["bachelier", "martingale"])
def test_library_policies_take_the_rate_path(model, monkeypatch):
    # the optimal and the signal-free policy are both feedback policies: the
    # engine hands them the table value and never builds a MarketState
    def refuse(*args, **kwargs):
        raise AssertionError("a library policy was called with a MarketState")

    monkeypatch.setattr(montecarlo, "MarketState", refuse)
    kernel = GKernel.from_costs(SMALL_COSTS)
    args = dict(n_paths=100, n_steps=32, master_seed=3)
    paired_value_difference(model, optimal_policy(model, kernel, SMALL_COSTS),
                            ac_policy(kernel), SMALL_COSTS, **args)
    probe_optimality(model, kernel, SMALL_COSTS, n_directions=2, **args)


def test_callable_and_rate_path_agree_bit_for_bit():
    kernel = GKernel.from_costs(UNIT_COSTS)
    args = dict(n_paths=300, n_steps=64, master_seed=17)
    shapes = set()

    def signal_free(t, x, state):
        shapes.add(np.shape(x))
        return urgency(kernel, t) * x

    est = estimate_value(BACH, signal_free, UNIT_COSTS, **args)
    assert shapes == {(args["n_paths"],)}
    assert est == estimate_value(BACH, ac_policy(kernel), UNIT_COSTS, **args)


def test_martingale_value_matches_formula():
    # no signal: V = p0 x0 + lam v2(0) x0^2, so the estimate has a closed target
    costs = UNIT_COSTS
    kernel = GKernel.from_costs(costs)
    model = Martingale(p0=1.0, sigma=0.5)
    est = estimate_value(model, ac_policy(kernel), costs, n_paths=4000,
                         n_steps=2048, master_seed=12)
    target = value_formula(kernel, costs, p0=1.0, v0_0=0.0, v1_0=0.0)
    # allow the O(dt) discretization bias of the realized goal next to the SE
    assert abs(est.mean - target) < 3.0 * est.std_error + 2e-3


def test_value_discretization_first_order():
    # deterministic model: refining the time grid must converge linearly
    model = DeterministicDrift(times=np.array([0.0, 1.0]),
                               values=np.array([-0.1, -0.1]), p0=1.0)
    costs = UNIT_COSTS
    kernel = GKernel.from_costs(costs)
    policy = optimal_policy(model, kernel, costs)
    vals = [
        estimate_value(model, policy, costs, n_paths=2, n_steps=n, master_seed=0).mean
        for n in (256, 1024, 4096)
    ]
    order = math.log(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])) / math.log(4.0)
    assert order > 0.9


def test_estimate_v0_zero_for_martingale():
    costs = UNIT_COSTS
    kernel = GKernel.from_costs(costs)
    est = estimate_v0(Martingale(p0=1.0, sigma=0.5), kernel, costs,
                      n_paths=8, n_steps=64, master_seed=1)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_estimate_v0_positive_and_reproducible():
    kernel = GKernel.from_costs(SMALL_COSTS)
    a = estimate_v0(BACH, kernel, SMALL_COSTS, n_paths=500, n_steps=128, master_seed=8)
    b = estimate_v0(BACH, kernel, SMALL_COSTS, n_paths=500, n_steps=128, master_seed=8)
    assert a.mean > 0.0
    assert a.mean == b.mean and a.std_error == b.std_error


@pytest.mark.parametrize("model", [BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.0),
                                   Martingale(p0=1.0, sigma=0.5)],
                         ids=["bachelier", "bs", "martingale"])
def test_v0_and_value_equal_the_separate_estimates(model):
    kernel = GKernel.from_costs(SMALL_COSTS)
    args = dict(n_paths=300, n_steps=64, master_seed=2024)
    v0, value = estimate_v0_and_value(model, kernel, SMALL_COSTS, **args)
    assert v0 == estimate_v0(model, kernel, SMALL_COSTS, **args)
    assert value == estimate_value(model, optimal_policy(model, kernel, SMALL_COSTS),
                                   SMALL_COSTS, **args)


def test_v0_and_value_batch_size_independent(monkeypatch):
    kernel = GKernel.from_costs(SMALL_COSTS)
    n_paths = 2500
    runs = [_at_batch_size(monkeypatch, size, estimate_v0_and_value, BACH, kernel, SMALL_COSTS,
                           n_paths=n_paths, n_steps=32, master_seed=5)
            for size in (1000, 2048, n_paths)]
    assert runs[0] == runs[1] == runs[2]


def test_policy_signal_matches_scalar_extra_rate():
    # the tabulated policy signal must agree with the quadrature path
    for model in (BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05)):
        kernel = GKernel.from_costs(UNIT_COSTS)
        policy = optimal_policy(model, kernel, UNIT_COSTS)
        table = policy.signal_table
        for t, money in ((0.0, 0.0), (0.25, 0.1), (0.75, 0.4)):
            p = model.p_bar - money
            m = model.p_bar  # a path that has touched the barrier
            got = float(np.asarray(table.extra_values(t, np.array([p]), np.array([m])))[0])
            want = extra_rate(kernel, UNIT_COSTS, model,
                              TargetZoneState(t=t, m=m, p=p))
            assert got == pytest.approx(want, rel=1e-4, abs=1e-8)


def _table_and_reference(table, costs, t, zs, m=1.2):
    """Table values and quadrature references at scaled moneyness zs, time t."""
    model = table.model
    root = model.sigma * math.sqrt(costs.horizon - t)
    got, want = [], []
    for z in zs:
        if isinstance(model, CappedBlackScholes):
            p = model.p_bar - m * math.expm1(z * root)
        else:
            p = model.p_bar - z * root
        got.append(float(table.extra_values(t, np.array([p]), np.array([m]))[0]))
        want.append(quad_extra(model, costs, costs.horizon - t, model.p_bar - p, m))
    return np.array(got), np.array(want)


TABLE_Z = (0.0, 0.005, 0.05, 1.0, 4.0, 7.5)
# grid times of 1-, 7-, 64- and 8192-step grids, from tau = T down to tau = T / 8192
TABLE_TIMES = sorted({i / n for n in (1, 7, 64, 8192) for i in {0, 1, n // 2, n - 1} if i < n})


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
@pytest.mark.parametrize("sigma", [0.5, 1.7])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_signal_table_matches_independent_quadrature(cls, sigma, costs):
    # worst cases: 1.26e-5 (small costs) and 8.1e-5 (unit costs), both at z = 0.005
    model = cls(m0=1.0, sigma=sigma, p_bar=1.05)
    table = optimal_policy(model, GKernel.from_costs(costs), costs).signal_table
    for t in TABLE_TIMES:
        got, want = _table_and_reference(table, costs, t, TABLE_Z)
        tol = np.maximum(1e-4 * want, 1e-6 * want[0])
        assert np.all(np.abs(got - want) <= tol), (t, got, want)


@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_signal_table_error_floor_at_large_beta(cls):
    # beta T = 31.6.  The discount ratio confines the y integral to
    # y < ~1 / sqrt(beta tau), which makes the rate's z profile bend in
    # proportion to beta tau (60 times more than at small costs here), and
    # the linear interpolation on the uniform z step of 0.01 errs in
    # proportion: 7.9e-4 (Bachelier) and 7.4e-4 (Black-Scholes) at
    # z = 0.005, t = 0, as with the per-step tables.  The root
    # interpolation adds nothing measurable.
    costs = CostParams(lam=0.01, gamma=10.0, big_gamma=1.0, horizon=1.0, x0=1.0)
    model = cls(m0=1.0, sigma=0.5, p_bar=1.05)
    table = optimal_policy(model, GKernel.from_costs(costs), costs).signal_table
    got, want = _table_and_reference(table, costs, 0.0, (0.0, 0.005, 0.05, 1.0))
    assert np.max(np.abs(got - want) / want) <= 1e-3


@pytest.mark.parametrize("model", [BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05)],
                         ids=["bachelier", "bs"])
def test_signal_table_reports_its_quadrature_estimate(model):
    table = optimal_policy(model, GKernel.from_costs(UNIT_COSTS), UNIT_COSTS).signal_table
    assert table.quad_error == 0.0
    table.extra_values(0.0, np.array([model.p_bar]), np.array([model.p_bar]))
    # each row cell is within 1e-8 of itself, so the worst is within 1e-8 of the largest
    assert 0.0 < table.quad_error <= 1e-8 * np.max(table.rows)


def _reference_interp(table, tab, z):
    """The z interpolation as first written, kept as the bitwise reference."""
    pos = np.asarray(z * table._inv_step)
    idx = np.minimum(pos.astype(np.int64), table.z_grid.size - 2)
    frac = pos - idx
    return np.where(pos > table.z_grid.size - 1, 0.0,
                    tab[idx] * (1.0 - frac) + tab[idx + 1] * frac)


def _reference_lookup(table, t, p, m):
    """extra_values as first written: node test, root interpolation, z interpolation, level."""
    root = table.model.sigma * math.sqrt(table.kernel.horizon - t)
    z, level = table.model._moneyness(p, m, root)
    hit = np.flatnonzero(table.roots == root)
    if hit.size:
        tab = root * table.rows[hit[0]]
    else:
        tab = root * (_barycentric(table.roots, table.weights, root) @ table.rows)
    return _reference_interp(table, tab, z) * level


@pytest.mark.parametrize("model", [BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05)],
                         ids=["bachelier", "bs"])
def test_table_lookup_equals_reference_formula(model):
    table = optimal_policy(model, GKernel.from_costs(UNIT_COSTS), UNIT_COSTS).signal_table
    table.extra_values(0.0, np.array([model.p_bar]), np.array([model.p_bar]))
    z_grid, top = table.z_grid, table.z_grid[-1]
    rng = np.random.default_rng(3)
    # grid nodes, the last node, cells beyond the grid, the cap and random z
    zs = np.concatenate((z_grid[::7], [top, top + 1e-9, 1.5 * top, 0.0],
                         rng.uniform(0.0, top, 400)))
    for t in (0.0, 0.3, 0.875):  # t = 0 queries a root node's row
        root = model.sigma * math.sqrt(UNIT_COSTS.horizon - t)
        tab = root * table.rows[-1]
        for z in (zs, np.array([-_Z_SLACK, 1e3])):
            assert np.array_equal(table._interp(tab[None], z[None])[0],
                                  _reference_interp(table, tab, z))
        z = np.append(zs, -0.5 * _Z_SLACK)
        m = np.full(z.shape, 1.2)
        p = model.p_bar - (m * np.expm1(z * root) if isinstance(model, CappedBlackScholes)
                           else z * root)
        assert np.array_equal(table.extra_values(t, p, m), _reference_lookup(table, t, p, m))
        for j in (0, zs.size - 1):
            got, want = table.extra_values(t, p[j], m[j]), _reference_lookup(table, t, p[j], m[j])
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@pytest.mark.parametrize("model", [BACH, CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05)],
                         ids=["bachelier", "bs"])
def test_block_lookup_equals_reference_formula(model):
    # 21 steps: two full blocks and a partial one; grid[0] is a root node
    table = optimal_policy(model, GKernel.from_costs(UNIT_COSTS), UNIT_COSTS).signal_table
    n_steps = 21
    grid, m = _batch(model, 1.0, n_steps, 4, 0, 100)
    p = model._cap(m)
    step_rows = table.step_rows(grid[:-1])
    for lo in range(0, n_steps, _STEP_BLOCK):
        steps = slice(lo, min(lo + _STEP_BLOCK, n_steps))
        got = table.block_values(step_rows, steps, p[steps], m[steps])
        for r, i in enumerate(range(lo, steps.stop)):
            assert np.array_equal(got[r], _reference_lookup(table, float(grid[i]), p[i], m[i]))


# no cost is a power of two, so a reordering of the goal's arithmetic shows
ENGINE_COSTS = CostParams(lam=0.3, gamma=0.7, big_gamma=1.3, horizon=1.0, x0=0.9)
ENGINE_MODELS = {
    "bachelier": BACH,
    "bs": CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05),
    "martingale": Martingale(p0=1.0, sigma=0.5),
    "drift": DeterministicDrift(times=np.array([0.0, 0.5, 1.0]),
                                values=np.array([-0.1, 0.2, 0.05]), p0=1.0),
}


@pytest.mark.parametrize("n_steps", [1, 7, 13, 1027])
@pytest.mark.parametrize("name", list(ENGINE_MODELS))
def test_blocked_engine_equals_step_by_step_reference(name, n_steps):
    # the feedback policies with and without a table and plain callables
    # returning a per-path array, a Python float, a Python int and a
    # one-element array, with no v1^2 sum, with one on the policy's table and
    # one on a table of its own; counts of 1, around 64 and past a batch
    model, costs = ENGINE_MODELS[name], ENGINE_COSTS
    kernel = GKernel.from_costs(costs)
    optimal = optimal_policy(model, kernel, costs)

    def plain(t, x, state):
        # the engine's inventory is not the policy's to change
        assert not x.flags.writeable
        return 0.7 * x + 0.05 * (state.m - state.p) + 0.01

    def flat(t, x, state):
        return 0.9 - 0.3 * t

    signal_free = ac_policy(kernel)
    policies = [optimal, signal_free, plain, flat, lambda t, x, state: 1,
                lambda t, x, state: np.array([0.4 * t + 0.2])]
    squares = (None, optimal.signal_table, model._signal_table(kernel, costs.lam))
    for count in (1, 63, 64, 65, 2049):
        def normals():
            return _simulate_batch(model, costs.horizon, n_steps, 11, 0, count)[1]

        grid, m = _batch(model, costs.horizon, n_steps, 11, 0, count)
        p = model._cap(m)
        for square in squares:
            # the blocks each fold receives, assembled into the batch's X and U
            paths = [(np.empty((n_steps + 1, count)), np.empty((n_steps, count)))
                     for _ in policies]

            def fold(k, lo, P, X, U):
                assert np.array_equal(P, p[lo:lo + P.shape[0]])
                # every batch reads the plan's one signal-free schedule
                if policies[k] is signal_free:
                    assert not (X.flags.writeable or U.flags.writeable)
                xs, us = paths[k]
                xs[lo:lo + X.shape[0]] = X
                us[lo:lo + U.shape[0]] = U

            plan = _plan(grid, policies, costs, square)
            # the step loop forms each block's levels and prices from the normals
            got = _run_batch(plan, count, normals(), fold)
            want = reference_run(grid, p, m, policies, costs, square)
            # the run without a fold is the same run
            runs = ((got, _run_batch(plan, count, normals())) if square is None
                    else (got,))
            for run in runs:
                for g, w in zip(run.goals, want.goals, strict=True):
                    for part in ("cash", "terminal_asset", "running_penalty",
                                 "terminal_penalty", "total"):
                        assert np.array_equal(getattr(g, part), getattr(w, part)), (count, part)
                assert (run.v1_squared is None) == (square is None)
                if square is not None:
                    assert np.array_equal(run.v1_squared, want.v1_squared)
            for (gx, gu), (wx, wu) in zip(paths, want.paths, strict=True):
                assert np.array_equal(gx, wx) and np.array_equal(gu, wu)


@pytest.mark.parametrize("name", ["bachelier", "bs", "martingale", "drift"])
def test_fold_price_blocks_assemble_the_capped_prices(name):
    # 1027 steps: 128 full blocks and a partial one of 3 steps, which also
    # takes in the terminal row
    model, costs, n_steps, count = ENGINE_MODELS[name], UNIT_COSTS, 1027, 65
    assert n_steps % _STEP_BLOCK
    grid, m = _batch(model, costs.horizon, n_steps, 11, 0, count)
    policy = optimal_policy(model, GKernel.from_costs(costs), costs)
    got, starts = np.empty((n_steps + 1, count)), []

    def fold(k, lo, P, X, U):
        assert P.shape[0] <= _STEP_BLOCK + 1
        starts.append(lo)
        got[lo:lo + P.shape[0]] = P

    _run_batch(_plan(grid, [policy], costs), count,
               _simulate_batch(model, costs.horizon, n_steps, 11, 0, count)[1], fold)
    assert starts == list(range(0, n_steps, _STEP_BLOCK))
    assert np.array_equal(got, model._cap(m))


def _footprint(table):
    """Shape of every array and length of every container the table holds."""
    return {name: np.shape(v) if isinstance(v, np.ndarray) else len(v)
            for name, v in vars(table).items() if isinstance(v, (np.ndarray, dict, list))}


def test_signal_table_is_lazy_and_bounded(monkeypatch):
    calls = []
    original = CappedBlackScholes._table_rows

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CappedBlackScholes, "_table_rows", counted)
    model = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.05)
    costs = UNIT_COSTS
    table = optimal_policy(model, GKernel.from_costs(costs), costs).signal_table
    assert calls == [] and table.rows is None

    p, m = np.array([1.0, 1.04]), np.array([1.05, 1.1])
    table.extra_values(0.0, p, m)
    built, footprint = len(calls), _footprint(table)
    for t in np.linspace(0.0, costs.horizon, 4097)[1:-1]:
        table.extra_values(float(t), p, m)
    assert len(calls) == built
    assert _footprint(table) == footprint


@pytest.mark.parametrize("p", [1.05, 1.001, math.nan])
def test_signal_table_rejects_prices_above_the_cap(p):
    # before the check: 6.1e-39 at p = 1.05, 1.99958 (above the at-barrier
    # 1.99460) at p = 1.001, and an IndexError for nan
    table = optimal_policy(BACH, GKernel.from_costs(SMALL_COSTS), SMALL_COSTS).signal_table
    with pytest.raises(ValueError, match="p must be finite and at most p_bar"):
        table.extra_values(0.0, np.array([0.9, p]), np.array([1.0, 1.0]))


def test_signal_table_is_zero_far_below_the_cap():
    # z ~ 2e17 and 2e300: the cell index overflowed to -2^63 in the cast to
    # int and the lookup raised IndexError
    table = optimal_policy(BACH, GKernel.from_costs(SMALL_COSTS), SMALL_COSTS).signal_table
    got = table.extra_values(0.3, np.array([-1e17, -1e300, 0.9]), np.ones(3))
    assert got[0] == 0.0 and got[1] == 0.0 and got[2] > 0.0


@pytest.mark.parametrize("m", [0.0, -0.5, math.nan])
def test_bs_signal_table_rejects_non_positive_level(m):
    model = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.0)
    table = optimal_policy(model, GKernel.from_costs(SMALL_COSTS), SMALL_COSTS).signal_table
    with pytest.raises(ValueError, match="m must be strictly positive"):
        table.extra_values(0.0, np.array([0.9, 0.9]), np.array([1.0, m]))


def test_optimal_policy_accepts_engine_paths_over_the_cap_by_rounding():
    # the engine's capped prices exceed p_bar = 0.3 by up to 7.2e-16 here
    # (81 359 grid points); a check with no slack rejects them
    model = CappedBachelier(m0=0.1, sigma=5.0, p_bar=0.3)
    policy = optimal_policy(model, GKernel.from_costs(SMALL_COSTS), SMALL_COSTS)
    est = estimate_value(model, policy, SMALL_COSTS, n_paths=10_240, n_steps=512, master_seed=7)
    assert math.isfinite(est.mean) and est.std_error > 0.0


def test_probe_expansion_matches_direct_replay():
    model = BACH
    costs = SMALL_COSTS
    kernel = GKernel.from_costs(costs)
    n_paths, n_steps, seed = 64, 128, 2024
    n_dirs, n_knots, epsilons = 3, montecarlo._PROBE_KNOTS, montecarlo._PROBE_EPSILONS
    probe = probe_optimality(model, kernel, costs, n_paths=n_paths, n_steps=n_steps,
                             master_seed=seed, n_directions=n_dirs)

    policy = optimal_policy(model, kernel, costs)
    alphas = _probe_alphas(n_dirs)
    knot = np.minimum(np.arange(n_steps) * n_knots // n_steps, n_knots - 1)
    grid, mb = _batch(model, costs.horizon, n_steps, seed, 0, n_paths)
    pb = model._cap(mb)
    gains = np.zeros((n_dirs, len(epsilons), n_paths))
    for j in range(n_paths):
        path = PathSample(grid=grid, m=mb[:, j], p=pb[:, j])
        plan, _ = run_strategy(path, policy, costs)
        problem = DiscreteProblem(path.p, costs)
        base = discrete_goal(problem, plan.rates)
        for d in range(n_dirs):
            steps = alphas[d][knot]
            for e, eps in enumerate(epsilons):
                gains[d, e, j] = discrete_goal(problem, plan.rates + eps * steps) - base
    np.testing.assert_allclose(probe.mean_gain, gains.mean(axis=2),
                               rtol=1e-9, atol=1e-13)


@pytest.mark.parametrize("seed", [1, 2])
def test_probe_detects_the_step_count_bias_of_coarse_grids(seed):
    # the continuous-time policy is only near-optimal for the discrete goal;
    # at 16 and 32 steps its discretisation bias is a first-order gain the
    # probe resolves at 2100 paths (worst margins 2.0e-4 to 6.0e-4), while
    # at 1024 steps it is below 3 standard errors (-2.4e-5, -5.4e-5)
    kernel = GKernel.from_costs(SMALL_COSTS)
    for n_steps in (16, 32):
        probe = probe_optimality(BACH, kernel, SMALL_COSTS, 2100, n_steps, seed)
        assert not probe.all_pass
        assert probe.margins.max() > 1e-4
    assert probe_optimality(BACH, kernel, SMALL_COSTS, 2100, 1024, seed).all_pass


def test_probe_shapes_and_negative_curvature():
    probe = probe_optimality(BACH, GKernel.from_costs(SMALL_COSTS), SMALL_COSTS,
                             n_paths=128, n_steps=64, master_seed=3, n_directions=5)
    assert probe.mean_gain.shape == (5, 4)
    assert probe.margins.shape == (5, 4)
    assert np.all(probe.curvature < 0.0)
    assert probe.value.n_paths == 128


def test_goal_breakdown_total_identity():
    bk = GoalBreakdown(cash=1.5, terminal_asset=0.25, running_penalty=0.4, terminal_penalty=0.1)
    assert bk.total == 1.5 + 0.25 - 0.4 - 0.1
    # the parts fix the total, so a caller cannot state a different one
    with pytest.raises(TypeError):
        GoalBreakdown(cash=1.0, terminal_asset=0.0, running_penalty=0.0, terminal_penalty=0.0,
                      total=99.0)


def test_path_sample_derives_its_running_max():
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    m = np.array([1.0, 1.2, 1.1, 1.3])
    path = PathSample(grid=grid, m=m, p=m - 0.5)
    np.testing.assert_array_equal(path.m_star, np.maximum.accumulate(m))
    np.testing.assert_array_equal(path.m_star, [1.0, 1.2, 1.2, 1.3])
    with pytest.raises(TypeError):
        PathSample(grid=grid, m=m, m_star=m, p=m)
    # a NaN level would give a NaN running max; the path is refused instead
    for name in ("m", "p"):
        bad = dict(m=m, p=m - 0.5)
        bad[name] = np.where(grid == 1.0, math.nan, bad[name])
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PathSample(grid=grid, **bad)


@pytest.mark.parametrize("other", [
    CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=2.0, x0=1.0),
    CostParams(lam=0.5, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0),
], ids=["horizon", "lam"])
def test_entry_points_reject_a_kernel_of_other_costs(other):
    # a kernel of other costs gave numbers silently: v1 -0.9935 (T = 2) and
    # -1.3266 (lam = 0.5) for -0.9745 at the barrier
    kernel, costs = GKernel.from_costs(other), UNIT_COSTS
    state = TargetZoneState(t=0.0, m=1.0, p=1.0)
    mc = dict(n_paths=4, n_steps=8, master_seed=1)
    calls = [
        lambda: v1_target_zone(kernel, costs, BACH, state),
        lambda: extra_rate(kernel, costs, BACH, state),
        lambda: full_rate(kernel, costs, BACH, state, 1.0),
        lambda: rate_surface(kernel, costs, BACH, [0.5, 1.0], [0.0, 0.1], x=1.0),
        lambda: value_formula(kernel, costs, 1.0, 0.0, 0.0),
        lambda: optimal_policy(BACH, kernel, costs),
        lambda: estimate_v0(BACH, kernel, costs, **mc),
        lambda: estimate_v0_and_value(BACH, kernel, costs, **mc),
        lambda: probe_optimality(BACH, kernel, costs, **mc),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="kernel"):
            call()
