"""Simulation, strategy-evaluation and perturbation-probe tests.

The discrete goal evaluator from the oracle module doubles as an
independent referee here: a strategy replayed through discrete_goal must
reproduce the engine's realized totals exactly (up to the documented
price-level shift p0 * x0).
"""

import math

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
    estimate_value,
    extra_rate,
    optimal_policy,
    paired_value_difference,
    path_stream,
    probe_optimality,
    run_strategy,
    simulate_path,
    value_formula,
    TargetZoneState,
)
from liqzone.montecarlo import _probe_alphas, _simulate_batch

SMALL_COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
BACH = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)


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


def test_batch_concatenation_is_bit_exact():
    grid, m, p = _simulate_batch(BACH, 1.0, 64, 99, 0, 48)
    _, m1, p1 = _simulate_batch(BACH, 1.0, 64, 99, 0, 17)
    _, m2, p2 = _simulate_batch(BACH, 1.0, 64, 99, 17, 31)
    np.testing.assert_array_equal(m[:, :17], m1)
    np.testing.assert_array_equal(m[:, 17:], m2)
    np.testing.assert_array_equal(p[:, :17], p1)
    np.testing.assert_array_equal(p[:, 17:], p2)


def test_batch_column_matches_single_path():
    # neither sigma = 1.7 nor sqrt(1 / 7) is a power of two, so any reordering
    # of the level arithmetic between the single-path and batch code shows
    for model in (BACH, CappedBachelier(m0=0.3, sigma=1.7, p_bar=2.0)):
        for n_steps in (7, 256):
            _, m, p = _simulate_batch(model, 1.0, n_steps, 5, 0, 8)
            for j in (0, 3, 7):
                path = simulate_path(model, 1.0, n_steps, path_stream(5, j))
                np.testing.assert_array_equal(path.m, m[:, j])
                np.testing.assert_array_equal(path.p, p[:, j])


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
    path = PathSample(grid=grid, m=ones, m_star=ones, p=ones)
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
    path = PathSample(grid=np.array([0.0, 0.1, 1.0]), m=ones, m_star=ones, p=ones)
    with pytest.raises(ValueError, match="grid"):
        run_strategy(path, lambda t, x, state: 0.5, UNIT_COSTS)


def test_no_trading_keeps_inventory_and_pays_penalties():
    costs = UNIT_COSTS
    path = simulate_path(BACH, 1.0, 32, path_stream(3, 0))
    plan, bk = run_strategy(path, lambda t, x, state: 0.0, costs)
    np.testing.assert_array_equal(plan.positions, np.ones(33))
    assert bk.cash == 0.0
    assert bk.terminal_asset == pytest.approx(float(path.p[-1]), rel=1e-15)
    assert bk.running_penalty == pytest.approx(costs.gamma * 1.0, rel=1e-12)


def test_realized_total_equals_discrete_goal_plus_level_shift():
    # independent referee: replaying the engine's own rates through the
    # oracle's goal evaluator must give total - p0 * x0 exactly
    model = BACH
    kernel = GKernel.from_costs(UNIT_COSTS)
    policy = optimal_policy(model, kernel, UNIT_COSTS)
    n = 64
    for j in range(4):
        path = simulate_path(model, 1.0, n, path_stream(11, j))
        plan, bk = run_strategy(path, policy, UNIT_COSTS)
        problem = DiscreteProblem(n_steps=n, delta=1.0 / n,
                                  drift=np.diff(path.p), costs=UNIT_COSTS)
        goal = discrete_goal(problem, plan.rates[:-1])
        assert bk.total - float(path.p[0]) * UNIT_COSTS.x0 == pytest.approx(goal, abs=1e-12)


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


def test_estimate_value_batch_size_independent():
    est_a = estimate_value(BACH, ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS,
                           n_paths=300, n_steps=64, master_seed=17, batch_size=64)
    est_b = estimate_value(BACH, ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS,
                           n_paths=300, n_steps=64, master_seed=17, batch_size=256)
    assert est_a.mean == est_b.mean
    assert est_a.std_error == est_b.std_error


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


def test_probe_expansion_matches_direct_replay():
    model = BACH
    costs = SMALL_COSTS
    kernel = GKernel.from_costs(costs)
    n_paths, n_steps, seed = 64, 128, 2024
    n_dirs, n_knots = 3, 4
    epsilons = (-0.05, 0.05)
    probe = probe_optimality(model, kernel, costs, n_paths=n_paths, n_steps=n_steps,
                             master_seed=seed, n_directions=n_dirs, n_knots=n_knots,
                             epsilons=epsilons, probe_seed=7)

    policy = optimal_policy(model, kernel, costs)
    alphas = _probe_alphas(7, n_dirs, n_knots)
    knot = np.minimum(np.arange(n_steps) * n_knots // n_steps, n_knots - 1)
    grid, mb, pb = _simulate_batch(model, costs.horizon, n_steps, seed, 0, n_paths)
    gains = np.zeros((n_dirs, len(epsilons), n_paths))
    for j in range(n_paths):
        path = PathSample(grid=grid, m=mb[:, j],
                          m_star=np.maximum.accumulate(mb[:, j]), p=pb[:, j])
        plan, _ = run_strategy(path, policy, costs)
        problem = DiscreteProblem(n_steps=n_steps, delta=float(grid[1]),
                                  drift=np.diff(path.p), costs=costs)
        base = discrete_goal(problem, plan.rates[:-1])
        for d in range(n_dirs):
            steps = alphas[d][knot]
            for e, eps in enumerate(epsilons):
                gains[d, e, j] = discrete_goal(problem, plan.rates[:-1] + eps * steps) - base
    np.testing.assert_allclose(probe.mean_gain, gains.mean(axis=2),
                               rtol=1e-9, atol=1e-13)


def test_probe_shapes_and_negative_curvature():
    probe = probe_optimality(BACH, GKernel.from_costs(SMALL_COSTS), SMALL_COSTS,
                             n_paths=128, n_steps=64, master_seed=3,
                             n_directions=5, n_knots=4)
    assert probe.mean_gain.shape == (5, 4)
    assert probe.margins.shape == (5, 4)
    assert np.all(probe.curvature < 0.0)
    assert probe.value.n_paths == 128


def test_goal_breakdown_total_identity():
    bk = GoalBreakdown.build(cash=1.5, terminal_asset=0.25,
                             running_penalty=0.4, terminal_penalty=0.1)
    assert bk.total == 1.5 + 0.25 - 0.4 - 0.1


def test_path_sample_rejects_inconsistent_running_max():
    grid = np.array([0.0, 0.5, 1.0])
    m = np.array([1.0, 1.2, 1.1])
    with pytest.raises(ValueError):
        PathSample(grid=grid, m=m, m_star=m, p=m)


def test_argument_validation():
    with pytest.raises(ValueError):
        path_stream(-1, 0)
    with pytest.raises(ValueError):
        path_stream(0, -1)
    with pytest.raises(ValueError):
        simulate_path(BACH, 0.0, 16, path_stream(0, 0))
    with pytest.raises(ValueError):
        estimate_value(BACH, ac_policy(GKernel.from_costs(UNIT_COSTS)), UNIT_COSTS,
                       n_paths=1, n_steps=16, master_seed=0)
