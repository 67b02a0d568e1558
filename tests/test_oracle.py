"""Discrete-oracle tests: hand-solved cases, optimality structure, and
agreement with the closed-form schedules at coarse resolution."""

import numpy as np
import pytest

from liqzone import (
    CostParams,
    DiscreteProblem,
    GKernel,
    ac_position,
    discrete_goal,
    solve_discrete,
    urgency,
)
from oracle_reference import dense_rates

UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
UNIT = CostParams(lam=1.0, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)


def test_two_step_hand_case():
    # lam = gamma = big_gamma = T = x0 = 1, n = 2, zero drift.  Eliminating
    # X_1 = 1 - u_0/2, X_2 = X_1 - u_1/2 from the KKT system by hand gives
    # u = (14/19, 8/19) exactly.
    plan = solve_discrete(DiscreteProblem.uniform(UNIT, 2))
    np.testing.assert_allclose(plan.rates, [14.0 / 19.0, 8.0 / 19.0],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(plan.positions, [1.0, 12.0 / 19.0, 8.0 / 19.0],
                               rtol=0.0, atol=1e-15)


def test_terminal_first_order_condition():
    for level in (0.0, -0.1):
        problem = DiscreteProblem.uniform(UNIT_COSTS, 256, drift_level=level)
        plan = solve_discrete(problem)
        prices = problem.prices
        lhs = plan.rates[-1] - (UNIT_COSTS.big_gamma / UNIT_COSTS.lam) * plan.positions[-1]
        rhs = (prices[-2] - prices[-1]) / (2.0 * UNIT_COSTS.lam)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_matches_closed_form_at_coarse_resolution():
    n = 100
    plan = solve_discrete(DiscreteProblem.uniform(UNIT_COSTS, n))
    k = GKernel.from_costs(UNIT_COSTS)
    ref = np.array([ac_position(k, t, 1.0) for t in plan.grid])
    assert np.max(np.abs(plan.positions - ref)) < 2e-4
    # first-cell average selling rate against the closed-form trajectory
    ref_u0 = (1.0 - ac_position(k, 1.0 / n, 1.0)) * n
    assert plan.rates[0] == pytest.approx(ref_u0, rel=2e-4)
    assert plan.rates[0] == pytest.approx(urgency(k, 0.0), rel=2e-2)


def test_goal_decreases_away_from_optimum():
    problem = DiscreteProblem.uniform(UNIT_COSTS, 32)
    u = solve_discrete(problem).rates
    base = discrete_goal(problem, u)
    rng = np.random.default_rng(5)
    for _ in range(8):
        e = 1e-3 * rng.standard_normal(32)
        plus, minus = discrete_goal(problem, u + e), discrete_goal(problem, u - e)
        assert plus < base and minus < base
        # the goal is exactly quadratic along the line, so the quadratic
        # through -e, 0, +e extrapolates to +2e up to rounding
        assert discrete_goal(problem, u + 2.0 * e) == pytest.approx(
            3.0 * plus - 3.0 * base + minus, rel=1e-12)


def test_scaling_invariance_zero_drift():
    # doubling (lam, gamma, big_gamma) jointly rescales the objective but
    # leaves its argmax untouched when there is no drift term
    scaled = CostParams(lam=0.2, gamma=2.0, big_gamma=2.0, horizon=1.0, x0=1.0)
    a = solve_discrete(DiscreteProblem.uniform(UNIT_COSTS, 128))
    b = solve_discrete(DiscreteProblem.uniform(scaled, 128))
    np.testing.assert_allclose(a.rates, b.rates, rtol=1e-9)


def test_negative_drift_front_loads_selling():
    flat = solve_discrete(DiscreteProblem.uniform(UNIT_COSTS, 128))
    falling = solve_discrete(DiscreteProblem.uniform(UNIT_COSTS, 128, drift_level=-0.5))
    assert falling.rates[0] > flat.rates[0]
    assert falling.positions[64] < flat.positions[64]


def test_solver_matches_dense_reference():
    # the production solver runs the dynamic-programming recursion on the
    # goal to go; a dense solve of the stationarity system H u = b must agree
    rng = np.random.default_rng(3)
    for n in (2, 3, 7, 64, 1500):
        for costs in (UNIT_COSTS,
                      CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5,
                                 horizon=1.0, x0=1.0),
                      CostParams(lam=2.0, gamma=0.3, big_gamma=7.0,
                                 horizon=2.5, x0=4.0),
                      # beta T = sqrt(gamma / lam) T = 31.6
                      CostParams(lam=0.01, gamma=0.01 * 31.6**2, big_gamma=1.0,
                                 horizon=1.0, x0=1.0)):
            walk = 1.0 + np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.02, n))))
            for problem in (DiscreteProblem.uniform(costs, n),
                            DiscreteProblem.uniform(costs, n, drift_level=-0.1),
                            DiscreteProblem(walk, costs)):
                fast = solve_discrete(problem)
                dense = dense_rates(problem)
                scale = float(np.max(np.abs(dense)))
                np.testing.assert_allclose(fast.rates, dense,
                                           rtol=0.0, atol=1e-12 * scale)


def test_step_is_the_horizon_over_the_step_count():
    # n is one fewer than the prices and delta is T / n itself, so the plan
    # keeps its own Euler identity to rounding
    rng = np.random.default_rng(5)
    for costs in (UNIT_COSTS, CostParams(lam=2.0, gamma=0.3, big_gamma=7.0, horizon=2.5, x0=4.0)):
        for n in (2, 7, 1500):
            problem = DiscreteProblem(rng.normal(0.0, 0.02, n + 1), costs)
            assert problem.n_steps == n
            assert problem.delta == costs.horizon / n
            plan = solve_discrete(problem)
            assert plan.rates.shape == (n,)
            assert plan.max_euler_residual() <= 1e-15
    for derived in ("n_steps", "delta"):
        with pytest.raises(TypeError):
            DiscreteProblem(np.zeros(17), UNIT_COSTS, **{derived: 16})


def test_uniform_constructor_prices():
    problem = DiscreteProblem.uniform(UNIT_COSTS, 4, drift_level=-0.2)
    np.testing.assert_allclose(problem.prices,
                               [0.0, -0.05, -0.1, -0.15, -0.2], atol=1e-15)
