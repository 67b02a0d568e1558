"""Kernel, urgency and trajectory tests for the schedule module.

Reference decimals were produced with mpmath at 40+ digits from the
definitions G(t) = beta cosh(beta t) + (Gamma/lambda) sinh(beta t),
urgency(t) = G'(T-t)/G(T-t).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liqzone import (
    CostParams,
    GKernel,
    TradePlan,
    ac_position,
    g_value,
    optimal_rate,
    trajectory_from_signal,
    urgency,
    value_formula,
)

SMALL_COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)


def test_kernel_from_costs_fields():
    k = GKernel.from_costs(UNIT_COSTS)
    assert k.beta == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert k.gamma_ratio == pytest.approx(10.0, rel=1e-15)
    assert k.horizon == 1.0


def test_g_value_matches_multiprecision():
    k = GKernel.from_costs(UNIT_COSTS)
    assert g_value(k, 1.0) == pytest.approx(155.33036281399332, rel=1e-13)


def test_urgency_matches_multiprecision():
    # moderate beta*tau, raw cosh/sinh branch
    assert urgency(GKernel(beta=5.0, gamma_ratio=0.5, horizon=1.0), 0.2) == pytest.approx(
        4.9972560588996368, rel=1e-13)
    assert urgency(GKernel(beta=2.0, gamma_ratio=8.0, horizon=1.0), 0.4) == pytest.approx(
        2.2302561054667932, rel=1e-13)
    assert urgency(GKernel.from_costs(UNIT_COSTS), 0.7) == pytest.approx(
        3.6966190733515455, rel=1e-13)
    assert urgency(GKernel.from_costs(SMALL_COSTS), 0.0) == pytest.approx(
        1.9997666979957688e-4, rel=1e-13)


def test_urgency_terminal_value_is_exact():
    for costs in (SMALL_COSTS, UNIT_COSTS):
        k = GKernel.from_costs(costs)
        assert urgency(k, costs.horizon) == costs.big_gamma / costs.lam


@settings(max_examples=200, deadline=None)
@given(
    beta=st.floats(1e-3, 20.0),
    g=st.floats(1e-3, 20.0),
    frac=st.floats(0.0, 1.0),
)
def test_urgency_between_beta_and_terminal_ratio(beta, g, frac):
    k = GKernel(beta=beta, gamma_ratio=g, horizon=1.0)
    u = urgency(k, frac * k.horizon)
    lo, hi = min(beta, g), max(beta, g)
    assert lo - 1e-12 * hi <= u <= hi + 1e-12 * hi


def test_urgency_small_beta_limit():
    # beta -> 0 at fixed Gamma/lambda: urgency -> g / (1 + g tau)
    g, tau = 3.0, 0.7
    k = GKernel(beta=1e-8, gamma_ratio=g, horizon=1.0)
    assert urgency(k, k.horizon - tau) == pytest.approx(g / (1.0 + g * tau), rel=1e-9)


def test_series_branch_small_beta_t():
    # beta * t below the Taylor switch; values carry the O((beta t)^2)
    # correction that a naive g ~ beta + g*beta*t evaluation would miss
    k = GKernel(beta=1e-5, gamma_ratio=0.3, horizon=1.0)
    assert urgency(k, 0.0) == pytest.approx(0.23076923084792899, rel=1e-12)
    assert g_value(k, 1.0) == pytest.approx(1.300000000055e-5, rel=1e-12)


def test_overflow_regime_matches_multiprecision():
    # beta*T up to 1000: cosh overflows float64 near 710, so these only
    # pass through the rescaled branch; position ratios reach 1e-218
    cases = [
        (40.0, 3.0, 0.75, 9.3576229854363942e-14),
        (200.0, 3.0, 0.75, 7.1750959731644104e-66),
        (1000.0, 7.0, 0.5, 7.1245764067412855e-218),
    ]
    for beta, g, t, ratio in cases:
        k = GKernel(beta=beta, gamma_ratio=g, horizon=1.0)
        assert ac_position(k, t, 1.0) == pytest.approx(ratio, rel=1e-12)
        # urgency saturates at beta superexponentially fast in beta*tau
        assert urgency(k, 0.0) == pytest.approx(beta, rel=1e-12)
        assert math.isfinite(g_value(k, 0.3))


def test_both_branches_exact_at_switch():
    # pin each evaluation branch just either side of the beta*t = 30 handover
    k = GKernel(beta=40.0, gamma_ratio=2.0, horizon=1.0)
    assert g_value(k, 29.9996 / 40.0) == pytest.approx(224326217776412.66, rel=1e-13)
    assert g_value(k, 30.0004 / 40.0) == pytest.approx(224505750554169.82, rel=1e-13)


def test_ac_position_endpoints():
    k = GKernel.from_costs(UNIT_COSTS)
    assert ac_position(k, 0.0, 1.0) == 1.0
    assert ac_position(k, 0.5, 1.0) == pytest.approx(0.20140394014548443, rel=1e-13)
    assert ac_position(k, 1.0, 1.0) > 0.0


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(1e-3, 10.0),
    gamma=st.floats(1e-6, 10.0),
    big_gamma=st.floats(1e-6, 10.0),
    t=st.floats(0.01, 0.99),
)
# beta T = 31.2 puts G(T) past the exponential switch while G(T - t) is not
@example(lam=0.01, gamma=9.75, big_gamma=1.0, t=0.0625)
def test_ac_position_decreasing_in_time_and_terminal_cost(lam, gamma, big_gamma, t):
    costs = CostParams(lam=lam, gamma=gamma, big_gamma=big_gamma, horizon=1.0, x0=1.0)
    k = GKernel.from_costs(costs)
    assert ac_position(k, t + 0.005, 1.0) < ac_position(k, t, 1.0)
    heavier = CostParams(lam=lam, gamma=gamma, big_gamma=2.0 * big_gamma + 0.1,
                         horizon=1.0, x0=1.0)
    assert ac_position(GKernel.from_costs(heavier), t, 1.0) < ac_position(k, t, 1.0) + 1e-15


def test_optimal_rate_decomposition():
    k = GKernel.from_costs(UNIT_COSTS)
    t, x, v1 = 0.3, 0.6, -0.25
    assert optimal_rate(k, t, x) == pytest.approx(urgency(k, t) * x, rel=1e-15)
    assert optimal_rate(k, t, x, v1) == pytest.approx(urgency(k, t) * x - v1, rel=1e-15)


def test_trajectory_zero_signal_is_ac_position():
    k = GKernel.from_costs(UNIT_COSTS)
    grid = np.linspace(0.0, 1.0, 257)
    plan = trajectory_from_signal(k, 1.0, np.zeros(grid.size), grid)
    ref = np.array([ac_position(k, t, 1.0) for t in grid])
    np.testing.assert_allclose(plan.positions, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(plan.rates,
                               [urgency(k, t) for t in grid[:-1]] * ref[:-1],
                               rtol=1e-12)


def _v1_constant_drift(k, lam, drift, tau):
    # closed form of the signal for a constant price drift:
    # (a / 2 lambda) * int_0^tau G(w) dw / G(tau)
    beta, g = k.beta, k.gamma_ratio
    integral = math.sinh(beta * tau) + g / beta * (math.cosh(beta * tau) - 1.0)
    return drift / (2.0 * lam) * integral / g_value(k, tau)


def test_constant_drift_signal_closed_form():
    k = GKernel.from_costs(UNIT_COSTS)
    assert _v1_constant_drift(k, 0.1, -0.1, 1.0) == pytest.approx(
        -0.14822930513653838, rel=1e-13)


def test_position_ode_rk4_vs_closed_form():
    # dX/dt = -(urgency X - v1); RK4 at dt = 1e-3 against the closed-form
    # trajectory, for the signal-free and the constant-drift case
    k = GKernel.from_costs(UNIT_COSTS)
    lam, drift = 0.1, -0.1
    n = 1000
    dt = 1.0 / n
    for with_signal in (False, True):
        def v1(t):
            return _v1_constant_drift(k, lam, drift, 1.0 - t) if with_signal else 0.0

        def f(t, x):
            return -(urgency(k, t) * x - v1(t))

        x = 1.0
        grid = [0.0]
        xs = [x]
        for i in range(n):
            t = i * dt
            k1 = f(t, x)
            k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
            k4 = f(t + dt, x + dt * k3)
            x += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            grid.append((i + 1) * dt)
            xs.append(x)
        if with_signal:
            fine = np.linspace(0.0, 1.0, 20001)
            v1_fine = np.array([v1(t) for t in fine])
            ref = trajectory_from_signal(k, 1.0, v1_fine, fine).positions[::20]
        else:
            ref = np.array([ac_position(k, t, 1.0) for t in grid])
        assert np.max(np.abs(np.array(xs) - ref)) < 1e-6


def test_signal_ode_rk4_vs_closed_form():
    # backward equation v1' = urgency v1 - a / (2 lambda), v1(T) = 0,
    # integrated from T to 0 with RK4 at dt = 1e-3
    k = GKernel.from_costs(UNIT_COSTS)
    lam, drift = 0.1, -0.1

    def f(t, v):
        return urgency(k, t) * v - drift / (2.0 * lam)

    n = 1000
    dt = 1.0 / n
    v = 0.0
    for i in range(n):
        t = 1.0 - i * dt
        k1 = f(t, v)
        k2 = f(t - 0.5 * dt, v - 0.5 * dt * k1)
        k3 = f(t - 0.5 * dt, v - 0.5 * dt * k2)
        k4 = f(t - dt, v - dt * k3)
        v -= dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert abs(v - (-0.14822930513653838)) < 1e-6


def test_trade_plan_euler_residual_small_on_exact_plan():
    k = GKernel.from_costs(UNIT_COSTS)
    grid = np.linspace(0.0, 1.0, 2001)
    plan = trajectory_from_signal(k, 1.0, np.zeros(grid.size), grid)
    assert plan.max_euler_residual() < 1e-4


def test_trade_plan_shape_validation():
    # a position at each grid point, a rate on each step
    grid = np.linspace(0.0, 1.0, 5)
    assert TradePlan(grid=grid, positions=np.ones(5), rates=np.ones(4)).rates.shape == (4,)
    with pytest.raises(ValueError, match="positions"):
        TradePlan(grid=grid, positions=np.ones(4), rates=np.ones(4))
    with pytest.raises(ValueError, match="rates"):
        TradePlan(grid=grid, positions=np.ones(5), rates=np.ones(5))
    with pytest.raises(ValueError):
        TradePlan(grid=grid[::-1], positions=np.ones(5), rates=np.ones(4))


def test_value_formula_is_affine_quadratic_identity():
    k = GKernel.from_costs(SMALL_COSTS)
    costs = SMALL_COSTS
    p0, v0, v1 = 1.0, 0.85, -1.99
    v2 = -urgency(k, 0.0)
    expected = p0 * costs.x0 + costs.lam * (
        v0 + 2.0 * v1 * costs.x0 + v2 * costs.x0 ** 2)
    assert value_formula(k, costs, p0, v0, v1) == pytest.approx(expected, rel=1e-15)
