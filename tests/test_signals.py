"""Lookback pricing, drift signals and rate surface tests.

Frozen decimals come from 40-digit mpmath evaluations of the closed forms
(normal pdf/cdf composites and the G-ratio integrals).
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from liqzone import (
    CappedBachelier,
    CappedBlackScholes,
    CostParams,
    DeterministicDrift,
    GKernel,
    Martingale,
    QuadratureError,
    TargetZoneState,
    bachelier_lookback_price,
    bachelier_theta,
    bs_f,
    bs_theta,
    extra_rate,
    extra_rate_small_beta,
    full_rate,
    g_value,
    optimal_policy,
    rate_surface,
    trajectory_from_signal,
    urgency,
    v1_curve_deterministic,
    v1_target_zone,
)
from liqzone import signals
from quad_reference import quad_extra
import loop_reference

# a quad reference that did not converge fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

SMALL_COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
# beta T = 31.6: the discount confines the integrand to y < ~0.18
LARGE_BETA_COSTS = CostParams(lam=0.01, gamma=10.0, big_gamma=1.0, horizon=1.0, x0=1.0)
# beta T = 31.6 with a terminal penalty as steep as the running one
STEEP_COSTS = CostParams(lam=0.1, gamma=100.0, big_gamma=100.0, horizon=1.0, x0=1.0)
SIGMA = 0.5


def test_bachelier_theta_frozen():
    assert bachelier_theta(0.5, 0.1, SIGMA) == pytest.approx(
        0.27103369677621578, rel=1e-13)
    # vectorized call agrees with scalars
    u = np.array([0.25, 0.5, 1.0])
    vals = bachelier_theta(u, 0.1, SIGMA)
    for ui, vi in zip(u, vals):
        assert vi == pytest.approx(bachelier_theta(float(ui), 0.1, SIGMA), rel=1e-15)


def test_bachelier_price_frozen():
    assert bachelier_lookback_price(1.0, 0.1, SIGMA) == pytest.approx(
        0.30689463586327648, rel=1e-13)
    assert bachelier_lookback_price(0.25, 0.0, SIGMA) == pytest.approx(
        0.19947114020071634, rel=1e-13)


def test_bachelier_theta_is_maturity_derivative_of_price():
    u, k, h = 0.7, 0.2, 1e-5
    fd = (bachelier_lookback_price(u + h, k, SIGMA)
          - bachelier_lookback_price(u - h, k, SIGMA)) / (2.0 * h)
    assert fd == pytest.approx(bachelier_theta(u, k, SIGMA), rel=1e-7)


def test_bachelier_price_equals_integrated_theta():
    # s = w^2 substitution removes the 1/sqrt(s) endpoint singularity
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    for u, k in ((0.5, 0.0), (1.0, 0.3)):
        def f(w, k=k):
            if w * w <= 0.0:
                return 2.0 * SIGMA * phi0 if k == 0.0 else 0.0
            return 2.0 * w * bachelier_theta(w * w, k, SIGMA)
        val, _ = quad(f, 0.0, math.sqrt(u), epsabs=1e-13, epsrel=1e-12)
        assert val == pytest.approx(bachelier_lookback_price(u, k, SIGMA), rel=1e-10)


def test_bs_f_barrier_value_and_sign():
    assert bs_f(0.49, 1.3, 1.2, SIGMA, 1.2) == pytest.approx(
        0.5 * SIGMA * 0.7, rel=1e-14)
    assert bs_f(0.49, 1.3, 1.0, SIGMA, 1.2) < bs_f(0.49, 1.3, 1.2, SIGMA, 1.2)


def test_bs_theta_frozen():
    assert bs_theta(1.0, 1.0, 1.0, SIGMA, 1.25) == pytest.approx(
        0.24843933333895867, rel=1e-13)
    assert bs_theta(0.25, 1.0, 1.0, SIGMA, 1.0) == pytest.approx(
        0.46455496504851360, rel=1e-13)


def test_bs_theta_increasing_in_level_decreasing_in_moneyness():
    base = bs_theta(0.5, 1.0, 1.0, SIGMA, 1.1)
    assert bs_theta(0.5, 1.2, 1.0, SIGMA, 1.1) > base
    assert bs_theta(0.5, 1.0, 0.9, SIGMA, 1.1) < base


def test_extra_rate_small_beta_frozen():
    assert extra_rate_small_beta(1.0, 0.0, SIGMA, 0.1) == pytest.approx(
        1.9947114020071634, rel=1e-13)


def test_v1_martingale_is_zero():
    # the state query and the Monte Carlo table both read the zero curve
    k = GKernel.from_costs(UNIT_COSTS)
    model = Martingale(p0=1.0, sigma=SIGMA)
    table = optimal_policy(model, k, UNIT_COSTS).signal_table
    p = np.array([1.0, 0.5, 2.0])
    for t in (0.0, 0.25, 0.4, 0.9):
        assert v1_target_zone(k, UNIT_COSTS, model, TargetZoneState(t=t, m=1.0, p=1.0)) == 0.0
        assert np.all(table.extra_values(t, p, p) == 0.0)


def test_v1_constant_drift_frozen():
    k = GKernel.from_costs(UNIT_COSTS)
    model = DeterministicDrift(times=np.array([0.0, 1.0]),
                               values=np.array([-0.1, -0.1]), p0=1.0)
    st = TargetZoneState(t=0.0, m=1.0, p=1.0)
    assert v1_target_zone(k, UNIT_COSTS, model, st) == pytest.approx(
        -0.14822930513653838, rel=1e-6)


@pytest.mark.parametrize("costs", [UNIT_COSTS, SMALL_COSTS])
@pytest.mark.parametrize("a", [-0.1, 0.37])
def test_constant_drift_signal_matches_closed_form(costs, a):
    # for a constant drift a, int_0^tau G = (G'(tau) - beta g) / beta^2, so
    # v1(t) = a (urgency(t) - beta g / G(T - t)) / (2 lam beta^2); the state
    # query and the Monte Carlo table both read the model's one v1 curve, at
    # any time (0.123 and 0.777 included)
    k = GKernel.from_costs(costs)
    model = DeterministicDrift(times=np.array([0.0, 1.0]), values=np.array([a, a]), p0=1.0)
    table = optimal_policy(model, k, costs).signal_table
    p = np.array([1.0, 0.5, 2.0])
    for t in (0.0, 0.123, 0.25, 0.5, 0.777, 0.9):
        exact = a * (urgency(k, t) - k.beta * k.gamma_ratio / g_value(k, 1.0 - t)) / (
            2.0 * costs.lam * k.beta**2)
        st = TargetZoneState(t=t, m=1.0, p=1.0)
        assert v1_target_zone(k, costs, model, st) == pytest.approx(exact, rel=1e-12)
        np.testing.assert_allclose(-table.extra_values(t, p, p), exact, rtol=1e-12, atol=0.0)


def _v1_piecewise_linear(times, values, costs, t):
    """v1(t) of a piecewise-linear drift in closed form, at 50 digits.

    In u = T - s, G(u) = beta cosh(beta u) + g sinh(beta u) has antiderivative
    H1 and H1 has H2; on a piece a = A - c u, int G a du = A H1 - c (u H1 - H2).
    mpmath does not overflow at beta T = 1000, where g_value does.
    """
    with mpmath.workdps(50):
        b = mpmath.sqrt(mpmath.mpf(costs.gamma) / costs.lam)
        g, T, t = mpmath.mpf(costs.big_gamma) / costs.lam, mpmath.mpf(costs.horizon), mpmath.mpf(t)

        def integral(u, big_a, c):  # int_0^u G(w) (big_a - c w) dw, up to a constant
            h1 = mpmath.sinh(b * u) + g / b * mpmath.cosh(b * u)
            return big_a * h1 - c * (u * h1 - mpmath.cosh(b * u) / b - g / b**2 * mpmath.sinh(b * u))

        total = mpmath.mpf(0)
        for s0, s1, a0, a1 in zip(times[:-1], times[1:], values[:-1], values[1:]):
            s0, s1, a0, a1 = map(mpmath.mpf, (s0, s1, a0, a1))
            if s1 > t:
                c = (a1 - a0) / (s1 - s0)
                big_a = a0 + c * (T - s0)
                total += integral(T - max(s0, t), big_a, c) - integral(T - s1, big_a, c)
        return float(total / (2 * costs.lam * (b * mpmath.cosh(b * (T - t))
                                               + g * mpmath.sinh(b * (T - t)))))


# the closed form's error relative to the curve's largest |v1| at these
# times, measured for the three drifts at most 4.7e-16 (the trapezoid rule it
# replaced: 1.2e-11 at small costs, 3.5e-7 at unit costs, 5.0e-3 at beta T =
# 1000).  No case warns (pytest turns a RuntimeWarning into an error)
@pytest.mark.parametrize("costs", [
    SMALL_COSTS,
    UNIT_COSTS,
    CostParams(lam=0.1, gamma=1e5, big_gamma=1.0, horizon=1.0, x0=1.0),
], ids=["small", "unit", "beta-T-1000"])
@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0], [-0.1, -0.1]),
    ([0.0, 0.3, 1.0], [-0.1, 0.2, -0.3]),
    ([0.0, 0.3, 0.7, 1.0], [0.1, -0.4, 0.25, 0.05]),
], ids=["constant", "two-piece", "three-piece"])
def test_drift_signal_trapezoid_error_is_bounded(costs, times, values):
    k = GKernel.from_costs(costs)
    model = DeterministicDrift(times=np.array(times), values=np.array(values), p0=1.0)
    ts = (0.0, 0.1234, 0.3, 0.305, 0.5, 0.9, 0.999, 1.0)  # on and next to a knot, and T
    exact = np.array([_v1_piecewise_linear(times, values, costs, t) for t in ts])
    scale = np.max(np.abs(exact))
    state = [v1_target_zone(k, costs, model, TargetZoneState(t=t, m=1.0, p=1.0))
             for t in ts[:-1]]
    assert np.max(np.abs(state - exact[:-1])) <= 1e-12 * scale
    curve = v1_curve_deterministic(model, k, costs.lam, np.array(ts))
    assert np.max(np.abs(curve - exact)) <= 1e-12 * scale
    assert curve[-1] == 0.0


@pytest.mark.parametrize("times, values, grid", [
    ([0.0, 0.35, 1.0], [0.0, 1.0, -0.5], np.linspace(0.0, 1.0, 11)),
    ([0.0, 0.35, 1.0], [0.0, 1.0, -0.5], np.linspace(0.0, 1.0, 4)),
    ([0.0, 0.3, 0.7, 1.0], [0.1, -0.4, 0.25, 0.05], np.linspace(0.0, 1.0, 9)),
    ([0.0, 0.3, 0.7, 1.0], [0.1, -0.4, 0.25, 0.05], np.array([0.0, 0.05, 0.31, 0.69, 1.0])),
    ([-0.5, 0.123, 2.0], [-0.1, 0.3, 0.2], np.linspace(0.0, 1.5, 7)),
], ids=["one-knot-10-steps", "one-knot-3-steps", "two-knots-8-steps", "two-knots-uneven",
        "knots-beyond-the-grid"])
def test_expected_levels_integrate_each_linear_piece_exactly(times, values, grid):
    # p0 + int_{grid[0]}^t a: on a piece a = v_k + m (s - t_k), whose integral
    # from t_k is v_k (t - t_k) + m (t - t_k)^2 / 2; knots fall between grid points
    model = DeterministicDrift(times=np.array(times), values=np.array(values), p0=1.0)

    def integral(t):  # of a from times[0] to t
        total = 0.0
        for k in range(len(times) - 1):
            w = min(t, times[k + 1]) - times[k]
            if w > 0.0:
                m = (values[k + 1] - values[k]) / (times[k + 1] - times[k])
                total += values[k] * w + 0.5 * m * w * w
        return total

    exact = np.array([1.0 + integral(t) - integral(grid[0]) for t in grid])
    assert np.max(np.abs(model._expected_levels(grid) - exact)) <= 1e-15


def test_v1_curve_refines_sparse_caller_grids():
    # a single-point grid gives the value any grid does: the closed form
    # does not integrate on the caller's mesh
    k = GKernel.from_costs(UNIT_COSTS)
    model = DeterministicDrift(times=np.array([0.0, 1.0]),
                               values=np.array([-0.1, -0.1]), p0=1.0)
    got = float(v1_curve_deterministic(model, k, UNIT_COSTS.lam, np.array([0.0]))[0])
    assert got == pytest.approx(-0.14822930513653838, rel=1e-12)
    assert got == v1_curve_deterministic(model, k, UNIT_COSTS.lam, np.linspace(0.0, 1.0, 9))[0]


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS, LARGE_BETA_COSTS],
                         ids=["small", "unit", "large-beta"])
def test_drift_curve_on_a_later_grid_equals_its_entries(costs):
    # each point's v1 is its own closed form, so a grid's tail, the Monte
    # Carlo table's step rows and its one-step query read the same numbers
    model = DeterministicDrift(times=np.array([0.0, 0.3, 0.7, 1.0]),
                               values=np.array([0.1, -0.4, 0.25, 0.05]), p0=1.0)
    k = GKernel.from_costs(costs)
    grid = np.linspace(0.0, 1.0, 778)
    curve = v1_curve_deterministic(model, k, costs.lam, grid)
    for start in (1, 233, 234, 700, 777):
        assert np.array_equal(v1_curve_deterministic(model, k, costs.lam, grid[start:]),
                              curve[start:])
    table = optimal_policy(model, k, costs).signal_table
    assert np.array_equal(table.step_rows(grid[:-1]), -curve[:-1])
    p = np.ones(3)
    for i in (0, 233, 776):
        assert np.array_equal(table.extra_values(grid[i], p, p), np.full(3, -curve[i]))


def test_capped_extra_frozen_at_barrier():
    # at-barrier extra selling rate at t = 0 for both cost regimes
    for costs, expected in ((SMALL_COSTS, 1.9945983830159818), (UNIT_COSTS, 0.97447035075482716)):
        k = GKernel.from_costs(costs)
        model = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0)
        st = TargetZoneState(t=0.0, m=1.0, p=1.0)
        assert extra_rate(k, costs, model, st) == pytest.approx(expected, rel=1e-12)
        assert v1_target_zone(k, costs, model, st) == pytest.approx(-expected, rel=1e-12)


def test_panel_refinement_converged():
    # the Gauss-Kronrod rule agrees with an independent adaptive quad to < 1e-10 rel
    k = GKernel.from_costs(UNIT_COSTS)
    model = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0)
    for tau, money in ((1.0, 0.0), (0.5, 0.2), (0.05, 0.05)):
        got = model._extra(k, UNIT_COSTS.lam, np.array([tau]), np.array([1.0 - money]),
                           np.array([1.0]))[0][0, 0]
        want = quad_extra(model, UNIT_COSTS, tau, money, 1.0)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-18)


def test_far_from_barrier_extra_vanishes():
    k = GKernel.from_costs(UNIT_COSTS)
    model = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0 + 10.0 * SIGMA)
    st = TargetZoneState(t=0.0, m=1.0, p=1.0)
    at_barrier = extra_rate(k, UNIT_COSTS, model, TargetZoneState(t=0.0, m=model.p_bar,
                                                            p=model.p_bar))
    assert extra_rate(k, UNIT_COSTS, model, st) < 1e-8 * at_barrier


def test_extra_rate_decreasing_in_moneyness():
    k = GKernel.from_costs(UNIT_COSTS)
    p_bar = 1.0
    bach = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=p_bar)
    bs = CappedBlackScholes(m0=1.0, sigma=SIGMA, p_bar=p_bar)
    # the geometric model needs a strictly positive level, so stop short of p_bar
    for model, ladder in ((bach, np.linspace(0.0, 1.0, 50)),
                          (bs, np.linspace(0.0, 0.9, 50))):
        rates = [
            extra_rate(k, UNIT_COSTS, model, TargetZoneState(t=0.0, m=p_bar - m, p=p_bar - m))
            for m in ladder
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def test_extra_rate_increasing_in_inverse_lambda():
    model = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0)
    st = TargetZoneState(t=0.0, m=1.0, p=0.9)
    rates = []
    for lam in (0.4, 0.2, 0.1, 0.05):
        costs = CostParams(lam=lam, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
        rates.append(extra_rate(GKernel.from_costs(costs), costs, model, st))
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_bs_extra_rate_increasing_in_level():
    # fixed moneyness, growing uncapped level: more lookback value at stake
    costs = UNIT_COSTS
    k = GKernel.from_costs(costs)
    money = 0.1
    rates = []
    for m in (0.8, 1.0, 1.4, 2.0):
        model = CappedBlackScholes(m0=m, sigma=SIGMA, p_bar=m)
        st = TargetZoneState(t=0.0, m=m, p=m - money)
        rates.append(extra_rate(k, costs, model, st))
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_full_rate_is_ac_plus_extra():
    k = GKernel.from_costs(UNIT_COSTS)
    model = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0)
    st = TargetZoneState(t=0.3, m=0.95, p=0.95)
    x = 0.4
    expected = urgency(k, st.t) * x + extra_rate(k, UNIT_COSTS, model, st)
    assert full_rate(k, UNIT_COSTS, model, st, x) == expected


def test_rate_surface_structure():
    k = GKernel.from_costs(UNIT_COSTS)
    taus = np.array([0.1, 0.5, 1.0])
    moneys = np.array([0.0, 0.2, 0.5, 1.0])
    # one uncapped level per column, each above the column's capped price
    bs_m = 1.0 - moneys + np.array([0.0, 0.1, 0.3, 1.5])
    for cls in (CappedBachelier, CappedBlackScholes):
        model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
        surf = rate_surface(k, UNIT_COSTS, model, taus, moneys, x=1.0, bs_m=bs_m)
        assert surf.rate.shape == (taus.size, moneys.size)
        np.testing.assert_allclose(surf.rate, surf.rate_ac + surf.rate_extra, rtol=1e-14)
        np.testing.assert_allclose(
            surf.relative_increase, surf.rate_extra / surf.rate_ac, rtol=1e-14)
        # spot check one cell against the scalar path (Bachelier ignores the level)
        st = TargetZoneState(t=1.0 - taus[1], m=bs_m[2], p=model.p_bar - moneys[2])
        assert surf.rate_extra[1, 2] == pytest.approx(
            extra_rate(k, UNIT_COSTS, model, st), rel=1e-12)


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_rate_surface_within_1e8_of_quad_in_every_cell(cls, costs):
    # the far-field corner (tau = 0.02, k = 1) is ~1e-44 for Bachelier
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    taus, moneys = np.linspace(0.02, 1.0, 6), np.linspace(0.0, 1.0, 6)
    surf = rate_surface(GKernel.from_costs(costs), costs, model, taus, moneys, x=1.0,
                        bs_m=model.p_bar)
    want = np.array([[quad_extra(model, costs, tau, k, model.p_bar) for k in moneys]
                     for tau in taus])
    assert np.all(want > 0.0)
    np.testing.assert_allclose(surf.rate_extra, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_rate_surface_error_estimate_bounds_the_error(cls, costs):
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    taus, moneys = np.linspace(0.02, 1.0, 6), np.linspace(0.0, 1.0, 6)
    surf = rate_surface(GKernel.from_costs(costs), costs, model, taus, moneys, x=1.0,
                        bs_m=model.p_bar)
    want = np.array([[quad_extra(model, costs, tau, k, model.p_bar) for k in moneys]
                     for tau in taus])
    assert surf.quad_error.shape == surf.rate_extra.shape
    assert np.all(surf.quad_error <= 1e-8 * surf.rate_extra)
    assert np.all(np.abs(surf.rate_extra - want) <= surf.quad_error + 1e-15 * want)


@pytest.mark.parametrize("tau", [1.0, 0.02])
@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS, LARGE_BETA_COSTS],
                         ids=["small", "unit", "beta32"])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_extra_rate_within_1e8_of_quad_just_below_the_cap(cls, costs, tau):
    # the phi(z / y) layer at y ~ z is far narrower than the panel [0, 2^-8]
    # here; uniform panels raised QuadratureError for z in [8e-7, 0.015]
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    kernel = GKernel.from_costs(costs)
    root = SIGMA * math.sqrt(tau)
    for z in np.geomspace(1e-8, 0.02, 13):
        k = math.expm1(z * root) if cls is CappedBlackScholes else z * root
        got = extra_rate(kernel, costs, model, TargetZoneState(t=1.0 - tau, m=1.0, p=1.0 - k))
        want = quad_extra(model, costs, costs.horizon - (1.0 - tau), k, 1.0)
        assert got == pytest.approx(want, rel=1e-8), z


def test_extra_rate_resolves_a_layer_inside_the_first_panel():
    # z = 1.24e-3 lies inside [0, 2^-9] after one split, where the 7- and
    # 15-point sums agree by chance to 3e-8 while both miss the layer by
    # 2.4e-8 of the rate: the panel must split past z
    costs = LARGE_BETA_COSTS
    model = CappedBlackScholes(m0=1.0, sigma=1.7, p_bar=1.0)
    tau, k = 0.2555097090352507, 0.0010676904730688404
    got = extra_rate(GKernel.from_costs(costs), costs, model,
                     TargetZoneState(t=1.0 - tau, m=1.0, p=1.0 - k))
    want = quad_extra(model, costs, costs.horizon - (1.0 - tau), k, 1.0)
    assert got == pytest.approx(want, rel=1e-8)


_SCALED_MONEYNESS = st.one_of(st.just(0.0), st.floats(-12.0, 1.6).map(lambda e: 10.0 ** e))


@settings(max_examples=80, deadline=None)
@given(
    black_scholes=st.booleans(),
    sigma=st.floats(0.05, 3.0),
    lam=st.floats(1e-3, 1.0),
    beta_t=st.floats(1e-3, 1e3),
    big_gamma=st.floats(1e-6, 10.0),
    tau=st.floats(1e-4, 1.0),
    zs=st.lists(_SCALED_MONEYNESS, min_size=2, max_size=6, unique=True),
)
def test_rate_is_finite_non_negative_and_non_increasing(black_scholes, sigma, lam, beta_t,
                                                       big_gamma, tau, zs):
    costs = CostParams(lam=lam, gamma=lam * beta_t ** 2, big_gamma=big_gamma, horizon=1.0,
                       x0=1.0)
    cls = CappedBlackScholes if black_scholes else CappedBachelier
    model = cls(m0=1.0, sigma=sigma, p_bar=1.0)
    root = sigma * math.sqrt(tau)
    z = np.sort(np.array(zs))
    ks = np.expm1(z * root) if black_scholes else z * root
    ks = np.unique(ks)
    surf = rate_surface(GKernel.from_costs(costs), costs, model, [tau], ks, x=1.0, bs_m=1.0)
    rate, err = surf.rate_extra[0], surf.quad_error[0]
    assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)
    # non-increasing up to the quadrature's own error estimates
    assert np.all(np.diff(rate) <= err[1:] + err[:-1])


def test_gauss_kronrod_constants():
    # the embedded Gauss rule is Gauss-Legendre of order 7, and the Kronrod
    # rule integrates every polynomial of degree <= 22 exactly on [-1, 1]
    x, (kronrod, gauss) = signals._GK_X, signals._GK_W
    g_x, g_w = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(x[1::2], g_x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(gauss[1::2], g_w, rtol=0.0, atol=1e-15)
    assert np.all(gauss[0::2] == 0.0)
    for n in range(23):
        exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
        assert kronrod @ x ** n == pytest.approx(exact, abs=1e-15)


@pytest.mark.parametrize("model", [
    Martingale(p0=1.0, sigma=SIGMA),
    DeterministicDrift(times=np.array([0.0, 1.0]), values=np.array([-0.1, -0.1]), p0=1.0),
], ids=["martingale", "drift"])
def test_rate_surface_rejects_uncapped_models(model):
    with pytest.raises(ValueError, match="capped market model"):
        rate_surface(GKernel.from_costs(UNIT_COSTS), UNIT_COSTS, model, [0.5, 1.0],
                     [0.0, 0.1], x=1.0)


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_quadrature_error_names_the_cell(cls, costs, monkeypatch):
    # z = 0.002 just below the cap needs refinement rounds; with none allowed it fails
    monkeypatch.setattr(signals, "_QUAD_ROUNDS", 0)
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    with pytest.raises(QuadratureError, match=r"tau=1\.0, p=0\.999 "):
        rate_surface(GKernel.from_costs(costs), costs, model, [1.0], [0.0, 1e-3], 1.0,
                     bs_m=1.0)


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_quadrature_error_names_the_cell_the_per_tau_loop_names(cls, costs, monkeypatch):
    # with no refinement the rows tau = 0.5 and 1 fail, tau = 0.01 (z >= 0.02) passes
    monkeypatch.setattr(signals, "_QUAD_ROUNDS", 0)
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    args = (GKernel.from_costs(costs), costs, model, np.array([0.01, 0.5, 1.0]),
            np.array([0.0, 1e-3, 2e-3]))
    with pytest.raises(QuadratureError, match=r"tau=0\.5, p=0\.999 ") as per_tau:
        loop_reference.surface_extra(*args, bs_m=1.0)
    with pytest.raises(QuadratureError) as batched:
        rate_surface(*args, 1.0, bs_m=1.0)
    assert str(batched.value) == str(per_tau.value)


@pytest.mark.parametrize("n_steps", [40, 409, 4096, 777])
@pytest.mark.parametrize("values", [[-0.1, -0.1], [0.5, -0.5, 0.5]], ids=["constant", "two_piece"])
@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
def test_drift_curve_and_trajectory_equal_the_numpy_scalar_loops(costs, values, n_steps):
    # the trajectory on the drift's curve (the curve itself is checked against
    # its 50-digit form above)
    model = DeterministicDrift(times=np.linspace(0.0, 1.0, len(values)), values=np.array(values),
                               p0=1.0)
    k = GKernel.from_costs(costs)
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    curve = v1_curve_deterministic(model, k, costs.lam, grid)
    plan = trajectory_from_signal(k, costs.x0, curve, grid)
    want = loop_reference.trajectory(k, costs.x0, curve, grid)
    np.testing.assert_array_equal(plan.positions, want.positions)
    np.testing.assert_array_equal(plan.rates, want.rates)


# z from 0 and 1e-9 up, from tau = 1e-3: every tau row refines, in 11-22
# kernel calls of its own; one level per column, so that the Black-Scholes z
# is not monotone along a row
_REFINING_TAUS = np.array([1e-3, 3e-3, 0.01, 0.05, 0.1, 0.5, 1.0])
_REFINING_MONEY = np.array([0.0, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.3, 1.0])
_REFINING_BS_M = np.array([1.0, 3.0, 1.2, 5.0, 1.0, 2.0, 1.1, 4.0])


def _kernel_calls(cls, reference, costs, monkeypatch) -> set:
    """Build a refining surface and a signal table of cls, checking every _table_rows call
    against reference with ==; returns each call's (roots, z shape)."""
    shapes = set()
    kernel_rows = cls._table_rows

    def checked(self, *args):
        sums = kernel_rows(self, *args)
        np.testing.assert_array_equal(sums, reference(*args))
        shapes.add((args[3].size, args[1].shape))
        return sums

    monkeypatch.setattr(cls, "_table_rows", checked)
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    k = GKernel.from_costs(costs)
    rate_surface(k, costs, model, _REFINING_TAUS, _REFINING_MONEY, x=1.0, bs_m=_REFINING_BS_M)
    optimal_policy(model, k, costs).signal_table.step_rows([0.0])
    return shapes


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
def test_bachelier_kernel_equals_one_gemm_per_panel(costs, monkeypatch):
    # every kernel call of a surface (7 roots, a z row each, then every
    # refining row alone) and of a table build (9 roots sharing 1301 z,
    # then 8, 16, ...), refinement rounds included
    shapes = _kernel_calls(CappedBachelier, loop_reference.bachelier_table_rows, costs,
                           monkeypatch)
    assert {(7, (7, 8)), (9, (1, 1301))} <= shapes
    assert any(roots == 1 and z_shape[0] == 1 for roots, z_shape in shapes)


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS], ids=["small", "unit"])
def test_black_scholes_kernel_equals_the_per_root_loop(costs, monkeypatch):
    shapes = _kernel_calls(CappedBlackScholes, loop_reference.bs_table_rows, costs, monkeypatch)
    assert {(7, (7, 8)), (9, (1, 1601))} <= shapes
    assert any(roots == 1 and z_shape[0] == 1 for roots, z_shape in shapes)


@pytest.mark.parametrize("costs", [SMALL_COSTS, UNIT_COSTS, STEEP_COSTS],
                         ids=["small", "unit", "steep"])
@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_refining_surface_equals_one_call_per_tau_row(cls, costs, monkeypatch):
    calls = []
    kernel_rows = cls._table_rows

    def counted(self, *args):
        calls.append(args[3].size)
        return kernel_rows(self, *args)

    monkeypatch.setattr(cls, "_table_rows", counted)
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    k = GKernel.from_costs(costs)
    surf = rate_surface(k, costs, model, _REFINING_TAUS, _REFINING_MONEY, x=1.0,
                        bs_m=_REFINING_BS_M)
    batched, calls[:] = calls[:], []
    rate_extra, quad_error = loop_reference.surface_extra(k, costs, model, _REFINING_TAUS,
                                                          _REFINING_MONEY, _REFINING_BS_M)
    # one call for every cell, then each refining row alone, as in its own call
    assert batched[0] == _REFINING_TAUS.size and set(batched[1:]) == {1}
    assert len(batched) - 1 == len(calls) - _REFINING_TAUS.size > _REFINING_TAUS.size
    np.testing.assert_array_equal(surf.rate_extra, rate_extra)
    np.testing.assert_array_equal(surf.quad_error, quad_error)
    np.testing.assert_array_equal(surf.rate, surf.rate_ac + rate_extra)


@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_surface_in_chunks_of_tau_rows_equals_one_call(cls, monkeypatch):
    # 2048 moneyness columns: two tau rows a call, so the last of the three
    # calls holds a single row
    rows = []
    y_integral = cls._y_integral

    def counted(self, kernel, lam, taus, *args):
        rows.append(taus.size)
        return y_integral(self, kernel, lam, taus, *args)

    monkeypatch.setattr(cls, "_y_integral", counted)
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.0)
    taus, ks = np.array([0.05, 0.5, 1.0]), np.linspace(0.0, 0.6, 2048)
    args = (GKernel.from_costs(UNIT_COSTS), UNIT_COSTS, model, taus, ks, 1.0)
    chunked = rate_surface(*args, bs_m=1.2)
    assert rows == [2, 1]
    monkeypatch.setattr(signals, "_SURFACE_CELLS", taus.size * ks.size)
    whole = rate_surface(*args, bs_m=1.2)
    assert rows == [2, 1, 3]
    for name in ("rate", "rate_ac", "rate_extra", "relative_increase", "quad_error"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name


@pytest.mark.parametrize("cls", [CappedBachelier, CappedBlackScholes])
def test_large_surface_memory_is_bounded(cls):
    # 300 x 300 cells, _SURFACE_CELLS at a time, peaked at 4.1 MiB
    # (Bachelier) and 4.5 MiB (Black-Scholes), most of it the surface's own
    # arrays; one call for every cell peaked at 46.3 and 55.3 MiB
    model = cls(m0=1.0, sigma=SIGMA, p_bar=1.05)
    k = GKernel.from_costs(UNIT_COSTS)
    taus, ks = np.linspace(0.01, 1.0, 300), np.linspace(0.0, 0.5, 300)
    # a first call fills the interpreter's caches, which tracemalloc counts
    rate_surface(k, UNIT_COSTS, model, taus[:2], ks[:2], 1.0, bs_m=1.2)
    tracemalloc.start()
    try:
        rate_surface(k, UNIT_COSTS, model, taus, ks, 1.0, bs_m=1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_quadrature_error_is_exported():
    assert issubclass(QuadratureError, RuntimeError)
