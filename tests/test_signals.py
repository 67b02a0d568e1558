"""Lookback pricing, drift signals and rate surface tests.

Frozen decimals come from 40-digit mpmath evaluations of the closed forms
(normal pdf/cdf composites and the G-ratio integrals).
"""

import math

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
    ac_position,
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
    urgency,
    v1_curve_deterministic,
    v1_target_zone,
)
from liqzone import signals
from quad_reference import quad_extra

# a quad reference that did not converge fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

SMALL_COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
# beta T = 31.6: the discount confines the integrand to y < ~0.18
LARGE_BETA_COSTS = CostParams(lam=0.01, gamma=10.0, big_gamma=1.0, horizon=1.0, x0=1.0)
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
    # query and the Monte Carlo table both read the model's one v1 curve
    k = GKernel.from_costs(costs)
    model = DeterministicDrift(times=np.array([0.0, 1.0]), values=np.array([a, a]), p0=1.0)
    table = optimal_policy(model, k, costs).signal_table
    p = np.array([1.0, 0.5, 2.0])
    for t in (0.0, 0.25, 0.5, 0.9):
        exact = a * (urgency(k, t) - k.beta * k.gamma_ratio / g_value(k, 1.0 - t)) / (
            2.0 * costs.lam * k.beta**2)
        st = TargetZoneState(t=t, m=1.0, p=1.0)
        assert v1_target_zone(k, costs, model, st) == pytest.approx(exact, rel=1e-7)
        np.testing.assert_allclose(-table.extra_values(t, p, p), exact, rtol=1e-7, atol=0.0)


def test_v1_curve_refines_sparse_caller_grids():
    # a single-point grid must not degrade the quadrature mesh
    k = GKernel.from_costs(UNIT_COSTS)
    model = DeterministicDrift(times=np.array([0.0, 1.0]),
                               values=np.array([-0.1, -0.1]), p0=1.0)
    got = float(v1_curve_deterministic(model, k, UNIT_COSTS.lam, np.array([0.0]))[0])
    assert got == pytest.approx(-0.14822930513653838, rel=1e-6)


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
        got = model._extra(k, UNIT_COSTS.lam, tau, np.array([1.0 - money]), np.array([1.0]))[0][0]
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


_BACH = CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0)


@pytest.mark.parametrize("field, call", [
    ("sigma", lambda: bachelier_theta(0.5, 0.1, math.nan)),
    ("u", lambda: bachelier_theta(math.nan, 0.1, SIGMA)),
    ("u", lambda: bs_theta(math.nan, 1.0, 0.9, SIGMA, 1.0)),
    ("moneyness", lambda: bachelier_lookback_price(0.5, math.nan, SIGMA)),
    ("lam", lambda: extra_rate_small_beta(0.5, 0.1, SIGMA, 0.0)),
    ("x", lambda: rate_surface(GKernel.from_costs(UNIT_COSTS), UNIT_COSTS, _BACH,
                               [0.5, 1.0], [0.0, 0.1], x=math.nan)),
], ids=["theta-sigma", "theta-u", "bs-theta-u", "lookback-moneyness", "small-beta-lam",
        "surface-x"])
def test_closed_forms_reject_nan_and_zero_naming_the_argument(field, call):
    # NaN fails every ordered comparison, so a check for u <= 0 would pass it
    # through to a NaN answer; lam = 0 would divide by zero
    with pytest.raises(ValueError, match=rf"^{field} must"):
        call()


_TIME_CHECKED = {
    "CappedBachelier": CappedBachelier(m0=1.0, sigma=SIGMA, p_bar=1.0),
    "CappedBlackScholes": CappedBlackScholes(m0=1.0, sigma=SIGMA, p_bar=1.0),
    "Martingale": Martingale(p0=1.0, sigma=SIGMA),
    "DeterministicDrift": DeterministicDrift(times=np.array([0.0, 1.0]),
                                             values=np.array([-0.1, -0.1]), p0=1.0),
    "urgency": urgency,
    "ac_position": lambda kernel, t: ac_position(kernel, t, 1.0),
    "g_value": g_value,
}


@pytest.mark.parametrize("name, t", [
    (name, t) for name in _TIME_CHECKED for t in (math.nan, -2.0, 1.5)
    # G is defined at every argument t >= 0, past the horizon too
    if not (name == "g_value" and t == 1.5)
])
def test_time_outside_the_horizon_is_rejected_naming_it(name, t):
    # NaN fails every ordered comparison, so a range check that only looks for
    # t < 0 or t > T lets it through to an answer or an error about another
    # field; T = 1 here, so -2 and 1.5 lie outside it
    kernel = GKernel.from_costs(UNIT_COSTS)
    target = _TIME_CHECKED[name]
    if callable(target):
        with pytest.raises(ValueError, match=r"^t must"):
            target(kernel, t)
        return
    state = TargetZoneState(t=t, m=1.0, p=0.9)
    for entry in (v1_target_zone, extra_rate):
        with pytest.raises(ValueError, match=r"^state\.t must"):
            entry(kernel, UNIT_COSTS, target, state)
    with pytest.raises(ValueError, match=r"^state\.t must"):
        full_rate(kernel, UNIT_COSTS, target, state, 1.0)
    table = optimal_policy(target, kernel, UNIT_COSTS).signal_table
    with pytest.raises(ValueError, match=r"^t must"):
        table.extra_values(t, np.array([0.9]), np.array([1.0]))


def test_quadrature_error_is_exported():
    assert issubclass(QuadratureError, RuntimeError)
