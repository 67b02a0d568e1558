"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each test prints a single summary line (visible under pytest -s); the
pytest -v PASSED/FAILED line per test is the pass/fail record.  Budgeted
runtimes are asserted where a budget is part of the claim.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from liqzone import (
    CappedBachelier,
    CappedBlackScholes,
    CostParams,
    DeterministicDrift,
    DiscreteProblem,
    GKernel,
    TargetZoneState,
    ac_policy,
    ac_position,
    bachelier_lookback_price,
    bachelier_theta,
    bs_theta,
    estimate_v0_and_value,
    extra_rate,
    extra_rate_small_beta,
    optimal_policy,
    paired_value_difference,
    path_stream,
    probe_optimality,
    rate_surface,
    simulate_path,
    solve_discrete_many,
    trajectory_from_signal,
    urgency,
    v1_curve_deterministic,
    v1_target_zone,
    value_formula,
)

# a quad reference that did not converge fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

SMALL_COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
UNIT_COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
BACH = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)


def test_small_cost_barrier_spike_and_far_field_decay():
    # tiny inventory costs: at the barrier the optimal rate is thousands of
    # times the signal-free rate, and the effect dies off by 10 sigma sqrt(T)
    start = time.perf_counter()
    kernel = GKernel.from_costs(SMALL_COSTS)
    far = 10.0 * BACH.sigma * math.sqrt(SMALL_COSTS.horizon)
    surf = rate_surface(kernel, SMALL_COSTS, BACH, [SMALL_COSTS.horizon], [0.0, far], SMALL_COSTS.x0)
    elapsed = time.perf_counter() - start

    at_barrier = surf.relative_increase[0, 0]
    far_ratio = surf.rate_extra[0, 1] / surf.rate_extra[0, 0]
    assert 1e3 <= at_barrier <= 1e5
    assert far_ratio < 1e-8
    assert elapsed < 1.0
    print(f"[acceptance] barrier spike: rel={at_barrier:.6g} "
          f"far/at={far_ratio:.3g} in {elapsed:.3f}s")


def test_unit_cost_barrier_ladder_and_short_horizon_vanishing():
    # unit inventory costs: >30% speedup at the barrier, strictly decaying
    # in moneyness, and negligible off the barrier once tau shrinks to 0.01
    start = time.perf_counter()
    kernel = GKernel.from_costs(UNIT_COSTS)
    ladder = np.linspace(0.0, 1.0, 50)
    surf = rate_surface(kernel, UNIT_COSTS, BACH, [0.01, 1.0], ladder, UNIT_COSTS.x0)
    elapsed = time.perf_counter() - start

    at_barrier = surf.relative_increase[1, 0]
    assert at_barrier > 0.30
    assert np.all(np.diff(surf.relative_increase[1]) < 0.0)
    # half a barrier-width out, with 1% of the horizon left, nothing remains
    short = extra_rate(kernel, UNIT_COSTS, BACH,
                       TargetZoneState(t=0.99, m=1.0, p=0.5))
    short_rel = short / (urgency(kernel, 0.99) * UNIT_COSTS.x0)
    assert short_rel < 1e-3
    assert elapsed < 1.0
    print(f"[acceptance] unit-cost ladder: rel={at_barrier:.6g} "
          f"short-horizon rel={short_rel:.3g} in {elapsed:.3f}s")


def test_small_beta_limit_matches_explicit_formula():
    # gamma = big_gamma = lam * beta^2, beta -> 0: the at-barrier extra rate
    # converges to (sigma / lam) sqrt(T / 2 pi)
    lam, sigma, horizon = 0.1, 0.5, 1.0
    limit = (sigma / lam) * math.sqrt(horizon / (2.0 * math.pi))
    assert limit == pytest.approx(
        extra_rate_small_beta(horizon, 0.0, sigma, lam), rel=1e-14)

    gaps = []
    for beta in (1e-1, 1e-2, 1e-3):
        costs = CostParams(lam=lam, gamma=lam * beta * beta,
                           big_gamma=lam * beta * beta,
                           horizon=horizon, x0=1.0)
        kernel = GKernel.from_costs(costs)
        val = extra_rate(kernel, costs, BACH,
                         TargetZoneState(t=0.0, m=1.0, p=1.0))
        gaps.append(abs(val - limit) / limit)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3
    print(f"[acceptance] small-beta limit {limit:.6f}: gaps="
          f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_discrete_optimizer_matches_closed_form_trajectories():
    # an independently coded finite-horizon quadratic program reproduces the
    # closed-form schedule for flat and trending prices at first order in dt
    start = time.perf_counter()
    kernel = GKernel.from_costs(UNIT_COSTS)
    level = -0.1
    drift_model = DeterministicDrift(times=[0.0, UNIT_COSTS.horizon],
                                     values=[level, level], p0=0.0)
    ns = (100, 1000, 10000)
    errors = {0.0: [], level: []}
    u0_errors = []
    for n in ns:
        problems = [DiscreteProblem.uniform(UNIT_COSTS, n, 0.0),
                    DiscreteProblem.uniform(UNIT_COSTS, n, level)]
        plans = solve_discrete_many(problems)
        grid = np.linspace(0.0, UNIT_COSTS.horizon, n + 1)
        for lvl, plan in zip((0.0, level), plans):
            if lvl == 0.0:
                v1_values = np.zeros(n + 1)
            else:
                v1_values = v1_curve_deterministic(drift_model, kernel,
                                                   UNIT_COSTS.lam, grid)
            exact = trajectory_from_signal(kernel, UNIT_COSTS.x0, v1_values, grid)
            err = float(np.max(np.abs(plan.positions - exact.positions)))
            errors[lvl].append(err / UNIT_COSTS.x0)
            if n == ns[-1]:
                # discrete u_0 is the average rate over the first cell, so
                # compare against shares sold over [0, delta] per unit time
                u0_exact = (UNIT_COSTS.x0 - exact.positions[1]) * n / UNIT_COSTS.horizon
                u0_errors.append(abs(plan.rates[0] - u0_exact) / u0_exact)
    elapsed = time.perf_counter() - start

    orders = [math.log(errors[lvl][0] / errors[lvl][-1]) / math.log(ns[-1] / ns[0])
              for lvl in (0.0, level)]
    assert max(errors[0.0][-1], errors[level][-1]) <= 1e-3
    assert max(u0_errors) <= 1e-4
    assert min(orders) >= 0.9
    assert elapsed < 30.0
    print(f"[acceptance] discrete check: traj={errors[0.0][-1]:.2e}/"
          f"{errors[level][-1]:.2e} u0={max(u0_errors):.2e} "
          f"order={min(orders):.2f} in {elapsed:.1f}s")


def test_simulated_optimal_policy_beats_ac_and_survives_perturbation():
    # common-random-number comparison on 1e5 paths: the signal-aware policy
    # dominates the signal-free one decisively, and no perturbation of the
    # control improves the realized goal beyond noise
    start = time.perf_counter()
    kernel = GKernel.from_costs(SMALL_COSTS)
    n_paths, n_steps, seed = 100_000, 4096, 2024
    cmp = paired_value_difference(
        BACH, optimal_policy(BACH, kernel, SMALL_COSTS), ac_policy(kernel),
        SMALL_COSTS, n_paths, n_steps, seed)
    sharpe = cmp.difference.mean / cmp.difference.std_error
    assert cmp.difference.mean > 5.0 * cmp.difference.std_error

    probe = probe_optimality(BACH, kernel, SMALL_COSTS, n_paths, n_steps, seed,
                             n_directions=20)
    elapsed = time.perf_counter() - start
    assert probe.all_pass
    assert elapsed < 300.0
    print(f"[acceptance] policy dominance: diff={cmp.difference.mean:.5f} "
          f"({sharpe:.0f} se), worst probe margin={probe.margins.max():.2e}, "
          f"in {elapsed:.0f}s")


def test_value_formula_matches_simulated_realized_goal():
    # plug a Monte Carlo estimate of the control-independent term into the
    # closed-form value and compare with the simulated goal of the policy
    kernel = GKernel.from_costs(SMALL_COSTS)
    n_paths, n_steps, seed = 100_000, 8192, 2024
    v0, mc = estimate_v0_and_value(BACH, kernel, SMALL_COSTS, n_paths, n_steps, seed)
    v1_0 = v1_target_zone(kernel, SMALL_COSTS, BACH,
                          TargetZoneState(t=0.0, m=1.0, p=1.0))
    formula = value_formula(kernel, SMALL_COSTS, p0=BACH.m0, v0_0=v0.mean, v1_0=v1_0)
    combined = math.hypot(SMALL_COSTS.lam * v0.std_error, mc.std_error)
    dev = abs(formula - mc.mean)
    assert dev <= 3.0 * combined
    print(f"[acceptance] value identity: formula={formula:.6f} "
          f"mc={mc.mean:.6f} dev={dev / combined:.2f} combined se")


def test_lookback_theta_consistency_quadrature_and_monte_carlo():
    # route one: the flat-model maturity derivative integrates back to the
    # lookback price; route two: the curved-model derivative matches a
    # central finite difference of simulated lookback prices
    sigma = 0.5

    def integrand(w, k):
        u = w * w
        if u <= 0.0:
            return 2.0 * sigma * 0.3989422804014327 if k == 0.0 else 0.0
        return 2.0 * w * bachelier_theta(u, k, sigma)

    worst = 0.0
    for u in (0.25, 0.5, 1.0):
        for k in (0.0, 0.1, 0.25):
            val, _ = quad(integrand, 0.0, math.sqrt(u), args=(k,),
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            ref = bachelier_lookback_price(u, k, sigma)
            worst = max(worst, abs(val - ref) / ref)
    assert worst <= 1e-8

    # geometric model: fixed-step simulation to u + h, running max read off
    # at the 80% prefix (exactly u - h) and at the end, so the step-size
    # bias of the discretely sampled maximum cancels in the difference
    m0, n_paths, batch, seed = 1.0, 40_000, 5000, 777
    n_plus, n_minus = 4000, 3200
    worst_dev = 0.0
    for u in (0.25, 0.5, 1.0):
        h = u / 9.0
        dt = (u + h) / n_plus
        sq = sigma * math.sqrt(dt)
        drift = -0.5 * sigma * sigma * dt
        max_minus = np.empty(n_paths)
        max_plus = np.empty(n_paths)
        for first in range(0, n_paths, batch):
            count = min(batch, n_paths - first)
            z = np.empty((count, n_plus))
            for j in range(count):
                z[j] = path_stream(seed, first + j).standard_normal(n_plus)
            log_s = np.cumsum(z, axis=1)
            log_s *= sq
            log_s += drift * np.arange(1, n_plus + 1)
            np.maximum.accumulate(log_s, axis=1, out=log_s)
            sl = slice(first, first + count)
            max_minus[sl] = m0 * np.exp(np.maximum(log_s[:, n_minus - 1], 0.0))
            max_plus[sl] = m0 * np.exp(np.maximum(log_s[:, -1], 0.0))
        for k in (0.0, 0.1, 0.25):
            strike = m0 + k
            diff = (np.maximum(max_plus - strike, 0.0)
                    - np.maximum(max_minus - strike, 0.0)) / (2.0 * h)
            fd = float(np.mean(diff))
            se = float(np.std(diff, ddof=1)) / math.sqrt(n_paths)
            dev = abs(fd - bs_theta(u, m0, m0, sigma, strike)) / se
            worst_dev = max(worst_dev, dev)
    assert worst_dev <= 3.0
    print(f"[acceptance] lookback theta: quad rel={worst:.2e}, "
          f"mc worst dev={worst_dev:.2f} se")


def _rk4(f, y0, ts):
    y = float(y0)
    out = [y]
    for a, b in zip(ts[:-1], ts[1:]):
        h = b - a
        k1 = f(a, y)
        k2 = f(a + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(a + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(b, y + h * k3)
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def test_structural_invariants_bundle():
    # reflection pathwise invariants over 1e3 seeds
    for s in range(1000):
        path = simulate_path(BACH, 1.0, 32, path_stream(s, 0))
        push = np.maximum(path.m_star - BACH.p_bar, 0.0)
        assert np.array_equal(path.p, path.m - push)
        assert np.all(path.p <= BACH.p_bar + 1e-12)
        flat = path.m_star <= BACH.p_bar
        assert np.array_equal(path.p[flat], path.m[flat])

    # rate monotone in moneyness, uncapped level, and 1 / lam
    kernel2 = GKernel.from_costs(UNIT_COSTS)
    ks = np.linspace(0.0, 1.0, 12)
    vals = [extra_rate(kernel2, UNIT_COSTS, BACH,
                       TargetZoneState(t=0.4, m=1.0, p=1.0 - k)) for k in ks]
    assert np.all(np.diff(vals) < 0.0)
    bs = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.0)
    by_level = [extra_rate(kernel2, UNIT_COSTS, bs,
                           TargetZoneState(t=0.3, m=m, p=0.9))
                for m in (1.0, 1.2, 1.5)]
    assert by_level[0] < by_level[1] < by_level[2]
    by_lam = []
    for lam in (0.2, 0.1, 0.05):
        costs = CostParams(lam=lam, gamma=1.0, big_gamma=1.0,
                           horizon=1.0, x0=1.0)
        by_lam.append(extra_rate(GKernel.from_costs(costs), costs, BACH,
                                 TargetZoneState(t=0.3, m=1.0, p=1.0)))
    assert by_lam[0] < by_lam[1] < by_lam[2]

    # terminal urgency equals the terminal-cost ratio exactly
    for kern in (GKernel.from_costs(SMALL_COSTS), kernel2,
                 GKernel(beta=5.0, gamma_ratio=0.5, horizon=1.0)):
        assert urgency(kern, kern.horizon) == kern.gamma_ratio

    # RK4 integration of both defining ODEs at dt = 1e-3
    ts = np.linspace(0.0, 1.0, 1001)
    pos = _rk4(lambda t, x: -urgency(kernel2, t) * x, UNIT_COSTS.x0, ts)
    exact = np.array([ac_position(kernel2, t, UNIT_COSTS.x0) for t in ts])
    assert float(np.max(np.abs(pos - exact))) <= 1e-6
    drift_model = DeterministicDrift(times=[0.0, 1.0], values=[-0.1, -0.1],
                                     p0=0.0)
    back = _rk4(lambda t, v: urgency(kernel2, t) * v + 0.1 / (2.0 * UNIT_COSTS.lam),
                0.0, ts[::-1])
    v1_lib = v1_curve_deterministic(drift_model, kernel2, UNIT_COSTS.lam,
                                    np.array([0.0, 1.0]))
    assert abs(back[-1] - v1_lib[0]) <= 1e-6

    # overflow regime agrees with 50-digit arithmetic to 12 digits
    mpmath.mp.dps = 50
    for beta, g, t in ((40.0, 3.0, 0.75), (200.0, 3.0, 0.75),
                       (1000.0, 7.0, 0.5)):
        kern = GKernel(beta=beta, gamma_ratio=g, horizon=1.0)
        bm, gm = mpmath.mpf(beta), mpmath.mpf(g)

        def g_mp(x):
            return bm * mpmath.cosh(bm * x) + gm * mpmath.sinh(bm * x)

        ratio = float(g_mp(1.0 - t) / g_mp(1.0))
        urg = float((bm * bm * mpmath.sinh(bm * (1.0 - t))
                     + gm * bm * mpmath.cosh(bm * (1.0 - t))) / g_mp(1.0 - t))
        assert ac_position(kern, t, 1.0) == pytest.approx(ratio, rel=1e-12)
        assert urgency(kern, t) == pytest.approx(urg, rel=1e-12)

    print("[acceptance] invariants: reflection x1000, monotone ladders, "
          "terminal urgency, rk4 1e-6, overflow 12 digits")
