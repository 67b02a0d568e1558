"""The argument contract of every public name in liqzone.__all__.

A public name is a type listed in TYPES or has a row in ROWS: one valid call,
and the values outside the domain of each numeric argument.  The test calls
each row with every numeric argument set in turn to nan, +inf, -inf and to
each listed value outside its domain; every call must raise a ValueError
whose message starts with "<argument> must" ("<argument> must be an integer
>= " for a count).  An array argument takes each non-finite value at its
first and at its last entry, and a TargetZoneState argument `state` has the
numeric arguments state.t, state.m and state.p.  A public name with neither
a row nor a type fails the test, so every new public name joins the contract.
"""

import math
import re
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

import liqzone
from liqzone import (
    CappedBachelier,
    CappedBlackScholes,
    CostParams,
    DeterministicDrift,
    DiscreteProblem,
    GKernel,
    MarketState,
    Martingale,
    PathSample,
    TargetZoneState,
    TradePlan,
    ac_policy,
    ac_position,
    bachelier_lookback_price,
    bachelier_theta,
    bs_f,
    bs_theta,
    discrete_goal,
    estimate_v0,
    estimate_v0_and_value,
    estimate_value,
    extra_rate,
    extra_rate_small_beta,
    full_rate,
    g_value,
    optimal_policy,
    optimal_rate,
    paired_value_difference,
    path_stream,
    probe_optimality,
    rate_surface,
    run_strategy,
    simulate_path,
    solve_discrete,
    trajectory_from_signal,
    urgency,
    v1_curve_deterministic,
    v1_target_zone,
    value_formula,
)

NON_FINITE = (math.nan, math.inf, -math.inf)

COSTS = CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0)
K = GKernel.from_costs(COSTS)
BACH = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)
BS = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.0)
MART = Martingale(p0=1.0, sigma=0.5)
DRIFT = DeterministicDrift(times=np.array([0.0, 1.0]), values=np.array([-0.1, -0.1]), p0=1.0)
STATE = TargetZoneState(t=0.5, m=1.0, p=0.9)
GRID = np.linspace(0.0, 1.0, 3)
PROBLEM = DiscreteProblem(np.zeros(3), COSTS)
MC = dict(n_paths=4, n_steps=8, master_seed=1)
MC_OUTSIDE = {"n_paths": (1, 3.0), "n_steps": (0, 2.5), "master_seed": (-1, 2**64, 1.5)}
# the signal tables the step loop looks up, one of each kind
CAPPED_TABLE = optimal_policy(BACH, K, COSTS).signal_table
CURVE_TABLE = optimal_policy(DRIFT, K, COSTS).signal_table

# results the library returns, records whose fields the functions reading
# them check (state.t against the horizon, for one), and exceptions
TYPES = {
    "RateSurface", "GoalBreakdown", "MCEstimate", "PairedComparison", "OptimalityProbe",
    "MarketState", "TargetZoneState",
    "QuadratureError",
}


class Row(NamedTuple):
    call: Callable
    args: dict               # the keyword arguments of one valid call
    outside: dict = {}       # numeric argument -> values outside its domain
    cases: tuple = ()        # more (argument overrides, name the message starts with)


def _mc_row(call, **args):
    return Row(call, {**args, **MC}, MC_OUTSIDE)


_STATE_ROW = Row(v1_target_zone, dict(kernel=K, costs=COSTS, model=BACH, state=STATE),
                 {"state.t": (-2.0, 1.0, 1.5), "state.p": (1.05,)},
                 ((dict(model=MART, state=replace(STATE, t=1.5)), "state.t"),
                  (dict(model=DRIFT, state=replace(STATE, t=-2.0)), "state.t"),
                  (dict(model=BS, state=replace(STATE, t=math.nan)), "state.t"),
                  (dict(model=BS, state=replace(STATE, m=math.nan)), "state.m"),
                  (dict(model=BS, state=replace(STATE, p=math.nan)), "state.p"),
                  (dict(model=BACH, state=replace(STATE, m=0.8)), "state.p"),
                  # a Black-Scholes level must be positive, where p <= m allows any
                  (dict(model=BS, state=TargetZoneState(t=0.0, m=-1.0, p=-1.0)), "m")))

# keyed by the public name, with what a further row of that name covers in brackets
ROWS = {
    # schedule
    "CostParams": Row(CostParams, dict(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0),
                      {name: (0.0, -1.0) for name in ("lam", "gamma", "big_gamma", "horizon",
                                                      "x0")}),
    "GKernel": Row(GKernel, dict(beta=1.0, gamma_ratio=10.0, horizon=1.0),
                   {name: (0.0,) for name in ("beta", "gamma_ratio", "horizon")}),
    "TradePlan": Row(TradePlan, dict(grid=GRID, positions=np.array([1.0, 0.5, 0.0]),
                                     rates=np.ones(2)),
                     {"grid": (GRID[::-1], np.array([0.0, 0.0, 1.0])),
                      "positions": (np.ones(2),), "rates": (np.ones(3),)},
                     ((dict(grid=np.array([0.0, 1.0, math.inf])), "grid"),)),
    "g_value": Row(g_value, dict(kernel=K, t=0.5), {"t": (-2.0,)}),
    "urgency": Row(urgency, dict(kernel=K, t=0.5), {"t": (-2.0, -0.1, 1.1, 1.5)}),
    "ac_position": Row(ac_position, dict(kernel=K, t=0.5, x0=1.0), {"t": (-2.0, 1.5)}),
    "optimal_rate": Row(optimal_rate, dict(kernel=K, t=0.5, x=1.0, v1_signal=-0.1),
                        {"t": (-2.0, 1.5)}),
    "trajectory_from_signal": Row(trajectory_from_signal,
                                  dict(kernel=K, x0=1.0, v1_curve=np.zeros(3), grid=GRID),
                                  {"grid": (np.array([0.5, 0.75, 1.0]),
                                            np.array([0.0, 1.0, 2.0])),
                                   "v1_curve": (np.zeros(2),)}),
    "value_formula": Row(value_formula, dict(kernel=K, costs=COSTS, p0=1.0, v0_0=0.5, v1_0=-0.5),
                         {"v0_0": (-1.0,)}),
    # signals
    "CappedBachelier": Row(CappedBachelier, dict(m0=1.0, sigma=0.5, p_bar=1.0),
                           {"sigma": (0.0, -0.5), "p_bar": (0.5,)}),
    "CappedBlackScholes": Row(CappedBlackScholes, dict(m0=1.0, sigma=0.5, p_bar=1.0),
                              {"m0": (0.0, -1.0), "sigma": (0.0,), "p_bar": (0.5,)}),
    "DeterministicDrift": Row(DeterministicDrift, dict(times=np.array([0.0, 1.0]),
                                                       values=np.array([-0.1, -0.1]), p0=1.0),
                              {"times": (np.array([1.0, 0.0]), np.array([0.0])),
                               "values": (np.zeros(3),)}),
    "Martingale": Row(Martingale, dict(p0=1.0, sigma=0.5), {"sigma": (-0.5,)}),
    "bachelier_theta": Row(bachelier_theta, dict(u=np.array([0.25, 0.5]), moneyness=0.1,
                                                 sigma=0.5),
                           {"u": (0.0, -0.5), "moneyness": (-0.1,), "sigma": (0.0,)}),
    "bs_f": Row(bs_f, dict(u=0.5, m=1.0, p=0.9, sigma=0.5, p_bar=1.0),
                {"u": (0.0,), "m": (0.0,), "p": (1.5,), "sigma": (0.0,)}),
    "bs_theta": Row(bs_theta, dict(u=np.array([0.25, 0.5]), m=1.0, p=0.9, sigma=0.5, p_bar=1.0),
                    {"u": (0.0,), "m": (0.0,), "p": (1.5,), "sigma": (0.0,)}),
    "bachelier_lookback_price": Row(bachelier_lookback_price,
                                    dict(u=0.5, moneyness=np.array([0.0, 0.1]), sigma=0.5),
                                    {"u": (-0.5,), "moneyness": (-0.1,), "sigma": (0.0,)}),
    "extra_rate_small_beta": Row(extra_rate_small_beta,
                                 dict(tau=0.5, moneyness=0.1, sigma=0.5, lam=0.1),
                                 {"tau": (-0.5,), "moneyness": (-0.1,), "sigma": (0.0,),
                                  "lam": (0.0,)}),
    "v1_target_zone": _STATE_ROW,
    "extra_rate": _STATE_ROW._replace(call=extra_rate),
    "full_rate": _STATE_ROW._replace(call=full_rate, args={**_STATE_ROW.args, "x": 1.0}),
    "v1_curve_deterministic": Row(v1_curve_deterministic,
                                  dict(model=DRIFT, kernel=K, lam=0.1, grid=GRID),
                                  {"lam": (0.0,), "grid": (np.array([0.0, 0.5, 1.5]),
                                                           np.array([-0.5, 0.0]))}),
    "rate_surface": Row(rate_surface, dict(kernel=K, costs=COSTS, model=BS,
                                           grid_tau=np.array([0.5, 1.0]),
                                           grid_money=np.array([0.0, 0.1]), x=1.0, bs_m=1.0),
                        {"grid_tau": (np.array([0.0, 1.0]), np.array([0.5, 1.5])),
                         "grid_money": (np.array([-0.1, 0.1]),), "bs_m": (0.5,)}),
    # montecarlo
    "PathSample": Row(PathSample, dict(grid=GRID, m=np.array([1.0, 1.2, 1.1]),
                                       p=np.array([1.0, 1.0, 0.9])),
                      {"grid": (np.array([0.0, 0.0, 1.0]),), "m": (np.ones(2),),
                       "p": (np.array([1.0, 1.3, 0.9]),)},
                      ((dict(grid=np.array([-math.inf, 0.0, 1.0])), "grid"),)),
    "path_stream": Row(path_stream, dict(master_seed=3, path_index=1),
                       {"master_seed": (-1, 2**64, 1.5), "path_index": (-1, 2**64)}),
    "simulate_path": Row(simulate_path, dict(model=BACH, horizon=1.0, n_steps=8,
                                             rng=path_stream(0, 0)),
                         {"horizon": (0.0,), "n_steps": (0, 2.5)}),
    "run_strategy": Row(run_strategy, dict(path=PathSample(grid=GRID, m=np.ones(3), p=np.ones(3)),
                                           policy=ac_policy(K), costs=COSTS)),
    "estimate_value": _mc_row(estimate_value, model=BACH, policy=ac_policy(K), costs=COSTS),
    "paired_value_difference": _mc_row(paired_value_difference, model=BACH,
                                       policy_a=ac_policy(K), policy_b=ac_policy(K),
                                       costs=COSTS),
    "estimate_v0": _mc_row(estimate_v0, model=MART, kernel=K, costs=COSTS),
    "estimate_v0_and_value": _mc_row(estimate_v0_and_value, model=MART, kernel=K, costs=COSTS),
    "probe_optimality": Row(probe_optimality, dict(model=MART, kernel=K, costs=COSTS,
                                                   n_directions=2, **MC),
                            {**MC_OUTSIDE, "n_directions": (0,)}),
    "ac_policy": Row(ac_policy, dict(kernel=K)),
    "optimal_policy": Row(optimal_policy, dict(model=BACH, kernel=K, costs=COSTS)),
    "ac_policy[call]": Row(ac_policy(K), dict(t=0.5, x=np.ones(2), state=None),
                           {"t": (-2.0, 1.5)}),
    "optimal_policy[call]": Row(optimal_policy(BACH, K, COSTS),
                                dict(t=0.5, x=np.ones(2),
                                     state=MarketState(p=np.array([0.9, 0.9]), m=np.ones(2))),
                                {"t": (-2.0, 1.5)}),
    "optimal_policy[capped table]": Row(
        lambda t: CAPPED_TABLE.extra_values(t, np.array([0.9]), np.array([1.0])),
        dict(t=0.5), {"t": (-2.0, 1.5)}),
    "optimal_policy[curve table]": Row(
        lambda t: CURVE_TABLE.extra_values(t, np.array([0.9]), np.array([1.0])),
        dict(t=0.5), {"t": (-2.0, 1.5)}),
    # oracle
    "DiscreteProblem": Row(DiscreteProblem, dict(prices=np.zeros(3), costs=COSTS),
                           {"prices": (np.zeros(2), np.zeros((3, 3)))}),
    "DiscreteProblem[uniform]": Row(DiscreteProblem.uniform,
                                    dict(costs=COSTS, n_steps=4, drift_level=-0.1),
                                    {"n_steps": (1, -1, 2.5)}),
    "solve_discrete": Row(solve_discrete, dict(problem=PROBLEM)),
    "discrete_goal": Row(discrete_goal, dict(problem=PROBLEM, rates=np.zeros(2)),
                         {"rates": (np.ones(1), np.ones(3))}),
}


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _numeric(args: dict) -> dict:
    """Numeric argument name -> (its valid value, how it enters the call)."""
    out = {}
    for name, value in args.items():
        if isinstance(value, TargetZoneState):
            for f in ("t", "m", "p"):
                out[f"{name}.{f}"] = (getattr(value, f),
                                      lambda bad, name=name, value=value, f=f:
                                      {name: replace(value, **{f: bad})})
        elif isinstance(value, (float, np.ndarray)) or _is_count(value):
            out[name] = (value, lambda bad, name=name: {name: bad})
    return out


def _bad_calls(row: Row):
    """(argument overrides, argument name) for every value the row must reject."""
    numeric = _numeric(row.args)
    assert set(row.outside) <= set(numeric), "outside names a non-numeric argument"
    for name, (value, enter) in numeric.items():
        for bad in NON_FINITE:
            if isinstance(value, np.ndarray):
                for index in (0, -1):
                    arr = value.astype(float)
                    arr[index] = bad
                    yield enter(arr), name
            else:
                yield enter(bad), name
        for bad in row.outside.get(name, ()):
            yield enter(bad), name
    yield from row.cases


def _expected(row: Row, name: str) -> str:
    numeric = _numeric(row.args)
    count = name in numeric and _is_count(numeric[name][0])
    return rf"^{re.escape(name)} must " + ("be an integer >= " if count else "")


def test_every_public_name_has_a_row_or_is_a_type():
    rows = {label.split("[")[0] for label in ROWS}
    assert not rows & TYPES
    assert rows | TYPES == set(liqzone.__all__)
    assert len(liqzone.__all__) == len(set(liqzone.__all__)) == 45
    for name in TYPES:
        assert isinstance(getattr(liqzone, name), type)


@pytest.mark.parametrize("label", ROWS)
def test_row_rejects_each_bad_argument_naming_it(label):
    row = ROWS[label]
    row.call(**row.args)
    failures = []
    for overrides, name in _bad_calls(row):
        shown = {key: (value.tolist() if isinstance(value, np.ndarray) else value)
                 for key, value in overrides.items()}
        try:
            row.call(**{**row.args, **overrides})
        except ValueError as exc:
            if not re.match(_expected(row, name), str(exc)):
                failures.append(f"{shown}: expected {name!r} first, got {str(exc)!r}")
        else:
            failures.append(f"{shown}: no ValueError")
    assert not failures, "\n".join(failures)


def test_numpy_integers_are_counts():
    assert DiscreteProblem.uniform(COSTS, np.int64(4)).n_steps == 4
    np.testing.assert_array_equal(
        simulate_path(BACH, 1.0, np.int32(8), path_stream(np.uint64(3), np.int64(1))).p,
        simulate_path(BACH, 1.0, 8, path_stream(3, 1)).p)
