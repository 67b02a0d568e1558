"""The worker module: the quadrature panels split over threads.

The Monte Carlo path split over forked processes is tested in
test_montecarlo.py.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from liqzone import (CappedBachelier, CappedBlackScholes, CostParams, GKernel, QuadratureError,
                     ac_policy, estimate_value, optimal_policy, rate_surface)
from liqzone import _workers, montecarlo, signals

BS = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.0)
MODELS = (CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0), BS)
COSTS = {
    "small": CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0),
    "unit": CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0),
    "steep": CostParams(lam=0.1, gamma=100.0, big_gamma=100.0, horizon=1.0, x0=1.0),
    "steeper": CostParams(lam=0.1, gamma=1000.0, big_gamma=1000.0, horizon=1.0, x0=1.0),
}
# a surface whose tau rows refine, each alone (as in test_signals.py)
REFINING_TAUS = np.array([1e-3, 3e-3, 0.01, 0.05, 0.1, 0.5, 1.0])
REFINING_MONEY = np.array([0.0, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.3, 1.0])
REFINING_BS_M = np.array([1.0, 3.0, 1.2, 5.0, 1.0, 2.0, 1.1, 4.0])


def _split(monkeypatch, workers):
    """Every _table_rows call of more than one panel splits over `workers` threads."""
    monkeypatch.setattr(signals, "_SPLIT_MIN_NODES", 1)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: workers)


def _built(costs, model=BS):
    """(roots, rows, quad_error) of a fresh signal table, or its QuadratureError text."""
    table = optimal_policy(model, GKernel.from_costs(costs), costs).signal_table
    try:
        table.step_rows([0.0])
    except QuadratureError as exc:
        return str(exc)
    return table.roots, table.rows, table.quad_error


def _refined(costs, model):
    """(rate, quad_error) of a refining surface, or its QuadratureError text."""
    try:
        surf = rate_surface(GKernel.from_costs(costs), costs, model, REFINING_TAUS,
                            REFINING_MONEY, x=1.0, bs_m=REFINING_BS_M)
    except QuadratureError as exc:
        return str(exc)
    return surf.rate, surf.quad_error


def _same(got, want):
    if isinstance(want, str):
        return got == want
    return not isinstance(got, str) and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("rounds", [signals._QUAD_ROUNDS, 0], ids=["converged", "failing"])
@pytest.mark.parametrize("name", list(COSTS))
def test_split_table_build_equals_one_process(name, rounds, monkeypatch):
    # refinement is decided in the caller for all panels as one group, so the
    # split changes which thread evaluates a panel and nothing else; with no
    # refinement the steep builds fail, naming the same cell
    monkeypatch.setattr(signals, "_QUAD_ROUNDS", rounds)
    for model in MODELS:
        _split(monkeypatch, 1)
        want = _built(COSTS[name], model), _refined(COSTS[name], model)
        assert isinstance(want[0], str) == (rounds == 0 and name.startswith("steep"))
        assert isinstance(want[1], str) == (rounds == 0)
        for workers in (2, 3):
            _split(monkeypatch, workers)
            assert _same(_built(COSTS[name], model), want[0])
            assert _same(_refined(COSTS[name], model), want[1])


def test_a_forked_worker_never_forks_again(monkeypatch):
    # a Monte Carlo worker that builds a Black-Scholes table builds it in one
    # thread, with the one-thread rows
    costs = COSTS["small"]
    _split(monkeypatch, 1)
    want = _built(costs)[1]
    caller = os.getpid()
    # per range: the most threads a build in it split over, and whether its
    # rows equal the one-thread rows
    seen = _workers.shared((3, 2))
    split, simulate = _workers.threads, montecarlo._simulate_batch

    def build_then_simulate(model, horizon, n_steps, master_seed, first, count):
        if os.getpid() != caller:
            runs = []

            def recorded(work, items, workers):
                runs.append(workers)
                split(work, items, workers)

            _workers.threads = recorded  # in the forked worker only
            rows = _built(costs)[1]
            seen[first // 100] = (max(runs), float(np.array_equal(rows, want)))
        return simulate(model, horizon, n_steps, master_seed, first, count)

    _split(monkeypatch, 3)
    monkeypatch.setattr(montecarlo, "_FORK_MIN_PATH_STEPS", 1)
    monkeypatch.setattr(montecarlo, "_BATCH_DEFAULT", 100)
    monkeypatch.setattr(montecarlo, "_simulate_batch", build_then_simulate)
    estimate_value(BS, ac_policy(GKernel.from_costs(costs)), costs, n_paths=300, n_steps=8,
                   master_seed=1)
    assert seen.tolist() == [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patched_kernel(monkeypatch, before):
    """signals._norm_pdf that calls before() first; _norm_pdf runs once per panel."""
    pdf = signals._norm_pdf

    def patched(*args, **kwargs):
        before()
        return pdf(*args, **kwargs)

    monkeypatch.setattr(signals, "_norm_pdf", patched)


def _in_caller():
    return threading.current_thread() is threading.main_thread()


def test_worker_quadrature_error_is_raised_in_the_caller(monkeypatch):
    def fail():
        if not _in_caller():
            raise QuadratureError("a helper's panel failed")

    threads = threading.active_count()
    _split(monkeypatch, 3)
    _patched_kernel(monkeypatch, fail)
    table = optimal_policy(BS, GKernel.from_costs(COSTS["unit"]), COSTS["unit"]).signal_table
    with pytest.raises(QuadratureError, match="^a helper's panel failed$"):
        table.step_rows([0.0])
    assert threading.active_count() == threads


def test_interrupted_table_build_kills_its_workers(monkeypatch):
    # the caller's first panel is interrupted while the helper sleeps in its
    # first: the helper stops at its next panel and is joined, not awaited
    # over its range (8 panels of 0.2 s)
    helper_panels = []

    def fail():
        if _in_caller():
            raise KeyboardInterrupt
        helper_panels.append(None)
        time.sleep(0.2)

    threads = threading.active_count()
    _split(monkeypatch, 2)
    _patched_kernel(monkeypatch, fail)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _built(COSTS["unit"])
    assert time.perf_counter() - start < 1.0
    assert len(helper_panels) <= 2
    assert threading.active_count() == threads


def test_helpers_run_under_the_callers_errstate(monkeypatch):
    # numpy's errstate is a context variable, which a bare thread starts at
    # its default; each helper runs in a copy of the caller's context
    seen = []
    _split(monkeypatch, 2)
    _patched_kernel(monkeypatch, lambda: seen.append((_in_caller(), np.geterr()["over"])))
    with np.errstate(over="raise"):
        _built(COSTS["unit"])
    assert {caller for caller, _ in seen} == {True, False}
    assert {over for _, over in seen} == {"raise"}


def test_first_error_in_range_order_is_raised():
    # ranges 1 and 2 each fail at their first item: range 1's error is raised
    def work(lo, hi):
        for _ in range(lo, hi):
            if lo > 0:
                raise ValueError(f"range from {lo}")
            yield

    threads = threading.active_count()
    with pytest.raises(ValueError, match="^range from 2$"):
        _workers.threads(work, 6, 3)
    assert threading.active_count() == threads


def test_every_item_runs_once_under_a_short_switch_interval():
    # more threads than CPUs, switching as often as the interpreter allows
    ran = []

    def work(lo, hi):
        for i in range(lo, hi):
            ran.append(i)
            yield

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _workers.threads(work, 1000, 7)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(1000))
