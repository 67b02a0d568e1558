"""The worker module: the Black-Scholes table build split over forked workers.

The Monte Carlo path split's tests are in test_montecarlo.py.
"""

import os
import time

import numpy as np
import pytest

from liqzone import (CappedBlackScholes, CostParams, GKernel, QuadratureError, ac_policy,
                     estimate_value, optimal_policy)
from liqzone import _workers, montecarlo, signals

BS = CappedBlackScholes(m0=1.0, sigma=0.5, p_bar=1.0)
COSTS = {
    "small": CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0),
    "unit": CostParams(lam=0.1, gamma=1.0, big_gamma=1.0, horizon=1.0, x0=1.0),
    "steep": CostParams(lam=0.1, gamma=100.0, big_gamma=100.0, horizon=1.0, x0=1.0),
    "steeper": CostParams(lam=0.1, gamma=1000.0, big_gamma=1000.0, horizon=1.0, x0=1.0),
}


def _split(monkeypatch, workers):
    """Every _table_rows call of more than one root splits over `workers` processes."""
    monkeypatch.setattr(signals, "_FORK_MIN_NODES", 1)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: workers)


def _built(costs):
    """(roots, rows, quad_error) of a fresh Black-Scholes table, or its QuadratureError text."""
    table = optimal_policy(BS, GKernel.from_costs(costs), costs).signal_table
    try:
        table.step_rows([0.0])
    except QuadratureError as exc:
        return str(exc)
    return table.roots, table.rows, table.quad_error


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rounds", [signals._QUAD_ROUNDS, 0], ids=["converged", "failing"])
@pytest.mark.parametrize("name", list(COSTS))
def test_split_table_build_equals_one_process(name, rounds, monkeypatch):
    # refinement is decided in the caller for all roots as one group, so the
    # split changes which process evaluates a root's panels and nothing else;
    # with no refinement the steep builds fail, naming the same cell
    monkeypatch.setattr(signals, "_QUAD_ROUNDS", rounds)
    _split(monkeypatch, 1)
    want = _built(COSTS[name])
    assert isinstance(want, str) == (rounds == 0 and name.startswith("steep"))
    for workers in (2, 3):
        _split(monkeypatch, workers)
        got = _built(COSTS[name])
        if isinstance(want, str):
            assert got == want
        else:
            roots, rows, quad_error = got
            assert np.array_equal(roots, want[0]) and np.array_equal(rows, want[1])
            assert quad_error == want[2]


def test_a_forked_worker_never_forks_again(monkeypatch):
    # a Monte Carlo worker that builds a Black-Scholes table builds it in its
    # own process, with the one-process rows
    costs = COSTS["small"]
    _split(monkeypatch, 1)
    want = _built(costs)[1]
    caller = os.getpid()
    # per range: the most processes a build in it split over, and whether
    # its rows equal the one-process rows
    seen = _workers.shared((3, 2))
    split, simulate = _workers.run, montecarlo._simulate_batch

    def build_then_simulate(model, horizon, n_steps, master_seed, first, count):
        if os.getpid() != caller:
            runs = []

            def recorded(work, items, workers):
                runs.append(workers)
                split(work, items, workers)

            _workers.run = recorded  # in the forked worker only
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
    _no_child_is_left()


def _failing_kernel(monkeypatch, fail):
    """signals._norm_pdf that calls fail() first."""
    pdf = signals._norm_pdf

    def patched(*args, **kwargs):
        fail()
        return pdf(*args, **kwargs)

    monkeypatch.setattr(signals, "_norm_pdf", patched)


def test_worker_quadrature_error_is_raised_in_the_caller(monkeypatch):
    caller = os.getpid()

    def fail():
        if os.getpid() != caller:
            raise QuadratureError("a worker's panel failed")

    _split(monkeypatch, 3)
    _failing_kernel(monkeypatch, fail)
    table = optimal_policy(BS, GKernel.from_costs(COSTS["unit"]), COSTS["unit"]).signal_table
    with pytest.raises(QuadratureError, match="^a worker's panel failed$"):
        table.step_rows([0.0])
    _no_child_is_left()


def test_interrupted_table_build_kills_its_workers(monkeypatch):
    # the caller's roots are interrupted while the workers of the others
    # sleep: they are killed and reaped, not awaited
    caller = os.getpid()

    def fail():
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    _split(monkeypatch, 3)
    _failing_kernel(monkeypatch, fail)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _built(COSTS["unit"])
    assert time.perf_counter() - start < 30
    _no_child_is_left()
