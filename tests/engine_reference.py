"""The step-by-step loop the Monte Carlo engine's blocked loop is tested against.

reference_run is the engine's step loop as first written: every signal
table in play is looked up once per step with extra_values, a feedback
policy's rate is urgency(t) * x plus that value, any other callable is
called with a MarketState, and cash, running penalty and v1^2 are added
one step at a time.  It takes the batch's prices whole (model._cap of its
levels), where montecarlo._run_batch caps them a block at a time, and it
keeps every position and rate of the batch, so the blocks _run_batch hands
its fold can be compared with them bit for bit.
"""

from typing import NamedTuple

import numpy as np

from liqzone import GoalBreakdown, MarketState, urgency
from liqzone.montecarlo import _FeedbackPolicy


class ReferenceRun(NamedTuple):
    goals: list                     # GoalBreakdown of per-path arrays, per policy
    paths: list                     # (X, U) per policy, (n_steps + 1, count) and (n_steps, count)
    v1_squared: np.ndarray | None   # per-path sum of v1^2 dt, when square is given


def reference_run(grid, p, m, policies, costs, square=None) -> ReferenceRun:
    n_grid, count = p.shape
    n_steps = n_grid - 1
    dt = float(grid[1] - grid[0])
    signals = [policy.signal_table for policy in policies if isinstance(policy, _FeedbackPolicy)]
    tables = {id(table): table for table in (square, *signals) if table is not None}
    x = [float(costs.x0)] * len(policies)
    cash = [0.0] * len(policies)
    run_pen = [0.0] * len(policies)
    xs = [np.empty((n_grid, count)) for _ in policies]
    us = [np.empty((n_steps, count)) for _ in policies]
    v1_squared = None if square is None else np.zeros(count)
    for i in range(n_steps):
        t, p_i, m_i = float(grid[i]), p[i], m[i]
        extra = {key: table.extra_values(t, p_i, m_i) for key, table in tables.items()}
        if v1_squared is not None:
            v1_squared += np.square(extra[id(square)]) * dt
        for k, policy in enumerate(policies):
            if isinstance(policy, _FeedbackPolicy):
                u = urgency(policy.kernel, t) * x[k]
                if policy.signal_table is not None:
                    u = u + extra[id(policy.signal_table)]
            else:
                u = policy(t, np.broadcast_to(x[k], (count,)), MarketState(p=p_i, m=m_i))
                u = np.broadcast_to(np.asarray(u, dtype=float), (count,))
            xs[k][i] = x[k]
            us[k][i] = u
            cash[k] += (p_i - costs.lam * u) * u * dt
            run_pen[k] += costs.gamma * np.square(x[k]) * dt
            x[k] = x[k] - u * dt
    for k in range(len(xs)):
        xs[k][n_steps] = x[k]
    goals = [GoalBreakdown(*(np.broadcast_to(part, (count,)) for part in
                             (c, p[-1] * x_end, r, costs.big_gamma * np.square(x_end))))
             for c, x_end, r in zip(cash, x, run_pen)]
    return ReferenceRun(goals, list(zip(xs, us)), v1_squared)
