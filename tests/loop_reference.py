"""Element-at-a-time forms that the library's batched paths are tested against.

Each function is a computation as the library first wrote it: the surface
CSV formatted value by value, the trajectory and drift-curve recursions
reading numpy arrays one element at a time, and the Bachelier quadrature
kernel as one GEMM per panel.  The library computes the same numbers in
fewer passes, and its tests compare the two with ==.
"""

import math

import numpy as np

from liqzone import urgency
from liqzone.schedule import TradePlan, _log_g, _log_g_array


def surface_lines(taus, money, rate_ac, rate, rate_extra, relative_increase) -> list:
    """Every cell's six columns formatted by one "%.17g,..." % row."""
    tau_col, money_col = np.meshgrid(taus, money, indexing="ij")
    ac_col = np.repeat(np.asarray(rate_ac)[:, None], len(money), axis=1)
    columns = (tau_col, money_col, rate, ac_col, rate_extra, relative_increase)
    row_format = ",".join(["%.17g"] * len(columns))
    return [row_format % row for row in zip(*(np.ravel(c).tolist() for c in columns))]


def trajectory(kernel, x0, v1_curve, grid) -> TradePlan:
    """trajectory_from_signal's positions and rates, stepping on numpy scalars."""
    values = np.asarray(v1_curve, dtype=float)
    beta, g, horizon = kernel.beta, kernel.gamma_ratio, kernel.horizon
    lg = _log_g_array(beta, g, beta * (horizon - grid))
    rho = np.exp(np.diff(lg))
    h = np.diff(grid)
    positions = np.empty(grid.size)
    positions[0] = x0 * math.exp(lg[0] - _log_g(beta, g, beta * horizon))
    for j in range(grid.size - 1):
        positions[j + 1] = (rho[j] * positions[j]
                            + 0.5 * h[j] * (rho[j] * values[j] + values[j + 1]))
    rates = np.array([urgency(kernel, t) for t in grid[:-1]]) * positions[:-1] - values[:-1]
    return TradePlan(grid=grid, positions=positions, rates=rates)


def v1_curve(model, kernel, lam, grid) -> np.ndarray:
    """v1_curve_deterministic, its backward recursion on numpy scalars."""
    min_nodes = max(2, int(math.ceil((kernel.horizon - grid[0]) / kernel.horizon * 4096)) + 1)
    refine = np.linspace(grid[0], kernel.horizon, min_nodes)
    fine = np.union1d(np.union1d(grid, refine),
                      model.times[(model.times > grid[0]) & (model.times < kernel.horizon)])
    a = np.interp(fine, model.times, model.values)
    beta = kernel.beta
    lg = _log_g_array(beta, kernel.gamma_ratio, beta * (kernel.horizon - fine))
    rho = np.exp(lg[1:] - lg[:-1])
    h = np.diff(fine)
    acc = np.empty(fine.size)
    acc[-1] = 0.0
    for j in range(fine.size - 2, -1, -1):
        local = 0.5 * h[j] * (a[j] + rho[j] * a[j + 1])
        acc[j] = local + rho[j] * acc[j + 1]
    return acc[np.searchsorted(fine, grid)] / (2.0 * lam)


def bachelier_table_rows(lam, z_grid, y, roots, w) -> np.ndarray:
    """CappedBachelier._table_rows with one GEMM per panel."""
    pdf = np.exp(-0.5 * np.square(z_grid / y[..., None])) / math.sqrt(2.0 * math.pi)
    sums = np.empty(w.shape[:3] + z_grid.shape)
    for p in range(y.shape[0]):
        np.matmul(w[p].reshape(-1, y.shape[1]), pdf[p], out=sums[p].reshape(-1, z_grid.size))
    sums /= lam
    return sums.transpose(2, 0, 1, 3)
