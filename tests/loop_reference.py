"""Element-at-a-time forms that the library's batched paths are tested against.

Each function is a computation as the library first wrote it: the surface
CSV formatted value by value, the trajectory recursion reading numpy arrays
one element at a time, the Bachelier quadrature kernel as one GEMM per panel,
the Black-Scholes kernel one root at a time, and the rate surface one
quadrature call per tau row.  The library computes the same numbers in fewer
passes, and its tests compare the two with ==.
"""

import math

import numpy as np
from scipy.special import ndtr

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


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def bachelier_table_rows(lam, z, y, roots, w) -> np.ndarray:
    """CappedBachelier._table_rows with one GEMM per panel and z row: (2 roots x 15) @
    (15 x z) for a z row shared by every root, else (2 x 15) @ (15 x z) per root."""
    sums = np.empty(w.shape[:3] + z.shape[1:])
    for r, z_r in zip([slice(None)] if z.shape[0] == 1 else range(z.shape[0]), z):
        pdf = _norm_pdf(z_r / y[..., None])
        for p in range(y.shape[0]):
            np.matmul(w[p, r].reshape(-1, y.shape[1]), pdf[p],
                      out=sums[p, r].reshape(-1, z.shape[1]))
    sums /= lam
    return sums.transpose(2, 0, 1, 3)


def bs_table_rows(lam, z, y, roots, w) -> np.ndarray:
    """CappedBlackScholes._table_rows one root at a time, a (2 x 15) @ (15 x z) GEMM per panel."""
    sums = np.empty(w.shape[:3] + z.shape[1:])
    for k, root in enumerate(roots):
        f = 0.5 * root * y[..., None] - z[k if z.shape[0] > 1 else 0] / y[..., None]
        sums[:, k] = 2.0 * (w[:, k] @ _norm_pdf(f)) + root * ((w[:, k] * y[:, None]) @ ndtr(f))
    sums /= 2.0 * lam
    return sums.transpose(2, 0, 1, 3)


def surface_extra(kernel, costs, model, taus, money, bs_m=None) -> tuple:
    """rate_surface's rate_extra and quad_error, one quadrature call per tau row."""
    p, m_cols = model.p_bar - money, model._surface_levels(bs_m, money)
    rows = [model._extra(kernel, costs.lam, np.array([tau]), p, m_cols) for tau in taus]
    return tuple(np.concatenate(part) for part in zip(*rows))
