"""Closed-form machinery for optimal liquidation schedules with quadratic costs.

A trader sells down an inventory over [0, T] against three quadratic costs:
an instantaneous impact cost lam * u^2 on the trading rate u, a running
inventory penalty gamma * X^2, and a terminal penalty big_gamma * X_T^2.
Everything in this module derives from the scalar kernel

    G(t) = beta * cosh(beta * t) + (big_gamma / lam) * sinh(beta * t),
    beta = sqrt(gamma / lam),

which solves G'' = beta^2 * G with G(0) = beta and G'(0) = beta * big_gamma / lam.
The optimal selling rate decomposes as

    u(t) = urgency(t) * X_t - v1(t),

where urgency(t) = G'(T - t) / G(T - t) is the signal-free liquidation speed
per unit of inventory and v1(t) is a market signal term (nonpositive when the
price is predicted to fall, so -v1 adds selling pressure).  The signal-free
trajectory is X_t = x0 * G(T - t) / G(T), and a signal bends it via

    X_t = G(T - t) / G(T) * x0 + int_0^t G(T - t) / G(T - s) * v1(s) ds.

All evaluators below are overflow safe: for beta * t > 30 they switch to a
scaled exponential form, and ratios are computed through log differences so
that urgency and positions stay finite far beyond the range where G itself
overflows a double.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostParams",
    "GKernel",
    "TradePlan",
    "g_value",
    "urgency",
    "ac_position",
    "optimal_rate",
    "trajectory_from_signal",
    "value_formula",
]

# raw cosh/sinh up to here; scaled exponential form beyond
_EXP_SWITCH = 30.0
# below here a short Taylor series replaces cosh/sinh
_SERIES_SWITCH = 1e-4


def _finite(name: str, value) -> float:
    """value as a float; ValueError naming it unless finite."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


def _positive(name: str, value) -> float:
    """value as a float; ValueError naming it unless finite and > 0."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
    return v


def _finite_array(name: str, values, lower: float = -math.inf, strict: bool = False) -> np.ndarray:
    """values as a float array; ValueError naming it unless every entry is finite
    and >= lower (> lower if strict)."""
    arr = np.asarray(values, dtype=float)
    ok = np.isfinite(arr) & ((arr > lower) if strict else (arr >= lower))
    if not ok.all():
        bound = "" if lower == -math.inf else f" and {'>' if strict else '>='} {lower!r}"
        raise ValueError(f"{name} must be finite{bound}, got {float(arr[~ok].flat[0])!r}")
    return arr


def _check_time(name: str, t, horizon: float, closed: bool = True) -> float:
    """t as a float; ValueError naming it unless 0 <= t <= horizon (t < horizon unless closed).

    Plain comparisons, which NaN fails: the step loop calls this once per step.
    """
    t = float(t)
    if not (0.0 <= t <= horizon if closed else 0.0 <= t < horizon):
        raise ValueError(f"{name} must lie in [0, horizon = {float(horizon)!r}"
                         f"{']' if closed else ')'}, got {t!r}")
    return t


def _check_count(name: str, value, minimum: int, bits: int | None = None) -> int:
    """value as an int; ValueError naming it unless an integer >= minimum, and
    below 2**bits when bits is given (numpy ints pass)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum or (bits is not None and count >= 2**bits):
        below = "" if bits is None else f" and below 2**{bits}"
        raise ValueError(f"{name} must be an integer >= {minimum}{below}, got {value!r}")
    return count


def _check_grid(name: str, grid, min_size: int = 2) -> np.ndarray:
    """grid as a float array; ValueError naming it unless 1-d, finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    # an increasing grid can hold an infinity only at its ends
    if (grid.ndim != 1 or grid.size < min_size or not np.all(np.diff(grid) > 0.0)
            or not (math.isfinite(grid[0]) and math.isfinite(grid[-1]))):
        raise ValueError(f"{name} must be a finite, strictly increasing 1-d array of "
                         f">= {min_size} points")
    return grid


@dataclass(frozen=True)
class CostParams:
    """Cost and problem-size parameters of one liquidation problem.

    lam        impact cost coefficient (price per unit rate)
    gamma      running inventory penalty coefficient
    big_gamma  terminal inventory penalty coefficient
    horizon    trading horizon T
    x0         initial inventory (shares)
    """

    lam: float
    gamma: float
    big_gamma: float
    horizon: float
    x0: float

    def __post_init__(self):
        for name in ("lam", "gamma", "big_gamma", "horizon", "x0"):
            _positive(name, getattr(self, name))


@dataclass(frozen=True)
class GKernel:
    """Reduced kernel parameters: beta = sqrt(gamma/lam), gamma_ratio = big_gamma/lam."""

    beta: float
    gamma_ratio: float
    horizon: float

    def __post_init__(self):
        for name in ("beta", "gamma_ratio", "horizon"):
            _positive(name, getattr(self, name))

    @classmethod
    def from_costs(cls, costs: CostParams) -> "GKernel":
        return cls(
            beta=math.sqrt(costs.gamma / costs.lam),
            gamma_ratio=costs.big_gamma / costs.lam,
            horizon=costs.horizon,
        )


def _check_kernel(kernel: GKernel, costs: CostParams) -> None:
    """ValueError naming kernel unless it is GKernel.from_costs(costs)."""
    expected = GKernel.from_costs(costs)
    if kernel != expected:
        raise ValueError(f"kernel must be GKernel.from_costs(costs) = {expected!r}, got {kernel!r}")


@dataclass(frozen=True)
class TradePlan:
    """A schedule sampled on a time grid: positions and selling rates.

    positions holds one entry per grid point and rates one per step:
    rates[i] is the selling rate on [grid[i], grid[i+1]).  For plans built
    by forward Euler the identity positions[i+1] = positions[i] - rates[i] *
    dt holds exactly; closed-form plans satisfy it to O(dt^2) per step (see
    max_euler_residual).
    """

    grid: np.ndarray
    positions: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        grid = _check_grid("grid", self.grid)
        pos = _finite_array("positions", self.positions)
        rates = _finite_array("rates", self.rates)
        if pos.shape != grid.shape:
            raise ValueError("positions must match the grid shape")
        if rates.shape != (grid.size - 1,):
            raise ValueError(f"rates must hold one rate per step, got shape {rates.shape}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "rates", rates)

    def max_euler_residual(self) -> float:
        """Largest |positions[i+1] - (positions[i] - rates[i] * dt)| over the grid."""
        dt = np.diff(self.grid)
        pred = self.positions[:-1] - self.rates * dt
        return float(np.max(np.abs(self.positions[1:] - pred)))


def _g_raw(beta: float, g: float, x: float) -> float:
    # series branch keeps full relative accuracy for tiny arguments
    if x < _SERIES_SWITCH:
        x2 = x * x
        c = 1.0 + x2 * (0.5 + x2 * (1.0 / 24.0 + x2 / 720.0))
        s = x * (1.0 + x2 * (1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 / 5040.0)))
        return beta * c + g * s
    return beta * math.cosh(x) + g * math.sinh(x)


def _log_g(beta: float, g: float, x: float) -> float:
    """log G(t) evaluated at x = beta * t, stable for arbitrarily large x."""
    if x <= _EXP_SWITCH:
        return math.log(_g_raw(beta, g, x))
    r = (beta - g) / (beta + g)
    return math.log(0.5 * (beta + g)) + x + math.log1p(r * math.exp(-2.0 * x))


def _log_g_array(beta: float, g: float, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= _EXP_SWITCH
    xs = x[small]
    out[small] = np.log(beta * np.cosh(xs) + g * np.sinh(xs))
    if not np.all(small):
        xl = x[~small]
        r = (beta - g) / (beta + g)
        out[~small] = math.log(0.5 * (beta + g)) + xl + np.log1p(r * np.exp(-2.0 * xl))
    return out


def g_value(kernel: GKernel, t: float) -> float:
    """The kernel G at argument t >= 0.

    G(0) = beta exactly.  For beta * t > 30 a scaled exponential form
    0.5 * (beta + g) * exp(beta t) * (1 + r * exp(-2 beta t)) avoids
    overflow of the intermediate cosh/sinh for as long as the value itself
    is representable.
    """
    t = float(_finite_array("t", t, 0.0))
    beta, g = kernel.beta, kernel.gamma_ratio
    x = beta * t
    if x <= _EXP_SWITCH:
        return _g_raw(beta, g, x)
    r = (beta - g) / (beta + g)
    return 0.5 * (beta + g) * math.exp(x) * (1.0 + r * math.exp(-2.0 * x))


def urgency(kernel: GKernel, t: float) -> float:
    """Signal-free liquidation speed per unit inventory, G'(T-t) / G(T-t).

    Evaluated in a tanh form that never overflows:
    beta * (beta * tanh(beta tau) + g) / (beta + g * tanh(beta tau)), tau = T - t.
    At t = T this is exactly gamma_ratio; as tau grows it saturates at beta.
    The value always lies between min(beta, gamma_ratio) and max(beta, gamma_ratio).
    """
    tau = kernel.horizon - _check_time("t", t, kernel.horizon)
    beta, g = kernel.beta, kernel.gamma_ratio
    if tau == 0.0:
        return g
    th = math.tanh(beta * tau)
    return beta * (beta * th + g) / (beta + g * th)


def ac_position(kernel: GKernel, t: float, x0: float) -> float:
    """Signal-free optimal inventory at time t: x0 * G(T - t) / G(T)."""
    t = _check_time("t", t, kernel.horizon)
    x0 = _finite("x0", x0)
    tau = kernel.horizon - t
    beta, g = kernel.beta, kernel.gamma_ratio
    if beta * kernel.horizon <= _EXP_SWITCH:
        return x0 * _g_raw(beta, g, beta * tau) / _g_raw(beta, g, beta * kernel.horizon)
    # G(T) = 0.5 (beta + g) e^{beta T} (1 + r e^{-2 beta T}); dividing by the
    # factors, not by a difference of two large logs, keeps full precision
    r = (beta - g) / (beta + g)
    tail_T = 1.0 + r * math.exp(-2.0 * beta * kernel.horizon)
    if beta * tau <= _EXP_SWITCH:
        g_T_scaled = 0.5 * (beta + g) * tail_T  # G(T) e^{-beta T}
        return x0 * _g_raw(beta, g, beta * tau) * math.exp(-beta * kernel.horizon) / g_T_scaled
    return x0 * math.exp(-beta * t) * (1.0 + r * math.exp(-2.0 * beta * tau)) / tail_T


def optimal_rate(kernel: GKernel, t: float, x: float, v1_signal: float = 0.0) -> float:
    """Optimal selling rate at time t with inventory x and signal term v1.

    v1_signal is nonpositive for a price pushed down (a cap above), so the
    rate exceeds the signal-free one; positive v1 (an upward drift) slows
    selling and may flip the rate negative (buying).
    """
    return urgency(kernel, t) * _finite("x", x) - _finite("v1_signal", v1_signal)


def trajectory_from_signal(kernel, x0, v1_curve, grid) -> TradePlan:
    """Optimal trajectory on a grid given the signal curve v1 sampled on it.

    The position integral is evaluated by composite trapezoid on the sampled
    curve, propagated stepwise through ratios of G so that no intermediate
    overflows; rates are urgency * X - v1 at the grid points.

    The grid must start at 0 and end by the horizon (to relative 1e-12).
    """
    x0 = _finite("x0", x0)
    grid = _check_grid("grid", grid)
    if grid[0] != 0.0 or grid[-1] > kernel.horizon * (1.0 + 1e-12):
        raise ValueError(f"grid must span at most [0, horizon = {kernel.horizon!r}], "
                         f"got [{float(grid[0])!r}, {float(grid[-1])!r}]")
    values = _finite_array("v1_curve", v1_curve)
    if values.shape != grid.shape:
        raise ValueError("v1_curve must align with the grid")

    beta, g, horizon = kernel.beta, kernel.gamma_ratio, kernel.horizon
    lg = _log_g_array(beta, g, beta * (horizon - grid))
    # step ratio rho_j = G(T - s_{j+1}) / G(T - s_j) <= 1
    rho = np.exp(np.diff(lg))
    h = np.diff(grid)

    positions = np.empty(grid.size)
    positions[0] = x0 * math.exp(lg[0] - _log_g(beta, g, beta * horizon))
    for j in range(grid.size - 1):
        positions[j + 1] = (rho[j] * positions[j]
                            + 0.5 * h[j] * (rho[j] * values[j] + values[j + 1]))

    rates = np.array([urgency(kernel, t) for t in grid[:-1]]) * positions[:-1] - values[:-1]
    return TradePlan(grid=grid, positions=positions, rates=rates)


def value_formula(kernel: GKernel, costs: CostParams, p0: float, v0_0: float, v1_0: float) -> float:
    """Expected goal value of the optimal schedule started at price p0.

    p0 * x0 + lam * (v0_0 + 2 * v1_0 * x0 + v2_0 * x0^2) with
    v2_0 = -urgency(0).  v1_0 is the signal term at time 0 and v0_0 the
    expected integral of the squared signal along the optimal path.  The
    kernel must be GKernel.from_costs(costs), else ValueError.
    """
    _check_kernel(kernel, costs)
    p0, v1_0 = _finite("p0", p0), _finite("v1_0", v1_0)
    v0_0 = float(_finite_array("v0_0", v0_0, 0.0))
    x = costs.x0
    v2_0 = -urgency(kernel, 0.0)
    return p0 * x + costs.lam * (v0_0 + 2.0 * v1_0 * x + v2_0 * x * x)
