"""Drift signals generated by a price cap, and the selling-rate surfaces they imply.

The market models here keep an uncapped background price M away from a
barrier p_bar by a running-maximum correction (a Skorokhod-type map):

    P_t = M_t - max(M*_t - p_bar, 0),     M*_t = max_{s <= t} M_s.

Under this map the conditional expectation of P drifts down, and the drift
increment at a later time s seen from time t equals the maturity derivative
(theta) of a fixed-strike lookback call on M.  The signal term of the optimal
schedule is the G-discounted integral of that theta:

    v1(t) = -(1 / 2 lam) * int_t^T  G(T-s)/G(T-t) * theta(s - t, state) ds  <= 0,

so a capped price always adds selling pressure, -v1 = extra_rate >= 0.

Two background dynamics are supported with closed-form thetas: arithmetic
Brownian motion (bachelier_theta, a function of the distance to the barrier
only) and geometric Brownian motion (bs_theta, which also scales with the
uncapped level m).  DeterministicDrift and Martingale variants cover plain
signal models with no cap.

The time integral has an inverse-square-root singularity at s = t; the
substitution s = t + w^2 removes it, and the integral is evaluated by
fixed Gauss-Legendre panels with one refinement used as an error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .schedule import CostParams, GKernel, _check_grid, _log_g, _log_g_array, urgency

__all__ = [
    "CappedBachelier",
    "CappedBlackScholes",
    "DeterministicDrift",
    "Martingale",
    "MarketModel",
    "TargetZoneState",
    "QuadratureError",
    "bachelier_theta",
    "bs_f",
    "bs_theta",
    "bachelier_lookback_price",
    "extra_rate_small_beta",
    "v1_target_zone",
    "v1_curve_deterministic",
    "extra_rate",
    "full_rate",
    "rate_surface",
    "RateSurface",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Gauss-Legendre panel scheme on the substituted variable: the coarse pass
# and its refinement must agree to this relative tolerance.  16 base panels:
# 8 underresolve the phi(z/y) boundary layer near y = 0 for moneyness around
# 0.02 at tau = 1, overshooting the gate by ~30%
_PANELS_COARSE = 16
_PANELS_FINE = 32
_GL_ORDER = 32
_QUAD_RTOL = 1e-8
_QUAD_ATOL_SCALE = 1e-12


class QuadratureError(RuntimeError):
    """Raised when the panel refinement disagrees beyond tolerance."""


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


class _Model:
    """Per-model behaviour of the signal term and the Monte Carlo engine.

    The defaults fit an uncapped price started at p0 with no signal: paths
    are p0 plus sigma times Brownian sums, and the capped price is the level
    itself.  Subclasses override what differs.
    """

    def _fixed_levels(self, grid: np.ndarray):
        """Levels on the grid for a noiseless model; None when paths need normals."""
        return None

    def _to_levels(self, m: np.ndarray, grid: np.ndarray) -> None:
        """Turn scaled Brownian sums m (time-major, in place) into uncapped levels."""
        m += self.p0

    def _cap(self, m: np.ndarray) -> np.ndarray:
        """Capped prices of time-major levels m."""
        return m

    def _check_state(self, state: TargetZoneState, horizon: float) -> float:
        """Validate a state against the model; returns the time to go."""
        tau = horizon - state.t
        if state.t < 0.0 or tau <= 0.0:
            raise ValueError(f"state.t must lie in [0, horizon), got {state.t!r}")
        return tau

    def _v1(self, kernel: GKernel, lam: float, state: TargetZoneState, tau: float) -> float:
        return 0.0

    def _signal_table(self, kernel: GKernel, lam: float):
        """The extra rate -v1 as seen by the Monte Carlo policy, per time step."""
        return _ZeroSignalTable()


@dataclass(frozen=True)
class _CappedModel(_Model):
    """A background price started at m0 and pushed under p_bar by its running max.

    Subclasses supply the theta integrand on panel nodes (_extra_nodes), an
    upper bound on it that sets the quadrature's absolute error floor
    (_extra_scale), the signal table's z grid (_TABLE_Z), builder
    (_table_builder) and lookup (_table_lookup), and the surface's uncapped
    levels (_surface_levels).
    """

    m0: float
    sigma: float
    p_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be strictly positive, got {self.sigma!r}")
        if not (math.isfinite(self.m0) and math.isfinite(self.p_bar)):
            raise ValueError("m0 and p_bar must be finite")
        if self.p_bar < self.m0:
            raise ValueError(f"p_bar must be >= m0, got p_bar={self.p_bar!r} < m0={self.m0!r}")

    def _to_levels(self, m, grid):
        m += self.m0

    def _cap(self, m):
        # row by row: each row is one contiguous, cache-resident vector
        p = np.empty_like(m)
        run = np.array(m[0])
        tmp = np.empty(m.shape[1])
        for i in range(m.shape[0]):
            np.maximum(run, m[i], out=run)
            np.subtract(run, self.p_bar, out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            np.subtract(m[i], tmp, out=p[i])
        return p

    def _check_state(self, state, horizon):
        tau = super()._check_state(state, horizon)
        if state.p > self.p_bar:
            raise ValueError(f"state.p must not exceed p_bar, got {state.p!r} > {self.p_bar!r}")
        if state.p > state.m:
            raise ValueError(f"capped price cannot exceed the uncapped level, got p={state.p!r} > m={state.m!r}")
        return tau

    def _v1(self, kernel, lam, state, tau):
        coarse = _capped_extra_nodes(self, state, kernel, lam, tau, *_panel_nodes(_PANELS_COARSE))
        fine = _capped_extra_nodes(self, state, kernel, lam, tau, *_panel_nodes(_PANELS_FINE))
        err = abs(fine - coarse)
        tol = _QUAD_RTOL * abs(fine) + _QUAD_ATOL_SCALE * self._extra_scale(state, lam, tau)
        if err > tol:
            raise QuadratureError(f"panel refinement disagrees: coarse={coarse!r} fine={fine!r} "
                                  f"(err={err:.3e}, tol={tol:.3e})")
        return -fine

    def _signal_table(self, kernel, lam):
        return _CappedSignalTable(self, kernel, lam)


@dataclass(frozen=True)
class CappedBachelier(_CappedModel):
    """Arithmetic Brownian background price capped at p_bar (p_bar >= m0)."""

    # the signal table's z grid; beyond z = 13 the rate is below 1e-30 of scale
    _TABLE_Z = np.linspace(0.0, 13.0, 1301)

    def _extra_nodes(self, state, lam, tau, y, w, ratio):
        root = self.sigma * math.sqrt(tau)
        z = (self.p_bar - state.p) / root
        vals = _norm_pdf(z / y)
        return root / lam * float(np.dot(w, vals * ratio))

    def _extra_scale(self, state, lam, tau):
        return self.sigma * math.sqrt(tau) / (lam * _SQRT_2PI)

    def _table_builder(self, lam, z_grid, y):
        with np.errstate(over="ignore"):
            phi_over_y = _norm_pdf(z_grid[:, None] / y[None, :])
        return lambda tau, root, ratio_w: root / lam * (phi_over_y @ ratio_w)

    def _table_lookup(self, interp, p, m, root):
        return interp((self.p_bar - np.asarray(p, dtype=float)) / root)

    def _surface_levels(self, bs_m, ks):
        return np.full(ks.shape, self.p_bar)


@dataclass(frozen=True)
class CappedBlackScholes(_CappedModel):
    """Geometric Brownian background price capped at p_bar (p_bar >= m0 > 0)."""

    _TABLE_Z = np.linspace(0.0, 16.0, 1601)

    def __post_init__(self):
        super().__post_init__()
        if self.m0 <= 0.0:
            raise ValueError(f"m0 must be strictly positive, got {self.m0!r}")

    def _to_levels(self, m, grid):
        # exact in log space
        m -= 0.5 * self.sigma * self.sigma * grid[:, None]
        np.exp(m, out=m)
        m *= self.m0

    def _check_state(self, state, horizon):
        tau = super()._check_state(state, horizon)
        if state.m <= 0.0:
            raise ValueError(f"m must be strictly positive, got {state.m!r}")
        return tau

    def _extra_nodes(self, state, lam, tau, y, w, ratio):
        sig = self.sigma
        root = sig * math.sqrt(tau)
        # f = (sig sqrt(tau)/2) y - zb / y with zb = log1p(k/m)/(sig sqrt(tau))
        zb = math.log1p((self.p_bar - state.p) / state.m) / root
        f = 0.5 * root * y - zb / y
        vals = 2.0 * root * _norm_pdf(f) + sig * sig * tau * y * ndtr(f)
        return state.m / (2.0 * lam) * float(np.dot(w, vals * ratio))

    def _extra_scale(self, state, lam, tau):
        sig = self.sigma
        root = sig * math.sqrt(tau)
        return state.m / (2.0 * lam) * (2.0 * root / _SQRT_2PI + 0.5 * sig * sig * tau)

    def _table_builder(self, lam, z_grid, y):
        def build(tau, root, ratio_w):
            with np.errstate(over="ignore"):
                f = 0.5 * root * y[None, :] - z_grid[:, None] / y[None, :]
            return (2.0 * root * (_norm_pdf(f) @ ratio_w)
                    + self.sigma * self.sigma * tau * (ndtr(f) @ (ratio_w * y))) / (2.0 * lam)

        return build

    def _table_lookup(self, interp, p, m, root):
        m = np.asarray(m, dtype=float)
        return interp(np.log1p((self.p_bar - np.asarray(p, dtype=float)) / m) / root) * m

    def _surface_levels(self, bs_m, ks):
        if bs_m is None:
            raise ValueError("bs_m is required for a Black-Scholes surface")
        m_cols = np.broadcast_to(np.asarray(bs_m, dtype=float), ks.shape).astype(float)
        if np.any(m_cols < self.p_bar - ks):
            raise ValueError("bs_m must be >= the capped price p_bar - moneyness in every column")
        return m_cols


@dataclass(frozen=True)
class DeterministicDrift(_Model):
    """Price with a known deterministic drift curve a(t) and no noise.

    times/values sample a piecewise-linear a(t); the curve must cover the
    interval it is integrated over.
    """

    times: np.ndarray
    values: np.ndarray
    p0: float

    def __post_init__(self):
        times = _check_grid("drift curve times", self.times)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("drift curve needs matching times and values")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("drift curve must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def _fixed_levels(self, grid):
        a = np.interp(grid, self.times, self.values)
        out = np.empty_like(grid)
        out[0] = self.p0
        np.cumsum(0.5 * np.diff(grid) * (a[:-1] + a[1:]), out=out[1:])
        out[1:] += self.p0
        return out

    def _v1(self, kernel, lam, state, tau):
        grid = np.union1d(
            np.asarray([state.t, kernel.horizon]),
            self.times[(self.times > state.t) & (self.times < kernel.horizon)],
        )
        return float(v1_curve_deterministic(self, kernel, lam, grid)[0])

    def _signal_table(self, kernel, lam):
        return _DriftSignalTable(self, kernel, lam)


@dataclass(frozen=True)
class Martingale(_Model):
    """Driftless price; sigma = 0 gives a constant price (useful as an exact case)."""

    p0: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")

    def _fixed_levels(self, grid):
        return np.full(grid.size, self.p0) if self.sigma == 0.0 else None


MarketModel = CappedBachelier | CappedBlackScholes | DeterministicDrift | Martingale


@dataclass(frozen=True)
class TargetZoneState:
    """Market state at time t: uncapped level m and capped price p (p <= m)."""

    t: float
    m: float
    p: float


def bachelier_theta(u, moneyness, sigma):
    """Maturity derivative of a Bachelier fixed-strike lookback call.

    theta(u) = sigma / sqrt(u) * phi(moneyness / (sigma sqrt(u))) for maturity
    u > 0 and strike-minus-spot distance moneyness >= 0.  Vectorized in u and
    moneyness.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("maturity u must be strictly positive")
    if np.any(np.asarray(moneyness) < 0.0):
        raise ValueError("moneyness must be >= 0")
    if sigma <= 0.0:
        raise ValueError("sigma must be strictly positive")
    root = sigma * np.sqrt(u)
    out = sigma / np.sqrt(u) * _norm_pdf(np.asarray(moneyness) / root)
    return out if out.ndim else float(out)


def bachelier_lookback_price(u, moneyness, sigma):
    """Fixed-strike lookback call on arithmetic Brownian motion, strike above spot.

    E[(max_{[0,u]} M - K)^+] with K - M_0 = moneyness >= 0, by the running-
    maximum reflection law P(max > y) = 2 Phi(-y / (sigma sqrt(u))):

        price = 2 sigma sqrt(u) phi(a) - 2 k Phi(-a),  a = k / (sigma sqrt(u)).

    Differentiating in u recovers bachelier_theta.  u = 0 returns 0.
    """
    u = np.asarray(u, dtype=float)
    k = np.asarray(moneyness, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("maturity u must be >= 0")
    if np.any(k < 0.0):
        raise ValueError("moneyness must be >= 0")
    if sigma <= 0.0:
        raise ValueError("sigma must be strictly positive")
    s = sigma * np.sqrt(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(s > 0.0, k / np.where(s > 0.0, s, 1.0), np.inf)
    out = np.where(s > 0.0, 2.0 * s * _norm_pdf(a) - 2.0 * k * ndtr(-a), 0.0)
    return out if out.ndim else float(out)


def extra_rate_small_beta(tau, moneyness, sigma, lam):
    """Vanishing-inventory-penalty limit of the cap-induced selling rate.

    With gamma = big_gamma -> 0 the G-discounting drops out and the extra rate
    becomes half the remaining lookback value per unit impact cost:
    bachelier_lookback_price(tau, moneyness, sigma) / (2 lam).
    """
    return bachelier_lookback_price(tau, moneyness, sigma) / (2.0 * lam)


def bs_f(u, m, p, sigma, p_bar):
    """Standardized log-moneyness entering the Black-Scholes lookback theta.

    f(u, m, p) = sigma sqrt(u) / 2 - log1p((p_bar - p) / m) / (sigma sqrt(u)).
    Always <= sigma sqrt(u) / 2; equality at the barrier p = p_bar.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("maturity u must be strictly positive")
    m = np.asarray(m, dtype=float)
    if np.any(m <= 0.0):
        raise ValueError("m must be strictly positive")
    money = p_bar - np.asarray(p, dtype=float)
    if np.any(money < 0.0):
        raise ValueError("p must not exceed p_bar")
    if sigma <= 0.0:
        raise ValueError("sigma must be strictly positive")
    root = sigma * np.sqrt(u)
    out = 0.5 * root - np.log1p(money / m) / root
    return out if out.ndim else float(out)


def bs_theta(u, m, p, sigma, p_bar):
    """Maturity derivative of a Black-Scholes fixed-strike lookback call.

    theta = m * (sigma / sqrt(u) * phi(f) + sigma^2 / 2 * Phi(f)) with
    f = bs_f(u, m, p).  Increasing in the uncapped level m at fixed
    moneyness p_bar - p.
    """
    f = bs_f(u, m, p, sigma, p_bar)
    root_u = np.sqrt(np.asarray(u, dtype=float))
    out = np.asarray(m, dtype=float) * (sigma / root_u * _norm_pdf(f) + 0.5 * sigma * sigma * ndtr(f))
    return out if out.ndim else float(out)


@lru_cache(maxsize=8)
def _panel_nodes(n_panels: int, order: int = _GL_ORDER):
    """Gauss-Legendre nodes/weights for n_panels uniform panels on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    width = 1.0 / n_panels
    starts = np.arange(n_panels) * width
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * w, (n_panels, order)).ravel()
    return nodes, weights


def _discount_ratio(kernel: GKernel, t: float, tau: float, y: np.ndarray) -> np.ndarray:
    """G(T - s) / G(T - t) at s = t + tau * y^2, a stable value in (0, 1]."""
    beta = kernel.beta
    lg_t = _log_g(beta, kernel.gamma_ratio, beta * tau)
    lg_s = _log_g_array(beta, kernel.gamma_ratio, beta * (tau * (1.0 - np.square(y))))
    return np.exp(lg_s - lg_t)


def _capped_extra_nodes(model, state: TargetZoneState, kernel: GKernel, lam: float,
                        tau: float, y: np.ndarray, w: np.ndarray) -> float:
    """Extra selling rate -v1 on one panel scheme (nodes y, weights w)."""
    return model._extra_nodes(state, lam, tau, y, w, _discount_ratio(kernel, state.t, tau, y))


def v1_target_zone(kernel: GKernel, costs: CostParams, model, state: TargetZoneState) -> float:
    """Signal term v1 at a state: minus the G-discounted integral of the drift.

    The kernel is expected to be GKernel.from_costs(costs).  Capped models
    integrate the lookback theta after the s = t + w^2 substitution on fixed
    Gauss-Legendre panels; the coarse and refined passes must agree to
    relative 1e-8 (with an absolute floor tied to the at-barrier scale), else
    QuadratureError.  DeterministicDrift integrates its curve by trapezoid;
    Martingale returns exactly 0.  The result is <= 0 for capped models.
    """
    tau = model._check_state(state, kernel.horizon)
    return model._v1(kernel, costs.lam, state, tau)


def v1_curve_deterministic(model: DeterministicDrift, kernel: GKernel, lam: float,
                           grid) -> np.ndarray:
    """v1 at every grid point for a deterministic drift curve.

    Evaluates (1 / 2 lam) int_t^T G(T-s)/G(T-t) a(s) ds by composite trapezoid
    on the union of the grid and the curve's samples, via a backward recursion
    in discount ratios so that huge G values never appear.
    """
    grid = _check_grid("grid", grid, min_size=1)
    if grid[0] < 0.0 or grid[-1] > kernel.horizon * (1.0 + 1e-12):
        raise ValueError("grid must lie within [0, horizon]")
    if model.times[0] > grid[0] + 1e-12 or model.times[-1] < kernel.horizon * (1.0 - 1e-12):
        raise ValueError("drift curve does not cover [grid[0], horizon]")

    # never integrate on the caller's mesh alone: a sparse grid (or a curve
    # sampled at two points) would turn the trapezoid sum into nonsense
    min_nodes = max(2, int(math.ceil((kernel.horizon - grid[0]) / kernel.horizon * 4096)) + 1)
    refine = np.linspace(grid[0], kernel.horizon, min_nodes)
    fine = np.union1d(np.union1d(grid, refine),
                      model.times[(model.times > grid[0]) & (model.times < kernel.horizon)])
    a = np.interp(fine, model.times, model.values)
    beta = kernel.beta
    lg = _log_g_array(beta, kernel.gamma_ratio, beta * (kernel.horizon - fine))
    rho = np.exp(lg[1:] - lg[:-1])  # G(T - s_{j+1}) / G(T - s_j) <= 1
    h = np.diff(fine)

    acc = np.empty(fine.size)
    acc[-1] = 0.0
    for j in range(fine.size - 2, -1, -1):
        # int over [s_j, s_{j+1}] of G(T-s)/G(T-s_j) a(s) ds, then fold the tail in
        local = 0.5 * h[j] * (a[j] + rho[j] * a[j + 1])
        acc[j] = local + rho[j] * acc[j + 1]
    idx = np.searchsorted(fine, grid)
    return acc[idx] / (2.0 * lam)


class _CappedSignalTable:
    """Extra selling rate of a capped model, tabulated per time step.

    For each queried time t the extra rate is a function of a single scaled
    moneyness variable z; a table over the model's fixed uniform z grid is
    built with the fine Gauss-Legendre panel scheme and cached, then linearly
    interpolated (beyond the last z node the rate is 0, where it is below
    1e-30 of scale anyway).
    """

    def __init__(self, model: _CappedModel, kernel: GKernel, lam: float):
        self.model = model
        self.kernel = kernel
        self.y, self.w = _panel_nodes(_PANELS_FINE)
        self.z_grid = model._TABLE_Z
        self._build = model._table_builder(lam, self.z_grid, self.y)
        self._inv_step = (self.z_grid.size - 1) / self.z_grid[-1]
        self._tables: dict[float, np.ndarray] = {}

    def _interp(self, tab: np.ndarray, z):
        # manual linear interpolation: the z grid is uniform, so the cell
        # index is one multiply instead of a binary search per element
        pos = np.asarray(z * self._inv_step)
        idx = np.minimum(pos.astype(np.int64), self.z_grid.size - 2)
        frac = pos - idx
        return np.where(pos > self.z_grid.size - 1, 0.0,
                        tab[idx] * (1.0 - frac) + tab[idx + 1] * frac)

    def extra_values(self, t: float, p, m):
        """Extra rate -v1 at time t for price/level arrays p, m."""
        tau = self.kernel.horizon - t
        if tau <= 0.0:
            return np.zeros_like(np.asarray(p, dtype=float))
        root = self.model.sigma * math.sqrt(tau)
        tab = self._tables.get(t)
        if tab is None:
            ratio_w = _discount_ratio(self.kernel, t, tau, self.y) * self.w
            tab = self._tables[t] = self._build(tau, root, ratio_w)
        return self.model._table_lookup(lambda z: self._interp(tab, z), p, m, root)


class _DriftSignalTable:
    """Extra rate -v1(t) of a deterministic drift curve (state independent).

    The whole curve is solved once on a dense grid; lookups interpolate.
    """

    _N_NODES = 8193

    def __init__(self, model: DeterministicDrift, kernel: GKernel, lam: float):
        self.kernel = kernel
        self._grid = np.linspace(0.0, kernel.horizon, self._N_NODES)
        self._curve = -v1_curve_deterministic(model, kernel, lam, self._grid)

    def extra_values(self, t: float, p, m):
        v = float(np.interp(t, self._grid, self._curve))
        return np.broadcast_to(np.float64(v), np.asarray(p, dtype=float).shape)


class _ZeroSignalTable:
    def extra_values(self, t: float, p, m):
        return np.zeros_like(np.asarray(p, dtype=float))


def extra_rate(kernel: GKernel, costs: CostParams, model, state: TargetZoneState) -> float:
    """Cap-induced extra selling rate, -v1; >= 0 for capped models."""
    return -v1_target_zone(kernel, costs, model, state)


def full_rate(kernel: GKernel, costs: CostParams, model, state: TargetZoneState,
              x: float) -> float:
    """Total optimal selling rate urgency * x + extra_rate at a state."""
    return urgency(kernel, state.t) * x + extra_rate(kernel, costs, model, state)


@dataclass(frozen=True)
class RateSurface:
    """Selling-rate surfaces over (time to go tau, moneyness) cells.

    All matrices are indexed [i_tau, i_moneyness].  relative_increase is
    rate_extra / rate_ac, the cap-induced speedup over the signal-free rate.
    """

    taus: np.ndarray
    moneyness: np.ndarray
    rate: np.ndarray
    rate_ac: np.ndarray
    rate_extra: np.ndarray
    relative_increase: np.ndarray


def rate_surface(kernel: GKernel, costs: CostParams, model, grid_tau, grid_money,
                 x: float, bs_m=None) -> RateSurface:
    """Evaluate the optimal-rate surface of a capped model on a (tau, k) grid.

    grid_tau holds times to go (0 < tau <= horizon, strictly increasing);
    grid_money holds moneyness k = p_bar - p >= 0 (strictly increasing).  For
    CappedBlackScholes an uncapped level is required: bs_m is a scalar or one
    value per moneyness column.  The model's m0 is not used; cells are
    hypothetical states.
    """
    if not isinstance(model, _CappedModel):
        raise ValueError("rate_surface requires a capped market model")
    taus = _check_grid("taus", grid_tau, min_size=1)
    ks = _check_grid("moneyness", grid_money, min_size=1)
    if np.any(taus <= 0.0) or np.any(taus > kernel.horizon * (1.0 + 1e-12)):
        raise ValueError("taus must lie in (0, horizon]")
    if np.any(ks < 0.0):
        raise ValueError("moneyness must be >= 0")
    m_cols = model._surface_levels(bs_m, ks)

    n_t, n_k = taus.size, ks.size
    rate_ex = np.empty((n_t, n_k))
    rate_ac = np.empty((n_t, n_k))
    for i, tau in enumerate(taus):
        t = kernel.horizon - tau
        rate_ac[i] = urgency(kernel, t) * x
        for j, k in enumerate(ks):
            state = TargetZoneState(t=t, m=float(m_cols[j]), p=model.p_bar - k)
            rate_ex[i, j] = extra_rate(kernel, costs, model, state)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(rate_ac != 0.0, rate_ex / rate_ac, np.inf)
    return RateSurface(
        taus=taus,
        moneyness=ks,
        rate=rate_ac + rate_ex,
        rate_ac=rate_ac,
        rate_extra=rate_ex,
        relative_increase=rel,
    )
