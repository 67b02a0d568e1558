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
substitution s = t + tau y^2 removes it.  Each capped model states the
integrand once (_table_rows) and its scaled moneyness once (_moneyness).
One y rule integrates it for v1, for every cell of a rate surface in one
call and for the rows of the Monte Carlo table (_CappedSignalTable):
adaptive Gauss-Kronrod 7/15 panels graded towards both ends of [0, 1], with
a per-cell error estimate (_y_integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _workers
from .schedule import (CostParams, GKernel, _check_grid, _check_kernel, _check_time, _finite,
                       _finite_array, _log_g, _log_g_array, _positive, _urgencies, optimal_rate)

__all__ = [
    "CappedBachelier",
    "CappedBlackScholes",
    "DeterministicDrift",
    "Martingale",
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

# The y rule: Gauss-Kronrod 7/15 panels (Kronrod 1965; Piessens et al.,
# QUADPACK, 1983, sec. 2.2).  Abscissae on [-1, 1] from -1 up, with their
# Kronrod weights and the weights of the embedded 7-point Gauss rule, which
# uses every other abscissa; |Kronrod - Gauss| is a panel's error estimate
_GK_HALF = np.array([
    [0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0],
    [0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082],
    [0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0],
    [0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780],
    [0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0],
    [0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975],
    [0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0],
    [0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327],
])
_GK_X = np.concatenate((-_GK_HALF[:, 0], _GK_HALF[-2::-1, 0]))
_GK_W = np.concatenate((_GK_HALF[:, 1:], _GK_HALF[-2::-1, 1:])).T
# Start panels: dyadic towards y = 0, where phi(z / y) has its layer at
# small z and a steep discount confines the integrand, and towards y = 1,
# where the far field puts it: [0, 2^-8], ..., [1/4, 1/2], ..., [1 - 2^-8, 1]
_Y_EDGES = np.concatenate(([0.0], np.ldexp(1.0, np.arange(-8, 0)),
                           1.0 - np.ldexp(1.0, np.arange(-2, -9, -1)), [1.0]))
# A cell passes when its panel estimates sum to at most this fraction of its
# value, or to at most the smallest normal double for a value near underflow,
# whose subnormal digits no refinement can fix.  Failing cells bisect panels
# for at most _QUAD_ROUNDS rounds; cells down to z = 1e-8 take up to 19,
# smaller z up to 24
_QUAD_RTOL = 1e-8
_QUAD_FLOOR = np.finfo(float).tiny
_QUAD_ROUNDS = 40
# cells of a rate surface one _y_integral call takes at most (whole tau rows,
# at least one): a call holds 32 panel sums of each cell, so this bounds a
# surface's memory; the default 50 x 50 surface is one call
_SURFACE_CELLS = 4096
# integrand nodes a _table_rows thread gets at least: two threads took 0.77-0.90
# times one's time at 1.5-1.8 x 2^17 nodes in all, 0.99-1.09 at 0.9 x 2^17 (2 vCPUs,
# BLAS on one thread).  A default 50 x 50 surface's first call has 4.6 x 2^17
_SPLIT_MIN_NODES = 2**16
# How far below 0 the scaled moneyness may fall before a price is above the cap:
# engine paths exceed p_bar by rounding (~3e-15 in z), -1e-10 moves the rate ~1e-10
_Z_SLACK = 1e-10
# The level _moneyness returns for a model whose rate does not scale with the
# level; the table lookup skips its (exact) multiply by it
_UNIT_LEVEL = 1.0

# Chebyshev-Lobatto rows in root = sigma sqrt(tau): start with 9 nodes and
# double until the new nodes agree with the coarser interpolant to this
# fraction of the table's largest entry, giving up past 513 nodes
_CHEB_START = 8
_CHEB_MAX = 512
_CHEB_RTOL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when a quadrature misses its tolerance within its refinement budget.

    The y rule raises it after _QUAD_ROUNDS rounds of panel bisection (no
    in-domain state swept has needed more than 24), and the signal table
    when its rows in root do not converge on 513 Chebyshev nodes.
    """


def _norm_pdf(z, out=None):
    """The standard normal density at z, computed in out when given (out may be z)."""
    out = np.square(z, out=np.empty_like(z, dtype=float) if out is None else out)
    out *= -0.5
    np.exp(out, out=out)
    out /= _SQRT_2PI
    return out if out.ndim else out[()]


def _ndtr(x):
    """Standard normal CDF; scipy.special is imported at the first call.

    Only the Black-Scholes forms and bachelier_lookback_price need it, and
    importing it with the module would cost every liqzone process ~0.3 s.
    """
    from scipy.special import ndtr
    return ndtr(x)


def _by_panel(work, panels: int, nodes: int) -> None:
    """_workers.threads over the panels of a _table_rows call, one thread per
    _SPLIT_MIN_NODES of its integrand nodes at most."""
    _workers.threads(work, panels, _workers.count(panels, nodes, _SPLIT_MIN_NODES))


class _Model:
    """Per-model behaviour of the signal term and the Monte Carlo engine.

    The defaults fit an uncapped price started at p0 with no signal: paths
    are p0 plus sigma times Brownian sums, the capped price is the level
    itself, the expected level path _expected_levels is p0 throughout, and
    the signal curve _v1_curve is zero.  An uncapped model's v1 depends on t
    alone, so _v1 and the Monte Carlo table (_CurveSignalTable) evaluate that
    curve; capped models override both.  Subclasses override what differs.
    """

    def _expected_levels(self, grid: np.ndarray) -> np.ndarray:
        """Expected uncapped level at every point of a time grid, for an uncapped model."""
        return np.full(grid.size, self.p0)

    def _to_levels(self, m: np.ndarray, grid: np.ndarray) -> None:
        """Turn scaled Brownian sums m (time-major, in place) into uncapped levels."""
        m += self.p0

    def _cap_rows(self, m: np.ndarray, run: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Capped prices of rows of time-major levels m that follow, in step order,
        the rows whose running max run holds; run is carried forward in place.

        A capped model writes the prices into out (shaped like m) and returns
        it; here the levels are the prices, and m itself is returned.
        """
        return m

    def _cap(self, m: np.ndarray) -> np.ndarray:
        """Capped prices of time-major levels m: _cap_rows over every row."""
        return self._cap_rows(m, np.array(m[0]), np.empty_like(m))

    def _check_state(self, state: TargetZoneState, horizon: float) -> float:
        """Validate a state against the model; returns the time to go."""
        t = _check_time("state.t", state.t, horizon, closed=False)
        _finite("state.m", state.m)
        _finite("state.p", state.p)
        return horizon - t

    def _v1_curve(self, kernel: GKernel, lam: float, grid: np.ndarray) -> np.ndarray:
        """v1 at every point of a time grid, for a model whose v1 depends on t alone."""
        return np.zeros(np.asarray(grid).size)

    def _v1(self, kernel: GKernel, lam: float, state: TargetZoneState, tau: float) -> float:
        return float(self._v1_curve(kernel, lam, np.array([state.t]))[0])

    def _signal_table(self, kernel: GKernel, lam: float):
        """The extra rate -v1 as seen by the Monte Carlo policy, per time step."""
        return _CurveSignalTable(self, kernel, lam)

    def _surface_levels(self, bs_m, ks: np.ndarray) -> np.ndarray:
        """Uncapped level of each moneyness column of a rate surface."""
        raise ValueError("rate_surface requires a capped market model")


@dataclass(frozen=True)
class _CappedModel(_Model):
    """A background price started at m0 and pushed under p_bar by its running max.

    The rate is root * level times an integral over y in [0, 1] of a theta
    integrand in the scaled moneyness z (_y_integral).  Subclasses supply
    (z, level) from price and level (_moneyness), the integrand's sums
    (_table_rows: from nodes y of shape (panels, 15), weights of shape
    (panels, roots, 2, 15) and z of shape (1, z), one row shared by every
    root, or (roots, z), a row per root, the Kronrod and Gauss sums of each
    panel, root and z, shape (2, panels, roots, z), one (roots, 15, z) block
    of the integrand per panel), the table's z grid (_TABLE_Z) and the
    surface's uncapped levels (_surface_levels).

    _table_rows splits its panels over threads (_by_panel): a panel's ufunc
    and BLAS calls release the GIL, and its sums are the same operations on
    the same operands in any thread, so results do not depend on the split.
    """

    m0: float
    sigma: float
    p_bar: float

    def __post_init__(self):
        _finite("m0", self.m0)
        _positive("sigma", self.sigma)
        _finite("p_bar", self.p_bar)
        if self.p_bar < self.m0:
            raise ValueError(f"p_bar must be >= m0, got p_bar={self.p_bar!r} < m0={self.m0!r}")

    def _to_levels(self, m, grid):
        m += self.m0

    def _cap_rows(self, m, run, out):
        # the running max row by row into out, then the push-down
        # max(run - p_bar, 0) and the price for all the rows at once
        prev = run
        for i in range(m.shape[0]):
            prev = np.maximum(prev, m[i], out=out[i])
        run[:] = prev
        out -= self.p_bar
        np.maximum(out, 0.0, out=out)
        return np.subtract(m, out, out=out)

    def _check_state(self, state, horizon):
        tau = super()._check_state(state, horizon)
        if not state.p <= min(self.p_bar, state.m):
            raise ValueError(f"state.p must not exceed p_bar = {self.p_bar!r} or state.m = "
                             f"{state.m!r}, got {state.p!r}")
        return tau

    def _v1(self, kernel, lam, state, tau):
        return -float(self._extra(kernel, lam, np.array([tau]), np.array([state.p]),
                                  np.array([state.m]))[0][0, 0])

    def _extra(self, kernel: GKernel, lam: float, taus: np.ndarray, p: np.ndarray,
               m: np.ndarray):
        """Extra rate -v1 and its error estimate at the cells (taus[i], p[j], m[j]),
        shape (taus.size, p.size): _y_integral calls with a z row per tau, on
        whole tau rows of at most _SURFACE_CELLS cells (at least one row)."""
        roots = self.sigma * np.sqrt(taus)[:, None]
        z, level = self._moneyness(p, m, roots)
        value, err = np.empty(z.shape), np.empty(z.shape)
        chunk = max(1, _SURFACE_CELLS // z.shape[1])
        for lo in range(0, taus.size, chunk):
            rows = slice(lo, lo + chunk)
            value[rows], err[rows] = self._y_integral(kernel, lam, taus[rows], z[rows], p)
        return roots * level * value, roots * level * err

    def _y_integral(self, kernel: GKernel, lam: float, taus: np.ndarray, z: np.ndarray,
                    p=None):
        """The rate over root * level at the cells (taus[i], z[j]), or (taus[i], z[i, j])
        when z has a row per tau, and its error estimate.

        Every cell starts on the same 16 panels (_Y_EDGES), all in one
        _table_rows call.  Its value is the sum of the panels' Kronrod sums,
        its estimate the sum of the panels' |Kronrod - Gauss|, plus, on the
        panel [0, h] while z < h, twice the share of the phi(z / y) layer
        that its nodes may not see.  Rows sharing a z row refine as one
        group, a row with its own z row alone: while a cell's estimate
        exceeds _QUAD_RTOL of its value, every panel of its group on which a
        failing cell's estimate exceeds an equal share of that tolerance is
        bisected, and only the new halves are evaluated, for the rows and
        columns that hold a failing cell.  A cell keeps the value and
        estimate with which it first passes.  After _QUAD_ROUNDS rounds,
        QuadratureError names the first failing cell of the first failing
        group by tau and p (scaled moneyness z when p is not given).
        """
        roots = self.sigma * np.sqrt(taus)
        z = np.atleast_2d(z)
        own = z.shape[0] > 1  # one z row per tau

        def panel_sums(lo, hi, rows, cols):
            half = 0.5 * (hi - lo)
            y = (lo + half)[:, None] + half[:, None] * _GK_X
            ratio = _discount_ratio(kernel, taus[rows], y)
            w = ratio[:, :, None, :] * (half[:, None, None] * _GK_W)[:, None]
            z_cols = (z[rows] if own else z)[:, cols]
            sums = self._table_rows(lam, z_cols, y, roots[rows], w)
            sums[1] = np.abs(sums[0] - sums[1])
            if lo[0] == 0.0:
                # phi(z / y) falls from phi(0) to 0 on y < ~z, which takes
                # about sqrt(pi / 2) z times the mean off the panel [0, h].
                # While z < h the nodes need not see that, so count twice
                # it: a bound for z << h, and more than the panel near z ~ h,
                # which then splits until the layer lies outside it
                hidden = np.where(z_cols < hi[0], z_cols, 0.0)
                sums[1, 0] += (_SQRT_2PI / hi[0]) * hidden * np.abs(sums[0, 0])
            return sums

        def failing(value, err):
            tol = np.maximum(_QUAD_RTOL * np.abs(value), _QUAD_FLOOR)
            return tol, ~(err <= tol)

        def refine(group, sums, value, err):
            lo, hi = _Y_EDGES[:-1], _Y_EDGES[1:]
            for rounds in range(_QUAD_ROUNDS + 1):
                tol, fail = failing(value, err)
                if not fail.any():
                    return value, err
                if rounds == _QUAD_ROUNDS:
                    break
                split = np.flatnonzero((sums[1][:, fail] > tol[fail] / lo.size).any(axis=1))
                rows, cols = np.flatnonzero(fail.any(axis=1)), np.flatnonzero(fail.any(axis=0))
                # the left halves replace their panels, the right halves are appended
                new = np.concatenate((split, lo.size + np.arange(split.size)))
                mid = 0.5 * (lo[split] + hi[split])
                lo, hi = np.concatenate((lo, mid)), np.concatenate((hi, hi[split]))
                hi[split] = mid
                sums = np.concatenate((sums, np.zeros((2, split.size) + sums.shape[2:])), axis=1)
                sums[:, new[:, None, None], rows[:, None], cols] = panel_sums(
                    lo[new], hi[new], group[rows], cols)
                value, err = np.where(fail, sums.sum(axis=1), (value, err))
            i, j = np.argwhere(fail)[0]
            cell = (f"z={float(z[group[i] if own else 0, j])!r}" if p is None else
                    f"p={float(p[j])!r} (moneyness {float(self.p_bar - p[j])!r})")
            raise QuadratureError(
                f"y quadrature did not converge in {_QUAD_ROUNDS} rounds at "
                f"tau={float(taus[group[i]])!r}, {cell}: value={float(value[i, j])!r} "
                f"(err={err[i, j]:.3e}, tol={tol[i, j]:.3e})")

        sums = panel_sums(_Y_EDGES[:-1], _Y_EDGES[1:], slice(None), slice(None))
        value, err = sums.sum(axis=1)
        groups = ([slice(i, i + 1) for i in np.flatnonzero(failing(value, err)[1].any(axis=1))]
                  if own else [slice(None)])
        for g in groups:
            value[g], err[g] = refine(np.arange(taus.size)[g], sums[:, :, g], value[g], err[g])
        return value, err

    def _in_zone(self, z: np.ndarray, p) -> np.ndarray:
        """z, once every price p is finite and at most p_bar up to rounding."""
        if z.size and not (np.minimum.reduce(z, axis=None) >= -_Z_SLACK
                           and np.maximum.reduce(z, axis=None) < math.inf):
            bad = np.broadcast_to(p, z.shape)[~((z >= -_Z_SLACK) & (z < math.inf))]
            raise ValueError(f"p must be finite and at most p_bar = {self.p_bar!r}, got {float(bad[0])!r}")
        return z

    def _signal_table(self, kernel, lam):
        return _CappedSignalTable(self, kernel, lam)


@dataclass(frozen=True)
class CappedBachelier(_CappedModel):
    """Arithmetic Brownian background price capped at p_bar (p_bar >= m0)."""

    # the signal table's z grid; beyond z = 13 the rate is below 1e-30 of scale
    _TABLE_Z = np.linspace(0.0, 13.0, 1301)

    def _moneyness(self, p, m, root):
        p = np.asarray(p, dtype=float)
        return self._in_zone((self.p_bar - p) / root, p), _UNIT_LEVEL

    def _table_rows(self, lam, z, y, roots, w):
        # extra / root: the integrand does not depend on the root, so per
        # panel one GEMM (2 roots x 15) @ (15 x z) for a shared z row, else
        # one (2 x 15) @ (15 x z) per root; the panels split over threads
        sums = np.empty(w.shape[:3] + z.shape[1:])

        def work(lo, hi):
            for k in range(lo, hi):
                pdf = z[:, None, :] / y[k][:, None]
                _norm_pdf(pdf, out=pdf)
                np.matmul(w[k].reshape(z.shape[0], -1, y.shape[1]), pdf,
                          out=sums[k].reshape(z.shape[0], -1, z.shape[1]))
                sums[k] /= lam
                yield

        _by_panel(work, y.shape[0], y.size * z.size)
        return sums.transpose(2, 0, 1, 3)

    def _surface_levels(self, bs_m, ks):
        return np.full(ks.shape, self.p_bar)


@dataclass(frozen=True)
class CappedBlackScholes(_CappedModel):
    """Geometric Brownian background price capped at p_bar (p_bar >= m0 > 0)."""

    _TABLE_Z = np.linspace(0.0, 16.0, 1601)

    def __post_init__(self):
        super().__post_init__()
        _positive("m0", self.m0)

    def _to_levels(self, m, grid):
        # exact in log space
        m -= 0.5 * self.sigma * self.sigma * grid[:, None]
        np.exp(m, out=m)
        m *= self.m0

    def _moneyness(self, p, m, root):
        m = np.asarray(m, dtype=float)
        if m.size and not np.minimum.reduce(m, axis=None) > 0.0:
            raise ValueError(f"m must be strictly positive, got {float(m[~(m > 0.0)][0])!r}")
        p = np.asarray(p, dtype=float)
        return self._in_zone(np.log1p((self.p_bar - p) / m) / root, p), m

    def _table_rows(self, lam, z, y, roots, w):
        # extra / (root m) with f = root y / 2 - z / y, for every root of a
        # panel at once; one (2 x 15) @ (15 x z) GEMM per root and sum.  The
        # panels split over threads (ndtr imported first), each with its own
        # f and Phi; Phi is taken first, so the density can overwrite f
        from scipy.special import ndtr
        sums = np.empty(w.shape[:3] + z.shape[1:])
        half_roots = (0.5 * roots)[:, None, None]

        def work(lo, hi):
            f, phi = (np.empty((roots.size,) + y.shape[1:] + z.shape[1:]) for _ in range(2))
            for k in range(lo, hi):
                y_k = y[k][:, None]
                np.subtract(half_roots * y_k, z[:, None, :] / y_k, out=f)
                ndtr(f, out=phi)
                sums[k] = (2.0 * (w[k] @ _norm_pdf(f, out=f))
                           + roots[:, None, None] * ((w[k] * y[k]) @ phi))
                sums[k] /= 2.0 * lam
                yield

        _by_panel(work, y.shape[0], y.size * roots.size * z.shape[1])
        return sums.transpose(2, 0, 1, 3)

    def _surface_levels(self, bs_m, ks):
        if bs_m is None:
            raise ValueError("bs_m is required for a Black-Scholes surface")
        m_cols = np.broadcast_to(_finite_array("bs_m", bs_m), ks.shape).astype(float)
        if np.any(m_cols < self.p_bar - ks):
            raise ValueError("bs_m must be >= the capped price p_bar - moneyness in every column")
        return m_cols


@dataclass(frozen=True)
class DeterministicDrift(_Model):
    """Price with a known deterministic drift curve a(t) and no noise.

    times/values sample a piecewise-linear a(t), which must cover the interval
    it is integrated over; v1 is in closed form (v1_curve_deterministic).
    """

    times: np.ndarray
    values: np.ndarray
    p0: float
    sigma = 0.0  # not a field: no noise, every path is the expected path

    def __post_init__(self):
        times = _check_grid("times", self.times)
        values = _finite_array("values", self.values)
        if times.shape != values.shape:
            raise ValueError("values must match the shape of times")
        _finite("p0", self.p0)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def _check_covers(self, start: float, horizon: float) -> None:
        """ValueError unless the curve's samples span [start, horizon]; np.interp
        would extend it as a constant."""
        if self.times[0] > start + 1e-12 or self.times[-1] < horizon * (1.0 - 1e-12):
            raise ValueError("model.times must cover [grid[0], horizon]")

    def _expected_levels(self, grid):
        """p0 plus the integral of a from grid[0], exact on each linear piece: the
        sums up to the knots inside the grid, then each point's part of its piece."""
        self._check_covers(grid[0], grid[-1])  # every grid here ends at the horizon
        s = np.union1d(self.times[(self.times > grid[0]) & (self.times < grid[-1])], grid[:1])
        a_s = np.interp(s, self.times, self.values)
        at_knots = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(s) * (a_s[:-1] + a_s[1:]))))
        j = np.searchsorted(s, grid, side="right") - 1
        a = np.interp(grid, self.times, self.values)
        return self.p0 + at_knots[j] + 0.5 * (grid - s[j]) * (a_s[j] + a)

    def _v1_curve(self, kernel, lam, grid):
        return v1_curve_deterministic(self, kernel, lam, grid)


@dataclass(frozen=True)
class Martingale(_Model):
    """Driftless price; sigma = 0 gives a constant price (useful as an exact case)."""

    p0: float
    sigma: float = 0.0

    def __post_init__(self):
        _finite("p0", self.p0)
        _finite_array("sigma", self.sigma, 0.0)


@dataclass(frozen=True)
class TargetZoneState:
    """Market state at time t: uncapped level m and capped price p (p <= m).

    A plain record: the functions that read it check its fields against the
    horizon and the model (_check_state).
    """

    t: float
    m: float
    p: float


def bachelier_theta(u, moneyness, sigma):
    """Maturity derivative of a Bachelier fixed-strike lookback call.

    theta(u) = sigma / sqrt(u) * phi(moneyness / (sigma sqrt(u))) for maturity
    u > 0 and strike-minus-spot distance moneyness >= 0.  Vectorized in u and
    moneyness.
    """
    u = _finite_array("u", u, 0.0, strict=True)
    k = _finite_array("moneyness", moneyness, 0.0)
    _positive("sigma", sigma)
    root = sigma * np.sqrt(u)
    out = sigma / np.sqrt(u) * _norm_pdf(k / root)
    return out if out.ndim else float(out)


def bachelier_lookback_price(u, moneyness, sigma):
    """Fixed-strike lookback call on arithmetic Brownian motion, strike above spot.

    E[(max_{[0,u]} M - K)^+] with K - M_0 = moneyness >= 0, by the running-
    maximum reflection law P(max > y) = 2 Phi(-y / (sigma sqrt(u))):

        price = 2 sigma sqrt(u) phi(a) - 2 k Phi(-a),  a = k / (sigma sqrt(u)).

    Differentiating in u recovers bachelier_theta.  u = 0 returns 0.
    """
    u = _finite_array("u", u, 0.0)
    k = _finite_array("moneyness", moneyness, 0.0)
    _positive("sigma", sigma)
    s = sigma * np.sqrt(u)
    a = np.where(s > 0.0, k / np.where(s > 0.0, s, 1.0), np.inf)
    out = np.where(s > 0.0, 2.0 * s * _norm_pdf(a) - 2.0 * k * _ndtr(-a), 0.0)
    return out if out.ndim else float(out)


def extra_rate_small_beta(tau, moneyness, sigma, lam):
    """Vanishing-inventory-penalty limit of the cap-induced selling rate.

    With gamma = big_gamma -> 0 the G-discounting drops out and the extra rate
    becomes half the remaining lookback value per unit impact cost:
    bachelier_lookback_price(tau, moneyness, sigma) / (2 lam).
    """
    _finite_array("tau", tau, 0.0)
    _positive("lam", lam)
    return bachelier_lookback_price(tau, moneyness, sigma) / (2.0 * lam)


def bs_f(u, m, p, sigma, p_bar):
    """Standardized log-moneyness entering the Black-Scholes lookback theta.

    f(u, m, p) = sigma sqrt(u) / 2 - log1p((p_bar - p) / m) / (sigma sqrt(u)).
    Always <= sigma sqrt(u) / 2; equality at the barrier p = p_bar.
    """
    u = _finite_array("u", u, 0.0, strict=True)
    m = _finite_array("m", m, 0.0, strict=True)
    p_bar = _finite("p_bar", p_bar)
    money = p_bar - _finite_array("p", p)
    if not np.all(money >= 0.0):
        raise ValueError(f"p must not exceed p_bar = {p_bar!r}")
    _positive("sigma", sigma)
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
    out = np.asarray(m, dtype=float) * (sigma / root_u * _norm_pdf(f) + 0.5 * sigma * sigma * _ndtr(f))
    return out if out.ndim else float(out)


def _discount_ratio(kernel: GKernel, taus: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(T - s) / G(T - t) at s = t + tau * y^2, a stable value in (0, 1], for every
    tau of taus and node of y (panels, 15): shape (panels, taus.size, 15)."""
    beta = kernel.beta
    # G(tau) on the scalar _log_g: np.log need not round as math.log does
    lg_t = np.array([_log_g(beta, kernel.gamma_ratio, beta * tau) for tau in taus])
    lg_s = _log_g_array(beta, kernel.gamma_ratio,
                        beta * (taus[:, None] * (1.0 - np.square(y))[:, None]))
    return np.exp(lg_s - lg_t[:, None])


def v1_target_zone(kernel: GKernel, costs: CostParams, model, state: TargetZoneState) -> float:
    """Signal term v1 at a state: minus the G-discounted integral of the drift.

    The kernel must be GKernel.from_costs(costs), else ValueError.  Capped models
    integrate the lookback theta after the s = t + tau y^2 substitution on
    adaptive Gauss-Kronrod panels until the error estimate is within
    relative 1e-8, else QuadratureError.  DeterministicDrift's v1 is in closed
    form (v1_curve_deterministic, within 1e-15 of its largest |v1| up to beta T
    = 1000); Martingale returns exactly 0.  The result is <= 0 for capped models.
    """
    _check_kernel(kernel, costs)
    tau = model._check_state(state, kernel.horizon)
    return model._v1(kernel, costs.lam, state, tau)


def v1_curve_deterministic(model: DeterministicDrift, kernel: GKernel, lam: float,
                           grid) -> np.ndarray:
    """v1 at every grid point for a deterministic drift curve, in closed form.

    With G(x) = A e^{bx} + B e^{-bx} (b = beta, A = (b + g) / 2, B = (b - g) / 2),
    v1(t) = (A I1 + B e^{-b tau} I2) / (2 lam (A + B e^{-2b tau})) at tau = T - t,
    where I1 = int_t^T e^{-b(s-t)} a(s) ds and I2 = int_t^T e^{-b(T-s)} a(s) ds
    are elementary on each linear piece of a, and no exponential exceeds 1.  A
    point's value does not depend on the rest of the grid; v1(T) = 0.  Against
    50-digit mpmath: within 5e-16 of the largest |v1| for one- to three-piece
    drifts at gamma = big_gamma = 1e-5 and 1 (lam = 0.1) and at beta T = 1000;
    1.8e-13 at big_gamma / (lam beta) = 1e3, where rounding grows with it.
    """
    _positive("lam", lam)
    grid = _check_grid("grid", grid, min_size=1)
    if grid[0] < 0.0 or grid[-1] > kernel.horizon * (1.0 + 1e-12):
        raise ValueError("grid must lie within [0, horizon]")
    model._check_covers(grid[0], kernel.horizon)
    b, g, horizon = kernel.beta, kernel.gamma_ratio, kernel.horizon
    s = np.union1d(model.times[(model.times > 0.0) & (model.times < horizon)], [0.0, horizon])
    a = np.interp(s, model.times, model.values)
    slope = np.diff(a) / np.diff(s)

    def rest(ell, j):  # 2 A I1 + 2 B e^{-b tau} I2 over the last ell of the piece ending at s_j
        x = b * ell
        e0 = -np.expm1(-x) / b
        e1 = np.where(x < 0.1, ell * ell * np.polyval(_E1_SERIES, x), (e0 - ell * np.exp(-x)) / b)
        m = slope[j - 1]
        # I2's e^{-b(T - s)} is e^{-b(T - s_j)} e^{-bw} at s = s_j - w, and tau = T - s_j + ell
        return ((b + g) * ((a[j] - m * ell) * e0 + m * e1)
                + (b - g) * np.exp(b * (2.0 * (s[j] - horizon) - ell)) * (a[j] * e0 - m * e1))

    # the same over [s_j, T] at each knot, in one backward pass
    step, w = rest(np.diff(s), np.arange(1, s.size)), np.zeros(s.size)
    for j in range(s.size - 2, -1, -1):
        w[j] = step[j] + math.exp(b * (s[j] - s[j + 1])) * w[j + 1]
    # at each point, the rest of its piece and the knot that ends it (t = T: ell = 0)
    j = np.minimum(np.searchsorted(s, grid, side="right"), s.size - 1)
    ell = s[j] - grid
    x = b * (horizon - grid)
    # 2 e^{-b tau} G(tau) = (b + g) + (b - g) e^{-2 b tau}, without cancellation
    d = b * (1.0 + np.exp(-2.0 * x)) - g * np.expm1(-2.0 * x)
    return (rest(ell, j) + np.exp(-b * ell) * w[j]) / (2.0 * lam * d)


# int_0^L u e^{-bu} du / L^2 = sum_k (-bL)^k / (k! (k + 2)), to 5e-18 below bL = 0.1,
# where its direct form (E0(L) - L e^{-bL}) / b cancels; np.polyval's order, k = 9 first
_E1_SERIES = [(-1) ** k / math.factorial(k) / (k + 2) for k in range(9, -1, -1)]


def _barycentric(nodes: np.ndarray, weights: np.ndarray, at) -> np.ndarray:
    """Weights L with L @ values = the interpolant through (nodes, values) at points at.

    Barycentric formula of the second kind (Berrut & Trefethen, SIAM Review
    46(3), 2004); at (a scalar or a 1-D array) must not hit a node.
    """
    c = weights / (np.asarray(at, dtype=float)[..., None] - nodes)
    return c / c.sum(axis=-1, keepdims=True)


def _lobatto_weights(n: int) -> np.ndarray:
    """Barycentric weights of the n + 1 Chebyshev-Lobatto nodes: (-1)^k, halved at the ends."""
    weights = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    return weights


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """even[0], odd[0], even[1], ..., odd[-1], even[-1] along the first axis."""
    out = np.empty((even.shape[0] + odd.shape[0],) + even.shape[1:])
    out[0::2], out[1::2] = even, odd
    return out


def _per_step(values: np.ndarray, ndim: int) -> np.ndarray:
    """values, one per step, shaped to broadcast along the first axis of an
    ndim-dimensional (steps, ...) block."""
    return values.reshape((-1,) + (1,) * (ndim - 1))


class _SignalTable:
    """A table of -v1 for the Monte Carlo engine: step_rows, block_values and
    extra_values, the one-step query of the two."""

    def extra_values(self, t: float, p, m):
        """Extra rate -v1 at time t in [0, horizon] for price/level arrays p, m,
        shaped like p; zero at t = horizon."""
        tau = self.kernel.horizon - _check_time("t", t, self.kernel.horizon)
        p = np.asarray(p, dtype=float)
        if tau == 0.0:
            return np.zeros_like(p)
        return self.block_values(self.step_rows([t]), slice(None), p[None],
                                 np.asarray(m, dtype=float)[None])[0]


class _CappedSignalTable(_SignalTable):
    """Extra selling rate of a capped model as one table in (root, z).

    The rate over root * level depends on the state only through the scaled
    moneyness z (_moneyness) and on t only through root = sigma sqrt(T - t).
    The table holds it (the y rule of _y_integral, 240 Gauss-Kronrod nodes
    and more where a cell needs them; its worst error estimate is kept in
    quad_error) on the model's z grid, one row per Chebyshev-Lobatto
    node in root on [0, sigma sqrt(T)]: from 9 nodes the set doubles until the
    new rows agree with the coarser interpolant to 1e-6 of the table's max,
    else QuadratureError past 513 nodes.  It is built on the first query and
    does not grow with the number of times queried.  A query is in two
    parts.  step_rows forms the table in z at each step time, scaled by its
    root: the row of the root when the root is a node (t = 0), else the
    barycentric interpolant in root (one GEMV per step).
    The Monte Carlo engine forms these once per call and holds them itself.
    block_values then interpolates a block of steps at once, each step's
    prices in its own row, linearly in z on the uniform grid: the cell index
    is one multiply, clamped to the last cell before the cast to int, both
    cell ends a and b are gathered with take from the flat rows, a (1 -
    frac) + b frac is computed in place, and z beyond the last node gives 0
    (the rate there is below 1e-30 of scale).  The linear z step sets the
    rate error: below 1e-4 relative up to beta T ~ 3 (1.3e-5 at small costs,
    8.1e-5 at beta T = 3.2), growing about in proportion to beta T beyond
    (7.9e-4 at beta T = 32), worst just off the barrier.  The level multiply
    is skipped for a model whose rate is per unit level.  Two cheaper forms
    round differently and are not used: a + slope frac, and a zero pad node
    past the grid, which gives a (1 - frac) != 0 between the last node and
    the pad.
    """

    def __init__(self, model: _CappedModel, kernel: GKernel, lam: float):
        self.model = model
        self.kernel = kernel
        self.lam = lam
        self.z_grid = model._TABLE_Z
        self._inv_step = (self.z_grid.size - 1) / self.z_grid[-1]
        self.roots = None      # Chebyshev-Lobatto nodes in root, ascending
        self.weights = None    # their barycentric weights
        self.rows = None       # (roots.size, z_grid.size)
        self.quad_error = 0.0  # largest y-quadrature estimate over the rows built

    def _rows_at(self, roots: np.ndarray) -> np.ndarray:
        """Table rows at the given roots; keeps the worst error estimate in quad_error."""
        taus = np.square(roots / self.model.sigma)
        rows, err = self.model._y_integral(self.kernel, self.lam, taus, self.z_grid)
        self.quad_error = max(self.quad_error, float(np.max(err)))
        return rows

    def _build(self) -> None:
        top = self.model.sigma * math.sqrt(self.kernel.horizon)
        n = _CHEB_START
        # root_k = top (1 - cos(pi k / n)) / 2, written to be exact near 0
        roots = top * np.square(np.sin(0.5 * np.pi * np.arange(n + 1) / n))
        rows = self._rows_at(roots)
        while n < _CHEB_MAX:
            new = top * np.square(np.sin(0.5 * np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
            new_rows = self._rows_at(new)
            guess = _barycentric(roots, _lobatto_weights(n), new) @ rows
            n *= 2
            roots, rows = _interleave(roots, new), _interleave(rows, new_rows)
            if np.max(np.abs(new_rows - guess)) <= _CHEB_RTOL * np.max(np.abs(rows)):
                self.roots, self.weights, self.rows = roots, _lobatto_weights(n), rows
                return
        raise QuadratureError(f"signal table in root did not converge with {n + 1} "
                              f"Chebyshev nodes")

    def _interp(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Each row of rows (steps, z_grid.size) interpolated linearly at its row of z.

        The z grid is uniform, so the cell index is one multiply instead of
        a binary search per element; both cell ends are gathered from the
        flat rows, the cell index offset by its row's start.
        """
        last = self.z_grid.size - 1
        pos = z * self._inv_step
        # clamp before the cast: a far-field z must not overflow the index
        cell = np.trunc(np.minimum(pos, last - 1))
        frac = pos - cell
        cell += _per_step(np.arange(0.0, rows.size, rows.shape[1]), z.ndim)
        idx = cell.astype(np.intp)
        flat = rows.ravel()
        out = flat.take(idx)
        right = flat[1:].take(idx)
        right *= frac
        np.subtract(1.0, frac, out=frac)
        out *= frac
        out += right
        if pos.max(initial=last) > last:
            np.putmask(out, pos > last, 0.0)
        return out

    def step_rows(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(roots, rows) at step times in [0, horizon): row i is the table in z at
        times[i], scaled by its root.

        The times, roots, node hits and barycentric weights are checked and
        formed for all steps at once; a row is the root's node row when the
        root is a node, else one barycentric GEMV, as a single query forms
        it.  The caller holds them (len(times) x z_grid.size) for block_values.
        """
        if self.rows is None:
            self._build()
        horizon = self.kernel.horizon
        times = np.asarray(times, dtype=float)
        for t in times[~((times >= 0.0) & (times < horizon))][:1]:
            _check_time("t", t, horizon, closed=False)  # raises, naming the first
        roots = self.model.sigma * np.sqrt(horizon - times)
        node = np.minimum(np.searchsorted(self.roots, roots), self.roots.size - 1)
        hit = self.roots[node] == roots
        rows = np.empty((times.size, self.z_grid.size))
        rows[hit] = self.rows[node[hit]]
        off = np.flatnonzero(~hit)
        for i, weights in zip(off, _barycentric(self.roots, self.weights, roots[off])):
            np.matmul(weights, self.rows, out=rows[i])
        rows *= roots[:, None]
        return roots, rows

    def block_values(self, step_rows, steps: slice, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Extra rate -v1 at the steps of step_rows in steps, for prices and levels
        p, m whose first axis runs over those steps."""
        roots, rows = step_rows
        z, level = self.model._moneyness(p, m, _per_step(roots[steps], p.ndim))
        out = self._interp(rows[steps], z)
        return out if level is _UNIT_LEVEL else out * level


class _CurveSignalTable(_SignalTable):
    """Extra rate -v1(t) of a model whose v1 depends on t alone (state independent).

    step_rows evaluates the model's curve (_v1_curve: DeterministicDrift's
    closed form, no table error) at the step times, block_values broadcasts
    each step's value over the paths; a curve short of [0, T] is rejected here.
    """

    def __init__(self, model: _Model, kernel: GKernel, lam: float):
        self.model, self.kernel, self.lam = model, kernel, lam
        model._v1_curve(kernel, lam, np.zeros(1))  # a curve short of [0, T] raises now

    def step_rows(self, times) -> np.ndarray:
        """The extra rate at each step time in [0, horizon]."""
        horizon = self.kernel.horizon
        times = np.asarray(times, dtype=float)
        for t in times[~((times >= 0.0) & (times <= horizon))][:1]:
            _check_time("t", t, horizon)  # raises, naming the first
        return -self.model._v1_curve(self.kernel, self.lam, times)

    def block_values(self, step_rows, steps: slice, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The extra rate at the steps in steps, broadcast over p's paths."""
        return np.broadcast_to(_per_step(step_rows[steps], p.ndim), p.shape)


def extra_rate(kernel: GKernel, costs: CostParams, model, state: TargetZoneState) -> float:
    """Cap-induced extra selling rate, -v1; >= 0 for capped models."""
    return -v1_target_zone(kernel, costs, model, state)


def full_rate(kernel: GKernel, costs: CostParams, model, state: TargetZoneState,
              x: float) -> float:
    """Total optimal selling rate urgency * x + extra_rate at a state."""
    return optimal_rate(kernel, state.t, x, v1_target_zone(kernel, costs, model, state))


@dataclass(frozen=True)
class RateSurface:
    """Selling-rate surfaces over (time to go tau, moneyness) cells.

    All matrices are indexed [i_tau, i_moneyness].  relative_increase is
    rate_extra / rate_ac, the cap-induced speedup over the signal-free rate.
    quad_error is the y rule's error estimate of each rate_extra cell, at
    most 1e-8 of the cell (or the smallest normal double, near underflow).
    """

    taus: np.ndarray
    moneyness: np.ndarray
    rate: np.ndarray
    rate_ac: np.ndarray
    rate_extra: np.ndarray
    relative_increase: np.ndarray
    quad_error: np.ndarray


def rate_surface(kernel: GKernel, costs: CostParams, model, grid_tau, grid_money,
                 x: float, bs_m=None) -> RateSurface:
    """Evaluate the optimal-rate surface of a capped model on a (tau, k) grid.

    grid_tau holds times to go (0 < tau <= horizon, strictly increasing);
    grid_money holds moneyness k = p_bar - p >= 0 (strictly increasing).  For
    CappedBlackScholes an uncapped level is required: bs_m is a scalar or one
    value per moneyness column.  The model's m0 is not used; cells are
    hypothetical states.  The kernel must be GKernel.from_costs(costs).
    """
    _check_kernel(kernel, costs)
    taus = _check_grid("grid_tau", grid_tau, min_size=1)
    if not (taus[0] > 0.0 and taus[-1] <= kernel.horizon):
        raise ValueError(f"grid_tau must lie in (0, horizon = {kernel.horizon!r}]")
    ks = _finite_array("grid_money", _check_grid("grid_money", grid_money, min_size=1), 0.0)
    _finite("x", x)
    m_cols = model._surface_levels(bs_m, ks)
    rate_ex, quad_err = model._extra(kernel, costs.lam, taus, model.p_bar - ks, m_cols)
    rate_ac = np.repeat([[a * x] for a in _urgencies(kernel, kernel.horizon - taus)], ks.size, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(rate_ac != 0.0, rate_ex / rate_ac, np.inf)
    return RateSurface(
        taus=taus,
        moneyness=ks,
        rate=rate_ac + rate_ex,
        rate_ac=rate_ac,
        rate_extra=rate_ex,
        relative_increase=rel,
        quad_error=quad_err,
    )
