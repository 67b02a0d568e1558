"""Output checks.  Each returns a list of problems; an empty list is a pass.

The checks run outside the timed region.  The surface spot check integrates
the lookback theta with scipy.integrate.quad, written here from the closed
forms, independently of the library's Gauss-Legendre panels.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

SURFACE_REL_TOL = 1e-8
BARRIER_RATIO = (1e3, 1e5)
SIMULATE_MIN_SE = 5.0


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=object)


def surface_from_csv(path: str, n_tau: int, n_money: int) -> dict:
    header, rows = read_csv(path)
    data = rows.astype(float).reshape(n_tau, n_money, len(header))
    return {name: data[:, :, i] for i, name in enumerate(header)}


def check_surface(surf: dict, cfg, small_costs: bool, rng) -> list[str]:
    """surf maps tau, moneyness, rate_extra, relative_increase to (n_tau, n_money) arrays."""
    problems = []
    extra = surf["rate_extra"]
    for name, arr in surf.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"non-finite {name}")
    if np.any(extra < 0.0):
        problems.append("negative rate_extra")
    if extra.shape[1] > 1 and not np.all(np.diff(extra, axis=1) < 0.0):
        problems.append("rate_extra not strictly decreasing in moneyness")
    if small_costs:
        ratio = surf["relative_increase"][-1, 0]
        if not BARRIER_RATIO[0] <= ratio <= BARRIER_RATIO[1]:
            problems.append(f"at-barrier ratio {ratio:.4g} outside {BARRIER_RATIO}")
    # spot cells: the at-barrier cell at the longest horizon and two drawn cells
    n_tau, n_money = extra.shape
    cells = [(n_tau - 1, 0)] + [(int(rng.integers(n_tau)), int(rng.integers(n_money)))
                                for _ in range(2)]
    for i, j in cells:
        tau, k = float(surf["tau"][i, j]), float(surf["moneyness"][i, j])
        ref = reference_extra_rate(cfg, tau, k)
        if abs(extra[i, j] - ref) > SURFACE_REL_TOL * abs(ref):
            problems.append(f"cell tau={tau:.6g} k={k:.6g}: {extra[i, j]!r} vs quad {ref!r}")
    return problems


def reference_extra_rate(cfg, tau: float, k: float) -> float:
    """(1 / 2 lam) int_0^tau G(tau - u) / G(tau) theta(u) du by adaptive quad.

    G(s) = beta cosh(beta s) + (big_gamma / lam) sinh(beta s); u = w^2 removes
    the 1/sqrt(u) singularity of theta.  Black-Scholes cells use the uncapped
    level m = bs_m (default p_bar), as the CLI does.
    """
    lam, sig = cfg.lam, cfg.sigma
    beta = math.sqrt(cfg.gamma / lam)
    g_ratio = cfg.big_gamma / lam

    def g(s):
        return beta * math.cosh(beta * s) + g_ratio * math.sinh(beta * s)

    g_tau = g(tau)
    bs = cfg.model == "bs-capped"
    m = (cfg.bs_m if cfg.bs_m is not None else cfg.p_bar) if bs else None

    def integrand(w):
        if w == 0.0:
            return 0.0
        if bs:
            f = 0.5 * sig * w - math.log1p(k / m) / (sig * w)
            cdf = 0.5 * math.erfc(-f / math.sqrt(2.0))
            theta_2w = m * (2.0 * sig * _pdf(f) + sig * sig * w * cdf)
        else:
            theta_2w = 2.0 * sig * _pdf(k / (sig * w))
        return theta_2w * g(tau - w * w) / g_tau

    value, _ = integrate.quad(integrand, 0.0, math.sqrt(tau), epsabs=0.0, epsrel=1e-12, limit=500)
    return value / (2.0 * lam)


def _pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def check_verify(code: int, text: str) -> list[str]:
    if code == 0 and "verify: PASS" in text:
        return []
    return [f"verify exit {code}: {text.strip().splitlines()[-1] if text.strip() else ''}"]


def check_simulate_csv(path: str) -> list[str]:
    """Signal-aware beats signal-free by > 5 se.

    The CSV has only the two values' standard errors, not the paired one,
    so the se used here is their root sum of squares, which is wider than
    the paired se when the two totals are positively correlated.
    """
    header, rows = read_csv(path)
    by_policy = {row[0]: row[1:].astype(float) for row in rows}
    col = {name: i - 1 for i, name in enumerate(header)}
    opt, ac = by_policy.get("optimal"), by_policy.get("almgren-chriss")
    if opt is None or ac is None:
        return ["simulate CSV lacks the optimal or almgren-chriss row"]
    if not (np.all(np.isfinite(opt)) and np.all(np.isfinite(ac))):
        return ["non-finite simulate output"]
    diff = opt[col["mean"]] - ac[col["mean"]]
    se = math.hypot(opt[col["std_error"]], ac[col["std_error"]])
    return check_difference(diff, se)


def check_difference(diff: float, se: float) -> list[str]:
    if se > 0.0 and diff > SIMULATE_MIN_SE * se:
        return []
    return [f"policy difference {diff:.4g} is not > {SIMULATE_MIN_SE} se ({se:.4g})"]


def check_value_csv(path: str, lam: float) -> tuple[list[str], float]:
    """Finite outputs and mc_se > 0; also returns the value identity deviation in se."""
    header, rows = read_csv(path)
    row = dict(zip(header, rows[0].astype(float)))
    return check_value(row["value"], row["mc_value"], row["v0_se"], row["mc_se"], lam)


def check_value(value, mc_value, v0_se, mc_se, lam) -> tuple[list[str], float]:
    numbers = (value, mc_value, v0_se, mc_se)
    if not all(math.isfinite(v) for v in numbers):
        return ["non-finite value output"], math.nan
    if not mc_se > 0.0:
        return [f"mc_se {mc_se!r} is not > 0"], math.nan
    # informational: the 1024-step grid-sampled running max biases this
    return [], abs(value - mc_value) / math.hypot(lam * v0_se, mc_se)


def check_probe(probe) -> list[str]:
    if probe.all_pass:
        return []
    return [f"probe fails: worst margin {float(np.max(probe.margins)):.3e}"]
