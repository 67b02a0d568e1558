"""Command-line front end: surfaces, Monte Carlo runs, verification, values.

All subcommands are driven by a flat key=value config file (# starts a
comment).  Outputs are CSV with one header line, LF newlines and floats
printed with 17 significant digits, so identical configs produce
byte-identical files.  Exit status: 0 success, 1 numeric failure (failed
verification threshold or quadrature disagreement), 2 config error (the
message names the offending key).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .montecarlo import (
    ac_policy,
    estimate_v0,
    estimate_value,
    optimal_policy,
    paired_value_difference,
)
from .oracle import DiscreteProblem, solve_discrete
from .schedule import CostParams, GKernel, trajectory_from_signal, urgency, value_formula
from .signals import (
    CappedBachelier,
    CappedBlackScholes,
    DeterministicDrift,
    Martingale,
    QuadratureError,
    TargetZoneState,
    rate_surface,
    v1_curve_deterministic,
    v1_target_zone,
)

__all__ = ["main", "entry", "ConfigError", "RunConfig", "load_config"]


class ConfigError(Exception):
    """Configuration problem; the message names the offending key or file."""


_MODELS = ("bachelier-capped", "bs-capped", "martingale", "drift")

# every recognized key with its parsed type; None marks "no default, may be
# required by a subcommand"
_FLOAT_KEYS = ("m0", "sigma", "p_bar", "lambda", "gamma", "big_gamma", "T", "x0",
               "tau_min", "tau_max", "money_min", "money_max", "bs_m", "drift")
_INT_KEYS = ("n_steps", "n_paths", "seed", "tau_count", "money_count")
_STR_KEYS = ("model", "output")
_ALL_KEYS = frozenset(_FLOAT_KEYS + _INT_KEYS + _STR_KEYS)

# verification thresholds (see the oracle module for where they come from)
_VERIFY_TRAJ_TOL = 1e-3
_VERIFY_RATE_TOL = 1e-4
_VERIFY_ORDER_MIN = 0.9
_VERIFY_TERMINAL_TOL = 1e-6


@dataclass
class RunConfig:
    """Typed view of a config file with defaults resolved."""

    model: str
    m0: float
    sigma: float
    p_bar: float | None
    lam: float
    gamma: float
    big_gamma: float
    horizon: float
    x0: float
    n_steps: int
    n_paths: int
    seed: int
    tau_min: float
    tau_max: float
    tau_count: int
    money_min: float
    money_max: float
    money_count: int
    bs_m: float | None
    drift: float
    output: str | None


def _parse_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in raw:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        if not value:
            raise ConfigError(f"empty value for key '{key}' (line {lineno})")
        raw[key] = value
    return raw


def _get_float(raw, key, default=None):
    if key not in raw:
        return default
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigError(f"key '{key}' is not a number: {raw[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {raw[key]!r}")
    return value


def _get_int(raw, key, default=None):
    if key not in raw:
        return default
    try:
        value = int(raw[key])
    except ValueError:
        raise ConfigError(f"key '{key}' is not an integer: {raw[key]!r}") from None
    return value


def _require(cfg_value, key):
    if cfg_value is None:
        raise ConfigError(f"missing required key '{key}'")
    return cfg_value


def load_config(path: str) -> RunConfig:
    """Read and type-check a config file; required-per-subcommand keys may stay None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _parse_lines(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None

    model = raw.get("model")
    if model is None:
        raise ConfigError("missing required key 'model'")
    if model not in _MODELS:
        raise ConfigError(f"key 'model' must be one of {', '.join(_MODELS)}; got {model!r}")

    horizon = _get_float(raw, "T", 1.0)
    if horizon <= 0.0:
        raise ConfigError("key 'T' must be strictly positive")
    cfg = RunConfig(
        model=model,
        m0=_get_float(raw, "m0", 0.0),
        sigma=_get_float(raw, "sigma", 0.5),
        p_bar=_get_float(raw, "p_bar"),
        lam=_require(_get_float(raw, "lambda", 0.1), "lambda"),
        gamma=_require(_get_float(raw, "gamma"), "gamma"),
        big_gamma=_require(_get_float(raw, "big_gamma"), "big_gamma"),
        horizon=horizon,
        x0=_get_float(raw, "x0", 1.0),
        n_steps=_get_int(raw, "n_steps", 4096),
        n_paths=_get_int(raw, "n_paths", 10000),
        seed=_get_int(raw, "seed", 0),
        tau_min=_get_float(raw, "tau_min", min(0.02, horizon)),
        tau_max=_get_float(raw, "tau_max", horizon),
        tau_count=_get_int(raw, "tau_count", 50),
        money_min=_get_float(raw, "money_min", 0.0),
        money_max=_get_float(raw, "money_max", 1.0),
        money_count=_get_int(raw, "money_count", 50),
        bs_m=_get_float(raw, "bs_m"),
        drift=_get_float(raw, "drift", 0.0),
        output=raw.get("output"),
    )
    _validate(cfg, present=frozenset(raw))
    return cfg


def _validate(cfg: RunConfig, present: frozenset) -> None:
    for key, value, low in (("lambda", cfg.lam, 0.0), ("gamma", cfg.gamma, 0.0),
                            ("big_gamma", cfg.big_gamma, 0.0), ("sigma", cfg.sigma, 0.0)):
        if value <= low:
            raise ConfigError(f"key '{key}' must be strictly positive")
    if cfg.n_steps < 1:
        raise ConfigError("key 'n_steps' must be >= 1")
    if cfg.n_paths < 2:
        raise ConfigError("key 'n_paths' must be >= 2")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("key 'seed' must fit in 64 bits")
    if cfg.tau_count < 1 or cfg.money_count < 1:
        raise ConfigError("keys 'tau_count' and 'money_count' must be >= 1")
    if not 0.0 < cfg.tau_min <= cfg.tau_max <= cfg.horizon * (1.0 + 1e-12):
        raise ConfigError("keys 'tau_min'/'tau_max' must satisfy 0 < tau_min <= tau_max <= T")
    if cfg.money_min < 0.0 or cfg.money_min > cfg.money_max:
        raise ConfigError("keys 'money_min'/'money_max' must satisfy 0 <= money_min <= money_max")
    if cfg.model in ("bachelier-capped", "bs-capped"):
        if "m0" not in present:
            raise ConfigError("missing required key 'm0' (capped models)")
        _require(cfg.p_bar, "p_bar")
    if "drift" in present and cfg.model != "drift" and cfg.drift != 0.0:
        raise ConfigError("key 'drift' requires model=drift")


def make_costs(cfg: RunConfig) -> CostParams:
    try:
        return CostParams(lam=cfg.lam, gamma=cfg.gamma, big_gamma=cfg.big_gamma,
                          horizon=cfg.horizon, x0=cfg.x0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def make_model(cfg: RunConfig):
    try:
        if cfg.model == "bachelier-capped":
            return CappedBachelier(m0=cfg.m0, sigma=cfg.sigma, p_bar=_require(cfg.p_bar, "p_bar"))
        if cfg.model == "bs-capped":
            return CappedBlackScholes(m0=cfg.m0, sigma=cfg.sigma, p_bar=_require(cfg.p_bar, "p_bar"))
        if cfg.model == "drift":
            return DeterministicDrift(times=np.array([0.0, cfg.horizon]),
                                      values=np.array([cfg.drift, cfg.drift]),
                                      p0=cfg.m0)
        return Martingale(p0=cfg.m0, sigma=cfg.sigma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _write_csv(path: str, header: str, rows) -> None:
    if path is None:
        raise ConfigError("missing required key 'output'")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_surface(cfg: RunConfig) -> int:
    model = make_model(cfg)
    if not isinstance(model, (CappedBachelier, CappedBlackScholes)):
        raise ConfigError("key 'model' must be a capped variant for surface")
    costs = make_costs(cfg)
    kernel = GKernel.from_costs(costs)
    taus = np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_count)
    money = np.linspace(cfg.money_min, cfg.money_max, cfg.money_count)
    bs_m = cfg.bs_m if cfg.bs_m is not None else model.p_bar
    surf = rate_surface(kernel, costs, model, taus, money, x=cfg.x0, bs_m=bs_m)
    rows = (
        (_fmt(taus[i]), _fmt(money[j]), _fmt(surf.rate[i, j]), _fmt(surf.rate_ac[i, j]),
         _fmt(surf.rate_extra[i, j]), _fmt(surf.relative_increase[i, j]))
        for i in range(taus.size) for j in range(money.size)
    )
    _write_csv(cfg.output, "tau,moneyness,rate,rate_ac,rate_extra,relative_increase", rows)
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    model = make_model(cfg)
    costs = make_costs(cfg)
    kernel = GKernel.from_costs(costs)
    comparison = paired_value_difference(
        model, optimal_policy(model, kernel, costs), ac_policy(kernel), costs,
        n_paths=cfg.n_paths, n_steps=cfg.n_steps, master_seed=cfg.seed,
    )
    rows = [
        ("optimal", _fmt(comparison.value_a.mean), _fmt(comparison.value_a.std_error),
         str(comparison.value_a.n_paths), str(comparison.value_a.seed)),
        ("almgren-chriss", _fmt(comparison.value_b.mean), _fmt(comparison.value_b.std_error),
         str(comparison.value_b.n_paths), str(comparison.value_b.seed)),
    ]
    _write_csv(cfg.output, "policy,mean,std_error,n_paths,seed", rows)
    return 0


def cmd_value(cfg: RunConfig) -> int:
    model = make_model(cfg)
    if isinstance(model, DeterministicDrift):
        raise ConfigError("key 'model' must be capped or martingale for value")
    costs = make_costs(cfg)
    kernel = GKernel.from_costs(costs)
    if isinstance(model, Martingale):
        p0, v1_0, v0_0, v0_se = model.p0, 0.0, 0.0, 0.0
    else:
        p0 = model.m0  # the cap is above m0, so the capped price starts at m0
        v1_0 = v1_target_zone(kernel, costs, model, TargetZoneState(t=0.0, m=p0, p=p0))
        v0 = estimate_v0(model, kernel, costs, n_paths=cfg.n_paths, n_steps=cfg.n_steps,
                         master_seed=cfg.seed)
        v0_0, v0_se = v0.mean, v0.std_error
    value = value_formula(kernel, costs, p0, v0_0, v1_0)
    mc = estimate_value(model, optimal_policy(model, kernel, costs), costs,
                        n_paths=cfg.n_paths, n_steps=cfg.n_steps, master_seed=cfg.seed)
    row = (_fmt(p0), _fmt(costs.x0), _fmt(-urgency(kernel, 0.0)), _fmt(v1_0),
           _fmt(v0_0), _fmt(v0_se), _fmt(value), _fmt(mc.mean), _fmt(mc.std_error))
    _write_csv(cfg.output, "p0,x0,v2_0,v1_0,v0_0,v0_se,value,mc_value,mc_se", [row])
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    model = make_model(cfg)
    if not isinstance(model, (Martingale, DeterministicDrift)):
        raise ConfigError("key 'model' must be drift or martingale for verify")
    costs = make_costs(cfg)
    kernel = GKernel.from_costs(costs)
    drift_level = cfg.drift if isinstance(model, DeterministicDrift) else 0.0

    ns = sorted({max(2, cfg.n_steps // 100), max(2, cfg.n_steps // 10), cfg.n_steps})
    if len(ns) < 2:
        raise ConfigError("key 'n_steps' must be >= 20 for verify (order needs a refinement)")
    traj_errors = []
    terminal_residuals = []
    u0_disc = x_n = None
    for n in ns:
        plan = solve_discrete(DiscreteProblem.uniform(costs, n, drift_level))
        grid = plan.grid
        if drift_level == 0.0:
            v1_values = np.zeros(grid.size)
        else:
            v1_values = v1_curve_deterministic(model, kernel, costs.lam, grid)
        exact = trajectory_from_signal(kernel, costs.x0, v1_values, grid)
        traj_errors.append(float(np.max(np.abs(plan.positions - exact.positions))) / costs.x0)
        terminal_residuals.append(plan.rates[-1] - kernel.gamma_ratio * plan.positions[-1])
        u0_disc, x_n = plan.rates[0], plan.positions[-1]
        # the discrete u_0 is the average rate over the first cell, so the
        # fair closed-form target is shares sold over [0, delta] per unit time
        u0_exact = (costs.x0 - exact.positions[1]) * n / costs.horizon

    u0_err = abs(u0_disc - u0_exact) / abs(u0_exact)
    order = math.log(traj_errors[0] / traj_errors[-1]) / math.log(ns[-1] / ns[0])
    # Richardson-extrapolate the O(delta) terminal residual to delta -> 0
    r_mid, r_fine = terminal_residuals[-2], terminal_residuals[-1]
    extrapolated = r_fine - (r_mid - r_fine) / (ns[-1] / ns[-2] - 1.0)
    terminal_scale = max(1.0, kernel.gamma_ratio * abs(x_n))

    checks = [
        ("trajectory error", traj_errors[-1], "<=", _VERIFY_TRAJ_TOL),
        ("convergence order", order, ">=", _VERIFY_ORDER_MIN),
        ("initial rate error", u0_err, "<=", _VERIFY_RATE_TOL),
        ("terminal residual", abs(extrapolated) / terminal_scale, "<=", _VERIFY_TERMINAL_TOL),
    ]
    failed = []
    for name, value, op, bound in checks:
        ok = value <= bound if op == "<=" else value >= bound
        status = "PASS" if ok else "FAIL"
        print(f"{name:<20s} {value:.6e}  ({op} {bound:g})  {status}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"verify: FAIL ({'; '.join(failed)})")
        return 1
    print(f"verify: PASS (n = {', '.join(str(n) for n in ns)})")
    return 0


_COMMANDS = {
    "surface": cmd_surface,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "value": cmd_value,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liqzone",
        description="Optimal liquidation schedules under price caps: surfaces, "
                    "simulation, verification and values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--output", help="output path (overrides the config's output key)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--paths", type=int, help="Monte Carlo path count override")
        p.add_argument("--steps", type=int, help="time step count override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.output is not None:
            cfg.output = args.output
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("key 'seed' must fit in 64 bits")
            cfg.seed = args.seed
        if args.paths is not None:
            if args.paths < 2:
                raise ConfigError("key 'n_paths' must be >= 2")
            cfg.n_paths = args.paths
        if args.steps is not None:
            if args.steps < 1:
                raise ConfigError("key 'n_steps' must be >= 1")
            cfg.n_steps = args.steps
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
