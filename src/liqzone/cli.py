"""Command-line front end: surfaces, Monte Carlo runs, probes, verification, values.

All subcommands are driven by a flat key=value config file (# starts a
comment).  Outputs are CSV with one header line, LF newlines and floats
printed with 17 significant digits, so identical configs produce
byte-identical files.  Exit status: 0 success, 1 numeric failure (failed
verification threshold, a probe gain above its noise, or quadrature
disagreement), 2 config error (the message names the offending key).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .montecarlo import (
    ac_policy,
    estimate_v0_and_value,
    optimal_policy,
    paired_value_difference,
    probe_optimality,
)
from .oracle import DiscreteProblem, solve_discrete
from .schedule import CostParams, GKernel, _positions_from_signal, urgency, value_formula
from .signals import (
    CappedBachelier,
    CappedBlackScholes,
    DeterministicDrift,
    Martingale,
    QuadratureError,
    TargetZoneState,
    rate_surface,
    v1_target_zone,
)

__all__ = ["main", "entry", "ConfigError", "RunConfig", "load_config"]


class ConfigError(Exception):
    """Configuration problem; the message names the offending key or file."""


# verification thresholds (see the oracle module for where they come from)
_VERIFY_TRAJ_TOL = 1e-3
_VERIFY_RATE_TOL = 1e-4
_VERIFY_ORDER_MIN = 0.9
_VERIFY_TERMINAL_TOL = 1e-6

_REQUIRED = object()  # default of a key every config must set


def _key(default, name=None):
    """A RunConfig field read from config key `name` (the field's name if None).

    default is a value, _REQUIRED, or a function of the fields above it; None
    means no default (some models or subcommands require the key).
    """
    return field(metadata={"default": default, "name": name})


@dataclass
class RunConfig:
    """Typed view of a config file with defaults resolved: the table of keys.

    Each field is one config key, parsed as its annotation says.
    """

    model: str = _key(_REQUIRED)
    m0: float = _key(0.0)
    sigma: float = _key(0.5)
    p_bar: float | None = _key(None)
    lam: float = _key(0.1, "lambda")
    gamma: float = _key(_REQUIRED)
    big_gamma: float = _key(_REQUIRED)
    horizon: float = _key(1.0, "T")
    x0: float = _key(1.0)
    n_steps: int = _key(4096)
    n_paths: int = _key(10000)
    seed: int = _key(0)
    tau_min: float = _key(lambda cfg: min(0.02, cfg["horizon"]))
    tau_max: float = _key(lambda cfg: cfg["horizon"])
    tau_count: int = _key(50)
    money_min: float = _key(0.0)
    money_max: float = _key(1.0)
    money_count: int = _key(50)
    bs_m: float | None = _key(None)
    drift: float = _key(0.0)
    output: str | None = _key(None)


_KEYS = {f.metadata["name"] or f.name: f for f in fields(RunConfig)}


def _parse(f, key: str, text: str):
    """The value of config key `key` as its RunConfig field's annotation says."""
    kind = f.type.removesuffix(" | None")
    convert, noun = {"float": (float, "a number"), "int": (int, "an integer"),
                     "str": (str, "")}[kind]
    try:
        value = convert(text)
    except ValueError:
        raise ConfigError(f"key '{key}' is not {noun}: {text!r}") from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {text!r}")
    return value


class _ModelSpec(NamedTuple):
    build: Callable[[RunConfig], object]  # the market model a config describes
    commands: tuple[str, ...]             # the subcommands that accept it
    requires: tuple[str, ...] = ()        # keys its config must set
    reads: tuple[str, ...] = ()           # the model-specific keys it reads


_MODELS = {
    "bachelier-capped": _ModelSpec(
        lambda cfg: CappedBachelier(m0=cfg.m0, sigma=cfg.sigma, p_bar=cfg.p_bar),
        ("surface", "simulate", "value", "probe"), requires=("m0", "p_bar")),
    "bs-capped": _ModelSpec(
        lambda cfg: CappedBlackScholes(m0=cfg.m0, sigma=cfg.sigma, p_bar=cfg.p_bar),
        ("surface", "simulate", "value", "probe"), requires=("m0", "p_bar"), reads=("bs_m",)),
    "martingale": _ModelSpec(
        lambda cfg: Martingale(p0=cfg.m0, sigma=cfg.sigma),
        ("simulate", "value", "probe", "verify")),
    "drift": _ModelSpec(
        lambda cfg: DeterministicDrift(times=np.array([0.0, cfg.horizon]),
                                       values=np.array([cfg.drift, cfg.drift]), p0=cfg.m0),
        ("simulate", "probe", "verify"), reads=("drift",)),
}


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
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in raw:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        if not value:
            raise ConfigError(f"empty value for key '{key}' (line {lineno})")
        raw[key] = value
    return raw


def _read(path: str) -> tuple[RunConfig, frozenset]:
    """The file's values over the defaults, not yet validated, and the keys it sets."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _parse_lines(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    values = {}
    for key, f in _KEYS.items():
        default = f.metadata["default"]
        if key in raw:
            values[f.name] = _parse(f, key, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        else:
            values[f.name] = default(values) if callable(default) else default
    return RunConfig(**values), frozenset(raw)


def load_config(path: str) -> RunConfig:
    """Read and type-check a config file; required-per-subcommand keys may stay None."""
    cfg, present = _read(path)
    _validate(cfg, present)
    return cfg


def _validate(cfg: RunConfig, present: frozenset) -> None:
    if cfg.model not in _MODELS:
        raise ConfigError(f"key 'model' must be one of {', '.join(_MODELS)}; got {cfg.model!r}")
    # sigma is checked by the model: a martingale takes 0, the drift model ignores it
    for key, value in (("T", cfg.horizon), ("lambda", cfg.lam), ("gamma", cfg.gamma),
                       ("big_gamma", cfg.big_gamma)):
        if value <= 0.0:
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
    for key in _MODELS[cfg.model].requires:
        if key not in present:
            raise ConfigError(f"missing required key '{key}' (model = {cfg.model})")
    # a key only other models read must keep its default (so drift = 0 passes)
    for name, spec in _MODELS.items():
        for key in sorted(set(spec.reads) - set(_MODELS[cfg.model].reads)):
            if getattr(cfg, _KEYS[key].name) != _KEYS[key].metadata["default"]:
                raise ConfigError(f"key '{key}' requires model = {name}")


def _problem(cfg: RunConfig):
    """The market model, costs and kernel a validated config describes."""
    model = _MODELS[cfg.model].build(cfg)
    costs = CostParams(lam=cfg.lam, gamma=cfg.gamma, big_gamma=cfg.big_gamma,
                       horizon=cfg.horizon, x0=cfg.x0)
    return model, costs, GKernel.from_costs(costs)


def _output(cfg: RunConfig) -> str:
    if cfg.output is None:
        raise ConfigError("missing required key 'output'")
    return cfg.output


def _floats(values) -> list[str]:
    """Each value as a CSV cell, %.17g: as f"{value:.17g}" prints it, nan, inf and -0 too."""
    return list(map("%.17g".__mod__, np.asarray(values, dtype=float).ravel().tolist()))


def _write_csv(path: str, header: str, lines) -> None:
    """Write the header, then each preformatted line, each ended by LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{line}\n" for line in lines)


def _surface_lines(taus, money, rate_ac, rate, rate_extra, relative_increase):
    """Yield the surface CSV's lines, tau-major, a row at a time.  rate_ac holds one value
    per tau (constant along a row); each tau, moneyness and rate_ac is formatted once."""
    money = _floats(money)
    for tau, ac, *row in zip(_floats(taus), _floats(rate_ac), rate, rate_extra,
                             relative_increase):
        for k, r, extra, rel in zip(money, *map(_floats, row)):
            yield f"{tau},{k},{r},{ac},{extra},{rel}"


def cmd_surface(cfg: RunConfig) -> int:
    """Write the optimal-rate surface on the tau x moneyness grid (capped models), tau-major."""
    output = _output(cfg)
    model, costs, kernel = _problem(cfg)
    taus = np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_count)
    money = np.linspace(cfg.money_min, cfg.money_max, cfg.money_count)
    # _validate admits these for every subcommand; only a surface reads them
    if cfg.tau_max > cfg.horizon:
        raise ConfigError(f"key 'tau_max' must be <= T for surface; got {cfg.tau_max!r} > "
                          f"{cfg.horizon!r}")
    for axis, grid in (("tau", taus), ("money", money)):
        if np.any(np.diff(grid) <= 0.0):
            raise ConfigError(f"keys '{axis}_min'/'{axis}_max' must span a strictly increasing "
                              f"grid of '{axis}_count' = {grid.size} points for surface; got "
                              f"{float(grid[0])!r} to {float(grid[-1])!r}")
    bs_m = cfg.bs_m if cfg.bs_m is not None else model.p_bar
    surf = rate_surface(kernel, costs, model, taus, money, x=cfg.x0, bs_m=bs_m)
    _write_csv(output, "tau,moneyness,rate,rate_ac,rate_extra,relative_increase",
               _surface_lines(surf.taus, surf.moneyness, surf.rate_ac[:, 0], surf.rate,
                              surf.rate_extra, surf.relative_increase))
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    """Write the simulated values of the optimal and signal-free policies."""
    output = _output(cfg)
    model, costs, kernel = _problem(cfg)
    comparison = paired_value_difference(
        model, optimal_policy(model, kernel, costs), ac_policy(kernel), costs,
        n_paths=cfg.n_paths, n_steps=cfg.n_steps, master_seed=cfg.seed,
    )
    lines = [",".join([name, *_floats([est.mean, est.std_error]), str(est.n_paths), str(est.seed)])
             for name, est in (("optimal", comparison.value_a),
                               ("almgren-chriss", comparison.value_b))]
    _write_csv(output, "policy,mean,std_error,n_paths,seed", lines)
    return 0


def cmd_value(cfg: RunConfig) -> int:
    """Write the closed-form value next to the simulated value of the policy."""
    output = _output(cfg)
    model, costs, kernel = _problem(cfg)
    p0 = cfg.m0  # the martingale's p0; a capped price starts at m0, below its cap
    v1_0 = v1_target_zone(kernel, costs, model, TargetZoneState(t=0.0, m=p0, p=p0))
    v0, mc = estimate_v0_and_value(model, kernel, costs, n_paths=cfg.n_paths,
                                   n_steps=cfg.n_steps, master_seed=cfg.seed)
    value = value_formula(kernel, costs, p0, v0.mean, v1_0)
    row = (p0, costs.x0, -urgency(kernel, 0.0), v1_0, v0.mean, v0.std_error, value,
           mc.mean, mc.std_error)
    _write_csv(output, "p0,x0,v2_0,v1_0,v0_0,v0_se,value,mc_value,mc_se", [",".join(_floats(row))])
    return 0


def cmd_probe(cfg: RunConfig) -> int:
    """Write the goal changes of perturbed optimal controls (exit 1 if any gains)."""
    output = _output(cfg)
    model, costs, kernel = _problem(cfg)
    probe = probe_optimality(model, kernel, costs, n_paths=cfg.n_paths, n_steps=cfg.n_steps,
                             master_seed=cfg.seed)
    n_directions, n_eps = probe.mean_gain.shape  # rows direction-major
    rows = zip(_floats(probe.epsilons) * n_directions, _floats(probe.mean_gain),
               _floats(probe.std_error), _floats(probe.margins))
    _write_csv(output, "direction,epsilon,mean_gain,std_error,margin",
               (f"{i // n_eps},{','.join(row)}" for i, row in enumerate(rows)))
    verdict = "PASS" if probe.all_pass else "FAIL"
    print(f"probe: {verdict} (worst margin {probe.margins.max():.6e}, "
          f"{n_directions} directions x {n_eps} epsilons)")
    return 0 if probe.all_pass else 1


def cmd_verify(cfg: RunConfig) -> int:
    """Check the closed-form schedule against the discrete optimizer (exit 1 on failure)."""
    model, costs, kernel = _problem(cfg)
    ns = sorted({max(2, cfg.n_steps // 100), max(2, cfg.n_steps // 10), cfg.n_steps})
    if len(ns) < 2:
        raise ConfigError("key 'n_steps' must be >= 20 for verify (order needs a refinement)")
    traj_errors = []
    terminal_residuals = []
    u0_disc = x_n = None
    for n in ns:
        grid = np.linspace(0.0, costs.horizon, n + 1)
        # the oracle sees the model's expected price path, as the closed form does
        plan = solve_discrete(DiscreteProblem(model._expected_levels(grid), costs))
        # the closed form's positions: verify reads no closed-form rates
        exact = _positions_from_signal(kernel, costs.x0,
                                       model._v1_curve(kernel, costs.lam, grid), grid)
        traj_errors.append(float(np.max(np.abs(plan.positions - exact))) / costs.x0)
        terminal_residuals.append(plan.rates[-1] - kernel.gamma_ratio * plan.positions[-1])
        u0_disc, x_n = plan.rates[0], plan.positions[-1]
        # the discrete u_0 is the average rate over the first cell, so the
        # fair closed-form target is shares sold over [0, delta] per unit time
        u0_exact = (costs.x0 - exact[1]) * n / costs.horizon

    u0_err = abs(u0_disc - u0_exact) / abs(u0_exact)
    order = math.log(traj_errors[0] / traj_errors[-1]) / math.log(ns[-1] / ns[0])
    # the terminal residual's delta -> 0 value: the polynomial in delta through
    # every rung (with two rungs, one Richardson step on the O(delta) term)
    deltas = costs.horizon / np.array(ns, dtype=float)
    extrapolated = np.polynomial.polynomial.polyfit(deltas, terminal_residuals, len(ns) - 1)[0]
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
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liqzone",
        description="Optimal liquidation schedules under price caps: surfaces, "
                    "simulation, optimality probes, verification and values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        # flags left out stay out of the namespace; each given one sets its key
        p = sub.add_parser(name, help=handler.__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--output", help="output path (overrides the config's output key)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--paths", type=int, dest="n_paths", metavar="PATHS",
                       help="Monte Carlo path count override")
        p.add_argument("--steps", type=int, dest="n_steps", metavar="STEPS",
                       help="time step count override")
    overrides = vars(parser.parse_args(argv))
    command = overrides.pop("command")

    try:
        cfg, present = _read(overrides.pop("config"))
        cfg = replace(cfg, **overrides)
        _validate(cfg, present)
        if command not in _MODELS[cfg.model].commands:
            served = ", ".join(name for name, m in _MODELS.items() if command in m.commands)
            raise ConfigError(f"key 'model' must be one of {served} for {command}; "
                              f"got {cfg.model!r}")
        return _COMMANDS[command](cfg)
    except (ConfigError, ValueError) as exc:  # the library names the field it rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
