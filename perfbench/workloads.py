"""The benchmark's workloads: the operations of one cycle and their configs.

A workload is a fixed list of operations (``Op``).  One cycle runs each
operation once.  Every operation except ``probe`` is a ``liqzone`` CLI
subcommand driven by a config file the benchmark writes; ``probe`` is the
library's ``probe_optimality``, which has no CLI command.

This module imports only ``liqzone`` (and numpy through it), so that the
set-up probe, which times interpreter start to ready, measures the
program's own imports and not the benchmark's checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from liqzone import (
    CappedBachelier,
    CappedBlackScholes,
    CostParams,
    DeterministicDrift,
    GKernel,
    Martingale,
    ac_policy,
    optimal_policy,
)
from liqzone.cli import load_config

# quadrature nodes per surface cell: coarse (16 panels) plus fine (32 panels)
# pass of the 32-point Gauss-Legendre scheme in liqzone.signals
NODES_PER_CELL = (16 + 32) * 32

# market and cost settings of the paper's figures
_CAPPED = {"m0": 1.0, "sigma": 0.5, "p_bar": 1.0, "lambda": 0.1}
_SMALL_COSTS = {"gamma": 1e-5, "big_gamma": 1e-5}
_UNIT_COSTS = {"gamma": 1.0, "big_gamma": 1.0}

# Sizes.  Full sizes are the benchmark proper; smoke sizes only prove that
# every operation and metric is wired up.
FULL = {
    "grid": None,            # CLI default surface grid (50 x 50)
    "verify_steps": None,    # CLI default n_steps (4096)
    "desk_paths": 20_000, "desk_steps": 1024,
    "bs_paths": 10_000, "bs_steps": 64,
}
SMOKE = {
    "grid": 4,
    "verify_steps": 200,
    # 2100 paths: two batches of the library's 2048-path default.  The desk
    # step count stays: on coarser grids the probe fails (see README.md)
    "desk_paths": 2100, "desk_steps": 1024,
    "bs_paths": 2100, "bs_steps": 4,
}


@dataclass
class Op:
    """One operation of a cycle.

    kind is surface, verify, simulate, value or probe; name is unique in
    the workload and names the config and CSV files.
    """

    kind: str
    name: str
    cfg: dict
    metric: str = ""        # the end-to-end timing the op's time adds to
    cfg_path: str = ""
    csv_path: str = ""
    paths: int = 0
    steps: int = 0
    cells: int = 0
    small_costs: bool = False
    objects: dict = field(default_factory=dict)

    @property
    def path_steps(self) -> int:
        """Paths x steps x policy passes the operation evaluates.

        simulate runs two policies; value runs the v0 signal pass and one
        policy; probe runs one policy.
        """
        passes = {"simulate": 2, "value": 2, "probe": 1}.get(self.kind, 0)
        return self.paths * self.steps * passes


def build_ops(workload: str, sizes: dict, seed: int, out_dir: str) -> list[Op]:
    """The operations of one cycle of the workload, with their config paths."""
    if workload == "surface-sweep":
        ops = _surface_sweep(sizes)
    elif workload == "mc-desk":
        desk = {"model": "bachelier-capped", **_CAPPED, **_SMALL_COSTS,
                "n_paths": sizes["desk_paths"], "n_steps": sizes["desk_steps"], "seed": seed}
        ops = [Op(kind, kind, desk, kind + "_s", paths=desk["n_paths"], steps=desk["n_steps"])
               for kind in ("simulate", "value", "probe")]
        # Black-Scholes table builds cost ~55 ms per step and dominate this
        # op, so its step count is cut from the default 4096
        bs = {"model": "bs-capped", **_CAPPED, **_SMALL_COSTS,
              "n_paths": sizes["bs_paths"], "n_steps": sizes["bs_steps"], "seed": seed}
        ops.append(Op("simulate", "simulate-bs", bs, "simulate_bs_s",
                      paths=bs["n_paths"], steps=bs["n_steps"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op.cfg_path = os.path.join(out_dir, op.name + ".cfg")
        if op.kind in ("surface", "simulate", "value"):
            op.csv_path = os.path.join(out_dir, op.name + ".csv")
    return ops


def _surface_sweep(sizes: dict) -> list[Op]:
    grid = {} if sizes["grid"] is None else {"tau_count": sizes["grid"],
                                            "money_count": sizes["grid"]}
    cells = (sizes["grid"] or 50) ** 2
    ops = []
    for model, tag in (("bachelier-capped", "bachelier"), ("bs-capped", "bs")):
        for costs, regime in ((_SMALL_COSTS, "small"), (_UNIT_COSTS, "unit")):
            ops.append(Op("surface", f"surface-{tag}-{regime}",
                          {"model": model, **_CAPPED, **costs, **grid}, "surface_s",
                          cells=cells, small_costs=regime == "small"))
    steps = {} if sizes["verify_steps"] is None else {"n_steps": sizes["verify_steps"]}
    # unit costs: at gamma = 1e-5 the drift case fails the initial-rate
    # check at the default n_steps (see perfbench/README.md)
    ops.append(Op("verify", "verify-martingale",
                  {"model": "martingale", **_UNIT_COSTS, **steps}, "verify_s"))
    ops.append(Op("verify", "verify-drift",
                  {"model": "drift", "drift": -0.1, **_UNIT_COSTS, **steps}, "verify_s"))
    for op in ops:
        if op.kind == "verify":
            op.steps = sizes["verify_steps"] or 4096
    return ops


def write_config(op: Op) -> None:
    with open(op.cfg_path, "w", encoding="utf-8", newline="") as fh:
        for key, value in op.cfg.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float)
                     else f"{key} = {value}\n")


def model_of(cfg):
    """The market model a loaded RunConfig describes (public constructors only)."""
    if cfg.model == "bachelier-capped":
        return CappedBachelier(m0=cfg.m0, sigma=cfg.sigma, p_bar=cfg.p_bar)
    if cfg.model == "bs-capped":
        return CappedBlackScholes(m0=cfg.m0, sigma=cfg.sigma, p_bar=cfg.p_bar)
    if cfg.model == "drift":
        return DeterministicDrift(times=[0.0, cfg.horizon], values=[cfg.drift, cfg.drift],
                                  p0=cfg.m0)
    return Martingale(p0=cfg.m0, sigma=cfg.sigma)


def objects_from(cfg, policies: bool = False) -> dict:
    """Costs, kernel and model of a loaded config; with policies, both policies too."""
    costs = CostParams(lam=cfg.lam, gamma=cfg.gamma, big_gamma=cfg.big_gamma,
                       horizon=cfg.horizon, x0=cfg.x0)
    kernel = GKernel.from_costs(costs)
    model = model_of(cfg)
    objects = {"cfg": cfg, "costs": costs, "kernel": kernel, "model": model}
    if policies:
        objects["optimal"] = optimal_policy(model, kernel, costs)
        objects["ac"] = ac_policy(kernel)
    return objects


def set_up(op: Op) -> dict:
    """What a caller does before its first operation: load the config, build the objects."""
    return objects_from(load_config(op.cfg_path),
                        policies=op.kind in ("simulate", "value", "probe"))
