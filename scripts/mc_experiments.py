#!/usr/bin/env python3
"""Monte Carlo experiments: policy comparison, perturbation probe, value check.

Small-cost capped Bachelier regime.  Three experiments on common random
numbers:

  1. paired comparison of the signal-aware policy against the signal-free
     one (same paths, so the difference is estimated far more tightly than
     either value);
  2. perturbation probe: random control perturbations must not improve the
     realized goal beyond noise;
  3. value identity: the closed-form value, fed a simulated estimate of its
     control-independent term, against the simulated goal of the policy.

Desk scale by default; --full switches to the acceptance-test scale
(1e5 paths, takes a few minutes).
"""

import argparse
import math
import time

from liqzone import (
    CappedBachelier,
    CostParams,
    GKernel,
    TargetZoneState,
    ac_policy,
    estimate_v0_and_value,
    optimal_policy,
    paired_value_difference,
    probe_optimality,
    v1_target_zone,
    value_formula,
)

COSTS = CostParams(lam=0.1, gamma=1e-5, big_gamma=1e-5, horizon=1.0, x0=1.0)
MODEL = CappedBachelier(m0=1.0, sigma=0.5, p_bar=1.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", default=20_000, type=int)
    parser.add_argument("--steps", default=1024, type=int)
    parser.add_argument("--seed", default=2024, type=int)
    parser.add_argument("--directions", default=20, type=int,
                        help="number of random probe directions")
    parser.add_argument("--full", action="store_true",
                        help="acceptance scale: 1e5 paths, 4096/8192 steps")
    args = parser.parse_args()
    n_paths = 100_000 if args.full else args.paths
    n_steps = 4096 if args.full else args.steps

    kernel = GKernel.from_costs(COSTS)
    policy = optimal_policy(MODEL, kernel, COSTS)

    start = time.perf_counter()
    cmp = paired_value_difference(MODEL, policy, ac_policy(kernel), COSTS,
                                  n_paths, n_steps, args.seed)
    print(f"policy comparison ({n_paths} paths, {n_steps} steps):")
    print(f"  signal-aware value {cmp.value_a.mean:.6f} "
          f"+- {cmp.value_a.std_error:.6f}")
    print(f"  signal-free value  {cmp.value_b.mean:.6f} "
          f"+- {cmp.value_b.std_error:.6f}")
    print(f"  paired difference  {cmp.difference.mean:.6f} "
          f"+- {cmp.difference.std_error:.6f} "
          f"({cmp.difference.mean / cmp.difference.std_error:.1f} se)")

    probe = probe_optimality(MODEL, kernel, COSTS, n_paths, n_steps,
                             args.seed, n_directions=args.directions)
    verdict = "pass" if probe.all_pass else "FAIL"
    print(f"perturbation probe ({args.directions} directions x "
          f"{probe.epsilons.size} amplitudes): worst margin "
          f"{probe.margins.max():.2e} -> {verdict}")

    v_steps = 8192 if args.full else n_steps
    v0, mc = estimate_v0_and_value(MODEL, kernel, COSTS, n_paths, v_steps, args.seed)
    v1_0 = v1_target_zone(kernel, COSTS, MODEL,
                          TargetZoneState(t=0.0, m=MODEL.m0, p=MODEL.m0))
    formula = value_formula(kernel, COSTS, p0=MODEL.m0,
                            v0_0=v0.mean, v1_0=v1_0)
    combined = math.hypot(COSTS.lam * v0.std_error, mc.std_error)
    print(f"value identity ({v_steps} steps): formula {formula:.6f}, "
          f"simulated {mc.mean:.6f}, deviation "
          f"{abs(formula - mc.mean) / combined:.2f} combined se")
    print(f"total {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
