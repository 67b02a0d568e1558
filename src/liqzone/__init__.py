"""Optimal liquidation schedules with quadratic costs and price-cap signals.

The package splits into closed-form machinery (schedule), drift signals of
capped price models (signals), Monte Carlo simulation and policy evaluation
(montecarlo), an independent discrete optimizer used for verification
(oracle), and a CSV-emitting command line (cli).
"""

from .schedule import (
    CostParams,
    GKernel,
    TradePlan,
    ac_position,
    g_value,
    optimal_rate,
    trajectory_from_signal,
    urgency,
    value_formula,
)
from .signals import (
    CappedBachelier,
    CappedBlackScholes,
    DeterministicDrift,
    Martingale,
    MarketModel,
    QuadratureError,
    RateSurface,
    TargetZoneState,
    bachelier_lookback_price,
    bachelier_theta,
    bs_f,
    bs_theta,
    extra_rate,
    extra_rate_small_beta,
    full_rate,
    rate_surface,
    v1_curve_deterministic,
    v1_target_zone,
)
from .montecarlo import (
    GoalBreakdown,
    MarketState,
    MCEstimate,
    OptimalityProbe,
    PairedComparison,
    PathSample,
    ac_policy,
    estimate_v0,
    estimate_v0_and_value,
    estimate_value,
    optimal_policy,
    paired_value_difference,
    path_stream,
    probe_optimality,
    run_strategy,
    simulate_path,
)
from .oracle import (
    ConcavityReport,
    DiscreteProblem,
    concavity_probe,
    discrete_goal,
    solve_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "CostParams", "GKernel", "TradePlan", "g_value", "urgency", "ac_position",
    "optimal_rate", "trajectory_from_signal", "value_formula",
    "CappedBachelier", "CappedBlackScholes", "DeterministicDrift", "Martingale",
    "MarketModel", "TargetZoneState", "QuadratureError", "RateSurface",
    "bachelier_theta", "bachelier_lookback_price", "bs_f", "bs_theta",
    "extra_rate", "extra_rate_small_beta", "full_rate", "rate_surface",
    "v1_curve_deterministic", "v1_target_zone",
    "MarketState", "PathSample", "GoalBreakdown", "MCEstimate",
    "PairedComparison", "OptimalityProbe", "path_stream", "simulate_path",
    "run_strategy", "estimate_value", "estimate_v0", "estimate_v0_and_value",
    "paired_value_difference",
    "probe_optimality", "ac_policy", "optimal_policy",
    "DiscreteProblem", "ConcavityReport", "solve_discrete",
    "discrete_goal", "concavity_probe",
]
