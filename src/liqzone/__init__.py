"""Optimal liquidation schedules with quadratic costs and price-cap signals.

The package splits into closed-form machinery (schedule), drift signals of
capped price models (signals), Monte Carlo simulation and policy evaluation
(montecarlo), an independent discrete optimizer used for verification
(oracle), and a CSV-emitting command line (cli).
"""

from . import montecarlo, oracle, schedule, signals
from .schedule import *
from .signals import *
from .montecarlo import *
from .oracle import *

__version__ = "0.1.0"

# each module's __all__ states its public names once
__all__ = [*schedule.__all__, *signals.__all__, *montecarlo.__all__, *oracle.__all__]
