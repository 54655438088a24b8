"""Strong-substitutes product-mix auction solver.

Exact-rational implementation of the full auction pipeline: bid-list
validity checking, component-wise minimal market-clearing prices via
long-step steepest descent, and partition of the supply among bidders so
that everyone receives a bundle they demand.
"""

from .core import (
    Bid,
    BidList,
    demand_interval,
    demanded_bundle,
    demanded_goods,
    indirect_utility,
    is_demanded,
    valuation,
)
from .allocation import AllocationProblem, Solution, allocate, initial_problem
from .pricing import (
    DescentTrace,
    PriceProblem,
    demand_bounds,
    long_step_min_up,
    lyapunov,
    min_up,
    slope,
    steepest_direction,
)
from .sfm import SetFunction, minimal_minimiser, minimise
from .validity import RegionQuery, brute_force_valid, check_validity
from .testgen import GenConfig, bench_suite, generate_instance, generate_list

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "Bid",
    "BidList",
    "DescentTrace",
    "GenConfig",
    "PriceProblem",
    "RegionQuery",
    "SetFunction",
    "Solution",
    "allocate",
    "bench_suite",
    "brute_force_valid",
    "check_validity",
    "demand_bounds",
    "demand_interval",
    "demanded_bundle",
    "demanded_goods",
    "generate_instance",
    "generate_list",
    "indirect_utility",
    "initial_problem",
    "is_demanded",
    "long_step_min_up",
    "lyapunov",
    "min_up",
    "minimal_minimiser",
    "minimise",
    "slope",
    "steepest_direction",
    "valuation",
]
