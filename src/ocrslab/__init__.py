"""Contention-resolution laboratory.

Priced matching instances and their fractional relaxation, attenuated online
schemes under random edge or vertex arrivals, exact small-instance baselines,
and numerically certified balancedness constants.
"""

from .attenuation import AttenuationSpec, attenuation_profile
from .bounds import (
    BoundCertificate,
    FactCheck,
    five_var_minimize,
    h,
    h1,
    phi,
    r0_bound,
    r1_bound,
    verify_facts,
)
from .graphcore import (
    Edge,
    EdgeStats,
    FractionalPoint,
    GeneratedInstance,
    MenuEntry,
    PricingInstance,
    Vertex,
    check_polytope,
    edge_stats,
    fractional_point_violations,
    generate_family,
    marginals,
    validate_instance,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_lp_pricing,
    objective_coefficients,
    single_weight_selection,
    solve_lp,
    two_weight_reduction,
)
from .simulate import (
    EdgeReport,
    RoOcrsEngine,
    SequentialPricingEngine,
    SimulationReport,
    StochasticOcrsEngine,
    VertexArrivalEngine,
    exact_trivial_oracle,
    greedy_baseline,
    monte_carlo,
    optimal_policy_dp,
    wilson_interval,
)
from .suite import CriterionResult, SuiteEntry, build_suite, run_criteria

__all__ = [
    "AttenuationSpec",
    "attenuation_profile",
    "BoundCertificate",
    "FactCheck",
    "five_var_minimize",
    "h",
    "h1",
    "phi",
    "r0_bound",
    "r1_bound",
    "verify_facts",
    "Edge",
    "EdgeStats",
    "FractionalPoint",
    "GeneratedInstance",
    "MenuEntry",
    "PricingInstance",
    "Vertex",
    "check_polytope",
    "edge_stats",
    "fractional_point_violations",
    "generate_family",
    "validate_instance",
    "LinearProgram",
    "LpSolution",
    "build_lp_pricing",
    "marginals",
    "objective_coefficients",
    "single_weight_selection",
    "solve_lp",
    "two_weight_reduction",
    "EdgeReport",
    "RoOcrsEngine",
    "SequentialPricingEngine",
    "SimulationReport",
    "StochasticOcrsEngine",
    "VertexArrivalEngine",
    "exact_trivial_oracle",
    "greedy_baseline",
    "monte_carlo",
    "optimal_policy_dp",
    "wilson_interval",
    "CriterionResult",
    "SuiteEntry",
    "build_suite",
    "run_criteria",
    "__version__",
]

__version__ = "0.1.0"
