"""Fairness-constrained recommendation policies.

Computes policies that maximize user-side fairness subject to the items
keeping a chosen fraction of their best attainable fairness, quantifies the
price of that constraint and of utility misestimation, and provides exact
closed forms for structured two-type and misestimated populations.
"""
__version__ = "0.1.0"

from .analytic import (
    MisestSolution,
    MisestSpec,
    TwoTypeSolution,
    TwoTypeSpec,
    misest_solution,
    two_type_pof_curve,
    two_type_solution,
)
from .core import (
    MAX_MIN,
    FairnessMeasure,
    ItemUtilityModel,
    MeasureKind,
    RecommendationPolicy,
    UtilityMatrix,
    item_utility_vector,
    measure_value,
    user_utility_vector,
)
from .lp import LPSolverError, LPStatus
from .numerics import NonConvergenceError, nash_concave_solve
from .optimizer import (
    IfStarResult,
    Problem,
    Scope,
    TieBreak,
    TradeoffCurve,
    TradeoffRow,
    UfStarResult,
    compute_uf_star,
    misestimated_users,
    price_of_fairness,
    price_of_misestimation,
    reduce_by_types,
    tradeoff_sweep,
)
from .io import MatrixFormatError, load_utility_csv, save_utility_csv
from .populations import (
    MisestimationData,
    gen_homogeneous,
    gen_misestimation,
    gen_two_type,
)

__all__ = [
    "MAX_MIN",
    "FairnessMeasure",
    "IfStarResult",
    "ItemUtilityModel",
    "LPSolverError",
    "LPStatus",
    "MatrixFormatError",
    "MeasureKind",
    "MisestSolution",
    "MisestSpec",
    "MisestimationData",
    "NonConvergenceError",
    "Problem",
    "RecommendationPolicy",
    "Scope",
    "TieBreak",
    "TradeoffCurve",
    "TradeoffRow",
    "TwoTypeSolution",
    "TwoTypeSpec",
    "UfStarResult",
    "UtilityMatrix",
    "compute_uf_star",
    "gen_homogeneous",
    "gen_misestimation",
    "gen_two_type",
    "item_utility_vector",
    "load_utility_csv",
    "measure_value",
    "misest_solution",
    "misestimated_users",
    "nash_concave_solve",
    "price_of_fairness",
    "price_of_misestimation",
    "reduce_by_types",
    "save_utility_csv",
    "tradeoff_sweep",
    "two_type_pof_curve",
    "two_type_solution",
    "user_utility_vector",
    "__version__",
]
