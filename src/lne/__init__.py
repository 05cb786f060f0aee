"""Scale-invariant logarithmic norm entropy and friends.

A numerics library for generalized entropy on finite state spaces: the
two-parameter logarithmic norm entropy and its cross-entropy, the
classical families they generalize (Shannon, Renyi, Tsallis, Kapur,
norm, Aczel-Daroczy), q-deformed calculus, and constrained MaxEnt /
minimum-cross-entropy solvers under normalized q-expectation
constraints.
"""

from .numkit import (
    TOL_MASS,
    EntropyParams,
    as_weights,
    escort,
    is_probability,
    is_subprobability,
    log_norm,
    majorizes,
    product_compose,
    robin_hood_transfer,
    total_mass,
)
from .qdeform import q_exp, q_log
from .entropy import (
    EntropyValue,
    aczel_daroczy,
    gm_subadditivity_rhs,
    kapur,
    lne,
    lne_min_entropy_limit,
    norm_entropy,
    renyi,
    shannon,
    tsallis,
)
from .crossent import CrossEntropyValue, SupportError, lnce, relative_entropy_bridge
from .optimize import (
    ConstraintSet,
    ConvergenceError,
    DegenerateConstraintError,
    InfeasibleError,
    MaxEntSolution,
    SolverConfig,
    SolverReport,
    normalized_q_expectation,
    solve_maxent,
    solve_minxent,
)

__version__ = "0.1.0"

__all__ = [
    "TOL_MASS",
    "EntropyParams",
    "EntropyValue",
    "CrossEntropyValue",
    "ConstraintSet",
    "ConvergenceError",
    "DegenerateConstraintError",
    "InfeasibleError",
    "MaxEntSolution",
    "SolverConfig",
    "SolverReport",
    "SupportError",
    "as_weights",
    "aczel_daroczy",
    "escort",
    "gm_subadditivity_rhs",
    "is_probability",
    "is_subprobability",
    "kapur",
    "lnce",
    "lne",
    "lne_min_entropy_limit",
    "log_norm",
    "majorizes",
    "norm_entropy",
    "normalized_q_expectation",
    "product_compose",
    "q_exp",
    "q_log",
    "relative_entropy_bridge",
    "renyi",
    "robin_hood_transfer",
    "shannon",
    "solve_maxent",
    "solve_minxent",
    "total_mass",
    "tsallis",
]
