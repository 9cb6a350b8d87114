"""Spectral solvers and scaling-law tooling for the exciton-polariton
system and the nonlinear Schrodinger equation at short times.

The photon field disperses, the exciton field carries the nonlinearity,
and the question is how long the fully linear approximation stays within
a relative error eps of the truth.  The answer is a power law
t = C eps^beta whose exponent this package both predicts in closed form
and measures numerically.
"""

__version__ = "0.1.0"

from .grid import (
    Field,
    Grid,
    default_sobolev_index,
    free_propagate,
    gaussian_initial,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from .evolution import (
    EPState,
    ErrorCurve,
    ModelParams,
    SolverBlowupError,
    StepSpec,
    Trajectory,
    evolve_composite_tilde,
    evolve_ep,
    evolve_linear_b,
    evolve_nls,
    evolve_system_a,
    relative_error_curve,
    zero_state,
)
from .theory import (
    BetaPrediction,
    BoundConstants,
    LemmaQInput,
    NoRealRootsError,
    beta_predict,
    bound_constants,
    existence_horizon,
    lemma_roots,
    q_eval,
    y1_pow_p_series,
    y1_series,
    y_star,
    y_star_series,
)
from .sweep import (
    AlgorithmAResult,
    CrossingRecord,
    NoCrossingError,
    RegressionResult,
    SweepConfig,
    compute_error_curve,
    find_crossing,
    regress_loglog,
    run_algorithm_a,
    run_error_curves,
)
from .config import ConfigError, parse_config, serialize_config

__all__ = [
    "AlgorithmAResult",
    "BetaPrediction",
    "BoundConstants",
    "ConfigError",
    "CrossingRecord",
    "EPState",
    "ErrorCurve",
    "Field",
    "Grid",
    "LemmaQInput",
    "ModelParams",
    "NoCrossingError",
    "NoRealRootsError",
    "RegressionResult",
    "SolverBlowupError",
    "StepSpec",
    "SweepConfig",
    "Trajectory",
    "beta_predict",
    "bound_constants",
    "compute_error_curve",
    "default_sobolev_index",
    "evolve_composite_tilde",
    "evolve_ep",
    "evolve_linear_b",
    "evolve_nls",
    "evolve_system_a",
    "existence_horizon",
    "find_crossing",
    "free_propagate",
    "gaussian_initial",
    "l2_norm",
    "lemma_roots",
    "make_grid",
    "parse_config",
    "q_eval",
    "regress_loglog",
    "relative_error_curve",
    "run_algorithm_a",
    "run_error_curves",
    "serialize_config",
    "sobolev_norm",
    "y1_pow_p_series",
    "y1_series",
    "y_star",
    "y_star_series",
    "zero_state",
    "__version__",
]
