"""Warm-started approximate implicit differentiation for bilevel optimization.

The package bundles: oracle interfaces and smoothness-constant algebra
(:mod:`amigo.oracle`), synthetic problem generators with closed-form
references (:mod:`amigo.problems`), inner and linear-system solvers
(:mod:`amigo.inner`), unrolled-differentiation hypergradients
(:mod:`amigo.hypergrad`), outer-loop drivers and schedules
(:mod:`amigo.outer`), oracle-call accounting and convergence metrics
(:mod:`amigo.metrics`), and the command-line harness (:mod:`amigo.cli`).
"""

from .hypergrad import ItdResult, UnrollTape, itd_hypergradient, unroll_inner
from .inner import (
    DivergenceError,
    InnerResult,
    solve_inner_sgd,
    solve_linear_cg,
    solve_linear_neumann,
    solve_linear_sgd,
)
from .metrics import (
    CountingOracle,
    MetricRow,
    MetricsTracker,
    OracleCounter,
    complexity_formula,
)
from .oracle import (
    BilevelOracle,
    DerivedConstants,
    Dims,
    InvalidConstantsError,
    SmoothnessConstants,
    UnsupportedOperationError,
    derive_constants,
    psi_hat,
)
from .outer import (
    RunRecord,
    ScheduleDiagnostics,
    SolverConfig,
    aid_run,
    amigo_run,
    itd_run,
    prescribed_schedule,
)
from .problems import (
    ConfigurationError,
    InvalidSpectrumError,
    NoiseSpec,
    NonconvexOuterProblem,
    QuadraticProblem,
    RidgeHPOProblem,
    StochasticOracle,
    describe_problem,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    gen_spd,
    load_problem,
    make_stochastic,
    save_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BilevelOracle",
    "ConfigurationError",
    "CountingOracle",
    "DerivedConstants",
    "Dims",
    "DivergenceError",
    "InnerResult",
    "InvalidConstantsError",
    "InvalidSpectrumError",
    "ItdResult",
    "MetricRow",
    "MetricsTracker",
    "NoiseSpec",
    "NonconvexOuterProblem",
    "OracleCounter",
    "QuadraticProblem",
    "RidgeHPOProblem",
    "RunRecord",
    "ScheduleDiagnostics",
    "SmoothnessConstants",
    "SolverConfig",
    "StochasticOracle",
    "UnrollTape",
    "UnsupportedOperationError",
    "aid_run",
    "amigo_run",
    "complexity_formula",
    "derive_constants",
    "describe_problem",
    "gen_nonconvex",
    "gen_quadratic",
    "gen_ridge_hpo",
    "gen_spd",
    "itd_hypergradient",
    "itd_run",
    "load_problem",
    "make_stochastic",
    "prescribed_schedule",
    "psi_hat",
    "save_problem",
    "solve_inner_sgd",
    "solve_linear_cg",
    "solve_linear_neumann",
    "solve_linear_sgd",
    "unroll_inner",
]
