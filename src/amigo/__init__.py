"""Warm-started approximate implicit differentiation for bilevel optimization.

The package bundles: oracle interfaces and smoothness-constant algebra
(:mod:`amigo.oracle`), synthetic problem generators with closed-form
references (:mod:`amigo.problems`), inner and linear-system solvers
(:mod:`amigo.inner`), outer-loop drivers, schedules and unrolled-
differentiation hypergradients (:mod:`amigo.outer`), oracle-call
accounting and convergence metrics (:mod:`amigo.metrics`), and the
command-line harness (:mod:`amigo.cli`).

Importing it sets the execution model, one BLAS thread per process: the
thread variables the environment leaves unset become 1 before numpy loads,
so a run's arithmetic does not follow the host's core count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .inner import (
    DivergenceError,
    solve_inner_sgd,
    solve_linear_cg,
    solve_linear_neumann,
    solve_linear_sgd,
)
from .metrics import (
    CountingOracle,
    MetricsTracker,
    OracleCounter,
    complexity_formula,
)
from .oracle import (
    Dims,
    InvalidConstantsError,
    SmoothnessConstants,
    UnsupportedOperationError,
    derive_constants,
    psi_hat,
)
from .outer import (
    SolverConfig,
    aid_run,
    amigo_run,
    itd_hypergradient,
    itd_run,
    prescribed_schedule,
)
from .problems import (
    ConfigurationError,
    InvalidSpectrumError,
    NoiseSpec,
    QuadraticProblem,
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
    "ConfigurationError",
    "CountingOracle",
    "Dims",
    "DivergenceError",
    "InvalidConstantsError",
    "InvalidSpectrumError",
    "MetricsTracker",
    "NoiseSpec",
    "OracleCounter",
    "QuadraticProblem",
    "SmoothnessConstants",
    "SolverConfig",
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
]
