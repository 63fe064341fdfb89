"""Outer-loop drivers and the prescribed constant-step schedule.

One loop serves every driver; each supplies only its per-iteration
gradient step.  The implicit step refreshes the inner variable by
stochastic gradient steps (warm-started from the previous value or reset),
takes both partials of f on a fresh batch, solves the adjoint linear system
with the configured linear solver (warm-started or from zero) and assembles
the gradient estimate.  The unrolled step replaces the adjoint solve with
the oracle's gradient through the unrolled inner loop (itd_hypergradient):
the exact gradient of the surrogate loss that replaces y*(x) with T gradient
steps on g(x, .), which the oracle's bulk method unrolled_grad computes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .inner import (
    DivergenceError,
    solve_inner_sgd,
    solve_linear_cg,
    solve_linear_neumann,
    solve_linear_sgd,
)
from .metrics import CountingOracle, MetricRow, MetricsTracker, OracleCounter
from .oracle import (
    DerivedConstants,
    InvalidConstantsError,
    SmoothnessConstants,
    UnsupportedOperationError,
    derive_constants,
    vector,
)
from .problems import NoiseSpec, check_hessian_noise

__all__ = [
    "SolverConfig",
    "RunRecord",
    "prescribed_schedule",
    "check_supported",
    "amigo_run",
    "aid_run",
    "ItdResult",
    "itd_hypergradient",
    "itd_run",
]


# Each linear-solver kind: (takes Hessian noise, adjoint solve).  A solve maps (co, config,
# x, y, v, z_start, rng) to the InnerResult of H z = -v; only a noisy kind uses rng.  It looks
# its solver up in this module when called, so a wrapper set there sees every call.
LINEAR_SOLVERS = {
    "sgd": (True, lambda co, c, x, y, v, z, rng: solve_linear_sgd(
        co, x, y, v, z, c.beta, c.N, batch_gyy=c.batch_gyy, rng=rng)),
    "fixed_point": (False, lambda co, c, x, y, v, z, rng: solve_linear_sgd(
        co, x, y, v, z, c.beta, c.N)),
    "neumann": (False, lambda co, c, x, y, v, z, rng: solve_linear_neumann(
        co, x, y, v, c.beta, c.N)),
    "cg": (False, lambda co, c, x, y, v, z, rng: solve_linear_cg(
        co, x, y, v, z0=z, tol=c.cg_tol, max_iter=c.N)),
}


@dataclass
class SolverConfig:
    """Step sizes, inner budgets, batch sizes and warm-start switches."""

    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 1.0
    T: int = 1
    N: int = 1
    batch_f: int = 1
    batch_g: int = 1
    batch_gxy: int = 1
    batch_gyy: int = 1
    warm_y: bool = True
    warm_z: bool = True
    linear_solver: str = "sgd"
    cg_tol: float = 1e-10
    K: int = 100
    u: int = 0
    mu_outer: float | None = None

    def __post_init__(self) -> None:
        if self.linear_solver not in LINEAR_SOLVERS:
            raise ValueError(
                f"unknown linear solver {self.linear_solver!r}; choose from {list(LINEAR_SOLVERS)}"
            )
        if self.u not in (0, 1):
            raise ValueError(f"the averaging switch u must be 0 or 1, got {self.u}")
        for name in ("alpha", "beta", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"step size {name} must be positive, got {getattr(self, name)}")
        if not self.cg_tol >= 0:
            raise ValueError(f"cg_tol must be nonnegative, got {self.cg_tol}")
        if self.T < 0 or self.N < 0 or self.K < 0:
            raise ValueError("iteration counts must be nonnegative")
        for name in ("batch_f", "batch_g", "batch_gxy", "batch_gyy"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


def prescribed_schedule(
    constants: SmoothnessConstants,
    mu_outer: float | None = None,
    *,
    L_outer: float | None = None,
    noise: NoiseSpec | None = None,
    **fields,
) -> tuple[SolverConfig, DerivedConstants]:
    """Constant-step configuration: alpha = 1/L_g, beta = 1/(2 L_g), gamma = 1/L.

    Returns the configuration and the derived constants it was taken from.
    The inner budgets are T = N = ceil(kappa_g).  ``L_outer`` overrides the
    generic smoothness bound on the outer loss with an exact one when the
    problem provides it (the synthetic quadratic does: its outer Hessian is
    known).  ``mu_outer``, the outer strong-convexity modulus, is stored for
    the averaging weight mu_outer * gamma.  Every other ``SolverConfig``
    field is passed through ``fields`` with its default.  Given ``noise``
    must pass the Hessian-noise rule (``check_hessian_noise``).
    """
    derived = derive_constants(constants)
    L = L_outer if L_outer is not None else derived.L
    if L <= 0:
        raise InvalidConstantsError(f"outer smoothness bound must be positive, got {L}")
    gamma = 1.0 / L
    alpha = 1.0 / constants.L_g
    beta = 1.0 / (2.0 * constants.L_g)
    # The small slack absorbs eigenvalue roundoff in kappa_g so integral
    # condition numbers give integral budgets.
    budget = max(1, math.ceil(derived.kappa_g - 1e-9))
    config = SolverConfig(
        alpha=alpha, beta=beta, gamma=gamma, T=budget, N=budget, mu_outer=mu_outer, **fields
    )
    if noise is not None:
        check_hessian_noise(noise, constants.mu_g)
    return config, derived


@dataclass
class RunRecord:
    """Trace of one outer run.

    rows[k] holds the metrics of the iterate after k outer updates together
    with the cumulative oracle counts spent to produce it; a completed run
    has K + 1 rows.  Storage of the x (and xhat) iterates is opt-in; the
    drivers' ``metrics_hook`` sees each y_k and z_k.
    """

    rows: list[MetricRow]
    x_final: np.ndarray
    y_final: np.ndarray
    z_final: np.ndarray | None
    xhat_final: np.ndarray | None
    counter: OracleCounter
    wall_s: float
    iterations_run: int
    xs: list[np.ndarray] | None = None
    xhats: list[np.ndarray] | None = None


def check_supported(linear_solver: str | None, noise: NoiseSpec | None) -> None:
    """Reject a (method, noise) pair that cannot run, before any oracle query.

    ``linear_solver`` is None for the unrolled drivers, which take no noise.
    A linear-solver kind takes Hessian noise if its LINEAR_SOLVERS entry says so.
    """
    if noise is None or not noise.any_noise:
        return
    if linear_solver is None:
        raise UnsupportedOperationError("unrolled differentiation requires a deterministic oracle")
    noisy = [kind for kind, (takes_noise, _) in LINEAR_SOLVERS.items() if takes_noise]
    if noise.sigma_gyy_tilde > 0 and linear_solver not in noisy:
        raise UnsupportedOperationError(f"the {linear_solver!r} linear solver is deterministic; "
                                        f"only {', '.join(map(repr, noisy))} takes Hessian noise")


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite.

    ``np.count_nonzero`` counts the mask in C, with neither ``ndarray.all``'s
    Python wrapper nor a ufunc reduction's set-up.
    """
    return np.count_nonzero(np.isfinite(a)) == a.size


def _finite_row(row: MetricRow) -> bool:
    """Whether the row's five float fields are finite, skipping those that are None.

    The other three are finite by construction: k and cost are counts and
    wall_s is a clock reading.
    """
    return (math.isfinite(row.grad_norm_sq) and math.isfinite(row.avg_grad_norm_sq)
            and (row.rel_error is None or math.isfinite(row.rel_error))
            and (row.combined_sc is None or math.isfinite(row.combined_sc))
            and (row.energy_x is None or math.isfinite(row.energy_x)))


def _outer_loop(
    oracle, config: SolverConfig, x0, y, z, step: Callable, linear_solver: str | None,
    delta: float | None, metrics_hook, tracker, store_iterates, stop,
) -> RunRecord:
    """The outer loop every driver shares, and the one place that decides divergence.

    ``step(co, k, x, y, z)`` returns ``(psi, y, z)``: the gradient estimate
    at x and the refreshed inner variables, with z None for drivers that
    keep no adjoint.  With an averaging weight ``delta`` the loop also
    tracks xhat.  Iteration k diverges when y, z, the updated x or the new
    metric row is non-finite (non-finite values are absorbing under the
    solvers' affine updates, so one check per iteration suffices), or when
    the step raises DivergenceError.  The error leaves carrying k and the
    rows recorded before it; ``metrics_hook`` and iterate storage never see
    a non-finite vector.  A non-finite x0, or a non-finite row 0 (a problem
    whose scale overflows at x0), is a ValueError, raised before the first
    query.

    Row 0 and the iterations run under one ``np.errstate(over="ignore",
    invalid="ignore")``: these checks, not numpy's overflow and invalid
    warnings, report a run that diverges, and it ends in its
    DivergenceError without such a warning first.
    """
    check_supported(linear_solver, oracle.noise)
    counter = OracleCounter()
    co = CountingOracle(oracle, counter)
    x = vector("x0", x0, oracle.dims.dx).copy()
    if not np.isfinite(x).all():
        raise ValueError("x0 has a non-finite entry")
    xhat = None if delta is None else x.copy()
    t0 = time.perf_counter()
    rows: list[MetricRow] = []
    with np.errstate(over="ignore", invalid="ignore"):
        if tracker is not None:
            rows.append(tracker.row(0, x, counter, 0.0))
            if not _finite_row(rows[0]):
                raise ValueError(f"metric row 0 at x0 has a non-finite entry: {rows[0]}")
        xs = [x.copy()] if store_iterates else None
        xhats = [xhat.copy()] if (store_iterates and xhat is not None) else None
        iterations = 0
        for k in range(config.K):
            try:
                psi, y, z = step(co, k, x, y, z)
                if not (_all_finite(y) and (z is None or _all_finite(z))):
                    raise DivergenceError(f"inner iterate diverged at outer iteration {k}")
                if metrics_hook is not None:
                    zk = None if z is None else z.copy()
                    metrics_hook(k, x.copy(), y.copy(), zk, counter.snapshot())
                x = x - config.gamma * psi
                if not _all_finite(x):
                    raise DivergenceError(f"outer iterate diverged at outer iteration {k}")
                row = None
                if tracker is not None:
                    row = tracker.row(k + 1, x, counter, time.perf_counter() - t0)
                    if not _finite_row(row):
                        raise DivergenceError(f"metric row diverged at outer iteration {k}")
            except DivergenceError as err:
                err.outer_iteration = k
                err.partial_rows = rows
                raise
            if xhat is not None:
                xhat = (1.0 - delta) * xhat + delta * x
            iterations = k + 1
            if store_iterates:
                xs.append(x.copy())
                if xhats is not None:
                    xhats.append(xhat.copy())
            if row is not None:
                rows.append(row)
                if stop is not None and stop(row):
                    break
    return RunRecord(
        rows=rows, x_final=x, y_final=y, z_final=z, xhat_final=xhat, counter=counter,
        wall_s=time.perf_counter() - t0,
        iterations_run=iterations, xs=xs, xhats=xhats,
    )


def aid_run(
    oracle,
    config: SolverConfig,
    x0,
    rng=None,
    metrics_hook: Callable | None = None,
    tracker: MetricsTracker | None = None,
    store_iterates: bool = False,
    stop: Callable[[MetricRow], bool] | None = None,
) -> RunRecord:
    """Warm-start-configurable implicit-differentiation outer loop.

    y and z start at zero.  Per iteration: refresh y by inner SGD (warm, or
    from zero), take both partials of f on a fresh batch, solve the adjoint
    system with the configured linear solver (warm, or from zero), assemble
    the gradient estimate and step x.  ``metrics_hook(k, x_k, y_k, z_k,
    counts)`` fires once per iteration with the pre-update iterate so hook
    consumers see aligned (x, y, z) triples.  A noisy oracle needs ``rng``.
    """
    if oracle.is_stochastic and rng is None:
        raise ValueError("a noisy oracle needs a random stream: pass rng")
    dy = oracle.dims.dy
    delta = None
    if config.u == 1:
        if config.mu_outer is None or config.mu_outer <= 0:
            raise ValueError("averaging (u=1) requires a positive outer modulus mu_outer")
        delta = config.mu_outer * config.gamma
        if not 0 < delta <= 1:
            raise ValueError(f"averaging weight delta={delta} outside (0, 1]")

    _, solve_linear = LINEAR_SOLVERS[config.linear_solver]

    def step(co, k, x, y, z):
        y_start = y if config.warm_y else np.zeros(dy)
        y = solve_inner_sgd(
            co, x, y_start, config.alpha, config.T, batch_g=config.batch_g, rng=rng
        ).out
        u_vec, v_vec = co.grad_f(x, y, batch_size=config.batch_f, rng=rng)
        z_start = z if config.warm_z else np.zeros(dy)
        z = solve_linear(co, config, x, y, v_vec, z_start, rng).out
        w_vec = co.jvp_gxy(x, y, z, batch_size=config.batch_gxy, rng=rng)
        return u_vec + w_vec, y, z

    return _outer_loop(
        oracle, config, x0, np.zeros(dy), np.zeros(dy), step, config.linear_solver, delta,
        metrics_hook, tracker, store_iterates, stop,
    )


def amigo_run(oracle, config: SolverConfig, x0, **kwargs) -> RunRecord:
    """aid_run for a configuration that warm-starts both inner solvers, as AmIGO does."""
    if not (config.warm_y and config.warm_z):
        raise ValueError("this driver warm-starts both inner solvers; use aid_run otherwise")
    return aid_run(oracle, config, x0, **kwargs)


class ItdResult(NamedTuple):
    grad: np.ndarray
    y_final: np.ndarray


def itd_hypergradient(oracle, x, y0, alpha: float, T: int) -> ItdResult:
    """Exact gradient of the unrolled surrogate x -> f(x, y^T(x)), from oracle.unrolled_grad.

    With T = 0 this is just grad_x f(x, y0).  As T grows on strongly convex
    inner problems the result converges geometrically to the implicit outer
    gradient.  Deterministic oracles only: differentiating through freshly
    sampled stochastic gradients is not well defined without fixing the
    sample path.
    """
    if oracle.is_stochastic:
        raise UnsupportedOperationError("unrolled differentiation requires a deterministic oracle")
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    return ItdResult(*oracle.unrolled_grad(x, y0, alpha, T))


def itd_run(
    oracle,
    config: SolverConfig,
    x0,
    metrics_hook: Callable | None = None,
    tracker: MetricsTracker | None = None,
    store_iterates: bool = False,
    stop: Callable[[MetricRow], bool] | None = None,
    increasing_T: bool = False,
) -> RunRecord:
    """Outer loop driven by unrolled-differentiation hypergradients.

    The inner variable starts at zero and is always warm-started across
    outer iterations.  With ``increasing_T`` the unroll length grows as
    ceil(T * log(k + 2)).  Deterministic oracles only; the averaging switch
    u is ignored.
    """

    def step(co, k, x, y, z):
        T_k = math.ceil(config.T * math.log(k + 2)) if increasing_T else config.T
        result = itd_hypergradient(co, x, y, config.alpha, T_k)
        return result.grad, result.y_final, None

    return _outer_loop(
        oracle, config, x0, np.zeros(oracle.dims.dy), None, step, None, None, metrics_hook,
        tracker, store_iterates, stop,
    )
