"""Outer-loop drivers and the prescribed constant-step schedule.

One loop serves every driver; each supplies only its per-iteration
gradient step.  The implicit step refreshes the inner variable by
stochastic gradient steps (warm-started from the previous value or reset),
takes both partials of f on a fresh batch, solves the adjoint linear system
with the configured linear solver (warm-started or from zero) and assembles
the gradient estimate.  The unrolled step replaces the adjoint solve with
reverse accumulation through the inner loop.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hypergrad import itd_hypergradient
from .inner import (
    LINEAR_SOLVERS,
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
)
from .problems import NoiseSpec

__all__ = [
    "SolverConfig",
    "ScheduleDiagnostics",
    "RunRecord",
    "prescribed_schedule",
    "check_supported",
    "amigo_run",
    "aid_run",
    "itd_run",
]


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
                f"unknown linear solver {self.linear_solver!r}; choose from {LINEAR_SOLVERS}"
            )
        if self.u not in (0, 1):
            raise ValueError(f"the averaging switch u must be 0 or 1, got {self.u}")
        if self.T < 0 or self.N < 0 or self.K < 0:
            raise ValueError("iteration counts must be nonnegative")
        for name in ("batch_f", "batch_g", "batch_gxy", "batch_gyy"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


@dataclass
class ScheduleDiagnostics:
    """Constant-step weights and, optionally, the exact inner budgets.

    delta and eta are the fixed points of the step-weight recursion: for a
    strongly convex outer loss eta = mu and delta = mu * gamma; otherwise
    eta = L and delta = L * gamma.
    """

    delta: float
    eta: float
    exact_TN: dict | None = None


def _exact_inner_budgets(
    sc: SmoothnessConstants,
    dc: DerivedConstants,
    eta0: float,
    gamma: float,
    alpha: float,
    beta: float,
    sigma_x_sq: float,
    sigma_gxy_sq: float,
    strongly_convex: bool,
) -> dict:
    """Exact T and N from the six worst-case log constants.

    Uses the constant-step instantiation: contraction slack 1/2, unit
    coupling weights, and increments bounded through the warm-start path.
    """
    L_y, L_z, L_psi, L = dc.L_y, dc.L_z, dc.L_psi, dc.L
    if L_y <= 0 or L_z <= 0:
        missing = [n for n, v in (("Lg_prime (L_y)", L_y), ("M_g/L_f (L_z)", L_z)) if v <= 0]
        raise InvalidConstantsError(
            "exact inner budgets undefined; zero-valued derived constants: " + ", ".join(missing)
        )
    if strongly_convex:
        zeta0 = 2.0 * L * L / eta0
    else:
        zeta0 = 2.0 * L

    def log_or_inf(v: float) -> float:
        if v <= 0:
            return math.inf
        return math.log(v)

    c1 = 1.0 + 2.0 * math.log(6.0 + 24.0 * L_psi**2 / eta0)
    c2 = 2.0 * math.log(1.0 + 4.0 * L_y**2 / L**2 * max(eta0, 8.0 * zeta0))
    c3 = max(
        0.0,
        -2.0 * log_or_inf(5.0 * L_psi**2 / eta0),
        -2.0 * log_or_inf(L / (4.0 * L_y**2)),
    )
    c1p = 1.0 + 2.0 * math.log(4.0 + 12.0 / eta0 * (2.0 * L_psi**2 + sigma_x_sq))
    c2p = 2.0 * math.log(1.0 + 2.0 * L_z**2 / L_y**2 * (1.0 + 16.0 * L_y**2))
    c3p_arg = gamma * (sigma_gxy_sq + sc.Lg_prime**2)
    c3p = max(
        0.0,
        -2.0 * log_or_inf(L_psi**2 / (4.0 * L_z**2 * eta0)),
        -2.0 * log_or_inf(c3p_arg),
    )
    values = {"C1": c1, "C2": c2, "C3": c3, "C1p": c1p, "C2p": c2p, "C3p": c3p}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise InvalidConstantsError(
            f"exact inner budgets undefined; non-finite constants: {', '.join(bad)}"
        )
    t_exact = math.floor(max(c1, c2, c3) / (alpha * sc.mu_g)) + 1
    n_exact = math.floor(2.0 * (max(c1, c2, c3) + max(c1p, c2p, c3p)) / (beta * sc.mu_g)) + 1
    values["T_exact"] = t_exact
    values["N_exact"] = n_exact
    return values


def prescribed_schedule(
    constants: SmoothnessConstants,
    mu_outer: float | None = None,
    c_T: float = 1.0,
    c_N: float = 1.0,
    exact_mode: bool = False,
    *,
    L_outer: float | None = None,
    noise: NoiseSpec | None = None,
    **fields,
) -> tuple[SolverConfig, ScheduleDiagnostics]:
    """Constant-step configuration: alpha = 1/L_g, beta = 1/(2 L_g), gamma = 1/L.

    The default inner budgets are T = ceil(c_T * kappa_g) and
    N = ceil(c_N * kappa_g).  ``L_outer`` overrides the generic smoothness
    bound on the outer loss with an exact one when the problem provides it
    (the synthetic quadratic does: its outer Hessian is known).  With
    ``exact_mode`` the diagnostics additionally carry the worst-case inner
    budgets computed from the six log constants; the returned config keeps
    the default budgets so callers choose which to adopt.  Every other
    ``SolverConfig`` field is passed through ``fields`` with its default.
    """
    derived = derive_constants(constants, mu_outer)
    L = L_outer if L_outer is not None else derived.L
    if L <= 0:
        raise InvalidConstantsError(f"outer smoothness bound must be positive, got {L}")
    gamma = 1.0 / L
    alpha = 1.0 / constants.L_g
    beta = 1.0 / (2.0 * constants.L_g)
    strongly_convex = mu_outer is not None and mu_outer > 0
    eta0 = mu_outer if strongly_convex else L
    delta0 = eta0 * gamma
    config = SolverConfig(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        # The small slack absorbs eigenvalue roundoff in kappa_g so integral
        # condition numbers give integral budgets.
        T=max(1, math.ceil(c_T * derived.kappa_g - 1e-9)),
        N=max(1, math.ceil(c_N * derived.kappa_g - 1e-9)),
        mu_outer=mu_outer,
        **fields,
    )
    noise = noise or NoiseSpec()
    if noise.sigma_gyy_tilde > 0:
        required = noise.sigma_gyy_tilde**2 / (constants.mu_g * constants.L_g)
        if config.batch_gyy < required:
            warnings.warn(
                f"Hessian batch size {config.batch_gyy} is below the prescribed floor "
                f"{required:.3g} for this noise level",
                stacklevel=2,
            )
    exact = None
    if exact_mode:
        mu_g_sq = constants.mu_g**2
        sigma_gxy_sq = noise.sigma_gxy_tilde**2 / config.batch_gxy
        sigma_gyy_sq = noise.sigma_gyy_tilde**2 / config.batch_gyy
        sigma_x_sq = 2.0 * sigma_gxy_sq + 2.0 * constants.Lg_prime**2 / mu_g_sq * sigma_gyy_sq
        exact = _exact_inner_budgets(
            constants, derived, eta0, gamma, alpha, beta, sigma_x_sq, sigma_gxy_sq,
            strongly_convex,
        )
    return config, ScheduleDiagnostics(delta=delta0, eta=eta0, exact_TN=exact)


@dataclass
class RunRecord:
    """Trace of one outer run.

    rows[k] holds the metrics of the iterate after k outer updates together
    with the cumulative oracle counts spent to produce it; a completed run
    has K + 1 rows.  Iterate storage is opt-in.
    """

    rows: list[MetricRow]
    x_final: np.ndarray
    y_final: np.ndarray
    z_final: np.ndarray | None
    xhat_final: np.ndarray | None
    counter: OracleCounter
    config: SolverConfig
    wall_s: float
    iterations_run: int
    xs: list[np.ndarray] | None = None
    ys: list[np.ndarray] | None = None
    zs: list[np.ndarray] | None = None
    xhats: list[np.ndarray] | None = None


def check_supported(linear_solver: str | None, noise: NoiseSpec | None) -> None:
    """Reject a (method, noise) pair that cannot run, before any oracle query.

    ``linear_solver`` is None for the unrolled drivers, which take no noise.
    Only the ``sgd`` linear solver passes a random stream to Hessian queries.
    """
    if noise is None or not noise.any_noise:
        return
    if linear_solver is None:
        raise UnsupportedOperationError("unrolled differentiation requires a deterministic oracle")
    if linear_solver != "sgd" and noise.sigma_gyy_tilde > 0:
        raise UnsupportedOperationError(
            f"the {linear_solver!r} linear solver is deterministic; only 'sgd' takes Hessian noise"
        )


def _solve_linear(co, config: SolverConfig, x, y, v, z_start, rng):
    kind = config.linear_solver
    if kind == "sgd":
        return solve_linear_sgd(
            co, x, y, v, z_start, config.beta, config.N, batch_gyy=config.batch_gyy, rng=rng
        ).out
    if kind == "fixed_point":
        return solve_linear_sgd(co, x, y, v, z_start, config.beta, config.N).out
    if kind == "neumann":
        return solve_linear_neumann(co, x, y, v, config.beta, config.N).out
    return solve_linear_cg(co, x, y, v, z0=z_start, tol=config.cg_tol, max_iter=config.N).out


def _init_vec(value, dim: int) -> np.ndarray:
    if value is None:
        return np.zeros(dim)
    value = np.asarray(value, dtype=float)
    if value.shape != (dim,):
        raise ValueError(f"initial vector has shape {value.shape}, expected ({dim},)")
    return value


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
    a non-finite vector.
    """
    check_supported(linear_solver, getattr(oracle, "noise", None))
    counter = OracleCounter()
    co = CountingOracle(oracle, counter)
    x = np.array(x0, dtype=float, copy=True)
    if x.shape != (oracle.dims.dx,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({oracle.dims.dx},)")
    xhat = None if delta is None else x.copy()
    t0 = time.perf_counter()
    rows: list[MetricRow] = []
    if tracker is not None:
        rows.append(tracker.row(0, x, counter.snapshot(), 0.0))
    xs = [x.copy()] if store_iterates else None
    ys = [] if store_iterates else None
    zs = [] if (store_iterates and z is not None) else None
    xhats = [xhat.copy()] if (store_iterates and xhat is not None) else None
    iterations = 0
    for k in range(config.K):
        try:
            psi, y, z = step(co, k, x, y, z)
            if not (np.isfinite(y).all() and (z is None or np.isfinite(z).all())):
                raise DivergenceError(f"inner iterate diverged at outer iteration {k}")
            if metrics_hook is not None:
                zk = None if z is None else z.copy()
                metrics_hook(k, x.copy(), y.copy(), zk, counter.snapshot())
            if store_iterates:
                ys.append(y.copy())
                if zs is not None:
                    zs.append(z.copy())
            x = x - config.gamma * psi
            if not np.isfinite(x).all():
                raise DivergenceError(f"outer iterate diverged at outer iteration {k}")
            row = None
            if tracker is not None:
                row = tracker.row(k + 1, x, counter.snapshot(), time.perf_counter() - t0)
                if not all(v is None or math.isfinite(v) for v in vars(row).values()):
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
        config=config, wall_s=time.perf_counter() - t0,
        iterations_run=iterations, xs=xs, ys=ys, zs=zs, xhats=xhats,
    )


def aid_run(
    oracle,
    config: SolverConfig,
    x0,
    y_init=None,
    z_init=None,
    rng=None,
    metrics_hook: Callable | None = None,
    tracker: MetricsTracker | None = None,
    store_iterates: bool = False,
    stop: Callable[[MetricRow], bool] | None = None,
) -> RunRecord:
    """Warm-start-configurable implicit-differentiation outer loop.

    Per iteration: refresh y by inner SGD (warm or from y_init), take both
    partials of f on a fresh batch, solve the adjoint system with the
    configured linear solver (warm or from zero), assemble the gradient
    estimate and step x.  ``metrics_hook(k, x_k, y_k, z_k, counts)`` fires
    once per iteration with the pre-update iterate so hook consumers see
    aligned (x, y, z) triples.
    """
    dy = oracle.dims.dy
    y_init = _init_vec(y_init, dy)
    z_init = _init_vec(z_init, dy)
    delta = None
    if config.u == 1:
        if config.mu_outer is None or config.mu_outer <= 0:
            raise ValueError("averaging (u=1) requires a positive mu_outer")
        delta = config.mu_outer * config.gamma
        if not 0 < delta <= 1:
            raise ValueError(f"averaging weight delta={delta} outside (0, 1]")

    def step(co, k, x, y, z):
        y_start = y if config.warm_y else y_init
        y = solve_inner_sgd(
            co, x, y_start, config.alpha, config.T, batch_g=config.batch_g, rng=rng
        ).out
        u_vec, v_vec = co.grad_f(x, y, batch_size=config.batch_f, rng=rng)
        z_start = z if config.warm_z else np.zeros(dy)
        z = _solve_linear(co, config, x, y, v_vec, z_start, rng)
        w_vec = co.jvp_gxy(x, y, z, batch_size=config.batch_gxy, rng=rng)
        return u_vec + w_vec, y, z

    return _outer_loop(
        oracle, config, x0, y_init.copy(), z_init.copy(), step, config.linear_solver, delta,
        metrics_hook, tracker, store_iterates, stop,
    )


def amigo_run(
    oracle,
    config: SolverConfig,
    x0,
    y_init=None,
    z_init=None,
    rng=None,
    metrics_hook: Callable | None = None,
    **kwargs,
) -> RunRecord:
    """The fully warm-started driver; requires both warm-start switches on."""
    if not (config.warm_y and config.warm_z):
        raise ValueError("this driver warm-starts both inner solvers; use aid_run otherwise")
    return aid_run(
        oracle, config, x0, y_init=y_init, z_init=z_init, rng=rng,
        metrics_hook=metrics_hook, **kwargs,
    )


def itd_run(
    oracle,
    config: SolverConfig,
    x0,
    y_init=None,
    metrics_hook: Callable | None = None,
    tracker: MetricsTracker | None = None,
    store_iterates: bool = False,
    stop: Callable[[MetricRow], bool] | None = None,
    increasing_T: bool = False,
) -> RunRecord:
    """Outer loop driven by unrolled-differentiation hypergradients.

    The inner variable is always warm-started across outer iterations.  With
    ``increasing_T`` the unroll length grows as ceil(T * log(k + 2)).
    Deterministic oracles only; the averaging switch u is ignored.
    """

    def step(co, k, x, y, z):
        T_k = math.ceil(config.T * math.log(k + 2)) if increasing_T else config.T
        result = itd_hypergradient(co, x, y, config.alpha, T_k)
        return result.grad, result.y_final, None

    return _outer_loop(
        oracle, config, x0, _init_vec(y_init, oracle.dims.dy), None, step, None, None,
        metrics_hook, tracker, store_iterates, stop,
    )
