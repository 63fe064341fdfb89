"""Inner-level solvers.

Two iterative families live here: stochastic gradient descent on the inner
cost g(x, .), and solvers for the adjoint linear system H z = -v where H is
the inner Hessian at (x, y) and v approximates grad_y f(x, y).  The linear
system is served by stochastic gradient steps (fresh Hessian batch each
step, v held fixed), by a truncated Neumann series, or by conjugate
gradient.  Every solver but conjugate gradient hands its steps to the
oracle in one bulk call (``gd_steps`` or ``linear_steps``).  The quadratic
and non-convex families answer it in closed form.  Under noise, the
gradient noise of T steps is one Gaussian draw, and N adjoint steps draw
their Hessian noise in one call and are then taken one at a time, in
place, an O(dy) update each.  The ridge family runs the
oracle's literal loop, query by query.  The solvers never inspect their
iterates: the outer loop decides once per outer iteration whether a run
has diverged.  Conjugate gradient alone raises DivergenceError, on a
curvature p'Hp it cannot divide by.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivergenceError",
    "InnerResult",
    "solve_inner_sgd",
    "solve_linear_sgd",
    "solve_linear_neumann",
    "solve_linear_cg",
]

# Step-size preconditions are warnings, not errors: grid searches probe
# aggressive steps on purpose.
_STEP_SLACK = 1.0 + 1e-12


class DivergenceError(RuntimeError):
    """A run diverged in outer iteration outer_iteration; partial_rows holds its finite rows."""

    def __init__(self, message: str):
        super().__init__(message)
        self.outer_iteration: int | None = None
        self.partial_rows: list = []


@dataclass
class InnerResult:
    """Output of an inner solver: the final iterate and bookkeeping."""

    out: np.ndarray
    iterations_used: int
    final_residual: float | None = None


def _check_budget(oracle, count_name: str, count: int, step: float, scale: float, warning: str):
    """Raise if count < 0; warn the solver's caller, warning.format(step), if scale*step*L_g > 1."""
    if count < 0:
        raise ValueError(f"{count_name} must be nonnegative, got {count}")
    if scale * step * oracle.constants().L_g > _STEP_SLACK:
        warnings.warn(warning.format(step), stacklevel=3)


def solve_inner_sgd(oracle, x, y0, alpha: float, T: int, batch_g: int = 1, rng=None) -> InnerResult:
    """T stochastic gradient steps on g(x, .) from y0, fresh batch per step."""
    _check_budget(oracle, "T", T, alpha, 1.0, "inner step size alpha={} exceeds 1/L_g; "
                  "contraction is not guaranteed")
    y = oracle.gd_steps(x, y0, alpha, T, batch_size=batch_g, rng=rng)
    return InnerResult(out=y, iterations_used=T)


def solve_linear_sgd(
    oracle, x, y, v, z0, beta: float, N: int, batch_gyy: int = 1, rng=None
) -> InnerResult:
    """N stochastic gradient steps on the adjoint quadratic from z0.

    Each step draws a fresh Hessian batch; the right-hand-side vector v is
    held fixed throughout.
    """
    _check_budget(oracle, "N", N, beta, 2.0, "linear-solver step size beta={} exceeds 1/(2 L_g); "
                  "contraction is not guaranteed")
    z = oracle.linear_steps(x, y, v, z0, beta, N, batch_size=batch_gyy, rng=rng)
    return InnerResult(out=z, iterations_used=N)


def solve_linear_neumann(oracle, x, y, v, beta: float, N: int) -> InnerResult:
    """Truncated Neumann series approximation of -inv(H) v.

    Evaluates -beta * sum_{i<N} (I - beta H)^i v.  Its partial sums are the
    iterates of the adjoint step z <- z - beta (H z + v) from -beta v, so N
    terms are N - 1 such steps and cost N - 1 Hessian-vector products.
    """
    _check_budget(oracle, "N", N, beta, 1.0, "Neumann step size beta={} exceeds 1/L_g; "
                  "the series may not converge")
    v = np.asarray(v, dtype=float)
    if N == 0:
        return InnerResult(out=np.zeros_like(v), iterations_used=0)
    return InnerResult(out=oracle.linear_steps(x, y, v, -beta * v, beta, N - 1), iterations_used=N)


def solve_linear_cg(
    oracle, x, y, v, z0=None, tol: float = 1e-10, max_iter: int = 100
) -> InnerResult:
    """Conjugate gradient for H z = -v with warm start z0.

    Stops once ||H z + v|| <= tol * max(1, ||v||) (residual tracked by the
    recurrence) or after max_iter iterations; the inner Hessian must be
    symmetric positive definite, which the oracle contract guarantees.
    """
    v = np.asarray(v, dtype=float)
    z = np.zeros_like(v) if z0 is None else np.array(z0, dtype=float, copy=True)
    r = -(v + oracle.hvp_gyy(x, y, z))
    threshold = tol * max(1.0, math.sqrt(v @ v))
    rs = float(r @ r)
    if rs**0.5 <= threshold:
        return InnerResult(out=z, iterations_used=0, final_residual=rs**0.5)
    p = r.copy()
    iterations = 0
    for i in range(1, max_iter + 1):
        hp = oracle.hvp_gyy(x, y, p)
        p_hp = float(p @ hp)
        if not math.isfinite(p_hp) or p_hp <= 0.0:
            raise DivergenceError(f"CG breakdown at iteration {i}: p'Hp = {p_hp}")
        a = rs / p_hp
        z += a * p
        r -= a * hp
        iterations = i
        rs_new = float(r @ r)
        if rs_new**0.5 <= threshold or rs_new == 0.0:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return InnerResult(out=z, iterations_used=iterations, final_residual=rs**0.5)
