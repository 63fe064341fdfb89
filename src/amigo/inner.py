"""Inner-level solvers.

Two iterative families live here: stochastic gradient descent on the inner
cost g(x, .), and solvers for the adjoint linear system H z = -v where H is
the inner Hessian at (x, y) and v approximates grad_y f(x, y).  The linear
system is served by stochastic gradient steps (fresh Hessian batch each
step, v held fixed), by its deterministic fixed-point alias, by a truncated
Neumann series, or by conjugate gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivergenceError",
    "InnerResult",
    "LINEAR_SOLVERS",
    "solve_inner_sgd",
    "solve_linear_sgd",
    "solve_linear_fixed_point",
    "solve_linear_neumann",
    "solve_linear_cg",
]

LINEAR_SOLVERS = ("sgd", "cg", "fixed_point", "neumann")

# Step-size preconditions are warnings, not errors: grid searches probe
# aggressive steps on purpose.
_STEP_SLACK = 1.0 + 1e-12


class DivergenceError(RuntimeError):
    """A solver produced a non-finite iterate; partial_rows holds a driver's recorded rows."""

    def __init__(self, message: str, step: int | None = None,
                 outer_iteration: int | None = None, partial_rows: list | None = None):
        super().__init__(message)
        self.step = step
        self.outer_iteration = outer_iteration
        self.partial_rows = [] if partial_rows is None else partial_rows


@dataclass
class InnerResult:
    """Output of an inner solver: the final iterate and bookkeeping."""

    out: np.ndarray
    iterations_used: int
    final_residual: float | None = None


def _ensure_finite(vec: np.ndarray, step: int, what: str) -> None:
    if not np.all(np.isfinite(vec)):
        raise DivergenceError(f"{what} diverged: non-finite iterate at step {step}", step=step)


def solve_inner_sgd(oracle, x, y0, alpha: float, T: int, batch_g: int = 1, rng=None) -> InnerResult:
    """T stochastic gradient steps on g(x, .) from y0, fresh batch per step."""
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if alpha * oracle.constants().L_g > _STEP_SLACK:
        warnings.warn(
            f"inner step size alpha={alpha} exceeds 1/L_g; contraction is not guaranteed",
            stacklevel=2,
        )
    y = np.array(y0, dtype=float, copy=True)
    for t in range(1, T + 1):
        y -= alpha * oracle.grad_gy(x, y, batch_size=batch_g, rng=rng)
        _ensure_finite(y, t, "inner SGD")
    return InnerResult(out=y, iterations_used=T)


def solve_linear_sgd(
    oracle, x, y, v, z0, beta: float, N: int, batch_gyy: int = 1, rng=None
) -> InnerResult:
    """N stochastic gradient steps on the adjoint quadratic from z0.

    Each step draws a fresh Hessian batch; the right-hand-side vector v is
    held fixed throughout.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if 2.0 * beta * oracle.constants().L_g > _STEP_SLACK:
        warnings.warn(
            f"linear-solver step size beta={beta} exceeds 1/(2 L_g); "
            "contraction is not guaranteed",
            stacklevel=2,
        )
    z = np.array(z0, dtype=float, copy=True)
    for n in range(1, N + 1):
        z -= beta * (oracle.hvp_gyy(x, y, z, batch_size=batch_gyy, rng=rng) + v)
        _ensure_finite(z, n, "linear-system SGD")
    return InnerResult(out=z, iterations_used=N)


def solve_linear_fixed_point(oracle, x, y, v, beta: float, N: int, z0=None) -> InnerResult:
    """Deterministic fixed-point iteration for H z = -v; alias of the SGD path."""
    if z0 is None:
        z0 = np.zeros(oracle.dims.dy)
    return solve_linear_sgd(oracle, x, y, v, z0, beta, N, batch_gyy=1, rng=None)


def solve_linear_neumann(oracle, x, y, v, beta: float, N: int) -> InnerResult:
    """Truncated Neumann series approximation of -inv(H) v.

    Evaluates -beta * sum_{i<N} (I - beta H)^i v by accumulating the powers,
    which costs N - 1 Hessian-vector products for N terms.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if beta * oracle.constants().L_g > _STEP_SLACK:
        warnings.warn(
            f"Neumann step size beta={beta} exceeds 1/L_g; the series may not converge",
            stacklevel=2,
        )
    if N == 0:
        return InnerResult(out=np.zeros_like(np.asarray(v, dtype=float)), iterations_used=0)
    term = np.array(v, dtype=float, copy=True)
    acc = term.copy()
    for i in range(1, N):
        term -= beta * oracle.hvp_gyy(x, y, term)
        _ensure_finite(term, i, "Neumann series")
        acc += term
    return InnerResult(out=-beta * acc, iterations_used=N)


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
    _ensure_finite(r, 0, "CG")
    threshold = tol * max(1.0, float(np.linalg.norm(v)))
    rs = float(r @ r)
    if rs**0.5 <= threshold:
        return InnerResult(out=z, iterations_used=0, final_residual=rs**0.5)
    p = r.copy()
    iterations = 0
    for i in range(1, max_iter + 1):
        hp = oracle.hvp_gyy(x, y, p)
        p_hp = float(p @ hp)
        if not np.isfinite(p_hp) or p_hp <= 0.0:
            raise DivergenceError(f"CG breakdown at iteration {i}: p'Hp = {p_hp}", step=i)
        a = rs / p_hp
        z += a * p
        r -= a * hp
        _ensure_finite(z, i, "CG")
        iterations = i
        rs_new = float(r @ r)
        if rs_new**0.5 <= threshold or rs_new == 0.0:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return InnerResult(out=z, iterations_used=iterations, final_residual=rs**0.5)
