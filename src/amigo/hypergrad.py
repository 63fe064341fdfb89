"""Hypergradients by reverse accumulation through the unrolled inner loop.

The surrogate loss replaces y*(x) with the output of T gradient steps on
g(x, .); its exact gradient is obtained by a reverse pass over the stored
inner iterates using only Hessian-vector and cross Jacobian-vector products.
Restricted to deterministic oracles: differentiating through freshly sampled
stochastic gradients is not well defined without fixing the sample path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oracle import UnsupportedOperationError

__all__ = ["UnrollTape", "ItdResult", "unroll_inner", "itd_hypergradient"]


@dataclass
class UnrollTape:
    """Inner iterates y^0 .. y^{T-1} recorded during the forward unroll."""

    x: np.ndarray
    alpha: float
    iterates: list[np.ndarray] = field(default_factory=list)
    y_final: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.iterates)


def unroll_inner(oracle, x, y0, alpha: float, T: int) -> UnrollTape:
    """Run T deterministic gradient steps on g(x, .), storing each input iterate."""
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    tape = UnrollTape(x=np.asarray(x, dtype=float), alpha=alpha)
    y = np.array(y0, dtype=float, copy=True)
    for _ in range(T):
        tape.iterates.append(y.copy())
        y = y - alpha * oracle.grad_gy(x, y)
    tape.y_final = y
    return tape


@dataclass
class ItdResult:
    grad: np.ndarray
    y_final: np.ndarray


def itd_hypergradient(oracle, x, y0, alpha: float, T: int) -> ItdResult:
    """Exact gradient of the unrolled surrogate x -> f(x, y^T(x)).

    Forward pass stores the tape of inner iterates; the reverse pass seeds
    the adjoint with grad_y f at y^T and walks the tape backwards, peeling
    one step map per iteration:

        g <- g - alpha * jvp_gxy(x, y^{t-1}, p)
        p <- p - alpha * hvp_gyy(x, y^{t-1}, p)

    With T = 0 this is just grad_x f(x, y0).  As T grows on strongly convex
    inner problems the result converges geometrically to the implicit
    outer gradient.
    """
    if getattr(oracle, "is_stochastic", False):
        raise UnsupportedOperationError("unrolled differentiation requires a deterministic oracle")
    tape = unroll_inner(oracle, x, y0, alpha, T)
    g, p = oracle.grad_f(x, tape.y_final)
    g = np.array(g, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    for t in range(T, 0, -1):
        y_prev = tape.iterates[t - 1]
        g -= alpha * oracle.jvp_gxy(x, y_prev, p)
        p -= alpha * oracle.hvp_gyy(x, y_prev, p)
    return ItdResult(grad=g, y_final=tape.y_final)
