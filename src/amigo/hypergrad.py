"""Hypergradients by reverse accumulation through the unrolled inner loop.

The surrogate loss replaces y*(x) with the output of T gradient steps on
g(x, .); its exact gradient is obtained by a reverse pass over the stored
inner iterates using only Hessian-vector and cross Jacobian-vector products.
Restricted to deterministic oracles: differentiating through freshly sampled
stochastic gradients is not well defined without fixing the sample path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import UnsupportedOperationError

__all__ = ["ItdResult", "itd_hypergradient"]


@dataclass
class ItdResult:
    grad: np.ndarray
    y_final: np.ndarray


def itd_hypergradient(oracle, x, y0, alpha: float, T: int) -> ItdResult:
    """Exact gradient of the unrolled surrogate x -> f(x, y^T(x)).

    The forward pass runs T gradient steps on g(x, .), storing each input
    iterate y^0 .. y^{T-1}; the reverse pass seeds the adjoint with
    grad_y f at y^T and walks the stored iterates backwards, peeling
    one step map per iteration:

        g <- g - alpha * jvp_gxy(x, y^{t-1}, p)
        p <- p - alpha * hvp_gyy(x, y^{t-1}, p)

    With T = 0 this is just grad_x f(x, y0).  As T grows on strongly convex
    inner problems the result converges geometrically to the implicit
    outer gradient.
    """
    if oracle.is_stochastic:
        raise UnsupportedOperationError("unrolled differentiation requires a deterministic oracle")
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    iterates = []
    y = np.array(y0, dtype=float, copy=True)
    for _ in range(T):
        # y is rebound, never updated in place, so each stored iterate stays intact.
        iterates.append(y)
        y = y - alpha * oracle.grad_gy(x, y)
    g, p = oracle.grad_f(x, y)
    g = np.array(g, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    for y_prev in reversed(iterates):
        g -= alpha * oracle.jvp_gxy(x, y_prev, p)
        p -= alpha * oracle.hvp_gyy(x, y_prev, p)
    return ItdResult(grad=g, y_final=y)
