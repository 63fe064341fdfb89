"""Hypergradients by differentiating through the unrolled inner loop.

The surrogate loss replaces y*(x) with the output of T gradient steps on
g(x, .); its exact gradient is the oracle's bulk method unrolled_grad.
``BilevelOracle.unrolled_grad`` is the reference: a reverse pass over the
stored inner iterates using only Hessian-vector and cross Jacobian-vector
products.  The linear-inner families sum that pass in closed form, at one
gradient-step closed form and one cross product whatever T is.
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
    """Exact gradient of the unrolled surrogate x -> f(x, y^T(x)), from oracle.unrolled_grad.

    With T = 0 this is just grad_x f(x, y0).  As T grows on strongly convex
    inner problems the result converges geometrically to the implicit
    outer gradient.
    """
    if oracle.is_stochastic:
        raise UnsupportedOperationError("unrolled differentiation requires a deterministic oracle")
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    grad, y = oracle.unrolled_grad(x, y0, alpha, T)
    return ItdResult(grad=grad, y_final=y)
