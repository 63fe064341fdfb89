"""Oracle-call accounting and convergence metrics.

The counting convention: a joint grad_f evaluation (both partials on one
batch) adds its batch size once to n_grad_f, as does a lone partial f
query; every Hessian-vector, Jacobian-vector, or grad_g query adds its
batch size to its own counter.  Under this convention the counter total of
a warm-started run with the stochastic linear solver equals
k * (T |D_g| + N |D_gyy| + |D_gxy| + |D_f|) exactly, which is also what
``complexity_formula`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .oracle import BilevelOracle, Dims, SmoothnessConstants

__all__ = [
    "OracleCounter",
    "CountingOracle",
    "MetricRow",
    "MetricsTracker",
    "complexity_formula",
    "compute_metrics",
]


@dataclass
class OracleCounter:
    """Batch-weighted counts of the four oracle query streams."""

    n_grad_f: int = 0
    n_grad_g: int = 0
    n_jvp: int = 0
    n_hvp: int = 0

    def total(self) -> int:
        return self.n_grad_f + self.n_grad_g + self.n_jvp + self.n_hvp

    def snapshot(self) -> "OracleCounter":
        return replace(self)


class CountingOracle(BilevelOracle):
    """Pass-through oracle wrapper that charges every query to a counter."""

    def __init__(self, base, counter: OracleCounter):
        self.base = base
        self.counter = counter

    @property
    def dims(self) -> Dims:
        return self.base.dims

    @property
    def is_stochastic(self) -> bool:
        return self.base.is_stochastic

    def constants(self) -> SmoothnessConstants:
        return self.base.constants()

    def grad_fx(self, x, y, batch_size=1, rng=None):
        self.counter.n_grad_f += batch_size
        return self.base.grad_fx(x, y, batch_size=batch_size, rng=rng)

    def grad_fy(self, x, y, batch_size=1, rng=None):
        self.counter.n_grad_f += batch_size
        return self.base.grad_fy(x, y, batch_size=batch_size, rng=rng)

    def grad_f(self, x, y, batch_size=1, rng=None):
        self.counter.n_grad_f += batch_size
        return self.base.grad_f(x, y, batch_size=batch_size, rng=rng)

    def grad_gy(self, x, y, batch_size=1, rng=None):
        self.counter.n_grad_g += batch_size
        return self.base.grad_gy(x, y, batch_size=batch_size, rng=rng)

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        self.counter.n_hvp += batch_size
        return self.base.hvp_gyy(x, y, v, batch_size=batch_size, rng=rng)

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        self.counter.n_jvp += batch_size
        return self.base.jvp_gxy(x, y, z, batch_size=batch_size, rng=rng)


def complexity_formula(
    k: int, T: int, N: int, batch_g: int, batch_gyy: int, batch_gxy: int, batch_f: int
) -> int:
    """Oracle cost of k warm-started outer iterations at the given budgets."""
    args = (k, T, N, batch_g, batch_gyy, batch_gxy, batch_f)
    if any(a < 0 for a in args):
        raise ValueError(f"all arguments must be nonnegative, got {args}")
    return k * (T * batch_g + N * batch_gyy + batch_gxy + batch_f)


@dataclass
class MetricRow:
    """One trace row; reference-dependent fields are None when unavailable."""

    k: int
    rel_error: float | None
    grad_norm_sq: float
    combined_sc: float | None
    avg_grad_norm_sq: float
    energy_x: float | None
    cost: int
    wall_s: float


class MetricsTracker:
    """Computes trace metrics against a problem's closed-form references.

    rel_error and the strongly convex error measures require the problem to
    expose gap(x) and x_star; grad_norm_sq only needs grad_L.  The running
    mean of the squared gradient norm covers rows 1..k (row 0 reports its
    own value).  rel_error is the gap over ``gap0``, by default the gap of
    the first row.  The outer energy uses the constant-step weights: for
    mu_outer > 0 it is mu/2 ||x - x*||^2 + (1 - u)(L(x) - L*); otherwise,
    when a smoothness bound L_outer is known, ||grad L(x)||^2 / (2 L_outer).
    """

    def __init__(self, problem, mu_outer: float | None = None, L_outer: float | None = None,
                 u: int = 0, gap0: float | None = None):
        if getattr(problem, "grad_L", None) is None:
            raise ValueError(f"{type(problem).__name__} exposes no gradient reference")
        self.problem = problem
        self.mu_outer = mu_outer
        self.L_outer = L_outer
        self.u = u
        self._has_sc_refs = (
            mu_outer is not None
            and mu_outer > 0
            and getattr(problem, "gap", None) is not None
            and getattr(problem, "x_star", None) is not None
        )
        self._gap0: float | None = gap0
        self._gns_sum = 0.0
        self._gns_count = 0

    def row(self, k: int, x, counter: OracleCounter | None = None, wall_s: float = 0.0) -> MetricRow:
        x = np.asarray(x, dtype=float)
        grad = self.problem.grad_L(x)
        gns = float(grad @ grad)
        if k >= 1:
            self._gns_sum += gns
            self._gns_count += 1
            avg = self._gns_sum / self._gns_count
        else:
            avg = gns
        rel = combined = energy = None
        if self._has_sc_refs:
            gap = float(self.problem.gap(x))
            if self._gap0 is None:
                self._gap0 = gap
            rel = gap / self._gap0 if self._gap0 > 0 else None
            dist_sq = float(np.sum((x - self.problem.x_star) ** 2))
            combined = min(gap, 0.5 * self.mu_outer * dist_sq)
            energy = 0.5 * self.mu_outer * dist_sq + (1 - self.u) * gap
        elif self.L_outer is not None and self.L_outer > 0:
            energy = gns / (2.0 * self.L_outer)
        cost = counter.total() if counter is not None else 0
        return MetricRow(
            k=k,
            rel_error=rel,
            grad_norm_sq=gns,
            combined_sc=combined,
            avg_grad_norm_sq=avg,
            energy_x=energy,
            cost=cost,
            wall_s=wall_s,
        )


def compute_metrics(
    problem,
    x_k,
    counter: OracleCounter | None = None,
    mu_outer: float | None = None,
    L_outer: float | None = None,
    u: int = 0,
    gap0: float | None = None,
    k: int = 0,
) -> MetricRow:
    """One-shot metric row; pass gap0 to get a meaningful rel_error."""
    tracker = MetricsTracker(problem, mu_outer=mu_outer, L_outer=L_outer, u=u, gap0=gap0)
    return tracker.row(k, x_k, counter)
