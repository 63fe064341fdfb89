"""Oracle-call accounting and convergence metrics.

The counting convention: a grad_f query (both partials on one batch)
adds its batch size once to n_grad_f, and a lone partial, being part of
one grad_f query, is charged the same; every Hessian-vector,
Jacobian-vector, or grad_g query adds its batch size to its own counter,
and a bulk call of T (or N) inner steps adds T (or N) times its batch
size.  A bulk unrolled gradient over T steps adds what its loop queries:
T grad_g, one grad_f, T Jacobian-vector and T Hessian-vector products.
Under this convention the counter total of a warm-started run with the
stochastic linear solver equals k * (T |D_g| + N |D_gyy| + |D_gxy| +
|D_f|) exactly, which is also what ``complexity_formula`` returns.

A trace row is a MetricRow: an immutable named tuple whose fields are the
CSV's metric columns in order, then wall_s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .oracle import BilevelOracle, Dims, SmoothnessConstants

__all__ = [
    "OracleCounter",
    "CountingOracle",
    "MetricRow",
    "MetricsTracker",
    "complexity_formula",
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
        self.noise = base.noise

    @property
    def dims(self) -> Dims:
        return self.base.dims

    def constants(self) -> SmoothnessConstants:
        return self.base.constants()

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

    def gd_steps(self, x, y, alpha, T, batch_size=1, rng=None):
        self.counter.n_grad_g += T * batch_size
        return self.base.gd_steps(x, y, alpha, T, batch_size=batch_size, rng=rng)

    def linear_steps(self, x, y, v, z, beta, N, batch_size=1, rng=None):
        self.counter.n_hvp += N * batch_size
        return self.base.linear_steps(x, y, v, z, beta, N, batch_size=batch_size, rng=rng)

    def unrolled_grad(self, x, y0, alpha, T):
        c = self.counter
        c.n_grad_g += T
        c.n_grad_f += 1
        c.n_jvp += T
        c.n_hvp += T
        return self.base.unrolled_grad(x, y0, alpha, T)


def complexity_formula(
    k: int, T: int, N: int, batch_g: int, batch_gyy: int, batch_gxy: int, batch_f: int
) -> int:
    """Oracle cost of k warm-started outer iterations at the given budgets."""
    args = (k, T, N, batch_g, batch_gyy, batch_gxy, batch_f)
    if any(a < 0 for a in args):
        raise ValueError(f"all arguments must be nonnegative, got {args}")
    return k * (T * batch_g + N * batch_gyy + batch_gxy + batch_f)


class MetricRow(NamedTuple):
    """One trace row, in CSV column order; reference-dependent fields are None when unavailable."""

    k: int
    rel_error: float | None
    grad_norm_sq: float
    avg_grad_norm_sq: float
    combined_sc: float | None
    energy_x: float | None
    cost: int
    wall_s: float


class MetricsTracker:
    """Computes trace metrics against a problem's closed-form references.

    grad_norm_sq needs the problem's grad_L.  rel_error and the strongly
    convex error measures are computed when mu_outer > 0, which only a
    problem with displacement_terms(x) (the quadratic family) reports; the
    row then takes grad_L from it too.  The running
    mean of the squared gradient norm covers rows 1..k (row 0 reports its
    own value).  rel_error is the gap over the gap of the first row.  The
    outer energy uses the constant-step weights: for mu_outer > 0 it is
    mu/2 ||x - x*||^2 + (1 - u)(L(x) - L*); otherwise, when a smoothness
    bound L_outer is known, ||grad L(x)||^2 / (2 L_outer).
    """

    def __init__(self, problem, mu_outer: float | None = None, L_outer: float | None = None, u: int = 0):
        self.problem = problem
        self.mu_outer = mu_outer
        self.L_outer = L_outer
        self.u = u
        self._has_sc_refs = mu_outer is not None and mu_outer > 0
        self._first_gap: float | None = None
        self._gns_sum = 0.0
        self._gns_count = 0

    def row(self, k: int, x, counter: OracleCounter | None = None, wall_s: float = 0.0) -> MetricRow:
        x = np.asarray(x, dtype=float)
        if self._has_sc_refs:
            grad, gap, dist_sq = self.problem.displacement_terms(x)
        else:
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
            if self._first_gap is None:
                self._first_gap = gap
            rel = gap / self._first_gap if self._first_gap > 0 else None
            combined = min(gap, 0.5 * self.mu_outer * dist_sq)
            energy = 0.5 * self.mu_outer * dist_sq + (1 - self.u) * gap
        elif self.L_outer is not None and self.L_outer > 0:
            energy = gns / (2.0 * self.L_outer)
        cost = counter.total() if counter is not None else 0
        return MetricRow(k, rel, gns, avg, combined, energy, cost, wall_s)

