"""Query surfaces for bilevel problems and the smoothness-constant algebra.

A bilevel problem minimizes the outer loss L(x) = f(x, y*(x)) where y*(x) is
the unique minimizer of a strongly convex inner cost g(x, .).  Solvers touch
(f, g) only through the query surface defined here: partial gradients of f
and g, Hessian-vector products of g in y, and the cross Jacobian-vector
product that maps inner adjoint vectors back to the outer space.  The same
surface serves deterministic and stochastic problems; deterministic
implementations simply ignore the batch size and random stream arguments.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dims",
    "SmoothnessConstants",
    "DerivedConstants",
    "BilevelOracle",
    "InvalidConstantsError",
    "UnsupportedOperationError",
    "derive_constants",
    "psi_hat",
]


class InvalidConstantsError(ValueError):
    """Smoothness constants violate their admissibility conditions."""


class UnsupportedOperationError(RuntimeError):
    """The problem lacks the closed forms or capabilities an operation needs."""


@dataclass(frozen=True)
class Dims:
    """Outer (dx) and inner (dy) dimensions of a bilevel problem."""

    dx: int
    dy: int

    def __post_init__(self) -> None:
        if self.dx < 1 or self.dy < 1:
            raise ValueError(f"dimensions must be positive, got dx={self.dx}, dy={self.dy}")


@dataclass(frozen=True)
class SmoothnessConstants:
    """Regularity constants of a bilevel problem.

    mu_g, L_g: strong-convexity modulus and smoothness of g in y.
    Lg_prime: Lipschitz constant of grad_y g with respect to x; also bounds
        the operator norm of the cross second derivative of g.
    M_g: Lipschitz constant of the second derivatives of g.
    L_f: Lipschitz constant of grad f.
    B: uniform bound on ||grad_y f||.
    """

    mu_g: float
    L_g: float
    Lg_prime: float = 0.0
    M_g: float = 0.0
    L_f: float = 0.0
    B: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.mu_g, self.L_g, self.Lg_prime, self.M_g, self.L_f, self.B)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidConstantsError(f"constants must be finite, got {self}")
        if self.mu_g <= 0:
            raise InvalidConstantsError(f"mu_g must be positive, got {self.mu_g}")
        if min(vals) < 0:
            raise InvalidConstantsError(f"constants must be nonnegative, got {self}")
        if self.L_g < self.mu_g:
            raise InvalidConstantsError(f"need mu_g <= L_g, got mu_g={self.mu_g}, L_g={self.L_g}")


@dataclass(frozen=True)
class DerivedConstants:
    """Lipschitz constants of the solution maps and of the outer loss.

    L_y bounds the variation of y*(x), L_z that of z*(x, y), L_psi controls
    how inner-solve errors propagate into the assembled gradient estimate,
    and L is the resulting smoothness bound on L(x).
    """

    L_y: float
    L_z: float
    L_psi: float
    L: float
    kappa_g: float


def derive_constants(c: SmoothnessConstants) -> DerivedConstants:
    """Compute the closed-form derived constants from the primitive ones."""
    inv = 1.0 / c.mu_g
    L_y = c.Lg_prime * inv
    L_z = c.M_g * c.B * inv**2 + c.L_f * inv
    L_psi = max(c.L_f + c.M_g * inv * c.B + c.Lg_prime * L_z, c.Lg_prime)
    L = (c.L_f + c.Lg_prime * c.M_g * c.B * inv**2 + inv * (c.Lg_prime * c.L_f + c.M_g * c.B)) * (
        1.0 + inv * c.Lg_prime
    )
    return DerivedConstants(L_y=L_y, L_z=L_z, L_psi=L_psi, L=L, kappa_g=c.L_g * inv)


class BilevelOracle(abc.ABC):
    """Query surface of a bilevel problem.

    All queries accept a batch size and a random stream; deterministic
    oracles ignore both.  The caller owns the random stream.  The only state
    an implementation writes after construction is a one-slot memo of an
    x-dependent product (B_g x for the linear-inner families), stored as one
    (key, value) tuple, so a concurrent reader at worst recomputes it.
    """

    @property
    @abc.abstractmethod
    def dims(self) -> Dims: ...

    @abc.abstractmethod
    def grad_fx(self, x, y, batch_size: int = 1, rng=None) -> np.ndarray:
        """Partial gradient of f with respect to x."""

    @abc.abstractmethod
    def grad_fy(self, x, y, batch_size: int = 1, rng=None) -> np.ndarray:
        """Partial gradient of f with respect to y."""

    def grad_f(self, x, y, batch_size: int = 1, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """Both partial gradients of f, evaluated jointly on one batch."""
        return (
            self.grad_fx(x, y, batch_size=batch_size, rng=rng),
            self.grad_fy(x, y, batch_size=batch_size, rng=rng),
        )

    @abc.abstractmethod
    def grad_gy(self, x, y, batch_size: int = 1, rng=None) -> np.ndarray:
        """Partial gradient of g with respect to y."""

    @abc.abstractmethod
    def hvp_gyy(self, x, y, v, batch_size: int = 1, rng=None) -> np.ndarray:
        """Inner Hessian-vector product: second derivative of g in y applied to v."""

    @abc.abstractmethod
    def jvp_gxy(self, x, y, z, batch_size: int = 1, rng=None) -> np.ndarray:
        """Cross Jacobian-vector product mapping an inner vector z to the outer space."""

    @abc.abstractmethod
    def constants(self) -> SmoothnessConstants: ...

    @property
    def is_stochastic(self) -> bool:
        return False

    # Bulk inner steps: these loops are the reference, which a problem with
    # closed-form inner dynamics overrides.  The start vector is not modified.
    def gd_steps(self, x, y, alpha: float, T: int, batch_size: int = 1, rng=None) -> np.ndarray:
        """T steps y <- y - alpha * grad_gy(x, y) from y, each on a fresh batch."""
        y = np.array(y, dtype=float, copy=True)
        for _ in range(T):
            y -= alpha * self.grad_gy(x, y, batch_size=batch_size, rng=rng)
        return y

    def linear_steps(
        self, x, y, v, z, beta: float, N: int, batch_size: int = 1, rng=None
    ) -> np.ndarray:
        """N steps z <- z - beta * (hvp_gyy(x, y, z) + v) from z, each on a fresh Hessian batch."""
        z = np.array(z, dtype=float, copy=True)
        for _ in range(N):
            z -= beta * (self.hvp_gyy(x, y, z, batch_size=batch_size, rng=rng) + v)
        return z


def vector(name: str, value, dim: int) -> np.ndarray:
    """value as a float array, which must have shape (dim,); ValueError names it otherwise."""
    value = np.asarray(value, dtype=float)
    if value.shape != (dim,):
        raise ValueError(f"{name} has shape {value.shape}, expected ({dim},)")
    return value


def psi_hat(
    oracle: BilevelOracle,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    batch_f: int = 1,
    batch_gxy: int = 1,
    rng=None,
) -> np.ndarray:
    """Assemble the outer gradient estimate from (x, y, z).

    Returns grad_fx(x, y) plus the cross Jacobian-vector product applied to
    z, each evaluated on a fresh independent batch.  With y = y*(x) and
    z = z*(x, y*(x)) this equals the exact outer gradient.
    """
    d = oracle.dims
    x, y, z = vector("x", x, d.dx), vector("y", y, d.dy), vector("z", z, d.dy)
    u = oracle.grad_fx(x, y, batch_size=batch_f, rng=rng)
    w = oracle.jvp_gxy(x, y, z, batch_size=batch_gxy, rng=rng)
    return u + w

