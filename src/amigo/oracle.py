"""Query surfaces for bilevel problems and the smoothness-constant algebra.

A bilevel problem minimizes the outer loss L(x) = f(x, y*(x)) where y*(x) is
the unique minimizer of a strongly convex inner cost g(x, .).  Solvers touch
(f, g) only through the query surface defined here: the gradient of f,
whose two partials come from one batch (grad_fx and grad_fy are its parts),
the gradient of g in y, Hessian-vector products of g in y, and the cross
Jacobian-vector product that maps inner adjoint vectors back to the outer
space.  The same surface serves deterministic and stochastic problems;
deterministic implementations simply ignore the batch size and random
stream arguments.
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
    oracles ignore both.  The caller owns the random stream.  Beyond the
    queries, an oracle answers the bulk methods gd_steps, linear_steps and
    unrolled_grad, whose literal loops below are the reference.  The only
    state an implementation writes after construction is one-slot memos of
    dense products (B_g x and B_g' z for the linear-inner families), each
    stored as one (key, value) tuple, so a concurrent reader at worst
    recomputes it.
    """

    @property
    @abc.abstractmethod
    def dims(self) -> Dims: ...

    @abc.abstractmethod
    def grad_f(self, x, y, batch_size: int = 1, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """Both partial gradients of f, (grad_x f, grad_y f), evaluated jointly on one batch."""

    # A lone partial is its part of one grad_f query, drawn and charged as one.
    def grad_fx(self, x, y, batch_size: int = 1, rng=None) -> np.ndarray:
        """Partial gradient of f with respect to x."""
        return self.grad_f(x, y, batch_size=batch_size, rng=rng)[0]

    def grad_fy(self, x, y, batch_size: int = 1, rng=None) -> np.ndarray:
        """Partial gradient of f with respect to y."""
        return self.grad_f(x, y, batch_size=batch_size, rng=rng)[1]

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

    # The NoiseSpec a noisy oracle draws its perturbations from; None for an exact one.
    noise = None

    @property
    def is_stochastic(self) -> bool:
        """Whether some query stream is noisy, so queries need a random stream."""
        return self.noise is not None and self.noise.any_noise

    # Bulk inner steps: these loops are the reference, which a problem with
    # closed-form inner dynamics overrides.  The start vector is not modified.
    # With sigma > 0 each step carries the noise of its query at per-sample
    # scale sigma, drawn from rng as StochasticOracle draws it; a noisy
    # oracle passes its own scale to its problem's steps this way.
    def gd_steps(
        self, x, y, alpha: float, T: int, batch_size: int = 1, rng=None, sigma: float = 0.0
    ) -> np.ndarray:
        """T steps y <- y - alpha * grad_gy(x, y) from y, each on a fresh batch."""
        y = np.array(y, dtype=float, copy=True)
        for _ in range(T):
            g = self.grad_gy(x, y, batch_size=batch_size, rng=rng)
            if sigma > 0:
                g = g + gaussian_mean(need_rng(rng, "grad_gy"), sigma, self.dims.dy, batch_size)
            y -= alpha * g
        return y

    def linear_steps(
        self, x, y, v, z, beta: float, N: int, batch_size: int = 1, rng=None, sigma: float = 0.0
    ) -> np.ndarray:
        """N steps z <- z - beta * (hvp_gyy(x, y, z) + v) from z, each on a fresh Hessian batch."""
        z = np.array(z, dtype=float, copy=True)
        for _ in range(N):
            hz = self.hvp_gyy(x, y, z, batch_size=batch_size, rng=rng)
            if sigma > 0:
                hz = hz + sigma * uniform_means(need_rng(rng, "hvp_gyy"), batch_size, 1)[0] * z
            z -= beta * (hz + v)
        return z

    # Unrolled differentiation, deterministic oracles only: this loop is the
    # reference, which a problem with closed-form inner dynamics overrides.
    def unrolled_grad(self, x, y0, alpha: float, T: int) -> tuple[np.ndarray, np.ndarray]:
        """(gradient of x -> f(x, y^T(x)), y^T), with y^T from T gradient steps on g(x, .) from y0.

        The forward pass stores each input iterate y^0 .. y^{T-1}; the
        reverse pass seeds the adjoint p with grad_y f at y^T and walks the
        stored iterates backwards, peeling one step map per iteration:

            g <- g - alpha * jvp_gxy(x, y^{t-1}, p)
            p <- p - alpha * hvp_gyy(x, y^{t-1}, p)

        The start vector is not modified.
        """
        iterates = []
        y = np.array(y0, dtype=float, copy=True)
        for _ in range(T):
            # y is rebound, never updated in place, so each stored iterate stays intact.
            iterates.append(y)
            y = y - alpha * self.grad_gy(x, y)
        g, p = self.grad_f(x, y)
        g = np.array(g, dtype=float, copy=True)
        p = np.array(p, dtype=float, copy=True)
        for y_prev in reversed(iterates):
            g -= alpha * self.jvp_gxy(x, y_prev, p)
            p -= alpha * self.hvp_gyy(x, y_prev, p)
        return g, y


def need_rng(rng, what: str):
    """rng, which a noisy query needs; ValueError naming the query (what) if it is None."""
    if rng is None:
        raise ValueError(f"a random stream is required for noisy {what} queries")
    return rng


def gaussian_mean(rng, sigma: float, dim: int, batch_size: int) -> np.ndarray:
    """Mean of batch_size i.i.d. Gaussian vectors of length dim, each with E||eps||^2 = sigma^2.

    Each has per-coordinate standard deviation sigma / sqrt(dim), so their
    mean is Gaussian with sigma / sqrt(dim * batch_size): one draw of dim
    standard normals at that scale has its law.
    """
    return sigma / math.sqrt(dim * batch_size) * rng.standard_normal(dim)


# The uniforms behind Hessian and Jacobian noise lie in [-ZETA_BOUND, ZETA_BOUND].
ZETA_BOUND = math.sqrt(3.0)


def uniform_means(rng, batch_size: int, n: int) -> np.ndarray:
    """n means of batch_size i.i.d. uniforms on [-sqrt(3), sqrt(3)] (zero mean, unit variance).

    A mean of uniforms is not uniform, so each takes its batch_size draws;
    the n rows are drawn in one call, in the order n calls would draw them.
    """
    return rng.uniform(-ZETA_BOUND, ZETA_BOUND, size=(n, batch_size)).mean(axis=1)


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

