"""Synthetic bilevel problem families with closed-form references.

Three generators are provided: a fully quadratic instance with controlled
inner and outer conditioning, a ridge hyperparameter problem with
per-coordinate log-regularizers, and a non-convex-outer variant pairing a
cosine outer cost with a quadratic inner problem.  Every family exposes the
deterministic oracle surface plus dense closed forms (y*, z*, grad of the
outer loss, and, where it exists, the outer minimizer) so that solver output
is checkable against an independent reference.

``make_stochastic`` wraps any of them into the batched noisy oracle:
gradient queries get batch-averaged Gaussian noise, Hessian and Jacobian
queries get bounded scalar-times-fixed-matrix perturbations whose second
moments are known exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .oracle import BilevelOracle, Dims, SmoothnessConstants

__all__ = [
    "InvalidSpectrumError",
    "ConfigurationError",
    "NoiseSpec",
    "QuadraticProblem",
    "RidgeHPOProblem",
    "NonconvexOuterProblem",
    "StochasticOracle",
    "gen_spd",
    "gen_quadratic",
    "gen_ridge_hpo",
    "gen_nonconvex",
    "make_stochastic",
    "save_problem",
    "load_problem",
    "describe_problem",
]

MAGIC = b"BLPROB01"
_FAMILY_TAGS = {"quadratic": 1, "ridge": 2, "nonconvex": 3}
_FAMILY_NAMES = {v: k for k, v in _FAMILY_TAGS.items()}

# Hyperparameter box over which the ridge problem's local constants are taken.
RIDGE_X_BOX = 10.0


class InvalidSpectrumError(ValueError):
    """Requested eigenvalue range is empty or not positive."""


class ConfigurationError(ValueError):
    """Noise specification violates a construction precondition."""


def _seeded_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    # Fixing the signs of R's diagonal makes the factor unique and Haar distributed.
    return q * np.sign(np.diag(r))


def gen_spd(d: int, mu: float, L: float, seed: int) -> np.ndarray:
    """Symmetric positive-definite matrix with a log-spaced spectrum on [mu, L].

    Both endpoints are attained exactly; eigenvectors come from a seeded
    random orthogonal matrix, so the output is deterministic given the seed.

    Raises:
        InvalidSpectrumError: if the range is not 0 < mu <= L, or if d == 1
            with mu != L (a 1x1 matrix cannot attain two distinct endpoints).
    """
    if not (0 < mu <= L) or not (math.isfinite(mu) and math.isfinite(L)):
        raise InvalidSpectrumError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if d < 1:
        raise InvalidSpectrumError(f"dimension must be positive, got {d}")
    if mu == L:
        return mu * np.eye(d)
    if d == 1:
        raise InvalidSpectrumError("d=1 cannot attain two distinct spectrum endpoints")
    eigs = np.geomspace(mu, L, d)
    eigs[0] = mu
    eigs[-1] = L
    q = _seeded_orthogonal(d, np.random.default_rng(seed))
    a = (q * eigs) @ q.T
    return (a + a.T) / 2.0


class _DeterministicProblem(BilevelOracle):
    """Shared plumbing for the synthetic families (all deterministic)."""

    family: str = ""
    _dims: Dims

    @property
    def dims(self) -> Dims:
        return self._dims


class _LinearInnerProblem(_DeterministicProblem):
    """Quadratic inner cost under an outer cost that is linear in y.

    g(x, y) = y' A_g y / 2 + y' B_g x and f(x, y) = y' C_f + (a term in x
    alone).  Because f is linear in y, the adjoint z* = -inv(A_g) C_f does
    not depend on (x, y) and the outer gradient is the gradient of the x
    term plus the constant B_g' z*.  Subclasses define the x term:
    grad_fx, grad_L, L_value, f_value, outer_smoothness and _arrays.
    """

    def __init__(self, C_f, A_g, B_g, seed: int):
        self.C_f = np.asarray(C_f, dtype=float)
        self.A_g = np.asarray(A_g, dtype=float)
        self.B_g = np.asarray(B_g, dtype=float)
        self.seed = int(seed)
        dy, dx = self.B_g.shape
        if self.A_g.shape != (dy, dy) or self.C_f.shape != (dy,):
            raise ValueError(f"A_g {self.A_g.shape} or C_f {self.C_f.shape} mismatch B_g {dy, dx}")
        self._dims = Dims(dx, dy)

    # Oracle surface. Deterministic: batch_size and rng are ignored.
    def grad_fy(self, x, y, batch_size=1, rng=None):
        return self.C_f.copy()

    def grad_gy(self, x, y, batch_size=1, rng=None):
        return self.A_g @ y + self.B_g @ x

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        return self.A_g @ v

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        return self.B_g.T @ z

    @cached_property
    def _chol_g(self):
        return cho_factor(self.A_g)

    @cached_property
    def _eigs_g(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.A_g)

    @cached_property
    def _constants(self) -> SmoothnessConstants:
        # f is linear in y, so its smoothness is that of the outer loss.
        return SmoothnessConstants(
            mu_g=float(self._eigs_g[0]),
            L_g=float(self._eigs_g[-1]),
            Lg_prime=float(np.linalg.norm(self.B_g, 2)),
            M_g=0.0,
            L_f=self.outer_smoothness()[0],
            B=float(np.linalg.norm(self.C_f)),
        )

    def constants(self) -> SmoothnessConstants:
        return self._constants

    # Closed forms.
    def y_star(self, x) -> np.ndarray:
        return -cho_solve(self._chol_g, self.B_g @ x)

    @cached_property
    def z_star_vec(self) -> np.ndarray:
        return -cho_solve(self._chol_g, self.C_f)

    def z_star(self, x=None, y=None) -> np.ndarray:
        return self.z_star_vec.copy()

    @cached_property
    def grad_offset(self) -> np.ndarray:
        """B_g' z*, the constant part of the outer gradient."""
        return self.B_g.T @ self.z_star_vec

    def header(self) -> dict:
        eg = self._eigs_g
        return {
            "family": self.family,
            "dx": self.dims.dx,
            "dy": self.dims.dy,
            "n_aux1": 0,
            "n_aux2": 0,
            "seed": self.seed,
            "kappa_g": float(eg[-1] / eg[0]),
            "kappa_L": float("nan"),
            "extra": 0.0,
        }


def _draw_coupling(rng: np.random.Generator, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
    """B_g scaled to unit operator norm and C_f a Gaussian direction of norm sqrt(dy)."""
    b_g = rng.standard_normal((dy, dx))
    b_g /= np.linalg.norm(b_g, 2)
    c_f = rng.standard_normal(dy)
    c_f *= math.sqrt(dy) / np.linalg.norm(c_f)
    return b_g, c_f


class QuadraticProblem(_LinearInnerProblem):
    """Quadratic outer and inner costs with dense closed forms.

    f(x, y) = x' A_f x / 2 + y' C_f and g(x, y) = y' A_g y / 2 + y' B_g x.
    Because f is linear in y, the outer loss L(x) is the quadratic
    x' A_f x / 2 - x' B_g' inv(A_g) C_f, whose Hessian is exactly A_f.
    """

    family = "quadratic"

    def __init__(self, A_f, C_f, A_g, B_g, seed: int = -1):
        super().__init__(C_f, A_g, B_g, seed)
        self.A_f = np.asarray(A_f, dtype=float)
        dx = self.dims.dx
        if self.A_f.shape != (dx, dx):
            raise ValueError(f"A_f has shape {self.A_f.shape}, expected ({dx}, {dx})")

    def grad_fx(self, x, y, batch_size=1, rng=None):
        return self.A_f @ x

    @cached_property
    def _chol_f(self):
        return cho_factor(self.A_f)

    @cached_property
    def _eigs_f(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.A_f)

    def outer_smoothness(self) -> tuple[float, float]:
        """Exact (L, mu) of the outer loss: the extreme eigenvalues of A_f."""
        return float(self._eigs_f[-1]), float(self._eigs_f[0])

    @cached_property
    def x_star(self) -> np.ndarray:
        return -cho_solve(self._chol_f, self.grad_offset)

    def grad_L(self, x) -> np.ndarray:
        return self.A_f @ x + self.grad_offset

    def L_value(self, x) -> float:
        return float(0.5 * x @ (self.A_f @ x) + x @ self.grad_offset)

    @cached_property
    def L_star(self) -> float:
        return self.L_value(self.x_star)

    def gap(self, x) -> float:
        # Evaluating through the displacement avoids cancellation near x*.
        d = x - self.x_star
        return float(0.5 * d @ (self.A_f @ d))

    def f_value(self, x, y) -> float:
        return float(0.5 * x @ (self.A_f @ x) + y @ self.C_f)

    def reference(self, x) -> dict:
        """All closed-form quantities at x."""
        x = np.asarray(x, dtype=float)
        return {
            "y_star": self.y_star(x),
            "z_star": self.z_star(),
            "L_value": self.L_value(x),
            "grad_L": self.grad_L(x),
            "x_star": self.x_star.copy(),
            "L_star": self.L_star,
        }

    def header(self) -> dict:
        ef = self._eigs_f
        return {**super().header(), "kappa_L": float(ef[-1] / ef[0])}

    def _arrays(self) -> list[np.ndarray]:
        return [self.A_f, self.C_f, self.A_g, self.B_g]


def gen_quadratic(dx: int, dy: int, kappa_g: float, kappa_L: float, seed: int) -> QuadraticProblem:
    """Quadratic instance with inner conditioning kappa_g and outer conditioning kappa_L.

    The inner Hessian A_g gets spectrum [1/kappa_g, 1] (so L_g = 1), the
    outer Hessian A_f gets spectrum [1/kappa_L, 1], the coupling B_g is
    scaled to unit operator norm and C_f is a seeded Gaussian direction of
    norm sqrt(dy).  All derived smoothness constants are therefore exact.
    """
    if kappa_g < 1 or kappa_L < 1:
        raise InvalidSpectrumError(f"condition numbers must be >= 1, got {kappa_g}, {kappa_L}")
    rng = np.random.default_rng(seed)
    a_g = gen_spd(dy, 1.0 / kappa_g, 1.0, seed=int(rng.integers(2**62)))
    a_f = gen_spd(dx, 1.0 / kappa_L, 1.0, seed=int(rng.integers(2**62)))
    b_g, c_f = _draw_coupling(rng, dx, dy)
    return QuadraticProblem(a_f, c_f, a_g, b_g, seed=seed)


class NonconvexOuterProblem(_LinearInnerProblem):
    """Cosine outer cost over a quadratic inner problem.

    f(x, y) = y' C_f + rho * sum_i cos(x_i) with the quadratic inner cost of
    the quadratic family.  The outer loss L(x) = x' c + rho * sum_i cos(x_i)
    with c = B_g' z* is smooth, non-convex and has stationary points because
    ||c||_inf < rho by construction.
    """

    family = "nonconvex"

    def __init__(self, rho: float, C_f, A_g, B_g, seed: int = -1):
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        super().__init__(C_f, A_g, B_g, seed)
        self.rho = float(rho)

    def grad_fx(self, x, y, batch_size=1, rng=None):
        return -self.rho * np.sin(x)

    def outer_smoothness(self) -> tuple[float, float]:
        """(L, mu) of the outer loss; mu = -rho marks the non-convex regime."""
        return self.rho, -self.rho

    def grad_L(self, x) -> np.ndarray:
        return -self.rho * np.sin(x) + self.grad_offset

    def L_value(self, x) -> float:
        return float(x @ self.grad_offset + self.rho * np.sum(np.cos(x)))

    def f_value(self, x, y) -> float:
        return float(y @ self.C_f + self.rho * np.sum(np.cos(x)))

    def header(self) -> dict:
        return {**super().header(), "extra": self.rho}

    def _arrays(self) -> list[np.ndarray]:
        return [self.C_f, self.A_g, self.B_g]


def gen_nonconvex(
    dx: int, dy: int, rho: float, seed: int, kappa_g: float = 10.0
) -> NonconvexOuterProblem:
    """Non-convex-outer instance with inner pieces drawn as in gen_quadratic.

    C_f is rescaled so that ||B_g' z*||_inf equals rho / 2, which guarantees
    stationary points of the outer loss exist.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    rng = np.random.default_rng(seed)
    a_g = gen_spd(dy, 1.0 / kappa_g, 1.0, seed=int(rng.integers(2**62)))
    b_g, c_f = _draw_coupling(rng, dx, dy)
    offset = b_g.T @ np.linalg.solve(a_g, c_f)
    c_f *= (rho / 2.0) / np.max(np.abs(offset))
    return NonconvexOuterProblem(rho, c_f, a_g, b_g, seed=seed)


class RidgeHPOProblem(_DeterministicProblem):
    """Ridge regression with one log-regularizer per coordinate.

    Inner cost: ||A_tr y - b_tr||^2 / (2 n_tr) + sum_i exp(x_i) y_i^2 / (2 d).
    Outer cost: validation loss ||A_val y - b_val||^2 / (2 n_val), independent
    of x.  The inner problem is strongly convex for every x, with modulus at
    least min_i exp(x_i) / d, and y*(x) solves a d x d SPD system.
    """

    family = "ridge"

    def __init__(self, A_tr, b_tr, A_val, b_val, seed: int = -1, label_noise: float = 0.0):
        self.A_tr = np.asarray(A_tr, dtype=float)
        self.b_tr = np.asarray(b_tr, dtype=float)
        self.A_val = np.asarray(A_val, dtype=float)
        self.b_val = np.asarray(b_val, dtype=float)
        self.seed = int(seed)
        self.label_noise = float(label_noise)
        d = self.A_tr.shape[1]
        if self.A_val.shape[1] != d:
            raise ValueError("train and validation designs must share the feature dimension")
        self._dims = Dims(d, d)
        n_tr = self.A_tr.shape[0]
        n_val = self.A_val.shape[0]
        self._G_tr = self.A_tr.T @ self.A_tr / n_tr
        self._g_tr = self.A_tr.T @ self.b_tr / n_tr
        self._G_val = self.A_val.T @ self.A_val / n_val
        self._g_val = self.A_val.T @ self.b_val / n_val
        self._ystar_cache: tuple[bytes, np.ndarray] | None = None

    @property
    def d(self) -> int:
        return self.dims.dx

    def grad_fx(self, x, y, batch_size=1, rng=None):
        return np.zeros(self.d)

    def grad_fy(self, x, y, batch_size=1, rng=None):
        return self._G_val @ y - self._g_val

    def grad_gy(self, x, y, batch_size=1, rng=None):
        return self._G_tr @ y - self._g_tr + np.exp(x) * y / self.d

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        return self._G_tr @ v + np.exp(x) * v / self.d

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        return np.exp(x) * y * z / self.d

    def hess_g(self, x) -> np.ndarray:
        return self._G_tr + np.diag(np.exp(x) / self.d)

    def y_star(self, x) -> np.ndarray:
        key = np.asarray(x, dtype=float).tobytes()
        if self._ystar_cache is not None and self._ystar_cache[0] == key:
            return self._ystar_cache[1].copy()
        y = np.linalg.solve(self.hess_g(x), self._g_tr)
        self._ystar_cache = (key, y.copy())
        return y

    def z_star(self, x, y) -> np.ndarray:
        return -np.linalg.solve(self.hess_g(x), self.grad_fy(x, y))

    def grad_L(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ys = self.y_star(x)
        zs = self.z_star(x, ys)
        return np.exp(x) * ys * zs / self.d

    def f_value(self, x, y) -> float:
        r = self.A_val @ y - self.b_val
        return float(0.5 * r @ r / self.A_val.shape[0])

    def L_value(self, x) -> float:
        return self.f_value(x, self.y_star(np.asarray(x, dtype=float)))

    def local_constants(self, x=None, y_radius: float | None = None) -> SmoothnessConstants:
        """Smoothness constants local to x and a ball of inner iterates.

        The gradient bound B and the second-derivative constants only hold
        on bounded sets for this family; they are reported over the given
        y ball and the hyperparameter box [-RIDGE_X_BOX, RIDGE_X_BOX]^d.
        """
        x = np.zeros(self.d) if x is None else np.asarray(x, dtype=float)
        eigs = np.linalg.eigvalsh(self.hess_g(x))
        if y_radius is None:
            y_radius = 2.0 * float(np.linalg.norm(self.y_star(x))) + 1.0
        g_val_norm = float(np.linalg.norm(self._G_val, 2))
        box_scale = math.exp(RIDGE_X_BOX) / self.d
        return SmoothnessConstants(
            mu_g=float(eigs[0]),
            L_g=float(eigs[-1]),
            Lg_prime=box_scale * y_radius,
            M_g=box_scale * max(y_radius, 1.0),
            L_f=g_val_norm,
            B=g_val_norm * y_radius + float(np.linalg.norm(self._g_val)),
        )

    @cached_property
    def _constants_at_origin(self) -> SmoothnessConstants:
        return self.local_constants()

    def constants(self) -> SmoothnessConstants:
        return self._constants_at_origin

    def header(self) -> dict:
        return {
            "family": self.family,
            "dx": self.d,
            "dy": self.d,
            "n_aux1": self.A_tr.shape[0],
            "n_aux2": self.A_val.shape[0],
            "seed": self.seed,
            "kappa_g": float("nan"),
            "kappa_L": float("nan"),
            "extra": self.label_noise,
        }

    def _arrays(self) -> list[np.ndarray]:
        return [self.A_tr, self.b_tr, self.A_val, self.b_val]


def gen_ridge_hpo(
    n_tr: int, n_val: int, d: int, label_noise: float, seed: int
) -> RidgeHPOProblem:
    """Ridge instance with seeded Gaussian designs and a planted weight vector."""
    if label_noise < 0:
        raise ValueError(f"label_noise must be nonnegative, got {label_noise}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    a_tr = rng.standard_normal((n_tr, d))
    b_tr = a_tr @ w + label_noise * rng.standard_normal(n_tr)
    a_val = rng.standard_normal((n_val, d))
    b_val = a_val @ w + label_noise * rng.standard_normal(n_val)
    problem = RidgeHPOProblem(a_tr, b_tr, a_val, b_val, seed=seed, label_noise=label_noise)
    problem.w_planted = w
    return problem


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample noise scales before batch averaging.

    The sigma values are the square roots of the per-sample second moments;
    batch averaging divides the second moments by the batch size.  With
    bounded_hessian_noise set, construction requires sqrt(3) * sigma_gyy
    below mu_g so every sampled Hessian stays positive definite.
    """

    sigma_f_tilde: float = 0.0
    sigma_g_tilde: float = 0.0
    sigma_gxy_tilde: float = 0.0
    sigma_gyy_tilde: float = 0.0
    bounded_hessian_noise: bool = True

    def __post_init__(self) -> None:
        for name in ("sigma_f_tilde", "sigma_g_tilde", "sigma_gxy_tilde", "sigma_gyy_tilde"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")

    @property
    def any_noise(self) -> bool:
        return max(
            self.sigma_f_tilde, self.sigma_g_tilde, self.sigma_gxy_tilde, self.sigma_gyy_tilde
        ) > 0


_SQRT3 = math.sqrt(3.0)


class StochasticOracle(BilevelOracle):
    """Batched noisy view of a deterministic problem.

    Gradient queries return the exact value plus the average of batch_size
    i.i.d. Gaussian per-sample perturbations with E||eps||^2 equal to the
    corresponding sigma^2.  Hessian-vector queries perturb the Hessian by
    sigma_gyy * zeta * I and Jacobian-vector queries by sigma_gxy * zeta * P
    with zeta uniform on [-sqrt(3), sqrt(3)] (zero mean, unit variance,
    bounded) and P a fixed seeded matrix of unit operator norm.  All queries
    are unbiased and their second moments scale as 1/batch_size.

    With every sigma equal to zero the oracle consumes no randomness and
    each query returns exactly the deterministic value.
    """

    def __init__(self, base, noise: NoiseSpec, seed: int):
        self.base = base
        self.noise = noise
        self.seed = int(seed)
        if noise.bounded_hessian_noise and noise.sigma_gyy_tilde > 0:
            mu_g = base.constants().mu_g
            if _SQRT3 * noise.sigma_gyy_tilde >= mu_g:
                raise ConfigurationError(
                    "Hessian noise too large for positive definiteness: need "
                    f"sqrt(3) * sigma_gyy_tilde < mu_g = {mu_g}"
                )
        d = base.dims
        p = np.random.default_rng(seed).standard_normal((d.dx, d.dy))
        self._P = p / np.linalg.norm(p, 2)

    @property
    def dims(self) -> Dims:
        return self.base.dims

    def constants(self) -> SmoothnessConstants:
        return self.base.constants()

    @property
    def is_stochastic(self) -> bool:
        return self.noise.any_noise

    @property
    def sigma_f_tilde(self) -> float:
        return self.noise.sigma_f_tilde

    @property
    def sigma_g_tilde(self) -> float:
        return self.noise.sigma_g_tilde

    @property
    def sigma_gxy_tilde(self) -> float:
        return self.noise.sigma_gxy_tilde

    @property
    def sigma_gyy_tilde(self) -> float:
        return self.noise.sigma_gyy_tilde

    @staticmethod
    def _need_rng(rng, what: str):
        if rng is None:
            raise ValueError(f"a random stream is required for noisy {what} queries")
        return rng

    def _gauss(self, rng, sigma: float, dim: int, budget_dim: int, batch_size: int) -> np.ndarray:
        # Per-sample per-coordinate std sigma / sqrt(budget_dim), so a full
        # budget_dim-dimensional draw has E||eps||^2 = sigma^2.
        scale = sigma / math.sqrt(budget_dim * batch_size)
        if batch_size == 1:
            return scale * rng.standard_normal(dim)
        return scale * rng.standard_normal((batch_size, dim)).sum(axis=0) / math.sqrt(batch_size)

    def _zeta_bar(self, rng, batch_size: int) -> float:
        return float(rng.uniform(-_SQRT3, _SQRT3, size=batch_size).mean())

    def grad_fx(self, x, y, batch_size=1, rng=None):
        val = self.base.grad_fx(x, y)
        s = self.noise.sigma_f_tilde
        if s == 0:
            return val
        rng = self._need_rng(rng, "grad_fx")
        d = self.dims
        return val + self._gauss(rng, s, d.dx, d.dx + d.dy, batch_size)

    def grad_fy(self, x, y, batch_size=1, rng=None):
        val = self.base.grad_fy(x, y)
        s = self.noise.sigma_f_tilde
        if s == 0:
            return val
        rng = self._need_rng(rng, "grad_fy")
        d = self.dims
        return val + self._gauss(rng, s, d.dy, d.dx + d.dy, batch_size)

    def grad_f(self, x, y, batch_size=1, rng=None):
        ux = self.base.grad_fx(x, y)
        uy = self.base.grad_fy(x, y)
        s = self.noise.sigma_f_tilde
        if s == 0:
            return ux, uy
        rng = self._need_rng(rng, "grad_f")
        d = self.dims
        eps = self._gauss(rng, s, d.dx + d.dy, d.dx + d.dy, batch_size)
        return ux + eps[: d.dx], uy + eps[d.dx :]

    def grad_gy(self, x, y, batch_size=1, rng=None):
        val = self.base.grad_gy(x, y)
        s = self.noise.sigma_g_tilde
        if s == 0:
            return val
        rng = self._need_rng(rng, "grad_gy")
        d = self.dims
        return val + self._gauss(rng, s, d.dy, d.dy, batch_size)

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        val = self.base.hvp_gyy(x, y, v)
        s = self.noise.sigma_gyy_tilde
        if s == 0:
            return val
        rng = self._need_rng(rng, "hvp_gyy")
        return val + s * self._zeta_bar(rng, batch_size) * np.asarray(v, dtype=float)

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        val = self.base.jvp_gxy(x, y, z)
        s = self.noise.sigma_gxy_tilde
        if s == 0:
            return val
        rng = self._need_rng(rng, "jvp_gxy")
        return val + s * self._zeta_bar(rng, batch_size) * (self._P @ np.asarray(z, dtype=float))


def make_stochastic(problem, noise: NoiseSpec, seed: int) -> StochasticOracle:
    """Wrap a deterministic problem into the batched noisy oracle."""
    return StochasticOracle(problem, noise, seed)


# ---------------------------------------------------------------------------
# Serialization: magic string, fixed 72-byte header, then row-major
# little-endian float64 matrices in declared field order.

_HEADER_FMT = "<qqqqqqddd"
_HEADER_KEYS = ("family_tag", "dx", "dy", "n_aux1", "n_aux2", "seed", "kappa_g", "kappa_L", "extra")


def _problem_bytes(problem) -> bytes:
    h = problem.header()
    packed = struct.pack(
        _HEADER_FMT,
        _FAMILY_TAGS[h["family"]],
        h["dx"],
        h["dy"],
        h["n_aux1"],
        h["n_aux2"],
        h["seed"],
        h["kappa_g"],
        h["kappa_L"],
        h["extra"],
    )
    blobs = [arr.astype("<f8").tobytes(order="C") for arr in problem._arrays()]
    return MAGIC + packed + b"".join(blobs)


def save_problem(problem, path) -> None:
    """Write the binary problem container (plus no sidecar; see the CLI)."""
    with open(path, "wb") as fh:
        fh.write(_problem_bytes(problem))


def _read_header(raw: bytes) -> dict:
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError("not a problem container (bad magic string)")
    vals = struct.unpack_from(_HEADER_FMT, raw, len(MAGIC))
    h = dict(zip(_HEADER_KEYS, vals))
    h["family"] = _FAMILY_NAMES.get(h.pop("family_tag"))
    if h["family"] is None:
        raise ValueError("unknown problem family tag")
    return h


def load_problem(path):
    """Load a problem container written by save_problem."""
    with open(path, "rb") as fh:
        raw = fh.read()
    h = _read_header(raw)
    off = len(MAGIC) + struct.calcsize(_HEADER_FMT)
    body = np.frombuffer(raw, dtype="<f8", offset=off)

    def take(shape):
        nonlocal body
        n = int(np.prod(shape))
        arr = body[:n].reshape(shape).astype(float)
        body = body[n:]
        return arr

    dx, dy = h["dx"], h["dy"]
    if h["family"] == "quadratic":
        return QuadraticProblem(
            take((dx, dx)), take((dy,)), take((dy, dy)), take((dy, dx)), seed=h["seed"]
        )
    if h["family"] == "nonconvex":
        return NonconvexOuterProblem(
            h["extra"], take((dy,)), take((dy, dy)), take((dy, dx)), seed=h["seed"]
        )
    n_tr, n_val = h["n_aux1"], h["n_aux2"]
    return RidgeHPOProblem(
        take((n_tr, dx)),
        take((n_tr,)),
        take((n_val, dx)),
        take((n_val,)),
        seed=h["seed"],
        label_noise=h["extra"],
    )


def describe_problem(path) -> dict:
    """Header of a problem container as a plain dict (JSON-friendly)."""
    with open(path, "rb") as fh:
        raw = fh.read(len(MAGIC) + struct.calcsize(_HEADER_FMT))
    return _read_header(raw)
