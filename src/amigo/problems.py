"""Synthetic bilevel problem families with closed-form references.

Three generators are provided: a fully quadratic instance with controlled
inner and outer conditioning, a ridge hyperparameter problem with
per-coordinate log-regularizers, and a non-convex-outer variant pairing a
cosine outer cost with a quadratic inner problem.  Every family exposes the
deterministic oracle surface plus closed forms (y*, z*, grad of the outer
loss, and, where it exists, the outer minimizer) so that solver output is
checkable against an independent reference.  The quadratic and non-convex
families hold their inner side in the eigenbasis of the inner Hessian, so
inner queries, y* and z* are elementwise in y, and T inner gradient steps
or N adjoint steps are one closed-form update each.  The quadratic family
holds x in the eigenbasis of the outer Hessian too, so its outer queries,
closed forms and metrics are elementwise in x.

``make_stochastic`` wraps any of them into the batched noisy oracle:
gradient queries get batch-averaged Gaussian noise, Hessian and Jacobian
queries get bounded scalar-times-fixed-matrix perturbations whose second
moments are known exactly.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .oracle import (
    ZETA_BOUND,
    BilevelOracle,
    Dims,
    SmoothnessConstants,
    UnsupportedOperationError,
    derive_constants,
    gaussian_mean,
    need_rng,
    uniform_means,
)

__all__ = [
    "InvalidSpectrumError",
    "ConfigurationError",
    "ContainerError",
    "FAMILIES",
    "NoiseSpec",
    "QuadraticProblem",
    "RidgeHPOProblem",
    "NonconvexOuterProblem",
    "StochasticOracle",
    "check_condition_numbers",
    "check_generated_spec",
    "check_generator_args",
    "check_hessian_noise",
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


def _check_spectrum(d: int, mu: float, L: float) -> None:
    """_spectrum's rule; see there."""
    if not (0 < mu <= L) or not (math.isfinite(mu) and math.isfinite(L)):
        raise InvalidSpectrumError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if d < 1:
        raise InvalidSpectrumError(f"dimension must be positive, got {d}")
    if d == 1 and mu != L:
        raise InvalidSpectrumError("d=1 cannot attain two distinct spectrum endpoints")


def _spectrum(d: int, mu: float, L: float, seed: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Log-spaced spectrum on [mu, L] and its seeded eigenbasis; no basis when mu == L.

    Both endpoints are attained exactly.  The basis is a seeded random
    orthogonal matrix, so the output is deterministic given the seed.

    Raises:
        InvalidSpectrumError: if the range is not 0 < mu <= L, or if d == 1
            with mu != L (a 1x1 matrix cannot attain two distinct endpoints).
    """
    _check_spectrum(d, mu, L)
    if mu == L:
        return np.full(d, mu), None
    eigs = np.geomspace(mu, L, d)
    eigs[0] = mu
    eigs[-1] = L
    return eigs, _seeded_orthogonal(d, np.random.default_rng(seed))


def _spd(eigs: np.ndarray, q: np.ndarray | None) -> np.ndarray:
    """The dense matrix q diag(eigs) q', exactly symmetric; diag(eigs) when q is None."""
    if q is None:
        return np.diag(eigs)
    a = (q * eigs) @ q.T
    return (a + a.T) / 2.0


def gen_spd(d: int, mu: float, L: float, seed: int) -> np.ndarray:
    """Symmetric positive-definite matrix with a log-spaced spectrum on [mu, L].

    The spectrum and eigenvectors are those of ``_spectrum``; see there for
    the InvalidSpectrumError cases.
    """
    return _spd(*_spectrum(d, mu, L, seed))


def _eigenbasis(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and eigenvectors of a symmetric positive-definite a; no vectors if a is diagonal.

    Raises ValueError naming a unless a is exactly symmetric with a positive
    spectrum: eigh reads one triangle only, so it would symmetrize silently.
    """
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        eigs, q = np.diagonal(a).copy(), None
    elif np.array_equal(a, a.T):
        eigs, q = np.linalg.eigh(a)
    else:
        raise ValueError(f"{name} is not symmetric positive definite")
    if not eigs.min() > 0:
        raise ValueError(f"{name} is not symmetric positive definite")
    return eigs, q


def _op_norm(b: np.ndarray) -> float:
    """Largest singular value of b: the root of the top eigenvalue of its smaller Gram matrix."""
    gram = b @ b.T if b.shape[0] <= b.shape[1] else b.T @ b
    return math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))


class _DeterministicProblem(BilevelOracle):
    """Shared plumbing for the synthetic families (all deterministic), each caching its _constants."""

    family: str = ""
    _dims: Dims

    @property
    def dims(self) -> Dims:
        return self._dims

    def constants(self) -> SmoothnessConstants:
        return self._constants

    def outer_smoothness(self) -> tuple[float | None, float | None]:
        """(L, mu) of the outer loss where the family knows them exactly, else (None, None)."""
        return None, None

    def local_constants(self, x) -> SmoothnessConstants:
        """Smoothness constants that hold near x; the global ones unless curvature varies with x."""
        return self.constants()

    # A family may hold x in another basis than the one it is given in; these
    # map x between the two, and are the identity unless a family says otherwise.
    def x_in(self, x) -> np.ndarray:
        """x in the coordinates the queries take, from the coordinates the problem was given in."""
        return x

    def x_out(self, x) -> np.ndarray:
        """The inverse of x_in: x back in the coordinates the problem was given in."""
        return x

    def header(self, arrays) -> dict:
        """The container header of the arrays _arrays gives, as the family's FAMILIES row lays it out.

        The body's shapes give the dimensions it uses, and the row's extra
        argument gives extra.  A float field the family leaves undefined is
        NaN, and a count or extra it leaves is 0.
        """
        fam, nan = FAMILIES[self.family], float("nan")
        h = {"family": self.family, "dx": self.dims.dx, "dy": self.dims.dy, "n_aux1": 0, "n_aux2": 0,
             "seed": self.seed, "kappa_g": nan, "kappa_L": nan,
             "extra": 0.0 if fam.extra is None else getattr(self, fam.extra)}
        for (_, shape), array in zip(fam.body, arrays):
            h.update(zip(shape, array.shape))
        return h


class _LinearInnerProblem(_DeterministicProblem):
    """Quadratic inner cost under an outer cost that is linear in y, held in A_g's eigenbasis.

    g(x, y) = y' A_g y / 2 + y' B_g x and f(x, y) = y' C_f + (a term in x
    alone).  The inner side is stored after the change of variables
    y -> Q'y that diagonalizes A_g = Q diag(lam) Q': ``A_g`` is diag(lam),
    ``B_g`` is Q'B_g and ``C_f`` is Q'C_f.  This is the same instance (x,
    L(x) and every outer quantity are unchanged), but grad_gy is
    lam * y + B_g x, hvp_gyy is lam * v, y* and z* are divisions, and the
    bulk steps gd_steps and linear_steps are closed forms costing O(dy)
    whatever the step count.  So is the reverse pass of unrolled_grad, up
    to its one cross product B_g'w.  N noisy adjoint steps draw their N
    scalars in one call and are taken one at a time, in place.

    A diagonal A_g, which every generated problem has, is used as is.  Any
    other A_g must be exactly symmetric and is diagonalized once with eigh.
    ``_given`` keeps every array as given, a subclass's too, in container
    order, for ``_arrays``, so a container round-trips byte for byte.

    gd_steps and linear_steps keep their factors for the last (alpha, T) and
    (beta, N), which a run holds fixed, each in one tuple written whole when
    its key changes: r^T and the noisy Gaussian's scale, and r = 1 - beta *
    lam and r^N.  ``neg_lam`` holds -lam beside lam, so y* and the adjoint
    fixed point are one division each: u / -lam is -(u / lam) bit for bit,
    since negation commutes with IEEE division.

    Because f is linear in y, the adjoint z* = -C_f / lam does not depend on
    (x, y) and the outer gradient is the x term's plus grad_offset = B_g' z*.
    A subclass sets grad_offset in its constructor and defines the x term:
    grad_f (whose y part is C_f), grad_L, L_value, f_value, outer_smoothness.

    Lg_prime, B_g's operator norm, is taken as given when a generator knows
    it from its own scaling; otherwise (a container, a direct construction)
    constants() measures it from the B_g held.
    """

    def __init__(self, C_f, A_g, B_g, seed: int, Lg_prime: float | None = None):
        c_f, a_g, b_g = (np.asarray(a, dtype=float) for a in (C_f, A_g, B_g))
        self.seed = int(seed)
        dy, dx = b_g.shape
        if a_g.shape != (dy, dy) or c_f.shape != (dy,):
            raise ValueError(f"A_g {a_g.shape} or C_f {c_f.shape} mismatch B_g {dy, dx}")
        self._dims = Dims(dx, dy)
        self._Lg_prime = Lg_prime
        self._given = [c_f, a_g, b_g]
        self.lam, q = _eigenbasis(a_g, "A_g")
        if q is None:
            self.C_f, self.A_g, self.B_g = c_f, a_g, b_g
        else:
            self.C_f, self.A_g, self.B_g = q.T @ c_f, np.diag(self.lam), q.T @ b_g
        self.neg_lam = -self.lam
        self._gd_factors: tuple = (None, None, None)
        self._linear_factors: tuple = (None, None, None)

    # Oracle surface. Deterministic: batch_size and rng are ignored.
    def grad_gy(self, x, y, batch_size=1, rng=None):
        return self.lam * y + self.B_g @ x

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        return self.lam * v

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        return self.B_g.T @ z

    # Each step shrinks the distance to the fixed point by r = 1 - alpha * lam.
    # Under noise, T steps add -alpha * sum_t r^(T-1-t) xi_t, with xi_t step
    # t's batch-mean noise.  That sum is one Gaussian, with xi's per-coordinate
    # variance times sum_{t<T} r^(2t), so it is drawn once.
    def gd_steps(self, x, y, alpha, T, batch_size=1, rng=None, sigma=0.0):
        if T == 0:
            return np.array(y, dtype=float, copy=True)
        key, power, scale = self._gd_factors
        if key != (alpha, T):
            step = alpha * self.lam
            power, scale = (1.0 - step) ** T, alpha * np.sqrt(_power_sum(step * (2.0 - step), T))
            self._gd_factors = ((alpha, T), power, scale)
        ys = self.y_star(x)
        y = y - ys
        y *= power
        y += ys
        if sigma > 0:
            y -= scale * gaussian_mean(need_rng(rng, "grad_gy"), sigma, self.dims.dy, batch_size)
        return y

    # A noisy Hessian is lam + c_t elementwise, with c_t = sigma * zeta_bar_t
    # drawn fresh for each step, so step t is z <- a_t * z - beta * v with
    # a_t = 1 - beta * lam - beta * c_t.  All N scalars are drawn in one
    # call, and the steps are then taken one at a time, in place.
    def linear_steps(self, x, y, v, z, beta, N, batch_size=1, rng=None, sigma=0.0):
        if N == 0:
            return np.array(z, dtype=float, copy=True)
        key, r, power = self._linear_factors
        if key != (beta, N):
            r = 1.0 - beta * self.lam
            key, r, power = self._linear_factors = ((beta, N), r, r**N)
        if sigma > 0:
            shift = -beta * sigma * uniform_means(need_rng(rng, "hvp_gyy"), batch_size, N)
            z = np.array(z, dtype=float, copy=True)
            bv = beta * np.asarray(v, dtype=float)
            for s in shift:
                z *= r + s
                z -= bv
            return z
        zs = np.asarray(v, dtype=float) / self.neg_lam
        z = z - zs
        z *= power
        z += zs
        return z

    # The reverse pass multiplies p by r = 1 - alpha * lam at each step and
    # never reads the iterates, so its T cross products sum to one:
    # alpha * sum_{t<T} r^t * p, which is (1 - r^T) / lam * p.
    def unrolled_grad(self, x, y0, alpha, T):
        y = self.gd_steps(x, y0, alpha, T)
        g, p = self.grad_f(x, y)
        w = alpha * _power_sum(alpha * self.lam, T) * p
        return g - self.jvp_gxy(x, y, w), y

    @cached_property
    def _constants(self) -> SmoothnessConstants:
        # f is linear in y, so its smoothness is that of the outer loss.
        return SmoothnessConstants(
            mu_g=float(self.lam.min()),
            L_g=float(self.lam.max()),
            Lg_prime=_op_norm(self.B_g) if self._Lg_prime is None else self._Lg_prime,
            M_g=0.0,
            L_f=self.outer_smoothness()[0],
            B=float(np.linalg.norm(self.C_f)),
        )

    # Closed forms.
    def y_star(self, x) -> np.ndarray:
        return (self.B_g @ x) / self.neg_lam

    def z_star(self, x=None, y=None) -> np.ndarray:
        return self.C_f / self.neg_lam

    def header(self, arrays) -> dict:
        return {**super().header(arrays), "kappa_g": float(self.lam.max() / self.lam.min())}

    def _arrays(self) -> list[np.ndarray]:
        return [_spd(*a) if isinstance(a, tuple) else a for a in self._given]


def _power_sum(step: np.ndarray, T: int) -> np.ndarray:
    """sum_{t<T} r^t with r = 1 - step, elementwise, for T >= 0.

    The closed form is (1 - r^T) / step.  Where r > 0 it takes 1 - r^T
    through expm1 and log1p, so it stays accurate where r is near 1.  That
    form is nan exactly where it does not apply: at step = 0, where the sum
    is T, and where r < 0, or r = 0 with T = 0.  There r^T is taken as a
    power of r, which 1 - step gives exactly for step in [1, 2]; beyond 2,
    |r| > 1 and the sum grows without bound, as the steps it sums do.
    sum_{t<T} r^(2t) is this sum at step * (2 - step), which is 1 - r^2
    free of cancellation.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total = -np.expm1(T * np.log1p(-step)) / step
        odd = np.isnan(total)
        if odd.any():
            s = step[odd]
            total[odd] = np.where(s == 0.0, float(T), (1.0 - (1.0 - s) ** T) / s)
    return total


def _draw_coupling(rng: np.random.Generator, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
    """B_g scaled to unit operator norm and C_f a Gaussian direction of norm sqrt(dy), as drawn."""
    b_g = rng.standard_normal((dy, dx))
    b_g /= np.linalg.norm(b_g, 2)
    c_f = rng.standard_normal(dy)
    c_f *= math.sqrt(dy) / np.linalg.norm(c_f)
    return b_g, c_f


def _inner_side(
    rng: np.random.Generator, dx: int, dy: int, kappa_g: float, seed_g: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A_g's spectrum lam and the coupling in its eigenbasis Q: (lam, Q'B_g, Q'C_f).

    A_g's QR runs before the coupling is drawn: over repeated large builds a
    process's peak RSS stays lower in that order.  Nothing is rotated when
    A_g has no basis (kappa_g == 1).
    """
    lam, q = _spectrum(dy, 1.0 / kappa_g, 1.0, seed_g)
    b_g, c_f = _draw_coupling(rng, dx, dy)
    return (lam, b_g, c_f) if q is None else (lam, q.T @ b_g, q.T @ c_f)


class QuadraticProblem(_LinearInnerProblem):
    """Quadratic outer and inner costs with closed forms, held in the eigenbases of both Hessians.

    f(x, y) = x' A_f x / 2 + y' C_f and g(x, y) = y' A_g y / 2 + y' B_g x.
    Because f is linear in y, the outer loss L(x) is the quadratic
    x' A_f x / 2 - x' B_g' inv(A_g) C_f, whose Hessian is exactly A_f.

    On top of the inner change of variables, x is held after x -> Q_f'x,
    which diagonalizes A_f = Q_f diag(lam_f) Q_f': ``B_g`` is Q'B_g Q_f,
    grad_f's x part is lam_f * x, and grad_L, gap, L_value, f_value and x*
    are elementwise.  Queries, closed forms and metrics all take x in this
    basis; x_in and x_out map x from and back to the given coordinates, and
    Q_f is None where the two coincide.  The constructor sets the closed
    forms grad_offset and x*.

    A_f is given dense, as a container holds it, or as the pair (lam_f, Q_f)
    that _spectrum draws, which is never multiplied out.  A dense A_f must
    be symmetric positive definite and is diagonalized once with eigh unless
    it is diagonal.  Either form goes first in ``_given``, and ``_arrays``
    forms a drawn A_f with gen_spd's expression, so saved bytes match gen_spd's.
    """

    family = "quadratic"

    def __init__(self, A_f, C_f, A_g, B_g, seed: int = -1, Lg_prime: float | None = None):
        super().__init__(C_f, A_g, B_g, seed, Lg_prime)
        if isinstance(A_f, tuple):
            self.lam_f, self.Q_f = A_f
        else:
            A_f = np.asarray(A_f, dtype=float)
            dx = self.dims.dx
            if A_f.shape != (dx, dx):
                raise ValueError(f"A_f has shape {A_f.shape}, expected ({dx}, {dx})")
            self.lam_f, self.Q_f = _eigenbasis(A_f, "A_f")
        self._given.insert(0, A_f)
        if self.Q_f is not None:
            self.B_g = self.B_g @ self.Q_f
        # The errstate of a run's row 0: x* overflows where kappa_L nears the float range.
        with np.errstate(over="ignore", invalid="ignore"):
            self.grad_offset = self.B_g.T @ self.z_star()
            self.x_star = -self.grad_offset / self.lam_f

    def x_in(self, x) -> np.ndarray:
        return x if self.Q_f is None else self.Q_f.T @ x

    def x_out(self, x) -> np.ndarray:
        return x if self.Q_f is None else self.Q_f @ x

    def grad_f(self, x, y, batch_size=1, rng=None):
        return self.lam_f * x, self.C_f.copy()

    def outer_smoothness(self) -> tuple[float, float]:
        """Exact (L, mu) of the outer loss: the extreme eigenvalues of A_f."""
        return float(self.lam_f.max()), float(self.lam_f.min())

    def grad_L(self, x) -> np.ndarray:
        return self.lam_f * (x - self.x_star)

    def L_value(self, x) -> float:
        return float(0.5 * x @ (self.lam_f * x) + x @ self.grad_offset)

    def gap(self, x) -> float:
        return self.displacement_terms(x)[1]

    def displacement_terms(self, x) -> tuple[np.ndarray, float, float]:
        """(grad_L(x), gap(x), ||x - x*||^2) from one displacement x - x*, as a metrics row needs them."""
        # Evaluating through the displacement avoids cancellation near x*.
        d = x - self.x_star
        g = self.lam_f * d
        return g, float(0.5 * d @ g), float(np.add.reduce(d * d))

    def f_value(self, x, y) -> float:
        return float(0.5 * x @ (self.lam_f * x) + y @ self.C_f)

    def reference(self, x) -> dict:
        """All closed-form quantities at x."""
        x = np.asarray(x, dtype=float)
        return {
            "y_star": self.y_star(x),
            "z_star": self.z_star(),
            "L_value": self.L_value(x),
            "grad_L": self.grad_L(x),
            "x_star": self.x_star.copy(),
            "L_star": self.L_value(self.x_star),
        }

    def header(self, arrays) -> dict:
        # kappa_L of the A_f the container holds, as eigvalsh reports it; only a save pays for it.
        ef = np.linalg.eigvalsh(arrays[0])
        return {**super().header(arrays), "kappa_L": float(ef[-1] / ef[0])}


def check_condition_numbers(*kappas: float) -> None:
    """The generators' rule: every requested condition number is at least 1."""
    if any(kappa < 1 for kappa in kappas):
        got = ", ".join(map(str, kappas))
        raise InvalidSpectrumError(f"condition numbers must be >= 1, got {got}")


def gen_quadratic(dx: int, dy: int, kappa_g: float, kappa_L: float, seed: int) -> QuadraticProblem:
    """Quadratic instance with inner conditioning kappa_g and outer conditioning kappa_L.

    The inner Hessian A_g gets spectrum [1/kappa_g, 1] (so L_g = 1), the
    outer Hessian A_f gets spectrum [1/kappa_L, 1], the coupling B_g is
    scaled to unit operator norm and C_f is a seeded Gaussian direction of
    norm sqrt(dy).  All derived smoothness constants are therefore exact:
    Lg_prime is 1, the norm the coupling was scaled to (the orthogonal
    eigenbases leave it unchanged), and is not measured again.

    A_f's QR, the larger, runs here while one worker thread runs
    _inner_side; numpy releases the GIL in LAPACK calls and generator fills,
    so at one BLAS thread per process each takes a core.  Both spectrum
    seeds are drawn before the worker starts, and then only the worker draws
    from the generator: the bytes do not depend on the thread.  Leaving the
    pool joins the worker, also when a draw raises, so none is alive when a
    sweep forks its workers.
    """
    check_generator_args("quadratic", dx=dx, dy=dy, kappa_g=kappa_g, kappa_L=kappa_L)
    rng = np.random.default_rng(seed)
    seed_g, seed_f = (int(rng.integers(2**62)) for _ in range(2))
    with ThreadPoolExecutor(max_workers=1) as pool:
        inner = pool.submit(_inner_side, rng, dx, dy, kappa_g, seed_g)
        # A_f as gen_spd draws it at this seed, kept as its spectrum and eigenvectors.
        spectrum_f = _spectrum(dx, 1.0 / kappa_L, 1.0, seed_f)
        lam, b_g, c_f = inner.result()
    return QuadraticProblem(spectrum_f, c_f, np.diag(lam), b_g, seed=seed, Lg_prime=1.0)


class NonconvexOuterProblem(_LinearInnerProblem):
    """Cosine outer cost over a quadratic inner problem.

    f(x, y) = y' C_f + rho * sum_i cos(x_i) with the quadratic inner cost of
    the quadratic family.  The outer loss L(x) = x' c + rho * sum_i cos(x_i)
    with c = B_g' z* is smooth, non-convex and has stationary points because
    ||c||_inf < rho by construction.
    """

    family = "nonconvex"

    def __init__(self, rho: float, C_f, A_g, B_g, seed: int = -1, Lg_prime: float | None = None):
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        super().__init__(C_f, A_g, B_g, seed, Lg_prime)
        self.rho = float(rho)
        with np.errstate(over="ignore", invalid="ignore"):
            self.grad_offset = self.B_g.T @ self.z_star()

    def grad_f(self, x, y, batch_size=1, rng=None):
        return -self.rho * np.sin(x), self.C_f.copy()

    def outer_smoothness(self) -> tuple[float, None]:
        """(L, mu) of the outer loss; mu is None, as the outer loss is non-convex."""
        return self.rho, None

    def grad_L(self, x) -> np.ndarray:
        return -self.rho * np.sin(x) + self.grad_offset

    def L_value(self, x) -> float:
        return float(x @ self.grad_offset + self.rho * np.sum(np.cos(x)))

    def f_value(self, x, y) -> float:
        return float(y @ self.C_f + self.rho * np.sum(np.cos(x)))


def gen_nonconvex(
    dx: int, dy: int, rho: float, seed: int, kappa_g: float = 10.0
) -> NonconvexOuterProblem:
    """Non-convex-outer instance with inner pieces drawn as in gen_quadratic.

    C_f is rescaled so that ||B_g' z*||_inf equals rho / 2, which guarantees
    stationary points of the outer loss exist, and Lg_prime is 1 as in
    gen_quadratic.  With no A_f to overlap, the build starts no thread.
    """
    check_generator_args("nonconvex", dx=dx, dy=dy, rho=rho, kappa_g=kappa_g)
    rng = np.random.default_rng(seed)
    seed_g = int(rng.integers(2**62))
    lam, b_g, c_f = _inner_side(rng, dx, dy, kappa_g, seed_g)
    offset = b_g.T @ (c_f / lam)
    c_f *= (rho / 2.0) / np.max(np.abs(offset))
    return NonconvexOuterProblem(rho, c_f, np.diag(lam), b_g, seed=seed, Lg_prime=1.0)


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

    def grad_f(self, x, y, batch_size=1, rng=None):
        return np.zeros(self.dims.dx), self._G_val @ y - self._g_val

    def grad_gy(self, x, y, batch_size=1, rng=None):
        return self._G_tr @ y - self._g_tr + np.exp(x) * y / self.dims.dx

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        return self._G_tr @ v + np.exp(x) * v / self.dims.dx

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        return np.exp(x) * y * z / self.dims.dx

    def hess_g(self, x) -> np.ndarray:
        return self._G_tr + np.diag(np.exp(x) / self.dims.dx)

    def y_star(self, x) -> np.ndarray:
        return np.linalg.solve(self.hess_g(x), self._g_tr)

    def z_star(self, x, y) -> np.ndarray:
        return -np.linalg.solve(self.hess_g(x), self.grad_fy(x, y))

    def grad_L(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ys = self.y_star(x)
        zs = self.z_star(x, ys)
        return np.exp(x) * ys * zs / self.dims.dx

    def f_value(self, x, y) -> float:
        r = self.A_val @ y - self.b_val
        return float(0.5 * r @ r / self.A_val.shape[0])

    def L_value(self, x) -> float:
        return self.f_value(x, self.y_star(np.asarray(x, dtype=float)))

    def local_constants(self, x=None) -> SmoothnessConstants:
        """Smoothness constants local to x and a ball of inner iterates.

        The gradient bound B and the second-derivative constants only hold
        on bounded sets for this family; they are reported over the y ball
        of radius 2 ||y*(x)|| + 1 and the hyperparameter box
        [-RIDGE_X_BOX, RIDGE_X_BOX]^d.
        """
        x = np.zeros(self.dims.dx) if x is None else np.asarray(x, dtype=float)
        eigs = np.linalg.eigvalsh(self.hess_g(x))
        radius = 2.0 * float(np.linalg.norm(self.y_star(x))) + 1.0
        g_val_norm = float(np.linalg.norm(self._G_val, 2))
        box_scale = math.exp(RIDGE_X_BOX) / self.dims.dx
        return SmoothnessConstants(
            mu_g=float(eigs[0]),
            L_g=float(eigs[-1]),
            Lg_prime=box_scale * radius,
            M_g=box_scale * max(radius, 1.0),
            L_f=g_val_norm,
            B=g_val_norm * radius + float(np.linalg.norm(self._g_val)),
        )

    @cached_property
    def _constants(self) -> SmoothnessConstants:
        return self.local_constants()

    def _arrays(self) -> list[np.ndarray]:
        return [self.A_tr, self.b_tr, self.A_val, self.b_val]


def gen_ridge_hpo(
    n_tr: int, n_val: int, d: int, label_noise: float, seed: int
) -> RidgeHPOProblem:
    """Ridge instance with seeded Gaussian designs and a planted weight vector."""
    check_generator_args("ridge", n_tr=n_tr, n_val=n_val, d=d, label_noise=label_noise)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    a_tr = rng.standard_normal((n_tr, d))
    b_tr = a_tr @ w + label_noise * rng.standard_normal(n_tr)
    a_val = rng.standard_normal((n_val, d))
    b_val = a_val @ w + label_noise * rng.standard_normal(n_val)
    return RidgeHPOProblem(a_tr, b_tr, a_val, b_val, seed=seed, label_noise=label_noise)


# The families, in the order errors list them.  Each holds its generator, its
# container tag, the generator arguments that must be positive (the
# dimensions, and rho) and those that must be nonnegative, the (dimension,
# condition number) argument pairs it draws a spectrum on [1/kappa, 1] for,
# its class, its container body (each array's constructor argument and shape
# in header dimensions, in stored order) and the constructor argument the
# header's extra holds.  That argument is listed as positive or nonnegative,
# its range in a container too; a family without one writes extra as +0.0.
Family = namedtuple("Family", "generator tag positive nonnegative spectra cls body extra")
_LINEAR_INNER_BODY = (("C_f", ("dy",)), ("A_g", ("dy", "dy")), ("B_g", ("dy", "dx")))
FAMILIES = {
    "quadratic": Family(gen_quadratic, 1, ("dx", "dy"), (), (("dy", "kappa_g"), ("dx", "kappa_L")),
                        QuadraticProblem, (("A_f", ("dx", "dx")), *_LINEAR_INNER_BODY), None),
    "ridge": Family(gen_ridge_hpo, 2, ("n_tr", "n_val", "d"), ("label_noise",), (), RidgeHPOProblem,
                    (("A_tr", ("n_aux1", "dx")), ("b_tr", ("n_aux1",)),
                     ("A_val", ("n_aux2", "dx")), ("b_val", ("n_aux2",))), "label_noise"),
    "nonconvex": Family(gen_nonconvex, 3, ("dx", "dy", "rho"), (), (("dy", "kappa_g"),),
                        NonconvexOuterProblem, _LINEAR_INNER_BODY, "rho"),
}


def check_generator_args(family: str, **args) -> None:
    """Raise what the family's generator raises for these arguments, before it draws anything.

    Every dimension and rho must be positive, label_noise nonnegative, every
    condition number at least 1, and each spectrum must obey _spectrum's
    rule, under which dimension 1 admits only kappa = 1.  Other arguments
    are ignored.
    """
    fam = FAMILIES[family]
    for name in fam.positive:
        if not args[name] > 0:
            raise ValueError(f"{name} must be positive, got {args[name]}")
    for name in fam.nonnegative:
        if args[name] < 0:
            raise ValueError(f"{name} must be nonnegative, got {args[name]}")
    check_condition_numbers(*(args[kappa] for _, kappa in fam.spectra))
    for d, kappa in fam.spectra:
        _check_spectrum(args[d], 1.0 / args[kappa], 1.0)


def check_generated_spec(spec: dict, noise: NoiseSpec) -> SmoothnessConstants | None:
    """The one check of a canonical problem spec before its build; a container's spec passes.

    In order: the generator's rule (check_generator_args), then, given a
    kappa_g, the Hessian-noise rule at mu_g and finite derived constants.
    Those constants are the built problem's, and are returned: mu_g =
    1/kappa_g and L_g = 1 (_spectrum), Lg_prime = 1 (the coupling's scale),
    M_g = 0, and L_f = 1 (A_f's top eigenvalue) or rho; B is left 0, as it
    enters no derived constant when M_g = 0.  None for ridge, whose
    constants need the built problem.
    """
    if "family" in spec:
        check_generator_args(**spec)
    if "kappa_g" in spec:
        constants = SmoothnessConstants(1.0 / spec["kappa_g"], 1.0, Lg_prime=1.0, L_f=spec.get("rho", 1.0))
        check_hessian_noise(noise, constants.mu_g)
        derive_constants(constants)
        return constants
    return None


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample noise scales before batch averaging.

    The sigma values are the square roots of the per-sample second moments;
    batch averaging divides the second moments by the batch size.  Each
    must be finite and nonnegative.
    """

    sigma_f_tilde: float = 0.0
    sigma_g_tilde: float = 0.0
    sigma_gxy_tilde: float = 0.0
    sigma_gyy_tilde: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma_f_tilde", "sigma_g_tilde", "sigma_gxy_tilde", "sigma_gyy_tilde"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and nonnegative")

    @property
    def any_noise(self) -> bool:
        return max(
            self.sigma_f_tilde, self.sigma_g_tilde, self.sigma_gxy_tilde, self.sigma_gyy_tilde
        ) > 0


def check_hessian_noise(noise: NoiseSpec, mu_g: float) -> None:
    """ConfigurationError unless sqrt(3) * sigma_gyy_tilde < mu_g: every sampled Hessian is then SPD."""
    if ZETA_BOUND * noise.sigma_gyy_tilde >= mu_g:
        raise ConfigurationError("Hessian noise too large for positive definiteness: need "
                                 f"sqrt(3) * sigma_gyy_tilde < mu_g = {mu_g}")


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
    each query returns exactly the deterministic value.  Construction
    checks the Hessian noise against mu_g (check_hessian_noise).
    """

    def __init__(self, base, noise: NoiseSpec, seed: int):
        self.base = base
        self.noise = noise
        seed = int(seed)
        if noise.sigma_gyy_tilde > 0:
            check_hessian_noise(noise, base.constants().mu_g)
        # P serves noisy jvp_gxy queries alone, so an oracle without that noise builds none.
        self._P = None
        if noise.sigma_gxy_tilde > 0:
            d = base.dims
            p = np.random.default_rng(seed).standard_normal((d.dx, d.dy))
            self._P = p / np.linalg.norm(p, 2)

    @property
    def dims(self) -> Dims:
        return self.base.dims

    def constants(self) -> SmoothnessConstants:
        return self.base.constants()

    def grad_f(self, x, y, batch_size=1, rng=None):
        ux, uy = self.base.grad_f(x, y)
        s = self.noise.sigma_f_tilde
        if s == 0:
            return ux, uy
        d = self.dims
        eps = gaussian_mean(need_rng(rng, "grad_f"), s, d.dx + d.dy, batch_size)
        return ux + eps[: d.dx], uy + eps[d.dx :]

    def grad_gy(self, x, y, batch_size=1, rng=None):
        val = self.base.grad_gy(x, y)
        s = self.noise.sigma_g_tilde
        if s == 0:
            return val
        return val + gaussian_mean(need_rng(rng, "grad_gy"), s, self.dims.dy, batch_size)

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        val = self.base.hvp_gyy(x, y, v)
        s = self.noise.sigma_gyy_tilde
        if s == 0:
            return val
        zeta = uniform_means(need_rng(rng, "hvp_gyy"), batch_size, 1)[0]
        return val + s * zeta * np.asarray(v, dtype=float)

    # The base takes the bulk methods, the steps under this oracle's noise
    # scale: in closed form on the linear-inner families, by its literal loop
    # otherwise.
    def gd_steps(self, x, y, alpha, T, batch_size=1, rng=None):
        sigma = self.noise.sigma_g_tilde
        return self.base.gd_steps(x, y, alpha, T, batch_size, rng, sigma=sigma)

    def linear_steps(self, x, y, v, z, beta, N, batch_size=1, rng=None):
        sigma = self.noise.sigma_gyy_tilde
        return self.base.linear_steps(x, y, v, z, beta, N, batch_size, rng, sigma=sigma)

    def unrolled_grad(self, x, y0, alpha, T):
        if self.is_stochastic:
            raise UnsupportedOperationError(
                "unrolled differentiation requires a deterministic oracle")
        return self.base.unrolled_grad(x, y0, alpha, T)

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        val = self.base.jvp_gxy(x, y, z)
        s = self.noise.sigma_gxy_tilde
        if s == 0:
            return val
        zeta = uniform_means(need_rng(rng, "jvp_gxy"), batch_size, 1)[0]
        return val + s * zeta * (self._P @ np.asarray(z, dtype=float))


def make_stochastic(problem, noise: NoiseSpec, seed: int) -> StochasticOracle:
    """Wrap a deterministic problem into the batched noisy oracle."""
    return StochasticOracle(problem, noise, seed)


# ---------------------------------------------------------------------------
# Serialization: magic string, fixed 72-byte header, then row-major
# little-endian float64 arrays in the order the family's FAMILIES row declares.

_HEADER_FMT = "<qqqqqqddd"
_HEADER_KEYS = ("family_tag", "dx", "dy", "n_aux1", "n_aux2", "seed", "kappa_g", "kappa_L", "extra")


def _problem_bytes(problem) -> bytes:
    # The header reads the body it heads, so a drawn A_f is formed once per save.
    arrays = problem._arrays()
    h = problem.header(arrays)
    if not -2**63 <= h["seed"] < 2**63:
        raise ContainerError("seed", f"{h['seed']} does not fit the header's int64 field")
    packed = struct.pack(_HEADER_FMT, FAMILIES[h["family"]].tag, *map(h.get, _HEADER_KEYS[1:]))
    blobs = [arr.astype("<f8").tobytes(order="C") for arr in arrays]
    return MAGIC + packed + b"".join(blobs)


def save_problem(problem, path) -> None:
    """Write the binary problem container (plus no sidecar; see the CLI).

    The bytes are built before path is opened, so a problem that does not
    fit a container leaves a file already there as it was.
    """
    raw = _problem_bytes(problem)
    with open(path, "wb") as fh:
        fh.write(raw)


_HEADER_END = len(MAGIC) + struct.calcsize(_HEADER_FMT)


class ContainerError(ValueError):
    """A problem container whose header or body does not hold a problem, or a problem no header holds.

    ``field`` names the offending part: magic, header, family_tag, a header
    dimension, extra, seed (outside int64 on save), or body.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"problem container {field}: {message}")
        self.field = field


def _read_header(raw: bytes) -> dict:
    """The header at the start of raw, once it obeys every rule its family's FAMILIES row sets.

    The tag must be known, each dimension the body uses positive (checked in
    header order), and extra in its argument's range: positive or
    nonnegative as the row lists it, and +0.0, the one value that
    round-trips, for a family without one.
    """
    if raw[: len(MAGIC)] != MAGIC:
        raise ContainerError("magic", "not a problem container (bad magic string)")
    if len(raw) < _HEADER_END:
        raise ContainerError("header", f"{len(raw)} bytes, shorter than the {_HEADER_END}-byte header")
    h = dict(zip(_HEADER_KEYS, struct.unpack_from(_HEADER_FMT, raw, len(MAGIC))))
    tag = h.pop("family_tag")
    h["family"] = next((name for name, fam in FAMILIES.items() if fam.tag == tag), None)
    if h["family"] is None:
        raise ContainerError("family_tag", f"unknown problem family tag {tag}")
    fam = FAMILIES[h["family"]]
    used = {dim for _, shape in fam.body for dim in shape}
    for name in _HEADER_KEYS[1:5]:
        if name in used and h[name] <= 0:
            raise ContainerError(name, f"dimension must be positive, got {h[name]}")
    extra = h["extra"]
    if fam.extra in fam.positive:
        rule, ok = f"{fam.extra} must be positive", extra > 0
    elif fam.extra in fam.nonnegative:
        rule, ok = f"{fam.extra} must be nonnegative", extra >= 0
    else:
        rule, ok = f"must be 0 for a {h['family']} problem", extra == 0 and math.copysign(1.0, extra) > 0
    if not (ok and math.isfinite(extra)):
        raise ContainerError("extra", f"{rule}, got {extra}")
    return h


def load_problem(path):
    """Load a problem container written by save_problem.

    Raises ContainerError unless the header obeys its family's rules
    (_read_header), the body holds exactly the float64 values its dimensions
    imply, every value is finite, and A_g and A_f, where the family has
    them, are symmetric positive definite.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    h = _read_header(raw)
    fam = FAMILIES[h["family"]]
    shapes = [tuple(h[dim] for dim in shape) for _, shape in fam.body]
    size = sum(math.prod(shape) for shape in shapes)
    if len(raw) - _HEADER_END != 8 * size:
        raise ContainerError("body", f"{len(raw) - _HEADER_END} bytes where the header implies {8 * size}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER_END)
    if not np.isfinite(body).all():
        raise ContainerError("body", f"{np.count_nonzero(~np.isfinite(body))} non-finite values")
    arrays, offset = {}, 0
    for (name, _), shape in zip(fam.body, shapes):
        n = math.prod(shape)
        arrays[name] = body[offset:offset + n].reshape(shape).astype(float)
        offset += n
    extra = {} if fam.extra is None else {fam.extra: h["extra"]}
    try:
        # The constructors reject an A_g or A_f that is not symmetric positive definite.
        return fam.cls(**arrays, seed=h["seed"], **extra)
    except ValueError as err:
        raise ContainerError("body", str(err)) from None


def describe_problem(path) -> dict:
    """Header of a problem container as a plain dict (JSON-friendly), checked as load_problem checks it.

    A header float the family leaves undefined (NaN in the container) is None.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_END)
    h = _read_header(raw)
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in h.items()}
