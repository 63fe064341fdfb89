"""Predicted rates: the iteration matrix of a deterministic run on the quadratic family.

On the quadratic family a deterministic amigo-gd or aid-gd run is an
affine map on the state (x, y, z), held in the eigenbases of A_f and A_g
where every inner factor is diagonal.  Each step refreshes z to
z* + S^N (z0 - z*), with S = 1 - beta * lam and z0 the previous z (warm)
or zero (cold), and moves x by -gamma (lam_f * x + B_g' z).  aid-fp takes
aid-gd's adjoint steps, and aid-n's N-term series is (1 - S^N) z*, aid-gd's
cold z, so both follow aid-gd's map.  The outer cost is linear in y, so
no query the outer step reads depends on y: y enters neither update and
the map on the errors (x - x_ref, z - z*) is

    [[I - gamma diag(lam_f), -gamma B_g' Z],
     [0,                     Z          ]],    Z = diag(S^N) warm, 0 cold.

Its spectral radius is the run's rate per outer step, and it is built here
from the problem's arrays and the SolverConfig alone, not from amigo.outer.
The warm run converges to x*; the cold one to x_inf, the x that the
truncated adjoint (1 - S^N) z* makes stationary.  The map is block
triangular, so the rate is the larger of max|1 - gamma lam_f| and, for the
warm run, max|S|^N, and it has no T in it: at this coupling the inner
steps in y cost oracle calls and change nothing, which a family whose
outer cost reads y has to break.

itd's gradient does not read y either: its reverse pass multiplies the
constant grad_y f = C_f by r = 1 - alpha lam, so its adjoint is
(1 - r^T) z*, a cold z after T steps of size alpha.  Its map on x - x_T
is I - gamma diag(lam_f), and it converges to x_T, aid-gd's cold limit
with (alpha, T) in place of (beta, N).
"""

import dataclasses
import functools

import numpy as np
import pytest

from amigo import aid_run, gen_quadratic, itd_hypergradient, itd_run, prescribed_schedule
from amigo.cli import METHODS, METHOD_FIELDS

K = 6000
RTOL = 1e-3
# The measured window: errors between these fractions of the starting error,
# past the transient and above rounding.
WINDOW = (1e-11, 1e-4)
TN = [(1, 1), (7, 1), (1, 3), (1, 30)]


@functools.cache
def problem(kappa_g):
    return gen_quadratic(6, 4, kappa_g, 10.0, seed=0)


@functools.cache
def run(method, kappa_g, T, N):
    p = problem(kappa_g)
    L_outer, mu = p.outer_smoothness()
    owned = {name: METHODS[method][name] for name in METHOD_FIELDS if name in METHODS[method]}
    config, _ = prescribed_schedule(p.constants(), mu_outer=mu, L_outer=L_outer, K=K, **owned)
    config = dataclasses.replace(config, T=T, N=N)
    run_method = itd_run if METHODS[method]["driver"] == "itd" else aid_run
    record = run_method(p, config, np.ones(p.dims.dx), store_iterates=True)
    return config, np.array(record.xs)


def iteration_matrix(p, config):
    """The map on (x - x_ref, z - z*) that one outer step applies."""
    dx, dy = p.dims.dx, p.dims.dy
    contraction = (1.0 - config.beta * p.lam) ** config.N
    Z = np.diag(contraction) if config.warm_z else np.zeros((dy, dy))
    M = np.zeros((dx + dy, dx + dy))
    M[:dx, :dx] = np.diag(1.0 - config.gamma * p.lam_f)
    M[:dx, dx:] = -config.gamma * p.B_g.T @ Z
    M[dx:, dx:] = Z
    return M


def reference(p, config, method):
    """The point the run converges to: x* warm, x_inf = -B_g'((1 - S^N) z*) / lam_f cold.

    itd's is x_T, the same with r^T, r = 1 - alpha lam, in place of S^N.
    """
    itd = METHODS[method]["driver"] == "itd"
    if config.warm_z and not itd:
        return p.x_star
    step, count = (config.alpha, config.T) if itd else (config.beta, config.N)
    z_star = -p.C_f / p.lam
    z_inf = (1.0 - (1.0 - step * p.lam) ** count) * z_star
    return -(p.B_g.T @ z_inf) / p.lam_f


def measured_rate(xs, x_ref):
    """Median ratio of successive errors over the second half of the window's iterations."""
    err = np.linalg.norm(xs - x_ref, axis=1)
    lo, hi = (bound * err[0] for bound in WINDOW)
    inside = np.flatnonzero((err > lo) & (err < hi))
    assert inside.size >= 20, f"{inside.size} iterations in the window"
    tail = inside[inside.size // 2:]
    tail = tail[tail + 1 < err.size]
    return float(np.median(err[tail + 1] / err[tail]))


@pytest.mark.parametrize("kappa_g", [10.0, 100.0])
@pytest.mark.parametrize("T, N", TN)
@pytest.mark.parametrize("method", ["amigo-gd", "aid-gd", "aid-fp", "aid-n"])
def test_measured_rate_is_the_spectral_radius(method, kappa_g, T, N):
    p = problem(kappa_g)
    config, xs = run(method, kappa_g, T, N)
    rho = float(np.max(np.abs(np.linalg.eigvals(iteration_matrix(p, config)))))
    outer = np.max(np.abs(1.0 - config.gamma * p.lam_f))
    inner = np.max(np.abs(1.0 - config.beta * p.lam)) ** N if config.warm_z else 0.0
    assert rho == pytest.approx(max(outer, inner), rel=1e-12)
    assert measured_rate(xs, reference(p, config, method)) == pytest.approx(rho, rel=RTOL)


@pytest.mark.parametrize("kappa_g", [10.0, 100.0])
@pytest.mark.parametrize("T", [1, 3, 7])
def test_itd_rate_is_the_outer_factor_and_its_limit_is_x_T(kappa_g, T):
    p = problem(kappa_g)
    config, xs = run("itd", kappa_g, T, 1)
    x_T = reference(p, config, "itd")
    outer = float(np.max(np.abs(1.0 - config.gamma * p.lam_f)))
    assert measured_rate(xs, x_T) == pytest.approx(outer, rel=RTOL)
    assert np.linalg.norm(xs[-1] - x_T) <= 1e-12 * np.linalg.norm(x_T)


@pytest.mark.parametrize("T", [0, 1, 3, 7])
def test_itd_hypergradient_does_not_read_y(T):
    # The degeneracy a family whose outer cost reads y must break: on this
    # family the unrolled gradient is the same, bit for bit, from any y0.
    p = problem(10.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(p.dims.dx)
    y0, y1 = rng.standard_normal((2, p.dims.dy))
    grads = [itd_hypergradient(p, x, y, 1.0 / p.constants().L_g, T).grad for y in (y0, y1)]
    assert np.array_equal(*grads)


@pytest.mark.parametrize("kappa_g", [10.0, 100.0])
def test_amigo_gd_iterates_do_not_depend_on_T(kappa_g):
    # The degeneracy a family whose outer cost reads y must break: with f
    # linear in y, T inner steps change no x iterate, bit for bit.
    _, one = run("amigo-gd", kappa_g, 1, 1)
    _, seven = run("amigo-gd", kappa_g, 7, 1)
    assert np.array_equal(one, seven)


@pytest.mark.parametrize("kappa_g", [10.0, 100.0])
@pytest.mark.parametrize("T, N", TN)
def test_aid_fp_iterates_are_aid_gds(kappa_g, T, N):
    # Deterministic, at batch 1, both take the same closed-form adjoint steps.
    assert np.array_equal(run("aid-fp", kappa_g, T, N)[1], run("aid-gd", kappa_g, T, N)[1])
