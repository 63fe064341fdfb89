import math
import re

import numpy as np
import pytest

from amigo import (
    DivergenceError,
    NoiseSpec,
    gen_quadratic,
    make_stochastic,
    solve_inner_sgd,
    solve_linear_cg,
    solve_linear_neumann,
    solve_linear_sgd,
)


@pytest.fixture
def quad():
    return gen_quadratic(10, 8, kappa_g=10.0, kappa_L=4.0, seed=31)


@pytest.fixture
def point(quad):
    rng = np.random.default_rng(5)
    return rng.standard_normal(10), rng.standard_normal(8)


class TestInnerSgd:
    def test_zero_steps_returns_start(self, quad, point):
        x, y0 = point
        res = solve_inner_sgd(quad, x, y0, alpha=0.5, T=0)
        assert np.array_equal(res.out, y0)
        assert res.iterations_used == 0

    def test_matches_dense_linear_iteration(self, quad, point):
        # y^T = (I - a A_g)^T (y0 - y*) + y* on a quadratic inner problem.
        x, y0 = point
        alpha, T = 0.7, 5
        res = solve_inner_sgd(quad, x, y0, alpha=alpha, T=T)
        y_star = quad.y_star(x)
        m = np.linalg.matrix_power(np.eye(8) - alpha * quad.A_g, T)
        expected = m @ (y0 - y_star) + y_star
        assert np.linalg.norm(res.out - expected) <= 1e-12 * max(1, np.linalg.norm(expected))

    def test_identity_hessian_one_step_exact(self):
        p = gen_quadratic(6, 4, kappa_g=1.0, kappa_L=3.0, seed=2)
        x = np.random.default_rng(1).standard_normal(6)
        y0 = np.random.default_rng(2).standard_normal(4)
        res = solve_inner_sgd(p, x, y0, alpha=1.0, T=1)
        assert np.linalg.norm(res.out - p.y_star(x)) <= 1e-12

    def test_contraction_bound(self, quad, point):
        x, y0 = point
        c = quad.constants()
        alpha, T = 1.0 / c.L_g, 12
        res = solve_inner_sgd(quad, x, y0, alpha=alpha, T=T)
        y_star = quad.y_star(x)
        lhs = np.sum((res.out - y_star) ** 2)
        rhs = (1 - alpha * c.mu_g) ** T * np.sum((y0 - y_star) ** 2)
        assert lhs <= rhs + 1e-12

    def test_aggressive_step_warns(self, quad, point):
        x, y0 = point
        with pytest.warns(UserWarning):
            solve_inner_sgd(quad, x, y0, alpha=5.0, T=1)


def test_step_solvers_share_their_preconditions(quad, point):
    # A negative count raises; a step above its bound warns, attributed to the solver's caller.
    x, y = point
    v = np.ones(8)
    calls = {
        "inner step size alpha=5.0 exceeds 1/L_g": lambda s, n: solve_inner_sgd(quad, x, y, s, n),
        "linear-solver step size beta=5.0 exceeds 1/(2 L_g)":
            lambda s, n: solve_linear_sgd(quad, x, y, v, y, s, n),
        "Neumann step size beta=5.0 exceeds 1/L_g": lambda s, n: solve_linear_neumann(quad, x, y, v, s, n),
    }
    for message, call in calls.items():
        with pytest.warns(UserWarning, match=re.escape(message)) as record:
            call(5.0, 1)
        assert [r.filename for r in record] == [__file__]
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            call(0.1, -1)


def test_step_bounds_are_inclusive(quad, point):
    # Each bound is inclusive: a step exactly at it is silent (pytest turns a
    # warning into an error), and one a quarter above it warns.
    x, y = point
    v, L_g = np.ones(8), quad.constants().L_g
    calls = [
        (1.0 / L_g, lambda s: solve_inner_sgd(quad, x, y, s, 1)),
        (1.0 / (2.0 * L_g), lambda s: solve_linear_sgd(quad, x, y, v, y, s, 1)),
        (1.0 / L_g, lambda s: solve_linear_neumann(quad, x, y, v, s, 1)),
    ]
    for bound, call in calls:
        call(bound)
        with pytest.warns(UserWarning, match="exceeds"):
            call(1.25 * bound)


class TestLinearSolvers:
    def setup_method(self):
        self.p = gen_quadratic(10, 8, kappa_g=10.0, kappa_L=4.0, seed=31)
        rng = np.random.default_rng(6)
        self.x = rng.standard_normal(10)
        self.y = rng.standard_normal(8)
        self.v = rng.standard_normal(8)
        self.z_star = -np.linalg.solve(self.p.A_g, self.v)

    def test_zero_steps(self):
        z0 = np.random.default_rng(0).standard_normal(8)
        assert np.array_equal(
            solve_linear_sgd(self.p, self.x, self.y, self.v, z0, beta=0.4, N=0).out, z0
        )

    def test_solution_is_fixed_point(self):
        res = solve_linear_sgd(self.p, self.x, self.y, self.v, self.z_star, beta=0.4, N=7)
        assert np.linalg.norm(res.out - self.z_star) <= 1e-12

    def test_zero_variance_stochastic_identical(self):
        oracle = make_stochastic(self.p, NoiseSpec(), seed=0)
        z0 = np.zeros(8)
        a = solve_linear_sgd(self.p, self.x, self.y, self.v, z0, beta=0.3, N=9).out
        b = solve_linear_sgd(
            oracle, self.x, self.y, self.v, z0, beta=0.3, N=9, batch_gyy=4,
            rng=np.random.default_rng(2),
        ).out
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("trial", range(20))
    def test_triple_equivalence(self, trial):
        # Neumann accumulation and the fixed-point recursion (deterministic
        # SGD from zero, which the fixed_point kind runs) agree to near
        # machine precision for any (beta, N).
        rng = np.random.default_rng(trial)
        p = gen_quadratic(6, 5, kappa_g=float(rng.uniform(1, 30)), kappa_L=3.0, seed=trial)
        x = rng.standard_normal(6)
        y = rng.standard_normal(5)
        v = rng.standard_normal(5)
        beta = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 40))
        z_sgd = solve_linear_sgd(p, x, y, v, np.zeros(5), beta=beta, N=n).out
        z_ne = solve_linear_neumann(p, x, y, v, beta=beta, N=n).out
        scale = max(1.0, float(np.linalg.norm(z_sgd)))
        assert np.linalg.norm(z_ne - z_sgd) <= 1e-12 * scale

    def test_neumann_single_term(self):
        res = solve_linear_neumann(self.p, self.x, self.y, self.v, beta=0.25, N=1)
        assert np.array_equal(res.out, -0.25 * self.v)

    def test_neumann_geometric_tail(self):
        p = gen_quadratic(6, 5, kappa_g=2.0, kappa_L=3.0, seed=8)
        rng = np.random.default_rng(9)
        x, y, v = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(5)
        c = p.constants()
        beta, n = 1.0 / c.L_g, 200
        z = solve_linear_neumann(p, x, y, v, beta=beta, N=n).out
        target = -np.linalg.solve(p.A_g, v)
        rel = np.linalg.norm(z - target) / np.linalg.norm(target)
        assert rel <= (1 - beta * c.mu_g) ** n + 1e-12

    def test_contraction(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            p = gen_quadratic(6, 5, kappa_g=12.0, kappa_L=3.0, seed=seed)
            x, y, v = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(5)
            z0 = rng.standard_normal(5)
            c = p.constants()
            beta, n = 1.0 / (2 * c.L_g), 15
            z = solve_linear_sgd(p, x, y, v, z0, beta=beta, N=n).out
            z_star = -np.linalg.solve(p.A_g, v)
            lhs = np.linalg.norm(z - z_star)
            rhs = (1 - beta * c.mu_g) ** n * np.linalg.norm(z0 - z_star)
            assert lhs <= rhs + 1e-12

    def test_aggressive_beta_warns(self):
        with pytest.warns(UserWarning):
            solve_linear_sgd(self.p, self.x, self.y, self.v, np.zeros(8), beta=2.0, N=1)

    def test_stochastic_error_bound_contraction_plus_floor(self):
        # Mean squared error after N noisy steps obeys the closed bound
        #   (1 - beta mu)^N ||z0 - z*||^2
        #     + beta^2 (sigma_A^2 ||z*||^2 + 3 n* sigma_c^2) n*
        # with n* = min(N, 1/(beta mu)); here the right-hand side v is held
        # exact so sigma_c = 0 and sigma_A^2 is the Hessian perturbation's
        # operator-norm second moment.
        p = gen_quadratic(6, 6, kappa_g=4.0, kappa_L=2.0, seed=3)
        c = p.constants()
        sigma = 0.1  # sqrt(3) * sigma < mu_g keeps samples positive definite
        noise = NoiseSpec(sigma_gyy_tilde=sigma)
        rng_pt = np.random.default_rng(0)
        x, y = rng_pt.standard_normal(6), rng_pt.standard_normal(6)
        v = p.grad_fy(x, y)
        z_star = -np.linalg.solve(p.A_g, v)
        z0 = z_star + rng_pt.standard_normal(6)
        beta = min(
            1.0 / (2 * c.L_g), c.mu_g / (c.mu_g**2 + sigma**2)
        )
        for n in (5, 25, 100):
            total = 0.0
            seeds = 300
            for seed in range(seeds):
                oracle = make_stochastic(p, noise, seed=seed)
                z = solve_linear_sgd(
                    oracle, x, y, v, z0, beta=beta, N=n,
                    rng=np.random.default_rng(4000 + seed),
                ).out
                total += float(np.sum((z - z_star) ** 2))
            mean_err = total / seeds
            n_eff = min(n, 1.0 / (beta * c.mu_g))
            bound = (1 - beta * c.mu_g) ** n * float(np.sum((z0 - z_star) ** 2))
            bound += beta**2 * sigma**2 * float(z_star @ z_star) * n_eff
            assert mean_err <= bound * 1.05

    def test_stochastic_floor_shrinks_with_noise(self):
        # Long-run squared error = contracted start + a noise floor; halving
        # both noise scales must at least halve the floor (it quarters).
        p = gen_quadratic(6, 6, kappa_g=4.0, kappa_L=2.0, seed=3)
        rng_pt = np.random.default_rng(0)
        x, y = rng_pt.standard_normal(6), rng_pt.standard_normal(6)
        v_det = p.grad_fy(x, y)
        z_star = -np.linalg.solve(p.A_g, v_det)
        beta, n, seeds = 1.0 / (2 * p.constants().L_g), 400, 50

        def long_run_error(sig_gyy, sig_f):
            noise = NoiseSpec(sigma_gyy_tilde=sig_gyy, sigma_f_tilde=sig_f)
            total = 0.0
            for seed in range(seeds):
                oracle = make_stochastic(p, noise, seed=seed)
                rng = np.random.default_rng(1000 + seed)
                v = oracle.grad_fy(x, y, batch_size=1, rng=rng)
                z = solve_linear_sgd(
                    oracle, x, y, v, z_star.copy(), beta=beta, N=n, rng=rng
                ).out
                total += float(np.sum((z - z_star) ** 2))
            return total / seeds

        full = long_run_error(0.12, 0.5)
        half = long_run_error(0.06, 0.25)
        assert half <= full / 2.0


class TestConjugateGradient:
    def setup_method(self):
        self.p = gen_quadratic(8, 20, kappa_g=10.0, kappa_L=4.0, seed=12)
        rng = np.random.default_rng(3)
        self.x = rng.standard_normal(8)
        self.y = rng.standard_normal(20)
        self.v = rng.standard_normal(20)

    def test_identity_converges_in_one_iteration(self):
        p = gen_quadratic(4, 6, kappa_g=1.0, kappa_L=2.0, seed=0)
        v = np.random.default_rng(1).standard_normal(6)
        res = solve_linear_cg(p, np.zeros(4), np.zeros(6), v, tol=1e-12, max_iter=10)
        assert res.iterations_used == 1
        assert np.allclose(res.out, -v, rtol=0, atol=1e-12)

    def test_reaches_tolerance_within_dimension_iterations(self):
        res = solve_linear_cg(self.p, self.x, self.y, self.v, tol=1e-10, max_iter=20)
        true_residual = np.linalg.norm(self.p.A_g @ res.out + self.v)
        assert res.iterations_used <= 20
        assert true_residual <= 1e-10 * max(1.0, np.linalg.norm(self.v))
        dense = -np.linalg.solve(self.p.A_g, self.v)
        assert np.linalg.norm(res.out - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_warm_start_at_solution_uses_zero_iterations(self):
        z0 = -np.linalg.solve(self.p.A_g, self.v)
        res = solve_linear_cg(self.p, self.x, self.y, self.v, z0=z0, tol=1e-10, max_iter=20)
        assert res.iterations_used == 0

    def test_a_norm_error_monotone(self):
        # Restarting from the same z0 for j iterations reproduces iterate j
        # of a single run, so per-prefix solves expose the error path.
        dense = -np.linalg.solve(self.p.A_g, self.v)
        errors = []
        for j in range(1, 21):
            z = solve_linear_cg(self.p, self.x, self.y, self.v, tol=0.0, max_iter=j).out
            e = z - dense
            errors.append(float(e @ (self.p.A_g @ e)))
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev * (1 + 1e-10) + 1e-20

    def test_final_residual_populated(self):
        res = solve_linear_cg(self.p, self.x, self.y, self.v, tol=1e-8, max_iter=30)
        assert res.final_residual is not None
        assert res.final_residual <= 1e-8 * max(1.0, np.linalg.norm(self.v))

    @pytest.mark.parametrize("tol, max_iter", [(1e-10, 100), (0.0, 3)])
    def test_final_residual_is_that_of_the_returned_z(self, tol, max_iter):
        # The recurrence's residual is ||H z + v|| at the z returned, whether
        # the solve stops on the tolerance or at max_iter.
        p = gen_quadratic(12, 8, kappa_g=50.0, kappa_L=5.0, seed=7)
        rng = np.random.default_rng(3)
        x, y, v = rng.standard_normal(12), rng.standard_normal(8), rng.standard_normal(8)
        res = solve_linear_cg(p, x, y, v, tol=tol, max_iter=max_iter)
        assert (res.iterations_used < max_iter) == (tol > 0)
        true_residual = np.linalg.norm(p.hvp_gyy(x, y, res.out) + v)
        assert abs(res.final_residual - true_residual) <= 1e-12 * max(1.0, np.linalg.norm(v))

    def test_threshold_takes_numpys_norm(self):
        # The stopping threshold takes ||v|| as sqrt(v @ v), which is what
        # np.linalg.norm computes for a 1-D vector, bit for bit.
        rng = np.random.default_rng(9)
        for n in (*range(1, 300), 1000, 3001):
            v = rng.standard_normal(n) * 10.0 ** float(rng.integers(-100, 100))
            assert math.sqrt(v @ v) == float(np.linalg.norm(v)), n

    def test_neumann_without_terms_is_zero(self):
        res = solve_linear_neumann(self.p, self.x, self.y, self.v, beta=0.5, N=0)
        assert np.array_equal(res.out, np.zeros(20)) and res.iterations_used == 0


class ScaledIdentity:
    """A stub oracle whose inner Hessian is scale * I, which CG cannot solve for scale <= 0."""

    def __init__(self, scale):
        self.scale = scale

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        return self.scale * np.asarray(v)


@pytest.mark.parametrize("scale, curvature", [(0.0, "0.0"), (-1.0, "-3.0"), (math.nan, "nan")])
def test_cg_breakdown_raises_divergence(scale, curvature):
    with pytest.raises(DivergenceError) as err:
        solve_linear_cg(ScaledIdentity(scale), None, None, np.ones(3))
    assert str(err.value) == f"CG breakdown at iteration 1: p'Hp = {curvature}"
