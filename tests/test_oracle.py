import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amigo import (
    InvalidConstantsError,
    SmoothnessConstants,
    derive_constants,
    gen_quadratic,
    make_stochastic,
    psi_hat,
)
from amigo.problems import NoiseSpec

from conftest import central_diff, rel_err


class TestDeriveConstants:
    def test_decoupled_problem(self):
        # Cross terms vanish: L'_g = M_g = B = 0.
        d = derive_constants(SmoothnessConstants(1.0, 1.0, 0.0, 0.0, 1.0, 0.0))
        assert d.L_y == 0.0
        assert d.L_z == 1.0
        assert d.L_psi == 1.0
        assert d.L == 1.0
        assert d.kappa_g == 1.0

    def test_coupled_problem_frozen_values(self):
        # Expected values evaluated by hand from the closed forms before coding.
        d = derive_constants(SmoothnessConstants(0.5, 1.0, 1.0, 0.0, 1.0, 2.0))
        assert d.L_y == pytest.approx(2.0, rel=1e-15)
        assert d.L_z == pytest.approx(2.0, rel=1e-15)
        assert d.L_psi == pytest.approx(3.0, rel=1e-15)
        assert d.L == pytest.approx(9.0, rel=1e-15)
        assert d.kappa_g == pytest.approx(2.0, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(min_value=1e-3, max_value=1e3),
        mu=st.floats(min_value=1e-3, max_value=1.0),
        m=st.floats(min_value=0.0, max_value=10.0),
        lf=st.floats(min_value=0.0, max_value=10.0),
        b=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_lz_scales_linearly_in_mg_lf(self, t, mu, m, lf, b):
        base = derive_constants(SmoothnessConstants(mu, 2 * mu, 1.0, m, lf, b))
        scaled = derive_constants(SmoothnessConstants(mu, 2 * mu, 1.0, t * m, t * lf, b))
        assert scaled.L_z == pytest.approx(t * base.L_z, rel=1e-12, abs=1e-300)

    def test_invalid_constants(self):
        with pytest.raises(InvalidConstantsError):
            SmoothnessConstants(mu_g=0.0, L_g=1.0)
        with pytest.raises(InvalidConstantsError):
            SmoothnessConstants(mu_g=2.0, L_g=1.0)
        with pytest.raises(InvalidConstantsError):
            SmoothnessConstants(mu_g=1.0, L_g=1.0, L_f=float("nan"))
        with pytest.raises(InvalidConstantsError, match="nonnegative"):
            SmoothnessConstants(mu_g=1.0, L_g=1.0, B=-1.0)


class TestDims:
    def test_rejects_nonpositive_dimensions(self):
        from amigo import Dims

        with pytest.raises(ValueError):
            Dims(0, 3)
        with pytest.raises(ValueError):
            Dims(3, 0)
        assert Dims(2, 5).dx == 2


class TestPsiHat:
    def setup_method(self):
        self.p = gen_quadratic(15, 9, kappa_g=10.0, kappa_L=5.0, seed=11)
        self.rng = np.random.default_rng(0)

    def test_linear_in_y_so_y_irrelevant(self):
        # f is linear in y here, so psi_hat(x, y, z) = A_f x + B_g' z for any y,
        # with x (and so A_f) in A_f's eigenbasis.
        x = self.rng.standard_normal(15)
        z = self.rng.standard_normal(9)
        expected = self.p.lam_f * x + self.p.B_g.T @ z
        for _ in range(3):
            y = self.rng.standard_normal(9)
            assert np.allclose(psi_hat(self.p, x, y, z), expected, rtol=0, atol=1e-14)

    def test_exact_arguments_give_exact_gradient(self):
        x = self.rng.standard_normal(15)
        ref = self.p.reference(x)
        out = psi_hat(self.p, x, ref["y_star"], ref["z_star"])
        assert rel_err(out, ref["grad_L"]) <= 1e-12

    def test_zero_variance_stochastic_matches_deterministic(self):
        oracle = make_stochastic(self.p, NoiseSpec(), seed=3)
        x = self.rng.standard_normal(15)
        y = self.rng.standard_normal(9)
        z = self.rng.standard_normal(9)
        det = psi_hat(self.p, x, y, z)
        sto = psi_hat(oracle, x, y, z, batch_f=4, batch_gxy=4, rng=self.rng)
        assert np.array_equal(det, sto)

    def test_batches_default_to_one(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_f_tilde=1.0, sigma_gxy_tilde=0.5), seed=3)
        x, y, z = self.rng.standard_normal(15), self.rng.standard_normal(9), self.rng.standard_normal(9)
        got = psi_hat(oracle, x, y, z, rng=np.random.default_rng(1))
        want = psi_hat(oracle, x, y, z, batch_f=1, batch_gxy=1, rng=np.random.default_rng(1))
        assert np.array_equal(got, want)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psi_hat(self.p, np.zeros(14), np.zeros(9), np.zeros(9))
        with pytest.raises(ValueError):
            psi_hat(self.p, np.zeros(15), np.zeros(9), np.zeros(8))


class TestGradLReference:
    def test_quadratic_formula_against_dense_construction(self):
        # The dense arrays a container holds, with x in the given coordinates.
        p = gen_quadratic(8, 6, kappa_g=4.0, kappa_L=3.0, seed=2)
        a_f, c_f, a_g, b_g = p._arrays()
        x = np.random.default_rng(5).standard_normal(8)
        expected = a_f @ x - b_g.T @ np.linalg.solve(a_g, c_f)
        assert rel_err(p.x_out(p.grad_L(p.x_in(x))), expected) <= 1e-13

    def test_zero_at_minimizer(self):
        p = gen_quadratic(8, 6, kappa_g=4.0, kappa_L=3.0, seed=2)
        assert np.linalg.norm(p.grad_L(p.x_star)) <= 1e-10


class TestOracleProperties:
    """Contract checks shared by every problem family."""

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_consistency(self, seed):
        p = gen_quadratic(7, 5, kappa_g=8.0, kappa_L=4.0, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            x = rng.standard_normal(7)
            fd = central_diff(p.L_value, x)
            assert rel_err(fd, p.grad_L(x)) <= 1e-6

    def test_hvp_spectral_sandwich(self):
        p = gen_quadratic(7, 5, kappa_g=8.0, kappa_L=4.0, seed=0)
        c = p.constants()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(7)
        y = rng.standard_normal(5)
        for _ in range(100):
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            q = v @ p.hvp_gyy(x, y, v)
            assert c.mu_g - 1e-9 <= q <= c.L_g + 1e-9

    def test_hvp_and_jvp_linearity(self):
        p = gen_quadratic(7, 5, kappa_g=8.0, kappa_L=4.0, seed=0)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(7), rng.standard_normal(5)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        for s in (0.3, -2.0):
            lhs = p.hvp_gyy(x, y, a + s * b)
            rhs = p.hvp_gyy(x, y, a) + s * p.hvp_gyy(x, y, b)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
            lhs = p.jvp_gxy(x, y, a + s * b)
            rhs = p.jvp_gxy(x, y, a) + s * p.jvp_gxy(x, y, b)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_inner_gradient_vanishes_at_y_star(self):
        p = gen_quadratic(7, 5, kappa_g=8.0, kappa_L=4.0, seed=0)
        x = np.random.default_rng(3).standard_normal(7)
        assert np.linalg.norm(p.grad_gy(x, p.y_star(x))) <= 1e-12


class TestStochasticContract:
    def setup_method(self):
        self.p = gen_quadratic(6, 4, kappa_g=5.0, kappa_L=2.0, seed=9)
        self.x = np.random.default_rng(0).standard_normal(6)
        self.y = np.random.default_rng(1).standard_normal(4)

    def test_unbiasedness(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_g_tilde=0.7), seed=4)
        rng = np.random.default_rng(10)
        draws = 10_000
        det = self.p.grad_gy(self.x, self.y)
        samples = np.array(
            [oracle.grad_gy(self.x, self.y, batch_size=1, rng=rng) for _ in range(draws)]
        )
        dev = np.abs(samples.mean(axis=0) - det)
        se = samples.std(axis=0) / math.sqrt(draws)
        assert np.all(dev <= 4 * se)

    @pytest.mark.parametrize("b", [4, 16])
    def test_variance_scaling(self, b):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_g_tilde=1.0), seed=4)
        rng = np.random.default_rng(20)
        draws = 4000
        det = self.p.grad_gy(self.x, self.y)

        def mean_sq(batch):
            total = 0.0
            for _ in range(draws):
                d = oracle.grad_gy(self.x, self.y, batch_size=batch, rng=rng) - det
                total += float(d @ d)
            return total / draws

        v1 = mean_sq(1)
        vb = mean_sq(b)
        assert 0.5 * v1 / b <= vb <= 1.5 * v1 / b

    def test_batch_one_gradient_noise_is_one_scaled_draw(self):
        # Pins noisy sample paths: the noise is sigma/sqrt(dy) times one
        # standard normal draw of length dy, bit for bit, and the stream
        # ends where that draw leaves it.
        sigma, dy = 0.7, self.p.dims.dy
        oracle = make_stochastic(self.p, NoiseSpec(sigma_g_tilde=sigma), seed=4)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        det = self.p.grad_gy(self.x, self.y)
        for _ in range(3):
            got = oracle.grad_gy(self.x, self.y, batch_size=1, rng=rng)
            assert np.array_equal(got, det + sigma / math.sqrt(dy) * ref.standard_normal(dy))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_batch_gradient_noise_is_one_scaled_draw(self):
        # A batch mean of 16 Gaussian samples is drawn as one Gaussian at
        # sigma / sqrt(dim * 16), for grad_gy and for the joint grad_f.
        sigma, b, d = 0.7, 16, self.p.dims
        oracle = make_stochastic(self.p, NoiseSpec(sigma_f_tilde=sigma, sigma_g_tilde=sigma),
                                 seed=4)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        det_g = self.p.grad_gy(self.x, self.y)
        det_f = np.concatenate([self.p.grad_fx(self.x, self.y), self.p.grad_fy(self.x, self.y)])
        for _ in range(3):
            got = oracle.grad_gy(self.x, self.y, batch_size=b, rng=rng)
            want = det_g + sigma / math.sqrt(d.dy * b) * ref.standard_normal(d.dy)
            assert np.array_equal(got, want)
            got = np.concatenate(oracle.grad_f(self.x, self.y, batch_size=b, rng=rng))
            dim = d.dx + d.dy
            want = det_f + sigma / math.sqrt(dim * b) * ref.standard_normal(dim)
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("b", [1, 16])
    def test_noisy_hessian_and_jacobian_queries_take_one_uniform_draw(self, b):
        # A noisy hvp_gyy or jvp_gxy query draws its batch of b uniforms in one
        # call, and the stream ends where that call leaves it.
        oracle = make_stochastic(self.p, NoiseSpec(sigma_gxy_tilde=0.5, sigma_gyy_tilde=0.1), seed=4)
        v = np.random.default_rng(2).standard_normal(4)
        for query in (oracle.hvp_gyy, oracle.jvp_gxy):
            rng, ref = np.random.default_rng(11), np.random.default_rng(11)
            query(self.x, self.y, v, batch_size=b, rng=rng)
            ref.uniform(-math.sqrt(3), math.sqrt(3), size=(1, b))
            assert rng.bit_generator.state == ref.bit_generator.state, query.__name__

    def test_rng_required_when_noisy(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_f_tilde=1.0), seed=4)
        with pytest.raises(ValueError):
            oracle.grad_fx(self.x, self.y)
