import math
import os

import numpy as np
import pytest

from amigo import (
    ConfigurationError,
    InvalidSpectrumError,
    NoiseSpec,
    describe_problem,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    gen_spd,
    load_problem,
    make_stochastic,
    save_problem,
)
from amigo.problems import _problem_bytes

from conftest import central_diff, rel_err


class TestGenSpd:
    def test_scalar_instance(self):
        assert np.array_equal(gen_spd(1, 2.0, 2.0, seed=123), np.array([[2.0]]))

    def test_two_by_two_spectrum(self):
        a = gen_spd(2, 1.0, 4.0, seed=7)
        eigs = np.linalg.eigvalsh(a)
        assert abs(eigs[0] - 1.0) <= 1e-9
        assert abs(eigs[1] - 4.0) <= 1e-9

    def test_condition_number(self):
        a = gen_spd(5, 0.1, 1.0, seed=3)
        eigs = np.linalg.eigvalsh(a)
        assert abs(eigs[-1] / eigs[0] - 10.0) <= 1e-8

    def test_log_spaced_spectrum(self):
        a = gen_spd(6, 0.01, 1.0, seed=5)
        eigs = np.sort(np.linalg.eigvalsh(a))
        target = np.geomspace(0.01, 1.0, 6)
        assert np.max(np.abs(eigs - target)) <= 1e-9

    def test_invalid_ranges(self):
        with pytest.raises(InvalidSpectrumError):
            gen_spd(3, 0.0, 1.0, seed=0)
        with pytest.raises(InvalidSpectrumError):
            gen_spd(3, 2.0, 1.0, seed=0)
        with pytest.raises(InvalidSpectrumError):
            gen_spd(1, 1.0, 2.0, seed=0)

    def test_deterministic_given_seed(self):
        assert np.array_equal(gen_spd(4, 0.5, 2.0, seed=9), gen_spd(4, 0.5, 2.0, seed=9))
        assert not np.array_equal(gen_spd(4, 0.5, 2.0, seed=9), gen_spd(4, 0.5, 2.0, seed=10))


class TestGenQuadratic:
    def setup_method(self):
        self.p = gen_quadratic(12, 8, kappa_g=100.0, kappa_L=10.0, seed=21)

    def test_spectra(self):
        eg = np.linalg.eigvalsh(self.p.A_g)
        ef = np.linalg.eigvalsh(self.p.A_f)
        assert abs(eg[0] - 1e-2) <= 1e-9 and abs(eg[-1] - 1.0) <= 1e-9
        assert abs(ef[0] - 0.1) <= 1e-9 and abs(ef[-1] - 1.0) <= 1e-9

    def test_coupling_scales(self):
        assert abs(np.linalg.norm(self.p.B_g, 2) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(self.p.C_f) - math.sqrt(8)) <= 1e-12

    def test_y_star_against_dense_solve(self):
        x0 = np.random.default_rng(2).standard_normal(12)
        y_dense = np.linalg.solve(self.p.A_g, -self.p.B_g @ x0)
        assert rel_err(self.p.y_star(x0), y_dense) <= 1e-10

    def test_identity_inner_hessian(self):
        p = gen_quadratic(4, 3, kappa_g=1.0, kappa_L=2.0, seed=0)
        assert np.array_equal(p.A_g, np.eye(3))

    def test_invalid_kappa(self):
        with pytest.raises(InvalidSpectrumError):
            gen_quadratic(4, 3, kappa_g=0.5, kappa_L=2.0, seed=0)


class TestQuadraticReference:
    def setup_method(self):
        self.p = gen_quadratic(10, 8, kappa_g=20.0, kappa_L=5.0, seed=4)
        self.rng = np.random.default_rng(8)

    def test_stationarity_at_x_star(self):
        ref = self.p.reference(self.p.x_star)
        assert np.linalg.norm(ref["grad_L"]) <= 1e-10

    def test_z_star_independent_of_query_point(self):
        r1 = self.p.reference(self.rng.standard_normal(10))
        r2 = self.p.reference(self.rng.standard_normal(10))
        assert np.array_equal(r1["z_star"], r2["z_star"])

    def test_L_value_matches_composed_oracles(self):
        x = self.rng.standard_normal(10)
        ref = self.p.reference(x)
        composed = self.p.f_value(x, ref["y_star"])
        assert abs(ref["L_value"] - composed) <= 1e-12 * max(1.0, abs(composed))

    def test_gap_consistent_with_L_values(self):
        x = self.rng.standard_normal(10)
        ref = self.p.reference(x)
        assert self.p.gap(x) == pytest.approx(ref["L_value"] - ref["L_star"], rel=1e-9)


class TestRidge:
    def test_recovers_planted_weights_without_regularization(self):
        p = gen_ridge_hpo(n_tr=60, n_val=40, d=12, label_noise=0.0, seed=3)
        y = p.y_star(-20.0 * np.ones(12))
        assert rel_err(y, p.w_planted) <= 1e-3

    def test_one_dim_gradient_matches_finite_differences(self):
        p = gen_ridge_hpo(n_tr=30, n_val=20, d=1, label_noise=0.2, seed=5)
        x = np.array([0.3])
        fd = central_diff(p.L_value, x)
        assert rel_err(p.grad_L(x), fd) <= 1e-6

    def test_hessian_at_zero(self):
        p = gen_ridge_hpo(n_tr=50, n_val=30, d=10, label_noise=0.1, seed=7)
        x = np.zeros(10)
        expected = p.A_tr.T @ p.A_tr / 50 + np.eye(10) / 10
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(10)
            assert np.allclose(p.hvp_gyy(x, np.zeros(10), v), expected @ v, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(expected) > 0)

    def test_gradient_matches_finite_differences_d20(self):
        p = gen_ridge_hpo(n_tr=80, n_val=60, d=20, label_noise=0.1, seed=11)
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.standard_normal(20) * 0.5
            fd = central_diff(p.L_value, x)
            assert rel_err(p.grad_L(x), fd) <= 1e-5


class TestNonconvex:
    def setup_method(self):
        self.p = gen_nonconvex(9, 6, rho=1.5, seed=13, kappa_g=8.0)

    def test_gradient_at_origin_is_coupling_offset(self):
        assert np.allclose(self.p.grad_L(np.zeros(9)), self.p.grad_offset, rtol=0, atol=1e-15)

    def test_offset_bounded_by_half_rho(self):
        assert np.max(np.abs(self.p.grad_offset)) == pytest.approx(self.p.rho / 2, rel=1e-12)

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(9)
            fd = central_diff(self.p.L_value, x)
            assert rel_err(self.p.grad_L(x), fd) <= 1e-6

    def test_constructed_stationary_point(self):
        x = np.arcsin(self.p.grad_offset / self.p.rho)
        assert np.linalg.norm(self.p.grad_L(x)) <= 1e-9


class TestSandwichAcrossFamilies:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: gen_quadratic(8, 6, kappa_g=6.0, kappa_L=3.0, seed=0),
            lambda: gen_nonconvex(8, 6, rho=1.0, seed=1, kappa_g=6.0),
            lambda: gen_ridge_hpo(40, 30, 8, label_noise=0.1, seed=2),
        ],
    )
    def test_hvp_quadratic_form_within_bounds(self, factory):
        p = factory()
        rng = np.random.default_rng(9)
        # The ridge family has x-dependent curvature; probe where its
        # reported constants are taken.
        x = np.zeros(p.dims.dx)
        y = rng.standard_normal(p.dims.dy)
        c = p.constants()
        for _ in range(100):
            v = rng.standard_normal(p.dims.dy)
            v /= np.linalg.norm(v)
            q = float(v @ p.hvp_gyy(x, y, v))
            assert c.mu_g - 1e-9 <= q <= c.L_g + 1e-9


class TestStochasticWrapper:
    def setup_method(self):
        self.p = gen_quadratic(6, 5, kappa_g=4.0, kappa_L=2.0, seed=17)
        self.x = np.random.default_rng(0).standard_normal(6)
        self.y = np.random.default_rng(1).standard_normal(5)

    def test_zero_noise_is_bit_identical(self):
        oracle = make_stochastic(self.p, NoiseSpec(), seed=0)
        rng = np.random.default_rng(0)
        v = np.random.default_rng(2).standard_normal(5)
        assert np.array_equal(oracle.grad_gy(self.x, self.y, 8, rng), self.p.grad_gy(self.x, self.y))
        assert np.array_equal(oracle.hvp_gyy(self.x, self.y, v, 8, rng), self.p.hvp_gyy(self.x, self.y, v))
        assert np.array_equal(oracle.jvp_gxy(self.x, self.y, v, 8, rng), self.p.jvp_gxy(self.x, self.y, v))

    def test_gradient_noise_second_moment(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_g_tilde=1.0), seed=0)
        rng = np.random.default_rng(3)
        det = self.p.grad_gy(self.x, self.y)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            d = oracle.grad_gy(self.x, self.y, batch_size=1, rng=rng) - det
            total += float(d @ d)
        assert 0.9 <= total / draws <= 1.1

    def test_hessian_noise_is_bounded_scalar_times_identity(self):
        sigma = 0.1
        oracle = make_stochastic(self.p, NoiseSpec(sigma_gyy_tilde=sigma), seed=0)
        rng = np.random.default_rng(4)
        mu_g = self.p.constants().mu_g
        v = np.random.default_rng(5).standard_normal(5)
        zetas = []
        for _ in range(2000):
            noise = oracle.hvp_gyy(self.x, self.y, v, batch_size=1, rng=rng) - self.p.hvp_gyy(
                self.x, self.y, v
            )
            # Perturbation is a scalar multiple of v; recover the scalar.
            zeta = float(noise @ v / (v @ v)) / sigma
            assert np.allclose(noise, sigma * zeta * v, rtol=0, atol=1e-12)
            assert abs(zeta) <= math.sqrt(3) + 1e-12
            zetas.append(zeta)
        assert abs(np.mean(np.square(zetas)) - 1.0) <= 0.1
        # Bounded noise keeps sampled Hessians positive definite.
        assert mu_g - math.sqrt(3) * sigma > 0

    def test_positive_definiteness_margin_enforced(self):
        mu_g = self.p.constants().mu_g
        bad = NoiseSpec(sigma_gyy_tilde=mu_g)  # sqrt(3) * mu_g >= mu_g
        with pytest.raises(ConfigurationError):
            make_stochastic(self.p, bad, seed=0)
        # Disabling the bounded-noise flag skips the margin check.
        make_stochastic(self.p, NoiseSpec(sigma_gyy_tilde=mu_g, bounded_hessian_noise=False), 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(sigma_g_tilde=-1.0)


class TestSerialization:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: gen_quadratic(12, 8, kappa_g=5.0, kappa_L=2.0, seed=1),
            lambda: gen_nonconvex(7, 5, rho=1.0, seed=2, kappa_g=4.0),
            lambda: gen_ridge_hpo(20, 10, 6, label_noise=0.1, seed=3),
        ],
    )
    def test_round_trip_bit_identical(self, factory, tmp_path):
        p = factory()
        path = tmp_path / "problem.bin"
        save_problem(p, path)
        q = load_problem(path)
        assert _problem_bytes(p) == _problem_bytes(q)

    def test_file_size_formula(self, tmp_path):
        dx, dy = 30, 20
        p = gen_quadratic(dx, dy, kappa_g=3.0, kappa_L=2.0, seed=4)
        path = tmp_path / "p.bin"
        save_problem(p, path)
        header_bytes = 8 + 6 * 8 + 3 * 8
        assert os.path.getsize(path) == header_bytes + 8 * (dx * dx + dy + dy * dy + dy * dx)

    def test_describe_header(self, tmp_path):
        p = gen_quadratic(6, 4, kappa_g=7.0, kappa_L=3.0, seed=5)
        path = tmp_path / "p.bin"
        save_problem(p, path)
        h = describe_problem(path)
        assert h["family"] == "quadratic"
        assert h["dx"] == 6 and h["dy"] == 4 and h["seed"] == 5
        assert h["kappa_g"] == pytest.approx(7.0, rel=1e-9)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAPROB" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_problem(path)

    def test_generation_reproducible_bytes(self):
        a = gen_quadratic(10, 7, kappa_g=50.0, kappa_L=10.0, seed=42)
        b = gen_quadratic(10, 7, kappa_g=50.0, kappa_L=10.0, seed=42)
        assert _problem_bytes(a) == _problem_bytes(b)
