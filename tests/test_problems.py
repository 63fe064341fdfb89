import math
import os
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amigo import (
    ConfigurationError,
    InvalidSpectrumError,
    NoiseSpec,
    QuadraticProblem,
    describe_problem,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    gen_spd,
    load_problem,
    make_stochastic,
    save_problem,
)
from amigo import Dims, SmoothnessConstants, derive_constants, problems
from amigo.cli import build_problem, canonical_problem
from amigo.problems import (
    _HEADER_FMT,
    MAGIC,
    ContainerError,
    NonconvexOuterProblem,
    RidgeHPOProblem,
    _op_norm,
    _problem_bytes,
    check_generated_spec,
    check_hessian_noise,
)

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
        ef = np.linalg.eigvalsh(self.p._arrays()[0])
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

    @pytest.mark.parametrize("name", ["A_f", "A_g"])
    @pytest.mark.parametrize("defect", ["asymmetric", "indefinite"])
    def test_constructor_rejects_non_spd_hessians(self, name, defect):
        arrays = dict(zip(("A_f", "C_f", "A_g", "B_g"), (a.copy() for a in self.p._arrays())))
        a = arrays[name]
        if defect == "asymmetric":
            a += np.triu(np.random.default_rng(0).standard_normal(a.shape), 1)
        else:
            a -= 2.0 * np.eye(len(a))  # symmetric, with every eigenvalue below zero
        with pytest.raises(ValueError, match=f"{name} is not symmetric positive definite"):
            QuadraticProblem(**arrays)


# Generator and constructor arguments each family rejects: (build, error type, message).
BAD_ARGUMENTS = {
    "spectrum-dimension": (lambda: gen_spd(0, 0.5, 1.0, seed=0), InvalidSpectrumError,
                           "dimension must be positive, got 0"),
    "spectrum-one-dimension": (lambda: gen_quadratic(1, 3, kappa_g=2.0, kappa_L=2.0, seed=0),
                               InvalidSpectrumError, "d=1 cannot attain two distinct spectrum endpoints"),
    "generator-dimension": (lambda: gen_quadratic(4, 0, kappa_g=2.0, kappa_L=2.0, seed=0), ValueError,
                            "dy must be positive, got 0"),
    "inner-shapes": (lambda: QuadraticProblem(np.eye(2), np.ones(3), np.eye(2), np.ones((2, 2))),
                     ValueError, "A_g (2, 2) or C_f (3,) mismatch B_g (2, 2)"),
    "quadratic-A_f-shape": (lambda: QuadraticProblem(np.eye(3), np.ones(2), np.eye(2), np.ones((2, 2))),
                            ValueError, "A_f has shape (3, 3), expected (2, 2)"),
    "nonconvex-rho": (lambda: gen_nonconvex(4, 3, rho=0.0, seed=0), ValueError,
                      "rho must be positive, got 0.0"),
    # A container's rho is checked before the constructor runs, so only a direct construction gets here.
    "nonconvex-constructor-rho-zero": (
        lambda: problems.NonconvexOuterProblem(0.0, np.ones(2), np.eye(2), np.ones((2, 2))),
        ValueError, "rho must be positive, got 0.0"),
    "nonconvex-constructor-rho-negative": (
        lambda: problems.NonconvexOuterProblem(-1.0, np.ones(2), np.eye(2), np.ones((2, 2))),
        ValueError, "rho must be positive, got -1.0"),
    "ridge-features": (lambda: RidgeHPOProblem(np.ones((3, 2)), np.ones(3), np.ones((3, 3)), np.ones(3)),
                       ValueError, "train and validation designs must share the feature dimension"),
    "ridge-rows": (lambda: gen_ridge_hpo(0, 4, 2, label_noise=0.1, seed=0), ValueError,
                   "n_tr must be positive, got 0"),
    "ridge-label-noise": (lambda: gen_ridge_hpo(5, 4, 2, label_noise=-0.1, seed=0), ValueError,
                          "label_noise must be nonnegative, got -0.1"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_arguments_rejected(case):
    build, error, message = BAD_ARGUMENTS[case]
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def outcome(call):
    """(call(), None), or (None, (type, message)) of what call raised."""
    try:
        return call(), None
    except Exception as err:
        return None, (type(err), str(err))


@st.composite
def generated_specs(draw):
    """A canonical generated spec, out-of-range arguments and overflowing condition numbers included."""
    family = draw(st.sampled_from(list(problems.FAMILIES)))
    dim = st.integers(0, 8)
    kappa = st.sampled_from([0.5, 1.0, 10.0, 1e3, 1e154, 1e160, 1e300])
    extra = st.sampled_from([-1.0, 0.0, 0.5, 2.0])  # rho or label_noise
    args = {"quadratic": dict(dx=dim, dy=dim, kappa_g=kappa, kappa_L=kappa),
            "ridge": dict(n_tr=dim, n_val=dim, d=dim, label_noise=extra),
            "nonconvex": dict(dx=dim, dy=dim, rho=extra, kappa_g=kappa)}[family]
    return canonical_problem({"family": family, **{name: draw(arg) for name, arg in args.items()}})


@settings(max_examples=500, deadline=None)
@given(spec=generated_specs(), sigma_gyy=st.sampled_from([0.0, 0.01, 0.5]))
def test_pre_build_check_predicts_the_build(spec, sigma_gyy):
    """The check raises what the build and the constants' two rules raise, and assumes the built constants."""
    noise = NoiseSpec(sigma_gyy_tilde=sigma_gyy)
    assumed, check_error = outcome(lambda: check_generated_spec(spec, noise))

    def build():
        problem = build_problem(spec)
        if spec["family"] == "ridge":  # only the argument rule is checked before a ridge build
            return None
        constants = problem.constants()
        check_hessian_noise(noise, constants.mu_g)
        derive_constants(constants)
        return constants

    built, build_error = outcome(build)
    assert check_error == build_error
    if built is None:
        assert assumed is None
    else:
        assert replace(assumed, B=built.B) == built


@pytest.mark.parametrize("shape", [(30, 70), (70, 30), (50, 50)])
def test_op_norm_matches_spectral_norm(shape):
    b = np.random.default_rng(4).standard_normal(shape)
    expected = np.linalg.norm(b, 2)
    assert abs(_op_norm(b) - expected) <= 1e-14 * expected


def sequential_quadratic(dx, dy, kappa_g, kappa_L, seed):
    """gen_quadratic composed on one thread: both seeds, both spectra, the coupling, the rotation."""
    rng = np.random.default_rng(seed)
    lam, q = problems._spectrum(dy, 1.0 / kappa_g, 1.0, int(rng.integers(2**62)))
    spectrum_f = problems._spectrum(dx, 1.0 / kappa_L, 1.0, int(rng.integers(2**62)))
    b_g, c_f = problems._draw_coupling(rng, dx, dy)
    if q is not None:
        b_g, c_f = q.T @ b_g, q.T @ c_f
    return QuadraticProblem(spectrum_f, c_f, np.diag(lam), b_g, seed=seed)


def sequential_nonconvex(dx, dy, rho, seed, kappa_g):
    """gen_nonconvex composed on one thread."""
    rng = np.random.default_rng(seed)
    lam, q = problems._spectrum(dy, 1.0 / kappa_g, 1.0, int(rng.integers(2**62)))
    b_g, c_f = problems._draw_coupling(rng, dx, dy)
    if q is not None:
        b_g, c_f = q.T @ b_g, q.T @ c_f
    c_f *= (rho / 2.0) / np.max(np.abs(b_g.T @ (c_f / lam)))
    return problems.NonconvexOuterProblem(rho, c_f, np.diag(lam), b_g, seed=seed)


def held_arrays(p):
    """Every array a problem holds, by attribute name (lists and tuples of arrays included)."""
    out = {}
    for name, value in vars(p).items():
        items = value if isinstance(value, (list, tuple)) else [value]
        out.update((f"{name}[{i}]", a) for i, a in enumerate(items) if isinstance(a, np.ndarray))
    return out


class TestConcurrentBuild:
    """The bytes are those of a sequential build.

    gen_quadratic draws A_g's side on one worker thread while it draws A_f's
    spectrum; gen_nonconvex draws everything on the calling thread.
    """

    QUADRATIC_CASES = [
        (12, 8, 5.0, 2.0, 1),
        (5, 9, 30.0, 4.0, 2),    # dy > dx
        (9, 5, 1.0, 3.0, 3),     # A_g's eigenbasis is None: nothing is rotated
        (6, 4, 7.0, 1.0, 4),     # A_f's eigenbasis is None
        (1, 3, 1.0, 1.0, 5),
    ]
    NONCONVEX_CASES = [
        (7, 5, 1.0, 2, 4.0),
        (4, 7, 2.0, 3, 20.0),
        (6, 3, 0.5, 4, 1.0),
    ]

    @pytest.mark.parametrize("dx, dy, kappa_g, kappa_L, seed", QUADRATIC_CASES)
    def test_quadratic_matches_sequential_composition(self, dx, dy, kappa_g, kappa_L, seed, tmp_path):
        self.assert_same(gen_quadratic(dx, dy, kappa_g, kappa_L, seed),
                         sequential_quadratic(dx, dy, kappa_g, kappa_L, seed), tmp_path)

    @pytest.mark.parametrize("dx, dy, rho, seed, kappa_g", NONCONVEX_CASES)
    def test_nonconvex_matches_sequential_composition(self, dx, dy, rho, seed, kappa_g, tmp_path):
        self.assert_same(gen_nonconvex(dx, dy, rho, seed, kappa_g=kappa_g),
                         sequential_nonconvex(dx, dy, rho, seed, kappa_g), tmp_path)

    @staticmethod
    def assert_same(got, want, tmp_path):
        got_arrays, want_arrays = held_arrays(got), held_arrays(want)
        assert got_arrays.keys() == want_arrays.keys()
        for name, a in got_arrays.items():
            assert np.array_equal(a, want_arrays[name]), name
        save_problem(got, tmp_path / "got.bin")
        save_problem(want, tmp_path / "want.bin")
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()

    @pytest.mark.parametrize("generate, case", [
        *((gen_quadratic, case) for case in QUADRATIC_CASES),
        *((gen_nonconvex, case) for case in NONCONVEX_CASES),
    ])
    def test_generated_Lg_prime_is_the_coupling_scale(self, generate, case):
        p = generate(*case)
        assert p.constants().Lg_prime == 1.0
        assert abs(_op_norm(p.B_g) - 1.0) <= 1e-13

    @pytest.mark.parametrize("family", ["quadratic", "nonconvex"])
    def test_container_Lg_prime_is_measured(self, family, tmp_path):
        # A container holds no Lg_prime: a B_g scaled after generation is measured, not trusted.
        p = self.BUILDS[family]()
        *arrays, b_g = p._arrays()
        rho = () if family == "quadratic" else (p.rho,)
        save_problem(type(p)(*rho, *arrays, 3.0 * b_g), tmp_path / "scaled.bin")
        assert abs(load_problem(tmp_path / "scaled.bin").constants().Lg_prime - 3.0) <= 1e-13 * 3.0

    BUILDS = {
        "quadratic": lambda: gen_quadratic(12, 8, kappa_g=5.0, kappa_L=2.0, seed=1),
        "nonconvex": lambda: gen_nonconvex(7, 5, rho=1.0, seed=2, kappa_g=4.0),
    }
    # The dimension of each spectrum the calling thread draws: A_f's (d = dx)
    # on the quadratic family, whose A_g side runs on one worker, and A_g's on
    # the nonconvex one, which has no A_f to overlap and starts no thread.
    CALLING_THREAD_SPECTRA = {"quadratic": [12], "nonconvex": [5]}

    @pytest.mark.parametrize("family", BUILDS)
    def test_build_threads(self, family, monkeypatch):
        threads, spectra = [], []
        draw, spectrum = problems._draw_coupling, problems._spectrum
        monkeypatch.setattr(problems, "_draw_coupling",
                            lambda *args: threads.append(threading.current_thread()) or draw(*args))
        monkeypatch.setattr(problems, "_spectrum", lambda d, *args: (
            spectra.append((d, threading.current_thread())) or spectrum(d, *args)))
        if family == "nonconvex":
            def no_thread(*args, **kwargs):
                raise AssertionError("the nonconvex build started a thread")

            monkeypatch.setattr(problems, "ThreadPoolExecutor", no_thread)
        self.BUILDS[family]()
        here = threading.current_thread()
        assert [d for d, thread in spectra if thread is here] == self.CALLING_THREAD_SPECTRA[family]
        if family == "quadratic":
            assert len(threads) == 1 and threads[0] is not here
            assert [d for d, thread in spectra if thread is threads[0]] == [8]
            assert len(spectra) == 2
        else:
            assert threads == [here]
            assert len(spectra) == 1

    @pytest.mark.parametrize("family", BUILDS)
    @pytest.mark.parametrize("failing", ["_draw_coupling", "_spectrum"])
    def test_a_failed_draw_raises_and_leaves_no_thread(self, family, failing, monkeypatch):
        def fail(*args):
            raise RuntimeError(f"{failing} failed")

        monkeypatch.setattr(problems, failing, fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            self.BUILDS[family]()
        assert threading.active_count() == before


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
        w = np.random.default_rng(3).standard_normal(12)  # the generator's first draw
        assert rel_err(y, w) <= 1e-3

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

    def test_jacobian_perturbation_built_only_under_its_noise(self):
        quiet = NoiseSpec(sigma_f_tilde=1.0, sigma_g_tilde=1.0, sigma_gyy_tilde=0.1)
        assert make_stochastic(self.p, quiet, seed=3)._P is None
        noisy = make_stochastic(self.p, NoiseSpec(sigma_gxy_tilde=0.5), seed=3)
        p = np.random.default_rng(3).standard_normal((6, 5))
        assert np.array_equal(noisy._P, p / np.linalg.norm(p, 2))

    def test_positive_definiteness_margin_enforced(self):
        mu_g = self.p.constants().mu_g
        bad = NoiseSpec(sigma_gyy_tilde=mu_g)  # sqrt(3) * mu_g >= mu_g
        with pytest.raises(ConfigurationError):
            make_stochastic(self.p, bad, seed=0)

    def test_negative_sigma_rejected(self):
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                NoiseSpec(sigma_g_tilde=sigma)


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
        again = tmp_path / "again.bin"
        save_problem(q, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("dx, kappa_L, seed", [(12, 4.0, 9), (30, 10.0, 0), (5, 1.0, 2)])
    def test_saved_outer_hessian_is_gen_spd(self, dx, kappa_L, seed):
        """gen_quadratic never forms A_f, yet its container holds gen_spd's A_f at the derived seed."""
        p = gen_quadratic(dx, 8, kappa_g=5.0, kappa_L=kappa_L, seed=seed)
        rng = np.random.default_rng(seed)
        rng.integers(2**62)  # A_g's seed
        a_f = gen_spd(dx, 1.0 / kappa_L, 1.0, seed=int(rng.integers(2**62)))
        assert np.array_equal(p._arrays()[0], a_f)

    def test_seed_outside_int64_leaves_an_existing_container_as_it_was(self, tmp_path):
        path = tmp_path / "p.bin"
        save_problem(gen_quadratic(6, 4, kappa_g=5.0, kappa_L=2.0, seed=1), path)
        saved = path.read_bytes()
        unsaveable = gen_quadratic(6, 4, kappa_g=5.0, kappa_L=2.0, seed=2)
        for seed in (2**63, -(2**63) - 1):
            unsaveable.seed = seed
            with pytest.raises(ContainerError, match=f"^problem container seed: {seed} does not fit") as err:
                save_problem(unsaveable, path)
            assert err.value.field == "seed"
            assert path.read_bytes() == saved

    def test_save_forms_a_drawn_outer_hessian_once(self, tmp_path, monkeypatch):
        """The header's kappa_L and the body read one A_f, formed by one _spd call."""
        p = gen_quadratic(12, 8, kappa_g=5.0, kappa_L=4.0, seed=9)
        calls = []
        spd = problems._spd
        monkeypatch.setattr(problems, "_spd", lambda *args: calls.append(args) or spd(*args))
        save_problem(p, tmp_path / "p.bin")
        assert len(calls) == 1

    def test_file_size_formula(self, tmp_path):
        dx, dy = 30, 20
        p = gen_quadratic(dx, dy, kappa_g=3.0, kappa_L=2.0, seed=4)
        path = tmp_path / "p.bin"
        save_problem(p, path)
        header_bytes = 8 + 6 * 8 + 3 * 8
        assert os.path.getsize(path) == header_bytes + 8 * (dx * dx + dy + dy * dy + dy * dx)

    # Per family: the problem, then its header's (dx, dy, n_aux1, n_aux2, seed,
    # extra) and (kappa_g, kappa_L), a condition number None where undefined.
    DESCRIBED = {
        "quadratic": (lambda: gen_quadratic(6, 4, kappa_g=7.0, kappa_L=3.0, seed=5),
                      (6, 4, 0, 0, 5, 0.0), (7.0, 3.0)),
        "ridge": (lambda: gen_ridge_hpo(20, 10, 6, label_noise=0.1, seed=3),
                  (6, 6, 20, 10, 3, 0.1), (None, None)),
        "nonconvex": (lambda: gen_nonconvex(7, 5, rho=1.5, seed=2, kappa_g=4.0),
                      (7, 5, 0, 0, 2, 1.5), (4.0, None)),
    }

    @pytest.mark.parametrize("family", list(DESCRIBED))
    def test_describe_header(self, tmp_path, family):
        factory, fields, kappas = self.DESCRIBED[family]
        path = tmp_path / "p.bin"
        save_problem(factory(), path)
        h = describe_problem(path)
        assert h["family"] == family
        assert tuple(h[k] for k in ("dx", "dy", "n_aux1", "n_aux2", "seed", "extra")) == fields
        for name, kappa in zip(("kappa_g", "kappa_L"), kappas):
            assert h[name] == (None if kappa is None else pytest.approx(kappa, rel=1e-9))

    # The body of each family in its documented order, from arrays that no
    # constructor needs to factorize (A_f and A_g diagonal), packed here
    # without the FAMILIES row: a writer and reader reordered together fail it.
    @pytest.mark.parametrize("family", ["quadratic", "ridge", "nonconvex"])
    def test_writer_layout_is_the_documented_one(self, family):
        a_f, c_f, a_g = np.diag([2.0, 0.5, 1.0]), np.array([1.0, -3.0]), np.diag([4.0, 0.5])
        b_g = np.arange(6.0).reshape(2, 3) - 2.5
        if family == "quadratic":
            problem = QuadraticProblem(a_f, c_f, a_g, b_g, seed=5)
            fields, body = (3, 2, 0, 0, 5, 8.0, 4.0, 0.0), [a_f, c_f, a_g, b_g]
        elif family == "nonconvex":
            problem = NonconvexOuterProblem(1.5, c_f, a_g, b_g, seed=5)
            fields, body = (3, 2, 0, 0, 5, 8.0, math.nan, 1.5), [c_f, a_g, b_g]
        else:
            a_tr, b_tr = np.arange(12.0).reshape(4, 3), np.arange(4.0) - 1.0
            a_val, b_val = np.arange(6.0).reshape(2, 3) / 4, np.array([0.25, -2.0])
            problem = RidgeHPOProblem(a_tr, b_tr, a_val, b_val, seed=5, label_noise=0.3)
            fields, body = (3, 3, 4, 2, 5, math.nan, math.nan, 0.3), [a_tr, b_tr, a_val, b_val]
        values = [v for array in body for v in array.ravel()]  # row-major
        header = struct.pack("<qqqqqqddd", FAMILY_TAGS[family], *fields)
        assert _problem_bytes(problem) == b"BLPROB01" + header + struct.pack(f"<{len(values)}d", *values)

    def test_a_fourth_family_is_one_row_plus_one_class(self, tmp_path, monkeypatch):
        """A family the container code has never seen saves, describes and loads from its row alone."""
        monkeypatch.setitem(problems.FAMILIES, "toy", problems.Family(
            generator=None, tag=99, positive=("gamma",), nonnegative=(), spectra=(), cls=ToyProblem,
            body=(("M", ("dy", "dx")), ("c", ("dy",))), extra="gamma"))
        path = tmp_path / "p.bin"
        problem = ToyProblem(np.arange(6.0).reshape(3, 2), np.array([1.0, -2.0, 0.5]), seed=4, gamma=2.5)
        save_problem(problem, path)
        raw = path.read_bytes()
        assert describe_problem(path) == {"dx": 2, "dy": 3, "n_aux1": 0, "n_aux2": 0, "seed": 4,
                                          "kappa_g": None, "kappa_L": None, "extra": 2.5, "family": "toy"}
        loaded = load_problem(path)
        assert isinstance(loaded, ToyProblem) and loaded.gamma == 2.5
        assert _problem_bytes(loaded) == raw
        extra_at = HEADER_BYTES - struct.calcsize("<d")
        for extra in (0.0, -1.0):
            path.write_bytes(raw[:extra_at] + struct.pack("<d", extra) + raw[HEADER_BYTES:])
            with pytest.raises(ContainerError, match=f"got {extra}") as err:
                load_problem(path)
            assert err.value.field == "extra"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAPROB" + b"\x00" * 100)
        with pytest.raises(ValueError):
            load_problem(path)

    def test_generation_reproducible_bytes(self):
        a = gen_quadratic(10, 7, kappa_g=50.0, kappa_L=10.0, seed=42)
        b = gen_quadratic(10, 7, kappa_g=50.0, kappa_L=10.0, seed=42)
        assert _problem_bytes(a) == _problem_bytes(b)


class ToyProblem(problems._DeterministicProblem):
    """A minimal family outside FAMILIES: g = ||y - M x||^2 / 2 and f = gamma * c'y."""

    family = "toy"

    def __init__(self, M, c, seed: int = -1, gamma: float = 1.0):
        self.M, self.c = np.asarray(M, dtype=float), np.asarray(c, dtype=float)
        self.seed, self.gamma = int(seed), float(gamma)
        self._dims = Dims(self.M.shape[1], self.M.shape[0])

    def grad_f(self, x, y, batch_size=1, rng=None):
        return np.zeros(self.dims.dx), self.gamma * self.c

    def grad_gy(self, x, y, batch_size=1, rng=None):
        return y - self.M @ x

    def hvp_gyy(self, x, y, v, batch_size=1, rng=None):
        return np.asarray(v, dtype=float)

    def jvp_gxy(self, x, y, z, batch_size=1, rng=None):
        return -self.M.T @ z

    def constants(self) -> SmoothnessConstants:
        return SmoothnessConstants(1.0, 1.0)

    def _arrays(self) -> list[np.ndarray]:
        return [self.M, self.c]


HEADER_BYTES = len(MAGIC) + struct.calcsize(_HEADER_FMT)
FAMILY_TAGS = {"quadratic": 1, "ridge": 2, "nonconvex": 3}


def container(tag, dx, dy, n1=0, n2=0, extra=0.0, values=(), tail=b""):
    header = struct.pack(_HEADER_FMT, tag, dx, dy, n1, n2, 7, 1.0, 1.0, extra)
    return MAGIC + header + np.asarray(values, dtype="<f8").tobytes() + tail


def implied_values(tag, dx, dy, n1, n2):
    """Number of body values a header with positive dimensions implies."""
    if tag == FAMILY_TAGS["quadratic"]:
        return dx * dx + dy + dy * dy + dy * dx
    if tag == FAMILY_TAGS["nonconvex"]:
        return dy + dy * dy + dy * dx
    return n1 * dx + n1 + n2 * dx + n2


def with_spd_blocks(tag, dx, dy, values):
    """values with a linear-inner family's A_f and A_g made symmetric and diagonally dominant."""
    values = list(values)
    blocks = {FAMILY_TAGS["quadratic"]: [(0, dx), (dx * dx + dy, dy)], FAMILY_TAGS["nonconvex"]: [(dy, dy)]}
    for start, n in blocks.get(tag, []):
        m = np.reshape(values[start:start + n * n], (n, n))
        a = (m + m.T) / 2
        a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + 1.0
        values[start:start + n * n] = a.ravel().tolist()
    return values


class TestContainerValidation:
    def quadratic_bytes(self, dx=6, dy=4):
        return _problem_bytes(gen_quadratic(dx, dy, kappa_g=5.0, kappa_L=2.0, seed=1))

    def load(self, tmp_path, raw):
        path = tmp_path / "p.bin"
        path.write_bytes(raw)
        return load_problem(path)

    def test_trailing_bytes(self, tmp_path):
        with pytest.raises(ContainerError, match="header implies") as err:
            self.load(tmp_path, self.quadratic_bytes() + b"\x00" * 8)
        assert err.value.field == "body"

    def test_header_dims_must_match_body(self, tmp_path):
        raw = bytearray(self.quadratic_bytes(dx=6))
        raw[len(MAGIC) + 8:len(MAGIC) + 16] = struct.pack("<q", 3)  # dx = 3 over a dx = 6 body
        with pytest.raises(ContainerError) as err:
            self.load(tmp_path, bytes(raw))
        assert err.value.field == "body"

    def test_truncated_body(self, tmp_path):
        with pytest.raises(ContainerError) as err:
            self.load(tmp_path, self.quadratic_bytes()[:-1])
        assert err.value.field == "body"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_body(self, tmp_path, value):
        raw = bytearray(self.quadratic_bytes())
        raw[HEADER_BYTES:HEADER_BYTES + 8] = struct.pack("<d", value)
        with pytest.raises(ContainerError, match="1 non-finite") as err:
            self.load(tmp_path, bytes(raw))
        assert err.value.field == "body"

    @pytest.mark.parametrize("family, field, header", [
        ("quadratic", "dy", (1, 6, -4)),
        ("quadratic", "dx", (1, 0, 4)),
        ("nonconvex", "dy", (3, 6, 0)),
        ("ridge", "n_aux2", (2, 5, 5, 3, -1)),
    ])
    def test_dimensions_must_be_positive(self, tmp_path, family, field, header):
        with pytest.raises(ContainerError, match="must be positive") as err:
            self.load(tmp_path, container(*header, values=np.zeros(64)))
        assert err.value.field == field

    # extra is rho for the non-convex family, which must be positive, and the
    # label noise for ridge, which must be nonnegative.
    @pytest.mark.parametrize("family, extra", [
        *(pytest.param("nonconvex", extra, id=str(extra)) for extra in (math.nan, math.inf, 0.0)),
        *(pytest.param("ridge", extra, id=f"ridge-{extra}") for extra in (-1.0, -1e-12)),
    ])
    def test_rho_must_be_finite_and_positive(self, tmp_path, family, extra):
        if family == "ridge":  # d = 2, n_tr = 3, n_val = 2
            raw = container(2, 2, 2, 3, 2, extra=extra, values=np.ones(6 + 3 + 4 + 2))
        else:
            raw = container(3, 2, 2, extra=extra, values=np.ones(2 + 4 + 4))
        with pytest.raises(ContainerError) as err:
            self.load(tmp_path, raw)
        assert err.value.field == "extra"

    @pytest.mark.parametrize("extra", [-1.0, -0.0, 5e-324])
    def test_quadratic_extra_must_be_zero(self, tmp_path, extra):
        # The quadratic family reads no extra and writes 0.0, so only 0.0 round-trips.
        raw = self.quadratic_bytes(4, 3)
        assert _problem_bytes(self.load(tmp_path, raw)) == raw
        extra_at = HEADER_BYTES - struct.calcsize("<d")
        patched = raw[:extra_at] + struct.pack("<d", extra) + raw[HEADER_BYTES:]
        with pytest.raises(ContainerError, match=f"0 for a quadratic problem, got {extra}") as err:
            self.load(tmp_path, patched)
        assert err.value.field == "extra"

    @pytest.mark.parametrize("family, extra, message", [
        ("toy", 0.0, "gamma must be positive, got 0.0"),
        ("nonconvex", -1.0, "rho must be positive, got -1.0"),
        ("ridge", -1.0, "label_noise must be nonnegative, got -1.0"),
        ("quadratic", 2.0, "must be 0 for a quadratic problem, got 2.0"),
    ])
    def test_extra_error_names_the_rows_argument_and_rule(self, tmp_path, monkeypatch, family, extra, message):
        """The message comes from the family's FAMILIES row, so a fourth family's names its own argument."""
        monkeypatch.setitem(problems.FAMILIES, "toy", problems.Family(
            generator=None, tag=99, positive=("gamma",), nonnegative=(), spectra=(), cls=ToyProblem,
            body=(("M", ("dy", "dx")), ("c", ("dy",))), extra="gamma"))
        problem = {"toy": lambda: ToyProblem(np.ones((3, 2)), np.ones(3), seed=4, gamma=2.5),
                   "nonconvex": lambda: gen_nonconvex(4, 3, rho=1.0, seed=2),
                   "ridge": lambda: gen_ridge_hpo(6, 4, 3, label_noise=0.1, seed=0),
                   "quadratic": lambda: gen_quadratic(4, 3, kappa_g=5.0, kappa_L=2.0, seed=1)}[family]()
        raw = _problem_bytes(problem)
        extra_at = HEADER_BYTES - struct.calcsize("<d")
        path = tmp_path / "p.bin"
        path.write_bytes(raw[:extra_at] + struct.pack("<d", extra) + raw[HEADER_BYTES:])
        for read in (load_problem, describe_problem):
            with pytest.raises(ContainerError) as err:
                read(path)
            assert str(err.value) == f"problem container extra: {message}"
            assert err.value.field == "extra"

    @pytest.mark.parametrize("family, name, defect", [
        ("quadratic", "A_g", "asymmetric"),
        ("quadratic", "A_g", "indefinite"),
        ("quadratic", "A_f", "indefinite"),
        ("nonconvex", "A_g", "indefinite"),
    ])
    def test_inner_and_outer_hessians_must_be_spd(self, tmp_path, family, name, defect):
        if family == "quadratic":
            problem = gen_quadratic(8, 5, kappa_g=5.0, kappa_L=2.0, seed=1)
        else:
            problem = gen_nonconvex(8, 5, rho=1.0, seed=1)
        raw = _problem_bytes(problem)
        arrays = problem._arrays()
        a = arrays[0 if name == "A_f" else -2]
        rng = np.random.default_rng(0)
        if defect == "asymmetric":
            a += np.triu(rng.standard_normal(a.shape), 1)  # the upper triangle no longer mirrors the lower
        else:
            a -= 2.0 * np.eye(len(a))  # symmetric, with every eigenvalue below zero
        body = b"".join(arr.astype("<f8").tobytes() for arr in arrays)
        with pytest.raises(ContainerError, match=f"{name} is not symmetric positive definite") as err:
            self.load(tmp_path, raw[:HEADER_BYTES] + body)
        assert err.value.field == "body"

    # A header that load_problem rejects, describe_problem rejects with the same
    # field and message: dimensions the body uses, extra and the tag.
    @pytest.mark.parametrize("header, field", [
        ((1, 0, 4), "dx"),
        ((3, 6, -2), "dy"),
        ((2, 5, 5, 0, 3), "n_aux1"),
        ((2, 5, 0, 3, -1), "n_aux2"),  # ridge's body does not use dy
        ((1, 2, 2, 0, 0, -0.0), "extra"),
        ((3, 2, 2, 0, 0, 0.0), "extra"),
        ((2, 2, 2, 3, 2, -1.0), "extra"),
        ((2, 2, 2, 3, 2, math.inf), "extra"),
        ((9, 2, 2), "family_tag"),
    ])
    def test_describe_rejects_what_load_rejects(self, tmp_path, header, field):
        path = tmp_path / "p.bin"
        path.write_bytes(container(*header, values=np.ones(8)))
        with pytest.raises(ContainerError) as loaded:
            load_problem(path)
        with pytest.raises(ContainerError) as described:
            describe_problem(path)
        assert described.value.field == loaded.value.field == field
        assert str(described.value) == str(loaded.value)

    def test_short_header_and_unknown_tag(self, tmp_path):
        with pytest.raises(ContainerError) as err:
            self.load(tmp_path, self.quadratic_bytes()[:HEADER_BYTES - 1])
        assert err.value.field == "header"
        with pytest.raises(ContainerError) as err:
            self.load(tmp_path, container(9, 2, 2))
        assert err.value.field == "family_tag"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_header_and_body(self, tmp_path_factory, data):
        """A well-formed container loads what it holds; one defect makes it fail on that field."""
        tag = data.draw(st.sampled_from(sorted(FAMILY_TAGS.values())), label="tag")
        header = dict(zip(("dx", "dy", "n_aux1", "n_aux2"), data.draw(
            st.lists(st.integers(1, 5), min_size=4, max_size=4), label="dims")))
        used = ("dx", "n_aux1", "n_aux2") if tag == FAMILY_TAGS["ridge"] else ("dx", "dy")
        size = implied_values(tag, *header.values())
        values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size), label="values")
        values = with_spd_blocks(tag, header["dx"], header["dy"], values)
        # The quadratic family has no extra and writes 0.
        extra = 0.0 if tag == FAMILY_TAGS["quadratic"] else data.draw(st.floats(0.01, 10.0), label="extra")
        tail = b""
        defect = data.draw(st.sampled_from(
            [None, "tail", "cut", "resize", "dim", "value", "extra", "tag"]), label="defect")
        field = "body"
        if defect == "tail":
            tail = data.draw(st.binary(min_size=1, max_size=16))
        elif defect == "cut":
            values = values[:data.draw(st.integers(0, size - 1))]
        elif defect == "resize":
            name = data.draw(st.sampled_from(used))
            header[name] = data.draw(st.integers(1, 6).filter(lambda n: n != header[name]))
        elif defect == "dim":
            field = data.draw(st.sampled_from(used))
            header[field] = data.draw(st.integers(-2**63, 0))
        elif defect == "value":
            values[data.draw(st.integers(0, size - 1))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        elif defect == "extra":
            field = "extra"
            # rho must be positive, the label noise nonnegative and quadratic's extra 0.
            out_of_range = {FAMILY_TAGS["nonconvex"]: [0.0, -1.0], FAMILY_TAGS["ridge"]: [-1.0],
                            FAMILY_TAGS["quadratic"]: [-1.0, 1e-300, 2.0]}
            extra = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, *out_of_range.get(tag, [])]))
        elif defect == "tag":
            field = "family_tag"
            tag = data.draw(st.sampled_from([0, 4, -1, 2**40]))
        raw = container(tag, *header.values(), extra, values, tail)
        path = tmp_path_factory.mktemp("fuzz") / "p.bin"
        path.write_bytes(raw)
        if defect is None:
            problem = load_problem(path)
            assert b"".join(a.astype("<f8").tobytes() for a in problem._arrays()) == raw[HEADER_BYTES:]
            assert problem.dims.dx == header["dx"]
            return
        with pytest.raises(ContainerError) as err:
            load_problem(path)
        assert err.value.field == field

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, 400), flips=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 255)), max_size=4))
    def test_fuzzed_bytes_of_a_valid_container(self, tmp_path_factory, cut, flips):
        """Truncated or corrupted bytes load as a problem or raise ContainerError, nothing else."""
        raw = bytearray(_problem_bytes(gen_nonconvex(4, 3, rho=1.0, seed=2, kappa_g=4.0)))
        for position, mask in flips:
            raw[position % len(raw)] ^= mask
        path = tmp_path_factory.mktemp("fuzz") / "p.bin"
        path.write_bytes(bytes(raw[:len(raw) - cut]))
        try:
            problem = load_problem(path)
        except ContainerError:
            return
        assert np.isfinite(problem.B_g).all() and problem.rho > 0
