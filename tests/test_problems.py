import math
import os
import struct

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
from amigo.problems import (
    _HEADER_FMT,
    MAGIC,
    ContainerError,
    RidgeHPOProblem,
    _op_norm,
    _problem_bytes,
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

    @pytest.mark.parametrize("name", ["A_f", "A_g"])
    @pytest.mark.parametrize("defect", ["asymmetric", "indefinite"])
    def test_constructor_rejects_non_spd_hessians(self, name, defect):
        arrays = {k: getattr(self.p, k).copy() for k in ("A_f", "C_f", "A_g", "B_g")}
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


@pytest.mark.parametrize("shape", [(30, 70), (70, 30), (50, 50)])
def test_op_norm_matches_spectral_norm(shape):
    b = np.random.default_rng(4).standard_normal(shape)
    expected = np.linalg.norm(b, 2)
    assert abs(_op_norm(b) - expected) <= 1e-14 * expected


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

    @pytest.mark.parametrize("extra", [math.nan, math.inf, 0.0])
    def test_rho_must_be_finite_and_positive(self, tmp_path, extra):
        raw = container(3, 2, 2, extra=extra, values=np.ones(2 + 4 + 4))
        with pytest.raises(ContainerError) as err:
            self.load(tmp_path, raw)
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
        a = getattr(problem, name)
        rng = np.random.default_rng(0)
        if defect == "asymmetric":
            a += np.triu(rng.standard_normal(a.shape), 1)  # the upper triangle no longer mirrors the lower
        else:
            a -= 2.0 * np.eye(len(a))  # symmetric, with every eigenvalue below zero
        with pytest.raises(ContainerError, match=f"{name} is not symmetric positive definite") as err:
            self.load(tmp_path, _problem_bytes(problem))
        assert err.value.field == "body"

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
        extra = data.draw(st.floats(0.01, 10.0), label="extra")
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
            bad = [math.nan, math.inf, -math.inf]
            nonconvex = tag == FAMILY_TAGS["nonconvex"]
            extra = data.draw(st.sampled_from(bad + [0.0, -1.0] if nonconvex else bad))
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
