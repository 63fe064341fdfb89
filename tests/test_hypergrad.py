import numpy as np
import pytest

from amigo import (
    NoiseSpec,
    UnsupportedOperationError,
    gen_quadratic,
    itd_hypergradient,
    make_stochastic,
)

from conftest import central_diff, rel_err


@pytest.fixture
def quad():
    return gen_quadratic(9, 7, kappa_g=10.0, kappa_L=4.0, seed=19)


def surrogate_value(problem, x, y0, alpha, T):
    y = np.array(y0, dtype=float, copy=True)
    for _ in range(T):
        y = y - alpha * problem.grad_gy(x, y)
    return problem.f_value(x, y)


def test_zero_unroll_is_partial_gradient(quad):
    rng = np.random.default_rng(0)
    x, y0 = rng.standard_normal(9), rng.standard_normal(7)
    res = itd_hypergradient(quad, x, y0, alpha=0.5, T=0)
    assert np.array_equal(res.grad, quad.grad_fx(x, y0))
    assert np.array_equal(res.y_final, y0)


def test_long_unroll_converges_to_implicit_gradient(quad):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(9)
    res = itd_hypergradient(quad, x, np.zeros(7), alpha=1.0, T=400)
    assert rel_err(res.grad, quad.grad_L(x)) <= 1e-6


def test_matches_finite_differences_of_surrogate(quad):
    rng = np.random.default_rng(2)
    x, y0 = rng.standard_normal(9), rng.standard_normal(7)
    alpha, T = 0.8, 7
    res = itd_hypergradient(quad, x, y0, alpha=alpha, T=T)
    fd = central_diff(lambda xx: surrogate_value(quad, xx, y0, alpha, T), x)
    assert rel_err(res.grad, fd) <= 1e-6


def test_gap_to_implicit_gradient_contracts_geometrically(quad):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(9)
    y0 = rng.standard_normal(7)
    c = quad.constants()
    alpha = 1.0 / c.L_g
    exact = quad.grad_L(x)
    gaps = {}
    for T in (10, 20, 40):
        res = itd_hypergradient(quad, x, y0, alpha=alpha, T=T)
        gaps[T] = np.linalg.norm(res.grad - exact)
    rate = 1 - alpha * c.mu_g
    assert gaps[20] <= gaps[10] * rate**10 * (1 + 1e-6)
    assert gaps[40] <= gaps[20] * rate**20 * (1 + 1e-6)


def test_rejects_stochastic_oracle(quad):
    oracle = make_stochastic(quad, NoiseSpec(sigma_g_tilde=1.0), seed=0)
    with pytest.raises(UnsupportedOperationError):
        itd_hypergradient(oracle, np.zeros(9), np.zeros(7), alpha=0.5, T=3)


def test_zero_variance_wrapper_accepted(quad):
    oracle = make_stochastic(quad, NoiseSpec(), seed=0)
    rng = np.random.default_rng(5)
    x, y0 = rng.standard_normal(9), rng.standard_normal(7)
    a = itd_hypergradient(quad, x, y0, alpha=0.5, T=5)
    b = itd_hypergradient(oracle, x, y0, alpha=0.5, T=5)
    assert np.array_equal(a.grad, b.grad)


@pytest.mark.parametrize("T", [-1, -4])
def test_rejects_negative_unroll_length(quad, T):
    with pytest.raises(ValueError) as err:
        itd_hypergradient(quad, np.zeros(9), np.zeros(7), alpha=0.5, T=T)
    assert str(err.value) == f"T must be nonnegative, got {T}"
