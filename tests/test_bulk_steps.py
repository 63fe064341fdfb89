"""Bulk inner steps: closed forms against the literal loops they replace.

``BilevelOracle.gd_steps`` and ``linear_steps`` hold the step-by-step loops;
the linear-inner families override them with closed forms.  Calling the base
method unbound on a problem runs the literal loop on that same problem, so
the two paths can be compared directly.  A noisy stream must keep the loop
and its draws; a stream without noise must take the closed form.
"""

import numpy as np
import pytest

from amigo import gen_nonconvex, gen_quadratic, make_stochastic, solve_linear_neumann
from amigo.oracle import BilevelOracle
from amigo.problems import NoiseSpec

STEPS = (1, 10, 100, 1000)
RTOL = 1e-12


@pytest.fixture(scope="module", params=["quadratic", "nonconvex"])
def problem(request):
    # The c06 problem, and a non-convex instance with the same inner side.
    if request.param == "quadratic":
        return gen_quadratic(200, 100, 1e3, 10, seed=0)
    return gen_nonconvex(200, 100, rho=1.0, seed=0, kappa_g=1e3)


def point(problem, seed=0):
    rng = np.random.default_rng(seed)
    d = problem.dims
    return rng.standard_normal(d.dx), rng.standard_normal(d.dy), rng.standard_normal(d.dy)


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("T", STEPS)
def test_gd_steps_match_literal_loop(problem, T):
    x, y0, _ = point(problem)
    alpha = 1.0 / problem.constants().L_g
    literal = BilevelOracle.gd_steps(problem, x, y0, alpha, T)
    bulk = problem.gd_steps(x, y0, alpha, T)
    assert rel(bulk, literal) <= RTOL


@pytest.mark.parametrize("start", ["random", "zero"])
@pytest.mark.parametrize("N", STEPS)
def test_linear_steps_match_literal_loop(problem, N, start):
    x, y, v = point(problem)
    z0 = np.random.default_rng(1).standard_normal(problem.dims.dy)
    if start == "zero":
        z0 = np.zeros_like(z0)
    beta = 0.5 / problem.constants().L_g
    literal = BilevelOracle.linear_steps(problem, x, y, v, z0, beta, N)
    bulk = problem.linear_steps(x, y, v, z0, beta, N)
    assert rel(bulk, literal) <= RTOL


@pytest.mark.parametrize("N", STEPS)
def test_neumann_is_steps_from_minus_beta_v(problem, N):
    # The term/accumulator evaluation of -beta * sum_{i<N} (I - beta H)^i v.
    x, y, v = point(problem)
    beta = 0.5 / problem.constants().L_g
    term, acc = v.copy(), v.copy()
    for _ in range(1, N):
        term -= beta * problem.hvp_gyy(x, y, term)
        acc += term
    series = -beta * acc
    assert rel(solve_linear_neumann(problem, x, y, v, beta, N).out, series) <= RTOL
    literal = BilevelOracle.linear_steps(problem, x, y, v, -beta * v, beta, N - 1)
    assert rel(literal, series) <= RTOL


def test_zero_steps_return_a_copy_of_the_start(problem):
    x, y, v = point(problem)
    for out in (problem.gd_steps(x, y, 0.5, 0), problem.linear_steps(x, y, v, y, 0.5, 0)):
        assert np.array_equal(out, y) and not np.shares_memory(out, y)


class TestNoisyStreams:
    """A noisy stream runs the literal loop draw for draw; a quiet one the closed form."""

    def setup_method(self):
        self.p = gen_quadratic(6, 4, kappa_g=5.0, kappa_L=2.0, seed=9)
        rng = np.random.default_rng(0)
        self.x, self.y, self.v, self.z = (rng.standard_normal(d) for d in (6, 4, 4, 4))

    def test_noisy_gd_steps_are_single_draws(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_g_tilde=0.7), seed=4)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = oracle.gd_steps(self.x, self.y, 0.3, 7, batch_size=3, rng=rng)
        want = self.y.copy()
        for _ in range(7):
            want -= 0.3 * oracle.grad_gy(self.x, want, batch_size=3, rng=ref)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_noisy_linear_steps_are_single_draws(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_gyy_tilde=0.05), seed=4)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = oracle.linear_steps(self.x, self.y, self.v, self.z, 0.3, 7, batch_size=3, rng=rng)
        want = self.z.copy()
        for _ in range(7):
            want -= 0.3 * (oracle.hvp_gyy(self.x, self.y, want, batch_size=3, rng=ref) + self.v)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_quiet_gd_stream_takes_the_closed_form(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_f_tilde=1.0), seed=4)
        rng = np.random.default_rng(11)
        start = rng.bit_generator.state
        got = oracle.gd_steps(self.x, self.y, 0.3, 7, batch_size=3, rng=rng)
        assert np.array_equal(got, self.p.gd_steps(self.x, self.y, 0.3, 7))
        assert rng.bit_generator.state == start

    def test_quiet_linear_stream_takes_the_closed_form(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_f_tilde=1.0), seed=4)
        rng = np.random.default_rng(11)
        start = rng.bit_generator.state
        got = oracle.linear_steps(self.x, self.y, self.v, self.z, 0.3, 7, batch_size=3, rng=rng)
        assert np.array_equal(got, self.p.linear_steps(self.x, self.y, self.v, self.z, 0.3, 7))
        assert rng.bit_generator.state == start
