"""Bulk oracle methods: closed forms against the literal loops they replace.

``BilevelOracle.gd_steps``, ``linear_steps`` and ``unrolled_grad`` hold the
step-by-step loops; the linear-inner families override them with closed
forms.  Calling the base method unbound on a problem runs the literal loop
on that same problem, so the two paths can be compared directly, with noise
too, through the steps' sigma argument.  On the linear-inner families noisy
gradient steps are one Gaussian draw, checked against the loop in law; noisy
adjoint steps draw the loop's scalars, in its order, in one call, then step
one at a time in place, and agree with it to rounding.  The ridge family
keeps the literal loops draw for draw, and a stream without noise takes the
closed form.  The linear-inner families keep
each bulk step's factors for the last (step size, count), so calls that
change either must give what the closed form gives when nothing is kept, and
runs write no other problem state.  Both oracle wrappers must
forward every bulk method, or a wrapped problem silently falls back to the
literal loop.
"""

import dataclasses
import functools
import inspect
import math
import pickle

import numpy as np
import pytest

from amigo import (
    CountingOracle,
    DivergenceError,
    MetricsTracker,
    OracleCounter,
    aid_run,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    itd_run,
    make_stochastic,
    prescribed_schedule,
    solve_linear_neumann,
)
from amigo import problems
from amigo.oracle import BilevelOracle, UnsupportedOperationError, gaussian_mean, uniform_means
from amigo.problems import NoiseSpec, StochasticOracle

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


SIGMA = 1.0
SAMPLES = 100


@pytest.mark.parametrize("b", [1, 16])
@pytest.mark.parametrize("T", STEPS)
def test_noisy_gd_steps_follow_the_literal_loops_law(problem, T, b):
    # Each sample on its own seed; c10's tolerances: mean within 4 SE per
    # coordinate, total variance about the noiseless steps within 20%.
    x, y0, _ = point(problem)
    alpha = 1.0 / problem.constants().L_g

    def samples(steps, seeds):
        return np.array([
            steps(problem, x, y0, alpha, T, batch_size=b, rng=np.random.default_rng(s),
                  sigma=SIGMA)
            for s in seeds
        ])

    bulk = samples(type(problem).gd_steps, range(SAMPLES))
    literal = samples(BilevelOracle.gd_steps, range(SAMPLES, 2 * SAMPLES))
    se = np.hypot(bulk.std(axis=0), literal.std(axis=0)) / math.sqrt(SAMPLES)
    assert np.all(np.abs(bulk.mean(axis=0) - literal.mean(axis=0)) <= 4 * se)
    mean = problem.gd_steps(x, y0, alpha, T)
    var_bulk, var_literal = (float(np.mean(np.sum((s - mean) ** 2, axis=1)))
                             for s in (bulk, literal))
    assert 0.8 * var_literal <= var_bulk <= 1.2 * var_literal


# (step size, count, noisy) call sequences: a slot filled by a deterministic
# call, then read by two noisy ones, and back; a step size or a count that
# changes alone; a pair that comes back after another.
ALTERNATING = [(0.3, 7, False), (0.3, 7, True), (0.3, 7, True), (0.3, 7, False), (0.5, 7, True),
               (0.5, 3, False), (0.5, 3, True), (0.5, 3, True), (0.3, 7, True), (0.3, 1000, False),
               (0.3, 1000, True), (0.5, 3, False)]


def test_noisy_gd_steps_keep_their_scale_per_step_size_and_count(problem):
    # r^T and the scale of the one Gaussian are kept for the last (alpha, T);
    # deterministic and noisy calls share the slot.  A change of either
    # between calls must give what the unkept form gives.
    x, y0, _ = point(problem)
    lam = problem.lam
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for alpha, T, noisy in ALTERNATING:
        got = problem.gd_steps(x, y0, alpha, T, batch_size=3, rng=rng, sigma=SIGMA if noisy else 0.0)
        ys = problem.y_star(x)
        want = ys + (1.0 - alpha * lam) ** T * (y0 - ys)
        if noisy:
            xi = gaussian_mean(ref, SIGMA, problem.dims.dy, 3)
            step = alpha * lam
            want -= alpha * np.sqrt(problems._power_sum(step * (2.0 - step), T)) * xi
        assert np.array_equal(got, want), (alpha, T, noisy)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_linear_steps_keep_their_factors_per_step_size_and_count(problem):
    x, y, v = point(problem)
    z0 = np.random.default_rng(1).standard_normal(problem.dims.dy)
    lam = problem.lam
    sigma = 0.05 * problem.constants().L_g
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for beta, N, noisy in ALTERNATING:
        beta /= problem.constants().L_g
        got = problem.linear_steps(x, y, v, z0, beta, N, batch_size=3, rng=rng,
                                   sigma=sigma if noisy else 0.0)
        if noisy:
            want = z0.copy()
            for s in -beta * sigma * uniform_means(ref, 3, N):
                want *= 1.0 - beta * lam + s
                want -= beta * v
        else:
            zs = -v / lam
            want = zs + (1.0 - beta * lam) ** N * (z0 - zs)
        assert np.array_equal(got, want), (beta, N, noisy)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("family", ["quadratic", "nonconvex", "ridge"])
def test_runs_write_no_problem_state_but_the_step_factor_slots(family):
    # The state contract of BilevelOracle: once its cached constants are
    # formed, a problem's attributes keep their objects and their bytes
    # through deterministic and noisy runs, but for the two slots, which
    # ridge has not.
    p = {"quadratic": lambda: gen_quadratic(20, 10, kappa_g=10.0, kappa_L=5.0, seed=3),
         "nonconvex": lambda: gen_nonconvex(20, 10, rho=1.0, seed=3, kappa_g=10.0),
         "ridge": lambda: gen_ridge_hpo(30, 20, 8, label_noise=0.1, seed=3)}[family]()
    p.constants()
    slots = ("_gd_factors", "_linear_factors")

    def state():
        return {name: (id(v), pickle.dumps(v)) for name, v in vars(p).items() if name not in slots}

    before = state()
    L_outer, mu = p.outer_smoothness()
    config, _ = prescribed_schedule(p.constants(), mu_outer=mu, L_outer=L_outer, K=20)
    x0 = np.random.default_rng(0).standard_normal(p.dims.dx)
    aid_run(p, config, x0, tracker=MetricsTracker(p, mu_outer=mu, L_outer=L_outer))
    itd_run(p, config, x0)
    noise = NoiseSpec(sigma_f_tilde=1.0, sigma_g_tilde=1.0, sigma_gxy_tilde=0.5, sigma_gyy_tilde=0.01)
    aid_run(make_stochastic(p, noise, seed=4), config, x0, rng=np.random.default_rng(5),
            tracker=MetricsTracker(p, mu_outer=mu, L_outer=L_outer))
    assert state() == before
    if family == "ridge":
        assert not any(hasattr(p, slot) for slot in slots)
    else:
        assert p._gd_factors[0] == (config.alpha, config.T) and p._gd_factors[2] is not None
        assert p._linear_factors[0] == (config.beta, config.N)


def test_gd_steps_fill_their_slot_in_one_write(problem):
    # A deterministic call at a new (alpha, T) writes r^T and the noisy
    # Gaussian's scale together, and a noisy call at that key reads the slot
    # and writes nothing.
    x, y0, _ = point(problem)
    alpha, T = 0.37 / problem.constants().L_g, 13
    assert problem._gd_factors[0] != (alpha, T)
    problem.gd_steps(x, y0, alpha, T)
    step = alpha * problem.lam
    slot = problem._gd_factors
    assert slot[0] == (alpha, T)
    assert np.array_equal(slot[1], (1.0 - step) ** T)
    assert np.array_equal(slot[2], alpha * np.sqrt(problems._power_sum(step * (2.0 - step), T)))
    problem.gd_steps(x, y0, alpha, T, batch_size=2, rng=np.random.default_rng(0), sigma=0.1)
    assert problem._gd_factors is slot


@pytest.mark.parametrize("b", [1, 16])
@pytest.mark.parametrize("N", (0, 1, 7, 100, 1000))
def test_noisy_linear_steps_match_literal_loop(problem, N, b):
    x, y, v = point(problem)
    z0 = np.random.default_rng(1).standard_normal(problem.dims.dy)
    start = z0.copy()
    beta = 0.5 / problem.constants().L_g
    sigma = 0.05 * problem.constants().L_g
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    bulk = problem.linear_steps(x, y, v, z0, beta, N, batch_size=b, rng=rng, sigma=sigma)
    literal = BilevelOracle.linear_steps(problem, x, y, v, z0, beta, N, batch_size=b, rng=ref,
                                         sigma=sigma)
    assert rel(bulk, literal) <= RTOL
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(z0, start) and not np.shares_memory(bulk, z0)
    if N == 0:
        assert np.array_equal(bulk, z0)


@pytest.mark.parametrize("b", [1, 3, 16])
def test_uniform_means_are_row_means(b):
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    want = ref.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(1000, b)).mean(axis=1)
    assert np.array_equal(uniform_means(rng, b, 1000), want)


class TestNoisyClosedFormEdges:
    """T noisy steps from y* are y* - alpha * sqrt(sum_{t<T} r^(2t)) * xi, xi one batch-mean draw.

    At x = 0, y* = 0, so the steps return the noise term exactly negated.
    """

    def setup_method(self):
        self.p = gen_quadratic(6, 4, kappa_g=5.0, kappa_L=2.0, seed=9)
        self.x = np.zeros(6)
        self.ys = self.p.y_star(self.x)

    def noise(self, alpha, T, b=3, seed=11):
        """The noise term of T noisy steps from y*, and the draw it scales."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = self.p.gd_steps(self.x, self.ys, alpha, T, batch_size=b, rng=rng, sigma=SIGMA)
        xi = SIGMA / math.sqrt(4 * b) * ref.standard_normal(4)
        assert rng.bit_generator.state == ref.bit_generator.state
        return -out, xi

    def test_noisy_steps_need_a_stream(self):
        with pytest.raises(ValueError, match="random stream"):
            self.p.gd_steps(self.x, self.ys, 0.5, 3, sigma=SIGMA)
        with pytest.raises(ValueError, match="random stream"):
            self.p.linear_steps(self.x, self.ys, self.ys, self.ys, 0.5, 3, sigma=SIGMA)

    @pytest.mark.parametrize("T", [1, 7, 1000])
    def test_only_the_last_draw_survives_at_r_zero(self, T):
        # alpha = 1 / lam_max zeroes r on that coordinate.
        top = int(np.argmax(self.p.lam))
        alpha = 1.0 / self.p.lam[top]
        got, xi = self.noise(alpha, T)
        assert got[top] == alpha * xi[top]
        r = 1.0 - alpha * self.p.lam
        total = np.sum(r[:, None] ** (2 * np.arange(T)), axis=1)
        assert np.allclose(got, alpha * np.sqrt(total) * xi, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("step", [1e-7, 2.0 - 1e-9, 2.0])
    def test_near_unit_r_squared_matches_the_sum(self, step):
        T = 100_000
        lam = self.p.lam
        alpha = step / lam.max()
        got, xi = self.noise(alpha, T)
        r = 1.0 - alpha * lam
        total = np.sum(r[:, None] ** (2 * np.arange(T)), axis=1)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, alpha * np.sqrt(total) * xi, rtol=1e-9, atol=0.0)


def test_zero_steps_return_a_copy_of_the_start(problem):
    # Noisy or not, zero steps draw nothing.
    x, y, v = point(problem)
    rng = np.random.default_rng(11)
    start = rng.bit_generator.state
    for sigma in (0.0, SIGMA):
        for out in (problem.gd_steps(x, y, 0.5, 0, batch_size=3, rng=rng, sigma=sigma),
                    problem.linear_steps(x, y, v, y, 0.5, 0, batch_size=3, rng=rng, sigma=sigma)):
            assert np.array_equal(out, y) and not np.shares_memory(out, y)
    assert rng.bit_generator.state == start


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("count", [1, 10])
def test_bulk_steps_keep_their_inputs(problem, count, noisy):
    # The closed forms finish in place, on a temporary of their own: the
    # caller's x, y, v and z keep their bytes and share no memory with a result.
    x, y, v = point(problem)
    z = np.random.default_rng(1).standard_normal(problem.dims.dy)
    inputs = (x, y, v, z)
    before = [a.tobytes() for a in inputs]
    L_g = problem.constants().L_g
    rng = np.random.default_rng(11)
    outs = (problem.gd_steps(x, y, 1.0 / L_g, count, batch_size=3, rng=rng,
                             sigma=SIGMA if noisy else 0.0),
            problem.linear_steps(x, y, v, z, 0.5 / L_g, count, batch_size=3, rng=rng,
                                 sigma=0.05 * L_g if noisy else 0.0))
    assert [a.tobytes() for a in inputs] == before
    assert not any(np.shares_memory(out, a) for out in outs for a in inputs)


class TestNoisyStreams:
    """Noisy adjoint steps take the loop's draws; a quiet stream takes the closed form."""

    def setup_method(self):
        self.p = gen_quadratic(6, 4, kappa_g=5.0, kappa_L=2.0, seed=9)
        rng = np.random.default_rng(0)
        self.x, self.y, self.v, self.z = (rng.standard_normal(d) for d in (6, 4, 4, 4))

    def test_noisy_linear_steps_are_single_draws(self):
        oracle = make_stochastic(self.p, NoiseSpec(sigma_gyy_tilde=0.05), seed=4)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = oracle.linear_steps(self.x, self.y, self.v, self.z, 0.3, 7, batch_size=3, rng=rng)
        want = self.z.copy()
        for _ in range(7):
            want -= 0.3 * (oracle.hvp_gyy(self.x, self.y, want, batch_size=3, rng=ref) + self.v)
        assert rel(got, want) <= RTOL
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


class TestRidgeKeepsTheLiteralLoops:
    """Ridge has no closed form: its noisy bulk steps are the query loop, draw for draw."""

    def setup_method(self):
        self.p = gen_ridge_hpo(30, 20, 4, label_noise=0.1, seed=3)
        rng = np.random.default_rng(0)
        self.x, self.y, self.v, self.z = (rng.standard_normal(4) for _ in range(4))
        self.step = 0.5 / self.p.constants().L_g
        self.noise = NoiseSpec(sigma_g_tilde=0.7,
                               sigma_gyy_tilde=0.5 * self.p.constants().mu_g / math.sqrt(3.0))
        self.oracle = make_stochastic(self.p, self.noise, seed=4)

    def test_noisy_gd_steps_are_single_draws(self):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = self.p.gd_steps(self.x, self.y, self.step, 7, batch_size=3, rng=rng,
                              sigma=self.noise.sigma_g_tilde)
        want = self.y.copy()
        for _ in range(7):
            want -= self.step * self.oracle.grad_gy(self.x, want, batch_size=3, rng=ref)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        # The noisy oracle hands its scale to these same steps.
        again = self.oracle.gd_steps(self.x, self.y, self.step, 7, batch_size=3,
                                     rng=np.random.default_rng(11))
        assert np.array_equal(again, got)

    def test_noisy_linear_steps_are_single_draws(self):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        got = self.p.linear_steps(self.x, self.y, self.v, self.z, self.step, 7, batch_size=3,
                                  rng=rng, sigma=self.noise.sigma_gyy_tilde)
        want = self.z.copy()
        for _ in range(7):
            hz = self.oracle.hvp_gyy(self.x, self.y, want, batch_size=3, rng=ref)
            want -= self.step * (hz + self.v)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        again = self.oracle.linear_steps(self.x, self.y, self.v, self.z, self.step, 7,
                                         batch_size=3, rng=np.random.default_rng(11))
        assert np.array_equal(again, got)


ITD_STEPS = (0,) + STEPS


@pytest.mark.parametrize("scale", [1.0, 1.9])
@pytest.mark.parametrize("T", ITD_STEPS)
def test_unrolled_grad_matches_literal_loop(problem, T, scale):
    # scale 1.9 puts alpha * lam in (1, 2) on the top coordinates, where r < 0.
    x, y0, _ = point(problem)
    start = y0.copy()
    alpha = scale / problem.constants().L_g
    grad, y = problem.unrolled_grad(x, y0, alpha, T)
    ref_grad, ref_y = BilevelOracle.unrolled_grad(problem, x, y0, alpha, T)
    assert rel(grad, ref_grad) <= RTOL
    assert rel(y, ref_y) <= RTOL
    assert np.array_equal(y0, start)


@pytest.mark.parametrize("T", ITD_STEPS)
def test_unrolled_grad_charges_what_its_loop_queries(problem, T):
    x, y0, _ = point(problem)
    alpha = 1.0 / problem.constants().L_g
    bulk, literal = OracleCounter(), OracleCounter()
    CountingOracle(problem, bulk).unrolled_grad(x, y0, alpha, T)
    BilevelOracle.unrolled_grad(CountingOracle(problem, literal), x, y0, alpha, T)
    assert bulk == literal == OracleCounter(n_grad_f=1, n_grad_g=T, n_jvp=T, n_hvp=T)


def test_ridge_unrolled_grad_is_the_literal_loop():
    p = gen_ridge_hpo(30, 20, 4, label_noise=0.1, seed=3)
    rng = np.random.default_rng(0)
    x, y0 = rng.standard_normal(4), rng.standard_normal(4)
    alpha = 0.5 / p.constants().L_g
    got = p.unrolled_grad(x, y0, alpha, 7)
    want = BilevelOracle.unrolled_grad(p, x, y0, alpha, 7)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("increasing_T", [False, True])
@pytest.mark.parametrize("path", ["bulk", "literal"])
def test_divergent_unroll_ends_in_divergence_error(problem, path, increasing_T, monkeypatch):
    # alpha * lam reaches 50 on the top coordinate: the steps grow by 49^T.
    if path == "literal":
        monkeypatch.setattr(problem, "unrolled_grad",
                            functools.partial(BilevelOracle.unrolled_grad, problem))
    L_outer, mu = problem.outer_smoothness()
    config, _ = prescribed_schedule(problem.constants(), mu_outer=mu, L_outer=L_outer, K=50)
    config = dataclasses.replace(config, alpha=50.0 / problem.constants().L_g, T=10)
    x0 = np.random.default_rng(0).standard_normal(problem.dims.dx)
    with pytest.raises(DivergenceError) as err:
        itd_run(problem, config, x0, increasing_T=increasing_T)
    assert err.value.outer_iteration is not None


# The oracle's bulk methods: its concrete public methods, less the two
# partials of grad_f, which every oracle inherits as parts of its grad_f.
BULK_METHODS = sorted(
    name for name, value in vars(BilevelOracle).items()
    if inspect.isfunction(value) and not name.startswith("_")
    and not getattr(value, "__isabstractmethod__", False) and name not in ("grad_fx", "grad_fy")
)


@pytest.mark.parametrize("wrapper", [CountingOracle, StochasticOracle])
def test_wrappers_override_every_bulk_method(wrapper):
    assert {"gd_steps", "linear_steps", "unrolled_grad"} <= set(BULK_METHODS)
    assert [name for name in BULK_METHODS if name not in vars(wrapper)] == []


@pytest.mark.parametrize("family", ["quadratic", "nonconvex", "ridge"])
def test_zero_noise_wrapper_bulk_methods_are_bit_identical(family):
    p = {"quadratic": lambda: gen_quadratic(12, 8, kappa_g=50.0, kappa_L=5.0, seed=7),
         "nonconvex": lambda: gen_nonconvex(12, 8, rho=1.0, seed=7, kappa_g=50.0),
         "ridge": lambda: gen_ridge_hpo(30, 20, 8, label_noise=0.1, seed=3)}[family]()
    oracle = make_stochastic(p, NoiseSpec(), seed=4)
    rng = np.random.default_rng(0)
    x, y, v, z = (rng.standard_normal(d) for d in (p.dims.dx, 8, 8, 8))
    alpha, beta = 1.0 / p.constants().L_g, 0.5 / p.constants().L_g
    calls = {
        "gd_steps": lambda o: (o.gd_steps(x, y, alpha, 100),),
        "linear_steps": lambda o: (o.linear_steps(x, y, v, z, beta, 100),),
        "unrolled_grad": lambda o: o.unrolled_grad(x, y, alpha, 100),
    }
    assert sorted(calls) == BULK_METHODS
    for name, call in calls.items():
        got, want = call(oracle), call(p)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), name


def test_noisy_wrapper_rejects_unrolled_grad():
    p = gen_quadratic(12, 8, kappa_g=50.0, kappa_L=5.0, seed=7)
    oracle = make_stochastic(p, NoiseSpec(sigma_g_tilde=1.0), seed=4)
    with pytest.raises(UnsupportedOperationError):
        oracle.unrolled_grad(np.zeros(12), np.zeros(8), 0.5, 3)
