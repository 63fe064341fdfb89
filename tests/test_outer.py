import dataclasses
import math
import warnings

import numpy as np
import pytest

import amigo.outer
from amigo import (
    ConfigurationError,
    DivergenceError,
    InvalidConstantsError,
    MetricsTracker,
    NoiseSpec,
    SmoothnessConstants,
    SolverConfig,
    aid_run,
    amigo_run,
    gen_nonconvex,
    gen_quadratic,
    itd_run,
    make_stochastic,
    prescribed_schedule,
)
from amigo.cli import METHOD_FIELDS, METHODS

from conftest import rel_err


@pytest.fixture
def quad():
    return gen_quadratic(12, 8, kappa_g=10.0, kappa_L=5.0, seed=23)


def exact_constants(kappa_g=10.0):
    return SmoothnessConstants(mu_g=1.0 / kappa_g, L_g=1.0, Lg_prime=1.0, M_g=0.0, L_f=1.0, B=0.0)


class TestPrescribedSchedule:
    def test_unit_constants_step_sizes(self):
        c = SmoothnessConstants(mu_g=1.0, L_g=1.0, L_f=1.0)
        config, _ = prescribed_schedule(c, L_outer=1.0)
        assert config.alpha == 1.0
        assert config.beta == 0.5
        assert config.gamma == 1.0
        assert config.T == 1 and config.N == 1

    def test_budgets_scale_with_conditioning(self):
        config, _ = prescribed_schedule(exact_constants(10.0))
        assert config.T == 10 and config.N == 10

    def test_strongly_convex_weights(self):
        config, _ = prescribed_schedule(exact_constants(), mu_outer=0.05, L_outer=1.0)
        assert config.mu_outer == 0.05

    def test_hessian_noise_is_checked_not_warned(self):
        # sqrt(3) * 0.5 >= mu_g = 0.1: a sampled Hessian could be indefinite.
        with pytest.raises(ConfigurationError, match="Hessian noise too large"):
            prescribed_schedule(exact_constants(10.0), noise=NoiseSpec(sigma_gyy_tilde=0.5), batch_gyy=3)
        # Admissible noise keeps the old batch floor, sigma^2 / (mu_g L_g), below 1/3,
        # so batch 1 passes; pytest turns a warning into an error.
        prescribed_schedule(exact_constants(10.0), noise=NoiseSpec(sigma_gyy_tilde=0.05), batch_gyy=1)

    def test_invalid_config_fields(self):
        with pytest.raises(ValueError):
            SolverConfig(linear_solver="bogus")
        with pytest.raises(ValueError):
            SolverConfig(u=2)
        with pytest.raises(ValueError):
            SolverConfig(batch_f=0)
        for bad in ({"alpha": 0.0}, {"beta": -0.5}, {"gamma": -1.0}, {"gamma": math.nan},
                    {"cg_tol": -1e-10}, {"cg_tol": math.nan}):
            with pytest.raises(ValueError, match="must be"):
                SolverConfig(**bad)
        SolverConfig(cg_tol=0.0)


# Schedules and averaged runs that are rejected: (call, error type, message).
BAD_SETTINGS = {
    "outer-smoothness-zero": (lambda quad: prescribed_schedule(exact_constants(), L_outer=0.0),
                              InvalidConstantsError, "outer smoothness bound must be positive, got 0.0"),
    "outer-smoothness-negative": (lambda quad: prescribed_schedule(exact_constants(), L_outer=-2.0),
                                  InvalidConstantsError, "outer smoothness bound must be positive, got -2.0"),
    "averaging-weight-above-one": (
        lambda quad: aid_run(quad, SolverConfig(u=1, K=3, mu_outer=2.0), np.zeros(12)),
        ValueError, "averaging weight delta=2.0 outside (0, 1]"),
}


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_bad_settings_rejected(quad, case):
    call, error, message = BAD_SETTINGS[case]
    with pytest.raises(error) as err:
        call(quad)
    assert type(err.value) is error and str(err.value) == message


def schedule_for(problem, K, **kw):
    L_outer, mu = problem.outer_smoothness()
    config, _ = prescribed_schedule(
        problem.constants(), mu_outer=mu, L_outer=L_outer, K=K, **kw
    )
    return config


class TestAidLoop:
    def test_zero_outer_iterations(self, quad):
        config = schedule_for(quad, K=0)
        tracker = MetricsTracker(quad, mu_outer=quad.outer_smoothness()[1])
        x0 = np.ones(12)
        record = amigo_run(quad, config, x0, tracker=tracker)
        assert len(record.rows) == 1
        assert np.array_equal(record.x_final, x0)
        assert record.counter.total() == 0

    @pytest.mark.parametrize("count", ["T", "N"])
    def test_zero_inner_steps_leave_their_variable_at_its_start(self, quad, count):
        # T = 0 (N = 0) is a valid count: y (z) stays at the loop's zero start.
        config = dataclasses.replace(schedule_for(quad, K=3), **{count: 0})
        record = aid_run(quad, config, np.ones(12))
        final = record.y_final if count == "T" else record.z_final
        assert np.array_equal(final, np.zeros(quad.dims.dy))

    def test_row_count_and_cost_progression(self, quad):
        config = schedule_for(quad, K=7)
        tracker = MetricsTracker(quad, mu_outer=quad.outer_smoothness()[1])
        record = amigo_run(quad, config, np.ones(12), tracker=tracker)
        assert len(record.rows) == config.K + 1
        costs = [r.cost for r in record.rows]
        assert costs == sorted(costs)
        per_iter = config.T + config.N + 2
        assert costs[-1] == config.K * per_iter

    def test_tight_inner_solves_track_exact_gradient_descent(self, quad):
        config = schedule_for(quad, K=10)
        config.T = config.N = 2000
        record = amigo_run(quad, config, np.ones(12), store_iterates=True)
        x = np.ones(12)
        for k in range(10):
            x = x - config.gamma * quad.grad_L(x)
            assert np.linalg.norm(record.xs[k + 1] - x) <= 1e-8

    def test_assembled_estimate_close_to_gradient_when_inner_tight(self, quad):
        config = schedule_for(quad, K=8)
        config.T = config.N = 2000
        seen = []

        def hook(k, x, y, z, counts):
            psi = quad.grad_fx(x, y) + quad.jvp_gxy(x, y, z)
            seen.append(np.linalg.norm(psi - quad.grad_L(x)))

        amigo_run(quad, config, np.ones(12), metrics_hook=hook)
        assert len(seen) == 8
        assert max(seen) <= 1e-8

    def test_amigo_requires_warm_flags(self, quad):
        config = schedule_for(quad, K=3)
        config.warm_z = False
        with pytest.raises(ValueError):
            amigo_run(quad, config, np.ones(12))

    def test_warm_aid_identical_to_amigo(self, quad):
        noise = NoiseSpec(sigma_g_tilde=0.3, sigma_f_tilde=0.2)
        config = schedule_for(quad, K=12)
        x0 = np.random.default_rng(0).standard_normal(12)
        a = amigo_run(
            make_stochastic(quad, noise, 5), config, x0, rng=np.random.default_rng(7)
        )
        b = aid_run(
            make_stochastic(quad, noise, 5), config, x0, rng=np.random.default_rng(7)
        )
        assert np.array_equal(a.x_final, b.x_final)
        assert np.array_equal(a.z_final, b.z_final)

    def test_neumann_and_fixed_point_cold_trajectories_match(self, quad):
        x0 = np.random.default_rng(1).standard_normal(12)
        records = {}
        for solver in ("neumann", "fixed_point"):
            config = schedule_for(quad, K=15, warm_z=False, linear_solver=solver)
            records[solver] = aid_run(quad, config, x0, store_iterates=True)
        for xa, xb in zip(records["neumann"].xs, records["fixed_point"].xs):
            assert np.linalg.norm(xa - xb) <= 1e-11 * max(1.0, np.linalg.norm(xa))

    def test_warm_start_threading(self, quad):
        # With T = N = 1 each refresh is a single explicit update, so the
        # hooked trace verifies exactly which vectors were warm-threaded.
        config = schedule_for(quad, K=6)
        config.T = config.N = 1
        seen = []
        aid_run(quad, config, np.ones(12), metrics_hook=lambda k, x, y, z, c: seen.append((x, y, z)))
        assert len(seen) == 6
        y_prev = np.zeros(8)
        z_prev = np.zeros(8)
        for x_k, y, z in seen:
            y_k = y_prev - config.alpha * quad.grad_gy(x_k, y_prev)
            assert np.allclose(y, y_k, rtol=0, atol=1e-14)
            v_k = quad.grad_fy(x_k, y_k)
            z_k = z_prev - config.beta * (quad.hvp_gyy(x_k, y_k, z_prev) + v_k)
            assert np.allclose(z, z_k, rtol=0, atol=1e-14)
            y_prev, z_prev = y, z

    def test_cold_restart_resets_initializations(self, quad):
        # Cold solvers restart y and z from zero in every outer iteration.
        config = schedule_for(quad, K=4, warm_y=False, warm_z=False)
        config.T = config.N = 1
        seen = []
        aid_run(quad, config, np.ones(12), metrics_hook=lambda k, x, y, z, c: seen.append((x, y, z)))
        assert len(seen) == 4
        zero = np.zeros(8)
        for x_k, y, z in seen:
            expected_y = -config.alpha * quad.grad_gy(x_k, zero)
            assert np.allclose(y, expected_y, rtol=0, atol=1e-14)
            assert np.allclose(z, -config.beta * quad.grad_fy(x_k, y), rtol=0, atol=1e-14)

    def test_seed_determinism(self, quad):
        noise = NoiseSpec(sigma_g_tilde=0.5, sigma_f_tilde=0.5)
        config = schedule_for(quad, K=20)
        x0 = np.zeros(12)

        def run():
            oracle = make_stochastic(quad, noise, seed=9)
            tracker = MetricsTracker(quad, mu_outer=quad.outer_smoothness()[1])
            return aid_run(oracle, config, x0, rng=np.random.default_rng(11), tracker=tracker)

        a, b = run(), run()
        assert np.array_equal(a.x_final, b.x_final)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.rel_error == rb.rel_error
            assert ra.cost == rb.cost

    # Every driver averages under u = 1: aid on a noisy oracle, the unrolled drivers on quad itself.
    AVERAGING_RUNS = {
        "aid": lambda quad, config: aid_run(make_stochastic(quad, NoiseSpec(sigma_g_tilde=0.5), 3), config,
                                            np.zeros(12), rng=np.random.default_rng(4), store_iterates=True),
        "itd": lambda quad, config: itd_run(quad, config, np.zeros(12), store_iterates=True),
        "reverse": lambda quad, config: itd_run(quad, config, np.zeros(12), store_iterates=True,
                                                increasing_T=True),
    }

    @pytest.mark.parametrize("driver", AVERAGING_RUNS)
    def test_averaged_iterate_matches_offline_recursion(self, quad, driver):
        config = schedule_for(quad, K=25, u=1)
        record = self.AVERAGING_RUNS[driver](quad, config)
        assert len(record.xhats) == len(record.xs) == 26
        delta = config.mu_outer * config.gamma
        xhat = record.xs[0].copy()
        for k in range(1, len(record.xs)):
            xhat = (1 - delta) * xhat + delta * record.xs[k]
            assert np.max(np.abs(xhat - record.xhats[k])) <= 1e-14
        assert np.array_equal(record.xhat_final, record.xhats[-1])

    def test_noisy_oracle_without_rng_rejected_before_any_query(self, quad):
        queries = []
        for name in ("grad_fx", "grad_fy", "grad_f", "grad_gy", "hvp_gyy", "jvp_gxy",
                     "gd_steps", "linear_steps"):
            setattr(quad, name, lambda *args, _name=name, **kwargs: queries.append(_name))
        oracle = make_stochastic(quad, NoiseSpec(sigma_f_tilde=0.5), seed=0)
        with pytest.raises(ValueError, match="noisy oracle needs a random stream"):
            aid_run(oracle, schedule_for(quad, K=3), np.zeros(12))
        assert queries == []

    def test_averaging_requires_modulus(self, quad):
        config = schedule_for(quad, K=3, u=1)
        config.mu_outer = None
        with pytest.raises(ValueError):
            aid_run(quad, config, np.zeros(12))

    def test_divergence_carries_outer_iteration(self, quad):
        config = schedule_for(quad, K=50)
        config.gamma = 1e8  # far beyond 2/L: the outer iteration explodes
        with pytest.raises(DivergenceError) as err:
            aid_run(quad, config, np.ones(12))
        assert err.value.outer_iteration is not None

    def test_divergence_carries_partial_rows(self, quad):
        assert DivergenceError("no driver").partial_rows == []
        config = schedule_for(quad, K=50)
        config.gamma = 1e8
        tracker = MetricsTracker(quad, mu_outer=quad.outer_smoothness()[1])
        with pytest.raises(DivergenceError) as err:
            aid_run(quad, config, np.ones(12), tracker=tracker)
        rows = err.value.partial_rows
        assert len(rows) == err.value.outer_iteration + 1
        assert [r.k for r in rows] == list(range(len(rows)))

    def test_linear_rate_under_prescribed_schedule(self, quad):
        config = schedule_for(quad, K=60)
        tracker = MetricsTracker(quad, mu_outer=quad.outer_smoothness()[1])
        record = amigo_run(quad, config, np.random.default_rng(2).standard_normal(12),
                           tracker=tracker)
        kappa_L = 5.0
        bound = 1 - 1 / (2 * kappa_L)
        rels = [r.rel_error for r in record.rows]
        # Measured contraction must beat the guaranteed geometric factor.
        assert (rels[40] / rels[10]) ** (1 / 30) <= bound


class TestItdRun:
    def test_large_unroll_tracks_exact_gradient_descent(self, quad):
        config = schedule_for(quad, K=10)
        config.T = 600
        record = itd_run(quad, config, np.ones(12), store_iterates=True)
        x = np.ones(12)
        for k in range(10):
            x = x - config.gamma * quad.grad_L(x)
            assert rel_err(record.xs[k + 1], x) <= 1e-6

    def test_zero_unroll_descends_frozen_surrogate(self, quad):
        config = schedule_for(quad, K=5)
        config.T = 0
        record = itd_run(quad, config, np.ones(12), store_iterates=True)
        x = np.ones(12)
        for k in range(5):
            x = x - config.gamma * quad.grad_fx(x, np.zeros(8))
            assert np.allclose(record.xs[k + 1], x, rtol=0, atol=1e-14)

    def test_oracle_accounting_per_step(self, quad):
        config = schedule_for(quad, K=4)
        config.T = 7
        record = itd_run(quad, config, np.ones(12))
        k = 4
        assert record.counter.n_grad_g == k * config.T
        assert record.counter.n_hvp == k * config.T
        assert record.counter.n_jvp == k * config.T
        assert record.counter.n_grad_f == k

    def test_increasing_unroll_schedule(self, quad):
        config = schedule_for(quad, K=3)
        config.T = 5
        record = itd_run(quad, config, np.ones(12), increasing_T=True)
        # T_k = ceil(5 log(k + 2)) for k = 0, 1, 2.
        expected = sum(int(np.ceil(5 * np.log(k + 2))) for k in range(3))
        assert record.counter.n_grad_g == expected

    def test_rejects_stochastic_oracle(self, quad):
        oracle = make_stochastic(quad, NoiseSpec(sigma_g_tilde=1.0), seed=0)
        config = schedule_for(quad, K=2)
        with pytest.raises(Exception, match="deterministic"):
            itd_run(oracle, config, np.zeros(12))

    def test_early_stop_rule(self, quad):
        config = schedule_for(quad, K=500)
        tracker = MetricsTracker(quad, mu_outer=quad.outer_smoothness()[1])
        record = itd_run(
            quad, config, np.ones(12), tracker=tracker,
            stop=lambda row: row.rel_error is not None and row.rel_error <= 0.1,
        )
        assert record.iterations_run < 500
        assert record.rows[-1].rel_error <= 0.1
        assert len(record.rows) == record.iterations_run + 1


# The amigo.outer attribute each linear-solver kind's adjoint solve calls.
SOLVER_OF_KIND = {
    "sgd": "solve_linear_sgd",
    "fixed_point": "solve_linear_sgd",
    "neumann": "solve_linear_neumann",
    "cg": "solve_linear_cg",
}


def test_drivers_look_solvers_up_at_call_time(quad, monkeypatch):
    # Benchmark tracing wraps these module attributes; a solver table bound
    # at import time would bypass the wrappers.  Every kind is covered.
    assert set(SOLVER_OF_KIND) == set(amigo.outer.LINEAR_SOLVERS)
    calls = {}
    for name in ("solve_inner_sgd", *set(SOLVER_OF_KIND.values()), "itd_hypergradient"):
        original = getattr(amigo.outer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(amigo.outer, name, counted)
    for kind, solver in SOLVER_OF_KIND.items():
        calls.clear()
        config = schedule_for(quad, K=3, linear_solver=kind)
        aid_run(quad, config, np.ones(12))
        itd_run(quad, config, np.ones(12))
        assert calls == {"solve_inner_sgd": 3, solver: 3, "itd_hypergradient": 3}, kind


# (driver, solver overrides, expected diverging outer iteration or None)
DIVERGING = {
    # amigo-gd's outer step never reads y, so only a check of y catches this.
    "inner-sgd": ("aid", {"alpha": 50.0}, 18),
    "linear-sgd": ("aid", {"beta": 50.0}, None),
    # A cold adjoint solve overflows within its first call, in iteration 0.
    "linear-fixed_point": ("aid", {"beta": 100.0, "N": 200, "warm_z": False,
                                   "linear_solver": "fixed_point"}, 0),
    "linear-neumann": ("aid", {"beta": 100.0, "N": 200, "warm_z": False,
                               "linear_solver": "neumann"}, 0),
    "linear-cg": ("aid", {"alpha": 50.0, "linear_solver": "cg"}, None),
    "itd": ("itd", {"alpha": 50.0}, None),
    "reverse": ("reverse", {"alpha": 50.0}, None),
    "outer-step": ("aid", {"gamma": 1e8}, None),
}


def _outer_loop_locals(err):
    """Locals of the outer-loop frame the error propagated through."""
    tb = err.__traceback__
    while tb.tb_frame.f_code is not amigo.outer._outer_loop.__code__:
        tb = tb.tb_next
    return tb.tb_frame.f_locals


def _diverge(case, **kwargs):
    """The DivergenceError of DIVERGING[case] on the CLI's run of the dx=24 quadratic.

    Problem seed 1, run seed 0, K=40; kwargs go to the driver beside its tracker.
    """
    driver, overrides, _ = DIVERGING[case]
    problem = gen_quadratic(24, 12, kappa_g=10.0, kappa_L=5.0, seed=1)
    config = dataclasses.replace(schedule_for(problem, K=40), **overrides)
    tracker = MetricsTracker(problem, mu_outer=config.mu_outer, L_outer=problem.outer_smoothness()[0])
    x0 = np.random.default_rng(0).standard_normal(24)
    with pytest.raises(DivergenceError) as err:
        if driver == "aid":
            aid_run(problem, config, x0, tracker=tracker, **kwargs)
        else:
            itd_run(problem, config, x0, tracker=tracker, increasing_T=driver == "reverse", **kwargs)
    return err.value


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", list(DIVERGING))
def test_divergence_is_decided_once_per_outer_iteration(case):
    expected = DIVERGING[case][2]
    seen = []

    def hook(k, x, y, z, counts):
        seen.extend(v for v in (x, y, z) if v is not None)

    err = _diverge(case, metrics_hook=hook, store_iterates=True)
    k = err.outer_iteration
    assert k is not None
    if expected is not None:
        assert k == expected
    rows = err.partial_rows
    assert [r.k for r in rows] == list(range(k + 1))
    assert all(v is None or math.isfinite(v) for r in rows for v in r)
    stored = _outer_loop_locals(err)["xs"]
    assert len(seen) >= 2 * k and len(stored) == k + 1
    assert all(np.isfinite(v).all() for v in seen + stored)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", list(DIVERGING))
def test_divergence_is_decided_by_the_loop_not_by_a_numpy_warning(case):
    # A numpy overflow or invalid warning raised as an error inside the run
    # would end it before the loop's checks; with such warnings errors, the
    # run must end as it does with them ignored: same iteration, message and
    # rows (less their clock readings).
    outcomes = []
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            err = _diverge(case)
        rows = [r._replace(wall_s=None) for r in err.partial_rows]
        outcomes.append((err.outer_iteration, str(err), rows))
    assert outcomes[0] == outcomes[1]


class Untouchable:
    """A problem's stand-in that records the name of every attribute read from it."""

    def __init__(self, problem):
        self.problem, self.queried = problem, []

    def __getattr__(self, name):
        self.queried.append(name)
        return getattr(self.problem, name)


class CallSpy:
    """A tracker and a metrics_hook that record every call they get."""

    def __init__(self):
        self.calls = []

    def row(self, *args):
        self.calls.append(("row", args))

    def __call__(self, *args):
        self.calls.append(("hook", args))


@pytest.mark.parametrize("driver", ["aid", "itd"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_is_rejected_before_the_first_query_and_row(quad, driver, bad):
    config = schedule_for(quad, K=3)
    x0 = np.ones(12)
    x0[3] = bad
    spy = CallSpy()
    oracle = Untouchable(quad)
    run = aid_run if driver == "aid" else itd_run
    with pytest.raises(ValueError, match="^x0 has a non-finite entry$"):
        run(oracle, config, x0, metrics_hook=spy, tracker=spy, store_iterates=True)
    assert spy.calls == []
    assert set(oracle.queried) <= {"is_stochastic", "dims", "noise"}


# The nonconvex family has no outer modulus (None); -1.0 is what a direct caller may pass.
@pytest.mark.parametrize("mu_outer", [-1.0, None])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_averaging_without_an_outer_modulus_is_rejected_before_any_query(method, mu_outer):
    problem = gen_nonconvex(12, 8, rho=1.0, seed=5)
    mapping = METHODS[method]
    owned = {name: mapping[name] for name in METHOD_FIELDS if name in mapping}
    config = dataclasses.replace(schedule_for(problem, K=3, u=1, **owned), mu_outer=mu_outer)
    oracle, spy = Untouchable(problem), CallSpy()
    kwargs = dict(metrics_hook=spy, tracker=spy, store_iterates=True)
    with pytest.raises(ValueError) as err:
        if mapping["driver"] == "itd":
            itd_run(oracle, config, np.zeros(12), increasing_T=mapping["increasing_T"], **kwargs)
        else:
            aid_run(oracle, config, np.zeros(12), **kwargs)
    assert str(err.value) == "averaging (u=1) requires a positive outer modulus mu_outer"
    assert spy.calls == []
    # Checked before the (method, noise) pair, so the noise is not read either.
    assert set(oracle.queried) <= {"is_stochastic", "dims"}
