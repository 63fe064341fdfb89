import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amigo import (
    CountingOracle,
    MetricsTracker,
    OracleCounter,
    aid_run,
    complexity_formula,
    gen_nonconvex,
    gen_quadratic,
    prescribed_schedule,
)
from amigo.metrics import MetricRow


class TestComplexityFormula:
    def test_direct_substitution(self):
        assert complexity_formula(1, 2, 3, 1, 1, 1, 1) == 7

    def test_zero_iterations(self):
        assert complexity_formula(0, 100, 100, 8, 8, 8, 8) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(min_value=0, max_value=10_000)] * 7))
    def test_matches_expansion(self, args):
        k, T, N, bg, bgyy, bgxy, bf = args
        assert complexity_formula(k, T, N, bg, bgyy, bgxy, bf) == k * (
            T * bg + N * bgyy + bgxy + bf
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            complexity_formula(-1, 1, 1, 1, 1, 1, 1)


class TestCountingOracle:
    def test_each_query_charges_its_batch(self):
        p = gen_quadratic(6, 4, kappa_g=3.0, kappa_L=2.0, seed=0)
        counter = OracleCounter()
        co = CountingOracle(p, counter)
        x, y = np.zeros(6), np.zeros(4)
        v = np.ones(4)
        co.grad_fx(x, y, batch_size=3)
        co.grad_fy(x, y, batch_size=2)
        co.grad_f(x, y, batch_size=5)
        co.grad_gy(x, y, batch_size=7)
        co.hvp_gyy(x, y, v, batch_size=11)
        co.jvp_gxy(x, y, v, batch_size=13)
        assert counter.n_grad_f == 3 + 2 + 5
        assert counter.n_grad_g == 7
        assert counter.n_hvp == 11
        assert counter.n_jvp == 13
        assert counter.total() == 10 + 7 + 11 + 13

    def test_bulk_steps_charge_each_step_batch(self):
        p = gen_quadratic(6, 4, kappa_g=3.0, kappa_L=2.0, seed=0)
        counter = OracleCounter()
        co = CountingOracle(p, counter)
        x, y = np.zeros(6), np.ones(4)
        assert np.array_equal(co.gd_steps(x, y, 0.5, 5, batch_size=3), p.gd_steps(x, y, 0.5, 5))
        co.linear_steps(x, y, y, y, 0.5, 4, batch_size=2)
        co.linear_steps(x, y, y, y, 0.5, 0, batch_size=9)
        assert counter == OracleCounter(n_grad_g=5 * 3, n_hvp=4 * 2)

    def test_dims_are_the_bases(self):
        p = gen_quadratic(6, 4, kappa_g=3.0, kappa_L=2.0, seed=0)
        assert CountingOracle(p, OracleCounter()).dims is p.dims

    def test_snapshot_is_independent(self):
        counter = OracleCounter(n_grad_f=1)
        snap = counter.snapshot()
        counter.n_grad_f += 5
        assert snap.n_grad_f == 1

    def test_counts_monotone_under_queries(self):
        p = gen_quadratic(5, 3, kappa_g=2.0, kappa_L=2.0, seed=1)
        counter = OracleCounter()
        co = CountingOracle(p, counter)
        last = 0
        for _ in range(5):
            co.grad_gy(np.zeros(5), np.zeros(3), batch_size=2)
            assert counter.total() > last
            last = counter.total()


class TestMetricsTracker:
    def setup_method(self):
        self.p = gen_quadratic(8, 6, kappa_g=5.0, kappa_L=4.0, seed=2)
        self.mu = self.p.outer_smoothness()[1]
        self.x0 = np.random.default_rng(3).standard_normal(8)

    def test_initial_point_has_unit_rel_error(self):
        tracker = MetricsTracker(self.p, mu_outer=self.mu)
        row = tracker.row(0, self.x0, OracleCounter())
        assert row.rel_error == 1.0
        assert row.cost == 0

    def test_minimizer_row(self):
        tracker = MetricsTracker(self.p, mu_outer=self.mu)
        tracker.row(0, self.x0, OracleCounter())
        row = tracker.row(1, self.p.x_star, OracleCounter(n_grad_f=4))
        assert row.rel_error == pytest.approx(0.0, abs=1e-15)
        assert row.grad_norm_sq <= 1e-18
        assert row.combined_sc == pytest.approx(0.0, abs=1e-15)
        assert row.cost == 4

    def test_combined_sc_matches_dense_recompute(self):
        rng = np.random.default_rng(4)
        tracker = MetricsTracker(self.p, mu_outer=self.mu)
        tracker.row(0, self.x0, OracleCounter())
        x = rng.standard_normal(8)
        row = tracker.row(1, x, OracleCounter())
        gap = self.p.L_value(x) - self.p.L_value(self.p.x_star)
        dist_sq = float(np.sum((x - self.p.x_star) ** 2))
        assert row.combined_sc == pytest.approx(min(gap, 0.5 * self.mu * dist_sq), rel=1e-9)

    def test_energy_strongly_convex_u0(self):
        tracker = MetricsTracker(self.p, mu_outer=self.mu, u=0)
        row = tracker.row(0, self.x0, OracleCounter())
        gap = self.p.gap(self.x0)
        dist_sq = float(np.sum((self.x0 - self.p.x_star) ** 2))
        assert row.energy_x == pytest.approx(0.5 * self.mu * dist_sq + gap, rel=1e-12)

    def test_energy_defaults_to_u0(self):
        # Without u, the energy keeps its gap term, as under u = 0.
        got = MetricsTracker(self.p, mu_outer=self.mu).row(0, self.x0)
        want = MetricsTracker(self.p, mu_outer=self.mu, u=0).row(0, self.x0)
        assert got.energy_x == want.energy_x

    def test_energy_needs_a_positive_smoothness_bound(self):
        p = gen_nonconvex(6, 4, rho=1.0, seed=5)
        assert MetricsTracker(p, L_outer=0.0).row(0, np.ones(6)).energy_x is None

    def test_energy_nonconvex_branch(self):
        p = gen_nonconvex(6, 4, rho=1.0, seed=5)
        L_outer = p.outer_smoothness()[0]
        tracker = MetricsTracker(p, L_outer=L_outer)
        x = np.random.default_rng(6).standard_normal(6)
        row = tracker.row(0, x, OracleCounter())
        assert row.rel_error is None and row.combined_sc is None
        assert row.energy_x == pytest.approx(row.grad_norm_sq / (2 * L_outer), rel=1e-12)

    def test_running_average_of_grad_norm_sq(self):
        tracker = MetricsTracker(self.p, mu_outer=self.mu)
        rng = np.random.default_rng(7)
        values = []
        tracker.row(0, self.x0, OracleCounter())
        for k in range(1, 6):
            x = rng.standard_normal(8)
            row = tracker.row(k, x, OracleCounter())
            values.append(row.grad_norm_sq)
            assert row.avg_grad_norm_sq == pytest.approx(np.mean(values), rel=1e-12)

    def test_first_row_rel_error_is_one(self):
        tracker = MetricsTracker(self.p, mu_outer=self.mu)
        row = tracker.row(0, self.x0)
        assert row.rel_error == pytest.approx(1.0, rel=1e-12)


def rows_from_separate_displacements(problem, xs, rows, mu_outer, L_outer, u):
    """The trace rows at xs, each term from its own displacement: grad_L, the gap's
    0.5 * d @ (lam_f * d) and np.sum((x - x*)**2)."""
    out, first_gap, total = [], None, 0.0
    for k, (x, row) in enumerate(zip(xs, rows, strict=True)):
        grad = problem.grad_L(x)
        gns = float(grad @ grad)
        total += gns if k >= 1 else 0.0
        avg = total / k if k >= 1 else gns
        rel = combined = None
        if mu_outer is not None and mu_outer > 0:
            d = x - problem.x_star
            gap = float(0.5 * d @ (problem.lam_f * d))
            first_gap = gap if first_gap is None else first_gap
            rel = gap / first_gap if first_gap > 0 else None
            dist_sq = float(np.sum((x - problem.x_star) ** 2))
            combined = min(gap, 0.5 * mu_outer * dist_sq)
            energy = 0.5 * mu_outer * dist_sq + (1 - u) * gap
        else:
            energy = gns / (2.0 * L_outer)
        out.append(MetricRow(k, rel, gns, avg, combined, energy, row.cost, row.wall_s))
    return out


@pytest.mark.parametrize("u", [0, 1])
@pytest.mark.parametrize("family", ["quadratic", "nonconvex"])
def test_rows_along_a_run_equal_rows_from_separate_displacements(family, u):
    # Field by field with ==: the row forms x - x* once, and gives the same bits.
    if family == "quadratic":
        p = gen_quadratic(200, 100, kappa_g=1e3, kappa_L=10.0, seed=0)
    else:
        p = gen_nonconvex(200, 100, rho=1.0, seed=0, kappa_g=1e3)
    L_outer, mu = p.outer_smoothness()
    config, _ = prescribed_schedule(p.constants(), mu_outer=mu, L_outer=L_outer, K=200)
    config.T, config.N = 1, 10
    tracker = MetricsTracker(p, mu_outer=mu, L_outer=L_outer, u=u)
    x0 = np.random.default_rng(0).standard_normal(200)
    record = aid_run(p, config, x0, tracker=tracker, store_iterates=True)
    assert len(record.rows) == 201
    want = rows_from_separate_displacements(p, record.xs, record.rows, mu, L_outer, u)
    for got, ref in zip(record.rows, want, strict=True):
        assert all(a == b for a, b in zip(got, ref, strict=True)), (got, ref)


def test_displacement_terms_are_grad_L_gap_and_squared_distance():
    p = gen_quadratic(200, 100, kappa_g=1e3, kappa_L=10.0, seed=0)
    rng = np.random.default_rng(8)
    for x in (rng.standard_normal(200), p.x_star + 1e-9 * rng.standard_normal(200), p.x_star):
        grad, gap, dist_sq = p.displacement_terms(x)
        assert np.array_equal(grad, p.grad_L(x))
        d = x - p.x_star
        assert gap == float(0.5 * d @ (p.lam_f * d)) == p.gap(x) and type(gap) is float
        assert dist_sq == float(np.sum((x - p.x_star) ** 2)) and type(dist_sq) is float
