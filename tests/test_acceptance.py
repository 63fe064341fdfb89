"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from amigo import (
    MetricsTracker,
    NoiseSpec,
    aid_run,
    amigo_run,
    complexity_formula,
    derive_constants,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    itd_hypergradient,
    itd_run,
    make_stochastic,
    prescribed_schedule,
    psi_hat,
    solve_linear_cg,
    solve_linear_neumann,
    solve_linear_sgd,
)
from amigo.cli import main as cli_main
from amigo.cli import run_sweep

from conftest import central_diff, rel_err

WORKERS = min(2, os.cpu_count() or 1)


def report(number, name, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s{suffix}")


def test_c01_implicit_gradient_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        p = gen_quadratic(50, 50, kappa_g=100.0, kappa_L=10.0, seed=seed)
        x = np.random.default_rng(1000 + seed).standard_normal(50)
        ref = p.reference(x)
        psi = psi_hat(p, x, ref["y_star"], ref["z_star"])
        worst = max(worst, rel_err(psi, ref["grad_L"]))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, "implicit-gradient exactness", elapsed, f"worst rel err {worst:.2e}")


def _surrogate_value(problem, x, y0, alpha, T):
    y = np.array(y0, dtype=float, copy=True)
    for _ in range(T):
        y = y - alpha * problem.grad_gy(x, y)
    return problem.f_value(x, y)


def test_c02_finite_difference_validation():
    t0 = time.perf_counter()
    problems = {
        "quadratic": gen_quadratic(10, 8, kappa_g=10.0, kappa_L=5.0, seed=1),
        "ridge": gen_ridge_hpo(80, 60, 20, label_noise=0.1, seed=2),
        "nonconvex": gen_nonconvex(9, 6, rho=1.5, seed=3, kappa_g=8.0),
    }
    h, T = 1e-5, 400
    worst_ref = worst_itd = 0.0
    for name, p in problems.items():
        rng = np.random.default_rng(hash(name) % 2**32)
        dx = p.dims.dx
        alpha = 1.0 / p.constants().L_g
        y0 = np.zeros(p.dims.dy)
        for _ in range(5):
            x = rng.standard_normal(dx) * 0.5
            # Exact bilevel gradient against differences of the true loss.
            fd_true = central_diff(p.L_value, x, h=h)
            worst_ref = max(worst_ref, rel_err(p.grad_L(x), fd_true))
            # Unrolled hypergradient against differences of its surrogate.
            res = itd_hypergradient(p, x, y0, alpha=alpha, T=T)
            fd_surr = central_diff(lambda xx: _surrogate_value(p, xx, y0, alpha, T), x, h=h)
            worst_itd = max(worst_itd, rel_err(res.grad, fd_surr))
    elapsed = time.perf_counter() - t0
    assert worst_ref <= 1e-5
    assert worst_itd <= 1e-5
    assert elapsed < 10.0
    report(2, "finite-difference validation", elapsed,
           f"grad_L worst {worst_ref:.2e}, itd worst {worst_itd:.2e}")


@pytest.fixture(scope="module")
def strongly_convex_run():
    """Shared deterministic run for the linear-rate and bias criteria."""
    problem = gen_quadratic(200, 100, kappa_g=10.0, kappa_L=10.0, seed=0)
    L_outer, mu = problem.outer_smoothness()
    config, _ = prescribed_schedule(
        problem.constants(), mu_outer=mu, L_outer=L_outer, K=200
    )
    tracker = MetricsTracker(problem, mu_outer=mu, L_outer=L_outer)
    trace = []

    def hook(k, x, y, z, counts):
        trace.append((k, x, y, z))

    t0 = time.perf_counter()
    record = amigo_run(
        problem, config, np.random.default_rng(7).standard_normal(200),
        metrics_hook=hook, tracker=tracker,
    )
    elapsed = time.perf_counter() - t0
    return problem, config, record, trace, elapsed


def test_c03_linear_rate_strongly_convex(strongly_convex_run):
    problem, config, record, _, elapsed = strongly_convex_run
    assert config.T == 10 and config.N == 10
    rels = [row.rel_error for row in record.rows]
    contraction = (rels[100] / rels[10]) ** (1.0 / 90.0)
    assert contraction <= 0.9601
    assert rels[200] <= 1e-4
    assert elapsed < 5.0
    report(3, "prescribed-schedule linear rate", elapsed,
           f"per-step contraction {contraction:.4f}, rel(200) {rels[200]:.2e}")


def test_c04_bias_inheritance_bound(strongly_convex_run):
    problem, _, _, trace, _ = strongly_convex_run
    t0 = time.perf_counter()
    L_psi = derive_constants(problem.constants()).L_psi
    checked = 0
    for k, x, y, z in trace:
        if k < 5:
            continue
        psi = problem.grad_fx(x, y) + problem.jvp_gxy(x, y, z)
        lhs = np.linalg.norm(psi - problem.grad_L(x))
        inner_err = np.linalg.norm(y - problem.y_star(x)) + np.linalg.norm(z - problem.z_star())
        assert lhs <= L_psi * inner_err + 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 195
    report(4, "bias inheritance bound", elapsed, f"L_psi {L_psi:.1f}, {checked} iterates checked")


def test_c05_linear_solver_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(20):
        p = gen_quadratic(6, 5, kappa_g=float(rng.uniform(1, 30)), kappa_L=3.0, seed=trial)
        x, y, v = rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(5)
        beta = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 40))
        z_sgd = solve_linear_sgd(p, x, y, v, np.zeros(5), beta=beta, N=n).out
        z_ne = solve_linear_neumann(p, x, y, v, beta=beta, N=n).out
        scale = max(1.0, float(np.linalg.norm(z_sgd)))
        worst = max(worst, float(np.linalg.norm(z_ne - z_sgd)) / scale)
    assert worst <= 1e-12

    worst_iters = 0
    for seed in range(5):
        p = gen_quadratic(8, 20, kappa_g=10.0, kappa_L=4.0, seed=seed)
        r = np.random.default_rng(seed + 200)
        x, y, v = r.standard_normal(8), r.standard_normal(20), r.standard_normal(20)
        res = solve_linear_cg(p, x, y, v, tol=1e-10, max_iter=20)
        true_residual = float(np.linalg.norm(p.A_g @ res.out + v))
        assert true_residual <= 1e-10 * max(1.0, float(np.linalg.norm(v)))
        worst_iters = max(worst_iters, res.iterations_used)
    assert worst_iters <= 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(5, "linear-solver identities", elapsed,
           f"sgd-Neumann worst {worst:.2e}, CG iters <= {worst_iters}")


def test_c06_warm_start_complexity_advantage():
    t0 = time.perf_counter()
    spec = {"family": "quadratic", "dx": 200, "dy": 100, "kappa_g": 1e3,
            "kappa_L": 10.0, "seed": 0}
    methods = ["amigo-gd", "amigo-cg", "aid-gd", "aid-fp", "aid-n"]
    _, summary = run_sweep(
        spec,
        methods=methods,
        T_grid=[1, 10, 100, 1000],
        N_grid=[1, 10, 100, 1000],
        seeds=[0],
        K_max=20_000,
        eps=(1e-6,),
        cost_cap=300_000,
        stop_rel=1e-13,
        solver_overrides={"cg_tol": 1e-12},
        workers=WORKERS,
    )

    def best(method):
        entry = summary[method]["best"]["1e-06"]
        return math.inf if entry is None else entry["cost"]

    # Warm-started linear solves beat the cold restart at equal budgets.
    assert best("amigo-gd") < best("aid-gd")
    # The accelerated warm solver is at least as cheap as every method here.
    assert all(best("amigo-cg") <= best(m) for m in methods)
    # Only warm-started or accelerated linear solves drive the error to 1e-12.
    deep = {m: summary[m]["min_rel_error"] for m in methods}
    assert deep["amigo-gd"] <= 1e-12 and deep["amigo-cg"] <= 1e-12
    assert deep["aid-gd"] > 1e-12 and deep["aid-fp"] > 1e-12 and deep["aid-n"] > 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(6, "warm-start complexity advantage", elapsed,
           f"C(1e-6): amigo-cg {best('amigo-cg')}, amigo-gd {best('amigo-gd')}, "
           f"aid-gd {best('aid-gd')}; min rel {deep}")


def test_c07_stochastic_variance_floor_scaling():
    t0 = time.perf_counter()
    problem = gen_quadratic(20, 10, kappa_g=10.0, kappa_L=10.0, seed=0)
    L_outer, mu = problem.outer_smoothness()
    noise = NoiseSpec(sigma_g_tilde=1.0, sigma_f_tilde=1.0)
    K = 300
    floors = {}
    for b in (1, 4, 16):
        config, _ = prescribed_schedule(
            problem.constants(), mu_outer=mu, L_outer=L_outer, K=K, u=1,
            batch_f=b, batch_g=b, batch_gxy=b, batch_gyy=b, noise=noise,
        )
        per_seed = []
        for seed in range(10):
            oracle = make_stochastic(problem, noise, seed=seed)
            rng = np.random.default_rng(seed)
            x0 = rng.standard_normal(20)
            rec = aid_run(oracle, config, x0, rng=rng, store_iterates=True)
            gaps = [problem.gap(xh) for xh in rec.xhats[int(0.8 * K):]]
            per_seed.append(float(np.mean(gaps)))
        floors[b] = float(np.median(per_seed))
    elapsed = time.perf_counter() - t0
    assert floors[1] > floors[4] > floors[16]
    assert floors[16] <= 0.5 * floors[1]
    assert elapsed < 120.0
    report(7, "stochastic variance-floor scaling", elapsed,
           f"median floors b=1/4/16: {floors[1]:.3e}/{floors[4]:.3e}/{floors[16]:.3e}")


def test_c08_nonconvex_stationarity():
    t0 = time.perf_counter()
    problem = gen_nonconvex(30, 20, rho=1.0, seed=0, kappa_g=10.0)
    L_outer, _ = problem.outer_smoothness()
    config, _ = prescribed_schedule(problem.constants(), L_outer=L_outer, K=1000)
    tracker = MetricsTracker(problem, L_outer=L_outer)
    x0 = np.random.default_rng(1).standard_normal(30)
    record = aid_run(problem, config, x0, tracker=tracker)
    avg100 = record.rows[100].avg_grad_norm_sq
    avg1000 = record.rows[1000].avg_grad_norm_sq
    assert avg1000 <= avg100 / 10.0

    noise = NoiseSpec(sigma_g_tilde=0.5, sigma_f_tilde=0.5)
    floors = {}
    for b in (1, 16):
        cfg, _ = prescribed_schedule(
            problem.constants(), L_outer=L_outer, K=600,
            batch_f=b, batch_g=b, batch_gxy=b, batch_gyy=b, noise=noise,
        )
        oracle = make_stochastic(problem, noise, seed=5)
        tr = MetricsTracker(problem, L_outer=L_outer)
        rec = aid_run(oracle, cfg, x0, rng=np.random.default_rng(5), tracker=tr)
        tail = [r.grad_norm_sq for r in rec.rows[int(0.8 * 600):]]
        floors[b] = float(np.mean(tail))
    elapsed = time.perf_counter() - t0
    assert floors[16] < floors[1]
    assert floors[16] > 0
    assert elapsed < 60.0
    report(8, "non-convex stationarity", elapsed,
           f"avg ratio {avg1000 / avg100:.6f}, stochastic floors {floors[1]:.2e} -> {floors[16]:.2e}")


def test_c09_complexity_accounting():
    t0 = time.perf_counter()
    quad = gen_quadratic(14, 12, kappa_g=8.0, kappa_L=4.0, seed=0)
    L_outer, mu = quad.outer_smoothness()
    base, _ = prescribed_schedule(quad.constants(), mu_outer=mu, L_outer=L_outer)
    rng = np.random.default_rng(99)
    for trial in range(5):
        K = int(rng.integers(1, 9))
        T = int(rng.integers(0, 7))
        N = int(rng.integers(1, 7))
        bf, bg, bxy, byy = (int(rng.integers(1, 6)) for _ in range(4))
        cfg = dataclasses.replace(
            base, K=K, T=T, N=N, batch_f=bf, batch_g=bg, batch_gxy=bxy, batch_gyy=byy,
            cg_tol=0.0,
        )
        x0 = rng.standard_normal(14)

        # Warm-started stochastic-linear-solver loop: the closed complexity
        # formula holds exactly, batch-weighted.
        rec = amigo_run(quad, cfg, x0)
        assert rec.counter.total() == complexity_formula(K, T, N, bg, byy, bxy, bf)

        # Cold restart changes initializations, not query counts.
        rec = aid_run(quad, dataclasses.replace(cfg, warm_z=False), x0)
        assert rec.counter.total() == complexity_formula(K, T, N, bg, byy, bxy, bf)

        # Deterministic linear solvers: unit Hessian batches; the fixed-point
        # pass costs N products, the truncated series N - 1, and CG run to
        # its full budget costs max_iter + 1 (initial residual included).
        rec = aid_run(quad, dataclasses.replace(cfg, linear_solver="fixed_point"), x0)
        assert rec.counter.total() == K * (T * bg + N + bxy + bf)
        rec = aid_run(quad, dataclasses.replace(cfg, linear_solver="neumann"), x0)
        assert rec.counter.total() == K * (T * bg + max(N - 1, 0) + bxy + bf)
        rec = aid_run(quad, dataclasses.replace(cfg, linear_solver="cg"), x0)
        assert rec.counter.total() == K * (T * bg + N + 1 + bxy + bf)

        # Unrolled differentiation: T grad_g + T Hessian + T Jacobian
        # products plus one joint f gradient per outer step.
        rec = itd_run(quad, cfg, x0)
        assert rec.counter.total() == K * (3 * T + 1)
        rec = itd_run(quad, cfg, x0, increasing_T=True)
        expected = sum(3 * math.ceil(T * math.log(k + 2)) + 1 for k in range(K))
        assert rec.counter.total() == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(9, "complexity accounting", elapsed, "5 random configs x 7 driver variants, exact")


def test_c10_oracle_noise_contract():
    t0 = time.perf_counter()
    problem = gen_quadratic(10, 8, kappa_g=5.0, kappa_L=4.0, seed=0)
    noise = NoiseSpec(sigma_f_tilde=1.0, sigma_g_tilde=1.0, sigma_gxy_tilde=1.0,
                      sigma_gyy_tilde=0.1)
    oracle = make_stochastic(problem, noise, seed=0)
    point = np.random.default_rng(1)
    x, y = point.standard_normal(10), point.standard_normal(8)
    v = point.standard_normal(8)
    v /= np.linalg.norm(v)
    # Probe along the Jacobian perturbation's top singular direction, where
    # the per-sample second moment equals sigma^2 exactly.
    z_probe = np.linalg.svd(oracle._P)[2][0]
    draws = 10_000

    def joint_f(batch, rng):
        gx, gy = oracle.grad_f(x, y, batch_size=batch, rng=rng)
        return np.concatenate([gx, gy])

    det_f = np.concatenate([problem.grad_fx(x, y), problem.grad_fy(x, y)])
    queries = [
        ("grad_f", joint_f, det_f, noise.sigma_f_tilde),
        ("grad_g", lambda b, r: oracle.grad_gy(x, y, batch_size=b, rng=r),
         problem.grad_gy(x, y), noise.sigma_g_tilde),
        ("hvp", lambda b, r: oracle.hvp_gyy(x, y, v, batch_size=b, rng=r),
         problem.hvp_gyy(x, y, v), noise.sigma_gyy_tilde),
        ("jvp", lambda b, r: oracle.jvp_gxy(x, y, z_probe, batch_size=b, rng=r),
         problem.jvp_gxy(x, y, z_probe), noise.sigma_gxy_tilde),
    ]
    measured = {}
    for b in (1, 16):
        for name, query, det, sigma in queries:
            rng = np.random.default_rng(hash((name, b)) % 2**32)
            samples = np.array([query(b, rng) for _ in range(draws)])
            dev = np.abs(samples.mean(axis=0) - det)
            se = samples.std(axis=0) / math.sqrt(draws)
            assert np.all(dev <= 4 * se), f"{name} b={b} biased"
            var = float(np.mean(np.sum((samples - det) ** 2, axis=1)))
            target = sigma**2 / b
            assert 0.8 * target <= var <= 1.2 * target, f"{name} b={b}: {var} vs {target}"
            measured[(name, b)] = var / target
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    worst = max(abs(r - 1.0) for r in measured.values())
    report(10, "oracle noise contract", elapsed, f"worst variance ratio deviation {worst:.3f}")


def test_c11_determinism_byte_identical_csv(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "problem": {"family": "quadratic", "dx": 40, "dy": 20, "kappa_g": 50.0,
                    "kappa_L": 10.0, "seed": 3},
        "noise": {"sigma_g": 1.0, "sigma_f": 1.0},
        "method": "amigo-gd",
        "seed": 17,
        "solver": {"K": 50},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    report(11, "seeded runs emit byte-identical CSV", elapsed)
