"""Command-line harness: problem generation, runs, sweeps and self-checks.

Subcommands: generate | run | sweep | check.  Configuration comes from a
JSON file (--config) with flags overriding file values.  Runs stream one
CSV row per outer iteration using a fixed column order:

    method,seed,k,rel_error,grad_norm_sq,avg_grad_norm_sq,combined_sc,energy_x,cost,wall_s

Undefined metrics are left empty.  The wall_s column is populated only when
--timing is given so that repeated runs with the same seed and config yield
byte-identical CSV output; measured wall time is always present in the JSON
summary.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import operator
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .inner import DivergenceError
from .metrics import MetricsTracker
from .oracle import UnsupportedOperationError
from .outer import RunRecord, SolverConfig, aid_run, check_supported, itd_run, prescribed_schedule
from .problems import (
    NoiseSpec,
    describe_problem,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    load_problem,
    make_stochastic,
    save_problem,
)

WORKERS_ENV = "AMIGO_WORKERS"

# The MetricRow fields every CSV line, sweep row and run summary carries, in order.
METRIC_COLUMNS = (
    "k", "rel_error", "grad_norm_sq", "avg_grad_norm_sq", "combined_sc", "energy_x", "cost",
)
CSV_COLUMNS = ("method", "seed", *METRIC_COLUMNS, "wall_s")
SWEEP_COLUMNS = ("method", "kappa_g", "T", "N", "batch", "seed", *METRIC_COLUMNS, "wall_s")
_metric_values = operator.attrgetter(*METRIC_COLUMNS)

# Method names map bijectively onto (driver, warm-start switches, linear
# solver) as used throughout the experiments.
METHODS = {
    "amigo-gd": dict(driver="aid", warm_y=True, warm_z=True, linear_solver="sgd"),
    "amigo-cg": dict(driver="aid", warm_y=True, warm_z=True, linear_solver="cg"),
    "aid-gd": dict(driver="aid", warm_y=True, warm_z=False, linear_solver="sgd"),
    "aid-cg": dict(driver="aid", warm_y=True, warm_z=False, linear_solver="cg"),
    "aid-cg-ws": dict(driver="aid", warm_y=False, warm_z=True, linear_solver="cg"),
    "aid-fp": dict(driver="aid", warm_y=True, warm_z=False, linear_solver="fixed_point"),
    "aid-n": dict(driver="aid", warm_y=True, warm_z=False, linear_solver="neumann"),
    "itd": dict(driver="itd", warm_y=True, increasing_T=False),
    "reverse": dict(driver="itd", warm_y=True, increasing_T=True),
}

# SolverConfig fields the method name fixes; a solver spec cannot override them.
METHOD_FIELDS = ("warm_y", "warm_z", "linear_solver")
SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig) if f.name not in METHOD_FIELDS)

DEFAULT_EPS = (1e-2, 1e-4, 1e-6)


def _check_kappa_g(spec: dict) -> None:
    """Reject kappa_g where nothing generates from it: containers and ridge."""
    if spec.get("kappa_g") is None:
        return
    if spec.get("path"):
        raise ValueError("kappa_g does not apply to a problem loaded from a path")
    if spec.get("family", "quadratic") == "ridge":
        raise ValueError("kappa_g does not apply to the ridge family")


def build_problem(spec: dict):
    """Problem instance from an inline spec or a saved container."""
    _check_kappa_g(spec)
    if spec.get("path"):
        return load_problem(spec["path"])
    family = spec.get("family", "quadratic")
    seed = int(spec.get("seed", 0))
    if family == "quadratic":
        return gen_quadratic(
            int(spec.get("dx", 200)),
            int(spec.get("dy", 100)),
            float(spec.get("kappa_g", 10.0)),
            float(spec.get("kappa_L", 10.0)),
            seed,
        )
    if family == "ridge":
        return gen_ridge_hpo(
            int(spec.get("n_tr", 100)),
            int(spec.get("n_val", 100)),
            int(spec.get("d", 20)),
            float(spec.get("label_noise", 0.1)),
            seed,
        )
    if family == "nonconvex":
        return gen_nonconvex(
            int(spec.get("dx", 50)),
            int(spec.get("dy", 25)),
            float(spec.get("rho", 1.0)),
            seed,
            kappa_g=float(spec.get("kappa_g", 10.0)),
        )
    raise ValueError(f"unknown problem family {family!r}")


def build_noise(spec: dict | None) -> NoiseSpec:
    spec = spec or {}
    return NoiseSpec(
        sigma_f_tilde=float(spec.get("sigma_f", 0.0)),
        sigma_g_tilde=float(spec.get("sigma_g", 0.0)),
        sigma_gxy_tilde=float(spec.get("sigma_gxy", 0.0)),
        sigma_gyy_tilde=float(spec.get("sigma_gyy", 0.0)),
        bounded_hessian_noise=bool(spec.get("bounded_hessian_noise", True)),
    )


def _outer_bounds(problem) -> tuple[float | None, float | None]:
    """(L_outer, mu_outer) where the problem knows them exactly, else (None, None)."""
    if hasattr(problem, "outer_smoothness"):
        return problem.outer_smoothness()
    return None, None


def check_solver_spec(method: str, solver_spec: dict | None) -> None:
    """Reject a method-owned or unknown key in a solver spec."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    keys = set(solver_spec or ())
    owned = sorted(keys.intersection(METHOD_FIELDS))
    if owned:
        raise ValueError(f"solver keys {owned} are fixed by the method {method!r}")
    unknown = sorted(keys.difference(SOLVER_KEYS))
    if unknown:
        raise ValueError(f"unknown solver keys {unknown}; valid keys are {list(SOLVER_KEYS)}")


def build_config(problem, method: str, solver_spec: dict | None, noise: NoiseSpec) -> SolverConfig:
    """Solver configuration: prescribed schedule defaults, explicit overrides.

    mu_outer defaults to the problem's exact modulus when that is positive.
    """
    check_solver_spec(method, solver_spec)
    spec = solver_spec or {}
    L_outer, mu_exact = _outer_bounds(problem)
    mu_outer = spec.get("mu_outer")
    if mu_outer is None and mu_exact is not None and mu_exact > 0:
        mu_outer = mu_exact
    owned = {name: METHODS[method][name] for name in METHOD_FIELDS if name in METHODS[method]}
    config, _ = prescribed_schedule(
        problem.constants(), mu_outer=mu_outer, L_outer=L_outer, noise=noise, **owned
    )
    overrides = {
        name: type(getattr(config, name))(value)
        for name, value in spec.items()
        if name != "mu_outer" and value is not None
    }
    return replace(config, **overrides)


def run_single(
    problem,
    method: str,
    config: SolverConfig,
    seed: int,
    noise: NoiseSpec,
    stop=None,
    store_iterates: bool = False,
) -> RunRecord:
    """One (method, seed) run with metric tracking wired in."""
    mapping = METHODS[method]
    oracle = make_stochastic(problem, noise, seed) if noise.any_noise else problem
    L_outer, _ = _outer_bounds(problem)
    tracker = MetricsTracker(problem, mu_outer=config.mu_outer, L_outer=L_outer, u=config.u)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(problem.dims.dx)
    if mapping["driver"] == "itd":
        return itd_run(
            oracle, config, x0, tracker=tracker, stop=stop,
            store_iterates=store_iterates, increasing_T=mapping.get("increasing_T", False),
        )
    return aid_run(
        oracle, config, x0, rng=rng, tracker=tracker, stop=stop, store_iterates=store_iterates,
    )


def _run_rows(problem, method: str, config: SolverConfig, seed: int, noise: NoiseSpec, stop=None):
    """(record, rows, None), or (None, the rows so far, k) for a run diverged in iteration k."""
    try:
        record = run_single(problem, method, config, seed, noise, stop=stop)
    except DivergenceError as err:
        return None, err.partial_rows, err.outer_iteration
    return record, record.rows, None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, lines) -> str:
    """Header, then one line per value tuple; None is an empty field, floats use repr."""
    text = [",".join(columns)]
    text.extend(",".join(map(_fmt, values)) for values in lines)
    return "\n".join(text) + "\n"


def rows_to_csv(rows, method: str, seed: int, timing: bool = False) -> str:
    return _csv_text(CSV_COLUMNS, (
        (method, seed, *_metric_values(r), r.wall_s if timing else None) for r in rows
    ))


def cost_to_reach(rows, eps: float, metric: str = "rel_error") -> int | None:
    """Smallest recorded cost at which the target metric first drops to eps."""
    for r in rows:
        value = getattr(r, metric)
        if value is not None and value <= eps:
            return r.cost
    return None


# ---------------------------------------------------------------------------
# Sweeps


def make_stop_rule(
    rel_target: float | None, cost_cap: int | None, metric: str = "rel_error",
    stall_after_cost: int = 5000, stall_ratio: float = 0.9,
):
    """Stop on target reached, cost budget exhausted, or progress stalled.

    A cell stalls when the metric improved by less than 10% over the last
    half of its oracle spending; a cell able to reach a small target within
    any realistic budget improves much faster per cost doubling, so the rule
    only prunes cells that cannot reach the target anyway.
    """
    history: list[tuple[int, float | None]] = []
    pointer = [0]

    def stop(row) -> bool:
        value = getattr(row, metric)
        history.append((row.cost, value))
        if rel_target is not None and value is not None and value <= rel_target:
            return True
        if cost_cap is not None and row.cost >= cost_cap:
            return True
        if value is not None and row.cost >= stall_after_cost:
            half = row.cost / 2
            i = pointer[0]
            while i + 1 < len(history) and history[i + 1][0] <= half:
                i += 1
            pointer[0] = i
            ref = history[i][1]
            if history[i][0] <= half and ref is not None and ref > 0:
                if value / ref > stall_ratio:
                    return True
        return False

    return stop


def _sweep_cell(task: dict) -> dict:
    """One sweep cell: a (method, grid point, seed) run. Top level for pickling."""
    problem = build_problem(task["problem"])
    noise = build_noise(task.get("noise"))
    config = build_config(problem, task["method"], task["solver"], noise)
    stop = make_stop_rule(task.get("stop_rel"), task.get("cost_cap"))
    _, rows, diverged_at = _run_rows(problem, task["method"], config, task["seed"], noise, stop)
    min_rel = min(
        (r.rel_error for r in rows if r.rel_error is not None), default=None
    )
    return {
        "key": task["key"],
        "method": task["method"],
        "seed": task["seed"],
        "cell": task["cell"],
        # Wall time is dropped here so sweep results are identical across
        # worker counts; per-row timing remains available via cmd_run.
        "rows": [_metric_values(r) for r in rows],
        "cost_to_eps": {repr(e): cost_to_reach(rows, e) for e in task["eps"]},
        "min_rel_error": min_rel,
        "diverged_at": diverged_at,
    }


def _median_cost(values):
    """Median treating unreached targets as infinite; None if the median is."""
    ranked = sorted(math.inf if v is None else v for v in values)
    mid = ranked[len(ranked) // 2] if len(ranked) % 2 == 1 else ranked[len(ranked) // 2 - 1]
    return None if math.isinf(mid) else int(mid)


def run_sweep(
    problem_spec: dict,
    methods,
    T_grid,
    N_grid,
    seeds,
    K_max: int = 2000,
    eps=DEFAULT_EPS,
    noise_spec: dict | None = None,
    batch_grid=(1,),
    kappa_g_grid=None,
    cost_cap: int | None = None,
    stop_rel: float | None = None,
    workers: int = 1,
    solver_overrides: dict | None = None,
) -> tuple[list[dict], dict]:
    """Cartesian sweep over methods x grid x seeds with best-cell selection.

    Returns (cell results, summary).  The summary reports, per method, the
    median-over-seeds cost to reach each target for every grid cell and the
    best cell per target, treating never-reached targets as infinite.
    """
    methods = list(methods)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the sweep seed list must not be empty")
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ValueError(f"unknown methods in sweep: {bad}")
    noise = build_noise(noise_spec)
    for method in methods:
        check_solver_spec(method, solver_overrides)
        # The unrolled methods name no linear solver.
        check_supported(METHODS[method].get("linear_solver"), noise)
    kappas = list(kappa_g_grid) if kappa_g_grid else [problem_spec.get("kappa_g")]
    tasks = []
    for kappa in kappas:
        pspec = dict(problem_spec)
        if kappa is not None:
            pspec["kappa_g"] = kappa
        _check_kappa_g(pspec)
        for method in methods:
            for T in T_grid:
                for N in N_grid:
                    for batch in batch_grid:
                        for seed in seeds:
                            solver = dict(solver_overrides or {})
                            solver.update(
                                T=int(T), N=int(N), K=int(K_max),
                                batch_f=int(batch), batch_g=int(batch),
                                batch_gxy=int(batch), batch_gyy=int(batch),
                            )
                            cell = {"kappa_g": kappa, "T": int(T), "N": int(N),
                                    "batch": int(batch)}
                            tasks.append({
                                "key": (method, str(kappa), int(T), int(N), int(batch)),
                                "method": method,
                                "seed": int(seed),
                                "problem": pspec,
                                "noise": noise_spec,
                                "solver": solver,
                                "cell": cell,
                                "eps": list(eps),
                                "cost_cap": cost_cap,
                                "stop_rel": stop_rel,
                            })
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, tasks))
    else:
        results = [_sweep_cell(t) for t in tasks]
    results.sort(key=lambda r: (r["key"], r["seed"]))

    summary: dict = {}
    by_cell: dict = {}
    for res in results:
        by_cell.setdefault(res["key"], []).append(res)
    for (method, *_), cell_results in by_cell.items():
        entry = summary.setdefault(method, {"cells": [], "best": {}})
        cell = {
            "cell": cell_results[0]["cell"],
            "median_cost_to_eps": {
                e: _median_cost([r["cost_to_eps"][e] for r in cell_results])
                for e in cell_results[0]["cost_to_eps"]
            },
            "min_rel_error": min(
                (r["min_rel_error"] for r in cell_results if r["min_rel_error"] is not None),
                default=None,
            ),
        }
        entry["cells"].append(cell)
    for method, entry in summary.items():
        for e in map(repr, eps):
            candidates = [
                (c["median_cost_to_eps"][e], c["cell"])
                for c in entry["cells"]
                if c["median_cost_to_eps"].get(e) is not None
            ]
            if candidates:
                best_cost, best_cell = min(candidates, key=lambda t: t[0])
                entry["best"][e] = {"cost": best_cost, "cell": best_cell}
            else:
                entry["best"][e] = None
        rels = [c["min_rel_error"] for c in entry["cells"] if c["min_rel_error"] is not None]
        entry["min_rel_error"] = min(rels) if rels else None
    return results, summary


def sweep_results_to_csv(results) -> str:
    def lines():
        for res in results:
            cell = res["cell"]
            prefix = (res["method"], cell["kappa_g"], cell["T"], cell["N"], cell["batch"], res["seed"])
            # Sweep rows carry no wall time (see _sweep_cell), so wall_s stays empty.
            for row in res["rows"]:
                yield (*prefix, *row, None)

    return _csv_text(SWEEP_COLUMNS, lines())


# ---------------------------------------------------------------------------
# Self-checks (finite differences, spectral sandwich, noise contract)


def _central_diff(f, x, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def run_checks(problem, noise: NoiseSpec | None = None, seed: int = 0, n_points: int = 5) -> list[dict]:
    """Oracle property suite; returns one record per check with measured values."""
    rng = np.random.default_rng(seed)
    checks = []
    dims = problem.dims

    max_rel = 0.0
    for _ in range(n_points):
        x = rng.standard_normal(dims.dx) * 0.5
        fd = _central_diff(problem.L_value, x)
        grad = problem.grad_L(x)
        max_rel = max(max_rel, float(np.linalg.norm(fd - grad) / np.linalg.norm(grad)))
    checks.append({
        "name": "finite-difference gradient",
        "value": max_rel,
        "tol": 1e-6,
        "passed": max_rel <= 1e-6,
    })

    x = rng.standard_normal(dims.dx) * 0.1
    y = rng.standard_normal(dims.dy) * 0.1
    # Families with x-dependent curvature report constants local to the probe.
    if hasattr(problem, "local_constants"):
        c = problem.local_constants(x)
    else:
        c = problem.constants()
    lo, hi = np.inf, -np.inf
    for _ in range(100):
        v = rng.standard_normal(dims.dy)
        v /= np.linalg.norm(v)
        q = float(v @ problem.hvp_gyy(x, y, v))
        lo, hi = min(lo, q), max(hi, q)
    ok = lo >= c.mu_g - 1e-9 and hi <= c.L_g + 1e-9
    checks.append({
        "name": "hvp spectral sandwich",
        "value": [lo, hi],
        "tol": [c.mu_g, c.L_g],
        "passed": bool(ok),
    })

    if noise is not None and noise.any_noise:
        oracle = make_stochastic(problem, noise, seed)
        draws = 10_000
        for name, sigma, batch in (
            ("grad_g unbiasedness/variance b=1", noise.sigma_g_tilde, 1),
            ("grad_g variance b=16", noise.sigma_g_tilde, 16),
        ):
            if sigma == 0:
                continue
            det = problem.grad_gy(x, y)
            samples = np.array([
                oracle.grad_gy(x, y, batch_size=batch, rng=rng) for _ in range(draws)
            ])
            dev = samples.mean(axis=0) - det
            se = samples.std(axis=0) / math.sqrt(draws)
            unbiased = bool(np.all(np.abs(dev) <= 4 * se + 1e-12))
            var = float(np.mean(np.sum((samples - det) ** 2, axis=1)))
            target = sigma**2 / batch
            checks.append({
                "name": name,
                "value": {"variance": var, "target": target, "unbiased": unbiased},
                "tol": [0.8 * target, 1.2 * target],
                "passed": unbiased and 0.8 * target <= var <= 1.2 * target,
            })
    return checks


# ---------------------------------------------------------------------------
# Entry points


def _load_json_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# Flag -> the config section it overrides; None is the top level.
FLAG_SECTIONS = {
    "seed": None, "method": None, "out": None, "kappa_g": "problem", "T": "solver", "N": "solver",
}


def _merged_config(args) -> dict:
    cfg = _load_json_config(args.config) if args.config else {}
    cfg.setdefault("problem", {})
    cfg.setdefault("solver", {})
    for flag, section in FLAG_SECTIONS.items():
        value = getattr(args, flag)
        if value is not None:
            (cfg if section is None else cfg[section])[flag] = value
    if args.eps is not None:
        cfg["eps"] = [float(e) for e in args.eps.split(",") if e]
    return cfg


def cmd_generate(args) -> int:
    cfg = _merged_config(args)
    problem = build_problem(cfg["problem"])
    out = cfg.get("out", "problem.bin")
    save_problem(problem, out)
    sidecar = dict(problem.header())
    sidecar["file"] = os.path.basename(str(out))
    with open(str(out) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(json.dumps(describe_problem(out)))
    return 0


def cmd_run(args) -> int:
    cfg = _merged_config(args)
    problem = build_problem(cfg["problem"])
    noise = build_noise(cfg.get("noise"))
    method = cfg.get("method", "amigo-gd")
    seed = int(cfg.get("seed", 0))
    config = build_config(problem, method, cfg.get("solver"), noise)
    eps = cfg.get("eps", list(DEFAULT_EPS))
    out = cfg.get("out")
    record, rows, diverged_at = _run_rows(problem, method, config, seed, noise)
    csv_text = rows_to_csv(rows, method, seed, timing=args.timing)
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    # A diverged run keeps its rows, so final metrics and target costs come
    # from them; iteration and oracle counts and wall time need a completed run.
    summary = {} if record is None else {"iterations": record.iterations_run}
    summary["final"] = dict(zip(METRIC_COLUMNS, _metric_values(rows[-1]))) if rows else None
    summary["cost_to_eps"] = {repr(e): cost_to_reach(rows, e) for e in eps}
    if record is not None:
        counter = record.counter
        summary["oracle_counts"] = {
            "grad_f": counter.n_grad_f,
            "grad_g": counter.n_grad_g,
            "jvp": counter.n_jvp,
            "hvp": counter.n_hvp,
            "total": counter.total(),
        }
        summary["wall_time_s"] = record.wall_s
    summary.update(method=method, seed=seed, diverged_at=diverged_at)
    summary_path = (str(out) + ".summary.json") if out else None
    if summary_path:
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
    print(json.dumps({k: summary[k] for k in ("method", "seed", "diverged_at", "cost_to_eps")}))
    return 0


def cmd_sweep(args) -> int:
    cfg = _merged_config(args)
    sweep = cfg.get("sweep", {})
    workers = args.workers or int(os.environ.get(WORKERS_ENV, "1"))
    results, summary = run_sweep(
        cfg["problem"],
        methods=sweep.get("methods", ["amigo-gd", "aid-gd"]),
        T_grid=sweep.get("T", [1, 10]),
        N_grid=sweep.get("N", [1, 10]),
        seeds=sweep.get("seeds", [int(cfg.get("seed", 0))]),
        K_max=int(sweep.get("K", 2000)),
        eps=cfg.get("eps", list(DEFAULT_EPS)),
        noise_spec=cfg.get("noise"),
        batch_grid=sweep.get("batch", [1]),
        kappa_g_grid=sweep.get("kappa_g"),
        cost_cap=sweep.get("cost_cap"),
        stop_rel=sweep.get("stop_rel"),
        workers=workers,
        solver_overrides=cfg.get("solver"),
    )
    out = cfg.get("out", "sweep.csv")
    with open(out, "w") as fh:
        fh.write(sweep_results_to_csv(results))
    with open(str(out) + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
    print(json.dumps({m: summary[m]["best"] for m in summary}, default=str))
    return 0


def cmd_check(args) -> int:
    cfg = _merged_config(args)
    problem = build_problem(cfg["problem"])
    noise = build_noise(cfg.get("noise"))
    checks = run_checks(problem, noise=noise, seed=int(cfg.get("seed", 0)))
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[check] {chk['name']}: value={chk['value']} tol={chk['tol']}: {status}")
    return 0 if all(chk["passed"] for chk in checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="amigo", description="Bilevel optimization benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("generate", cmd_generate),
        ("run", cmd_run),
        ("sweep", cmd_sweep),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--method", type=str, default=None, choices=sorted(METHODS))
        p.add_argument("--kappa-g", dest="kappa_g", type=float, default=None)
        p.add_argument("--T", dest="T", type=int, default=None)
        p.add_argument("--N", dest="N", type=int, default=None)
        p.add_argument("--eps", type=str, default=None, help="comma-separated targets")
        p.add_argument("--timing", action="store_true", help="populate the wall_s CSV column")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, UnsupportedOperationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
