"""Command-line harness: problem generation, runs, sweeps and self-checks.

Subcommands: generate | run | sweep | check.  Configuration comes from a
JSON file (--config), checked against SCHEMA, with flags overriding file
values.  Runs write one CSV row per outer iteration in CSV_COLUMNS order,
undefined metrics left empty.  The wall_s column is filled only under
--timing, so repeated runs with the same seed and config are byte-identical;
the JSON summary always has the measured wall time.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import math
import numbers
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
    check_condition_numbers,
    check_generator_args,
    describe_problem,
    gen_nonconvex,
    gen_quadratic,
    gen_ridge_hpo,
    load_problem,
    make_stochastic,
    save_problem,
)

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

DEFAULT_EPS = (1e-2, 1e-4, 1e-6)

FAMILIES = {"quadratic": gen_quadratic, "ridge": gen_ridge_hpo, "nonconvex": gen_nonconvex}

METHOD = "method"  # the kind of a method name
SEED = "seed"  # the kind of a seed: a nonnegative integer

# The config schema: section -> key -> (kind, default), in the order errors
# list them.  A kind is a type, METHOD, SEED, [kind] for a JSON list of such
# values (a sweep grid must not be empty) or a (section, key) pair: the kind of
# that key, whose errors then name it.  dict marks a section, which has its own
# schema.  A key takes null where its default is None; ... means no default.
SCHEMA = {
    "top-level": {
        "problem": (dict, None), "solver": (dict, None), "noise": (dict, None), "sweep": (dict, None),
        "method": (METHOD, "amigo-gd"), "seed": (SEED, 0),
        "out": (str, None),  # None: the command's own output
        "eps": ([float], list(DEFAULT_EPS)),
    },
    "quadratic problem": {"family": (str, "quadratic"), "dx": (int, 200), "dy": (int, 100),
                          "kappa_g": (float, 10.0), "kappa_L": (float, 10.0), "seed": (SEED, 0)},
    "ridge problem": {"family": (str, "ridge"), "n_tr": (int, 100), "n_val": (int, 100),
                      "d": (int, 20), "label_noise": (float, 0.1), "seed": (SEED, 0)},
    "nonconvex problem": {"family": (str, "nonconvex"), "dx": (int, 50), "dy": (int, 25),
                          "rho": (float, 1.0), "kappa_g": (float, 10.0), "seed": (SEED, 0)},
    "container problem": {"path": (str, ...)},
    # NoiseSpec's fields in order, without their _tilde suffix.
    "noise": {f.name.removesuffix("_tilde"): (type(f.default), f.default) for f in fields(NoiseSpec)},
    # None leaves the field to the prescribed schedule; mu_outer is the problem's.
    "solver": {
        f.name: (type(f.default), None)
        for f in fields(SolverConfig) if f.name not in (*METHOD_FIELDS, "mu_outer")
    },
    "sweep": {
        "methods": ([METHOD], ["amigo-gd", "aid-gd"]),
        "kappa_g": ([float], None),  # None: the problem's own kappa_g
        "T": ([("solver", "T")], [1, 10]),
        "N": ([("solver", "N")], [1, 10]),
        "batch": ([("solver", "batch_f")], [1]),
        "seeds": ([SEED], None),  # None: the top-level seed
        "K": (("solver", "K"), 2000),
        "cost_cap": (int, None),
        "stop_rel": (float, None),
    },
}
_KIND_NAMES = {int: "an integer", SEED: "an integer", float: "a number", str: "a string"}


def _typed(section: str, key: str, value, kind):
    """value checked as kind: an int or seed (>= 0) is an integer, not a bool; a float is finite."""
    if isinstance(kind, list):
        grid = section == "sweep"
        if not isinstance(value, (list, tuple)) or (grid and not value):
            raise ValueError(f"{section} key {key!r} must be a {'non-empty ' * grid}list, got {value!r}")
        return [_typed(section, key, v, kind[0]) for v in value]
    if isinstance(kind, tuple):
        section, key = kind
        kind = SCHEMA[section][key][0]
    if kind is dict:  # a section, checked against its own schema
        return value
    if kind is METHOD:
        if not isinstance(value, str) or value not in METHODS:
            raise ValueError(f"unknown method {value!r}; choose from {sorted(METHODS)}")
        return value
    if kind is str:
        ok = isinstance(value, str)
    else:
        number = numbers.Real if kind is float else numbers.Integral
        ok = isinstance(value, number) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"{section} key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{section} key {key!r} must be finite, got {value!r}")
    if kind is SEED and value < 0:
        raise ValueError(f"{section} key {key!r} must be nonnegative, got {value!r}")
    return int(value) if kind is SEED else kind(value)


def _section(name: str, spec) -> dict:
    """spec checked against SCHEMA[name], with every key typed or defaulted; null is empty."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ValueError(f"the {name} section must be an object, got {spec!r}")
    schema = SCHEMA[name]
    unknown = sorted(set(spec).difference(schema))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; valid keys are {list(schema)}")
    canonical = {}
    for key, (kind, default) in schema.items():
        value = spec.get(key, default)
        canonical[key] = None if value is None and default is None else _typed(name, key, value, kind)
    return canonical


def canonical_problem(spec) -> dict:
    """The problem section as build_problem reads it: a container path or one family's keys."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ValueError(f"the problem section must be an object, got {spec!r}")
    if "path" in spec:
        return _section("container problem", spec)
    family = spec.get("family", "quadratic")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown problem family {family!r}; choose from {list(FAMILIES)}")
    return _section(f"{family} problem", spec)


def _solver_section(method, spec) -> dict:
    """The solver section for method; a key the method fixes is an error naming it.

    The values it sets must also make a valid SolverConfig (positive step
    sizes, say).
    """
    _typed("top-level", "method", method, METHOD)
    owned = sorted(set(spec).intersection(METHOD_FIELDS)) if isinstance(spec, dict) else []
    if owned:
        raise ValueError(f"solver keys {owned} are fixed by the method {method!r}")
    section = _section("solver", spec)
    SolverConfig(**{k: v for k, v in section.items() if v is not None})
    return section


def _canonical(raw) -> dict:
    cfg = _section("top-level", raw)
    cfg["problem"] = canonical_problem(cfg["problem"])
    cfg["noise"] = _section("noise", cfg["noise"])
    cfg["solver"] = _solver_section(cfg["method"], cfg["solver"])
    cfg["sweep"] = _section("sweep", cfg["sweep"])
    return cfg


def canonical_config(raw, flags: dict) -> dict:
    """The config every command reads: raw checked against SCHEMA, then the flags applied.

    flags is shaped like a config, None for a flag not given, its values typed
    by argparse.  The merged config is checked again, so --kappa-g on a ridge
    problem is an error.  A sweep without seeds runs the top-level seed.
    """
    cfg = _canonical(raw)
    for key, value in flags.items():
        if isinstance(value, dict):
            cfg[key].update((k, v) for k, v in value.items() if v is not None)
        elif value is not None:
            cfg[key] = value
    cfg = _canonical(cfg)
    if cfg["sweep"]["seeds"] is None:
        cfg["sweep"]["seeds"] = [cfg["seed"]]
    return cfg


def build_problem(spec: dict):
    """Problem instance from an inline spec or a saved container."""
    spec = canonical_problem(spec)
    if "path" in spec:
        return load_problem(spec["path"])
    return FAMILIES[spec.pop("family")](**spec)


def build_noise(spec: dict | None) -> NoiseSpec:
    return NoiseSpec(*_section("noise", spec).values())


def _outer_bounds(problem) -> tuple[float | None, float | None]:
    """(L_outer, mu_outer) where the problem knows them exactly, else (None, None)."""
    if hasattr(problem, "outer_smoothness"):
        return problem.outer_smoothness()
    return None, None


def build_config(problem, method: str, solver_spec: dict | None, noise: NoiseSpec) -> SolverConfig:
    """Solver configuration: prescribed schedule defaults, explicit overrides.

    mu_outer is the problem's exact modulus when that is positive, else None.
    """
    overrides = {k: v for k, v in _solver_section(method, solver_spec).items() if v is not None}
    L_outer, mu_outer = _outer_bounds(problem)
    if mu_outer is not None and mu_outer <= 0:
        mu_outer = None
    owned = {name: METHODS[method][name] for name in METHOD_FIELDS if name in METHODS[method]}
    config, _ = prescribed_schedule(
        problem.constants(), mu_outer=mu_outer, L_outer=L_outer, noise=noise, **owned
    )
    return replace(config, **overrides)


def run_single(
    problem,
    method: str,
    config: SolverConfig,
    seed: int,
    noise: NoiseSpec,
    stop=None,
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
            oracle, config, x0, tracker=tracker, stop=stop, increasing_T=mapping["increasing_T"]
        )
    return aid_run(oracle, config, x0, rng=rng, tracker=tracker, stop=stop)


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


# Targets are costs to bring this metric down to eps.  The stop rule watches it
# too, and from this cost on calls a cell stalled above this ratio.
_STOP_METRIC = "rel_error"
_STALL_AFTER_COST = 5000
_STALL_RATIO = 0.9


def cost_to_reach(rows, eps: float) -> int | None:
    """Smallest recorded cost at which the target metric first drops to eps."""
    for r in rows:
        value = getattr(r, _STOP_METRIC)
        if value is not None and value <= eps:
            return r.cost
    return None


# ---------------------------------------------------------------------------
# Sweeps


def make_stop_rule(rel_target: float | None, cost_cap: int | None):
    """Stop on target reached, cost budget exhausted, or progress stalled.

    A cell stalls when the metric improved by less than 10% over the last
    half of its oracle spending; a cell able to reach a small target within
    any realistic budget improves much faster per cost doubling, so the rule
    only prunes cells that cannot reach the target anyway.
    """
    history: list[tuple[int, float | None]] = []
    pointer = [0]

    def stop(row) -> bool:
        value = getattr(row, _STOP_METRIC)
        history.append((row.cost, value))
        if rel_target is not None and value is not None and value <= rel_target:
            return True
        if cost_cap is not None and row.cost >= cost_cap:
            return True
        if value is not None and row.cost >= _STALL_AFTER_COST:
            half = row.cost / 2
            i = pointer[0]
            while i + 1 < len(history) and history[i + 1][0] <= half:
                i += 1
            pointer[0] = i
            ref = history[i][1]
            if history[i][0] <= half and ref is not None and ref > 0:
                if value / ref > _STALL_RATIO:
                    return True
        return False

    return stop


# The one-slot problem memo of the sweep cells run in this process.  It is
# module state because pool workers reach it only through _sweep_cell.
_sweep_memo: dict = {}


def _sweep_problem(spec: dict):
    """build_problem(spec) of a canonical spec, reused while consecutive cells share it.

    The old problem is dropped before the next is built, so at most one is
    alive per process.  A sweep empties the slot when it starts and when it
    returns, and orders its cells kappa outermost, so each process rebuilds
    only at kappa boundaries.
    """
    key = tuple(spec.items())
    if _sweep_memo.get("key") != key:
        _sweep_memo.clear()
        _sweep_memo.update(problem=build_problem(spec), key=key)
    return _sweep_memo["problem"]


def _sweep_cell(task: dict) -> dict:
    """One sweep cell: a (method, grid point, seed) run. Top level for pickling."""
    problem = _sweep_problem(task["problem"])
    config = build_config(problem, task["method"], task["solver"], task["noise"])
    stop = make_stop_rule(task["stop_rel"], task["cost_cap"])
    _, rows, diverged_at = _run_rows(problem, task["method"], config, task["seed"], task["noise"], stop)
    return {
        "key": task["key"],
        "method": task["method"],
        "seed": task["seed"],
        "cell": task["cell"],
        # Wall time is dropped here so sweep results are identical across
        # worker counts; per-row timing remains available via cmd_run.
        "rows": [_metric_values(r) for r in rows],
        "cost_to_eps": {repr(e): cost_to_reach(rows, e) for e in task["eps"]},
        "min_rel_error": _min_present(r.rel_error for r in rows),
        "diverged_at": diverged_at,
    }


def _min_present(values):
    """The least value that is not None, or None."""
    return min((v for v in values if v is not None), default=None)


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
    sweep = {"methods": methods, "kappa_g": kappa_g_grid, "T": T_grid, "N": N_grid, "batch": batch_grid,
             "seeds": seeds, "K": K_max, "cost_cap": cost_cap, "stop_rel": stop_rel}
    return _sweep(problem_spec, sweep, eps, noise_spec, solver_overrides, workers)


def _sweep(problem_spec, sweep, eps, noise_spec, solver_overrides, workers: int):
    """run_sweep with its grids, K and stop settings as a config's sweep section."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    sweep = _section("sweep", sweep)
    if sweep["seeds"] is None:
        raise ValueError("sweep seeds must be a non-empty list, got None")
    eps = _typed("top-level", "eps", eps, SCHEMA["top-level"]["eps"][0])
    noise = build_noise(noise_spec)
    solver = _solver_section(sweep["methods"][0], solver_overrides)
    for method in sweep["methods"]:
        # The unrolled methods name no linear solver.
        check_supported(METHODS[method].get("linear_solver"), noise)
    # Every grid point's solver section must make a valid SolverConfig.
    solvers = {(T, N, batch): _solver_section(sweep["methods"][0], {
        **solver, "T": T, "N": N, "K": sweep["K"],
        "batch_f": batch, "batch_g": batch, "batch_gxy": batch, "batch_gyy": batch,
    }) for T, N, batch in itertools.product(sweep["T"], sweep["N"], sweep["batch"])}
    problem_spec = canonical_problem(problem_spec)
    pspecs = [problem_spec] if sweep["kappa_g"] is None else [
        canonical_problem({**problem_spec, "kappa_g": kappa}) for kappa in sweep["kappa_g"]
    ]
    # The grid's condition numbers in one message, then each problem as its generator checks it.
    check_condition_numbers(*(pspec["kappa_g"] for pspec in pspecs if "kappa_g" in pspec))
    for pspec in pspecs:
        if "family" in pspec:
            check_generator_args(**pspec)
    tasks = []
    for pspec in pspecs:
        grid = itertools.product(sweep["methods"], sweep["T"], sweep["N"], sweep["batch"], sweep["seeds"])
        for method, T, N, batch, seed in grid:
            cell = {"kappa_g": pspec.get("kappa_g"), "T": T, "N": N, "batch": batch}
            tasks.append({
                "key": (method, str(cell["kappa_g"]), T, N, batch),
                "method": method,
                "seed": seed,
                "problem": pspec,
                "noise": noise,
                "solver": solvers[T, N, batch],
                "cell": cell,
                "eps": eps,
                "cost_cap": sweep["cost_cap"],
                "stop_rel": sweep["stop_rel"],
            })
    _sweep_memo.clear()
    try:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_cell, tasks))
        else:
            results = [_sweep_cell(t) for t in tasks]
    finally:
        _sweep_memo.clear()
    results.sort(key=lambda r: (r["key"], r["seed"]))

    summary: dict = {}
    for (method, *_), group in itertools.groupby(results, key=lambda r: r["key"]):
        group = list(group)
        summary.setdefault(method, {"cells": [], "best": {}})["cells"].append({
            "cell": group[0]["cell"],
            "median_cost_to_eps": {
                e: _median_cost([r["cost_to_eps"][e] for r in group]) for e in group[0]["cost_to_eps"]
            },
            "min_rel_error": _min_present(r["min_rel_error"] for r in group),
        })
    for entry in summary.values():
        for e in map(repr, eps):
            reached = [{"cost": c["median_cost_to_eps"][e], "cell": c["cell"]} for c in entry["cells"]]
            entry["best"][e] = min(
                (b for b in reached if b["cost"] is not None), key=lambda b: b["cost"], default=None
            )
        entry["min_rel_error"] = _min_present(c["min_rel_error"] for c in entry["cells"])
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


def _central_diff(f, x) -> np.ndarray:
    h = 1e-5
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def run_checks(problem, noise: NoiseSpec | None = None, seed: int = 0) -> list[dict]:
    """Oracle property suite; returns one record per check with measured values.

    The gradient is checked by finite differences at five random points.
    """
    rng = np.random.default_rng(seed)
    checks = []
    dims = problem.dims

    max_rel = 0.0
    for _ in range(5):
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


def _config(args) -> dict:
    """The canonical config of a subcommand: its --config file, then the flags given."""
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    flag = vars(args).get  # None for a flag the command does not take
    flags = {"seed": flag("seed"), "method": flag("method"), "out": flag("out"), "eps": flag("eps"),
             "problem": {"kappa_g": flag("kappa_g")}, "solver": {"T": flag("T"), "N": flag("N")}}
    return canonical_config(raw, flags)


def cmd_generate(args) -> int:
    cfg = _config(args)
    problem = build_problem(cfg["problem"])
    out = cfg["out"] or "problem.bin"
    save_problem(problem, out)
    header = describe_problem(out)
    with open(out + ".json", "w") as fh:
        json.dump({**header, "file": os.path.basename(out)}, fh, indent=2)
    print(json.dumps(header))
    return 0


def cmd_run(args) -> int:
    """One run; exits 3 when it diverged, after writing its partial CSV and summary."""
    cfg = _config(args)
    problem = build_problem(cfg["problem"])
    noise = build_noise(cfg["noise"])
    method, seed, out = cfg["method"], cfg["seed"], cfg["out"]
    config = build_config(problem, method, cfg["solver"], noise)
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
    summary["cost_to_eps"] = {repr(e): cost_to_reach(rows, e) for e in cfg["eps"]}
    if record is not None:
        counts = {name.removeprefix("n_"): n for name, n in vars(record.counter).items()}
        summary["oracle_counts"] = {**counts, "total": record.counter.total()}
        summary["wall_time_s"] = record.wall_s
    summary.update(method=method, seed=seed, diverged_at=diverged_at)
    if out:
        with open(out + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    print(json.dumps({k: summary[k] for k in ("method", "seed", "diverged_at", "cost_to_eps")}))
    return 0 if diverged_at is None else 3


def cmd_sweep(args) -> int:
    """A sweep exits 0 once every cell has finished, diverged cells included."""
    cfg = _config(args)
    results, summary = _sweep(
        cfg["problem"], cfg["sweep"], cfg["eps"], cfg["noise"], cfg["solver"], args.workers
    )
    out = cfg["out"] or "sweep.csv"
    with open(out, "w") as fh:
        fh.write(sweep_results_to_csv(results))
    with open(out + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps({m: summary[m]["best"] for m in summary}))
    return 0


def cmd_check(args) -> int:
    cfg = _config(args)
    problem = build_problem(cfg["problem"])
    checks = run_checks(problem, noise=build_noise(cfg["noise"]), seed=cfg["seed"])
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[check] {chk['name']}: value={chk['value']} tol={chk['tol']}: {status}")
    return 0 if all(chk["passed"] for chk in checks) else 1


def _targets(text: str) -> list[float]:
    return [float(e) for e in text.split(",") if e]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="amigo",
                                     description="Bilevel optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {  # each flag's argparse options; _config says which config key it sets
        "out": dict(type=str, help="output path"), "seed": dict(type=int),
        "method": dict(type=str, choices=sorted(METHODS)), "kappa_g": dict(type=float),
        "T": dict(type=int), "N": dict(type=int),
        "eps": dict(type=_targets, help="comma-separated targets"),
        "timing": dict(action="store_true", help="populate the wall_s CSV column"),
        "workers": dict(type=int, default=1, help="processes, a positive integer"),
    }
    # Each command registers only the flags it reads, so any other is a usage error.
    for name, fn, reads in (
        ("generate", cmd_generate, ("out", "kappa_g")),
        ("run", cmd_run, ("out", "seed", "method", "kappa_g", "T", "N", "eps", "timing")),
        ("sweep", cmd_sweep, ("out", "seed", "kappa_g", "eps", "workers")),
        ("check", cmd_check, ("seed", "kappa_g")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        for dest in reads:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **flags[dest])
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, UnsupportedOperationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
