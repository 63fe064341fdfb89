"""The benchmark's workloads: inputs made from the seed, the entry-point
invocations that run them, and the checks on what those invocations emit.

Every workload drives the user entry point ``amigo.cli.main`` with the
``sweep`` or ``run`` subcommand and JSON config files written here, so the
program only ever sees generated inputs.  This module imports neither numpy
nor amigo at load time: the set-up probe times those imports itself.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

# The c06 experiment: the paper's synthetic quadratic at desk scale.
DESK_PROBLEM = {"family": "quadratic", "dx": 200, "dy": 100, "kappa_g": 1e3, "kappa_L": 10.0}
C06_METHODS = ("amigo-gd", "amigo-cg", "aid-gd", "aid-fp", "aid-n")
WARM_METHODS = ("amigo-gd", "amigo-cg")
COLD_METHODS = ("aid-gd", "aid-fp", "aid-n")
UNROLLED_METHODS = ("itd", "reverse")
# T = 1000 is left out of the c06 grid so one run stays well under a minute;
# the c06 best cells (T = 1) and its four orderings are unaffected.
DESK_T = (1, 10, 100)
DESK_N = (1, 10, 100, 1000)
DESK_K = 20_000
DESK_COST_CAP = 300_000
DEEP_TARGET = 1e-12
C06_EPS = 1e-6

# The large preset's problem and stop settings on a reduced grid.
LARGE_PROBLEM = {"family": "quadratic", "dx": 2000, "dy": 1000, "kappa_g": 1e3, "kappa_L": 10.0}
LARGE_METHODS = ("amigo-gd", "amigo-cg")
LARGE_TN = (1, 100)
LARGE_K = 10
LARGE_COST_CAP = 5_000_000

STOP_REL = 1e-13
CG_TOL = 1e-12

# Noise on all four streams; sqrt(3) * sigma_gyy stays below mu_g = 1 / kappa_g.
NOISY_PROBLEM = {"family": "quadratic", "dx": 200, "dy": 100, "kappa_g": 10.0, "kappa_L": 10.0}
NOISE = {"sigma_f": 1.0, "sigma_g": 1.0, "sigma_gxy": 0.5, "sigma_gyy": 0.02}
NOISY_METHODS = ("amigo-gd", "aid-gd", "amigo-cg", "aid-n")
NOISY_BATCHES = (1, 16)
NOISY_RUN_SEEDS = 4
NOISY_K = 1000
NOISY_TN = 10  # the prescribed T = N = ceil(kappa_g)

# Methods whose adjoint solve takes the stochastic-gradient path
# (fixed point is its deterministic alias); their oracle totals must equal
# complexity_formula exactly.
SGD_LINEAR = ("amigo-gd", "aid-gd", "aid-fp")
METRIC_COLUMNS = ("k", "rel_error", "grad_norm_sq", "avg_grad_norm_sq", "combined_sc", "energy_x", "cost")
CELL_COLUMNS = ("method", "kappa_g", "T", "N", "batch", "seed")


@dataclass
class Invocation:
    """One entry-point call: its argv, its CSV output and what the checks need."""

    name: str
    argv: list[str]
    out: str
    params: dict = field(default_factory=dict)

    @property
    def summary(self) -> str:
        return self.out + ".summary.json"


@dataclass
class Plan:
    """A workload instance: the set-up probe's inputs and the invocations."""

    setup: dict
    invocations: list[Invocation]

    def clear_outputs(self) -> None:
        for inv in self.invocations:
            for path in (inv.out, inv.summary):
                if os.path.exists(path):
                    os.remove(path)


def _write_config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return path


def _sweep(workdir: str, name: str, cfg: dict) -> Invocation:
    out = os.path.join(workdir, name + ".csv")
    argv = ["sweep", "--config", _write_config(workdir, name, cfg), "--out", out, "--workers", "1"]
    return Invocation(name, argv, out)


def _sweep_setup(cfg: dict) -> dict:
    """Set-up inputs of a sweep: its first cell's problem and config."""
    sweep = cfg["sweep"]
    solver = dict(cfg["solver"], T=sweep["T"][0], N=sweep["N"][0], K=sweep["K"])
    return {"problem": cfg["problem"], "method": sweep["methods"][0], "solver": solver, "noise": None}


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _nonfinite_csv(rows: list[dict]) -> list[str]:
    bad = []
    for row in rows:
        for col in METRIC_COLUMNS:
            value = row[col]
            if value != "" and not math.isfinite(float(value)):
                bad.append(f"{col}={value} at k={row['k']}")
    return bad


def _nonfinite_json(node, path="") -> list[str]:
    if isinstance(node, dict):
        return [b for k, v in node.items() for b in _nonfinite_json(v, f"{path}/{k}")]
    if isinstance(node, list):
        return [b for i, v in enumerate(node) for b in _nonfinite_json(v, f"{path}/{i}")]
    if isinstance(node, float) and not math.isfinite(node):
        return [f"{path}={node}"]
    return []


def _finite_check(invocations: list[Invocation], tables: dict) -> dict:
    bad = []
    for inv in invocations:
        if inv.name in tables:
            bad += [f"{inv.name}: {b}" for b in _nonfinite_csv(tables[inv.name])]
        if os.path.exists(inv.summary):
            bad += [f"{inv.name}: {b}" for b in _nonfinite_json(_read_json(inv.summary))]
    return _check("every emitted metric is finite", not bad, "; ".join(bad[:5]))


def _cells(rows: list[dict]) -> dict[tuple, list[dict]]:
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault(tuple(row[c] for c in CELL_COLUMNS), []).append(row)
    return cells


def _sweep_formula_check(tables: dict) -> dict:
    """Every row of every SGD-linear-solver cell costs exactly complexity_formula."""
    from amigo.metrics import complexity_formula

    bad, checked = [], 0
    for rows in tables.values():
        for (method, _, T, N, batch, _), cell in _cells(rows).items():
            if method not in SGD_LINEAR:
                continue
            checked += 1
            b = int(batch)
            for row in cell:
                want = complexity_formula(int(row["k"]), int(T), int(N), b, b, b, b)
                if int(row["cost"]) != want:
                    bad.append(f"{method} T={T} N={N} k={row['k']}: {row['cost']} != {want}")
                    break
    return _check("sgd linear solver: oracle calls equal complexity_formula",
                  checked > 0 and not bad, "; ".join([f"{checked} cells"] + bad[:5]))


def _sweep_oracle_calls(tables: dict) -> int:
    return sum(int(cell[-1]["cost"]) for rows in tables.values() for cell in _cells(rows).values())


def _tables(invocations: list[Invocation]) -> dict[str, list[dict]]:
    return {inv.name: _read_csv(inv.out) for inv in invocations if os.path.exists(inv.out)}


def _outputs_check(invocations: list[Invocation], failed: set[str]) -> dict:
    missing = [inv.name for inv in invocations
               if inv.name not in failed and not (os.path.exists(inv.out) and os.path.exists(inv.summary))]
    return _check("every completed invocation wrote its CSV and summary", not missing, ", ".join(missing))


class Workload:
    name = ""
    why = ""

    def plan(self, seed: int, workdir: str) -> Plan:
        raise NotImplementedError

    def evaluate(self, plan: Plan, failed: set[str]) -> tuple[int, list[dict], dict]:
        """(oracle calls, check verdicts, notes) from the outputs on disk."""
        raise NotImplementedError


class DeskSweep(Workload):
    name = "desk-sweep"
    why = ("c06 method comparison at dx=200/dy=100 (0.56 MB of operands, L2-resident): "
           "time goes to per-step Python in inner, outer, metrics and hypergrad")

    def plan(self, seed, workdir):
        problem = dict(DESK_PROBLEM, seed=seed)
        sweep = {"T": list(DESK_T), "seeds": [0], "K": DESK_K,
                 "cost_cap": DESK_COST_CAP, "stop_rel": STOP_REL}
        c06 = {"problem": problem, "solver": {"cg_tol": CG_TOL}, "eps": [C06_EPS],
               "sweep": dict(sweep, methods=list(C06_METHODS), N=list(DESK_N))}
        unrolled = {"problem": problem, "solver": {"cg_tol": CG_TOL}, "eps": [C06_EPS],
                    "sweep": dict(sweep, methods=list(UNROLLED_METHODS), N=[1])}
        return Plan(_sweep_setup(c06), [_sweep(workdir, "c06", c06), _sweep(workdir, "unrolled", unrolled)])

    def evaluate(self, plan, failed):
        tables = _tables(plan.invocations)
        checks = [_outputs_check(plan.invocations, failed)]
        c06 = plan.invocations[0]
        notes = {}
        if os.path.exists(c06.summary):
            summary = _read_json(c06.summary)
            checks += self._c06_checks(summary)
            notes["best_cost_1e-6"] = {m: self._best(summary, m) for m in C06_METHODS}
            notes["min_rel_error"] = {m: summary[m]["min_rel_error"] for m in C06_METHODS}
        else:
            checks.append(_check("c06: sweep summary present", False, c06.summary))
        checks += [_sweep_formula_check(tables), _finite_check(plan.invocations, tables)]
        return _sweep_oracle_calls(tables), checks, notes

    @staticmethod
    def _best(summary, method):
        entry = summary[method]["best"][repr(C06_EPS)]
        return None if entry is None else entry["cost"]

    def _c06_checks(self, summary):
        def cost(m):
            value = self._best(summary, m)
            return math.inf if value is None else value

        costs = {m: cost(m) for m in C06_METHODS}
        deep = {m: summary[m]["min_rel_error"] for m in C06_METHODS}
        return [
            _check("c06: amigo-gd beats aid-gd", costs["amigo-gd"] < costs["aid-gd"],
                   f"C(1e-6) {costs['amigo-gd']} vs {costs['aid-gd']}"),
            _check("c06: amigo-cg is the cheapest", all(costs["amigo-cg"] <= c for c in costs.values()),
                   f"C(1e-6) {costs}"),
            _check("c06: warm methods reach 1e-12",
                   all(deep[m] is not None and deep[m] <= DEEP_TARGET for m in WARM_METHODS),
                   f"min rel error {[deep[m] for m in WARM_METHODS]}"),
            _check("c06: cold methods do not reach 1e-12",
                   all(deep[m] is None or deep[m] > DEEP_TARGET for m in COLD_METHODS),
                   f"min rel error {[deep[m] for m in COLD_METHODS]}"),
        ]


class LargeSlice(Workload):
    name = "large-slice"
    why = ("large-preset problem dx=2000/dy=1000 (56 MB of operands, beyond L2, inside L3) on an "
           "8-cell grid: matvec kernels and per-cell problem rebuilds")

    def plan(self, seed, workdir):
        cfg = {
            "problem": dict(LARGE_PROBLEM, seed=seed),
            "solver": {"cg_tol": CG_TOL},
            "eps": [1e-2, 1e-4, 1e-6],
            "sweep": {"methods": list(LARGE_METHODS), "T": list(LARGE_TN), "N": list(LARGE_TN),
                      "seeds": [0], "K": LARGE_K, "cost_cap": LARGE_COST_CAP, "stop_rel": STOP_REL},
        }
        return Plan(_sweep_setup(cfg), [_sweep(workdir, "large", cfg)])

    def evaluate(self, plan, failed):
        tables = _tables(plan.invocations)
        checks = [_outputs_check(plan.invocations, failed),
                  _sweep_formula_check(tables), _finite_check(plan.invocations, tables)]
        return _sweep_oracle_calls(tables), checks, {}


class DeskNoisy(Workload):
    name = "desk-noisy"
    why = ("32 noisy-oracle runs at dx=200/dy=100, each on its own problem (0.72 MB): "
           "random draws and batch averaging; includes the noisy-hvp linear-solver defect")

    def plan(self, seed, workdir):
        invocations, setup = [], None
        index = 0
        for method in NOISY_METHODS:
            for batch in NOISY_BATCHES:
                for r in range(NOISY_RUN_SEEDS):
                    cfg = {
                        "problem": dict(NOISY_PROBLEM, seed=seed * 100 + index),
                        "noise": NOISE,
                        "method": method,
                        "seed": seed * 100 + r,
                        "solver": {"K": NOISY_K, "T": NOISY_TN, "N": NOISY_TN, "u": 1,
                                   "batch_f": batch, "batch_g": batch,
                                   "batch_gxy": batch, "batch_gyy": batch},
                    }
                    name = f"{method}-b{batch}-r{r}"
                    out = os.path.join(workdir, name + ".csv")
                    argv = ["run", "--config", _write_config(workdir, name, cfg), "--out", out]
                    invocations.append(Invocation(name, argv, out, {"method": method, "batch": batch}))
                    setup = setup or {key: cfg[key] for key in ("problem", "method", "solver", "noise")}
                    index += 1
        return Plan(setup, invocations)

    def evaluate(self, plan, failed):
        from amigo.metrics import complexity_formula

        done = [inv for inv in plan.invocations
                if inv.name not in failed and os.path.exists(inv.summary)]
        tables = _tables(done)
        oracle_calls = diverged = 0
        bad_formula, bad_length, checked = [], [], 0
        for inv in done:
            summary = _read_json(inv.summary)
            rows = tables[inv.name]
            total = int(rows[-1]["cost"]) if rows else 0
            oracle_calls += total
            if summary.get("diverged_at") is not None:
                diverged += 1
            elif len(rows) != NOISY_K + 1:
                bad_length.append(f"{inv.name}: {len(rows)} rows")
            if inv.params["method"] in SGD_LINEAR:
                checked += 1
                b = inv.params["batch"]
                want = complexity_formula(len(rows) - 1, NOISY_TN, NOISY_TN, b, b, b, b)
                reported = summary.get("oracle_counts", {}).get("total", total)
                if total != want or reported != want:
                    bad_formula.append(f"{inv.name}: {total}/{reported} != {want}")
        checks = [
            _outputs_check(plan.invocations, failed),
            _check("completed runs record all K outer iterations", not bad_length, "; ".join(bad_length)),
            _check("sgd linear solver: oracle calls equal complexity_formula",
                   checked > 0 and not bad_formula, "; ".join([f"{checked} runs"] + bad_formula[:5])),
            _finite_check(done, tables),
        ]
        return oracle_calls, checks, {"diverged_runs": diverged}


WORKLOADS = {w.name: w for w in (DeskSweep(), LargeSlice(), DeskNoisy())}
