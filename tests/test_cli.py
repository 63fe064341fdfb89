import concurrent.futures
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amigo.cli as cli
import amigo.metrics as metrics
import amigo.outer as outer
import amigo.problems as problems
from amigo import UnsupportedOperationError, save_problem
from amigo.cli import (
    CSV_COLUMNS,
    METHODS,
    SCHEMA,
    build_config,
    build_noise,
    build_problem,
    cost_to_reach,
    main,
    make_stop_rule,
    rows_to_csv,
    run_checks,
    run_single,
    run_sweep,
    sweep_results_to_csv,
    sweep_rows_to_csv,
)
from amigo.metrics import MetricRow


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"
RIDGE_SPEC = {"family": "ridge", "n_tr": 30, "n_val": 20, "d": 5, "seed": 0}


def quad_spec(**kw):
    spec = {"family": "quadratic", "dx": 24, "dy": 12, "kappa_g": 10.0, "kappa_L": 5.0, "seed": 1}
    spec.update(kw)
    return spec


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strict_json(text):
    """text parsed as JSON that holds no NaN or Infinity token."""

    def reject(constant):
        raise ValueError(f"non-finite {constant} in the JSON")

    return json.loads(text, parse_constant=reject)


class TestMethodMapping:
    def test_mapping_table(self):
        # The method names pin down (warm flags x linear solver x driver).
        assert METHODS["amigo-gd"] == dict(
            driver="aid", warm_y=True, warm_z=True, linear_solver="sgd"
        )
        assert METHODS["amigo-cg"]["warm_z"] and METHODS["amigo-cg"]["linear_solver"] == "cg"
        assert not METHODS["aid-gd"]["warm_z"] and METHODS["aid-gd"]["warm_y"]
        assert not METHODS["aid-cg"]["warm_z"]
        assert METHODS["aid-cg-ws"] == dict(
            driver="aid", warm_y=False, warm_z=True, linear_solver="cg"
        )
        assert METHODS["aid-fp"]["linear_solver"] == "fixed_point"
        assert METHODS["aid-n"]["linear_solver"] == "neumann"
        assert METHODS["itd"] == dict(driver="itd", warm_y=True, increasing_T=False)
        assert METHODS["reverse"] == dict(driver="itd", warm_y=True, increasing_T=True)

    def test_mapping_is_bijective(self):
        combos = {
            (m.get("driver"), m.get("warm_y"), m.get("warm_z"), m.get("linear_solver"),
             m.get("increasing_T"))
            for m in METHODS.values()
        }
        assert len(combos) == len(METHODS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            build_config(build_problem(quad_spec()), "sgd-magic", {}, build_noise(None))


class TestBuildConfig:
    def test_schedule_defaults_from_problem(self):
        problem = build_problem(quad_spec())
        config = build_config(problem, "amigo-gd", {}, build_noise(None))
        assert config.alpha == pytest.approx(1.0, rel=1e-9)
        assert config.beta == pytest.approx(0.5, rel=1e-9)
        assert config.gamma == pytest.approx(1.0, rel=1e-9)  # exact outer bound is 1
        assert config.T == 10 and config.N == 10

    def test_overrides_win(self):
        problem = build_problem(quad_spec())
        config = build_config(
            problem, "aid-n", {"T": 3, "N": 77, "K": 9, "gamma": 0.25}, build_noise(None)
        )
        assert (config.T, config.N, config.K, config.gamma) == (3, 77, 9, 0.25)
        assert config.linear_solver == "neumann"
        assert not config.warm_z


class TestCsvEmission:
    def row(self, k, cost=0):
        return MetricRow(
            k=k, rel_error=0.5 if k else 1.0, grad_norm_sq=1.25, combined_sc=None,
            avg_grad_norm_sq=1.25, energy_x=None, cost=cost, wall_s=0.123,
        )

    def test_header_and_empty_fields(self):
        text = rows_to_csv([self.row(0)], "amigo-gd", 7)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == "amigo-gd" and cells[1] == "7"
        assert cells[6] == "" and cells[7] == ""  # combined_sc, energy_x absent
        assert cells[9] == ""  # wall_s empty without --timing

    def test_timing_column_opt_in(self):
        text = rows_to_csv([self.row(0)], "amigo-gd", 7, timing=True)
        assert text.strip().split("\n")[1].split(",")[9] == "0.123"

    def test_cost_to_reach_first_crossing(self):
        rows = [self.row(0, cost=0), self.row(1, cost=10), self.row(2, cost=20)]
        rows[1] = rows[1]._replace(rel_error=0.09)
        rows[2] = rows[2]._replace(rel_error=0.01)
        assert cost_to_reach(rows, 0.1) == 10
        assert cost_to_reach(rows, 0.01) == 20
        assert cost_to_reach(rows, 1e-9) is None

    # Two rows that reach every formatting case: None, nan, both infinities,
    # -0.0, the least subnormal, the least power of ten that repr writes in
    # exponent form, and a cost past 64 bits.
    PINNED_ROWS = [
        dict(k=0, rel_error=None, grad_norm_sq=1e16, avg_grad_norm_sq=5e-324, combined_sc=-0.0,
             energy_x=float("nan"), cost=0, wall_s=0.0),
        dict(k=1, rel_error=0.1, grad_norm_sq=float("inf"), avg_grad_norm_sq=float("-inf"),
             combined_sc=None, energy_x=None, cost=12345678901234567890123, wall_s=1.5e-07),
    ]

    def test_run_csv_bytes_are_pinned(self):
        rows = [MetricRow(**r) for r in self.PINNED_ROWS]
        header = "method,seed,k,rel_error,grad_norm_sq,avg_grad_norm_sq,combined_sc,energy_x,cost,wall_s\n"
        assert rows_to_csv(rows, "amigo-gd", 3) == header + (
            "amigo-gd,3,0,,1e+16,5e-324,-0.0,nan,0,\n"
            "amigo-gd,3,1,0.1,inf,-inf,,,12345678901234567890123,\n"
        )
        assert rows_to_csv(rows, "aid-n", 0, timing=True) == header + (
            "aid-n,0,0,,1e+16,5e-324,-0.0,nan,0,0.0\n"
            "aid-n,0,1,0.1,inf,-inf,,,12345678901234567890123,1.5e-07\n"
        )

    def test_sweep_csv_bytes_are_pinned(self):
        # Each cell formats its own lines (wall_s empty whatever the row holds);
        # the sweep CSV is the header, then the cells' text in order.
        rows = [MetricRow(**r) for r in self.PINNED_ROWS]
        first = sweep_rows_to_csv(rows, "aid-cg", {"kappa_g": None, "T": 10, "N": 100, "batch": 1}, 4)
        second = sweep_rows_to_csv(rows[:1], "amigo-cg", {"kappa_g": 1000.0, "T": 1, "N": 1, "batch": 16}, 0)
        assert first == (
            "aid-cg,,10,100,1,4,0,,1e+16,5e-324,-0.0,nan,0,\n"
            "aid-cg,,10,100,1,4,1,0.1,inf,-inf,,,12345678901234567890123,\n"
        )
        assert second == "amigo-cg,1000.0,1,1,16,0,0,,1e+16,5e-324,-0.0,nan,0,\n"
        # The cells reach the spill in the order they finish, here second first;
        # the spans, one (offset, size) per cell, give the CSV's order.
        spill = io.BytesIO(second.encode() + first.encode())
        spans = [(len(second), len(first)), (0, len(second))]
        buf = io.StringIO()
        assert sweep_results_to_csv(spans, spill, buf) is None
        assert buf.getvalue() == (
            "method,kappa_g,T,N,batch,seed,k,rel_error,grad_norm_sq,avg_grad_norm_sq,"
            "combined_sc,energy_x,cost,wall_s\n" + first + second
        )


class TestStopRule:
    def make_row(self, k, rel, cost):
        return MetricRow(k, rel, 0.0, 0.0, None, None, cost, 0.0)

    def test_stops_on_target(self):
        stop = make_stop_rule(1e-3, None)
        assert not stop(self.make_row(1, 1e-2, 10))
        assert stop(self.make_row(2, 1e-4, 20))

    def test_stops_on_cost_cap(self):
        stop = make_stop_rule(None, 100)
        assert not stop(self.make_row(1, 1.0, 99))
        assert stop(self.make_row(2, 1.0, 100))

    def test_stall_detection(self):
        # A flat metric trips the stall rule at the cost floor;
        # a geometrically improving one never does.
        stop = make_stop_rule(1e-12, None)
        stalled_at = None
        for k in range(1, 10_000):
            if stop(self.make_row(k, 0.5, 10 * k)):
                stalled_at = 10 * k
                break
        assert stalled_at == cli._STALL_AFTER_COST

    def test_geometric_progress_never_stalls(self):
        stop = make_stop_rule(None, 200_000)
        for k in range(1, 20_001):
            if stop(self.make_row(k, 0.999**k, 10 * k)):
                break
        assert 10 * k >= 200_000  # only the cost cap fired

    def test_returns_the_reason_it_fired(self):
        # Checked in the order target, cost_cap, stall; a row that triggers none gets None.
        assert make_stop_rule(1e-3, None)(self.make_row(1, 1e-4, 10)) == "target"
        assert make_stop_rule(None, 100)(self.make_row(1, 1.0, 100)) == "cost_cap"
        assert make_stop_rule(1e-3, 100)(self.make_row(1, 1e-4, 100)) == "target"
        stop = make_stop_rule(1e-3, 10**6)
        assert stop(self.make_row(1, 0.5, 10)) is None
        assert stop(self.make_row(2, 0.5, cli._STALL_AFTER_COST)) == "stall"
        stop = make_stop_rule(None, cli._STALL_AFTER_COST)
        assert stop(self.make_row(1, 0.5, 10)) is None
        assert stop(self.make_row(2, 0.5, cli._STALL_AFTER_COST)) == "cost_cap"
        assert make_stop_rule(None, None)(self.make_row(1, None, 10**9)) is None


class TestSummarize:
    @staticmethod
    def result(method, T, seed, costs, least):
        """A hand-built sweep result: costs to the targets 0.1 and 0.01, and the least target."""
        cell = {"kappa_g": None, "T": T, "N": 1, "batch": 1}
        return {"method": method, "seed": seed, "cell": cell,
                "cost_to_eps": dict(zip(("0.1", "0.01"), costs)), "min_rel_error": least, "diverged_at": None}

    def test_hand_built_results(self):
        results = [
            # Two seeds, one of which misses each target: the lower middle of (30, inf) is 30.
            self.result("aid-gd", 1, 0, (30, None), 0.05),
            self.result("aid-gd", 1, 1, (None, None), 0.2),
            self.result("aid-gd", 5, 0, (50, 100), 0.001),
            self.result("aid-gd", 5, 1, (20, None), 0.02),
            # A method that reaches no target and has no target value in any cell.
            self.result("amigo-gd", 1, 0, (None, None), None),
            self.result("amigo-gd", 5, 0, (None, None), None),
        ]
        cells = [{"kappa_g": None, "T": T, "N": 1, "batch": 1} for T in (1, 5)]
        expected = {
            "aid-gd": {
                "cells": [
                    {"cell": cells[0], "median_cost_to_eps": {"0.1": 30, "0.01": None}, "min_rel_error": 0.05},
                    {"cell": cells[1], "median_cost_to_eps": {"0.1": 20, "0.01": 100}, "min_rel_error": 0.001},
                ],
                "best": {"0.1": {"cost": 20, "cell": cells[1]}, "0.01": {"cost": 100, "cell": cells[1]}},
                "min_rel_error": 0.001,
            },
            "amigo-gd": {
                "cells": [{"cell": cell, "median_cost_to_eps": {"0.1": None, "0.01": None},
                           "min_rel_error": None} for cell in cells],
                "best": {"0.1": None, "0.01": None},
                "min_rel_error": None,
            },
        }
        # Comparing the dumped text checks the key order as well as the values.
        assert json.dumps(cli.summarize(results, (0.1, 0.01)), indent=2) == json.dumps(expected, indent=2)

    def test_run_sweep_returns_the_summary_of_its_results(self):
        kwargs = TestSweep().sweep_kwargs()
        results, summary = run_sweep(**kwargs)
        assert summary == cli.summarize(results, kwargs["eps"])


class TestRunSingle:
    def test_every_method_runs(self):
        problem = build_problem(quad_spec())
        noise = build_noise(None)
        for method in METHODS:
            config = build_config(problem, method, {"K": 3, "T": 2, "N": 2}, noise)
            record = run_single(problem, method, config, seed=0, noise=noise)
            assert len(record.rows) == 4
            assert np.all(np.isfinite(record.x_final))

    def test_run_deterministic_across_calls(self):
        problem = build_problem(quad_spec())
        noise = build_noise({"sigma_g": 0.5})
        config = build_config(problem, "amigo-gd", {"K": 10}, noise)
        a = run_single(problem, "amigo-gd", config, seed=3, noise=noise)
        b = run_single(problem, "amigo-gd", config, seed=3, noise=noise)
        assert np.array_equal(a.x_final, b.x_final)


ORACLE_QUERIES = ("grad_fx", "grad_fy", "grad_f", "grad_gy", "hvp_gyy", "jvp_gxy")
NOISE_SETTINGS = {
    "none": None,
    "sigma_g": {"sigma_g": 0.5},
    "sigma_gyy": {"sigma_gyy": 0.05},
    "all": {"sigma_f": 0.5, "sigma_g": 0.5, "sigma_gxy": 0.5, "sigma_gyy": 0.05},
}
UNROLLED = {"itd", "reverse"}
DETERMINISTIC_LINEAR = {"amigo-cg", "aid-cg", "aid-cg-ws", "aid-fp", "aid-n"}


def expected_rejection(method, setting):
    if setting == "none":
        return False
    if method in UNROLLED:
        return True
    return "sigma_gyy" in NOISE_SETTINGS[setting] and method in DETERMINISTIC_LINEAR


def count_queries(problem):
    """Route the problem's oracle queries through a shared call counter."""
    calls = [0]
    for name in ORACLE_QUERIES:
        original = getattr(problem, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        setattr(problem, name, counted)
    return calls


class TestNoiseSupport:
    @pytest.mark.parametrize("setting", sorted(NOISE_SETTINGS))
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_method_noise_matrix(self, method, setting):
        problem = build_problem(quad_spec())
        calls = count_queries(problem)
        noise = build_noise(NOISE_SETTINGS[setting])
        config = build_config(problem, method, {"K": 3, "T": 2, "N": 2}, noise)
        if expected_rejection(method, setting):
            with pytest.raises(UnsupportedOperationError):
                run_single(problem, method, config, seed=0, noise=noise)
            assert calls[0] == 0
        else:
            record = run_single(problem, method, config, seed=0, noise=noise)
            assert len(record.rows) == 4
            assert calls[0] > 0

    def test_rejection_does_not_depend_on_budget(self):
        # With N = 1 the Neumann series makes no Hessian query at all.
        problem = build_problem(quad_spec())
        calls = count_queries(problem)
        noise = build_noise(NOISE_SETTINGS["sigma_gyy"])
        config = build_config(problem, "aid-n", {"K": 3, "T": 2, "N": 1}, noise)
        with pytest.raises(UnsupportedOperationError, match="neumann"):
            run_single(problem, "aid-n", config, seed=0, noise=noise)
        assert calls[0] == 0

    def test_sweep_validates_every_method_before_any_cell(self, monkeypatch):
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        with pytest.raises(UnsupportedOperationError, match="neumann"):
            run_sweep(quad_spec(), ["amigo-gd", "aid-n"], [1], [10], [0], K_max=5,
                      noise_spec=NOISE_SETTINGS["sigma_gyy"])
        assert dispatched == []

    def test_cli_maps_rejection_to_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = {"problem": quad_spec(), "noise": NOISE_SETTINGS["sigma_gyy"],
               "sweep": {"methods": ["amigo-gd", "aid-n"], "T": [1], "N": [10], "K": 5}}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "neumann" in capsys.readouterr().err
        assert not out.exists()
        cfg = {"problem": quad_spec(), "noise": NOISE_SETTINGS["sigma_g"], "method": "itd"}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run.csv")]) == 2
        assert "deterministic" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", sorted(NOISE_SETTINGS))
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_run_rejects_before_building_a_problem(self, tmp_path, capsys, monkeypatch, method, setting):
        built = []
        fresh = cli.build_problem
        monkeypatch.setattr(cli, "build_problem", lambda spec: built.append(spec) or fresh(spec))
        cfg = {"problem": quad_spec(), "noise": NOISE_SETTINGS[setting], "method": method,
               "solver": {"K": 2, "T": 2, "N": 2}}
        out = tmp_path / "run.csv"
        code = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        if expected_rejection(method, setting):
            assert (code, built, out.exists()) == (2, [], False)
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert (code, len(built)) == (0, 1)

    # kappa_g = 100 gives mu_g = 0.01, below sqrt(3) * 0.05; kappa_g = 2 admits that noise.
    HESSIAN_MESSAGE = r"need sqrt\(3\) \* sigma_gyy_tilde < mu_g = 0.01$"

    def test_run_rejects_hessian_noise_before_building_a_problem(self, tmp_path, capsys, monkeypatch):
        built = []
        fresh = cli.build_problem
        monkeypatch.setattr(cli, "build_problem", lambda spec: built.append(spec) or fresh(spec))
        cfg = {"problem": quad_spec(dx=20, dy=10, kappa_g=100.0), "noise": NOISE_SETTINGS["sigma_gyy"],
               "method": "amigo-gd", "solver": {"K": 2}}
        out = tmp_path / "run.csv"
        code = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert (code, built, out.exists()) == (2, [], False)
        assert re.search(self.HESSIAN_MESSAGE, capsys.readouterr().err.strip())

    def test_sweep_rejects_hessian_noise_before_any_cell(self, monkeypatch):
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        with pytest.raises(problems.ConfigurationError, match=self.HESSIAN_MESSAGE):
            run_sweep(quad_spec(dx=20, dy=10), ["amigo-gd"], [1], [1], [0], K_max=3,
                      noise_spec=NOISE_SETTINGS["sigma_gyy"], kappa_g_grid=[2.0, 100.0])
        assert dispatched == []


class SteppedPool:
    """An in-process stand-in for the sweep's process pool, whose cells finish one at a time.

    Once `cells` calls are submitted it runs the first, in submission order or, with
    reverse, the last; each later one runs when the result before it is taken, and a
    cancelled one never runs.  `ran` lists the tasks run, in the order they ran.
    """

    def __init__(self, cells, reverse=False):
        self.cells, self.reverse = cells, reverse
        self.pending, self.ran = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        future = SteppedFuture(self)
        self.pending.append((future, fn, task))
        if len(self.pending) == self.cells:
            if self.reverse:
                self.pending.reverse()
            self.step()
        return future

    def step(self):
        while self.pending:
            future, fn, task = self.pending.pop(0)
            if future.set_running_or_notify_cancel():
                self.ran.append(task)
                try:
                    future.set_result(fn(task))
                except Exception as exc:
                    future.set_exception(exc)
                return


class SteppedFuture(concurrent.futures.Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        value = super().result(timeout)
        self.pool.step()
        return value


class TestSweep:
    def sweep_kwargs(self, workers=1):
        return dict(
            problem_spec=quad_spec(),
            methods=["amigo-gd", "aid-gd"],
            T_grid=[1, 5],
            N_grid=[1, 5],
            seeds=[0],
            K_max=60,
            eps=(1e-1, 1e-2),
            workers=workers,
        )

    def test_best_cell_selection_is_min_over_table(self):
        results, summary = run_sweep(**self.sweep_kwargs())
        for method in ("amigo-gd", "aid-gd"):
            cells = summary[method]["cells"]
            for eps_key, best in summary[method]["best"].items():
                reached = [
                    c["median_cost_to_eps"][eps_key]
                    for c in cells
                    if c["median_cost_to_eps"][eps_key] is not None
                ]
                if best is None:
                    assert not reached
                else:
                    assert best["cost"] == min(reached)

    def sweep_config(self, kappa_g_grid=None):
        """sweep_kwargs as a config for the sweep command."""
        kw = self.sweep_kwargs()
        return {"problem": kw["problem_spec"], "eps": list(kw["eps"]),
                "sweep": {"methods": kw["methods"], "kappa_g": kappa_g_grid, "T": kw["T_grid"],
                          "N": kw["N_grid"], "seeds": kw["seeds"], "K": kw["K_max"]}}

    def test_worker_count_does_not_change_results(self, tmp_path):
        # With a kappa axis each worker rebuilds at kappa boundaries only.
        for grid, kappa_g_grid in enumerate((None, [2.0, 10.0])):
            serial, _ = run_sweep(**self.sweep_kwargs(workers=1), kappa_g_grid=kappa_g_grid)
            parallel, _ = run_sweep(**self.sweep_kwargs(workers=2), kappa_g_grid=kappa_g_grid)
            assert serial == parallel  # every aggregate, in (key, seed) order
            # The CSV file the command copies from its spill is the same bytes too.
            cfg_path = write_config(tmp_path, self.sweep_config(kappa_g_grid), f"cfg{grid}.json")
            written = []
            for workers in ("1", "2"):
                out = tmp_path / f"sweep{grid}-{workers}.csv"
                assert main(["sweep", "--config", cfg_path, "--out", str(out), "--workers", workers]) == 0
                written.append(out.read_bytes())
            assert written[0] == written[1]
            assert written[0].count(b"\n") > len(serial) + 1  # the header and several rows per cell

    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        # A stand-in executor that runs each cell in this process: it records the pool size
        # a sweep asks for without forking any worker.
        sizes = []

        class InProcessExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = concurrent.futures.Future()
                future.set_result(fn(task))
                return future

        cfg = {"problem": quad_spec(dx=12, dy=6), "eps": [0.1],
               "sweep": {"methods": ["amigo-gd", "aid-gd"], "T": [1, 5], "N": [1, 5], "K": 10}}
        cfg_path = write_config(tmp_path, cfg)

        def sweep(workers):
            out = tmp_path / f"sweep{workers}.csv"
            assert main(["sweep", "--config", cfg_path, "--out", str(out), "--workers", workers]) == 0
            return out.read_bytes(), Path(f"{out}.summary.json").read_bytes()

        serial = sweep("1")
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
        assert sweep("5000") == sweep("3") == serial
        assert sizes == [8, 3]  # 8 cells

    def test_cells_finishing_out_of_order_give_the_same_bytes(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, self.sweep_config([2.0, 10.0]))

        def sweep(workers):
            out = tmp_path / f"sweep{workers}.csv"
            assert main(["sweep", "--config", cfg_path, "--out", str(out), "--workers", workers]) == 0
            return out.read_bytes(), Path(f"{out}.summary.json").read_bytes()

        serial = sweep("1")
        pool = SteppedPool(cells=16, reverse=True)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", lambda max_workers: pool)
        assert sweep("2") == serial
        # The last cell submitted finished first, and the first finished last.
        keys = [cli.sweep_cell_name(**task) for task in pool.ran]
        assert len(keys) == 16 and keys[0][1] == 10.0 and keys[-1][1] == 2.0
        assert keys != sorted(keys) and keys[::-1] != sorted(keys)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_sweep_leaves_no_file(self, tmp_path, workers):
        # The kappa_g = 10 cell finishes; the 1e154 cell's row 0 is not finite.
        cfg = {"problem": {"family": "quadratic", "dx": 6, "dy": 4},
               "sweep": {"methods": ["amigo-gd"], "kappa_g": [10.0, 1e154], "K": 5}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sweep", "--config", cfg_path, "--out", str(out / "sweep.csv"), "--workers", workers]) == 2
        assert list(out.iterdir()) == []
        assert cli._sweep_memo == {}

    def test_cells_queued_after_a_failing_cell_are_cancelled(self, tmp_path, monkeypatch):
        cfg = {"problem": {"family": "quadratic", "dx": 6, "dy": 4},
               "sweep": {"methods": ["amigo-gd"], "kappa_g": [10.0, 1e154, 100.0], "T": [1, 2], "N": [1],
                         "K": 5}}
        cfg_path = write_config(tmp_path, cfg)
        pool = SteppedPool(cells=6)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", lambda max_workers: pool)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sweep", "--config", cfg_path, "--out", str(out / "sweep.csv"), "--workers", "2"]) == 2
        # The first 1e154 cell fails; the three cells queued after it are cancelled, not run.
        cells = [task["cell"] for task in pool.ran]
        assert [(cell["kappa_g"], cell["T"]) for cell in cells] == [(10.0, 1), (10.0, 2), (1e154, 1)]
        assert [future.cancelled() for future, _, _ in pool.pending] == [True] * 3
        assert list(out.iterdir()) == []

    def test_each_problem_is_built_once_per_sweep(self, tmp_path, monkeypatch):
        built = []
        fresh = cli.build_problem
        monkeypatch.setattr(cli, "build_problem", lambda spec: built.append(spec) or fresh(spec))
        results, _ = run_sweep(**self.sweep_kwargs(), kappa_g_grid=[2.0, 10.0])
        assert [spec["kappa_g"] for spec in built] == [2.0, 10.0]
        out = tmp_path / "sweep.csv"
        cfg_path = write_config(tmp_path, self.sweep_config([2.0, 10.0]))
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        assert len(built) == 4  # a second sweep builds again: nothing is retained
        assert cli._sweep_memo == {}
        # Every cell's lines in the written CSV equal a run on a freshly built problem.
        noise = build_noise(None)
        lines = out.read_text().splitlines(keepends=True)
        assert lines.pop(0) == ",".join(cli.SWEEP_COLUMNS) + "\n"
        for res in results:
            cell = res["cell"]
            problem = fresh(quad_spec(kappa_g=cell["kappa_g"]))
            config = build_config(problem, res["method"], {"T": cell["T"], "N": cell["N"], "K": 60}, noise)
            record = run_single(problem, res["method"], config, res["seed"], noise,
                                stop=make_stop_rule(None, None))
            text = sweep_rows_to_csv(record.rows, res["method"], cell, res["seed"])
            assert "".join(lines[:text.count("\n")]) == text
            del lines[:text.count("\n")]
        assert lines == []

    def test_results_hold_aggregates_only(self):
        # A result holds its cell's aggregates only: no per-row object (tuple,
        # list, MetricRow) and no CSV text, whose lines go to the spill.  It is
        # a plain JSON object, which a JSON round trip leaves equal.
        def scalars_only(value):
            if isinstance(value, dict):
                return all(isinstance(k, str) and scalars_only(v) for k, v in value.items())
            if isinstance(value, str):
                return "\n" not in value
            return value is None or isinstance(value, (int, float))

        results, _ = run_sweep(**self.sweep_kwargs(), kappa_g_grid=[2.0, 10.0])
        for res in results:
            assert set(res) == {"method", "seed", "cell", "cost_to_eps", "min_rel_error", "diverged_at"}
            assert scalars_only(res)
            assert json.loads(json.dumps(res)) == res

    def test_empty_seed_list_rejected(self):
        kwargs = self.sweep_kwargs()
        kwargs["seeds"] = []
        with pytest.raises(ValueError):
            run_sweep(**kwargs)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
    def test_bad_worker_count_rejected_before_any_cell(self, monkeypatch, workers):
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            run_sweep(**self.sweep_kwargs(workers=workers))
        assert dispatched == []

    @pytest.mark.parametrize("eps, message", [
        ([1e-2, 1e-2], "must not repeat a value"),
        ([-1], "must be positive, got -1"),
        ([1e-2, 0.0], "must be positive, got 0.0"),
    ], ids=["repeated", "negative", "zero"])
    def test_bad_targets_rejected_before_any_cell(self, monkeypatch, eps, message):
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        with pytest.raises(ValueError, match=f"top-level key 'eps' {message}"):
            run_sweep(**{**self.sweep_kwargs(), "eps": eps})
        assert dispatched == []

    def test_missing_seed_list_rejected_before_any_cell(self, monkeypatch):
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        with pytest.raises(ValueError, match="seeds must be a non-empty list"):
            run_sweep(**{**self.sweep_kwargs(), "seeds": None})
        assert dispatched == []

    def test_kappa_axis_produces_per_kappa_cells(self):
        results, summary = run_sweep(
            problem_spec=quad_spec(),
            methods=["amigo-gd"],
            T_grid=[5],
            N_grid=[5],
            seeds=[0],
            K_max=40,
            eps=(1e-1,),
            kappa_g_grid=[1.0, 10.0],
        )
        kappas = {r["cell"]["kappa_g"] for r in results}
        assert kappas == {1.0, 10.0}
        assert len(summary["amigo-gd"]["cells"]) == 2

    def test_cells_are_sorted_by_the_number_kappa_g(self, tmp_path):
        # As strings, 10.0 would sort before 2.0 and 5.0.
        cfg = {"problem": quad_spec(), "eps": [0.1],
               "sweep": {"methods": ["aid-gd", "amigo-gd"], "kappa_g": [2.0, 10.0, 5.0],
                         "T": [1], "N": [1], "seeds": [1, 0], "K": 3}}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        cells = [tuple(line.split(",")[:2]) + (line.split(",")[5],) for line in lines]
        order = [(m, k, s) for m in ("aid-gd", "amigo-gd") for k in ("2.0", "5.0", "10.0") for s in "01"]
        assert list(dict.fromkeys(cells)) == order
        summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text())
        for method in ("aid-gd", "amigo-gd"):
            assert [c["cell"]["kappa_g"] for c in summary[method]["cells"]] == [2.0, 5.0, 10.0]


class TestChecks:
    def test_quadratic_checks_pass(self):
        problem = build_problem(quad_spec())
        checks = run_checks(problem, noise=build_noise({"sigma_g": 1.0}), seed=0)
        assert all(c["passed"] for c in checks)
        fd = next(c for c in checks if c["name"] == "finite-difference gradient")
        assert fd["value"] <= 1e-6
        var16 = next(c for c in checks if "b=16" in c["name"])
        assert var16["value"]["variance"] == pytest.approx(1.0 / 16.0, rel=0.2)

    def test_ridge_checks_pass(self):
        problem = build_problem({"family": "ridge", "n_tr": 60, "n_val": 40, "d": 20,
                                 "label_noise": 0.1, "seed": 2})
        checks = run_checks(problem, seed=0)
        assert all(c["passed"] for c in checks)

    def test_check_command_skips_grad_g_checks_without_grad_g_noise(self, tmp_path, capsys):
        cfg = {"problem": quad_spec(), "noise": {"sigma_f": 0.5, "sigma_gyy": 0.01}}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert names == ["[check] finite-difference gradient", "[check] hvp spectral sandwich"]

    def test_gradient_check_does_not_overflow(self):
        # At kappa_g = 1e160 ||grad L|| overflows, which once made the ratio 0.0.
        problem = build_problem(quad_spec(kappa_g=1e160))
        x = np.random.default_rng(0).standard_normal(problem.dims.dx) * 0.5
        with np.errstate(over="ignore"):
            assert np.linalg.norm(problem.grad_L(x)) == math.inf
        checks = run_checks(problem, seed=0)  # pytest turns an overflow warning into an error
        fd = next(c for c in checks if c["name"] == "finite-difference gradient")
        assert 0.0 < fd["value"] <= 1e-6 and fd["passed"]

    @pytest.mark.parametrize("query, fake, line", [
        ("grad_L", lambda self, x: np.full(x.shape, np.nan),
         "[check] finite-difference gradient: value=nan tol=1e-06: FAIL"),
        ("hvp_gyy", lambda self, x, y, v: np.full(v.shape, np.nan),
         "[check] hvp spectral sandwich: value=[nan, nan] tol=[0.1, 1.0]: FAIL"),
    ], ids=["grad_L", "hvp_gyy"])
    def test_non_finite_measurement_fails(self, tmp_path, capsys, monkeypatch, query, fake, line):
        monkeypatch.setattr(problems.QuadraticProblem, query, fake)
        assert main(["check", "--config", write_config(tmp_path, {"problem": quad_spec()})]) == 1
        out = capsys.readouterr().out
        assert line in out and out.count("FAIL") == 1


# Config entries every command rejects: (section or None for the top level, entry, message).
BAD_CONFIGS = {
    "problem-unknown": ("problem", {"kapa_g": 500},
                        "unknown quadratic problem keys ['kapa_g']; valid keys are ['family', 'dx',"),
    "problem-family-key": ("problem", {"family": "nonconvex"},
                           "unknown nonconvex problem keys ['kappa_L']"),
    "problem-type": ("problem", {"dx": 24.0}, "quadratic problem key 'dx' must be an integer, got 24.0"),
    "noise-unknown": ("noise", {"sigma_gy": 0.1},
                      "unknown noise keys ['sigma_gy']; valid keys are ['sigma_f',"),
    "noise-type": ("noise", {"sigma_g": "0.1"}, "noise key 'sigma_g' must be a number, got '0.1'"),
    "sweep-unknown": ("sweep", {"method": ["aid-gd"]},
                      "unknown sweep keys ['method']; valid keys are ['methods',"),
    "top-level-unknown": (None, {"methods": ["aid-gd"]},
                          "unknown top-level keys ['methods']; valid keys are"),
    "eps-type": (None, {"eps": [0.1, "a"]}, "top-level key 'eps' must be a number, got 'a'"),
    "solver-K-float": ("solver", {"K": 3.7}, "solver key 'K' must be an integer, got 3.7"),
    "solver-u-float": ("solver", {"u": 0.9}, "solver key 'u' must be an integer, got 0.9"),
    "solver-T-bool": ("solver", {"T": True}, "solver key 'T' must be an integer, got True"),
    "solver-gamma-str": ("solver", {"gamma": "0.5"}, "solver key 'gamma' must be a number, got '0.5'"),
    "solver-gamma-nan": ("solver", {"gamma": math.nan}, "solver key 'gamma' must be finite, got nan"),
    "solver-cg-tol-nan": ("solver", {"cg_tol": math.nan}, "solver key 'cg_tol' must be finite, got nan"),
    "solver-gamma-negative": ("solver", {"gamma": -1.0}, "step size gamma must be positive, got -1.0"),
    "noise-inf": ("noise", {"sigma_g": math.inf}, "noise key 'sigma_g' must be finite, got inf"),
    "problem-kappa-inf": ("problem", {"kappa_g": -math.inf},
                          "quadratic problem key 'kappa_g' must be finite, got -inf"),
    "eps-nan": (None, {"eps": [0.1, math.nan]}, "top-level key 'eps' must be finite, got nan"),
    # A target no run can reach, or one that would hold a single key in every summary.
    "eps-negative": (None, {"eps": [-1]}, "top-level key 'eps' must be positive, got -1"),
    "eps-zero": (None, {"eps": [0.1, 0.0]}, "top-level key 'eps' must be positive, got 0.0"),
    "eps-repeated": (None, {"eps": [0.01, 1e-2]},
                     "top-level key 'eps' must not repeat a value, got [0.01, 0.01]"),
    "out-bool": (None, {"out": True}, "top-level key 'out' must be a string, got True"),
    "out-int": (None, {"out": 7}, "top-level key 'out' must be a string, got 7"),
    "method-unknown": (None, {"method": "sgd-magic"}, "unknown method 'sgd-magic'; choose from"),
    "seed-negative": (None, {"seed": -1}, "top-level key 'seed' must be nonnegative, got -1"),
    "problem-seed-negative": ("problem", {"seed": -1},
                              "quadratic problem key 'seed' must be nonnegative, got -1"),
    # Dimensions the generators reject before they draw anything.
    "problem-dx-zero": ("problem", {"dx": 0}, "dx must be positive, got 0"),
    "problem-dy-negative": ("problem", {"dy": -1}, "dy must be positive, got -1"),
    "problem-nonconvex-dx-zero": (None, {"problem": {"family": "nonconvex", "dx": 0}},
                                  "dx must be positive, got 0"),
    "problem-ridge-n-tr-zero": (None, {"problem": {**RIDGE_SPEC, "n_tr": 0}}, "n_tr must be positive, got 0"),
    "problem-ridge-n-val-zero": (None, {"problem": {**RIDGE_SPEC, "n_val": 0}},
                                 "n_val must be positive, got 0"),
    "problem-ridge-n-tr-negative": (None, {"problem": {**RIDGE_SPEC, "n_tr": -1}},
                                    "n_tr must be positive, got -1"),
    "problem-ridge-d-zero": (None, {"problem": {**RIDGE_SPEC, "d": 0}}, "d must be positive, got 0"),
    "problem-family-unknown": ("problem", {"family": "cubic"},
                               "unknown problem family 'cubic'; choose from ['quadratic', 'ridge', 'nonconvex']"),
}
# Sweep values, which only a sweep reads.
BAD_SWEEP_GRIDS = {
    "sweep-T-float": ("sweep", {"T": [1.5]}, "solver key 'T' must be an integer, got 1.5"),
    "sweep-K-float": ("sweep", {"K": 2.5}, "solver key 'K' must be an integer, got 2.5"),
    "sweep-seed-float": ("sweep", {"seeds": [0.5]}, "sweep key 'seeds' must be an integer, got 0.5"),
    "sweep-cost-cap-str": ("sweep", {"cost_cap": "5"}, "sweep key 'cost_cap' must be an integer, got '5'"),
    "sweep-T-scalar": ("sweep", {"T": 5}, "sweep key 'T' must be a non-empty list, got 5"),
    "sweep-kappa-scalar": ("sweep", {"kappa_g": 5}, "sweep key 'kappa_g' must be a non-empty list, got 5"),
    "sweep-methods-str": ("sweep", {"methods": "amigo-gd"},
                          "sweep key 'methods' must be a non-empty list, got 'amigo-gd'"),
    "sweep-T-empty": ("sweep", {"T": []}, "sweep key 'T' must be a non-empty list, got []"),
    "sweep-methods-empty": ("sweep", {"methods": []}, "sweep key 'methods' must be a non-empty list, got []"),
    "sweep-kappa-empty": ("sweep", {"kappa_g": []}, "sweep key 'kappa_g' must be a non-empty list, got []"),
    # Values of the right type that a later grid point, a later problem or K would only
    # reject inside a cell, after the cells before it ran.
    "sweep-T-negative": ("sweep", {"T": [1, -1]}, "iteration counts must be nonnegative"),
    "sweep-batch-zero": ("sweep", {"batch": [1, 0]}, "batch_f must be a positive integer"),
    "sweep-kappa-below-one": ("sweep", {"kappa_g": [10.0, 0.5]},
                              "condition numbers must be >= 1, got 10.0, 0.5"),
    "sweep-seed-negative": ("sweep", {"seeds": [0, -1]}, "sweep key 'seeds' must be nonnegative, got -1"),
    "sweep-K-negative": ("sweep", {"K": -1}, "iteration counts must be nonnegative"),
    # A repeated grid value would run identical cells and take the summary's median over copies.
    "sweep-methods-repeated": ("sweep", {"methods": ["amigo-gd", "amigo-gd"]},
                               "sweep key 'methods' must not repeat a value, got ['amigo-gd', 'amigo-gd']"),
    "sweep-kappa-repeated": ("sweep", {"kappa_g": [10, 10.0]},
                             "sweep key 'kappa_g' must not repeat a value, got [10, 10.0]"),
    "sweep-T-repeated": ("sweep", {"T": [1, 1]}, "sweep key 'T' must not repeat a value, got [1, 1]"),
    "sweep-N-repeated": ("sweep", {"N": [10, 1, 10]}, "sweep key 'N' must not repeat a value, got [10, 1, 10]"),
    "sweep-batch-repeated": ("sweep", {"batch": [1, 1]}, "sweep key 'batch' must not repeat a value, got [1, 1]"),
    "sweep-seeds-repeated": ("sweep", {"seeds": [0, 0]}, "sweep key 'seeds' must not repeat a value, got [0, 0]"),
    # A non-positive stop setting would stop every cell after its first outer step.
    "sweep-cost-cap-negative": ("sweep", {"cost_cap": -5}, "sweep key 'cost_cap' must be positive, got -5"),
    "sweep-cost-cap-zero": ("sweep", {"cost_cap": 0}, "sweep key 'cost_cap' must be positive, got 0"),
    "sweep-stop-rel-negative": ("sweep", {"stop_rel": -1.0}, "sweep key 'stop_rel' must be positive, got -1.0"),
    "sweep-stop-rel-zero": ("sweep", {"stop_rel": 0.0}, "sweep key 'stop_rel' must be positive, got 0.0"),
    "sweep-kappa-one-dimension": (None, {
        "problem": {"dx": 4, "dy": 1},
        "sweep": {"methods": ["amigo-gd"], "kappa_g": [1.0, 10.0], "T": [1], "N": [1], "K": 3},
    }, "d=1 cannot attain two distinct spectrum endpoints"),
    "sweep-nonconvex-rho-negative": (None, {"problem": {"family": "nonconvex", "dx": 6, "dy": 4, "rho": -1.0}},
                                     "rho must be positive, got -1.0"),
    "sweep-ridge-label-noise-negative": (None, {"problem": {**RIDGE_SPEC, "label_noise": -0.1}},
                                         "label_noise must be nonnegative, got -0.1"),
}


# The flags each command accepted but never read.
UNREAD_FLAGS = {
    "generate": ["--seed 7", "--method aid-gd", "--T 3", "--N 3", "--eps 0.1", "--timing"],
    "check": ["--out out.csv", "--method aid-gd", "--T 3", "--N 3", "--eps 0.1", "--timing"],
    "sweep": ["--method aid-gd", "--T 3", "--N 3", "--timing"],
}


class TestEndToEnd:
    def test_generate_then_run_from_file(self, tmp_path):
        cfg = {
            "problem": quad_spec(),
            "method": "amigo-cg",
            "seed": 4,
            "solver": {"K": 20},
            "eps": [1e-2],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bin_path = tmp_path / "p.bin"
        assert main(["generate", "--config", str(cfg_path), "--out", str(bin_path)]) == 0
        assert bin_path.exists() and (tmp_path / "p.bin.json").exists()

        cfg["problem"] = {"path": str(bin_path)}
        cfg_path.write_text(json.dumps(cfg))
        out_csv = tmp_path / "run.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 22  # header + K + 1 rows
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
        assert summary["method"] == "amigo-cg"
        assert summary["cost_to_eps"]["0.01"] is not None

    @pytest.mark.parametrize("spec", [{"family": "nonconvex", "dx": 6, "dy": 4}, RIDGE_SPEC],
                             ids=["nonconvex", "ridge"])
    def test_generate_writes_strict_json(self, tmp_path, capsys, spec):
        # These families leave kappa_L (ridge: kappa_g too) undefined.
        bin_path = tmp_path / "p.bin"
        argv = ["generate", "--config", write_config(tmp_path, {"problem": spec}), "--out", str(bin_path)]
        assert main(argv) == 0
        printed = strict_json(capsys.readouterr().out)
        assert printed["kappa_L"] is None and printed["family"] == spec["family"]
        assert strict_json((tmp_path / "p.bin.json").read_text()) == {**printed, "file": "p.bin"}

    def test_repeat_run_is_byte_identical(self, tmp_path):
        cfg = {
            "problem": quad_spec(),
            "noise": {"sigma_g": 0.5, "sigma_f": 0.5},
            "method": "amigo-gd",
            "seed": 9,
            "solver": {"K": 15},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_path), "--out", str(a)])
        main(["run", "--config", str(cfg_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": quad_spec(), "solver": {"K": 5}}))
        out = tmp_path / "o.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out), "--method", "aid-fp",
              "--seed", "2", "--T", "3", "--N", "4", "--eps", "0.5,0.25"])
        first_row = out.read_text().strip().split("\n")[1].split(",")
        assert first_row[0] == "aid-fp" and first_row[1] == "2"
        summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
        assert list(summary["cost_to_eps"]) == ["0.5", "0.25"]

    def test_sweep_command(self, tmp_path):
        cfg = {
            "problem": quad_spec(),
            "sweep": {"methods": ["amigo-gd"], "T": [2], "N": [2], "seeds": [0], "K": 20},
            "eps": [1e-1],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "sweep.csv.summary.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_rejects_bad_worker_count(self, tmp_path, capsys, monkeypatch, workers):
        cfg = {"problem": quad_spec(), "sweep": {"methods": ["amigo-gd"], "T": [1], "N": [1], "K": 3}}
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        out = tmp_path / "out.csv"
        argv = ["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out), "--workers", workers]
        assert main(argv) == 2
        assert f"workers must be a positive integer, got {workers}" in capsys.readouterr().err
        assert dispatched == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "run", "check"])
    def test_workers_flag_is_sweep_only(self, tmp_path, command):
        cfg_path = write_config(tmp_path, {"problem": quad_spec()})
        out = [] if command == "check" else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, *out, "--workers", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags
    ])
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command, flag):
        # A command registers only the flags it reads: amigo generate --seed 7 once wrote seed 0's problem.
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": quad_spec(), "sweep": {"methods": ["amigo-gd"], "T": [1], "N": [1], "K": 3}}
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_config(tmp_path, cfg), *flag.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_check_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": quad_spec()}))
        assert main(["check", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_check_command_fails_on_failed_check(self, tmp_path, capsys, monkeypatch):
        failing = {"name": "stub", "value": 1.0, "tol": 0.0, "passed": False}
        monkeypatch.setattr(cli, "run_checks", lambda *args, **kwargs: [failing])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": quad_spec()}))
        assert main(["check", "--config", str(cfg_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_container_seed_outside_int64_exits_2_and_writes_nothing(self, tmp_path, capsys):
        bin_path = tmp_path / "p.bin"
        cfg = {"problem": quad_spec(dx=6, dy=4, seed=2**63)}
        assert main(["generate", "--config", write_config(tmp_path, cfg), "--out", str(bin_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: problem container seed: {2**63} does not fit the header's int64 field\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("method", ["itd", "reverse", "amigo-gd"])
    def test_averaging_on_the_nonconvex_family_exits_2(self, tmp_path, capsys, method):
        cfg = {"problem": {"family": "nonconvex", "dx": 6, "dy": 4}, "method": method,
               "solver": {"u": 1, "K": 5}}
        out = tmp_path / "run.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: averaging (u=1) requires a positive outer modulus mu_outer\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["generate", "run", "sweep"])
    def test_bad_output_path_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command, where):
        cfg = {"problem": quad_spec(dx=6, dy=4), "solver": {"K": 3},
               "sweep": {"methods": ["amigo-gd"], "T": [1], "N": [1], "K": 3}}
        cfg_path = write_config(tmp_path, cfg)
        before = sorted(os.listdir(tmp_path))
        work = []
        for name in ("_sweep_cell", "_run_rows", "build_problem"):
            monkeypatch.setattr(cli, name, lambda *args, _name=name: work.append(_name))
        out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        expected = "does not exist" if where == "missing-directory" else "is a directory"
        assert err.startswith("error: output ") and expected in err and err.count("\n") == 1
        assert work == []
        assert sorted(os.listdir(tmp_path)) == before

    def test_invalid_problem_reports_structured_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": quad_spec(kappa_g=0.5)}))
        code = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "p.bin")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["path", "ridge"])
    @pytest.mark.parametrize("command, source", [
        ("run", "spec"), ("run", "flag"), ("sweep", "spec"), ("sweep", "grid"), ("sweep", "flag"),
    ])
    def test_kappa_g_rejected_where_it_does_not_apply(
        self, tmp_path, capsys, monkeypatch, family, command, source
    ):
        # Containers and ridge ignore kappa_g, so setting it anywhere is an error.
        if family == "path":
            container = tmp_path / "p.bin"
            save_problem(build_problem(quad_spec()), container)
            spec = {"path": str(container)}
        else:
            spec = dict(RIDGE_SPEC)
        cfg = {"problem": spec, "method": "amigo-gd", "solver": {"K": 3},
               "sweep": {"methods": ["amigo-gd"], "T": [1], "N": [1], "K": 3}}
        argv = [command, "--out", str(tmp_path / "out.csv")]
        if source == "spec":
            spec["kappa_g"] = 5.0
        elif source == "grid":
            cfg["sweep"]["kappa_g"] = [1.0, 1000.0]
        else:
            argv += ["--kappa-g", "5"]
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: dispatched.append(args))
        assert main(argv + ["--config", write_config(tmp_path, cfg)]) == 2
        assert "kappa_g" in capsys.readouterr().err
        assert dispatched == []
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("key, message", [
        ("KK", "unknown solver keys ['KK']; valid keys are"),
        ("linear_solver", "solver keys ['linear_solver'] are fixed by the method 'amigo-gd'"),
    ], ids=["unknown", "method-owned"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_solver_key_rejected(self, tmp_path, capsys, monkeypatch, command, key, message):
        cfg = {"problem": quad_spec(), "method": "amigo-gd", "solver": {"K": 3, key: "cg"},
               "sweep": {"methods": ["amigo-gd", "aid-cg"], "T": [1], "N": [1], "K": 3}}
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: dispatched.append(args))
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert dispatched == []
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0.1,0.1", "-1", "0.1,0"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_eps_flag_rejected(self, tmp_path, capsys, monkeypatch, command, eps):
        cfg = {"problem": quad_spec(), "solver": {"K": 3},
               "sweep": {"methods": ["amigo-gd"], "T": [1], "N": [1], "K": 3}}
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: dispatched.append(args))
        out = tmp_path / "out.csv"
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out), "--eps", eps]
        assert main(argv) == 2
        assert "top-level key 'eps' must" in capsys.readouterr().err
        assert dispatched == []
        assert not out.exists()

    @pytest.mark.parametrize("command, case", [
        *((command, case) for command in ("run", "sweep") for case in BAD_CONFIGS),
        *(("sweep", case) for case in BAD_SWEEP_GRIDS),
    ])
    def test_bad_config_rejected(self, tmp_path, capsys, monkeypatch, command, case):
        section, entry, message = {**BAD_CONFIGS, **BAD_SWEEP_GRIDS}[case]
        cfg = {"problem": quad_spec(), "noise": {}, "method": "amigo-gd", "solver": {"K": 3},
               "sweep": {"methods": ["amigo-gd"], "T": [1], "N": [1], "K": 3}}
        (cfg if section is None else cfg[section]).update(entry)
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: dispatched.append(args))
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert dispatched == []
        assert not out.exists()

    # sweep takes no flag that writes into the solver section.
    @pytest.mark.parametrize("section, flag, command", [
        ("problem", ["--kappa-g", "5"], "run"),
        ("problem", ["--kappa-g", "5"], "sweep"),
        ("solver", ["--T", "3"], "run"),
    ], ids=["problem-run", "problem-sweep", "solver-run"])
    def test_non_object_section_rejected_before_flags(
        self, tmp_path, capsys, monkeypatch, command, section, flag
    ):
        # The file is checked before the flags are merged into its sections.
        cfg = {"problem": quad_spec(), "solver": {"K": 3}, "sweep": {"T": [1], "N": [1], "K": 3}}
        cfg[section] = [1]
        dispatched = []
        monkeypatch.setattr(cli, "_sweep_cell", dispatched.append)
        monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: dispatched.append(args))
        out = tmp_path / "out.csv"
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out), *flag]
        assert main(argv) == 2
        assert f"the {section} section must be an object, got [1]" in capsys.readouterr().err
        assert dispatched == []
        assert not out.exists()

    def test_corrupt_container_rejected(self, tmp_path, capsys):
        container = tmp_path / "p.bin"
        save_problem(build_problem(quad_spec()), container)
        container.write_bytes(container.read_bytes() + b"\x00" * 8)
        cfg = {"problem": {"path": str(container)}, "solver": {"K": 3}}
        out = tmp_path / "out.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "problem container body" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, filled", [
        (RIDGE_SPEC, ("grad_norm_sq", "avg_grad_norm_sq")),
        ({"family": "nonconvex", "dx": 8, "dy": 4}, ("grad_norm_sq", "avg_grad_norm_sq", "energy_x")),
    ], ids=["ridge", "nonconvex"])
    def test_run_without_strong_convexity(self, tmp_path, spec, filled):
        # Only the quadratic family has a positive outer modulus, so the other
        # two fill no relative error or strongly convex columns.
        cfg = {"problem": spec, "method": "amigo-gd", "solver": {"K": 3}}
        out = tmp_path / "run.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        assert header == ",".join(CSV_COLUMNS) and len(lines) == 4
        for line in lines:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            for column in ("rel_error", "combined_sc", "energy_x"):
                assert (row[column] != "") == (column in filled), column
            assert all(math.isfinite(float(row[column])) for column in filled)

    def test_run_without_out_writes_csv_to_stdout(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path, {"problem": quad_spec(), "solver": {"K": 2}})
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", cfg_path]) == 0
        *csv_lines, summary = capsys.readouterr().out.splitlines()
        assert csv_lines[0] == ",".join(CSV_COLUMNS)
        assert [line.split(",")[CSV_COLUMNS.index("k")] for line in csv_lines[1:]] == ["0", "1", "2"]
        assert json.loads(summary)["diverged_at"] is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_diverged_run_summary_keeps_partial_progress(self, tmp_path):
        cfg = {"problem": quad_spec(), "method": "aid-cg", "solver": {"gamma": 1e8, "K": 200},
               "eps": [1e-2, 1e-4, 1e-6]}
        out = tmp_path / "run.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        rows = out.read_text().strip().split("\n")[1:]
        summary = strict_json((tmp_path / "run.csv.summary.json").read_text())
        assert summary["diverged_at"] is not None
        # The metrics overflow before x does; such a row ends the run and is not written.
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[2:] if v)
        assert summary["final"]["k"] == summary["diverged_at"] == len(rows) - 1
        assert summary["final"]["cost"] == int(rows[-1].split(",")[CSV_COLUMNS.index("cost")])
        assert list(summary["cost_to_eps"]) == ["0.01", "0.0001", "1e-06"]
        for key in ("iterations", "oracle_counts", "wall_time_s"):
            assert key not in summary

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("kappa_g, message", [
        # 1/mu_g squared overflows: the derived outer bound L is inf.
        (1e160, "derived constants must be finite, got L=inf"),
        # The constants stay finite, but the metrics at x0 overflow.
        (1e154, "metric row 0 at x0 has a non-finite entry"),
    ])
    def test_extreme_kappa_is_one_typed_error(self, tmp_path, capsys, command, kappa_g, message):
        # pytest turns a warning into an error, so none may be raised on the way.
        spec = quad_spec(dx=20, dy=10, kappa_g=kappa_g, kappa_L=10.0, seed=0)
        cfg = {"problem": spec, "method": "amigo-cg", "solver": {"K": 3},
               "sweep": {"methods": ["amigo-cg"], "T": [1], "N": [1], "K": 3}}
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("family", ["quadratic", "nonconvex"])
    def test_sweep_rejects_an_overflowing_kappa_before_any_cell(self, tmp_path, capsys, monkeypatch, family):
        cells, run_cell = [], cli._sweep_cell
        monkeypatch.setattr(cli, "_sweep_cell", lambda task: cells.append(task) or run_cell(task))
        spec = {"family": family, "dx": 20, "dy": 10, "seed": 0}
        sweep = {"methods": ["amigo-gd"], "kappa_g": [10.0, 1e160], "T": [1, 10], "N": [1, 10], "K": 300}
        cfg = {"problem": spec, "method": "amigo-gd", "sweep": sweep}
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: derived constants must be finite, got L=inf") and err.count("\n") == 1
        assert cells == [] and not out.exists()


def test_readme_config_table_mirrors_schema():
    """README's Config schema table lists exactly SCHEMA's keys, section by section.

    A generated family's rows give its generator's defaults.
    """
    table = README.read_text().split("### Config schema")[1].split("\n### ")[0]
    listed, defaults, section = {}, {}, None
    for line in table.splitlines():
        if not line.startswith("|") or line.startswith(("| section ", "|---")):
            continue
        first, second, _, default = line.split("|")[1:5]
        if first.strip():
            family = re.fullmatch(r"`problem` \((\w+)\)", first.strip())
            section = f"{family[1]} problem" if family else first.strip().strip("`").replace(" ", "-")
        keys = re.findall(r"`([^`]+)`", second)
        listed.setdefault(section, set()).update(keys)
        if section.removesuffix(" problem") in problems.FAMILIES and keys != ["family"]:
            values = zip(keys, re.findall(r"`([^`]+)`", default), strict=True)
            defaults.setdefault(section.removesuffix(" problem"), {}).update(values)
    assert listed == {name: set(keys) for name, keys in SCHEMA.items()}
    signatures = {name: inspect.signature(fam.generator).parameters for name, fam in problems.FAMILIES.items()}
    assert defaults == {name: {key: repr(p.default) for key, p in params.items()}
                        for name, params in signatures.items()}


def test_schema_has_one_section_per_family_row():
    """Each FAMILIES row has a "<name> problem" section: family plus exactly its generator's parameters.

    A row without its section would reach canonical_problem as a bare KeyError.
    """
    sections = {name.removesuffix(" problem") for name in SCHEMA if name.endswith(" problem")}
    assert sections == {*problems.FAMILIES, "container"}
    for name, fam in problems.FAMILIES.items():
        section = SCHEMA[f"{name} problem"]
        assert section["family"] == (str, name)
        assert set(section) == {"family", *inspect.signature(fam.generator).parameters}, name


def test_readme_methods_table_mirrors_methods():
    """README's Methods table lists every method with its warm starts, linear-solver kind and noise rule."""
    table = README.read_text().split("### Methods")[1].split("\n### ")[0]
    listed = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            name, _, warm_y, warm_z, solver, noise = (c.strip() for c in line.strip("|").split("|"))
            kind = re.match(r"`(\w+)`", solver)
            listed[name.strip("`")] = (warm_y, warm_z, kind[1] if kind else solver, noise)
    yes_no = {True: "yes", False: "no"}
    expected = {}
    for name, mapping in METHODS.items():
        if mapping["driver"] == "itd":  # unrolled: no adjoint, no noise
            expected[name] = (yes_no[mapping["warm_y"]], "-", "-", "none")
            continue
        kind = mapping["linear_solver"]
        takes_noise, _ = outer.LINEAR_SOLVERS[kind]
        expected[name] = (yes_no[mapping["warm_y"]], yes_no[mapping["warm_z"]], kind,
                          "any" if takes_noise else "all but `sigma_gyy`")
    assert listed == expected


def test_benchmark_tracer_hooks_see_every_layer(tmp_path, monkeypatch):
    """The benchmark's timing wrappers find every hook they patch, once each."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    owners = [cli, outer, metrics.MetricsTracker] + [
        getattr(problems, name) for name in tracing.PROBLEM_CLASSES + ("StochasticOracle",)
    ]

    def callables():
        return [{k: v for k, v in vars(o).items() if callable(v)} for o in owners]

    before = callables()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = {"problem": quad_spec(), "method": "amigo-gd", "solver": {"K": 3},
               "sweep": {"methods": ["amigo-gd", "amigo-cg"], "T": [2], "N": [2], "K": 3}}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sweep.csv")]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run.csv")]) == 0
    finally:
        tracer.unpatch()
    assert callables() == before
    for name in ("problems.build", "outer.aid_run", "inner.sgd", "inner.linear.cg", "cli.emit"):
        assert tracer.stats[name].calls > 0, name
    assert tracer.stats["cli.emit"].calls == 2  # one per CSV written


def test_benchmark_columns_match_the_metric_row(monkeypatch):
    """The benchmark's copies of the CSV column names cannot drift from MetricRow's."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.METRIC_COLUMNS == cli.METRIC_COLUMNS == MetricRow._fields[:-1]
    assert workloads.CELL_COLUMNS == cli.SWEEP_COLUMNS[:6]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**values):
    """This process's environment for a child that imports amigo from src.

    The BLAS thread variables are removed (importing amigo set them here)
    and then set to ``values``.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **values}


def test_cli_import_loads_numpy_only():
    """numpy is the only runtime dependency: importing the CLI loads no scipy module."""
    code = "import sys, amigo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("given, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
])
def test_import_sets_one_blas_thread_unless_the_user_did(given, expected):
    code = f"import os, amigo; print([os.environ[k] for k in {BLAS_THREAD_VARS!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(**given),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == repr(expected)


def test_run_csv_does_not_follow_the_host_blas_threads(tmp_path):
    """An unpinned run writes the pinned run's bytes.

    At dx=300, dy=150 OpenBLAS threads the dense products when it may, and
    CG (tolerance 1e-12) then stops a different iteration on some outer
    steps, so without amigo's default the two CSVs differ.  That can show
    only on a host with at least 2 cores; on one core both runs use one thread.
    """
    cfg = {"problem": quad_spec(dx=300, dy=150, kappa_g=1e3, kappa_L=10.0, seed=0), "method": "amigo-cg",
           "solver": {"K": 200, "T": 1, "N": 100, "cg_tol": 1e-12}}
    config = write_config(tmp_path, cfg)
    csvs = []
    for name, env in (("unset", _child_env()), ("pinned", _child_env(**dict.fromkeys(BLAS_THREAD_VARS, "1")))):
        out = tmp_path / f"{name}.csv"
        subprocess.run([sys.executable, "-m", "amigo.cli", "run", "--config", config, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_source_has_no_capability_probes():
    """Consumers reach problems and oracles through their base classes' contract, not by probing.

    A hasattr call or a getattr with a default asks whether an object has a
    name; a two-argument getattr over known field names stays allowed.
    """
    import ast

    probes = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "hasattr" or (node.func.id == "getattr" and len(node.args) == 3):
                    probes.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert probes == []


def test_package_all_lists_exactly_the_names_it_binds():
    """The package's import list and __all__ cannot drift apart."""
    import types

    import amigo

    bound = {name for name, value in vars(amigo).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(amigo.__all__) == bound
