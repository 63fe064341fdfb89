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
        rows[1].rel_error = 0.09
        rows[2].rel_error = 0.01
        assert cost_to_reach(rows, 0.1) == 10
        assert cost_to_reach(rows, 0.01) == 20
        assert cost_to_reach(rows, 1e-9) is None


class TestStopRule:
    def make_row(self, k, rel, cost):
        return MetricRow(k, rel, 0.0, None, 0.0, None, cost, 0.0)

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

    def test_worker_count_does_not_change_results(self):
        # With a kappa axis each worker rebuilds at kappa boundaries only.
        for kappa_g_grid in (None, [2.0, 10.0]):
            serial, _ = run_sweep(**self.sweep_kwargs(workers=1), kappa_g_grid=kappa_g_grid)
            parallel, _ = run_sweep(**self.sweep_kwargs(workers=2), kappa_g_grid=kappa_g_grid)
            assert len(serial) == len(parallel)
            for a, b in zip(serial, parallel):
                assert a["key"] == b["key"] and a["seed"] == b["seed"]
                assert a["rows"] == b["rows"]

    def test_each_problem_is_built_once_per_sweep(self, monkeypatch):
        built = []
        fresh = cli.build_problem
        monkeypatch.setattr(cli, "build_problem", lambda spec: built.append(spec) or fresh(spec))
        kwargs = dict(self.sweep_kwargs(), kappa_g_grid=[2.0, 10.0])
        run_sweep(**kwargs)
        assert [spec["kappa_g"] for spec in built] == [2.0, 10.0]
        results, _ = run_sweep(**kwargs)
        assert len(built) == 4  # a second sweep builds again: nothing is retained
        assert cli._sweep_memo == {}
        # Every cell equals a run on a freshly built problem.
        noise = build_noise(None)
        for res in results:
            cell = res["cell"]
            problem = fresh(quad_spec(kappa_g=cell["kappa_g"]))
            config = build_config(problem, res["method"], {"T": cell["T"], "N": cell["N"], "K": 60}, noise)
            record = run_single(problem, res["method"], config, res["seed"], noise,
                                stop=make_stop_rule(None, None))
            assert [cli._metric_values(r) for r in record.rows] == res["rows"]

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
    "sweep-kappa-one-dimension": (None, {
        "problem": {"dx": 4, "dy": 1},
        "sweep": {"methods": ["amigo-gd"], "kappa_g": [1.0, 10.0], "T": [1], "N": [1], "K": 3},
    }, "d=1 cannot attain two distinct spectrum endpoints"),
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


def test_readme_config_table_mirrors_schema():
    """README's Config schema table lists exactly SCHEMA's keys, section by section."""
    table = README.read_text().split("### Config schema")[1].split("\n### ")[0]
    listed, section = {}, None
    for line in table.splitlines():
        if not line.startswith("|") or line.startswith(("| section ", "|---")):
            continue
        first, second = line.split("|")[1:3]
        if first.strip():
            family = re.fullmatch(r"`problem` \((\w+)\)", first.strip())
            section = f"{family[1]} problem" if family else first.strip().strip("`").replace(" ", "-")
        listed.setdefault(section, set()).update(re.findall(r"`([^`]+)`", second))
    assert listed == {name: set(keys) for name, keys in SCHEMA.items()}


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


def test_cli_import_loads_numpy_only():
    """numpy is the only runtime dependency: importing the CLI loads no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, amigo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_all_lists_exactly_the_names_it_binds():
    """The package's import list and __all__ cannot drift apart."""
    import types

    import amigo

    bound = {name for name, value in vars(amigo).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(amigo.__all__) == bound
