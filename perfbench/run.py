#!/usr/bin/env python3
"""Benchmark of the amigo harness, end to end and layer by layer.

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

The package is imported from the checkout's ``src``; outputs, spans and
reports go under ``.perfbench_run/`` at the checkout root, and nowhere else.

``--trace 0`` reports the end-to-end metrics of the workload.  ``--trace 1``
runs it once untraced and once traced and reports the per-layer metrics,
plus ``trace.overhead_s``, the traced minus the untraced wall time.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.

This parent process imports neither numpy nor amigo.  Set-up is timed in
fresh processes and the run phase runs in a process of its own, one
process at a time, so peak RSS belongs to the workload alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, fixed before numpy can load in any process started here:
# on a small shared box more threads measure the scheduler, and CG stopping
# depends on the reduction order (an amigo-cg large cell's oracle total
# moves with the thread count).
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
DEADLINE_S = 175.0
# Set-up is sampled in these fresh processes plus once at the start of the
# run-phase process; setup_s is the median of the samples.
SETUP_PROBES = 2


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Child processes: set-up probe and run phase.


def _check_amigo_from_checkout() -> None:
    import amigo

    if SRC.resolve() not in Path(amigo.__file__).resolve().parents:
        raise RuntimeError(f"imported amigo from {amigo.__file__}, not from {SRC}")


def time_setup(setup: dict) -> float:
    """Import amigo, build the first problem, its constants and schedule."""
    t0 = time.perf_counter()
    import amigo.cli as cli

    problem = cli.build_problem(setup["problem"])
    cli.build_config(problem, setup["method"], setup["solver"], cli.build_noise(setup["noise"]))
    return time.perf_counter() - t0


class FailureRecorder:
    """Keeps the exception a subcommand raised before ``main`` turns it into an exit code."""

    def __init__(self, cli):
        self.error: BaseException | None = None
        self._cli = cli
        self._originals = {name: getattr(cli, name) for name in ("cmd_run", "cmd_sweep")}
        for name, fn in self._originals.items():
            setattr(cli, name, self._recording(fn))

    def _recording(self, fn):
        def recorded(args):
            try:
                return fn(args)
            except Exception as exc:
                self.error = exc
                raise

        return recorded

    def remove(self) -> None:
        for name, fn in self._originals.items():
            setattr(self._cli, name, fn)


def invoke(call, argv, recorder, divergence_error) -> dict | None:
    """One entry-point call; returns a failure record, or None for a result.

    A run that diverges is a result: the entry point reports it as one.
    """
    recorder.error = None
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(argv)
    except divergence_error:
        return None
    except SystemExit as exc:
        return {"exit_code": exc.code, "type": "SystemExit", "message": err.getvalue().strip()}
    except Exception as exc:
        return {"exit_code": None, "type": type(exc).__name__, "message": str(exc),
                "traceback": traceback.format_exc()}
    if code == 0:
        return None
    error = recorder.error
    return {"exit_code": code,
            "type": type(error).__name__ if error is not None else None,
            "message": str(error) if error is not None else err.getvalue().strip()}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    lines = 0
    for path in sorted((SRC / "amigo").glob("*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "src_amigo_lines": lines,
    }


def child_setup(args) -> dict:
    from workloads import WORKLOADS

    plan = WORKLOADS[args.workload].plan(args.seed, str(args.workdir))
    return {"setup_s": time_setup(plan.setup)}


def child_phase(args) -> dict:
    """Set-up sample, then whole passes of the workload, then the checks.

    In the ``untraced`` mode passes repeat while the next one is expected to
    end within ``--seconds`` (at least one); wall_s is their median.  The
    ``baseline`` and ``traced`` modes make exactly one pass, so the
    per-layer counts describe one workload pass and the two walls compare.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed, str(args.workdir))
    setup_s = time_setup(plan.setup)
    _check_amigo_from_checkout()
    import amigo.cli as cli
    from amigo.inner import DivergenceError

    recorder = FailureRecorder(cli)
    tracer = None
    call = cli.main
    if args.child == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.span(cli.main, "cli.main", "cli")
    walls, digests = [], []
    failures: dict[str, dict] = {}
    start = time.perf_counter()
    try:
        while True:
            plan.clear_outputs()
            t0 = time.perf_counter()
            for inv in plan.invocations:
                if tracer is not None:
                    tracer.run_id = inv.name
                failure = invoke(call, inv.argv, recorder, DivergenceError)
                if failure is not None:
                    failures[inv.name] = dict(failure, invocation=inv.name)
            walls.append(time.perf_counter() - t0)
            digests.append(_digest(inv.out for inv in plan.invocations))
            elapsed = time.perf_counter() - start
            if args.child != "untraced" or elapsed + statistics.median(walls) > args.seconds:
                break
    finally:
        recorder.remove()
        if tracer is not None:
            tracer.unpatch()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    oracle_calls, checks, notes = workload.evaluate(plan, set(failures))
    checks.append({"name": "every pass emits byte-identical CSVs",
                   "passed": len(set(digests)) == 1, "detail": f"{len(walls)} passes"})
    result = {
        "walls": walls,
        "digest": digests[0],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "oracle_calls": oracle_calls,
        # Counted per invocation, not per pass, so the pass count cannot move them.
        "attempted": len(plan.invocations),
        "failed": len(failures),
        "failures": list(failures.values()),
        "checks": checks,
        "notes": notes,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.workdir / "spans.csv")
        tracer.write_totals(args.workdir / "span_totals.csv")
    return result


# ---------------------------------------------------------------------------
# Parent: orchestration and report.


class ChildError(RuntimeError):
    pass


def run_child(mode: str, args, workdir: Path, deadline: float) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    """Run one workload in child processes and assemble its report."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = RUN_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units()
    if args.trace:
        plain = run_child("baseline", args, workdir / "baseline", deadline)
        run = run_child("traced", args, workdir / "traced", deadline)
        values = dict(run["layers"])
        values["trace.overhead_s"] = run["walls"][0] - plain["walls"][0]
        checks = run["checks"] + [dict(c, name="baseline: " + c["name"])
                                   for c in plain["checks"] if not c["passed"]]
        checks.append({"name": "traced and untraced passes emit byte-identical CSVs",
                       "passed": run["digest"] == plain["digest"], "detail": ""})
    else:
        setups = [run_child("setup", args, workdir / "probe", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run = run_child("untraced", args, workdir / "untraced", deadline)
        setups.append(run["setup_s"])
        values = {
            "wall_s": statistics.median(run["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "oracle_calls": run["oracle_calls"],
        }
        checks = run["checks"]
        run["setup_samples"] = setups
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = all(c["passed"] for c in checks)
    report = dict(run, workload=args.workload, seed=args.seed, trace=args.trace, checks=checks,
                  correct=correct, metrics=metrics)
    with open(workdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"== {report['workload']}  seed={report['seed']}  trace={report['trace']}  "
          f"passes={len(report['walls'])}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_share':32s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} invocations)")
    for check in report["checks"]:
        print(f"  check {'PASS' if check['passed'] else 'FAIL'}: {check['name']}  {check['detail']}")
    for failure in report["failures"]:
        print(f"  failed {failure['invocation']}: exit {failure['exit_code']}, "
              f"{failure['type']}: {failure['message']}")
    for key, value in report["notes"].items():
        print(f"  note {key}: {json.dumps(value)}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"] if report["correct"] else {},
    })


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces c06")
    parser.add_argument("--seconds", type=float, default=20.0, help="run-phase time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "untraced", "baseline", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amigo" / "__init__.py").is_file():
        print(f"error: no amigo package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(SRC))
        child = child_setup if args.child == "setup" else child_phase
        print(json.dumps(child(args)))
        return 0
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            report = measure(argparse.Namespace(**dict(vars(args), workload=name)))
        except ChildError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print_report(report)
        print(result_line(report))
        ok = ok and report["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
