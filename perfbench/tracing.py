"""Span tracing for the benchmark's traced run.

Timing wrappers are installed from the benchmark's side, on the attributes
through which callers look each layer's public functions up, and removed
again when the traced run ends; nothing in ``src/amigo`` changes.  No
profiler is used: cProfile charges every Python call, which distorts these
call-bound loops.

Each wrapped call opens a span.  On exit the span's duration is added to
the child time of the span that encloses it, so self time (duration minus
the time covered by child spans) is derived as the run goes.  Coarse spans
(entry points, problem builds, drivers, solvers, hypergradients, emission)
are kept in memory as ``(id, name, start, end, parent id, run id)`` and
written out when the run ends.  Oracle queries, metric rows and stop-rule
calls number in the millions per workload, so they are folded into
per-name totals (calls, time, self time) instead of being kept one by one.
"""

from __future__ import annotations

import csv
import time

ORACLE_METHODS = ("grad_fx", "grad_fy", "grad_f", "grad_gy", "hvp_gyy", "jvp_gxy")
QUERY_STREAMS = ("grad_gy", "hvp_gyy", "jvp_gxy", "grad_f")
PROBLEM_CLASSES = ("QuadraticProblem", "NonconvexOuterProblem", "RidgeHPOProblem")
INNER_SPANS = {
    "solve_inner_sgd": "inner.sgd",
    "solve_linear_sgd": "inner.linear.sgd",
    "solve_linear_neumann": "inner.linear.neumann",
    "solve_linear_cg": "inner.linear.cg",
}
LINEAR_SPANS = ("inner.linear.sgd", "inner.linear.neumann", "inner.linear.cg")
FLOAT64_BYTES = 8


def kernel_bytes(method: str, dx: int, dy: int) -> int:
    """Bytes one quadratic-family query reads and writes, from array shapes.

    Matrix operands plus input and output vectors; temporaries are not
    counted, so this is computed traffic, not measured traffic.
    """
    elements = {
        "grad_fx": dx * dx + 2 * dx,
        "grad_fy": 2 * dy,
        "grad_gy": dy * dy + dy * dx + 2 * dy + dx,
        "hvp_gyy": dy * dy + 2 * dy,
        "jvp_gxy": dy * dx + dy + dx,
    }[method]
    return FLOAT64_BYTES * elements


class Stat:
    """Totals of one span name.

    ``top_*`` cover the calls whose enclosing span belongs to another layer,
    which is the time the layer as a whole was busy.
    """

    __slots__ = ("layer", "calls", "total", "self_s", "top_calls", "top_total", "extra")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.top_calls = 0
        self.top_total = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """In-memory spans and per-name totals, with the wrappers that feed them."""

    def __init__(self):
        self.clock = time.perf_counter
        # Frames are [child seconds, layer, span id]; the root frame has no layer.
        self.stack: list[list] = [[0.0, None, -1]]
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple | None] = []
        self.run_id = ""
        self.dims: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, bool, object]] = []

    def stat(self, name: str, layer: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(layer)
        return self.stats[name]

    def leaf(self, fn, name: str, layer: str):
        """Wrapper that folds each call into the totals of ``name``."""
        stat = self.stat(name, layer)
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            frame = [0.0, layer, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_s += dur - frame[0]
                if parent[1] != layer:
                    stat.top_calls += 1
                    stat.top_total += dur

        return traced

    def span(self, fn, name: str, layer: str, hook=None):
        """Wrapper that keeps each call as a span; ``hook`` sees its outcome."""
        stat = self.stat(name, layer)
        stack, clock, spans = self.stack, self.clock, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)
            frame = [0.0, layer, span_id]
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                spans[span_id] = (span_id, name, t0, t1, parent[2], self.run_id)
                stat.calls += 1
                stat.total += dur
                stat.self_s += dur - frame[0]
                if parent[1] != layer:
                    stat.top_calls += 1
                    stat.top_total += dur
                if hook is not None:
                    hook(stat, args, kwargs, result, error)

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, owned, original = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap every layer's public functions where the program looks them up."""
        import amigo.cli as cli
        import amigo.metrics as metrics
        import amigo.outer as outer
        import amigo.problems as problems
        from amigo.inner import DivergenceError

        def on_build(stat, args, kwargs, result, error):
            if result is not None:
                self.dims.add((result.dims.dx, result.dims.dy))

        def on_emit(stat, args, kwargs, result, error):
            if result is not None:
                stat.add("bytes", len(result.encode()))

        def on_driver(stat, args, kwargs, result, error):
            if result is not None:
                stat.add("steps", result.iterations_run)
            elif isinstance(error, DivergenceError) and error.outer_iteration is not None:
                stat.add("steps", error.outer_iteration)

        def on_inner(stat, args, kwargs, result, error):
            if result is not None:
                stat.add("steps", result.iterations_used)
            elif isinstance(error, DivergenceError):
                stat.add("divergences", 1)

        def on_itd(stat, args, kwargs, result, error):
            # itd_hypergradient(oracle, x, y0, alpha, T): the tape holds T inner iterates.
            y0 = args[2] if len(args) > 2 else kwargs["y0"]
            T = args[4] if len(args) > 4 else kwargs["T"]
            stat.add("steps", T)
            tape = T * len(y0) * FLOAT64_BYTES
            stat.extra["tape_bytes_peak"] = max(stat.extra.get("tape_bytes_peak", 0), tape)

        def traced_stop_rule(make_stop_rule):
            def make(*args, **kwargs):
                return self.leaf(make_stop_rule(*args, **kwargs), "cli.stop", "cli")

            return make

        self.patch(cli, "build_problem",
                   self.span(cli.build_problem, "problems.build", "problems", on_build))
        self.patch(cli, "build_config", self.span(cli.build_config, "problems.config", "problems"))
        for name in ("rows_to_csv", "sweep_results_to_csv"):
            self.patch(cli, name, self.span(getattr(cli, name), "cli.emit", "cli", on_emit))
        self.patch(cli, "make_stop_rule", traced_stop_rule(cli.make_stop_rule))
        for name in ("aid_run", "itd_run"):
            self.patch(cli, name, self.span(getattr(cli, name), f"outer.{name}", "outer", on_driver))
        for name, span_name in INNER_SPANS.items():
            self.patch(outer, name, self.span(getattr(outer, name), span_name, "inner", on_inner))
        self.patch(outer, "itd_hypergradient",
                   self.span(outer.itd_hypergradient, "hypergrad.itd", "hypergrad", on_itd))
        self.patch(metrics.MetricsTracker, "row",
                   self.leaf(metrics.MetricsTracker.row, "metrics.row", "metrics"))
        for cls_name in PROBLEM_CLASSES + ("StochasticOracle",):
            cls = getattr(problems, cls_name)
            for method in ORACLE_METHODS:
                self.patch(cls, method,
                           self.leaf(getattr(cls, method), f"{cls_name}.{method}", "oracle"))

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "run_id"))
            writer.writerows(s for s in self.spans if s is not None)

    def write_totals(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "layer", "calls", "total_s", "self_s", "top_calls", "top_total_s"))
            for name, s in sorted(self.stats.items()):
                writer.writerow((name, s.layer, s.calls, s.total, s.self_s, s.top_calls, s.top_total))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the totals; a layer with no work reports 0."""

        def get(name):
            return self.stats.get(name) or Stat("")

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def group(names):
            return [get(n) for n in names]

        m: dict[str, float] = {}
        build, config = get("problems.build"), get("problems.config")
        m["problems.build_s"] = build.total
        m["problems.builds"] = build.calls
        m["problems.constants_s"] = config.total

        oracle = {n: s for n, s in self.stats.items() if s.layer == "oracle"}
        for q in QUERY_STREAMS:
            top = [s for n, s in oracle.items() if n.endswith("." + q)]
            calls = sum(s.top_calls for s in top)
            m[f"oracle.{q}.us"] = ratio(sum(s.top_total for s in top), calls, 1e6)
            m[f"oracle.{q}.calls"] = calls
        m["oracle.busy_s"] = sum(s.top_total for s in oracle.values())
        if len(self.dims) > 1:
            raise RuntimeError(f"one workload built problems of several sizes: {sorted(self.dims)}")
        (dx, dy), = self.dims or {(0, 0)}
        kernels = [(n.split(".")[1], s) for n, s in oracle.items()
                   if n.split(".")[0] in PROBLEM_CLASSES and not n.endswith(".grad_f")]
        computed = sum(s.calls * kernel_bytes(method, dx, dy) for method, s in kernels)
        m["oracle.bytes_computed"] = computed
        m["oracle.gbps_computed"] = ratio(computed, sum(s.total for _, s in kernels), 1e-9)
        noisy = [s for n, s in oracle.items() if n.startswith("StochasticOracle.")]
        m["oracle.noise.us"] = ratio(sum(s.self_s for s in noisy), sum(s.calls for s in noisy), 1e6)

        sgd = get("inner.sgd")
        sgd_steps = sgd.extra.get("steps", 0)
        m["inner.sgd.busy_s"] = sgd.total
        m["inner.sgd.steps"] = sgd_steps
        m["inner.sgd.self_us_per_step"] = ratio(sgd.self_s, sgd_steps, 1e6)
        linear = group(LINEAR_SPANS)
        linear_steps = sum(s.extra.get("steps", 0) for s in linear)
        m["inner.linear.busy_s"] = sum(s.total for s in linear)
        m["inner.linear.steps"] = linear_steps
        m["inner.linear.self_us_per_step"] = ratio(sum(s.self_s for s in linear), linear_steps, 1e6)
        cg = get("inner.linear.cg")
        m["inner.cg.solves"] = cg.calls
        m["inner.cg.iters_per_solve"] = ratio(cg.extra.get("steps", 0), cg.calls)
        m["inner.divergences"] = sum(s.extra.get("divergences", 0) for s in [sgd] + linear)

        itd = get("hypergrad.itd")
        unroll = itd.extra.get("steps", 0)
        m["hypergrad.busy_s"] = itd.total
        m["hypergrad.unroll_steps"] = unroll
        m["hypergrad.self_us_per_step"] = ratio(itd.self_s, unroll, 1e6)
        m["hypergrad.tape_bytes_peak"] = itd.extra.get("tape_bytes_peak", 0)

        drivers = group(("outer.aid_run", "outer.itd_run"))
        outer_steps = sum(s.extra.get("steps", 0) for s in drivers)
        m["outer.steps"] = outer_steps
        m["outer.self_us_per_step"] = ratio(sum(s.self_s for s in drivers), outer_steps, 1e6)

        row = get("metrics.row")
        m["metrics.rows"] = row.calls
        m["metrics.row.us"] = ratio(row.total, row.calls, 1e6)
        m["metrics.busy_s"] = row.total

        emit = get("cli.emit")
        m["cli.cells"] = sum(s.calls for s in drivers)
        m["cli.self_s"] = get("cli.main").self_s + get("cli.stop").total
        m["cli.emit_s"] = emit.total
        m["cli.emit_bytes"] = emit.extra.get("bytes", 0)
        return m
