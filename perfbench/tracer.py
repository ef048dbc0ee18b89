"""In-memory spans around the functions each mfgtorus module calls into.

`install` replaces a name in the namespace of the module that looks it up at
call time (`mfgtorus.solver.spsolve`, `mfgtorus.cli.load_config`, ...), so
nothing under src/ changes.  A span is [name, start, end, parent, op, attrs]:
`parent` indexes the enclosing span (-1 at top level) and `op` is the id of the
CLI operation it belongs to.  `layer_metrics` turns the spans into the
per-layer metrics; every time there is self time, the span's duration minus
the spans nested directly in it.  `span_cost` times the wrapper itself, which
gives the tracing overhead of a pass as its span count times that cost.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter, defaultdict

OP_SPAN = "cli.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return fn recording one span per call; attrs(args, result, error) -> dict."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = clock()
                stack.pop()
                if attrs is not None:
                    span[5] = attrs(args, None, err)
                raise
            span[2] = clock()
            stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result, None)
            return result

        return traced

    def run_op(self, op_id: str, fn, *args):
        self.op = op_id
        try:
            return self.wrap(OP_SPAN, fn)(*args)
        finally:
            self.op = None


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a call of a no-op, best of `repeats`."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)


def _newton_attrs(args, result, err):
    report = result[1] if result is not None else getattr(err, "report", None)
    if report is None:
        return {"iterations": 0, "damping": []}
    return {"iterations": report.iterations, "damping": list(report.damping_history)}


def _continuation_attrs(args, result, err):
    trace = result[1] if result is not None else getattr(err, "trace", None)
    if trace is None:
        return {"steps": 0, "failures": 0}
    return {"steps": len(trace.steps), "failures": len(trace.failures)}


def _nnz_attrs(args, result, err):
    return {"nnz": int(result.matrix.nnz) if result is not None else 0}


def _file_attrs(path_index):
    def attrs(args, result, err):
        path = args[path_index]
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0,
                "trace": os.path.basename(str(path)) == "trace.json"}
    return attrs


class _ModuleView:
    """A module seen through some wrapped attributes; everything else is the module's own."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI commands cross."""
    from mfgtorus import cli, diagnostics, linearization, solver, verification

    w = tracer.wrap
    cli.load_config = w("config.load", cli.load_config)
    cli.continuation_solve = w("solver.continuation", cli.continuation_solve, _continuation_attrs)
    cli.convergence_study = w("verification.study", cli.convergence_study)
    cli.save_field = w("grid.io", cli.save_field, _file_attrs(1))
    cli.load_field = w("grid.io", cli.load_field, _file_attrs(0))
    cli._write_json = w("cli.json", cli._write_json, _file_attrs(0))
    # the verify command reaches the certificates through `cli.diag`; the
    # snapshots inside the solver reach the same functions directly
    checks = ("mass_positivity_check", "sup_bound_check", "inverse_moment",
              "cancellation_check", "moment_identity_check")
    cli.diag = _ModuleView(diagnostics, {c: w("diagnostics.verify", getattr(diagnostics, c)) for c in checks})

    newton = w("solver.newton", solver.newton_solve, _newton_attrs)
    solver.newton_solve = newton
    verification.newton_solve = newton
    verification.mms_source = w("verification.mms_source", verification.mms_source)
    solver.assemble_jacobian = w("linearization.assemble", solver.assemble_jacobian, _nnz_attrs)
    solver.spsolve = w("solver.linear_solve", solver.spsolve)
    solver.lsqr = w("solver.linear_solve.fallback", solver.lsqr)
    solver.make_snapshot = w("diagnostics.snapshot", solver.make_snapshot)
    for module in (solver, linearization, diagnostics):
        module.residual = w("problem.residual", module.residual)


# counts of work, which must repeat exactly between two runs, whatever their seeds
EXACT_COUNTS = (
    "solver.linear_solve.calls",
    "solver.linear_solve.fallbacks",
    "solver.newton.iterations",
    "solver.newton.calls",
    "linearization.assemble.calls",
    "linearization.assemble.matrix_nnz",
    "problem.residual.calls",
    "problem.residual.trial_calls",
    "problem.residual.assembly_calls",
    "solver.line_search.halvings",
    "solver.continuation.steps",
    "solver.continuation.failures",
    "diagnostics.snapshot.calls",
    "trace.spans",
)

# sizes of written files, which repeat exactly between two runs of one seed; a
# seed's shift changes the digits of the numbers written, and so the byte count
SAME_SEED_COUNTS = (
    "grid.io.bytes",
    "cli.trace_bytes",
)


def _ratio(num: float, den: float) -> float:
    """num / den; 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(spans: list[list], traced_wall: float, untraced_wall: float,
                  span_cost_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    traced_wall and untraced_wall are the pass times the worker measured around
    its `cli.main` calls, with and without tracing.
    """
    nested = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            nested[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        self_s[name] += end - start - nested[i]
        calls[name] += 1

    sums: Counter = Counter()
    newton_seen: set[int] = set()
    for name, _, _, parent, _, attrs in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "solver.newton":
            sums["iterations"] += attrs["iterations"]
            sums["halvings"] += sum(round(-math.log2(t)) for t in attrs["damping"])
        elif name == "solver.continuation":
            sums["steps"] += attrs["steps"]
            sums["failures"] += attrs["failures"]
        elif name == "linearization.assemble":
            sums["nnz"] += attrs["nnz"]
        elif name == "grid.io":
            sums["io_bytes"] += attrs["bytes"]
        elif name == "cli.json" and attrs["trace"]:
            sums["trace_bytes"] += attrs["bytes"]
        elif name == "problem.residual":
            if parent_name == "linearization.assemble":
                sums["assembly_calls"] += 1
            elif parent_name == "solver.newton":
                # the first evaluation in each Newton call is its starting residual
                if parent in newton_seen:
                    sums["trial_calls"] += 1
                newton_seen.add(parent)

    linear_s = self_s["solver.linear_solve"] + self_s["solver.linear_solve.fallback"]
    layer_self = sum(v for k, v in self_s.items() if k != OP_SPAN)
    steps, failures = sums["steps"], sums["failures"]
    return {
        "solver.linear_solve.s": linear_s,
        "solver.linear_solve.calls": calls["solver.linear_solve"] + calls["solver.linear_solve.fallback"],
        "solver.linear_solve.fallbacks": calls["solver.linear_solve.fallback"],
        "solver.linear_solve.share": _ratio(linear_s, traced_wall),
        "solver.newton.self_s": self_s["solver.newton"],
        "solver.newton.iterations": sums["iterations"],
        "solver.newton.calls": calls["solver.newton"],
        "linearization.assemble.self_s": self_s["linearization.assemble"],
        "linearization.assemble.calls": calls["linearization.assemble"],
        "linearization.assemble.matrix_nnz": sums["nnz"],
        "problem.residual.self_s": self_s["problem.residual"],
        "problem.residual.calls": calls["problem.residual"],
        "problem.residual.trial_calls": sums["trial_calls"],
        "problem.residual.assembly_calls": sums["assembly_calls"],
        "assemble_residual.share": _ratio(
            self_s["linearization.assemble"] + self_s["problem.residual"], traced_wall),
        "solver.line_search.halvings": sums["halvings"],
        "solver.line_search.accept_ratio": _ratio(sums["iterations"], sums["trial_calls"]),
        "solver.continuation.steps": steps,
        "solver.continuation.failures": failures,
        "solver.continuation.accept_ratio": _ratio(steps, steps + failures),
        "diagnostics.snapshot.s": self_s["diagnostics.snapshot"],
        "diagnostics.snapshot.calls": calls["diagnostics.snapshot"],
        "diagnostics.verify.s": self_s["diagnostics.verify"],
        "verification.mms_source.s": self_s["verification.mms_source"],
        "verification.study.s": self_s["verification.study"],
        "grid.io.s": self_s["grid.io"],
        "grid.io.bytes": sums["io_bytes"],
        "cli.json.s": self_s["cli.json"],
        "cli.trace_bytes": sums["trace_bytes"],
        "config.load.s": self_s["config.load"],
        "trace.wall_s": traced_wall,
        "trace.layer_self_s": layer_self,
        "trace.spans": len(spans),
        "trace.overhead_s": len(spans) * span_cost_s,
        "trace.traced_minus_untraced_s": traced_wall - untraced_wall,
    }
