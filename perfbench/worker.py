"""Single-threaded worker processes of a benchmark workload.

    python3 worker.py JOB.json setup
    python3 worker.py JOB.json serve WORKDIR LOG [--trace]

`setup` runs the job's first operation through `mfgtorus.cli.main` up to its
first solver call, prints `ready` and exits; the parent times that as one cold
start.

`serve` imports mfgtorus once, prints `ready`, then runs one pass for each line
`pass I` it reads on stdin and answers `done I`.  A pass runs every operation
of the job in order inside WORKDIR/passI, timing each `cli.main` call, then
reads the outputs back and writes WORKDIR/passI.json: timings, exit codes, peak
memory so far, the environment, and the observables the gates check, with the
seed's shift rolled back.  With --trace every pass is traced and its spans go
to WORKDIR/spansI.json.  The commands' own output goes to LOG.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _setup(ops: list[dict]) -> None:
    from mfgtorus import cli, verification

    def first_solver_call(*args, **kwargs):
        print("ready", flush=True)
        os._exit(0)

    cli.continuation_solve = first_solver_call
    verification.newton_solve = first_solver_call
    cli.main(ops[0]["argv"])
    raise SystemExit(f"{ops[0]['id']} finished without calling the solver")


def _run(ops: list[dict], tracer) -> list[dict]:
    from mfgtorus import cli

    timings = []
    for op in ops:
        start = time.perf_counter()
        try:
            rc = tracer.run_op(op["id"], cli.main, op["argv"]) if tracer else cli.main(op["argv"])
        except Exception as err:  # an uncaught error fails the operation, not the pass
            print(f"{op['id']}: {type(err).__name__}: {err}", file=sys.stderr)
            rc = -1
        timings.append({"id": op["id"], "rc": rc, "s": time.perf_counter() - start})
    return timings


def _sampled(path: Path, op: dict) -> list[float]:
    """The field on the 16-point lattice of each axis, rolled back to the unshifted problem."""
    import numpy as np

    n, dim = op["n"], op["dim"]
    values = np.loadtxt(path, delimiter=",", comments="#", ndmin=1).reshape((n,) * dim)
    step = n // 16
    for axis, k in enumerate(op["shift"]):
        values = np.roll(values, k * step, axis=axis)
    return values[(slice(None, None, step),) * dim].ravel().tolist()


def _observe(op: dict, rc: int) -> dict:
    out = Path(op["out"])
    obs = {"rc": rc}
    if op["kind"] == "solve":
        if (out / "trace.json").exists():
            trace = json.loads((out / "trace.json").read_text())
            tol = json.loads((out / "resolved_config.json").read_text())["solver"]["tol_residual"]
            obs.update(reached_lambda=trace["reached_lambda"], success=trace["success"],
                       final_residual=trace["steps"][-1]["newton"]["residual_history"][-1], tol=tol)
        if (out / "u.csv").exists() and (out / "m.csv").exists():
            obs.update(u=_sampled(out / "u.csv", op), m=_sampled(out / "m.csv", op))
    elif op["kind"] == "verify":
        if (out / "diagnostics.json").exists():
            rows = json.loads((out / "diagnostics.json").read_text())["states"][0]["checks"]
            obs["rows"] = [{"tag": r["check"] + ("" if r["r"] is None else f"[r={r['r']:g}]"),
                            "value": r["value"], "passed": r["passed"]} for r in rows]
    elif op["kind"] == "mms":
        if (out / "rates.csv").exists():
            with open(out / "rates.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            obs["error_u"] = [float(r["error_u"]) for r in rows]
            obs["error_m"] = [float(r["error_m"]) for r in rows]
            # the observed order as `mms` prints it: the mean of the successive rates
            for key in ("rate_u", "rate_m"):
                rates = [float(r[key]) for r in rows if r[key] not in ("", "exact")]
                obs["order_" + key[-1]] = sum(rates) / len(rates) if rates else None
    elif op["kind"] == "sweep":
        if (out / "sweep.csv").exists():
            with open(out / "sweep.csv", newline="") as fh:
                obs["cells"] = [{"alpha": float(r["alpha"]), "kappa": float(r["kappa"]),
                                 "drift_scale": float(r["drift_scale"]), "success": r["success"] == "True",
                                 "min_m": float(r["min_m"]), "sup_u": float(r["sup_u"])}
                                for r in csv.DictReader(fh)]
    return obs


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _serve(ops: list[dict], workdir: Path, log: str, traced: bool) -> None:
    import mfgtorus.cli  # noqa: F401  (imported before the first pass, as a resident process would)

    tracer, span_cost_s = None, 0.0
    if traced:
        import tracer as tracing

        span_cost_s = tracing.span_cost()
        tracer = tracing.Tracer()
        tracing.install(tracer)
    env = _environment()
    # the protocol keeps the original stdout; the commands print into the log
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    log_fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    print("ready", file=proto)
    for line in sys.stdin:
        index = int(line.split()[1])
        started = time.perf_counter()
        pass_dir = workdir / f"pass{index}"
        pass_dir.mkdir()
        os.chdir(pass_dir)
        timings = _run(ops, tracer)
        result = {
            "timings": timings,
            "wall_s": sum(t["s"] for t in timings),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "observables": {op["id"]: _observe(op, t["rc"]) for op, t in zip(ops, timings)},
            "env": env,
            "span_cost_s": span_cost_s,
        }
        os.chdir(workdir)
        shutil.rmtree(pass_dir)
        if tracer:
            (workdir / f"spans{index}.json").write_text(json.dumps(tracer.spans))
            tracer.spans.clear()
        result["elapsed_s"] = time.perf_counter() - started  # the pass with its output checks
        (workdir / f"pass{index}.json").write_text(json.dumps(result))
        print(f"done {index}", file=proto)


def main(argv: list[str]) -> None:
    ops = json.loads(Path(argv[0]).read_text())
    if argv[1] == "setup":
        _setup(ops)
    else:
        _serve(ops, Path(argv[2]), argv[3], traced="--trace" in argv[4:])


if __name__ == "__main__":
    main(sys.argv[1:])
