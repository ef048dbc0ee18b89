"""Benchmark runner for mfgtorus: one workload, one seed, one result line.

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every operation goes through the public
entry point `mfgtorus.cli.main`, in a resident worker process pinned to one
BLAS thread (see worker.py); sweeps run with `--jobs 1`.  A pass is the
workload's fixed list of operations, run in order, each after the previous one
returned.  Passes repeat while --seconds last; a pass starts only if it should
end in time, and the first always runs.  Only one process works at a time.

--trace 0: before each pass, fresh interpreters time two cold starts, each
followed by a host-speed probe (PROBE), until there are twelve of each; the
rest follow the last pass (after one discarded warm-up of each).  Prints
wall_s (the median pass) and setup_s (the median cold start), both scaled to
the reference host speed, then peak_rss_mb and passed_frac.
--trace 1: an untraced and a traced worker take turns; prints the per-layer
metrics of the median traced pass (tracer.py), the tracing overhead included.

Metric names and units come from BENCHMARK.json.  The last line of stdout is
the JSON result; the environment, the cold starts and the per-pass timings go
to stderr.  Exits 1 without a result when the checkout has no mfgtorus sources
or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
COLD_STARTS = 12
COLD_PER_PASS = 2
WORKER_TIMEOUT_S = 170

# The host-speed probe: a fresh interpreter importing what mfgtorus builds on,
# and none of mfgtorus.  PROBE_REFERENCE_S is its time at the reference host
# speed, at which wall_s and setup_s are reported.
PROBE = "import numpy, scipy.sparse, scipy.sparse.linalg; print('ready', flush=True)"
PROBE_REFERENCE_S = 0.35

# one BLAS thread, no worker pool, a fixed hash seed: the run is a single thread of work
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    pass


def _worker_cmd(job: Path, *args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), str(job), *map(str, args)]


def _time_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning cmd to the line `ready` on its stdout."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=WORKER_ENV, cwd=WORK) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    if not ready or proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode} before it was ready")
    return elapsed


def cold_start(job: Path) -> float:
    """Seconds from spawning a fresh interpreter to the first solver call of the first operation."""
    return _time_to_ready(_worker_cmd(job, "setup"))


def probe() -> float:
    """Seconds the host-speed probe takes now."""
    return _time_to_ready([sys.executable, "-c", PROBE])


class Worker:
    """A resident `worker.py serve` process; `run_pass` blocks until its pass is done."""

    def __init__(self, job: Path, name: str, traced: bool = False):
        self.dir = WORK / name
        self.dir.mkdir()
        self.log = WORK / f"{name}.log"
        cmd = _worker_cmd(job, "serve", self.dir, self.log, *(["--trace"] if traced else []))
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=WORKER_ENV, cwd=WORK)
        self._expect("ready")

    def _expect(self, line: str) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT_S)
        got = self.proc.stdout.readline().strip() if ready else "(timed out)"
        if got != line:
            tail = self.log.read_text()[-2000:] if self.log.exists() else ""
            raise BenchError(f"worker answered {got!r} instead of {line!r}:\n{tail}")

    def run_pass(self, index: int) -> tuple[dict, list | None]:
        try:
            self.proc.stdin.write(f"pass {index}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has exited; _expect reports its log
        self._expect(f"done {index}")
        spans = self.dir / f"spans{index}.json"
        result = json.loads((self.dir / f"pass{index}.json").read_text())
        return result, (json.loads(spans.read_text()) if spans.exists() else None)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                exc_type = BenchError
        if exc_type is not None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list, list, dict]:
    ops = workloads.build(workload, seed, WORK)
    job = WORK / "job.json"
    job.write_text(json.dumps(ops))

    metrics: dict[str, float] = {}
    info: dict = {}
    passes: list[dict] = []
    start = time.perf_counter()

    def fits(next_cost: float) -> bool:
        return time.perf_counter() - start + next_cost <= seconds

    if trace:
        plain, traced = [], []
        with Worker(job, "plain") as untraced_worker, Worker(job, "traced", traced=True) as traced_worker:
            while not traced or fits(min(p["elapsed_s"] for p in plain) + min(p[0]["elapsed_s"] for p in traced)):
                plain.append(untraced_worker.run_pass(len(plain) + len(traced))[0])
                traced.append(traced_worker.run_pass(len(plain) + len(traced)))
        middle, spans = sorted(traced, key=lambda p: p[0]["wall_s"])[(len(traced) - 1) // 2]
        metrics.update(tracer.layer_metrics(spans, middle["wall_s"], statistics.median_low(p["wall_s"] for p in plain),
                                            middle["span_cost_s"]))
        passes = plain + [p for p, _ in traced]
    else:
        cold_start(job)  # warm-up: byte-compiles the sources in a fresh checkout
        probe()
        samples: list[float] = []
        probes: list[float] = []

        def sample() -> None:
            samples.append(cold_start(job))
            probes.append(probe())

        with Worker(job, "plain") as worker:
            while not passes or fits(min(p["elapsed_s"] for p in passes) + min(
                    COLD_PER_PASS, COLD_STARTS - len(samples)) * (min(samples) + min(probes))):
                while len(samples) < COLD_STARTS and len(samples) < COLD_PER_PASS * (len(passes) + 1):
                    sample()
                passes.append(worker.run_pass(len(passes))[0])
        while len(samples) < COLD_STARTS:
            sample()
        speed = PROBE_REFERENCE_S / statistics.median(probes)
        metrics["wall_s"] = statistics.median(p["wall_s"] for p in passes) * speed
        metrics["setup_s"] = statistics.median(samples) * speed
        metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
        info.update(setup_samples_s=[round(s, 4) for s in samples], probe_samples_s=[round(s, 4) for s in probes],
                    speed=speed)

    reference = gates.load_reference()[workload]
    judged = [entry for p in passes for entry in gates.judge(ops, p["observables"], reference)]
    surprises = gates.unexpected(judged, reference)
    info.update(passes=[{t["id"]: round(t["s"], 4) for t in p["timings"]} for p in passes],
                env=passes[0]["env"])
    return metrics, judged, surprises, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfgtorus" / "__init__.py").is_file():
        print(f"perfbench: no mfgtorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(), "loadavg_start": os.getloadavg()}

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        metrics, judged, surprises, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    env.update(info.pop("env"))
    print(json.dumps({"env": env, **info}), file=sys.stderr)
    for op_id, reasons in judged:
        if reasons:
            known = "expected" if (op_id, reasons) not in surprises else "UNEXPECTED"
            print(f"failed ({known}): {op_id}: {'; '.join(reasons)}", file=sys.stderr)

    failed = sum(1 for _, reasons in judged if reasons)
    if not args.trace:
        metrics["passed_frac"] = (len(judged) - failed) / len(judged)
    units = {spec["name"]: spec["unit"] for spec in bench["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not surprises,
        "attempted": len(judged),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
