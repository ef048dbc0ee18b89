"""The benchmark's own test.

    python3 perfbench/selfcheck.py [--workload W ...] [--seed N]

For each workload: traced runs with seeds N, N+1 and N again must report every
per-layer metric of BENCHMARK.json with its unit and the same counts of work
(tracer.EXACT_COUNTS), since a seed changes the inputs but not the work.  The
two runs of seed N must also write the same number of bytes
(tracer.SAME_SEED_COUNTS).  An untraced run must report every end-to-end
metric with its unit.
Every run must be correct.  First, run.py must exit non-zero without a result
in a directory holding only BENCHMARK.json and the benchmark's files.  Each run
makes one pass; the whole check takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=400)


def _result(workload: str, seed: int, trace: int, specs: list[dict]) -> dict:
    proc = _run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']}")
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"metric {spec['name']} [{spec['unit']}] reported as {got}")
    if set(result["metrics"]) != {spec["name"] for spec in specs}:
        problems.append(f"unlisted metrics {sorted(set(result['metrics']) - {s['name'] for s in specs})}")
    if problems:
        raise SystemExit(f"{workload} --trace {trace}: " + "; ".join(problems))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def check_workload(workload: str, seed: int, bench: dict) -> None:
    first, other, again = (_result(workload, s, 1, bench["per_layer"]) for s in (seed, seed + 1, seed))
    checks = [(other, seed + 1, tracer.EXACT_COUNTS), (again, seed, tracer.EXACT_COUNTS + tracer.SAME_SEED_COUNTS)]
    for values, other_seed, names in checks:
        differ = {name: (first[name], values[name]) for name in names if first[name] != values[name]}
        if differ:
            raise SystemExit(f"{workload}: counts differ between seeds {seed} and {other_seed}: {differ}")
    _result(workload, seed, 0, bench["end_to_end"])
    names = tracer.EXACT_COUNTS + tracer.SAME_SEED_COUNTS
    print(f"{workload}: ok, counts repeat exactly: " + ", ".join(f"{name}={first[name]}" for name in names),
          flush=True)


def check_bare_directory() -> None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, workloads.WORKLOADS[0], 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"without sources run.py exited {proc.returncode} and printed {proc.stdout!r}")
    print("bare directory: ok, exit", proc.returncode, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    for workload in args.workload or workloads.WORKLOADS:
        check_workload(workload, args.seed, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
