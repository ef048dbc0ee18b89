"""Check that two source trees write the same bytes on the benchmark workloads.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is the root of a checkout.  Every operation of the three workloads in
`perfbench/workloads.py` is run through `mfgtorus.cli.main` with the unshifted
inputs the stored reference was made from (`build(w, None, dir)`), and so are
operations that no workload runs: two `jacobian-check` operations with
`output.dump_matrix` on the workloads' reference problem (1-D n = 32 and 2-D
n = 16), and the branches of the residual and of the certificates that every
workload's `separable` potential with epsilon_monotone = 0 skips: a 1-D n = 64
solve with a `saturating` potential and epsilon_monotone = 0.2 and a 2-D n = 16
solve with an `x_only` potential; two solves of the reference problem with
kappa = 0 (1-D n = 64 and 2-D n = 16), whose Jacobians at lambda = 1 hold exact
zeros, so that the band solve and GMRES on explicitly stored zeros are compared
through full fields and traces, and a third at 1-D n = 128; and four `verify`
operations on the written 1-D states: the saturating state, the two 1-D
kappa = 0 states as a refinement series (which writes `refinement.csv`), the
n = 64 kappa = 0 state with a subset of the checks at other exponents and
budget, and the saturating state against the kappa = 0 problem it does not
solve (failed identity rows).  Each tree runs once, in its own subprocess with
`PYTHONPATH=<tree>/src` and one BLAS thread.
Both trees read the same configs, written once from this checkout's
`perfbench` and this script.  The script then compares every output file, the stdout of every
operation and its exit code, prints each difference, and exits 1 if there is
any (0 when everything is byte-identical).  For a differing `.csv` file it also
prints the largest absolute difference of its values, and for a differing
`trace.json` whether the Newton iteration counts of its steps agree.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

import workloads  # noqa: E402

# (dim, n) of each jacobian-check operation
JACOBIAN_CHECKS = {"jacobian-check-1d": (1, 32), "jacobian-check-2d": (2, 16)}
# (dim, n, potential form, kappa, epsilon_monotone) of each solve off the workloads' branch,
# the kappa = 0 ones at n = 64 and 16 with exact zeros in the lambda = 1 Jacobian
BRANCH_SOLVES = {"solve-saturating-1d": (1, 64, "saturating", 1.0, 0.2),
                 "solve-x-only-2d": (2, 16, "x_only", 0.0, 0.0),
                 "solve-kappa0-1d": (1, 64, "separable", 0.0, 0.0),
                 "solve-kappa0-1d-128": (1, 128, "separable", 0.0, 0.0),
                 "solve-kappa0-2d": (2, 16, "separable", 0.0, 0.0)}
# (config, solves whose states it reads) of each verify operation: a solution, a two-state
# refinement series (refinement.csv), a subset of the checks at other exponents and budget,
# and a state that does not solve the configured problem (failed identity rows with their note)
VERIFIES = {"verify-saturating-1d": ("solve-saturating-1d", ["solve-saturating-1d"]),
            "verify-series-1d": ("solve-kappa0-1d", ["solve-kappa0-1d-128", "solve-kappa0-1d"]),
            "verify-subset-1d": ("verify-subset-1d", ["solve-kappa0-1d"]),
            "verify-off-solution-1d": ("solve-kappa0-1d", ["solve-saturating-1d"])}
SUBSET_DIAGNOSTICS = {"checks": ["positivity", "moment", "identity"], "r_values": [1.5, 3.0],
                      "identity_budget_factor": 25.0}

# Runs one tree: each workload in its own directory, where each operation
# writes its outputs under its own directory and its stdout to <id>.stdout;
# the exit codes go to the workload's rc.json.
CHILD = """
import contextlib, json, os, sys
from pathlib import Path
from mfgtorus import cli
ops_file, src, work = (Path(a).resolve() for a in sys.argv[1:])
if src not in Path(cli.__file__).resolve().parents:
    raise SystemExit(f"imported {cli.__file__}, not the tree under test")
for workload, ops in json.loads(ops_file.read_text()).items():
    (work / workload).mkdir(parents=True)
    os.chdir(work / workload)
    codes = {}
    for op in ops:
        with open(op["id"] + ".stdout", "w") as out, contextlib.redirect_stdout(out):
            codes[op["id"]] = cli.main(op["argv"])
    Path("rc.json").write_text(json.dumps(codes, indent=1, sort_keys=True))
"""


def jacobian_check_ops(config_dir: Path) -> list[dict]:
    """Write the configs of the JACOBIAN_CHECKS into config_dir and return their operations."""
    ops = []
    for op_id, (dim, n) in JACOBIAN_CHECKS.items():
        config = config_dir / f"{op_id}.json"
        problem = workloads._problem(dim, n, workloads.REFERENCE_SET, [0] * dim)
        config.write_text(json.dumps({"problem": problem, "output": {"dump_matrix": True}}))
        ops.append({"id": op_id, "argv": ["jacobian-check", "--config", str(config), "--out", op_id]})
    return ops


def branch_ops(config_dir: Path) -> list[dict]:
    """Write the configs of the BRANCH_SOLVES into config_dir; return their operations and the VERIFIES."""
    ops = []
    for op_id, (dim, n, form, kappa, eps) in BRANCH_SOLVES.items():
        problem = workloads._problem(dim, n, workloads.REFERENCE_SET, [0] * dim)
        problem["potential"].update(form=form, kappa=kappa)
        problem["epsilon_monotone"] = eps
        (config_dir / f"{op_id}.json").write_text(json.dumps({"problem": problem}))
        ops.append({"id": op_id, "argv": ["solve", "--config", str(config_dir / f"{op_id}.json"), "--out", op_id]})
    subset = json.loads((config_dir / "solve-kappa0-1d.json").read_text())
    (config_dir / "verify-subset-1d.json").write_text(json.dumps({**subset, "diagnostics": SUBSET_DIAGNOSTICS}))
    for op_id, (config, states) in VERIFIES.items():
        argv = ["verify", "--config", str(config_dir / f"{config}.json"), "--out", op_id]
        for state in states:
            argv += ["--state", f"{state}/u.csv", f"{state}/m.csv"]
        ops.append({"id": op_id, "argv": argv})
    return ops


def run_tree(tree: Path, ops_file: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ops_file), str(tree / "src"), str(work)],
                          env=env, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} failed\n{proc.stderr}")


def csv_difference(a: Path, b: Path) -> str:
    """The largest absolute difference of the values of two CSV tables of one layout."""
    tables = []
    for path in (a, b):
        with open(path, newline="") as fh:
            tables.append([row for row in csv.reader(fh) if row and not row[0].startswith("#")])
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return "tables differ in shape"
    largest = 0.0
    for row_a, row_b in zip(*tables):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                diff = abs(float(x) - float(y))
            except ValueError:
                return f"text differs: {x!r} against {y!r}"
            largest = max(largest, diff if not math.isnan(diff) else math.inf)
    return f"largest absolute difference {largest:.3e}"


def newton_counts(a: Path, b: Path) -> str:
    """Whether two trace.json files took the same Newton iterations at each step."""
    counts = [[step["newton"]["iterations"] for step in json.loads(p.read_text())["steps"]] for p in (a, b)]
    if counts[0] == counts[1]:
        return f"same Newton iterations at each of {len(counts[0])} steps ({sum(counts[0])} in total)"
    return "Newton iterations differ: " + " against ".join(
        f"{len(c)} steps, {sum(c)} in total, {c}" for c in counts)


def compare(a: Path, b: Path) -> tuple[list[Path], list[str]]:
    """(the files identical in both trees, one line per difference)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = [f"only in {a.name}: {p}" for p in sorted(files_a - files_b)]
    diffs += [f"only in {b.name}: {p}" for p in sorted(files_b - files_a)]
    same = []
    for p in sorted(files_a & files_b):
        if (a / p).read_bytes() == (b / p).read_bytes():
            same.append(p)
        elif p.suffix == ".csv":
            diffs.append(f"differs: {p}: {csv_difference(a / p, b / p)}")
        elif p.name == "trace.json":
            diffs.append(f"differs: {p}: {newton_counts(a / p, b / p)}")
        else:
            diffs.append(f"differs: {p}")
    return same, diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    for tree in trees:
        if not (tree / "src" / "mfgtorus").is_dir():
            print(f"{tree}: no src/mfgtorus", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ops = {}
        for workload in workloads.WORKLOADS:
            config_dir = tmp / "configs" / workload
            config_dir.mkdir(parents=True)
            ops[workload] = workloads.build(workload, None, config_dir)
        (tmp / "configs" / "jacobian-check").mkdir()
        ops["jacobian-check"] = jacobian_check_ops(tmp / "configs" / "jacobian-check")
        (tmp / "configs" / "branches").mkdir()
        ops["branches"] = branch_ops(tmp / "configs" / "branches")
        ops_file = tmp / "configs" / "ops.json"
        ops_file.write_text(json.dumps(ops))
        for label, tree in zip(("parent", "change"), trees):
            run_tree(tree, ops_file, tmp / label)
        same, diffs = compare(tmp / "parent", tmp / "change")
    for line in diffs:
        print(line)
    stdouts = sum(p.suffix == ".stdout" for p in same)
    codes = sum(p.name == "rc.json" for p in same)
    print(f"identical: {len(same) - stdouts - codes} output files, {stdouts} stdouts, "
          f"{codes} exit-code records; {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
