"""Check that two source trees write the same bytes on the benchmark workloads.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is the root of a checkout.  Every operation of the three workloads in
`perfbench/workloads.py` is run through `mfgtorus.cli.main` with the unshifted
inputs the stored reference was made from (`build(w, None, dir)`), and so are
operations that no workload runs: four `jacobian-check` operations with
`output.dump_matrix` on the workloads' reference problem (1-D n = 32 and 2-D
n = 16, 32 and 25, the last an odd grid, whose Jacobian's stencils wrap an odd
periodic axis), a 4-cell `sweep` of that problem at 2-D n = 32 (the smallest
grid a 2-D continuation climbs to from a coarser one, so every command that
reaches the climb is compared), and the branches of the residual and of the
certificates that every workload's `separable` potential with
epsilon_monotone = 0 skips: a 1-D n = 64 solve with a `saturating` potential
and epsilon_monotone = 0.2 and a 2-D n = 16 solve with a `saturating` potential
(the one 2-D run whose m-part is not arctan); two solves of the reference problem with
kappa = 0 (1-D n = 64 and 2-D n = 16), whose Jacobians at lambda = 1 hold exact
zeros, so that the band solve and GMRES on explicitly stored zeros are compared
through full fields and traces, and a third at 1-D n = 128; two solves of the
workloads' strong set (1-D n = 64 and 2-D n = 32) in unit continuation steps
with 3 Newton iterations, positivity fraction 0.9 and minimum damping 0.2,
whose Newton solves fail by NoDescent and MaxItersExceeded before the
continuation reaches lambda = 1 (no workload records a failed 2-D step), so
that the failure exits of Newton are compared through the traces; a 1-D
n = 1024 solve of the reference problem at an explicit `tol_residual` of 1e-10,
below its residual's rounding floor, which stalls (exit 2) and so compares a
tolerance given as a number, used as given, through its written config and the
stalled trace; and four `verify`
operations on the written 1-D states: the saturating state, the two 1-D
kappa = 0 states as a refinement series (which writes `refinement.csv`), the
n = 64 kappa = 0 state with a subset of the checks at other exponents and
budget, and the saturating state against the kappa = 0 problem it does not
solve (failed identity rows); and four operations that end in a one-line error
holding only relative paths: `mms` on a config with no `mms` section, `sweep
--jobs 0`, an `--out` naming an existing file, and a `--state` pair whose u and
m lie on different grids.  Each tree runs once, in its own subprocess with
`PYTHONPATH=<tree>/src`, one BLAS thread and `MFG_LOG` unset (so no log lines).
Both trees read the same configs, written once from this checkout's
`perfbench` and this script.  The script then compares every output file, the
stdout and stderr of every operation and its exit code, prints each difference,
and exits 1 if there is any (0 when everything is byte-identical).  For a
differing `.csv` file it also prints the largest difference of its values:
per column for a table with a header row (relative for the `error_u` and
`error_m` columns of `rates.csv`, absolute for the others), and over all values
otherwise.  For a differing `trace.json` it prints whether the Newton iteration
counts of its steps agree and the total GMRES iterations (`krylov_iterations`)
of each side.  For any other differing `.json` file it prints the key path of
the first value that differs (for example `states[2].coercivity.c_estimate`)
and both values.
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

# (dim, n) of each jacobian-check operation; 2-D n = 25 dumps a Jacobian whose stencils wrap an odd periodic axis
JACOBIAN_CHECKS = {"jacobian-check-1d": (1, 32), "jacobian-check-2d": (2, 16), "jacobian-check-2d-32": (2, 32),
                   "jacobian-check-2d-25": (2, 25)}
# (dim, n, sweep section) of each sweep operation
SWEEPS = {"sweep-2d-32": (2, 32, {"alphas": [0.3, 0.9], "kappas": [1.0, 2.0], "drift_scales": [1.0]})}
# (dim, n, potential form, kappa, epsilon_monotone) of each solve off the workloads' branch,
# the kappa = 0 ones at n = 64 and 16 with exact zeros in the lambda = 1 Jacobian
BRANCH_SOLVES = {"solve-saturating-1d": (1, 64, "saturating", 1.0, 0.2),
                 "solve-saturating-2d": (2, 16, "saturating", 1.0, 0.0),
                 "solve-kappa0-1d": (1, 64, "separable", 0.0, 0.0),
                 "solve-kappa0-1d-128": (1, 128, "separable", 0.0, 0.0),
                 "solve-kappa0-2d": (2, 16, "separable", 0.0, 0.0)}
# (dim, n) of each solve of the strong set whose Newton solves fail on the way, under these options
FAILURE_SOLVES = {"solve-failures-1d": (1, 64), "solve-failures-2d": (2, 32)}
FAILURE_OPTIONS = {"continuation": {"initial_step": 1.0, "max_step": 1.0},
                   "solver": {"max_iters": 3, "positivity_fraction": 0.9, "min_damping": 0.2}}
# (dim, n, solver section) of each solve of the reference problem at an explicit tolerance below its residual's
# rounding floor, whose Newton solves stall until the damping underflows
FLOOR_SOLVES = {"solve-below-floor-1d-1024": (1, 1024, {"tol_residual": 1e-10})}
# (config, solves whose states it reads) of each verify operation: a solution, a two-state
# refinement series (refinement.csv), a subset of the checks at other exponents and budget,
# and a state that does not solve the configured problem (failed identity rows with their note)
VERIFIES = {"verify-saturating-1d": ("solve-saturating-1d", ["solve-saturating-1d"]),
            "verify-series-1d": ("solve-kappa0-1d", ["solve-kappa0-1d-128", "solve-kappa0-1d"]),
            "verify-subset-1d": ("verify-subset-1d", ["solve-kappa0-1d"]),
            "verify-off-solution-1d": ("solve-kappa0-1d", ["solve-saturating-1d"])}
# (command, --out, further arguments) of each error exit, all on the 1-D kappa = 0 config:
# a missing section, --jobs below 1, an --out naming a file, a state pair on two grids
ERROR_EXITS = {"mms-without-section": ("mms", "mms-without-section", []),
               "sweep-jobs-zero": ("sweep", "sweep-jobs-zero", ["--jobs", "0"]),
               "out-names-a-file": ("solve", "solve-kappa0-1d/u.csv", []),
               "state-on-two-grids": ("verify", "state-on-two-grids",
                                      ["--state", "solve-kappa0-1d/u.csv", "solve-kappa0-1d-128/m.csv"])}
# columns of a CSV table compared by relative difference: the MMS errors of rates.csv span
# orders of magnitude across the grids, while its rates sit near 2
RELATIVE_COLUMNS = {"error_u", "error_m"}
SUBSET_DIAGNOSTICS = {"checks": ["positivity", "moment", "identity"], "r_values": [1.5, 3.0],
                      "identity_budget_factor": 25.0}

# Runs one tree: each workload in its own directory, where each operation
# writes its outputs under its own directory and its stdout and stderr to
# <id>.stdout and <id>.stderr; the exit codes go to the workload's rc.json.
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
        with open(op["id"] + ".stdout", "w") as out, open(op["id"] + ".stderr", "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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


def sweep_ops(config_dir: Path) -> list[dict]:
    """Write the configs of the SWEEPS into config_dir and return their operations, one worker each."""
    ops = []
    for op_id, (dim, n, sweep) in SWEEPS.items():
        config = config_dir / f"{op_id}.json"
        problem = workloads._problem(dim, n, workloads.REFERENCE_SET, [0] * dim)
        config.write_text(json.dumps({"problem": problem, "sweep": sweep}))
        ops.append({"id": op_id, "argv": ["sweep", "--config", str(config), "--out", op_id, "--jobs", "1"]})
    return ops


def branch_ops(config_dir: Path) -> list[dict]:
    """Write the configs of the BRANCH_SOLVES, FAILURE_SOLVES and FLOOR_SOLVES into config_dir; return their
    operations, the VERIFIES and the ERROR_EXITS."""
    configs = {}
    for op_id, (dim, n, form, kappa, eps) in BRANCH_SOLVES.items():
        problem = workloads._problem(dim, n, workloads.REFERENCE_SET, [0] * dim)
        problem["potential"].update(form=form, kappa=kappa)
        problem["epsilon_monotone"] = eps
        configs[op_id] = {"problem": problem}
    for op_id, (dim, n) in FAILURE_SOLVES.items():
        configs[op_id] = {"problem": workloads._problem(dim, n, workloads.STRONG_SET, [0] * dim), **FAILURE_OPTIONS}
    for op_id, (dim, n, solver) in FLOOR_SOLVES.items():
        configs[op_id] = {"problem": workloads._problem(dim, n, workloads.REFERENCE_SET, [0] * dim), "solver": solver}
    ops = []
    for op_id, config in configs.items():
        (config_dir / f"{op_id}.json").write_text(json.dumps(config))
        ops.append({"id": op_id, "argv": ["solve", "--config", str(config_dir / f"{op_id}.json"), "--out", op_id]})
    subset = json.loads((config_dir / "solve-kappa0-1d.json").read_text())
    (config_dir / "verify-subset-1d.json").write_text(json.dumps({**subset, "diagnostics": SUBSET_DIAGNOSTICS}))
    for op_id, (config, states) in VERIFIES.items():
        argv = ["verify", "--config", str(config_dir / f"{config}.json"), "--out", op_id]
        for state in states:
            argv += ["--state", f"{state}/u.csv", f"{state}/m.csv"]
        ops.append({"id": op_id, "argv": argv})
    kappa0 = str(config_dir / "solve-kappa0-1d.json")
    for op_id, (command, out, more) in ERROR_EXITS.items():
        ops.append({"id": op_id, "argv": [command, "--config", kappa0, "--out", out, *more]})
    return ops


def run_tree(tree: Path, ops_file: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("MFG_LOG", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ops_file), str(tree / "src"), str(work)],
                          env=env, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} failed\n{proc.stderr}")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def csv_difference(a: Path, b: Path) -> str:
    """The largest differences of the values of two CSV tables of one layout.

    A table whose first row is a header gets one number per differing column:
    relative in RELATIVE_COLUMNS, absolute elsewhere.  Any other table gets the
    largest absolute difference of all its values.
    """
    tables = []
    for path in (a, b):
        with open(path, newline="") as fh:
            tables.append([row for row in csv.reader(fh) if row and not row[0].startswith("#")])
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return "tables differ in shape"
    header = tables[0][0] if tables[0] and not _is_number(tables[0][0][0]) else None
    largest = {}
    for row_a, row_b in zip(*tables):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            try:
                diff = abs(float(x) - float(y))
            except ValueError:
                return f"text differs: {x!r} against {y!r}"
            name = header[col] if header else None
            if name in RELATIVE_COLUMNS:
                diff = diff / abs(float(x)) if float(x) != 0.0 else math.inf
            largest[name] = max(largest.get(name, 0.0), diff if not math.isnan(diff) else math.inf)
    if header is None:
        return f"largest absolute difference {largest.get(None, 0.0):.3e}"
    return "largest difference per column: " + ", ".join(
        f"{name} {diff:.3e}" + (" relative" if name in RELATIVE_COLUMNS else " absolute")
        for name, diff in largest.items())


def newton_counts(a: Path, b: Path) -> str:
    """Whether two trace.json files took the same Newton iterations at each step, and each one's Krylov total."""
    newtons = [[step["newton"] for step in json.loads(p.read_text())["steps"]] for p in (a, b)]
    counts = [[newton["iterations"] for newton in steps] for steps in newtons]
    krylov = " against ".join(str(sum(sum(newton["krylov_iterations"]) for newton in steps)) for steps in newtons)
    if counts[0] == counts[1]:
        newton = f"same Newton iterations at each of {len(counts[0])} steps ({sum(counts[0])} in total)"
    else:
        newton = "Newton iterations differ: " + " against ".join(
            f"{len(c)} steps, {sum(c)} in total, {c}" for c in counts)
    return f"{newton}; Krylov iterations {krylov} in total"


def json_difference(x, y, path: str = "") -> str:
    """Where two JSON documents first differ: a key path and both values, or what differs in shape there."""
    where = path or "top level"
    if isinstance(x, dict) and isinstance(y, dict):
        if x.keys() != y.keys():
            return f"{where}: keys {sorted(x.keys() ^ y.keys())} on one side only"
        children = [(f"{path}.{key}" if path else key, x[key], y[key]) for key in x]
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return f"{where}: {len(x)} against {len(y)} entries"
        children = [(f"{path}[{i}]", u, v) for i, (u, v) in enumerate(zip(x, y))]
    elif type(x) is type(y) and (x == y or x != x and y != y):  # NaN matches NaN
        return ""
    else:
        return f"{where}: {x!r} against {y!r}"
    for child_path, u, v in children:
        found = json_difference(u, v, child_path)
        if found:
            return found
    return ""


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
        elif p.suffix == ".json":
            found = json_difference(*(json.loads((tree / p).read_text()) for tree in (a, b)))
            diffs.append(f"differs: {p}: {found or 'same values, other bytes'}")
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
        (tmp / "configs" / "sweep").mkdir()
        ops["sweep"] = sweep_ops(tmp / "configs" / "sweep")
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
    stderrs = sum(p.suffix == ".stderr" for p in same)
    codes = sum(p.name == "rc.json" for p in same)
    print(f"identical: {len(same) - stdouts - stderrs - codes} output files, {stdouts} stdouts, "
          f"{stderrs} stderrs, {codes} exit-code records; {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
