"""The comparison functions of tools/same_outputs.py, on small synthetic output trees: no solver runs.

The tool imports perfbench/workloads.py, so it is imported in a child process that writes no bytecode
into tools/ or perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# compares the trees argv[1] and argv[2], and prints what `compare` reports with
# `json_difference` on the JSON documents of argv[3:], two at a time
CHILD = """
import json, sys
from pathlib import Path
import same_outputs
same, diffs = same_outputs.compare(Path(sys.argv[1]), Path(sys.argv[2]))
docs = [json.loads(d) for d in sys.argv[3:]]
found = [same_outputs.json_difference(x, y) for x, y in zip(docs[::2], docs[1::2])]
print(json.dumps({"same": sorted(str(p) for p in same), "diffs": diffs, "json": found}))
"""

RATES = [["grid", "error_u", "error_m", "rate_u", "rate_m"],
         ["16", "0.004", "0.002", "", ""],
         ["32", "0.001", "0.0005", "2", "2"]]


def trace(lam=1.0, krylov=(3, 4)):
    return {"success": True,
            "steps": [{"lam": 0.5, "newton": {"iterations": 2, "krylov_iterations": [5, 6]}},
                      {"lam": lam, "newton": {"iterations": 2, "krylov_iterations": list(krylov)}}]}


def write_tree(root: Path, rates=RATES, trace_doc=None, extra=False):
    op = root / "solve-2d" / "op"
    op.mkdir(parents=True)
    (op / "trace.json").write_text(json.dumps(trace_doc or trace()))
    (op / "rates.csv").write_text("".join(",".join(row) + "\n" for row in rates))
    (op / "u.csv").write_text("# grid 1 4\n0.1\n0.2\n0.3\n0.4\n")
    (root / "solve-2d" / "op.stdout").write_text("")
    (root / "solve-2d" / "rc.json").write_text(json.dumps({"op": 0}))
    if extra:
        (op / "m.csv").write_text("# grid 1 4\n1\n1\n1\n1\n")


def compare(tmp_path, *json_pairs, **change):
    parent, child = tmp_path / "parent", tmp_path / "change"
    write_tree(parent)
    write_tree(child, **change)
    docs = [json.dumps(doc) for pair in json_pairs for doc in pair]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(parent), str(child), *docs],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(TOOLS), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_identical_trees_have_no_differences(tmp_path):
    got = compare(tmp_path)
    assert got["diffs"] == []
    assert got["same"] == ["solve-2d/op.stdout", "solve-2d/op/rates.csv", "solve-2d/op/trace.json",
                           "solve-2d/op/u.csv", "solve-2d/rc.json"]


def test_changed_trace_value_reports_the_newton_counts(tmp_path):
    got = compare(tmp_path, trace_doc=trace(lam=0.75, krylov=(3, 5)))
    assert got["diffs"] == ["differs: solve-2d/op/trace.json: same Newton iterations at each of 2 steps "
                            "(4 in total); Krylov iterations 18 against 19 in total"]


def test_changed_newton_count_is_reported_per_step(tmp_path):
    doc = trace()
    doc["steps"][1]["newton"]["iterations"] = 3
    got = compare(tmp_path, trace_doc=doc)
    assert got["diffs"] == ["differs: solve-2d/op/trace.json: Newton iterations differ: 2 steps, 4 in total, "
                            "[2, 2] against 2 steps, 5 in total, [2, 3]; Krylov iterations 18 against 18 in total"]


def test_rates_change_is_reported_per_column(tmp_path):
    rates = [row[:] for row in RATES]
    rates[2][1] = "0.0011"  # error_u, relative to the parent's 0.001
    rates[2][3] = "2.5"  # rate_u, absolute
    got = compare(tmp_path, rates=rates)
    assert got["diffs"] == ["differs: solve-2d/op/rates.csv: largest difference per column: "
                            "error_u 1.000e-01 relative, rate_u 5.000e-01 absolute"]


def test_file_on_one_side_only_is_reported(tmp_path):
    got = compare(tmp_path, extra=True)
    assert got["diffs"] == ["only in change: solve-2d/op/m.csv"]
    assert len(got["same"]) == 5


def test_json_difference_matches_nan_with_nan(tmp_path):
    nan = float("nan")
    got = compare(tmp_path, ({"a": [1.0, nan]}, {"a": [1.0, nan]}), ({"a": [1.0, nan]}, {"a": [1.0, 2.0]}),
                  ({"a": {"b": 1}}, {"a": {"c": 1}}))
    assert got["json"] == ["", "a[1]: nan against 2.0", "a: keys ['b', 'c'] on one side only"]
