"""Correctness gates: which operations of a pass failed, and why.

An operation fails when any of these holds:
  - its exit code is not 0;
  - its trace does not reach lambda = 1 with a final residual <= tol;
  - `verify` reports a FAIL row;
  - the MMS observed order lies outside 2 +- 0.1;
  - its fields, errors or values differ from reference.json by more than the
    tolerances below.
Each cell of a sweep is one operation, named by its (alpha, kappa, drift scale);
a sweep whose cells differ from the reference's fails as a whole.  A field,
table or value the reference has and the output lacks is a failure too.
reference.json records the failures the
program is known to have; a failure with exactly the recorded reasons is
expected, any other makes the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

ORDER, ORDER_TOL = 2.0, 0.1
# Solutions, MMS errors and sweep extrema agree with the reference to this
# absolute tolerance.  Newton stops at a residual of 1e-10, so two correct
# solvers agree far closer; a changed scheme moves the O(h^2) error, which is
# 4e-6 or more on every grid here.
FIELD_ATOL = 1e-7
# verify values (moments, majorants, identity defects) span many magnitudes
VALUE_RTOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _max_diff(xs, ys) -> float:
    if len(xs) != len(ys):
        return float("inf")
    return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)


def _solve(obs: dict, ref: dict | None) -> list[str]:
    reasons = []
    if "reached_lambda" not in obs or not obs["success"] or obs["reached_lambda"] != 1.0:
        reasons.append("trace does not reach lambda = 1")
    elif obs["final_residual"] > obs["tol"]:
        reasons.append("final residual above tol")
    if ref and "u" in ref and "u" not in obs:
        reasons.append("no fields written")
    elif ref and "u" in ref:
        for key in ("u", "m"):
            diff = _max_diff(obs[key], ref[key])
            if diff > FIELD_ATOL:
                reasons.append(f"{key} differs from the reference by {diff:.3e}")
    return reasons


def _verify(obs: dict, ref: dict | None) -> list[str]:
    if "rows" not in obs:
        return ["no diagnostics written"]
    reasons = [f"verify FAIL {row['tag']}" for row in obs["rows"] if not row["passed"]]
    if ref:
        expected = {row["tag"]: row["value"] for row in ref["rows"]}
        if set(expected) != {row["tag"] for row in obs["rows"]}:
            reasons.append("verify checks differ from the reference")
        for row in obs["rows"]:
            want = expected.get(row["tag"])
            if want is not None and abs(row["value"] - want) > FIELD_ATOL + VALUE_RTOL * abs(want):
                reasons.append(f"{row['tag']} = {row['value']:.6e} differs from the reference {want:.6e}")
    return reasons


def _mms(obs: dict, ref: dict | None) -> list[str]:
    if "error_u" not in obs:
        return ["no rates written"]
    reasons = []
    for key in ("order_u", "order_m"):
        order = obs[key]
        if order is None or abs(order - ORDER) > ORDER_TOL:
            reasons.append(f"MMS {key} = {order} outside {ORDER} +- {ORDER_TOL}")
    if ref:
        for key in ("error_u", "error_m"):
            diff = _max_diff(obs[key], ref[key])
            if diff > FIELD_ATOL:
                reasons.append(f"{key} differs from the reference by {diff:.3e}")
    return reasons


def _cell_key(cell: dict) -> str:
    return f"{cell['alpha']:g},{cell['kappa']:g},{cell['drift_scale']:g}"


def _sweep(op_id: str, obs: dict, ref: dict | None) -> list[tuple[str, list[str]]]:
    cells = obs.get("cells")
    if cells is None:
        return [(op_id, [f"exit code {obs['rc']}", "no sweep table written"])]
    want = {_cell_key(cell): cell for cell in ref["cells"]} if ref else {}
    got = [_cell_key(cell) for cell in cells]
    if ref and sorted(got) != sorted(want):
        return [(op_id, [f"sweep cells {len(got)} differ from the reference's {len(want)}"])]
    entries = []
    for key, cell in zip(got, cells):
        reasons = [] if cell["success"] else ["cell failed"]
        if key in want and cell["success"]:
            for name in ("min_m", "sup_u"):
                diff = abs(cell[name] - want[key][name])
                if diff > FIELD_ATOL:
                    reasons.append(f"{name} differs from the reference by {diff:.3e}")
        entries.append((f"{op_id}[{key}]", reasons))
    return entries


def judge(ops: list[dict], observables: dict, reference: dict) -> list[tuple[str, list[str]]]:
    """(operation id, failure reasons) for every operation; no reasons means it passed."""
    entries = []
    for op in ops:
        obs = observables[op["id"]]
        ref = reference.get("observables", {}).get(op["id"])
        if op["kind"] == "sweep":
            entries.extend(_sweep(op["id"], obs, ref))
            continue
        reasons = [] if obs["rc"] == 0 else [f"exit code {obs['rc']}"]
        reasons += {"solve": _solve, "verify": _verify, "mms": _mms}[op["kind"]](obs, ref)
        entries.append((op["id"], reasons))
    return entries


def unexpected(entries: list[tuple[str, list[str]]], reference: dict) -> list[tuple[str, list[str]]]:
    """The failures reference.json does not record, reason for reason."""
    known = reference.get("expected_failures", {})
    return [(op_id, reasons) for op_id, reasons in entries
            if reasons and reasons != known.get(op_id)]
