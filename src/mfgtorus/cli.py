"""Batch command-line surface: solve, verify, mms, jacobian-check, sweep.

The only module with side effects.  JSON for configs and reports, CSV for
fields and tables.  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure.  MFG_LOG=error|info|debug controls verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, load_config
from .errors import ContinuationStalled, MFGError, SolverFailure
from .grid import load_field, save_field, sup_norm
from .linearization import assemble_jacobian, coercivity_check
from .problem import State, exact_initial, residual
from .solver import continuation_solve, newton_solve
from .verification import ManufacturedCase, convergence_study

log = logging.getLogger("mfgtorus")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

FD_TOLERANCE = 1e-6  # largest relative J.w error `jacobian-check` accepts from central differences


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("MFG_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfgtorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")

    p_solve = sub.add_parser("solve", help="run the continuation to lambda=1")
    common(p_solve)

    p_verify = sub.add_parser("verify", help="run diagnostics on stored fields")
    common(p_verify)
    p_verify.add_argument(
        "--state",
        nargs=2,
        action="append",
        required=True,
        metavar=("U_CSV", "M_CSV"),
        help="a (u, m) field pair; repeat with refined grids to get a refinement series",
    )

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    common(p_mms)

    p_jac = sub.add_parser("jacobian-check", help="finite-difference and coercivity checks")
    common(p_jac)

    p_sweep = sub.add_parser("sweep", help="parameter sweep over (alpha, kappa, drift scale)")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker processes")
    return parser


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out = _ensure_out(args)
    _write_json(os.path.join(out, "resolved_config.json"), cfg.resolved())
    try:
        s, trace = continuation_solve(cfg.problem, cfg.solver, cfg.continuation, cfg.diagnostics)
    except ContinuationStalled as err:
        print(f"continuation stalled: {err}", file=sys.stderr)
        if err.trace is not None:
            _write_json(os.path.join(out, "trace.json"), err.trace.to_dict())
        return EXIT_NUMERICAL
    _write_json(os.path.join(out, "trace.json"), trace.to_dict())
    save_field(s.u, os.path.join(out, "u.csv"))
    save_field(s.m, os.path.join(out, "m.csv"))
    if cfg.dump_matrix:
        import scipy.io  # here, not at the top: only a dump needs its ~20 ms import
        sys_final = assemble_jacobian(cfg.problem, 1.0, s)
        scipy.io.mmwrite(os.path.join(out, "jacobian_final.mtx"), sys_final.matrix)
    log.info("solve finished: lambda=1, %d steps", len(trace.steps))
    return EXIT_OK


def _read_field(path):
    try:
        return load_field(path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read field file {path}: {err}") from err


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = _ensure_out(args)
    entries = []
    for u_path, m_path in args.state:
        u = _read_field(u_path)
        m = _read_field(m_path)
        if u.grid != m.grid:
            raise ConfigError(f"{u_path} and {m_path} live on different grids")
        if u.grid.dim != cfg.problem.grid.dim:
            raise ConfigError(f"{u_path}: dimension {u.grid.dim} does not match the configured problem")
        # same problem family re-gridded: refined states give a refinement series
        spec = replace(cfg.problem, grid=u.grid)
        _, rows = diag.make_snapshot(spec, State(u, m), 1.0, cfg.diagnostics, cfg.solver.tol_residual)
        entries.append({"n": u.grid.n, "checks": rows})

    all_passed = True
    for entry in entries:
        print(f"-- n = {entry['n']}")
        for r in entry["checks"]:
            tag = f"{r['check']}" + (f"[r={r['r']:g}]" if r["r"] is not None else "")
            status = "PASS" if r["passed"] else "FAIL"
            all_passed = all_passed and r["passed"]
            print(f"  {tag:<20} {status}  value={r['value']:.6e} threshold={r['threshold']:.6e} {r['note']}")
    _write_json(os.path.join(out, "diagnostics.json"), {"states": entries})

    if len(entries) >= 2:
        series = sorted(entries, key=lambda e: e["n"])
        with open(os.path.join(out, "refinement.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "r", "cancellation", "identity_defect"])
            for entry in series:
                by_r = {}
                for row in entry["checks"]:
                    if row["check"] in ("cancellation", "identity") and row["r"] is not None:
                        by_r.setdefault(row["r"], {})[row["check"]] = row["value"]
                for r_val in sorted(by_r):
                    writer.writerow(
                        [
                            entry["n"],
                            f"{r_val:g}",
                            f"{by_r[r_val].get('cancellation', float('nan')):.17g}",
                            f"{by_r[r_val].get('identity', float('nan')):.17g}",
                        ]
                    )
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def cmd_mms(args) -> int:
    cfg = load_config(args.config)
    if cfg.mms is None:
        raise ConfigError("config has no 'mms' section")
    out = _ensure_out(args)
    case = ManufacturedCase(cfg.problem, cfg.mms.u, cfg.mms.m)
    try:
        table = convergence_study(case, list(cfg.mms.grids), cfg.solver)
    except SolverFailure as err:
        print(f"mms solve failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    table.write_csv(os.path.join(out, "rates.csv"))
    for row in table.rows:
        print(f"n={row.n:<5d} error_u={row.error_u:.3e} error_m={row.error_m:.3e} "
              f"rate_u={row.rate_u:.3f} rate_m={row.rate_m:.3f}")
    print(f"observed order: u {table.observed_order_u:.3f}, m {table.observed_order_m:.3f}")
    return EXIT_OK


def _fd_max_error(spec, lam, s, rng, n_dirs=20, fd_eps=1e-6):
    sys_ = assemble_jacobian(spec, lam, s)
    worst = 0.0
    base = s.stacked()
    for _ in range(n_dirs):
        w = rng.standard_normal(2 * spec.grid.size)
        sp = State.from_stacked(spec.grid, base + fd_eps * w)
        sm = State.from_stacked(spec.grid, base - fd_eps * w)
        rp = np.concatenate([f.values for f in residual(spec, lam, sp)])
        rm = np.concatenate([f.values for f in residual(spec, lam, sm)])
        fd = (rp - rm) / (2.0 * fd_eps)
        jw = sys_.matrix @ w
        worst = max(worst, float(np.max(np.abs(jw - fd)) / np.max(np.abs(jw))))
    return worst, sys_


def cmd_jacobian_check(args) -> int:
    cfg = load_config(args.config)
    out = _ensure_out(args)
    spec = cfg.problem
    rng = np.random.default_rng(cfg.seed)

    s0 = exact_initial(spec)
    try:
        s_final, trace = continuation_solve(spec, cfg.solver, cfg.continuation, cfg.diagnostics)
    except ContinuationStalled as err:
        print(f"continuation stalled before the check: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    mid = trace.steps[len(trace.steps) // 2]
    s_mid, _ = newton_solve(spec, mid.lam, s_final, cfg.solver)

    report = {"fd_tolerance": FD_TOLERANCE, "states": []}
    ok = True
    for tag, lam, s in (("initial", 0.0, s0), ("mid", mid.lam, s_mid), ("final", 1.0, s_final)):
        err, sys_ = _fd_max_error(spec, lam, s, rng)
        entry = {"state": tag, "lambda": lam, "fd_max_rel_error": err}
        if tag in ("initial", "final"):
            co = coercivity_check(sys_, seed=cfg.seed)
            entry["coercivity"] = {
                "all_negative": co.all_negative,
                "max_ratio": co.max_ratio,
                "c_estimate": co.c_estimate,
            }
            ok = ok and co.all_negative
        if cfg.dump_matrix:
            import scipy.io
            scipy.io.mmwrite(os.path.join(out, f"jacobian_{tag}.mtx"), sys_.matrix)
        ok = ok and err <= FD_TOLERANCE
        report["states"].append(entry)
        print(f"{tag:<8s} lambda={lam:.3f} fd_error={err:.3e}"
              + (f" coercivity_max_ratio={entry['coercivity']['max_ratio']:.4f}" if "coercivity" in entry else ""))
    _write_json(os.path.join(out, "jacobian_check.json"), report)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _sweep_cell(payload) -> dict:
    cfg, alpha, kappa, scale = payload
    base = cfg.problem
    row = {"alpha": alpha, "kappa": kappa, "drift_scale": scale}
    try:
        pot = replace(base.potential, kappa=kappa)
        spec = replace(base, alpha=alpha, potential=pot, drift=base.drift.scaled(scale))
        s, trace = continuation_solve(spec, cfg.solver, cfg.continuation, cfg.diagnostics)
    except (MFGError, ValueError) as err:
        row.update(min_m=float("nan"), sup_u=float("nan"), iterations=-1,
                   success=False, error=type(err).__name__)
        return row
    row.update(
        min_m=s.min_m(),
        sup_u=sup_norm(s.u),
        iterations=sum(st.newton.iterations for st in trace.steps),
        success=True,
        error="",
    )
    return row


def cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("config has no 'sweep' section")
    out = _ensure_out(args)
    cells = [
        (cfg, a, k, sc)
        for a in cfg.sweep.alphas
        for k in cfg.sweep.kappas
        for sc in cfg.sweep.drift_scales
    ]
    jobs = min(args.jobs or os.cpu_count() or 1, len(cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]

    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["alpha", "kappa", "drift_scale", "min_m", "sup_u", "iterations", "success", "error"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    n_ok = sum(r["success"] for r in rows)
    print(f"sweep: {n_ok}/{len(rows)} cells succeeded -> {path}")
    return EXIT_OK if n_ok == len(rows) else EXIT_NUMERICAL


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "mms": cmd_mms,
        "jacobian-check": cmd_jacobian_check,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MFGError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
