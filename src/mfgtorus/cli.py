"""Batch command-line surface: solve, verify, mms, jacobian-check, sweep.

The only module with side effects.  JSON for configs and reports, CSV for
fields and tables.  Exit codes: 0 success, 1 usage/config error, 2 numerical
failure or out of memory.  MFG_LOG=error|info|debug controls verbosity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import diagnostics as diag
from .config import ConfigError, load_config, sweep_cell_problem
from .errors import ContinuationStalled, MFGError, SolverFailure
from .grid import load_field, save_field, sup_norm
from .linearization import FD_TOLERANCE, assemble_jacobian, coercivity_check, fd_max_error
from .problem import State, exact_initial
from .solver import continuation_solve, newton_solve
from .verification import convergence_study

log = logging.getLogger("mfgtorus")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


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


def cmd_solve(args, cfg, out) -> int:
    cfg = replace(cfg, solver=cfg.solver.resolved(cfg.problem))  # resolved_config.json records the number
    _write_json(os.path.join(out, "resolved_config.json"), cfg.resolved())
    try:
        s, trace = continuation_solve(cfg.problem, cfg.solver, cfg.continuation, cfg.diagnostics)
    except ContinuationStalled as err:
        print(f"continuation stalled: {err}", file=sys.stderr)
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


def cmd_verify(args, cfg, out) -> int:
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
        _, rows = diag.make_snapshot(spec, State(u, m), 1.0, cfg.diagnostics, cfg.solver.resolved(spec).tol_residual)
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


def cmd_mms(args, cfg, out) -> int:
    try:
        table = convergence_study(cfg.mms.case, list(cfg.mms.grids), cfg.solver)
    except SolverFailure as err:
        print(f"mms solve failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    table.write_csv(os.path.join(out, "rates.csv"))
    for row in table.rows:
        print(f"n={row.n:<5d} error_u={row.error_u:.3e} error_m={row.error_m:.3e} "
              f"rate_u={row.rate_u:.3f} rate_m={row.rate_m:.3f}")
    print(f"observed order: u {table.observed_order_u:.3f}, m {table.observed_order_m:.3f}")
    return EXIT_OK


def cmd_jacobian_check(args, cfg, out) -> int:
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
        sys_ = assemble_jacobian(spec, lam, s)
        err = fd_max_error(spec, lam, sys_, rng)
        entry = {"state": tag, "lambda": lam, "fd_max_rel_error": err}
        if tag in ("initial", "final"):
            ratio = coercivity_check(sys_, seed=cfg.seed)
            entry["coercivity"] = {"all_negative": ratio < 0.0, "max_ratio": ratio, "c_estimate": -ratio}
            ok = ok and ratio < 0.0
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
    row = {"alpha": alpha, "kappa": kappa, "drift_scale": scale}
    try:
        spec = sweep_cell_problem(cfg.problem, alpha, kappa, scale)
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


def cmd_sweep(args, cfg, out) -> int:
    cells = [(cfg, *cell) for cell in cfg.sweep.cells]
    jobs = min(args.jobs or os.cpu_count() or 1, len(cells))
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:  # opened first: an unwritable path fails before any cell runs
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_cell, cells))
        else:
            rows = [_sweep_cell(c) for c in cells]
        writer = csv.DictWriter(
            fh, fieldnames=["alpha", "kappa", "drift_scale", "min_m", "sup_u", "iterations", "success", "error"]
        )
        writer.writeheader()
        writer.writerows(rows)
    n_ok = sum(r["success"] for r in rows)
    print(f"sweep: {n_ok}/{len(rows)} cells succeeded -> {path}")
    return EXIT_OK if n_ok == len(rows) else EXIT_NUMERICAL


# Each subcommand once: its handler, the config section it needs and its help line.
COMMANDS = {
    "solve": (cmd_solve, None, "run the continuation to lambda=1"),
    "verify": (cmd_verify, None, "run diagnostics on stored fields"),
    "mms": (cmd_mms, "mms", "manufactured-solution convergence study"),
    "jacobian-check": (cmd_jacobian_check, None, "finite-difference and coercivity checks"),
    "sweep": (cmd_sweep, "sweep", "parameter sweep over (alpha, kappa, drift scale)"),
}


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfgtorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, section, help_line) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(handler=handler, section=section)
        if name == "verify":
            p.add_argument(
                "--state",
                nargs=2,
                action="append",
                required=True,
                metavar=("U_CSV", "M_CSV"),
                help="a (u, m) field pair; repeat with refined grids to get a refinement series",
            )
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=None, help="worker processes")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", None) is not None and args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        cfg = load_config(args.config)
        if args.section is not None and getattr(cfg, args.section) is None:
            raise ConfigError(f"config has no {args.section!r} section")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {args.out}: {err}") from err
        return args.handler(args, cfg, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MFGError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:  # the grid cap admits runs that need more memory than some hosts have
        print("run failed: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:  # every read turns its OSError into a ConfigError, so this is a write
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
