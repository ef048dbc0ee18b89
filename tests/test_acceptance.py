"""Acceptance suite: one test per exit criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json

import numpy as np
import pytest

from mfgtorus import (
    DriftSpec,
    Field,
    GridSpec,
    ManufacturedCase,
    PotentialSpec,
    ProblemSpec,
    State,
    TrigForm,
    assemble_jacobian,
    bilinear_form,
    coercivity_check,
    constant_field,
    continuation_solve,
    convergence_study,
    exact_initial,
    inverse_moment,
    monotonicity_gap,
    newton_solve,
    perturbation_solve,
    residual,
    sup_norm,
)
from mfgtorus.grid import mesh
from mfgtorus.solver import StepOptions

from conftest import problem_2d, suite_problem
from test_problem import catalog_battery

TWO_PI = 2 * np.pi


def check(num: int, name: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert condition, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_exact_homotopy_endpoint():
    worst = max(sup_norm(*residual(spec, 0.0, exact_initial(spec))) for spec in catalog_battery())
    check(1, "exact homotopy endpoint", worst <= 1e-14, f"worst residual {worst:.2e}")


def test_criterion_02_existence_suite(suite_solutions):
    failures = []
    for (alpha, kappa), (spec, s, trace) in suite_solutions.items():
        ok = (
            trace.success
            and s.min_m() > 0.0
            and sup_norm(*residual(spec, 1.0, s)) <= 1e-10
        )
        if not ok:
            failures.append((alpha, kappa))
    check(
        2,
        "existence suite 10/10",
        not failures and suite_solutions.elapsed <= 300.0,
        f"failures={failures}, wall time {suite_solutions.elapsed:.1f}s",
    )


def test_criterion_03_mass_and_positivity(suite_solutions):
    worst_defect = 0.0
    worst_min_m = np.inf
    for _, (_, _, trace) in suite_solutions.items():
        for st in trace.steps:
            worst_defect = max(worst_defect, st.diagnostics.mass_defect)
            worst_min_m = min(worst_min_m, st.diagnostics.min_m)
    check(
        3,
        "mass and positivity at every accepted state",
        worst_defect <= 1e-9 and worst_min_m > 0.0,
        f"max |mass-1| = {worst_defect:.2e}, min m = {worst_min_m:.3f}",
    )


def test_criterion_04_sup_bound(suite_solutions):
    worst_slack = -np.inf
    for _, (_, _, trace) in suite_solutions.items():
        for st in trace.steps:
            worst_slack = max(worst_slack, st.diagnostics.sup_u - st.diagnostics.sup_bound_V)
    check(
        4,
        "certified sup bound on u",
        worst_slack <= 1e-8,
        f"max (sup_u - bound) = {worst_slack:.2e}",
    )


def test_criterion_05_jacobian_exactness(reference_solution):
    spec, s_final, trace = reference_solution
    mid_step = trace.steps[len(trace.steps) // 2]
    s_mid, _ = newton_solve(spec, mid_step.lam, s_final)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for lam, s in ((0.0, exact_initial(spec)), (mid_step.lam, s_mid), (1.0, s_final)):
        sys_ = assemble_jacobian(spec, lam, s)
        base = s.stacked()
        for _ in range(20):
            w = rng.standard_normal(2 * spec.grid.size)
            eps = 1e-6
            rp = np.concatenate(
                [f.values for f in residual(spec, lam, State.from_stacked(spec.grid, base + eps * w))]
            )
            rm = np.concatenate(
                [f.values for f in residual(spec, lam, State.from_stacked(spec.grid, base - eps * w))]
            )
            fd = (rp - rm) / (2 * eps)
            jw = sys_.matrix @ w
            worst = max(worst, float(np.max(np.abs(jw - fd)) / np.max(np.abs(jw))))
    check(5, "Jacobian matches central differences", worst <= 1e-6, f"max rel error {worst:.2e}")


def test_criterion_06_newton_quadratic_tail(suite_solutions):
    sups_ratio = []
    quad_constants = []
    for (alpha, kappa) in ((0.0, 1.0), (0.5, 1.0), (0.9, 0.5)):
        spec, s_star, _ = suite_solutions.solutions[(alpha, kappa)]
        xs = mesh(spec.grid)[0]
        pert = 0.01 * np.cos(TWO_PI * xs)
        s0 = State(
            Field(spec.grid, s_star.u.values + pert),
            Field(spec.grid, s_star.m.values + pert),
        )
        _, rep = newton_solve(spec, 1.0, s0)
        hist = rep.residual_history
        full = [i for i, t in enumerate(rep.damping_history) if t == 1.0]
        assert len(full) >= 2, hist
        sups_ratio.extend(hist[i + 1] / hist[i] for i in full[-2:])
        # quadratic constants are only meaningful while r_k^2 sits above the
        # roundoff floor of the residual evaluation
        quad_constants.extend(
            hist[i + 1] / hist[i] ** 2 for i in full if hist[i] >= 1e-6
        )
    bounded = max(quad_constants) <= 1e4 if quad_constants else True
    check(
        6,
        "Newton quadratic tail",
        max(sups_ratio) <= 0.1 and bounded,
        f"last full-step ratios <= {max(sups_ratio):.2e}, quad constant <= "
        + (f"{max(quad_constants):.1e}" if quad_constants else "n/a"),
    )


def test_criterion_07_identity_refinement(refined_solutions):
    from mfgtorus import cancellation_check, moment_identity_check
    from mfgtorus.solver import newton_tolerance

    cancel, ident = [], []
    for n in (64, 128, 256):
        spec, s = refined_solutions[n]
        cancel.append(abs(cancellation_check(spec, s, 2.0)))
        ident.append(moment_identity_check(spec, s, newton_tolerance(spec))(2.0)[2])
    orders_c = [np.log2(a / b) for a, b in zip(cancel, cancel[1:])]
    orders_i = [np.log2(a / b) for a, b in zip(ident, ident[1:])]
    check(
        7,
        "identity defects refine at order >= 1.8",
        all(p >= 1.8 for p in orders_c + orders_i),
        f"cancellation orders {[f'{p:.2f}' for p in orders_c]}, "
        f"identity orders {[f'{p:.2f}' for p in orders_i]}",
    )


def test_criterion_08_inverse_moment_certificate(refined_solutions, suite_solutions):
    ok = True
    detail = []
    for r in (1.0, 2.0, 4.0):
        v128, b128 = inverse_moment(*refined_solutions[128], r)
        v256, _ = inverse_moment(*refined_solutions[256], r)
        stable = abs(v256 - v128) <= 0.02 * abs(v128)
        ok = ok and np.isfinite(v128) and stable and v128 <= b128
        detail.append(f"r={r:g}: value {v128:.4f} drift {abs(v256 - v128) / v128:.1e}")
    for _, (spec, s, _) in suite_solutions.items():
        for r in (1.0, 2.0, 4.0):
            value, bound = inverse_moment(spec, s, r)
            ok = ok and np.isfinite(value) and value <= bound
    check(8, "inverse moments certified and refinement-stable", ok, "; ".join(detail))


def test_criterion_09_coercivity(suite_solutions):
    spec = suite_problem(0.5)
    sys0 = assemble_jacobian(spec, 0.0, exact_initial(spec))
    ratio0 = coercivity_check(sys0, n_samples=200, seed=0)
    rng = np.random.default_rng(1)
    f = Field(spec.grid, rng.standard_normal(spec.grid.size))
    w = (constant_field(spec.grid, 0.0), f)
    f_ratio = bilinear_form(sys0, w, w) / (
        spec.grid.h * float(np.sum(f.values**2))
    )
    ok = ratio0 < 0.0 and ratio0 <= -0.5 + 1e-8 and f_ratio <= -0.5 + 1e-8
    worst_converged = -np.inf
    for _, (pspec, s, _) in suite_solutions.items():
        ratio = coercivity_check(assemble_jacobian(pspec, 1.0, s), n_samples=200, seed=0)
        ok = ok and ratio < 0.0
        worst_converged = max(worst_converged, ratio)
    check(
        9,
        "coercivity at start and at every converged solution",
        ok,
        f"start max ratio {ratio0:.3f}, f-direction {f_ratio:.3f}, "
        f"converged max ratio {worst_converged:.3e}",
    )


def test_criterion_10_uniqueness(reference_solution):
    spec, s_a, _ = reference_solution
    xs = mesh(spec.grid)[0]
    s0 = State(
        Field(spec.grid, s_a.u.values + 0.02 * np.sin(TWO_PI * xs)),
        Field(spec.grid, s_a.m.values + 0.02 * np.cos(TWO_PI * xs)),
    )
    s_b, rep_b = newton_solve(spec, 1.0, s0)
    s_c, trace_c = continuation_solve(spec, step_opts=StepOptions(max_step=0.125))
    assert rep_b.converged and trace_c.success
    dists = [
        float(np.max(np.abs(p.stacked() - q.stacked())))
        for p, q in ((s_a, s_b), (s_a, s_c), (s_b, s_c))
    ]
    gaps = []
    for p, q in ((s_a, s_b), (s_a, s_c), (s_b, s_c)):
        rep = monotonicity_gap(spec, p, q)
        gaps.extend((abs(rep.lhs), abs(rep.rhs)))
    check(
        10,
        "three solution paths agree",
        max(dists) <= 1e-8 and max(gaps) <= 1e-7,
        f"max pairwise distance {max(dists):.2e}, max pairing value {max(gaps):.2e}",
    )


def test_criterion_11_interpolation_derivative_inequality(reference_solution):
    worst = np.inf
    for alpha in (0.0, 0.25, 0.5, 0.75, 0.9, 1.5):
        pot = PotentialSpec("separable", TrigForm(0.0, (0.2,), (0.0,)), 1.0)
        spec = ProblemSpec(GridSpec(1, 64), alpha, pot, DriftSpec.zero(1))
        x = mesh(spec.grid)[0]
        s0 = State(
            Field(spec.grid, 0.2 * np.sin(TWO_PI * x)),
            Field(spec.grid, 1.0 + 0.4 * np.cos(TWO_PI * x)),
        )
        s1 = State(
            Field(spec.grid, -0.15 * np.cos(TWO_PI * x)),
            Field(spec.grid, 1.4 + 0.6 * np.sin(TWO_PI * x)),
        )
        rep = monotonicity_gap(spec, s0, s1)
        worst = min(
            worst, min(d - lo for d, lo in zip(rep.di_dtheta, rep.lower_bounds))
        )
    # also on a converged solution pair of the reference problem
    spec, s_a, _ = reference_solution
    xs = mesh(spec.grid)[0]
    s_b, _ = newton_solve(
        spec,
        1.0,
        State(
            Field(spec.grid, s_a.u.values + 0.01 * np.sin(TWO_PI * xs)),
            Field(spec.grid, s_a.m.values + 0.01 * np.cos(TWO_PI * xs)),
        ),
    )
    rep = monotonicity_gap(spec, s_a, s_b)
    worst = min(worst, min(d - lo for d, lo in zip(rep.di_dtheta, rep.lower_bounds)))
    check(
        11,
        "derivative bound along the interpolation segment",
        worst >= -1e-10,
        f"min (dI - bound) = {worst:.2e}",
    )


def test_criterion_12_perturbation_path():
    pot = PotentialSpec("separable", TrigForm(0.0, (0.3,), (0.0,)))
    spec = ProblemSpec(GridSpec(1, 128), 0.5, pot, DriftSpec((TrigForm(0.0, (0.0,), (0.3,)),)))
    results = perturbation_solve(spec, [1e-1, 1e-2, 1e-3, 1e-4])
    dists = [
        float(np.max(np.abs(a[1].stacked() - b[1].stacked())))
        for a, b in zip(results, results[1:])
    ]
    monotone = all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    check(
        12,
        "vanishing-perturbation Cauchy trend",
        monotone,
        "distances " + ", ".join(f"{d:.2e}" for d in dists),
    )


def test_criterion_13_mms_convergence():
    case_1d = ManufacturedCase(
        suite_problem(0.5),
        TrigForm(0.0, (0.0,), (0.1,)),
        TrigForm(1.0, (0.5,), (0.0,)),
    )
    t1 = convergence_study(case_1d, [32, 64, 128, 256])
    spec2 = problem_2d(n=16)
    case_2d = ManufacturedCase(
        spec2,
        TrigForm(0.0, (0.05, 0.0), (0.0, 0.05)),
        TrigForm(1.0, (0.3, 0.0), (0.0, 0.2)),
    )
    t2 = convergence_study(case_2d, [16, 32, 64])
    ok = (
        1.8 <= t1.observed_order_u <= 2.2
        and 1.8 <= t1.observed_order_m <= 2.2
        and 1.7 <= t2.observed_order_u <= 2.3
        and 1.7 <= t2.observed_order_m <= 2.3
    )
    check(
        13,
        "manufactured-solution convergence orders",
        ok,
        f"1-D (u, m) = ({t1.observed_order_u:.2f}, {t1.observed_order_m:.2f}), "
        f"2-D = ({t2.observed_order_u:.2f}, {t2.observed_order_m:.2f})",
    )


def test_criterion_14_determinism(tmp_path):
    from mfgtorus.cli import main

    doc = {
        "problem": {
            "dim": 1,
            "n": 64,
            "alpha": 0.5,
            "potential": {"form": "separable", "kappa": 1.0, "a_cos": [0.5], "a_sin": [0.0]},
            "drift": {"components": [{"const": 0.0, "cos": [0.0], "sin": [0.3]}]},
            "epsilon_monotone": 0.0,
        },
        "seed": 7,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a/trace.json").read_bytes() == (tmp_path / "b/trace.json").read_bytes()
    check(14, "byte-identical traces for identical config and seed", same)
