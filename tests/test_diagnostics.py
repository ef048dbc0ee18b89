from dataclasses import asdict

import numpy as np
import pytest

from mfgtorus import (
    BadExponent,
    DriftSpec,
    Field,
    GridSpec,
    MFGError,
    NewtonOptions,
    NonPositiveDensity,
    NotASolution,
    PotentialSpec,
    ProblemSpec,
    State,
    TrigForm,
    cancellation_check,
    constant_field,
    continuation_solve,
    exact_initial,
    inverse_moment,
    make_snapshot,
    mass_positivity_check,
    moment_identity_check,
    monotonicity_gap,
    sup_bound_check,
)
from mfgtorus import diagnostics
from mfgtorus.diagnostics import DiagnosticsConfig, DiagnosticsSnapshot
from mfgtorus.grid import gradient_arrays, integral, mesh, sup_norm
from mfgtorus.problem import effective_potential

from conftest import problem_2d, suite_problem

TWO_PI = 2 * np.pi
NEWTON_TOL = NewtonOptions().tol_residual  # the tolerance the solutions below were solved to


def simpson(fn, n=10**6):
    x = np.linspace(0.0, 1.0, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (1.0 / n) / 3.0 * float(np.sum(w * fn(x)))


def wavy_state(grid, u_amp=0.1, m_amp=0.5):
    x = mesh(grid)[0]
    return State(
        Field(grid, u_amp * np.sin(TWO_PI * x)),
        Field(grid, 1.0 + m_amp * np.cos(TWO_PI * x)),
    )


class TestSupBound:
    def test_explicit_start_within_homotopy_bound(self):
        spec = suite_problem(0.5)
        sup_u, bound, ok = sup_bound_check(spec, exact_initial(spec), lam=0.0)
        assert ok
        assert sup_u == pytest.approx(np.pi / 4)
        assert bound >= np.pi / 2

    def test_converged_solution_within_potential_bound(self, reference_solution):
        spec, s, _ = reference_solution
        sup_u, bound, ok = sup_bound_check(spec, s, lam=1.0)
        assert ok
        assert bound == pytest.approx(0.5 + np.pi / 2)  # a-amplitude + kappa * pi/2
        assert sup_u <= bound + 1e-8

    def test_violating_state_fails(self):
        spec = suite_problem(0.5, n=32)
        bad = State(constant_field(spec.grid, 10.0), constant_field(spec.grid, 1.0))
        _, _, ok = sup_bound_check(spec, bad, lam=1.0)
        assert not ok


class TestMassPositivity:
    def test_unit_density(self):
        grid = GridSpec(1, 32)
        s = State(constant_field(grid, 0.0), constant_field(grid, 1.0))
        defect, min_m = mass_positivity_check(s)
        assert defect == 0.0
        assert min_m == 1.0

    def test_harmonic_integrates_away(self):
        grid = GridSpec(1, 64)
        x = mesh(grid)[0]
        s = State(constant_field(grid, 0.0), Field(grid, 1.0 + 0.3 * np.cos(TWO_PI * x)))
        defect, min_m = mass_positivity_check(s)
        assert defect <= 1e-13
        assert min_m == pytest.approx(0.7, abs=1e-12)

    def test_accepted_solver_state(self, reference_solution):
        _, s, _ = reference_solution
        defect, min_m = mass_positivity_check(s)
        assert defect <= 1e-9
        assert min_m > 0.0


class TestInverseMoment:
    def test_unit_density_gives_one(self):
        spec = suite_problem(0.5, n=32)
        s = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        for r in (1.0, 2.0, 4.0):
            value, bound = inverse_moment(spec, s, r)
            assert value == pytest.approx(1.0, abs=1e-13)
            assert value <= bound

    def test_against_simpson_oracle(self):
        # alpha=0.5, r=2: integrand m^{-2.5} with m = 1 + 0.5 cos(2 pi x)
        spec = suite_problem(0.5, n=128)
        s = wavy_state(spec.grid)
        value, _ = inverse_moment(spec, s, 2.0)
        oracle = simpson(lambda x: (1.0 + 0.5 * np.cos(TWO_PI * x)) ** -2.5)
        assert oracle == pytest.approx(1.8621535656160366, abs=1e-9)
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_rejects_exponent_at_or_below_alpha(self):
        spec = suite_problem(0.5, n=32)
        s = exact_initial(spec)
        with pytest.raises(BadExponent):
            inverse_moment(spec, s, 0.5)
        with pytest.raises(BadExponent):
            inverse_moment(spec, s, 0.3)

    def test_majorant_beyond_the_float_range_raises_one_error(self):
        # here the closed form leaves the float range between r = 90 and r = 100
        spec = suite_problem(0.5, n=32)
        s = exact_initial(spec)
        assert np.isfinite(inverse_moment(spec, s, 90.0)[1])
        with pytest.raises(MFGError, match="overflows at r = 150, alpha = 0.5"):
            inverse_moment(spec, s, 150.0)

    def test_refinement_stability_on_converged_solutions(self, refined_solutions):
        for r in (1.0, 2.0, 4.0):
            values = {}
            for n in (128, 256):
                spec, s = refined_solutions[n]
                values[n], _ = inverse_moment(spec, s, r)
            assert abs(values[256] - values[128]) <= 0.02 * abs(values[128])

    def test_certified_majorant_holds_on_converged_solutions(self, suite_solutions):
        for (alpha, kappa), (spec, s, _) in suite_solutions.items():
            for r in (1.0, 2.0, 4.0):
                value, bound = inverse_moment(spec, s, r)
                assert np.isfinite(value)
                assert value <= bound, (alpha, kappa, r, value, bound)


class TestCancellation:
    def test_flat_u_vanishes_exactly(self):
        spec = suite_problem(0.5, n=32)
        x = mesh(spec.grid)[0]
        s = State(constant_field(spec.grid, 1.0), Field(spec.grid, 1.0 + 0.4 * np.cos(TWO_PI * x)))
        assert cancellation_check(spec, s, 2.0) == 0.0

    def test_unit_density_telescopes_to_roundoff(self):
        spec = suite_problem(0.5, n=64)
        x = mesh(spec.grid)[0]
        s = State(Field(spec.grid, 0.3 * np.sin(TWO_PI * x)), constant_field(spec.grid, 1.0))
        assert abs(cancellation_check(spec, s, 2.0)) <= 1e-13

    def test_second_order_refinement_on_converged_solutions(self, refined_solutions):
        defects = []
        for n in (64, 128, 256):
            spec, s = refined_solutions[n]
            defects.append(abs(cancellation_check(spec, s, 2.0)))
        ratios = [a / b for a, b in zip(defects, defects[1:])]
        assert all(r >= 3.5 for r in ratios), (defects, ratios)

    def test_rejects_bad_exponent(self):
        spec = suite_problem(0.9, n=32)
        with pytest.raises(BadExponent):
            cancellation_check(spec, exact_initial(spec), 0.9)

    def test_overflowing_powers_raise_one_error(self):
        # m^r leaves the float range both ways: inf where m > 1, 0 (then x / 0) where m < 1
        spec = suite_problem(0.5, n=32)
        s = wavy_state(spec.grid)
        assert np.isfinite(cancellation_check(spec, s, 400.0))
        with pytest.raises(MFGError, match="cancellation check overflows at r = 100000, alpha = 0.5"):
            cancellation_check(spec, s, 1e5)


class TestMomentIdentity:
    def test_constant_solution_has_zero_defect(self):
        # V = c, b = 0, u = c, m = 1 solves the system; the identity telescopes
        grid = GridSpec(1, 32)
        c = 0.8
        spec = ProblemSpec(
            grid, 0.5, PotentialSpec("separable", TrigForm(c, (0.0,), (0.0,))), DriftSpec.zero(1)
        )
        s = State(constant_field(grid, c), constant_field(grid, 1.0))
        for r in (1.0, 2.0, 4.0):
            lhs, rhs, defect = moment_identity_check(spec, s, NEWTON_TOL)(r)
            assert lhs == pytest.approx(1.0 / (r + 0.5), abs=1e-13)
            assert defect <= 1e-13

    def test_second_order_refinement_on_converged_solutions(self, refined_solutions):
        defects = []
        for n in (64, 128, 256):
            spec, s = refined_solutions[n]
            _, _, defect = moment_identity_check(spec, s, NEWTON_TOL)(2.0)
            defects.append(defect)
        ratios = [a / b for a, b in zip(defects, defects[1:])]
        assert all(r >= 3.5 for r in ratios), (defects, ratios)

    def test_perturbed_state_rejected(self, reference_solution):
        spec, s, _ = reference_solution
        bad = State(Field(spec.grid, s.u.values + 1e-3), s.m)
        with pytest.raises(NotASolution):
            moment_identity_check(spec, bad, NEWTON_TOL)(2.0)

    def test_rejects_bad_exponent(self, reference_solution):
        spec, s, _ = reference_solution
        with pytest.raises(BadExponent):
            moment_identity_check(spec, s, NEWTON_TOL)(0.25)

    def test_overflowing_powers_raise_one_error(self, reference_solution):
        spec, s, _ = reference_solution
        assert all(np.isfinite(moment_identity_check(spec, s, NEWTON_TOL)(4.0)))
        with pytest.raises(MFGError, match="identity check overflows at r = 100000, alpha = 0.5"):
            moment_identity_check(spec, s, NEWTON_TOL)(1e5)

    def test_one_residual_however_many_exponents(self, reference_solution, monkeypatch):
        spec, s, _ = reference_solution
        original = diagnostics.residual
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "residual", counting)
        identity = moment_identity_check(spec, s, NEWTON_TOL)
        assert seen == [1.0]
        for r in (1.0, 1.5, 2.0, 3.0, 4.0):
            identity(r)
        assert seen == [1.0]

    @pytest.mark.parametrize("check", ["cancellation", "identity"])
    def test_built_on_nonpositive_density_raises(self, check):
        spec = suite_problem(0.5, n=32)
        s = State(constant_field(spec.grid, 0.8), Field(spec.grid, np.linspace(-0.5, 2.5, 32)))
        with pytest.raises(NonPositiveDensity, match=f"{check} check needs m > 0"):
            cancellation_check(spec, s, 2.0) if check == "cancellation" else moment_identity_check(spec, s, NEWTON_TOL)


class TestMonotonicityGap:
    def test_identical_states_give_zero(self):
        spec = suite_problem(0.5, n=32)
        s = wavy_state(spec.grid)
        rep = monotonicity_gap(spec, s, s)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert all(v == 0.0 for v in rep.di_dtheta)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 0.9, 1.5])
    def test_derivative_dominates_certified_lower_bound(self, alpha):
        pot = PotentialSpec("separable", TrigForm(0.0, (0.2,), (0.0,)), 1.0)
        spec = ProblemSpec(GridSpec(1, 64), alpha, pot, DriftSpec.zero(1))
        x = mesh(spec.grid)[0]
        s0 = State(
            Field(spec.grid, 0.2 * np.sin(TWO_PI * x)),
            Field(spec.grid, 1.0 + 0.4 * np.cos(TWO_PI * x)),
        )
        s1 = State(
            Field(spec.grid, -0.1 * np.cos(TWO_PI * x)),
            Field(spec.grid, 1.3 + 0.5 * np.sin(TWO_PI * x)),
        )
        rep = monotonicity_gap(spec, s0, s1)
        for d, lo in zip(rep.di_dtheta, rep.lower_bounds):
            assert d >= lo - 1e-10
            assert lo >= 0.0 if alpha <= 2.0 else True

    def test_curve_integrates_back_to_lhs(self):
        spec = suite_problem(0.5, n=64)
        x = mesh(spec.grid)[0]
        s0 = wavy_state(spec.grid)
        s1 = State(
            Field(spec.grid, 0.05 * np.cos(TWO_PI * x)),
            Field(spec.grid, 1.2 + 0.3 * np.sin(TWO_PI * x)),
        )
        rep = monotonicity_gap(spec, s0, s1)
        scale = max(abs(rep.lhs), 1e-2)
        assert abs(rep.i1_trapezoid - rep.lhs) <= 0.02 * scale

    def test_solutions_of_same_problem_close_the_gap(self, reference_solution):
        spec, s, _ = reference_solution
        from mfgtorus import newton_solve

        x = mesh(spec.grid)[0]
        s0 = State(
            Field(spec.grid, s.u.values + 0.01 * np.sin(TWO_PI * x)),
            Field(spec.grid, s.m.values + 0.01 * np.cos(TWO_PI * x)),
        )
        s_again, rep_newton = newton_solve(spec, 1.0, s0)
        assert rep_newton.converged
        assert np.max(np.abs(s_again.stacked() - s.stacked())) <= 1e-8
        rep = monotonicity_gap(spec, s, s_again)
        assert abs(rep.lhs) <= 1e-7
        assert abs(rep.rhs) <= 1e-7

    def test_rejects_nonpositive_density(self):
        spec = suite_problem(0.5, n=32)
        s_good = wavy_state(spec.grid)
        s_bad = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, -0.5))
        with pytest.raises(NonPositiveDensity):
            monotonicity_gap(spec, s_good, s_bad)


def monotonicity_gap_reference(spec, s0, s1):
    """(lhs, rhs, di_dtheta, lower_bounds, i1_trapezoid) of `monotonicity_gap`, each state evaluated here."""
    grid, a = spec.grid, spec.alpha
    m0, m1 = s0.m.reshaped(), s1.m.reshaped()
    du0, du1 = gradient_arrays(s0.u), gradient_arrays(s1.u)
    ddiff = [g1 - g0 for g0, g1 in zip(du0, du1)]
    ddiff_sq = sum(d * d for d in ddiff)
    du0_sq, du1_sq = sum(d * d for d in du0), sum(d * d for d in du1)
    lhs = integral(grid, (du1_sq / (2.0 * m1**a) - du0_sq / (2.0 * m0**a)) * (m0 - m1)) + integral(
        grid, sum((m0 ** (1.0 - a) * g0 - m1 ** (1.0 - a) * g1) * d for g0, g1, d in zip(du0, du1, ddiff)) * -1.0)
    v0, v1 = (effective_potential(spec, grid, m, np.arctan(m)) for m in (m0, m1))
    rhs = integral(grid, (v1 - v0) * (m0 - m1))
    thetas = np.linspace(0.0, 1.0, diagnostics.N_THETA)
    dmi = m1 - m0
    curve, bounds = [], []
    for th in thetas:
        m_t = m0 + th * dmi
        du_t = [(1.0 - th) * g0 + th * g1 for g0, g1 in zip(du0, du1)]
        du_t_dot = sum(g * d for g, d in zip(du_t, ddiff))
        du_t_sq = sum(g * g for g in du_t)
        main = integral(grid, m_t ** (1.0 - a) * ddiff_sq)
        curve.append(-a * integral(grid, du_t_dot * dmi * m_t**-a)
                     + 0.5 * a * integral(grid, du_t_sq * dmi * dmi * m_t ** -(1.0 + a)) + main)
        bounds.append((1.0 - 0.5 * a) * main)
    y = np.asarray(curve)
    return lhs, rhs, curve, bounds, float((np.diff(thetas) * (y[1:] + y[:-1]) / 2.0).sum())


@pytest.fixture(scope="module")
def gap_pairs():
    """Solutions at kappa = 1 and 1.0001 at 1-D n = 64 and at 2-D n = 16, each pair under its first problem,
    and two manufactured states at alpha = 1.5, beyond the solvable range.  The solutions lie close, so the
    differences of the pairing cancel and an ulp moved in one state's terms survives the integrals."""
    pairs = {}
    for key, specs in (("1d", (suite_problem(0.5, n=64), suite_problem(0.5, kappa=1.0001, n=64))),
                       ("2d", (problem_2d(n=16), problem_2d(kappa=1.0001, n=16)))):
        pairs[key] = (specs[0], *(continuation_solve(spec)[0] for spec in specs))
    pot = PotentialSpec("saturating", TrigForm(0.1, (0.2,), (0.3,)), 0.7)
    spec = ProblemSpec(GridSpec(1, 64), 1.5, pot, DriftSpec((TrigForm(0.0, (0.0,), (0.3,)),)), 0.05)
    x = mesh(spec.grid)[0]
    pairs["alpha-1.5"] = (spec, wavy_state(spec.grid),
                          State(Field(spec.grid, -0.1 * np.cos(TWO_PI * x)),
                                Field(spec.grid, 1.3 + 0.5 * np.sin(TWO_PI * x))))
    return pairs


class TestMonotonicityGapPinned:
    @pytest.mark.parametrize("key", ["1d", "2d", "alpha-1.5"])
    def test_bitwise_equal_to_the_evaluation_of_each_state(self, gap_pairs, key):
        spec, s0, s1 = gap_pairs[key]
        rep = monotonicity_gap(spec, s0, s1)
        got = (rep.lhs, rep.rhs, *rep.di_dtheta, *rep.lower_bounds, rep.i1_trapezoid)
        lhs, rhs, curve, bounds, i1 = monotonicity_gap_reference(spec, s0, s1)
        want = (lhs, rhs, *curve, *bounds, i1)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
        assert rep.lhs != 0.0 and rep.rhs != 0.0


class TestQuadratureDoubleEntry:
    """Every diagnostic integral recomputed with the independent Simpson oracle
    on the closed forms; agreement within max(1e-8, 5 h^2 scale)."""

    def test_moment_and_energy_integrals(self):
        spec = suite_problem(0.5, n=64)
        grid = spec.grid
        s = wavy_state(grid)
        h2 = grid.h**2
        r = 2.0
        a = spec.alpha
        xf = np.linspace(0.0, 1.0, 4096)

        m_of = lambda x: 1.0 + 0.5 * np.cos(TWO_PI * x)
        du_of = lambda x: 0.1 * TWO_PI * np.cos(TWO_PI * x)
        dm_of = lambda x: -0.5 * TWO_PI * np.sin(TWO_PI * x)

        def budget(integrand):
            # scale covers the centered-difference error constant (2 pi)^2 / 3
            # on mode-1 content: sup of the integrand plus its integral
            scale = float(np.max(np.abs(integrand(xf)))) + abs(simpson(integrand))
            return max(1e-8, 5 * h2 * scale)

        value, _ = inverse_moment(spec, s, r)
        fn = lambda x: m_of(x) ** -(r + 1 - a)
        assert abs(value - simpson(fn)) <= budget(fn)

        from mfgtorus.grid import gradient_arrays

        du_disc = gradient_arrays(s.u)[0]
        dm_disc = gradient_arrays(s.m)[0]
        m = s.m.values
        vol = grid.h
        kinetic = vol * np.sum(du_disc**2 * m ** -(r + a)) / (2 * r)
        fn = lambda x: du_of(x) ** 2 * m_of(x) ** -(r + a)
        assert abs(kinetic - simpson(fn) / (2 * r)) <= budget(fn)

        density = vol * np.sum(dm_disc**2 * m ** -(r + 2 - a))
        fn = lambda x: dm_of(x) ** 2 * m_of(x) ** -(r + 2 - a)
        assert abs(density - simpson(fn)) <= budget(fn)

    def test_cancellation_terms_against_oracle(self):
        spec = suite_problem(0.5, n=64)
        grid = spec.grid
        s = wavy_state(grid)
        r, a = 2.0, spec.alpha
        h2 = grid.h**2
        # continuum value of each side: integral of Du Dm / m^(r+1)
        side = simpson(
            lambda x: (0.1 * TWO_PI * np.cos(TWO_PI * x))
            * (-0.5 * TWO_PI * np.sin(TWO_PI * x))
            * (1.0 + 0.5 * np.cos(TWO_PI * x)) ** -(r + 1)
        )
        from mfgtorus.grid import gradient_arrays, laplacian_array

        m = s.m.reshaped()
        lap_u = laplacian_array(s.u.reshaped(), grid)
        term1 = grid.h * np.sum(lap_u / (r * m**r)) * r  # strip the 1/r to compare integrals
        assert abs(term1 - side) <= max(1e-8, 20 * h2 * max(1.0, abs(side)))


class TestSnapshot:
    def test_contents_on_reference_solution(self, reference_solution):
        spec, s, _ = reference_solution
        snap, _ = make_snapshot(spec, s, 1.0, DiagnosticsConfig(), NEWTON_TOL)
        assert snap.min_m > 0
        assert snap.mass_defect <= 1e-9
        assert snap.sup_u <= snap.sup_bound_V + 1e-8
        assert [r for r, _, _ in snap.inverse_moments] == [1.0, 2.0, 4.0]
        for _, value, bound in snap.inverse_moments:
            assert value <= bound
        assert snap.moment_identity_defects
        d = asdict(snap)
        assert set(d) == {
            "sup_u",
            "sup_bound_V",
            "min_m",
            "mass_defect",
            "inverse_moments",
            "cancellation_residuals",
            "moment_identity_defects",
        }

    def test_skips_r_values_at_or_below_alpha(self):
        spec = suite_problem(0.9, n=32)
        snap, _ = make_snapshot(spec, exact_initial(spec), 0.0, DiagnosticsConfig((0.5, 2.0)), NEWTON_TOL)
        assert [r for r, _, _ in snap.inverse_moments] == [2.0]


def snapshot_from_checks(spec, s, lam, r_values, tol):
    """The snapshot assembled from the public per-r checks, one call per r."""
    rs = [r for r in r_values if r > spec.alpha]
    sup_u, bound, _ = sup_bound_check(spec, s, lam)
    mass_defect, min_m = mass_positivity_check(s)
    identities = ()
    if lam == 1.0:
        try:
            identities = tuple((r, moment_identity_check(spec, s, tol)(r)[2]) for r in rs)
        except NotASolution:
            pass
    return DiagnosticsSnapshot(
        sup_u, bound, min_m, mass_defect,
        tuple((r, *inverse_moment(spec, s, r)) for r in rs),
        tuple((r, cancellation_check(spec, s, r)) for r in rs),
        identities,
    )


@pytest.fixture(scope="module")
def snapshot_solutions():
    """lam = 1 solutions: 1-D n = 64 at alpha 0.5 and 0.9, 2-D n = 16 at alpha 0.5."""
    specs = {"1d": suite_problem(0.5, n=64), "1d-alpha-0.9": suite_problem(0.9, n=64),
             "2d": problem_2d(n=16)}
    return {key: (spec, continuation_solve(spec)[0]) for key, spec in specs.items()}


class TestSnapshotEqualsChecks:
    R_VALUES = (0.5, 1.0, 2.0, 4.0)  # 0.5 is skipped at both alphas

    @pytest.mark.parametrize("key", ["1d", "1d-alpha-0.9", "2d"])
    @pytest.mark.parametrize("case", ["lam-0.5", "solution", "off-solution"])
    def test_bitwise_equal(self, snapshot_solutions, key, case):
        spec, s = snapshot_solutions[key]
        lam = 0.5 if case == "lam-0.5" else 1.0
        if case == "off-solution":  # residual far above 100x the tolerance
            s = State(Field(spec.grid, s.u.values + 1e-3), s.m)
        snap, _ = make_snapshot(spec, s, lam, DiagnosticsConfig(self.R_VALUES), NEWTON_TOL)
        assert snap == snapshot_from_checks(spec, s, lam, self.R_VALUES, NEWTON_TOL)
        assert len(snap.inverse_moments) == 3
        assert bool(snap.moment_identity_defects) == (case == "solution")

    @pytest.mark.parametrize("lam, calls", [(0.5, 0), (1.0, 1)])
    def test_one_residual_per_snapshot_at_lambda_one(self, snapshot_solutions, monkeypatch, lam, calls):
        spec, s = snapshot_solutions["1d"]
        original = diagnostics.residual
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "residual", counting)
        snap, _ = make_snapshot(spec, s, lam, DiagnosticsConfig(self.R_VALUES), NEWTON_TOL)
        assert len(snap.moment_identity_defects) == (3 if lam == 1.0 else 0)
        assert seen == [1.0] * calls


class TestSnapshotReadsTheStateTerms:
    """A snapshot evaluates its state at most once: every check reads the terms kept with the state."""

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("fresh, calls", [(False, 0), (True, 1)], ids=["newton-state", "fresh-state"])
    def test_terms_computed_at_most_once(self, snapshot_solutions, monkeypatch, lam, fresh, calls):
        from mfgtorus import newton_solve, problem

        spec, s = snapshot_solutions["1d"]
        x = mesh(spec.grid)[0]
        start = State(Field(spec.grid, s.u.values + 0.01 * np.sin(TWO_PI * x)), s.m)
        s, report = newton_solve(spec, lam, start)
        assert report.converged
        if fresh:
            s = State(Field(spec.grid, s.u.values.copy()), Field(spec.grid, s.m.values.copy()))
        original = problem._terms_arrays
        seen = []

        def counting(*args):
            seen.append(args[0])
            return original(*args)

        monkeypatch.setattr(problem, "_terms_arrays", counting)
        snap, _ = make_snapshot(spec, s, lam, DiagnosticsConfig(), NEWTON_TOL)
        assert len(snap.inverse_moments) == len(snap.cancellation_residuals) == 3
        assert len(snap.moment_identity_defects) == (3 if lam == 1.0 else 0)
        assert seen == [spec] * calls


def rows_from_checks(spec, s, dcfg, tol):
    """The rows `verify` printed when it called the public checks once per r, thresholds worked out here."""
    h2 = spec.grid.h ** 2
    rows = []

    def add(check, r, value, threshold, passed, note=""):
        rows.append({"check": check, "r": r, "value": float(value), "threshold": float(threshold),
                     "passed": bool(passed), "note": note})

    mass_defect, min_m = mass_positivity_check(s)
    if "mass" in dcfg.checks:
        add("mass", None, mass_defect, 10.0 * tol, mass_defect <= 10.0 * tol)
    if "positivity" in dcfg.checks:
        add("positivity", None, min_m, 0.0, min_m > 0.0)
    if "sup" in dcfg.checks:
        sup_u, bound, ok = sup_bound_check(spec, s)
        add("sup", None, sup_u, bound + diagnostics.SUP_TOL, ok)
    for r in dcfg.r_values:
        if "moment" in dcfg.checks:
            value, majorant = inverse_moment(spec, s, r)
            add("moment", r, value, majorant, value <= majorant)
        if "cancellation" in dcfg.checks:
            value = cancellation_check(spec, s, r)
            budget = dcfg.identity_budget_factor * h2
            add("cancellation", r, abs(value), budget, abs(value) <= budget)
        if "identity" in dcfg.checks:
            try:
                lhs, _, defect = moment_identity_check(spec, s, tol)(r)
                budget = dcfg.identity_budget_factor * h2 * max(1.0, abs(lhs))
                add("identity", r, defect, budget, defect <= budget)
            except NotASolution as err:
                add("identity", r, float("inf"), 0.0, False, str(err))
    return rows


class TestVerifyRowsEqualChecks:
    CONFIGS = {
        "default": DiagnosticsConfig(),
        "subset": DiagnosticsConfig((1.5, 3.0), ("positivity", "sup", "identity"), 25.0),
        "per-r-only": DiagnosticsConfig((2.0,), ("cancellation", "moment")),
    }

    @pytest.mark.parametrize("key", ["1d", "1d-alpha-0.9", "2d"])
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("solution", [True, False], ids=["solution", "off-solution"])
    def test_rows_equal(self, snapshot_solutions, key, config, solution):
        spec, s = snapshot_solutions[key]
        if not solution:  # residual far above 100x the tolerance: failed identity rows with a note
            s = State(Field(spec.grid, s.u.values + 1e-3), s.m)
        dcfg = self.CONFIGS[config]
        snap, rows = make_snapshot(spec, s, 1.0, dcfg, NEWTON_TOL)
        assert rows == rows_from_checks(spec, s, dcfg, NEWTON_TOL)
        assert [row["check"] for row in rows if row["r"] is None] == [
            c for c in ("mass", "positivity", "sup") if c in dcfg.checks]
        notes = {row["note"] for row in rows if row["check"] == "identity"}
        assert bool(notes - {""}) == ("identity" in dcfg.checks and not solution)
        # the scalar fields are recorded whichever checks run; the per-r ones only for their check
        assert (snap.sup_u, snap.min_m) == (sup_norm(s.u), s.min_m())
        assert bool(snap.inverse_moments) == ("moment" in dcfg.checks)
        assert bool(snap.cancellation_residuals) == ("cancellation" in dcfg.checks)
        assert bool(snap.moment_identity_defects) == ("identity" in dcfg.checks and solution)
