import math
from dataclasses import replace

import numpy as np
import pytest

import mfgtorus.verification as verification
from mfgtorus import (
    DriftSpec,
    Field,
    GridSpec,
    ManufacturedCase,
    NonPositiveDensity,
    PotentialSpec,
    ProblemSpec,
    State,
    TrigForm,
    constant_field,
    convergence_study,
    exact_initial,
    mms_source,
    newton_solve,
    residual,
    sup_norm,
)
from mfgtorus.grid import interpolate, mesh

from conftest import problem_2d, suite_problem

TWO_PI = 2 * np.pi


def canonical_case(n=64, with_drift=True):
    spec = suite_problem(0.5, n=n)
    if not with_drift:
        spec = ProblemSpec(spec.grid, spec.alpha, spec.potential, DriftSpec.zero(1))
    return ManufacturedCase(
        spec,
        u_exact=TrigForm(0.0, (0.0,), (0.1,)),  # 0.1 sin(2 pi x)
        m_exact=TrigForm(1.0, (0.5,), (0.0,)),  # 1 + 0.5 cos(2 pi x)
    )


class TestSources:
    def test_exact_constant_pair_needs_no_sources(self):
        grid = GridSpec(1, 32)
        c = 0.8
        spec = ProblemSpec(
            grid, 0.5, PotentialSpec("separable", TrigForm(c, (0.0,), (0.0,))), DriftSpec.zero(1)
        )
        case = ManufacturedCase(spec, TrigForm(c, (0.0,), (0.0,)), TrigForm(1.0, (0.0,), (0.0,)))
        s1, s2 = mms_source(case, grid)
        assert np.max(np.abs(s1.values)) <= 1e-14
        assert np.max(np.abs(s2.values)) <= 1e-14

    def test_flux_source_value_at_origin(self):
        # m - m'' - d/dx(sqrt(m) u') - 1 at x=0 for the canonical pair (b=0):
        # 1.5 + 2 pi^2 - 0 - 1
        case = canonical_case(with_drift=False)
        _, s2 = mms_source(case, case.spec.grid)
        assert s2.values[0] == pytest.approx(0.5 + 2 * np.pi**2, abs=1e-12)
        assert s2.values[0] == pytest.approx(20.239208802178716, abs=1e-12)

    def test_against_symbolic_oracle(self):
        # full S1, S2 for the drifted problem against sympy differentiation
        sympy = pytest.importorskip("sympy")
        case = canonical_case(n=32)
        grid = case.spec.grid
        s1, s2 = mms_source(case, grid)

        x = sympy.symbols("x")
        u = sympy.Rational(1, 10) * sympy.sin(2 * sympy.pi * x)
        m = 1 + sympy.Rational(1, 2) * sympy.cos(2 * sympy.pi * x)
        b = sympy.Rational(3, 10) * sympy.sin(2 * sympy.pi * x)
        a_of_x = sympy.Rational(1, 2) * sympy.cos(2 * sympy.pi * x)
        alpha = sympy.Rational(1, 2)
        v = a_of_x + sympy.atan(m)  # kappa = 1

        du = sympy.diff(u, x)
        s1_sym = u - sympy.diff(u, x, 2) + du**2 / (2 * m**alpha) + b * du - v
        s2_sym = (
            m
            - sympy.diff(m, x, 2)
            - sympy.diff(m ** (1 - alpha) * du, x)
            - sympy.diff(b * m, x)
            - 1
        )
        f1 = sympy.lambdify(x, s1_sym, "numpy")
        f2 = sympy.lambdify(x, s2_sym, "numpy")
        xs = mesh(grid)[0]
        np.testing.assert_allclose(s1.values, f1(xs), atol=1e-10)
        np.testing.assert_allclose(s2.values, f2(xs), atol=1e-10)

    def test_restriction_from_finer_grid_is_exact(self):
        # sources are closed-form pointwise values: computing at n agrees with
        # sampling every other point of the 2n evaluation
        case = canonical_case()
        coarse = GridSpec(1, 32)
        fine = GridSpec(1, 64)
        s1_c, s2_c = mms_source(case, coarse)
        s1_f, s2_f = mms_source(case, fine)
        np.testing.assert_array_equal(s1_c.values, s1_f.values[::2])
        np.testing.assert_array_equal(s2_c.values, s2_f.values[::2])

    def test_matches_oversampled_differencing_oracle(self):
        # independent check of the chain-rule flux term: centered differences of
        # the analytic flux on an 8x oversampled grid, restricted down
        case = canonical_case(with_drift=False)
        n = 32
        coarse = GridSpec(1, n)
        fine = GridSpec(1, 8 * n)
        a = case.spec.alpha
        m_f = case.m_exact.value(fine)
        du_f = case.u_exact.deriv(fine, 0)
        flux = m_f ** (1 - a) * du_f
        flux_div_fine = (np.roll(flux, -1) - np.roll(flux, 1)) / (2 * fine.h)
        lap_m_fine = case.m_exact.second_deriv(fine, 0)
        s2_oracle = (m_f - lap_m_fine - flux_div_fine - 1.0)[::8]
        _, s2 = mms_source(case, coarse)
        assert np.max(np.abs(s2.values - s2_oracle)) <= 100.0 * fine.h**2

    def test_residual_of_sampled_pair_is_second_order(self):
        sups = []
        for n in (32, 64, 128):
            case = canonical_case(n=n)
            grid = case.spec.grid
            src = mms_source(case, grid)
            sups.append(sup_norm(*residual(case.spec, 1.0, case.sample(grid), sources=src)))
        ratios = [a / b for a, b in zip(sups, sups[1:])]
        assert all(r >= 3.5 for r in ratios), (sups, ratios)
        assert sups[-1] <= 150.0 * GridSpec(1, 128).h ** 2

    def test_rejects_density_touching_zero(self):
        spec = suite_problem(0.5, n=32)
        with pytest.raises(NonPositiveDensity):
            ManufacturedCase(spec, TrigForm(0.0, (0.0,), (0.1,)), TrigForm(1.0, (1.0,), (0.0,)))


class TestConvergence:
    def test_trivial_case_flags_exact(self):
        grid = GridSpec(1, 32)
        c = 0.8
        spec = ProblemSpec(
            grid, 0.5, PotentialSpec("separable", TrigForm(c, (0.0,), (0.0,))), DriftSpec.zero(1)
        )
        case = ManufacturedCase(spec, TrigForm(c, (0.0,), (0.0,)), TrigForm(1.0, (0.0,), (0.0,)))
        table = convergence_study(case, [8, 16, 32])
        assert all(row.exact for row in table.rows)
        assert all(row.error_u <= 1e-12 for row in table.rows)

    def test_1d_observed_order_is_second(self):
        case = canonical_case()
        table = convergence_study(case, [32, 64, 128, 256])
        assert 1.8 <= table.observed_order_u <= 2.2
        assert 1.8 <= table.observed_order_m <= 2.2

    def test_2d_observed_order_is_second(self):
        spec = problem_2d(n=16)
        case = ManufacturedCase(
            spec,
            TrigForm(0.0, (0.05, 0.0), (0.0, 0.05)),
            TrigForm(1.0, (0.3, 0.0), (0.0, 0.2)),
        )
        table = convergence_study(case, [16, 32, 64])
        assert 1.7 <= table.observed_order_u <= 2.3
        assert 1.7 <= table.observed_order_m <= 2.3

    def test_validates_grid_sequence(self):
        case = canonical_case()
        with pytest.raises(ValueError):
            convergence_study(case, [32, 64])
        with pytest.raises(ValueError):
            convergence_study(case, [32, 48, 64])

    def test_csv_output(self, tmp_path):
        case = canonical_case()
        table = convergence_study(case, [16, 32, 64])
        path = tmp_path / "rates.csv"
        table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "grid,error_u,error_m,rate_u,rate_m"
        assert len(lines) == 4
        assert lines[1].startswith("16,")


def reference_case(dim, n):
    """The reference MMS study's case: a = 0.5 cos, b_i = 0.3 sin(2 pi x_i), u* = 0.1 sin, m* = 1 + 0.25 cos per axis."""
    pot = PotentialSpec("separable", TrigForm(0.0, (0.5,) * dim, (0.0,) * dim), 1.0)
    drift = DriftSpec(tuple(TrigForm(0.0, (0.0,) * dim, tuple(0.3 * (i == ax) for i in range(dim))) for ax in range(dim)))
    spec = ProblemSpec(GridSpec(dim, n), 0.5, pot, drift)
    return ManufacturedCase(spec, TrigForm(0.0, (0.0,) * dim, (0.1,) * dim), TrigForm(1.0, (0.25,) * dim, (0.0,) * dim))


def cold_start_study(case, grids):
    """Each grid solved from `exact_initial`: (errors per grid, Newton iterations per grid, observed orders)."""
    errors, iterations = [], []
    for n in grids:
        grid = GridSpec(case.spec.grid.dim, n)
        spec = replace(case.spec, grid=grid)
        s, report = newton_solve(spec, 1.0, exact_initial(spec), sources=mms_source(case, grid))
        exact = case.sample(grid)
        errors.append((np.max(np.abs(s.u.values - exact.u.values)), np.max(np.abs(s.m.values - exact.m.values))))
        iterations.append(report.iterations)
    orders = [np.mean([math.log2(a[k] / b[k]) for a, b in zip(errors, errors[1:])]) for k in (0, 1)]
    return errors, iterations, orders


@pytest.fixture
def newton_calls(monkeypatch):
    """Spy on the study's Newton solves: one (grid n, start state, solution, report) per call."""
    calls = []

    def spy(spec, lam, s0, opts, sources=None):
        s, report = newton_solve(spec, lam, s0, opts, sources=sources)
        calls.append((spec.grid.n, s0, s, report))
        return s, report

    monkeypatch.setattr(verification, "newton_solve", spy)
    return calls


class TestNestedIteration:
    @pytest.mark.parametrize("dim,grids", [(1, [32, 64, 128, 256, 512]), (2, [16, 32, 64])])
    def test_same_study_as_cold_starts_in_fewer_newton_steps(self, dim, grids, newton_calls):
        case = reference_case(dim, grids[0])
        cold_errors, cold_iterations, cold_orders = cold_start_study(case, grids)
        table = convergence_study(case, grids)
        for row, (eu, em) in zip(table.rows, cold_errors):
            assert abs(row.error_u - eu) <= 1e-10 and abs(row.error_m - em) <= 1e-10
        assert abs(table.observed_order_u - cold_orders[0]) <= 1e-6
        assert abs(table.observed_order_m - cold_orders[1]) <= 1e-6

        iterations = [report.iterations for _, _, _, report in newton_calls]
        assert [n for n, _, _, _ in newton_calls] == grids
        assert all(a < b for a, b in zip(iterations, cold_iterations)), (iterations, cold_iterations)
        if dim == 2:
            assert iterations == [3, 2, 2]

    def test_finer_grid_starts_from_the_interpolated_solution(self, newton_calls):
        # the Richardson start: the sample plus the coarser solution's error, interpolated, over 4
        for dim, grids in ((1, [32, 64, 128]), (2, [16, 32, 64])):
            newton_calls.clear()
            case = reference_case(dim, grids[0])
            convergence_study(case, grids)
            (_, first, _, _), *finer = newton_calls
            assert np.array_equal(first.stacked(), case.sample(GridSpec(dim, grids[0])).stacked())
            for (n_coarse, _, coarse_solution, _), (n, start, _, _) in zip(newton_calls, finer):
                fine, coarse = GridSpec(dim, n), GridSpec(dim, n_coarse)
                sample, coarse_sample = case.sample(fine), case.sample(coarse)
                for field in ("u", "m"):
                    error = getattr(coarse_solution, field).values - getattr(coarse_sample, field).values
                    expected = getattr(sample, field).values + interpolate(Field(coarse, error), fine).values / 4.0
                    assert np.array_equal(getattr(start, field).values, expected)

    def test_nonpositive_interpolated_density_falls_back_to_cold_start(self, monkeypatch):
        # the fallback is the sampled pair, which m* > 0 keeps positive
        case = reference_case(1, 16)
        coarse, fine = GridSpec(1, 16), GridSpec(1, 32)
        spike = np.full(coarse.size, 0.01)
        spike[3] = 100.0  # positive at every point, but its carried-over error rings below -m* on the finer grid
        ringing = State(constant_field(coarse, 0.2), Field(coarse, spike))
        carried = interpolate(Field(coarse, ringing.m.values - case.sample(coarse).m.values), fine)
        assert (case.sample(fine).m.values + carried.values / 4.0).min() <= 0.0

        starts = []

        def ringing_first_solve(spec, lam, s0, opts, sources=None):
            starts.append((spec, s0))
            s, report = newton_solve(spec, lam, s0, opts, sources=sources)
            return (ringing if spec.grid == coarse else s), report

        monkeypatch.setattr(verification, "newton_solve", ringing_first_solve)
        table = convergence_study(case, [16, 32, 64])
        assert [row.n for row in table.rows] == [16, 32, 64]
        spec, start = starts[1]
        assert spec.grid == fine
        assert np.array_equal(start.stacked(), case.sample(fine).stacked())
        assert table.rows[2].error_m < table.rows[1].error_m  # the study ran on from the sample
