import numpy as np
import pytest

from mfgtorus import (
    ContinuationStalled,
    DriftSpec,
    Field,
    GridSpec,
    ManufacturedCase,
    MaxItersExceeded,
    NewtonOptions,
    PotentialSpec,
    ProblemSpec,
    State,
    StepOptions,
    TrigForm,
    constant_field,
    continuation_solve,
    exact_initial,
    integral,
    mms_source,
    newton_solve,
    perturbation_solve,
    residual,
    sup_norm,
)
from mfgtorus.grid import diff_matrix, laplacian_matrix, mesh
from mfgtorus.linearization import assemble_jacobian
from mfgtorus.solver import _solve_krylov, _solve_linear, _solve_pinned

from conftest import problem_2d, suite_problem

TWO_PI = 2 * np.pi


def arctan_only_problem(n=64, eps=0.0):
    """kappa=1, a=0, b=0: the homotopy is constant in lambda."""
    pot = PotentialSpec("separable", TrigForm(0.0, (0.0,), (0.0,)), 1.0)
    return ProblemSpec(GridSpec(1, n), 0.5, pot, DriftSpec.zero(1), eps)


class TestNewton:
    def test_zero_iterations_at_exact_start(self):
        spec = suite_problem(0.5, n=64)
        s, rep = newton_solve(spec, 0.0, exact_initial(spec))
        assert rep.converged
        assert rep.iterations == 0
        assert rep.residual_history == [0.0]
        assert rep.damping_history == []

    def test_converges_to_explicit_solution_from_cold_start(self):
        spec = suite_problem(0.5, n=64)
        s0 = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        s, rep = newton_solve(spec, 0.0, s0)
        assert rep.converged
        assert np.max(np.abs(s.u.values - np.pi / 4)) <= 1e-9
        assert np.max(np.abs(s.m.values - 1.0)) <= 1e-9

    def test_residual_history_strictly_decreases(self):
        spec = suite_problem(0.5, n=64)
        xs = mesh(spec.grid)[0]
        s0 = State(
            Field(spec.grid, 0.3 * np.sin(TWO_PI * xs)),
            Field(spec.grid, 1.0 + 0.3 * np.cos(TWO_PI * xs)),
        )
        s, rep = newton_solve(spec, 1.0, s0)
        assert rep.converged
        hist = rep.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert rep.final_min_m > 0.0

    def test_quadratic_tail_on_full_steps(self, reference_solution):
        spec, s_star, _ = reference_solution
        xs = mesh(spec.grid)[0]
        pert = 0.01 * np.cos(TWO_PI * xs)
        s0 = State(
            Field(spec.grid, s_star.u.values + pert),
            Field(spec.grid, s_star.m.values + pert),
        )
        s, rep = newton_solve(spec, 1.0, s0)
        assert rep.converged
        hist = rep.residual_history
        full = [i for i, t in enumerate(rep.damping_history) if t == 1.0]
        assert len(full) >= 2
        ratios = [hist[i + 1] / hist[i] for i in full[-2:]]
        assert all(r <= 0.1 for r in ratios), (hist, rep.damping_history)

    def test_max_iters_exceeded_carries_partial_report(self):
        spec = suite_problem(0.5, n=64)
        s0 = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        opts = NewtonOptions(tol_residual=1e-14, max_iters=1)
        with pytest.raises(MaxItersExceeded) as exc:
            newton_solve(spec, 1.0, s0, opts)
        assert exc.value.report is not None
        assert exc.value.report.iterations == 1

    def test_positivity_guard_respected_on_accepted_iterates(self):
        spec = suite_problem(0.9, n=64)
        xs = mesh(spec.grid)[0]
        s0 = State(
            Field(spec.grid, 0.5 * np.sin(TWO_PI * xs)),
            Field(spec.grid, 1.0 + 0.6 * np.cos(TWO_PI * xs)),
        )
        s, rep = newton_solve(spec, 1.0, s0)
        assert rep.converged
        assert rep.final_min_m > 0.0

    def test_options_validation(self):
        with pytest.raises(ValueError):
            NewtonOptions(positivity_fraction=1.5)
        with pytest.raises(ValueError):
            NewtonOptions(tol_residual=-1.0)

    def test_assembly_reuses_the_accepted_trial_residual(self, monkeypatch):
        # strong coefficients: the positivity guard rejects some full steps unevaluated
        import mfgtorus.linearization as lin_mod
        import mfgtorus.solver as solver_mod

        pot = PotentialSpec("separable", TrigForm(0.0, (32.0,), (0.0,)), 1.0)
        spec = ProblemSpec(GridSpec(1, 64), 0.5, pot, DriftSpec((TrigForm(0.0, (0.0,), (32.0,)),)))
        evaluated, trials, assembly = [], [], []

        def counting(calls, fn):
            def wrapped(*args, **kwargs):
                calls.append(args[2])
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver_mod, "residual", counting(evaluated, solver_mod.residual))
        monkeypatch.setattr(lin_mod, "residual", counting(assembly, lin_mod.residual))
        monkeypatch.setattr(solver_mod, "State", lambda *a: trials.append(a) or State(*a))
        s0 = exact_initial(spec)
        s, rep = newton_solve(spec, 1.0, s0)
        assert rep.converged
        assert assembly == []
        assert evaluated[0] is s0
        assert len(evaluated) == 1 + len(trials)
        assert len(trials) < sum(1 + round(-np.log2(t)) for t in rep.damping_history)

    def test_tolerance_below_roundoff_floor_raises_solver_failure(self):
        # the residual cannot drop that far; damping or the iteration cap must give out
        from mfgtorus import SolverFailure

        spec = suite_problem(0.5, n=32)
        s0 = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        with pytest.raises(SolverFailure):
            newton_solve(spec, 1.0, s0, NewtonOptions(tol_residual=1e-18, max_iters=200))


class TestLinearFallback:
    def test_pinned_solve_fixes_constant_kernel(self):
        # block system with a constant null direction on the v block
        import scipy.sparse as sparse

        from mfgtorus.grid import laplacian_matrix

        grid = GridSpec(1, 16)
        n = grid.size
        lap = laplacian_matrix(grid)
        eye = sparse.identity(n, format="csr")
        mat = sparse.bmat([[-lap, None], [None, eye - lap]], format="csr")  # singular: v-const kernel
        rng = np.random.default_rng(0)
        x_true = np.concatenate([np.sin(TWO_PI * mesh(grid)[0]), rng.standard_normal(n)])
        x_true[:n] -= x_true[:n].mean()
        rhs = mat @ x_true
        sol = _solve_pinned(mat, rhs, n)
        np.testing.assert_allclose(sol, x_true, atol=1e-8)


def strong_problem() -> ProblemSpec:
    """a = 4 cos, b = 4 sin, alpha = 0.5, 2-D n = 32."""
    pot = PotentialSpec("separable", TrigForm(0.0, (4.0, 4.0), (0.0, 0.0)), 1.0)
    drift = DriftSpec(
        (TrigForm(0.0, (0.0, 0.0), (4.0, 0.0)), TrigForm(0.0, (0.0, 0.0), (0.0, 4.0)))
    )
    return ProblemSpec(GridSpec(2, 32), 0.5, pot, drift)


class TestKrylovSolve:
    @pytest.fixture(scope="class")
    def strong_system(self):
        """A lambda = 1 Newton system at the lambda = 0.5 solution of the strong problem; max(m) - min(m) > 1."""
        spec = strong_problem()
        s, _ = continuation_solve(spec)
        s_half, _ = newton_solve(spec, 0.5, s)
        sys = assemble_jacobian(spec, 1.0, s_half)
        assert np.ptp(sys.base_state.m.values) > 1.0
        return spec, sys

    @pytest.fixture(scope="class")
    def mms_system(self):
        """The strong problem with MMS sources for m* = 2 + 0.25 cos, at (u*, m*): c = sqrt(2)."""
        spec = strong_problem()
        case = ManufacturedCase(
            spec, TrigForm(0.0, (0.05, 0.0), (0.0, 0.05)), TrigForm(2.0, (0.25, 0.0), (0.0, 0.0))
        )
        sys = assemble_jacobian(spec, 1.0, case.sample(spec.grid), mms_source(case, spec.grid))
        assert np.mean(sys.base_state.m.values) == pytest.approx(2.0, abs=1e-14)
        return spec, sys

    @pytest.fixture(params=["strong_system", "mms_system"])
    def krylov_system(self, request):
        return request.getfixturevalue(request.param)

    def test_matches_direct_solve_on_strong_coefficients(self, krylov_system):
        from scipy.sparse.linalg import spsolve

        spec, sys = krylov_system
        delta, iterations = _solve_krylov(sys, spec.alpha)
        direct = spsolve(sys.matrix, sys.rhs)
        assert 0 < iterations
        assert np.linalg.norm(delta - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("failure", ["info", "nonfinite"])
    def test_failed_gmres_falls_back_to_direct(self, strong_system, monkeypatch, failure):
        from scipy.sparse.linalg import spsolve

        import mfgtorus.solver as solver_mod

        spec, sys = strong_system

        def broken_gmres(matrix, rhs, **kwargs):
            if failure == "info":
                return np.zeros_like(rhs), 1
            return np.full_like(rhs, np.nan), 0

        monkeypatch.setattr(solver_mod, "gmres", broken_gmres)
        delta, path, iterations = _solve_linear(sys, spec.alpha)
        assert (path, iterations) == ("direct", 0)
        np.testing.assert_array_equal(delta, spsolve(sys.matrix, sys.rhs))

    @pytest.mark.parametrize("n", [8, 9, 48])
    def test_preconditioner_inverts_the_stencil_block_operator(self, monkeypatch, n):
        """M passed to GMRES is the inverse of [[I - L, 0], [-c W, I - L]] built from the grid's matrices."""
        import scipy.sparse as sparse

        import mfgtorus.solver as solver_mod

        spec = problem_2d(n=n)
        grid = spec.grid
        m = 2.0 + 0.25 * np.cos(TWO_PI * mesh(grid)[0]).ravel()
        sys = assemble_jacobian(spec, 1.0, State(constant_field(grid, 0.0), Field(grid, m)))
        preconditioners = []
        forward = solver_mod.gmres

        def recording_gmres(*args, **kwargs):
            preconditioners.append(kwargs["M"])
            return forward(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "gmres", recording_gmres)
        _solve_krylov(sys, spec.alpha)

        c = 2.0 ** (1.0 - spec.alpha)
        eye_minus_lap = sparse.identity(grid.size) - laplacian_matrix(grid)
        wide = sum(diff_matrix(grid, axis) @ diff_matrix(grid, axis) for axis in range(grid.dim))
        p = sparse.bmat([[eye_minus_lap, None], [-c * wide, eye_minus_lap]]).tocsr()
        x = np.random.default_rng(n).standard_normal(2 * grid.size)
        assert len(preconditioners) == 1
        error = preconditioners[0].matvec(p @ x) - x
        assert np.linalg.norm(error) <= 1e-12 * np.linalg.norm(x)

    def test_continuation_matches_direct_path(self, monkeypatch):
        import mfgtorus.solver as solver_mod

        spec = problem_2d()
        s_k, trace_k = continuation_solve(spec)
        monkeypatch.setattr(solver_mod, "_solve_krylov", lambda sys, alpha: (None, 0))
        s_d, trace_d = continuation_solve(spec)
        assert [st.newton.iterations for st in trace_k.steps] == [
            st.newton.iterations for st in trace_d.steps
        ]
        assert {p for st in trace_k.steps for p in st.newton.linear_paths} == {"krylov"}
        assert {p for st in trace_d.steps for p in st.newton.linear_paths} == {"direct"}
        np.testing.assert_allclose(s_k.stacked(), s_d.stacked(), rtol=0, atol=1e-12)

    def test_one_dimensional_newton_uses_direct_solve(self):
        spec = suite_problem(0.5, n=64)
        s0 = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        _, rep = newton_solve(spec, 1.0, s0)
        assert rep.iterations > 0
        assert rep.linear_paths == ["direct"] * rep.iterations
        assert rep.krylov_iterations == [0] * rep.iterations


class TestContinuation:
    def test_constant_homotopy_needs_no_iterations(self):
        spec = arctan_only_problem()
        s, trace = continuation_solve(spec)
        assert trace.success
        assert all(st.newton.iterations <= 1 for st in trace.steps)
        assert np.max(np.abs(s.u.values - np.pi / 4)) <= 1e-12
        assert np.max(np.abs(s.m.values - 1.0)) <= 1e-12

    def test_generic_problem_reaches_target(self):
        spec = suite_problem(0.5, n=128)
        s, trace = continuation_solve(spec)
        assert trace.success
        assert trace.reached_lambda == 1.0
        assert s.min_m() > 0.0
        assert sup_norm(*residual(spec, 1.0, s)) <= 1e-10

    def test_lambda_values_strictly_increase(self, reference_solution):
        _, _, trace = reference_solution
        lams = [st.lam for st in trace.steps]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[0] == 0.0
        assert lams[-1] == 1.0
        # every accepted state sits below the Newton tolerance
        assert all(st.newton.residual_history[-1] <= 1e-10 for st in trace.steps)

    def test_step_options_validation(self):
        with pytest.raises(ValueError):
            StepOptions(shrink=1.5)
        with pytest.raises(ValueError):
            StepOptions(growth=0.5)
        with pytest.raises(ValueError):
            StepOptions(initial_step=-0.1)

    def test_accepted_states_satisfy_mass_and_positivity(self, reference_solution):
        _, _, trace = reference_solution
        for st in trace.steps:
            assert st.diagnostics.mass_defect <= 1e-9
            assert st.diagnostics.min_m > 0.0
            assert st.newton.converged

    def test_forced_failure_records_step_halvings(self):
        spec = suite_problem(0.5, n=64)
        opts = NewtonOptions(max_iters=1)
        step_opts = StepOptions(min_step=1e-3)
        with pytest.raises(ContinuationStalled) as exc:
            continuation_solve(spec, opts, step_opts)
        trace = exc.value.trace
        assert trace is not None
        assert len(trace.failures) >= 1
        assert not trace.success

    def test_refuses_alpha_at_least_one(self):
        pot = PotentialSpec("separable", TrigForm(0.0, (0.0,), (0.0,)), 1.0)
        spec = ProblemSpec(GridSpec(1, 16), 1.2, pot, DriftSpec.zero(1))
        with pytest.raises(ValueError):
            continuation_solve(spec)

    def test_determinism(self):
        spec = suite_problem(0.25, n=64)
        _, t1 = continuation_solve(spec)
        _, t2 = continuation_solve(spec)
        assert t1.to_dict() == t2.to_dict()


class TestPerturbationPath:
    def test_constant_problem_tracks_scaled_arctan_root(self):
        # a=0, b=0, kappa=1: at lam=1 the solution is u = (1+eps) pi/4, m = 1
        spec = arctan_only_problem()
        results = perturbation_solve(spec, [1e-1, 1e-2])
        for eps, s in results:
            assert np.max(np.abs(s.u.values - (1 + eps) * np.pi / 4)) <= 1e-10
            assert np.max(np.abs(s.m.values - 1.0)) <= 1e-10

    def test_strictly_increasing_potential_distances_scale_linearly(self):
        spec = suite_problem(0.5, n=64)
        results = perturbation_solve(spec, [1e-1, 1e-2, 1e-3])
        d1 = np.max(np.abs(results[0][1].stacked() - results[1][1].stacked()))
        d2 = np.max(np.abs(results[1][1].stacked() - results[2][1].stacked()))
        assert d2 <= d1 / 5.0

    def test_nondecreasing_potential_converges_with_rate_at_least_one(self):
        pot = PotentialSpec("x_only", TrigForm(0.0, (0.3,), (0.0,)))
        spec = ProblemSpec(GridSpec(1, 64), 0.5, pot, DriftSpec.zero(1))
        results = perturbation_solve(spec, [1e-1, 1e-2, 1e-3, 1e-4])
        dists = [
            np.max(np.abs(a[1].stacked() - b[1].stacked()))
            for a, b in zip(results, results[1:])
        ]
        # Richardson-style fit: distances shrink like eps^p with p >= 1
        rates = [np.log10(d1 / d2) for d1, d2 in zip(dists, dists[1:])]
        assert all(r >= 0.9 for r in rates), (dists, rates)

    def test_validates_sequence(self):
        spec = arctan_only_problem(n=16)
        with pytest.raises(ValueError):
            perturbation_solve(spec, [1e-2, 1e-1])
        with pytest.raises(ValueError):
            perturbation_solve(spec, [1e-1, -1e-3])
        with pytest.raises(ValueError):
            perturbation_solve(spec, [])


class TestTraceBookkeeping:
    def test_mass_conservation_at_every_accepted_state(self, suite_solutions):
        for (alpha, kappa), (spec, s, trace) in suite_solutions.items():
            assert abs(integral(s.grid, s.m.values) - 1.0) <= 1e-9, (alpha, kappa)
            for st in trace.steps:
                assert st.diagnostics.mass_defect <= 1e-9

    def test_snapshots_recorded_per_step(self, reference_solution):
        _, _, trace = reference_solution
        for st in trace.steps:
            assert st.diagnostics.inverse_moments
            assert st.diagnostics.cancellation_residuals
        # identity defects only live on the final lam=1 snapshot
        assert trace.steps[-1].diagnostics.moment_identity_defects
        assert not trace.steps[0].diagnostics.moment_identity_defects
