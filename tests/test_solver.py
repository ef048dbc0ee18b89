import numpy as np
import pytest

from mfgtorus import (
    ContinuationStalled,
    DriftSpec,
    Field,
    GridSpec,
    LinearSolveFailure,
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
from mfgtorus.grid import mesh
from mfgtorus.linearization import assemble_jacobian
from mfgtorus.solver import KRYLOV_RTOL, _solve_krylov, _solve_linear

from conftest import diff_matrix, laplacian_matrix, newton_rhs, problem_2d, reference_gmres, suite_problem

TWO_PI = 2 * np.pi
# forcing inputs (eta_ew, tol) whose forcing term is KRYLOV_RTOL: the tightest Krylov solve
TIGHTEST = (0.0, 0.0)


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
        return spec, sys, newton_rhs(spec, 1.0, s_half)

    @pytest.fixture(scope="class")
    def mms_system(self):
        """The strong problem with MMS sources for m* = 2 + 0.25 cos, at (u*, m*): c = sqrt(2)."""
        spec = strong_problem()
        case = ManufacturedCase(
            spec, TrigForm(0.0, (0.05, 0.0), (0.0, 0.05)), TrigForm(2.0, (0.25, 0.0), (0.0, 0.0))
        )
        exact = case.sample(spec.grid)
        sys = assemble_jacobian(spec, 1.0, exact)
        assert np.mean(sys.base_state.m.values) == pytest.approx(2.0, abs=1e-14)
        return spec, sys, newton_rhs(spec, 1.0, exact, mms_source(case, spec.grid))

    @pytest.fixture(params=["strong_system", "mms_system"])
    def krylov_system(self, request):
        return request.getfixturevalue(request.param)

    def test_matches_direct_solve_on_strong_coefficients(self, krylov_system):
        from scipy.sparse.linalg import spsolve

        spec, sys, b = krylov_system
        delta, iterations, eta = _solve_krylov(sys, b, spec.alpha, *TIGHTEST)
        direct = spsolve(sys.matrix, b)
        assert 0 < iterations and eta == KRYLOV_RTOL
        assert np.linalg.norm(delta - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("restart", [40, 6])
    def test_matches_scipy_gmres(self, krylov_system, monkeypatch, restart):
        """Same inner iterations as SciPy's `gmres` at each forcing term's rtol, and the same answer;
        restart 6 forces restarts at the tightest rtol."""
        import mfgtorus.solver as solver_mod

        spec, sys, b = krylov_system
        monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", restart)
        for rtol in (KRYLOV_RTOL, 1e-2, 1e-5):
            ref, info, ref_iterations, cycles = reference_gmres(sys, b, spec.alpha, rtol)
            delta, iterations, eta = _solve_krylov(sys, b, spec.alpha, rtol, 0.0)
            assert info == 0 and eta == rtol
            assert restart == 40 or rtol != KRYLOV_RTOL or cycles > 1
            assert iterations == ref_iterations, rtol
            assert np.linalg.norm(delta - ref) <= 1e-13 * np.linalg.norm(ref), rtol

    def test_unconverged_solve_raises(self, krylov_system, monkeypatch):
        import mfgtorus.solver as solver_mod

        spec, sys, b = krylov_system
        monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", 3)
        _, info, ref_iterations, _ = reference_gmres(sys, b, spec.alpha, KRYLOV_RTOL)
        assert info == solver_mod.KRYLOV_MAX_RESTARTS
        with pytest.raises(LinearSolveFailure, match=f"forcing term eta 1.0e-10 in {ref_iterations} iterations"):
            _solve_krylov(sys, b, spec.alpha, *TIGHTEST)

    @pytest.mark.parametrize("restart", [40, 6])
    def test_each_cycle_applies_matrix_and_preconditioner_once_beyond_its_iterations(
        self, krylov_system, monkeypatch, restart
    ):
        """P^-1 b doubles as the first basis vector, and the cycle's residual is the only extra product."""
        from dataclasses import replace

        import mfgtorus.solver as solver_mod

        spec, sys, b = krylov_system
        monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", restart)
        _, _, ref_iterations, cycles = reference_gmres(sys, b, spec.alpha, KRYLOV_RTOL)
        calls = {"matrix": 0, "preconditioner": 0}
        forward = solver_mod._krylov_preconditioner

        class CountingMatrix:
            def __matmul__(self, x):
                calls["matrix"] += 1
                return sys.matrix @ x

        def counting_preconditioner(sys, alpha):
            apply_inverse = forward(sys, alpha)

            def counted(r):
                calls["preconditioner"] += 1
                return apply_inverse(r)
            return counted

        monkeypatch.setattr(solver_mod, "_krylov_preconditioner", counting_preconditioner)
        delta, iterations, _ = _solve_krylov(replace(sys, matrix=CountingMatrix()), b, spec.alpha, *TIGHTEST)
        assert delta is not None and iterations == ref_iterations
        assert calls == {"matrix": iterations + cycles, "preconditioner": iterations + cycles}

    def test_zero_right_hand_side_returns_zeros(self, strong_system):
        spec, sys, b = strong_system
        delta, iterations, eta = _solve_krylov(sys, np.zeros_like(b), spec.alpha, *TIGHTEST)
        assert (iterations, eta) == (0, 0.0)
        assert np.array_equal(delta, np.zeros_like(b))

    @pytest.mark.parametrize("failure", ["info", "nonfinite"])
    def test_failed_gmres_fails_the_newton_step(self, strong_system, monkeypatch, failure):
        """An unconverged (3 iterations in all) or non-finite Krylov answer is a LinearSolveFailure."""
        import mfgtorus.solver as solver_mod

        spec, sys, b = strong_system
        if failure == "info":
            monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", 3)
            monkeypatch.setattr(solver_mod, "KRYLOV_MAX_RESTARTS", 1)
        else:
            monkeypatch.setattr(
                solver_mod, "_krylov_preconditioner", lambda sys, alpha: lambda r: np.full_like(r, np.nan)
            )
        # a NaN residual meets no stopping test, so the caps end the loop
        iterations = 3 if failure == "info" else solver_mod.KRYLOV_RESTART * solver_mod.KRYLOV_MAX_RESTARTS
        with pytest.raises(LinearSolveFailure, match=f"forcing term eta 1.0e-10 in {iterations} iterations"):
            _solve_linear(sys, b, spec.alpha, *TIGHTEST)

    def test_rejected_krylov_answer_is_one_continuation_step_failure(self, monkeypatch):
        """A first Krylov solve that misses its forcing term (1 iteration allowed) fails that lambda
        step once; the halved step and the rest of the continuation then succeed."""
        import mfgtorus.solver as solver_mod

        forward, calls = solver_mod._solve_krylov, []

        def first_solve_misses(*args):
            calls.append(args)
            with monkeypatch.context() as m:
                if len(calls) == 1:
                    m.setattr(solver_mod, "KRYLOV_RESTART", 1)
                    m.setattr(solver_mod, "KRYLOV_MAX_RESTARTS", 1)
                return forward(*args)

        monkeypatch.setattr(solver_mod, "_solve_krylov", first_solve_misses)
        _, trace = continuation_solve(problem_2d(n=16))
        step = StepOptions().initial_step
        assert trace.success and trace.reached_lambda == 1.0
        assert [(f.lam_attempted, f.error, f.step_after) for f in trace.failures] == [
            (step, "LinearSolveFailure", step * StepOptions().shrink)
        ]
        assert trace.steps[1].lam == step * StepOptions().shrink
        assert {p for st in trace.steps for p in st.newton.linear_paths} == {"krylov"}

    @pytest.mark.parametrize("drift_scale", [0.0, 3.0])
    @pytest.mark.parametrize("kappa", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.9])
    @pytest.mark.parametrize("a, b", [(0.5, 0.3), (4.0, 4.0)], ids=["reference", "strong"])
    def test_gmres_never_rejects_on_the_sweep(self, a, b, alpha, kappa, drift_scale):
        """On the reference and strong sets at 2-D n = 16, no Krylov answer is rejected, and every
        solve stays inside one restart cycle (at most 21 iterations here)."""
        from mfgtorus.solver import KRYLOV_RESTART

        pot = PotentialSpec("separable", TrigForm(0.0, (a, a), (0.0, 0.0)), kappa)
        drift = DriftSpec((TrigForm(0.0, (0.0, 0.0), (b, 0.0)), TrigForm(0.0, (0.0, 0.0), (0.0, b))))
        _, trace = continuation_solve(ProblemSpec(GridSpec(2, 16), alpha, pot, drift.scaled(drift_scale)))
        assert trace.success
        assert "LinearSolveFailure" not in [f.error for f in trace.failures]
        assert {p for st in trace.steps for p in st.newton.linear_paths} == {"krylov"}
        assert max(k for st in trace.steps for k in st.newton.krylov_iterations) <= KRYLOV_RESTART

    @pytest.mark.parametrize("n", [8, 9, 48])
    def test_preconditioner_inverts_the_stencil_block_operator(self, monkeypatch, n):
        """The preconditioner of one Krylov solve inverts [[I - L, 0], [-c W, I - L]] built from the grid's matrices."""
        import scipy.sparse as sparse

        import mfgtorus.solver as solver_mod

        spec = problem_2d(n=n)
        grid = spec.grid
        m = 2.0 + 0.25 * np.cos(TWO_PI * mesh(grid)[0]).ravel()
        state = State(constant_field(grid, 0.0), Field(grid, m))
        sys = assemble_jacobian(spec, 1.0, state)
        preconditioners = []
        forward = solver_mod._krylov_preconditioner

        def recording_preconditioner(*args):
            preconditioners.append(forward(*args))
            return preconditioners[-1]

        monkeypatch.setattr(solver_mod, "_krylov_preconditioner", recording_preconditioner)
        _solve_krylov(sys, newton_rhs(spec, 1.0, state), spec.alpha, *TIGHTEST)

        c = 2.0 ** (1.0 - spec.alpha)
        eye_minus_lap = sparse.identity(grid.size) - laplacian_matrix(grid)
        wide = sum(diff_matrix(grid, axis) @ diff_matrix(grid, axis) for axis in range(grid.dim))
        p = sparse.bmat([[eye_minus_lap, None], [-c * wide, eye_minus_lap]]).tocsr()
        x = np.random.default_rng(n).standard_normal(2 * grid.size)
        assert len(preconditioners) == 1
        error = preconditioners[0](p @ x) - x
        assert np.linalg.norm(error) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [8, 9, 48])
    def test_symbols_are_the_dft_of_the_operators_column_zero(self, n):
        from mfgtorus.solver import _krylov_symbols

        grid = GridSpec(2, n)
        unit = np.eye(1, grid.size).ravel()

        def symbol(op):
            return np.fft.rfft2((op @ unit).reshape(grid.shape))

        eye_minus_lap, wide = _krylov_symbols(grid)
        assert np.array_equal(eye_minus_lap, 1.0 - symbol(laplacian_matrix(grid)).real)
        assert np.array_equal(wide, sum(symbol(diff_matrix(grid, axis)) ** 2 for axis in range(2)).real)

    def test_continuation_matches_direct_path(self, monkeypatch):
        """The inexact Krylov solves reach the states of exact (sparse direct) solves on the same
        lambdas, at most one Newton iteration later per step."""
        from scipy.sparse.linalg import spsolve

        import mfgtorus.solver as solver_mod

        spec = problem_2d()
        s_k, trace_k = continuation_solve(spec)
        monkeypatch.setattr(solver_mod, "_solve_krylov", lambda sys, b, *forcing: (spsolve(sys.matrix, b), 0, 0.0))
        s_d, trace_d = continuation_solve(spec)
        assert [st.lam for st in trace_k.steps] == [st.lam for st in trace_d.steps]
        for st_k, st_d in zip(trace_k.steps, trace_d.steps):
            assert st_k.newton.iterations <= st_d.newton.iterations + 1
        assert min(k for st in trace_k.steps for k in st.newton.krylov_iterations) > 0
        assert {k for st in trace_d.steps for k in st.newton.krylov_iterations} == {0}
        np.testing.assert_allclose(s_k.stacked(), s_d.stacked(), rtol=0, atol=1e-12)


class TestInexactNewton:
    """Each 2-D GMRES solve stops at the forcing term, and Newton keeps its quadratic tail."""

    def test_forcing_rule(self):
        from mfgtorus.solver import FORCING_MAX, _eisenstat_walker, _forcing_term

        tol = NewtonOptions().tol_residual
        assert _eisenstat_walker([0.5]) == FORCING_MAX
        assert _forcing_term(_eisenstat_walker([0.5]), tol, 3.0) == 1e-2
        assert _eisenstat_walker([1e-2, 1e-4]) == pytest.approx(0.9e-4, rel=1e-14)
        # near convergence, at |b| = 1e-7: 0.9 (1e-8 / 1e-4)^2 is far below 0.5 tol / |b| = 5e-4
        eta_ew = _eisenstat_walker([1e-4, 1e-8])
        assert _forcing_term(eta_ew, tol, 1e-7) == 0.5 * tol / 1e-7 > 1e3 * eta_ew
        assert _forcing_term(0.0, tol, 1.0) == KRYLOV_RTOL
        assert _forcing_term(_eisenstat_walker([1.0, 1e-12]), 0.0, 1.0) == KRYLOV_RTOL
        assert _forcing_term(0.5, tol, 1e-12) == FORCING_MAX

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_quadratic_tail_in_two_dimensions(self, alpha):
        """Acceptance criterion 6's bounds on a perturbed 2-D solution, with the Krylov solves inexact."""
        spec = problem_2d(alpha, n=32)
        s_star, _ = continuation_solve(spec)
        x, y = mesh(spec.grid)
        pert = (0.01 * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)).ravel()
        s0 = State(Field(spec.grid, s_star.u.values + pert), Field(spec.grid, s_star.m.values + pert))
        _, rep = newton_solve(spec, 1.0, s0)
        hist = rep.residual_history
        assert rep.converged and set(rep.linear_paths) == {"krylov"}
        full = [i for i, t in enumerate(rep.damping_history) if t == 1.0]
        assert len(full) >= 2, hist
        assert all(hist[i + 1] / hist[i] <= 0.1 for i in full[-2:]), hist
        assert all(hist[i + 1] / hist[i] ** 2 <= 1e4 for i in full if hist[i] >= 1e-6), hist

    def test_debug_log_has_one_line_per_iteration(self, caplog):
        """MFG_LOG=debug shows each iteration's residual, damping, path, GMRES iterations and forcing term."""
        spec = problem_2d(n=16)
        with caplog.at_level("DEBUG", logger="mfgtorus"):
            _, rep = newton_solve(spec, 1.0, exact_initial(spec))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton iteration")]
        assert rep.iterations > 0 and len(lines) == rep.iterations
        for k, line in enumerate(lines):
            assert line.startswith(
                f"newton iteration {k + 1}: residual {rep.residual_history[k + 1]:.3e}, "
                f"t {rep.damping_history[k]:g}, krylov solve, {rep.krylov_iterations[k]} krylov iterations, eta "
            )
        assert lines[0].endswith("eta 1.00e-02")


def one_d_problem(n: int, a_amp: float, b_amp: float, alpha: float = 0.5, kappa: float = 1.0) -> ProblemSpec:
    """a = a_amp cos(2 pi x), b = b_amp sin(2 pi x) on a 1-D grid of n points."""
    pot = PotentialSpec("separable", TrigForm(0.0, (a_amp,), (0.0,)), kappa)
    return ProblemSpec(GridSpec(1, n), alpha, pot, DriftSpec((TrigForm(0.0, (0.0,), (b_amp,)),)))


def smooth_state(grid: GridSpec) -> State:
    x = mesh(grid)[0].ravel()
    u = 0.1 * np.sin(TWO_PI * x) + 0.05 * np.cos(2 * TWO_PI * x)
    return State(Field(grid, u), Field(grid, 1.0 + 0.25 * np.cos(TWO_PI * x)))


class TestBandSolve:
    """1-D Newton systems go through LAPACK gbsv in the folded order of `_band_layout`."""

    @pytest.mark.parametrize("n", [8, 9, 33, 256])
    @pytest.mark.parametrize(
        "case, lam",
        [("reference", 0.0), ("reference", 1.0), ("strong", 0.0), ("strong", 1.0), ("no-coupling", 1.0)],
    )
    def test_agrees_with_sparse_direct_solve(self, n, case, lam):
        from scipy.sparse.linalg import spsolve

        from mfgtorus.linearization import _band_layout

        spec = {
            "reference": one_d_problem(n, 0.5, 0.3),
            "strong": one_d_problem(n, 4.0, 4.0),
            # alpha = kappa = 0 and no drift: the A_vf diagonal is exactly zero at lam = 1, and stored
            "no-coupling": one_d_problem(n, 0.5, 0.0, alpha=0.0, kappa=0.0),
        }[case]
        state = smooth_state(spec.grid)
        sys, b = assemble_jacobian(spec, lam, state), newton_rhs(spec, lam, state)
        assert sys.matrix.nnz == _band_layout(spec.grid)[4].size
        assert (sys.matrix.count_nonzero() < sys.matrix.nnz) == (case == "no-coupling")
        delta, path, iterations, eta = _solve_linear(sys, b, spec.alpha, *TIGHTEST)
        direct = spsolve(sys.matrix, b)
        assert (path, iterations, eta) == ("band", 0, 0.0)
        assert np.linalg.norm(delta - direct) <= 1e-10 * np.linalg.norm(direct)

    @pytest.mark.parametrize("n", [8, 9, 256])
    def test_band_widths_come_from_the_pattern(self, n):
        from mfgtorus.linearization import _band_layout, _jacobian_pattern

        order, inverse, kl, ku, _ = _band_layout(GridSpec(1, n))
        pattern = _jacobian_pattern(GridSpec(1, n))
        dense = np.zeros((2 * n, 2 * n))
        dense[np.repeat(np.arange(2 * n), np.diff(pattern.indptr)), pattern.indices] = 1.0
        folded = dense[np.ix_(order, order)]
        assert (kl, ku) == (9, 7)
        assert not np.tril(folded, -kl - 1).any() and np.tril(folded, -kl).any()
        assert not np.triu(folded, ku + 1).any() and np.triu(folded, ku).any()
        np.testing.assert_array_equal(np.sort(order), np.arange(2 * n))
        np.testing.assert_array_equal(order[inverse], np.arange(2 * n))

    def test_one_dimensional_newton_uses_band_solve(self):
        spec = suite_problem(0.5, n=64)
        s0 = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        _, rep = newton_solve(spec, 1.0, s0)
        assert rep.iterations > 0
        assert rep.linear_paths == ["band"] * rep.iterations
        assert rep.krylov_iterations == [0] * rep.iterations

    @pytest.mark.parametrize("failure", ["info", "nonfinite"])
    def test_failed_band_solve_fails_the_newton_step(self, monkeypatch, failure):
        import mfgtorus.solver as solver_mod

        spec = one_d_problem(64, 4.0, 4.0)
        state = smooth_state(spec.grid)
        sys, b = assemble_jacobian(spec, 1.0, state), newton_rhs(spec, 1.0, state)

        def broken_dgbsv(kl, ku, ab, rhs, **kwargs):
            if failure == "info":
                return ab, np.zeros(rhs.shape[0], dtype=np.int32), rhs, 1
            return ab, np.zeros(rhs.shape[0], dtype=np.int32), np.full_like(rhs, np.nan), 0

        monkeypatch.setattr(solver_mod, "dgbsv", broken_dgbsv)
        direct_calls = []
        monkeypatch.setattr(solver_mod, "spsolve", lambda *args: direct_calls.append(args))
        with pytest.raises(LinearSolveFailure, match="band LU"):
            _solve_linear(sys, b, spec.alpha, *TIGHTEST)
        assert direct_calls == []

    def test_singular_system_fails_the_newton_step(self):
        from dataclasses import replace

        from mfgtorus.solver import _solve_band

        spec = one_d_problem(16, 0.5, 0.3)
        state = smooth_state(spec.grid)
        sys, b = assemble_jacobian(spec, 1.0, state), newton_rhs(spec, 1.0, state)
        matrix = sys.matrix.copy()
        matrix.data[matrix.indptr[0] : matrix.indptr[1]] = 0.0  # a zero v row, kept in the structure
        singular = replace(sys, matrix=matrix)
        with pytest.raises(LinearSolveFailure, match="singular"):  # gbsv meets the zero pivot
            _solve_band(singular, b)
        with pytest.raises(LinearSolveFailure, match="singular"):
            _solve_linear(singular, b, spec.alpha, *TIGHTEST)


class TestNewtonSystem:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_right_hand_side_is_the_negated_augmented_residual(self, monkeypatch, dim):
        """Every b the linear solve gets in an MMS Newton solve is -(F - S) at that iterate, bit for bit."""
        import mfgtorus.solver as solver_mod

        spec = suite_problem(0.5, n=32) if dim == 1 else problem_2d(n=16)
        zero = (0.0,) * dim
        case = ManufacturedCase(spec, TrigForm(0.0, zero, (0.1,) * dim), TrigForm(1.0, (0.25,) * dim, zero))
        sources = mms_source(case, spec.grid)
        received = []
        forward = solver_mod._solve_linear

        def recording_solve(sys, b, alpha, eta_ew, tol):
            received.append((sys.base_state, b.copy()))
            return forward(sys, b, alpha, eta_ew, tol)

        monkeypatch.setattr(solver_mod, "_solve_linear", recording_solve)
        _, report = newton_solve(spec, 1.0, exact_initial(spec), sources=sources)
        assert report.converged and len(received) == report.iterations > 0
        for state, b in received:
            assert np.array_equal(b, newton_rhs(spec, 1.0, state, sources))

    def test_failed_linear_solve_is_a_continuation_step_failure(self, monkeypatch):
        """A LinearSolveFailure halves the step, like any other Newton failure."""
        import mfgtorus.solver as solver_mod

        forward, calls = solver_mod._solve_linear, []

        def singular_once(sys, b, alpha, eta_ew, tol):
            calls.append(sys)
            if len(calls) == 1:  # the first Newton system: lambda = 0 starts at its exact solution
                raise LinearSolveFailure("singular Newton system")
            return forward(sys, b, alpha, eta_ew, tol)

        monkeypatch.setattr(solver_mod, "_solve_linear", singular_once)
        _, trace = continuation_solve(suite_problem(0.5, n=32))
        assert trace.success
        assert [f.error for f in trace.failures] == ["LinearSolveFailure"]


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
        # a first step above the cap would skip past it: lambda = 0 -> 0.9 -> 1.0
        with pytest.raises(ValueError, match="initial_step must not exceed max_step"):
            StepOptions(initial_step=0.9, max_step=0.25)
        assert StepOptions(initial_step=0.25, max_step=0.25).initial_step == 0.25

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
