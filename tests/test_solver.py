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
    NoDescent,
    PotentialSpec,
    ProblemSpec,
    SolverFailure,
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
from mfgtorus.solver import (
    KRYLOV_RTOL,
    TOL_MIN,
    _krylov_preconditioner,
    _solve_band,
    _solve_krylov,
    newton_tolerance,
)

from conftest import (
    diff_matrix,
    laplacian_matrix,
    newton_rhs,
    problem_2d,
    reference_gmres,
    suite_problem,
    system_of,
)

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
        delta, iterations = _solve_krylov(sys.matrix, b, _krylov_preconditioner(sys, spec.alpha), KRYLOV_RTOL)
        direct = spsolve(sys.matrix, b)
        assert 0 < iterations
        assert np.linalg.norm(delta - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("restart", [40, 6])
    def test_matches_scipy_gmres(self, krylov_system, monkeypatch, restart):
        """Same inner iterations as SciPy's `gmres` at each rtol a forcing term can take, and the same answer;
        restart 6 forces restarts at the tightest rtol."""
        import mfgtorus.solver as solver_mod

        spec, sys, b = krylov_system
        monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", restart)
        precond = _krylov_preconditioner(sys, spec.alpha)
        for rtol in (KRYLOV_RTOL, 1e-2, 1e-5):
            ref, info, ref_iterations, cycles = reference_gmres(sys, b, spec.alpha, rtol)
            delta, iterations = _solve_krylov(sys.matrix, b, precond, rtol)
            assert info == 0
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
            _solve_krylov(sys.matrix, b, _krylov_preconditioner(sys, spec.alpha), KRYLOV_RTOL)

    @pytest.mark.parametrize("restart", [40, 6])
    def test_each_cycle_applies_matrix_and_preconditioner_once_beyond_its_iterations(
        self, krylov_system, monkeypatch, restart
    ):
        """P^-1 b doubles as the first basis vector, and the cycle's residual is the only extra product."""
        import mfgtorus.solver as solver_mod

        spec, sys, b = krylov_system
        monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", restart)
        _, _, ref_iterations, cycles = reference_gmres(sys, b, spec.alpha, KRYLOV_RTOL)
        calls = {"matrix": 0, "preconditioner": 0}
        apply_inverse = _krylov_preconditioner(sys, spec.alpha)

        class CountingMatrix:
            def __matmul__(self, x):
                calls["matrix"] += 1
                return sys.matrix @ x

        def counted(r):
            calls["preconditioner"] += 1
            return apply_inverse(r)

        delta, iterations = _solve_krylov(CountingMatrix(), b, counted, KRYLOV_RTOL)
        assert delta is not None and iterations == ref_iterations
        assert calls == {"matrix": iterations + cycles, "preconditioner": iterations + cycles}

    def test_zero_right_hand_side_returns_zeros(self, strong_system):
        spec, sys, b = strong_system
        delta, iterations = _solve_krylov(sys.matrix, np.zeros_like(b), _krylov_preconditioner(sys, spec.alpha),
                                          KRYLOV_RTOL)
        assert iterations == 0
        assert np.array_equal(delta, np.zeros_like(b))

    @pytest.mark.parametrize("failure", ["info", "nonfinite"])
    def test_failed_gmres_fails_the_newton_step(self, strong_system, monkeypatch, failure):
        """An unconverged (3 iterations in all) or non-finite Krylov answer is a LinearSolveFailure."""
        import mfgtorus.solver as solver_mod

        spec, sys, b = strong_system
        if failure == "info":
            monkeypatch.setattr(solver_mod, "KRYLOV_RESTART", 3)
            monkeypatch.setattr(solver_mod, "KRYLOV_MAX_RESTARTS", 1)
        precond = _krylov_preconditioner(sys, spec.alpha) if failure == "info" else lambda r: np.full_like(r, np.nan)
        # the caps end the unconverged loop; a NaN residual ends it after its first iteration
        iterations = 3 if failure == "info" else 1
        with pytest.raises(LinearSolveFailure, match=f"forcing term eta 1.0e-10 in {iterations} iterations"):
            _solve_krylov(sys.matrix, b, precond, KRYLOV_RTOL)

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
        """The preconditioner of the one Krylov solve of a one-iteration Newton call inverts
        [[I - L, 0], [-c W, I - L]] built from the grid's matrices."""
        import scipy.sparse as sparse

        import mfgtorus.solver as solver_mod

        spec = problem_2d(n=n)
        grid = spec.grid
        m = 2.0 + 0.25 * np.cos(TWO_PI * mesh(grid)[0]).ravel()
        state = State(constant_field(grid, 0.0), Field(grid, m))
        preconditioners = []
        forward = solver_mod._solve_krylov

        def recording_solve(matrix, b, precond, rtol):
            preconditioners.append(precond)
            return forward(matrix, b, precond, rtol)

        monkeypatch.setattr(solver_mod, "_solve_krylov", recording_solve)
        with pytest.raises(MaxItersExceeded):
            newton_solve(spec, 1.0, state, NewtonOptions(max_iters=1))

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
        monkeypatch.setattr(solver_mod, "_solve_krylov", lambda matrix, b, *_: (spsolve(matrix, b), 0))
        s_d, trace_d = continuation_solve(spec)
        assert [st.lam for st in trace_k.steps] == [st.lam for st in trace_d.steps]
        for st_k, st_d in zip(trace_k.steps, trace_d.steps):
            assert st_k.newton.iterations <= st_d.newton.iterations + 1
        assert min(k for st in trace_k.steps for k in st.newton.krylov_iterations) > 0
        assert {k for st in trace_d.steps for k in st.newton.krylov_iterations} == {0}
        np.testing.assert_allclose(s_k.stacked(), s_d.stacked(), rtol=0, atol=1e-12)


class TestPlainGmres:
    """`_solve_krylov` on an operator that is no Newton Jacobian: a sparse, diagonally dominant and
    nonsymmetric matrix, with a Jacobi preconditioner."""

    @pytest.fixture(scope="class")
    def system(self):
        import scipy.sparse as sparse

        rng = np.random.default_rng(7)
        n = 300
        diag = 4.0 + 4.0 * rng.random(n)
        bands = sparse.diags([-1.0 - rng.random(n - 1), diag, 0.5 * rng.random(n - 1)], [-1, 0, 1])
        matrix = (bands + sparse.random(n, n, density=0.01, random_state=rng)).tocsr()
        return matrix, lambda r: r / diag, rng.standard_normal(n)

    def test_meets_its_rtol_and_a_looser_one_takes_no_more_iterations(self, system):
        matrix, jacobi, b = system
        iterations = []
        for rtol in (KRYLOV_RTOL, 1e-4):
            x, its = _solve_krylov(matrix, b, jacobi, rtol)
            assert np.linalg.norm(b - matrix @ x) <= rtol * np.linalg.norm(b), rtol
            iterations.append(its)
        assert 0 < iterations[1] <= iterations[0]

    def test_zero_right_hand_side_returns_zeros(self, system):
        matrix, jacobi, b = system
        x, iterations = _solve_krylov(matrix, np.zeros_like(b), jacobi, KRYLOV_RTOL)
        assert iterations == 0 and np.array_equal(x, np.zeros_like(b))


class TestInexactNewton:
    """Each 2-D GMRES solve stops at the forcing term, and Newton keeps its quadratic tail."""

    def test_forcing_rule(self):
        from mfgtorus.solver import FORCING_MAX, _forcing_term

        tol = TOL_MIN
        # the first iteration's term is FORCING_MAX
        assert _forcing_term([0.5], tol, 3.0) == FORCING_MAX == 1e-2
        assert _forcing_term([1e-2, 1e-4], tol, 1.0) == pytest.approx(0.9e-4, rel=1e-14)
        # near convergence, at |b| = 1e-7: 0.9 (1e-8 / 1e-4)^2 is far below 0.5 tol / |b| = 5e-4
        assert _forcing_term([1e-4, 1e-8], tol, 1e-7) == 0.5 * tol / 1e-7 > 1e3 * 0.9 * (1e-8 / 1e-4) ** 2
        assert _forcing_term([1.0, 0.0], tol, 1.0) == KRYLOV_RTOL
        assert _forcing_term([1.0, 1e-12], 0.0, 1.0) == KRYLOV_RTOL
        # an Eisenstat-Walker term 0.9 (0.75)^2 ≈ 0.506 above FORCING_MAX is capped, with the floor above
        # the cap too and with it below
        assert _forcing_term([1.0, 0.75], tol, 1e-12) == FORCING_MAX
        assert _forcing_term([1.0, 0.75], tol, 1.0) == FORCING_MAX
        # a tolerance floor above FORCING_MAX, with the Eisenstat-Walker term 0.9e-6 below it
        assert _forcing_term([1.0, 1e-3], tol, 1e-12) == FORCING_MAX

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
        delta = _solve_band(sys, b)
        direct = spsolve(sys.matrix, b)
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

    def test_one_dimensional_solves_build_no_csr_matrix(self, monkeypatch):
        """The band solve scatters the fill itself: a 1-D Newton solve and continuation never build the CSR."""
        import mfgtorus.linearization as linearization

        def no_csr(*args, **kwargs):
            raise AssertionError("a CSR matrix was built")

        spec = suite_problem(0.5, n=64)
        monkeypatch.setattr(linearization.sparse, "csr_matrix", no_csr)
        _, rep = newton_solve(spec, 1.0, State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0)))
        assert rep.converged and rep.linear_paths == ["band"] * rep.iterations
        assert continuation_solve(spec)[1].success
        with pytest.raises(AssertionError, match="CSR"):  # the patch does reach the matrix built on first use
            assemble_jacobian(spec, 1.0, exact_initial(spec)).matrix

    def test_terms_are_computed_once_per_state(self, monkeypatch):
        """In a 1-D continuation every state's lam-free terms are computed once: at its first residual, which
        every Newton start and trial gets; the next lam, the Jacobian and the snapshot reuse them."""
        import mfgtorus.problem as problem
        import mfgtorus.solver as solver_mod

        def spy(call, seen):
            def record(*args):
                seen.append(next(a for a in args if isinstance(a, State)))
                return call(*args)
            return record

        computed, evaluated, reused = [], [], []
        forward = problem._terms_arrays
        monkeypatch.setattr(problem, "_terms_arrays", lambda *args: computed.append(args) or forward(*args))
        monkeypatch.setattr(solver_mod, "residual", spy(solver_mod.residual, evaluated))
        for name in ("assemble_jacobian", "make_snapshot"):
            monkeypatch.setattr(solver_mod, name, spy(getattr(solver_mod, name), reused))
        # Newton capped at 3 iterations: failed steps are retried at a halved step from the same state
        _, trace = continuation_solve(one_d_problem(64, 12.0, 12.0), NewtonOptions(max_iters=3),
                                      StepOptions(initial_step=0.25))
        assert trace.success and len(trace.steps) > 2 and trace.failures
        states = {id(s) for s in evaluated}  # every state stays referenced, so no id is reused
        assert len(computed) == len(states) and all(id(s) in states for s in reused)

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
            _solve_band(sys, b)
        assert direct_calls == []

    def test_singular_system_fails_the_newton_step(self, monkeypatch):
        import mfgtorus.solver as solver_mod

        spec = one_d_problem(16, 0.5, 0.3)
        state = smooth_state(spec.grid)
        sys, b = assemble_jacobian(spec, 1.0, state), newton_rhs(spec, 1.0, state)
        matrix = sys.matrix.copy()
        matrix.data[matrix.indptr[0] : matrix.indptr[1]] = 0.0  # a zero v row, kept in the structure
        singular = system_of(matrix, state)
        with pytest.raises(LinearSolveFailure, match="singular"):  # gbsv meets the zero pivot
            _solve_band(singular, b)
        monkeypatch.setattr(solver_mod, "assemble_jacobian", lambda *args: singular)
        with pytest.raises(LinearSolveFailure, match="singular") as failure:
            newton_solve(spec, 1.0, state)
        assert failure.value.report.linear_paths == [] and not failure.value.report.converged


class TestNewtonSystem:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_right_hand_side_is_the_negated_augmented_residual(self, monkeypatch, dim):
        """Every b the linear solve gets in an MMS Newton solve is -(F - S) at the iterate its Jacobian
        was assembled at, bit for bit."""
        import mfgtorus.solver as solver_mod

        spec = suite_problem(0.5, n=32) if dim == 1 else problem_2d(n=16)
        zero = (0.0,) * dim
        case = ManufacturedCase(spec, TrigForm(0.0, zero, (0.1,) * dim), TrigForm(1.0, (0.25,) * dim, zero))
        sources = mms_source(case, spec.grid)
        states, received = [], []
        name = "_solve_band" if dim == 1 else "_solve_krylov"
        forward, forward_assemble = getattr(solver_mod, name), solver_mod.assemble_jacobian

        def recording_assemble(spec, lam, s):
            states.append(s)
            return forward_assemble(spec, lam, s)

        def recording_solve(operator, b, *rest):
            received.append(b.copy())
            return forward(operator, b, *rest)

        monkeypatch.setattr(solver_mod, "assemble_jacobian", recording_assemble)
        monkeypatch.setattr(solver_mod, name, recording_solve)
        _, report = newton_solve(spec, 1.0, exact_initial(spec), sources=sources)
        assert report.converged and len(received) == len(states) == report.iterations > 0
        for state, b in zip(states, received):
            assert np.array_equal(b, newton_rhs(spec, 1.0, state, sources))

    def test_failed_linear_solve_is_a_continuation_step_failure(self, monkeypatch):
        """A LinearSolveFailure halves the step, like any other Newton failure."""
        import mfgtorus.solver as solver_mod

        forward, calls = solver_mod._solve_band, []

        def singular_once(sys, b):
            calls.append(sys)
            if len(calls) == 1:  # the first Newton system: lambda = 0 starts at its exact solution
                raise LinearSolveFailure("singular Newton system")
            return forward(sys, b)

        monkeypatch.setattr(solver_mod, "_solve_band", singular_once)
        _, trace = continuation_solve(suite_problem(0.5, n=32))
        assert trace.success
        assert [f.error for f in trace.failures] == ["LinearSolveFailure"]


class TestNewtonExits:
    """On every exit of `newton_solve` its report counts one iteration per damping factor and per residual
    after the first, and one linear solve per iteration, plus the rejected one on NoDescent."""

    @staticmethod
    def assert_consistent(report, error=None):
        assert report.converged == (error is None)
        assert report.iterations == len(report.damping_history) == len(report.residual_history) - 1
        rejected = 1 if isinstance(error, NoDescent) else 0
        assert len(report.linear_paths) == len(report.krylov_iterations) == report.iterations + rejected

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
    def test_converged_max_iters_and_no_descent_exits(self, monkeypatch, dim, n):
        """The strong set in unit steps, with 3 iterations and a tight positivity guard: its Newton
        solves converge, run out of iterations and lose descent."""
        import mfgtorus.solver as solver_mod

        forward, exits = solver_mod.newton_solve, []

        def recording_solve(*args, **kwargs):
            try:
                s, report = forward(*args, **kwargs)
            except SolverFailure as err:
                exits.append((err, err.report))
                raise
            exits.append((None, report))
            return s, report

        monkeypatch.setattr(solver_mod, "newton_solve", recording_solve)
        spec = one_d_problem(n, 4.0, 4.0) if dim == 1 else coefficient_set_2d(4.0, 4.0, n)
        _, trace = continuation_solve(spec, NewtonOptions(max_iters=3, positivity_fraction=0.9, min_damping=0.2),
                                      StepOptions(initial_step=1.0, max_step=1.0))
        assert trace.success
        assert {type(err) for err, _ in exits} == {type(None), MaxItersExceeded, NoDescent}
        assert {report.iterations for err, report in exits if isinstance(err, MaxItersExceeded)} == {3}
        for err, report in exits:
            self.assert_consistent(report, err)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_linear_solve_failure_exit(self, monkeypatch, dim):
        """A linear solve that fails at the second iteration leaves the accepted first one in the report."""
        import mfgtorus.solver as solver_mod

        name = "_solve_band" if dim == 1 else "_solve_krylov"
        forward, calls = getattr(solver_mod, name), []

        def second_solve_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise LinearSolveFailure("forced")
            return forward(*args)

        monkeypatch.setattr(solver_mod, name, second_solve_fails)
        spec = suite_problem(0.5, n=32) if dim == 1 else problem_2d(n=16)
        s0 = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 1.0))
        with pytest.raises(LinearSolveFailure) as exc:
            newton_solve(spec, 1.0, s0)
        assert exc.value.report.iterations == 1
        self.assert_consistent(exc.value.report, exc.value)


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
        # shrinking from max_step to min_step takes 118 failed steps here, within the cap of 200
        assert StepOptions(shrink=0.9).shrink == 0.9

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

    def test_newton_solves_are_capped(self, monkeypatch):
        """Steps that never grow, or failures between successes, end at MAX_ATTEMPTS Newton solves, the
        lambda = 0 one included: a ContinuationStalled that keeps its trace."""
        import mfgtorus.solver as solver_mod

        monkeypatch.setattr(solver_mod, "MAX_ATTEMPTS", 5)
        with pytest.raises(ContinuationStalled, match="^5 Newton solves ended at lambda = 0.400000$") as exc:
            continuation_solve(suite_problem(0.5, n=16), step_opts=StepOptions(growth=1.0))
        trace = exc.value.trace
        assert [st.lam for st in trace.steps] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
        assert trace.failures == [] and not trace.success and trace.reached_lambda == trace.steps[-1].lam

        forward, calls = solver_mod.newton_solve, []

        def every_other_step_fails(spec, lam, *args, **kwargs):
            calls.append(lam)
            if len(calls) % 2 == 0:
                raise NoDescent("forced")
            return forward(spec, lam, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "newton_solve", every_other_step_fails)
        with pytest.raises(ContinuationStalled, match="^5 Newton solves ended") as exc:
            continuation_solve(suite_problem(0.5, n=16))
        assert (len(exc.value.trace.steps), len(exc.value.trace.failures), len(calls)) == (3, 2, 5)

    @pytest.mark.parametrize("cause, message", [("underflow", "step underflowed"), ("attempts", "Newton solves ended")])
    def test_stalled_trace_reached_its_last_step(self, monkeypatch, cause, message):
        """Whichever cause stalls a continuation that made progress, reached_lambda is its last step's lambda."""
        import mfgtorus.solver as solver_mod

        forward = solver_mod.newton_solve

        def refuses_beyond(spec, lam, *args, **kwargs):
            if lam > 0.35:
                raise NoDescent("forced")
            return forward(spec, lam, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "newton_solve", refuses_beyond)
        if cause == "attempts":
            monkeypatch.setattr(solver_mod, "MAX_ATTEMPTS", 8)
        with pytest.raises(ContinuationStalled, match=message) as exc:
            continuation_solve(suite_problem(0.5, n=16), step_opts=StepOptions(min_step=1e-3))
        trace = exc.value.trace
        assert trace.failures and 0.25 <= trace.steps[-1].lam <= 0.35
        assert not trace.success and trace.reached_lambda == trace.steps[-1].lam

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
        pot = PotentialSpec("separable", TrigForm(0.0, (0.3,), (0.0,)))
        spec = ProblemSpec(GridSpec(1, 64), 0.5, pot, DriftSpec.zero(1))
        results = perturbation_solve(spec, [1e-1, 1e-2, 1e-3, 1e-4])
        dists = [
            np.max(np.abs(a[1].stacked() - b[1].stacked()))
            for a, b in zip(results, results[1:])
        ]
        # Richardson-style fit: distances shrink like eps^p with p >= 1
        rates = [np.log10(d1 / d2) for d1, d2 in zip(dists, dists[1:])]
        assert all(r >= 0.9 for r in rates), (dists, rates)

    def test_warm_start_at_a_new_eps_uses_none_of_the_old_terms(self):
        """Each solve after the first restarts Newton at a new epsilon_monotone from the last state, which
        holds the terms of the previous spec: it gives what a fresh copy of that state gives, bit for bit."""
        from dataclasses import replace

        spec = suite_problem(0.5, n=64)
        (_, s1), (eps, s2) = perturbation_solve(spec, [1e-1, 1e-2])
        fresh = State(Field(spec.grid, s1.u.values.copy()), Field(spec.grid, s1.m.values.copy()))
        want, _ = newton_solve(replace(spec, epsilon_monotone=eps), 1.0, fresh)
        assert np.array_equal(s2.stacked(), want.stacked())

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


def coefficient_set_2d(a: float, b: float, n: int, alpha: float = 0.5, kappa: float = 1.0,
                       drift_scale: float = 1.0) -> ProblemSpec:
    """The benchmark's 2-D problem: V = kappa (a cos 2 pi x + a cos 2 pi y), drift b (sin 2 pi x, sin 2 pi y)."""
    pot = PotentialSpec("separable", TrigForm(0.0, (a, a), (0.0, 0.0)), kappa)
    drift = DriftSpec((TrigForm(0.0, (0.0, 0.0), (b, 0.0)), TrigForm(0.0, (0.0, 0.0), (0.0, b))))
    return ProblemSpec(GridSpec(2, n), alpha, pot, drift.scaled(drift_scale))


COEFFICIENT_SETS = {"reference": (0.5, 0.3), "strong": (4.0, 4.0)}


def plain_continuation(spec: ProblemSpec):
    """The continuation on spec's own grid alone: the reference the ladder and its fallback are compared with."""
    import mfgtorus.solver as solver_mod
    from mfgtorus.diagnostics import DiagnosticsConfig

    return solver_mod._continue(spec, NewtonOptions().resolved(spec), StepOptions(), DiagnosticsConfig(),
                                solver_mod.ContinuationTrace())


class TestGridLadder:
    """2-D solves continue on a coarse grid, then climb to n by Newton at lambda = 1."""

    @pytest.mark.parametrize("dim, n, sizes", [
        (2, 16, [16]), (2, 32, [16, 32]), (2, 48, [24, 48]), (2, 50, [25, 50]), (2, 64, [16, 32, 64]),
        (2, 128, [16, 32, 64, 128]), (2, 25, [25]), (2, 33, [33]), (2, 8, [8]),
        (1, 64, [64]), (1, 1024, [1024]),
    ])
    def test_ladder_sizes(self, dim, n, sizes):
        from mfgtorus.solver import ladder_sizes

        assert ladder_sizes(GridSpec(dim, n)) == sizes

    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("coeffs", COEFFICIENT_SETS.values(), ids=COEFFICIENT_SETS.keys())
    def test_each_climbed_level_takes_at_most_three_newton_iterations(self, coeffs, n):
        from mfgtorus.solver import ladder_sizes

        spec = coefficient_set_2d(*coeffs, n)
        sizes = ladder_sizes(spec.grid)
        s, trace = continuation_solve(spec)
        assert trace.success and trace.fallback is None and trace.failures == []
        climbs = trace.steps[-(len(sizes) - 1):]
        assert [st.n for st in climbs] == sizes[1:]
        assert {st.n for st in trace.steps[: -len(climbs)]} == {sizes[0]}
        assert all(st.lam == 1.0 and 0 < st.newton.iterations <= 3 for st in climbs)
        assert (trace.steps[-1].lam, trace.steps[-1].n) == (1.0, n)
        assert s.grid == spec.grid
        assert sup_norm(*residual(spec, 1.0, s)) <= newton_tolerance(spec) == TOL_MIN

    @pytest.mark.parametrize("drift_scale", [0.0, 3.0])
    @pytest.mark.parametrize("kappa", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.9])
    @pytest.mark.parametrize("coeffs", COEFFICIENT_SETS.values(), ids=COEFFICIENT_SETS.keys())
    def test_sweep_cells_end_at_the_plain_continuations_state(self, monkeypatch, coeffs, alpha, kappa,
                                                               drift_scale):
        """On 16 sweep cells at n = 32 the ladder solves and ends within 1e-10 of the continuation on
        n = 32, reached by failing the climb so that the solve falls back to it."""
        import mfgtorus.solver as solver_mod

        spec = coefficient_set_2d(*coeffs, 32, alpha, kappa, drift_scale)
        s, trace = continuation_solve(spec)
        assert trace.success and trace.fallback is None
        assert [st.n for st in trace.steps[-2:]] == [16, 32]

        def no_climb(f, grid):
            raise NoDescent("climb refused")

        monkeypatch.setattr(solver_mod, "interpolate", no_climb)
        s_plain, trace_plain = continuation_solve(spec)
        assert trace_plain.fallback == {"n": 32, "error": "NoDescent"}
        assert {st.n for st in trace_plain.steps} == {32}
        assert np.max(np.abs(s.stacked() - s_plain.stacked())) <= 1e-10

    @pytest.mark.parametrize("failing_n", [32, 64])
    def test_failed_climb_falls_back_to_the_plain_continuation(self, monkeypatch, caplog, failing_n):
        import mfgtorus.solver as solver_mod

        spec = coefficient_set_2d(*COEFFICIENT_SETS["reference"], 64)
        forward, seen = solver_mod.newton_solve, set()

        def first_solve_on_the_level_fails(spec_n, lam, s0, *args, **kwargs):
            if spec_n.grid.n == failing_n and failing_n not in seen:
                seen.add(failing_n)
                raise MaxItersExceeded("forced climb failure")
            return forward(spec_n, lam, s0, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "newton_solve", first_solve_on_the_level_fails)
        with caplog.at_level("INFO", logger="mfgtorus"):
            s, trace = continuation_solve(spec)
        s_plain, trace_plain = plain_continuation(spec)
        assert trace.fallback == {"n": failing_n, "error": "MaxItersExceeded"}
        assert np.array_equal(s.stacked(), s_plain.stacked())
        assert {**trace.to_dict(), "fallback": None} == trace_plain.to_dict()
        assert f"grid ladder failed at n={failing_n} (MaxItersExceeded); continuing on n=64" in caplog.text
        assert (failing_n == 64) == ("climb n=32: start residual" in caplog.text)

    def test_stalled_coarse_continuation_falls_back(self, monkeypatch):
        import mfgtorus.solver as solver_mod

        spec = coefficient_set_2d(*COEFFICIENT_SETS["strong"], 32)
        forward = solver_mod.newton_solve

        def coarse_steps_fail(spec_n, lam, s0, *args, **kwargs):
            if spec_n.grid.n == 16 and lam > 0.0:
                raise NoDescent("forced coarse failure")
            return forward(spec_n, lam, s0, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "newton_solve", coarse_steps_fail)
        s, trace = continuation_solve(spec)
        s_plain, trace_plain = plain_continuation(spec)
        assert trace.fallback == {"n": 16, "error": "ContinuationStalled"}
        assert np.array_equal(s.stacked(), s_plain.stacked())
        assert {**trace.to_dict(), "fallback": None} == trace_plain.to_dict()

    def test_nonpositive_interpolated_density_falls_back(self, monkeypatch):
        import mfgtorus.solver as solver_mod

        spec = coefficient_set_2d(*COEFFICIENT_SETS["reference"], 32)
        forward = solver_mod.interpolate

        def dented(f, grid):  # u and m alike: m <= 0 at one point
            values = forward(f, grid).values.copy()
            values[0] = -1e-3
            return Field(grid, values)

        monkeypatch.setattr(solver_mod, "interpolate", dented)
        s, trace = continuation_solve(spec)
        assert trace.fallback == {"n": 32, "error": "NonPositiveDensity"}
        assert trace.success and {st.n for st in trace.steps} == {32}
        assert np.array_equal(s.stacked(), plain_continuation(spec)[0].stacked())

    def test_a_fallback_that_stalls_keeps_its_record(self, monkeypatch):
        import mfgtorus.solver as solver_mod

        forward = solver_mod.newton_solve

        def steps_fail(spec_n, lam, s0, *args, **kwargs):
            if lam > 0.0:
                raise NoDescent("forced failure")
            return forward(spec_n, lam, s0, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "newton_solve", steps_fail)
        with pytest.raises(ContinuationStalled) as exc:
            continuation_solve(coefficient_set_2d(*COEFFICIENT_SETS["reference"], 32))
        trace = exc.value.trace
        assert trace.fallback == {"n": 16, "error": "ContinuationStalled"}
        assert not trace.success and {st.n for st in trace.steps} == {32}

    def test_one_info_line_per_climbed_level(self, caplog):
        with caplog.at_level("INFO", logger="mfgtorus"):
            continuation_solve(coefficient_set_2d(*COEFFICIENT_SETS["reference"], 64))
        climbs = [r.getMessage() for r in caplog.records if r.getMessage().startswith("climb ")]
        assert [line.split(":")[0] for line in climbs] == ["climb n=32", "climb n=64"]
        assert all("newton iterations" in line and "krylov iterations" in line for line in climbs)

    def test_1d_keeps_the_plain_continuation(self):
        spec = suite_problem(0.5, n=64)
        s, trace = continuation_solve(spec)
        s_plain, trace_plain = plain_continuation(spec)
        assert np.array_equal(s.stacked(), s_plain.stacked())
        assert trace.to_dict() == trace_plain.to_dict()
        assert {st.n for st in trace.steps} == {64} and trace.fallback is None


def strong_1d(n: int) -> ProblemSpec:
    """The strong set in 1-D: a = 4 cos, b = 4 sin, alpha = 0.5, kappa = 1."""
    pot = PotentialSpec("separable", TrigForm(0.0, (4.0,), (0.0,)), 1.0)
    return ProblemSpec(GridSpec(1, n), 0.5, pot, DriftSpec((TrigForm(0.0, (0.0,), (4.0,)),)))


class TestResidualFloorTolerance:
    """The default tolerance is `newton_tolerance`, the rounding floor of the residual where it exceeds TOL_MIN."""

    @pytest.mark.parametrize("spec", [
        *(coefficient_set_2d(*coeffs, n) for coeffs in COEFFICIENT_SETS.values() for n in (16, 24, 32, 48, 64)),
        *(suite_problem(0.5, n=n) for n in (32, 64, 128, 256)),
    ], ids=lambda spec: f"{spec.grid.dim}d-{spec.grid.n}-a{spec.potential.a.cos_amp[0]:g}")
    def test_rule_keeps_tol_min_on_the_benchmark_problems(self, spec):
        # every benchmark output at these sizes stays byte-identical only at exactly 1e-10
        assert newton_tolerance(spec) == TOL_MIN == 1e-10
        assert NewtonOptions().resolved(spec).tol_residual == 1e-10

    @pytest.mark.parametrize("n, tol", [(512, 2.41e-10), (1024, 9.64e-10), (4096, 1.543e-8)])
    def test_rule_above_tol_min_is_the_floor(self, n, tol):
        spec = suite_problem(0.5, n=n)  # certified bound 0.5 + pi / 2
        floor = 0.5 * np.finfo(float).eps * (0.5 + np.pi / 2) * (1 + 4 * n**2)
        assert newton_tolerance(spec) == pytest.approx(floor, rel=1e-14) == pytest.approx(tol, rel=1e-3)

    def test_resolved_sets_the_rule_and_keeps_an_explicit_number(self):
        spec = suite_problem(0.5, n=1024)
        assert NewtonOptions().resolved(spec).tol_residual == newton_tolerance(spec)
        explicit = NewtonOptions(tol_residual=1e-12)
        assert explicit.resolved(spec) is explicit

    def test_overflowing_rule_is_a_value_error(self):
        spec = suite_problem(0.5, n=64)
        with pytest.raises(ValueError, match="the tolerance rule overflows"):
            newton_tolerance(ProblemSpec(spec.grid, 0.5, spec.potential, spec.drift, 1e308))

    @pytest.mark.parametrize("spec", [suite_problem(0.5, n=n) for n in (1024, 2048, 4096)] + [strong_1d(1024)],
                             ids=["reference-1024", "reference-2048", "reference-4096", "strong-1024"])
    def test_former_floor_stalls_solve_with_the_default(self, spec):
        s, trace = continuation_solve(spec)
        assert trace.success and trace.failures == []
        assert all(st.newton.residual_history[-1] <= newton_tolerance(spec) for st in trace.steps)
        assert sup_norm(*residual(spec, 1.0, s)) <= newton_tolerance(spec)

    def test_strong_2d_256_climbs_without_a_fallback(self):
        spec = coefficient_set_2d(*COEFFICIENT_SETS["strong"], 256)
        s, trace = continuation_solve(spec)
        assert trace.success and trace.fallback is None
        assert [(st.n, st.lam) for st in trace.steps if st.n > 16] == [(32, 1.0), (64, 1.0), (128, 1.0), (256, 1.0)]
        assert sup_norm(*residual(spec, 1.0, s)) <= newton_tolerance(spec)
