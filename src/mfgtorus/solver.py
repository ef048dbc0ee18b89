"""Damped Newton at fixed lambda, and the lambda-continuation driver 0 -> 1.

Newton damping enforces two guards before accepting a step fraction t:
(a) positivity: min(m + t dm) >= positivity_fraction * min(m_current), and
(b) Armijo decrease of the residual sup-norm.
Positivity is handled entirely by the line search; the equations themselves
are never floored or regularized.

Each Newton step solves one 2N x 2N linear system.  In 2-D that is an in-house
GMRES loop with a block preconditioner diagonal in the discrete Fourier basis,
run only as tightly as Newton needs (`_forcing_term`); in 1-D it is a banded LU
with the periodic ring folded into a plain band.  A GMRES answer that misses its
forcing term, or a system that the band LU cannot factor, fails the Newton step.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgbsv, dlartg
# neither is called here: perfbench/tracer.py wraps solver.spsolve and solver.lsqr by name until ROADMAP item 14
from scipy.sparse.linalg import lsqr, spsolve

from .diagnostics import DiagnosticsConfig, DiagnosticsSnapshot, make_snapshot
from .errors import (
    ContinuationStalled,
    LinearSolveFailure,
    MaxItersExceeded,
    NoDescent,
    SolverFailure,
)
from .grid import GridSpec, gradient_and_laplacian, read_only, sup_norm
from .linearization import LinearizedSystem, _band_layout, assemble_jacobian
from .problem import Field, ProblemSpec, State, exact_initial, residual

log = logging.getLogger("mfgtorus")

# GMRES stops, and its answer is kept, once the true relative residual is at most
# the forcing term eta >= KRYLOV_RTOL; else the Newton step fails.  No solve took
# more than 25 iterations in a sweep of 144 2-D continuations, so one cycle of 40
# normally suffices and 3 cycles bound the work spent before a step failure.  Newton stays
# locally quadratic while eta = O(|F|) (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
# Anal. 19, 1982): eta is Eisenstat & Walker's choice 2 (SIAM J. Sci. Comput. 17,
# 1996), FORCING_GAMMA (r_k / r_(k-1))^FORCING_POWER from FORCING_MAX at k = 0, capped
# at FORCING_MAX, and floored at FORCING_TOL_SHARE tol / |b| to stop near the tolerance.
KRYLOV_RTOL = 1e-10
KRYLOV_RESTART = 40
KRYLOV_MAX_RESTARTS = 3
FORCING_MAX = 1e-2
FORCING_GAMMA = 0.9
FORCING_POWER = 2
FORCING_TOL_SHARE = 0.5


@dataclass(frozen=True)
class NewtonOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    positivity_fraction: float = 0.1
    armijo_c: float = 1e-4
    min_damping: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.positivity_fraction < 1.0:
            raise ValueError("positivity_fraction must lie in (0, 1)")
        if min(self.tol_residual, self.max_iters, self.armijo_c, self.min_damping) <= 0:
            raise ValueError("all Newton options must be positive")
        if self.armijo_c >= 1.0:  # (1 - c t) res would then reject every full step
            raise ValueError("armijo_c must lie in (0, 1)")


@dataclass(frozen=True)
class StepOptions:
    """Continuation schedule: grow after easy steps, halve after failures."""

    initial_step: float = 0.1
    growth: float = 1.5
    shrink: float = 0.5
    max_step: float = 0.25
    min_step: float = 1e-6
    grow_iters: int = 3

    def __post_init__(self):
        if min(self.initial_step, self.max_step, self.min_step) <= 0:
            raise ValueError("all continuation steps must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1")
        if self.min_step > self.max_step:
            raise ValueError("min_step must not exceed max_step")
        if self.initial_step > self.max_step:
            raise ValueError("initial_step must not exceed max_step")
        if self.grow_iters < 0:
            raise ValueError("grow_iters must be >= 0")


@dataclass
class NewtonReport:
    """One Newton solve.

    `linear_paths` ("band" in 1-D, "krylov" in 2-D) and `krylov_iterations`
    (0 off the Krylov path) hold one entry per linear solve: one per accepted
    iteration, plus the rejected last one when damping gave out.
    """

    converged: bool
    iterations: int
    residual_history: list[float]
    damping_history: list[float]
    final_min_m: float
    linear_paths: list[str]
    krylov_iterations: list[int]


# trace.json spells out the fields named after lambda, a Python keyword
_JSON_KEYS = {"lam": "lambda", "lam_attempted": "lambda_attempted"}


@dataclass
class ContinuationStep:
    lam: float
    newton: NewtonReport
    diagnostics: DiagnosticsSnapshot


@dataclass
class FailureRecord:
    lam_attempted: float
    error: str
    step_after: float


@dataclass
class ContinuationTrace:
    steps: list[ContinuationStep] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    reached_lambda: float = 0.0
    success: bool = False

    def to_dict(self) -> dict:
        """The trace as trace.json holds it: every field under its own name, but `lambda` for `lam`."""
        return asdict(self, dict_factory=lambda items: {_JSON_KEYS.get(k, k): v for k, v in items})


@lru_cache(maxsize=64)
def _krylov_symbols(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The symbols of I - L and of W in `_krylov_preconditioner`, once per grid."""
    unit = np.eye(1, grid.size).reshape(grid.shape)  # e_0: each stencil of it is its operator's column 0
    grads, lap = gradient_and_laplacian(unit, grid)
    eye_minus_lap = 1.0 - np.fft.rfft2(lap).real
    wide = sum(np.fft.rfft2(g) ** 2 for g in grads).real
    return read_only(eye_minus_lap), read_only(wide)


def _krylov_preconditioner(sys: LinearizedSystem, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """P^-1 for P = [[I - L, 0], [-c W, I - L]], c = mean(m)^(1-alpha).

    P is the Jacobian at constant m and u, without the drift and the potential's
    m-derivative.  Its blocks are circulant, so each symbol is the DFT of column 0
    of L or of the centered difference D_i, squared in W = sum_i D_i D_i.
    P^-1 transforms the two stacked components with the 1-D passes that `rfft2`
    and `irfft2` make: rfft on the last axis and fft on axis -2, then back.
    """
    eye_minus_lap, wide = _krylov_symbols(sys.grid)
    c_wide = float(np.mean(sys.base_state.m.values)) ** (1.0 - alpha) * wide
    n = sys.grid.n

    def apply_inverse(r: np.ndarray) -> np.ndarray:
        x = np.fft.fft(np.fft.rfft(r.reshape(2, n, n)), axis=-2)
        x[0] /= eye_minus_lap
        x[1] = (x[1] + c_wide * x[0]) / eye_minus_lap
        return np.fft.irfft(np.fft.ifft(x, axis=-2), n).ravel()

    return apply_inverse


def _eisenstat_walker(history: list[float]) -> float:
    """The unclamped forcing term of a Newton call whose sup-norm residuals so far are `history`."""
    if len(history) < 2:
        return FORCING_MAX
    return FORCING_GAMMA * (history[-1] / history[-2]) ** FORCING_POWER


def _forcing_term(eta_ew: float, tol: float, b_norm: float) -> float:
    """The relative residual a Krylov solve stops at: eta_ew within [KRYLOV_RTOL, FORCING_MAX], and not
    far below what takes |b| to the Newton tolerance tol."""
    return max(KRYLOV_RTOL, min(FORCING_MAX, max(eta_ew, FORCING_TOL_SHARE * tol / b_norm)))


def _solve_krylov(
    sys: LinearizedSystem, b: np.ndarray, alpha: float, eta_ew: float, tol: float
) -> tuple[np.ndarray, int, float]:
    """2-D restarted GMRES on A x = b from x = 0, left-preconditioned by `_krylov_preconditioner`.

    Step for step it is SciPy's `gmres` (1.17) at rtol eta = `_forcing_term(eta_ew, tol, |b|)`:
    modified Gram-Schmidt, Givens rotations from LAPACK lartg, its inner tolerance
    `ptol` across restarts and its back substitution; but P^-1 b is applied once and
    b - A x once per cycle.  Returns (x, iterations, eta); b = 0 gives (0, 0, 0.0).  Raises
    LinearSolveFailure unless x is finite and |b - A x| <= eta |b| within KRYLOV_MAX_RESTARTS cycles.
    """
    matrix, precond = sys.matrix, _krylov_preconditioner(sys, alpha)
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return np.zeros_like(b), 0, 0.0
    eta = _forcing_term(eta_ew, tol, b_norm)
    atol, eps = eta * b_norm, np.finfo(float).eps
    x, r, factor, iterations = np.zeros_like(b), b, 1.0, 0
    v = np.empty((KRYLOV_RESTART + 1, b.size))
    h = np.zeros((KRYLOV_RESTART, KRYLOV_RESTART + 1))  # row j: column j of the rotated Hessenberg matrix
    for cycle in range(KRYLOV_MAX_RESTARTS):
        v[0] = precond(r)
        g = [np.linalg.norm(v[0])]  # the rotated right-hand side
        v[0] *= 1 / g[0]
        if cycle == 0:
            ptol = g[0] * min(factor, atol / b_norm)
        rotations = []
        for col in range(KRYLOV_RESTART):
            w = precond(matrix @ v[col])
            column, w_norm = [], np.linalg.norm(w)
            for k in range(col + 1):
                column.append(np.dot(v[k], w))
                w -= column[k] * v[k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * w_norm
            v[col + 1] = w if breakdown else w * (1 / h1)
            column.append(0.0 if breakdown else h1)
            for k, (c, s) in enumerate(rotations):
                column[k : k + 2] = c * column[k] + s * column[k + 1], -s * column[k] + c * column[k + 1]
            c, s, column[col] = dlartg(column[col], column[col + 1])
            column[col + 1] = 0.0
            h[col, : col + 2] = column
            rotations.append((c, s))
            g[col:] = c * g[col], -s * g[col]
            presid = abs(g[col + 1])
            iterations += 1
            if presid <= ptol or breakdown:
                break
        if h[col, col] == 0:
            g[col] = 0.0
        y = np.array(g[: col + 1])
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        x += y @ v[: col + 1]
        r = b - matrix @ x
        r_norm = np.linalg.norm(r)
        if r_norm <= atol or breakdown:
            break
        factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / r_norm)
    if not (r_norm <= atol and np.all(np.isfinite(x))):
        raise LinearSolveFailure(f"GMRES missed its forcing term eta {eta:.1e} in {iterations} iterations")
    return x, iterations, eta


def _solve_band(sys: LinearizedSystem, b: np.ndarray) -> np.ndarray:
    """Banded LU (LAPACK gbsv) of a matrix on the cached pattern; LinearSolveFailure on a zero pivot or non-finite x."""
    order, inverse, kl, ku, slots = _band_layout(sys.grid)
    band = np.zeros((order.size, 2 * kl + ku + 1))
    band.ravel()[slots] = sys.matrix.data
    _, _, x, info = dgbsv(kl, ku, band.T, b[order, None], overwrite_ab=True, overwrite_b=True)
    if info != 0 or not np.all(np.isfinite(x)):
        raise LinearSolveFailure(f"singular or overflowing band LU (gbsv info {info})")
    return x[inverse, 0]


def _solve_linear(
    sys: LinearizedSystem, b: np.ndarray, alpha: float, eta_ew: float, tol: float
) -> tuple[np.ndarray, str, int, float]:
    """Solve the Newton system A delta = b; returns (delta, path, Krylov iterations, forcing term).

    1-D is `_solve_band` ("band", forcing term 0) and 2-D is `_solve_krylov` ("krylov").  Each
    raises LinearSolveFailure on an answer it rejects: the Newton step fails, and the continuation shortens its step.
    """
    if sys.grid.dim == 1:
        return _solve_band(sys, b), "band", 0, 0.0
    delta, iterations, eta = _solve_krylov(sys, b, alpha, eta_ew, tol)
    return delta, "krylov", iterations, eta


def newton_solve(
    spec: ProblemSpec,
    lam: float,
    s0: State,
    opts: NewtonOptions = NewtonOptions(),
    sources: tuple[Field, Field] | None = None,
) -> tuple[State, NewtonReport]:
    """Damped Newton on F(lam, .) from s0 (m > 0 required) down to the sup-norm tolerance."""
    grid = spec.grid
    s = s0
    res = residual(spec, lam, s, sources)
    res_norm = sup_norm(*res)
    history = [res_norm]
    damping: list[float] = []
    paths: list[str] = []
    krylov: list[int] = []

    def report(converged: bool) -> NewtonReport:
        return NewtonReport(converged, it, history, damping, s.min_m(), paths, krylov)

    it = 0
    while True:
        if res_norm <= opts.tol_residual:
            return s, report(True)
        if it >= opts.max_iters:
            raise MaxItersExceeded(
                f"no convergence in {opts.max_iters} iterations (residual {res_norm:.3e})",
                report=report(False),
            )

        sys = assemble_jacobian(spec, lam, s)
        rhs = -np.concatenate([res[0].values, res[1].values])
        eta_ew = _eisenstat_walker(history)
        try:
            delta, path, krylov_its, eta = _solve_linear(sys, rhs, spec.alpha, eta_ew, opts.tol_residual)
        except LinearSolveFailure as err:
            err.report = report(False)
            raise
        paths.append(path)
        krylov.append(krylov_its)
        dv, dm = delta[: grid.size], delta[grid.size :]

        min_m = s.min_m()
        floor = opts.positivity_fraction * min_m
        t = 1.0
        accepted = None
        while t >= opts.min_damping:
            trial_m = s.m.values + t * dm
            if np.min(trial_m) >= floor:
                trial = State(Field(grid, s.u.values + t * dv), Field(grid, trial_m))
                trial_res = residual(spec, lam, trial, sources)
                trial_norm = sup_norm(*trial_res)
                if trial_norm <= (1.0 - opts.armijo_c * t) * res_norm:
                    accepted = (trial, trial_res, trial_norm)
                    break
            t *= 0.5
        if accepted is None:
            raise NoDescent(
                f"damping underflowed below {opts.min_damping:g} at iteration {it}",
                report=report(False),
            )

        s, res, res_norm = accepted
        history.append(res_norm)
        damping.append(t)
        it += 1
        log.debug("newton iteration %d: residual %.3e, t %g, %s solve, %d krylov iterations, eta %.2e",
                  it, res_norm, t, path, krylov_its, eta)


def continuation_solve(
    spec: ProblemSpec,
    opts: NewtonOptions = NewtonOptions(),
    step_opts: StepOptions = StepOptions(),
    diagnostics: DiagnosticsConfig = DiagnosticsConfig(),
) -> tuple[State, ContinuationTrace]:
    """Track the solution branch from the explicit lam=0 state up to lam=1.

    Warm-starts every step from the last accepted state, halves the step on any
    Newton failure, grows it after fast steps, and clamps the final step to
    land on lam=1 exactly.  Each accepted state gets a snapshot of the checks
    `diagnostics.checks` at the moment exponents `diagnostics.r_values`.
    """
    if not spec.solvable:
        raise ValueError(f"the solver requires alpha < 1, got alpha = {spec.alpha}")
    trace = ContinuationTrace()

    s, report = newton_solve(spec, 0.0, exact_initial(spec), opts)
    snapshot = make_snapshot(spec, s, 0.0, diagnostics, opts.tol_residual)[0]
    trace.steps.append(ContinuationStep(0.0, report, snapshot))
    lam = 0.0
    dlam = step_opts.initial_step

    while lam < 1.0:
        lam_try = min(lam + dlam, 1.0)
        try:
            s_new, report = newton_solve(spec, lam_try, s, opts)
        except SolverFailure as err:
            dlam *= step_opts.shrink
            trace.failures.append(FailureRecord(lam_try, type(err).__name__, dlam))
            log.info("newton failed at lambda=%.6f (%s); step -> %.3e", lam_try, type(err).__name__, dlam)
            if dlam < step_opts.min_step:
                trace.reached_lambda = lam
                raise ContinuationStalled(
                    f"continuation step underflowed at lambda = {lam:.6f}", trace=trace
                ) from err
            continue
        lam, s = lam_try, s_new
        snapshot = make_snapshot(spec, s, lam, diagnostics, opts.tol_residual)[0]
        trace.steps.append(ContinuationStep(lam, report, snapshot))
        log.debug("accepted lambda=%.6f in %d iterations", lam, report.iterations)
        if report.iterations <= step_opts.grow_iters:
            dlam = min(dlam * step_opts.growth, step_opts.max_step)

    trace.reached_lambda = lam
    trace.success = lam == 1.0
    return s, trace


def perturbation_solve(
    spec: ProblemSpec,
    eps_sequence: list[float],
    opts: NewtonOptions = NewtonOptions(),
    step_opts: StepOptions = StepOptions(),
) -> list[tuple[float, State]]:
    """Solve the strictly-monotonized problems for a decreasing sequence of
    perturbation strengths, warm-starting each lam=1 solve from the previous one.

    The returned states realize the vanishing-perturbation limit as a Cauchy
    trend in the sup-norm.
    """
    eps_list = [float(e) for e in eps_sequence]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("eps_sequence must contain positive values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")

    results: list[tuple[float, State]] = []
    prev: State | None = None
    for eps in eps_list:
        spec_eps = replace(spec, epsilon_monotone=eps)
        if prev is None:
            s, _ = continuation_solve(spec_eps, opts, step_opts)
        else:
            try:
                s, _ = newton_solve(spec_eps, 1.0, prev, opts)
            except SolverFailure:
                s, _ = continuation_solve(spec_eps, opts, step_opts)
        results.append((eps, s))
        prev = s
    return results
