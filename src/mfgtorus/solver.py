"""Damped Newton at fixed lambda, and the lambda-continuation driver 0 -> 1 with its 2-D grid ladder.

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

from .diagnostics import DiagnosticsConfig, DiagnosticsSnapshot, certified_u_bound, make_snapshot
from .errors import (
    ContinuationStalled,
    LinearSolveFailure,
    MaxItersExceeded,
    MFGError,
    NoDescent,
    SolverFailure,
)
from .grid import GridSpec, gradient_and_laplacian, interpolate, read_only, sup_norm
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
# the most failed steps a continuation schedule may take from max_step down to min_step,
# log(min_step / max_step) / log(shrink): the defaults take 18, and shrink 0.9 takes 118
MAX_SHRINKS = 200
# the most Newton solves, accepted and failed, one continuation may take: default schedules take a few dozen at
# most, while a step that never grows, or failures between successes, could otherwise run for hours
MAX_ATTEMPTS = 1000
# the smallest grid a 2-D continuation runs on before it climbs to n (`ladder_sizes`)
COARSE_MIN_N = 16
# the MFG_LOG=info line of each Newton solve at lambda = 1 on one grid size: a climbed level, or an MMS grid
LEVEL_LOG = "%s n=%d: start residual %.3e, %d newton iterations, %d krylov iterations"
TOL_MIN = 1e-10  # the least Newton tolerance `newton_tolerance` gives


def newton_tolerance(spec: ProblemSpec) -> float:
    """TOL_MIN, or above it the residual's rounding floor on spec (Oettli-Prager): half an ulp of the certified
    sup bound on u along the homotopy, times the Laplacian stencil's weight 1 + 4 dim n^2.  ValueError on overflow."""
    tol = max(TOL_MIN, 2.0**-53 * certified_u_bound(spec, 0.5) * (1 + 4 * spec.grid.dim * spec.grid.n**2))
    if not np.isfinite(tol):  # 2^-53 is half the machine epsilon
        raise ValueError("the tolerance rule overflows on the certified sup bound on u; set a number")
    return tol


@dataclass(frozen=True)
class NewtonOptions:
    tol_residual: float | None = None  # None: `newton_tolerance` of each problem solved, set by `resolved`
    max_iters: int = 50
    positivity_fraction: float = 0.1
    armijo_c: float = 1e-4
    min_damping: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.positivity_fraction < 1.0:
            raise ValueError("positivity_fraction must lie in (0, 1)")
        if min(x for x in (self.tol_residual, self.max_iters, self.armijo_c, self.min_damping) if x is not None) <= 0:
            raise ValueError("all Newton options must be positive")
        if self.armijo_c >= 1.0:  # (1 - c t) res would then reject every full step
            raise ValueError("armijo_c must lie in (0, 1)")

    def resolved(self, spec: ProblemSpec) -> NewtonOptions:
        """These options with a None tolerance set to `newton_tolerance(spec)`."""
        return self if self.tol_residual is not None else replace(self, tol_residual=newton_tolerance(spec))


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
        shrinks = np.log(self.min_step / self.max_step) / np.log(self.shrink)
        if shrinks > MAX_SHRINKS:
            raise ValueError(f"shrink takes {shrinks:.0f} failed steps from max_step to min_step, "
                             f"more than {MAX_SHRINKS}")
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
    n: int  # the grid size the step solved on


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
    fallback: dict | None = None  # {"n", "error"}: the ladder size that failed, before the rerun on n

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


def _forcing_term(history: list[float], tol: float, b_norm: float) -> float:
    """The relative residual a Krylov solve stops at in a Newton call whose sup-norm residuals so far are
    `history`: Eisenstat & Walker's term within [KRYLOV_RTOL, FORCING_MAX], and not far below what takes
    |b| to the Newton tolerance tol."""
    eta_ew = FORCING_MAX if len(history) < 2 else FORCING_GAMMA * (history[-1] / history[-2]) ** FORCING_POWER
    return max(KRYLOV_RTOL, min(FORCING_MAX, max(eta_ew, FORCING_TOL_SHARE * tol / b_norm)))


def _solve_krylov(matrix, b: np.ndarray, precond: Callable, rtol: float) -> tuple[np.ndarray, int]:
    """Restarted GMRES on A x = b from x = 0, left-preconditioned by `precond`, which applies P^-1.

    Step for step it is SciPy's `gmres` (1.17) at `rtol`: modified Gram-Schmidt,
    Givens rotations from LAPACK lartg, its inner tolerance `ptol` across restarts
    and its back substitution; but P^-1 b is applied once and b - A x once per
    cycle.  Returns (x, iterations); b = 0 gives (0, 0).  Raises LinearSolveFailure
    unless x is finite and |b - A x| <= rtol |b| within KRYLOV_MAX_RESTARTS cycles;
    a non-finite residual ends the loops at once.
    """
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        return np.zeros_like(b), 0
    atol, eps = rtol * b_norm, np.finfo(float).eps
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
            if presid <= ptol or breakdown or not np.isfinite(presid):
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
        if r_norm <= atol or breakdown or not np.isfinite(r_norm):
            break
        factor = max(eps, 0.25 * factor) if presid <= ptol else min(1.0, 1.5 * factor)
        ptol = presid * min(factor, atol / r_norm)
    if not (r_norm <= atol and np.all(np.isfinite(x))):
        raise LinearSolveFailure(f"GMRES missed its forcing term eta {rtol:.1e} in {iterations} iterations")
    return x, iterations


def _solve_band(sys: LinearizedSystem, b: np.ndarray) -> np.ndarray:
    """Banded LU (LAPACK gbsv) of a system's fill; LinearSolveFailure on a zero pivot or non-finite x."""
    order, inverse, kl, ku, slots = _band_layout(sys.grid)
    band = np.zeros((order.size, 2 * kl + ku + 1))
    band.ravel()[slots] = sys.fill
    _, _, x, info = dgbsv(kl, ku, band.T, b[order, None], overwrite_ab=True, overwrite_b=True)
    if info != 0 or not np.all(np.isfinite(x)):
        raise LinearSolveFailure(f"singular or overflowing band LU (gbsv info {info})")
    return x[inverse, 0]


def newton_solve(
    spec: ProblemSpec,
    lam: float,
    s0: State,
    opts: NewtonOptions = NewtonOptions(),
    sources: tuple[Field, Field] | None = None,
) -> tuple[State, NewtonReport]:
    """Damped Newton on F(lam, .) from s0 (m > 0 required) down to the sup-norm tolerance."""
    grid, opts, s = spec.grid, opts.resolved(spec), s0
    res = residual(spec, lam, s, sources)
    history = [sup_norm(*res)]
    damping: list[float] = []
    paths: list[str] = []
    krylov: list[int] = []

    def report(converged: bool) -> NewtonReport:
        return NewtonReport(converged, len(damping), history, damping, s.min_m(), paths, krylov)

    while True:
        if history[-1] <= opts.tol_residual:
            return s, report(True)
        if len(damping) >= opts.max_iters:
            raise MaxItersExceeded(
                f"no convergence in {opts.max_iters} iterations (residual {history[-1]:.3e})",
                report=report(False),
            )

        sys = assemble_jacobian(spec, lam, s)
        rhs = -np.concatenate([res[0].values, res[1].values])
        path = "band" if grid.dim == 1 else "krylov"
        try:  # a rejected answer fails the Newton step, and the continuation shortens its step
            if path == "band":
                delta, krylov_its, eta = _solve_band(sys, rhs), 0, 0.0
            else:
                eta = _forcing_term(history, opts.tol_residual, np.linalg.norm(rhs))
                delta, krylov_its = _solve_krylov(sys.matrix, rhs, _krylov_preconditioner(sys, spec.alpha), eta)
        except LinearSolveFailure as err:
            err.report = report(False)
            raise
        paths.append(path)
        krylov.append(krylov_its)
        dv, dm = delta[: grid.size], delta[grid.size :]

        floor = opts.positivity_fraction * s.min_m()
        t = 1.0
        while t >= opts.min_damping:
            trial_m = s.m.values + t * dm
            if np.min(trial_m) >= floor:
                trial = State(Field(grid, s.u.values + t * dv), Field(grid, trial_m))
                trial_res = residual(spec, lam, trial, sources)
                trial_norm = sup_norm(*trial_res)
                if trial_norm <= (1.0 - opts.armijo_c * t) * history[-1]:
                    break
            t *= 0.5
        else:
            raise NoDescent(
                f"damping underflowed below {opts.min_damping:g} at iteration {len(damping)}",
                report=report(False),
            )

        s, res = trial, trial_res
        history.append(trial_norm)
        damping.append(t)
        log.debug("newton iteration %d: residual %.3e, t %g, %s solve, %d krylov iterations, eta %.2e",
                  len(damping), trial_norm, t, path, krylov_its, eta)


def ladder_sizes(grid: GridSpec) -> list[int]:
    """The grid sizes a solve climbs to grid.n, coarsest first: in 2-D, n halved while it is even and its
    half is at least COARSE_MIN_N (48: [24, 48], 64: [16, 32, 64], 50: [25, 50]); in 1-D, [n]."""
    sizes = [grid.n]
    while grid.dim == 2 and sizes[0] % 2 == 0 and sizes[0] // 2 >= COARSE_MIN_N:
        sizes.insert(0, sizes[0] // 2)
    return sizes


def continuation_solve(
    spec: ProblemSpec,
    opts: NewtonOptions = NewtonOptions(),
    step_opts: StepOptions = StepOptions(),
    diagnostics: DiagnosticsConfig = DiagnosticsConfig(),
) -> tuple[State, ContinuationTrace]:
    """Continue from lam = 0 to 1 on the coarsest `ladder_sizes`, then climb to spec's grid from interpolated
    solutions, one step per size.  If the ladder fails, its `fallback` is recorded and `_continue` runs on n."""
    if not spec.solvable:
        raise ValueError(f"the solver requires alpha < 1, got alpha = {spec.alpha}")
    sizes, trace, opts = ladder_sizes(spec.grid), ContinuationTrace(), opts.resolved(spec)
    if len(sizes) == 1:
        return _continue(spec, opts, step_opts, diagnostics, trace)
    try:
        s, _ = _continue(replace(spec, grid=GridSpec(spec.grid.dim, sizes[0])), opts, step_opts, diagnostics, trace)
        for n in sizes[1:]:
            spec_n = replace(spec, grid=GridSpec(spec.grid.dim, n))
            start = State(interpolate(s.u, spec_n.grid), interpolate(s.m, spec_n.grid))
            s, report = newton_solve(spec_n, 1.0, start, opts)
            log.info(LEVEL_LOG, "climb", n, report.residual_history[0], report.iterations,
                     sum(report.krylov_iterations))
            snapshot = make_snapshot(spec_n, s, 1.0, diagnostics, opts.tol_residual)[0]
            trace.steps.append(ContinuationStep(1.0, report, snapshot, n))
        return s, trace
    except MFGError as err:  # the continuation on n then solves, or fails, as it does without the ladder
        failed = 2 * trace.steps[-1].n if trace.success else sizes[0]  # the size after the last one solved
        log.info("grid ladder failed at n=%d (%s); continuing on n=%d", failed, type(err).__name__, spec.grid.n)
        fallback = ContinuationTrace(fallback={"n": failed, "error": type(err).__name__})
        return _continue(spec, opts, step_opts, diagnostics, fallback)


def _continue(spec: ProblemSpec, opts: NewtonOptions, step_opts: StepOptions, diagnostics: DiagnosticsConfig,
              trace: ContinuationTrace) -> tuple[State, ContinuationTrace]:
    """The continuation on spec's grid alone, recorded into `trace`: warm-starts every step from the last
    accepted state, halves the step on any Newton failure, grows it after fast steps, and clamps the final
    step to land on lam=1 exactly.  Each accepted state gets a snapshot of the checks `diagnostics.checks`
    at the moment exponents `diagnostics.r_values`.  It stalls once the step underflows or after MAX_ATTEMPTS
    Newton solves."""
    s, report = newton_solve(spec, 0.0, exact_initial(spec), opts)
    snapshot = make_snapshot(spec, s, 0.0, diagnostics, opts.tol_residual)[0]
    trace.steps.append(ContinuationStep(0.0, report, snapshot, spec.grid.n))
    lam = 0.0
    dlam = step_opts.initial_step

    while lam < 1.0:
        if len(trace.steps) + len(trace.failures) >= MAX_ATTEMPTS:
            raise ContinuationStalled(f"{MAX_ATTEMPTS} Newton solves ended at lambda = {lam:.6f}", trace=trace)
        lam_try = min(lam + dlam, 1.0)
        try:
            s_new, report = newton_solve(spec, lam_try, s, opts)
        except SolverFailure as err:
            dlam *= step_opts.shrink
            trace.failures.append(FailureRecord(lam_try, type(err).__name__, dlam))
            log.info("newton failed at lambda=%.6f (%s); step -> %.3e", lam_try, type(err).__name__, dlam)
            if dlam < step_opts.min_step:
                raise ContinuationStalled(
                    f"continuation step underflowed at lambda = {lam:.6f}", trace=trace
                ) from err
            continue
        lam, s = lam_try, s_new
        trace.reached_lambda = lam
        snapshot = make_snapshot(spec, s, lam, diagnostics, opts.tol_residual)[0]
        trace.steps.append(ContinuationStep(lam, report, snapshot, spec.grid.n))
        log.debug("accepted lambda=%.6f in %d iterations", lam, report.iterations)
        if report.iterations <= step_opts.grow_iters:
            dlam = min(dlam * step_opts.growth, step_opts.max_step)

    trace.success = True  # the loop ends only on lam = 1
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
