"""Damped Newton at fixed lambda, and the lambda-continuation driver 0 -> 1.

Newton damping enforces two guards before accepting a step fraction t:
(a) positivity: min(m + t dm) >= positivity_fraction * min(m_current), and
(b) Armijo decrease of the residual sup-norm.
Positivity is handled entirely by the line search; the equations themselves
are never floored or regularized.

Each Newton step solves one 2N x 2N linear system.  In 2-D that is GMRES with a
block preconditioner diagonal in the discrete Fourier basis; in 1-D it is a
banded LU with the periodic ring folded into a plain band.  Whenever either
answer is not accepted, it is the sparse direct solve.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.lapack import dgbsv
from scipy.sparse.linalg import LinearOperator, MatrixRankWarning, gmres, lsqr, spsolve

from .diagnostics import DiagnosticsConfig, DiagnosticsSnapshot, make_snapshot
from .errors import (
    ContinuationStalled,
    LinearSolveFailure,
    MaxItersExceeded,
    NoDescent,
    SolverFailure,
)
from .grid import GridSpec, diff_matrix, laplacian_matrix, read_only, sup_norm
from .linearization import LinearizedSystem, _band_layout, assemble_jacobian
from .problem import Field, ProblemSpec, State, exact_initial, residual

log = logging.getLogger("mfgtorus")

# GMRES stops at this relative residual; its answer is kept only if the true
# relative residual is within KRYLOV_ACCEPT, else the direct solve runs.  The
# preconditioned solves take at most about 15 iterations, so one cycle of 40
# normally suffices and 3 cycles bound the work spent before a fallback.
KRYLOV_RTOL = 1e-10
KRYLOV_ACCEPT = 1e-8
KRYLOV_RESTART = 40
KRYLOV_MAX_RESTARTS = 3


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

    `linear_paths` ("krylov", "band", "direct" or "pinned") and `krylov_iterations`
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
    """The symbols of I - L and of W in `_solve_krylov`'s preconditioner, once per grid."""
    unit = np.eye(1, grid.size).ravel()  # e_0, so op @ unit is column 0 of op

    def symbol(op: sparse.csr_matrix) -> np.ndarray:
        return np.fft.rfft2((op @ unit).reshape(grid.shape))

    eye_minus_lap = 1.0 - symbol(laplacian_matrix(grid)).real
    wide = sum(symbol(diff_matrix(grid, axis)) ** 2 for axis in range(grid.dim)).real
    return read_only(eye_minus_lap), read_only(wide)


def _solve_krylov(sys: LinearizedSystem, alpha: float) -> tuple[np.ndarray | None, int]:
    """2-D GMRES, preconditioned with P = [[I - L, 0], [-c W, I - L]], c = mean(m)^(1-alpha).

    P is the Jacobian at constant m and u, without the drift and the potential's
    m-derivative.  Its blocks are circulant, so each symbol is the DFT of column 0
    of laplacian_matrix or of diff_matrix D_i, squared in W = sum_i D_i D_i.
    Applying P^-1 takes one rfft2 and one irfft2 of the two stacked components.
    Returns (None, 0) unless the answer is finite and its true relative
    residual is at most KRYLOV_ACCEPT.
    """
    grid = sys.grid
    eye_minus_lap, wide = _krylov_symbols(grid)
    c = float(np.mean(sys.base_state.m.values)) ** (1.0 - alpha)

    def apply_inverse(r: np.ndarray) -> np.ndarray:
        x = np.fft.rfft2(r.reshape((2, *grid.shape)))
        x[0] /= eye_minus_lap
        x[1] = (x[1] + c * wide * x[0]) / eye_minus_lap
        return np.fft.irfft2(x, s=grid.shape).ravel()

    precond = LinearOperator(sys.matrix.shape, matvec=apply_inverse, dtype=np.float64)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    delta, info = gmres(
        sys.matrix, sys.rhs, rtol=KRYLOV_RTOL, restart=KRYLOV_RESTART,
        maxiter=KRYLOV_MAX_RESTARTS, M=precond, callback=count, callback_type="pr_norm",
    )
    if info != 0 or not np.all(np.isfinite(delta)):
        return None, 0
    if np.linalg.norm(sys.matrix @ delta - sys.rhs) > KRYLOV_ACCEPT * np.linalg.norm(sys.rhs):
        return None, 0
    return delta, iterations


def _solve_band(sys: LinearizedSystem) -> np.ndarray | None:
    """Banded LU (LAPACK gbsv) in `_band_layout` order; None off its structure, on a zero pivot or non-finite x."""
    order, inverse, kl, ku, slots = _band_layout(sys.grid)
    if sys.matrix.nnz != slots.size:
        return None
    band = np.zeros((order.size, 2 * kl + ku + 1))
    band.ravel()[slots] = sys.matrix.data
    _, _, x, info = dgbsv(kl, ku, band.T, sys.rhs[order, None], overwrite_ab=True, overwrite_b=True)
    return x[inverse, 0] if info == 0 and np.all(np.isfinite(x)) else None


def _solve_linear(sys: LinearizedSystem, alpha: float) -> tuple[np.ndarray, str, int]:
    """Solve the Newton system; returns (delta, path, Krylov iterations).

    2-D tries `_solve_krylov` first, 1-D `_solve_band` ("band").  The direct
    sparse solve is the fallback of both; on a (near-)singular factorization it
    retries with a mean-value constraint appended on the v block, least squares
    ("pinned").
    """
    if sys.grid.dim == 2:
        delta, iterations = _solve_krylov(sys, alpha)
        if delta is not None:
            return delta, "krylov", iterations
    else:
        delta = _solve_band(sys)
        if delta is not None:
            return delta, "band", 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            delta = spsolve(sys.matrix, sys.rhs)
        except (MatrixRankWarning, RuntimeError):
            delta = None
    if delta is not None and np.all(np.isfinite(delta)):
        return delta, "direct", 0
    return _solve_pinned(sys.matrix, sys.rhs, sys.grid.size), "pinned", 0


def _solve_pinned(matrix: sparse.csr_matrix, rhs: np.ndarray, n: int) -> np.ndarray:
    row = sparse.csr_matrix(
        (np.full(n, 1.0 / n), (np.zeros(n, dtype=int), np.arange(n))), shape=(1, 2 * n)
    )
    aug = sparse.vstack([matrix, row]).tocsr()
    aug_rhs = np.concatenate([rhs, [0.0]])
    delta = lsqr(aug, aug_rhs, atol=1e-14, btol=1e-14, iter_lim=20 * n)[0]
    if not np.all(np.isfinite(delta)):
        raise LinearSolveFailure("linear solve produced non-finite values")
    return delta


def newton_solve(
    spec: ProblemSpec,
    lam: float,
    s0: State,
    opts: NewtonOptions | None = None,
    sources: tuple[Field, Field] | None = None,
) -> tuple[State, NewtonReport]:
    """Damped Newton on F(lam, .) from s0 (m > 0 required) down to the sup-norm tolerance."""
    opts = opts or NewtonOptions()
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

        sys = assemble_jacobian(spec, lam, s, sources, res)
        try:
            delta, path, krylov_its = _solve_linear(sys, spec.alpha)
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


def continuation_solve(
    spec: ProblemSpec,
    opts: NewtonOptions | None = None,
    step_opts: StepOptions | None = None,
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
    opts = opts or NewtonOptions()
    step_opts = step_opts or StepOptions()
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
    opts: NewtonOptions | None = None,
    step_opts: StepOptions | None = None,
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
