"""Numerical verification of the a-priori estimates and integral identities.

Each check turns one piece of the existence/uniqueness analysis into a
computable certificate on a discrete state: sup bounds on u, unit mass and
positivity of m, inverse moments of m against explicit Young-inequality
majorants, two exact-in-the-continuum integral identities (verified at O(h^2)
under refinement), and the convexity-in-theta machinery behind uniqueness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadExponent, MFGError, NonPositiveDensity, NotASolution
from .grid import (
    divergence_arrays,
    gradient_and_laplacian,
    gradient_arrays,
    integral,
    sup_norm,
)
from .problem import ProblemSpec, State, _drift_arrays, effective_potential, residual

SUP_TOL = 1e-8  # roundoff slack on certified sup bounds


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Which certificates run and at which moment exponents; `checks` defaults to every known check.

    `checks` means the same in every command: the per-r checks it leaves out are
    neither recorded in the continuation's snapshots nor printed by `verify`.
    `identity_budget_factor` times h^2 budgets both the `cancellation` and the `identity` check.
    """

    r_values: tuple[float, ...] = (1.0, 2.0, 4.0)
    checks: tuple[str, ...] = ("mass", "positivity", "sup", "moment", "cancellation", "identity")
    identity_budget_factor: float = 50.0

    def __post_init__(self):
        known = DiagnosticsConfig.checks
        if any(c not in known for c in self.checks):
            raise ValueError(f"checks must be among {known}")
        if self.identity_budget_factor <= 0:
            raise ValueError("identity_budget_factor must be positive")


def certified_u_bound(spec: ProblemSpec, lam: float = 1.0) -> float:
    """Sup bound on u from evaluating the u-equation at extrema of u.

    At lam=1 the potential term is V_eff; along the homotopy the convex
    combination with arctan(m) is bounded by max(||V||_inf, pi/2).  The
    monotonization adds at most eps * pi/2.
    """
    v_bound = spec.potential.sup_bound()
    eps_part = spec.epsilon_monotone * math.pi / 2
    if lam == 1.0:
        return v_bound + eps_part
    return max(v_bound, math.pi / 2) + eps_part


def sup_bound_check(spec: ProblemSpec, s: State, lam: float = 1.0) -> tuple[float, float, bool]:
    """(sup |u|, certified bound, pass)."""
    sup_u = sup_norm(s.u)
    bound = certified_u_bound(spec, lam)
    return sup_u, bound, sup_u <= bound + SUP_TOL


def mass_positivity_check(s: State) -> tuple[float, float]:
    """(|integral(m) - 1|, min m).  Mass defect equals the integrated m-equation residual."""
    return abs(integral(s.grid, s.m.values) - 1.0), s.min_m()


def _generic_constant(spec: ProblemSpec, r: float) -> float:
    """Explicit majorant for the generic constant absorbed in the moment estimate.

    Deliberately loose: ||V||_inf + certified ||u||_inf + ||b||_inf^2
    + 1/(r+1-alpha) + 1 dominates every coefficient the estimate hides.
    """
    return (
        spec.potential.sup_bound()
        + certified_u_bound(spec, lam=0.5)
        + spec.drift.sup_bound() ** 2
        + 1.0 / (r + 1.0 - spec.alpha)
        + 1.0
    )


@lru_cache(maxsize=64)
def moment_majorant(spec: ProblemSpec, r: float) -> float:
    """Closed-form bound on integral(m^-(r+1-alpha)) via two Young splittings:

        C1 = (1-a) 4^(r/(1-a)) C^((r+1-a)/(1-a)) / (r (r+1-a))
        C2 = 4^(r-a) C^(r+1-a) (r-a)^(r-a-1) / (r+1-a)^(r+1-a)
        bound = 2 (r+1-a) (C1 + C2)

    Raises MFGError when the bound does not fit in a float.  Cached: it depends on (spec, r) alone.
    """
    a = spec.alpha
    if a >= 1.0:
        raise BadExponent("the moment majorant requires alpha < 1")
    if r <= a:
        raise BadExponent(f"need r > alpha, got r = {r}, alpha = {a}")
    p = r + 1.0 - a
    c = bound = math.inf
    try:
        c = _generic_constant(spec, r)
        c1 = (1.0 - a) * 4.0 ** (r / (1.0 - a)) * c ** (p / (1.0 - a)) / (r * p)
        c2 = 4.0 ** (r - a) * c**p * (r - a) ** (r - a - 1.0) / p**p
        bound = 2.0 * p * (c1 + c2)
    except OverflowError:  # float ** raises where float * returns inf
        pass
    if not math.isfinite(bound):
        raise MFGError(f"the moment majorant overflows at r = {r:g}, alpha = {a:g}, constant C = {c:.6g}")
    return bound


def inverse_moment(spec: ProblemSpec, s: State, r: float) -> tuple[float, float]:
    """(integral(m^-(r+1-alpha)), certified majorant); finite value quantifies m staying away from 0."""
    majorant = moment_majorant(spec, r)  # raises BadExponent unless r > alpha
    m = s.m.values
    if m.min() <= 0.0:
        raise NonPositiveDensity("inverse moment needs m > 0")
    with np.errstate(over="ignore"):
        value = integral(spec.grid, m ** -(r + 1.0 - spec.alpha))
    return _finite("moment", spec, r, value)[0], majorant


def _finite(check: str, spec: ProblemSpec, r: float, *values: float) -> tuple[float, ...]:
    """The values, unless a power of m left the float range and made one of them inf or NaN."""
    if not all(math.isfinite(v) for v in values):
        raise MFGError(f"the {check} check overflows at r = {r:g}, alpha = {spec.alpha:g}")
    return values


def _cancellation_at(spec: ProblemSpec, s: State, du: list[np.ndarray], lap_u: np.ndarray):
    """`cancellation_check` on s as a function of r, given Du and lap(u); the r-free arrays are built once."""
    grid = spec.grid
    a = spec.alpha
    m = s.m.reshaped()
    if m.min() <= 0.0:
        raise NonPositiveDensity("cancellation check needs m > 0")
    m_flux = m ** (1.0 - a)
    flux_div = divergence_arrays([m_flux * d for d in du], grid)

    def at(r: float) -> float:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            term1 = integral(grid, lap_u / (r * m**r))
            term2 = integral(grid, flux_div / ((r + 1.0 - a) * m ** (r + 1.0 - a)))
        return _finite("cancellation", spec, r, term1 - term2)[0]

    return at


def cancellation_check(spec: ProblemSpec, s: State, r: float) -> float:
    """integral(lap(u) / (r m^r)) - integral(div(m^(1-a) Du) / ((r+1-a) m^(r+1-a))).

    Zero in the continuum for any smooth pair with m > 0 (both sides integrate
    by parts to integral(Du.Dm / m^(r+1))); discretely O(h^2).
    """
    if r <= spec.alpha:
        raise BadExponent(f"need r > alpha, got r = {r}, alpha = {spec.alpha}")
    return _cancellation_at(spec, s, *gradient_and_laplacian(s.u.reshaped(), spec.grid))(r)


def _identity_at(spec: ProblemSpec, s: State, tol: float, du: list[np.ndarray]):
    """`moment_identity_check` on s as a function of r, given Du; the residual test and the r-free arrays run once."""
    grid = spec.grid
    a = spec.alpha
    m = s.m.reshaped()
    if m.min() <= 0.0:
        raise NonPositiveDensity("identity check needs m > 0")
    res = sup_norm(*residual(spec, 1.0, s))
    if res > 100.0 * tol:
        raise NotASolution(f"residual sup-norm {res:.3e} exceeds {100 * tol:.1e}")

    u = s.u.reshaped()
    dm = gradient_arrays(s.m)
    du_sq = sum(d * d for d in du)
    dm_sq = sum(d * d for d in dm)
    bvals = _drift_arrays(spec.drift, grid)
    b_dot_du = sum(b * d for b, d in zip(bvals, du))
    div_b = divergence_arrays(list(bvals), grid)
    v_eff = effective_potential(spec, grid, m)

    def at(r: float) -> tuple[float, float, float]:
        p = r + 1.0 - a
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = (
                integral(grid, m**-p) / p
                + integral(grid, du_sq * m ** -(r + a)) / (2.0 * r)
                + integral(grid, dm_sq * m ** -(r + 2.0 - a))
            )
            rhs = (
                integral(grid, (v_eff - u) * m**-r) / r
                - integral(grid, b_dot_du * m**-r) / r
                + integral(grid, m ** -(r - a)) / p
                - integral(grid, div_b * m ** -(r - a)) / (r - a)
            )
        return _finite("identity", spec, r, lhs, rhs, abs(lhs - rhs))

    return at


def moment_identity_check(spec: ProblemSpec, s: State, r: float, tol: float) -> tuple[float, float, float]:
    """Both sides of the rearranged master identity on a lam=1 solution; returns (lhs, rhs, defect).

        lhs = int m^-(r+1-a)/(r+1-a) + int |Du|^2/(2 r m^(r+a)) + int |Dm|^2/m^(r+2-a)
        rhs = int (V_eff - u)/(r m^r) - int b.Du/(r m^r)
              + int m^-(r-a)/(r+1-a) - int div(b) m^-(r-a)/(r-a)

    Only holds on solutions: raises NotASolution above 100x the Newton tolerance `tol`.
    The defect is O(h^2): the discrete chain rule behind the |Dm|^2 term is not
    exact, so the identity is verified by refinement, not equality.
    """
    if r <= spec.alpha:
        raise BadExponent(f"need r > alpha, got r = {r}, alpha = {spec.alpha}")
    return _identity_at(spec, s, tol, gradient_arrays(s.u))(r)


@dataclass(frozen=True)
class MonotonicityGapReport:
    """Pairing of two states against the system's monotone structure.

    lhs is the sign-definite quantity (congestion + flux terms), rhs the
    potential-difference pairing; on two solutions of the same problem they
    coincide and force uniqueness when V is strictly increasing.  The curve
    holds the theta-derivative samples of the interpolation functional with
    their guaranteed lower bounds, and `i1_trapezoid` integrates the curve
    back as a cross-check on lhs.
    """

    lhs: float
    rhs: float
    thetas: tuple[float, ...]
    di_dtheta: tuple[float, ...]
    lower_bounds: tuple[float, ...]
    i1_trapezoid: float


def monotonicity_gap(
    spec: ProblemSpec, s0: State, s1: State, n_theta: int = 11
) -> MonotonicityGapReport:
    """Evaluate the uniqueness pairing for two states and the derivative curve
    along the segment (u_t, m_t) = (1-t) s0 + t s1.

    Each derivative sample is certified against (1 - a/2) int m_t^(1-a) |D(u1-u0)|^2,
    which is nonnegative for alpha in [0, 2].
    """
    # Imported here, not at the top: scipy.integrate adds about 0.35 s and 20 MB
    # to every start of the command line, which never calls this function.
    from scipy.integrate import trapezoid

    grid = spec.grid
    a = spec.alpha
    m0 = s0.m.reshaped()
    m1 = s1.m.reshaped()
    if min(m0.min(), m1.min()) <= 0.0:
        raise NonPositiveDensity("both states need m > 0")
    du0 = gradient_arrays(s0.u)
    du1 = gradient_arrays(s1.u)
    ddiff = [g1 - g0 for g0, g1 in zip(du0, du1)]  # D(u1 - u0)
    ddiff_sq = sum(d * d for d in ddiff)
    du0_sq = sum(d * d for d in du0)
    du1_sq = sum(d * d for d in du1)

    lhs = integral(
        grid, (du1_sq / (2.0 * m1**a) - du0_sq / (2.0 * m0**a)) * (m0 - m1)
    ) + integral(
        grid,
        sum((m0 ** (1.0 - a) * g0 - m1 ** (1.0 - a) * g1) * d for g0, g1, d in zip(du0, du1, ddiff)) * -1.0,
    )
    v0, v1 = (effective_potential(spec, grid, m) for m in (m0, m1))
    rhs = integral(grid, (v1 - v0) * (m0 - m1))

    thetas = np.linspace(0.0, 1.0, n_theta)
    dmi = m1 - m0
    curve = []
    bounds = []
    for t in thetas:
        m_t = m0 + t * dmi
        if m_t.min() <= 0.0:
            raise NonPositiveDensity(f"m_theta touches zero at theta = {t:g}")
        du_t = [(1.0 - t) * g0 + t * g1 for g0, g1 in zip(du0, du1)]
        du_t_dot = sum(g * d for g, d in zip(du_t, ddiff))
        du_t_sq = sum(g * g for g in du_t)
        cross = -a * integral(grid, du_t_dot * dmi * m_t**-a)
        square = 0.5 * a * integral(grid, du_t_sq * dmi * dmi * m_t ** -(1.0 + a))
        main = integral(grid, m_t ** (1.0 - a) * ddiff_sq)
        curve.append(cross + square + main)
        bounds.append((1.0 - 0.5 * a) * main)
    i1 = float(trapezoid(curve, thetas))

    return MonotonicityGapReport(
        lhs=lhs,
        rhs=rhs,
        thetas=tuple(float(t) for t in thetas),
        di_dtheta=tuple(curve),
        lower_bounds=tuple(bounds),
        i1_trapezoid=i1,
    )


@dataclass(frozen=True)
class DiagnosticsSnapshot:
    """Per-state certificate bundle recorded along the continuation."""

    sup_u: float
    sup_bound_V: float
    min_m: float
    mass_defect: float
    inverse_moments: tuple[tuple[float, float, float], ...]  # (r, value, majorant)
    cancellation_residuals: tuple[tuple[float, float], ...]  # (r, value)
    moment_identity_defects: tuple[tuple[float, float], ...]  # (r, defect); lam=1 solutions only


def make_snapshot(
    spec: ProblemSpec, s: State, lam: float, config: DiagnosticsConfig, newton_tol: float
) -> tuple[DiagnosticsSnapshot, list[dict]]:
    """The checks of `config` on one state: the snapshot the continuation records and the rows `verify` prints.

    A row is one verdict {check, r, value, threshold, passed, note}, with r None for
    the scalar checks.  The snapshot's scalar fields are always recorded; the per-r
    checks run at each r > alpha.  What does not depend on r (Du, the r-free arrays,
    the identity's residual test) is computed once.  Off a lam = 1 solution (to 100x
    `newton_tol`) no identity defect is recorded and each identity row fails with the reason.
    """
    checks = config.checks
    budget = config.identity_budget_factor * spec.grid.h**2
    sup_u, bound, sup_ok = sup_bound_check(spec, s, lam)
    mass_defect, min_m = mass_positivity_check(s)
    rows = []

    def row(check, r, value, threshold, passed, note=""):
        rows.append({"check": check, "r": r, "value": float(value), "threshold": float(threshold),
                     "passed": bool(passed), "note": note})

    if "mass" in checks:
        row("mass", None, mass_defect, 10.0 * newton_tol, mass_defect <= 10.0 * newton_tol)
    if "positivity" in checks:
        row("positivity", None, min_m, 0.0, min_m > 0.0)
    if "sup" in checks:
        row("sup", None, sup_u, bound + SUP_TOL, sup_ok)

    r_values = [float(r) for r in config.r_values if r > spec.alpha]
    cancellation = identity = None
    not_a_solution = ""
    if r_values and ("cancellation" in checks or "identity" in checks):
        du, lap_u = gradient_and_laplacian(s.u.reshaped(), spec.grid)
        if "cancellation" in checks:
            cancellation = _cancellation_at(spec, s, du, lap_u)
        if "identity" in checks and lam == 1.0:
            try:
                identity = _identity_at(spec, s, newton_tol, du)
            except NotASolution as err:
                not_a_solution = str(err)
    moments, cancels, identities = [], [], []
    for r in r_values:
        if "moment" in checks:
            value, majorant = inverse_moment(spec, s, r)
            moments.append((r, value, majorant))
            row("moment", r, value, majorant, value <= majorant)
        if cancellation is not None:
            value = cancellation(r)
            cancels.append((r, value))
            row("cancellation", r, abs(value), budget, abs(value) <= budget)
        if identity is not None:
            lhs, _, defect = identity(r)
            identities.append((r, defect))
            scaled = budget * max(1.0, abs(lhs))
            row("identity", r, defect, scaled, defect <= scaled)
        elif not_a_solution:
            row("identity", r, math.inf, 0.0, False, not_a_solution)
    snapshot = DiagnosticsSnapshot(
        sup_u, bound, min_m, mass_defect, tuple(moments), tuple(cancels), tuple(identities)
    )
    return snapshot, rows
