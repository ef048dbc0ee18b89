"""Manufactured-solutions harness: known exact pairs with appended sources,
plus the grid-refinement rate measurement.

For trig closed forms every continuum operator has a closed-form value: the
congestion flux divergence expands by the chain rule to
(1-a) m^-a Dm.Du + m^(1-a) lap(u) per axis, all pointwise-evaluable.  The
sources therefore carry no discretization error of their own, and the rate
study measures the scheme alone.

The study starts Newton from Richardson-extrapolated states: for the smooth
exact pair the scheme's error is C h^2 + O(h^4), so the coarser grid's error,
interpolated and scaled by 1/4, predicts the finer grid's (`extrapolated_start`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPositiveDensity
from .grid import Field, GridSpec, interpolate
from .problem import ProblemSpec, State, TrigForm, _drift_arrays, _finite_pair, effective_potential
from .solver import LEVEL_LOG, NewtonOptions, log, newton_solve


@dataclass(frozen=True)
class ManufacturedCase:
    """An exact trig pair (u*, m*) for the lam=1 system of a given ProblemSpec.

    m* must be uniformly positive: its constant term has to exceed the sum of
    its harmonic amplitudes.  m* is not mass-normalized; the sources absorb
    the defect, so the unit-mass diagnostics do not apply to augmented runs.
    """

    spec: ProblemSpec
    u_exact: TrigForm
    m_exact: TrigForm

    def __post_init__(self):
        d = self.spec.grid.dim
        if self.u_exact.dim != d or self.m_exact.dim != d:
            raise ValueError("manufactured forms must match the grid dimension")
        if self.m_exact.const - self.m_exact.harmonic_sum() <= 0.0:
            raise NonPositiveDensity(
                "manufactured m must have constant term exceeding its harmonic amplitudes"
            )

    def sample(self, grid: GridSpec) -> State:
        return State(Field(grid, self.u_exact.value(grid)), Field(grid, self.m_exact.value(grid)))


def mms_source(case: ManufacturedCase, grid: GridSpec) -> tuple[Field, Field]:
    """Evaluate the continuum lam=1 operators on the closed forms, restricted to the grid.

    The returned pair (S1, S2) makes (u*, m*) an exact continuum solution of the
    augmented system F(1, u, m) = (S1, S2).  Raises NonFiniteResidual if a term overflows.
    """
    spec = case.spec
    a = spec.alpha
    dim = grid.dim

    with np.errstate(all="ignore"):  # an overflow is reported by _finite_pair, not warned about
        u = case.u_exact.value(grid)
        m = case.m_exact.value(grid)
        du = [case.u_exact.deriv(grid, ax) for ax in range(dim)]
        ddu = [case.u_exact.second_deriv(grid, ax) for ax in range(dim)]
        dm = [case.m_exact.deriv(grid, ax) for ax in range(dim)]
        ddm = [case.m_exact.second_deriv(grid, ax) for ax in range(dim)]
        lap_u = sum(ddu)
        lap_m = sum(ddm)
        du_sq = sum(d * d for d in du)

        bvals = _drift_arrays(spec.drift, grid)
        db = [spec.drift.components[ax].deriv(grid, ax) for ax in range(dim)]

        v_eff = effective_potential(spec, grid, m, np.arctan(m))
        s1 = u - lap_u + du_sq / (2.0 * m**a) + sum(b * d for b, d in zip(bvals, du)) - v_eff

        # div(m^(1-a) Du) by the chain rule, then div(b m) likewise
        flux_div = sum(
            (1.0 - a) * m**-a * dmi * dui + m ** (1.0 - a) * ddui
            for dmi, dui, ddui in zip(dm, du, ddu)
        )
        drift_div = sum(dbi * m + bi * dmi for dbi, bi, dmi in zip(db, bvals, dm))
        s2 = m - lap_m - flux_div - drift_div - 1.0
    return _finite_pair(grid, s1, s2, "the manufactured source on n = %d", grid.n)


@dataclass(frozen=True)
class RateRow:
    n: int
    error_u: float
    error_m: float
    rate_u: float  # NaN on the coarsest grid or at roundoff
    rate_m: float
    exact: bool  # errors at roundoff, rates meaningless


@dataclass(frozen=True)
class RateTable:
    rows: tuple[RateRow, ...]
    observed_order_u: float
    observed_order_m: float

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid", "error_u", "error_m", "rate_u", "rate_m"])
            for row in self.rows:
                fmt = lambda x: "exact" if row.exact else ("" if math.isnan(x) else f"{x:.17g}")
                writer.writerow(
                    [row.n, f"{row.error_u:.17g}", f"{row.error_m:.17g}", fmt(row.rate_u), fmt(row.rate_m)]
                )


ROUNDOFF_ERROR = 1e-12


def refinement_grids(dim: int, sizes) -> tuple[GridSpec, ...]:
    """The grids of a convergence study: at least 3 sizes, each double the one before.

    Every size also meets GridSpec's own rule, n >= 8.
    """
    if len(sizes) < 3:
        raise ValueError("need at least 3 grids")
    if any(b != 2 * a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("each grid must double the previous one")
    return tuple(GridSpec(dim, n) for n in sizes)


def extrapolated_start(sample: State, coarse: State | None, coarse_sample: State | None) -> State:
    """The Newton start on sample's grid: `sample` plus the coarser grid's error, interpolated, over 4.

    The error `coarse - coarse_sample` is C H^2 + O(H^4), so (h/H)^2 = 1/4 of it predicts the error at
    h = H/2.  `sample` itself on the coarsest grid (no `coarse`) and where the start's m is not positive.
    """
    if coarse is None:
        return sample
    u, m = (f.values + interpolate(Field(c.grid, c.values - e.values), f.grid).values / 4.0
            for f, c, e in zip((sample.u, sample.m), (coarse.u, coarse.m), (coarse_sample.u, coarse_sample.m)))
    return State(Field(sample.grid, u), Field(sample.grid, m)) if m.min() > 0.0 else sample


def convergence_study(
    case: ManufacturedCase,
    grids: list[int],
    opts: NewtonOptions = NewtonOptions(),
) -> RateTable:
    """Solve the augmented lam=1 system on each of the `refinement_grids` and fit the observed order.

    Newton starts on the first grid from the sampled manufactured pair and on
    each finer grid from `extrapolated_start`.  The order is the mean of the
    successive log2 error ratios.
    """
    rows, rates, coarse, coarse_exact = [], [], None, None
    for grid in refinement_grids(case.spec.grid.dim, grids):
        exact = case.sample(grid)
        s, report = newton_solve(replace(case.spec, grid=grid), 1.0, extrapolated_start(exact, coarse, coarse_exact),
                                 opts, sources=mms_source(case, grid))
        log.info(LEVEL_LOG, "mms", grid.n, report.residual_history[0], report.iterations,
                 sum(report.krylov_iterations))
        eu = float(np.max(np.abs(s.u.values - exact.u.values)))
        em = float(np.max(np.abs(s.m.values - exact.m.values)))
        exact_flag = eu < ROUNDOFF_ERROR and em < ROUNDOFF_ERROR
        ru = rm = float("nan")
        if rows and not exact_flag:
            ru = math.log2(rows[-1].error_u / eu) if eu > 0 else float("nan")
            rm = math.log2(rows[-1].error_m / em) if em > 0 else float("nan")
            rates.append((ru, rm))
        rows.append(RateRow(grid.n, eu, em, ru, rm, exact_flag))
        coarse, coarse_exact = s, exact

    order_u, order_m = (float(np.mean(r)) for r in zip(*rates)) if rates else (float("nan"), float("nan"))
    return RateTable(tuple(rows), order_u, order_m)
