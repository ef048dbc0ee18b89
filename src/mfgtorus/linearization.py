"""Discrete Jacobian of the homotopy map and its sign-definiteness probe.

The Jacobian differentiates the *discrete* residual (all nonlinearity is
pointwise, so differentiate-then-discretize and discretize-then-differentiate
coincide term by term).  That makes Newton quadratically convergent and the
finite-difference consistency check exact in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import NonPositiveDensity
from .grid import Field, GridSpec, diff_matrix, gradient_arrays, laplacian_matrix
from .problem import ProblemSpec, State, _drift_arrays, potential_term_dm, residual


@dataclass(frozen=True)
class LinearizedSystem:
    """Sparse 2N x 2N block operator [[A_vv, A_vf], [A_fv, A_ff]] on stacked (v, f).

    `rhs` is the negated residual at the base state, i.e. the Newton right-hand side.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    base_state: State
    lam: float

    @property
    def grid(self) -> GridSpec:
        return self.base_state.grid


def assemble_jacobian(
    spec: ProblemSpec,
    lam: float,
    s: State,
    sources: tuple[Field, Field] | None = None,
) -> LinearizedSystem:
    """Assemble the linearization of `residual` at (lam, s).

    Row block 1:  v - lap(v) + (Du.Dv)/m^a - a |Du|^2 f/(2 m^(a+1)) + lam b.Dv
                  - d/dm[potential_term] f
    Row block 2:  f - lap(f) - div(m^(1-a) Dv) - (1-a) div(m^(-a) f Du) - lam div(b f)

    Every differential term reuses the stencils of `residual` exactly.
    """
    grid = spec.grid
    m = s.m.values
    if np.min(m) <= 0.0:
        raise NonPositiveDensity("assemble_jacobian needs m > 0")
    alpha = spec.alpha

    du = [g.ravel() for g in gradient_arrays(s.u)]
    du_sq = sum(d * d for d in du)
    bvals = [b.ravel() for b in _drift_arrays(spec.drift, grid)]

    eye = sparse.identity(grid.size, format="csr")
    lap = laplacian_matrix(grid)

    a_vv = eye - lap
    for ax in range(grid.dim):
        coef = du[ax] / m**alpha + lam * bvals[ax]
        a_vv = a_vv + sparse.diags(coef) @ diff_matrix(grid, ax)

    pot_dm = potential_term_dm(spec, lam, s.m.reshaped()).ravel()
    a_vf = sparse.diags(-alpha * du_sq / (2.0 * m ** (alpha + 1.0)) - pot_dm)

    a_fv = None
    a_ff = eye - lap
    m_flux = sparse.diags(m ** (1.0 - alpha))
    for ax in range(grid.dim):
        d = diff_matrix(grid, ax)
        term = d @ m_flux @ d
        a_fv = term if a_fv is None else a_fv + term
        a_ff = a_ff - (1.0 - alpha) * d @ sparse.diags(m**-alpha * du[ax]) - lam * d @ sparse.diags(bvals[ax])
    a_fv = -a_fv

    mat = sparse.bmat([[a_vv, a_vf], [a_fv, a_ff]], format="csr")
    r1, r2 = residual(spec, lam, s, sources)
    rhs = -np.concatenate([r1.values, r2.values])
    return LinearizedSystem(matrix=mat, rhs=rhs, base_state=s, lam=lam)


def rotate_pair(w: tuple[Field, Field]) -> tuple[Field, Field]:
    """Quarter-turn on stacked pairs: (v, f) -> (f, -v)."""
    v, f = w
    return f, Field(v.grid, -v.values)


def bilinear_form(sys: LinearizedSystem, w1: tuple[Field, Field], w2: tuple[Field, Field]) -> float:
    """h^dim-weighted pairing of the operator applied to w1 against the rotated w2."""
    grid = sys.grid
    x1 = np.concatenate([w1[0].values, w1[1].values])
    r2 = rotate_pair(w2)
    x2 = np.concatenate([r2[0].values, r2[1].values])
    return grid.h**grid.dim * float((sys.matrix @ x1) @ x2)


@dataclass(frozen=True)
class CoercivityReport:
    """Sampled sign-definiteness of w -> B[w, w] on zero-mean-v directions.

    `ratios` holds B[w,w] / (||Dv||_2^2 + ||f||_2^2) per sample; all must be
    strictly negative, and -max_ratio estimates the coercivity constant.
    """

    n_samples: int
    seed: int
    max_ratio: float
    min_ratio: float
    c_estimate: float
    all_negative: bool
    ratios: tuple[float, ...]


def coercivity_check(sys: LinearizedSystem, n_samples: int = 200, seed: int = 0) -> CoercivityReport:
    """Probe B[w, w] against -C (||Dv||^2 + ||f||^2) on seeded random directions.

    v-samples are shifted to zero mean: the constant-v direction is the kernel
    case handled separately (B[(1,0),(1,0)] = 0).
    """
    grid = sys.grid
    if sys.base_state.min_m() <= 0.0:
        raise NonPositiveDensity("coercivity probe needs min(m) > 0 at the base state")
    rng = np.random.default_rng(seed)
    vol = grid.h**grid.dim
    ratios = []
    for _ in range(n_samples):
        v = rng.standard_normal(grid.size)
        v -= v.mean()
        f = rng.standard_normal(grid.size)
        w = (Field(grid, v), Field(grid, f))
        b_ww = bilinear_form(sys, w, w)
        dv_sq = sum(d.ravel() ** 2 for d in gradient_arrays(w[0]))
        denom = vol * (float(np.sum(dv_sq)) + float(np.sum(f * f)))
        ratios.append(b_ww / denom)
    ratios_arr = np.array(ratios)
    max_ratio = float(np.max(ratios_arr))
    return CoercivityReport(
        n_samples=n_samples,
        seed=seed,
        max_ratio=max_ratio,
        min_ratio=float(np.min(ratios_arr)),
        c_estimate=-max_ratio,
        all_negative=bool(np.all(ratios_arr < 0.0)),
        ratios=tuple(float(r) for r in ratios_arr),
    )
