"""Discrete Jacobian of the homotopy map and its sign-definiteness probe.

The Jacobian differentiates the *discrete* residual (all nonlinearity is
pointwise, so differentiate-then-discretize and discretize-then-differentiate
coincide term by term).  That makes Newton quadratically convergent and the
finite-difference consistency check exact in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .errors import NonPositiveDensity
from .grid import Field, GridSpec, diff_matrix, gradient_arrays, laplacian_matrix, read_only
from .problem import ProblemSpec, State, _drift_arrays, potential_term_dm, residual


@dataclass(frozen=True)
class LinearizedSystem:
    """Sparse 2N x 2N block operator [[A_vv, A_vf], [A_fv, A_ff]] on stacked (v, f).

    `rhs` is the negated residual at the base state, i.e. the Newton right-hand side.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    base_state: State

    @property
    def grid(self) -> GridSpec:
        return self.base_state.grid


@dataclass(frozen=True)
class _JacobianPattern:
    """The Jacobian's CSR structure on one grid, the CSR slot of each term, and the grid's constant terms.

    Per axis, `rows` gathers the A_vv coefficient for each nonzero of the
    difference matrix D, and in each product d_ij m_j d_jk of D diag(m^(1-a)) D
    `first` picks the nonzero d_ij and `second_values` holds d_jk; `partial`
    sums the products per axis before the axes are added, as the matrix products
    did.  `eye_minus_lap` holds the values of I and of -L, the terms of both
    diagonal blocks that depend on the grid alone.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    rows: tuple[np.ndarray, ...]
    first: tuple[np.ndarray, ...]
    second_values: tuple[np.ndarray, ...]
    partial: np.ndarray
    n_partial: int
    eye_minus_lap: tuple[np.ndarray, np.ndarray]


def _coo_rows(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _slots(structure: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Index into the CSR arrays of `structure` of each (row, col) entry."""
    positions = sparse.csr_matrix(
        (np.arange(structure.nnz, dtype=np.float64), structure.indices, structure.indptr),
        shape=structure.shape,
    )
    return np.asarray(positions[rows, cols], dtype=np.int32).ravel()


@lru_cache(maxsize=64)
def _jacobian_pattern(grid: GridSpec) -> _JacobianPattern:
    """Term positions of `assemble_jacobian`, from the stencil matrices of the grid."""
    n = grid.size
    node = np.arange(n)
    eye = sparse.identity(n, format="csr")
    lap = laplacian_matrix(grid)
    diffs = [diff_matrix(grid, ax) for ax in range(grid.dim)]
    # absolute values, so that no position cancels out of the structure
    wide = [abs(d) @ abs(d) for d in diffs]
    for w in wide:
        w.sort_indices()
    local = sum((abs(d) for d in diffs), abs(eye) + abs(lap))
    structure = sparse.bmat([[local, eye], [sum(wide[1:], wide[0]), local]], format="csr")
    structure.sort_indices()

    rows, first, second_values, partial, vv, fv, ff = [], [], [], [], [], [], []
    offset = 0
    for d, w in zip(diffs, wide):
        d_rows = _coo_rows(d.indptr)
        rows.append(d_rows.astype(np.int32))
        vv.append((d_rows, d.indices))
        ff += [(d_rows + n, d.indices + n)] * 2  # (1-a) D diag(w) and lam D diag(b)
        # nonzero jj = (i, j) of D meets each nonzero kk of row j
        per_row = np.diff(d.indptr)[d.indices]
        jj = np.repeat(np.arange(d.nnz), per_row)
        kk = np.repeat(d.indptr[d.indices] - np.cumsum(per_row) + per_row, per_row) + np.arange(jj.size)
        first.append(jj.astype(np.int32))
        second_values.append(read_only(d.data[kk]))
        partial.append(_slots(w, d_rows[jj], d.indices[kk]) + offset)
        offset += w.nnz
        fv.append((_coo_rows(w.indptr) + n, w.indices))

    eye_minus_lap = [(node, node), (_coo_rows(lap.indptr), lap.indices)]
    terms = eye_minus_lap + vv + [(node, node + n)] + fv + [(r + n, c + n) for r, c in eye_minus_lap] + ff
    return _JacobianPattern(  # every matrix the fill returns shares indptr and indices
        indptr=read_only(structure.indptr),
        indices=read_only(structure.indices),
        slots=np.concatenate([_slots(structure, r, c) for r, c in terms]),
        rows=tuple(rows),
        first=tuple(first),
        second_values=tuple(second_values),
        partial=np.concatenate(partial),
        n_partial=offset,
        eye_minus_lap=(read_only(np.ones(n)), read_only(-lap.data)),
    )


@lru_cache(maxsize=64)
def _band_layout(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
    """(order, inverse, kl, ku, slots): the 1-D Jacobian as a band with no periodic corner entries.

    The ring of nodes is folded as 0, n-1, 1, n-2, ..., with v_i and f_i of each node
    adjacent: unknown k of the band is unknown `order[k]` of the stacked (v, f), and
    `inverse` maps back.  kl/ku are the widths the pattern needs, `slots` the `gbsv` band index of each CSR slot.
    """
    n = grid.n
    node = np.arange(n)
    order = (np.column_stack([node, n - 1 - node]).ravel()[:n, None] + [0, n]).ravel()
    inverse = np.argsort(order)
    pattern = _jacobian_pattern(grid)
    offsets = inverse[_coo_rows(pattern.indptr)] - inverse[pattern.indices]
    kl, ku = int(offsets.max()), -int(offsets.min())
    slots = kl + ku + offsets + inverse[pattern.indices] * (2 * kl + ku + 1)
    return read_only(order), read_only(inverse), kl, ku, read_only(slots)


def assemble_jacobian(
    spec: ProblemSpec,
    lam: float,
    s: State,
    sources: tuple[Field, Field] | None = None,
    res: tuple[Field, Field] | None = None,
) -> LinearizedSystem:
    """Assemble the linearization of `residual` at (lam, s).

    Row block 1:  v - lap(v) + (Du.Dv)/m^a - a |Du|^2 f/(2 m^(a+1)) + lam b.Dv
                  - d/dm[lam V_eff + (1-lam) arctan(m)] f
    Row block 2:  f - lap(f) - div(m^(1-a) Dv) - (1-a) div(m^(-a) f Du) - lam div(b f)

    Every differential term reuses the stencils of `residual` exactly.  The
    values are summed with `np.bincount` into the structure `_jacobian_pattern`
    builds once per grid, term by term in the order of the expression.  Exact
    zeros stay in it, so every matrix on a grid has that one structure.  `res`, the
    residual at (lam, s) when the caller has it, gives the right-hand side; else it is evaluated.
    """
    grid = spec.grid
    m = s.m.values
    if m.min() <= 0.0:
        raise NonPositiveDensity("assemble_jacobian needs m > 0")
    alpha = spec.alpha
    pattern = _jacobian_pattern(grid)

    du = [g.ravel() for g in gradient_arrays(s.u)]
    du_sq = sum(d * d for d in du)
    bvals = [b.ravel() for b in _drift_arrays(spec.drift, grid)]
    m_alpha, m_neg_alpha, m_flux = m**alpha, m**-alpha, m ** (1.0 - alpha)
    pot_dm = potential_term_dm(spec, lam, s.m.reshaped()).ravel()

    # A_vv: I - L + sum_i diag(c_i) D_i;  A_ff: I - L - sum_i ((1-a) D_i diag(w_i) + lam D_i diag(b_i))
    vv, ff, products = [], [], []
    for ax in range(grid.dim):
        d = diff_matrix(grid, ax)
        coef = du[ax] / m_alpha + lam * bvals[ax]
        vv.append(coef[pattern.rows[ax]] * d.data)
        ff.append(-(((1.0 - alpha) * d.data) * (m_neg_alpha * du[ax])[d.indices]))
        ff.append(-((lam * d.data) * bvals[ax][d.indices]))
        products.append((d.data * m_flux[d.indices])[pattern.first[ax]] * pattern.second_values[ax])
    # A_fv: -sum_i D_i diag(m^(1-a)) D_i;  A_vf: diagonal
    fv = np.bincount(pattern.partial, np.concatenate(products), minlength=pattern.n_partial)
    vf = -alpha * du_sq / (2.0 * m ** (alpha + 1.0)) - pot_dm

    weights = np.concatenate([*pattern.eye_minus_lap, *vv, vf, -fv, *pattern.eye_minus_lap, *ff])
    data = np.bincount(pattern.slots, weights, minlength=pattern.indices.size)
    mat = sparse.csr_matrix((data, pattern.indices, pattern.indptr), shape=(2 * grid.size, 2 * grid.size))

    r1, r2 = res if res is not None else residual(spec, lam, s, sources)
    rhs = -np.concatenate([r1.values, r2.values])
    return LinearizedSystem(matrix=mat, rhs=rhs, base_state=s)


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

    max_ratio: float
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
        max_ratio=max_ratio,
        c_estimate=-max_ratio,
        all_negative=bool(np.all(ratios_arr < 0.0)),
        ratios=tuple(float(r) for r in ratios_arr),
    )
