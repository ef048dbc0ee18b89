"""Discrete Jacobian of the homotopy map, its finite-difference check and its sign-definiteness probe.

The Jacobian differentiates the *discrete* residual (all nonlinearity is
pointwise, so differentiate-then-discretize and discretize-then-differentiate
coincide term by term).  That makes Newton quadratically convergent and the
finite-difference consistency check exact in the limit.  The assembly reuses the
state's cached residual terms and keeps its values in the pattern's order: the 1-D
band solve scatters them into band storage, and a CSR matrix is built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sparse

from .errors import NonPositiveDensity
from .grid import Field, GridSpec, _diff, _second_diff, _shifted, gradient_arrays, read_only
from .problem import ProblemSpec, State, _drift_arrays, _state_terms, potential_term_dm, residual

FD_TOLERANCE = 1e-6  # largest relative J.w error `fd_max_error` may report for a correct Jacobian
FD_EPS = 1e-6  # the step of `fd_max_error`'s central differences


@dataclass(frozen=True)
class LinearizedSystem:
    """Sparse 2N x 2N block operator [[A_vv, A_vf], [A_fv, A_ff]] on stacked (v, f).

    `fill` lists its values in `_jacobian_pattern`'s order; `matrix` is built from it on first use.
    """

    fill: np.ndarray
    base_state: State

    @property
    def grid(self) -> GridSpec:
        return self.base_state.grid

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        pattern, size = _jacobian_pattern(self.grid), 2 * self.grid.size
        return sparse.csr_matrix((self.fill[pattern.order], pattern.indices, pattern.indptr), shape=(size, size))


@dataclass(frozen=True)
class _JacobianPattern:
    """The Jacobian's CSR structure on one grid and where the fill's values go in it.

    The fill lists its values block by block, one grid's worth per stencil
    offset, in the order `_jacobian_pattern` lists the (row, column) pairs;
    `order` puts that list into CSR order.
    """

    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray


@lru_cache(maxsize=64)
def _jacobian_pattern(grid: GridSpec) -> _JacobianPattern:
    """The positions `assemble_jacobian` fills: 2d + 2 in each v row, 4d + 2 in each f row."""
    n = grid.size
    node = np.arange(n)
    shifts = []  # per axis, the flat index of each node's neighbours at offsets +1, -1, +2 and -2
    for ax in range(grid.dim):
        nxt, prev = (a.ravel() for a in _shifted(node.reshape(grid.shape), ax))
        shifts.append((nxt, prev, nxt[nxt], prev[prev]))
    # v rows: A_vv at 0 and +-1, A_vf on the diagonal; f rows: A_fv at 0 and +-2, A_ff at 0 and +-1
    v_cols = [node, *(c for sh in shifts for c in sh[:2]), node + n]
    f_cols = [node, *(c for sh in shifts for c in sh[2:]), node + n, *(c + n for sh in shifts for c in sh[:2])]
    rows = np.concatenate([np.tile(node, len(v_cols)), np.tile(node + n, len(f_cols))])
    cols = np.concatenate(v_cols + f_cols)
    order = np.lexsort((cols, rows))
    return _JacobianPattern(
        indptr=read_only(np.searchsorted(rows[order], np.arange(2 * n + 1)).astype(np.int32)),
        indices=read_only(cols[order].astype(np.int32)),
        order=read_only(order),
    )


@lru_cache(maxsize=64)
def _band_layout(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
    """(order, inverse, kl, ku, slots): the 1-D Jacobian as a band with no periodic corner entries.

    The ring of nodes is folded as 0, n-1, 1, n-2, ..., with v_i and f_i of each node
    adjacent: unknown k of the band is unknown `order[k]` of the stacked (v, f), and
    `inverse` maps back.  kl/ku are the widths the pattern needs, and `slots` the `gbsv` band index of each
    value of a `LinearizedSystem.fill`: the pattern's `order` is composed in, so a fill scatters in one step.
    """
    n = grid.n
    node = np.arange(n)
    order = (np.column_stack([node, n - 1 - node]).ravel()[:n, None] + [0, n]).ravel()
    inverse = np.argsort(order)
    pattern = _jacobian_pattern(grid)
    offsets = inverse[np.repeat(np.arange(2 * n), np.diff(pattern.indptr))] - inverse[pattern.indices]
    kl, ku = int(offsets.max()), -int(offsets.min())
    slots = kl + ku + offsets + inverse[pattern.indices] * (2 * kl + ku + 1)
    return read_only(order), read_only(inverse), kl, ku, read_only(slots[np.argsort(pattern.order)])


def assemble_jacobian(spec: ProblemSpec, lam: float, s: State) -> LinearizedSystem:
    """Assemble the linearization of `residual` at (lam, s).

    Row block 1:  v - lap(v) + (Du.Dv)/m^a - a |Du|^2 f/(2 m^(a+1)) + lam b.Dv
                  - d/dm[lam V_eff + (1-lam) arctan(m)] f
    Row block 2:  f - lap(f) - div(m^(1-a) Dv) - (1-a) div(m^(-a) f Du) - lam div(b f)

    Every differential term reuses the stencils of `residual` exactly, and Du,
    |Du|^2, m^a and m^(1-a) are the state's cached residual terms.  Each block
    is one grid-shaped array per stencil offset, a pointwise product of state
    arrays shifted by `residual`'s own `_shifted`; their concatenation, flattened,
    is the system's `fill`, which the cached `_jacobian_pattern` permutes into CSR
    order.  A slot with several terms adds them in the order of the expression.
    Exact zeros stay in the structure, so every matrix on a grid has that one
    structure.  MMS sources are constant in the unknowns, so they do not enter.
    """
    grid = spec.grid
    m = s.m.reshaped()
    if m.min() <= 0.0:
        raise NonPositiveDensity("assemble_jacobian needs m > 0")
    alpha = spec.alpha
    terms = _state_terms(spec, s)
    m_neg_alpha = m**-alpha
    pot_dm = potential_term_dm(spec, lam, m)

    # the stencils' weights, each the stencil of a unit value at one node: D's on the next node, L's on a
    # neighbour and on the node itself
    half = _diff(0.0, 0, grid.h, (1.0, 0.0))
    lap_side = _second_diff(0.0, 0, grid.h, (1.0, 0.0))
    diag = np.full(grid.shape, 1.0 - grid.dim * _second_diff(1.0, 0, grid.h, (0.0, 0.0)))

    # per axis, d = +-half is D's weight on the neighbour j at +-1:
    # A_vv = I - L + sum_i diag(c_i) D_i;  A_ff = I - L - sum_i ((1-a) D_i diag(m^-a Du_i) + lam D_i diag(b_i));
    # A_fv = -sum_i D_i diag(m^(1-a)) D_i: the path through j gives (half m_j) half at +-2 and minus that at 0
    vv, fv, ff = [], [], []
    fv_diag = 0.0
    for ax, (du, b) in enumerate(zip(terms.du, _drift_arrays(spec.drift, grid))):
        coef = du / terms.m_alpha + lam * b
        flux = [(half * m_j) * half for m_j in _shifted(terms.m_flux, ax)]
        fv_diag = fv_diag + (flux[0] + flux[1])
        fv += [-p for p in flux]
        for w_j, b_j, d in zip(_shifted(m_neg_alpha * du, ax), _shifted(b, ax), (half, -half)):
            vv.append(-lap_side + coef * d)
            ff.append((-lap_side - ((1.0 - alpha) * d) * w_j) - (lam * d) * b_j)
    vf = -alpha * terms.du_sq / (2.0 * m ** (alpha + 1.0)) - pot_dm + 0.0  # an exact zero stored as +0.0

    # joined along axis 0 and flattened once: the flat order of `np.concatenate(..., axis=None)` at less cost
    return LinearizedSystem(np.concatenate([diag, *vv, vf, fv_diag, *fv, diag, *ff]).ravel(), s)


def fd_max_error(spec: ProblemSpec, lam: float, sys: LinearizedSystem, rng, n_dirs=20) -> float:
    """Largest relative gap of J.w from the central difference of `residual` at sys's base state, n_dirs normal w."""
    base = sys.base_state.stacked()
    worst = 0.0
    for _ in range(n_dirs):
        w = rng.standard_normal(2 * spec.grid.size)
        sp = State.from_stacked(spec.grid, base + FD_EPS * w)
        sm = State.from_stacked(spec.grid, base - FD_EPS * w)
        rp = np.concatenate([f.values for f in residual(spec, lam, sp)])
        rm = np.concatenate([f.values for f in residual(spec, lam, sm)])
        fd = (rp - rm) / (2.0 * FD_EPS)
        jw = sys.matrix @ w
        worst = max(worst, float(np.max(np.abs(jw - fd)) / np.max(np.abs(jw))))
    return worst


def bilinear_form(sys: LinearizedSystem, w1: tuple[Field, Field], w2: tuple[Field, Field]) -> float:
    """h^dim-weighted pairing of the operator applied to w1 against w2 turned by (v, f) -> (f, -v)."""
    grid = sys.grid
    x1 = np.concatenate([w1[0].values, w1[1].values])
    x2 = np.concatenate([w2[1].values, -w2[0].values])
    return grid.h**grid.dim * float((sys.matrix @ x1) @ x2)


def coercivity_check(sys: LinearizedSystem, n_samples: int = 200, seed: int = 0) -> float:
    """Largest B[w, w] / (||Dv||_2^2 + ||f||_2^2) over seeded random directions w = (v, f).

    Coercivity holds where it is strictly negative, and minus it estimates the
    constant C in B[w, w] <= -C (||Dv||^2 + ||f||^2).  v-samples are shifted to
    zero mean: the constant-v direction is the kernel case handled separately
    (B[(1,0),(1,0)] = 0).  A NaN sample makes the result NaN.
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
    return float(np.max(ratios))
