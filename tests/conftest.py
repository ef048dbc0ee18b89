import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import LinearOperator, gmres

from mfgtorus import (
    DriftSpec,
    GridSpec,
    PotentialSpec,
    ProblemSpec,
    TrigForm,
    continuation_solve,
    residual,
)
from mfgtorus.grid import _diff, _second_diff
from mfgtorus.linearization import LinearizedSystem, _jacobian_pattern

# The stencils as sparse matrices on flat fields (row-major, axis 0 slowest): the
# reference that the stencil arrays, the Jacobian and the preconditioner are tested against.


def _stencil_matrix(stencil, grid: GridSpec) -> sparse.csr_matrix:
    """The 1-D periodic matrix of `stencil`: column j is the stencil applied to unit vector j.

    The stencil is translation invariant, so column j is column 0 shifted by j.
    """
    n = grid.n
    unit = np.zeros(n)
    unit[0] = 1.0
    column = stencil(unit, 0, grid.h)
    offsets = np.flatnonzero(column)
    cols = np.tile(np.arange(n), offsets.size)
    rows = (np.repeat(offsets, n) + cols) % n
    return sparse.csr_matrix((np.repeat(column[offsets], n), (rows, cols)), shape=(n, n))


@lru_cache(maxsize=64)
def diff_matrix(grid: GridSpec, axis: int) -> sparse.csr_matrix:
    """Centered difference along `axis` as a sparse matrix on flat fields."""
    d1 = _stencil_matrix(_diff, grid)
    if grid.dim == 1:
        return d1
    eye = sparse.identity(grid.n, format="csr")
    if axis == 0:
        return sparse.kron(d1, eye, format="csr")
    return sparse.kron(eye, d1, format="csr")


@lru_cache(maxsize=64)
def laplacian_matrix(grid: GridSpec) -> sparse.csr_matrix:
    """Compact Laplacian as a sparse matrix on flat fields."""
    l1 = _stencil_matrix(_second_diff, grid)
    if grid.dim == 1:
        return l1
    eye = sparse.identity(grid.n, format="csr")
    return (sparse.kron(l1, eye) + sparse.kron(eye, l1)).tocsr()


def system_of(matrix: sparse.spmatrix, base_state) -> LinearizedSystem:
    """The `LinearizedSystem` at base_state whose CSR matrix is `matrix`: its values at the Jacobian
    pattern's positions, in the pattern's order.  `matrix` must vanish off the pattern."""
    pattern = _jacobian_pattern(base_state.grid)
    rows = np.repeat(np.arange(pattern.indptr.size - 1), np.diff(pattern.indptr))
    dense = matrix.toarray()
    fill = np.empty(pattern.indices.size)
    fill[pattern.order] = dense[rows, pattern.indices]
    dense[rows, pattern.indices] = 0.0
    assert not dense.any(), "the matrix has entries off the Jacobian pattern"
    return LinearizedSystem(fill, base_state)


def newton_rhs(spec: ProblemSpec, lam: float, s, sources=None) -> np.ndarray:
    """-F(lam, s) on stacked (v, f), with the MMS sources if given: the right-hand side of a Newton system at s."""
    r1, r2 = residual(spec, lam, s, sources)
    return -np.concatenate([r1.values, r2.values])


def reference_gmres(sys, b: np.ndarray, alpha: float, rtol: float):
    """SciPy's `gmres` at relative tolerance rtol on a 2-D Newton system A x = b with the solver's
    preconditioner and restart settings.

    The reference the in-house Krylov loop is tested against.  Returns (x, info,
    inner iterations, restart cycles): SciPy calls a "pr_norm" callback once per
    inner iteration and an "x" callback once per cycle.
    """
    import mfgtorus.solver as solver

    precond = LinearOperator(sys.matrix.shape, matvec=solver._krylov_preconditioner(sys, alpha))
    settings = dict(rtol=rtol, restart=solver.KRYLOV_RESTART, maxiter=solver.KRYLOV_MAX_RESTARTS, M=precond)
    residuals, iterates = [], []
    x, info = gmres(sys.matrix, b, callback=residuals.append, callback_type="pr_norm", **settings)
    gmres(sys.matrix, b, callback=iterates.append, callback_type="x", **settings)
    return x, info, len(residuals), len(iterates)


SUITE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.9)
SUITE_KAPPAS = (0.5, 1.0)


def suite_problem(alpha: float, kappa: float = 1.0, n: int = 128) -> ProblemSpec:
    """The 1-D reference problem family: a(x) = 0.5 cos(2 pi x), b(x) = 0.3 sin(2 pi x)."""
    pot = PotentialSpec("separable", TrigForm(0.0, (0.5,), (0.0,)), kappa)
    drift = DriftSpec((TrigForm(0.0, (0.0,), (0.3,)),))
    return ProblemSpec(GridSpec(1, n), alpha, pot, drift)


def problem_2d(alpha: float = 0.5, kappa: float = 1.0, n: int = 32) -> ProblemSpec:
    pot = PotentialSpec("separable", TrigForm(0.0, (0.3, 0.0), (0.0, 0.2)), kappa)
    drift = DriftSpec(
        (
            TrigForm(0.0, (0.0, 0.0), (0.2, 0.0)),
            TrigForm(0.0, (0.0, 0.0), (0.0, 0.2)),
        )
    )
    return ProblemSpec(GridSpec(2, n), alpha, pot, drift)


@pytest.fixture(scope="session")
def reference_solution():
    """Converged alpha=0.5, kappa=1 problem at n=128."""
    spec = suite_problem(0.5)
    s, trace = continuation_solve(spec)
    return spec, s, trace


@pytest.fixture(scope="session")
def refined_solutions():
    """Converged alpha=0.5, kappa=1 solutions at n in {64, 128, 256}."""
    out = {}
    for n in (64, 128, 256):
        spec = suite_problem(0.5, n=n)
        s, _ = continuation_solve(spec)
        out[n] = (spec, s)
    return out


@dataclass(frozen=True)
class SuiteRun:
    solutions: dict
    elapsed: float

    def items(self):
        return self.solutions.items()


@pytest.fixture(scope="session")
def suite_solutions():
    """All ten (alpha, kappa) suite problems solved to lambda = 1, with wall time."""
    out = {}
    start = time.perf_counter()
    for a in SUITE_ALPHAS:
        for k in SUITE_KAPPAS:
            spec = suite_problem(a, k)
            s, trace = continuation_solve(spec)
            out[(a, k)] = (spec, s, trace)
    return SuiteRun(out, time.perf_counter() - start)
