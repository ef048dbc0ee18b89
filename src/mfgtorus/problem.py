"""Problem definition: congestion exponent, coefficient catalog, homotopy residual.

The target system on the unit torus is

    u - lap(u) + |Du|^2 / (2 m^alpha) + b(x).Du = V(x, m)
    m - lap(m) - div(m^(1-alpha) Du) - div(m b)  = 1,      m > 0.

It is embedded in the one-parameter family

    F(lam, u, m) = ( u - lap(u) + |Du|^2/(2 m^alpha) + lam b.Du
                         - lam V_eff(x, m) - (1 - lam) arctan(m),
                     m - lap(m) - div(m^(1-alpha) Du) - lam div(b m) - 1 )

with V_eff = V + epsilon_monotone * arctan(m) (the strict-monotonization of a
merely nondecreasing V).  At lam = 0 the family has the explicit solution
(u, m) = (pi/4, 1), the start of the continuation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonFiniteResidual, NonPositiveDensity
from .grid import (
    Field,
    GridSpec,
    constant_field,
    divergence_arrays,
    gradient_and_laplacian,
    harmonics,
    laplacian_array,
    read_only,
)


@dataclass(frozen=True)
class TrigForm:
    """Constant plus one cos/sin harmonic per axis: c + sum_i A_i cos(2 pi x_i) + B_i sin(2 pi x_i)."""

    const: float = 0.0
    cos_amp: tuple[float, ...] = ()
    sin_amp: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_amp", tuple(float(a) for a in self.cos_amp))
        object.__setattr__(self, "sin_amp", tuple(float(a) for a in self.sin_amp))
        if len(self.cos_amp) != len(self.sin_amp):
            raise ValueError("cos_amp and sin_amp must have the same length")

    @property
    def dim(self) -> int:
        return len(self.cos_amp)

    def value(self, grid: GridSpec):
        out = np.full(grid.shape, self.const)
        for a, b, (cos, sin) in zip(self.cos_amp, self.sin_amp, harmonics(grid)):
            out = out + a * cos + b * sin
        return out

    def deriv(self, grid: GridSpec, axis: int):
        a, b = self.cos_amp[axis], self.sin_amp[axis]
        cos, sin = harmonics(grid)[axis]
        w = 2 * np.pi
        return w * (-a * sin + b * cos)

    def second_deriv(self, grid: GridSpec, axis: int):
        a, b = self.cos_amp[axis], self.sin_amp[axis]
        cos, sin = harmonics(grid)[axis]
        w = 2 * np.pi
        return -w * w * (a * cos + b * sin)

    def sup_bound(self) -> float:
        return abs(self.const) + self.harmonic_sum()

    def harmonic_sum(self) -> float:
        return sum(abs(a) + abs(b) for a, b in zip(self.cos_amp, self.sin_amp))

    def scaled(self, factor: float) -> "TrigForm":
        return TrigForm(
            self.const * factor,
            tuple(a * factor for a in self.cos_amp),
            tuple(b * factor for b in self.sin_amp),
        )

    @staticmethod
    def zero(dim: int) -> "TrigForm":
        return TrigForm(0.0, (0.0,) * dim, (0.0,) * dim)


POTENTIAL_FORMS = ("separable", "saturating")


@dataclass(frozen=True)
class PotentialSpec:
    """Coupling V(x, m): a trig part a(x) plus a bounded nondecreasing m-part.

    separable:  V = a(x) + kappa * arctan(m)
    saturating: V = a(x) + kappa * m / (1 + m)

    Both forms are smooth, globally bounded with bounded derivatives, and
    nondecreasing in m; strictly increasing in m iff kappa > 0.  kappa = 0 (the
    default) gives V = a(x).
    """

    form: str
    a: TrigForm
    kappa: float = 0.0

    def __post_init__(self):
        if self.form not in POTENTIAL_FORMS:
            raise ValueError(f"form must be one of {POTENTIAL_FORMS}, got {self.form!r}")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")

    def value_given_a(self, ax, m, arctan_m):
        """V from the values `ax` of a(x) at the points where m is sampled, and arctan(m) there."""
        if self.form == "separable":
            return ax + self.kappa * arctan_m
        return ax + self.kappa * m / (1.0 + m)

    def dm(self, m):
        """Partial derivative in m; >= 0 on m > 0 for every catalog entry."""
        if self.form == "separable":
            return self.kappa / (1.0 + m * m)
        return self.kappa / (1.0 + m) ** 2

    def sup_bound(self) -> float:
        """Certified bound on sup |V| over the torus and m > 0."""
        if self.form == "separable":
            return self.a.sup_bound() + self.kappa * math.pi / 2
        return self.a.sup_bound() + self.kappa


@dataclass(frozen=True)
class DriftSpec:
    """Reference vector field b(x), one TrigForm per component."""

    components: tuple[TrigForm, ...]

    def sup_bound(self) -> float:
        """Certified bound on sup |b| (Euclidean norm)."""
        return math.sqrt(sum(c.sup_bound() ** 2 for c in self.components))

    def scaled(self, factor: float) -> "DriftSpec":
        return DriftSpec(tuple(c.scaled(factor) for c in self.components))

    @staticmethod
    def zero(dim: int) -> "DriftSpec":
        return DriftSpec(tuple(TrigForm.zero(dim) for _ in range(dim)))


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem data: grid, congestion exponent, coefficients, monotonization strength.

    alpha < 1 is required by the solver; values in [1, 2) are admitted so the
    linearization and the monotonicity diagnostics can be probed on
    manufactured states beyond the solvable range.
    """

    grid: GridSpec
    alpha: float
    potential: PotentialSpec
    drift: DriftSpec
    epsilon_monotone: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2.0:
            raise ValueError(f"alpha must lie in [0, 2), got {self.alpha}")
        if self.epsilon_monotone < 0:
            raise ValueError("epsilon_monotone must be >= 0")
        d = self.grid.dim
        if self.potential.a.dim != d:
            raise ValueError("potential harmonics must match grid dimension")
        if len(self.drift.components) != d or any(c.dim != d for c in self.drift.components):
            raise ValueError("drift components must match grid dimension")

    @property
    def solvable(self) -> bool:
        return self.alpha < 1.0


@dataclass(frozen=True)
class State:
    """A (u, m) pair on a common grid; m is positive at solver-accepted states."""

    u: Field
    m: Field
    _terms: StateTerms | None = field(default=None, init=False, repr=False, compare=False)  # see `_state_terms`

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("u and m must share the grid")

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u.values, self.m.values])

    @staticmethod
    def from_stacked(grid: GridSpec, vec: np.ndarray) -> "State":
        n = grid.size
        return State(Field(grid, vec[:n].copy()), Field(grid, vec[n:].copy()))

    def min_m(self) -> float:
        return float(self.m.values.min())


@lru_cache(maxsize=64)
def _on_grid(form: TrigForm, grid: GridSpec) -> np.ndarray:
    """`form` evaluated at the grid points, once per grid."""
    return read_only(form.value(grid))


def _drift_arrays(drift: DriftSpec, grid: GridSpec) -> tuple[np.ndarray, ...]:
    return tuple(_on_grid(c, grid) for c in drift.components)


def effective_potential(spec: ProblemSpec, grid: GridSpec, m, arctan_m):
    """V_eff = V + epsilon_monotone * arctan(m) on the grid, the lam = 1 coupling; arctan_m is arctan(m)."""
    v = spec.potential.value_given_a(_on_grid(spec.potential.a, grid), m, arctan_m)
    return v + spec.epsilon_monotone * arctan_m


def potential_term_dm(spec: ProblemSpec, lam: float, m: np.ndarray) -> np.ndarray:
    """m-derivative of the potential term lam * V_eff + (1 - lam) * arctan(m) of `residual`."""
    arctan_dm = 1.0 / (1.0 + m * m)
    v_eff_dm = spec.potential.dm(m) + spec.epsilon_monotone * arctan_dm
    return lam * v_eff_dm + (1.0 - lam) * arctan_dm


# The lam-free terms of F at one state under `spec`: Du, Lu, |Du|^2, m^alpha, m^(1-alpha), arctan(m), V_eff,
# b.Du, div(m^(1-alpha) Du), div(b m), and the partial sums u - Lu + |Du|^2/(2 m^alpha) and m - Lm - div(...)
StateTerms = namedtuple("StateTerms", "spec du lap_u du_sq m_alpha m_flux arctan_m v_eff b_dot_du flux_div div_bm "
                                      "u_part m_part")


def _terms_arrays(spec: ProblemSpec, u: np.ndarray, m: np.ndarray) -> StateTerms:
    """The `StateTerms` of (u, m), arrays of grid shape of any float or complex dtype: the shifted copies of
    u feed both its gradient and its Laplacian, and arctan(m) is evaluated once."""
    grid = spec.grid
    du, lap_u = gradient_and_laplacian(u, grid)
    du_sq = sum(d * d for d in du)
    bvals = _drift_arrays(spec.drift, grid)
    arctan_m = np.arctan(m)
    m_alpha, m_flux = m**spec.alpha, m ** (1.0 - spec.alpha)
    flux_div = divergence_arrays([m_flux * d for d in du], grid)
    return StateTerms(
        spec, tuple(du), lap_u, du_sq, m_alpha, m_flux, arctan_m, effective_potential(spec, grid, m, arctan_m),
        sum(b * d for b, d in zip(bvals, du)), flux_div, divergence_arrays([b * m for b in bvals], grid),
        u - lap_u + du_sq / (2.0 * m_alpha), m - laplacian_array(m, grid) - flux_div,
    )


def _at_lambda(t: StateTerms, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Both components of F(lam, u, m) from the terms of (u, m), each sum in the order of the module docstring."""
    return t.u_part + lam * t.b_dot_du - (lam * t.v_eff + (1.0 - lam) * t.arctan_m), t.m_part - lam * t.div_bm - 1.0


def _state_terms(spec: ProblemSpec, s: State) -> StateTerms:
    """The terms of s under spec (m > 0 required), flagged read-only and kept with s, tagged with the spec
    object: a call with any other spec object, even an equal one, computes them again."""
    t = s._terms
    if t is None or t.spec is not spec:
        m = s.m.reshaped()
        if m.min() <= 0.0:
            raise NonPositiveDensity(f"min(m) = {m.min():g} <= 0 in residual")
        with np.errstate(all="ignore"):  # as in `residual`
            t = _terms_arrays(spec, s.u.reshaped(), m)
        for a in (*t.du, *t[2:]):
            read_only(a)
        object.__setattr__(s, "_terms", t)
    return t


def residual(
    spec: ProblemSpec,
    lam: float,
    s: State,
    sources: tuple[Field, Field] | None = None,
) -> tuple[Field, Field]:
    """Both components of F(lam, u, m); zero at lam=1, eps=0 certifies a discrete solution.

    The lam-free terms of s are kept with it (`_state_terms`): its residual at another lam,
    its Jacobian and its certificates reuse them.  `sources` subtracts manufactured right-hand
    sides (verification harness).  Raises NonPositiveDensity when min(m) <= 0: the caller must
    damp its step; NonFiniteResidual when a term overflows.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    with np.errstate(all="ignore"):  # an overflow is reported by _finite_pair, not warned about
        r1, r2 = _at_lambda(_state_terms(spec, s), lam)
    if sources is not None:
        r1 = r1 - sources[0].reshaped()
        r2 = r2 - sources[1].reshaped()
    return _finite_pair(spec.grid, r1, r2, "the residual at lambda = %g", lam)


def _finite_pair(grid: GridSpec, r1: np.ndarray, r2: np.ndarray, what: str, *args) -> tuple[Field, Field]:
    """(Field(grid, r1), Field(grid, r2)); NonFiniteResidual names `what % args` if either holds inf or NaN."""
    try:
        return Field(grid, r1), Field(grid, r2)
    except ValueError as err:  # of the grid's size, a Field rejects only non-finite values
        raise NonFiniteResidual(f"{what % args} is not finite") from err


def exact_initial(spec: ProblemSpec) -> State:
    """The lam = 0 solution (u, m) = (pi/4, 1): arctan(1) = pi/4 and the m-equation is 1 = 1."""
    return State(constant_field(spec.grid, math.pi / 4), constant_field(spec.grid, 1.0))

