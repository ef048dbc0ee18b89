"""Stationary mean field games with congestion on the periodic unit torus.

Solves on a discrete torus

    u - lap(u) + |Du|^2 / (2 m^alpha) + b(x).Du = V(x, m)
    m - lap(m) - div(m^(1-alpha) Du) - div(m b)  = 1,     m > 0,

by tracking a one-parameter family from its explicit start (pi/4, 1) with a
damped, positivity-preserving Newton method, and verifies the supporting
estimates and integral identities numerically.
"""

from .diagnostics import (
    DiagnosticsSnapshot,
    MonotonicityGapReport,
    cancellation_check,
    inverse_moment,
    make_snapshot,
    mass_positivity_check,
    moment_identity_check,
    monotonicity_gap,
    sup_bound_check,
)
from .errors import (
    BadExponent,
    ConfigError,
    ContinuationStalled,
    LinearSolveFailure,
    MaxItersExceeded,
    MFGError,
    NoDescent,
    NonFiniteResidual,
    NonPositiveDensity,
    NotASolution,
    SolverFailure,
)
from .grid import (
    Field,
    GridSpec,
    constant_field,
    integral,
    load_field,
    save_field,
    sup_norm,
)
from .linearization import (
    LinearizedSystem,
    assemble_jacobian,
    bilinear_form,
    coercivity_check,
)
from .problem import (
    DriftSpec,
    PotentialSpec,
    ProblemSpec,
    State,
    TrigForm,
    exact_initial,
    residual,
)
from .solver import (
    ContinuationTrace,
    NewtonOptions,
    NewtonReport,
    StepOptions,
    continuation_solve,
    newton_solve,
    perturbation_solve,
)
from .verification import ManufacturedCase, RateTable, convergence_study, mms_source

__version__ = "0.1.0"
