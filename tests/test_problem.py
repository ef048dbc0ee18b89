import numpy as np
import pytest

from mfgtorus import (
    DriftSpec,
    Field,
    GridSpec,
    NonFiniteResidual,
    NonPositiveDensity,
    PotentialSpec,
    ProblemSpec,
    State,
    TrigForm,
    constant_field,
    exact_initial,
    integral,
    residual,
    sup_norm,
)
from mfgtorus.grid import _neighbours, divergence_arrays, gradient_arrays, harmonics, laplacian_array, mesh
from mfgtorus.problem import _at_lambda, _drift_arrays, _on_grid, _state_terms, _terms_arrays, effective_potential

from conftest import suite_problem



def catalog_battery():
    """Representative problems across forms, dimensions, exponents, perturbations."""
    problems = []
    for dim, n in ((1, 16), (2, 8)):
        grid = GridSpec(dim, n)
        a = TrigForm(0.2, (0.4,) * dim, (-0.3,) * dim)
        drift = DriftSpec(tuple(TrigForm(0.1, (0.2,) * dim, (0.0,) * dim) for _ in range(dim)))
        for alpha in (0.0, 0.5, 0.9):
            for eps in (0.0, 0.05):
                problems.append(ProblemSpec(grid, alpha, PotentialSpec("separable", a, 1.0), drift, eps))
                problems.append(ProblemSpec(grid, alpha, PotentialSpec("saturating", a, 0.7), drift, eps))
                problems.append(ProblemSpec(grid, alpha, PotentialSpec("separable", a), drift, eps))
    return problems


class TestResidual:
    @pytest.mark.parametrize("spec", catalog_battery())
    def test_explicit_start_is_exact_for_every_catalog_problem(self, spec):
        assert sup_norm(*residual(spec, 0.0, exact_initial(spec))) <= 1e-14

    def test_constant_solution_at_lambda_one(self):
        # V = c (kappa = 0), b = 0: u = c, m = 1 solves the full system exactly
        grid = GridSpec(1, 32)
        c = 0.8
        spec = ProblemSpec(
            grid, 0.5, PotentialSpec("separable", TrigForm(c, (0.0,), (0.0,))), DriftSpec.zero(1)
        )
        s = State(constant_field(grid, c), constant_field(grid, 1.0))
        assert sup_norm(*residual(spec, 1.0, s)) == 0.0

    def test_mass_identity_for_arbitrary_state(self):
        # integral of the m-equation residual equals integral(m) - 1 exactly
        spec = suite_problem(0.5, n=64)
        rng = np.random.default_rng(5)
        grid = spec.grid
        u = Field(grid, 0.5 * rng.standard_normal(grid.size))
        m = Field(grid, 1.2 + 0.5 * rng.uniform(-1, 1, grid.size))
        s = State(u, m)
        for lam in (0.0, 0.4, 1.0):
            _, r2 = residual(spec, lam, s)
            assert integral(grid, r2.values) == pytest.approx(integral(grid, m.values) - 1.0, abs=1e-12)

    def test_lambda_lipschitz_with_computable_constant(self):
        # F is affine in lambda; L = sup-norm of the lambda-coefficient
        spec = suite_problem(0.5, n=64)
        rng = np.random.default_rng(8)
        grid = spec.grid
        s = State(
            Field(grid, 0.3 * rng.standard_normal(grid.size)),
            Field(grid, 1.0 + 0.4 * rng.uniform(-1, 1, grid.size)),
        )
        r0 = np.concatenate([f.values for f in residual(spec, 0.0, s)])
        r1 = np.concatenate([f.values for f in residual(spec, 1.0, s)])
        lip = np.max(np.abs(r1 - r0))
        for la, lb in ((0.0, 1.0), (0.2, 0.7), (0.45, 0.5)):
            ra = np.concatenate([f.values for f in residual(spec, la, s)])
            rb = np.concatenate([f.values for f in residual(spec, lb, s)])
            assert np.max(np.abs(ra - rb)) <= lip * abs(la - lb) + 1e-12

    def test_rejects_nonpositive_density(self):
        spec = suite_problem(0.5, n=16)
        bad = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, 0.0))
        with pytest.raises(NonPositiveDensity):
            residual(spec, 0.0, bad)
        m = np.ones(spec.grid.size)
        m[5] = -1e-3  # one negative entry among positive ones
        with pytest.raises(NonPositiveDensity):
            residual(spec, 0.0, State(constant_field(spec.grid, 0.0), Field(spec.grid, m)))

    def test_overflow_raises_a_solver_failure(self):
        # |Du|^2 overflows; a SolverFailure lets the continuation shrink its step
        from mfgtorus import SolverFailure

        spec = suite_problem(0.5, n=16)
        x = mesh(spec.grid)[0].ravel()
        big = State(Field(spec.grid, 1e200 * np.sin(2 * np.pi * x)), constant_field(spec.grid, 1.0))
        for lam in (0.0, 1.0):
            with pytest.raises(NonFiniteResidual, match="the residual at lambda = .* is not finite"):
                residual(spec, lam, big)
        assert issubclass(NonFiniteResidual, SolverFailure)

    def test_rejects_lambda_outside_unit_interval(self):
        spec = suite_problem(0.5, n=16)
        for lam in (-0.1, 1.5):
            with pytest.raises(ValueError):
                residual(spec, lam, exact_initial(spec))

    def test_monotonization_scales_with_homotopy(self):
        # at lam=0 the perturbation is off (the explicit start stays exact);
        # at lam=1 it shifts the potential by eps*arctan(m)
        spec = suite_problem(0.5, n=16)
        spec_eps = ProblemSpec(spec.grid, spec.alpha, spec.potential, spec.drift, 0.3)
        s = exact_initial(spec)
        assert sup_norm(*residual(spec_eps, 0.0, s)) <= 1e-14
        r_plain, _ = residual(spec, 1.0, s)
        r_eps, _ = residual(spec_eps, 1.0, s)
        expected_shift = 0.3 * np.arctan(1.0)
        assert np.max(np.abs(r_plain.values - r_eps.values)) == pytest.approx(
            expected_shift, abs=1e-14
        )


def residual_reference(spec, lam, u, m, sources):
    """The residual expression as written before the array kernel, term by term in the same order."""
    grid = spec.grid
    alpha = spec.alpha
    pot = spec.potential
    ax = pot.a.value(grid)
    bvals = [c.value(grid) for c in spec.drift.components]
    if pot.form == "separable":
        v = ax + pot.kappa * np.arctan(m)
    elif pot.form == "saturating":
        v = ax + pot.kappa * m / (1.0 + m)
    else:
        v = ax * np.ones_like(m)
    v_eff = v + spec.epsilon_monotone * np.arctan(m)
    du = gradient_arrays(Field(grid, u))
    du_sq = sum(d * d for d in du)
    r1 = (
        u
        - laplacian_array(u, grid)
        + du_sq / (2.0 * m**alpha)
        + lam * sum(b * d for b, d in zip(bvals, du))
        - (lam * v_eff + (1.0 - lam) * np.arctan(m))
    )
    flux = [m ** (1.0 - alpha) * d for d in du]
    r2 = (
        m
        - laplacian_array(m, grid)
        - divergence_arrays(flux, grid)
        - lam * divergence_arrays([b * m for b in bvals], grid)
        - 1.0
    )
    if sources is not None:
        r1 = r1 - sources[0].reshaped()
        r2 = r2 - sources[1].reshaped()
    return r1, r2


class TestResidualKernel:
    """The kernel and `residual` reproduce the reference expression bit for bit."""

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (1, 256), (2, 8), (2, 9), (2, 48)])
    @pytest.mark.parametrize("form,kappa", [("separable", 1.3), ("saturating", 0.8), ("separable", 0.0)])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_bitwise_equal_to_reference(self, dim, n, form, kappa, eps):
        grid = GridSpec(dim, n)
        a = TrigForm(0.2, (0.4,) * dim, (-0.3,) * dim)
        drift = DriftSpec(tuple(TrigForm(0.1, (0.2,) * dim, (0.5,) * dim) for _ in range(dim)))
        spec = ProblemSpec(grid, 0.6, PotentialSpec(form, a, kappa), drift, eps)
        rng = np.random.default_rng(n + 10 * dim)
        s = State(Field(grid, 0.3 * rng.standard_normal(grid.size)),
                  Field(grid, 1.0 + 0.5 * rng.uniform(-1, 1, grid.size)))
        sources = (Field(grid, rng.standard_normal(grid.size)), Field(grid, rng.standard_normal(grid.size)))
        for lam in (0.0, 0.37, 1.0):
            kernel = _at_lambda(_terms_arrays(spec, s.u.reshaped(), s.m.reshaped()), lam)
            for got, want in zip(kernel, residual_reference(spec, lam, s.u.reshaped(), s.m.reshaped(), None)):
                assert np.array_equal(got, want)
            for src in (None, sources):
                got = residual(spec, lam, s, src)
                want = residual_reference(spec, lam, s.u.reshaped(), s.m.reshaped(), src)
                for field, arr in zip(got, want):
                    assert np.array_equal(field.values, arr.ravel())

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_complex_step_through_kernel_matches_jacobian(self, dim, n):
        # the kernel takes complex arrays: Im F(x + i t w) / t is J w with no cancellation
        from mfgtorus.linearization import assemble_jacobian

        spec = next(s for s in catalog_battery() if s.grid.dim == dim and s.alpha == 0.5)
        spec = ProblemSpec(GridSpec(dim, n), spec.alpha, spec.potential, spec.drift, 0.05)
        rng = np.random.default_rng(4)
        x = np.concatenate([0.3 * rng.standard_normal(spec.grid.size),
                            1.0 + 0.4 * rng.uniform(-1, 1, spec.grid.size)])
        w = rng.standard_normal(x.size)
        t = 1e-30
        z = (x + 1j * t * w).reshape((2, *spec.grid.shape))
        for lam in (0.37, 1.0):
            jw = np.concatenate([r.imag.ravel() for r in _at_lambda(_terms_arrays(spec, z[0], z[1]), lam)]) / t
            exact = assemble_jacobian(spec, lam, State.from_stacked(spec.grid, x)).matrix @ w
            assert np.max(np.abs(jw - exact)) <= 1e-12 * np.max(np.abs(exact))


def fresh_copy(s):
    """s with its own arrays and no cached terms."""
    return State(Field(s.grid, s.u.values.copy()), Field(s.grid, s.m.values.copy()))


def spec_variants(spec):
    """spec with one coefficient changed at a time: alpha, kappa, epsilon_monotone, the drift's scale."""
    from dataclasses import replace

    return [
        replace(spec, alpha=0.3),
        replace(spec, potential=replace(spec.potential, kappa=2.0)),
        replace(spec, epsilon_monotone=0.2),
        replace(spec, drift=spec.drift.scaled(3.0)),
        replace(spec),  # equal, but another object
    ]


class TestStateTerms:
    """`residual` keeps the lam-free terms with the state; whatever reuses them gets the uncached bits."""

    @pytest.mark.parametrize("spec", [s for s in catalog_battery() if s.alpha == 0.5])
    def test_cached_residual_equals_the_kernel(self, spec):
        rng = np.random.default_rng(spec.grid.size)
        s = State(Field(spec.grid, 0.3 * rng.standard_normal(spec.grid.size)),
                  Field(spec.grid, 1.0 + 0.5 * rng.uniform(-1, 1, spec.grid.size)))
        residual(spec, 0.5, s)
        terms = s._terms
        for lam in (0.0, 0.3, 1.0):
            got = residual(spec, lam, s)
            want = _at_lambda(_terms_arrays(spec, s.u.reshaped(), s.m.reshaped()), lam)
            for field, arr in zip(got, want):
                assert np.array_equal(field.values.view(np.uint64), arr.ravel().view(np.uint64)), lam
        assert s._terms is terms  # computed once, at the first lam

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_terms_never_cross_specs(self, dim, n):
        """Evaluated under one spec, a state's residual and Jacobian under a changed spec, with and without
        MMS sources, are those of a fresh copy of it, bit for bit."""
        from mfgtorus.linearization import assemble_jacobian

        grid = GridSpec(dim, n)
        drift = DriftSpec(tuple(TrigForm(0.1, (0.2,) * dim, (0.5,) * dim) for _ in range(dim)))
        spec = ProblemSpec(grid, 0.6, PotentialSpec("separable", TrigForm(0.2, (0.4,) * dim, (-0.3,) * dim), 1.3),
                           drift)
        rng = np.random.default_rng(n)
        sources = (Field(grid, rng.standard_normal(grid.size)), Field(grid, rng.standard_normal(grid.size)))
        base = State(Field(grid, 0.3 * rng.standard_normal(grid.size)),
                     Field(grid, 1.0 + 0.5 * rng.uniform(-1, 1, grid.size)))
        for other in spec_variants(spec):
            for src in (None, sources):
                s = fresh_copy(base)
                residual(spec, 0.5, s, src)
                for lam in (0.3, 1.0):
                    got, want = residual(other, lam, s, src), residual(other, lam, fresh_copy(base), src)
                    for a, b in zip(got, want):
                        assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
                    s = fresh_copy(base)
                    residual(spec, 0.5, s, src)
                    got, want = assemble_jacobian(other, lam, s), assemble_jacobian(other, lam, fresh_copy(base))
                    assert np.array_equal(got.fill.view(np.uint64), want.fill.view(np.uint64))
                assert s._terms.spec is other

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_cached_terms_are_read_only(self, dim, n):
        spec = next(s for s in catalog_battery() if s.grid.dim == dim)
        s = State(Field(spec.grid, np.linspace(0.0, 1.0, spec.grid.size)), constant_field(spec.grid, 1.5))
        residual(spec, 0.5, s)
        terms = _state_terms(spec, s)
        arrays = [*terms.du, *terms[2:]]
        assert len(arrays) == len(terms._fields) - 2 + dim
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0
            with pytest.raises(ValueError):
                arr.ravel()[0] = 0.0
        # no term aliases the state's own arrays, which stay writeable
        assert s.u.values.flags.writeable and s.m.values.flags.writeable


class TestExactInitial:
    def test_unit_mass_and_sup_bound(self):
        spec = suite_problem(0.25)
        s = exact_initial(spec)
        assert integral(s.grid, s.m.values) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(s.u.values)) == np.pi / 4
        assert np.pi / 4 <= np.pi / 2


class TestCatalog:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_trig_form_matches_pointwise_expressions_bitwise(self, dim):
        # the forms read the per-grid harmonics tables in the expressions they once wrote out
        grid = GridSpec(dim, 16)
        form = TrigForm(0.3, (0.4, -0.7)[:dim], (0.2, 0.9)[:dim])
        w = 2 * np.pi
        xs = mesh(grid)
        value = np.full(grid.shape, form.const)
        for i, (a, b) in enumerate(zip(form.cos_amp, form.sin_amp)):
            value = value + a * np.cos(w * xs[i]) + b * np.sin(w * xs[i])
        assert np.array_equal(form.value(grid), value)
        for ax, (a, b) in enumerate(zip(form.cos_amp, form.sin_amp)):
            cos, sin = np.cos(w * xs[ax]), np.sin(w * xs[ax])
            assert np.array_equal(form.deriv(grid, ax), w * (-a * sin + b * cos))
            assert np.array_equal(form.second_deriv(grid, ax), -w * w * (a * cos + b * sin))

    @pytest.mark.parametrize("form,kappa", [("separable", 1.3), ("saturating", 0.8), ("separable", 0.0)])
    def test_m_derivative_nonnegative_on_samples(self, form, kappa):
        pot = PotentialSpec(form, TrigForm(0.1, (0.4,), (0.2,)), kappa)
        rng = np.random.default_rng(2)
        m = rng.uniform(1e-3, 50.0, 500)
        assert np.all(pot.dm(m) >= 0.0)

    @pytest.mark.parametrize("form,kappa", [("separable", 1.3), ("saturating", 0.8), ("separable", 0.0)])
    def test_sup_bound_certifies_samples(self, form, kappa):
        pot = PotentialSpec(form, TrigForm(0.1, (0.4,), (0.2,)), kappa)
        grid = GridSpec(1, 128)
        rng = np.random.default_rng(3)
        for m0 in rng.uniform(0.01, 30.0, 20):
            m = np.full(grid.shape, m0)
            vals = pot.value_given_a(pot.a.value(grid), m, np.arctan(m))
            assert np.max(np.abs(vals)) <= pot.sup_bound() + 1e-12

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            PotentialSpec("separable", TrigForm(0.0, (0.0,), (0.0,)), -1.0)

    def test_drift_sup_bound(self):
        drift = DriftSpec((TrigForm(0.1, (0.2,), (0.3,)),))
        assert drift.sup_bound() == pytest.approx(0.6)
        grid = GridSpec(1, 64)
        b = drift.components[0].value(grid)
        assert np.max(np.abs(b)) <= drift.sup_bound() + 1e-12


class TestPerGridArrays:
    @pytest.mark.parametrize("spec", catalog_battery())
    def test_effective_potential_equals_pointwise_value(self, spec):
        m = 1.0 + 0.5 * np.cos(2 * np.pi * mesh(spec.grid)[0])
        pot = spec.potential
        expected = pot.value_given_a(pot.a.value(spec.grid), m, np.arctan(m)) + spec.epsilon_monotone * np.arctan(m)
        assert np.array_equal(effective_potential(spec, spec.grid, m, np.arctan(m)), expected)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cached_arrays_are_read_only(self, dim):
        # they are shared by every later call on the grid, so an in-place write must fail
        spec = next(s for s in catalog_battery() if s.grid.dim == dim)
        cached = [
            *mesh(spec.grid),
            *(arr for pair in harmonics(spec.grid) for arr in pair),
            *_drift_arrays(spec.drift, spec.grid),
            _on_grid(spec.potential.a, spec.grid),
            *_neighbours(spec.grid.n),
        ]
        for arr in cached:
            with pytest.raises(ValueError, match="read-only"):
                arr += 1


class TestProblemSpecValidation:
    def test_alpha_range(self):
        pot = PotentialSpec("separable", TrigForm(0.0, (0.0,), (0.0,)))
        with pytest.raises(ValueError):
            ProblemSpec(GridSpec(1, 16), -0.1, pot, DriftSpec.zero(1))
        with pytest.raises(ValueError):
            ProblemSpec(GridSpec(1, 16), 2.0, pot, DriftSpec.zero(1))
        # [1, 2) is admitted for diagnostics on manufactured states, but not solvable
        spec = ProblemSpec(GridSpec(1, 16), 1.5, pot, DriftSpec.zero(1))
        assert not spec.solvable

    def test_dimension_mismatches_rejected(self):
        pot1 = PotentialSpec("separable", TrigForm(0.0, (0.0,), (0.0,)))
        with pytest.raises(ValueError):
            ProblemSpec(GridSpec(2, 8), 0.5, pot1, DriftSpec.zero(2))
        pot2 = PotentialSpec("separable", TrigForm(0.0, (0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(ValueError):
            ProblemSpec(GridSpec(2, 8), 0.5, pot2, DriftSpec.zero(1))

    def test_state_grids_must_match(self):
        with pytest.raises(ValueError):
            State(constant_field(GridSpec(1, 16), 0.0), constant_field(GridSpec(1, 32), 1.0))
