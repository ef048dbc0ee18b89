import numpy as np
import pytest
import scipy.sparse as sparse

from mfgtorus import (
    Field,
    GridSpec,
    NonPositiveDensity,
    State,
    assemble_jacobian,
    bilinear_form,
    coercivity_check,
    constant_field,
    exact_initial,
    residual,
)
from mfgtorus.grid import mesh
from mfgtorus.linearization import fd_max_error
from mfgtorus.problem import potential_term_dm

from conftest import diff_matrix, laplacian_matrix, suite_problem, system_of

TWO_PI = 2 * np.pi


def random_positive_state(grid, seed=0, u_scale=0.3, m_wobble=0.4):
    rng = np.random.default_rng(seed)
    xs = mesh(grid)
    u = u_scale * np.sin(TWO_PI * xs[0]) + 0.05 * rng.standard_normal(grid.shape)
    m = 1.0 + m_wobble * np.cos(TWO_PI * xs[0]) + 0.05 * rng.standard_normal(grid.shape)
    return State(Field(grid, u.ravel()), Field(grid, m.ravel()))


def fd_directional_error(spec, lam, s, n_dirs=20, seed=0):
    return fd_max_error(spec, lam, assemble_jacobian(spec, lam, s), np.random.default_rng(seed), n_dirs)


class TestJacobianExactness:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_central_differences_at_generic_state(self, lam):
        spec = suite_problem(0.5, n=48)
        s = random_positive_state(spec.grid, seed=42)
        assert fd_directional_error(spec, lam, s) <= 1e-6

    def test_matches_central_differences_2d(self):
        from conftest import problem_2d

        spec = problem_2d(n=12)
        rng = np.random.default_rng(1)
        s = State(
            Field(spec.grid, 0.1 * rng.standard_normal(spec.grid.size)),
            Field(spec.grid, 1.0 + 0.2 * rng.uniform(-1, 1, spec.grid.size)),
        )
        assert fd_directional_error(spec, 0.7, s, n_dirs=10) <= 1e-6

    def test_rejects_nonpositive_density(self):
        spec = suite_problem(0.5, n=16)
        bad = State(constant_field(spec.grid, 0.0), constant_field(spec.grid, -0.1))
        from mfgtorus import NonPositiveDensity

        with pytest.raises(NonPositiveDensity):
            assemble_jacobian(spec, 0.0, bad)


def reference_jacobian(spec, lam, s):
    """The Jacobian as sparse-sparse products and `bmat`, the way it was assembled before the pattern fill."""
    from mfgtorus.grid import gradient_arrays
    from mfgtorus.problem import _drift_arrays

    grid = spec.grid
    m = s.m.values
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

    return sparse.bmat([[a_vv, a_vf], [a_fv, a_ff]], format="csr")


def coefficient_case(dim, n, case, alpha):
    """`flat`: kappa = 0, no drift, no x-dependence; `kappa0`: kappa = 0 with both; `sources`: the
    separable potential with drift, the problem MMS adds sources to (they do not enter the Jacobian)."""
    from mfgtorus import DriftSpec, PotentialSpec, ProblemSpec, TrigForm

    grid = GridSpec(dim, n)
    if case == "flat":
        pot = PotentialSpec("separable", TrigForm.zero(dim), 0.0)
        drift = DriftSpec.zero(dim)
    else:
        pot = PotentialSpec("separable", TrigForm(0.0, (0.4,) * dim, (0.1,) * dim), 0.0 if case == "kappa0" else 1.0)
        drift = DriftSpec(tuple(
            TrigForm(0.0, tuple(0.5 * (i == ax) for i in range(dim)), (1.5,) * dim) for ax in range(dim)
        ))
    return ProblemSpec(grid, alpha, pot, drift)


class TestPatternFill:
    """The pattern fill reproduces the product-and-bmat assembly bit for bit."""

    @pytest.mark.parametrize("case", ["flat", "kappa0", "sources"])
    @pytest.mark.parametrize("n", [8, 9, 48])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_reference_assembly_exactly(self, dim, n, case):
        for alpha in (0.0, 0.5, 0.9, 1.5):
            spec = coefficient_case(dim, n, case, alpha)
            for s in (exact_initial(spec), random_positive_state(spec.grid, seed=n + dim)):
                for lam in (0.0, 0.5, 1.0):
                    got = assemble_jacobian(spec, lam, s)
                    want = reference_jacobian(spec, lam, s)
                    # the reference stores no exact zeros; the pattern fill keeps them
                    stored = got.matrix.copy()
                    stored.eliminate_zeros()
                    for attr in ("indptr", "indices", "data"):
                        a, b = getattr(stored, attr), getattr(want, attr)
                        assert a.dtype == b.dtype and np.array_equal(a, b), (attr, alpha, lam)

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (1, 16), (2, 8), (2, 9), (2, 24)])
    def test_matrix_built_on_first_use_has_the_eager_bits(self, dim, n):
        """`matrix`, built once from the fill, has the pattern's int32 indptr and indices and, at every
        position, the reference's value with its sign bit: +0.0 where the reference stores nothing."""
        from mfgtorus.linearization import _jacobian_pattern

        pattern = _jacobian_pattern(GridSpec(dim, n))
        rows = np.repeat(np.arange(pattern.indptr.size - 1), np.diff(pattern.indptr))
        for case, alpha in (("flat", 0.0), ("kappa0", 0.5), ("sources", 0.9)):
            spec = coefficient_case(dim, n, case, alpha)
            for s in (exact_initial(spec), random_positive_state(spec.grid, seed=n)):
                for lam in (0.0, 0.5, 1.0):
                    sys_ = assemble_jacobian(spec, lam, s)
                    mat = sys_.matrix
                    assert sys_.matrix is mat
                    for attr in ("indptr", "indices"):
                        got, want = getattr(mat, attr), getattr(pattern, attr)
                        assert got.dtype == np.int32 and np.array_equal(got, want)
                    want = reference_jacobian(spec, lam, s).toarray()[rows, pattern.indices]
                    assert mat.data.dtype == np.float64
                    assert np.array_equal(mat.data.view(np.uint64), want.view(np.uint64)), (case, lam)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_zeros_stay_in_the_pattern(self, dim):
        # alpha = 0, kappa = 0, lam = 1: the whole v-f coupling is zero, and stored
        from mfgtorus.linearization import _jacobian_pattern

        spec = coefficient_case(dim, 9, "flat", 0.0)
        mat = assemble_jacobian(spec, 1.0, random_positive_state(spec.grid, seed=1)).matrix
        pattern = _jacobian_pattern(spec.grid)
        n = spec.grid.size
        assert mat.nnz == pattern.indices.size
        assert np.shares_memory(mat.indices, pattern.indices)
        assert np.shares_memory(mat.indptr, pattern.indptr)
        assert mat[:n, n:].count_nonzero() == 0


class TestPatternStructure:
    """The pattern built from stencil offsets: sorted, duplicate-free CSR with a fixed count per row."""

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_matrix_is_canonical_with_fixed_row_counts(self, dim, n):
        # at n = 8 and 9 the offsets +-2 come closest to wrapping onto each other
        for case in ("flat", "kappa0", "sources"):
            spec = coefficient_case(dim, n, case, 0.5)
            for lam in (0.0, 1.0):
                mat = assemble_jacobian(spec, lam, random_positive_state(spec.grid, seed=n)).matrix
                assert mat.has_canonical_format
                counts = np.diff(mat.indptr)
                size = spec.grid.size
                assert np.all(counts[:size] == 2 * dim + 2) and np.all(counts[size:] == 4 * dim + 2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_zeros_are_stored_as_positive_zero(self, dim):
        # alpha = 0, kappa = 0, lam = 1: A_vf is -0 * |Du|^2 - 0 before it is stored
        spec = coefficient_case(dim, 9, "flat", 0.0)
        mat = assemble_jacobian(spec, 1.0, random_positive_state(spec.grid, seed=1)).matrix
        zeros = mat.data[mat.data == 0.0]
        assert zeros.size == spec.grid.size and not np.signbit(zeros).any()


class TestBlockStructureAtExplicitStart:
    """At (pi/4, 1) with lam=0: Du = 0 and m = 1 reduce every block to a closed form."""

    def setup_method(self):
        self.spec = suite_problem(0.5, n=32)
        self.grid = self.spec.grid
        self.sys = assemble_jacobian(self.spec, 0.0, exact_initial(self.spec))
        n = self.grid.size
        mat = self.sys.matrix.tocsr()
        self.a_vv = mat[:n, :n]
        self.a_vf = mat[:n, n:]
        self.a_fv = mat[n:, :n]
        self.a_ff = mat[n:, n:]

    def test_vv_and_ff_blocks_are_identity_minus_laplacian(self):
        expected = sparse.identity(self.grid.size) - laplacian_matrix(self.grid)
        assert abs(self.a_vv - expected).max() < 1e-14
        assert abs(self.a_ff - expected).max() < 1e-14

    def test_vf_block_is_minus_half_identity(self):
        # d/dm arctan(m) at m=1 is 1/2
        expected = -0.5 * sparse.identity(self.grid.size)
        assert abs(self.a_vf - expected).max() < 1e-14

    def test_fv_block_is_wide_stencil_divergence_gradient(self):
        d = diff_matrix(self.grid, 0)
        expected = -(d @ d)
        assert abs(self.a_fv - expected).max() < 1e-12

    def test_constant_direction_passes_through_zeroth_order_term(self):
        c = 2.3
        w = np.concatenate([np.full(self.grid.size, c), np.zeros(self.grid.size)])
        jw = self.sys.matrix @ w
        np.testing.assert_allclose(jw[: self.grid.size], c, atol=1e-12)
        np.testing.assert_allclose(jw[self.grid.size :], 0.0, atol=1e-12)


class TestStructuralZeros:
    def test_congestion_couplings_vanish_when_u_is_flat(self):
        spec = suite_problem(0.5, n=32)
        grid = spec.grid
        rng = np.random.default_rng(9)
        m_vals = 1.0 + 0.3 * rng.uniform(-1, 1, grid.size)
        s = State(constant_field(grid, 1.7), Field(grid, m_vals))
        lam = 0.6
        sys_ = assemble_jacobian(spec, lam, s)
        n = grid.size
        mat = sys_.matrix.tocsr()
        # A_vf reduces to the potential derivative alone
        expected_vf = sparse.diags(-potential_term_dm(spec, lam, m_vals))
        assert abs(mat[:n, n:] - expected_vf).max() < 1e-14
        # A_ff loses its congestion term, keeping identity - laplacian - lam*div(b .)
        expected_ff = sparse.identity(n) - laplacian_matrix(grid)
        from mfgtorus.problem import _drift_arrays

        for ax in range(grid.dim):
            bvals = _drift_arrays(spec.drift, grid)[ax].ravel()
            expected_ff = expected_ff - lam * diff_matrix(grid, ax) @ sparse.diags(bvals)
        assert abs(mat[n:, n:] - expected_ff).max() < 1e-12


class TestRotatedPairing:
    """`bilinear_form` pairs A w1 with w2 turned by (v, f) -> (f, -v), against h^dim (A x1).(f2, -v2) from the matrix."""

    @staticmethod
    def system_and_pairs(seed):
        spec = suite_problem(0.5, n=16)
        sys_ = assemble_jacobian(spec, 0.5, random_positive_state(spec.grid, seed=seed))
        rng = np.random.default_rng(seed)
        w1, w2 = ((Field(spec.grid, rng.standard_normal(16)), Field(spec.grid, rng.standard_normal(16)))
                  for _ in range(2))
        return sys_, w1, w2, sys_.matrix @ np.concatenate([w1[0].values, w1[1].values])

    def test_definition(self):
        sys_, w1, w2, a_x1 = self.system_and_pairs(1)
        h = sys_.grid.h
        expected = h * float(a_x1 @ np.concatenate([w2[1].values, -w2[0].values]))
        assert bilinear_form(sys_, w1, w2) == pytest.approx(expected, rel=1e-14)
        one, zero = constant_field(sys_.grid, 1.0), constant_field(sys_.grid, 0.0)
        # (1, 0) turns into (0, -1): minus the sum of the f rows of A w1
        assert bilinear_form(sys_, w1, (one, zero)) == pytest.approx(-h * float(np.sum(a_x1[16:])), rel=1e-14)

    def test_double_rotation_negates(self):
        # pairing against the turned (f2, -v2) turns w2 twice: minus the plain pairing h^dim (A x1).(v2, f2)
        sys_, w1, w2, a_x1 = self.system_and_pairs(2)
        turned = (w2[1], Field(sys_.grid, -w2[0].values))
        plain = sys_.grid.h * float(a_x1 @ np.concatenate([w2[0].values, w2[1].values]))
        assert bilinear_form(sys_, w1, turned) == pytest.approx(-plain, rel=1e-14)

    def test_rotation_is_orthogonal_to_identity(self):
        # with A = I, B[w, w] = h^dim (v, f).(f, -v) = 0
        grid = GridSpec(1, 16)
        rng = np.random.default_rng(2)
        w = (Field(grid, rng.standard_normal(16)), Field(grid, rng.standard_normal(16)))
        identity = system_of(sparse.identity(2 * grid.size, format="csr"),
                             State(constant_field(grid, 0.0), constant_field(grid, 1.0)))
        assert bilinear_form(identity, w, w) == pytest.approx(0.0, abs=1e-12)


def ibp_style_form(spec, lam, s, w1, w2):
    """Continuum-style bilinear form with all second-order terms integrated by
    parts analytically, discretized with centered differences.  Independent of
    the assembled matrix; agrees with it at O(h^2) on smooth samples."""
    from mfgtorus.grid import divergence_arrays, gradient_arrays
    from mfgtorus.problem import _drift_arrays

    grid = spec.grid
    a = spec.alpha
    m = s.m.reshaped()
    du = gradient_arrays(s.u)
    du_sq = sum(d * d for d in du)
    bvals = _drift_arrays(spec.drift, grid)
    v1, f1 = w1[0].reshaped(), w1[1].reshaped()
    v2, f2 = w2[0].reshaped(), w2[1].reshaped()
    dv1 = gradient_arrays(w1[0])
    df1 = gradient_arrays(w1[1])
    dv2 = gradient_arrays(w2[0])
    df2 = gradient_arrays(w2[1])
    pot_dm = potential_term_dm(spec, lam, m)

    row1 = (
        v1
        + sum(g * d for g, d in zip(du, dv1)) / m**a
        - a * du_sq * f1 / (2 * m ** (a + 1))
        + lam * sum(b * d for b, d in zip(bvals, dv1))
        - pot_dm * f1
    )
    integrand = row1 * f2
    integrand += sum(a_ * b_ for a_, b_ in zip(dv1, df2))
    integrand -= m ** (1 - a) * sum(a_ * b_ for a_, b_ in zip(dv1, dv2))
    row2 = (
        f1
        - (1 - a) * divergence_arrays([m**-a * f1 * d for d in du], grid)
        - lam * divergence_arrays([b * f1 for b in bvals], grid)
    )
    integrand += row2 * (-v2)
    integrand -= sum(a_ * b_ for a_, b_ in zip(df1, dv2))
    return grid.h**grid.dim * float(np.sum(integrand))


class TestBilinearForm:
    def test_constant_pair_identity(self):
        spec = suite_problem(0.5, n=32)
        sys_ = assemble_jacobian(spec, 0.0, exact_initial(spec))
        for mu in (1.0, -2.5, 0.3):
            w1 = (constant_field(spec.grid, mu), constant_field(spec.grid, 0.0))
            w2 = (constant_field(spec.grid, 0.0), constant_field(spec.grid, mu))
            assert bilinear_form(sys_, w1, w2) == pytest.approx(mu * mu, rel=1e-10)

    def test_bilinearity(self):
        spec = suite_problem(0.5, n=32)
        grid = spec.grid
        sys_ = assemble_jacobian(spec, 0.5, random_positive_state(grid, seed=3))
        rng = np.random.default_rng(4)

        def rand_pair():
            return (Field(grid, rng.standard_normal(grid.size)), Field(grid, rng.standard_normal(grid.size)))

        w, wp, w2 = rand_pair(), rand_pair(), rand_pair()
        a_, b_ = 1.7, -0.4
        combo = (
            Field(grid, a_ * w[0].values + b_ * wp[0].values),
            Field(grid, a_ * w[1].values + b_ * wp[1].values),
        )
        lhs = bilinear_form(sys_, combo, w2)
        rhs = a_ * bilinear_form(sys_, w, w2) + b_ * bilinear_form(sys_, wp, w2)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_bounded_by_discrete_h1_norms(self):
        # |B[w1,w2]| <= C ||w1||_H1 ||w2||_H1 with C from coefficient sup-norms
        # and the forward-difference H1 norm (the one the summation-by-parts
        # form of the compact Laplacian pairs with)
        spec = suite_problem(0.5, n=48)
        grid = spec.grid
        s = random_positive_state(grid, seed=6)
        lam = 0.8
        sys_ = assemble_jacobian(spec, lam, s)

        from mfgtorus.grid import gradient_arrays
        from mfgtorus.problem import _drift_arrays

        m = s.m.values
        du = [g.ravel() for g in gradient_arrays(s.u)]
        bvals = [b.ravel() for b in _drift_arrays(spec.drift, grid)]
        a = spec.alpha
        pot_dm_sup = np.max(np.abs(potential_term_dm(spec, lam, s.m.reshaped())))
        avf_sup = np.max(np.abs(-a * sum(d * d for d in du) / (2 * m ** (a + 1)))) + pot_dm_sup
        c1 = 2.0 + sum(np.max(np.abs(d / m**a + lam * b)) for d, b in zip(du, bvals)) + avf_sup
        c2 = (
            2.0
            + np.max(m ** (1 - a))
            + (1 - a) * sum(np.max(np.abs(m**-a * d)) for d in du)
            + lam * sum(np.max(np.abs(b)) for b in bvals)
        )
        c_bound = c1 + c2

        h = grid.h
        vol = h**grid.dim

        def h1(fld_pair):
            total = 0.0
            for fld in fld_pair:
                arr = fld.reshaped()
                total += np.sum(arr * arr)
                for ax in range(grid.dim):
                    d = (np.roll(arr, -1, axis=ax) - arr) / h
                    total += np.sum(d * d)
            return np.sqrt(vol * total)

        rng = np.random.default_rng(7)
        for _ in range(25):
            w1 = (Field(grid, rng.standard_normal(grid.size)), Field(grid, rng.standard_normal(grid.size)))
            w2 = (Field(grid, rng.standard_normal(grid.size)), Field(grid, rng.standard_normal(grid.size)))
            assert abs(bilinear_form(sys_, w1, w2)) <= c_bound * h1(w1) * h1(w2) * (1 + 1e-12)

    def test_matches_integrated_by_parts_expression_at_second_order(self):
        defects = []
        for n in (32, 64, 128):
            spec = suite_problem(0.5, n=n)
            grid = spec.grid
            xs = mesh(grid)[0]
            s = State(
                Field(grid, 0.2 * np.sin(TWO_PI * xs)),
                Field(grid, 1.0 + 0.4 * np.cos(TWO_PI * xs)),
            )
            # modes chosen asymmetric so the two Laplacian pairings cannot cancel
            w1 = (
                Field(grid, np.cos(TWO_PI * xs)),
                Field(grid, np.sin(2 * TWO_PI * xs) + 0.5),
            )
            w2 = (
                Field(grid, np.sin(2 * TWO_PI * xs) - 0.2),
                Field(grid, np.cos(TWO_PI * xs)),
            )
            lam = 0.7
            sys_ = assemble_jacobian(spec, lam, s)
            defects.append(abs(bilinear_form(sys_, w1, w2) - ibp_style_form(spec, lam, s, w1, w2)))
        orders = [np.log2(a / b) for a, b in zip(defects, defects[1:])]
        assert all(p >= 1.8 for p in orders), (defects, orders)


class TestCoercivity:
    def test_all_samples_negative_at_explicit_start(self):
        spec = suite_problem(0.5, n=48)
        sys_ = assemble_jacobian(spec, 0.0, exact_initial(spec))
        ratio = coercivity_check(sys_, n_samples=200, seed=0)
        assert ratio < 0.0
        assert ratio <= -0.5 + 1e-8

    def test_pure_density_direction_achieves_the_half_bound(self):
        # with Du=0, m=1, lam=0: B[(0,f),(0,f)] = -1/2 ||f||^2 exactly
        spec = suite_problem(0.5, n=48)
        grid = spec.grid
        sys_ = assemble_jacobian(spec, 0.0, exact_initial(spec))
        rng = np.random.default_rng(12)
        f = Field(grid, rng.standard_normal(grid.size))
        w = (constant_field(grid, 0.0), f)
        b_ww = bilinear_form(sys_, w, w)
        denom = grid.h**grid.dim * float(np.sum(f.values**2))
        assert b_ww / denom == pytest.approx(-0.5, abs=1e-12)

    def test_kernel_direction_is_neutral(self):
        spec = suite_problem(0.5, n=32)
        sys_ = assemble_jacobian(spec, 0.0, exact_initial(spec))
        w = (constant_field(spec.grid, 1.0), constant_field(spec.grid, 0.0))
        assert bilinear_form(sys_, w, w) == pytest.approx(0.0, abs=1e-13)

    def test_all_samples_negative_at_converged_solution(self, reference_solution):
        spec, s, _ = reference_solution
        sys_ = assemble_jacobian(spec, 1.0, s)
        assert coercivity_check(sys_, n_samples=200, seed=1) < 0.0

    def test_degenerate_base_state_rejected(self):
        grid = GridSpec(1, 16)
        bad = State(constant_field(grid, 0.0), constant_field(grid, -1.0))
        sys_ = system_of(sparse.identity(2 * grid.size, format="csr"), bad)
        with pytest.raises(NonPositiveDensity):
            coercivity_check(sys_, n_samples=2, seed=0)

    def test_reports_are_seeded_and_deterministic(self):
        spec = suite_problem(0.5, n=32)
        sys_ = assemble_jacobian(spec, 0.0, exact_initial(spec))
        r1 = coercivity_check(sys_, n_samples=16, seed=5)
        r2 = coercivity_check(sys_, n_samples=16, seed=5)
        assert r1 == r2

    def test_probe_extends_beyond_solvable_congestion_exponents(self):
        # sign-definiteness survives for alpha in [1, 2) with a strictly
        # increasing coupling, even though the solver itself refuses alpha >= 1
        from mfgtorus import DriftSpec, PotentialSpec, ProblemSpec, TrigForm

        pot = PotentialSpec("separable", TrigForm(0.0, (0.2,), (0.0,)), 1.0)
        spec = ProblemSpec(GridSpec(1, 48), 1.5, pot, DriftSpec.zero(1))
        assert not spec.solvable
        xs = mesh(spec.grid)[0]
        s = State(
            Field(spec.grid, 0.1 * np.sin(TWO_PI * xs)),
            Field(spec.grid, 1.0 + 0.3 * np.cos(TWO_PI * xs)),
        )
        assert coercivity_check(assemble_jacobian(spec, 1.0, s), n_samples=100, seed=3) < 0.0


class TestAugmentedSystems:
    def test_fd_exactness_with_sources(self):
        # sources are constant in the unknowns, so the Jacobian is untouched
        from mfgtorus import ManufacturedCase, TrigForm, mms_source

        spec = suite_problem(0.5, n=48)
        case = ManufacturedCase(spec, TrigForm(0.0, (0.0,), (0.1,)), TrigForm(1.0, (0.5,), (0.0,)))
        sources = mms_source(case, spec.grid)
        s = case.sample(spec.grid)
        sys_ = assemble_jacobian(spec, 1.0, s)

        rng = np.random.default_rng(3)
        base = s.stacked()
        for _ in range(5):
            w = rng.standard_normal(2 * spec.grid.size)
            eps = 1e-6
            sp = State.from_stacked(spec.grid, base + eps * w)
            sm = State.from_stacked(spec.grid, base - eps * w)
            rp = np.concatenate([f.values for f in residual(spec, 1.0, sp, sources)])
            rm = np.concatenate([f.values for f in residual(spec, 1.0, sm, sources)])
            fd = (rp - rm) / (2 * eps)
            jw = sys_.matrix @ w
            assert np.max(np.abs(jw - fd)) / np.max(np.abs(jw)) <= 1e-6
