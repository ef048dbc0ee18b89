import numpy as np
import pytest

from mfgtorus import Field, GridSpec, TrigForm, constant_field, integral, load_field, save_field
from mfgtorus.grid import (
    MAX_POINTS,
    _diff,
    _second_diff,
    divergence_arrays,
    gradient_arrays,
    harmonics,
    interpolate,
    laplacian_array,
    mesh,
)

from conftest import diff_matrix, laplacian_matrix

TWO_PI = 2 * np.pi


def sampled(grid, fn):
    """fn(x) (d=1) or fn(x, y) (d=2) at the grid points."""
    return Field(grid, np.broadcast_to(fn(*mesh(grid)), grid.shape).ravel().copy())


def simpson(fn, n=10**6):
    """Independent composite-Simpson quadrature oracle on [0, 1]."""
    x = np.linspace(0.0, 1.0, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (1.0 / n) / 3.0 * float(np.sum(w * fn(x)))


def forward_diff(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - arr) / h


class TestGridSpec:
    def test_point_count_and_spacing(self):
        g = GridSpec(2, 16)
        assert g.size == 256
        assert g.shape == (16, 16)
        assert g.h * g.n == 1.0

    @pytest.mark.parametrize("dim,n", [(0, 16), (3, 16), (1, 4)])
    def test_rejects_bad_dimensions(self, dim, n):
        with pytest.raises(ValueError):
            GridSpec(dim, n)

    @pytest.mark.parametrize("dim,n", [(1, 2**20), (2, 2**10)])
    def test_point_cap_admits_its_boundary_and_nothing_above(self, dim, n):
        # a GridSpec allocates nothing, so the boundary costs no memory
        assert GridSpec(dim, n).size == MAX_POINTS
        with pytest.raises(ValueError, match=f"n\\*\\*dim must be at most {MAX_POINTS}"):
            GridSpec(dim, n + 1)


class TestField:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Field(GridSpec(1, 16), np.zeros(15))

    def test_rejects_non_finite(self):
        vals = np.zeros(16)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field(GridSpec(1, 16), vals)


class TestHarmonics:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_tables_are_the_pointwise_harmonics_once_per_grid(self, dim):
        grid = GridSpec(dim, 16)
        tables = harmonics(grid)
        assert len(tables) == dim
        for x, (cos, sin) in zip(mesh(grid), tables):
            assert np.array_equal(cos, np.cos(TWO_PI * x))
            assert np.array_equal(sin, np.sin(TWO_PI * x))
        assert harmonics(GridSpec(dim, 16)) is tables


REFINEMENTS = [(dim, n) for dim in (1, 2) for n in (8, 16)]


class TestInterpolate:
    @pytest.mark.parametrize("dim,n", REFINEMENTS)
    def test_reproduces_the_shared_points(self, dim, n):
        coarse, fine = GridSpec(dim, n), GridSpec(dim, 2 * n)
        rng = np.random.default_rng(n + dim)
        # the random field has a nonzero Nyquist coefficient; add a pure Nyquist mode too
        nyquist = np.cos(np.pi * n * mesh(coarse)[-1]).ravel()
        assert np.abs(np.fft.rfft(nyquist.reshape(coarse.shape), axis=-1)[..., n // 2]).max() > 1.0
        f = Field(coarse, rng.standard_normal(coarse.size) + nyquist)
        shared = interpolate(f, fine).reshaped()[(slice(None, None, 2),) * dim]
        assert np.max(np.abs(shared - f.reshaped())) <= 1e-14

    @pytest.mark.parametrize("dim,n", REFINEMENTS)
    def test_band_limited_form_is_reproduced_on_the_fine_grid(self, dim, n):
        coarse, fine = GridSpec(dim, n), GridSpec(dim, 2 * n)
        form = TrigForm(0.7, (0.4, -0.3)[:dim], (0.25, 0.6)[:dim])
        f = interpolate(Field(coarse, form.value(coarse)), fine)
        assert f.grid == fine
        assert np.max(np.abs(f.reshaped() - form.value(fine))) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(dim, n) for dim in (1, 2) for n in (9, 25)])
    def test_odd_source_grid_has_no_nyquist_term(self, dim, n):
        """An odd n has no Nyquist coefficient to split: the shared points and a band-limited form are kept."""
        coarse, fine = GridSpec(dim, n), GridSpec(dim, 2 * n)
        f = Field(coarse, np.random.default_rng(n + dim).standard_normal(coarse.size))
        shared = interpolate(f, fine).reshaped()[(slice(None, None, 2),) * dim]
        assert np.max(np.abs(shared - f.reshaped())) <= 1e-14
        form = TrigForm(0.7, (0.4, -0.3)[:dim], (0.25, 0.6)[:dim])
        g = interpolate(Field(coarse, form.value(coarse)), GridSpec(dim, 4 * n))
        assert np.max(np.abs(g.reshaped() - form.value(g.grid))) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(dim, n) for dim in (1, 2) for n in (8, 9)])
    def test_same_grid_is_the_identity(self, dim, n):
        grid = GridSpec(dim, n)
        f = Field(grid, np.random.default_rng(n + dim).standard_normal(grid.size))
        assert np.max(np.abs(interpolate(f, grid).values - f.values)) <= 1e-14

    @pytest.mark.parametrize("n_from, n_to", [(16, 24), (9, 16), (32, 16)])
    def test_target_must_be_a_multiple_of_the_source(self, n_from, n_to):
        with pytest.raises(ValueError, match="not a multiple"):
            interpolate(constant_field(GridSpec(1, n_from), 1.0), GridSpec(1, n_to))


class TestGradient:
    def test_constant_gives_zero(self):
        for c in gradient_arrays(constant_field(GridSpec(2, 16), 3.7)):
            assert np.all(c == 0.0)

    def test_sine_matches_derivative_within_taylor_bound(self):
        grid = GridSpec(1, 64)
        f = sampled(grid, lambda x: np.sin(TWO_PI * x))
        (gx,) = gradient_arrays(f)
        exact = TWO_PI * np.cos(TWO_PI * mesh(grid)[0])
        err = np.max(np.abs(gx - exact))
        assert err <= TWO_PI**3 * grid.h**2 / 6.0
        assert err > 0.0

    def test_2d_component_of_independent_axis_is_zero(self):
        grid = GridSpec(2, 16)
        f = sampled(grid, lambda x, y: np.sin(TWO_PI * y))
        gx, gy = gradient_arrays(f)
        assert np.all(gx == 0.0)
        assert np.max(np.abs(gy)) > 1.0


class TestDivergence:
    def test_constant_gives_zero(self):
        grid = GridSpec(2, 16)
        F = [np.full(grid.shape, 1.0), np.full(grid.shape, -2.0)]
        assert np.all(divergence_arrays(F, grid) == 0.0)

    def test_divergence_of_gradient_sums_to_zero(self):
        grid = GridSpec(1, 64)
        f = sampled(grid, lambda x: np.sin(TWO_PI * x))
        div = divergence_arrays(gradient_arrays(f), grid)
        assert abs(np.sum(div)) < 1e-12

    def test_rotational_field_is_divergence_free(self):
        grid = GridSpec(2, 32)
        x, y = mesh(grid)
        Fx = -TWO_PI * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
        Fy = TWO_PI * np.cos(TWO_PI * x) * np.sin(TWO_PI * y)
        div = divergence_arrays([Fx, Fy], grid)
        assert np.max(np.abs(div)) <= 100.0 * grid.h**2
        assert abs(np.sum(div)) < 1e-10


class TestLaplacian:
    def test_constant_gives_zero(self):
        grid = GridSpec(1, 32)
        assert np.all(laplacian_array(constant_field(grid, 5.0).values, grid) == 0.0)

    def test_cosine_converges_at_second_order(self):
        errs = []
        for n in (32, 64, 128):
            grid = GridSpec(1, n)
            f = sampled(grid, lambda x: np.cos(TWO_PI * x))
            exact = -(TWO_PI**2) * np.cos(TWO_PI * mesh(grid)[0])
            errs.append(np.max(np.abs(laplacian_array(f.values, grid) - exact)))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(p >= 1.9 for p in orders)

    def test_sums_to_zero(self):
        grid = GridSpec(2, 16)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.size)
        assert abs(np.sum(laplacian_array(f, grid))) < 1e-10


class TestQuadrature:
    def test_unit_torus_volume(self):
        for grid in (GridSpec(1, 32), GridSpec(2, 16)):
            assert integral(grid, constant_field(grid, 1.0).values) == pytest.approx(1.0, abs=1e-14)

    def test_pure_harmonic_integrates_away(self):
        grid = GridSpec(1, 64)
        f = sampled(grid, lambda x: 1.0 + 0.3 * np.cos(TWO_PI * x))
        assert integral(grid, f.values) == pytest.approx(1.0, abs=1e-13)

    def test_inverse_square_against_simpson_oracle(self):
        # integral of (1 + 0.5 cos(2 pi x))^-2 equals (1 - 0.25)^{-3/2}
        grid = GridSpec(1, 64)
        f = sampled(grid, lambda x: (1.0 + 0.5 * np.cos(TWO_PI * x)) ** -2.0)
        oracle = simpson(lambda x: (1.0 + 0.5 * np.cos(TWO_PI * x)) ** -2.0)
        assert oracle == pytest.approx(1.539600717839002, abs=1e-9)
        assert integral(grid, f.values) == pytest.approx(oracle, abs=1e-6)


class TestAdjointness:
    @pytest.mark.parametrize("grid", [GridSpec(1, 64), GridSpec(2, 16)])
    def test_centered_difference_is_skew_adjoint(self, grid):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        for ax in range(grid.dim):
            df = (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2 * grid.h)
            dg = (np.roll(g, -1, axis=ax) - np.roll(g, 1, axis=ax)) / (2 * grid.h)
            lhs = np.sum(df * g)
            rhs = -np.sum(f * dg)
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))

    @pytest.mark.parametrize("grid", [GridSpec(1, 64), GridSpec(2, 16)])
    def test_divergence_is_negative_adjoint_of_gradient(self, grid):
        rng = np.random.default_rng(13)
        F = [rng.standard_normal(grid.shape) for _ in range(grid.dim)]
        g = Field(grid, rng.standard_normal(grid.size))
        lhs = np.sum(divergence_arrays(F, grid) * g.reshaped())
        rhs = -sum(np.sum(c * d) for c, d in zip(F, gradient_arrays(g)))
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert abs(np.sum(divergence_arrays(F, grid))) < 1e-10

    def test_compact_laplacian_pairs_with_forward_differences(self):
        # <-lap(v), f> = sum_i <D+ v, D+ f> exactly: the summation-by-parts form
        grid = GridSpec(2, 16)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(grid.shape)
        f = rng.standard_normal(grid.shape)
        lhs = -np.sum(laplacian_array(v, grid) * f)
        rhs = sum(
            np.sum(forward_diff(v, ax, grid.h) * forward_diff(f, ax, grid.h))
            for ax in range(grid.dim)
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestConsistencyOrders:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_first_derivative_order(self, dim):
        errs = []
        for n in (16, 32, 64):
            grid = GridSpec(dim, n)
            xs = mesh(grid)
            f = Field(grid, np.broadcast_to(np.sin(TWO_PI * xs[0]), grid.shape).ravel().copy())
            exact = TWO_PI * np.cos(TWO_PI * xs[0])
            err = np.max(np.abs(gradient_arrays(f)[0] - exact))
            errs.append(err)
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(p >= 1.9 for p in orders)

    def test_divergence_order(self):
        errs = []
        for n in (16, 32, 64):
            grid = GridSpec(2, n)
            x, y = mesh(grid)
            F = [np.sin(TWO_PI * x) * np.cos(TWO_PI * y), np.cos(TWO_PI * x) * np.sin(TWO_PI * y)]
            exact = 2 * TWO_PI * np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
            errs.append(np.max(np.abs(divergence_arrays(F, grid) - exact)))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(p >= 1.9 for p in orders)


def roll_diff(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def roll_second_diff(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - 2.0 * arr + np.roll(arr, 1, axis=axis)) / (h * h)


class TestStencilsMatchRollDefinition:
    """The index-array shifts give the same bits as the np.roll form of each stencil."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 9, 48])
    def test_bit_identical(self, dim, n):
        grid = GridSpec(dim, n)
        rng = np.random.default_rng(n + dim)
        arr, other = rng.standard_normal((2,) + grid.shape)
        h = grid.h
        for ax in range(dim):
            assert np.array_equal(_diff(arr, ax, h), roll_diff(arr, ax, h))
            assert np.array_equal(_second_diff(arr, ax, h), roll_second_diff(arr, ax, h))
        grads = gradient_arrays(Field(grid, arr))
        assert all(np.array_equal(g, roll_diff(arr, ax, h)) for ax, g in enumerate(grads))
        comps = [arr, other][:dim]
        div = np.zeros(grid.shape)
        lap = np.zeros(grid.shape)
        for ax in range(dim):
            div += roll_diff(comps[ax], ax, h)
            lap += roll_second_diff(arr, ax, h)
        assert np.array_equal(divergence_arrays(comps, grid), div)
        assert np.array_equal(laplacian_array(arr, grid), lap)


class TestOperatorMatrices:
    @pytest.mark.parametrize("grid", [GridSpec(1, 32), GridSpec(2, 12)])
    def test_matrices_match_stencil_operators(self, grid):
        rng = np.random.default_rng(23)
        f = Field(grid, rng.standard_normal(grid.size))
        for ax in range(grid.dim):
            assert diff_matrix(grid, ax) @ f.values == pytest.approx(
                gradient_arrays(f)[ax].ravel(), abs=1e-12
            )
        assert laplacian_matrix(grid) @ f.values == pytest.approx(
            laplacian_array(f.values, grid).ravel(), abs=1e-9
        )

    @pytest.mark.parametrize("n", [8, 9, 48])
    def test_1d_matrices_equal_tridiagonal_plus_corners(self, n):
        grid = GridSpec(1, n)
        h = grid.h
        i = np.arange(n)
        diff = np.zeros((n, n))
        diff[i, (i + 1) % n] = 1.0 / (2.0 * h)
        diff[i, (i - 1) % n] = -1.0 / (2.0 * h)
        lap = np.zeros((n, n))
        lap[i, i] = -2.0 / (h * h)
        lap[i, (i + 1) % n] = 1.0 / (h * h)
        lap[i, (i - 1) % n] = 1.0 / (h * h)
        assert diff[0, n - 1] != 0.0 and lap[n - 1, 0] != 0.0  # the periodic corners
        for got, ref in ((diff_matrix(grid, 0), diff), (laplacian_matrix(grid), lap)):
            assert got.nnz == np.count_nonzero(ref)
            assert np.array_equal(got.toarray(), ref)


class TestFieldFiles:
    def test_roundtrip_1d(self, tmp_path):
        grid = GridSpec(1, 16)
        rng = np.random.default_rng(3)
        f = Field(grid, rng.standard_normal(grid.size))
        path = tmp_path / "f.csv"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == grid
        np.testing.assert_array_equal(g.values, f.values)  # 17 sig digits round-trip float64

    def test_roundtrip_2d(self, tmp_path):
        grid = GridSpec(2, 8)
        rng = np.random.default_rng(4)
        f = Field(grid, rng.standard_normal(grid.size))
        path = tmp_path / "f.csv"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == grid
        np.testing.assert_array_equal(g.values, f.values)
        header = path.read_text().splitlines()[0]
        assert header == "# n=8 dim=2"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError):
            load_field(path)
