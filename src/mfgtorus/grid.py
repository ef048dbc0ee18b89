"""Discrete periodic torus: uniform grids, difference operators, quadrature.

All operators act on the unit torus [0,1)^d sampled at n points per axis.
First derivatives are centered differences, the Laplacian is the compact
(2d+1)-point stencil.  On a periodic grid the centered difference is exactly
skew-adjoint under the plain grid sum, which is what every discrete
integration-by-parts identity in the diagnostics relies on.  Note that the
compact Laplacian is *not* divergence(gradient(.)): the composition is the
wide stencil.  Identities that pair the Laplacian against a divergence
therefore hold at O(h^2), not machine precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# the most grid points n**dim: the largest array, the 2-D GMRES basis of 41 x 2 n**dim floats, is 0.7 GB there
MAX_POINTS = 2**20


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `n` points per axis on the unit torus, dim in {1, 2}."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if self.n**self.dim > MAX_POINTS:
            raise ValueError(f"n**dim must be at most {MAX_POINTS}, got {self.n}**{self.dim}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim


@dataclass(frozen=True)
class Field:
    """Real grid function, stored flat in row-major order (axis 0 slowest)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        if vals.size != self.grid.size:
            raise ValueError(f"expected {self.grid.size} values, got {vals.size}")
        if not np.isfinite(vals).all():
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def constant_field(grid: GridSpec, value: float) -> Field:
    return Field(grid, np.full(grid.size, float(value)))


def read_only(arr: np.ndarray) -> np.ndarray:
    """`arr`, flagged read-only: a cached array is shared by every later caller."""
    arr.setflags(write=False)  # half the cost of setting `arr.flags.writeable`, which builds a flags object
    return arr


@lru_cache(maxsize=64)
def mesh(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Coordinate arrays (one per axis), each of full grid shape."""
    axis = np.arange(grid.n) * grid.h
    return tuple(read_only(x) for x in np.meshgrid(*[axis] * grid.dim, indexing="ij"))


@lru_cache(maxsize=64)
def harmonics(grid: GridSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(cos(2 pi x_i), sin(2 pi x_i)) for each axis i, each of full grid shape."""
    return tuple((read_only(np.cos(2 * np.pi * x)), read_only(np.sin(2 * np.pi * x))) for x in mesh(grid))


# ---------------------------------------------------------------------------
# difference operators (periodic shifts by cached index arrays)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the next and the previous point on a periodic axis of n points."""
    idx = np.arange(n)
    return read_only((idx + 1) % n), read_only((idx - 1) % n)


def _shifted(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """`arr` at the next and at the previous point along `axis`."""
    nxt, prev = _neighbours(arr.shape[axis])
    return arr.take(nxt, axis), arr.take(prev, axis)


def _diff(arr: np.ndarray, axis: int, h: float, shifted=None) -> np.ndarray:
    nxt, prev = shifted or _shifted(arr, axis)
    return (nxt - prev) / (2.0 * h)


def _second_diff(arr: np.ndarray, axis: int, h: float, shifted=None) -> np.ndarray:
    nxt, prev = shifted or _shifted(arr, axis)
    return (nxt - 2.0 * arr + prev) / (h * h)


def gradient_arrays(f: Field) -> list[np.ndarray]:
    arr = f.reshaped()
    h = f.grid.h
    return [_diff(arr, ax, h) for ax in range(f.grid.dim)]


def gradient_and_laplacian(arr: np.ndarray, grid: GridSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """`gradient_arrays` and `laplacian_array` of `arr`, from one pair of `_shifted` copies per axis."""
    shifts = [_shifted(arr, ax) for ax in range(grid.dim)]
    grads = [_diff(arr, ax, grid.h, sh) for ax, sh in enumerate(shifts)]
    return grads, sum(_second_diff(arr, ax, grid.h, sh) for ax, sh in enumerate(shifts))


def divergence_arrays(comps: list[np.ndarray], grid: GridSpec) -> np.ndarray:
    return sum(_diff(c.reshape(grid.shape), ax, grid.h) for ax, c in enumerate(comps))


def laplacian_array(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    arr = arr.reshape(grid.shape)
    return sum(_second_diff(arr, ax, grid.h) for ax in range(grid.dim))


def interpolate(f: Field, grid: GridSpec) -> Field:
    """The trigonometric interpolant of `f` sampled on `grid`, whose n must be a multiple of f's.

    Per axis: the DFT of f's values, zero-padded to grid.n, with an even coarse n's Nyquist coefficient
    split evenly between +n/2 and -n/2 on a finer grid (an odd n has none), so the interpolant is real and
    passes through f's values at the shared points.
    """
    if grid.n % f.grid.n:
        raise ValueError(f"cannot interpolate from n = {f.grid.n} to n = {grid.n}, not a multiple of it")
    arr = f.reshaped()
    for ax in range(arr.ndim):
        coef = np.fft.rfft(arr, axis=ax, norm="forward")
        if f.grid.n % 2 == 0 and grid.n > f.grid.n:
            np.moveaxis(coef, ax, 0)[f.grid.n // 2] *= 0.5
        arr = np.fft.irfft(coef, grid.n, axis=ax, norm="forward")
    return Field(grid, arr)


def integral(grid: GridSpec, values: np.ndarray) -> float:
    """Trapezoid rule on the uniform periodic grid: h^dim times the plain sum."""
    return grid.h**grid.dim * float(values.sum())


def sup_norm(*fields: Field) -> float:
    """Largest absolute value over all the given fields."""
    return max(float(np.abs(f.values).max()) for f in fields)


# ---------------------------------------------------------------------------
# field file format
# ---------------------------------------------------------------------------


def save_field(f: Field, path) -> None:
    """CSV with header `# n=<n> dim=<dim>`; 17 significant digits.

    d=1: one value per line; d=2: one row of n comma-separated values per line.
    """
    header = f"n={f.grid.n} dim={f.grid.dim}"
    np.savetxt(path, f.reshaped(), fmt="%.17g", delimiter=",", header=header, comments="# ")


def load_field(path) -> Field:
    """Read a `save_field` file; a malformed one raises ValueError, a missing one OSError."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing field header")
        items = dict(part.split("=", 1) for part in header[1:].split() if "=" in part)
        if not {"n", "dim"} <= items.keys():
            raise ValueError("field header needs n=<n> and dim=<dim>")
        grid = GridSpec(dim=int(items["dim"]), n=int(items["n"]))
        with warnings.catch_warnings():  # no values at all: Field reports the count
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(fh, delimiter=",", ndmin=1)
    return Field(grid, values.reshape(-1))
