"""Uniform interior grid on the unit square and the finite-difference toolbox.

Fields live on the n x n interior nodes of (0,1)^2 with spacing
h = 1/(n+1). Scalar quantities carried here (stream function, vorticity,
potential vorticity) vanish on the walls, so differential stencils extend
them by a zero ghost ring. ``values[i, j]`` samples the point
(x1, x2) = ((i+1)h, (j+1)h): axis 0 is x1, axis 1 is x2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import dstn as _fft_dstn
from scipy.sparse.linalg import LinearOperator, cg


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class SolverDivergenceError(RuntimeError):
    """An elliptic solve failed to reach its residual tolerance."""


@dataclass(frozen=True)
class Grid:
    """Interior nodes of the unit square: n_interior per axis, h = 1/(n_interior+1)."""

    n_interior: int

    def __post_init__(self):
        if self.n_interior < 3:
            raise ValueError(f"n_interior must be >= 3, got {self.n_interior}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_interior, self.n_interior)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) of interior node coordinates, x1 along axis 0."""
        x = np.arange(1, self.n_interior + 1) * self.h
        return np.meshgrid(x, x, indexing="ij")


def _frozen(values, shape) -> np.ndarray:
    a = np.array(values, dtype=np.float64, order="C")
    if a.shape != shape:
        raise ValueError(f"values shape {a.shape} does not match grid {shape}")
    if not np.isfinite(a).all():
        raise ValueError("field contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField2D:
    """Scalar samples on the interior grid; boundary value implied zero."""

    grid: Grid
    values: np.ndarray
    boundary_rule: str = "dirichlet_zero"

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.grid.shape))
        if self.boundary_rule != "dirichlet_zero":
            raise ValueError(f"unsupported boundary rule {self.boundary_rule!r}")


@dataclass(frozen=True)
class VectorField2D:
    """Two-component field on the interior grid.

    ``divergence_free`` is set by constructions that guarantee it
    (velocity_from_stream); ``stream`` then carries the generating stream
    function, which the advection operator requires.
    """

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    divergence_free: bool = False
    stream: ScalarField2D | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u1", _frozen(self.u1, self.grid.shape))
        object.__setattr__(self, "u2", _frozen(self.u2, self.grid.shape))
        if self.stream is not None and self.stream.grid != self.grid:
            raise GridMismatchError("stream function lives on a different grid")


def same_grid(*fields) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError(f"grids differ: {g} vs {f.grid}")
    return g


# ---------------------------------------------------------------------------
# array-level stencils (zero Dirichlet ghost ring)

def pad0(v: np.ndarray) -> np.ndarray:
    p = np.zeros((v.shape[0] + 2, v.shape[1] + 2), dtype=v.dtype)
    p[1:-1, 1:-1] = v
    return p


def lap5(v: np.ndarray, h: float) -> np.ndarray:
    """Standard 5-point Laplacian with zero ghost values."""
    p = pad0(v)
    return (
        p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * v
    ) / (h * h)


def d1c(v: np.ndarray, h: float) -> np.ndarray:
    """Centered d/dx1 with zero ghosts."""
    p = pad0(v)
    return (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h)


def d2c(v: np.ndarray, h: float) -> np.ndarray:
    """Centered d/dx2 with zero ghosts."""
    p = pad0(v)
    return (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h)


def arakawa(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Arakawa Jacobian J(a,b) ~ da/dx1 db/dx2 - da/dx2 db/dx1.

    Zero ghost ring on both arguments. The induced trilinear form
    sum(c * J(a,b)) is exactly antisymmetric in every argument pair, which
    is what the conservation and transposition contracts rely on.
    """
    ap, bp = pad0(a), pad0(b)
    aE, aW = ap[2:, 1:-1], ap[:-2, 1:-1]
    aN, aS = ap[1:-1, 2:], ap[1:-1, :-2]
    aNE, aNW = ap[2:, 2:], ap[:-2, 2:]
    aSE, aSW = ap[2:, :-2], ap[:-2, :-2]
    # every difference of b the stencil takes (bN - bS, bNE - bSE, bN - bE, ...)
    # is a shifted slice of one of these four, with the same two operands
    dx = bp[2:] - bp[:-2]  # b(i+1, j) - b(i-1, j)
    dy = bp[:, 2:] - bp[:, :-2]  # b(i, j+1) - b(i, j-1)
    up = bp[1:, 1:] - bp[:-1, :-1]  # b(i+1, j+1) - b(i, j)
    dn = bp[:-1, 1:] - bp[1:, :-1]  # b(i, j+1) - b(i+1, j)

    j1 = (aE - aW) * dy[1:-1] - (aN - aS) * dx[:, 1:-1]
    j2 = aE * dy[2:] - aW * dy[:-2] - aN * dx[:, 2:] + aS * dx[:, :-2]
    j3 = aNE * dn[1:, 1:] - aSW * dn[:-1, :-1] - aNW * up[:-1, 1:] + aSE * up[1:, :-1]
    return (j1 + j2 + j3) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# spectral (DST-I) elliptic solves

@lru_cache(maxsize=32)
def _neg_lap_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues of -lap5 on the n x n interior grid: all positive."""
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    lam = (4.0 / (h * h)) * np.sin(k * np.pi * h / 2.0) ** 2
    return _read_only(lam[:, None] + lam[None, :])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# S takes at most 8 MB; beyond this the O(n^3) product gains at most about
# 1.6x even where the FFT falls back to Bluestein's algorithm (n+1 prime)
_MATRIX_MAX_N = 1024


def _sum_of_prime_factors(n: int) -> int:
    """Prime factors of n summed with multiplicity: 12 -> 2 + 2 + 3."""
    total, f = 0, 2
    while f * f <= n:
        while n % f == 0:
            total, n = total + f, n // f
        f += 1
    return total + (n if n > 1 else 0)


@lru_cache(maxsize=16)
def _dst_matrix(n: int) -> np.ndarray | None:
    """Read-only DST-I matrix S[k, l] = 2 sin(pi (k+1)(l+1) / (n+1)), or None
    where scipy's FFT is the faster transform of length n.

    scipy runs a DST-I of length n as a mixed-radix FFT of length 2(n+1),
    whose radix-p passes cost about p per point each; S @ v costs n per
    point, but each of those is about ten times cheaper. So the matrix is
    taken while n < 10 * (sum of the prime factors of n+1): on every grid
    below 128 and wherever n+1 has a large prime factor (timed crossover,
    one BLAS thread).
    """
    if n > _MATRIX_MAX_N or n >= 10 * _sum_of_prime_factors(n + 1):
        return None
    k = np.arange(1, n + 1)
    kl = np.outer(k, k) % (2 * (n + 1))
    return _read_only(2.0 * np.sin(np.pi / (n + 1) * kl))


def dstn(x: np.ndarray, type: int = 1, axes=None) -> np.ndarray:
    """Unnormalized DST-I over the last two axes, as scipy.fft.dstn(x, type=1).

    A 2-D input takes axes=None; a stacked (..., n, n) input takes
    axes=(-2, -1) and broadcasts. Dense sine-matrix products S @ x @ S where
    they beat the FFT (see _dst_matrix), scipy's FFT elsewhere.
    """
    x = np.asarray(x)
    if type != 1:
        raise ValueError(f"only the DST-I is implemented, got type={type}")
    axes = tuple(range(x.ndim)) if axes is None else tuple(axes)
    if x.ndim < 2 or axes not in ((-2, -1), (x.ndim - 2, x.ndim - 1)):
        raise ValueError(f"DST-I runs over the last two axes of an array, got axes={axes}")
    s0, s1 = _dst_matrix(x.shape[-2]), _dst_matrix(x.shape[-1])
    if s0 is None or s1 is None:
        return _fft_dstn(x, type=1, axes=(-2, -1))
    return s0 @ x @ s1


def dst_symbol(values: np.ndarray) -> np.ndarray:
    """Read-only apply_symbol symbol: values on the DST-I modes, inverse scale folded in."""
    return _read_only(values / (2.0 * (values.shape[-1] + 1)) ** 2)


def apply_symbol(v: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Diagonal DST-I operator: one forward transform, one inverse. A (2, n, n)
    symbol gives the stack of both operators from a single batched inverse."""
    return dstn(dstn(v, type=1) * symbol, type=1, axes=(-2, -1))


def _dst_divide(v: np.ndarray, denom: np.ndarray) -> np.ndarray:
    return dstn(dstn(v, type=1) / denom, type=1) / (2.0 * (v.shape[0] + 1)) ** 2


def poisson_solve_values(
    omega: np.ndarray, h: float, method: str = "dst", maxiter: int | None = None
) -> np.ndarray:
    """Solve -lap5(psi) = omega with zero Dirichlet boundary."""
    n = omega.shape[0]
    if method == "dst":
        return _dst_divide(omega, _neg_lap_eigenvalues(n))
    if method == "cg":
        return _cg_solve(omega, h, a=None, maxiter=maxiter)
    raise ValueError(f"unknown elliptic method {method!r}")


def helmholtz_solve_values(
    rhs: np.ndarray, a: float, h: float, method: str = "dst", maxiter: int | None = None
) -> np.ndarray:
    """Solve (I - a*lap5) f = rhs with zero Dirichlet boundary, a > 0."""
    if not 0 < a < math.inf:
        raise ValueError(f"helmholtz coefficient must be positive and finite, got {a}")
    n = rhs.shape[0]
    if method == "dst":
        return _dst_divide(rhs, 1.0 + a * _neg_lap_eigenvalues(n))
    if method == "cg":
        return _cg_solve(rhs, h, a=a, maxiter=maxiter)
    raise ValueError(f"unknown elliptic method {method!r}")


def _cg_solve(rhs: np.ndarray, h: float, a: float | None, maxiter: int | None = None) -> np.ndarray:
    """Conjugate-gradient fallback; relative residual 1e-11, cap 10*n^2."""
    n = rhs.shape[0]
    if maxiter is None:
        maxiter = 10 * n * n

    def matvec(x):
        v = x.reshape(n, n)
        if a is None:
            out = -lap5(v, h)
        else:
            out = v - a * lap5(v, h)
        return out.ravel()

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=np.float64)
    b = rhs.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(rhs)
    x, _info = cg(op, b, rtol=1e-13, atol=0.0, maxiter=maxiter)
    res = np.linalg.norm(matvec(x) - b) / bnorm
    if res > 1e-11:
        raise SolverDivergenceError(
            f"cg stalled at relative residual {res:.3e} (cap {maxiter} iterations)"
        )
    return x.reshape(n, n)


# ---------------------------------------------------------------------------
# field-level operations

def laplacian(f: ScalarField2D) -> ScalarField2D:
    """5-point Laplacian with zero Dirichlet ghosts."""
    return ScalarField2D(f.grid, lap5(f.values, f.grid.h))


def helmholtz_solve(
    rhs: ScalarField2D, a: float, method: str = "dst", maxiter: int | None = None
) -> ScalarField2D:
    """Invert (I - a*Laplacian) with zero Dirichlet boundary."""
    return ScalarField2D(
        rhs.grid, helmholtz_solve_values(rhs.values, a, rhs.grid.h, method, maxiter)
    )


def poisson_solve(
    omega: ScalarField2D, method: str = "dst", maxiter: int | None = None
) -> ScalarField2D:
    """Stream function recovery: solve -Laplacian(psi) = omega, psi = 0 on walls."""
    return ScalarField2D(
        omega.grid, poisson_solve_values(omega.values, omega.grid.h, method, maxiter)
    )


def velocity_from_stream(psi: ScalarField2D) -> VectorField2D:
    """y = (d2 psi, -d1 psi): divergence-free with zero normal trace."""
    h = psi.grid.h
    return VectorField2D(
        psi.grid,
        d2c(psi.values, h),
        -d1c(psi.values, h),
        divergence_free=True,
        stream=psi,
    )


def curl2d(v: VectorField2D) -> ScalarField2D:
    """Scalar curl d(v2)/dx1 - d(v1)/dx2 by centered differences."""
    h = v.grid.h
    return ScalarField2D(v.grid, d1c(v.u2, h) - d2c(v.u1, h))


def divergence(v: VectorField2D) -> ScalarField2D:
    """Centered discrete divergence (diagnostic for the divergence-free flag)."""
    h = v.grid.h
    return ScalarField2D(v.grid, d1c(v.u1, h) + d2c(v.u2, h))


def advect(y: VectorField2D, q: ScalarField2D) -> ScalarField2D:
    """Arakawa discretization of y . grad q for stream-function velocities.

    Requires y to carry its stream function (produced by
    velocity_from_stream); the conservation properties hold through the
    stream-function form J(q, psi).
    """
    same_grid(y, q)
    if not y.divergence_free or y.stream is None:
        raise ValueError(
            "advect requires a divergence-free velocity produced by velocity_from_stream"
        )
    return ScalarField2D(q.grid, arakawa(q.values, y.stream.values, q.grid.h))


def cross_quadrature(q: ScalarField2D, z: VectorField2D, phi: VectorField2D) -> float:
    """Quadrature of (q x z) . phi where q x z = q*(-z2, z1)."""
    g = same_grid(q, z, phi)
    h2 = g.h * g.h
    return float(h2 * np.sum(q.values * (z.u1 * phi.u2 - z.u2 * phi.u1)))
