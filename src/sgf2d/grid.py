"""Uniform interior grid on the unit square and the finite-difference toolbox.

Fields live on the n x n interior nodes of (0,1)^2 with spacing
h = 1/(n+1). Scalar quantities carried here (stream function, vorticity,
potential vorticity) vanish on the walls, so differential stencils extend
them by a zero ghost ring. ``values[i, j]`` samples the point
(x1, x2) = ((i+1)h, (j+1)h): axis 0 is x1, axis 1 is x2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class SolverDivergenceError(RuntimeError):
    """An elliptic solve failed to reach its residual tolerance.

    Every elliptic solve is a direct DST-I division, so no solver raises this
    any more; the name stays exported for callers that catch it.
    """


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

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.grid.shape))


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
#
# Each stencil acts on the last two axes, so a (..., n, n) stack of fields
# gives every slice the same bits as a call on that slice alone.

def pad0(v: np.ndarray) -> np.ndarray:
    p = np.zeros(v.shape[:-2] + (v.shape[-2] + 2, v.shape[-1] + 2), dtype=v.dtype)
    p[..., 1:-1, 1:-1] = v
    return p


def lap5(v: np.ndarray, h: float) -> np.ndarray:
    """Standard 5-point Laplacian with zero ghost values."""
    p = pad0(v)
    return (
        p[..., 2:, 1:-1] + p[..., :-2, 1:-1] + p[..., 1:-1, 2:] + p[..., 1:-1, :-2] - 4.0 * v
    ) / (h * h)


def _d1_padded(p: np.ndarray, h: float) -> np.ndarray:
    return (p[..., 2:, 1:-1] - p[..., :-2, 1:-1]) / (2.0 * h)


def _d2_padded(p: np.ndarray, h: float) -> np.ndarray:
    return (p[..., 1:-1, 2:] - p[..., 1:-1, :-2]) / (2.0 * h)


def d1c(v: np.ndarray, h: float) -> np.ndarray:
    """Centered d/dx1 with zero ghosts."""
    return _d1_padded(pad0(v), h)


def d2c(v: np.ndarray, h: float) -> np.ndarray:
    """Centered d/dx2 with zero ghosts."""
    return _d2_padded(pad0(v), h)


def velocity_values(psi: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Velocity (d2 psi, -d1 psi) of a stream-function array, as two arrays:
    the bits of d2c and -d1c, from one padded copy of psi."""
    p = pad0(psi)
    return _d2_padded(p, h), -_d1_padded(p, h)


def curl_values(u1: np.ndarray, u2: np.ndarray, h: float) -> np.ndarray:
    """Scalar curl d1 u2 - d2 u1 of a velocity given as two arrays."""
    return d1c(u2, h) - d2c(u1, h)


def curl_upsilon_values(u1: np.ndarray, u2: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """(I - alpha*lap) curl of a velocity given as two arrays of shape (..., n, n)."""
    w = curl_values(u1, u2, h)
    return w - alpha * lap5(w, h)


# input bytes per block when a pass walks a stack of time slices. One call per
# block bounds the temporaries: at 63^2 x 100 a whole-stack curl, velocity or
# norm costs more in page faults (glibc maps and unmaps its large temporaries)
# than a call per slice, while small stacks stay one call
_BLOCK_BYTES = 1 << 16


@lru_cache(maxsize=64)
def _blocks(count: int, item_bytes: int) -> tuple:
    """Slices of range(count), in order, each about _BLOCK_BYTES of items of
    item_bytes, and at least one item; built once per (count, item_bytes)."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return tuple(slice(s, min(s + step, count)) for s in range(0, count, step))


def _time_blocks(a: np.ndarray) -> tuple:
    """Slices of a's leading axis, in order, each about _BLOCK_BYTES of a."""
    return _blocks(a.shape[0], a.itemsize * math.prod(a.shape[1:]))


def stack_pairs(f, a: np.ndarray, b: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """out[k] = f(a[k], b[k], h), one call per time block of about _BLOCK_BYTES of a and b."""
    for t in _blocks(out.shape[0], a[0].nbytes + b[0].nbytes):
        out[t] = f(a[t], b[t], h)
    return out


def stack_curl(u: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """out[k] = curl of the velocity u[k], one curl_values call per time block of u."""
    return stack_pairs(curl_values, u[:, 0], u[:, 1], h, out)


def stack_velocity(psi: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """out[k] = velocity of the stream function psi[k], one call per time block of psi."""
    for b in _time_blocks(psi):
        out[b, 0], out[b, 1] = velocity_values(psi[b], h)
    return out


def slice_sums(a: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, one slice at a time; a 2-D array gives np.sum(a)."""
    return a.reshape(a.shape[:-2] + (-1,)).sum(-1)


def cross_values(q, z1, z2, p1, p2, h: float) -> np.ndarray:
    """Quadrature of (q x z) . phi over the last two axes, from component arrays."""
    return h * h * slice_sums(q * (z1 * p2 - z2 * p1))


def nonlinear_values(z1, z2, p1, p2, alpha: float, h: float) -> np.ndarray:
    """The trilinear term (curl upsilon(z) x z, phi) of velocities given as
    component arrays, one value per (n, n) slice."""
    return cross_values(curl_upsilon_values(z1, z2, alpha, h), z1, z2, p1, p2, h)


class _ArakawaPlan:
    """Buffers and views for arakawa on operands of one shape and dtype.

    Both operands live in one zero-ringed buffer; a call overwrites only the
    interiors, so the ring stays zero. Flattened over the whole padded stack,
    node (i, j) sits at p = i*s + j and each neighbour is a contiguous slice
    at offset +-1, +-s or +-s+-1. Every interior node reaches only its own
    slice's ghost ring; the ghost nodes, computed along the way, are dropped.
    """

    def __init__(self, shape: tuple, dtype):
        s = shape[-1] + 2
        pads = np.zeros((2,) + shape[:-2] + (shape[-2] + 2, s), dtype=dtype)
        self.a_in, self.b_in = pads[0, ..., 1:-1, 1:-1], pads[1, ..., 1:-1, 1:-1]
        af, bf = pads[0].reshape(-1), pads[1].reshape(-1)
        lo, hi = s + 1, af.size - s - 1  # p over [lo, hi) covers every interior node
        size = hi - lo
        # every difference of b the stencil takes (bN - bS, bNE - bSE, bN - bE, ...)
        # is a shifted slice of one of these four, with the same two operands
        self.b_pairs = (
            (bf[2:], bf[:-2]),  # dy[p - 1] = b(i, j+1) - b(i, j-1)
            (bf[2 * s:], bf[: -2 * s]),  # dx[p - s] = b(i+1, j) - b(i-1, j)
            (bf[s + 1:], bf[: -s - 1]),  # up[p] = b(i+1, j+1) - b(i, j)
            (bf[1: af.size - s + 1], bf[s:]),  # dn[p] = b(i, j+1) - b(i+1, j)
        )
        self.diffs = dy, dx, up, dn = tuple(np.empty_like(x) for x, _ in self.b_pairs)

        def a_at(offset):
            return af[lo + offset: hi + offset]

        # aE, aW, aN, aS, aNE, aSW, aNW, aSE
        self.a_nbrs = tuple(a_at(o) for o in (s, -s, 1, -1, s + 1, -s - 1, 1 - s, s - 1))
        # bN - bS, bE - bW; bNE - bSE, bNW - bSW, bNE - bNW, bSE - bSW;
        # bN - bE, bW - bS, bN - bW, bE - bS
        self.b_diffs = (
            dy[s: s + size], dx[1: 1 + size],
            dy[2 * s:], dy[:size], dx[2:], dx[:size],
            dn[s + 1: s + 1 + size], dn[:size], up[1: 1 + size], up[s: s + size],
        )
        self.temps = tuple(np.empty_like(self.a_nbrs[0]) for _ in range(3))
        total = np.empty_like(pads[0])
        self.total_flat, self.interior = total.reshape(-1)[lo:hi], total[..., 1:-1, 1:-1]

    def __call__(self, a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
        self.a_in[...] = a
        self.b_in[...] = b
        for (x, y), d in zip(self.b_pairs, self.diffs):
            np.subtract(x, y, d)
        aE, aW, aN, aS, aNE, aSW, aNW, aSE = self.a_nbrs
        bN_S, bE_W, bNE_SE, bNW_SW, bNE_NW, bSE_SW, bN_E, bW_S, bN_W, bE_S = self.b_diffs
        j, t, j2 = self.temps
        # j1 = (aE - aW)(bN - bS) - (aN - aS)(bE - bW), then j2 and j3 term by
        # term, left to right; each pass writes into its third argument
        sub, mul, add = np.subtract, np.multiply, np.add
        mul(sub(aE, aW, j), bN_S, j)
        sub(j, mul(sub(aN, aS, t), bE_W, t), j)
        mul(aE, bNE_SE, j2)
        sub(j2, mul(aW, bNW_SW, t), j2)
        sub(j2, mul(aN, bNE_NW, t), j2)
        add(j2, mul(aS, bSE_SW, t), j2)
        add(j, j2, j)
        mul(aNE, bN_E, j2)
        sub(j2, mul(aSW, bW_S, t), j2)
        sub(j2, mul(aNW, bN_W, t), j2)
        add(j2, mul(aSE, bE_S, t), j2)
        add(j, j2, self.total_flat)
        return self.interior / (12.0 * h * h)


_ARAKAWA_PLANS_KEPT = 8


# keyed by thread: numpy releases the GIL inside ufuncs and Python switches
# threads between calls, so a plan shared by two live threads would mix their
# operands; a recycled ident can only reach the plan of a thread that has exited
@lru_cache(maxsize=_ARAKAWA_PLANS_KEPT)
def _arakawa_plan(thread: int, shape: tuple, a_dtype, b_dtype) -> _ArakawaPlan:
    """The kept arakawa plan of one thread for one operand shape and pair of dtypes."""
    return _ArakawaPlan(shape, np.result_type(a_dtype, b_dtype))


def arakawa(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Arakawa Jacobian J(a,b) ~ da/dx1 db/dx2 - da/dx2 db/dx1.

    Zero ghost ring on both arguments. The induced trilinear form
    sum(c * J(a,b)) is exactly antisymmetric in every argument pair, which
    is what the conservation and transposition contracts rely on.

    A call runs through an _ArakawaPlan for the operands' shape and dtype:
    the padded operands, the four differences of b, the neighbour slices
    and the temporaries are built once per plan, so a call copies a and b
    in and runs its arithmetic passes. The passes are the same ufuncs in
    the same order as a freshly padded copy would take, so the bits equal
    the np.pad form's (operands of two dtypes are taken in their common
    type). The result is a fresh C-contiguous array. _arakawa_plan keeps
    the _ARAKAWA_PLANS_KEPT most recently used plans of the whole process,
    keyed by thread, and only for operands of at most _BLOCK_BYTES (every
    call of a sweep's time-block passes and per-step loops up to 63^2): a
    larger operand's plan lives for its call only, so a whole-stack call
    pins no buffers.
    """
    if a.shape != b.shape:
        raise ValueError(f"arakawa operands differ in shape: {a.shape} vs {b.shape}")
    if a.nbytes > _BLOCK_BYTES:
        plan = _ArakawaPlan(a.shape, np.result_type(a.dtype, b.dtype))
    else:
        plan = _arakawa_plan(threading.get_ident(), a.shape, a.dtype, b.dtype)
    return plan(a, b, h)


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


def _fft_dstn(x: np.ndarray, type: int, axes: tuple) -> np.ndarray:
    """scipy.fft.dstn, with scipy.fft imported on the first call: about 0.4 s
    that no grid below n = 128 needs. Later calls find it in sys.modules, and
    the import lock makes the first one safe from any thread."""
    import scipy.fft

    return scipy.fft.dstn(x, type=type, axes=axes)


def dstn(x: np.ndarray, type: int = 1) -> np.ndarray:
    """Unnormalized DST-I over the last two axes of an (..., n, n) array, as
    scipy.fft.dstn(x, type=1, axes=(-2, -1)).

    Leading axes broadcast. Dense sine-matrix products S @ x @ S where they
    beat the FFT (see _dst_matrix), scipy's FFT elsewhere. scipy.fft is
    imported by the first transform that takes the FFT, so importing sgf2d,
    and every run on grids below n = 128, loads no scipy.
    """
    x = np.asarray(x)
    if type != 1:
        raise ValueError(f"only the DST-I is implemented, got type={type}")
    if x.ndim < 2:
        raise ValueError(f"DST-I runs over the last two axes of an array, got {x.ndim}-D")
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
    return dstn(dstn(v) * symbol)


@lru_cache(maxsize=32)
def _poisson_symbol(n: int) -> np.ndarray:
    """Symbol of (-lap5)^-1 on the n x n grid."""
    return dst_symbol(1.0 / _neg_lap_eigenvalues(n))


@lru_cache(maxsize=32)
def _helmholtz_symbol(n: int, a: float) -> np.ndarray:
    """Symbol of (I - a*lap5)^-1 on the n x n grid."""
    return dst_symbol(1.0 / (1.0 + a * _neg_lap_eigenvalues(n)))


def poisson_solve_values(omega: np.ndarray) -> np.ndarray:
    """Solve -lap5(psi) = omega with zero Dirichlet boundary, slice by slice
    over the last two axes."""
    return apply_symbol(omega, _poisson_symbol(omega.shape[-1]))


def helmholtz_solve_values(rhs: np.ndarray, a: float) -> np.ndarray:
    """Solve (I - a*lap5) f = rhs with zero Dirichlet boundary, a > 0, slice
    by slice over the last two axes."""
    if not 0 < a < math.inf:
        raise ValueError(f"helmholtz coefficient must be positive and finite, got {a}")
    return apply_symbol(rhs, _helmholtz_symbol(rhs.shape[-1], a))


# ---------------------------------------------------------------------------
# field-level operations

def laplacian(f: ScalarField2D) -> ScalarField2D:
    """5-point Laplacian with zero Dirichlet ghosts."""
    return ScalarField2D(f.grid, lap5(f.values, f.grid.h))


def helmholtz_solve(rhs: ScalarField2D, a: float) -> ScalarField2D:
    """Invert (I - a*Laplacian) with zero Dirichlet boundary."""
    return ScalarField2D(rhs.grid, helmholtz_solve_values(rhs.values, a))


def poisson_solve(omega: ScalarField2D) -> ScalarField2D:
    """Stream function recovery: solve -Laplacian(psi) = omega, psi = 0 on walls."""
    return ScalarField2D(omega.grid, poisson_solve_values(omega.values))


def velocity_from_stream(psi: ScalarField2D) -> VectorField2D:
    """y = (d2 psi, -d1 psi): divergence-free with zero normal trace."""
    y1, y2 = velocity_values(psi.values, psi.grid.h)
    return VectorField2D(psi.grid, y1, y2, divergence_free=True, stream=psi)


def curl2d(v: VectorField2D) -> ScalarField2D:
    """Scalar curl d(v2)/dx1 - d(v1)/dx2 by centered differences."""
    return ScalarField2D(v.grid, curl_values(v.u1, v.u2, v.grid.h))


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
