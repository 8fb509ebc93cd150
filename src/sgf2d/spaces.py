"""Discrete inner products, Sobolev-type norms, and domain-constant machinery.

Norm stencils are difference quotients: centered in the interior, one-sided
at boundary-adjacent nodes (fields here need not vanish on the walls, only
their normal component does). The PDE stencils in ``grid`` use zero ghosts
instead; the two families are kept separate on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import fieldio
from .grid import (
    _blocks,
    _time_blocks,
    Grid,
    GridMismatchError,
    ScalarField2D,
    VectorField2D,
    curl_values,
    lap5,
    nonlinear_values,
    poisson_solve_values,
    same_grid,
    slice_sums,
    velocity_from_stream,
    velocity_values,
)

CONSTANT_NAMES = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")


def diff1(v: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """First difference quotient along one of the last two axes of v:
    centered inside, one-sided at the edges.

    A non-contiguous v is copied to C order first. The result is written to
    out where one is given: a C-contiguous array of v's shape and dtype that
    does not overlap v.
    """
    v = np.ascontiguousarray(v)
    if out is None:
        out = np.empty_like(v)
    elif out.shape != v.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {v.shape}")
    axis %= v.ndim
    if axis < v.ndim - 2:
        raise ValueError(f"diff1 differences one of the last two axes, got axis {axis}")
    # Flattened, the neighbours of a node along the axis sit at offsets +-s.
    # One contiguous pass differences the whole stack at that offset; at the
    # two edge rows it straddles rows or slices, and those rows are then
    # overwritten with their one-sided differences.
    s = 1 if axis == v.ndim - 1 else v.shape[-1]
    vf, of = v.reshape(-1), out.reshape(-1)
    np.subtract(vf[2 * s:], vf[: vf.size - 2 * s], out=of[s: of.size - s])
    vm = v.swapaxes(axis, 0)
    om = out.swapaxes(axis, 0)
    np.subtract(vm[1], vm[0], out=om[0])
    np.subtract(vm[-1], vm[-2], out=om[-1])
    # doubling the two edge rows is exact and (2d)/(2h) rounds as d/h does, so
    # one contiguous pass divides every row (for h <= 1/2, 2d overflows only
    # where d/h does)
    om[:: om.shape[0] - 1] *= 2.0
    out /= 2.0 * h
    return out


@lru_cache(maxsize=16)
def diff1_matrix(n: int) -> np.ndarray:
    """Read-only n x n matrix D of diff1 on the n x n grid: D @ v and v @ D.T
    are diff1(v, h, -2) and diff1(v, h, -1) up to roundoff."""
    d = diff1(np.eye(n), Grid(n).h, -2)
    d.setflags(write=False)
    return d


def _components(f) -> list[np.ndarray]:
    if isinstance(f, ScalarField2D):
        return [f.values]
    return [f.u1, f.u2]


def inner_l2_values(ca, cb, h: float) -> np.ndarray:
    """inner_l2 of component lists of (..., n, n) arrays, one value per slice."""
    return h * h * sum(slice_sums(x * y) for x, y in zip(ca, cb))


def inner_l2(a, b) -> float:
    """Interior quadrature h^2 * sum(a*b); fields must share a grid and rank."""
    g = same_grid(a, b)
    ca, cb = _components(a), _components(b)
    if len(ca) != len(cb):
        raise GridMismatchError("cannot pair scalar with vector field")
    return float(inner_l2_values(ca, cb, g.h))


def _partials(v: np.ndarray, h: float, k: int):
    """Difference quotients of v, one (j+1, *v.shape) array per order j = 0..k.

    Part i of order j is d1^i d2^(j-i) v. Order j takes two diff1 calls on
    order j-1: d2 of its first part, then d1 of all its parts at once. k is
    checked on the call; the differences are taken as the orders are read.
    """
    if k not in (0, 1, 2, 3):
        raise ValueError(f"k must be in 0..3, got {k}")

    def next_order(prev, _):
        d = np.empty((prev.shape[0] + 1,) + prev.shape[1:], dtype=prev.dtype)
        diff1(prev[0], h, -1, out=d[0])
        diff1(prev, h, -2, out=d[1:])
        return d

    return accumulate(range(k), next_order, initial=v[None])


def norm_hk_values(comps, h: float, k: int) -> np.ndarray:
    """norm_hk of a component list of (..., n, n) arrays, one value per slice.

    The components are differenced as one stack and each order is reduced
    in one slice_sums call.
    """
    sq = np.concatenate([h * h * slice_sums(p * p) for p in _partials(np.stack(comps), h, k)])
    # sq is (part, component, ...); sum() adds rows left to right, so the
    # parts add up within each component, then the components, in turn
    return np.sqrt(sum(sum(sq)))


def norm_hk(v, k: int) -> float:
    """Sobolev-type norm: sqrt of the sum over all derivative multi-indices
    of order <= k of the squared L2 norms of the difference quotients."""
    return float(norm_hk_values(_components(v), v.grid.h, k))


def stack_hk_sq(data: np.ndarray, h: float, k: int) -> np.ndarray:
    """Squared norm_hk of orders 0..k of every slice of an (m+1, 2, n, n) stack.

    Row j of the (k+1, m+1) result is norm_hk(slice, j)**2. The time axis is
    walked in grid._time_blocks, so the temporaries do not grow with m.
    """
    blocks = []
    for s in _time_blocks(data):
        block = data[s]
        b = block.shape[0]
        sq = [(p * p).reshape(p.shape[0], b, -1).sum(-1) for p in _partials(block, h, k)]
        # running sums over the parts; order j ends at part j(j+3)/2
        acc = np.cumsum(h * h * np.concatenate(sq), axis=0)
        blocks.append(acc[[j * (j + 3) // 2 for j in range(k + 1)]])
    return np.concatenate(blocks, axis=1)


def _gradient_sq_values(u1: np.ndarray, u2: np.ndarray, h: float):
    """Squared L2 norms of the full gradient (all four partials) and of the
    symmetric gradient of a velocity given as two (..., n, n) arrays, one
    value per slice each, from the four first partials taken once."""
    _, d2_d1 = _partials(np.stack((u1, u2)), h, 1)
    d = d2_d1[::-1]  # d[a, c] = d_(a+1) u_(c+1)
    ss = slice_sums(d * d)
    hss = h * h * ss  # summed component by component: u1's partials, then u2's
    grad = hss[0, 0] + hss[1, 0] + hss[0, 1] + hss[1, 1]
    d12 = 0.5 * (d[0, 1] + d[1, 0])
    return grad, h * h * (ss[0, 0] + ss[1, 1] + 2.0 * slice_sums(d12 * d12))


def sym_grad_sq_values(u1: np.ndarray, u2: np.ndarray, h: float) -> np.ndarray:
    """sym_grad_sq of a velocity given as two (..., n, n) arrays, one value per slice."""
    return _gradient_sq_values(u1, u2, h)[1]


def sym_grad_sq(v: VectorField2D) -> float:
    """Squared L2 norm of the symmetric gradient D v."""
    return float(sym_grad_sq_values(v.u1, v.u2, v.grid.h))


def norm_V(v: VectorField2D, alpha: float) -> float:
    """sqrt(||v||_2^2 + 2*alpha*||Dv||_2^2)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return float(np.sqrt(inner_l2(v, v) + 2.0 * alpha * sym_grad_sq(v)))


@dataclass(frozen=True)
class NormSuite:
    """Grid plus the viscoelastic parameter: bundles the alpha-weighted norms."""

    grid: Grid
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def norm_hk(self, v, k: int) -> float:
        return norm_hk(v, k)

    def norm_V(self, v: VectorField2D) -> float:
        return norm_V(v, self.alpha)


# ---------------------------------------------------------------------------
# domain constants

@dataclass(frozen=True)
class DomainConstants:
    """Constants of the a-priori estimates; provenance recorded per constant
    in source, a read-only copy with "default_unit" where none is given."""

    K: float = 1.0
    K_tilde: float = 1.0
    K_hat: float = 1.0
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    C4: float = 1.0
    source: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        source = dict.fromkeys(CONSTANT_NAMES, "default_unit") | dict(self.source)
        for name in source:
            if name not in CONSTANT_NAMES:
                raise ValueError(f"unknown constant {name!r} in source")
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"constant {name} must be positive and finite")
            if source[name] not in ("user_supplied", "estimated", "default_unit"):
                raise ValueError(f"bad source for {name}: {source[name]!r}")
        object.__setattr__(self, "source", MappingProxyType(source))

    @property
    def any_default(self) -> bool:
        return any(self.source[name] == "default_unit" for name in CONSTANT_NAMES)


def save_constants(path, dc: DomainConstants) -> None:
    pairs = []
    for name in CONSTANT_NAMES:
        pairs += [(name, getattr(dc, name)), (f"{name}_source", dc.source[name])]
    with open(path, "w") as fh:
        fh.write(fieldio.pairs_text("# domain constants", pairs))


def load_constants(path) -> DomainConstants:
    values: dict[str, float] = {}
    sources: dict[str, str] = {}
    with open(path) as fh:
        for where, _, key, val in fieldio.read_pairs(fh, path):
            name = key.removesuffix("_source")
            if name not in CONSTANT_NAMES:
                raise ValueError(f"{where}: unknown constant {key!r}")
            if name == key:
                values[name] = fieldio.typed_value(where, key, val, float)
            else:
                sources[name] = val
    return DomainConstants(**values, source=sources)


# ---------------------------------------------------------------------------
# random divergence-free sample fields (stream-function protocol)

@lru_cache(maxsize=16)
def _sine_matrix(grid: Grid, modes: int) -> np.ndarray:
    """Read-only (modes, n) matrix of sin(k pi x) at the grid's interior nodes x."""
    x = np.arange(1, grid.n_interior + 1) * grid.h
    k = np.arange(1, modes + 1)
    m = np.sin(np.pi * np.outer(k, x))
    m.setflags(write=False)
    return m


def stream_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Values of sum_{kl} c_kl sin(k pi x1) sin(l pi x2) for (..., k, l) mode
    coefficients (free-slip samples)."""
    coeffs = np.asarray(coeffs, dtype=float)
    return _sine_matrix(grid, coeffs.shape[-2]).T @ coeffs @ _sine_matrix(grid, coeffs.shape[-1])


def stream_from_coeffs(grid: Grid, coeffs: np.ndarray) -> ScalarField2D:
    """Stream function of (k, l) sine-mode coefficients, as in stream_values."""
    return ScalarField2D(grid, stream_values(grid, coeffs))


def random_velocity(
    grid: Grid,
    rng: np.random.Generator,
    n_modes: int = 8,
    amplitude: float = 1.0,
) -> VectorField2D:
    coeffs = amplitude * rng.standard_normal((n_modes, n_modes))
    return velocity_from_stream(stream_from_coeffs(grid, coeffs))


# ---------------------------------------------------------------------------
# inequality machinery

def apply_A(y: VectorField2D) -> VectorField2D:
    """Projected Laplacian of a stream-function velocity.

    For y with stream psi the projected Laplacian is the velocity generated
    by lap(psi): the curl route makes the projector explicit, no solve is
    needed. Requires the stream function.
    """
    if y.stream is None:
        raise ValueError("apply_A requires a velocity produced by velocity_from_stream")
    g = y.grid
    return velocity_from_stream(ScalarField2D(g, lap5(y.stream.values, g.h)))


class InequalityCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _checked(lhs: float, rhs: float) -> InequalityCheck:
    """lhs <= rhs up to a relative roundoff slack of 1e-12."""
    return InequalityCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-12))


# Each a-priori inequality lhs <= C * rhs, written once: the terms map a stack
# of stream functions (..., n, n), or (..., 2, n, n) for the pair (z, phi) of
# the trilinear form, to the (lhs, rhs) values of their velocities.

def _korn_terms(psi: np.ndarray, h: float, alpha: float):
    # ||y||_H1^2 <= K (||y||^2 + ||Dy||^2)
    y = velocity_values(psi, h)
    l2 = inner_l2_values(y, y, h)
    grad, sym = _gradient_sq_values(*y, h)
    return l2 + grad, l2 + sym


def _elliptic_terms(psi: np.ndarray, h: float, alpha: float):
    # ||y||_H2^2 <= K~ (||y||^2 + ||Ay||^2); A y is the velocity of lap5(psi)
    y = velocity_values(psi, h)
    ay = velocity_values(lap5(psi, h), h)
    return norm_hk_values(y, h, 2) ** 2, inner_l2_values(y, y, h) + inner_l2_values(ay, ay, h)


def _trilinear_terms(psi: np.ndarray, h: float, alpha: float):
    # |(curl upsilon(z) x z, phi)| <= K^ ||phi||_H2 ||z||_H2^2
    u1, u2 = velocity_values(psi, h)
    norms = norm_hk_values((u1, u2), h, 2)
    z1, z2, p1, p2 = u1[..., 0, :, :], u2[..., 0, :, :], u1[..., 1, :, :], u2[..., 1, :, :]
    return np.abs(nonlinear_values(z1, z2, p1, p2, alpha, h)), norms[..., 1] * norms[..., 0] ** 2


# kind -> (terms, number of stream functions per sample, name of the constant)
_INEQUALITIES = {
    "korn": (_korn_terms, 1, "K"),
    "elliptic": (_elliptic_terms, 1, "K_tilde"),
    "trilinear": (_trilinear_terms, 2, "K_hat"),
}


def check_inequality(kind: str, fields, constants: DomainConstants, alpha: float = 1.0) -> InequalityCheck:
    """Evaluate one of the a-priori inequalities with the given constants.

    kind "korn":      ||y||_H1^2         <= K * (||y||_2^2 + ||Dy||_2^2)
    kind "elliptic":  ||y||_H2^2         <= K~ * (||y||_2^2 + ||Ay||_2^2)
    kind "trilinear": |(curl(v(z)) x z, phi)| <= K^ * ||phi||_H2 * ||z||_H2^2

    Evaluates the estimator's terms, the pair whose ratio estimate_constant
    climbs, on the field (a pair (z, phi) for "trilinear") and multiplies
    the right side by the constant. The fields must carry their stream
    functions (velocity_from_stream), as the estimator's samples do, and
    alpha must be finite.
    """
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    terms, n_fields, name = _INEQUALITIES[kind]
    fs = (fields,) if n_fields == 1 else tuple(fields)
    g = same_grid(*fs)
    if any(f.stream is None for f in fs):
        raise ValueError("check_inequality requires velocities produced by velocity_from_stream")
    psi = np.stack([f.stream.values for f in fs])
    lhs, rhs = terms(psi[0] if n_fields == 1 else psi, g.h, alpha)
    lhs, rhs = float(lhs), getattr(constants, name) * float(rhs)
    return _checked(lhs, rhs)


def _ratio(terms, c: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """The estimator's batched ratio lhs/rhs of an inequality's terms on the
    stream functions of (..., [2,] k, l) mode coefficients; 0 where rhs is."""
    lhs, rhs = terms(stream_values(grid, c), grid.h, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs == 0.0, 0.0, lhs / rhs)


def _check_sampling(kind: str, n_modes: int) -> None:
    """ValueError unless kind is a key of _INEQUALITIES and n_modes >= 1."""
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown constant kind {kind!r}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")


def estimate_constant(
    kind: str,
    samples: int,
    seed: int,
    *,
    grid: Grid,
    alpha: float = 1.0,
    n_modes: int = 8,
    ascent_steps: int = 50,
) -> float:
    """Empirical lower bound on a discrete domain constant.

    Draws `samples` random stream-function fields (standard normal mode
    coefficients), runs a short random hill climb on each, and returns the
    largest Rayleigh-type ratio reached. Sample i is seeded by (seed, i), so
    estimates are deterministic and nondecreasing in `samples`.

    The climbs run side by side, a block of samples at a time, with one
    batched ratio evaluation per step; the grid stencils and the `*_values`
    norm forms take the block as a leading batch axis, and the norms take
    their difference quotients in stacked passes. A sample's draws do not
    depend on whether its proposals are accepted, so each sample's start
    and steps come from one draw of its generator, which gives the normals
    of consecutive draws: each sample sees the same proposals, and the
    result the same bits, as a climb run on its own. An unknown kind,
    samples or n_modes below 1, negative ascent_steps or a non-finite alpha
    raises ValueError before any draw, and so does a best ratio that is not
    finite once the climbs end.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_sampling(kind, n_modes)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if ascent_steps < 0:
        raise ValueError(f"ascent_steps must be >= 0, got {ascent_steps}")
    terms, fields, _ = _INEQUALITIES[kind]
    shape = (n_modes, n_modes) if fields == 1 else (fields, n_modes, n_modes)
    best = -np.inf
    # a block holds about grid._BLOCK_BYTES of sample stream functions
    for b in _blocks(samples, fields * grid.n_interior**2 * 8):
        rngs = (np.random.default_rng([seed, i]) for i in range(b.start, b.stop))
        # (ascent_steps + 1, samples, *shape): each sample's start, then its steps
        draws = np.stack([rng.standard_normal((ascent_steps + 1,) + shape) for rng in rngs], axis=1)
        c = draws[0]
        r = _ratio(terms, c, grid, alpha)
        sigma = 0.3
        for step in draws[1:]:
            prop = c + sigma * step
            rp = _ratio(terms, prop, grid, alpha)
            up = rp > r
            r[up], c[up] = rp[up], prop[up]
            sigma *= 0.95
        # each r only rose; Python's max skips a NaN ratio as the running max did
        best = max(best, *r.tolist())
    if not math.isfinite(best):
        raise ValueError(f"{kind} ratio is not finite at alpha={alpha}")
    return float(best)


def sample_field(kind: str, index: int, seed: int, *, grid: Grid, n_modes: int = 8):
    """The i-th raw sample of the estimator protocol (before hill climb).

    Returns the field(s) the estimator started sample `index` from; used to
    check the inequalities on the exact family the estimate came from.
    """
    _check_sampling(kind, n_modes)
    rng = np.random.default_rng([seed, index])
    if kind == "trilinear":
        c = rng.standard_normal((2, n_modes, n_modes))
        z = velocity_from_stream(stream_from_coeffs(grid, c[0]))
        phi = velocity_from_stream(stream_from_coeffs(grid, c[1]))
        return z, phi
    c = rng.standard_normal((n_modes, n_modes))
    return velocity_from_stream(stream_from_coeffs(grid, c))


def solenoidal_projection_values(u1: np.ndarray, u2: np.ndarray, h: float):
    """Array-level canonical divergence-free representative of (u1, u2),
    slice by slice over the last two axes.

    Keeps exactly the part the curl sees: stream = solve(-lap, curl u),
    then differentiates back.
    """
    return velocity_values(poisson_solve_values(curl_values(u1, u2, h)), h)
