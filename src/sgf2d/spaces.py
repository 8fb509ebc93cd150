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
    _check_count,
    _check_one_of,
    _check_real,
    _time_blocks,
    Grid,
    GridMismatchError,
    ScalarField2D,
    VectorField2D,
    curl_upsilon_values,
    curl_values,
    d1c,
    d2c,
    lap5,
    nonlinear_values,
    poisson_solve_values,
    same_grid,
    slice_sums,
    velocity_from_stream,
    velocity_values,
)

CONSTANT_NAMES = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")

N_MODES = 8  # sine modes per axis of the span each constant is estimated over


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
    _check_real(alpha, "alpha", positive=False)
    return float(np.sqrt(inner_l2(v, v) + 2.0 * alpha * sym_grad_sq(v)))


@dataclass(frozen=True)
class NormSuite:
    """Grid plus the viscoelastic parameter: bundles the alpha-weighted norms
    of fields on that grid; a field on another grid is refused."""

    grid: Grid
    alpha: float

    def __post_init__(self):
        _check_real(self.alpha, "alpha")

    def norm_hk(self, v, k: int) -> float:
        same_grid(self, v)
        return norm_hk(v, k)

    def norm_V(self, v: VectorField2D) -> float:
        same_grid(self, v)
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
        source = _full_source(self.source)
        for name in CONSTANT_NAMES:
            _check_real(getattr(self, name), f"constant {name}")
        object.__setattr__(self, "source", MappingProxyType(source))

    @property
    def any_default(self) -> bool:
        return _reads_default(self.source)


def _full_source(source: Mapping[str, str]) -> dict[str, str]:
    """A source map with every constant, "default_unit" where none is given:
    the rule of DomainConstants and of a certificate's source lines. An
    unknown constant or source is refused."""
    full = dict.fromkeys(CONSTANT_NAMES, "default_unit") | dict(source)
    for name, src in full.items():
        if name not in CONSTANT_NAMES:
            raise ValueError(f"unknown constant {name!r} in source")
        _check_one_of(src, ("user_supplied", "estimated", "default_unit"), f"source of {name}")
    return full


def _reads_default(source: Mapping[str, str]) -> bool:
    """Whether some constant of a source map reads "default_unit": the rule
    that makes a certificate illustrative."""
    return "default_unit" in source.values()


def save_constants(path, dc: DomainConstants) -> None:
    pairs = []
    for name in CONSTANT_NAMES:
        pairs += [(name, getattr(dc, name)), (f"{name}_source", dc.source[name])]
    with open(path, "w") as fh:
        fh.write(fieldio.pairs_text("# domain constants", pairs))


def load_constants(path) -> DomainConstants:
    """The constants of a save_constants file. A NAME line without its
    NAME_source line reads as "default_unit"; a NAME_source line without its
    NAME line is refused, so a unit default cannot be labelled otherwise."""
    values: dict[str, float] = {}
    sources: dict[str, tuple[str, str]] = {}
    with open(path) as fh:
        for where, _, key, val in fieldio.read_pairs(fh, path):
            name = key.removesuffix("_source")
            if name not in CONSTANT_NAMES:
                raise ValueError(f"{where}: unknown constant {key!r}")
            if name == key:
                values[name] = fieldio.typed_value(where, key, val, float)
            else:
                sources[name] = (where, val)
    for name, (where, _) in sources.items():
        if name not in values:
            raise ValueError(f"{where}: {name}_source without a {name} line")
    return DomainConstants(**values, source={n: v for n, (_, v) in sources.items()})


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
    bounds, on one field, or on a (z, phi) pair (a tuple or list) for
    "trilinear", and multiplies the right side by the constant. Any other
    number of fields, a field that is not a velocity carrying its stream
    function (velocity_from_stream, as the estimator's samples are), or an
    alpha that is negative or not finite raises ValueError before a stencil runs.
    """
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown inequality kind {kind!r}")
    _check_real(alpha, "alpha", positive=False)
    terms, n_fields, name = _INEQUALITIES[kind]
    given = f"a sequence of {len(fields)}" if isinstance(fields, (tuple, list)) else "one field"
    wanted = "one field" if n_fields == 1 else f"a sequence of {n_fields}"
    if given != wanted:
        raise ValueError(f"{kind} takes {wanted}, got {given}")
    fs = (fields,) if n_fields == 1 else tuple(fields)
    if any(not isinstance(f, VectorField2D) or f.stream is None for f in fs):
        raise ValueError("check_inequality requires velocities produced by velocity_from_stream")
    g = same_grid(*fs)
    psi = np.stack([f.stream.values for f in fs])
    lhs, rhs = terms(psi[0] if n_fields == 1 else psi, g.h, alpha)
    lhs, rhs = float(lhs), getattr(constants, name) * float(rhs)
    return _checked(lhs, rhs)


# the kinds whose terms are quadratic forms in the mode coefficients
_PENCIL_KINDS = ("korn", "elliptic")


def _gram(parts, h: float) -> np.ndarray:
    """h^2 * sum over parts of the Gram matrix of a part's values on the unit
    modes. A part is a list of terms (a, b), the (n, m) values of 1-D factors
    of the modes along x1 and x2: mode (k, l) takes the value
    sum a[i, k] b[j, l] at node (i, j), and its row is k*m + l, as in
    c.reshape(-1) of (k, l) coefficients."""
    return h * h * sum(np.kron(a.T @ a2, b.T @ b2) for part in parts for a, b in part for a2, b2 in part)


@lru_cache(maxsize=16)
def quadratic_pencil(kind: str, n_interior: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N, D), m^2 x m^2 for m = n_modes, with c N c and c D c the
    lhs and rhs terms of the korn or elliptic inequality on the stream
    function of the (k, l) mode coefficients c (flattened), up to roundoff.

    The terms square linear parts of the stream function: the velocity
    (d2 psi, -d1 psi) with zero ghosts, its diff1 partials, and for
    elliptic the velocity of lap5(psi). On a sine mode each part is a sum of
    products of 1-D factors, so the Grams come from n x m matrices and the
    build holds no (m^2, n, n) stack.
    """
    if kind not in _PENCIL_KINDS:
        raise ValueError(f"no quadratic pencil for kind {kind!r}")
    grid = Grid(n_interior)
    h = grid.h
    s = _sine_matrix(grid, n_modes).T
    e = diff1_matrix(n_interior)
    # centered difference and second difference with zero ghosts
    cen = (np.eye(n_interior, k=1) - np.eye(n_interior, k=-1)) / (2.0 * h)
    cs = cen @ s
    # the velocity y = (d2 psi, -d1 psi) and its partials d[a][c] = d_(a+1) y_(c+1)
    y = [[(s, cs)], [(-cs, s)]]
    d = [[[(e @ a, b) for a, b in yc] for yc in y], [[(a, e @ b) for a, b in yc] for yc in y]]
    if kind == "korn":
        # ||y||^2 + ||grad y||^2 over ||y||^2 + ||Dy||^2, with the off-diagonal
        # entry of Dy, (d2 y1 + d1 y2) / 2, counted twice
        sym = [(a / math.sqrt(2.0), b) for a, b in d[1][0] + d[0][1]]
        num = y + d[0] + d[1]
        den = y + [d[0][0], d[1][1], sym]
    else:
        # the H2 norm of y over ||y||^2 + ||Ay||^2, Ay the velocity of lap5(psi)
        lap = (np.eye(n_interior, k=1) + np.eye(n_interior, k=-1) - 2.0 * np.eye(n_interior)) / (h * h)
        ls = lap @ s
        ay = [[(ls, cs), (s, cen @ ls)], [(-cen @ ls, s), (-cs, ls)]]
        # the second partials d1 d2 y, d2 d2 y and d1 d1 y
        second = [[(a, e @ b) for a, b in part] for part in d[0] + d[1]] + [[(e @ a, b) for a, b in part] for part in d[0]]
        num = y + d[0] + d[1] + second
        den = y + ay
    pencil = _gram(num, h), _gram(den, h)
    for m in pencil:
        m.setflags(write=False)
    return pencil


def _check_sampling(kind: str, n_modes: int, seed: int) -> None:
    """ValueError unless kind is a key of _INEQUALITIES, n_modes an integer
    >= 1 and seed an integer >= 0."""
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown constant kind {kind!r}")
    _check_count(n_modes, "n_modes", 1)
    _check_count(seed, "seed", 0)


def _range_basis(matrix: np.ndarray) -> np.ndarray:
    """B = v / sqrt(w) over the eigenpairs of a symmetric PSD matrix with w above
    1e-12 of the largest (the rest is its null space): B.T M B = I, B B.T = M^+."""
    w, v = np.linalg.eigh(matrix)
    keep = w > 1e-12 * w[-1]
    return v[:, keep] / np.sqrt(w[keep])


def _pencil_sup(pencil: tuple[np.ndarray, np.ndarray]) -> float:
    """The largest c N c / c D c over c D c > 0: the top eigenvalue of N
    whitened by `_range_basis(D)`. For korn and elliptic c D c >= ||y||^2,
    so c D c = 0 only where the velocity vanishes, and there c N c = 0 too."""
    nm, dm = pencil
    b = _range_basis(dm)
    return float(np.linalg.eigvalsh(b.T @ nm @ b)[-1])


def _trilinear_sup(c: np.ndarray, grid: Grid, alpha: float, basis: np.ndarray) -> np.ndarray:
    """The sup over phi of the trilinear ratio at each z of (samples, k, l)
    mode coefficients c, 0 where z is 0: |basis.T b| / ||z||_H2^2.

    The zero-ghost centred differences are antisymmetric, so the lhs is
    |b . c_phi| with b = h^2 M g M^T, g = d1c(q z1) + d2c(q z2), q = curl
    upsilon(z), M the sine matrix; ||phi||_H2^2 = c_phi N c_phi for the
    elliptic pencil's N, and basis = `_range_basis(N)` (N c_phi = 0 only
    where phi's velocity and the lhs are 0). The product is stacked per
    sample, so a sample's bits do not depend on the stack.
    """
    h = grid.h
    m = _sine_matrix(grid, c.shape[-1])
    z1, z2 = velocity_values(stream_values(grid, c), h)
    q = curl_upsilon_values(z1, z2, alpha, h)
    b = h * h * (m @ (d1c(q * z1, h) + d2c(q * z2, h)) @ m.T)
    dual = np.linalg.norm(np.matmul(b.reshape(len(c), 1, -1), basis), axis=-1)[:, 0]
    zz = norm_hk_values((z1, z2), h, 2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zz == 0.0, 0.0, dual / zz)


def estimate_constant(
    kind: str,
    samples: int,
    seed: int,
    *,
    grid: Grid,
    alpha: float = 1.0,
    n_modes: int = N_MODES,
) -> float:
    """Lower bound on a discrete domain constant from the kind's ratio on
    the stream functions of the first n_modes x n_modes sine modes.

    For korn and elliptic the ratio is c N c / c D c of the kind's
    `quadratic_pencil` (N, D) in the mode coefficients c, so the sup over
    the modes is the pencil's top eigenvalue (`_pencil_sup`), the same for
    every samples and seed.

    For trilinear the estimate is the largest sup over phi (`_trilinear_sup`)
    at `samples` random z, standard normal mode coefficients seeded by
    (seed, i) as `sample_field`'s z, taken a block at a time; it is
    deterministic and nondecreasing in `samples`.

    An unknown kind, a count or seed that is not an integer, samples or
    n_modes below 1, a negative seed or a negative or non-finite alpha
    raises ValueError before any draw, and so does a best ratio not finite.
    """
    _check_count(samples, "samples", 1)
    _check_sampling(kind, n_modes, seed)
    _check_real(alpha, "alpha", positive=False)
    if kind in _PENCIL_KINDS:
        return _pencil_sup(quadratic_pencil(kind, grid.n_interior, n_modes))
    basis = _range_basis(quadratic_pencil("elliptic", grid.n_interior, n_modes)[0])
    best = -np.inf
    # a block holds about grid._BLOCK_BYTES of sample stream functions
    for b in _blocks(samples, grid.n_interior**2 * 8):
        rngs = (np.random.default_rng([seed, i]) for i in range(b.start, b.stop))
        c = np.stack([rng.standard_normal((n_modes, n_modes)) for rng in rngs])
        best = max(best, *_trilinear_sup(c, grid, alpha, basis).tolist())  # skips a NaN
    if not math.isfinite(best):
        raise ValueError(f"{kind} ratio is not finite at alpha={alpha}")
    return float(best)


def sample_field(kind: str, index: int, seed: int, *, grid: Grid, n_modes: int = N_MODES):
    """The i-th random field of the estimator protocol, as check_inequality
    takes it: for korn and elliptic one field of the mode span over which
    their estimates are exact; for trilinear a (z, phi) pair whose z is the
    estimator's sample `index`, so the estimate is at least its sup over phi.
    """
    _check_sampling(kind, n_modes, seed)
    _check_count(index, "index", 0)
    fields = _INEQUALITIES[kind][1]
    c = np.random.default_rng([seed, index]).standard_normal((fields, n_modes, n_modes))
    vs = tuple(velocity_from_stream(stream_from_coeffs(grid, ci)) for ci in c)
    return vs[0] if fields == 1 else vs


def solenoidal_projection_values(u1: np.ndarray, u2: np.ndarray, h: float):
    """Array-level canonical divergence-free representative of (u1, u2),
    slice by slice over the last two axes.

    Keeps exactly the part the curl sees: stream = solve(-lap, curl u),
    then differentiates back.
    """
    return velocity_values(poisson_solve_values(curl_values(u1, u2, h)), h)
