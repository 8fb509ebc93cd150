"""Discrete inner products, Sobolev-type norms, and domain-constant machinery.

Norm stencils are difference quotients: centered in the interior, one-sided
at boundary-adjacent nodes (fields here need not vanish on the walls, only
their normal component does). The PDE stencils in ``grid`` use zero ghosts
instead; the two families are kept separate on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import (
    Grid,
    GridMismatchError,
    ScalarField2D,
    VectorField2D,
    curl_values,
    lap5,
    poisson_solve_values,
    same_grid,
    velocity_from_stream,
    velocity_values,
)

CONSTANT_NAMES = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")


def diff1(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First difference quotient: centered inside, one-sided at the edges."""
    out = np.empty_like(v)
    vm = v.swapaxes(axis, 0)
    om = out.swapaxes(axis, 0)
    om[1:-1] = (vm[2:] - vm[:-2]) / (2.0 * h)
    om[0] = (vm[1] - vm[0]) / h
    om[-1] = (vm[-1] - vm[-2]) / h
    return out


def _components(f) -> list[np.ndarray]:
    if isinstance(f, ScalarField2D):
        return [f.values]
    return [f.u1, f.u2]


def inner_l2(a, b) -> float:
    """Interior quadrature h^2 * sum(a*b); fields must share a grid and rank."""
    g = same_grid(a, b)
    ca, cb = _components(a), _components(b)
    if len(ca) != len(cb):
        raise GridMismatchError("cannot pair scalar with vector field")
    h2 = g.h * g.h
    return float(h2 * sum(np.sum(x * y) for x, y in zip(ca, cb)))


def norm_l2(f) -> float:
    return float(np.sqrt(inner_l2(f, f)))


def norm_hk(v, k: int) -> float:
    """Sobolev-type norm: sqrt of the sum over all derivative multi-indices
    of order <= k of the squared L2 norms of the difference quotients."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"k must be in 0..3, got {k}")
    g = v.grid
    h = g.h
    h2 = h * h
    total = 0.0
    for comp in _components(v):
        # derivs[(i, j)] = d1^i d2^j comp, built order by order (d1 first)
        derivs = {(0, 0): comp}
        for order in range(1, k + 1):
            for i in range(order + 1):
                j = order - i
                if i > 0:
                    derivs[(i, j)] = diff1(derivs[(i - 1, j)], h, 0)
                else:
                    derivs[(i, j)] = diff1(derivs[(i, j - 1)], h, 1)
        total += sum(h2 * np.sum(d * d) for d in derivs.values())
    return float(np.sqrt(total))


# input bytes per block of slices in stack_hk_sq; bounds its temporaries
_BLOCK_BYTES = 1 << 16


def stack_hk_sq(data: np.ndarray, h: float, k: int) -> np.ndarray:
    """Squared norm_hk of orders 0..k of every slice of an (m+1, 2, n, n) stack.

    Row j of the (k+1, m+1) result is norm_hk(slice, j)**2. The time axis is
    walked in blocks of about _BLOCK_BYTES of input, so the temporaries do
    not grow with m.
    """
    if k not in (0, 1, 2, 3):
        raise ValueError(f"k must be in 0..3, got {k}")
    out = np.empty((k + 1, data.shape[0]))
    step = max(1, _BLOCK_BYTES // max(1, data[0].nbytes))
    for s in range(0, data.shape[0], step):
        prev = [data[s : s + step]]
        b = prev[0].shape[0]
        acc = np.zeros(b)
        for order in range(k + 1):
            if order:
                # d1^i d2^(order-i), built from order-1 in norm_hk's sequence
                prev = [diff1(prev[0], h, -1)] + [diff1(d, h, -2) for d in prev]
            for d in prev:
                acc += h * h * (d * d).reshape(b, -1).sum(1)
            out[order, s : s + b] = acc
    return out


def sym_grad_sq(v: VectorField2D) -> float:
    """Squared L2 norm of the symmetric gradient D v."""
    h = v.grid.h
    d11 = diff1(v.u1, h, 0)
    d22 = diff1(v.u2, h, 1)
    d12 = 0.5 * (diff1(v.u2, h, 0) + diff1(v.u1, h, 1))
    h2 = h * h
    return float(h2 * (np.sum(d11 * d11) + np.sum(d22 * d22) + 2.0 * np.sum(d12 * d12)))


def grad_sq(v: VectorField2D) -> float:
    """Squared L2 norm of the full gradient (all four partials)."""
    h = v.grid.h
    h2 = h * h
    total = 0.0
    for comp in (v.u1, v.u2):
        for axis in (0, 1):
            d = diff1(comp, h, axis)
            total += h2 * np.sum(d * d)
    return float(total)


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

    def inner_l2(self, a, b) -> float:
        return inner_l2(a, b)

    def norm_hk(self, v, k: int) -> float:
        return norm_hk(v, k)

    def norm_V(self, v: VectorField2D) -> float:
        return norm_V(v, self.alpha)


# ---------------------------------------------------------------------------
# domain constants

@dataclass
class DomainConstants:
    """Constants of the a-priori estimates; provenance recorded per constant."""

    K: float = 1.0
    K_tilde: float = 1.0
    K_hat: float = 1.0
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    C4: float = 1.0
    source: dict = field(
        default_factory=lambda: {name: "default_unit" for name in CONSTANT_NAMES}
    )

    def __post_init__(self):
        for name in CONSTANT_NAMES:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"constant {name} must be positive and finite")
            self.source.setdefault(name, "default_unit")
            if self.source[name] not in ("user_supplied", "estimated", "default_unit"):
                raise ValueError(f"bad source for {name}: {self.source[name]!r}")

    @property
    def any_default(self) -> bool:
        return any(self.source[name] == "default_unit" for name in CONSTANT_NAMES)


def save_constants(path, dc: DomainConstants) -> None:
    with open(path, "w") as fh:
        fh.write("# domain constants\n")
        for name in CONSTANT_NAMES:
            fh.write(f"{name} = {getattr(dc, name):.17g}\n")
            fh.write(f"{name}_source = {dc.source[name]}\n")


def load_constants(path) -> DomainConstants:
    values: dict[str, float] = {}
    sources: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'name = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key.endswith("_source"):
                sources[key[: -len("_source")]] = val
            elif key in CONSTANT_NAMES:
                values[key] = float(val)
            else:
                raise ValueError(f"{path}:{lineno}: unknown constant {key!r}")
    dc = DomainConstants(**values)
    for name, src in sources.items():
        if name not in CONSTANT_NAMES:
            raise ValueError(f"unknown constant {name!r} in source entry")
        dc.source[name] = src
    # re-validate the sources that were just overwritten
    DomainConstants(**{n: getattr(dc, n) for n in CONSTANT_NAMES}, source=dict(dc.source))
    return dc


# ---------------------------------------------------------------------------
# random divergence-free sample fields (stream-function protocol)

def stream_from_coeffs(
    grid: Grid, coeffs: np.ndarray, profile: str = "sine"
) -> ScalarField2D:
    """Stream function sum_{kl} c_kl m_k(x1) m_l(x2) from mode coefficients.

    profile "sine": m_k = sin(k pi x) (free-slip samples);
    profile "squared_sine": m_k = sin^2(k pi x) (velocity vanishes on walls).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.arange(1, grid.n_interior + 1) * grid.h
    k = np.arange(1, coeffs.shape[0] + 1)
    l = np.arange(1, coeffs.shape[1] + 1)
    if profile == "sine":
        m1 = np.sin(np.pi * np.outer(k, x))
        m2 = np.sin(np.pi * np.outer(l, x))
    elif profile == "squared_sine":
        m1 = np.sin(np.pi * np.outer(k, x)) ** 2
        m2 = np.sin(np.pi * np.outer(l, x)) ** 2
    else:
        raise ValueError(f"unknown profile {profile!r}")
    values = m1.T @ coeffs @ m2
    return ScalarField2D(grid, values)


def random_velocity(
    grid: Grid,
    rng: np.random.Generator,
    n_modes: int = 8,
    profile: str = "sine",
    amplitude: float = 1.0,
) -> VectorField2D:
    coeffs = amplitude * rng.standard_normal((n_modes, n_modes))
    return velocity_from_stream(stream_from_coeffs(grid, coeffs, profile))


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


def check_inequality(kind: str, fields, constants: DomainConstants, alpha: float = 1.0) -> InequalityCheck:
    """Evaluate one of the a-priori inequalities with the given constants.

    kind "korn":      ||y||_H1^2         <= K * (||y||_2^2 + ||Dy||_2^2)
    kind "elliptic":  ||y||_H2^2         <= K~ * (||y||_2^2 + ||Ay||_2^2)
    kind "trilinear": |(curl(v(z)) x z, phi)| <= K^ * ||phi||_H2 * ||z||_H2^2
    """
    if kind == "korn":
        y = fields
        lhs = norm_hk(y, 1) ** 2
        rhs = constants.K * (inner_l2(y, y) + sym_grad_sq(y))
    elif kind == "elliptic":
        y = fields
        ay = apply_A(y)
        lhs = norm_hk(y, 2) ** 2
        rhs = constants.K_tilde * (inner_l2(y, y) + inner_l2(ay, ay))
    elif kind == "trilinear":
        from .state import nonlinear_term

        z, phi = fields
        lhs = abs(nonlinear_term(z, phi, alpha))
        rhs = constants.K_hat * norm_hk(phi, 2) * norm_hk(z, 2) ** 2
    else:
        raise ValueError(f"unknown inequality kind {kind!r}")
    return InequalityCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-12))


def _ratio_fn(kind: str, grid: Grid, alpha: float, n_modes: int):
    if kind == "korn":

        def ratio(c):
            y = velocity_from_stream(stream_from_coeffs(grid, c))
            l2 = inner_l2(y, y)
            return (l2 + grad_sq(y)) / (l2 + sym_grad_sq(y))

        shape = (n_modes, n_modes)
    elif kind == "elliptic":

        def ratio(c):
            y = velocity_from_stream(stream_from_coeffs(grid, c))
            ay = apply_A(y)
            return norm_hk(y, 2) ** 2 / (inner_l2(y, y) + inner_l2(ay, ay))

        shape = (n_modes, n_modes)
    elif kind == "trilinear":
        from .state import nonlinear_term

        def ratio(c):
            z = velocity_from_stream(stream_from_coeffs(grid, c[0]))
            phi = velocity_from_stream(stream_from_coeffs(grid, c[1]))
            denom = norm_hk(phi, 2) * norm_hk(z, 2) ** 2
            if denom == 0.0:
                return 0.0
            return abs(nonlinear_term(z, phi, alpha)) / denom

        shape = (2, n_modes, n_modes)
    else:
        raise ValueError(f"unknown constant kind {kind!r}")
    return ratio, shape


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
    running maximum of the Rayleigh-type ratio. Sample i is seeded by
    (seed, i), so estimates are deterministic and nondecreasing in `samples`.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ratio, shape = _ratio_fn(kind, grid, alpha, n_modes)
    best = -np.inf
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        c = rng.standard_normal(shape)
        r = ratio(c)
        best = max(best, r)
        sigma = 0.3
        for _ in range(ascent_steps):
            prop = c + sigma * rng.standard_normal(shape)
            rp = ratio(prop)
            if rp > r:
                r, c = rp, prop
                best = max(best, r)
            sigma *= 0.95
    return float(best)


def sample_field(kind: str, index: int, seed: int, *, grid: Grid, n_modes: int = 8):
    """The i-th raw sample of the estimator protocol (before hill climb).

    Returns the field(s) the estimator started sample `index` from; used to
    check the inequalities on the exact family the estimate came from.
    """
    rng = np.random.default_rng([seed, index])
    if kind == "trilinear":
        c = rng.standard_normal((2, n_modes, n_modes))
        z = velocity_from_stream(stream_from_coeffs(grid, c[0]))
        phi = velocity_from_stream(stream_from_coeffs(grid, c[1]))
        return z, phi
    c = rng.standard_normal((n_modes, n_modes))
    return velocity_from_stream(stream_from_coeffs(grid, c))


def solenoidal_projection_values(u1: np.ndarray, u2: np.ndarray, h: float):
    """Array-level canonical divergence-free representative of (u1, u2).

    Keeps exactly the part the curl sees: stream = solve(-lap, curl u),
    then differentiates back.
    """
    return velocity_values(poisson_solve_values(curl_values(u1, u2, h), h), h)
