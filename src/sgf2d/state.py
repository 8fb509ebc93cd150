"""Forward solver for the viscoelastic flow in stream/vorticity variables.

State variable is the potential vorticity q = (I - alpha*lap) omega with
omega = -lap psi and velocity y = (d2 psi, -d1 psi). One step solves

    (I - (alpha + nu*dt) lap) omega_{n+1}
        = q_n + dt * (curl u_{n+1} - advect(y_n, q_n)),

then q_{n+1} = (I - alpha*lap) omega_{n+1}: diffusion implicit, advection
explicit. All inverses are the spectral solves from ``grid``, so each step
is an exactly linear (and exactly differentiable) map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import spaces
from .grid import (
    Grid,
    GridMismatchError,
    ScalarField2D,
    VectorField2D,
    _neg_lap_eigenvalues,
    apply_symbol,
    arakawa,
    cross_quadrature,
    curl2d,
    d1c,
    d2c,
    dst_symbol,
    helmholtz_solve_values,
    lap5,
    poisson_solve_values,
    same_grid,
)


class BlowUpError(RuntimeError):
    """The state left the representable range (NaN/Inf) at some step."""

    def __init__(self, step: int):
        super().__init__(f"solution blew up at step {step} (non-finite values)")
        self.step = step


# ---------------------------------------------------------------------------
# time quadrature weights on the m_steps+1 slice grid

def left_weights(m_steps: int, dt: float) -> np.ndarray:
    """Left-rectangle rule: weight dt on slices 0..m-1, zero on the last."""
    w = np.full(m_steps + 1, dt)
    w[-1] = 0.0
    return w


def trap_weights(m_steps: int, dt: float) -> np.ndarray:
    """Trapezoid rule: dt/2 on the end slices."""
    w = np.full(m_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced time sequence of fields on one grid.

    ``data`` has shape (m_steps+1, 2, n, n) for vector kinds and
    (m_steps+1, n, n) for scalar kinds.
    """

    grid: Grid
    dt: float
    kind: str
    data: np.ndarray

    _VECTOR_KINDS = ("velocity", "control", "adjoint", "tangent", "target")
    _SCALAR_KINDS = ("potential_vorticity", "vorticity", "stream")

    def __post_init__(self):
        n = self.grid.n_interior
        a = np.asarray(self.data, dtype=np.float64)
        if self.kind in self._VECTOR_KINDS:
            ok = a.ndim == 4 and a.shape[1:] == (2, n, n)
        elif self.kind in self._SCALAR_KINDS:
            ok = a.ndim == 3 and a.shape[1:] == (n, n)
        else:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if not ok or a.shape[0] < 2:
            raise ValueError(f"bad trajectory data shape {a.shape} for kind {self.kind!r}")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not np.isfinite(a).all():
            raise ValueError("trajectory contains non-finite entries")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def m_steps(self) -> int:
        return self.data.shape[0] - 1

    @property
    def is_vector(self) -> bool:
        return self.kind in self._VECTOR_KINDS

    def slice(self, k: int):
        if self.is_vector:
            return VectorField2D(self.grid, self.data[k, 0], self.data[k, 1])
        return ScalarField2D(self.grid, self.data[k])

    @property
    def slices(self) -> list:
        return [self.slice(k) for k in range(self.m_steps + 1)]

    @classmethod
    def zeros(cls, grid: Grid, m_steps: int, dt: float, kind: str = "control"):
        n = grid.n_interior
        shape = (m_steps + 1, 2, n, n) if kind in cls._VECTOR_KINDS else (m_steps + 1, n, n)
        return cls(grid, dt, kind, np.zeros(shape))

    @classmethod
    def from_fields(cls, fields, dt: float, kind: str):
        g = same_grid(*fields)
        if isinstance(fields[0], VectorField2D):
            data = np.stack([np.stack([f.u1, f.u2]) for f in fields])
        else:
            data = np.stack([f.values for f in fields])
        return cls(g, dt, kind, data)

    def with_data(self, data: np.ndarray) -> "Trajectory":
        return Trajectory(self.grid, self.dt, self.kind, data)

    def __add__(self, other: "Trajectory") -> "Trajectory":
        return self.with_data(self.data + other.data)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        return self.with_data(self.data - other.data)

    def __mul__(self, c: float) -> "Trajectory":
        return self.with_data(self.data * float(c))

    __rmul__ = __mul__


def slice_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each time slice: result[k] = <a[k], b[k]>."""
    return (a * b).reshape(a.shape[0], -1).sum(axis=1)


def l2q_inner(a: Trajectory, b: Trajectory, weights: np.ndarray) -> float:
    """Space-time inner product with the given per-slice time weights."""
    if a.grid != b.grid or a.data.shape != b.data.shape:
        raise GridMismatchError("trajectories are not aligned")
    h2 = a.grid.h ** 2
    return float(h2 * np.dot(weights, slice_dots(a.data, b.data)))


def l2q_norm(a: Trajectory, weights: np.ndarray) -> float:
    return float(np.sqrt(max(l2q_inner(a, a, weights), 0.0)))


def control_h1_norm(u: Trajectory) -> float:
    """Discrete L2(0,T;H1) norm: trapezoid in time, H1 quadrature per slice."""
    h1_sq = spaces.stack_hk_sq(u.data, u.grid.h, 1)[1]
    return float(np.sqrt(np.dot(trap_weights(u.m_steps, u.dt), h1_sq)))


def _target_stack(y_d, grid: Grid, m_steps: int) -> np.ndarray:
    """The target as an (m_steps+1, 2, n, n) array; None is the zero target."""
    n = grid.n_interior
    shape = (m_steps + 1, 2, n, n)
    if y_d is None:
        return np.zeros(shape)
    if isinstance(y_d, Trajectory):
        if y_d.grid != grid or y_d.m_steps != m_steps or not y_d.is_vector:
            raise GridMismatchError("target trajectory is not aligned with the problem")
        return y_d.data
    if isinstance(y_d, VectorField2D):
        if y_d.grid != grid:
            raise GridMismatchError("target lives on a different grid")
        return np.broadcast_to(np.stack([y_d.u1, y_d.u2]), shape)
    raise ValueError("y_d must be a Trajectory, a VectorField2D, or None")


def _warn_cfl(cfl: float, stacklevel: int) -> None:
    """UserWarning when the advective CFL number max|y| dt/h exceeds 0.5."""
    if cfl > 0.5:
        warnings.warn(
            f"advective CFL number {cfl:.2f} exceeds 0.5; "
            "the explicit advection step may be inaccurate",
            stacklevel=stacklevel,
        )


# ---------------------------------------------------------------------------
# problem data

@dataclass
class ProblemData:
    """Model, discretization, target, and cost parameters of one problem."""

    alpha: float
    nu: float
    T: float
    grid: Grid
    m_steps: int
    y0: VectorField2D
    y_d: Trajectory | VectorField2D | None = None
    L: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "nu", "T", "L"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.m_steps < 1:
            raise ValueError("m_steps must be >= 1")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if self.y0.grid != self.grid:
            raise GridMismatchError("y0 lives on a different grid")
        if not self.y0.divergence_free or self.y0.stream is None:
            raise ValueError("y0 must be produced from a stream function")
        _target_stack(self.y_d, self.grid, self.m_steps)  # validates y_d
        speed = max(np.max(np.abs(self.y0.u1)), np.max(np.abs(self.y0.u2)))
        _warn_cfl(speed * self.dt / self.grid.h, stacklevel=3)

    @property
    def dt(self) -> float:
        return self.T / self.m_steps

    def target_stack(self) -> np.ndarray:
        return _target_stack(self.y_d, self.grid, self.m_steps)

    def zero_control(self) -> Trajectory:
        return Trajectory.zeros(self.grid, self.m_steps, self.dt, "control")


class _Ops:
    def __init__(self, n: int, alpha: float, nu: float, dt: float):
        self.h = 1.0 / (n + 1)
        self.alpha = alpha
        self.b = alpha + nu * dt
        lam = _neg_lap_eigenvalues(n)
        ha, hb = 1.0 + alpha * lam, 1.0 + self.b * lam
        # a step maps its right-hand side to (q, psi) = (Ha Hb^-1, P^-1 Hb^-1) rhs;
        # all factors are diagonal in the DST-I basis, so the adjoint's
        # Hb^-1 Ha is step_sym[0] and Ha^-1 P^-1 is one more symbol
        self.step_sym = dst_symbol(np.stack([ha / hb, 1.0 / (lam * hb)]))
        self.inv_Ha_inv_P_sym = dst_symbol(1.0 / (lam * ha))

    def inv_P(self, v):
        return poisson_solve_values(v, self.h)

    def inv_Ha(self, v):
        return helmholtz_solve_values(v, self.alpha, self.h)

    def inv_Hb(self, v):
        return helmholtz_solve_values(v, self.b, self.h)

    def Ha(self, v):
        return v - self.alpha * lap5(v, self.h)


# spectral operator bundle, cached per discretization signature
_ops_for = lru_cache(maxsize=32)(_Ops)


def get_ops(pd: ProblemData) -> _Ops:
    return _ops_for(pd.grid.n_interior, pd.alpha, pd.nu, pd.dt)


# ---------------------------------------------------------------------------
# stepping

def _step_arrays(q, psi, u1_next, u2_next, ops, dt):
    h = ops.h
    # overflow here is the blow-up path; callers check isfinite right after
    with np.errstate(over="ignore", invalid="ignore"):
        curl_u = d1c(u2_next, h) - d2c(u1_next, h)
        adv = arakawa(q, psi, h)
        q1, psi1 = apply_symbol(q + dt * (curl_u - adv), ops.step_sym)
        omega1 = -lap5(psi1, h)
    return q1, omega1, psi1


def step_state(
    q_n: ScalarField2D, y_n: VectorField2D, u_slice: VectorField2D, pd: ProblemData
):
    """One semi-implicit step; returns (q, omega, psi, y) at the next level."""
    same_grid(q_n, y_n, u_slice)
    if q_n.grid != pd.grid:
        raise GridMismatchError("inputs live on a different grid than the problem")
    if not y_n.divergence_free or y_n.stream is None:
        raise ValueError("y_n must be produced from a stream function")
    ops = get_ops(pd)
    q1, omega1, psi1 = _step_arrays(
        q_n.values, y_n.stream.values, u_slice.u1, u_slice.u2, ops, pd.dt
    )
    if not np.isfinite(omega1).all():
        raise BlowUpError(1)
    g = pd.grid
    q_f = ScalarField2D(g, q1)
    omega_f = ScalarField2D(g, omega1)
    psi_f = ScalarField2D(g, psi1)
    from .grid import velocity_from_stream

    return q_f, omega_f, psi_f, velocity_from_stream(psi_f)


@dataclass(frozen=True)
class StateSolution:
    """Bundle returned by solve_state: trajectories plus per-step norms; the
    H1 and H3 norms are computed on first read, both in one stack pass, and
    so is the largest CFL number along the trajectory."""

    pd: ProblemData
    u: Trajectory
    psi: np.ndarray
    omega: np.ndarray
    q: np.ndarray
    y: np.ndarray

    @cached_property
    def _norms_sq(self) -> np.ndarray:
        return spaces.stack_hk_sq(self.y, self.pd.grid.h, 3)

    @cached_property
    def norms_h1(self) -> np.ndarray:
        return np.sqrt(self._norms_sq[1])

    @cached_property
    def norms_h3(self) -> np.ndarray:
        return np.sqrt(self._norms_sq[3])

    @cached_property
    def cfl_max(self) -> float:
        """Largest advective CFL number max|y| dt/h over all time slices."""
        return float(np.abs(self.y).max()) * self.pd.dt / self.pd.grid.h

    @property
    def velocity(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "velocity", self.y)

    @property
    def vorticity(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "vorticity", self.omega)

    @property
    def potential_vorticity(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "potential_vorticity", self.q)

    @property
    def stream(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "stream", self.psi)

    def velocity_field(self, k: int) -> VectorField2D:
        from .grid import velocity_from_stream

        return velocity_from_stream(ScalarField2D(self.pd.grid, self.psi[k]))


def solve_state(u: Trajectory | None, pd: ProblemData) -> StateSolution:
    """March the control-to-state map from y0 under the control u."""
    if u is None:
        u = pd.zero_control()
    if u.grid != pd.grid or not u.is_vector:
        raise GridMismatchError("control is not aligned with the problem grid")
    if u.m_steps != pd.m_steps:
        raise ValueError(f"control has {u.m_steps} steps, problem has {pd.m_steps}")
    ops = get_ops(pd)
    n = pd.grid.n_interior
    m = pd.m_steps
    h = pd.grid.h

    psi = np.empty((m + 1, n, n))
    omega = np.empty_like(psi)
    q = np.empty_like(psi)
    y = np.empty((m + 1, 2, n, n))

    psi[0] = pd.y0.stream.values
    omega[0] = -lap5(psi[0], h)
    q[0] = ops.Ha(omega[0])
    y[0, 0], y[0, 1] = pd.y0.u1, pd.y0.u2

    for k in range(m):
        q[k + 1], omega[k + 1], psi[k + 1] = _step_arrays(
            q[k], psi[k], u.data[k + 1, 0], u.data[k + 1, 1], ops, pd.dt
        )
        if not np.isfinite(omega[k + 1]).all():
            raise BlowUpError(k + 1)
        y[k + 1, 0] = d2c(psi[k + 1], h)
        y[k + 1, 1] = -d1c(psi[k + 1], h)

    return StateSolution(pd, u, psi, omega, q, y)


# ---------------------------------------------------------------------------
# direct evaluators used by tests and the inequality suite

def apply_upsilon(y: VectorField2D, alpha: float) -> VectorField2D:
    """(I - alpha*lap) applied componentwise with zero ghosts."""
    h = y.grid.h
    return VectorField2D(y.grid, y.u1 - alpha * lap5(y.u1, h), y.u2 - alpha * lap5(y.u2, h))


def curl_upsilon(y: VectorField2D, alpha: float) -> ScalarField2D:
    """Potential vorticity of y by the direct route: (I - alpha*lap) curl y."""
    w = curl2d(y)
    return ScalarField2D(y.grid, w.values - alpha * lap5(w.values, y.grid.h))


def trilinear_b(phi: VectorField2D, z: VectorField2D, y: VectorField2D) -> float:
    """b(phi, z, y) = quadrature of (phi . grad z) . y.

    Gradients use the one-sided-at-the-walls difference quotients (velocity
    components need not vanish there).
    """
    g = same_grid(phi, z, y)
    h = g.h
    total = 0.0
    for zc, yc in ((z.u1, y.u1), (z.u2, y.u2)):
        conv = phi.u1 * spaces.diff1(zc, h, 0) + phi.u2 * spaces.diff1(zc, h, 1)
        total += np.sum(conv * yc)
    return float(h * h * total)


def nonlinear_term(z: VectorField2D, phi: VectorField2D, alpha: float) -> float:
    """(curl upsilon(z) x z, phi) by the direct curl/apply/cross route."""
    return cross_quadrature(curl_upsilon(z, alpha), z, phi)
