"""Forward solver for the viscoelastic flow in stream/vorticity variables.

State variable is the potential vorticity q = (I - alpha*lap) omega with
omega = -lap psi and velocity y = (d2 psi, -d1 psi). One step solves

    (I - (alpha + nu*dt) lap) omega_{n+1}
        = q_n + dt * (curl u_{n+1} - advect(y_n, q_n)),

then q_{n+1} = (I - alpha*lap) omega_{n+1}: diffusion implicit, advection
explicit. All inverses are the spectral solves from ``grid``, so each step
is an exactly linear (and exactly differentiable) map.
Each sweep writes its sources into the slots its march overwrites and
takes its velocities after the march, in one blocked pass each.
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
    _check_count,
    _check_one_of,
    _check_real,
    _neg_lap_eigenvalues,
    _time_blocks,
    apply_symbol,
    arakawa,
    curl_values,
    dst_symbol,
    lap5,
    nonlinear_values,
    same_grid,
    stack_curl,
    stack_velocity,
    velocity_from_stream,
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
    (m_steps+1, n, n) for scalar kinds. It keeps its own read-only
    C-contiguous float64 copy, so the caller's array stays writeable.
    """

    grid: Grid
    dt: float
    kind: str
    data: np.ndarray

    _VECTOR_KINDS = ("velocity", "control", "adjoint", "tangent", "target")
    _SCALAR_KINDS = ("potential_vorticity", "vorticity", "stream")

    def __post_init__(self):
        _check_one_of(self.kind, self._VECTOR_KINDS + self._SCALAR_KINDS, "trajectory kind")
        n = self.grid.n_interior
        a = np.array(self.data, dtype=np.float64, order="C")
        if self.kind in self._VECTOR_KINDS:
            ok = a.ndim == 4 and a.shape[1:] == (2, n, n)
        else:
            ok = a.ndim == 3 and a.shape[1:] == (n, n)
        if not ok or a.shape[0] < 2:
            raise ValueError(f"bad trajectory data shape {a.shape} for kind {self.kind!r}")
        _check_real(self.dt, "dt")
        if not np.isfinite(a).all():
            raise ValueError("trajectory contains non-finite entries")
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

    @classmethod
    def zeros(cls, grid: Grid, m_steps: int, dt: float, kind: str = "control"):
        n = grid.n_interior
        shape = (m_steps + 1, 2, n, n) if kind in cls._VECTOR_KINDS else (m_steps + 1, n, n)
        return cls(grid, dt, kind, np.zeros(shape))

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
    """Frobenius inner product of each time slice: result[k] = <a[k], b[k]>.

    The stack is taken one grid._time_blocks block at a time, so no product
    the size of the stack is made; each row's sum keeps its bits.
    """
    out = np.empty(a.shape[0])
    for t in _time_blocks(a):
        out[t] = (a[t] * b[t]).reshape(t.stop - t.start, -1).sum(axis=1)
    return out


def l2q_inner_values(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, h: float, scale: float = 1.0
) -> float:
    """The L2(Q) pairing scale * h^2 * sum_k weights[k] <a[k], b[k]> of two stacks.

    scale is the coefficient of a form (1/2, lambda, lambda/2). It multiplies
    h^2 before the sum, the grouping the cost, the step and the Hessian forms
    were written with, so their values keep their bits.
    """
    return float(scale * (h * h) * np.dot(weights, slice_dots(a, b)))


def l2q_inner(a: Trajectory, b: Trajectory, weights: np.ndarray) -> float:
    """Space-time inner product with the given per-slice time weights."""
    if a.grid != b.grid or a.data.shape != b.data.shape:
        raise GridMismatchError("trajectories are not aligned")
    return l2q_inner_values(a.data, b.data, weights, a.grid.h)


def l2q_norm(a: Trajectory, weights: np.ndarray) -> float:
    return l2q_norm_values(a.data, weights, a.grid.h)


def l2q_norm_values(a: np.ndarray, weights: np.ndarray, h: float) -> float:
    """l2q_norm of a stack; a sum that overflows is taken again as in _h1_norm."""
    return _rescaled_on_overflow(_l2q_sum_norm, a, weights, h)


def _l2q_sum_norm(a: np.ndarray, weights: np.ndarray, h: float) -> float:
    return float(np.sqrt(max(l2q_inner_values(a, a, weights, h), 0.0)))


def control_h1_norm(u: Trajectory) -> float:
    """Discrete L2(0,T;H1) norm: trapezoid in time, H1 quadrature per slice.

    The slice values are stack_hk_sq's order-1 sums up to roundoff, with both
    difference quotients taken as products by the cached diff1 matrix.
    """
    return _h1_norm(u.data, trap_weights(u.m_steps, u.dt), u.grid.h)


def _h1_norm(data: np.ndarray, tau: np.ndarray, h: float) -> float:
    """control_h1_norm of a control stack with trapezoid weights tau."""
    return _rescaled_on_overflow(_h1_sum_norm, data, tau, h)


def _rescaled_on_overflow(norm, data: np.ndarray, *args) -> float:
    """norm(data, *args) of a norm whose sum of squares may overflow.

    A sum that is not finite is taken again on data / max|data|, so the norm
    reads inf only beyond the float range or for data that is not finite,
    and a finite sum keeps its bits. No overflow warning escapes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = norm(data, *args)
    if math.isfinite(value):
        return value
    scale = float(np.abs(data).max())
    if not 0.0 < scale < math.inf:
        return value
    return scale * norm(data / scale, *args)


def _h1_sum_norm(data: np.ndarray, tau: np.ndarray, h: float) -> float:
    d = spaces.diff1_matrix(data.shape[-1])
    h1_sq = np.empty(data.shape[0])
    for b in _time_blocks(data):
        a = data[b]
        d1, d2 = d @ a, a @ d.T
        h1_sq[b] = (a * a + d1 * d1 + d2 * d2).reshape(a.shape[0], -1).sum(1)
    h1_sq *= h**2
    return float(np.sqrt(np.dot(tau, h1_sq)))


def _check_aligned(traj: Trajectory, like, what: str) -> None:
    """Refuse a trajectory that is not a vector stack on the grid and time steps
    of like, a ProblemData or a Trajectory."""
    if (
        traj.grid != like.grid
        or not traj.is_vector
        or traj.m_steps != like.m_steps
        or not math.isclose(traj.dt, like.dt, rel_tol=1e-12)
    ):
        raise GridMismatchError(f"{what} is not aligned with the problem")


def _target_stack(y_d, like) -> np.ndarray:
    """The target as an (m_steps+1, 2, n, n) array on the grid and steps of like
    (a ProblemData or a Trajectory); None is the zero target. A target that is
    the same at every step, None or a VectorField2D, is a read-only broadcast
    view of one slice."""
    n = like.grid.n_interior
    shape = (like.m_steps + 1, 2, n, n)
    if y_d is None:
        return np.broadcast_to(0.0, shape)
    if isinstance(y_d, Trajectory):
        _check_aligned(y_d, like, "target trajectory")
        return y_d.data
    if isinstance(y_d, VectorField2D):
        if y_d.grid != like.grid:
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

@dataclass(frozen=True)
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
            _check_real(getattr(self, name), name)
        _check_count(self.m_steps, "m_steps", 1)
        _check_real(self.lam, "lambda", positive=False)
        if self.y0.grid != self.grid:
            raise GridMismatchError("y0 lives on a different grid")
        if self.y0.stream is None:
            raise ValueError("y0 must be produced from a stream function")
        self.target_stack()  # validates y_d, and keeps its stack
        speed = max(np.max(np.abs(self.y0.u1)), np.max(np.abs(self.y0.u2)))
        # past _warn_cfl, this method and the dataclass __init__: the caller
        _warn_cfl(speed * self.dt / self.grid.h, stacklevel=4)

    @property
    def dt(self) -> float:
        return self.T / self.m_steps

    def _sweep_params(self) -> tuple:
        """What the sweeps around a solved state depend on: grid, m_steps, alpha, nu, T."""
        return (self.grid, self.m_steps, self.alpha, self.nu, self.T)

    @cached_property
    def q0(self) -> np.ndarray:
        """Potential vorticity Ha(-lap5 psi0) of y0, every state's first slice
        (read-only, computed on first read)."""
        q0 = get_ops(self).Ha(-lap5(self.y0.stream.values, self.grid.h))
        q0.setflags(write=False)
        return q0

    @cached_property
    def _target(self) -> np.ndarray:
        return _target_stack(self.y_d, self)

    def target_stack(self) -> np.ndarray:
        """The target y_d as a stack (see _target_stack), built on first read."""
        return self._target

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

    def Ha(self, v):
        return v - self.alpha * lap5(v, self.h)


# spectral operator bundle, cached per discretization signature
_ops_for = lru_cache(maxsize=32)(_Ops)


def get_ops(pd: ProblemData) -> _Ops:
    return _ops_for(pd.grid.n_interior, pd.alpha, pd.nu, pd.dt)


# ---------------------------------------------------------------------------
# stepping

def _march(q, psi, advected, ops, dt) -> None:
    """Fill slices 1..m of the (q, psi) stacks in place from slice 0.

    On entry q[k+1] holds step k's source f. Step k subtracts J(a[k], b[k])
    from f for each stack pair (a, b) of advected, in order, and overwrites
    (q, psi)[k+1] with step_sym applied to q[k] + dt * f. The state advects
    ((q, psi),), a linearized sweep ((q, base psi), (base q, psi)).
    Raises BlowUpError(k+1) when q[k+1] is not finite.
    """
    h = ops.h
    # overflow is the blow-up path, refused by the isfinite check
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(q.shape[0] - 1):
            for a, b in advected:
                q[k + 1] -= arakawa(a[k], b[k], h)
            q[k + 1], psi[k + 1] = apply_symbol(q[k] + dt * q[k + 1], ops.step_sym)
            if not np.isfinite(q[k + 1]).all():
                raise BlowUpError(k + 1)


def step_state(
    q_n: ScalarField2D, y_n: VectorField2D, u_slice: VectorField2D, pd: ProblemData
):
    """One semi-implicit step; returns (q, omega, psi, y) at the next level."""
    same_grid(q_n, y_n, u_slice)
    if q_n.grid != pd.grid:
        raise GridMismatchError("inputs live on a different grid than the problem")
    if y_n.stream is None:
        raise ValueError("y_n must be produced from a stream function")
    g = pd.grid
    q = np.empty((2,) + g.shape)
    psi = np.empty_like(q)
    q[0], psi[0] = q_n.values, y_n.stream.values
    q[1] = curl_values(u_slice.u1, u_slice.u2, g.h)
    _march(q, psi, ((q, psi),), get_ops(pd), pd.dt)
    psi_f = ScalarField2D(g, psi[1])
    omega_f = ScalarField2D(g, -lap5(psi[1], g.h))
    return ScalarField2D(g, q[1]), omega_f, psi_f, velocity_from_stream(psi_f)


@dataclass(frozen=True)
class StateSolution:
    """Bundle returned by solve_state: the stream function, potential
    vorticity and velocity stacks of the trajectory. The vorticity, the H1
    and H3 norms (both in one stack pass) and the largest CFL number are
    computed on first read. The last tangent and tracking-adjoint sweeps
    around this state are kept on it (see _memo_sweep)."""

    pd: ProblemData
    u: Trajectory
    psi: np.ndarray
    q: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # the cached properties read these stacks later, so they must not change
        for a in (self.psi, self.q, self.y):
            a.setflags(write=False)

    @cached_property
    def omega(self) -> np.ndarray:
        """Vorticity -lap5(psi) of every time slice."""
        return -lap5(self.psi, self.pd.grid.h)

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

    @cached_property
    def _sweeps(self) -> dict:
        return {}

    def _memo_sweep(self, kind: str, pd: ProblemData, key: np.ndarray, solve):
        """solve(), or the result of the last kind sweep on this state when that
        had the same pd object and the same key object. The memo holds the key,
        so its id is not reused while it is kept, and no one may write into it:
        a Trajectory's own data or a target stack, both read-only. A key with
        the same bits in a new object is a miss, and its sweep reruns.
        """
        slot = self._sweeps.get(kind)
        if slot is not None and slot[0] is pd and slot[1] is key:
            return slot[2]
        self._sweeps[kind] = slot = None  # free the old result before the sweep
        result = solve()
        self._sweeps[kind] = (pd, key, result)
        return result

    @property
    def velocity(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "velocity", self.y)

    @property
    def stream(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "stream", self.psi)

    def velocity_field(self, k: int) -> VectorField2D:
        return velocity_from_stream(ScalarField2D(self.pd.grid, self.psi[k]))


def solve_state(u: Trajectory | None, pd: ProblemData) -> StateSolution:
    """March the control-to-state map from y0 under the control u."""
    if u is None:
        u = pd.zero_control()
    _check_aligned(u, pd, "control")
    ops = get_ops(pd)
    n = pd.grid.n_interior
    m = pd.m_steps
    h = pd.grid.h

    psi = np.empty((m + 1, n, n))
    q = np.empty_like(psi)
    y = np.empty((m + 1, 2, n, n))

    psi[0] = pd.y0.stream.values
    q[0] = pd.q0
    y[0, 0], y[0, 1] = pd.y0.u1, pd.y0.u2
    stack_curl(u.data[1:], h, out=q[1:])  # step k's source, the curl of u[k+1]
    _march(q, psi, ((q, psi),), ops, pd.dt)
    stack_velocity(psi[1:], h, out=y[1:])
    return StateSolution(pd, u, psi, q, y)


# ---------------------------------------------------------------------------
# direct evaluators used by tests and the inequality suite

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
    return float(nonlinear_values(z.u1, z.u2, phi.u1, phi.u2, alpha, same_grid(z, phi).h))
