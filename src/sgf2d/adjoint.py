"""Backward-in-time discrete adjoint: exact transpose of the tangent solver.

The adjoint recursion transposes each linearized step. With left-rectangle
weights on the tracking term the terminal adjoint is exactly zero, and the
control-space pairing (trapezoid weights) satisfies the discrete duality
identity to roundoff; both are contracts tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMismatchError, apply_symbol, arakawa, d1c, d2c
from .sensitivity import _check_base, solve_linearized
from .state import (
    ProblemData,
    StateSolution,
    Trajectory,
    _target_stack,
    get_ops,
    left_weights,
    slice_dots,
    trap_weights,
)


@dataclass(frozen=True)
class AdjointState:
    """Adjoint bundle: velocity representative p plus vorticity-space internals.

    p is scaled so that sum_k tau_k h^2 <p_k, w_k> is the derivative of the
    tracking term along w; p[m] = 0 and p[0] = 0 exactly.
    """

    pd: ProblemData
    p: np.ndarray
    mu: np.ndarray
    r: np.ndarray

    @property
    def p_traj(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "adjoint", self.p)

    @property
    def terminal_index(self) -> int:
        return self.pd.m_steps


def _adjoint_core(base: StateSolution, source: np.ndarray, pd: ProblemData) -> AdjointState:
    """Backward sweep driven by the vector-field source trajectory.

    Exact transpose of sensitivity._propagate: each step applies the
    transposed linearized step map in reverse order.

    source[k] is the integrand paired against the velocity tangent with
    left-rectangle time weights rho_k (rho_m = 0).
    """
    ops = get_ops(pd)
    n = pd.grid.n_interior
    m = pd.m_steps
    h = pd.grid.h
    h2 = h * h
    dt = pd.dt
    rho = left_weights(m, dt)
    tau = trap_weights(m, dt)

    mu = np.zeros((m + 1, n, n))
    r = np.zeros_like(mu)
    p = np.zeros((m + 1, 2, n, n))

    # mu[m] = 0: rho_m = 0, so the terminal step has no source. The advection
    # term and the source both pass through Ha^-1 P^-1; summed first, they
    # share one symbol pair
    for k in range(m - 1, -1, -1):
        r[k + 1] = apply_symbol(mu[k + 1], ops.step_sym[0])
        curl_s = d1c(source[k, 1], h) - d2c(source[k, 0], h)
        rhs = rho[k] * h2 * curl_s - dt * arakawa(r[k + 1], base.q[k], h)
        mu[k] = (
            r[k + 1]
            + dt * arakawa(r[k + 1], base.psi[k], h)
            + apply_symbol(rhs, ops.inv_Ha_inv_P_sym)
        )

    for k in range(1, m + 1):
        scale = dt / (tau[k] * h2)
        p[k, 0] = scale * d2c(r[k], h)
        p[k, 1] = -scale * d1c(r[k], h)

    return AdjointState(pd, p, mu, r)


def solve_adjoint(base: StateSolution, y_d, pd: ProblemData) -> AdjointState:
    """Adjoint of the tracking objective: source is the mismatch y - y_d.

    y_d = None means the problem's own target pd.y_d.
    """
    _check_base(base, pd)
    target = _target_stack(pd.y_d if y_d is None else y_d, pd.grid, pd.m_steps)
    return _adjoint_core(base, base.y - target, pd)


def duality_gap(
    base: StateSolution, w: Trajectory, phi_source: Trajectory, pd: ProblemData
) -> float:
    """|<S'(u)w, phi>_rho - <w, A*(phi)>_tau|: zero up to roundoff."""
    _check_base(base, pd)
    tangent = solve_linearized(base, w, pd)
    rho = left_weights(pd.m_steps, pd.dt)
    tau = trap_weights(pd.m_steps, pd.dt)
    h2 = pd.grid.h ** 2
    lhs = h2 * np.dot(rho, slice_dots(tangent.z, phi_source.data))
    adj = _adjoint_core(base, phi_source.data, pd)
    rhs = h2 * np.dot(tau, slice_dots(w.data, adj.p))
    return float(abs(lhs - rhs))


def gradient_field(u: Trajectory, p: AdjointState, lam: float) -> Trajectory:
    """Control-space gradient representative g = lam*u + p.

    Contract: sum_k tau_k h^2 <g_k, w_k> equals the directional derivative
    of the full cost along any direction w.
    """
    if u.grid != p.pd.grid or u.m_steps != p.pd.m_steps:
        raise GridMismatchError("control and adjoint are not aligned")
    return Trajectory(u.grid, u.dt, "control", lam * u.data + p.p)
