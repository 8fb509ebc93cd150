"""Backward-in-time discrete adjoint: exact transpose of the tangent solver.

The adjoint recursion transposes each linearized step. With left-rectangle
weights on the tracking term the terminal adjoint is exactly zero, and the
control-space pairing (trapezoid weights) satisfies the discrete duality
identity to roundoff; both are contracts tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import apply_symbol, arakawa, stack_curl, stack_velocity
from .sensitivity import _check_base, solve_linearized
from .state import (
    ProblemData,
    StateSolution,
    Trajectory,
    _check_aligned,
    _target_stack,
    get_ops,
    l2q_inner_values,
    left_weights,
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

    def __post_init__(self):  # shared through the base's sweep memo
        for a in (self.p, self.mu, self.r):
            a.setflags(write=False)


def _adjoint_core(base: StateSolution, source: np.ndarray, pd: ProblemData) -> AdjointState:
    """Backward sweep driven by the vector-field source trajectory.

    Exact transpose of sensitivity._propagate: each step applies the
    transposed linearized step map in reverse order. Its source curls are
    written before the march, its velocities p taken in one pass after it.

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

    # mu[m] = 0: rho_m = 0, so the terminal step has no source. Until step k
    # overwrites it, mu[k] holds that step's source term rho_k h^2 curl(source_k).
    # The advection term and the source both pass through Ha^-1 P^-1; summed
    # first, they share one symbol pair
    stack_curl(source[:m], h, out=mu[:m])
    mu[:m] *= (rho[:m] * h2)[:, None, None]
    # the terminal step's r[m] is the symbol of mu[m] = 0, so +0.0: its two
    # Jacobians vanish and only its source passes Ha^-1 P^-1. The 0.0 + keeps
    # the +0.0 that the full sum r[m] + dt J + ... gives for a zero
    mu[m - 1] = 0.0 + apply_symbol(mu[m - 1], ops.inv_Ha_inv_P_sym)
    for k in range(m - 2, -1, -1):
        r[k + 1] = apply_symbol(mu[k + 1], ops.step_sym[0])
        rhs = mu[k] - dt * arakawa(r[k + 1], base.q[k], h)
        mu[k] = (
            r[k + 1]
            + dt * arakawa(r[k + 1], base.psi[k], h)
            + apply_symbol(rhs, ops.inv_Ha_inv_P_sym)
        )
    stack_velocity(r[1:], h, out=p[1:])
    p[1:] *= (dt / (tau[1:] * h2))[:, None, None, None]

    return AdjointState(pd, p, mu, r)


def solve_adjoint(base: StateSolution, y_d, pd: ProblemData) -> AdjointState:
    """Adjoint of the tracking objective: source is the mismatch y - y_d.

    y_d = None means the problem's own target pd.y_d. Read-only and memoized
    on base: a repeat call with the same pd object and the same target
    Trajectory (or None again, the problem's own target stack) returns the
    same AdjointState. A VectorField2D target is a new broadcast view on each
    call, so a miss. The mismatch is formed only when the sweep runs.
    """
    _check_base(base, pd)
    target = pd.target_stack() if y_d is None else _target_stack(y_d, pd)
    return base._memo_sweep(
        "adjoint", pd, target, lambda: _adjoint_core(base, base.y - target, pd)
    )


def duality_gap(
    base: StateSolution, w: Trajectory, phi_source: Trajectory, pd: ProblemData
) -> float:
    """|<S'(u)w, phi>_rho - <w, A*(phi)>_tau|: zero up to roundoff."""
    _check_base(base, pd)
    _check_aligned(phi_source, pd, "adjoint source phi")
    tangent = solve_linearized(base, w, pd)
    h = pd.grid.h
    lhs = l2q_inner_values(tangent.z, phi_source.data, left_weights(pd.m_steps, pd.dt), h)
    adj = _adjoint_core(base, phi_source.data, pd)
    rhs = l2q_inner_values(w.data, adj.p, trap_weights(pd.m_steps, pd.dt), h)
    return abs(lhs - rhs)


def gradient_field(u: Trajectory, p: AdjointState, lam: float) -> Trajectory:
    """Control-space gradient representative g = lam*u + p.

    Contract: sum_k tau_k h^2 <g_k, w_k> equals the directional derivative
    of the full cost along any direction w.
    """
    _check_aligned(u, p.pd, "control")
    return Trajectory(u.grid, u.dt, "control", _gradient_values(u.data, p, lam))


def _gradient_values(u: np.ndarray, p: AdjointState, lam: float) -> np.ndarray:
    """gradient_field's stack lam*u + p of a control stack u."""
    return lam * u + p.p
