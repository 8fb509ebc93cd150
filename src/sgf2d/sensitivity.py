"""Exact first and second derivatives of the discrete control-to-state map.

These differentiate the stepper itself (not a re-discretization of the
linearized equations): both sweeps march through state._march, the loop the
forward solve takes, from a source stack written before it. So the adjoint
built on top is an exact transpose and gradient/duality checks are limited
only by roundoff. A sweep whose slices overflow raises BlowUpError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import arakawa, stack_curl, stack_pairs, stack_velocity
from .state import ProblemData, StateSolution, Trajectory, _check_aligned, _march, get_ops


@dataclass(frozen=True)
class TangentState:
    """Tangent bundle: velocity tangent z plus its vorticity-space companions."""

    pd: ProblemData
    z: np.ndarray
    dq: np.ndarray
    dpsi: np.ndarray

    def __post_init__(self):  # shared through the base's sweep memo
        for a in (self.z, self.dq, self.dpsi):
            a.setflags(write=False)

    @cached_property
    def cross(self) -> np.ndarray:
        """Read-only stack of J(dq[k], dpsi[k]) for k < m, computed on first read.

        A sweep along one tangent (solve_second(base, t, t)) and the exact
        Hessian form both take their cross term from here.
        """
        out = stack_pairs(arakawa, self.dq, self.dpsi, self.pd.grid.h, np.empty_like(self.dq[:-1]))
        out.setflags(write=False)
        return out

    @property
    def z_traj(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "tangent", self.z)

    @property
    def q_tangent(self) -> Trajectory:
        return Trajectory(self.pd.grid, self.pd.dt, "potential_vorticity", self.dq)


def _check_base(base: StateSolution, pd: ProblemData) -> None:
    """Refuse pd unless base was solved under its grid, m_steps, alpha, nu and T."""
    if base.pd._sweep_params() != pd._sweep_params():
        raise ValueError("base solution was produced under different problem data")


def _propagate(base: StateSolution, pd: ProblemData, dq: np.ndarray) -> TangentState:
    """The linearized stepper around base from rest, taking over dq.

    On entry dq[0] = 0 and dq[k+1] holds the source of step k -> k+1. The
    tangent, the second-order tangent and (transposed, in the adjoint
    module) the adjoint are this one sweep with different sources.
    """
    dpsi = np.zeros_like(dq)
    _march(dq, dpsi, ((dq, base.psi), (base.q, dpsi)), get_ops(pd), pd.dt)
    z = np.zeros((dq.shape[0], 2) + dq.shape[1:])
    stack_velocity(dpsi[1:], pd.grid.h, out=z[1:])
    return TangentState(pd, z, dq, dpsi)


def solve_linearized(base: StateSolution, w: Trajectory, pd: ProblemData) -> TangentState:
    """Tangent z = S'(u)[w]: the derivative of every discrete step, z(0) = 0.

    Read-only and memoized on base: a repeat call with the same pd object and
    the same w Trajectory returns the same TangentState.
    """
    _check_base(base, pd)
    _check_aligned(w, pd, "direction w")

    def solve() -> TangentState:
        dq = np.zeros(base.q.shape)
        stack_curl(w.data[1:], pd.grid.h, out=dq[1:])  # step k's source, the curl of w[k+1]
        return _propagate(base, pd, dq)

    return base._memo_sweep("tangent", pd, w.data, solve)


def solve_second(
    base: StateSolution, t1: TangentState, t2: TangentState, pd: ProblemData
) -> TangentState:
    """Second derivative S''(u)[w1, w2] given the two first-order tangents.

    Same propagator as solve_linearized, no control forcing, bilinear source
    -(J(t1.dq, t2.dpsi) + J(t2.dq, t1.dpsi)); symmetric in (t1, t2) by
    construction. With one tangent object (t1 is t2) the source is
    -2 * t1.cross, the same bits as the sum of its two equal terms.
    """
    _check_base(base, pd)
    for t in (t1, t2):
        if t.pd is not pd:
            _check_base(base, t.pd)
    dq = np.zeros(base.q.shape)
    source = dq[1:]
    if t1 is t2:
        np.multiply(-2.0, t1.cross, out=source)
    else:  # (-J1) - J2, the bits of -(J1 + J2)
        np.negative(stack_pairs(arakawa, t1.dq, t2.dpsi, pd.grid.h, source), out=source)
        source -= stack_pairs(arakawa, t2.dq, t1.dpsi, pd.grid.h, np.empty_like(source))
    return _propagate(base, pd, dq)
