"""Exact first and second derivatives of the discrete control-to-state map.

These differentiate the stepper itself (not a re-discretization of the
linearized equations): both sweeps march through state._march, the loop the
forward solve takes, with the linearized explicit term. So the adjoint built
on top is an exact transpose and gradient/duality checks are limited only
by roundoff. A sweep whose slices overflow raises BlowUpError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import arakawa, curl_values
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
        h = self.pd.grid.h
        out = np.empty_like(self.dq[:-1])
        # slice by slice: one call on the whole stack would hold about 15
        # temporaries of the stack's size
        for k in range(out.shape[0]):
            out[k] = arakawa(self.dq[k], self.dpsi[k], h)
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


def _propagate(
    base: StateSolution, pd: ProblemData, source: Callable[[int], np.ndarray]
) -> TangentState:
    """The linearized stepper from rest, forced by source(k) on step k -> k+1.

    The tangent, the second-order tangent and (transposed, in the adjoint
    module) the adjoint are this one sweep with different sources.
    """
    n = pd.grid.n_interior
    m = pd.m_steps
    h = pd.grid.h

    dq = np.zeros((m + 1, n, n))
    dpsi = np.zeros_like(dq)
    z = np.zeros((m + 1, 2, n, n))

    def explicit(k):
        return source(k) - arakawa(dq[k], base.psi[k], h) - arakawa(base.q[k], dpsi[k], h)

    _march(dq, dpsi, z, explicit, get_ops(pd), pd.dt)
    return TangentState(pd, z, dq, dpsi)


def solve_linearized(base: StateSolution, w: Trajectory, pd: ProblemData) -> TangentState:
    """Tangent z = S'(u)[w]: the derivative of every discrete step, z(0) = 0.

    Read-only and memoized on base: a repeat call with the same pd object and
    a w of the same bits returns the same TangentState.
    """
    _check_base(base, pd)
    _check_aligned(w, pd, "direction w")
    h = pd.grid.h

    def solve() -> TangentState:
        return _propagate(base, pd, lambda k: curl_values(w.data[k + 1, 0], w.data[k + 1, 1], h))

    return base._memo_sweep("tangent", pd, w.data, solve)


def solve_second(
    base: StateSolution, t1: TangentState, t2: TangentState, pd: ProblemData
) -> TangentState:
    """Second derivative S''(u)[w1, w2] given the two first-order tangents.

    Same propagator as solve_linearized, no control forcing, bilinear source
    from the interaction of the two tangents; symmetric in (t1, t2) by
    construction. With one tangent object (t1 is t2) the source is
    -2 * t1.cross[k], the same bits as the sum of its two equal terms.
    """
    _check_base(base, pd)
    for t in (t1, t2):
        if t.pd is not pd:
            _check_base(base, t.pd)
    h = pd.grid.h

    def minus_cross(k: int) -> np.ndarray:
        if t1 is t2:
            return -2.0 * t1.cross[k]
        return -(arakawa(t1.dq[k], t2.dpsi[k], h) + arakawa(t2.dq[k], t1.dpsi[k], h))

    return _propagate(base, pd, minus_cross)
