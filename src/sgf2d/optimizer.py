"""Projected-gradient solver for the tracking control problem on a norm ball.

The admissible set is the centered ball of radius L in the discrete
L2(0,T;H1) norm; projection is radial. A radial map is the metric projection
only in the ball's own H1 norm, not in the L2(Q) metric the gradient step
uses, so with the ball active the line search can fail short of the optimum.
Each line search starts from the short Barzilai-Borwein step (BB2)
<s,y>/<y,y> in the trapezoid-weighted L2(Q) pairing, with s and y the last
iterate and gradient differences; when <s,y> <= 0 (no positive curvature
along s) the previous step is kept. The step is then halved until
the monotone Armijo test holds, so J never rises on an accepted step. A
trial point that is not finite, or whose march blows up, or whose J is not
finite is rejected and halved too (`OptimizeReport.n_nonfinite_trials`
counts them); a start that blows up raises BlowUpError. The default
tolerance is 1e-8 (1 + J(0)), anchored on the zero control whatever the
start.

An iteration is one state sweep and one adjoint sweep: the loop keeps the
iterate, the gradient, the trial points and the BB differences as float64
stacks and tests the ball with the private array norm behind
`control_h1_norm`; only a trial whose state is solved becomes a Trajectory.
`project_Uad`, `vi_residual` and `gradient_field` wrap the same array
helpers, so the loop and the public functions give the same bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fieldio
from .adjoint import _gradient_values, solve_adjoint
from .grid import _check_count, _check_real
from .spaces import random_velocity, solenoidal_projection_values
from .state import (
    BlowUpError,
    ProblemData,
    StateSolution,
    Trajectory,
    _check_aligned,
    _h1_norm,
    _target_stack,
    control_h1_norm,
    l2q_inner_values,
    l2q_norm,
    l2q_norm_values,
    left_weights,
    solve_state,
    trap_weights,
)


def cost(u: Trajectory, y: Trajectory, y_d, lam: float) -> float:
    """Tracking-plus-regularization objective.

    Tracking term uses left-rectangle time weights (making the adjoint
    terminal condition exact), control term uses trapezoid weights. A control
    or a target that is not aligned with y is refused, not broadcast, and so
    is a lam that ProblemData would refuse.
    """
    _check_aligned(u, y, "control")
    _check_real(lam, "lambda", positive=False)
    return _cost_values(u, y.data, _target_stack(y_d, y), lam, y)


def _cost_values(u: Trajectory, y: np.ndarray, target: np.ndarray, lam: float, like) -> float:
    """cost of a velocity stack y against a target stack, on the grid and
    time steps of like (a ProblemData or a Trajectory)."""
    h = like.grid.h
    mis = y - target
    track = l2q_inner_values(mis, mis, left_weights(like.m_steps, like.dt), h, 0.5)
    ctrl = l2q_inner_values(u.data, u.data, trap_weights(like.m_steps, like.dt), h, 0.5 * lam)
    return track + ctrl


def project_Uad(u: Trajectory, L: float) -> Trajectory:
    """Radial projection onto the centered L2(0,T;H1) ball of radius L.

    This is the metric projection in the ball's own H1 norm, not in the
    L2(Q) metric of the gradient step: outside the ball its result is in
    general not the L2(Q)-nearest point of the ball. L is refused as
    ProblemData refuses it.
    """
    _check_real(L, "L")
    data = _project(u.data, L, trap_weights(u.m_steps, u.dt), u.grid.h)
    return u if data is u.data else u.with_data(data)


def _project(u: np.ndarray, L: float, tau: np.ndarray, h: float) -> np.ndarray:
    """project_Uad of a control stack with trapezoid weights tau: u itself
    inside the ball. L is checked by the callers."""
    r = _h1_norm(u, tau, h)
    if r <= L:
        return u
    return u * float(L / r)


def vi_residual(u: Trajectory, g: Trajectory, L: float) -> float:
    """Natural residual ||u - proj(u - g)||_{L2(Q)} of the variational
    inequality. A gradient that is not aligned with u is refused, and so is
    an L that ProblemData would refuse."""
    _check_aligned(g, u, "gradient")
    _check_real(L, "L")
    return _vi_residual(u.data, g.data, L, trap_weights(u.m_steps, u.dt), u.grid.h)


def _vi_residual(u: np.ndarray, g: np.ndarray, L: float, tau: np.ndarray, h: float) -> float:
    """vi_residual of control and gradient stacks."""
    return l2q_norm_values(u - _project(u - g, L, tau, h), tau, h)


# the Armijo constant of the line search, and the halvings it tries before
# it reports failure
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 40
# start_control's H1 norm as a share of the radius L
_START_SCALE = 0.45


class IterRecord(NamedTuple):
    iteration: int
    J: float
    grad_norm: float
    step: float
    vi: float


@dataclass(frozen=True)
class OptimizeOptions:
    tol: float | None = None
    max_iter: int = 500
    initial_step: float = 1.0

    def __post_init__(self):
        if self.tol is not None:
            _check_real(self.tol, "tol")
        # max_iter = 0 evaluates the start only and reports the cap
        _check_count(self.max_iter, "max_iter", 0)
        _check_real(self.initial_step, "initial_step")


@dataclass
class OptimizeReport:
    iterates: list
    u_final: Trajectory
    J_final: float
    converged: bool
    message: str
    wall_time: float
    tol: float
    final_state: StateSolution  # solve_state(u_final), so callers need not solve again
    n_state_solves: int
    n_adjoint_solves: int
    n_halvings: int  # over every line search, a failed last one included
    ball_ratio: float  # control_h1_norm(u_final) / L; 1 on the sphere
    n_nonfinite_trials: int  # trials whose march blew up or whose J was not finite

    @property
    def n_iterations(self) -> int:
        """Recorded iterates, the start included, so max_iter = 0 gives 1."""
        return len(self.iterates)

    def write_csv(self, path) -> None:
        header = ["iteration", "J", "grad_norm", "step", "vi_residual"]
        fieldio.write_rows(path, header, self.iterates)


def _evaluate(pd: ProblemData, u: Trajectory):
    """The state under u and the cost there, read from the state's velocity stack."""
    sol = solve_state(u, pd)
    return sol, _cost_values(u, sol.y, pd.target_stack(), pd.lam, pd)


def _evaluate_trial(pd: ProblemData, u: Trajectory):
    """_evaluate for a line-search trial. A march that blows up gives J = inf
    and no state, and an overflow in the cost gives a non-finite J without a
    warning: the caller rejects both."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _evaluate(pd, u)
    except BlowUpError:
        return None, math.inf


def _default_tol(J0: float) -> float:
    """1e-8 (1 + J(0)): anchored on the zero control's cost J0, so a costly
    start cannot loosen it."""
    return 1e-8 * (1.0 + J0)


def optimize(
    pd: ProblemData, u_init: Trajectory | None = None, opts: OptimizeOptions | None = None
) -> OptimizeReport:
    """Projected gradient descent; J decreases on every accepted step and
    every iterate stays admissible. Stops at vi_residual <= tol, by default
    1e-8 (1 + J(0)) with J(0) the cost of the zero control.

    The loop keeps the iterate, the gradient and the trials as stacks; a
    trial becomes a Trajectory only when its state is solved. A start that
    is not aligned with pd is refused before any norm is taken; the ball,
    the cost, the vi residual and ball_ratio are all weighed on pd's steps."""
    opts = opts or OptimizeOptions()
    t0 = time.perf_counter()
    h = pd.grid.h
    tau = trap_weights(pd.m_steps, pd.dt)

    u_start = u_init if u_init is not None else pd.zero_control()
    _check_aligned(u_start, pd, "control")
    u = _project(u_start.data, pd.L, tau, h)
    u_traj = u_start if u is u_start.data else u_start.with_data(u)
    sol, J = _evaluate(pd, u_traj)
    n_state = n_adjoint = 1
    tol = opts.tol
    if tol is None:
        J0 = J
        if u_init is not None:
            J0 = _evaluate(pd, pd.zero_control())[1]
            n_state += 1
        tol = _default_tol(J0)
    g = _gradient_values(u, solve_adjoint(sol, None, pd), pd.lam)
    n_halvings = n_nonfinite = 0

    records: list[IterRecord] = []
    prev_u = prev_g = None
    step = opts.initial_step
    last_step = 0.0
    converged = False
    message = "iteration cap reached"

    # the last pass records the point reached at the cap and only tests it
    for it in range(opts.max_iter + 1):
        vi = _vi_residual(u, g, pd.L, tau, h)
        records.append(IterRecord(it, J, l2q_norm_values(g, tau, h), last_step, vi))
        if vi <= tol:
            converged = True
            message = "vi residual within tolerance"
            break
        if it == opts.max_iter:
            break

        # an overflow below gives inf or NaN, never a warning: a curvature
        # that is not finite keeps the step, and a trial that is not finite,
        # or whose decrease is not, is rejected
        if prev_u is not None:
            s = u - prev_u
            y = g - prev_g
            with np.errstate(over="ignore", invalid="ignore"):
                sy = l2q_inner_values(s, y, tau, h)
                yy = l2q_inner_values(y, y, tau, h)
            if 0 < sy < math.inf:
                step = min(max(sy / yy, 1e-14), 1e14)

        accepted = False
        t = step
        for halvings in range(_MAX_HALVINGS + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                trial = _project(u - g * float(t), pd.L, tau, h)
                decrease = l2q_inner_values(g, trial - u, tau, h)
            if not np.isfinite(trial).all():
                n_nonfinite += 1
            # decrease <= 0 is not automatic for radial projection; require it
            # so accepted steps never increase J
            elif decrease <= 0.0:
                trial_traj = u_traj.with_data(trial)
                trial_sol, trial_J = _evaluate_trial(pd, trial_traj)
                n_state += 1
                if not math.isfinite(trial_J):
                    n_nonfinite += 1
                elif trial_J <= J + _ARMIJO_C * decrease:
                    accepted = True
                    break
            t *= 0.5
        n_halvings += halvings
        if not accepted:
            message = "line search failed (no sufficient decrease)"
            break

        prev_u, prev_g = u, g
        u_traj, sol, J = trial_traj, trial_sol, trial_J
        u = u_traj.data
        last_step = t
        g = _gradient_values(u, solve_adjoint(sol, None, pd), pd.lam)
        n_adjoint += 1

    return OptimizeReport(
        iterates=records,
        u_final=u_traj,
        J_final=J,
        converged=converged,
        message=message,
        wall_time=time.perf_counter() - t0,
        tol=tol,
        final_state=sol,
        n_state_solves=n_state,
        n_adjoint_solves=n_adjoint,
        n_halvings=n_halvings,
        ball_ratio=_h1_norm(u, tau, h) / pd.L,
        n_nonfinite_trials=n_nonfinite,
    )


def solenoidal_part(u: Trajectory) -> Trajectory:
    """Canonical divergence-free representative of each slice.

    The dynamics only sees the curl of the control, so controls are compared
    modulo curl-free components; this picks the stream-generated member.
    """
    p1, p2 = solenoidal_projection_values(u.data[:, 0], u.data[:, 1], u.grid.h)
    return Trajectory(u.grid, u.dt, u.kind, np.stack([p1, p2], axis=1))


def start_control(pd: ProblemData, seed: int, index: int) -> Trajectory:
    """Deterministic admissible random start: time-modulated stream modes,
    scaled to H1 norm 0.45 L."""
    _check_count(seed, "seed", 0)
    _check_count(index, "index", 0)
    v = random_velocity(pd.grid, np.random.default_rng([seed, index]))
    tmod = 1.0 + 0.5 * np.cos(
        np.pi * np.linspace(0.0, 1.0, pd.m_steps + 1) * (1 + index % 2)
    )
    data = tmod[:, None, None, None] * np.stack([v.u1, v.u2])[None]
    u = Trajectory(pd.grid, pd.dt, "control", data)
    r = control_h1_norm(u)
    if r == 0.0:
        return u
    return u * (_START_SCALE * pd.L / r)


@dataclass
class MultiStartReport:
    reports: list
    distances: np.ndarray
    distance_tol: float
    # max_distance over the largest L2(Q) norm of the starts' solenoidal
    # parts, 0 when all of them are 0. Unlike distance_tol = 1e-5 L it does
    # not grow with L: with the ball inactive the minimizer does not depend on L.
    relative_spread: float

    @property
    def max_distance(self) -> float:
        """Largest pairwise distance between the starts' solenoidal parts."""
        return float(self.distances.max())

    @property
    def all_within_tol(self) -> bool:
        return self.max_distance <= self.distance_tol

    @property
    def all_converged(self) -> bool:
        """Whether every start met its tolerance; all_within_tol counts stalled starts too."""
        return all(r.converged for r in self.reports)


def multi_start_uniqueness(
    pd: ProblemData,
    n_starts: int,
    seed: int,
    *,
    opts: OptimizeOptions | None = None,
) -> MultiStartReport:
    """Optimize from several random admissible starts and compare the minima.

    Distances are taken between solenoidal parts of the final controls in
    the L2(Q) norm (controls are determined modulo curl-free parts only).
    Without a given tol, every start stops at the default tol of optimize,
    with J(0) solved once for all of them. The probe certifies nothing: pair
    it with certify(CertificateInputs.from_problem(pd, constants)) for the
    uniqueness threshold.
    """
    _check_count(n_starts, "n_starts", 2)
    _check_count(seed, "seed", 0)
    opts = opts or OptimizeOptions()
    if opts.tol is None:
        opts = replace(opts, tol=_default_tol(_evaluate(pd, pd.zero_control())[1]))
    reports = [
        optimize(pd, start_control(pd, seed, i), opts) for i in range(n_starts)
    ]
    tau = trap_weights(pd.m_steps, pd.dt)
    sol_parts = [solenoidal_part(r.u_final) for r in reports]
    distances = np.zeros((n_starts, n_starts))
    for i in range(n_starts):
        for j in range(i + 1, n_starts):
            d = l2q_norm(sol_parts[i] - sol_parts[j], tau)
            distances[i, j] = distances[j, i] = d
    norm = max(l2q_norm(s, tau) for s in sol_parts)
    spread = float(distances.max()) / norm if norm else 0.0
    return MultiStartReport(
        reports=reports, distances=distances, distance_tol=1e-5 * pd.L, relative_spread=spread
    )
