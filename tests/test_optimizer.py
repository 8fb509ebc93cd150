"""Tests for the cost functional, the admissible-set projection, and the
projected gradient loop.

The optimizer is validated against things it must do exactly (hand-computable
costs, radial projection algebra, zero problems) plus behavioral guarantees:
accepted steps never increase J, every iterate stays admissible, and on a
reachable target the loop actually closes most of the gap to zero cost.
"""

import math
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sgf2d.adjoint import gradient_field, solve_adjoint
from sgf2d.grid import Grid, GridMismatchError, velocity_from_stream
from sgf2d.optimizer import (
    MultiStartReport,
    OptimizeOptions,
    cost,
    multi_start_uniqueness,
    optimize,
    project_Uad,
    solenoidal_part,
    start_control,
    vi_residual,
)
from sgf2d.spaces import (
    DomainConstants,
    estimate_constant,
    sample_field,
    solenoidal_projection_values,
    stream_from_coeffs,
)
from sgf2d.state import (
    BlowUpError,
    ProblemData,
    Trajectory,
    control_h1_norm,
    l2q_inner_values,
    l2q_norm,
    solve_state,
    trap_weights,
)
from sgf2d.grid import d1c, d2c
from sgf2d import optimizer as optimizer_module

from helpers import count_calls, count_velocity_reads, optimize_trajectory_loop, smooth_control


def small_problem(n=12, m=8, lam=1e-3, L=2.0, with_target=True, y0_amp=0.01):
    g = Grid(n)
    y0 = velocity_from_stream(
        stream_from_coeffs(g, y0_amp * np.random.default_rng(5).standard_normal((3, 3)))
    )
    yd = None
    if with_target:
        yd = velocity_from_stream(
            stream_from_coeffs(g, 0.1 * np.random.default_rng(7).standard_normal((2, 2)))
        )
    return ProblemData(
        alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=m, y0=y0, y_d=yd, L=L, lam=lam
    )


def reachable_problem():
    """Target y_d = S(u_hat) of a time-constant control, on a ball of radius 2|u_hat|."""
    g = Grid(12)
    y0 = velocity_from_stream(stream_from_coeffs(g, np.zeros((1, 1))))
    pd0 = ProblemData(
        alpha=0.05, nu=0.02, T=1.5, grid=g, m_steps=12, y0=y0, L=10.0, lam=1e-4
    )
    uhat = constant_control(pd0, np.array([[0.05]]))
    yhat = solve_state(uhat, pd0).velocity
    return ProblemData(
        alpha=0.05,
        nu=0.02,
        T=1.5,
        grid=g,
        m_steps=12,
        y0=y0,
        y_d=yhat,
        L=2.0 * control_h1_norm(uhat),
        lam=1e-4,
    )


def gradient_at(pd, u):
    return gradient_field(u, solve_adjoint(solve_state(u, pd), None, pd), pd.lam)


def constant_control(pd, coeffs):
    v = velocity_from_stream(stream_from_coeffs(pd.grid, coeffs))
    n = pd.grid.n_interior
    data = np.broadcast_to(
        np.stack([v.u1, v.u2]), (pd.m_steps + 1, 2, n, n)
    ).copy()
    return Trajectory(pd.grid, pd.dt, "control", data)


class TestCost:
    def test_zero_state_gives_half_target_norm(self):
        pd = small_problem()
        zero_y = Trajectory.zeros(pd.grid, pd.m_steps, pd.dt, "velocity")
        J = cost(pd.zero_control(), zero_y, pd.y_d, 0.0)
        h2 = pd.grid.h ** 2
        expected = 0.5 * pd.T * h2 * float(np.sum(pd.y_d.u1 ** 2 + pd.y_d.u2 ** 2))
        assert abs(J - expected) <= 1e-14 * expected

    def test_matched_state_zero_control_is_zero(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        J = cost(pd.zero_control(), base.velocity, base.velocity, 0.7)
        assert J == 0.0

    def test_none_target_means_zero_target(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        u = smooth_control(pd, 2)
        zero_y = Trajectory.zeros(pd.grid, pd.m_steps, pd.dt, "target")
        assert cost(u, base.velocity, None, 0.3) == cost(u, base.velocity, zero_y, 0.3)

    def test_target_on_other_grid_rejected(self):
        pd = small_problem()
        base = solve_state(None, pd)
        other = Grid(pd.grid.n_interior + 2)
        yd = velocity_from_stream(stream_from_coeffs(other, 0.1 * np.ones((2, 2))))
        with pytest.raises(GridMismatchError, match="different grid"):
            cost(pd.zero_control(), base.velocity, yd, pd.lam)
        short = Trajectory.zeros(pd.grid, pd.m_steps - 1, pd.dt, "target")
        with pytest.raises(GridMismatchError, match="not aligned"):
            cost(pd.zero_control(), base.velocity, short, pd.lam)

    @pytest.mark.parametrize("n,m,dt_scale", [(8, 8, 1.0), (16, 6, 1.0), (16, 8, 3.7)])
    def test_control_not_aligned_with_y_rejected(self, n, m, dt_scale):
        # an 8^2 control against a 16^2 velocity would be costed with the wrong h
        pd = small_problem(n=16)
        base = solve_state(None, pd)
        u = Trajectory.zeros(Grid(n), m, pd.dt * dt_scale, "control")
        with pytest.raises(GridMismatchError, match="control is not aligned"):
            cost(u, base.velocity, pd.y_d, pd.lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1e-3])
    def test_lam_refused_as_problem_data_would(self, lam):
        # nan and inf used to cost nan and inf
        pd = small_problem()
        base = solve_state(None, pd)
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            cost(pd.zero_control(), base.velocity, pd.y_d, lam)

    def test_lam_scaling_isolates_control_term(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        u = smooth_control(pd, 2)
        j1 = cost(u, base.velocity, pd.y_d, 0.4)
        j2 = cost(u, base.velocity, pd.y_d, 0.8)
        tau = trap_weights(pd.m_steps, pd.dt)
        ctrl = 0.5 * l2q_norm(u, tau) ** 2
        assert abs((j2 - j1) - 0.4 * ctrl) <= 1e-13 * max(ctrl, 1.0)


class TestProjection:
    def test_interior_point_untouched(self):
        pd = small_problem()
        u = smooth_control(pd, 1, amplitude=0.001)
        assert control_h1_norm(u) < pd.L
        assert project_Uad(u, pd.L) is u

    def test_exterior_point_lands_on_sphere(self):
        pd = small_problem()
        u = smooth_control(pd, 1)
        r = control_h1_norm(u)
        proj = project_Uad(u, 0.5 * r)
        assert abs(control_h1_norm(proj) - 0.5 * r) <= 1e-12 * r
        # radial: direction unchanged
        assert np.abs(proj.data - 0.5 * u.data).max() <= 1e-12 * np.abs(u.data).max()

    def test_zero_control_fixed_point(self):
        pd = small_problem()
        z = pd.zero_control()
        assert np.all(project_Uad(z, 1.0).data == 0.0)

    def test_radius_must_be_positive(self):
        pd = small_problem()
        with pytest.raises(ValueError, match="positive"):
            project_Uad(pd.zero_control(), 0.0)

    def test_nan_radius_is_refused(self):
        # NaN fails every comparison: the radius is refused by name, not by the
        # projection's non-finite result or a division by zero
        pd = small_problem()
        u = smooth_control(pd, 1)
        with pytest.raises(ValueError, match="L must be positive"):
            project_Uad(u, np.nan)
        with pytest.raises(ValueError, match="L must be positive"):
            vi_residual(u, u, np.nan)

    def test_infinite_radius_is_refused(self):
        # as ProblemData refuses L = inf; a finite radius above the norm
        # returns u itself (TestOverflowingNorms)
        pd = small_problem()
        u = smooth_control(pd, 1, amplitude=1e3)
        with pytest.raises(ValueError, match="^L must be positive and finite, got inf$"):
            project_Uad(u, np.inf)
        with pytest.raises(ValueError, match="^L must be positive and finite, got inf$"):
            vi_residual(u, u, np.inf)


class TestOverflowingNorms:
    """A norm whose sum of squares overflows is taken again on the scaled
    stack: the projection of a huge control is not all zeros."""

    @staticmethod
    def huge_control(pd, value=1e160):
        n = pd.grid.n_interior
        return Trajectory(pd.grid, pd.dt, "control", np.full((pd.m_steps + 1, 2, n, n), value))

    def test_huge_point_inside_ball_returned_unchanged(self):
        pd = small_problem(L=1e300)
        u = self.huge_control(pd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert project_Uad(u, pd.L) is u

    def test_huge_point_lands_on_sphere(self):
        pd = small_problem(L=1.0)
        u = self.huge_control(pd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj = project_Uad(u, pd.L)
            assert abs(control_h1_norm(proj) - 1.0) <= 1e-12
        # radial: a constant field stays constant
        assert np.all(proj.data == proj.data.flat[0]) and proj.data.flat[0] > 0.0

    @pytest.mark.parametrize("c", [1e150, 1e160, 1e300])
    def test_norms_scale_past_overflow(self, c):
        pd = small_problem()
        u = smooth_control(pd, 1)
        tau = trap_weights(pd.m_steps, pd.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = u * c
            for norm in (control_h1_norm, lambda v: l2q_norm(v, tau)):
                assert abs(norm(big) / c - norm(u)) <= 1e-14 * norm(u)

    def test_norm_beyond_float_range_is_inf(self):
        pd = small_problem()
        u = smooth_control(pd, 1)
        u = u.with_data(u.data / np.abs(u.data).max())
        assert control_h1_norm(u) > 1.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert control_h1_norm(u * 1.78e308) == np.inf


class TestViResidual:
    def test_zero_gradient_zero_residual(self):
        pd = small_problem()
        u = project_Uad(smooth_control(pd, 1), pd.L)
        g = pd.zero_control()
        assert vi_residual(u, g, pd.L) == 0.0

    def test_interior_residual_is_gradient_norm(self):
        pd = small_problem()
        u = smooth_control(pd, 1, amplitude=0.001)
        g = smooth_control(pd, 2, amplitude=0.001)
        tau = trap_weights(pd.m_steps, pd.dt)
        assert abs(vi_residual(u, g, pd.L) - l2q_norm(g, tau)) <= 1e-13

    def test_outward_gradient_on_boundary_is_stationary(self):
        # at a boundary point with gradient pointing radially outward the
        # projected step returns to the same point: a constrained minimum
        pd = small_problem()
        u = smooth_control(pd, 1)
        u = u * (pd.L / control_h1_norm(u))
        g = u * (-0.25)
        tau = trap_weights(pd.m_steps, pd.dt)
        assert vi_residual(u, g, pd.L) <= 1e-12 * l2q_norm(u, tau)

    @pytest.mark.parametrize("n,m,dt_scale", [(8, 8, 1.0), (12, 6, 1.0), (12, 8, 3.7)])
    def test_gradient_not_aligned_with_u_rejected(self, n, m, dt_scale):
        # another grid, step count or dt is refused, not broadcast
        pd = small_problem()
        u = smooth_control(pd, 1)
        g = Trajectory.zeros(Grid(n), m, pd.dt * dt_scale, "control")
        with pytest.raises(GridMismatchError, match="gradient is not aligned"):
            vi_residual(u, g, pd.L)


class TestOptimize:
    def test_already_optimal_stops_immediately(self):
        pd = small_problem(with_target=False, y0_amp=0.0, lam=0.5)
        rep = optimize(pd)
        assert rep.converged
        assert rep.n_iterations == 1
        assert rep.message == "vi residual within tolerance"
        assert rep.J_final == 0.0
        assert np.all(rep.u_final.data == 0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"tol": 0.0},
            {"tol": -1e-8},
            {"max_iter": -1},
        ],
        ids=["tol-inf", "tol-nan", "tol-zero", "tol-negative", "max_iter-negative"],
    )
    def test_options_validated(self, kw):
        # tol = inf used to stop the first iteration with converged = True
        with pytest.raises(ValueError, match="tol must be positive and finite|max_iter"):
            OptimizeOptions(**kw)

    @pytest.mark.parametrize(
        "step", [0.0, -1.0, float("inf"), float("nan")], ids=["zero", "negative", "inf", "nan"]
    )
    def test_step_options_validated(self, step):
        with pytest.raises(ValueError, match="initial_step must be positive and finite"):
            OptimizeOptions(initial_step=step)

    @pytest.mark.parametrize("field", ["max_iter"])
    def test_counts_must_be_integers(self, field):
        # max_iter = 2.5 used to be built, and optimize failed after its first sweeps
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            OptimizeOptions(**{field: 2.5})
        assert getattr(OptimizeOptions(**{field: np.int64(3)}), field) == 3

    def test_options_are_checked_again_on_replace(self):
        # max_iter = -3 used to return a report with no iterates
        opts = OptimizeOptions()
        with pytest.raises(FrozenInstanceError):
            opts.max_iter = -3
        with pytest.raises(ValueError, match="max_iter"):
            replace(opts, max_iter=-3)

    def test_final_state_is_state_of_u_final(self):
        pd = small_problem()
        rep = optimize(pd, None, OptimizeOptions(max_iter=5))
        fresh = solve_state(rep.u_final, pd)
        assert np.array_equal(rep.final_state.u.data, rep.u_final.data)
        for name in ("psi", "q", "y"):
            assert np.array_equal(getattr(rep.final_state, name), getattr(fresh, name)), name
        assert np.array_equal(rep.final_state.norms_h1, fresh.norms_h1)

    def test_iteration_cap_path(self):
        pd = small_problem()
        rep = optimize(pd, None, OptimizeOptions(max_iter=0))
        assert not rep.converged
        assert rep.message == "iteration cap reached"
        assert rep.n_iterations == 1

    def test_cap_point_within_tolerance_reports_it(self):
        # the start is the optimum: the point reached at the cap meets tol
        pd = small_problem(with_target=False, y0_amp=0.0, lam=0.5)
        rep = optimize(pd, None, OptimizeOptions(max_iter=0))
        assert rep.converged
        assert rep.message == "vi residual within tolerance"
        assert rep.n_iterations == 1

    def test_line_search_failure_reported(self):
        pd = small_problem(L=1e5, lam=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = optimize(pd, None, OptimizeOptions(max_iter=5, initial_step=1e18))
        assert not rep.converged
        assert "line search failed" in rep.message

    def test_reachable_target_strong_reduction(self):
        pd = reachable_problem()
        rep = optimize(pd, None, OptimizeOptions(max_iter=200))
        J0 = rep.iterates[0].J
        assert rep.converged
        assert rep.J_final <= J0 / 200.0
        # accepted steps never increase J
        js = [r.J for r in rep.iterates]
        assert all(b <= a * (1.0 + 1e-14) for a, b in zip(js, js[1:]))
        # every recorded iterate is admissible; check the final one directly
        assert control_h1_norm(rep.u_final) <= pd.L * (1.0 + 1e-12)
        assert rep.iterates[-1].vi <= rep.tol

    def test_inactive_ball_norm_roundoff_changes_no_bit(self, monkeypatch):
        # the ball norm only decides r <= L, so with the ball inactive a
        # relative change of 1e-12 in it leaves every iterate as it was
        pd = reachable_problem()
        ref = optimize(pd, None, OptimizeOptions(max_iter=200))
        assert ref.converged and ref.ball_ratio < 1.0
        real = optimizer_module._h1_norm
        monkeypatch.setattr(
            optimizer_module, "_h1_norm", lambda u, tau, h: real(u, tau, h) * (1.0 + 1e-12)
        )
        rep = optimize(pd, None, OptimizeOptions(max_iter=200))
        assert rep.ball_ratio != ref.ball_ratio  # the perturbed norm was read
        assert rep.u_final.data.tobytes() == ref.u_final.data.tobytes()
        assert (rep.J_final, rep.n_iterations) == (ref.J_final, ref.n_iterations)

    @pytest.mark.parametrize("n,m,dt_scale", [(8, 8, 1.0), (12, 6, 1.0), (12, 8, 3.7)])
    def test_misaligned_start_refused_before_any_norm(self, monkeypatch, n, m, dt_scale):
        pd = small_problem(n=12, m=8)
        norms = count_calls(monkeypatch, optimizer_module, "_h1_norm")
        u0 = Trajectory.zeros(Grid(n), m, pd.dt * dt_scale, "control")
        with pytest.raises(GridMismatchError, match="control is not aligned"):
            optimize(pd, u0)
        assert norms == []

    @pytest.mark.parametrize("L", [2.0, 0.05], ids=["inactive-ball", "active-ball"])
    def test_start_step_roundoff_changes_no_bit(self, L):
        # a start's dt may differ from pd's by 1e-12 relative; the ball, the
        # cost and the vi residual are all weighed on pd's steps
        pd = small_problem(L=L)
        u0 = start_control(pd, 0, 0)
        off = Trajectory(pd.grid, pd.dt * (1.0 + 1e-13), "control", u0.data)
        assert off.dt != u0.dt
        ref = optimize(pd, u0, OptimizeOptions(max_iter=20))
        rep = optimize(pd, off, OptimizeOptions(max_iter=20))
        assert rep.iterates == ref.iterates
        assert rep.u_final.data.tobytes() == ref.u_final.data.tobytes()
        assert (rep.J_final, rep.ball_ratio) == (ref.J_final, ref.ball_ratio)

    def test_ball_ratio_is_final_norm_over_radius(self):
        pd = reachable_problem()
        rep = optimize(pd, None, OptimizeOptions(max_iter=200))
        assert rep.ball_ratio == control_h1_norm(rep.u_final) / pd.L
        assert 0.0 < rep.ball_ratio < 1.0
        # an active ball leaves the final iterate on the sphere
        rep = optimize(small_problem(L=0.01, lam=0.0), None, OptimizeOptions(max_iter=5))
        assert abs(rep.ball_ratio - 1.0) <= 1e-12

    def test_bb2_step_needs_few_state_solves(self):
        # the short BB step is accepted untouched on most iterations; the long
        # step <s,s>/<s,y> made 239 state solves in 117 iterations here
        rep = optimize(reachable_problem(), None, OptimizeOptions(max_iter=200))
        assert rep.converged
        assert rep.n_state_solves <= 1.5 * rep.n_iterations

    def test_second_step_is_halved_bb2(self):
        # at lam = 0.1 both BB steps are near 1/lam; here they differ by 0.16%
        pd = reachable_problem()
        u0 = start_control(pd, 3, 0)
        first = optimize(pd, u0, OptimizeOptions(max_iter=1))
        second = optimize(pd, u0, OptimizeOptions(max_iter=2))
        assert second.n_iterations == 3 and second.iterates[1].step == first.iterates[1].step
        u1 = first.u_final
        tau, h = trap_weights(pd.m_steps, pd.dt), pd.grid.h
        s = u1.data - project_Uad(u0, pd.L).data
        y = gradient_at(pd, u1).data - gradient_at(pd, u0).data
        sy = l2q_inner_values(s, y, tau, h)
        assert sy > 0
        bb2 = sy / l2q_inner_values(y, y, tau, h)
        step = second.iterates[2].step
        k = round(np.log2(bb2 / step))
        assert k >= 0 and step == bb2 * 0.5**k

    def test_report_counts_equal_wrapped_calls(self, monkeypatch):
        states = count_calls(monkeypatch, optimizer_module, "solve_state")
        adjoints = count_calls(monkeypatch, optimizer_module, "solve_adjoint")
        rep = optimize(reachable_problem(), None, OptimizeOptions(max_iter=200))
        assert rep.converged
        assert (rep.n_state_solves, rep.n_adjoint_solves) == (len(states), len(adjoints))
        # one adjoint per accepted step and one at the start
        assert rep.n_adjoint_solves == rep.n_iterations
        # the ball stays inactive, so every trial is solved: accepted plus halved
        assert rep.n_state_solves == rep.n_iterations + rep.n_halvings

    def test_failed_line_search_counts_its_halvings(self, monkeypatch):
        states = count_calls(monkeypatch, optimizer_module, "solve_state")
        pd = small_problem(L=1e5, lam=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = optimize(pd, None, OptimizeOptions(max_iter=5, initial_step=1e18))
        assert "line search failed" in rep.message
        # the start, then the 41 solved and rejected trials of the first line
        # search: every trial is finite and none decreases J enough
        assert (rep.n_iterations, rep.n_halvings, rep.n_adjoint_solves) == (1, 40, 1)
        assert rep.n_state_solves == len(states) == 42
        assert rep.n_nonfinite_trials == 0

    def test_deterministic(self):
        pd = small_problem(lam=0.1)
        r1 = optimize(pd, None, OptimizeOptions(max_iter=20))
        r2 = optimize(pd, None, OptimizeOptions(max_iter=20))
        assert r1.J_final == r2.J_final
        assert np.array_equal(r1.u_final.data, r2.u_final.data)
        assert [r.J for r in r1.iterates] == [r.J for r in r2.iterates]

    def test_binding_ball_keeps_iterates_admissible(self):
        pd = small_problem(L=0.01, lam=0.0)
        rep = optimize(pd, None, OptimizeOptions(max_iter=25))
        assert control_h1_norm(rep.u_final) <= pd.L * (1.0 + 1e-12)

    def test_csv_roundtrip(self, tmp_path):
        pd = small_problem(lam=0.1)
        rep = optimize(pd, None, OptimizeOptions(max_iter=10))
        path = tmp_path / "iterates.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,J,grad_norm,step,vi_residual"
        assert len(lines) == rep.n_iterations + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == rep.iterates[0].J


class TestStackLoop:
    """optimize keeps its iterates as stacks; it must walk the same path as
    the loop that kept them as Trajectory objects."""

    @pytest.mark.parametrize(
        "make,opts,message",
        [
            (reachable_problem, OptimizeOptions(max_iter=200), "vi residual"),
            # an active ball: the trials are projected radially
            (
                lambda: small_problem(n=12, m=12, L=0.05, lam=1e-3),
                OptimizeOptions(),
                "line search failed",
            ),
        ],
        ids=["reachable", "active-ball"],
    )
    def test_same_path_as_trajectory_loop(self, make, opts, message):
        pd = make()
        records, u, J, tol, ref_message, counts = optimize_trajectory_loop(pd, opts)
        rep = optimize(pd, None, opts)
        assert rep.message == ref_message and message in ref_message
        assert rep.iterates == records
        assert rep.u_final.data.tobytes() == u.data.tobytes()
        assert (rep.J_final, rep.tol) == (J, tol)
        assert (
            rep.n_state_solves, rep.n_adjoint_solves, rep.n_halvings, rep.n_nonfinite_trials
        ) == counts
        assert rep.ball_ratio == control_h1_norm(u) / pd.L

    def test_active_ball_case_stops_on_the_sphere(self):
        rep = optimize(small_problem(n=12, m=12, L=0.05, lam=1e-3))
        assert rep.n_iterations == 3
        assert abs(rep.ball_ratio - 1.0) <= 1e-12


class TestDefaultTolerance:
    """The default tol is 1e-8 (1 + J(0)) with J(0) the zero control's cost,
    whatever the start; a costly start used to loosen its own test."""

    def test_tol_is_anchored_on_the_zero_control(self):
        pd = small_problem(L=1e5)
        ref = optimize(pd, None, OptimizeOptions(max_iter=0))
        rep = optimize(pd, start_control(pd, 0, 0), OptimizeOptions(max_iter=0))
        assert rep.iterates[0].J > 1e3 * ref.iterates[0].J
        assert rep.tol == ref.tol == 1e-8 * (1.0 + ref.iterates[0].J)

    def test_given_start_pays_one_state_solve(self, monkeypatch):
        pd = small_problem()
        u0 = start_control(pd, 0, 0)
        states = count_calls(monkeypatch, optimizer_module, "solve_state")
        rep = optimize(pd, u0, OptimizeOptions(max_iter=0))
        assert rep.n_state_solves == len(states) == 2
        states.clear()
        rep = optimize(pd, u0, OptimizeOptions(max_iter=0, tol=1e-8))
        assert rep.n_state_solves == len(states) == 1
        states.clear()
        rep = optimize(pd, None, OptimizeOptions(max_iter=0))
        assert rep.n_state_solves == len(states) == 1

    def test_costly_starts_do_not_pass_at_once(self):
        # at L = 1e6 each start's J is 5e54 to 1.4e72; every start used to
        # report convergence at iteration 0
        ms = multi_start_uniqueness(small_problem(L=1e6), 3, 0)
        assert not ms.all_converged
        assert all(r.tol == ms.reports[0].tol < 1e-7 for r in ms.reports)

    def test_large_ball_starts_meet_one_minimizer(self):
        # the starts' own tols (3e-5 to 2e-4) used to leave a spread of 9.6e-3
        ms = multi_start_uniqueness(small_problem(L=1e5), 3, 0)
        assert ms.all_converged
        assert ms.max_distance <= 1e-4


class TestNonFiniteTrials:
    """A line-search trial whose march blows up or whose cost is not finite is
    a rejected trial: the step is halved and the report counts it."""

    def test_blown_up_trial_is_halved(self, monkeypatch):
        # the first trial's march overflows at step 7
        states = count_calls(monkeypatch, optimizer_module, "solve_state")
        pd = small_problem(L=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = optimize(pd, None, OptimizeOptions(initial_step=1e12))
        assert rep.converged and rep.n_nonfinite_trials >= 1
        assert rep.n_halvings >= rep.n_nonfinite_trials
        # a blown-up trial is a state solve that was attempted
        assert rep.n_state_solves == len(states)
        js = [r.J for r in rep.iterates]
        assert all(b <= a for a, b in zip(js, js[1:]))
        assert np.isfinite(rep.J_final)

    def test_overflowing_cost_is_rejected_without_warnings(self):
        # the trial state stays finite but its cost overflows
        pd = small_problem(L=1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = optimize(pd, None, OptimizeOptions(initial_step=1e8))
        assert rep.converged and rep.n_nonfinite_trials >= 1
        assert rep.n_halvings >= rep.n_nonfinite_trials
        assert np.isfinite(rep.J_final)

    def test_overflowing_trial_point_is_rejected(self):
        # t * g overflows: the trial point is not finite, so it is halved
        pd = small_problem(lam=1e300, L=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = optimize(
                pd, start_control(pd, 3, 0), OptimizeOptions(initial_step=1e12, tol=1e-8)
            )
        assert rep.n_nonfinite_trials >= 1
        assert rep.n_halvings >= rep.n_nonfinite_trials
        js = [r.J for r in rep.iterates]
        assert all(b <= a for a, b in zip(js, js[1:]))
        assert np.isfinite(rep.J_final)

    def test_blown_up_start_still_raises(self):
        pd = small_problem(L=1e12)
        u0 = start_control(pd, 0, 0) * (1e-2 / 0.45)  # H1 norm 1e10
        with pytest.raises(BlowUpError):
            optimize(pd, u0, OptimizeOptions(max_iter=3))

    def test_finite_run_counts_none(self):
        rep = optimize(reachable_problem(), None, OptimizeOptions(max_iter=200))
        assert rep.converged and rep.n_nonfinite_trials == 0


class TestCostReadsTheStack:
    def test_optimize_builds_no_velocity_copy(self, monkeypatch):
        pd = small_problem()
        reads = count_velocity_reads(monkeypatch)
        rep = optimize(pd)
        assert len(reads) == 0 and rep.n_state_solves == 3
        # the same bits as cost on the velocity trajectory
        want = cost(rep.u_final, rep.final_state.velocity, pd.y_d, pd.lam)
        assert rep.J_final.hex() == want.hex()

    def test_optimize_normalizes_the_target_once(self, monkeypatch):
        # a Trajectory target used to be checked and stacked on every state solve
        pd = small_problem()
        moving = pd.target_stack() * np.linspace(0.5, 1.5, pd.m_steps + 1)[:, None, None, None]
        pd = replace(pd, y_d=Trajectory(pd.grid, pd.dt, "target", moving))
        stacks = count_calls(monkeypatch, optimizer_module, "_target_stack")
        rep = optimize(pd)
        assert stacks == [] and rep.n_state_solves == 3
        want = cost(rep.u_final, rep.final_state.velocity, pd.y_d, pd.lam)
        assert rep.J_final.hex() == want.hex()


class TestSolenoidalPart:
    def test_output_divergence_free(self):
        pd = small_problem()
        u = smooth_control(pd, 4)
        s = solenoidal_part(u)
        h = pd.grid.h
        worst = max(
            np.abs(d1c(s.data[k, 0], h) + d2c(s.data[k, 1], h)).max()
            for k in range(pd.m_steps + 1)
        )
        assert worst <= 1e-12 * max(np.abs(s.data).max(), 1.0)

    def test_kind_preserved(self):
        pd = small_problem()
        s = solenoidal_part(smooth_control(pd, 4))
        assert s.kind == "control"

    def test_equals_per_slice_projection(self):
        pd = small_problem()
        u = smooth_control(pd, 4)
        s = solenoidal_part(u)
        for k in range(pd.m_steps + 1):
            p1, p2 = solenoidal_projection_values(u.data[k, 0], u.data[k, 1], pd.grid.h)
            assert np.array_equal(s.data[k, 0], p1) and np.array_equal(s.data[k, 1], p2)


# a valid call's counts and seeds; one at a time is made a float or negative
_COUNTS_AND_SEEDS = {
    estimate_constant: {"samples": 2, "seed": 0, "n_modes": 2},
    sample_field: {"index": 0, "seed": 0, "n_modes": 2},
    start_control: {"seed": 0, "index": 0},
    multi_start_uniqueness: {"n_starts": 2, "seed": 0},
}


@pytest.mark.parametrize(
    "fn, name, value",
    [
        (fn, name, -1 if name == "seed" else float(good))
        for fn, kwargs in _COUNTS_AND_SEEDS.items()
        for name, good in kwargs.items()
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_count_or_seed_refused_before_any_draw_or_solve(monkeypatch, fn, name, value):
    # refused by name, not by numpy or by range(), and before J(0) is solved
    pd = small_problem()
    solves = count_calls(monkeypatch, optimizer_module, "solve_state")
    draws = count_calls(monkeypatch, np.random, "default_rng")
    by_kind = fn in (estimate_constant, sample_field)
    args, on_grid = (("korn",), {"grid": pd.grid}) if by_kind else ((pd,), {})
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        fn(*args, **{**_COUNTS_AND_SEEDS[fn], name: value}, **on_grid)
    assert solves == [] and draws == []


class TestMultiStart:
    def test_needs_at_least_two_starts(self):
        pd = small_problem()
        with pytest.raises(ValueError, match="n_starts"):
            multi_start_uniqueness(pd, 1, seed=0)

    def test_start_controls_deterministic_and_admissible(self):
        pd = small_problem()
        a = start_control(pd, 7, 0)
        b = start_control(pd, 7, 0)
        c = start_control(pd, 7, 1)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert control_h1_norm(a) <= 0.45 * pd.L * (1.0 + 1e-12)

    def test_strongly_regularized_minima_coincide(self):
        g = Grid(10)
        pd = ProblemData(
            alpha=0.4,
            nu=0.2,
            T=0.25,
            grid=g,
            m_steps=6,
            y0=velocity_from_stream(
                stream_from_coeffs(g, 0.01 * np.random.default_rng(5).standard_normal((3, 3)))
            ),
            y_d=velocity_from_stream(
                stream_from_coeffs(g, 0.05 * np.random.default_rng(7).standard_normal((2, 2)))
            ),
            L=1.0,
            lam=1.0,
        )
        ms = multi_start_uniqueness(pd, 2, seed=3, opts=OptimizeOptions(max_iter=150))
        assert isinstance(ms, MultiStartReport)
        assert ms.all_within_tol
        assert ms.max_distance <= 1e-5 * pd.L
        assert np.allclose(ms.distances, ms.distances.T)
        assert float(np.trace(ms.distances)) == 0.0
        assert all(r.converged for r in ms.reports)

    def test_zero_control_is_solved_once(self, monkeypatch):
        pd = small_problem(L=1e6)
        states = count_calls(monkeypatch, optimizer_module, "solve_state")
        ms = multi_start_uniqueness(pd, 3, 0)
        assert len(states) == 1 + sum(r.n_state_solves for r in ms.reports)
        tol = optimize(pd, None, OptimizeOptions(max_iter=0)).tol
        assert all(r.tol == tol for r in ms.reports)

    def test_relative_spread_does_not_grow_with_L(self):
        # the ball is inactive at both radii, so the minimizer and its spread
        # stay put while distance_tol grows a hundredfold
        # (1.13e-5 at L = 1e3 and 9.23e-6 at L = 1e5 when this was written)
        for L in (1e3, 1e5):
            ms = multi_start_uniqueness(small_problem(L=L), 3, 0)
            assert ms.all_converged
            assert ms.distance_tol == 1e-5 * L
            tau = trap_weights(ms.reports[0].u_final.m_steps, ms.reports[0].u_final.dt)
            norm = max(l2q_norm(solenoidal_part(r.u_final), tau) for r in ms.reports)
            assert norm > 0.0
            assert ms.relative_spread == ms.max_distance / norm
            assert 1e-6 < ms.relative_spread < 3e-5

    def test_relative_spread_of_zero_parts_is_zero(self, monkeypatch):
        # every start is the zero control and stays there, so every
        # solenoidal part and its norm are 0
        monkeypatch.setattr(
            optimizer_module, "start_control", lambda pd, seed, i: pd.zero_control()
        )
        ms = multi_start_uniqueness(small_problem(), 2, 0, opts=OptimizeOptions(max_iter=0))
        assert ms.max_distance == 0.0
        assert ms.relative_spread == 0.0

    def test_without_constants_no_threshold(self):
        # the probe certifies nothing: it takes no constants, and its report
        # holds no threshold, verdict or illustrative flag (certify gives them)
        pd = small_problem(lam=0.5)
        ms = multi_start_uniqueness(pd, 2, seed=1, opts=OptimizeOptions(max_iter=60))
        assert [f.name for f in fields(MultiStartReport)] == [
            "reports", "distances", "distance_tol", "relative_spread",
        ]
        for name in ("uniqueness_threshold", "lambda_exceeds_threshold", "illustrative"):
            assert not hasattr(ms, name)
        # a call that still passes constants before opts is refused, not bound to opts
        with pytest.raises(TypeError):
            multi_start_uniqueness(pd, 2, 1, DomainConstants(), OptimizeOptions(max_iter=0))
