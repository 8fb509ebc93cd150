"""Tests for the linearized (tangent) and second-order solvers.

The main oracle is the Taylor expansion of the control-to-state map: with
z = S'(u)w and zz = S''(u)[w,w],

    S(u + eps*w) - S(u) - eps*z            = O(eps^2)
    S(u + eps*w) - S(u) - eps*z - eps^2/2*zz = O(eps^3)

so halving eps must divide the remainders by ~4 and ~8.  Since the tangent
solvers differentiate the stepper exactly, everything else here (linearity,
symmetry, zero propagation) holds to roundoff, not discretization error.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from sgf2d.adjoint import duality_gap, solve_adjoint
from sgf2d import grid as grid_module
from sgf2d import sensitivity as sensitivity_module
from sgf2d import state as state_module
from sgf2d.grid import Grid, GridMismatchError, _blocks, _time_blocks, arakawa, velocity_from_stream
from sgf2d.sensitivity import TangentState, solve_linearized, solve_second
from sgf2d.spaces import stream_from_coeffs
from sgf2d.state import (
    BlowUpError,
    ProblemData,
    Trajectory,
    l2q_norm,
    solve_state,
    trap_weights,
)

from helpers import count_calls, second_per_step, smooth_control, tangent_per_step


def small_problem(n=12, m=8, seed=5):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    psi = stream_from_coeffs(g, 0.01 * rng.standard_normal((3, 3)))
    return ProblemData(
        alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=m, y0=velocity_from_stream(psi)
    )


class TestLinearizedBasics:
    def test_zero_direction_gives_zero_tangent(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        tan = solve_linearized(base, pd.zero_control(), pd)
        assert np.all(tan.z == 0.0)
        assert np.all(tan.dq == 0.0)
        assert np.all(tan.dpsi == 0.0)

    def test_tangent_starts_from_rest(self):
        # the initial condition does not depend on the control
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        tan = solve_linearized(base, smooth_control(pd, 2), pd)
        assert np.all(tan.z[0] == 0.0)
        assert np.abs(tan.z[1:]).max() > 0.0

    def test_trajectory_views(self):
        pd = small_problem()
        base = solve_state(None, pd)
        tan = solve_linearized(base, smooth_control(pd, 2), pd)
        assert tan.z_traj.kind == "tangent"
        assert tan.z_traj.is_vector
        assert tan.q_tangent.kind == "potential_vorticity"
        assert tan.q_tangent.m_steps == pd.m_steps

    @pytest.mark.parametrize(
        "solver",
        [
            lambda base, pd: solve_linearized(base, pd.zero_control(), pd),
            lambda base, pd: solve_adjoint(base, None, pd),
            lambda base, pd: duality_gap(base, pd.zero_control(), pd.zero_control(), pd),
        ],
        ids=["solve_linearized", "solve_adjoint", "duality_gap"],
    )
    def test_base_from_other_problem_rejected(self, solver):
        pd = small_problem()
        base = solve_state(None, pd)
        other = ProblemData(
            alpha=pd.alpha * 2,
            nu=pd.nu,
            T=pd.T,
            grid=pd.grid,
            m_steps=pd.m_steps,
            y0=pd.y0,
        )
        with pytest.raises(ValueError, match="different problem data"):
            solver(base, other)

    @pytest.mark.parametrize("name", ["nu", "alpha", "T"])
    def test_base_of_changed_problem_data_refused(self, name):
        # a copy of base.pd with one sweep parameter changed is refused
        pd = small_problem()
        base = solve_state(None, pd)
        w = smooth_control(pd, 2)
        kept = solve_linearized(base, w, pd)
        solve_adjoint(base, None, pd)
        changed = replace(pd, **{name: 2.0 * getattr(pd, name)})
        for solver in (
            lambda: solve_linearized(base, w, changed),
            lambda: solve_adjoint(base, None, changed),
            lambda: solve_second(base, kept, kept, changed),
        ):
            with pytest.raises(ValueError, match="different problem data"):
                solver()
        assert solve_linearized(base, w, pd) is kept

    def test_overflowing_direction_refused(self):
        # a direction of 1e306 overflows the curl at the walls; the tangent
        # must refuse at the first step instead of returning NaN slices
        g = Grid(16)
        pd = ProblemData(
            alpha=0.05, nu=0.02, T=2.0, grid=g, m_steps=3,
            y0=velocity_from_stream(stream_from_coeffs(g, np.zeros((1, 1)))),
        )
        base = solve_state(None, pd)
        w = Trajectory(g, pd.dt, "control", np.full((4, 2, 16, 16), 1e306))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a RuntimeWarning
            with pytest.raises(BlowUpError, match="blew up at step 1") as exc:
                solve_linearized(base, w, pd)
        assert exc.value.step == 1

    def test_misaligned_direction_rejected(self):
        pd = small_problem()
        base = solve_state(None, pd)
        short = Trajectory(
            pd.grid,
            pd.dt,
            "control",
            np.zeros((pd.m_steps, 2, pd.grid.n_interior, pd.grid.n_interior)),
        )
        with pytest.raises(GridMismatchError, match="not aligned"):
            solve_linearized(base, short, pd)

    def test_direction_with_other_step_size_rejected(self):
        pd = small_problem(n=8, m=4)
        base = solve_state(None, pd)
        w = Trajectory(pd.grid, 0.37, "control", smooth_control(pd, 2).data)
        with pytest.raises(GridMismatchError, match="not aligned"):
            solve_linearized(base, w, pd)


class TestLinearity:
    def test_homogeneous_in_direction(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w = smooth_control(pd, 2)
        t1 = solve_linearized(base, w, pd)
        t2 = solve_linearized(base, w * (-2.5), pd)
        scale = np.abs(t1.z).max()
        assert np.abs(t2.z + 2.5 * t1.z).max() <= 1e-12 * scale

    def test_superposition(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        wa = smooth_control(pd, 2)
        wb = smooth_control(pd, 3)
        za = solve_linearized(base, wa, pd).z
        zb = solve_linearized(base, wb, pd).z
        zab = solve_linearized(base, wa + wb, pd).z
        scale = np.abs(za).max() + np.abs(zb).max()
        assert np.abs(zab - (za + zb)).max() <= 1e-12 * scale


class TestSecondOrder:
    def test_zero_tangents_give_zero(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        t0 = solve_linearized(base, pd.zero_control(), pd)
        tt = solve_second(base, t0, t0, pd)
        assert np.all(tt.z == 0.0)

    def test_symmetric_in_the_two_tangents(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        t1 = solve_linearized(base, smooth_control(pd, 2), pd)
        t2 = solve_linearized(base, smooth_control(pd, 3), pd)
        z12 = solve_second(base, t1, t2, pd)
        z21 = solve_second(base, t2, t1, pd)
        # the cross source is assembled symmetrically, so this is bitwise
        assert np.array_equal(z12.z, z21.z)

    def test_one_tangent_object_matches_the_two_call_path(self):
        # t_copy is a distinct TangentState over the same arrays, so the
        # second sweep takes the two-call cross term instead of 2 * t.cross
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        t = solve_linearized(base, smooth_control(pd, 2), pd)
        t_copy = TangentState(t.pd, t.z, t.dq, t.dpsi)
        one = solve_second(base, t, t, pd)
        two = solve_second(base, t, t_copy, pd)
        for a, b in ((one.z, two.z), (one.dq, two.dq), (one.dpsi, two.dpsi)):
            assert a.tobytes() == b.tobytes()
        assert "cross" not in vars(t_copy)

    def test_cross_is_read_only_and_computed_once(self, monkeypatch):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        t = solve_linearized(base, smooth_control(pd, 2), pd)
        calls = count_calls(monkeypatch, sensitivity_module, "arakawa")
        steps = count_calls(monkeypatch, state_module, "arakawa")
        cross = t.cross
        # one call per time block of the pair (dq, dpsi)
        assert len(calls) == len(_blocks(pd.m_steps, 2 * cross[0].nbytes)) == 1
        assert t.cross is cross
        solve_second(base, t, t, pd)
        # the cross term is not taken again; the march makes its own two per step
        assert (len(calls), len(steps)) == (1, 2 * pd.m_steps)
        assert cross.shape == (pd.m_steps,) + pd.grid.shape
        assert not cross.flags.writeable
        with pytest.raises(ValueError):
            cross[0, 0, 0] = 1.0
        for k in range(pd.m_steps):
            assert np.array_equal(cross[k], arakawa(t.dq[k], t.dpsi[k], pd.grid.h))

    def test_cross_with_is_the_tangent_pair_jacobian(self, monkeypatch):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        t1 = solve_linearized(base, smooth_control(pd, 2), pd)
        t2 = solve_linearized(base, smooth_control(pd, 3), pd)
        assert t1.cross_with(t1) is t1.cross
        calls = count_calls(monkeypatch, sensitivity_module, "arakawa")
        j12 = t1.cross_with(t2)
        # a new stack on each call with another tangent, never cached
        assert len(calls) == 1 and j12 is not t1.cross_with(t2)
        assert "cross" not in vars(t2)
        for k in range(pd.m_steps):
            assert np.array_equal(j12[k], arakawa(t1.dq[k], t2.dpsi[k], pd.grid.h))

    def test_bilinear_scaling(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w1 = smooth_control(pd, 2)
        w2 = smooth_control(pd, 3)
        t1 = solve_linearized(base, w1, pd)
        t1s = solve_linearized(base, w1 * 3.0, pd)
        t2 = solve_linearized(base, w2, pd)
        zz = solve_second(base, t1, t2, pd).z
        zzs = solve_second(base, t1s, t2, pd).z
        scale = np.abs(zz).max()
        assert np.abs(zzs - 3.0 * zz).max() <= 1e-11 * scale


class TestSweepShape:
    """Each sweep writes its source stack before the march and takes its
    velocities after it; the bits are those of a source and a velocity per step."""

    # at 40^2 x 6 the source curls take three time blocks, the velocities and
    # the cross term two
    @pytest.mark.parametrize("n,m", [(8, 5), (16, 3), (40, 6)])
    def test_bits_equal_per_step_loop(self, n, m):
        pd = small_problem(n=n, m=m)
        base = solve_state(smooth_control(pd, 1), pd)
        w1, w2 = smooth_control(pd, 2), smooth_control(pd, 3)
        t1, t2 = solve_linearized(base, w1, pd), solve_linearized(base, w2, pd)
        for got, ref in (
            (t1, tangent_per_step(base, w1, pd)),
            (solve_second(base, t1, t1, pd), second_per_step(base, t1, t1, pd)),
            (solve_second(base, t1, t2, pd), second_per_step(base, t1, t2, pd)),
        ):
            assert np.abs(got.z).max() > 0.0
            for name, want in zip(("z", "dq", "dpsi"), ref):
                assert getattr(got, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n,m", [(8, 5), (40, 6)])
    def test_one_stencil_call_per_time_block(self, monkeypatch, n, m):
        pd = small_problem(n=n, m=m)
        base = solve_state(smooth_control(pd, 1), pd)
        w1, w2 = smooth_control(pd, 2), smooth_control(pd, 3)
        curls = count_calls(monkeypatch, grid_module, "curl_values")
        velocities = count_calls(monkeypatch, grid_module, "velocity_values")
        crosses = count_calls(monkeypatch, sensitivity_module, "arakawa")
        counters = (curls, velocities, crosses)
        source_blocks = len(_time_blocks(w1.data[1:]))
        out_blocks = len(_time_blocks(base.psi[1:]))
        cross_blocks = len(_blocks(m, 2 * base.q[0].nbytes))  # a pair (dq, dpsi) per step
        assert (source_blocks, out_blocks, cross_blocks) == ((1, 1, 1) if n == 8 else (3, 2, 3))
        t1 = solve_linearized(base, w1, pd)
        t2 = solve_linearized(base, w2, pd)
        for sweep, expected in (
            (lambda: solve_linearized(base, w1 * 2.0, pd), (source_blocks, out_blocks, 0)),
            (lambda: solve_second(base, t1, t2, pd), (0, out_blocks, 2 * cross_blocks)),
            (lambda: solve_second(base, t1, t1, pd), (0, out_blocks, cross_blocks)),
        ):
            for c in counters:
                c.clear()
            sweep()
            assert tuple(len(c) for c in counters) == expected


class TestTaylorRemainders:
    def test_first_and_second_order_rates(self):
        # run at the scale used for the sign-off checks so the remainders sit
        # far above roundoff across all three epsilons
        g = Grid(32)
        y0 = velocity_from_stream(
            stream_from_coeffs(g, 0.005 * np.random.default_rng(12).standard_normal((3, 3)))
        )
        pd = ProblemData(alpha=0.5, nu=0.1, T=0.5, grid=g, m_steps=50, y0=y0, L=5.0)
        u = smooth_control(pd, 3, amplitude=0.02)
        w = smooth_control(pd, 4)
        w = w * (3.0 / l2q_norm(w, trap_weights(pd.m_steps, pd.dt)))

        base = solve_state(u, pd)
        tan = solve_linearized(base, w, pd)
        tt = solve_second(base, tan, tan, pd)

        errs1, errs2 = [], []
        for eps in (1e-2, 5e-3, 2.5e-3):
            yp = solve_state(u + w * eps, pd)
            r1 = yp.y - base.y - eps * tan.z
            errs1.append(np.abs(r1).max())
            errs2.append(np.abs(r1 - 0.5 * eps * eps * tt.z).max())

        for a, b in zip(errs1, errs1[1:]):
            assert 3.6 <= a / b <= 4.4
        for a, b in zip(errs2, errs2[1:]):
            assert 7.0 <= a / b <= 9.0
