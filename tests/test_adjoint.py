"""Tests for the adjoint sweep, duality, and the gradient representative.

Two independent oracles anchor this file.  The duality identity
<S'(u)w, phi>_rho = <w, A*(phi)>_tau must hold to roundoff because the
backward sweep is the exact transpose of the forward tangent stepper.  The
gradient is then cross-checked against central differences of the full cost,
which never touch the adjoint code path.  A third, weaker check marches a
direct discretization of the continuous adjoint equation and confirms the
transpose recursion agrees with it to O(dt); this ties the discrete adjoint
to the PDE it is supposed to approximate rather than just to the discrete
objective.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sgf2d import adjoint as adjoint_module
from sgf2d import grid as grid_module
from sgf2d import sensitivity as sensitivity_module
from sgf2d import state as state_module
from sgf2d.adjoint import _adjoint_core, duality_gap, gradient_field, solve_adjoint
from sgf2d.certificates import CertificateInputs, check_adjoint_bound, hessian_quadratic_form
from sgf2d.grid import (
    Grid,
    GridMismatchError,
    _time_blocks,
    apply_symbol,
    arakawa,
    d1c,
    d2c,
    helmholtz_solve_values,
    poisson_solve_values,
    velocity_from_stream,
)
from sgf2d.optimizer import OptimizeOptions, cost, optimize
from sgf2d.sensitivity import solve_linearized, solve_second
from sgf2d.spaces import DomainConstants, stream_from_coeffs
from sgf2d.state import (
    ProblemData,
    Trajectory,
    get_ops,
    left_weights,
    slice_dots,
    solve_state,
    trap_weights,
)

from helpers import adjoint_core_per_step, count_calls, smooth_control


def small_problem(n=14, m=10, with_target=True):
    g = Grid(n)
    rng = np.random.default_rng(5)
    y0 = velocity_from_stream(stream_from_coeffs(g, 0.01 * rng.standard_normal((3, 3))))
    yd = None
    if with_target:
        yd = velocity_from_stream(
            stream_from_coeffs(g, 0.1 * np.random.default_rng(7).standard_normal((2, 2)))
        )
    return ProblemData(alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=m, y0=y0, y_d=yd)


def strong_tracking_problem():
    # target far from the reachable set, so the gradient is O(1) and central
    # differences sit far above cancellation error
    g = Grid(32)
    y0 = velocity_from_stream(
        stream_from_coeffs(g, 0.005 * np.random.default_rng(12).standard_normal((3, 3)))
    )
    yd = velocity_from_stream(
        stream_from_coeffs(g, 0.3 * np.random.default_rng(7).standard_normal((2, 2)))
    )
    return ProblemData(
        alpha=0.5, nu=0.1, T=0.5, grid=g, m_steps=50, y0=y0, y_d=yd, L=5.0, lam=1e-3
    )


class TestAdjointBasics:
    def test_endpoints_vanish(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        adj = solve_adjoint(base, None, pd)
        # p(T) = 0 is the terminal condition; p(0) carries zero quadrature
        # weight in the left-rectangle pairing and is pinned to zero
        assert np.all(adj.p[adj.terminal_index] == 0.0)
        assert np.all(adj.p[0] == 0.0)
        assert np.abs(adj.p[1:-1]).max() > 0.0

    def test_matched_target_gives_zero_adjoint(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        yd = Trajectory(pd.grid, pd.dt, "target", base.y.copy())
        adj = solve_adjoint(base, yd, pd)
        assert np.all(adj.p == 0.0)
        assert np.all(adj.mu == 0.0)
        assert np.all(adj.r == 0.0)

    def test_trajectory_view(self):
        pd = small_problem()
        base = solve_state(None, pd)
        adj = solve_adjoint(base, None, pd)
        assert adj.p_traj.kind == "adjoint"
        assert adj.p_traj.m_steps == pd.m_steps

    def test_target_validation(self):
        pd = small_problem()
        base = solve_state(None, pd)
        bad = Trajectory(
            pd.grid,
            pd.dt,
            "target",
            np.zeros((pd.m_steps, 2, pd.grid.n_interior, pd.grid.n_interior)),
        )
        with pytest.raises(GridMismatchError, match="not aligned"):
            solve_adjoint(base, bad, pd)
        other = velocity_from_stream(stream_from_coeffs(Grid(9), np.ones((2, 2))))
        with pytest.raises(GridMismatchError, match="different grid"):
            solve_adjoint(base, other, pd)
        with pytest.raises(ValueError, match="y_d must be"):
            solve_adjoint(base, 3.0, pd)

    def test_target_with_other_step_size_rejected(self):
        # 14^2 x 10 against a target sampled with dt 0.37
        pd = small_problem()
        base = solve_state(None, pd)
        target = Trajectory(pd.grid, 0.37, "target", base.y)
        with pytest.raises(GridMismatchError, match="not aligned"):
            solve_adjoint(base, target, pd)
        with pytest.raises(GridMismatchError, match="not aligned"):
            cost(smooth_control(pd, 1), base.velocity, target, pd.lam)
        with pytest.raises(GridMismatchError, match="not aligned"):
            ProblemData(
                alpha=pd.alpha, nu=pd.nu, T=pd.T, grid=pd.grid, m_steps=pd.m_steps,
                y0=pd.y0, y_d=target,
            )
        # a dt within 1e-12 relative is the same step
        near = Trajectory(pd.grid, pd.dt * (1.0 + 1e-14), "target", base.y)
        assert not np.any(solve_adjoint(base, near, pd).p)

    def test_affine_in_target(self):
        # p depends linearly on the mismatch y - y_d
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        s = smooth_control(pd, 9, amplitude=0.3).data
        p1 = solve_adjoint(base, Trajectory(pd.grid, pd.dt, "target", base.y - s), pd).p
        p2 = solve_adjoint(
            base, Trajectory(pd.grid, pd.dt, "target", base.y - 2.0 * s), pd
        ).p
        assert np.abs(p2 - 2.0 * p1).max() <= 1e-12 * np.abs(p2).max()

    def test_superposition_in_target(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        sa = smooth_control(pd, 9, amplitude=0.3).data
        sb = smooth_control(pd, 10, amplitude=0.2).data
        pa = solve_adjoint(base, Trajectory(pd.grid, pd.dt, "target", base.y - sa), pd).p
        pb = solve_adjoint(base, Trajectory(pd.grid, pd.dt, "target", base.y - sb), pd).p
        pab = solve_adjoint(
            base, Trajectory(pd.grid, pd.dt, "target", base.y - sa - sb), pd
        ).p
        scale = np.abs(pa).max() + np.abs(pb).max()
        assert np.abs(pab - (pa + pb)).max() <= 1e-12 * scale


class TestDuality:
    def test_zero_direction_zero_gap(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        phi = smooth_control(pd, 2)
        assert duality_gap(base, pd.zero_control(), phi, pd) == 0.0

    def test_random_pairs_close_duality_to_roundoff(self):
        pd = strong_tracking_problem()
        base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
        rho = left_weights(pd.m_steps, pd.dt)
        h2 = pd.grid.h ** 2
        for seed in (21, 22, 23):
            w = smooth_control(pd, seed)
            phi = smooth_control(pd, seed + 40)
            tan = solve_linearized(base, w, pd)
            pairing = abs(h2 * float(np.dot(rho, slice_dots(tan.z, phi.data))))
            gap = duality_gap(base, w, phi, pd)
            assert gap <= 1e-10 * pairing
            # the identity is symmetric in which factor plays the source
            assert duality_gap(base, phi, w, pd) <= 1e-9 * pairing

    def test_misaligned_inputs_rejected(self):
        pd = small_problem(n=8, m=4)
        base = solve_state(None, pd)
        w, phi = smooth_control(pd, 2), smooth_control(pd, 3)
        n = pd.grid.n_interior
        other = small_problem(n=9, m=4)
        bad_phis = [
            Trajectory(pd.grid, pd.dt, "control", np.zeros((pd.m_steps, 2, n, n))),
            Trajectory(pd.grid, pd.dt, "vorticity", np.zeros((pd.m_steps + 1, n, n))),
            other.zero_control(),
            Trajectory(pd.grid, 0.37, "control", phi.data),
        ]
        for bad in bad_phis:
            with pytest.raises(GridMismatchError, match="not aligned"):
                duality_gap(base, w, bad, pd)
        with pytest.raises(GridMismatchError, match="not aligned"):
            duality_gap(base, Trajectory(pd.grid, 0.37, "control", w.data), phi, pd)


class TestSweepMemo:
    """The tracking adjoint kept on its base state, keyed by the pd object and
    the target object: the problem's own target stack for None, the data of
    a target Trajectory otherwise. A target of the same bits in a new object
    is swept again, with the same bits."""

    def test_hit_returns_the_same_adjoint(self, monkeypatch):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        ref = _adjoint_core(base, base.y - pd.target_stack(), pd)
        sweeps = count_calls(monkeypatch, adjoint_module, "_adjoint_core")
        adj = solve_adjoint(base, None, pd)
        assert solve_adjoint(base, None, pd) is adj
        assert len(sweeps) == 1
        for got, want in ((adj.p, ref.p), (adj.mu, ref.mu), (adj.r, ref.r)):
            assert got.tobytes() == want.tobytes()
        # the problem's target field passed explicitly makes a new stack: a miss
        again = solve_adjoint(base, pd.y_d, pd)
        assert again is not adj and len(sweeps) == 2
        for got, want in ((again.p, ref.p), (again.mu, ref.mu), (again.r, ref.r)):
            assert got.tobytes() == want.tobytes()

    def test_reassigned_target_recomputes(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        adj = solve_adjoint(base, None, pd)
        pd = replace(pd, y_d=velocity_from_stream(
            stream_from_coeffs(pd.grid, 0.1 * np.random.default_rng(8).standard_normal((2, 2)))
        ))
        adj2 = solve_adjoint(base, None, pd)
        assert adj2 is not adj
        ref = _adjoint_core(base, base.y - pd.target_stack(), pd)
        assert adj2.p.tobytes() == ref.p.tobytes()
        assert adj2.p.tobytes() != adj.p.tobytes()

    def test_one_ulp_in_the_mismatch_is_a_miss(self):
        # with no target the mismatch is y itself; a target of minus one ulp
        # at a positive entry moves that mismatch entry up by exactly one ulp
        pd = small_problem(with_target=False)
        base = solve_state(smooth_control(pd, 1), pd)
        adj = solve_adjoint(base, None, pd)
        e = (4,) + np.unravel_index(np.argmax(base.y[4]), base.y[4].shape)
        yd = np.zeros_like(base.y)
        yd[e] = -np.spacing(base.y[e])
        mismatch = base.y - yd
        assert mismatch[e] == np.nextafter(base.y[e], np.inf)
        adj2 = solve_adjoint(base, Trajectory(pd.grid, pd.dt, "target", yd), pd)
        assert adj2 is not adj
        assert adj2.p.tobytes() == _adjoint_core(base, mismatch, pd).p.tobytes()

    def test_negative_zero_in_the_mismatch_is_a_miss(self):
        # at rest the second velocity component is -0.0 everywhere, so a
        # -0.0 target entry turns that mismatch entry from -0.0 into +0.0
        g = Grid(8)
        rest = velocity_from_stream(stream_from_coeffs(g, np.zeros((1, 1))))
        pd = ProblemData(alpha=0.4, nu=0.2, T=0.25, grid=g, m_steps=4, y0=rest)
        base = solve_state(None, pd)
        assert np.signbit(base.y[2, 1, 3, 3])
        yd = np.zeros_like(base.y)
        adj = solve_adjoint(base, Trajectory(g, pd.dt, "target", yd), pd)
        flipped = yd.copy()
        flipped[2, 1, 3, 3] = -0.0
        assert np.array_equal(base.y - flipped, base.y - yd)  # equal as numbers
        assert solve_adjoint(base, Trajectory(g, pd.dt, "target", flipped), pd) is not adj

    def test_other_problem_object_is_a_miss(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        twin = ProblemData(
            alpha=pd.alpha, nu=pd.nu, T=pd.T, grid=pd.grid, m_steps=pd.m_steps,
            y0=pd.y0, y_d=pd.y_d,
        )
        adj = solve_adjoint(base, None, pd)
        adj_twin = solve_adjoint(base, None, twin)
        assert adj_twin is not adj and adj_twin.pd is twin
        assert adj_twin.p.tobytes() == adj.p.tobytes()

    @pytest.mark.parametrize("with_target", [True, False])
    def test_hit_allocates_nothing_of_the_stack_size(self, with_target):
        # the mismatch is formed only on a miss, so a hit makes nothing of the
        # stack size
        pd = small_problem(n=40, m=50, with_target=with_target)
        base = solve_state(smooth_control(pd, 1), pd)
        target = Trajectory(pd.grid, pd.dt, "target", pd.target_stack())
        for y_d in (None, target):
            adj = solve_adjoint(base, y_d, pd)
            tracemalloc.start()
            try:
                assert solve_adjoint(base, y_d, pd) is adj
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= base.y.nbytes // 4

    @pytest.mark.parametrize("with_target", [True, False])
    def test_hit_peaks_below_a_quarter_block(self, with_target):
        # the optimizer's and sweep63's hits: the key is tested by identity and
        # the problem keeps its target stack, so a hit allocates only small
        # objects, nothing per time block
        pd = small_problem(n=40, m=50, with_target=with_target)
        base = solve_state(smooth_control(pd, 1), pd)
        assert len(_time_blocks(base.y)) > 1
        w = smooth_control(pd, 2)
        for hit in (lambda: solve_adjoint(base, None, pd), lambda: solve_linearized(base, w, pd)):
            kept = hit()
            tracemalloc.start()
            try:
                assert hit() is kept
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024

    @pytest.mark.parametrize("k", [0, 25, 50])
    @pytest.mark.parametrize("entry", [-0.0, "ulp"])
    def test_a_bit_in_any_block_is_a_miss(self, k, entry):
        # one bit of the target in slice k, the first, a middle or the last
        # time block, gives a miss whose sweep sees that bit; -0.0 is not 0.0
        pd = small_problem(n=40, m=50, with_target=False)
        base = solve_state(smooth_control(pd, 1), pd)
        zero = Trajectory(pd.grid, pd.dt, "target", np.zeros_like(base.y))
        adj = solve_adjoint(base, zero, pd)
        assert solve_adjoint(base, zero, pd) is adj
        moved = zero.data.copy()
        moved[k, 0, 7, 9] = -0.0 if entry == -0.0 else np.spacing(1.0)
        got = solve_adjoint(base, Trajectory(pd.grid, pd.dt, "target", moved), pd)
        assert got is not adj
        assert got.p.tobytes() == _adjoint_core(base, base.y - moved, pd).p.tobytes()

    def test_equal_bits_in_a_new_object_is_a_miss(self, monkeypatch):
        pd = small_problem(n=40, m=50, with_target=False)
        base = solve_state(smooth_control(pd, 1), pd)
        zero = Trajectory(pd.grid, pd.dt, "target", np.zeros_like(base.y))
        ref = _adjoint_core(base, base.y - zero.data, pd)
        sweeps = count_calls(monkeypatch, adjoint_module, "_adjoint_core")
        adj = solve_adjoint(base, zero, pd)
        assert solve_adjoint(base, zero, pd) is adj
        again = solve_adjoint(base, Trajectory(pd.grid, pd.dt, "target", zero.data), pd)
        assert again is not adj and len(sweeps) == 2
        for got, want in ((again.p, ref.p), (again.mu, ref.mu), (again.r, ref.r)):
            assert got.tobytes() == want.tobytes()

    def test_adjoint_arrays_are_read_only(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        phi = smooth_control(pd, 2)
        for adj in (solve_adjoint(base, None, pd), _adjoint_core(base, phi.data, pd)):
            for a in (adj.p, adj.mu, adj.r):
                with pytest.raises(ValueError, match="read-only"):
                    a[1] = 0.0


class TestSweepTraffic:
    """The hits the sweep memo serves to its two callers of record."""

    def test_sweep63_op_sequence(self, monkeypatch):
        # per input: the gap's tangent and the second-order tangent are swept,
        # the gap's own adjoint runs outside the memo; the repeat tangents and
        # every tracking adjoint after the first are hits
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        tangents = count_calls(monkeypatch, sensitivity_module, "_propagate")
        adjoints = count_calls(monkeypatch, adjoint_module, "_adjoint_core")
        for i in range(3):
            w, phi = smooth_control(pd, 10 + i), smooth_control(pd, 20 + i)
            duality_gap(base, w, phi, pd)
            tan = solve_linearized(base, w, pd)
            solve_second(base, tan, tan, pd)
            hessian_quadratic_form(base, w, pd, pd.lam)
        assert (len(tangents), len(adjoints)) == (6, 4)

    def test_optimize_sweeps_one_adjoint_per_solve(self, monkeypatch):
        pd = replace(small_problem(), L=2.0, lam=1e-3)
        adjoints = count_calls(monkeypatch, adjoint_module, "_adjoint_core")
        rep = optimize(pd, None, OptimizeOptions(max_iter=20))
        assert rep.n_adjoint_solves > 1
        assert len(adjoints) == rep.n_adjoint_solves


class TestFusedAdjointSymbols:
    @pytest.mark.parametrize("n", [3, 16, 33])
    def test_symbols_match_composition(self, n):
        ops = get_ops(small_problem(n=n))
        v = np.random.default_rng(n).standard_normal((n, n))
        pairs = (
            (apply_symbol(v, ops.step_sym[0]), helmholtz_solve_values(ops.Ha(v), ops.b)),
            (
                apply_symbol(v, ops.inv_Ha_inv_P_sym),
                helmholtz_solve_values(poisson_solve_values(v), ops.alpha),
            ),
        )
        for got, ref in pairs:
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_transform_counts_per_step(self, monkeypatch):
        pd = small_problem(n=8, m=7)
        base = solve_state(smooth_control(pd, 1), pd)
        w, phi = smooth_control(pd, 2), smooth_control(pd, 3)
        calls = count_calls(monkeypatch, grid_module, "dstn")
        # Ha is lap5-based; the sweeps reach it only through the state module's name
        lap5_calls = count_calls(monkeypatch, state_module, "lap5")
        solve_linearized(base, w, pd)
        assert len(calls) == 2 * pd.m_steps
        calls.clear()
        _adjoint_core(base, phi.data, pd)
        # one symbol pair for r, one for the summed advection and source terms;
        # the terminal step's r is zero, so it takes only the second pair
        assert len(calls) == 4 * pd.m_steps - 2
        assert not lap5_calls


    @pytest.mark.parametrize("n", [8, 143])
    @pytest.mark.filterwarnings("ignore:advective CFL")  # counts only, no accuracy claim
    def test_transform_counts_on_both_dst_paths(self, monkeypatch, n):
        # n = 8 runs the dense sine matrix, n = 143 (n+1 = 144) scipy's FFT;
        # grid.dstn is the one door either way
        pd = small_problem(n=n, m=3)
        base = solve_state(smooth_control(pd, 1), pd)
        w, phi = smooth_control(pd, 2), smooth_control(pd, 3)
        calls = count_calls(monkeypatch, grid_module, "dstn")
        fft_calls = count_calls(monkeypatch, grid_module, "_fft_dstn")
        # the adjoint's terminal step skips the symbol pair of its zero r
        for sweep, per_step, skipped in (
            (lambda: solve_state(base.u, pd), 2, 0),
            (lambda: solve_linearized(base, w, pd), 2, 0),
            (lambda: _adjoint_core(base, phi.data, pd), 4, 2),
        ):
            calls.clear()
            fft_calls.clear()
            sweep()
            assert len(calls) == per_step * pd.m_steps - skipped
            assert len(fft_calls) == (len(calls) if n == 143 else 0)


class TestSourceTermsOncePerSweep:
    # at 40^2 x 6 the source curls take three time blocks, the velocities two
    @pytest.mark.parametrize("n,m", [(8, 5), (16, 3), (40, 6)])
    @pytest.mark.parametrize("source", ["phi", "tracking"])
    def test_bits_equal_per_step_loop(self, n, m, source):
        pd = small_problem(n=n, m=m)
        base = solve_state(smooth_control(pd, 1), pd)
        src = smooth_control(pd, 3).data if source == "phi" else base.y - pd.target_stack()
        assert np.abs(src).max() > 0.0
        adj = _adjoint_core(base, src, pd)
        for name, ref in zip(("p", "mu", "r"), adjoint_core_per_step(base, src, pd)):
            assert getattr(adj, name).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("n,m", [(8, 1), (8, 4), (8, 9), (40, 6)])
    def test_one_curl_and_one_velocity_call_per_time_block(self, monkeypatch, n, m):
        pd = small_problem(n=n, m=m)
        base = solve_state(smooth_control(pd, 1), pd)
        src = smooth_control(pd, 3).data
        # grid.stack_curl and grid.stack_velocity walk the blocks
        curls = count_calls(monkeypatch, grid_module, "curl_values")
        velocities = count_calls(monkeypatch, grid_module, "velocity_values")
        _adjoint_core(base, src, pd)
        expected = (len(_time_blocks(src[:m])), len(_time_blocks(base.q[1:])))
        assert (len(curls), len(velocities)) == expected
        # small stacks are one block whatever m is
        assert expected == ((1, 1) if n == 8 else (3, 2))


class TestTerminalStep:
    """The terminal step's r[m] is the symbol of mu[m] = 0, so +0.0: the sweep
    skips that step's Jacobians and step symbol. Against the full step of the
    per-step loop only the sign of a zero may differ, so np.array_equal."""

    @pytest.mark.parametrize("n,m", [(8, 1), (8, 2), (16, 5)])
    @pytest.mark.parametrize("source", ["phi", "tracking", "negative-zero"])
    def test_values_equal_full_terminal_step(self, n, m, source):
        pd = small_problem(n=n, m=m)
        base = solve_state(smooth_control(pd, 1), pd)
        src = base.y - pd.target_stack() if source == "tracking" else smooth_control(pd, 3).data
        if source == "negative-zero":
            src = src.copy()
            src[m - 1] = -0.0  # the terminal step's source
        adj = _adjoint_core(base, src, pd)
        for name, ref in zip(("p", "mu", "r"), adjoint_core_per_step(base, src, pd)):
            assert np.array_equal(getattr(adj, name), ref), name
        assert adj.r[m].tobytes() == bytes(adj.r[m].nbytes)
        last = adj.mu[m - 1]
        assert not np.any((last == 0.0) & np.signbit(last))
        if source == "negative-zero":
            assert np.all(last == 0.0)

    @pytest.mark.parametrize("m", [1, 4])
    def test_terminal_step_makes_no_jacobian(self, monkeypatch, m):
        pd = small_problem(n=8, m=m)
        base = solve_state(smooth_control(pd, 1), pd)
        calls = count_calls(monkeypatch, adjoint_module, "arakawa")
        _adjoint_core(base, smooth_control(pd, 3).data, pd)
        assert len(calls) == 2 * (m - 1)


class TestGradientField:
    def test_zero_adjoint_zero_lam(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        yd = Trajectory(pd.grid, pd.dt, "target", base.y.copy())
        adj = solve_adjoint(base, yd, pd)
        g = gradient_field(smooth_control(pd, 2), adj, 0.0)
        assert g.kind == "control"
        assert np.all(g.data == 0.0)

    def test_zero_control_returns_adjoint(self):
        pd = small_problem()
        base = solve_state(None, pd)
        adj = solve_adjoint(base, None, pd)
        g = gradient_field(pd.zero_control(), adj, 0.5)
        assert np.array_equal(g.data, adj.p)

    def test_lam_scaling(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        adj = solve_adjoint(base, None, pd)
        u = smooth_control(pd, 2)
        g1 = gradient_field(u, adj, 0.3)
        g2 = gradient_field(u, adj, 0.6)
        diff = g2.data - g1.data
        assert np.abs(diff - 0.3 * u.data).max() <= 1e-13 * np.abs(u.data).max()

    def test_misaligned_control_rejected(self):
        pd = small_problem()
        base = solve_state(None, pd)
        adj = solve_adjoint(base, None, pd)
        other = small_problem(n=9)
        with pytest.raises(GridMismatchError, match="not aligned"):
            gradient_field(other.zero_control(), adj, 1.0)

    def test_control_with_other_step_size_rejected(self):
        pd = small_problem()
        adj = solve_adjoint(solve_state(None, pd), None, pd)
        u = smooth_control(pd, 2)
        with pytest.raises(GridMismatchError, match="not aligned"):
            gradient_field(Trajectory(pd.grid, 0.37, "control", u.data), adj, 1.0)
        near = Trajectory(pd.grid, pd.dt * (1.0 + 1e-14), "control", u.data)
        assert np.array_equal(gradient_field(near, adj, 1.0).data, gradient_field(u, adj, 1.0).data)

    def test_gradient_matches_central_differences(self):
        pd = strong_tracking_problem()
        u = smooth_control(pd, 3, amplitude=0.02)
        base = solve_state(u, pd)
        adj = solve_adjoint(base, None, pd)
        gfield = gradient_field(u, adj, pd.lam)
        tau = trap_weights(pd.m_steps, pd.dt)
        h2 = pd.grid.h ** 2
        yd = pd.y_d
        eps = 1e-4
        for seed in (31, 32):
            w = smooth_control(pd, seed)
            w = w * (1.0 / np.abs(w.data).max())
            directional = h2 * float(np.dot(tau, slice_dots(gfield.data, w.data)))
            jp = cost(u + w * eps, solve_state(u + w * eps, pd).velocity, yd, pd.lam)
            jm = cost(u - w * eps, solve_state(u - w * eps, pd).velocity, yd, pd.lam)
            fd = (jp - jm) / (2.0 * eps)
            assert abs(directional - fd) <= 1e-6 * abs(fd)


class TestContinuousAdjointConsistency:
    """March a direct semi-implicit discretization of the continuous adjoint

        -d(mu)/dt = J(mu, psi) - Ha^{-1} P^{-1} J(mu, q)
                    + nu Ha^{-1} lap(mu) - rho_k/dt h^2 Ha^{-1} P^{-1} curl(y - y_d)

    with implicit diffusion (the same Hb^{-1} Ha factor the transpose uses).
    The transpose recursion evaluates advection at the post-diffusion iterate,
    so the two differ by O(dt) and must converge at first order.
    """

    @staticmethod
    def direct_adjoint_mu(base, pd, target):
        ops = get_ops(pd)
        n, m = pd.grid.n_interior, pd.m_steps
        h, dt = pd.grid.h, pd.dt
        rho = left_weights(m, dt)
        mu = np.zeros((m + 1, n, n))

        def inv_Ha_inv_P(v):
            return helmholtz_solve_values(poisson_solve_values(v), ops.alpha)

        for k in range(m - 1, -1, -1):
            mis = base.y[k] - target[k]
            curl_s = d1c(mis[1], h) - d2c(mis[0], h)
            src = (rho[k] / dt) * h * h * inv_Ha_inv_P(curl_s)
            expl = mu[k + 1] + dt * (
                arakawa(mu[k + 1], base.psi[k], h)
                - inv_Ha_inv_P(arakawa(mu[k + 1], base.q[k], h))
                + src
            )
            mu[k] = helmholtz_solve_values(ops.Ha(expl), ops.b)
        return mu

    def test_first_order_agreement(self):
        g = Grid(24)
        y0 = velocity_from_stream(
            stream_from_coeffs(g, 0.01 * np.random.default_rng(12).standard_normal((3, 3)))
        )
        yd = velocity_from_stream(
            stream_from_coeffs(g, 0.2 * np.random.default_rng(7).standard_normal((2, 2)))
        )
        errs = []
        for m in (20, 40):
            pd = ProblemData(alpha=0.5, nu=0.1, T=0.5, grid=g, m_steps=m, y0=y0, y_d=yd)
            base = solve_state(smooth_control(pd, 3, amplitude=0.02), pd)
            adj = solve_adjoint(base, None, pd)
            direct = self.direct_adjoint_mu(base, pd, pd.target_stack())
            # mu carries a factor rho_k = dt; normalize before comparing
            scale = np.abs(adj.mu / pd.dt).max()
            errs.append(np.abs(adj.mu - direct).max() / pd.dt / scale)
        assert errs[0] < 0.01
        assert errs[1] < 0.65 * errs[0]


class TestAdjointNormBound:
    def test_h2_bound_against_lambda4(self):
        pd = small_problem(n=16)
        u = smooth_control(pd, 1, amplitude=0.05)
        base = solve_state(u, pd)
        adj = solve_adjoint(base, None, pd)
        ci = CertificateInputs.from_problem(
            pd, DomainConstants(), u=u, u_norm_source="actual"
        )
        chk = check_adjoint_bound(adj, ci)
        # with unit placeholder constants the bound is advisory but must hold
        assert chk.holds
        assert 0.0 < chk.lhs < chk.rhs
