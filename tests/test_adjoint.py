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

import numpy as np
import pytest

from sgf2d import grid as grid_module
from sgf2d import state as state_module
from sgf2d.adjoint import _adjoint_core, duality_gap, gradient_field, solve_adjoint
from sgf2d.certificates import CertificateInputs, check_adjoint_bound
from sgf2d.grid import (
    Grid,
    GridMismatchError,
    apply_symbol,
    arakawa,
    d1c,
    d2c,
    velocity_from_stream,
)
from sgf2d.optimizer import cost
from sgf2d.sensitivity import solve_linearized
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

from helpers import count_calls, smooth_control


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


class TestFusedAdjointSymbols:
    @pytest.mark.parametrize("n", [3, 16, 33])
    def test_symbols_match_composition(self, n):
        ops = get_ops(small_problem(n=n))
        v = np.random.default_rng(n).standard_normal((n, n))
        pairs = (
            (apply_symbol(v, ops.step_sym[0]), ops.inv_Hb(ops.Ha(v))),
            (apply_symbol(v, ops.inv_Ha_inv_P_sym), ops.inv_Ha(ops.inv_P(v))),
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
        # one symbol pair for r, one for the summed advection and source terms
        assert len(calls) == 4 * pd.m_steps
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
        for sweep, per_step in (
            (lambda: solve_state(base.u, pd), 2),
            (lambda: solve_linearized(base, w, pd), 2),
            (lambda: _adjoint_core(base, phi.data, pd), 4),
        ):
            calls.clear()
            fft_calls.clear()
            sweep()
            assert len(calls) == per_step * pd.m_steps
            assert len(fft_calls) == (len(calls) if n == 143 else 0)


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
        for k in range(m - 1, -1, -1):
            mis = base.y[k] - target[k]
            curl_s = d1c(mis[1], h) - d2c(mis[0], h)
            src = (rho[k] / dt) * h * h * ops.inv_Ha(ops.inv_P(curl_s))
            expl = mu[k + 1] + dt * (
                arakawa(mu[k + 1], base.psi[k], h)
                - ops.inv_Ha(ops.inv_P(arakawa(mu[k + 1], base.q[k], h)))
                + src
            )
            mu[k] = ops.inv_Hb(ops.Ha(expl))
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
