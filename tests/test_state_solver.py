"""Forward solver: stepping, decay laws, energy, trilinear evaluators."""

import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sgf2d import grid as grid_module
from sgf2d import sensitivity, spaces
from sgf2d import state as state_module
from sgf2d.certificates import CertificateInputs, check_state_bound
from sgf2d.grid import (
    Grid,
    GridMismatchError,
    ScalarField2D,
    VectorField2D,
    _time_blocks,
    apply_symbol,
    arakawa,
    d1c,
    d2c,
    helmholtz_solve_values,
    lap5,
    poisson_solve_values,
    stack_curl,
    velocity_from_stream,
)
from sgf2d.optimizer import cost
from sgf2d.sensitivity import solve_linearized, solve_second
from sgf2d.spaces import DomainConstants, norm_hk, norm_V, stream_from_coeffs
from sgf2d.state import (
    BlowUpError,
    ProblemData,
    Trajectory,
    _ops_for,
    control_h1_norm,
    get_ops,
    l2q_inner,
    left_weights,
    nonlinear_term,
    slice_dots,
    solve_state,
    step_state,
    trap_weights,
    trilinear_b,
)

from helpers import (
    apply_upsilon,
    count_calls,
    cross_quadrature,
    curl_upsilon,
    mode_mu,
    single_mode_stream,
    smooth_control,
    smooth_raw_field,
    solve_state_per_step,
    windowed_stream,
    windowed_velocity,
)


def small_problem(n=16, m=5, seed=5, **kw):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    y0 = velocity_from_stream(stream_from_coeffs(g, 0.02 * rng.standard_normal((3, 3))))
    params = dict(alpha=0.3, nu=0.2, T=0.1, grid=g, m_steps=m, y0=y0)
    params.update(kw)
    return ProblemData(**params)


class TestTrajectory:
    def test_zeros_and_kinds(self):
        g = Grid(6)
        u = Trajectory.zeros(g, 4, 0.1, "control")
        assert u.m_steps == 4 and u.is_vector and u.data.shape == (5, 2, 6, 6)
        q = Trajectory.zeros(g, 4, 0.1, "potential_vorticity")
        assert not q.is_vector and q.data.shape == (5, 6, 6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Trajectory.zeros(Grid(6), 4, 0.1, "pressure")

    def test_shape_and_dt_validated(self):
        g = Grid(6)
        with pytest.raises(ValueError):
            Trajectory(g, 0.1, "velocity", np.zeros((5, 6, 6)))  # scalar data, vector kind
        with pytest.raises(ValueError):
            Trajectory(g, 0.1, "stream", np.zeros((1, 6, 6)))  # single slice
        with pytest.raises(ValueError):
            Trajectory(g, 0.0, "stream", np.zeros((3, 6, 6)))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_dt_rejected(self, dt):
        # NaN and +inf both pass a plain dt <= 0 test
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Trajectory.zeros(Grid(4), 2, dt)

    def test_nonfinite_rejected(self):
        g = Grid(6)
        data = np.zeros((3, 6, 6))
        data[1, 2, 2] = np.inf
        with pytest.raises(ValueError):
            Trajectory(g, 0.1, "stream", data)

    def test_immutable(self):
        u = Trajectory.zeros(Grid(6), 3, 0.1, "control")
        with pytest.raises(ValueError):
            u.data[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("dtype,step", [(np.float64, 1), (np.float32, -1)])
    def test_keeps_its_own_copy(self, dtype, step):
        owner = np.zeros((3, 2, 6, 6), dtype=dtype)[..., ::step]
        u = Trajectory(Grid(6), 0.1, "control", owner)
        assert owner.flags.writeable
        owner[1, 0, 2, 2] = np.nan
        assert np.all(u.data == 0.0)
        assert u.data.dtype == np.float64 and u.data.flags.c_contiguous

    def test_from_fields_round_trip(self):
        g = Grid(7)
        fields = [smooth_raw_field(g, s) for s in range(3)]
        tr = Trajectory.from_fields(fields, 0.5, "velocity")
        for k, f in enumerate(fields):
            s = tr.slice(k)
            assert np.array_equal(s.u1, f.u1) and np.array_equal(s.u2, f.u2)
        assert len(tr.slices) == 3

    def test_arithmetic(self):
        g = Grid(6)
        rng = np.random.default_rng(1)
        a = Trajectory(g, 0.1, "control", rng.standard_normal((3, 2, 6, 6)))
        b = Trajectory(g, 0.1, "control", rng.standard_normal((3, 2, 6, 6)))
        assert np.array_equal((a + b).data, a.data + b.data)
        assert np.array_equal((a - b).data, a.data - b.data)
        assert np.array_equal((2.0 * a).data, 2.0 * a.data)


class TestTimeQuadrature:
    def test_weight_sums(self):
        lw = left_weights(8, 0.125)
        tw = trap_weights(8, 0.125)
        assert lw.sum() == pytest.approx(1.0) and lw[-1] == 0.0
        assert tw.sum() == pytest.approx(1.0)
        assert tw[0] == tw[-1] == pytest.approx(0.0625)

    def test_l2q_hand_value(self):
        # constant field 1 on a 3x3 grid: h^2 * 9 = 9/16 per slice, trapezoid sums to T=1
        g = Grid(3)
        tr = Trajectory(g, 0.25, "stream", np.ones((5, 3, 3)))
        w = trap_weights(4, 0.25)
        assert l2q_inner(tr, tr, w) == pytest.approx(0.5625, rel=1e-14)

    @pytest.mark.parametrize("shape", [(4, 2, 16, 16), (101, 2, 63, 63), (7, 40, 40)])
    def test_slice_dots_bits_across_blocks(self, shape):
        # the stack is summed block by block; each row keeps the bits of the
        # whole-stack product's row sum
        rng = np.random.default_rng(len(shape))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        if shape[0] > 4:
            assert len(_time_blocks(a)) > 1
        want = (a * b).reshape(shape[0], -1).sum(axis=1)
        assert slice_dots(a, b).tobytes() == want.tobytes()
        assert slice_dots(a[:, ::-1], b).tobytes() == (a[:, ::-1] * b).reshape(
            shape[0], -1
        ).sum(axis=1).tobytes()

    def test_slice_dots_makes_no_stack_sized_product(self):
        a = np.random.default_rng(2).standard_normal((101, 2, 63, 63))
        tracemalloc.start()
        try:
            slice_dots(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= a.nbytes // 10

    def test_l2q_mismatch(self):
        a = Trajectory.zeros(Grid(5), 3, 0.1, "control")
        b = Trajectory.zeros(Grid(6), 3, 0.1, "control")
        with pytest.raises(GridMismatchError):
            l2q_inner(a, b, trap_weights(3, 0.1))

    def test_control_h1_norm_constant_in_time(self):
        g = Grid(9)
        v = smooth_raw_field(g, 3)
        T, m = 0.8, 10
        data = np.broadcast_to(np.stack([v.u1, v.u2]), (m + 1, 2, 9, 9)).copy()
        u = Trajectory(g, T / m, "control", data)
        assert control_h1_norm(u) == pytest.approx(np.sqrt(T) * norm_hk(v, 1), rel=1e-12)


class TestControlH1Norm:
    @staticmethod
    def _stack(kind, n, m):
        rng = np.random.default_rng(n)
        if kind == "random":
            return rng.standard_normal((m + 1, 2, n, n))
        if kind == "constant":
            return np.full((m + 1, 2, n, n), 0.7)
        coeffs = rng.standard_normal((3, 3))
        v = velocity_from_stream(stream_from_coeffs(Grid(n), coeffs))
        tmod = np.cos(np.linspace(0.0, 1.0, m + 1))
        return tmod[:, None, None, None] * np.stack([v.u1, v.u2])[None]

    @pytest.mark.parametrize("kind", ["random", "smooth", "constant"])
    @pytest.mark.parametrize("n", [3, 8, 16, 63])
    def test_equals_stack_hk_sq_trapezoid(self, n, kind):
        g, m, dt = Grid(n), 4, 0.1
        u = Trajectory(g, dt, "control", self._stack(kind, n, m))
        ref = np.sqrt(np.dot(trap_weights(m, dt), spaces.stack_hk_sq(u.data, g.h, 1)[1]))
        assert abs(control_h1_norm(u) - ref) <= 1e-14 * ref

    def test_diff1_matrix_cached_read_only(self):
        d = spaces.diff1_matrix(11)
        assert spaces.diff1_matrix(11) is d
        assert not d.flags.writeable
        v = np.random.default_rng(2).standard_normal((11, 11))
        h = Grid(11).h
        for got, ref in ((d @ v, spaces.diff1(v, h, -2)), (v @ d.T, spaces.diff1(v, h, -1))):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestProblemData:
    def test_parameter_validation(self):
        g = Grid(8)
        y0 = velocity_from_stream(single_mode_stream(g, 1, 1, 0.01))
        ok = dict(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=10, y0=y0)
        for bad in (
            dict(alpha=0.0),
            dict(nu=-1.0),
            dict(T=0.0),
            dict(m_steps=0),
            dict(L=0.0),
            dict(lam=-0.1),
            dict(alpha=np.nan),
            dict(alpha=np.inf),
            dict(nu=np.nan),
            dict(nu=np.inf),
            dict(T=np.nan),
            dict(T=np.inf),
            dict(L=np.nan),
            dict(L=np.inf),
            dict(lam=np.nan),
            dict(lam=np.inf),
            dict(alpha=-np.inf),
        ):
            with pytest.raises(ValueError):
                ProblemData(**{**ok, **bad})

    def test_non_integral_m_steps_refused(self):
        # used to fail inside numpy: "'float' object cannot be interpreted as an integer"
        pd = small_problem()
        with pytest.raises(ValueError, match="m_steps must be an integer, got 2.5"):
            replace(pd, m_steps=2.5)
        assert replace(pd, m_steps=np.int64(pd.m_steps)).dt == pd.dt

    @pytest.mark.parametrize("name,bad", [("alpha", -0.5), ("L", np.inf), ("lam", -1.0)])
    def test_a_changed_value_is_checked_again(self, name, bad):
        # an assignment would skip the checks of __post_init__; replace runs them
        pd = small_problem()
        with pytest.raises(FrozenInstanceError):
            setattr(pd, name, bad)
        with pytest.raises(ValueError, match="must be"):
            replace(pd, **{name: bad})

    def test_operator_cache_is_bounded_and_shared(self):
        g = Grid(8)
        y0 = velocity_from_stream(single_mode_stream(g, 1, 1, 0.01))
        maxsize = _ops_for.cache_info().maxsize
        problems = [
            ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=m, y0=y0)
            for m in range(1, maxsize + 6)
        ]
        first = [get_ops(pd) for pd in problems]
        assert len({pd.dt for pd in problems}) > maxsize
        assert _ops_for.cache_info().currsize <= maxsize
        # the most recent signature is still cached: same object, not a rebuild
        assert get_ops(problems[-1]) is first[-1]
        twin = ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=3, y0=y0)
        assert get_ops(twin) is get_ops(twin)
        assert get_ops(twin) is get_ops(problems[2])

    def test_y0_must_have_stream(self):
        g = Grid(8)
        y0 = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        with pytest.raises(ValueError, match="stream"):
            ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=10, y0=y0)
        # replace keeps no stream that the new components do not come from
        y0 = replace(velocity_from_stream(single_mode_stream(g, 1, 1, 0.01)), u1=5.0 * y0.u1)
        with pytest.raises(ValueError, match="y0 must be produced from a stream function"):
            ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=10, y0=y0)

    def test_y0_on_another_grid_refused(self):
        y0 = velocity_from_stream(single_mode_stream(Grid(9), 1, 1, 0.01))
        with pytest.raises(GridMismatchError, match="y0 lives on a different grid"):
            ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=Grid(8), m_steps=10, y0=y0)

    def test_target_validation(self):
        pd = small_problem()
        g = pd.grid
        bad = Trajectory.zeros(g, pd.m_steps + 1, pd.dt, "velocity")
        with pytest.raises(ValueError):
            small_problem(y_d=bad)
        with pytest.raises(ValueError):
            small_problem(y_d=np.zeros((2, 16, 16)))

    def test_cfl_warning(self):
        g = Grid(8)
        y0 = velocity_from_stream(single_mode_stream(g, 1, 1, 2.0))
        with pytest.warns(UserWarning, match="CFL") as rec:
            ProblemData(alpha=0.5, nu=0.1, T=10.0, grid=g, m_steps=10, y0=y0)
        # the warning names the line that built the problem, not the
        # dataclass's generated __init__
        assert [w.filename for w in rec] == [__file__]

    def test_cfl_warning_names_caller_at_12_by_4(self):
        g = Grid(12)
        x1, x2 = g.coords()
        psi = ScalarField2D(g, 5.0 * np.sin(np.pi * x1) * np.sin(np.pi * x2))
        with pytest.warns(UserWarning, match="CFL") as rec:
            ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=4, y0=velocity_from_stream(psi))
        assert rec[0].filename == __file__

    def test_dt(self):
        pd = small_problem(m=8, T=0.4)
        assert pd.dt == pytest.approx(0.05)

    def test_target_stack_shapes(self):
        pd = small_problem(m=4)
        assert np.array_equal(pd.target_stack(), np.zeros((5, 2, 16, 16)))
        v = velocity_from_stream(single_mode_stream(pd.grid, 1, 2, 0.3))
        pdc = small_problem(m=4, y_d=v)
        stack = pdc.target_stack()
        assert stack.shape == (5, 2, 16, 16)
        assert np.array_equal(stack[3, 0], v.u1)


class TestStepState:
    def test_zero_everything(self):
        pd = small_problem()
        g = pd.grid
        zero = np.zeros(g.shape)
        q = ScalarField2D(g, zero)
        y = velocity_from_stream(ScalarField2D(g, zero))
        u = VectorField2D(g, zero, zero)
        q1, om1, ps1, y1 = step_state(q, y, u, pd)
        for f in (q1.values, om1.values, ps1.values, y1.u1, y1.u2):
            assert np.all(f == 0.0)

    def test_single_mode_amplification_factor(self):
        # advection vanishes on a single mode (q is proportional to psi),
        # so the step acts diagonally: omega *= (1+a*mu)/(1+(a+nu*dt)*mu)
        pd = small_problem(n=16, m=10, T=0.5, alpha=0.4, nu=0.25)
        g = pd.grid
        psi0 = single_mode_stream(g, 1, 1, 0.02)
        mu = mode_mu(g, 1, 1)
        omega0 = mu * psi0.values
        q0 = ScalarField2D(g, (1.0 + pd.alpha * mu) * omega0)
        y0 = velocity_from_stream(psi0)
        u = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        q1, om1, ps1, _ = step_state(q0, y0, u, pd)
        factor = (1.0 + pd.alpha * mu) / (1.0 + (pd.alpha + pd.nu * pd.dt) * mu)
        assert np.abs(om1.values - factor * omega0).max() < 1e-13 * np.abs(omega0).max()
        assert np.abs(q1.values - (1.0 + pd.alpha * mu) * om1.values).max() < 1e-13
        assert np.abs(ps1.values - om1.values / mu).max() < 1e-13

    def test_linear_in_control_at_zero_state(self):
        pd = small_problem()
        g = pd.grid
        zero = np.zeros(g.shape)
        q = ScalarField2D(g, zero)
        y = velocity_from_stream(ScalarField2D(g, zero))
        u = smooth_raw_field(g, 7)
        _, om1, _, _ = step_state(q, y, u, pd)
        u2 = VectorField2D(g, 2.0 * u.u1, 2.0 * u.u2)
        _, om2, _, _ = step_state(q, y, u2, pd)
        scale = np.abs(om1.values).max()
        assert np.abs(om2.values - 2.0 * om1.values).max() < 1e-12 * scale

    def test_input_checks(self):
        pd = small_problem()
        other = Grid(9)
        zero9 = np.zeros(other.shape)
        q = ScalarField2D(other, zero9)
        y = velocity_from_stream(ScalarField2D(other, zero9))
        u = VectorField2D(other, zero9, zero9)
        with pytest.raises(GridMismatchError):
            step_state(q, y, u, pd)
        g = pd.grid
        zero = np.zeros(g.shape)
        bare = VectorField2D(g, zero, zero)  # no stream attached
        with pytest.raises(ValueError, match="stream"):
            step_state(ScalarField2D(g, zero), bare, VectorField2D(g, zero, zero), pd)


class TestFusedStepSymbols:
    @pytest.mark.parametrize("n", [3, 16, 33])
    def test_step_pair_matches_composition(self, n):
        ops = get_ops(small_problem(n=n))
        v = np.random.default_rng(n).standard_normal((n, n))
        q, psi = apply_symbol(v, ops.step_sym)
        inv_Hb_v = helmholtz_solve_values(v, ops.b)
        for got, ref in ((q, ops.Ha(inv_Hb_v)), (psi, poisson_solve_values(inv_Hb_v))):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_symbols_read_only(self):
        ops = get_ops(small_problem(n=5))
        for sym in (ops.step_sym, ops.inv_Ha_inv_P_sym):
            with pytest.raises(ValueError):
                sym[0, 0] = 1.0

    def test_solve_state_two_transforms_per_step(self, monkeypatch):
        pd = small_problem(n=8, m=7)
        u = smooth_control(pd, 2)
        calls = count_calls(monkeypatch, grid_module, "dstn")
        solve_state(u, pd)
        assert len(calls) == 2 * pd.m_steps


class TestSolveState:
    def test_zero_data_zero_trajectory(self):
        g = Grid(12)
        y0 = velocity_from_stream(ScalarField2D(g, np.zeros(g.shape)))
        pd = ProblemData(alpha=0.5, nu=0.1, T=1.0, grid=g, m_steps=6, y0=y0)
        sol = solve_state(None, pd)
        assert np.all(sol.y == 0.0) and np.all(sol.q == 0.0)
        assert np.all(sol.norms_h3 == 0.0)

    def test_control_alignment_checked(self):
        pd = small_problem(m=5)
        with pytest.raises(ValueError):
            solve_state(Trajectory.zeros(pd.grid, 6, pd.dt, "control"), pd)
        with pytest.raises(GridMismatchError):
            solve_state(Trajectory.zeros(Grid(9), 5, pd.dt, "control"), pd)

    def test_control_step_size_checked(self):
        # same grid and slice count, sampled with another step size
        pd = small_problem(m=5)
        with pytest.raises(GridMismatchError, match="not aligned"):
            solve_state(Trajectory.zeros(pd.grid, 5, 3.0 * pd.dt, "control"), pd)
        # a dt that differs from pd.dt only by roundoff is the same step
        u = Trajectory.zeros(pd.grid, 5, pd.dt * (1.0 + 1e-14), "control")
        assert np.array_equal(solve_state(u, pd).y, solve_state(None, pd).y)

    def test_single_mode_decay_law_and_first_order(self):
        # semi-discrete law: omega(T) = omega0 * exp(-mu nu T / (1 + alpha mu));
        # the backward-Euler-in-time error is first order, so it halves with dt
        g = Grid(31)
        psi0 = single_mode_stream(g, 1, 1, 0.01)
        y0 = velocity_from_stream(psi0)
        mu = mode_mu(g, 1, 1)
        nu, T, alpha = 0.5, 0.5, 0.2
        law = np.exp(-mu * nu * T / (1.0 + alpha * mu))
        errs = []
        for m in (100, 200):
            pd = ProblemData(alpha=alpha, nu=nu, T=T, grid=g, m_steps=m, y0=y0)
            sol = solve_state(None, pd)
            got = np.abs(sol.omega[-1]).max() / np.abs(sol.omega[0]).max()
            errs.append(abs(got - law) / law)
        assert errs[0] < 0.01
        assert 0.4 < errs[1] / errs[0] < 0.6

    # at 40^2 the forcing's curl takes three time blocks
    @pytest.mark.parametrize("n,m", [(8, 5), (16, 3), (40, 5)])
    def test_bits_equal_per_step_forcing(self, n, m):
        pd = small_problem(n=n, m=m)
        u = smooth_control(pd, 2)
        sol = solve_state(u, pd)
        for name, ref in zip(("psi", "q", "y"), solve_state_per_step(u, pd)):
            assert getattr(sol, name).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("n,m", [(8, 1), (8, 6), (40, 5)])
    def test_one_forcing_curl_per_time_block(self, monkeypatch, n, m):
        # and one velocity call per time block of psi[1:], both made in grid's
        # stack_curl and stack_velocity
        pd = small_problem(n=n, m=m)
        u = smooth_control(pd, 2)
        curls = count_calls(monkeypatch, grid_module, "curl_values")
        velocities = count_calls(monkeypatch, grid_module, "velocity_values")
        sol = solve_state(u, pd)
        assert len(curls) == len(_time_blocks(u.data[1:])) == (1 if n == 8 else 3)
        assert len(velocities) == len(_time_blocks(sol.psi[1:])) == 1

    def test_norms_recorded(self):
        pd = small_problem(m=4)
        sol = solve_state(None, pd)
        assert sol.norms_h1.shape == (5,) and sol.norms_h3.shape == (5,)
        assert sol.norms_h1[0] == pytest.approx(norm_hk(pd.y0, 1), rel=1e-13)
        assert np.all(sol.norms_h1 <= sol.norms_h3 + 1e-15)

    def test_solve_and_cost_compute_no_norm(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("norm pass on the solve path")

        monkeypatch.setattr(spaces, "stack_hk_sq", refuse)
        pd = small_problem(m=4)
        sol = solve_state(smooth_control(pd, 2), pd)
        assert cost(sol.u, sol.velocity, None, 0.1) > 0.0

    def test_norms_computed_once_on_first_read(self, monkeypatch):
        calls = []
        real = spaces.stack_hk_sq

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(spaces, "stack_hk_sq", counting)
        pd = small_problem(m=4)
        sol = solve_state(None, pd)
        assert calls == []
        h3 = sol.norms_h3
        assert calls == [3]
        h1 = sol.norms_h1
        assert sol.norms_h3 is h3 and sol.norms_h1 is h1
        assert calls == [3]
        for k in range(5):
            vf = sol.velocity.slice(k)
            assert h1[k] == pytest.approx(norm_hk(vf, 1), rel=1e-14)
            assert h3[k] == pytest.approx(norm_hk(vf, 3), rel=1e-14)

    def test_cfl_max_catches_growth_after_t0(self):
        # y0 sits below the 0.5 advisory, so ProblemData stays silent; a strong
        # steady control then drives the velocity past it
        g = Grid(8)
        y0 = velocity_from_stream(stream_from_coeffs(g, np.array([[0.02, 0.0], [0.01, 0.0]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pd = ProblemData(alpha=0.1, nu=0.1, T=1.0, grid=g, m_steps=10, y0=y0)
        v = velocity_from_stream(stream_from_coeffs(g, 5.0 * np.array([[1.0, 0.3], [0.2, 0.0]])))
        u = Trajectory(g, pd.dt, "control", np.broadcast_to(np.stack([v.u1, v.u2]), (11, 2, 8, 8)))
        sol = solve_state(u, pd)
        assert "cfl_max" not in vars(sol)  # lazy: the solve computes nothing extra
        per_slice = [
            max(np.abs(sol.y[k, 0]).max(), np.abs(sol.y[k, 1]).max()) * pd.dt / g.h
            for k in range(pd.m_steps + 1)
        ]
        assert per_slice[0] < 0.5 < sol.cfl_max
        assert sol.cfl_max == max(per_slice)
        assert sol.cfl_max is sol.cfl_max

    @pytest.mark.parametrize("m", [3, 9])
    def test_vorticity_computed_on_first_read(self, monkeypatch, m):
        pd = small_problem(m=m)
        calls = count_calls(monkeypatch, state_module, "lap5")
        sol = solve_state(smooth_control(pd, 2), pd)
        # both calls build q[0] = Ha(-lap5 psi0); the step loop makes none
        assert len(calls) == 2
        assert "omega" not in vars(sol)
        omega = sol.omega
        # one lap5 call on the whole psi stack
        assert len(calls) == 2 + 1
        assert sol.omega is omega
        for k in range(m + 1):
            assert np.array_equal(omega[k], -lap5(sol.psi[k], pd.grid.h))

    def test_first_slice_built_once_per_problem(self, monkeypatch):
        pd = small_problem(m=3)
        calls = count_calls(monkeypatch, state_module, "lap5")
        first = solve_state(None, pd)
        # q[0] = Ha(-lap5 psi0): one lap5 inside Ha, one outside
        assert len(calls) == 2
        for u in (None, smooth_control(pd, 2), None):
            assert solve_state(u, pd).q[0].tobytes() == first.q[0].tobytes()
        assert len(calls) == 2
        # a changed copy is a new problem with its own first slice
        other = replace(pd, alpha=2.0 * pd.alpha)
        solve_state(None, other)
        assert len(calls) == 4

    def test_first_slice_bits_and_read_only(self):
        pd = small_problem(m=3)
        want = get_ops(pd).Ha(-lap5(pd.y0.stream.values, pd.grid.h))
        assert pd.q0.tobytes() == want.tobytes()
        assert solve_state(None, pd).q[0].tobytes() == want.tobytes()
        assert not pd.q0.flags.writeable
        assert solve_state_per_step(pd.zero_control(), pd)[1][0].tobytes() == want.tobytes()

    def test_vorticity_equals_per_slice_stack(self):
        pd = small_problem(m=5)
        sol = solve_state(smooth_control(pd, 2), pd)
        per_slice = np.stack([-lap5(p, pd.grid.h) for p in sol.psi])
        assert sol.omega.shape == per_slice.shape
        assert sol.omega.tobytes() == per_slice.tobytes()

    def test_stacks_read_only(self):
        # omega, the norms and cfl_max are read from these stacks after the solve
        pd = small_problem(m=3)
        sol = solve_state(smooth_control(pd, 2), pd)
        for a in (sol.psi, sol.q, sol.y):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    def test_step_state_is_one_step_of_solve_state(self):
        pd = small_problem(m=4)
        u = smooth_control(pd, 3)
        sol = solve_state(u, pd)
        q1, om1, ps1, y1 = step_state(ScalarField2D(pd.grid, sol.q[0]), pd.y0, u.slice(1), pd)
        assert np.array_equal(q1.values, sol.q[1])
        assert np.array_equal(ps1.values, sol.psi[1])
        assert np.array_equal(om1.values, sol.omega[1])
        assert np.array_equal(np.stack([y1.u1, y1.u2]), sol.y[1])
        assert y1.divergence_free and y1.stream is ps1

    def test_norm_pass_memory_does_not_grow_with_steps(self):
        # the stack is walked in fixed blocks, so the temporaries are the
        # same at 50 and at 200 steps
        g = Grid(32)
        rng = np.random.default_rng(4)
        peaks = []
        for m in (50, 200):
            data = rng.standard_normal((m + 1, 2, 32, 32))
            tracemalloc.start()
            try:
                spaces.stack_hk_sq(data, g.h, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_velocity_accessors_agree(self):
        pd = small_problem(m=4)
        sol = solve_state(smooth_control(pd, 2), pd)
        vf = sol.velocity_field(3)
        sl = sol.velocity.slice(3)
        assert np.abs(vf.u1 - sl.u1).max() == 0.0
        assert vf.stream is not None

    def test_weak_form_residual(self):
        # the step rearranges to (q1-q0)/dt + J(q0,psi0) - nu*lap(om1) - curl u = 0;
        # pair the assembled residual against 20 random unit test fields
        pd = small_problem(n=16, m=5)
        u = smooth_control(pd, 11)
        sol = solve_state(u, pd)
        g, h, dt = pd.grid, pd.grid.h, pd.dt
        rng = np.random.default_rng(0)
        worst = 0.0
        for k in range(pd.m_steps):
            curl_u = d1c(u.data[k + 1, 1], h) - d2c(u.data[k + 1, 0], h)
            resid = (
                (sol.q[k + 1] - sol.q[k]) / dt
                - pd.nu * lap5(sol.omega[k + 1], h)
                - curl_u
                + arakawa(sol.q[k], sol.psi[k], h)
            )
            for _ in range(20):
                phi = rng.standard_normal(g.shape)
                phi /= np.sqrt(h * h * np.sum(phi * phi))
                worst = max(worst, abs(h * h * np.sum(resid * phi)))
        assert worst < 1e-9

    def test_energy_nonincreasing_diffusive_regime(self):
        rng = np.random.default_rng(9)
        g = Grid(20)
        y0 = velocity_from_stream(stream_from_coeffs(g, 0.01 * rng.standard_normal((3, 3))))
        pd = ProblemData(alpha=0.2, nu=1.0, T=0.5, grid=g, m_steps=40, y0=y0)
        sol = solve_state(None, pd)
        values = [norm_V(sol.velocity.slice(k), pd.alpha) for k in range(pd.m_steps + 1)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1.0 + 1e-10)
        assert values[-1] < 0.5 * values[0]

    def test_blow_up_reported_with_step(self):
        g = Grid(16)
        y0 = velocity_from_stream(single_mode_stream(g, 2, 2, 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deliberately CFL-violating
            pd = ProblemData(alpha=0.05, nu=1e-6, T=4.0, grid=g, m_steps=40, y0=y0)
        with pytest.raises(BlowUpError, match="blew up at step") as exc:
            solve_state(None, pd)
        assert 1 <= exc.value.step <= 40

    def test_h3_a_priori_bound_advisory(self):
        # max_t |y|_H3^2 <= (C1 lambda1 / alpha)^2; with unit constants and a
        # decaying run the bound holds with a wide margin
        rng = np.random.default_rng(9)
        g = Grid(20)
        y0 = velocity_from_stream(stream_from_coeffs(g, 0.01 * rng.standard_normal((3, 3))))
        pd = ProblemData(alpha=0.2, nu=1.0, T=0.5, grid=g, m_steps=40, y0=y0)
        sol = solve_state(None, pd)
        ci = CertificateInputs.from_problem(pd, DomainConstants(), u=pd.zero_control())
        chk = check_state_bound(sol, ci)
        assert chk.lhs == pytest.approx(float(np.max(sol.norms_h3)) ** 2, rel=1e-14)
        assert chk.holds


def memo_free_tangent(base, w, pd):
    """The tangent sweep of solve_linearized without the memo on base."""
    dq = np.zeros(base.q.shape)
    stack_curl(w.data[1:], pd.grid.h, out=dq[1:])
    return sensitivity._propagate(base, pd, dq)


class TestSweepMemo:
    """The tangent sweep kept on its base state, keyed by the pd object and
    the w Trajectory: a w of the same bits in a new object is swept again."""

    def test_hit_returns_the_same_tangent(self, monkeypatch):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w = smooth_control(pd, 2)
        ref = memo_free_tangent(base, w, pd)
        sweeps = count_calls(monkeypatch, sensitivity, "_propagate")
        tan = solve_linearized(base, w, pd)
        assert solve_linearized(base, w, pd) is tan
        assert len(sweeps) == 1
        for got, want in ((tan.z, ref.z), (tan.dq, ref.dq), (tan.dpsi, ref.dpsi)):
            assert got.tobytes() == want.tobytes()
        # an equal w in a new Trajectory is a miss, and its sweep has the same bits
        again = solve_linearized(base, w * 1.0, pd)
        assert again is not tan and len(sweeps) == 2
        for got, want in ((again.z, ref.z), (again.dq, ref.dq), (again.dpsi, ref.dpsi)):
            assert got.tobytes() == want.tobytes()

    def test_one_ulp_in_w_is_a_miss(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w = smooth_control(pd, 2)
        tan = solve_linearized(base, w, pd)
        data = w.data.copy()
        data[3, 1, 7, 5] = np.nextafter(data[3, 1, 7, 5], np.inf)
        w2 = w.with_data(data)
        tan2 = solve_linearized(base, w2, pd)
        assert tan2 is not tan
        assert tan2.z.tobytes() == memo_free_tangent(base, w2, pd).z.tobytes()
        assert tan2.z.tobytes() != tan.z.tobytes()

    def test_negative_zero_is_a_miss(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w = pd.zero_control()
        tan = solve_linearized(base, w, pd)
        data = w.data.copy()
        data[2, 0, 4, 4] = -0.0
        assert np.array_equal(data, w.data)  # equal as numbers, not as bits
        assert solve_linearized(base, w.with_data(data), pd) is not tan

    def test_other_problem_object_is_a_miss(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w = smooth_control(pd, 2)
        twin = ProblemData(
            alpha=pd.alpha, nu=pd.nu, T=pd.T, grid=pd.grid, m_steps=pd.m_steps, y0=pd.y0
        )
        tan = solve_linearized(base, w, pd)
        tan_twin = solve_linearized(base, w, twin)
        assert tan_twin is not tan and tan_twin.pd is twin
        assert tan_twin.z.tobytes() == tan.z.tobytes()

    def test_caller_writes_into_the_array_behind_w(self):
        # w keeps its own copy, so the caller's writes change neither w nor
        # the memo's key
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        owner = smooth_control(pd, 2).data.copy()
        w = Trajectory(pd.grid, pd.dt, "control", owner[:])
        tan = solve_linearized(base, w, pd)
        kept = w.data.copy()
        owner *= 2.0
        assert w.data.tobytes() == kept.tobytes()
        assert solve_linearized(base, w, pd) is tan
        assert tan.z.tobytes() == memo_free_tangent(base, w, pd).z.tobytes()

    def test_one_slot_per_base(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        wa, wb = smooth_control(pd, 2), smooth_control(pd, 3)
        ta = solve_linearized(base, wa, pd)
        solve_linearized(base, wb, pd)
        # wb took the slot, so wa is swept again (same bits, new object)
        ta2 = solve_linearized(base, wa, pd)
        assert ta2 is not ta and ta2.z.tobytes() == ta.z.tobytes()
        other = solve_state(smooth_control(pd, 1), pd)
        assert solve_linearized(other, wa, pd) is not ta2

    def test_tangent_arrays_are_read_only(self):
        pd = small_problem()
        base = solve_state(smooth_control(pd, 1), pd)
        w = smooth_control(pd, 2)
        tan = solve_linearized(base, w, pd)
        for t in (tan, solve_second(base, tan, tan, pd)):
            for a in (t.z, t.dq, t.dpsi):
                with pytest.raises(ValueError, match="read-only"):
                    a[1] = 0.0


class TestTrilinearForm:
    def test_zero_arguments(self):
        g = Grid(9)
        z = smooth_raw_field(g, 1)
        zero = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        assert trilinear_b(zero, z, z) == 0.0
        assert trilinear_b(z, zero, z) == 0.0
        assert trilinear_b(z, z, zero) == 0.0

    def test_antisymmetry_refines(self):
        # b(phi,z,zt) = -b(phi,zt,z) for div-free phi with zero normal trace;
        # the quadrature residual shrinks under two mesh halvings
        rng = np.random.default_rng(77)
        cphi = rng.standard_normal((3, 3))
        errs = []
        for n in (15, 31, 63):
            g = Grid(n)
            phi = velocity_from_stream(windowed_stream(g, cphi, 2))
            z, zt = smooth_raw_field(g, 1), smooth_raw_field(g, 2)
            b1, b2 = trilinear_b(phi, z, zt), trilinear_b(phi, zt, z)
            errs.append(abs(b1 + b2) / (abs(b1) + abs(b2)))
        assert errs[1] < 0.4 * errs[0]
        assert errs[2] < 0.4 * errs[1]

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            trilinear_b(smooth_raw_field(Grid(8), 1), smooth_raw_field(Grid(8), 2), smooth_raw_field(Grid(9), 3))


class TestNonlinearTerm:
    def test_zero_field(self):
        g = Grid(9)
        zero = VectorField2D(g, np.zeros(g.shape), np.zeros(g.shape))
        phi = smooth_raw_field(g, 4)
        assert nonlinear_term(zero, phi, 0.5) == 0.0

    def test_self_pairing_vanishes(self):
        # (curl upsilon(z) x z, z): the cross product z x z cancels pointwise,
        # so the discrete value is exactly zero, not just O(h^2)
        g = Grid(15)
        rng = np.random.default_rng(21)
        z = velocity_from_stream(stream_from_coeffs(g, rng.standard_normal((3, 3))))
        assert nonlinear_term(z, z, 0.4) == 0.0

    def test_transport_identity_refines(self):
        # (curl upsilon(y) x z, phi) = b(phi,z,upsilon(y)) - b(z,phi,upsilon(y)):
        # exact in the continuum; the two discrete routes agree to O(h^2) when
        # the vorticity of y vanishes at the walls (cubic window)
        rng = np.random.default_rng(77)
        cy, cz, cphi = rng.standard_normal((3, 3, 3))
        alpha = 0.4
        errs = []
        for n in (31, 63):
            g = Grid(n)
            y = velocity_from_stream(windowed_stream(g, cy, 3))
            z = velocity_from_stream(windowed_stream(g, cz, 2))
            phi = velocity_from_stream(windowed_stream(g, cphi, 2))
            uy = apply_upsilon(y, alpha)
            lhs = cross_quadrature(curl_upsilon(y, alpha), z, phi)
            rhs = trilinear_b(phi, z, uy) - trilinear_b(z, phi, uy)
            errs.append(abs(lhs - rhs) / abs(lhs))
        assert errs[0] < 0.02
        assert errs[1] < 0.4 * errs[0]

    def test_upsilon_operators_consistent(self):
        # curl_upsilon is (I - alpha lap) curl2d; on a single sine mode the
        # wide curl reduces to the wide Laplacian away from the wall ring
        g = Grid(17)
        z = velocity_from_stream(single_mode_stream(g, 2, 1, 0.5))
        w = curl_upsilon(z, 0.0)
        from sgf2d.grid import curl2d

        assert np.abs(w.values - curl2d(z).values).max() == 0.0
        uz = apply_upsilon(z, 0.0)
        assert np.abs(uz.u1 - z.u1).max() == 0.0
