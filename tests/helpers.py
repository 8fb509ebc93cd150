"""Field constructors shared by the test modules (not a test file)."""

import csv
import io

import numpy as np

from sgf2d.grid import ScalarField2D, VectorField2D, nonlinear_values, slice_sums, velocity_from_stream, velocity_values
from sgf2d.spaces import (
    apply_A,
    diff1,
    inner_l2,
    norm_hk,
    stream_from_coeffs,
    stream_values,
    sym_grad_sq,
)


def single_mode_stream(grid, k, l, amp=1.0):
    coeffs = np.zeros((k, l))
    coeffs[k - 1, l - 1] = amp
    return stream_from_coeffs(grid, coeffs)


def mode_mu(grid, k, l):
    # discrete eigenvalue of -lap5 for the (k, l) sine mode
    h = grid.h
    return (4.0 / h**2) * (np.sin(k * np.pi * h / 2) ** 2 + np.sin(l * np.pi * h / 2) ** 2)


def windowed_stream(grid, coeffs, power=2):
    """Random polynomial modulated by a sin^power window.

    The stream vanishes at the walls to order `power`, so the velocity
    vanishes to order power-1; unlike pure sine/squared-sine mode sums the
    family has no parity symmetry, so trilinear integrals do not degenerate.
    """
    x1, x2 = grid.coords()
    w = (np.sin(np.pi * x1) ** power) * (np.sin(np.pi * x2) ** power)
    poly = np.zeros(grid.shape)
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            poly += coeffs[i, j] * x1**i * x2**j
    return ScalarField2D(grid, w * poly)


def windowed_velocity(grid, rng, power=2, degree=3, amplitude=1.0):
    coeffs = amplitude * rng.standard_normal((degree, degree))
    return velocity_from_stream(windowed_stream(grid, coeffs, power))


def smooth_raw_field(grid, seed):
    # generic smooth vector field with O(1) wall values, no structure at all
    x1, x2 = grid.coords()
    r = np.random.default_rng(seed).standard_normal(6)
    u1 = r[0] * np.sin(1.3 * x1 + 0.2) * np.cos(0.7 * x2) + r[1] * x1 * x2 + r[2]
    u2 = r[3] * np.cos(0.9 * x1) * np.sin(1.1 * x2 + 0.5) + r[4] * x2**2 + r[5] * x1
    return VectorField2D(grid, u1, u2)


def smooth_control(pd, seed, amplitude=0.05, n_modes=3):
    """Control trajectory of stream velocities with a smooth time profile."""
    from sgf2d.state import Trajectory

    rng = np.random.default_rng(seed)
    n = pd.grid.n_interior
    data = np.zeros((pd.m_steps + 1, 2, n, n))
    coeffs = amplitude * rng.standard_normal((n_modes, n_modes))
    coeffs2 = amplitude * rng.standard_normal((n_modes, n_modes))
    for k in range(pd.m_steps + 1):
        t = k * pd.dt
        v = velocity_from_stream(
            stream_from_coeffs(pd.grid, np.cos(np.pi * t) * coeffs + np.sin(2 * np.pi * t) * coeffs2)
        )
        data[k, 0], data[k, 1] = v.u1, v.u2
    return Trajectory(pd.grid, pd.dt, "control", data)


def count_calls(monkeypatch, module, name):
    """Record each call of module.name from here on; returns the growing list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_velocity_reads(monkeypatch):
    """Record each read of StateSolution.velocity, the checked Trajectory copy
    of the velocity stack; returns the growing list."""
    from sgf2d.state import StateSolution

    reads = []
    whole_stack = StateSolution.velocity

    def counted(self):
        reads.append(1)
        return whole_stack.fget(self)

    monkeypatch.setattr(StateSolution, "velocity", property(counted))
    return reads


def sample_ratio(kind, grid, c, alpha=1.0):
    """One sample's estimator ratio, from the field-level norms and operators."""
    if kind == "korn":
        y = velocity_from_stream(stream_from_coeffs(grid, c))
        l2 = inner_l2(y, y)
        return (l2 + grad_sq(y)) / (l2 + sym_grad_sq(y))
    if kind == "elliptic":
        y = velocity_from_stream(stream_from_coeffs(grid, c))
        ay = apply_A(y)
        return norm_hk(y, 2) ** 2 / (inner_l2(y, y) + inner_l2(ay, ay))
    from sgf2d.state import nonlinear_term

    z = velocity_from_stream(stream_from_coeffs(grid, c[0]))
    phi = velocity_from_stream(stream_from_coeffs(grid, c[1]))
    denom = norm_hk(phi, 2) * norm_hk(z, 2) ** 2
    if denom == 0.0:
        return 0.0
    return abs(nonlinear_term(z, phi, alpha)) / denom


def pencil_by_polarization(kind, grid, n_modes):
    """(N, D) of a korn or elliptic pencil from the estimator's terms alone:
    entry (i, j) is (q(e_i + e_j) - q(e_i - e_j)) / 4 of each term q."""
    from sgf2d import spaces
    from sgf2d.spaces import stream_values

    terms = spaces._INEQUALITIES[kind][0]
    m2 = n_modes * n_modes
    e = np.eye(m2).reshape(m2, n_modes, n_modes)
    lp, rp = terms(stream_values(grid, e[:, None] + e[None]), grid.h, 1.0)
    lm, rm = terms(stream_values(grid, e[:, None] - e[None]), grid.h, 1.0)
    return (lp - lm) / 4.0, (rp - rm) / 4.0


def batched_ratio(terms, c, grid, alpha):
    """The batched ratio lhs/rhs of an inequality's terms on the stream
    functions of (..., [2,] k, l) mode coefficients; 0 where rhs is."""
    lhs, rhs = terms(stream_values(grid, c), grid.h, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs == 0.0, 0.0, lhs / rhs)


def trilinear_maximizer(z, n_modes, alpha=1.0):
    """The phi over the first n_modes x n_modes sine modes that maximizes the
    trilinear ratio at the velocity z: coefficients N^+ b, with b the
    trilinear term on each unit mode and N the elliptic pencil's H2 Gram."""
    from sgf2d import spaces

    g = z.grid
    m2 = n_modes * n_modes
    p1, p2 = velocity_values(stream_values(g, np.eye(m2).reshape(m2, n_modes, n_modes)), g.h)
    b = nonlinear_values(z.u1, z.u2, p1, p2, alpha, g.h)
    nm = spaces.quadratic_pencil("elliptic", g.n_interior, n_modes)[0]
    c = np.linalg.pinv(nm, rcond=1e-12, hermitian=True) @ b
    return velocity_from_stream(stream_from_coeffs(g, c.reshape(n_modes, n_modes)))


def row_writer_csv(f) -> bytes:
    """A field's CSV as csv.writer writes it one node at a time, with f"{v:.17g}" numbers."""
    x1, x2 = f.grid.coords()
    if isinstance(f, ScalarField2D):
        header, cols = ["x1", "x2", "value"], [f.values]
    else:
        header, cols = ["x1", "x2", "v1", "v2"], [f.u1, f.u2]
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    n = f.grid.n_interior
    for i in range(n):
        for j in range(n):
            row = [f"{x1[i, j]:.17g}", f"{x2[i, j]:.17g}"]
            row += [f"{c[i, j]:.17g}" for c in cols]
            w.writerow(row)
    return buf.getvalue().encode("ascii")


def diff1_temporaries(v, h, axis):
    """spaces.diff1 as written before it differenced into its output buffer."""
    out = np.empty_like(v)
    vm = v.swapaxes(axis, 0)
    om = out.swapaxes(axis, 0)
    om[1:-1] = (vm[2:] - vm[:-2]) / (2.0 * h)
    om[0] = (vm[1] - vm[0]) / h
    om[-1] = (vm[-1] - vm[-2]) / h
    return out


def hk_partials_dict(v, h, k):
    """The Sobolev norms' difference quotients, built by the earlier dict loop:
    derivs[(i, j)] = d1^i d2^j v, order by order, i ascending within an order."""
    derivs = {(0, 0): v}
    for order in range(1, k + 1):
        for i in range(order + 1):
            j = order - i
            if i > 0:
                derivs[(i, j)] = diff1(derivs[(i - 1, j)], h, -2)
            else:
                derivs[(i, j)] = diff1(derivs[(i, j - 1)], h, -1)
    return derivs


def norm_hk_dict_loop(comps, h, k):
    """norm_hk_values as the earlier dict loop computed it, one value per slice."""
    total = 0.0
    for comp in comps:
        total += sum(h * h * slice_sums(d * d) for d in hk_partials_dict(comp, h, k).values())
    return np.sqrt(total)


def adjoint_core_per_step(base, source, pd):
    """adjoint._adjoint_core's (p, mu, r) as written before the source curls and
    the velocities left the loop: one curl and one velocity per step."""
    from sgf2d.grid import apply_symbol, arakawa, curl_values, velocity_values
    from sgf2d.state import get_ops, left_weights, trap_weights

    ops = get_ops(pd)
    n, m, h, dt = pd.grid.n_interior, pd.m_steps, pd.grid.h, pd.dt
    h2 = h * h
    rho, tau = left_weights(m, dt), trap_weights(m, dt)
    mu = np.zeros((m + 1, n, n))
    r = np.zeros_like(mu)
    p = np.zeros((m + 1, 2, n, n))
    for k in range(m - 1, -1, -1):
        r[k + 1] = apply_symbol(mu[k + 1], ops.step_sym[0])
        p[k + 1, 0], p[k + 1, 1] = velocity_values(r[k + 1], h)
        p[k + 1] *= dt / (tau[k + 1] * h2)
        curl_s = curl_values(source[k, 0], source[k, 1], h)
        rhs = rho[k] * h2 * curl_s - dt * arakawa(r[k + 1], base.q[k], h)
        mu[k] = (
            r[k + 1]
            + dt * arakawa(r[k + 1], base.psi[k], h)
            + apply_symbol(rhs, ops.inv_Ha_inv_P_sym)
        )
    return p, mu, r


def march_per_step(q, psi, y, explicit, ops, dt):
    """Fill slices 1..m of (q, psi, y) as state._march did before the sources
    and the velocities left its loop: step k adds dt * explicit(k), and y[k+1]
    is the velocity of psi[k+1]."""
    from sgf2d.grid import apply_symbol, velocity_values

    for k in range(q.shape[0] - 1):
        q[k + 1], psi[k + 1] = apply_symbol(q[k] + dt * explicit(k), ops.step_sym)
        y[k + 1, 0], y[k + 1, 1] = velocity_values(psi[k + 1], ops.h)


def solve_state_per_step(u, pd):
    """solve_state's (psi, q, y) as written before the forcing's curl left the
    step: one curl and one velocity per step."""
    from sgf2d.grid import arakawa, curl_values, lap5
    from sgf2d.state import get_ops

    ops = get_ops(pd)
    n, m, h = pd.grid.n_interior, pd.m_steps, pd.grid.h
    psi = np.empty((m + 1, n, n))
    q = np.empty_like(psi)
    y = np.empty((m + 1, 2, n, n))
    psi[0] = pd.y0.stream.values
    q[0] = ops.Ha(-lap5(psi[0], h))
    y[0, 0], y[0, 1] = pd.y0.u1, pd.y0.u2

    def explicit(k):
        return curl_values(u.data[k + 1, 0], u.data[k + 1, 1], h) - arakawa(q[k], psi[k], h)

    march_per_step(q, psi, y, explicit, ops, pd.dt)
    return psi, q, y


def propagate_per_step(base, pd, source):
    """The linearized sweep's (z, dq, dpsi) as written before its source left
    the step: source(k) on step k, one velocity per step."""
    from sgf2d.grid import arakawa
    from sgf2d.state import get_ops

    n, m, h = pd.grid.n_interior, pd.m_steps, pd.grid.h
    dq = np.zeros((m + 1, n, n))
    dpsi = np.zeros_like(dq)
    z = np.zeros((m + 1, 2, n, n))

    def explicit(k):
        return source(k) - arakawa(dq[k], base.psi[k], h) - arakawa(base.q[k], dpsi[k], h)

    march_per_step(dq, dpsi, z, explicit, get_ops(pd), pd.dt)
    return z, dq, dpsi


def tangent_per_step(base, w, pd):
    """solve_linearized's (z, dq, dpsi) with one curl of w per step."""
    from sgf2d.grid import curl_values

    h = pd.grid.h
    return propagate_per_step(
        base, pd, lambda k: curl_values(w.data[k + 1, 0], w.data[k + 1, 1], h)
    )


def second_per_step(base, t1, t2, pd):
    """solve_second's (z, dq, dpsi) with its cross term taken per step."""
    from sgf2d.grid import arakawa

    h = pd.grid.h

    def minus_cross(k):
        if t1 is t2:
            return -2.0 * arakawa(t1.dq[k], t1.dpsi[k], h)
        return -(arakawa(t1.dq[k], t2.dpsi[k], h) + arakawa(t2.dq[k], t1.dpsi[k], h))

    return propagate_per_step(base, pd, minus_cross)


def hessian_pointwise(base, w, pd):
    """J''(u)[w,w] from the integrand |z|^2 + lam|w|^2 - 2(p, curl upsilon(z) x z)
    on the whole time stack with trapezoid weights: a quadrature of the
    continuous form, which the discrete form matches only to O(dt)."""
    from sgf2d.adjoint import solve_adjoint
    from sgf2d.grid import nonlinear_values
    from sgf2d.sensitivity import solve_linearized
    from sgf2d.state import l2q_inner_values, trap_weights

    tan, adj = solve_linearized(base, w, pd), solve_adjoint(base, None, pd)
    tau, h = trap_weights(pd.m_steps, pd.dt), pd.grid.h
    reg = l2q_inner_values(w.data, w.data, tau, h, pd.lam)
    z, p = tan.z, adj.p
    cross = nonlinear_values(z[:, 0], z[:, 1], p[:, 0], p[:, 1], pd.alpha, h)
    return l2q_inner_values(z, z, tau, h) + reg - 2.0 * float(np.dot(tau, cross))


def hessian_second_tangent(base, w1, w2, pd):
    """J''(u)[w1,w2] = <z1,z2>_rho + <y - y_d, S''(u)[w1,w2]>_rho + lam <w1,w2>_tau,
    with the second-order tangent S''(u)[w1,w2] marched by solve_second."""
    from sgf2d.sensitivity import solve_linearized, solve_second
    from sgf2d.state import l2q_inner_values, left_weights, trap_weights

    t1 = solve_linearized(base, w1, pd)
    t2 = solve_linearized(base, w2, pd)
    second = solve_second(base, t1, t2, pd)
    h = pd.grid.h
    rho = left_weights(pd.m_steps, pd.dt)
    mis = base.y - pd.target_stack()
    track = l2q_inner_values(t1.z, t2.z, rho, h) + l2q_inner_values(mis, second.z, rho, h)
    reg = l2q_inner_values(w1.data, w2.data, trap_weights(pd.m_steps, pd.dt), h, pd.lam)
    return track + reg


def korn_terms_reference(psi, h):
    """The Korn ratio's (lhs, rhs) as grad_sq_values and sym_grad_sq_values
    computed them before they shared one gradient: a diff1 call per partial."""
    from sgf2d.grid import velocity_values
    from sgf2d.spaces import inner_l2_values

    u1, u2 = velocity_values(psi, h)
    h2 = h * h
    grad = 0.0
    for comp in (u1, u2):
        for axis in (-2, -1):
            d = diff1_temporaries(comp, h, axis)
            grad += h2 * slice_sums(d * d)
    d11 = diff1_temporaries(u1, h, -2)
    d22 = diff1_temporaries(u2, h, -1)
    d12 = 0.5 * (diff1_temporaries(u2, h, -2) + diff1_temporaries(u1, h, -1))
    sym = h2 * (slice_sums(d11 * d11) + slice_sums(d22 * d22) + 2.0 * slice_sums(d12 * d12))
    l2 = inner_l2_values((u1, u2), (u1, u2), h)
    return l2 + grad, l2 + sym


def cross_quadrature(q, z, phi):
    """Quadrature of (q x z) . phi where q x z = q*(-z2, z1), of fields on one grid."""
    from sgf2d.grid import cross_values, same_grid

    g = same_grid(q, z, phi)
    return float(cross_values(q.values, z.u1, z.u2, phi.u1, phi.u2, g.h))


def apply_upsilon(y, alpha):
    """(I - alpha*lap) applied componentwise with zero ghosts."""
    from sgf2d.grid import lap5

    h = y.grid.h
    return VectorField2D(y.grid, y.u1 - alpha * lap5(y.u1, h), y.u2 - alpha * lap5(y.u2, h))


def curl_upsilon(y, alpha):
    """Potential vorticity of y by the direct route: (I - alpha*lap) curl y."""
    from sgf2d.grid import curl_upsilon_values

    return ScalarField2D(y.grid, curl_upsilon_values(y.u1, y.u2, alpha, y.grid.h))


def grad_sq_values(u1, u2, h):
    """Squared L2 norm of the full gradient (all four partials) of a velocity
    given as two (..., n, n) arrays, one value per slice."""
    from sgf2d.spaces import _gradient_sq_values

    return _gradient_sq_values(u1, u2, h)[0]


def grad_sq(v):
    """Squared L2 norm of the full gradient of a velocity field."""
    return float(grad_sq_values(v.u1, v.u2, v.grid.h))


def norm_l2(f):
    """Discrete L2 norm of a field, sqrt(inner_l2(f, f))."""
    return float(np.sqrt(inner_l2(f, f)))


def optimize_trajectory_loop(pd, opts):
    """optimizer.optimize from the zero control as written before its loop ran
    on stacks: the iterate, the gradient and every trial point a Trajectory,
    each ball test a control_h1_norm. Returns (records, u_final, J_final,
    tol, message, counts) with counts (state, adjoint, halvings, nonfinite)."""
    import math

    from sgf2d.adjoint import gradient_field, solve_adjoint
    from sgf2d.optimizer import (
        _ARMIJO_C,
        _MAX_HALVINGS,
        IterRecord,
        _evaluate,
        _evaluate_trial,
        project_Uad,
        vi_residual,
    )
    from sgf2d.state import l2q_inner, l2q_inner_values, l2q_norm, trap_weights

    tau = trap_weights(pd.m_steps, pd.dt)
    u = project_Uad(pd.zero_control(), pd.L)
    sol, J = _evaluate(pd, u)
    tol = opts.tol if opts.tol is not None else 1e-8 * (1.0 + abs(J))
    g = gradient_field(u, solve_adjoint(sol, None, pd), pd.lam)
    n_state = n_adjoint = 1
    n_halvings = n_nonfinite = 0
    records = []
    prev_u = prev_g = None
    step = opts.initial_step
    last_step = 0.0
    message = "iteration cap reached"
    for it in range(opts.max_iter + 1):
        vi = vi_residual(u, g, pd.L)
        records.append(IterRecord(it, J, l2q_norm(g, tau), last_step, vi))
        if vi <= tol:
            message = "vi residual within tolerance"
            break
        if it == opts.max_iter:
            break
        if prev_u is not None:
            s = u.data - prev_u
            y = g.data - prev_g
            sy = l2q_inner_values(s, y, tau, pd.grid.h)
            if sy > 0:
                step = min(max(sy / l2q_inner_values(y, y, tau, pd.grid.h), 1e-14), 1e14)
        accepted = False
        t = step
        for halvings in range(_MAX_HALVINGS + 1):
            trial = project_Uad((u - t * g), pd.L)
            decrease = l2q_inner(g, trial - u, tau)
            if decrease <= 0.0:
                trial_sol, trial_J = _evaluate_trial(pd, trial)
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
        prev_u, prev_g = u.data, g.data
        u, sol, J = trial, trial_sol, trial_J
        last_step = t
        g = gradient_field(u, solve_adjoint(sol, None, pd), pd.lam)
        n_adjoint += 1
    return records, u, J, tol, message, (n_state, n_adjoint, n_halvings, n_nonfinite)
