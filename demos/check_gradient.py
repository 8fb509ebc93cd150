"""Verify the adjoint gradient of the tracking cost three different ways.

1. Duality: the tangent/adjoint pairings agree to roundoff for random pairs.
2. Central differences: the adjoint directional derivative matches
   (J(u + eps w) - J(u - eps w)) / (2 eps) with an O(eps^2) gap.
3. Taylor: the first-order remainder of the control-to-state map shrinks
   like eps^2 (ratio ~4 under eps halving).
"""

import numpy as np

from sgf2d import (
    Grid,
    ProblemData,
    cost,
    duality_gap,
    gradient_field,
    solve_adjoint,
    solve_linearized,
    solve_state,
    stream_from_coeffs,
    velocity_from_stream,
)
from sgf2d.state import Trajectory, l2q_inner_values, trap_weights

n_grid = 24
m_steps = 30
seed = 11


def random_stream_field(g, rng, amp, modes):
    return velocity_from_stream(stream_from_coeffs(g, amp * rng.standard_normal((modes, modes))))


def random_control(pd, rng, amp=1.0):
    n = pd.grid.n_interior
    data = np.zeros((pd.m_steps + 1, 2, n, n))
    t = np.linspace(0.0, 1.0, pd.m_steps + 1)
    for k in range(pd.m_steps + 1):
        f = random_stream_field(pd.grid, rng, amp, 3)
        # smooth-in-time envelope so the direction is not white noise in t
        data[k, 0], data[k, 1] = f.u1 * (1 + np.cos(np.pi * t[k])), f.u2
    return Trajectory(pd.grid, pd.dt, "control", data)


def main():
    rng = np.random.default_rng(seed)
    g = Grid(n_grid)
    pd = ProblemData(
        alpha=0.5, nu=0.1, T=0.5, grid=g, m_steps=m_steps,
        y0=random_stream_field(g, rng, 0.005, 3),
        y_d=random_stream_field(g, rng, 0.3, 2),
        L=5.0, lam=1e-3,
    )
    u = random_control(pd, rng, amp=0.02)
    base = solve_state(u, pd)

    print("duality gaps (should be at roundoff):")
    for i in range(3):
        w = random_control(pd, rng)
        phi = random_control(pd, rng)
        print(f"  pair {i}: {duality_gap(base, w, phi, pd):.3e}")

    adj = solve_adjoint(base, pd.y_d, pd)
    grad = gradient_field(u, adj, pd.lam)
    tau = trap_weights(pd.m_steps, pd.dt)

    w = random_control(pd, rng)
    w = w * (1.0 / np.max(np.abs(w.data)))
    directional = l2q_inner_values(grad.data, w.data, tau, g.h)
    print(f"\nadjoint directional derivative: {directional:.12e}")
    print(f"{'eps':>8} {'central diff':>18} {'rel gap':>10}")
    for eps in (1e-2, 1e-3, 1e-4):
        jp = cost(u + w * eps, solve_state(u + w * eps, pd).velocity, pd.y_d, pd.lam)
        jm = cost(u - w * eps, solve_state(u - w * eps, pd).velocity, pd.y_d, pd.lam)
        fd = (jp - jm) / (2 * eps)
        print(f"{eps:>8.0e} {fd:>18.12e} {abs(fd - directional) / abs(fd):>10.2e}")

    tan = solve_linearized(base, w, pd)
    print("\nfirst-order Taylor remainder |S(u+eps w) - S(u) - eps S'(u)w|:")
    prev = None
    for eps in (1e-2, 5e-3, 2.5e-3):
        r = np.max(np.abs(solve_state(u + w * eps, pd).y - base.y - eps * tan.z))
        note = "" if prev is None else f"  ratio {prev / r:.2f}"
        print(f"  eps={eps:<8g} remainder {r:.3e}{note}")
        prev = r


if __name__ == "__main__":
    main()
