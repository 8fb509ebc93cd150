"""One-off reference report from the traced harness (not a workload, no gate).

    python3 perfbench/reference.py

Re-measures the baseline numbers quoted in ROADMAP's open items and prints
them as Markdown; NOTES.md holds a copy of one report. Like the workloads,
it runs with one BLAS/FFT thread.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

from sgf2d import adjoint, grid, optimizer, sensitivity, spaces, state  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import smooth_control, stream_velocity  # noqa: E402


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def criterion10() -> list[str]:
    """The criterion-10 optimize run, counted exactly by the tracer."""
    g = grid.Grid(16)
    y0 = stream_velocity(g, [[0.0]])
    fwd = state.ProblemData(alpha=0.05, nu=0.02, T=2.0, grid=g, m_steps=24, y0=y0)
    v = stream_velocity(g, [[0.05]])
    data = np.broadcast_to(np.stack([v.u1, v.u2]), (25, 2, 16, 16)).copy()
    u_hat = state.Trajectory(g, fwd.dt, "control", data)
    pd = state.ProblemData(
        alpha=0.05, nu=0.02, T=2.0, grid=g, m_steps=24, y0=y0,
        y_d=state.solve_state(u_hat, fwd).velocity,
        L=2.0 * state.control_h1_norm(u_hat), lam=1e-4,
    )
    opts = optimizer.OptimizeOptions(max_iter=400)
    t0 = time.perf_counter()
    plain = optimizer.optimize(pd, opts=opts)
    wall = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        traced = optimizer.optimize(pd, opts=opts)
    assert traced.J_final == plain.J_final
    tot = tracer.totals()
    op_total = tracer.span_end[0] - tracer.span_start[0]
    share = {k: v["self_s"] / op_total for k, v in tot.items()}
    top = sorted(share.items(), key=lambda kv: -kv[1])[:8]
    return [
        "## Criterion 10 (optimize on 16^2 x 24, y_d = S(0.05 (1,1) mode))",
        "",
        f"- iterations (records in the report): {plain.n_iterations}",
        f"- state solves: {tot['state.solve_state']['calls']}",
        f"- adjoint solves: {tot['adjoint.solve_adjoint']['calls']}",
        f"- project_Uad calls: {tot['optimizer.project_Uad']['calls']}",
        f"- J(0)/J_final: {plain.iterates[0].J / plain.J_final:.0f}, converged: {plain.converged}",
        f"- wall time, untraced, one run: {wall:.2f} s",
        "- largest self-time shares of the traced run: "
        + ", ".join(f"{k} {100 * s:.0f}%" for k, s in top),
        "",
    ]


def sweeps(n: int, m: int) -> list[str]:
    """solve_state and its norm share; the adjoint and tangent sweeps."""
    rng = np.random.default_rng(0)
    g = grid.Grid(n)
    pd = state.ProblemData(
        alpha=0.5, nu=0.1, T=0.5, grid=g, m_steps=m,
        y0=stream_velocity(g, 0.005 * rng.standard_normal((3, 3))),
        y_d=stream_velocity(g, 0.3 * rng.standard_normal((2, 2))), L=5.0, lam=1e-3,
    )
    u = smooth_control(pd, rng, 0.02, 3)
    w = smooth_control(pd, rng, 0.5, 4)
    base = state.solve_state(u, pd)
    t_state = best_of(lambda: state.solve_state(u, pd), 5)
    t_adj = best_of(lambda: adjoint.solve_adjoint(base, None, pd), 5)
    t_tan = best_of(lambda: sensitivity.solve_linearized(base, w, pd), 5)

    def norms():  # the diagnostic loop at the end of solve_state, on its own
        for k in range(m + 1):
            vf = grid.VectorField2D(g, base.y[k, 0], base.y[k, 1])
            spaces.norm_hk(vf, 1)
            spaces.norm_hk(vf, 3)

    t_norms = best_of(norms, 5)
    tracer = Tracer()
    with tracer:
        for _ in range(5):
            state.solve_state(u, pd)
    names = tracer.names
    solve_id, norm_id = names.index("state.solve_state"), names.index("spaces.norm_hk")
    solve_s = norm_s = 0.0
    for i, nid in enumerate(tracer.span_name):
        dur = tracer.span_end[i] - tracer.span_start[i]
        if nid == solve_id:
            solve_s += dur
        elif nid == norm_id and tracer.span_name[tracer.span_parent[i]] == solve_id:
            norm_s += dur
    return [
        f"## Sweeps on {n}^2 x {m} (best of 5, untraced)",
        "",
        f"- solve_state: {1e3 * t_state:.1f} ms, of which the norm_hk(., 1) and "
        f"norm_hk(., 3) loop alone takes {1e3 * t_norms:.1f} ms "
        f"({100 * t_norms / t_state:.0f}%); traced share: {100 * norm_s / solve_s:.0f}%",
        f"- solve_adjoint: {1e3 * t_adj:.1f} ms",
        f"- solve_linearized: {1e3 * t_tan:.1f} ms",
        "",
    ]


def dst_sizes() -> list[str]:
    lines = ["## dstn(type=1) on n x n (best of 20)", "", "| n | n+1 | ms |", "|---|---|---|"]
    for n in (31, 63, 127, 255, 32, 128, 256):
        x = np.random.default_rng(n).standard_normal((n, n))
        ms = 1e3 * best_of(lambda: grid.dstn(x, type=1), 20)
        lines.append(f"| {n} | {n + 1} | {ms:.3f} |")
    return lines + [""]


def main() -> int:
    lines = ["# Reference report", ""]
    lines += criterion10()
    lines += sweeps(32, 50)
    lines += sweeps(16, 24)
    lines += dst_sizes()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
