"""Probe uniqueness of the tracking minimizer with a multistart experiment.

Four projected-gradient runs from well-separated random starts.  With lam
above the certified uniqueness threshold the solenoidal parts of the final
controls must coincide (the curl-free component is invisible to the state,
so only the divergence-free part is compared).  At lam = 0 the spread is
recorded for contrast; nothing is claimed there.
"""

import numpy as np

from sgf2d import (
    CertificateInputs,
    DomainConstants,
    Grid,
    OptimizeOptions,
    ProblemData,
    certify,
    estimate_constant,
    multi_start_uniqueness,
    stream_from_coeffs,
    velocity_from_stream,
)

n_grid = 12
m_steps = 8
est_samples = 30
seed = 2026


def make_problem(g, lam):
    rng = np.random.default_rng(7)
    return ProblemData(
        alpha=0.5, nu=2.0, T=0.5, grid=g, m_steps=m_steps,
        y0=velocity_from_stream(stream_from_coeffs(g, np.zeros((1, 1)))),
        y_d=velocity_from_stream(stream_from_coeffs(g, 0.05 * rng.standard_normal((2, 2)))),
        L=0.3, lam=lam,
    )


def main():
    g = Grid(n_grid)
    est = {k: estimate_constant(k, est_samples, seed, grid=g)
           for k in ("korn", "elliptic", "trilinear")}
    src = {name: "default_unit" for name in ("C1", "C2", "C3", "C4")}
    src.update({"K": "estimated", "K_tilde": "estimated", "K_hat": "estimated"})
    dc = DomainConstants(K=est["korn"], K_tilde=est["elliptic"],
                         K_hat=est["trilinear"], source=src)

    rep = certify(CertificateInputs.from_problem(make_problem(g, 0.0), dc))
    lam = 2.0 * rep.uniqueness_threshold
    print(f"uniqueness threshold {rep.uniqueness_threshold:.4e}, running at lam = {lam:.4e}")

    opts = OptimizeOptions(max_iter=400, tol=1e-12, initial_step=1.0 / (1.0 + lam))
    ms = multi_start_uniqueness(make_problem(g, lam), 4, 11, opts=opts)
    print(f"starts converged: {[r.converged for r in ms.reports]}")
    print(f"J at the four minimizers: {[f'{r.J_final:.10e}' for r in ms.reports]}")
    print(f"max pairwise solenoidal distance {ms.max_distance:.3e} (tol {ms.distance_tol:.1e})")
    print(f"all within tolerance: {ms.all_within_tol}; illustrative constants: {rep.illustrative}")

    ms0 = multi_start_uniqueness(make_problem(g, 0.0), 4, 11, opts=OptimizeOptions(max_iter=60))
    print(f"\nlam = 0 contrast: max pairwise distance {ms0.max_distance:.3e} (no claim)")


if __name__ == "__main__":
    main()
