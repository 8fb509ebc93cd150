"""Produce an optimality certificate for a small tracking problem.

The certificate compares the regularization weight against two thresholds
assembled from a-priori stability bounds (lambda1..lambda4): one for second
order sufficiency, a stricter one for global uniqueness.  Constants are
estimated numerically here, so the report is marked illustrative; supplying
proven constants instead upgrades it.
"""

import os
from dataclasses import replace

import numpy as np

from sgf2d import (
    CertificateInputs,
    DomainConstants,
    Grid,
    ProblemData,
    certify,
    estimate_constant,
    stream_from_coeffs,
    velocity_from_stream,
)

n_grid = 16
est_samples = 30
est_seed = 2026
out_dir = os.path.join(os.path.dirname(__file__), "demo_outputs")


def main():
    g = Grid(n_grid)
    rng = np.random.default_rng(7)
    pd = ProblemData(
        alpha=0.5, nu=2.0, T=0.5, grid=g, m_steps=10,
        y0=velocity_from_stream(stream_from_coeffs(g, np.zeros((1, 1)))),
        y_d=velocity_from_stream(stream_from_coeffs(g, 0.05 * rng.standard_normal((2, 2)))),
        L=0.3, lam=0.0,
    )

    print(f"estimating domain constants ({est_samples} samples each) ...")
    est = {k: estimate_constant(k, est_samples, est_seed, grid=g)
           for k in ("korn", "elliptic", "trilinear")}
    src = {name: "default_unit" for name in ("C1", "C2", "C3", "C4")}
    src.update({"K": "estimated", "K_tilde": "estimated", "K_hat": "estimated"})
    dc = DomainConstants(K=est["korn"], K_tilde=est["elliptic"],
                         K_hat=est["trilinear"], source=src)

    rep0 = certify(CertificateInputs.from_problem(pd, dc))
    print(f"coercivity threshold  {rep0.coercivity_threshold:.6e}")
    print(f"uniqueness threshold  {rep0.uniqueness_threshold:.6e}")

    # rerun with lam above both thresholds and print the full certificate;
    # the larger one can be either, the groupings scale differently
    pd = replace(pd, lam=2.0 * max(rep0.coercivity_threshold, rep0.uniqueness_threshold))
    rep = certify(CertificateInputs.from_problem(pd, dc))
    print()
    print(rep.to_text())

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "certificate.txt")
    rep.write_text(path)
    print(f"certificate written to {path}")


if __name__ == "__main__":
    main()
