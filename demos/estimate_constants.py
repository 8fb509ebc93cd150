"""Estimate the discrete Korn, elliptic-regularity, and trilinear constants.

Each constant is the sup of a Rayleigh-type quotient over divergence-free
fields, taken over the stream functions of the first 8 x 8 sine modes.  For
Korn and elliptic the quotient is a ratio of two quadratic forms, so the
estimate is exact over those modes (the top eigenvalue of their pencil) and
does not depend on the sample count.  The trilinear quotient is linear in
phi for fixed z, so its sup over phi is exact (a dual norm); the estimate
is the largest of these over random-sampled z and grows monotonically with
the sample count.  All three are lower bounds on the discrete sup, so the
inequalities hold on the sampled family; the spot checks below make that
visible.
"""

from sgf2d import DomainConstants, Grid, check_inequality, estimate_constant, sample_field

n_grid = 16
seed = 2026


def main():
    g = Grid(n_grid)
    print(f"grid {n_grid}^2, seed {seed}")
    print(f"{'kind':>10} {'10 samples':>12} {'30 samples':>12} {'60 samples':>12}")
    final = {}
    for kind in ("korn", "elliptic", "trilinear"):
        vals = [estimate_constant(kind, s, seed, grid=g) for s in (10, 30, 60)]
        final[kind] = vals[-1]
        how = "exact over phi, sampled z" if kind == "trilinear" else "exact over the modes"
        print(f"{kind:>10} {vals[0]:>12.6g} {vals[1]:>12.6g} {vals[2]:>12.6g}  {how}")

    src = {name: "default_unit" for name in ("C1", "C2", "C3", "C4")}
    src.update({"K": "estimated", "K_tilde": "estimated", "K_hat": "estimated"})
    dc = DomainConstants(K=final["korn"], K_tilde=final["elliptic"],
                         K_hat=final["trilinear"], source=src)

    print("\nspot checks on the sampled family:")
    for kind in ("korn", "elliptic", "trilinear"):
        worst = 0.0
        for i in range(25):
            chk = check_inequality(kind, sample_field(kind, i, seed, grid=g), dc)
            assert chk.holds
            worst = max(worst, chk.lhs / chk.rhs)
        print(f"  {kind:>10}: holds on 25/25, worst lhs/rhs = {worst:.4f}")


if __name__ == "__main__":
    main()
