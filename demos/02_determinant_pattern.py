#!/usr/bin/env python3
"""The determinant sign/monotonicity pattern, checked in exact arithmetic.

D_n = x_n y_{n+1} - x_{n+1} y_n alternates in sign and grows in magnitude:
1 <= D_0 <= D_2 <= ... and ... <= D_3 <= D_1 <= -1.  The pattern is what
makes the finite-n ratio route for phi(0), phi(1) well-posed.  Floating
point cannot certify it (D_n is an alpha^(2n)-sized cancellation), so the
checker runs on exact rationals.
"""

from fractions import Fraction

from ruinkit import ClaimDistribution, build_table, check_conjecture

F = Fraction

LAWS = [
    ClaimDistribution.bernoulli(F(1, 3)),
    ClaimDistribution.geometric(F(1, 2)),
    ClaimDistribution.geometric(F(1, 3)),
    ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]),
    ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
]


def main() -> None:
    horizon = 200
    for dist in LAWS:
        report = check_conjecture(dist, horizon)
        print(f"== {dist.label()}: {report.verdict}")
        print(f"   min(D_2n - 1)        = {float(report.even_level_margin):.6g}")
        print(f"   min(-1 - D_2n+1)     = {float(report.odd_level_margin):.6g}")
        print(f"   min(D_2n+2 - D_2n)   = {float(report.even_step_margin):.6g}")
        print(f"   min(D_2n+1 - D_2n+3) = {float(report.odd_step_margin):.6g}")
        print()

    # the even-lattice case is structurally simple: odd-index x vanish and
    # the determinants collapse to h_0 products of the even subsequence
    lattice = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    table = build_table(lattice, 12)
    print("even-lattice collapse for", lattice.label())
    print("   x:", [str(v) for v in table.x[:10]])
    print("   D:", [str(v) for v in table.d[:8]])


if __name__ == "__main__":
    main()
