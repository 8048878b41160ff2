#!/usr/bin/env python3
"""Interior roots of H(s) - s^2 and the growth laws they induce.

The negative root -1/alpha always exists for a primitive law; the positive
root 1/beta appears once E Z > 2; the zero at s = 1 has order r = 2 exactly
at the critical mean.  From the roots come the partial-fraction coefficients
of X(s), the expansion x_n ~ a(-alpha)^n + b beta^n + c1 + c2(n+1), and the
determinant ratio limit |D_{n+2}/D_n| -> alpha^2 (or (alpha beta)^2).
"""

from fractions import Fraction

from ruinkit import (
    ClaimDistribution,
    build_table,
    compute_coefficients,
    determinant_ratio_limit,
    geometric_margin_factor,
    predict_xn,
    root_profile,
    verify_sign_monotonicity,
    xn_residuals,
)

F = Fraction

LAWS = [
    ClaimDistribution.geometric(F(1, 2)),   # EZ = 1: only alpha
    ClaimDistribution.geometric(F(1, 3)),   # EZ = 2: double zero at s = 1
    ClaimDistribution.geometric(F(1, 4)),   # EZ = 3: alpha and beta
    ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
]


def main() -> None:
    for dist in LAWS:
        profile = root_profile(dist)
        coeffs = compute_coefficients(dist, profile)
        print(f"== {dist.label()}  (E Z = {dist.mean()})")
        beta = f"{profile.beta:.12f}" if profile.beta is not None else "absent"
        print(f"   alpha = {profile.alpha:.12f}   beta = {beta}   r = {profile.r}")
        print(
            f"   a = {coeffs.a:+.9f}  b = {coeffs.b:+.9f}  "
            f"c1 = {coeffs.c1:+.9f}  c2 = {coeffs.c2:+.9f}"
        )

        table = build_table(dist, 82)
        res = xn_residuals(table, coeffs)
        print(f"   x_20 = {table.xf(20):.6g}, expansion predicts {predict_xn(coeffs, 20):.6g}")
        print(f"   relative residuals at n = 10, 40, 80: "
              f"{res[10]:.2e}, {res[40]:.2e}, {res[80]:.2e}")

        ratio = float(table.d[80] / table.d[78])
        print(f"   D_80/D_78 = {ratio:.9f} vs limit {determinant_ratio_limit(coeffs):.9f}")
        pattern = verify_sign_monotonicity(table, coeffs)
        print(f"   pattern stabilizes at n0 = {pattern.n0} (empirical); {pattern.growth}")
        print()

    print("margin factor along the geometric family (stays inside (0, 1)):")
    for k in (1, 5, 9, 13, 19):
        p = F(k, 20)
        print(f"   p = {str(p):>5}: f = {geometric_margin_factor(p):.9f}")


if __name__ == "__main__":
    main()
