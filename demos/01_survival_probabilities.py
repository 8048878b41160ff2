#!/usr/bin/env python3
"""Survival probabilities for the income-rate-2 risk model, three ways.

The model: surplus W(n) = u + 2n - (Z_1 + ... + Z_n) with i.i.d. integer
claims Z.  phi(u) is the probability W stays positive forever.  This demo
solves a few claim laws and shows the three routes agreeing: the closed
form built from the interior root alpha, the finite-n determinant ratios,
and the coefficients of the survival generating function.
"""

from fractions import Fraction

from ruinkit import ClaimDistribution, build_table, initial_values_limit, solve

F = Fraction

LAWS = [
    ClaimDistribution.bernoulli(F(1, 2)),
    ClaimDistribution.geometric(F(1, 2)),
    ClaimDistribution.geometric(F(2, 3)),
    ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
    ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]),  # even lattice
    ClaimDistribution.geometric(F(1, 3)),  # critical mean: everything is zero
]


def main() -> None:
    for dist in LAWS:
        sol = solve(dist, u_max=10, route="all", n_limit=60)
        print(f"== {dist.label()}  (E Z = {dist.mean()}, regime: {sol.regime})")
        print(f"   phi(0) = {sol.phi0:.12f}   phi(1) = {sol.phi1:.12f}")
        routes = sol.diagnostics["routes"]
        if "limit_ratio" in routes:
            lim = routes["limit_ratio"]
            print(f"   ratio route (n=60):      {lim[0]:.12f}   {lim[1]:.12f}")
        if sol.regime == "survivable" and dist.is_primitive():
            print(f"   generating function:     xi_0 = phi(1) = {sol.xi[0]:.12f}")
            table = build_table(dist, 31)
            est = initial_values_limit(table, 30)
            print(f"   ratio route at n=30 differs by {est.delta:.2e} from n=28")
        print(f"   max pairwise route delta: {sol.diagnostics['max_route_delta']:.2e}")
        head = ", ".join(f"{v:.6f}" for v in sol.phi_table[:6])
        print(f"   phi(0..5) = [{head}]")
        print(f"   pi_0 = {sol.pi0:.10f}, pi_1 = {sol.pi1:.10f}")
        print()


if __name__ == "__main__":
    main()
