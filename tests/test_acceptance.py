"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

from ruinkit import (
    ClaimDistribution,
    DPConfig,
    build_table,
    check_conjecture,
    compute_coefficients,
    deflate_G,
    finite_horizon_dp,
    geometric_margin_factor,
    geometric_partial_fraction,
    initial_values_limit,
    margin_factor_from_coefficients,
    pi_values,
    root_profile,
    solve,
)

from common import (
    all_fixtures,
    bernoulli_fixtures,
    pgf_minus_s2_series,
    pgf_series,
    primitive_fixtures,
    series_divide,
)

F = Fraction

GOLDEN_PHI0 = (math.sqrt(5.0) - 1.0) / 2.0


def _report(number: int, description: str):
    print(f"ACCEPTANCE {number:2d}: PASS  {description}")


def _fail(number: int, description: str):
    print(f"ACCEPTANCE {number:2d}: FAIL  {description}")


class _criterion:
    """Prints the PASS/FAIL line for a criterion as the test resolves."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _report(self.number, self.description)
        else:
            _fail(self.number, self.description)
        return False


def test_criterion_01_bernoulli_goldens_exact():
    with _criterion(1, "Bernoulli x_n and D_n closed forms, exact, n <= 60, < 1 s"):
        start = time.perf_counter()
        for dist in bernoulli_fixtures():
            q = 1 - dist.p
            table = build_table(dist, 61)
            for n in range(61):
                assert table.x[n] == (1 + (-1) ** n * q ** (1 - n)) / (1 + q)
            for n in range(61):
                assert table.d[n] == (-1) ** n / q**n
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_geometric_one_third_goldens_exact():
    with _criterion(2, "geometric(1/3) x_n and D_n closed forms, exact, n <= 60"):
        table = build_table(ClaimDistribution.geometric(F(1, 3)), 62)
        for n in range(61):
            assert table.x[n] == F((-2) ** (n + 2) + 5 + 3 * n, 9)
        # the quoted determinant closed form tracks the Hankel bracket
        # x_n x_{n+2} - x_{n+1}^2; D_n carries the extra factor h_0 = 1/3
        for n in range(61):
            bracket = F((-2) ** (n + 2) * (27 * n + 63) - 9, 81)
            assert table.x[n] * table.x[n + 2] - table.x[n + 1] ** 2 == bracket
            assert table.d[n] == bracket / 3


def test_criterion_03_conjecture_suite_exact():
    with _criterion(3, "determinant pattern holds through n = 200 on all 11 fixtures, < 30 s"):
        start = time.perf_counter()
        for dist in all_fixtures():
            report = check_conjecture(dist, 200)
            assert report.holds, dist.label()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_root_residuals():
    with _criterion(4, "root residuals < 1e-12; alpha goldens to 1e-12"):
        for dist in primitive_fixtures():
            alpha = root_profile(dist).alpha
            s = -1.0 / alpha
            assert abs(float(dist.pgf(s)) - s * s) < 1e-12, dist.label()
        for dist in bernoulli_fixtures():
            assert abs(root_profile(dist).alpha - 1.0 / float(1 - dist.p)) < 1e-12
        for p in (F(1, 5), F(1, 3), F(1, 2), F(2, 3)):
            dist = ClaimDistribution.geometric(p)
            want = (math.sqrt(4.0 / float(p) - 3.0) + 1.0) / 2.0
            assert abs(root_profile(dist).alpha - want) < 1e-12


def test_criterion_05_coefficient_goldens():
    with _criterion(5, "geometric expansion coefficients match closed forms to 1e-12"):
        for p in (F(1, 5), F(1, 2), F(2, 3)):
            dist = ClaimDistribution.geometric(p)
            coeffs = compute_coefficients(dist, root_profile(dist))
            a_ref, b_ref, c1_ref = geometric_partial_fraction(p)
            assert abs(coeffs.a - a_ref) < 1e-12
            assert abs(coeffs.b - b_ref) < 1e-12
            assert abs(coeffs.c1 - c1_ref) < 1e-12
        dist = ClaimDistribution.geometric(F(1, 3))
        coeffs = compute_coefficients(dist, root_profile(dist))
        assert abs(coeffs.a - 4.0 / 9.0) < 1e-12
        assert abs(coeffs.c1 - 2.0 / 9.0) < 1e-12
        assert abs(coeffs.c2 - 1.0 / 3.0) < 1e-12


def test_criterion_06_margin_factor_identity():
    with _criterion(6, "margin factor identity on the 19-point grid to 1e-12"):
        grid = [F(k, 20) for k in range(1, 20)]
        assert len(grid) == 19 and F(1, 3) not in grid
        for p in grid:
            dist = ClaimDistribution.geometric(p)
            coeffs = compute_coefficients(dist, root_profile(dist))
            computed = margin_factor_from_coefficients(coeffs)
            assert abs(computed - geometric_margin_factor(p)) < 1e-12, str(p)


def test_criterion_07_three_route_agreement():
    with _criterion(7, "closed/limit(60)/xi routes agree pairwise within 1e-8"):
        fixtures = [
            ClaimDistribution.geometric(F(1, 2)),
            ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
        ]
        for dist in fixtures:
            sol = solve(dist, u_max=8, route="closed")
            closed = (sol.phi0, sol.phi1)
            table = build_table(dist, 61)
            est = initial_values_limit(table, 60)
            limit = (est.phi0, est.phi1)
            xi = solve(dist, u_max=2, route="xi").xi
            h0 = float(dist.hk(0))
            h1 = float(dist.hk(1))
            via_xi = (h1 * xi[0] + h0 * xi[1], xi[0])
            for route_a in (closed, limit, via_xi):
                for route_b in (closed, limit, via_xi):
                    assert abs(route_a[0] - route_b[0]) < 1e-8, dist.label()
                    assert abs(route_a[1] - route_b[1]) < 1e-8, dist.label()


def test_criterion_08_oracle_convergence():
    with _criterion(8, "DP at N=5000 within 5e-3 of phi(0); gap shrinks from N=1000, < 10 s"):
        start = time.perf_counter()
        dist = ClaimDistribution.geometric(F(1, 2))
        dp_1000 = finite_horizon_dp(dist, 0, DPConfig(horizon=1000)).value
        dp_5000 = finite_horizon_dp(dist, 0, DPConfig(horizon=5000)).value
        gap_1000 = dp_1000 - GOLDEN_PHI0
        gap_5000 = dp_5000 - GOLDEN_PHI0
        assert abs(gap_5000) < 5e-3
        assert abs(gap_1000) < 5e-3
        # phi_N decreases in N; by N = 1000 the true gap sits far below the
        # float rounding floor, so the comparison carries a 1e-9 allowance
        assert gap_5000 <= gap_1000 + 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_09_determinant_ratio():
    with _criterion(9, "|D_62/D_60 - limit| < 1e-3 for geometric(1/2) and geometric(1/4)"):
        dist = ClaimDistribution.geometric(F(1, 2))
        table = build_table(dist, 64)
        ratio = float(F(table.d[62]) / F(table.d[60]))
        alpha = (1.0 + math.sqrt(5.0)) / 2.0
        assert abs(ratio - alpha * alpha) < 1e-3

        dist = ClaimDistribution.geometric(F(1, 4))
        table = build_table(dist, 64)
        ratio = float(F(table.d[62]) / F(table.d[60]))
        alpha = (math.sqrt(13.0) + 1.0) / 2.0
        beta = alpha - 1.0
        assert abs(ratio - (alpha * beta) ** 2) < 1e-3


def test_criterion_10_identity_suite_exact():
    with _criterion(10, "all structural identities exact through n = 120 on every fixture"):
        n = 120
        for dist in all_fixtures():
            table = build_table(dist, n + 2)
            h0 = dist.hk(0)
            for k in range(n + 1):
                assert table.y[k] == h0 * table.x[k + 1]
            for k in range(n + 1):
                assert (
                    table.x[k] * table.y[k + 1] - table.x[k + 1] * table.y[k]
                    == h0 * (table.x[k] * table.x[k + 2] - table.x[k + 1] ** 2)
                )
            for k in range(n // 2):
                assert 1 <= table.x[2 * k] <= table.x[2 * k + 2]
                assert table.x[2 * k + 3] <= table.x[2 * k + 1] <= 0
            if not dist.is_primitive():
                assert all(table.x[2 * k + 1] == 0 for k in range((n + 1) // 2))
            g = deflate_G(dist, n)
            back = [g[0], *(b - a for a, b in zip(g, g[1:]))]  # (1 - s)G
            assert back == pgf_minus_s2_series(dist, n)
            xs = series_divide(pgf_series(dist, n), pgf_minus_s2_series(dist, n), n)
            assert xs == table.x[: n + 1]


def test_criterion_11_regime_handling():
    with _criterion(11, "EZ >= 2 yields the all-zero solution on every route"):
        for p in (F(1, 4), F(1, 3)):
            dist = ClaimDistribution.geometric(p)
            sol = solve(dist, u_max=20, route="all")
            assert sol.phi0 == 0.0 and sol.phi1 == 0.0
            assert not any(sol.phi_table)
            assert (sol.pi0, sol.pi1) == (0.0, 0.0)
            assert sol.xi == [0.0] * 21
            assert pi_values(dist) == (0.0, 0.0)
            xi = solve(dist, u_max=10, route="xi").xi
            assert xi == [0.0] * 11
