"""Survival probabilities: three routes, tables, pi masses, regimes."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ruinkit import (
    ClaimDistribution,
    DPConfig,
    build_table,
    finite_horizon_dp,
    initial_values_closed_form,
    initial_values_limit,
    phi_table,
    pi_values,
    refine_alpha,
    regime,
    solve,
)
from ruinkit import survival
from ruinkit.distributions import _value

from common import (
    even_lattice_laws,
    laws,
    reference_limit,
    reference_phi_half,
    reference_phi_table,
    reference_table,
    reference_xi,
    survivable_fixtures,
)

F = Fraction

#: deg Q = 8 with three zero coefficients, alpha = 1.6358...
NINE_POINT = ClaimDistribution.tabulated(
    [F(1, 2), F(5, 22), F(1, 11), F(1, 11), 0, 0, 0, F(1, 22), F(1, 22)]
)

GOLDEN_PHI0 = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_PHI1 = 2.0 / (1.0 + (1.0 + math.sqrt(5.0)) / 2.0)


def test_regimes():
    assert regime(ClaimDistribution.geometric(F(1, 2))) == "survivable"
    assert regime(ClaimDistribution.geometric(F(1, 3))) == "critical"
    assert regime(ClaimDistribution.geometric(F(1, 4))) == "ruinous"


def test_closed_form_bernoulli_certain_survival():
    for p in (F(1, 5), F(1, 2), F(4, 5)):
        phi0, phi1 = initial_values_closed_form(ClaimDistribution.bernoulli(p))
        assert abs(phi0 - 1.0) < 1e-12
        assert abs(phi1 - 1.0) < 1e-12


def test_closed_form_even_lattice():
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    phi0, phi1 = initial_values_closed_form(dist)
    assert (phi0, phi1) == (0.5, 1.0)


def test_closed_form_golden_ratio():
    phi0, phi1 = initial_values_closed_form(ClaimDistribution.geometric(F(1, 2)))
    assert abs(phi0 - GOLDEN_PHI0) < 1e-12
    assert abs(phi1 - GOLDEN_PHI1) < 1e-12


def test_closed_form_against_dp_oracle():
    # dp >= phi up to the DP's float-rounding floor (~1e-13 per thousand steps)
    for dist in survivable_fixtures():
        phi0, _ = initial_values_closed_form(dist)
        dp = finite_horizon_dp(dist, 0, DPConfig(horizon=2000)).value
        assert -1e-9 <= dp - phi0 < 2e-3, dist.label()


def test_limit_route_bernoulli_is_exact():
    table = build_table(ClaimDistribution.bernoulli(F(1, 2)), 12)
    est = initial_values_limit(table, 10)
    assert abs(est.phi0 - 1.0) < 1e-12
    assert abs(est.phi1 - 1.0) < 1e-12


def test_limit_route_geometric_converges():
    table = build_table(ClaimDistribution.geometric(F(1, 2)), 42)
    est = initial_values_limit(table, 40)
    assert abs(est.phi0 - GOLDEN_PHI0) < 1e-6
    assert abs(est.phi1 - GOLDEN_PHI1) < 1e-6
    assert est.delta < 1e-6


def test_limit_route_rejects_heavy_mean():
    table = build_table(ClaimDistribution.geometric(F(1, 4)), 12)
    with pytest.raises(ValueError, match="E Z < 2"):
        initial_values_limit(table, 10)


def test_limit_route_bounds():
    table = build_table(ClaimDistribution.geometric(F(1, 2)), 10)
    with pytest.raises(ValueError, match="horizon"):
        initial_values_limit(table, 10)
    with pytest.raises(ValueError, match=r"n_limit \(--n\)"):
        initial_values_limit(table, 0)


@settings(max_examples=60, deadline=None)
@given(dist=laws.filter(lambda d: d.mean() < 2), n=st.integers(1, 120))
@example(dist=ClaimDistribution.tabulated(
    [F(1, 2), F(5, 22), F(1, 11), F(1, 11), 0, 0, 0, F(1, 22), F(1, 22)]), n=60)
def test_limit_route_matches_reduced_fractions(dist, n):
    table = build_table(dist, n + 1)
    x, y, d = table.x, table.y, table.d
    assume(d[n] != 0 and (n < 2 or d[n - 2] != 0))
    est = initial_values_limit(table, n)
    phi0, phi1 = reference_limit(x, y, d, n)
    assert (est.phi0, est.phi1) == (phi0, phi1)
    if n >= 2:
        prev0, prev1 = reference_limit(x, y, d, n - 2)
        assert est.delta == max(abs(phi0 - prev0), abs(phi1 - prev1))


def test_xi_bernoulli_all_ones():
    xi = solve(ClaimDistribution.bernoulli(F(2, 5)), u_max=30, route="xi").xi
    assert len(xi) == 31
    assert all(abs(v - 1.0) < 1e-12 for v in xi)


def test_xi_matches_phi_one():
    xi = solve(ClaimDistribution.geometric(F(1, 2)), u_max=10, route="xi").xi
    assert abs(xi[0] - GOLDEN_PHI1) < 1e-10


def test_xi_zero_when_ruinous():
    xi = solve(ClaimDistribution.geometric(F(1, 4)), u_max=10, route="xi").xi
    assert xi == [0.0] * 11


def test_xi_skipped_on_even_lattice():
    # the even-lattice report has no xi, but its closed form and pi are those
    # of every law at alpha = 1: phi(1) = (2 - EZ)/(2 h_0) = 1 and pi_1 = 0
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    sol = solve(dist, u_max=5, route="xi")
    assert sol.xi is None
    assert sol.diagnostics["routes"]["xi_series"] is None
    assert pi_values(dist) == (1.0, 0.0) == (sol.pi0, sol.pi1)


def test_xi_consistency_with_linear_combination():
    # xi_u = x_{u+1} phi(0) + y_{u+1} phi(1) for u <= 50
    for dist in (
        ClaimDistribution.geometric(F(1, 2)),
        ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
    ):
        alpha_rat = refine_alpha(dist, bits=256)
        mean = dist.mean()
        p0 = alpha_rat * (2 - mean) / (1 + alpha_rat)
        p1 = (2 - mean) / (dist.hk(0) * (1 + alpha_rat))
        phis = phi_table(dist, p0, p1, 51)
        xi = solve(dist, u_max=50, route="xi").xi
        for u in range(51):
            assert abs(xi[u] - phis[u + 1]) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    dist=laws.filter(lambda d: d.is_primitive() and d.mean() < 2),
    u_max=st.integers(0, 120),
)
def test_xi_series_matches_reference_division(dist, u_max):
    # solve's xi reads phi_table; the reference divides by H - s^2 at the
    # same rational alpha, so the two agree bit for bit
    sol = solve(dist, u_max=u_max, route="xi")
    want = reference_xi(dist, refine_alpha(dist, sol.diagnostics["alpha_bits"]), u_max)
    assert sol.xi == [float(v) for v in want]


def test_phi_table_reproduces_initial_values():
    dist = ClaimDistribution.geometric(F(1, 2))
    phi0, phi1 = initial_values_closed_form(dist)
    table = phi_table(dist, phi0, phi1, 5)
    assert table[0] == pytest.approx(phi0, abs=1e-15)
    assert table[1] == pytest.approx(phi1, abs=1e-15)


def test_phi_two_matches_dp_oracle():
    # phi(2) = x_2 phi0 + y_2 phi1 = 2 phi0 - phi1/2 = 0.854102...
    dist = ClaimDistribution.geometric(F(1, 2))
    sol = solve(dist, u_max=2)
    assert abs(sol.phi_table[2] - 0.854102) < 1e-5
    dp = finite_horizon_dp(dist, 2, DPConfig(horizon=3000)).value
    assert -1e-9 <= dp - sol.phi_table[2] < 1e-3


def test_phi_table_bernoulli_all_ones():
    sol = solve(ClaimDistribution.bernoulli(F(1, 3)), u_max=20)
    assert all(abs(v - 1.0) < 1e-12 for v in sol.phi_table)


def test_phi_table_monotone_and_tends_to_one():
    sol = solve(ClaimDistribution.geometric(F(1, 2)), u_max=200)
    table = sol.phi_table
    assert all(table[u] <= table[u + 1] + 1e-15 for u in range(200))
    assert all(v <= 1.0 + 1e-12 for v in table)
    assert table[200] > 1.0 - 1e-3


def test_phi_table_even_lattice_half_process():
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    table = phi_table(dist, F(1, 2), F(1), 8)
    assert table == [0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    # the x/y linear combination gives the same values (x_odd = 0 there)
    seq = build_table(dist, 8)
    for u in range(9):
        assert float(seq.x[u] * F(1, 2) + seq.y[u] * 1) == table[u]


@settings(max_examples=40, deadline=None)
@given(
    dist=even_lattice_laws,
    u_max=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 300)),
)
def test_phi_table_matches_half_process_on_even_lattice(dist, u_max):
    # phi_table reads x_u, y_u for every law; on the even lattice it must give
    # the half process's table for any pair with phi(1) = phi(0)/h_0: the
    # closed form when E Z < 2, the same formula continued when E Z >= 2
    p0 = (2 - dist.mean()) / 2
    p1 = p0 / dist.hk(0)
    if dist.mean() < 2:
        assert (p0, p1) == initial_values_closed_form(dist)
    want = []
    for v in reference_phi_half(dist, p0, p1, u_max):
        try:
            want.append(float(v))
        except OverflowError:  # E Z > 2: the continued pair grows without bound
            break
    assert phi_table(dist, p0, p1, len(want) - 1) == want


_initial_values = st.one_of(
    st.floats(-2, 2),
    st.fractions(-2, 2, max_denominator=10**12),
)


@settings(max_examples=60, deadline=None)
@given(
    dist=laws,
    phi0=_initial_values,
    phi1=_initial_values,
    u_max=st.integers(0, 120),
)
# alpha = 11 for this law, so a pair off the closed form outgrows a double
@example(dist=ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]),
         phi0=0.5, phi1=F(1, 3), u_max=400)
# below, at and past the start of the F recurrence (u = max(len P, len Q) = 9)
@example(dist=NINE_POINT, phi0=F(2, 3), phi1=0.75, u_max=0)
@example(dist=NINE_POINT, phi0=F(2, 3), phi1=0.75, u_max=1)
@example(dist=NINE_POINT, phi0=F(2, 3), phi1=0.75, u_max=2)
@example(dist=NINE_POINT, phi0=F(2, 3), phi1=0.75, u_max=3)
@example(dist=NINE_POINT, phi0=F(2, 3), phi1=0.75, u_max=10)
@example(dist=ClaimDistribution.even_lattice([F(1, 2), F(1, 4), F(1, 4)]),
         phi0=F(3, 4), phi1=1.5, u_max=200)
@example(dist=ClaimDistribution.geometric(F(1, 4)), phi0=F(1, 3), phi1=0.5, u_max=200)  # E Z = 3
@example(dist=ClaimDistribution.tabulated([F(1, 4), F(1, 8), 0, F(5, 8)]),  # E Z = 2
         phi0=F(1, 5), phi1=F(-1, 7), u_max=120)
# the table divides over lcm(B, E): coprime denominators, floats (powers of
# two), shared factors with E Z > 2, and shared factors past the double range
@example(dist=ClaimDistribution.geometric(F(1, 2)), phi0=F(2, 3), phi1=F(3, 4), u_max=60)
@example(dist=ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
         phi0=0.3, phi1=-1.7, u_max=120)
@example(dist=ClaimDistribution.tabulated([F(1, 4), 0, 0, F(3, 4)]),  # E Z = 9/4
         phi0=F(2, 9), phi1=F(4, 15), u_max=120)
@example(dist=ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]),
         phi0=F(1, 6), phi1=F(5, 12), u_max=400)
def test_phi_table_is_the_float_of_the_reduced_fraction(dist, phi0, phi1, u_max):
    # one int/int quotient per entry rounds as float(Fraction) does, on
    # primitive, even-lattice and E Z >= 2 laws, overflow included
    try:
        want = [float(v) for v in reference_phi_table(dist, phi0, phi1, u_max)]
    except OverflowError:
        with pytest.raises(OverflowError):
            phi_table(dist, phi0, phi1, u_max)
    else:
        assert phi_table(dist, phi0, phi1, u_max) == want


def test_solve_table_is_the_float_of_the_reduced_fraction():
    # the F recurrence at solve's own precision, 1500 entries deep
    sol = solve(NINE_POINT, u_max=1500)
    alpha = refine_alpha(NINE_POINT, sol.diagnostics["alpha_bits"])
    p0, p1 = initial_values_closed_form(NINE_POINT, alpha)
    assert sol.phi_table == [float(v) for v in reference_phi_table(NINE_POINT, p0, p1, 1500)]


@settings(max_examples=40, deadline=None)
@given(dist=st.one_of(laws, even_lattice_laws), u_max=st.integers(0, 300))
@example(dist=NINE_POINT, u_max=300)  # stops at u = 187
@example(dist=ClaimDistribution.tabulated([F(1, 1000), F(899, 1000), 0, F(1, 10)]),
         u_max=60)  # alpha = 900.1..., stops at u = 18
@example(dist=ClaimDistribution.bernoulli(F(1, 3)), u_max=20)  # phi(0) = 1: stops at u = 0
@example(dist=ClaimDistribution.geometric(F(1000, 2999)), u_max=300)  # E Z = 1.999: no stop
@example(dist=ClaimDistribution.geometric(F(1, 4)), u_max=50)  # E Z = 3
def test_solve_plateau_is_the_full_table(dist, u_max):
    # the 1.0 filled in after the stop is what the full exact table rounds to
    sol = solve(dist, u_max=u_max, route="xi")
    bits = sol.diagnostics.get("alpha_bits")
    p0, p1 = initial_values_closed_form(dist, refine_alpha(dist, bits) if bits else None)
    want = [float(v) for v in reference_phi_table(dist, p0, p1, u_max + 1)]
    assert sol.phi_table == want[:-1]
    assert sol.xi == (want[1:] if dist.is_primitive() else None)


@pytest.mark.parametrize("dist, most", [(ClaimDistribution.geometric(F(1, 2)), 80), (NINE_POINT, 190)])
def test_solve_stops_the_stream_at_the_plateau(monkeypatch, dist, most):
    # u_max = 10^5, but the exact stream is read only up to the 1.0 plateau
    numerators, drawn = survival._numerators, []

    def counted(*args):
        drawn.append(0)
        for f in numerators(*args):
            drawn[-1] += 1
            yield f

    monkeypatch.setattr(survival, "_numerators", counted)
    sol = solve(dist, u_max=100_000)
    assert len(sol.phi_table) == 100_001 and sol.phi_table[-1] == 1.0
    assert len(drawn) == 1 and drawn[0] <= most, drawn


def test_pi_values_geometric_half():
    pi0, pi1 = pi_values(ClaimDistribution.geometric(F(1, 2)))
    assert abs(pi0 - 0.7639320) < 1e-6
    assert abs(pi1 - 0.0901699) < 1e-6
    # both defining equations hold to 1e-12
    dist = ClaimDistribution.geometric(F(1, 2))
    h0, h1 = float(dist.hk(0)), float(dist.hk(1))
    alpha = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs((2 * h0 + h1) * pi0 + h0 * pi1 - 1.0) < 1e-12
    assert abs(pi0 * (h0 + h1 - h0 * alpha) + pi1 * h0) < 1e-12


def test_pi_values_bernoulli():
    pi0, pi1 = pi_values(ClaimDistribution.bernoulli(F(1, 3)))
    assert abs(pi0 - 1.0) < 1e-12
    assert abs(pi1) < 1e-12
    # pi is evaluated in alpha's arithmetic: at the exact alpha = 1 + h_1/h_0
    # = 5 of bernoulli(4/5), pi_1 vanishes exactly; solve passes its rational
    # bracket of alpha, so no float root error leaks into pi_0 or pi_1
    dist = ClaimDistribution.bernoulli(F(4, 5))
    assert pi_values(dist, F(5)) == (1.0, 0.0)
    sol = solve(dist, u_max=20)
    assert sol.pi0 == 1.0
    assert abs(sol.pi1) < 1e-40


def test_solve_pi1_vanishes_at_rational_roots():
    # alpha = 1 + h_1/h_0 is rational and -1/alpha is no bisection midpoint
    # (alpha = 5, 3/2, 3/2, 11); refine_alpha returns it exactly, so pi_1
    # is 0, not a tiny residue of the bracket of either sign
    for dist in (
        ClaimDistribution.bernoulli(F(4, 5)),
        ClaimDistribution.bernoulli(F(1, 3)),
        ClaimDistribution.tabulated([F(1, 2), F(1, 4), F(1, 4)]),
        ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]),
    ):
        assert solve(dist, u_max=20).pi1 == 0.0, dist.label()


def test_pi_values_zero_for_heavy_mean():
    assert pi_values(ClaimDistribution.geometric(F(1, 4))) == (0.0, 0.0)


def test_pi_values_even_lattice():
    # alpha = 1 on the even lattice: pi_0 = phi(1) = (2 - EZ)/(2 h_0), pi_1 = 0
    dist = ClaimDistribution.tabulated([F(1, 2), F(0), F(1, 4), F(0), F(1, 4)])
    assert pi_values(dist) == (0.5, 0.0)
    assert pi_values(dist, F(1)) == (0.5, 0.0)
    sol = solve(dist, u_max=4)
    assert (sol.pi0, sol.pi1) == (0.5, 0.0)
    assert sol.pi0 == sol.phi_table[1] and sol.pi1 == sol.phi_table[2] - sol.phi_table[1]
    assert pi_values(ClaimDistribution.tabulated([F(1, 4), 0, 0, 0, F(3, 4)])) == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(dist=even_lattice_laws)
def test_even_lattice_closed_form_is_alpha_one(dist):
    # H(-1) = H(1) = 1, so s = -1 solves H(s) = s^2 exactly: alpha = 1, and
    # the one closed form gives the even-lattice values
    assert _value(dist.rational_pgf[2], -1, 1) == 0
    if dist.mean() < 2:
        rate = 2 - dist.mean()
        phi0, phi1 = initial_values_closed_form(dist)
        assert (phi0, phi1) == (rate / 2, rate / (2 * dist.hk(0)))
        assert isinstance(phi0, Fraction) and isinstance(phi1, Fraction)
        assert pi_values(dist) == (float(phi1), 0.0)


@settings(max_examples=60, deadline=None)
@given(dist=laws.filter(lambda d: d.mean() < 2), bits=st.integers(64, 512))
def test_pi1_is_the_exact_phi_difference(dist, bits):
    # pi_1 = phi(1)(alpha - 1 - h_1/h_0) is phi(2) - phi(1) exactly at any
    # rational alpha, with phi(2) = x_2 phi(0) + y_2 phi(1) from the pmf
    # recurrence; one pi formula serves every law because of it
    alpha = refine_alpha(dist, bits) if dist.is_primitive() else F(1)
    p0, p1 = initial_values_closed_form(dist, alpha)
    x, y, _ = reference_table(dist, 2)
    phi2 = x[2] * p0 + y[2] * p1
    assert pi_values(dist, alpha) == (float(p1), float(phi2 - p1))


@settings(max_examples=60, deadline=None)
@given(
    dist=laws.filter(lambda d: d.mean() < 2),
    alpha=st.fractions(min_value=1, max_value=1000, max_denominator=10**6),
)
def test_pi_system_holds_at_any_alpha(dist, alpha):
    # pi_0 = phi(1) and pi_1 = phi(1)(alpha - 1 - h_1/h_0) solve both
    # equations of the pi system exactly at any alpha, not only at the root,
    # so a residual check on them could never fail
    h0, h1 = dist.hk(0), dist.hk(1)
    pi0 = initial_values_closed_form(dist, alpha)[1]
    pi1 = pi0 * (alpha - 1 - h1 / h0)
    assert (2 * h0 + h1) * pi0 + h0 * pi1 == 2 - dist.mean()
    assert (h0 + h1 - h0 * alpha) * pi0 + h0 * pi1 == 0
    assert pi_values(dist, alpha) == (float(pi0), float(pi1))


def test_pi_sums_match_phi_differences():
    # phi(u+1) = pi_0 + ... + pi_u, so pi_1 = phi(2) - phi(1)
    dist = ClaimDistribution.geometric(F(1, 2))
    sol = solve(dist, u_max=3)
    pi0, pi1 = pi_values(dist)
    assert abs(pi0 - sol.phi_table[1]) < 1e-12
    assert abs(pi1 - (sol.phi_table[2] - sol.phi_table[1])) < 1e-12


def test_three_route_agreement():
    for dist in (
        ClaimDistribution.geometric(F(1, 2)),
        ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
    ):
        sol = solve(dist, u_max=30, route="all", n_limit=60)
        assert sol.diagnostics["max_route_delta"] < 1e-8, dist.label()


def test_xi_differences_are_a_probability_mass():
    # Xi(s)(1 - s) generates the peak masses pi_i: differences of xi are
    # non-negative and their partial sums stay below 1, approaching it
    for dist in (
        ClaimDistribution.geometric(F(1, 2)),
        ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
    ):
        xi = solve(dist, u_max=120, route="xi").xi
        masses = [xi[0]] + [xi[u] - xi[u - 1] for u in range(1, 121)]
        assert all(m >= -1e-14 for m in masses)
        total = sum(masses)
        assert total <= 1.0 + 1e-12
        assert total > 1.0 - 1e-6  # the peak is finite: mass accumulates to 1


def test_solve_even_lattice():
    sol = solve(ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]), u_max=10, route="all")
    assert sol.phi0 == 0.5 and sol.phi1 == 1.0
    assert sol.xi is None
    assert sol.pi0 == 1.0 and abs(sol.pi1) < 1e-15
    assert sol.diagnostics["max_route_delta"] < 1e-12


def test_zero_regimes_all_routes():
    for p in (F(1, 3), F(1, 4)):
        sol = solve(ClaimDistribution.geometric(p), u_max=10, route="all")
        assert sol.regime in ("critical", "ruinous")
        assert sol.phi0 == 0.0 and sol.phi1 == 0.0
        assert not any(sol.phi_table)
        assert (sol.pi0, sol.pi1) == (0.0, 0.0)
        assert sol.xi == [0.0] * 11
        assert sol.diagnostics["max_route_delta"] == 0.0


def test_solve_rejects_unknown_route():
    with pytest.raises(ValueError):
        solve(ClaimDistribution.bernoulli(F(1, 2)), route="newton")


def test_solve_rejects_negative_u_max():
    # every regime: survivable, ruinous and even-lattice laws
    for dist in (
        ClaimDistribution.geometric(F(1, 2)),
        ClaimDistribution.geometric(F(1, 4)),
        ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]),
    ):
        with pytest.raises(ValueError, match="u_max"):
            solve(dist, u_max=-1)


def test_method_provenance():
    dist = ClaimDistribution.geometric(F(1, 2))
    assert solve(dist, u_max=4).method == "closed_form"
    assert solve(dist, u_max=4, route="limit", n_limit=24).method == "limit_ratio(24)"
    assert solve(dist, u_max=4, route="all").method == "all"
