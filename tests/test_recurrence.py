"""Recurrence tables, determinant identities, and the exact pattern check."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import (
    ClaimDistribution,
    PowerSeries,
    build_table,
    check_conjecture,
    pgf_minus_s2_series,
    pgf_series,
    series_divide,
    verify_sign_monotonicity,
)
from ruinkit import recurrence

from common import all_fixtures, bernoulli_fixtures, laws, naive_chain, reference_table

F = Fraction


def bernoulli_xn(q: Fraction, n: int) -> Fraction:
    return (1 + (-1) ** n * q ** (1 - n)) / (1 + q)


def geometric_third_xn(n: int) -> Fraction:
    return F((-2) ** (n + 2) + 5 + 3 * n, 9)


def test_initial_conditions_and_d0():
    for dist in all_fixtures():
        t = build_table(dist, 4)
        assert (t.x[0], t.x[1], t.y[0], t.y[1]) == (1, 0, 0, 1)
        assert t.d[0] == 1
        assert t.d[1] == -1 / dist.hk(0)


def test_bernoulli_closed_forms():
    for dist in bernoulli_fixtures():
        q = 1 - dist.p
        t = build_table(dist, 32)
        for n in range(31):
            assert t.x[n] == bernoulli_xn(q, n)
            assert t.d[n] == (-1) ** n / q**n


def test_geometric_one_third_closed_forms():
    t = build_table(ClaimDistribution.geometric(F(1, 3)), 32)
    for n in range(31):
        assert t.x[n] == geometric_third_xn(n)
    # Hankel part x_n x_{n+2} - x_{n+1}^2 has its own closed form; D_n is h_0
    # times it (h_0 = 1/3)
    for n in range(29):
        hankel = t.x[n] * t.x[n + 2] - t.x[n + 1] ** 2
        assert hankel == F((-2) ** (n + 2) * (27 * n + 63) - 9, 81)
        assert t.d[n] == hankel / 3


def test_y_from_x_identity():
    for dist in all_fixtures():
        t = build_table(dist, 40)
        h0 = dist.hk(0)
        for n in range(40):
            assert t.y[n] == h0 * t.x[n + 1]


def test_parity_monotonicity():
    for dist in all_fixtures():
        t = build_table(dist, 40)
        for n in range(19):
            assert 1 <= t.x[2 * n] <= t.x[2 * n + 2]
            assert t.x[2 * n + 3] <= t.x[2 * n + 1] <= 0


def test_imprimitive_odd_terms_vanish():
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    t = build_table(dist, 41)
    assert all(t.x[2 * n + 1] == 0 for n in range(20))


def test_series_division_matches_recurrence():
    n = 36
    for dist in all_fixtures():
        t = build_table(dist, n)
        den = pgf_minus_s2_series(dist, n)
        xs = series_divide(pgf_series(dist, n), den, n)
        assert list(xs.coeffs) == t.x
        # Y = h_0 s/(H - s^2), independent of y_n = h_0 x_{n+1}
        h0_s = PowerSeries.of([F(0), dist.hk(0)] + [F(0)] * (n - 1))
        assert list(series_divide(h0_s, den, n).coeffs) == t.y


def test_conjecture_fixtures_hold():
    for dist in all_fixtures():
        report = check_conjecture(dist, 60)
        assert report.holds, dist.label()
        assert report.verdict == "holds_up_to_60"
        assert report.violation_index is None
        assert report.even_level_margin >= 0
        assert report.odd_level_margin >= 0
        assert report.even_step_margin >= 0
        assert report.odd_step_margin >= 0


def test_conjecture_margins_are_exact():
    report = check_conjecture(ClaimDistribution.bernoulli(F(1, 2)), 20)
    # D_0 = 1 and D_1 = -2 pin the level margins exactly
    assert report.even_level_margin == 0
    assert report.odd_level_margin == 1


def test_build_table_rejects_tiny_horizon():
    with pytest.raises(ValueError):
        build_table(ClaimDistribution.bernoulli(F(1, 2)), 1)


@settings(max_examples=60, deadline=None)
@given(dist=laws, n_max=st.integers(2, 150))
@example(dist=ClaimDistribution.tabulated([F(1, 5), F(1, 5), 0, 0, 0, F(3, 5)]), n_max=150)
@example(dist=ClaimDistribution.even_lattice([F(1, 3), F(1, 3), F(1, 3)]), n_max=150)
@example(dist=ClaimDistribution.geometric(F(5, 12)), n_max=150)
def test_exact_table_matches_reference_recurrence(dist, n_max):
    t = build_table(dist, n_max)
    x, y, d = reference_table(dist, n_max)
    assert t.x == x
    assert t.y == y
    assert t.d == d


@settings(max_examples=60, deadline=None)
@given(dist=laws, n=st.integers(3, 150))
@example(dist=ClaimDistribution.geometric(F(2, 7)), n=400)
@example(dist=ClaimDistribution.even_lattice([F(2, 7), 0, 0, F(4, 7), F(1, 7)]), n=400)
@example(
    dist=ClaimDistribution.tabulated(
        [F(11, 24), F(1, 24), F(5, 24), F(1, 8), F(1, 24), F(1, 24), F(1, 12)]
    ),
    n=400,
)
def test_pattern_scan_matches_naive_chain(dist, n):
    d = reference_table(dist, n + 1)[2]  # D_0..D_n
    violation, margins, failures = naive_chain(d, strict=dist.is_primitive())
    report = check_conjecture(dist, n)
    assert report.holds == (violation is None)
    assert report.violation_index == violation
    assert (
        report.even_level_margin,
        report.odd_level_margin,
        report.even_step_margin,
        report.odd_step_margin,
    ) == margins
    pattern = verify_sign_monotonicity(build_table(dist, n + 1))
    pairs = (n - 3) // 2 + 1
    assert pattern.pairs_checked == pairs
    assert pattern.failures == tuple(failures)
    assert pattern.n0 == max(failures, default=0)
    # stabilized: no failing pair in the last quarter, from pair 3*pairs//4 on
    assert pattern.stabilized == all(f < 3 * pairs // 4 for f in failures)


@pytest.mark.parametrize(
    "dist",
    [
        ClaimDistribution.geometric(F(2, 7)),
        ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
        ClaimDistribution.even_lattice([F(1, 3), F(1, 3), F(1, 3)]),
    ],
    ids=str,
)
def test_pattern_scan_reports_corrupted_determinants(dist, monkeypatch):
    # D_10 is pushed just below D_8 (an even step violation) and D_23 turns
    # positive (an odd level violation and two odd step violations)
    n = 40
    real = recurrence._determinants

    def corrupted(law, top):
        m, e0, q2 = real(law, top)
        m = list(m)
        m[10] = q2 * q2 * m[8] - 1
        m[23] = -m[23]
        return m, e0, q2

    m, e0, q2 = real(dist, n)
    assert [F(v, e0 * q2**k) for k, v in enumerate(m)] == build_table(dist, n + 1).d
    monkeypatch.setattr(recurrence, "_determinants", corrupted)
    m, e0, q2 = corrupted(dist, n)
    d = [F(v, e0 * q2**k) for k, v in enumerate(m)]
    violation, margins, failures = naive_chain(d, strict=dist.is_primitive())
    assert violation == 10 and min(margins) < 0
    report = check_conjecture(dist, n)
    assert not report.holds
    assert report.violation_index == violation
    assert (
        report.even_level_margin,
        report.odd_level_margin,
        report.even_step_margin,
        report.odd_step_margin,
    ) == margins
    pattern = verify_sign_monotonicity(build_table(dist, n + 1))
    assert pattern.failures == tuple(failures)
    assert {4, 11} <= set(failures)
