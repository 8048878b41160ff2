"""Recurrence tables, determinant identities, and the exact pattern check."""

from fractions import Fraction
from itertools import islice

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import (
    ClaimDistribution,
    build_table,
    check_conjecture,
    verify_sign_monotonicity,
)
from ruinkit import recurrence
from ruinkit.distributions import _numerators

from common import (
    all_fixtures,
    bernoulli_fixtures,
    laws,
    naive_chain,
    pgf_minus_s2_series,
    pgf_series,
    reference_minors,
    reference_table,
    series_divide,
)

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
        assert xs == t.x
        # Y = h_0 s/(H - s^2), independent of y_n = h_0 x_{n+1}
        h0_s = [F(0), dist.hk(0)] + [F(0)] * (n - 1)
        assert series_divide(h0_s, den, n) == t.y


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


def _pq(dist):
    p, _r, q = dist.rational_pgf
    return p, q


# (P, Q) and (P, R) of a law, and integer pairs with den_0 of either sign,
# zero inner coefficients and num longer than den
pairs = st.one_of(
    laws.map(_pq),
    laws.map(lambda dist: dist.rational_pgf[:2]),
    st.tuples(
        st.lists(st.integers(-40, 40), max_size=9),
        st.lists(st.integers(-40, 40), min_size=1, max_size=5).filter(lambda den: den[0]),
    ),
)


# geometric has len P = 1 < deg Q; pmf:1/7,0,0,6/7 has a zero inner q_k;
# the even-lattice law has every odd q_k zero
@settings(max_examples=100, deadline=None)
@given(pair=pairs, c0=st.integers(), c1=st.integers(), extra=st.integers(0, 30))
@example(pair=_pq(ClaimDistribution.geometric(F(2, 7))), c0=3, c1=-5, extra=0)
@example(pair=_pq(ClaimDistribution.tabulated([F(1, 7), 0, 0, F(6, 7)])), c0=0, c1=7, extra=0)
@example(pair=_pq(ClaimDistribution.even_lattice([F(1, 2), F(1, 4), F(1, 4)])), c0=-2, c1=9,
         extra=0)
@example(pair=((3, 0, -2, 5, 0, 1), (-2, 0, 3)), c0=4, c1=-3, extra=0)
def test_numerators_are_the_combination_of_reference_x(pair, c0, c1, extra):
    num, den = pair
    n = max(len(num), len(den) - 1) + 3 * (len(den) - 1) + extra

    def padded(f):
        return [F(v) for v in f] + [F(0)] * (n + 2 - len(f))

    g = series_divide(padded(num), padded(den), n + 1)
    big = [v * den[0] ** (k + 1) for k, v in enumerate(g)]  # G_k = den_0^(k+1) g_k
    assert all(v.denominator == 1 for v in big)
    want = [c0 * big[k] + c1 * big[k + 1] for k in range(n + 1)]
    assert list(islice(_numerators(num, den, c0, c1), n + 1)) == want


@settings(max_examples=60, deadline=None)
@given(dist=laws, n_max=st.integers(2, 120), shift=st.integers(1, 1100))
@example(dist=ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]), n_max=120, shift=1)
def test_float_reads_match_reduced_fractions(dist, n_max, shift):
    t = build_table(dist, n_max)
    for n, xn in enumerate(t.x):
        e = t.x_exponent(n)
        assert abs(xn) < 2**e
        assert xn == 0 or abs(xn) > F(2) ** (e - 2)
        assert t.xf(n) == float(xn)
        assert t.xf(n, shift) == float(xn / 2**shift)


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
    # positive (an odd level violation and two odd step violations), in the
    # M stream that check_conjecture and verify_sign_monotonicity both read
    n = 40
    real = recurrence._minors
    q4 = dist.rational_pgf[2][0] ** 4

    def corrupted(numerators):
        for k, m in enumerate(real(numerators)):
            if k == 8:
                m8 = m
            elif k == 10:
                m = q4 * m8 - 1
            elif k == 23:
                m = -m
            yield m

    table = build_table(dist, n + 1)
    e0, q2 = table.r0 * table.q0**3, table.q0**2
    assert [F(v, e0 * q2**k) for k, v in enumerate(table.m)] == table.d
    d = [F(v, e0 * q2**k) for k, v in enumerate(corrupted(table.numerators))]
    violation, margins, failures = naive_chain(d, strict=dist.is_primitive())
    assert violation == 10 and min(margins) < 0
    monkeypatch.setattr(recurrence, "_minors", corrupted)
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


NINE_POINT = ClaimDistribution.tabulated(
    [F(1, 2), F(5, 22), F(1, 11), F(1, 11), 0, 0, 0, F(1, 22), F(1, 22)]
)


@settings(max_examples=60, deadline=None)
@given(dist=laws, n=st.integers(0, 60))
@example(dist=ClaimDistribution.tabulated([F(1, 7), 0, 0, F(6, 7)]), n=60)  # E Z = 18/7
@example(dist=ClaimDistribution.even_lattice([F(1, 3), F(1, 3), F(1, 3)]), n=60)
@example(dist=ClaimDistribution.bernoulli(F(1, 3)), n=60)  # deg Q = 2
@example(dist=ClaimDistribution.tabulated([F(1, 3)] * 3), n=60)  # deg Q = 2
@example(dist=ClaimDistribution.geometric(F(2, 7)), n=60)
@example(dist=NINE_POINT, n=3)  # the scan ends before len P = 9
def test_minors_stream_matches_product_formula(dist, n):
    want = reference_minors(dist, n)
    p, r, q = dist.rational_pgf
    assert list(recurrence._minors(islice(_numerators(p, q), n + 2))) == want
    if n >= 2:
        table = build_table(dist, n)
        assert table.m == want
        assert [table.minor(k) for k in range(n)] == want
        # the scan over the truncated stream is check_conjecture's at n - 1
        scan = recurrence._pattern_scan(islice(_numerators(p, q), n + 2), q[0], r[0])
        report = check_conjecture(dist, n - 1)
        margins = (
            report.even_level_margin,
            report.odd_level_margin,
            report.even_step_margin,
            report.odd_step_margin,
        )
        assert len(scan[0]) == n and scan[2] == margins


def test_minors_need_three_numerators():
    assert list(recurrence._minors([])) == []
    assert list(recurrence._minors([5, 7])) == []
    assert list(recurrence._minors(iter([2, 3, 5, 8]))) == [2 * 5 - 9, 3 * 8 - 25]


def test_check_conjecture_keeps_no_list_of_determinants():
    # the scan reads M_n off the numerator stream with a few live integers;
    # lists of every N_n and M_n to n = 3000 peaked at 7.0 MB
    NINE_POINT.rational_pgf  # the cached pair is built outside the trace
    tracemalloc.start()
    try:
        report = check_conjecture(NINE_POINT, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < 1e6, peak
