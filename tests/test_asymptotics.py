"""Expansion coefficients, growth predictions, sign pattern, margin factor."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import (
    ClaimDistribution,
    build_table,
    compute_coefficients,
    determinant_ratio_limit,
    geometric_margin_factor,
    geometric_partial_fraction,
    margin_factor_from_coefficients,
    predict_Dn,
    predict_xn,
    refine_alpha,
    root_profile,
    verify_sign_monotonicity,
    xn_residuals,
)
from ruinkit.asymptotics import residuals_converged

from common import (
    bernoulli_fixtures,
    laws,
    primitive_fixtures,
    reference_derivatives,
    reference_pmf,
)

F = Fraction


def _coeffs(dist):
    return compute_coefficients(dist, root_profile(dist))


def test_bernoulli_coefficients():
    for dist in bernoulli_fixtures():
        q = float(1 - dist.p)
        c = _coeffs(dist)
        assert abs(c.a - q / (1 + q)) < 1e-12
        assert abs(c.c1 - 1 / (1 + q)) < 1e-12
        assert c.b == 0.0
        assert c.c2 == 0.0
        assert c.r == 1


def test_geometric_coefficients_match_reference():
    for p in (F(1, 5), F(1, 4), F(1, 2), F(2, 3), F(9, 10)):
        c = _coeffs(ClaimDistribution.geometric(p))
        a_ref, b_ref, c1_ref = geometric_partial_fraction(p)
        assert abs(c.a - a_ref) < 1e-12
        assert abs(c.b - b_ref) < 1e-12
        assert abs(c.c1 - c1_ref) < 1e-12


def test_geometric_critical_coefficients():
    c = _coeffs(ClaimDistribution.geometric(F(1, 3)))
    assert c.r == 2
    assert abs(c.a - 4 / 9) < 1e-12
    assert abs(c.c1 - 2 / 9) < 1e-12
    assert abs(c.c2 - 1 / 3) < 1e-12
    assert c.beta is None and c.b == 0.0


def test_predict_xn_bernoulli_exact():
    # the two-term closed form reproduces the table exactly: x_4 = 6 at p=1/2
    dist = ClaimDistribution.bernoulli(F(1, 2))
    table = build_table(dist, 24)
    c = _coeffs(dist)
    assert table.x[4] == 6
    for n in range(25):
        assert abs(predict_xn(c, n) - float(table.x[n])) < 1e-9 * max(1.0, abs(float(table.x[n])))


def test_predict_xn_geometric_critical():
    dist = ClaimDistribution.geometric(F(1, 3))
    c = _coeffs(dist)
    table = build_table(dist, 12)
    assert table.x[5] == -12
    assert abs(predict_xn(c, 5) - (-12.0)) < 1e-10


def test_predict_xn_geometric_includes_subunit_pole():
    # with the beta term carried, the three-term form is exact for the family
    dist = ClaimDistribution.geometric(F(1, 2))
    c = _coeffs(dist)
    assert c.beta is not None and c.beta < 1
    table = build_table(dist, 40)
    for n in range(41):
        xn = float(table.x[n])
        assert abs(predict_xn(c, n) - xn) < 1e-10 * max(1.0, abs(xn))


def test_predict_Dn_bernoulli_exact():
    dist = ClaimDistribution.bernoulli(F(1, 3))
    qinv = 1.0 / float(1 - dist.p)
    c = _coeffs(dist)
    for n in range(12):
        want = (-1.0) ** n * qinv**n
        assert abs(predict_Dn(c, n) - want) < 1e-12 * abs(want)


def test_ratio_limits():
    g_half = _coeffs(ClaimDistribution.geometric(F(1, 2)))
    assert abs(determinant_ratio_limit(g_half) - (3 + math.sqrt(5)) / 2) < 1e-12
    g_quarter = _coeffs(ClaimDistribution.geometric(F(1, 4)))
    assert abs(determinant_ratio_limit(g_quarter) - 9.0) < 1e-10


def test_ratio_convergence_at_60():
    for p, limit in ((F(1, 2), None), (F(1, 4), 9.0)):
        dist = ClaimDistribution.geometric(p)
        c = _coeffs(dist)
        want = determinant_ratio_limit(c) if limit is None else limit
        table = build_table(dist, 64)
        ratio = float(F(table.d[62]) / F(table.d[60]))
        assert abs(ratio - want) < 1e-3


def test_sign_monotonicity_reports():
    for dist in (
        ClaimDistribution.bernoulli(F(1, 2)),
        ClaimDistribution.geometric(F(1, 3)),
    ):
        for n_max in (4, 83):
            # D_0 = 1 exactly, so pair 0 holds: no failure at all
            report = verify_sign_monotonicity(build_table(dist, n_max), _coeffs(dist))
            assert report.failures == ()
            assert report.n0 == 0
            assert report.stabilized
            assert report.strict
            assert report.growth


def test_determinant_alternating_signs():
    # sign(D_n) = (-1)^n along every fixture, from the start here
    for dist in primitive_fixtures():
        table = build_table(dist, 60)
        for n, dn in enumerate(table.d):
            assert (dn > 0) == (n % 2 == 0), (dist.label(), n)


def test_sign_monotonicity_imprimitive_nonstrict():
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    table = build_table(dist, 83)
    report = verify_sign_monotonicity(table, None)
    assert not report.strict
    assert report.n0 == 0
    assert report.stabilized


def test_residuals_converge_on_fixtures():
    for dist in primitive_fixtures():
        table = build_table(dist, 200)
        c = _coeffs(dist)
        assert residuals_converged(table, c), dist.label()


def test_residuals_measure_the_remainder():
    # for the three-point law the remainder dies after n = 0 exactly
    dist = ClaimDistribution.tabulated([F(1, 3)] * 3)
    table = build_table(dist, 30)
    res = xn_residuals(table, _coeffs(dist))
    assert res[0] > 0.4  # the constant-term mismatch at n = 0
    assert all(v < 1e-12 for v in res[1:])


def test_residuals_read_x_at_their_shift_exactly():
    # alpha = 11, so x_300 ~ 11^300 passes 2^1020 and the residuals shift
    dist = ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)])
    table = build_table(dist, 300)
    calls = []
    xf = table.xf

    def spy(n, shift=0):
        calls.append((n, shift))
        return xf(n, shift)

    table.xf = spy
    assert residuals_converged(table, _coeffs(dist))
    # only the last quarter of the 301 residuals is read, and evaluated
    assert [n for n, _ in calls] == list(range(225, 301))
    assert max(shift for _, shift in calls) > 0
    for n, shift in calls:
        assert xf(n, shift) == float(table.x[n] / 2**shift)


@settings(max_examples=40, deadline=None)
@given(
    dist=laws.filter(lambda d: d.is_primitive()),
    n_max=st.integers(2, 160),
    eps=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1.0]),
)
# alpha = 11: the tail shifts past the double range
@example(dist=ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]), n_max=300, eps=1e-9)
# the remainder dies after n = 0, so only a head reading the n = 0 mismatch fails
@example(dist=ClaimDistribution.tabulated([F(1, 3)] * 3), n_max=2, eps=1e-12)
@example(dist=ClaimDistribution.tabulated([F(1, 3)] * 3), n_max=3, eps=0.0)
def test_residuals_converged_reads_the_last_quarter(dist, n_max, eps):
    table = build_table(dist, n_max)
    coeffs = _coeffs(dist)
    res = xn_residuals(table, coeffs)
    want = all(v < eps for v in res[3 * len(res) // 4:])
    assert residuals_converged(table, coeffs, eps) == want


def test_margin_factor_identity_spot():
    for p in (F(1, 10), F(1, 4), F(1, 2), F(3, 4)):
        c = _coeffs(ClaimDistribution.geometric(p))
        assert abs(margin_factor_from_coefficients(c) - geometric_margin_factor(p)) < 1e-12


def test_margin_factor_closed_form_rationalization():
    # the rationalized evaluation equals the literal formula where the
    # literal one is still well-conditioned
    for p in (0.05, 0.2, 0.5, 0.8):
        alpha = (math.sqrt(4.0 / p - 3.0) + 1.0) / 2.0
        literal = p * p * (alpha + p - 2.0) / (1.0 - p) ** 3
        assert abs(geometric_margin_factor(p) - literal) < 1e-12


def test_margin_factor_stays_below_one():
    for k in range(1, 20):
        p = F(k, 20)
        if p == F(1, 3):
            continue
        assert 0.0 < geometric_margin_factor(p) < 1.0


def test_limit_ratio_constants():
    # the four ratios against D_n converge to the constants that produce the
    # closed-form initial values:
    #   x_n/D_n     ->  1/(h0 c1 (1+alpha)^2)
    #   x_{n+1}/D_n -> -alpha/(h0 c1 (1+alpha)^2)
    #   y_n/D_n     -> -alpha/(c1 (1+alpha)^2)
    #   y_{n+1}/D_n ->  alpha^2/(c1 (1+alpha)^2)
    for dist in (
        ClaimDistribution.geometric(F(1, 2)),
        ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]),
    ):
        c = _coeffs(dist)
        h0 = float(dist.hk(0))
        denom = c.c1 * (1.0 + c.alpha) ** 2
        table = build_table(dist, 82)
        n = 80
        dn = F(table.d[n])
        assert abs(float(table.x[n] / dn) - 1.0 / (h0 * denom)) < 1e-9
        assert abs(float(table.x[n + 1] / dn) + c.alpha / (h0 * denom)) < 1e-9
        assert abs(float(table.y[n] / dn) + c.alpha / denom) < 1e-9
        assert abs(float(table.y[n + 1] / dn) - c.alpha**2 / denom) < 1e-9


def test_geometric_coefficient_bounds():
    # along the whole family: a stays in (4/9, 1/2); b and c1 flip sign and
    # side at the critical parameter 1/3
    for k in range(1, 20):
        p = F(k, 20)
        if p == F(1, 3):
            continue
        c = _coeffs(ClaimDistribution.geometric(p))
        assert 4.0 / 9.0 < c.a < 0.5
        if p < F(1, 3):
            assert c.b > 0.5
            assert c.c1 < 0.0
        else:
            assert c.b < 0.0
            assert c.c1 > 0.5


def test_coefficients_require_primitive():
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    with pytest.raises(ValueError):
        compute_coefficients(dist, None)


def test_margin_factor_requires_beta():
    c = _coeffs(ClaimDistribution.bernoulli(F(1, 2)))
    with pytest.raises(ValueError):
        margin_factor_from_coefficients(c)


def _reference_h_prime(dist, s):
    """H'(s) from the construction record: the geometric closed form, or the
    derivative of the pmf polynomial."""
    if dist.kind == "geometric":
        q = 1 - dist.p
        return dist.p * q / (1 - q * s) ** 2
    h = reference_pmf(dist, 1 if dist.kind == "bernoulli" else len(dist.pmf) - 1)
    return sum(k * v * s ** (k - 1) for k, v in enumerate(h) if k)


@settings(max_examples=60, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()))
def test_residues_are_correctly_rounded(dist):
    # a = 1/(2 + alpha H'(-1/alpha)) and b = 1/(2 - beta H'(1/beta)), exact
    # at 600-bit roots: the coefficients may differ from their floats by at
    # most one ulp
    profile = root_profile(dist)
    coeffs = compute_coefficients(dist, profile)
    alpha = refine_alpha(dist, 600)
    want = float(1 / (2 + alpha * _reference_h_prime(dist, -1 / alpha)))
    assert abs(coeffs.a - want) <= math.ulp(want)
    if profile.beta is not None:
        # one sign change of H(s) - s^2 in (0, 1), from h_0 > 0 to negative
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(600):
            mid = (lo + hi) / 2
            if dist.pgf(mid) - mid * mid > 0:
                lo = mid
            else:
                hi = mid
        beta = 2 / (lo + hi)
    elif dist.kind == "geometric" and profile.r == 1:
        beta = alpha - 1  # the pole outside the closed disk
    else:
        assert coeffs.b == 0.0
        return
    want = float(1 / (2 - beta * _reference_h_prime(dist, 1 / beta)))
    assert abs(coeffs.b - want) <= math.ulp(want)


@settings(max_examples=80, deadline=None)
@example(dist=ClaimDistribution.geometric(F(1000, 2999)))
@example(dist=ClaimDistribution.tabulated([F(1, 6), F(7, 24), F(1, 12), F(1, 4), F(5, 24)]))
@example(dist=ClaimDistribution.tabulated([F(1, 4), 0, F(3, 10), F(2, 5), F(1, 20)]))
@given(dist=laws.filter(lambda d: d.is_primitive()))
def test_c_coefficients_are_the_rounded_paper_forms(dist):
    # c1 = 1/(2 - EZ) when EZ != 2; at EZ = 2, c2 = 2/(H''(1) - 2) and
    # c1 = (2 H'''(1) - 12 H''(1) + 24)/(3 (H''(1) - 2)^2), exact from the
    # construction record and rounded once: no ulp of slack as EZ -> 2
    d1, d2, d3 = reference_derivatives(dist, 3)
    if d1 != 2:
        want = (1 / (2 - d1), 0)
    else:
        want = ((2 * d3 - 12 * d2 + 24) / (3 * (d2 - 2) ** 2), 2 / (d2 - 2))
    c = compute_coefficients(dist, root_profile(dist))
    assert (c.c1, c.c2) == tuple(float(v) for v in want)
