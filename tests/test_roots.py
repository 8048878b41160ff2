"""Root location: brackets, goldens, residuals, orders, guards."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ruinkit import (
    ClaimDistribution,
    RootLocationError,
    find_alpha,
    find_beta,
    refine_alpha,
    root_profile,
    vanishing_order,
)
from ruinkit import roots
from ruinkit.roots import _sturm_count, alpha_residual, beta_residual, interior_sign_changes

from common import bernoulli_fixtures, geometric_fixtures, laws, primitive_fixtures

F = Fraction


def geometric_alpha(p: float) -> float:
    return (math.sqrt(4.0 / p - 3.0) + 1.0) / 2.0


def test_bernoulli_alpha_is_one_over_q():
    for dist in bernoulli_fixtures():
        assert abs(find_alpha(dist) - 1.0 / float(1 - dist.p)) < 1e-12


def test_geometric_alpha_closed_form():
    for dist in geometric_fixtures():
        assert abs(find_alpha(dist) - geometric_alpha(float(dist.p))) < 1e-12


def test_golden_ratio_alpha():
    alpha = find_alpha(ClaimDistribution.geometric(F(1, 2)))
    assert abs(alpha - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-12


def test_alpha_residuals():
    for dist in primitive_fixtures():
        alpha = find_alpha(dist, tol=1e-14)
        assert alpha > 1
        assert alpha_residual(dist, alpha) < 1e-13


def test_beta_absent_when_mean_small():
    assert find_beta(ClaimDistribution.geometric(F(1, 2))) is None
    assert find_beta(ClaimDistribution.bernoulli(F(4, 5))) is None
    assert find_beta(ClaimDistribution.geometric(F(1, 3))) is None  # critical mean


def test_beta_goldens():
    beta = find_beta(ClaimDistribution.geometric(F(1, 4)))
    assert abs(beta - (math.sqrt(13.0) - 1.0) / 2.0) < 1e-12
    beta = find_beta(ClaimDistribution.geometric(F(1, 5)))
    assert abs(beta - (math.sqrt(17.0) - 1.0) / 2.0) < 1e-12


def test_beta_ordering_and_residual():
    heavy = [
        ClaimDistribution.geometric(F(1, 4)),
        ClaimDistribution.tabulated([F(1, 10), 0, 0, F(9, 10)]),
    ]
    for dist in heavy:
        profile = root_profile(dist)
        assert profile.beta is not None
        assert 1.0 < profile.beta < profile.alpha
        assert beta_residual(dist, profile.beta) < 1e-12


def test_beta_matches_direct_bisection():
    # deflation consistency: the G-root equals the root of H(s) - s^2 itself
    dist = ClaimDistribution.geometric(F(1, 4))
    beta = find_beta(dist)
    lo, hi = 1e-9, 1.0 - 1e-9
    f = lambda s: float(dist.pgf_minus_s2(s))
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(1.0 / beta - 0.5 * (lo + hi)) < 1e-10


def test_vanishing_orders():
    assert vanishing_order(ClaimDistribution.geometric(F(1, 2))) == 1
    assert vanishing_order(ClaimDistribution.bernoulli(F(1, 2))) == 1
    assert vanishing_order(ClaimDistribution.geometric(F(1, 3))) == 2
    critical = ClaimDistribution.tabulated([F(1, 4), F(1, 8), 0, F(5, 8)])
    assert critical.mean() == 2
    assert vanishing_order(critical) == 2


def test_imprimitive_rejected():
    dist = ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)])
    with pytest.raises(RootLocationError, match="half-process"):
        find_alpha(dist)
    with pytest.raises(RootLocationError):
        root_profile(dist)
    with pytest.raises(RootLocationError):
        refine_alpha(dist)


def test_grid_scan_counts():
    assert interior_sign_changes(ClaimDistribution.geometric(F(1, 2))) == 1
    assert interior_sign_changes(ClaimDistribution.geometric(F(1, 4))) == 2
    # exact grid hit: H(s) - s^2 vanishes at s = -1/2 for bernoulli(1/2)
    assert interior_sign_changes(ClaimDistribution.bernoulli(F(1, 2))) == 1


def _product(*factors):
    """Coefficients (lowest degree first) of a product of polynomials."""
    poly = [1]
    for factor in factors:
        poly = [
            sum(a * factor[k - i] for i, a in enumerate(poly) if 0 <= k - i < len(factor))
            for k in range(len(poly) + len(factor) - 1)
        ]
    return poly


def test_sturm_count_crafted_polynomials():
    # coefficients lowest degree first; roots are counted on (-1, 1]
    double = [1, 4, 4]  # (2s + 1)^2: no sign change for a grid to see
    assert _sturm_count(double) == 1
    assert _sturm_count([-c for c in double] + [0]) == 1  # trailing zero, negated
    three = [0, -1, 0, 4]  # s(2s - 1)(2s + 1)
    assert _sturm_count(three) == 3
    # (s - 1)^2 (2s + 1)^2 s (2s - 1)(2s + 1): s = 1 counts once, and so
    # does each repeated interior root
    assert _sturm_count(_product([-1, 1], [-1, 1], [1, 2], [1, 2], three)) == 4
    # endpoints: s = -1 is excluded, s = 1 included; roots outside do not count
    assert _sturm_count([1, 1]) == 0
    assert _sturm_count([-1, 1]) == 1
    assert _sturm_count([-3, 0, 1]) == 0
    assert _sturm_count([7]) == 0
    # a repeated root at an endpoint beside other roots, as at s = 1 when
    # E Z = 2: only the squarefree part gives the right count there
    assert _sturm_count(_product([1, 1], [1, 1], [-1, 2])) == 1  # (s + 1)^2 (2s - 1)
    assert _sturm_count(_product([-1, 1], [-1, 1], [-2, 1])) == 1  # (s - 1)^2 (s - 2)


@settings(max_examples=80, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()))
def test_sturm_count_matches_theory(dist):
    # alpha always, beta exactly when E Z > 2; s = 1 lies outside (-1, 1)
    assert interior_sign_changes(dist) == 1 + (dist.mean() > 2)


@pytest.mark.parametrize("count", [0, 3])
def test_root_profile_rejects_unexpected_root_count(monkeypatch, count):
    monkeypatch.setattr(roots, "interior_sign_changes", lambda dist: count)
    with pytest.raises(RootLocationError, match="interior root count"):
        root_profile(ClaimDistribution.geometric(F(1, 2)))


def test_profile_fields():
    profile = root_profile(ClaimDistribution.geometric(F(1, 2)))
    assert profile.beta is None
    assert profile.r == 1
    assert profile.bracket_width_achieved < 1e-13
    assert profile.dist.kind == "geometric"


def test_refine_alpha_matches_float():
    for dist in primitive_fixtures():
        refined = refine_alpha(dist, bits=128)
        assert abs(float(refined) - find_alpha(dist)) < 1e-12


def test_refine_alpha_hits_rational_root_exactly():
    assert refine_alpha(ClaimDistribution.bernoulli(F(1, 2)), bits=64) == 2


def test_refine_alpha_finds_non_dyadic_rational_root():
    # the root s = -1/5 of bernoulli(4/5) is never a bisection midpoint
    assert refine_alpha(ClaimDistribution.bernoulli(F(4, 5))) == 5


def test_refine_alpha_bracket_width():
    dist = ClaimDistribution.geometric(F(1, 2))
    a128 = refine_alpha(dist, bits=128)
    a160 = refine_alpha(dist, bits=160)
    # both bracket the same irrational; agreement far below float resolution
    assert abs(a128 - a160) < F(1, 2**100)
