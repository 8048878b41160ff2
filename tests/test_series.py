"""Series: the reference division recurrence, deflation, identities."""

import random
from fractions import Fraction

from ruinkit import ClaimDistribution, deflate_G

from common import all_fixtures, pgf_minus_s2_series, pgf_series, series_divide

F = Fraction


def _ps(values):
    return [F(v) for v in values]


def test_geometric_series():
    quotient = series_divide(_ps([1, 0, 0, 0]), _ps([1, -1, 0, 0]), 3)
    assert quotient == [1, 1, 1, 1]


def test_x_series_bernoulli_half():
    dist = ClaimDistribution.bernoulli(F(1, 2))
    x = series_divide(pgf_series(dist, 2), pgf_minus_s2_series(dist, 2), 2)
    assert x == [1, 0, 2]


def test_y_series_bernoulli_half():
    # oracle: the y-recurrence gives y_2 = (y_0 - h_1 y_1)/h_0 = -1
    dist = ClaimDistribution.bernoulli(F(1, 2))
    num = [F(0), dist.hk(0), F(0)]
    y = series_divide(num, pgf_minus_s2_series(dist, 2), 2)
    assert y == [0, 1, -1]


def _times(a, b):
    """Cauchy product of two series of one order, truncated at that order."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def test_division_round_trip():
    rng = random.Random(20240817)
    order = 12
    for _ in range(25):
        a = _ps([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)])
        b_coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        b_coeffs[0] = F(rng.randint(1, 9), rng.randint(1, 9))
        b = _ps(b_coeffs)
        assert series_divide(_times(a, b), b, order) == a


def test_deflate_bernoulli_half():
    g = deflate_G(ClaimDistribution.bernoulli(F(1, 2)), 5)
    assert g == [F(1, 2), 1, 0, 0, 0, 0]


def test_deflate_uniform_three_point():
    g = deflate_G(ClaimDistribution.tabulated([F(1, 3)] * 3), 3)
    assert g == [F(1, 3), F(2, 3), 0, 0]


def test_deflation_multiplies_back():
    n = 40
    for dist in all_fixtures():
        g = deflate_G(dist, n)
        back = [g[0], *(b - a for a, b in zip(g, g[1:]))]  # (1 - s)G
        assert back == pgf_minus_s2_series(dist, n)


def test_deflation_value_at_one_finite_support():
    # G(1) = 2 - H'(1), exactly, when the support is finite
    for dist in all_fixtures():
        if dist.support_bound is None:
            continue
        g = deflate_G(dist, dist.support_bound + 2)
        assert sum(g) == 2 - dist.mean()

