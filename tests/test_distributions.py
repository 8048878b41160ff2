"""Claim-law construction, pmf access, p.g.f. values, moments, primitivity."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import ClaimDistribution, DistributionError, compute_coefficients, root_profile
from ruinkit.distributions import TAIL_EPSILON

from common import all_fixtures, laws, reference_derivatives, reference_pmf

F = Fraction


def test_pmf_prefix_bernoulli():
    dist = ClaimDistribution.bernoulli(F(1, 2))
    assert dist.pmf_prefix(2) == [F(1, 2), F(1, 2), 0]


def test_pmf_prefix_geometric():
    dist = ClaimDistribution.geometric(F(1, 3))
    assert dist.pmf_prefix(2) == [F(1, 3), F(2, 9), F(4, 27)]


def test_pmf_prefix_tabulated_pads_with_zeros():
    dist = ClaimDistribution.tabulated([F(1, 3)] * 3)
    assert dist.pmf_prefix(4) == [F(1, 3), F(1, 3), F(1, 3), 0, 0]


def test_pmf_prefix_sums_to_one_from_below():
    for dist in all_fixtures():
        prev = F(0)
        for n in (0, 3, 10, 40):
            prefix = dist.pmf_prefix(n)
            assert all(v >= 0 for v in prefix)
            total = sum(prefix)
            assert prev <= total <= 1
            prev = total
        assert 1 - sum(dist.pmf_prefix(200)) < F(1, 10**6)


def test_pgf_closed_forms():
    p = F(2, 5)
    q = 1 - p
    bern = ClaimDistribution.bernoulli(p)
    geom = ClaimDistribution.geometric(p)
    for s in (F(-1), F(-1, 2), F(0), F(3, 4), F(1)):
        assert bern.pgf(s) == q + p * s
        assert geom.pgf(s) == p / (1 - q * s)


def test_pgf_normalization_at_one():
    for dist in all_fixtures():
        assert dist.pgf(F(1)) == 1
        assert abs(dist.pgf(1.0) - 1.0) < 1e-14


def test_pgf_matches_series_summation():
    # dual route: closed form vs direct truncated summation
    for dist in all_fixtures():
        cut = dist.truncation_index()
        h = [float(v) for v in dist.pmf_prefix(cut)]
        for s in (-1.0, -0.5, 0.0, 0.3, 0.99, 1.0):
            direct = 0.0
            power = 1.0
            for hk in h:
                direct += hk * power
                power *= s
            assert abs(float(dist.pgf(s)) - direct) <= 10 * TAIL_EPSILON + 1e-15


def test_moments_bernoulli():
    dist = ClaimDistribution.bernoulli(F(1, 4))
    assert dist.mean() == F(1, 4)
    c = compute_coefficients(dist, root_profile(dist))
    assert (c.c1, c.c2) == (4 / 7, 0.0)  # 1/(2 - E Z)


def test_moments_geometric_one_third():
    dist = ClaimDistribution.geometric(F(1, 3))
    assert dist.mean() == 2
    # critical mean with H''(1) = 8, H'''(1) = 48
    c = compute_coefficients(dist, root_profile(dist))
    assert (c.c1, c.c2) == (2 / 9, 1 / 3)


def test_moments_even_two_point():
    assert ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]).mean() == 1


def test_mean_against_finite_difference():
    # H'(1) vs a central difference just below 1, relative 1e-6
    for dist in all_fixtures():
        step = 5e-8
        fd = (float(dist.pgf(1.0)) - float(dist.pgf(1.0 - 2 * step))) / (2 * step)
        mean = float(dist.mean())
        assert abs(fd - mean) / mean < 1e-6


def test_is_primitive():
    assert ClaimDistribution.bernoulli(F(1, 2)).is_primitive()
    assert ClaimDistribution.geometric(F(1, 5)).is_primitive()
    assert not ClaimDistribution.tabulated([F(1, 2), 0, F(1, 2)]).is_primitive()
    assert not ClaimDistribution.even_lattice([F(1, 4), F(3, 4)]).is_primitive()
    assert ClaimDistribution.tabulated([F(1, 3), F(1, 3), F(1, 3)]).is_primitive()


def test_even_lattice_interleaves():
    dist = ClaimDistribution.even_lattice([F(1, 4), F(1, 4), F(1, 2)])
    assert dist.pmf == (F(1, 4), 0, F(1, 4), 0, F(1, 2))


def test_construction_validation():
    with pytest.raises(DistributionError):
        ClaimDistribution.tabulated([0, F(1, 2), F(1, 2)])  # h_0 = 0
    with pytest.raises(DistributionError):
        ClaimDistribution.tabulated([F(1, 2), F(1, 3)])  # sum != 1
    with pytest.raises(DistributionError):
        ClaimDistribution.tabulated([F(1, 2), F(-1, 2), 1])  # negative
    with pytest.raises(DistributionError):
        ClaimDistribution.bernoulli(F(7, 5))
    with pytest.raises(DistributionError):
        ClaimDistribution.geometric(0)
    # degenerate-at-zero is fine: survival is then certain
    ClaimDistribution.tabulated([1])


def test_float_parameters_rejected():
    with pytest.raises(TypeError):
        ClaimDistribution.bernoulli(0.5)
    with pytest.raises(TypeError):
        ClaimDistribution.tabulated([0.5, 0.5])


def test_truncation_index_geometric():
    # p = 1/3000 puts K past 10^5, where stepping the tail one exact term at
    # a time would take tens of seconds
    for p, want in ((F(1, 2), 53), (F(1, 3000), 110505)):
        k = ClaimDistribution.geometric(p).truncation_index()
        assert k == want
        assert (1 - p) ** (k + 1) < F(1, 10**16)
        assert (1 - p) ** k >= TAIL_EPSILON / 2  # not absurdly deep


@settings(max_examples=60, deadline=None)
@given(
    dist=laws | st.integers(1, 999).map(lambda n: ClaimDistribution.geometric(F(n, 1000))),
    data=st.data(),
)
@example(dist=ClaimDistribution.geometric(F(1, 2)), data=None)
def test_truncation_index_at_most_is_the_smaller_of_k_and_the_bound(dist, data):
    k = dist.truncation_index()
    bounds = [0, k - 1, k, k + 1, 10**20]
    if data is not None:
        bounds.append(data.draw(st.integers(0, 2 * k + 2)))
    for bound in bounds:
        if bound >= 0:
            assert dist.truncation_index(bound) == min(k, bound), bound


def test_tail_mass_is_the_exact_prefix_complement():
    for dist in all_fixtures():
        for k in (0, 1, 2, 5, dist.truncation_index()):
            assert dist.tail_mass(k) == 1 - sum(dist.pmf_prefix(k)), (dist.label(), k)


def test_spec_round_trip():
    for dist in all_fixtures() + [ClaimDistribution.even_lattice([F(1, 2), F(1, 2)])]:
        assert ClaimDistribution.from_spec(dist.to_spec()) == dist


def test_from_spec_rejects_garbage():
    with pytest.raises(DistributionError):
        ClaimDistribution.from_spec({"family": "zeta", "p": "1/2"})
    with pytest.raises(DistributionError):
        ClaimDistribution.from_spec({"family": "bernoulli"})
    with pytest.raises(DistributionError):
        ClaimDistribution.from_spec(["1/2", "1/2"])


def test_from_spec_rejects_unknown_and_conflicting_fields():
    bad = [
        ({"family": "geometric", "p": "1/2", "tail_epsilon": "1e-10"}, "unknown field"),
        ({"pmf": ["1/2", "1/2"], "weight": 1}, "unknown field"),
        ({"family": "even_lattice", "base": {"pmf": ["1/2", "1/2"], "scale": 2}}, "unknown field"),
        ({"family": "geometric", "p": "1/2", "pmf": ["1/2", "1/2"]}, "conflict"),
        ({"family": "bernoulli", "p": "1/2", "base": {"pmf": ["1"]}}, "conflict"),
        ({"family": "even_lattice", "base": {"pmf": ["1/2", "1/2"], "family": "bernoulli"}},
         "conflict"),
        ({"pmf": "1"}, "must be an array"),
        ({"pmf": {"1/2": 0, "1/2 ": 1}}, "must be an array"),
        ({"family": "even_lattice", "base": {"pmf": "1"}}, "must be an array"),
    ]
    for spec, message in bad:
        with pytest.raises(DistributionError, match=message):
            ClaimDistribution.from_spec(spec)


@settings(max_examples=80, deadline=None)
@given(dist=laws)
def test_pair_reproduces_the_law(dist):
    # The recurrence, the roots and verify's own H all read the integer pair
    # (P, R) of rational_pgf, so verify cannot see a wrong pair: this test,
    # against the construction record, is what ties the pair to the law.
    geometric = dist.kind == "geometric"
    q = 1 - dist.p if geometric else None
    ref = reference_pmf(dist, 12)
    assert dist.pmf_prefix(12) == ref
    assert [dist.hk(k) for k in range(13)] == ref

    k_cut = dist.truncation_index()
    for k in (0, 1, 5, k_cut):
        want = q ** (k + 1) if geometric else 1 - sum(reference_pmf(dist, k))
        assert dist.tail_mass(k) == want, k
    if geometric:
        assert dist.tail_mass(k_cut) < TAIL_EPSILON <= dist.tail_mass(k_cut - 1)
        assert dist.support_bound is None
        odd_mass = q / (1 + q)
    else:
        h = reference_pmf(dist, 1 if dist.kind == "bernoulli" else len(dist.pmf) - 1)
        assert dist.support_bound == max(k for k, v in enumerate(h) if v)
        odd_mass = sum(h[1::2])
    assert dist.mean() == reference_derivatives(dist, 1)[0]
    assert dist.is_primitive() == (odd_mass > 0)

    for s in (F(-1), F(-1, 2), F(0), F(1, 3), F(1)):
        want = dist.p / (1 - q * s) if geometric else sum(v * s**k for k, v in enumerate(h))
        assert dist.pgf(s) == want
