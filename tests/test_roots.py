"""Root location: brackets, goldens, residuals, orders, guards."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import (
    ClaimDistribution,
    RootLocationError,
    compute_coefficients,
    initial_values_closed_form,
    refine_alpha,
    root_profile,
    solve,
    vanishing_order,
)
from ruinkit import roots
from ruinkit.distributions import _value
from ruinkit.roots import (
    _deflate_at_one,
    _sturm_count,
    alpha_residual,
    beta_residual,
    interior_sign_changes,
    rho_lower,
)

from common import (
    bernoulli_fixtures,
    geometric_fixtures,
    laws,
    primitive_fixtures,
    reference_phi_table,
    reference_refine_alpha,
    reference_zero,
)

F = Fraction


def geometric_alpha(p: float) -> float:
    return (math.sqrt(4.0 / p - 3.0) + 1.0) / 2.0


def test_bernoulli_alpha_is_one_over_q():
    for dist in bernoulli_fixtures():
        assert abs(root_profile(dist).alpha - 1.0 / float(1 - dist.p)) < 1e-12


def test_geometric_alpha_closed_form():
    for dist in geometric_fixtures():
        assert abs(root_profile(dist).alpha - geometric_alpha(float(dist.p))) < 1e-12


def test_golden_ratio_alpha():
    alpha = root_profile(ClaimDistribution.geometric(F(1, 2))).alpha
    assert abs(alpha - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-12


def test_alpha_residuals():
    for dist in primitive_fixtures():
        alpha = root_profile(dist).alpha
        assert alpha > 1
        assert alpha_residual(dist, alpha) < 1e-13


def test_beta_absent_when_mean_small():
    assert root_profile(ClaimDistribution.geometric(F(1, 2))).beta is None
    assert root_profile(ClaimDistribution.bernoulli(F(4, 5))).beta is None
    assert root_profile(ClaimDistribution.geometric(F(1, 3))).beta is None  # critical mean


def test_beta_goldens():
    beta = root_profile(ClaimDistribution.geometric(F(1, 4))).beta
    assert abs(beta - (math.sqrt(13.0) - 1.0) / 2.0) < 1e-12
    beta = root_profile(ClaimDistribution.geometric(F(1, 5))).beta
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
    beta = root_profile(dist).beta
    lo, hi = 1e-9, 1.0 - 1e-9
    f = lambda s: float(dist.pgf(s) - s * s)
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
    with pytest.raises(RootLocationError, match="alpha = 1"):
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


def test_sturm_count_on_rational_intervals():
    # (2s - 1)(s - 3)(3s - 5): roots 1/2, 5/3 and 3, counted on (lo, hi]
    poly = _product([-1, 2], [-3, 1], [-5, 3])
    assert _sturm_count(poly, F(1, 2), 3) == 2
    assert _sturm_count(poly, 0, F(1, 2)) == 1
    assert _sturm_count(poly, F(5, 3), F(29, 10)) == 0
    assert _sturm_count(poly, F(-7, 3), F(5, 3)) == 2
    assert _sturm_count(poly, 1, 10**6) == 2
    # the double root 3/2 of (2s - 3)^2 (s + 4) counts once, and the zero of
    # Q = (1 - s) K at the open end s = 1 does not count
    assert _sturm_count(_product([-3, 2], [-3, 2], [4, 1]), 1, 2) == 1
    assert _sturm_count(ClaimDistribution.geometric(F(1, 2)).rational_pgf[2], 1, 2) == 1


def _outer_real_zeros(dist):
    """Real zeros of Q in (1, inf) for E Z < 2, by numpy.roots on K = Q/(1 - s)."""
    order, k = _deflate_at_one(dist.rational_pgf[2])
    assert order == 1
    zeros = np.roots(k[::-1]) if len(k) > 1 else np.array([])
    return sorted(z.real for z in zeros if abs(z.imag) <= 1e-9 * abs(z) and z.real > 1)


def _phi_bracket(dist, u_max):
    """Exact rational ends (lo, hi) of phi(0..u_max), from the closed form at
    the two ends of a 1024-bit bracket of alpha (alpha = 1 on the even
    lattice): phi(u) is a Mobius map of alpha with no pole on alpha > 0."""
    if dist.is_primitive():
        mid, width, _state = roots._zero(dist.rational_pgf[2], (-1, 0, 0), 1024)
        ends = [-1 / (mid - width / 2), -1 / (mid + width / 2)]
    else:
        ends = [F(1)]
    tables = [reference_phi_table(dist, *initial_values_closed_form(dist, a), u_max) for a in ends]
    return [(min(col), max(col)) for col in zip(*tables)]


@settings(max_examples=60, deadline=None)
@given(dist=laws)
@example(dist=ClaimDistribution.geometric(F(1, 2)))  # rho = golden ratio
@example(dist=ClaimDistribution.even_lattice([F(1, 2), F(1, 4), F(1, 4)]))  # rho = sqrt 2
@example(dist=ClaimDistribution.geometric(F(1000, 2999)))  # E Z = 1.999, rho near 1.0003
@example(dist=ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]))
@example(dist=ClaimDistribution.tabulated([F(3, 8), F(1, 4), F(3, 8)]))  # claims <= 2: none
@example(dist=ClaimDistribution.bernoulli(F(1, 2)))  # none
@example(dist=ClaimDistribution.geometric(F(1, 3)))  # E Z = 2: none
def test_rho_lower_is_a_certified_lower_end(dist):
    r = rho_lower(dist)
    if dist.mean() >= 2:
        assert r is None
        return
    outer = _outer_real_zeros(dist)
    assert (r is None) == (not outer)
    if r is None:
        return
    q = dist.rational_pgf[2]
    assert r > 1 and _value(q, r.numerator, r.denominator) < 0
    assert _sturm_count(q, 1, r) == 0
    # r - 1 lies within the stated relative width below rho - 1
    rho = outer[0]
    assert float(r - 1) <= (rho - 1) * (1 + 1e-9)
    assert float(r - 1) * (1 + roots._RHO_SLACK) >= (rho - 1) * (1 - 1e-9)


@settings(max_examples=30, deadline=None)
@given(dist=laws.filter(lambda d: d.mean() < 2))
# claims of at most 3: psi(u) = rho^(-u) for u >= 1, so an r above rho fails
@example(dist=ClaimDistribution.tabulated([F(2, 5), F(1, 5), F(1, 5), F(1, 5)]))
@example(dist=ClaimDistribution.tabulated([F(3, 5), 0, 0, F(2, 5)]))
@example(dist=ClaimDistribution.geometric(F(1, 2)))
@example(dist=ClaimDistribution.even_lattice([F(1, 2), F(1, 4), F(1, 4)]))
def test_lundberg_bound_holds_exactly(dist):
    # 1 - phi(u) <= r^(-u) for u <= 40, in exact rationals
    r = rho_lower(dist)
    if r is None:
        return
    for u, (phi_lo, _phi_hi) in enumerate(_phi_bracket(dist, 40)):
        assert 1 - phi_lo <= r**-u, u


@settings(max_examples=80, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()))
def test_sturm_count_matches_theory(dist):
    # alpha always, beta exactly when E Z > 2; s = 1 lies outside (-1, 1)
    assert interior_sign_changes(dist) == 1 + (dist.mean() > 2)
    assert vanishing_order(dist) == 1 + (dist.mean() == 2)
    profile = root_profile(dist)
    assert (profile.beta is None) == (dist.mean() <= 2)
    alpha, fine = profile.alpha, float(refine_alpha(dist, 256))
    assert fine in (math.nextafter(alpha, 0), alpha, math.nextafter(alpha, math.inf))


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
        assert abs(float(refined) - root_profile(dist).alpha) < 1e-12


def test_refine_alpha_hits_rational_root_exactly():
    assert refine_alpha(ClaimDistribution.bernoulli(F(1, 2)), bits=64) == 2


def test_refine_alpha_finds_non_dyadic_rational_root():
    # the root s = -1/5 of bernoulli(4/5) is never a bisection midpoint
    assert refine_alpha(ClaimDistribution.bernoulli(F(4, 5))) == 5


@settings(max_examples=20, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()))
@example(dist=ClaimDistribution.bernoulli(F(4, 5)))  # rational roots
@example(dist=ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]))
@example(dist=ClaimDistribution.tabulated([F(1, 2), F(1, 4), F(1, 4)]))
@example(dist=ClaimDistribution.geometric(F(2, 7)))
def test_refine_alpha_matches_fraction_bisection(dist):
    # the integer bisection visits the same midpoints and signs
    for bits in (64, 192, 1000):
        assert refine_alpha(dist, bits) == reference_refine_alpha(dist, bits)


def test_refine_alpha_bracket_width():
    dist = ClaimDistribution.geometric(F(1, 2))
    a128 = refine_alpha(dist, bits=128)
    a160 = refine_alpha(dist, bits=160)
    # both bracket the same irrational; agreement far below float resolution
    assert abs(a128 - a160) < F(1, 2**100)


@settings(max_examples=20, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()))
@example(dist=ClaimDistribution.tabulated([F(1, 7), 0, 0, F(6, 7)]))  # alpha 3, beta 2
@example(dist=ClaimDistribution.bernoulli(F(4, 5)))
@example(dist=ClaimDistribution.bernoulli(F(1, 2)))
@example(dist=ClaimDistribution.tabulated([F(1, 12), F(5, 6), F(1, 12)]))
def test_profile_continues_to_fresh_bisection(dist):
    # the profile's 64-bit brackets, continued, land where a fresh
    # bisection of [-1, 0] or [0, 1] to the same depth does
    profile = root_profile(dist)
    q = dist.rational_pgf[2]
    for bits in (64, 65, 128, 1000):
        alpha, beta = profile.refined(bits)
        assert alpha == refine_alpha(dist, bits) == reference_refine_alpha(dist, bits)
        if dist.mean() > 2:
            assert beta == 1 / roots._zero(q, (1, 0, 0), bits)[0]
        else:
            assert beta is None


@settings(max_examples=25, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()), bits=st.integers(1, 3000))
# alpha = 3: s = -1/3 is a limit_denominator hit; beta = 2: s = 1/2 is dyadic
@example(dist=ClaimDistribution.tabulated([F(1, 7), 0, 0, F(6, 7)]), bits=128)
@example(dist=ClaimDistribution.bernoulli(F(4, 5)), bits=3000)  # s = -1/5 is not dyadic
# Q = (4, 0, -7, 3): the root s = -2/3 has the denominator lead(Q) = 3
@example(dist=ClaimDistribution.tabulated([F(4, 7), 0, 0, F(3, 7)]), bits=8)
@example(dist=ClaimDistribution.tabulated([F(4, 7), 0, 0, F(3, 7)]), bits=1000)
def test_zero_matches_the_halving_loop(dist, bits):
    # Newton doubling certifies the cell halving reaches, from a fresh
    # start and from the profile's brackets alike
    q = dist.rational_pgf[2]
    profile = root_profile(dist)
    brackets = [(-1, 0, 0), profile.alpha_bracket]
    if dist.mean() > 2:
        brackets += [(1, 0, 0), profile.beta_bracket]
    for bracket in brackets:
        assert roots._zero(q, bracket, bits) == reference_zero(q, bracket, bits)


def _count_fallbacks(monkeypatch) -> list[int]:
    """Levels from which ``_zero`` halves past the start of Newton doubling."""
    halve, fallbacks = roots._halve, []

    def counted(q, neg, pos, k, level):
        if k >= roots._NEWTON_FROM:
            fallbacks.append(k)
        return halve(q, neg, pos, k, level)

    monkeypatch.setattr(roots, "_halve", counted)
    return fallbacks


def test_zero_steps_to_a_neighbouring_cell(monkeypatch):
    # for beta of geometric(2/7) the Newton candidate misses the zero's
    # cell by one or two at most levels; the end signs say which way the
    # zero lies, so a neighbour is certified and nothing is halved
    q = ClaimDistribution.geometric(F(2, 7)).rational_pgf[2]
    fallbacks = _count_fallbacks(monkeypatch)
    assert roots._zero(q, (1, 0, 0), 2100) == reference_zero(q, (1, 0, 0), 2100)
    assert fallbacks == []


def test_zero_falls_back_to_halving(monkeypatch):
    # a Q' three times too large puts each Newton candidate thousands of
    # cells short of the zero: no cell is certified, and every doubling
    # halves the bracket instead
    q = ClaimDistribution.geometric(F(1, 2)).rational_pgf[2]
    value, fallbacks = roots._value, _count_fallbacks(monkeypatch)
    monkeypatch.setattr(
        roots, "_value", lambda poly, n, d: value(poly, n, d) * (3 if len(poly) < len(q) else 1)
    )
    assert roots._zero(q, (-1, 0, 0), 300) == reference_zero(q, (-1, 0, 0), 300)
    assert fallbacks == [16, 32, 64, 128, 256]


def test_profile_keeps_hit_roots():
    # alpha = 3: s = -1/3 is no midpoint, limit_denominator finds it at 64
    # bits; beta = 2: s = 1/2 is the first midpoint of [0, 1]
    profile = root_profile(ClaimDistribution.tabulated([F(1, 7), 0, 0, F(6, 7)]))
    assert (profile.alpha_bracket, profile.beta_bracket) == (F(-1, 3), F(1, 2))
    assert profile.refined(128) == (3, 2)
    assert profile.bracket_width_achieved == 0


def _count_dyadic_evaluations(monkeypatch) -> list[tuple[str, int]]:
    """(zero, k) for each evaluation of Q or Q' at a dyadic point m/2^k
    (k >= 1), by the zero the search closes in on: m < 0 for alpha, m > 0
    for beta."""
    seen, value = [], roots._value

    def counted(q, n, d):
        if d > 1 and not d & (d - 1):
            seen.append(("beta" if n > 0 else "alpha", d.bit_length() - 1))
        return value(q, n, d)

    monkeypatch.setattr(roots, "_value", counted)
    return seen


def test_solve_continues_alpha_past_the_profile(monkeypatch):
    # the profile halves to level 16 and doubles by Newton steps to 64;
    # solve then only doubles on from 64 to alpha_bits = 341, with no
    # evaluation at a level <= 64: Q and Q' at the midpoint of the
    # bracket, Q at the two ends of the certified cell
    dist = ClaimDistribution.geometric(F(1, 2))
    seen = _count_dyadic_evaluations(monkeypatch)
    root_profile(dist)
    profile = list(seen)
    assert [k for _, k in profile] == [*range(1, 17), 17, 17, 32, 32, 33, 33, 64, 64]
    seen.clear()
    sol = solve(dist, u_max=400)
    assert sol.diagnostics["alpha_bits"] == 341
    assert seen[: len(profile)] == profile
    continued = (65, 65, 128, 128, 129, 129, 256, 256, 257, 257, 341, 341)
    assert seen[len(profile):] == [("alpha", k) for k in continued]


def test_coefficients_continue_each_zero_past_64_bits(monkeypatch):
    # from the profile's 64-bit brackets, one Newton step per zero reaches
    # the 128 bits of the residues
    dist = ClaimDistribution.geometric(F(1, 4))  # E Z = 3, both roots irrational
    profile = root_profile(dist)
    seen = _count_dyadic_evaluations(monkeypatch)
    compute_coefficients(dist, profile)
    assert Counter(seen) == {(zero, k): 2 for zero in ("alpha", "beta") for k in (65, 128)}
