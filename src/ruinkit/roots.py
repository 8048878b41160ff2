"""Zero location for H(s) - s^2 on the closed unit disk.

For a primitive claim law the function H(s) - s^2 has exactly one simple
negative zero -1/alpha in (-1, 0) (bracketed by H(0) - 0 = h_0 > 0 and
H(-1) - 1 < 0), one simple positive zero 1/beta in (0, 1) present precisely
when E Z > 2, and a zero at s = 1 of order r, where r = 1 unless E Z = 2 and
then r = 2 (provided E Z^2 is finite and Z is not degenerate at 2).

Brackets are guaranteed, so bisection is used throughout: no derivatives,
unconditional convergence, 200-iteration cap.  The positive zero is located
on the deflated series G(s) = (H(s) - s^2)/(1 - s) so the zero at s = 1 does
not interfere.  A coarse grid pre-scan guards against the theoretically
excluded event of extra interior sign changes.

Roots are irrational in general and are computed in binary64 floating point;
``refine_alpha`` additionally offers an exact rational bracket of arbitrary
width (pure Fraction bisection), which downstream series evaluations use to
keep the single irrational from amplifying through exact recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distributions import ClaimDistribution
from .series import deflate_G

DEFAULT_TOL = 1e-14
MAX_BISECTION_ITERATIONS = 200
GRID_STEP = 1e-3


class RootLocationError(ValueError):
    """Raised when a guaranteed bracket or zero count is not available."""


class MomentConditionError(ValueError):
    """Raised when the moment hypotheses behind a branch are violated."""


@dataclass(frozen=True)
class RootProfile:
    """alpha > 1, optional beta (1 < beta < alpha, iff E Z > 2), and the
    vanishing order r at s = 1, plus the achieved bisection bracket width."""

    alpha: float
    beta: float | None
    r: int
    bracket_width_achieved: float
    dist: ClaimDistribution


def _bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bisection for f(lo) > 0 > f(hi) or f(lo) < 0 < f(hi); returns (root, width)."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo, 0.0
    if fhi == 0.0:
        return hi, 0.0
    if (flo > 0) == (fhi > 0):
        raise RootLocationError(f"no sign change on [{lo}, {hi}]")
    for _ in range(MAX_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi), hi - lo


def find_alpha(dist: ClaimDistribution, tol: float = DEFAULT_TOL) -> float:
    """alpha > 1 with H(-1/alpha) = 1/alpha^2, from bisection on [-1, 0].

    Requires a primitive law: on the even lattice H(s) - s^2 = H1(s^2) - s^2
    need not change sign on (-1, 0) and the negative root is not guaranteed.
    """
    if not dist.is_primitive():
        raise RootLocationError(
            "imprimitive claim law: no interior negative root is guaranteed; "
            "use the half-process route"
        )
    f = lambda s: float(dist.pgf_minus_s2(s))
    root, _width = _bisect(f, -1.0, 0.0, tol)
    return -1.0 / root


def find_beta(dist: ClaimDistribution, tol: float = DEFAULT_TOL) -> float | None:
    """beta with H(1/beta) = 1/beta^2 and 1 < beta < alpha, or None.

    Present exactly when E Z > 2; located as the zero of the deflated series
    G on (0, 1), whose endpoint signs G(0) = h_0 > 0 and G(1) = 2 - E Z < 0
    bracket it.
    """
    beta, _width = _find_beta_with_width(dist, tol)
    return beta


def _find_beta_with_width(dist: ClaimDistribution, tol: float) -> tuple[float | None, float]:
    if not dist.is_primitive():
        raise RootLocationError(
            "imprimitive claim law: use the half-process route"
        )
    if dist.mean() <= 2:
        return None, 0.0
    g = deflate_G(dist, dist.truncation_index() + 2, mode="float")
    root, width = _bisect(g.eval, 0.0, 1.0, tol)
    return 1.0 / root, width


def vanishing_order(dist: ClaimDistribution) -> int:
    """Order r of the zero of H(s) - s^2 at s = 1: 1 if E Z != 2, else 2.

    The r = 2 branch additionally needs H''(1) finite and different from 2
    (the latter would force the excluded degenerate law Z = 2).
    """
    report = dist.pgf_derivatives_at_one(2)
    if report.mean != 2:
        return 1
    d2 = report.derivative(2)
    if d2 == math.inf:
        raise MomentConditionError(
            "asymptotic branch undefined: E Z = 2 requires a finite fourth moment"
        )
    if d2 == 2:
        raise RootLocationError("degenerate law at the income rate; excluded at construction")
    return 2


def interior_sign_changes(dist: ClaimDistribution, step: float = GRID_STEP) -> int:
    """Count sign changes of H(s) - s^2 on a grid over (-1, 1).

    Exact zeros that land on grid points each count once.  This is a guard
    against extra interior roots; a too-coarse grid can only undercount.
    """
    n = int(round(2.0 / step)) - 1
    values = [float(dist.pgf_minus_s2(-1.0 + step * (i + 1))) for i in range(n)]
    flips = sum(1 for i in range(n - 1) if values[i] * values[i + 1] < 0)
    exact_hits = sum(1 for v in values if v == 0.0)
    return flips + exact_hits


def root_profile(dist: ClaimDistribution, tol: float = DEFAULT_TOL) -> RootProfile:
    """Locate all interior zeros plus the order at s = 1, with the grid guard."""
    if not dist.is_primitive():
        raise RootLocationError(
            "imprimitive claim law: roots are not used; take the half-process route"
        )
    expected = 2 if dist.mean() > 2 else 1
    found = interior_sign_changes(dist)
    if found > expected:
        raise RootLocationError(
            f"anomalous interior sign-change count: expected {expected}, grid found {found}"
        )
    r = vanishing_order(dist)
    f = lambda s: float(dist.pgf_minus_s2(s))
    neg_root, width_a = _bisect(f, -1.0, 0.0, tol)
    alpha = -1.0 / neg_root
    beta, width_b = _find_beta_with_width(dist, tol)
    return RootProfile(
        alpha=alpha, beta=beta, r=r,
        bracket_width_achieved=max(width_a, width_b), dist=dist,
    )


def alpha_residual(dist: ClaimDistribution, alpha: float) -> float:
    """|H(-1/alpha) - 1/alpha^2|, the defining-equation residual."""
    s = -1.0 / alpha
    return abs(float(dist.pgf(s)) - s * s)


def beta_residual(dist: ClaimDistribution, beta: float) -> float:
    """|H(1/beta) - 1/beta^2| for the positive interior root."""
    s = 1.0 / beta
    return abs(float(dist.pgf(s)) - s * s)


def refine_alpha(dist: ClaimDistribution, bits: int = 256) -> Fraction:
    """Rational alpha with the defining bracket narrowed to width 2**-bits.

    Pure Fraction bisection of H(s) - s^2 on [-1, 0]: every sign evaluation
    is exact, so the returned rational brackets the true alpha to the stated
    width.  Series reconstructions of survival probabilities combine terms of
    size alpha^n that cancel to O(1); carrying alpha as a rational of width
    2**-bits keeps that cancellation exact up to n ~ bits/log2(alpha).

    A rational root whose denominator is at most 2**(bits//2 - 1) is
    returned exactly: two such fractions lie at least 2**(2 - bits) apart,
    so the nearest one to the midpoint is the only one the bracket can hold.
    """
    if not dist.is_primitive():
        raise RootLocationError("imprimitive claim law has no negative interior root")
    lo, hi = Fraction(-1), Fraction(0)
    flo = dist.pgf_minus_s2(lo)
    if flo == 0:
        raise RootLocationError("sign evaluation failed at s = -1")
    for _ in range(bits):
        mid = (lo + hi) / 2
        fm = dist.pgf_minus_s2(mid)
        if fm == 0:
            return -1 / mid  # rational root hit exactly
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    near = mid.limit_denominator(2 ** max(0, bits // 2 - 1))
    if lo < near < hi and dist.pgf_minus_s2(near) == 0:
        return -1 / near
    return -1 / mid
