"""Zero location for H(s) - s^2 on the closed unit disk.

For a primitive claim law the function H(s) - s^2 has exactly one simple
negative zero -1/alpha in (-1, 0) (bracketed by H(0) - 0 = h_0 > 0 and
H(-1) - 1 < 0), one simple positive zero 1/beta in (0, 1) present precisely
when E Z > 2, and a zero at s = 1 of order r, where r = 1 unless E Z = 2 and
then r = 2 (provided E Z^2 is finite and Z is not degenerate at 2).

Brackets are guaranteed, so bisection is used throughout: no derivatives,
unconditional convergence, 200-iteration cap.  The positive zero is located
on the deflated series G(s) = (H(s) - s^2)/(1 - s) so the zero at s = 1 does
not interfere.  On the disk H - s^2 has the sign of the integer polynomial
Q = P - s^2 R (H = P/R with R > 0 on [-1, 1]), and a Sturm sequence of Q
counts its distinct interior zeros exactly, which rules out the
theoretically excluded event of extra interior roots, double ones included.

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
from .recurrence import _rational_pgf
from .series import deflate_G

DEFAULT_TOL = 1e-14
MAX_BISECTION_ITERATIONS = 200


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


def interior_sign_changes(dist: ClaimDistribution) -> int:
    """Count the distinct zeros of H(s) - s^2 in (-1, 1), exactly.

    They are the roots of Q = P - s^2 R there; a Sturm count on (-1, 1]
    finds them plus the root at s = 1 that every law has.
    """
    _p, _r, q = _rational_pgf(dist)
    return _sturm_count(q) - 1


def _sturm_count(poly: list[int]) -> int:
    """Distinct real roots in (-1, 1] of a nonzero integer polynomial
    (coefficients lowest degree first), by Sturm's theorem.

    The sequence S_0 = f, S_1 = f', S_{k+1} = -rem(S_{k-1}, S_k) stays in
    integers: pseudo-division with a positive multiplier and removal of the
    content scale each term by a positive constant, which keeps its signs.
    A repeated root is divided out first.  For squarefree f the number V(s)
    of sign changes along the sequence, zeros skipped, is right-continuous,
    so V(-1) - V(1) counts the roots in (-1, 1] even where f(1) = 0.
    """
    f = _primitive(poly)
    seq = _sturm_sequence(f)
    if len(seq[-1]) > 1:  # the last term is gcd(f, f') of positive degree
        seq = _sturm_sequence(_primitive(_pseudo_divmod(f, seq[-1])[0]))
    return _variations(seq, -1) - _variations(seq, 1)


def _sturm_sequence(f: list[int]) -> list[list[int]]:
    seq = [f, _primitive([k * c for k, c in enumerate(f)][1:])]
    while len(seq[-1]) > 1:
        rem = _primitive(_pseudo_divmod(seq[-2], seq[-1])[1])
        if not rem:
            break
        seq.append([-c for c in rem])
    return seq


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) with c*a = quotient*b + remainder, where
    c = |lead(b)|^(deg a - deg b + 1) > 0 and deg remainder < deg b."""
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        top = sign * rem[-1]
        quot = [scale * c for c in quot]
        quot[shift] += top
        rem = [scale * c for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= top * c
        rem.pop()  # the leading coefficient is now zero
    return quot, rem


def _primitive(f: list[int]) -> list[int]:
    """f without trailing zeros, divided by the gcd of its coefficients."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _variations(seq: list[list[int]], s: int) -> int:
    """Sign changes along the values of ``seq`` at s, zeros skipped."""
    signs = [v > 0 for v in (sum(c * s**k for k, c in enumerate(f)) for f in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_profile(dist: ClaimDistribution, tol: float = DEFAULT_TOL) -> RootProfile:
    """Locate all interior zeros plus the order at s = 1, after checking
    that the Sturm count of interior zeros is the one the theory predicts."""
    if not dist.is_primitive():
        raise RootLocationError(
            "imprimitive claim law: roots are not used; take the half-process route"
        )
    expected = 2 if dist.mean() > 2 else 1
    found = interior_sign_changes(dist)
    if found != expected:
        raise RootLocationError(
            f"anomalous interior root count: expected {expected}, Sturm count {found}"
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
