"""Zero location for H(s) - s^2 on the closed unit disk, and a certified
lower end of the outer root rho.

For a primitive claim law the function H(s) - s^2 has exactly one simple
negative zero -1/alpha in (-1, 0) (bracketed by H(0) - 0 = h_0 > 0 and
H(-1) - 1 < 0), one simple positive zero 1/beta in (0, 1) present precisely
when E Z > 2, and a zero at s = 1 of order r, where r = 1 unless E Z = 2 and
then r = 2 (Z is not degenerate at 2).

Everything is read off the integer polynomial Q = P - s^2 R, where H = P/R
and R > 0 on [-1, 1], so that Q has the sign of H - s^2 on the disk:

* a Sturm sequence of Q counts its distinct interior zeros exactly, which
  rules out the theoretically excluded event of extra interior roots,
  double ones included;
* both interior zeros come from one exact search on the dyadic points
  m/2^k, whose signs are those of the integers Q(m/2^k)·2^(k·deg Q);
  Q(-1) < 0 < Q(0) brackets -1/alpha, and Q(0) > 0 with the single zero
  in (0, 1) brackets 1/beta.  Each step doubles k: an exact Newton step
  from the midpoint names a start cell, and a galloping search from it
  finds the cell whose end signs differ, in two evaluations on a hit and
  O(log j) on a miss by j cells.  That cell is the one halving reaches,
  so every bracket is the bisection's.  The nearest fraction of small
  denominator in the final bracket, with the denominator capped at
  |lead(Q)| by the rational root theorem, is tried as an exact root;
* r is the multiplicity of s = 1 as a root of Q = (1 - s)^r K.

The float roots are those of 64-bit brackets, rounded once.  The profile
keeps those brackets, and ``RootProfile.refined`` continues them to a
rational root of any width (``refine_alpha`` starts afresh from [-1, 0]),
which downstream series evaluations use to keep the single irrational from
amplifying through exact recurrences.

Outside the disk, ``rho_lower`` brackets rho, the smallest zero of Q in
(1, inf), by Sturm counts on rational intervals, and returns the lower end:
a rational r with Q < 0 on (1, r], which proves Lundberg's bound
P(ruin from w) <= r^(-w).  The oracles retire paths on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .distributions import ClaimDistribution, _value

#: bits behind the float roots: a bracket of width 2**-64 in s pins
#: alpha and beta far below binary64 resolution before their one rounding
_FLOAT_BITS = 64


class RootLocationError(ValueError):
    """Raised when a guaranteed bracket or zero count is not available."""


#: a dyadic bracket (neg, pos, k) of a zero of Q, or the root once hit
Bracket = tuple[int, int, int] | Fraction


@dataclass(frozen=True)
class RootProfile:
    """alpha > 1, optional beta (1 < beta < alpha, iff E Z > 2), and the
    vanishing order r at s = 1, plus the width of the widest exact bracket
    behind alpha and beta (0 when both are hit exactly), and the exact
    state of those searches, which ``refined`` continues."""

    alpha: float
    beta: float | None
    r: int
    bracket_width_achieved: float
    dist: ClaimDistribution
    alpha_bracket: Bracket
    beta_bracket: Bracket | None

    def refined(self, bits: int) -> tuple[Fraction, Fraction | None]:
        """(alpha, beta) from brackets of width 2**-bits in s, or exactly at
        a rational root: what fresh bisections give (bits >= 64), searching
        only past the profile's own 64 bits."""
        q = self.dist.rational_pgf[2]
        beta = None if self.beta_bracket is None else 1 / _zero(q, self.beta_bracket, bits)[0]
        return -1 / _zero(q, self.alpha_bracket, bits)[0], beta


def _q(dist: ClaimDistribution) -> tuple[int, ...]:
    """Coefficients of Q (lowest degree first) for a primitive law.

    On the even lattice H(s) - s^2 = H1(s^2) - s^2 need not change sign on
    (-1, 0), so no negative root is guaranteed.
    """
    if not dist.is_primitive():
        raise RootLocationError(
            "imprimitive claim law: on the even lattice H(s) = s^2 at s = -1, "
            "so solve takes alpha = 1 and no root is located"
        )
    return dist.rational_pgf[2]


def _zero(q: list[int], bracket: Bracket, bits: int) -> tuple[Fraction, Fraction, Bracket]:
    """(s, width, state) for the one zero of Q in ``bracket``, narrowed
    down to width 2**-bits: s exactly with width 0 when that root is hit,
    else the midpoint of the final bracket, and the state to continue from.

    In (neg, pos, k) the zero lies between neg/2^k and pos/2^k, with Q < 0
    towards neg and Q > 0 towards pos; k = 0 for the unit intervals.  Each
    step (``_narrow``) certifies the one dyadic cell of width
    2**-min(max(2k, k + 1), bits) holding the zero, so every state, and a
    dyadic root met on the way, is what halving alone reaches.

    A rational root whose denominator is at most 2**(bits//2 - 1) is hit:
    two such fractions lie at least 2**(2 - bits) apart, so the nearest one
    to the midpoint is the only one the bracket can hold.  By the rational
    root theorem the denominator of a root of Q, in lowest terms, divides
    lead(Q), its last nonzero coefficient, so the search for that nearest
    fraction stops at denominator min(2**(bits//2 - 1), |lead(Q)|): a few
    continued-fraction steps however many bits the bracket has.
    """
    if isinstance(bracket, Fraction):
        return bracket, Fraction(0), bracket
    neg, pos, k = bracket
    dq = [i * c for i, c in enumerate(q)][1:]
    while k < bits:
        state = _narrow(q, dq, neg, pos, k, min(max(2 * k, k + 1), bits))
        if isinstance(state, Fraction):
            return state, Fraction(0), state
        neg, pos, k = state
    mid, width = Fraction(neg + pos, 1 << (k + 1)), Fraction(1, 1 << k)
    lead = next(c for c in reversed(q) if c)
    near = mid.limit_denominator(min(2 ** max(0, k // 2 - 1), abs(lead)))
    if abs(near - mid) < width / 2 and _value(q, near.numerator, near.denominator) == 0:
        return near, Fraction(0), near
    return mid, width, (neg, pos, k)


def _narrow(q: list[int], dq: list[int], neg: int, pos: int, k: int, level: int) -> Bracket:
    """The cell (neg, pos, level) of the bracket (neg, pos, k) that holds its
    zero, or the root where a probe hits it; dq is Q'.

    The exact Newton point of the midpoint x = m/2^(k+1),
    x - Q(x)/Q'(x) = (mD - V)/(D 2^(k+1)) with V = Q(x)·2^((k+1) deg Q) and
    D = Q'(x)·2^((k+1)(deg Q - 1)), names the start cell (the midpoint's
    own when D = 0).  On the grid i = 0 .. 2^(level - k) from neg/2^k
    towards pos/2^k, ``low`` and ``high`` are the nearest points known to
    lie on neg's and on pos's side of the zero.  Each probe moves one of
    them; the next lies 1, 2, 4, ... points on, in the direction its sign
    names, or halfway between them once that would leave (low, high).  The
    signs change once along the bracket, so (low, high) ends at the one
    cell that holds the zero, and a dyadic root on the grid is probed.
    """
    m, two = neg + pos, 1 << (k + 1)
    v = _value(q, m, two)
    if not v:
        return Fraction(m, two)
    d = _value(dq, m, two)
    shift, cell, way = level - k, 1 << level, pos - neg
    start, half = neg << shift, 1 << (shift - 1)
    low, high = (half, 2 * half) if v < 0 else (0, half)
    i = way * (((m * d - v) << (shift - 1)) - start * d) // d if d else half
    i, step = min(max(i, low + 1), high - 1), 1
    while high - low > 1:
        if not low < i < high:
            i = (low + high) // 2
        end = start + way * i
        v = _value(q, end, cell)
        if not v:
            return Fraction(end, cell)
        if v < 0:
            low, i = i, i + step
        else:
            high, i = i, i - step
        step *= 2
    return start + way * low, start + way * high, level


def _deflate_at_one(q) -> tuple[int, list[int]]:
    """(r, K) with Q = (1 - s)^r K and K(1) != 0: r is the order of the
    zero of H(s) - s^2 at s = 1.

    When Q(1) = 0, Q = (1 - s) sum_i (q_0 + ... + q_i) s^i, so each factor
    leaves the partial sums.  A third factor would force the excluded
    degenerate law Z = 2.
    """
    r, k = 0, list(q)
    while sum(k) == 0:
        r += 1
        if r > 2:
            raise RootLocationError("degenerate law at the income rate; excluded at construction")
        k = list(accumulate(k[:-1]))
    return r, k


def vanishing_order(dist: ClaimDistribution) -> int:
    """Order r of the zero of H(s) - s^2 at s = 1: 1 if E Z != 2, else 2,
    the multiplicity of s = 1 as a root of Q."""
    return _deflate_at_one(dist.rational_pgf[2])[0]


def interior_sign_changes(dist: ClaimDistribution) -> int:
    """Count the distinct zeros of H(s) - s^2 in (-1, 1), exactly.

    They are the roots of Q = P - s^2 R there; a Sturm count on (-1, 1]
    finds them plus the root at s = 1 that every law has.
    """
    return _sturm_count(dist.rational_pgf[2]) - 1


#: rho_lower narrows its bracket (1 + lo, 1 + hi] of rho until
#: hi - lo <= lo·_RHO_SLACK, so that r - 1 >= (rho - 1)/(1 + _RHO_SLACK)
_RHO_SLACK = Fraction(1, 50)


def rho_lower(dist: ClaimDistribution) -> Fraction | None:
    """A certified rational lower end r of rho, the smallest zero of
    Q = P - s^2 R in (1, inf), or None when E Z >= 2 or Q has no zero there
    (claims of at most 2: Bernoulli laws and laws on {0, 1, 2}).

    The certificate is 1 < r, Q(r) < 0 and no zero of Q in (1, r], by a
    Sturm count of the squarefree part of Q (``_sturm_count``); r - 1 lies
    within 2% of rho - 1.  It needs no primitivity, so the even lattice,
    where Q is even and -rho is a zero too, is served alike.

    That certificate alone proves Lundberg's bound P(ruin from w) <= r^(-w)
    (Asmussen & Albrecher, *Ruin Probabilities*, 2010, ch. IV).  R > 0 on
    [0, 1], and P > 0 on [0, inf).  Q < 0 just above 1, as
    Q'(1) = R(1)(E Z - 2) < 0.  If R had a zero in (1, r], the smallest, z,
    would give Q(z) = P(z) > 0, so Q would vanish in (1, z): no such zero
    exists.  So R > 0 on [0, r], and the series E r^Z converges to
    H(r) = P(r)/R(r): its coefficients are non-negative, so its first
    singularity is a positive zero of R.  Q(r) < 0 then gives
    E r^(Z - 2) = H(r)/r^2 < 1, so r^(-W(n)), stopped at ruin, is a
    supermartingale.  At ruin W <= 0 makes it at least 1, and optional
    stopping gives the bound.
    """
    if dist.mean() >= 2:
        return None
    q = dist.rational_pgf[2]
    seq = _squarefree_sturm(q)
    at_one = _variations(seq, 1)

    def zeros(t) -> int:  # zeros of Q in (1, 1 + t]
        return at_one - _variations(seq, 1 + t)

    # Cauchy: every zero has modulus at most 1 + max |q_i / lead|, and t
    # is the ceiling of that max
    lead = abs(next(c for c in reversed(q) if c))
    if not zeros(-(-max(map(abs, q)) // lead)):
        return None
    # a dyadic bracket (1 + lo, 1 + hi] of rho with hi = 2 lo, then halved
    hi = Fraction(1)
    while zeros(hi / 2):
        hi /= 2
    while not zeros(hi):
        hi *= 2
    lo = hi / 2
    while hi - lo > lo * _RHO_SLACK:
        mid = (lo + hi) / 2
        if zeros(mid):
            hi = mid
        else:
            lo = mid
    r = 1 + lo
    assert _value(q, r.numerator, r.denominator) < 0
    return r


def _sturm_count(poly: list[int], lo=-1, hi=1) -> int:
    """Distinct real roots in (lo, hi] of a nonzero integer polynomial
    (coefficients lowest degree first), by Sturm's theorem, for rational
    lo < hi (ints or Fractions; (-1, 1] by default).

    The sequence S_0 = f, S_1 = f', S_{k+1} = -rem(S_{k-1}, S_k) stays in
    integers: pseudo-division with a positive multiplier and removal of the
    content scale each term by a positive constant, which keeps its signs.
    A repeated root is divided out first.  For squarefree f the number V(s)
    of sign changes along the sequence, zeros skipped, is right-continuous,
    so V(lo) - V(hi) counts the roots in (lo, hi] even where f vanishes at
    an end.  Each term is signed at n/d, d > 0, by the integer
    S_k(n/d)·d^(deg S_k) (``_value``).
    """
    seq = _squarefree_sturm(poly)
    return _variations(seq, lo) - _variations(seq, hi)


def _squarefree_sturm(poly: list[int]) -> list[list[int]]:
    """The Sturm sequence of poly with its repeated roots divided out."""
    f = _primitive(poly)
    seq = _sturm_sequence(f)
    if len(seq[-1]) > 1:  # the last term is gcd(f, f') of positive degree
        seq = _sturm_sequence(_primitive(_pseudo_divmod(f, seq[-1])[0]))
    return seq


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


def _variations(seq: list[list[int]], s) -> int:
    """Sign changes along the values of ``seq`` at the rational s, zeros
    skipped."""
    n, d = Fraction(s).as_integer_ratio()
    signs = [v > 0 for v in (_value(f, n, d) for f in seq if f) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_profile(dist: ClaimDistribution) -> RootProfile:
    """Locate all interior zeros plus the order at s = 1, after checking
    that the Sturm count of interior zeros is the one the theory predicts."""
    q = _q(dist)
    expected = 2 if dist.mean() > 2 else 1
    found = interior_sign_changes(dist)
    if found != expected:
        raise RootLocationError(
            f"anomalous interior root count: expected {expected}, Sturm count {found}"
        )
    s, width, alpha_bracket = _zero(q, (-1, 0, 0), _FLOAT_BITS)
    beta = beta_bracket = None
    if expected == 2:
        # Q(0) = p_0 > 0, and the count leaves one sign change in (0, 1),
        # so Q < 0 between 1/beta and 1
        s_beta, width_beta, beta_bracket = _zero(q, (1, 0, 0), _FLOAT_BITS)
        beta, width = float(1 / s_beta), max(width, width_beta)
    return RootProfile(
        alpha=float(-1 / s), beta=beta, r=vanishing_order(dist),
        bracket_width_achieved=float(width), dist=dist,
        alpha_bracket=alpha_bracket, beta_bracket=beta_bracket,
    )


def alpha_residual(dist: ClaimDistribution, alpha: float) -> float:
    """|H(-1/alpha) - 1/alpha^2| = |Q/R| at the float root, the
    defining-equation residual, evaluated exactly and rounded once."""
    s = -1 / Fraction(alpha)
    return abs(float(dist.pgf(s) - s * s))


def beta_residual(dist: ClaimDistribution, beta: float) -> float:
    """|H(1/beta) - 1/beta^2| for the positive interior root, as above."""
    s = 1 / Fraction(beta)
    return abs(float(dist.pgf(s) - s * s))


def refine_alpha(dist: ClaimDistribution, bits: int = 256) -> Fraction:
    """Rational alpha with the defining bracket narrowed to width 2**-bits.

    Exact integer search of Q on [-1, 0] (see ``_zero``), whose result is
    the bisection's: every sign is exact, so the returned rational brackets
    the true alpha to the stated width, and a rational root of small
    denominator is returned exactly.  Series reconstructions of survival
    probabilities combine terms of size alpha^n that cancel to O(1);
    carrying alpha as a rational of width 2**-bits keeps that cancellation
    exact up to n ~ bits/log2(alpha).  It starts afresh from [-1, 0]; a
    RootProfile gives the same value with less work (``RootProfile.refined``).
    """
    return -1 / _zero(_q(dist), (-1, 0, 0), bits)[0]
