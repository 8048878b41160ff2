"""The deflated G(s) = (H(s) - s^2)/(1 - s).

The generating functions of the model are ratios of series whose denominator
H(s) - s^2 has constant term h_0 > 0.  Nothing here divides: the recurrence
module computes the quotients, and ``verify`` checks them by multiplying
back through Q = P - s^2 R, which is H - s^2 times R.  What is left is the
deflation of the root at s = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .distributions import ClaimDistribution, _numerators, _times_one_minus_s


def deflate_G(dist: ClaimDistribution, n_max: int) -> list[Fraction]:
    """Coefficients g_0..g_{n_max} of G(s) = (H(s) - s^2)/(1 - s).

    Dividing out the root at s = 1 gives cumulative-sum coefficients:
    g_n = h_0 + ... + h_n for n < 2 and g_n = -1 + (h_0 + ... + h_n) for
    n >= 2, so g_n >= 0 ahead of the income index and g_n <= 0 after it.
    G(1) = 2 - H'(1).

    All in integers: G = Q/((1 - s)R) with Q = P - s^2 R, and the stream of
    (Q, (1 - s)R) is C_k - [k >= 2] r_0^(k+1), where C_k = r_0 C_{k-1} + G_k
    sums the numerators G_k = r_0^(k+1) h_k of (P, R).  Each g_k is that
    integer over r_0^(k+1), one Fraction per entry.
    """
    _p, r, q = dist.rational_pgf
    out, scale = [], r[0]
    for _k, c in zip(range(n_max + 1), _numerators(q, _times_one_minus_s(r))):
        out.append(Fraction(c, scale))
        scale *= r[0]
    return out
