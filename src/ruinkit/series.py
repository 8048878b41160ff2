"""The deflated G(s) = (H(s) - s^2)/(1 - s).

The generating functions of the model are ratios of series whose denominator
H(s) - s^2 has constant term h_0 > 0.  Nothing here divides: the recurrence
module computes the quotients, and ``verify`` checks them by multiplying
back through H - s^2.  What is left is the deflation of the root at s = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .distributions import ClaimDistribution


def deflate_G(dist: ClaimDistribution, n_max: int) -> list[Fraction]:
    """Coefficients g_0..g_{n_max} of G(s) = (H(s) - s^2)/(1 - s).

    Dividing out the root at s = 1 gives cumulative-sum coefficients:
    g_n = h_0 + ... + h_n for n < 2 and g_n = -1 + (h_0 + ... + h_n) for
    n >= 2, so g_n >= 0 ahead of the income index and g_n <= 0 after it.
    G(1) = 2 - H'(1).
    """
    prefix = dist.pmf_prefix(n_max)
    out = []
    acc = Fraction(0)
    for n, h in enumerate(prefix):
        acc += h
        out.append(acc if n < 2 else acc - 1)
    return out
