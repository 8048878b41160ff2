"""Truncated power series: a coefficient container and the deflated G.

The generating functions of the model are ratios of series whose denominator
H(s) - s^2 has constant term h_0 > 0.  Nothing here divides: the recurrence
module computes the quotients, and ``verify`` checks them by multiplying
back through H - s^2.  What is left is the deflation of the root at s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import ClaimDistribution


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_N of a series truncated at order N."""

    coeffs: tuple

    @classmethod
    def of(cls, coeffs) -> "PowerSeries":
        return cls(tuple(coeffs))

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def deflate_G(dist: ClaimDistribution, n_max: int) -> PowerSeries:
    """Coefficients of G(s) = (H(s) - s^2)/(1 - s) through order n_max.

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
    return PowerSeries.of(out)
