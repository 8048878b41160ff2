"""Truncated power-series arithmetic, exact or floating.

The generating functions of the model are ratios of series whose denominator
has constant term h_0 > 0, so division is the workhorse: it is implemented
as the standard forward recurrence on coefficients (O(N^2), exact-friendly).
Truncation orders are explicit everywhere; binary operations never read past
the stored order and the result carries the shorter order of the operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._scalars import EXACT, FLOAT
from .distributions import ClaimDistribution


class SeriesError(ValueError):
    """Raised on invalid series operations (e.g. division by s*(...))."""


def _mode_of(coeffs) -> str:
    return EXACT if all(isinstance(c, (Fraction, int)) for c in coeffs) else FLOAT


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_N of a series truncated at order N."""

    coeffs: tuple
    mode: str

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise SeriesError("a series stores at least the constant term")

    @classmethod
    def of(cls, coeffs, mode: str | None = None) -> "PowerSeries":
        coeffs = tuple(coeffs)
        return cls(coeffs, _mode_of(coeffs) if mode is None else mode)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def cut(self, n_max: int) -> "PowerSeries":
        if n_max > self.order:
            raise SeriesError(f"cannot extend a series of order {self.order} to {n_max}")
        return PowerSeries(self.coeffs[: n_max + 1], self.mode)

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product truncated at the shorter operand order."""
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc += self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return PowerSeries.of(out)

    def eval(self, s):
        """Horner evaluation of the truncated polynomial."""
        acc = self.coeffs[-1] * 1
        for c in reversed(self.coeffs[:-1]):
            acc = acc * s + c
        return acc


def series_divide(numerator: PowerSeries, denominator: PowerSeries, n_max: int) -> PowerSeries:
    """Quotient q with denominator*q = numerator through order n_max.

    Forward recurrence: q_n = (a_n - sum_{j=1..n} b_j q_{n-j}) / b_0, which
    requires b_0 != 0.  Exact when both operands are exact.
    """
    if numerator.order < n_max or denominator.order < n_max:
        raise SeriesError(
            f"operands must carry order >= {n_max} "
            f"(have {numerator.order} and {denominator.order})"
        )
    b0 = denominator.coeffs[0]
    if b0 == 0:
        raise SeriesError("non-invertible series: denominator has zero constant term")
    inv_b0 = Fraction(1) / b0 if isinstance(b0, (Fraction, int)) else 1.0 / b0
    quot = []
    for n in range(n_max + 1):
        acc = numerator.coeffs[n]
        for j in range(1, n + 1):
            bj = denominator.coeffs[j]
            if bj:
                acc = acc - bj * quot[n - j]
        quot.append(acc * inv_b0)
    return PowerSeries.of(quot)


def pgf_series(dist: ClaimDistribution, n_max: int) -> PowerSeries:
    """H(s) as a truncated series: the pmf prefix itself."""
    return PowerSeries.of(dist.pmf_prefix(n_max), EXACT)


def pgf_minus_s2_series(dist: ClaimDistribution, n_max: int) -> PowerSeries:
    """H(s) - s^2 as a truncated series (the recurring denominator)."""
    coeffs = dist.pmf_prefix(n_max)
    if n_max >= 2:
        coeffs[2] = coeffs[2] - 1
    return PowerSeries.of(coeffs, EXACT)


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
    return PowerSeries.of(out, EXACT)


def one_minus_s(n_max: int) -> PowerSeries:
    """The polynomial 1 - s, padded to order n_max."""
    coeffs = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (n_max - 1)
    return PowerSeries.of(coeffs[: n_max + 1], EXACT)
