"""Sequences x_n, y_n and the determinants D_n that control initial values.

The survival recursion phi(n) = x_n*phi(0) + y_n*phi(1) is driven by one
deterministic sequence,

    x_0 = 1, x_1 = 0,   x_n = (x_{n-2} - sum_{i=1}^{n-1} h_{n-i} x_i) / h_0,

whose generating function is X(s) = H/(H - s^2).  The second sequence is
the identity y_n = h_0 x_{n+1} (Y(s) = h_0 s/(H - s^2)), and the 2x2
determinants D_n = x_n y_{n+1} - x_{n+1} y_n take the Hankel form
D_n = h_0 (x_n x_{n+2} - x_{n+1}^2).

A law is read only through its integer pair H = P/R
(``ClaimDistribution.rational_pgf``).  With Q = P - s^2 R the sequence
solves Q X = P, so one recurrence of order deg Q gives the integer
numerators N_n = q_0^(n+1) x_n in O(n * deg Q) big-integer multiply-adds,
whatever the support.  The package's one integer stream,
``distributions._numerators`` of (P, Q), steps that recurrence: it yields
N_n, or any c0 N_n + c1 N_{n+1} (the survival table's numerators),
keeping only the last deg Q values.  A SequenceTable holds N with q_0 and r_0
(h_0 = q_0/r_0), and everything else is a quotient of integers:

    x_n = N_n / q_0^(n+1),   y_n = N_{n+1} / (r_0 q_0^(n+1)),
    D_n = M_n / E_n,   M_n = N_n N_{n+2} - N_{n+1}^2,   E_n = r_0 q_0^(2n+3).

Reduced Fractions, one gcd per entry, are formed only when a table's x, y
or d lists are read.  The pattern check reads the M_n: as E_n > 0, every
inequality of the pattern is the sign of an integer.

D_n grows like alpha^n while being a difference of alpha^(2n)-sized products,
so floating arithmetic would lose roughly one digit per unit of
n*log10(alpha) and soon leave no trustworthy sign.  Tables are therefore
exact only, which keeps every verdict about the sign and monotonicity of
D_n certified; the integer recurrence is what makes that affordable.

Aside: the bracket x_n x_{n+2} - x_{n+1}^2 inside D_n is the numerator of
Aitken's Delta^2 acceleration, and |D_{n+1}/D_n| estimates the reciprocal
radius of convergence of X(s); this package checks the bracket's sign
pattern but implements no acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice

from ._scalars import EXACT
from .distributions import ClaimDistribution, _numerators

@dataclass
class SequenceTable:
    """The exact tables of one law through n_max = N, held as integers.

    ``numerators`` holds N_0..N_{N+1}, and x_n, y_n and D_n are the integer
    quotients of the module docstring, with q_0, r_0 > 0.  The Fraction
    lists x_0..x_N, y_0..y_N and D_0..D_{N-1} are reduced on first read.
    """

    dist: ClaimDistribution
    numerators: list[int]
    q0: int
    r0: int

    @property
    def n_max(self) -> int:
        return len(self.numerators) - 2

    @cached_property
    def m(self) -> list[int]:
        """M_0..M_{N-1}: D_n = M_n / (r_0 q_0^(2n+3))."""
        big = self.numerators
        return [big[n] * big[n + 2] - big[n + 1] ** 2 for n in range(self.n_max)]

    @cached_property
    def x(self) -> list[Fraction]:
        return [Fraction(v, self.q0 ** (n + 1)) for n, v in enumerate(self.numerators[:-1])]

    @cached_property
    def y(self) -> list[Fraction]:
        return [Fraction(v, self.r0 * self.q0 ** (n + 1)) for n, v in enumerate(self.numerators[1:])]

    @cached_property
    def d(self) -> list[Fraction]:
        return [Fraction(v, self.r0 * self.q0 ** (2 * n + 3)) for n, v in enumerate(self.m)]

    def xf(self, n: int, shift: int = 0) -> float:
        """x_n * 2**-shift as a float: one int/int division, which rounds
        once and overflows only when the scaled value does."""
        return self.numerators[n] / (self.q0 ** (n + 1) << shift)

    def x_exponent(self, n: int) -> int:
        """An exponent e with |x_n| < 2**e, from bit lengths."""
        return self.numerators[n].bit_length() - (self.q0 ** (n + 1)).bit_length() + 1


def build_table(dist: ClaimDistribution, n_max: int, mode: str = EXACT) -> SequenceTable:
    """The exact table of x, y through n_max and D through n_max - 1.

    ``mode`` accepts only "exact"; it stays while the benchmark tracer binds it.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if mode != EXACT:
        raise ValueError(f"unknown scalar mode {mode!r}")
    return _integer_table(dist, n_max)


def _integer_table(dist: ClaimDistribution, n_max: int) -> SequenceTable:
    """N_0..N_{n_max+1} off the one numerator stream, with q_0 and r_0."""
    p, r, q = dist.rational_pgf
    return SequenceTable(dist, list(islice(_numerators(p, q), n_max + 2)), q[0], r[0])


@dataclass
class ConjectureReport:
    """Outcome of the exact determinant check up to a horizon.

    The checked pattern is the non-strict chain 1 <= D_{2n} <= D_{2n+2}
    together with D_{2n+3} <= D_{2n+1} <= -1, for every index within the
    horizon.  Margins record the tightest observed slack in each of the four
    inequalities (negative margin = violation).
    """

    dist_label: str
    horizon: int
    holds: bool
    violation_index: int | None
    even_level_margin: Fraction
    odd_level_margin: Fraction
    even_step_margin: Fraction
    odd_step_margin: Fraction

    @property
    def verdict(self) -> str:
        if self.holds:
            return f"holds_up_to_{self.horizon}"
        return f"violated_at({self.violation_index})"


def check_conjecture(dist: ClaimDistribution, n_max: int) -> ConjectureReport:
    """Check the sign/monotonicity pattern of D_n for all n <= n_max.

    The determinants are exact, so the verdict is certified.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    level, step, margins = _pattern_scan(_integer_table(dist, n_max + 1))
    violations = [n for n, sign in enumerate(level) if sign < 0]
    violations += [n + 2 for n, sign in enumerate(step) if sign < 0]
    violation = min(violations) if violations else None
    return ConjectureReport(
        dist_label=dist.label(),
        horizon=n_max,
        holds=violation is None,
        violation_index=violation,
        even_level_margin=margins[0],
        odd_level_margin=margins[1],
        even_step_margin=margins[2],
        odd_step_margin=margins[3],
    )


def _pattern_scan(
    table: SequenceTable,
) -> tuple[list[int], list[int], tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Slack of the determinant pattern at every index of the table's
    D_0..D_top, top = n_max - 1.

    The level slack at n is D_n - 1 for even n and -1 - D_n for odd n; the
    step slack at n <= top - 2 is D_{n+2} - D_n for even n and D_n - D_{n+2}
    for odd n.  The pattern holds at an index whose slack is >= 0 (> 0 when
    strict).  Returns the signs (-1, 0 or 1) of the level and step slacks,
    and the tightest even-level, odd-level, even-step and odd-step slack as
    Fractions (1 for a kind with no index).

    Everything runs on the table's integers: D_n = M_n / E_n with
    E_n = r_0 q_0^(2n+3) > 0, so the level slack at n is (M_n - E_n) / E_n
    or (-E_n - M_n) / E_n, and the step slack ending at n is
    +-(M_n - q_0^4 M_{n-2}) / E_n, as E_n = q_0^4 E_{n-2}.  Minima are kept
    as numerators over the current E_n.
    """
    m_all, q2 = table.m, table.q0**2
    e = table.r0 * table.q0**3
    q4 = q2 * q2
    level: list[int] = []
    step: list[int] = []
    best: list[int | None] = [None] * 4
    for n, m in enumerate(m_all):
        odd = n % 2
        slacks = [(odd, level, -e - m if odd else m - e)]
        if n >= 2:
            rise = m - q4 * m_all[n - 2]
            slacks.append((2 + odd, step, -rise if odd else rise))
        for kind, signs, v in slacks:
            signs.append((v > 0) - (v < 0))
            if best[kind] is None or v < best[kind]:
                best[kind] = v
        # move every minimum to the scale E_{n+1} of the next index
        best = [None if b is None else b * q2 for b in best]
        e *= q2
    margins = tuple(Fraction(1) if b is None else Fraction(b, e) for b in best)
    return level, step, margins

