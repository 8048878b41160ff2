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
inequality of the pattern is the sign of an integer.  It streams them,
``_minors`` off any iterable of N_n, keeping three live N values, and the
scan keeps M_{n-2}, M_{n-1} and its minima: a fixed number of live
integers, not lists of every N_n and M_n (O(n^2) bits).

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

from collections.abc import Iterable, Iterator
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
        """M_0..M_{N-1}: D_n = M_n / (r_0 q_0^(2n+3)), the list of _minors."""
        return list(_minors(self.numerators))

    def minor(self, n: int) -> int:
        """M_n alone, for a caller that reads a few indices."""
        big = self.numerators
        return big[n] * big[n + 2] - big[n + 1] ** 2

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

    The determinants are exact, so the verdict is certified.  The scan reads
    M_0..M_{n_max} straight off the numerator stream N_0..N_{n_max+2}; no
    table is built, and only a few integers are alive at any index.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p, r, q = dist.rational_pgf
    level, step, margins = _pattern_scan(islice(_numerators(p, q), n_max + 3), q[0], r[0])
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


def _minors(numerators: Iterable[int]) -> Iterator[int]:
    """M_n = N_n N_{n+2} - N_{n+1}^2 for n >= 0 off N_0, N_1, ...: one
    product pair per entry, with three N values alive."""
    it = iter(numerators)
    a, b = next(it, 0), next(it, 0)
    for c in it:
        yield a * c - b * b
        a, b = b, c


def _pattern_scan(
    numerators: Iterable[int], q0: int, r0: int
) -> tuple[list[int], list[int], tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Slack of the determinant pattern at every index of D_0..D_top, with
    M_0..M_top read off ``_minors(numerators)`` and q_0, r_0 of the stream.

    The level slack at n is D_n - 1 for even n and -1 - D_n for odd n; the
    step slack at n >= 2 is D_n - D_{n-2} for even n and D_{n-2} - D_n for
    odd n.  The pattern holds at an index whose slack is >= 0 (> 0 when
    strict).  Returns the signs (-1, 0 or 1) of the level slacks at 0..top
    and of the step slacks at 2..top, and the tightest even-level,
    odd-level, even-step and odd-step slack as Fractions (1 for a kind with
    no index).

    Everything runs on integers: D_n = M_n / E_n with E_n = r_0 q_0^(2n+3)
    > 0, and E_n = q_0^4 E_{n-2}.  With the sign of M_n flipped at odd n,
    the level slack is (M_n - E_n) / E_n and the step slack
    (M_n - q_0^4 M_{n-2}) / E_n at both parities.  The state of each parity
    (its M_{n-2} and its level and step minima, as numerators over E of its
    last index) swaps with the other's at every index, so the live integers
    are those three N values, two M values, four minima and E_n.
    """
    q2 = q0 * q0
    q4 = q2 * q2
    e = r0 * q0 * q2
    level: list[int] = []
    step: list[int] = []
    # (this parity, the other): flipped M_{n-2}, M_{n-1}, and the minima
    back = ahead = None
    low = low_next = rise = rise_next = None
    odd = False
    for m in _minors(numerators):
        if odd:
            m = -m
        v = m - e
        level.append((v > 0) - (v < 0))
        if low is None:
            low = v
        else:
            low *= q4
            if v < low:
                low = v
        if back is not None:
            v = m - q4 * back
            step.append((v > 0) - (v < 0))
            if rise is None:
                rise = v
            else:
                rise *= q4
                if v < rise:
                    rise = v
        back, ahead = ahead, m
        low, low_next = low_next, low
        rise, rise_next = rise_next, rise
        e *= q2
        odd = not odd
    # e is now E_{top+1}: top's parity (the *_next slots) sits over
    # E_top = e / q_0^2 and the other parity over E_{top-1} = e / q_0^4
    top_level, other_level, top_step, other_step = (
        Fraction(1) if b is None else Fraction(b * scale, e)
        for b, scale in ((low_next, q2), (low, q4), (rise_next, q2), (rise, q4))
    )
    if odd:  # top is even
        return level, step, (top_level, other_level, top_step, other_step)
    return level, step, (other_level, top_level, other_step, top_step)
