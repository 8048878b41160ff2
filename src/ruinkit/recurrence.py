"""Sequences x_n, y_n and the determinants D_n that control initial values.

The survival recursion phi(n) = x_n*phi(0) + y_n*phi(1) is driven by one
deterministic sequence,

    x_0 = 1, x_1 = 0,   x_n = (x_{n-2} - sum_{i=1}^{n-1} h_{n-i} x_i) / h_0,

whose generating function is X(s) = H/(H - s^2).  The second sequence is
the identity y_n = h_0 x_{n+1} (Y(s) = h_0 s/(H - s^2)), and the 2x2
determinants D_n = x_n y_{n+1} - x_{n+1} y_n take the Hankel form
D_n = h_0 (x_n x_{n+2} - x_{n+1}^2).

Every built-in law has a rational p.g.f. H = P/R with integer polynomials:
R = L and P = L*H for finite support (L the lcm of the denominators), and
P = a, R = b - (b-a)s for geometric(a/b).  With Q = P - s^2 R the sequence
solves Q X = P, so build_table runs one short recurrence of order deg Q on
the integer numerators N_n = q_0^(n+1) x_n through n_max + 1 and reads
y_n and D_n off them (h_0 = q_0/R_0).  The cost is O(n * deg Q)
big-integer multiply-adds, independent of the (possibly infinite) support,
plus one gcd per returned entry when it becomes a reduced Fraction.

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

import math
from dataclasses import dataclass
from fractions import Fraction

from ._scalars import EXACT
from .distributions import ClaimDistribution

@dataclass
class SequenceTable:
    """Exact tables x_0..x_N, y_0..y_N and D_0..D_{N-1} (Fractions)."""

    dist: ClaimDistribution
    x: list[Fraction]
    y: list[Fraction]
    d: list[Fraction]

    @property
    def n_max(self) -> int:
        return len(self.x) - 1

    def xf(self, n: int, shift: int = 0) -> float:
        """x_n * 2**-shift as a float."""
        # scale exactly, so that float() rounds once and overflows only when
        # the scaled value does
        v = self.x[n]
        return float(v / (1 << shift)) if shift else float(v)

    def x_exponent(self, n: int) -> int:
        """An exponent e with |x_n| < 2**e."""
        v = self.x[n]
        return v.numerator.bit_length() - v.denominator.bit_length() + 1


def build_table(dist: ClaimDistribution, n_max: int, mode: str = EXACT) -> SequenceTable:
    """Fill x, y through n_max and D through n_max - 1, as Fractions.

    y and D are read off the one x sequence.  ``mode`` accepts only "exact".
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if mode != EXACT:
        raise ValueError(f"unknown scalar mode {mode!r}")
    p, r = _rational_pgf(dist)
    q = p + [0] * (len(r) + 2 - len(p))
    for k, rk in enumerate(r):
        q[k + 2] -= rk
    q0 = q[0]
    # N_n = q0^(n+1) x_n turns q0 x_n = p_n - sum_k q_k x_{n-k} into
    # N_n = p_n q0^n - sum_k q_k q0^(k-1) N_{n-k}
    steps = [(k, q[k] * q0 ** (k - 1)) for k in range(1, len(q)) if q[k]]
    x = _numerators(p, steps, q0, n_max + 1)
    # with h_0 = q0/r_0: D_n = (N_n N_{n+2} - N_{n+1}^2) / (r_0 q0^(2n+3))
    d: list[Fraction] = []
    den = r[0] * q0**3
    for n in range(n_max):
        d.append(Fraction(x[n] * x[n + 2] - x[n + 1] ** 2, den))
        den *= q0 * q0
    # y_n = N_{n+1} / (r_0 q0^(n+1)); replace numerators in place, so each
    # is freed once its Fraction exists
    y: list[Fraction] = []
    den = q0
    for n in range(n_max + 1):
        y.append(Fraction(x[n + 1], r[0] * den))
        x[n] = Fraction(x[n], den)
        den *= q0
    x.pop()
    return SequenceTable(dist=dist, x=x, y=y, d=d)


def _rational_pgf(dist: ClaimDistribution) -> tuple[list[int], list[int]]:
    """Integer coefficient lists (lowest degree first) of P and R, H = P/R."""
    if dist.kind == "geometric":
        a, b = dist.p.numerator, dist.p.denominator
        return [a], [b, a - b]
    h = dist.pmf_prefix(dist.support_bound)
    lcm = math.lcm(*(v.denominator for v in h))
    return [v.numerator * (lcm // v.denominator) for v in h], [lcm]


def _numerators(rhs: list[int], steps: list[tuple[int, int]], q0: int, n_max: int) -> list[int]:
    """N_0..N_{n_max} of N_n = rhs_n q0^n - sum_k c_k N_{n-k}, for the
    (k, c_k) pairs of ``steps`` in increasing k."""
    out: list[int] = []
    scale = 1
    for n in range(n_max + 1):
        acc = 0
        if n < len(rhs):
            acc = rhs[n] * scale
            scale *= q0
        for k, c in steps:
            if k > n:
                break
            acc -= c * out[n - k]
        out.append(acc)
    return out


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
    d = build_table(dist, n_max + 1).d  # indices 0..n_max
    level, step = _margin_scan(d)
    violations = [n for n, m in enumerate(level) if m < 0]
    violations += [n + 2 for n, m in enumerate(step) if m < 0]
    violation = min(violations) if violations else None
    return ConjectureReport(
        dist_label=dist.label(),
        horizon=n_max,
        holds=violation is None,
        violation_index=violation,
        even_level_margin=min(level[0::2]),
        odd_level_margin=min(level[1::2], default=Fraction(1)),
        even_step_margin=min(step[0::2], default=Fraction(1)),
        odd_step_margin=min(step[1::2], default=Fraction(1)),
    )


def _margin_scan(d: list) -> tuple[list, list]:
    """Slack of the determinant pattern at every index of D_0..D_N.

    ``level[n]`` is D_n - 1 for even n and -1 - D_n for odd n; ``step[n]``
    is D_{n+2} - D_n for even n and D_n - D_{n+2} for odd n, for n <= N - 2.
    The pattern holds at an index whose margin is >= 0 (> 0 when strict).
    """
    level = [v - 1 if n % 2 == 0 else -1 - v for n, v in enumerate(d)]
    step = [d[n + 2] - d[n] if n % 2 == 0 else d[n] - d[n + 2] for n in range(len(d) - 2)]
    return level, step
