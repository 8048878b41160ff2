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
solves Q X = P, so exact mode runs one short recurrence of order deg Q on
the integer numerators N_n = q_0^(n+1) x_n through n_max + 1 and reads
y_n and D_n off them (h_0 = q_0/R_0).  The cost is O(n * deg Q)
big-integer multiply-adds, independent of the (possibly infinite) support,
plus one gcd per returned entry when it becomes a reduced Fraction.

D_n grows like alpha^n while being a difference of alpha^(2n)-sized products,
so floating arithmetic loses roughly one digit per unit of n*log10(alpha):
verdicts about sign and monotonicity of D_n are only trustworthy in exact
rational mode, which is the default whenever the pmf prefix is rational
(always, for the built-in laws).  Float mode exists for cheap large-n probes,
runs the pmf recurrence above for x and y and stores values scaled by a
power of two to delay overflow.

Aside: the bracket x_n x_{n+2} - x_{n+1}^2 inside D_n is the numerator of
Aitken's Delta^2 acceleration, and |D_{n+1}/D_n| estimates the reciprocal
radius of convergence of X(s); this package checks the bracket's sign
pattern but implements no acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._scalars import EXACT, FLOAT
from .distributions import ClaimDistribution

#: float-mode conjecture verdicts beyond this horizon are refused outright
FLOAT_CONJECTURE_HORIZON = 200

#: rescale float tables when magnitudes pass this power of two
_RESCALE_EXP = 512
_RESCALE_LIMIT = 2.0**_RESCALE_EXP


class TableOverflowError(OverflowError):
    """Float-mode table values exceeded the double range when unscaled."""


@dataclass
class SequenceTable:
    """Tables x_0..x_N, y_0..y_N and D_0..D_{N-1}.

    In float mode with ``scaled=True`` the x/y entries are mantissas sharing
    the single exponent ``scale_log2`` (true value = entry * 2**scale_log2)
    and determinant entries carry ``2*scale_log2``.
    """

    dist: ClaimDistribution
    mode: str
    x: list
    y: list
    d: list
    scale_log2: int = 0
    hankel_max_rel_diff: float = 0.0

    @property
    def n_max(self) -> int:
        return len(self.x) - 1

    def xf(self, n: int, shift: int = 0) -> float:
        """x_n * 2**-shift as a float, honoring the stored scale."""
        v = self.x[n]
        if isinstance(v, Fraction):
            # scale exactly, so that float() rounds once and overflows only
            # when the scaled value does
            return float(v / (1 << shift)) if shift else float(v)
        exp = self.scale_log2 - shift
        return math.ldexp(v, exp) if exp else float(v)

    def x_exponent(self, n: int) -> int:
        """An exponent e with |x_n| < 2**e, honoring the stored scale."""
        v = self.x[n]
        if isinstance(v, Fraction):
            return v.numerator.bit_length() - v.denominator.bit_length() + 1
        return math.frexp(v)[1] + self.scale_log2

    def df(self, n: int) -> float:
        """D_n as a float, honoring the stored scale."""
        v = self.d[n]
        return math.ldexp(float(v), 2 * self.scale_log2) if self.scale_log2 else float(v)


def build_table(
    dist: ClaimDistribution,
    n_max: int,
    mode: str = EXACT,
    scaled: bool = False,
) -> SequenceTable:
    """Fill x, y through n_max and D through n_max - 1.

    Exact mode keeps every entry a Fraction, with y and D read off the one
    x sequence.  Float mode rescales by powers of two as the entries grow
    (x_n ~ alpha^n); with ``scaled=False`` the finished table is unscaled,
    raising TableOverflowError when that cannot be represented.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if mode == EXACT:
        return _build_exact(dist, n_max)
    if mode == FLOAT:
        return _build_float(dist, n_max, scaled)
    raise ValueError(f"unknown scalar mode {mode!r}")


def _build_exact(dist: ClaimDistribution, n_max: int) -> SequenceTable:
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
    return SequenceTable(dist=dist, mode=EXACT, x=x, y=y, d=d)


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


def _build_float(dist: ClaimDistribution, n_max: int, scaled: bool) -> SequenceTable:
    h = [float(v) for v in dist.pmf_prefix(n_max)]
    inv_h0 = 1.0 / h[0]
    x = [1.0, 0.0]
    y = [0.0, 1.0]
    exp = 0
    for n in range(2, n_max + 1):
        sx = 0.0
        sy = 0.0
        for i in range(1, n):
            hv = h[n - i]
            if hv:
                sx += hv * x[i]
                sy += hv * y[i]
        x.append(inv_h0 * (x[n - 2] - sx))
        y.append(inv_h0 * (y[n - 2] - sy))
        if abs(x[-1]) > _RESCALE_LIMIT or abs(y[-1]) > _RESCALE_LIMIT:
            # the recurrence is linear homogeneous, so rescaling the whole
            # history rescales every later term by the same factor
            down = math.ldexp(1.0, -_RESCALE_EXP)
            x = [v * down for v in x]
            y = [v * down for v in y]
            exp += _RESCALE_EXP
    d = []
    max_rel = 0.0
    for n in range(n_max):
        det = x[n] * y[n + 1] - x[n + 1] * y[n]
        if n + 2 <= n_max:
            hankel = h[0] * (x[n] * x[n + 2] - x[n + 1] ** 2)
            scale = max(abs(det), abs(hankel), 1e-300)
            max_rel = max(max_rel, abs(det - hankel) / scale)
        d.append(det)
    table = SequenceTable(
        dist=dist, mode=FLOAT, x=x, y=y, d=d, scale_log2=exp, hankel_max_rel_diff=max_rel
    )
    if scaled or exp == 0:
        return table
    # try to hand back plain doubles
    try:
        ux = [_ldexp_checked(v, exp) for v in x]
        uy = [_ldexp_checked(v, exp) for v in y]
        ud = [_ldexp_checked(v, 2 * exp) for v in d]
    except OverflowError as exc:
        raise TableOverflowError(
            f"x_n exceeds the double range near n={n_max} (needed scale 2**{exp}); "
            "use exact mode, or scaled=True for scaled diagnostics"
        ) from exc
    table.x, table.y, table.d, table.scale_log2 = ux, uy, ud, 0
    return table


def _ldexp_checked(v: float, exp: int) -> float:
    out = math.ldexp(v, exp)
    if math.isinf(out):
        raise OverflowError
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
    mode: str
    holds: bool
    violation_index: int | None
    even_level_margin: Fraction | float
    odd_level_margin: Fraction | float
    even_step_margin: Fraction | float
    odd_step_margin: Fraction | float

    @property
    def verdict(self) -> str:
        if self.holds:
            return f"holds_up_to_{self.horizon}"
        return f"violated_at({self.violation_index})"


def check_conjecture(dist: ClaimDistribution, n_max: int, mode: str = EXACT) -> ConjectureReport:
    """Check the sign/monotonicity pattern of D_n for all n <= n_max.

    Exact mode gives certified verdicts.  Float mode is refused beyond
    n = 200: cancellation in D_n corrupts signs long before overflow does.
    """
    if mode == FLOAT and n_max > FLOAT_CONJECTURE_HORIZON:
        raise ValueError(
            f"float-mode verdicts are unreliable beyond n={FLOAT_CONJECTURE_HORIZON}; "
            "use exact mode"
        )
    table = build_table(dist, n_max + 1, mode=mode)
    d = table.d  # indices 0..n_max
    if mode == FLOAT:
        # D_n is a cancellation of alpha^(2n)-sized products; once the
        # surviving value is within a few digits of the rounding floor of
        # those products, its sign is meaningless and no verdict is honest
        for n in range(n_max + 1):
            gross = abs(table.x[n] * table.y[n + 1]) + abs(table.x[n + 1] * table.y[n])
            if abs(d[n]) < 1e-13 * gross:
                raise ValueError(
                    f"float cancellation exhausts the determinant digits at n={n}; "
                    "use exact mode"
                )
    one = Fraction(1) if mode == EXACT else 1.0
    level, step = _margin_scan(d)
    violations = [n for n, m in enumerate(level) if m < 0]
    violations += [n + 2 for n, m in enumerate(step) if m < 0]
    violation = min(violations) if violations else None
    return ConjectureReport(
        dist_label=dist.label(),
        horizon=n_max,
        mode=mode,
        holds=violation is None,
        violation_index=violation,
        even_level_margin=min(level[0::2]),
        odd_level_margin=min(level[1::2], default=one),
        even_step_margin=min(step[0::2], default=one),
        odd_step_margin=min(step[1::2], default=one),
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
