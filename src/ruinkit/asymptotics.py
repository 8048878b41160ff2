"""Partial-fraction coefficients of X(s) and the growth laws of x_n and D_n.

X(s) = H(s)/(H(s) - s^2) decomposes over the interior poles into

    X(s) = a/(1 + alpha*s) + b/(1 - beta*s) + sum_{j<=r} c_j/(1-s)^j + f(s),

so the coefficients x_n satisfy

    x_n = a*(-alpha)^n + b*beta^n + (c1 + c2*(n+1)) + f_n,   f_n -> 0,

with a = 1/(2 + alpha*H'(-1/alpha)), b = 1/(2 - beta*H'(1/beta)) when the
beta pole exists, c1 = 1/(2 - EZ) for a simple zero at 1 (r=1), and for the
critical mean (r=2)

    c2 = 2/(H''(1) - 2),
    c1 = (2*H'''(1) - 12*H''(1) + 24) / (3*(H''(1) - 2)^2).

Each is formed exactly from X = P/Q and rounded once: a and b as residues
at rational roots, c1 and c2 as Laurent coefficients at s = 1.

The determinants inherit D_n ~ (-1)^n h_0 a c_r (1+alpha)^2 n^(r-1) alpha^n
when EZ <= 2 and D_n ~ (-1)^n h_0 a b (alpha+beta)^2 (alpha*beta)^n when
EZ > 2, so |D_{n+2}/D_n| converges to alpha^2 or (alpha*beta)^2.

When R is linear, Q = P - s^2 R is a cubic and r = 1, as for the geometric
family with p != 1/3, the third root 1/beta of Q is real, with
1/beta = alpha q_0/q_3 by Vieta's product; for EZ < 2 it lies outside the
closed disk (beta < 1).  Its term makes the three-term expansion of x_n
exact, so the coefficients carry it whenever it exists; for other laws with
EZ <= 2 no interior beta pole exists and b = 0, with the remainder folded
into f_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distributions import ClaimDistribution, _numerators, _value
from .recurrence import SequenceTable, _pattern_scan
from .roots import RootProfile, _deflate_at_one

#: relative residual floor for "expansion has converged" checks
DEFAULT_RESIDUAL_EPS = 1e-9

#: residuals keep every magnitude below 2**_MAX_EXPONENT, a few bits inside
#: the double range
_MAX_EXPONENT = 1020


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Expansion data: x_n ~ a*(-alpha)^n + b*beta^n + c1 + c2*(n+1)."""

    a: float
    b: float
    c1: float
    c2: float
    r: int
    alpha: float
    beta: float | None
    h0: float
    mean: float


def compute_coefficients(dist: ClaimDistribution, roots: RootProfile) -> AsymptoticCoefficients:
    """Evaluate the partial-fraction coefficients of X = P/Q exactly and
    round each once.

    With H = P/R and Q = P - s^2 R, a and b are the residues -P(s)/(s Q'(s))
    of X at s = -1/alpha and s = 1/beta, exact at rational roots good to
    128 bits or more, continued from the brackets in ``roots``.  With
    Q = (1 - s)^r K and (P/K)(1 - t) = e_0 + e_1 t + ..., X = e_0/t^r +
    e_1/t^(r-1) + ... at t = 1 - s, so c_r = e_0 and c_(r-1) = e_1: the
    paper's closed forms of c1, c2 above, without their cancellation as
    E Z -> 2.
    """
    if not dist.is_primitive():
        raise ValueError("expansion coefficients are defined for primitive laws only")
    p, den, q = dist.rational_pgf
    r, k = _deflate_at_one(q)
    s_dq = [j * c for j, c in enumerate(q)]  # s Q'(s) = sum j q_j s^j

    def residue(n: int, d: int) -> float:
        # -P(s)/(s Q'(s)) at s = n/d, the c of c/(1 - x/s) in X = P/Q, as one
        # int/int quotient: _value(f, n, d) = f(n/d) d^(deg f)
        return -_value(p, n, d) * d ** (len(q) - len(p)) / _value(s_dq, n, d)

    alpha_rat, beta_rat = roots.refined(128)
    a = residue(-alpha_rat.denominator, alpha_rat.numerator)
    beta = roots.beta
    b = 0.0
    if beta_rat is not None:
        b = residue(beta_rat.denominator, beta_rat.numerator)
    elif r == 1 and len(den) == 2 and len(q) == 4:
        # a cubic Q has roots 1, -1/alpha and 1/beta, the last one outside
        # the closed disk here; Vieta's product gives 1/beta = alpha q_0/q_3
        n, d = alpha_rat.numerator * q[0], alpha_rat.denominator * q[3]
        beta, b = d / n, residue(n, d)

    # f(1 - t) = f(1) - f'(1) t + ... for f = P and K, with K(1) != 0
    p_t, k_t = ([sum(f), -sum(j * c for j, c in enumerate(f))] for f in (p, k))
    e0, e1 = (g / k_t[0] ** (n + 1) for n, g in zip((0, 1), _numerators(p_t, k_t)))
    c1, c2 = (e0, 0.0) if r == 1 else (e1, e0)

    return AsymptoticCoefficients(
        a=a, b=b, c1=c1, c2=c2, r=r, alpha=roots.alpha, beta=beta,
        h0=float(dist.hk(0)), mean=float(dist.mean()),
    )


def predict_xn(coeffs: AsymptoticCoefficients, n: int, shift: int = 0) -> float:
    """Expansion value of x_n without the vanishing remainder f_n, times
    2**-shift (a positive shift keeps alpha^n-sized values in range)."""
    value = (
        coeffs.a * _scaled_pow(-coeffs.alpha, n, shift)
        + math.ldexp(coeffs.c1, -shift)
        + math.ldexp(coeffs.c2 * (n + 1), -shift)
    )
    if coeffs.beta is not None and coeffs.b:
        value += coeffs.b * _scaled_pow(coeffs.beta, n, shift)
    return value


def _scaled_pow(base: float, n: int, shift: int) -> float:
    """base**n * 2**-shift, through logarithms when shift > 0, so that no
    intermediate leaves the double range."""
    if not shift:
        return base**n
    mag = math.exp(n * math.log(abs(base)) - shift * math.log(2.0))
    return -mag if base < 0 and n % 2 else mag


def predict_Dn(coeffs: AsymptoticCoefficients, n: int) -> float:
    """Leading term of D_n, with its sign (-1)^n.

    EZ <= 2: (-1)^n h0 a c_r (1+alpha)^2 n^(r-1) alpha^n;
    EZ  > 2: (-1)^n h0 a b (alpha+beta)^2 (alpha*beta)^n.
    """
    sign = -1.0 if n % 2 else 1.0
    if coeffs.mean > 2:
        ab = coeffs.alpha * coeffs.beta
        return sign * coeffs.h0 * coeffs.a * coeffs.b * (coeffs.alpha + coeffs.beta) ** 2 * ab**n
    cr = coeffs.c1 if coeffs.r == 1 else coeffs.c2
    poly = 1.0 if coeffs.r == 1 else float(n)
    return sign * coeffs.h0 * coeffs.a * cr * (1.0 + coeffs.alpha) ** 2 * poly * coeffs.alpha**n


def determinant_ratio_limit(coeffs: AsymptoticCoefficients) -> float:
    """lim |D_{n+2}/D_n|: alpha^2 when EZ <= 2, (alpha*beta)^2 when EZ > 2."""
    if coeffs.mean > 2:
        return (coeffs.alpha * coeffs.beta) ** 2
    return coeffs.alpha**2


def xn_residuals(table: SequenceTable, coeffs: AsymptoticCoefficients) -> list[float]:
    """Relative residuals |x_n - prediction| / max(1, |x_n|) along the table.

    Where x_n or alpha^n, beta^n would come within a few bits of the double
    range, all three terms of the ratio are scaled by the same power of two.
    """
    return list(_residuals(table, coeffs, 0))


def _residuals(table: SequenceTable, coeffs: AsymptoticCoefficients, start: int):
    """The relative residuals of xn_residuals from index ``start`` on, lazily."""
    growth = math.log2(max(coeffs.alpha, coeffs.beta or 0.0, 1.0))
    for n in range(start, table.n_max + 1):
        top = max(table.x_exponent(n), math.ceil(n * growth))
        shift = max(0, top - _MAX_EXPONENT)
        xn = table.xf(n, shift)
        pred = predict_xn(coeffs, n, shift)
        yield abs(xn - pred) / max(math.ldexp(1.0, -shift), abs(xn))


def residuals_converged(
    table: SequenceTable,
    coeffs: AsymptoticCoefficients,
    eps: float = DEFAULT_RESIDUAL_EPS,
) -> bool:
    """True when every relative residual over the last quarter of the table
    is below eps (the remainder f_n has died out to within float noise).
    Only that quarter is evaluated."""
    return all(v < eps for v in _residuals(table, coeffs, 3 * (table.n_max + 1) // 4))


@dataclass(frozen=True)
class SignMonotonicityReport:
    """Empirical stabilization of the determinant sign/growth pattern.

    ``n0`` is the last pair index at which the pattern fails (0 when it holds
    from the start): for every checked n > n0 the pattern holds.  The pattern
    is strict (1 < D_{2n} < D_{2n+2}, D_{2n+3} < D_{2n+1} < -1) for primitive
    laws and non-strict for even-lattice laws, where D_n is eventually
    constant along each parity; D_0 = 1 for every law, so pair 0 asks only
    1 <= D_0.  n0 is an observed quantity, not a certified threshold.
    """

    n0: int
    stabilized: bool
    pairs_checked: int
    strict: bool
    failures: tuple[int, ...]
    growth: str


def verify_sign_monotonicity(
    table: SequenceTable, coeffs: AsymptoticCoefficients | None = None
) -> SignMonotonicityReport:
    """Scan D_n for the sign/monotonicity pattern and report stabilization.

    The signs come from the integer scan that check_conjecture runs, which
    streams M_n off the table's own numerators and keeps no list of them.
    """
    strict = table.dist.is_primitive()
    last = (table.n_max - 4) // 2
    if last < 0:
        raise ValueError("table horizon too short: need D_0..D_3 at least")
    # pair n holds when the levels at 2n, 2n+1 and the steps from them do;
    # D_0 = 1 for every law, so the level at index 0 is compared non-strictly
    level, step, _margins = _pattern_scan(table.numerators, table.q0, table.r0)

    def fails(sign, strict_here):
        return sign <= 0 if strict_here else sign < 0

    failures = tuple(
        n for n in range(last + 1)
        if fails(level[2 * n], strict and n > 0)
        or fails(min(level[2 * n + 1], step[2 * n], step[2 * n + 1]), strict)
    )
    n0 = max(failures) if failures else 0
    tail_start = 3 * (last + 1) // 4
    stabilized = all(f < tail_start for f in failures)
    if coeffs is None:
        growth = ""
    elif coeffs.mean > 2:
        growth = f"|D_n| ~ ({coeffs.alpha * coeffs.beta:.6g})^n"
    elif coeffs.r == 2:
        growth = f"|D_n| ~ n * ({coeffs.alpha:.6g})^n"
    else:
        growth = f"|D_n| ~ ({coeffs.alpha:.6g})^n"
    return SignMonotonicityReport(
        n0=n0,
        stabilized=stabilized,
        pairs_checked=last + 1,
        strict=strict,
        failures=failures,
        growth=growth,
    )


def geometric_partial_fraction(p) -> tuple[float, float, float]:
    """Reference closed forms (a, b, c1) for the geometric family, p != 1/3:

        a = (q + alpha)/(3q + 2*alpha),
        b = (q - beta)/(3q - 2*beta),
        c1 = p/(3p - 1),

    with alpha = (sqrt(4/p - 3) + 1)/2 and beta = alpha - 1.
    """
    p = float(Fraction(p)) if not isinstance(p, float) else p
    if not 0.0 < p < 1.0 or p == 1.0 / 3.0:
        raise ValueError("defined for p in (0,1) excluding 1/3")
    q = 1.0 - p
    root = math.sqrt(4.0 / p - 3.0)
    alpha = (root + 1.0) / 2.0
    beta = (root - 1.0) / 2.0
    a = (q + alpha) / (3.0 * q + 2.0 * alpha)
    b = (q - beta) / (3.0 * q - 2.0 * beta)
    c1 = p / (3.0 * p - 1.0)
    return a, b, c1


def margin_factor_from_coefficients(coeffs: AsymptoticCoefficients) -> float:
    """c1*(1-beta)*(alpha-beta) / (a*(1+beta)*(alpha+beta)).

    This factor controls the sign of D_{n+2} - alpha^2 D_n for the geometric
    family; the pattern holds for every n because its value stays below 1.
    """
    if coeffs.beta is None:
        raise ValueError("margin factor needs the beta pole (geometric family, p != 1/3)")
    a, c1 = coeffs.a, coeffs.c1
    alpha, beta = coeffs.alpha, coeffs.beta
    return c1 * (1.0 - beta) * (alpha - beta) / (a * (1.0 + beta) * (alpha + beta))


def geometric_margin_factor(p) -> float:
    """Closed form p^2 (alpha + p - 2) / (1-p)^3 of the margin factor.

    Evaluated through the rationalized rearrangement
    2p / (sqrt(4/p - 3) + 3 - 2p), which is algebraically identical and
    avoids the alpha + p - 2 cancellation as p -> 1.
    """
    p = float(Fraction(p)) if not isinstance(p, float) else p
    if not 0.0 < p < 1.0 or p == 1.0 / 3.0:
        raise ValueError("defined for p in (0,1) excluding 1/3")
    return 2.0 * p / (math.sqrt(4.0 / p - 3.0) + 3.0 - 2.0 * p)
