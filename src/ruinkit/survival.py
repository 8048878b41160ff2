"""Ultimate-time survival probabilities phi(u) for W(n) = u + 2n - sum(Z_i).

phi(u) is the probability that the surplus stays strictly positive at every
time n >= 1.  It vanishes identically when E Z >= 2; when E Z < 2 it is
produced here by three mutually checking routes:

* closed_form (route of record), for every law:
  phi(0) = alpha(2 - EZ)/(1 + alpha), phi(1) = (2 - EZ)/(h_0 (1 + alpha)),
  with -1/alpha the zero of H(s) - s^2 in [-1, 0).  For a primitive law it
  lies inside (-1, 0) and alpha is carried as a rational bracket; on the
  even lattice H(-1) = H(1) = 1, so alpha = 1 exactly and the same formulas
  read phi(0) = (2 - EZ)/2, phi(1) = (2 - EZ)/(2 h_0).
* limit_ratio: the finite-n solves phi(0) ~ (y_{n+1} - y_n)/D_n and
  phi(1) ~ (x_n - x_{n+1})/D_n, using phi(infinity) = 1.
* xi_series: the coefficients of the generating function
  Xi(s) = (2 - EZ)^+ (1 + alpha s) / ((1 + alpha)(H(s) - s^2)),
  whose u-th coefficient is phi(u + 1).  With 1/(H - s^2) = sum x_{k+2} s^k
  the coefficient is c(x_{u+2} + alpha x_{u+1}), c = (2 - EZ)/(1 + alpha),
  which is x_{u+1} phi(0) + y_{u+1} phi(1) exactly: xi is the closed-form
  table shifted by one, at the same rational alpha.  What the route adds is
  the check phi(0) = h_1 phi(1) + h_0 phi(2) of the survival recursion at
  u = 0; ``verify`` checks the x series itself by multiplying it back
  through Q = P - s^2 R on the law's pair H = P/R (Q X = P holds exactly
  when (H - s^2)X = H does, as R(0) != 0).  solve() skips it on the even
  lattice, whose report format has no xi.

The full table follows from phi(u) = x_u phi(0) + y_u phi(1), which holds
for every law with h_0 > 0, even-lattice laws included: there it gives
phi(2u) = phi(2u-1), as the closed form has phi(1) = phi(0)/h_0 = phi(2).

Numerical discipline: x_u and y_u grow like alpha^u while phi stays in
[0, 1], so the linear combination cancels catastrophically in floating
point.  All reconstructions therefore run in exact arithmetic with alpha
carried as a rational bracket refined to ~u_max*log2(alpha) + 64 bits, and
only the finished values are rounded to floats: each table entry is one
integer numerator over one integer denominator, divided once, which Python
rounds correctly, with one gcd per table and no reduced Fraction.  solve()
stops that exact work at the first entry of at least 1 - 2^-55 and fills the
rest with 1.0.  phi is non-decreasing in u (the same claims with one more
unit of surplus are never ruined earlier) and at most 1, so every later
phi(u) lies in [1 - 2^-55, 1], where the nearest double is 1.0; the margin
below the half-ulp 2^-54 covers the error of the alpha bracket, which every
entry of the full table carries too.  The argument holds only for the true
initial values, so phi_table, which takes any pair, runs to u_max.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .distributions import ClaimDistribution, _numerators
from .recurrence import SequenceTable, build_table
from .roots import refine_alpha, root_profile

SURVIVABLE = "survivable"
CRITICAL = "critical"
RUINOUS = "ruinous"

ROUTE_CLOSED = "closed"
ROUTE_LIMIT = "limit"
ROUTE_XI = "xi"
ROUTE_ALL = "all"


class PiResidualError(ValueError):
    """Raised when the (pi_0, pi_1) system is not solved to its tolerance."""


def regime(dist: ClaimDistribution) -> str:
    """survivable (EZ < 2), critical (EZ = 2, exact), or ruinous (EZ > 2)."""
    mean = dist.mean()
    if mean < 2:
        return SURVIVABLE
    return CRITICAL if mean == 2 else RUINOUS


def _alpha_bits(alpha: float, n_terms: int) -> int:
    """Rational precision needed to cancel alpha^n terms down to O(1)."""
    return max(192, int(n_terms * math.log2(max(alpha, 1.0 + 1e-9))) + 64)


def _exact_alpha(dist: ClaimDistribution) -> Fraction:
    """alpha as one exact rational: refine_alpha's 64-bit bracket (or the
    rational root itself) for a primitive law, and 1 on the even lattice,
    where H(-1) = 1 makes s = -1 a root of H(s) = s^2."""
    return refine_alpha(dist, 64) if dist.is_primitive() else Fraction(1)


def initial_values_closed_form(dist: ClaimDistribution, alpha=None) -> tuple:
    """(phi(0), phi(1)) in closed form, in the arithmetic of ``alpha``.

    phi(0) = alpha(2 - EZ)/(1 + alpha) and phi(1) = (2 - EZ)/(h_0 (1 + alpha))
    for every law: exact rationals for a rational alpha, which defaults to
    a 64-bit bracket of the root for a primitive law and to alpha = 1 on the
    even lattice, giving (2 - EZ)/2 and (2 - EZ)/(2 h_0).  (0.0, 0.0)
    whenever E Z >= 2.
    """
    mean = dist.mean()
    if mean >= 2:
        return 0.0, 0.0
    if alpha is None:
        alpha = _exact_alpha(dist)
    surplus_rate = 2 - mean
    return alpha * surplus_rate / (1 + alpha), surplus_rate / (dist.hk(0) * (1 + alpha))


@dataclass(frozen=True)
class LimitEstimate:
    """Finite-n ratio estimates with a step-back convergence diagnostic."""

    phi0: float
    phi1: float
    n_used: int
    delta: float  # max change against the estimate two indices earlier


def initial_values_limit(table: SequenceTable, n: int) -> LimitEstimate:
    """phi(0) ~ (y_{n+1} - y_n)/D_n and phi(1) ~ (x_n - x_{n+1})/D_n.

    Valid when E Z < 2 (so phi(infinity) = 1), n >= 1 and D_n != 0.  On the
    table's numerators (see recurrence) the ratios are the exact quotients
    q_0^(n+1) (N_{n+2} - q_0 N_{n+1}) / M_n and
    r_0 q_0^(n+1) (q_0 N_n - N_{n+1}) / M_n, each rounded once to a float.
    """
    if table.dist.mean() >= 2:
        raise ValueError("the ratio route requires E Z < 2 (phi(infinity) = 1)")
    if n < 1:
        raise ValueError(f"the ratio route needs n_limit (--n) >= 1, got {n}")
    if n + 1 > table.n_max:
        raise ValueError(f"table horizon {table.n_max} too short for n={n}")
    big, q0 = table.numerators, table.q0

    def estimates(k: int) -> tuple[float, float]:
        mk = table.minor(k)
        if mk == 0:
            raise ValueError(f"determinant vanishes at n={k}; pick another index")
        scale = q0 ** (k + 1)
        p0 = scale * (big[k + 2] - q0 * big[k + 1]) / mk
        p1 = table.r0 * scale * (q0 * big[k] - big[k + 1]) / mk
        return p0, p1

    phi0, phi1 = estimates(n)
    if n >= 2:
        prev0, prev1 = estimates(n - 2)
        delta = max(abs(phi0 - prev0), abs(phi1 - prev1))
    else:
        delta = math.inf
    return LimitEstimate(phi0=phi0, phi1=phi1, n_used=n, delta=delta)


def phi_table(dist: ClaimDistribution, phi0, phi1, u_max: int) -> list[float]:
    """phi(0..u_max) = x_u phi(0) + y_u phi(1) from initial values produced
    by any route, for every law (primitive or on the even lattice).

    x_u = N_u / q_0^(u+1) and y_u = N_{u+1} / (r_0 q_0^(u+1)) are read off
    the integer numerators of the recurrence (see recurrence).  With the
    initial values as exact rationals phi(0) = A/B and phi(1) = C/E (floats
    convert exactly) and g = gcd(B, E), so that L = lcm(B, E) = (B/g) E,
    each entry is the one int/int quotient

        phi(u) = F_u / (L r_0 q_0^(u+1)),
        F_u = N_u A (E/g) r_0 + N_{u+1} C (B/g),

    which Python rounds correctly, so it is the float of the exact rational
    with no gcd taken per entry; a value past the double range raises
    OverflowError.  The closed-form B and E share almost all their bits, so
    dividing over L rather than B E keeps every F_u about one alpha bracket
    shorter.  ``distributions._numerators`` of (P, Q) yields F_u itself,
    keeping only its last deg Q values.  The growing x_u, y_u cancel without
    noise at the precision the initial values carry; for large u_max pass
    high-precision rationals, as solve() does.
    """
    if u_max < 0:
        raise ValueError("u_max must be non-negative")
    return [f / den for f, den in islice(_phi_stream(dist, phi0, phi1), u_max + 1)]


def _phi_stream(dist: ClaimDistribution, phi0, phi1) -> Iterator[tuple[int, int]]:
    """The pairs (F_u, L r_0 q_0^(u+1)), u = 0, 1, ..., whose quotients are
    phi_table's entries."""
    p, r, q = dist.rational_pgf
    p0, p1 = Fraction(phi0), Fraction(phi1)
    g = math.gcd(p0.denominator, p1.denominator)
    c0 = p0.numerator * (p1.denominator // g) * r[0]
    c1 = p1.numerator * (p0.denominator // g)
    den = p0.denominator // g * p1.denominator * r[0] * q[0]
    for f in _numerators(p, q, c0, c1):
        yield f, den
        den *= q[0]


def pi_values(dist: ClaimDistribution, alpha=None) -> tuple[float, float]:
    """(pi_0, pi_1): the first two masses of the all-time claim-surplus peak.

    pi_i = P(M+ = i) where M+ is the non-negative running maximum of the
    centered claim walk; phi(u+1) = pi_0 + ... + pi_u.  They solve

        (2 h_0 + h_1) pi_0 + h_0 pi_1 = 2 - EZ        (expectation balance)
        (h_0 + h_1 - h_0 alpha) pi_0 + h_0 pi_1 = 0   (evaluation at -1/alpha)

    so pi_0 = (2-EZ)/(h_0 (1+alpha)) = phi(1), taken from the closed form,
    and pi_1 = phi(1)(alpha - 1 - h_1/h_0) = phi(2) - phi(1), for every law.
    Both are evaluated in the arithmetic of ``alpha``, with the same default
    as initial_values_closed_form (on the even lattice alpha = 1 and h_1 = 0,
    so pi_1 = 0), and floated on return.  Both residuals are verified to
    1e-12 before returning (PiResidualError otherwise).  The zero solution
    is returned when E Z >= 2.
    """
    mean = dist.mean()
    if mean >= 2:
        return 0.0, 0.0
    if alpha is None:
        alpha = _exact_alpha(dist)
    phi1 = initial_values_closed_form(dist, alpha)[1]
    return _pi(phi1, alpha, 2 - mean, dist.hk(0), dist.hk(1))


def _pi(phi1, alpha, rate, h0, h1) -> tuple[float, float]:
    """pi_values' body, from the closed-form phi(1) and the alpha, 2 - EZ,
    h_0 and h_1 it was formed from."""
    pi0 = float(phi1)
    pi1 = float(phi1 * (alpha - 1 - h1 / h0))
    h0 = float(h0)
    h1 = float(h1)
    alpha = float(alpha)
    rate = float(rate)
    res1 = abs((2.0 * h0 + h1) * pi0 + h0 * pi1 - rate)
    res2 = abs(pi0 * (h0 + h1 - h0 * alpha) + pi1 * h0)
    if max(res1, res2) > 1e-12:
        raise PiResidualError(
            f"pi system residuals too large: {res1:.3e}, {res2:.3e}; "
            "refine the root tolerance"
        )
    return pi0, pi1


@dataclass
class SurvivalSolution:
    """Everything solve() produces, with method provenance and diagnostics."""

    regime: str
    phi0: float
    phi1: float
    phi_table: list[float]
    pi0: float
    pi1: float
    xi: list[float] | None
    method: str
    diagnostics: dict


def solve(
    dist: ClaimDistribution,
    u_max: int = 100,
    route: str = ROUTE_CLOSED,
    n_limit: int = 60,
) -> SurvivalSolution:
    """Produce the survival solution, running the requested verification routes.

    The closed form is always the route of record for phi(0), phi(1), and pi
    comes from the same exact alpha: the root profile's bracket continued
    until it is precise enough for the table through u_max + 1, or alpha = 1
    on the even lattice, where the xi route is skipped.  The exact table
    stops at the first entry within 2^-55 of 1, and the rest of the table
    and of xi is 1.0, as phi is non-decreasing and at most 1 (see the module
    docstring); a near-critical law may not reach it before u_max.  The
    ratio route at n_limit and the generating-function route are computed on
    request ("limit", "xi", or "all") and surfaced in diagnostics together
    with the maximum pairwise disagreement ``max_route_delta``.  Every regime
    takes the same path and records that delta: when E Z >= 2 every route
    gives zero, the ratio route is skipped (it needs phi(infinity) = 1) and
    the delta is 0, though an n_limit below 1 is rejected in every regime.
    """
    if route not in (ROUTE_CLOSED, ROUTE_LIMIT, ROUTE_XI, ROUTE_ALL):
        raise ValueError(f"unknown route {route!r}")
    if u_max < 0:
        raise ValueError("u_max must be non-negative")
    if route in (ROUTE_LIMIT, ROUTE_ALL) and n_limit < 1:
        raise ValueError(f"the ratio route needs n_limit (--n) >= 1, got {n_limit}")
    reg = regime(dist)
    primitive = dist.is_primitive()
    # the ratio route needs phi(infinity) = 1, i.e. E Z < 2
    want_limit = reg == SURVIVABLE and route in (ROUTE_LIMIT, ROUTE_ALL)
    want_xi = route in (ROUTE_XI, ROUTE_ALL)
    diagnostics: dict = {"regime": reg, "routes": {}}
    xi = None
    # one h_0, h_1 for pi and the xi route's recursion
    h0, h1 = dist.hk(0), dist.hk(1)

    if reg != SURVIVABLE:
        diagnostics["note"] = (
            "E Z >= 2: survival probabilities vanish on every route; "
            "the ratio route is inapplicable (phi(infinity) = 0) and the "
            "generating function is identically zero by its positive part"
        )
        phi0 = phi1 = pi0 = pi1 = 0.0
        table = [0.0] * (u_max + 1)
        if primitive:
            xi = list(table)
    else:
        if primitive:
            profile = root_profile(dist)
            bits = _alpha_bits(profile.alpha, max(u_max, 8))
            alpha = profile.refined(bits)[0]
            diagnostics["alpha"] = profile.alpha
            diagnostics["alpha_bits"] = bits
            diagnostics["vanishing_order"] = profile.r
        else:
            alpha = _exact_alpha(dist)
            # the pi_source label is a fixed string of the report format:
            # on the even lattice pi = (phi(1), 0) are the table's differences
            diagnostics["pi_source"] = "half-process table differences"
        p0_rat, p1_rat = initial_values_closed_form(dist, alpha)
        phi0, phi1 = float(p0_rat), float(p1_rat)
        pi0, pi1 = _pi(p1_rat, alpha, 2 - dist.mean(), h0, h1)
        # one table through phi(u_max + 1) also serves the xi route,
        # xi_u = phi(u + 1); past the plateau every entry is 1.0 (module
        # docstring)
        ext = []
        for f, den in islice(_phi_stream(dist, p0_rat, p1_rat), u_max + 2):
            ext.append(f / den)
            if f << 55 >= (den << 55) - den:
                break
        ext += [1.0] * (u_max + 2 - len(ext))
        table = ext[:-1]
        if want_xi and primitive:
            xi = ext[1:]
            diagnostics["routes"]["xi_series"] = [xi[0]]
        elif want_xi:
            diagnostics["routes"]["xi_series"] = None
            diagnostics.setdefault("notes", []).append(
                "generating-function route skipped: even-lattice law"
            )

    diagnostics["routes"]["closed_form"] = [phi0, phi1]
    values0 = [phi0]
    values1 = [phi1]
    if want_limit:
        seq = build_table(dist, n_limit + 1)
        est = initial_values_limit(seq, n_limit)
        diagnostics["routes"]["limit_ratio"] = [est.phi0, est.phi1]
        diagnostics["limit_n_used"] = est.n_used
        diagnostics["limit_delta"] = est.delta
        values0.append(est.phi0)
        values1.append(est.phi1)
    if want_xi and xi is not None:
        # xi_0 = phi(1); phi(0) is recovered from the recursion at u = 0:
        # phi(0) = h_1 phi(1) + h_0 phi(2)
        values1.append(xi[0])
        if len(xi) > 1:
            values0.append(float(h1) * xi[0] + float(h0) * xi[1])
    diagnostics["max_route_delta"] = max(max(v) - min(v) for v in (values0, values1))

    method = {
        ROUTE_CLOSED: "closed_form",
        ROUTE_LIMIT: f"limit_ratio({n_limit})",
        ROUTE_XI: "xi_series",
        ROUTE_ALL: "all",
    }[route]
    return SurvivalSolution(
        regime=reg,
        phi0=phi0,
        phi1=phi1,
        phi_table=table,
        pi0=pi0,
        pi1=pi1,
        xi=xi,
        method=method,
        diagnostics=diagnostics,
    )
