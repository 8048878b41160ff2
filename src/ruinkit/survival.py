"""Ultimate-time survival probabilities phi(u) for W(n) = u + 2n - sum(Z_i).

phi(u) is the probability that the surplus stays strictly positive at every
time n >= 1.  It vanishes identically when E Z >= 2; when E Z < 2 it is
produced here by three mutually checking routes:

* closed_form (route of record): for a primitive law,
  phi(0) = alpha(2 - EZ)/(1 + alpha), phi(1) = (2 - EZ)/(h_0 (1 + alpha));
  on the even lattice, phi(0) = (2 - EZ)/2, phi(1) = (2 - EZ)/(2 h_0).
* limit_ratio: the finite-n solves phi(0) ~ (y_{n+1} - y_n)/D_n and
  phi(1) ~ (x_n - x_{n+1})/D_n, using phi(infinity) = 1.
* xi_series: coefficient extraction from the generating function
  Xi(s) = (2 - EZ)^+ (1 + alpha s) / ((1 + alpha)(H(s) - s^2)),
  whose u-th coefficient is phi(u + 1).  With 1/(H - s^2) = sum x_{k+2} s^k
  the coefficient is c(x_{u+2} + alpha x_{u+1}), c = (2 - EZ)/(1 + alpha),
  which is x_{u+1} phi(0) + y_{u+1} phi(1) exactly: the route reads the
  closed-form table shifted by one, at the same rational alpha.  What it
  adds is the check phi(0) = h_1 phi(1) + h_0 phi(2) of the survival
  recursion at u = 0; the series division itself is checked against the
  recurrence by ``verify``.

The full table follows from phi(u) = x_u phi(0) + y_u phi(1); on the even
lattice it is built instead through the income-rate-1 half process, where
phi(2u) = phi(2u-1) = phi_half(u).

Numerical discipline: x_u and y_u grow like alpha^u while phi stays in
[0, 1], so the linear combination cancels catastrophically in floating
point.  All reconstructions therefore run in exact rational arithmetic with
alpha carried as a rational bracket refined to ~u_max*log2(alpha) + 64 bits,
and only the finished values are rounded to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._scalars import FLOAT
from .distributions import ClaimDistribution
from .recurrence import SequenceTable, build_table
from .roots import DEFAULT_TOL, RootProfile, find_alpha, refine_alpha, root_profile
from .series import PowerSeries

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


def initial_values_closed_form(dist: ClaimDistribution, alpha=None) -> tuple:
    """(phi(0), phi(1)) in closed form, in the arithmetic of ``alpha``.

    For a primitive law, phi(0) = alpha(2 - EZ)/(1 + alpha) and
    phi(1) = (2 - EZ)/(h_0 (1 + alpha)): floats for a float alpha (found by
    find_alpha when omitted), exact rationals for a rational bracket of
    alpha.  On the even lattice the values are alpha-free rationals,
    phi(0) = (2 - EZ)/2 and phi(1) = (2 - EZ)/(2 h_0).  (0.0, 0.0) whenever
    E Z >= 2.
    """
    mean = dist.mean()
    if mean >= 2:
        return 0.0, 0.0
    surplus_rate = 2 - mean
    h0 = dist.hk(0)
    if not dist.is_primitive():
        return surplus_rate / 2, surplus_rate / (2 * h0)
    if alpha is None:
        alpha = find_alpha(dist)
    return alpha * surplus_rate / (1 + alpha), surplus_rate / (h0 * (1 + alpha))


@dataclass(frozen=True)
class LimitEstimate:
    """Finite-n ratio estimates with a step-back convergence diagnostic."""

    phi0: float
    phi1: float
    n_used: int
    delta: float  # max change against the estimate two indices earlier


def initial_values_limit(table: SequenceTable, n: int) -> LimitEstimate:
    """phi(0) ~ (y_{n+1} - y_n)/D_n and phi(1) ~ (x_n - x_{n+1})/D_n.

    Valid when E Z < 2 (so phi(infinity) = 1) and D_n != 0.  With an exact
    table the ratios are exact rationals, floated only on return.
    """
    if table.dist.mean() >= 2:
        raise ValueError("the ratio route requires E Z < 2 (phi(infinity) = 1)")
    if n + 1 > table.n_max:
        raise ValueError(f"table horizon {table.n_max} too short for n={n}")

    def estimates(k: int) -> tuple[float, float]:
        dk = table.d[k]
        if dk == 0:
            raise ValueError(f"determinant vanishes at n={k}; pick another index")
        p0 = (table.y[k + 1] - table.y[k]) / dk
        p1 = (table.x[k] - table.x[k + 1]) / dk
        return float(p0), float(p1)

    phi0, phi1 = estimates(n)
    if n >= 2:
        prev0, prev1 = estimates(n - 2)
        delta = max(abs(phi0 - prev0), abs(phi1 - prev1))
    else:
        delta = math.inf
    return LimitEstimate(phi0=phi0, phi1=phi1, n_used=n, delta=delta)


def xi_series(
    dist: ClaimDistribution,
    roots: RootProfile | None,
    n_max: int,
    bits: int | None = None,
) -> PowerSeries:
    """Coefficients xi_u = phi(u + 1) for 0 <= u <= n_max.

    With U = 1/(H - s^2) = sum_k x_{k+2} s^k and c = (2 - EZ)/(1 + alpha),
    the coefficient c(u_k + alpha u_{k-1}) of Xi = c(1 + alpha s)U is
    c(x_{k+2} + alpha x_{k+1}) = x_{k+1} phi(0) + y_{k+1} phi(1) = phi(k+1),
    since phi(0) = alpha c, phi(1) = c/h_0 and y_n = h_0 x_{n+1}.  So the
    series is phi_table shifted by one, built from the closed form at a
    rational alpha of ``bits`` bits, exact until floated.

    Identically zero when E Z >= 2 (the positive-part factor).  Raises for
    even-lattice laws, whose survival is reached through the half process.
    """
    if not dist.is_primitive():
        raise ValueError(
            "the survival generating function needs a primitive law; "
            "use the half-process route"
        )
    if dist.mean() >= 2:
        return PowerSeries.of([0.0] * (n_max + 1), FLOAT)
    if bits is None:
        alpha = roots.alpha if roots is not None else find_alpha(dist)
        bits = _alpha_bits(alpha, n_max)
    alpha_rat = refine_alpha(dist, bits)
    p0, p1 = initial_values_closed_form(dist, alpha_rat)
    return PowerSeries.of(phi_table(dist, p0, p1, n_max + 1)[1:], FLOAT)


def phi_table(dist: ClaimDistribution, phi0, phi1, u_max: int) -> list[float]:
    """phi(0..u_max) from initial values produced by any route.

    Primitive laws use phi(u) = x_u phi(0) + y_u phi(1) with exact x_u, y_u;
    even-lattice laws run the income-rate-1 half process and duplicate
    phi(2u) = phi(2u-1).  Initial values are converted to exact rationals
    (floats convert exactly), so the growing x_u, y_u cancel without noise
    at the precision the initial values carry; for large u_max pass
    high-precision rationals, as solve() does.
    """
    if u_max < 0:
        raise ValueError("u_max must be non-negative")
    p0 = Fraction(phi0)
    p1 = Fraction(phi1)
    if not dist.is_primitive():
        return _phi_table_half_process(dist, p0, p1, u_max)
    if u_max == 0:
        return [float(p0)]
    table = build_table(dist, max(u_max, 2))
    return [float(table.x[u] * p0 + table.y[u] * p1) for u in range(u_max + 1)]


def _phi_table_half_process(
    dist: ClaimDistribution, p0: Fraction, p1: Fraction, u_max: int
) -> list[float]:
    half = dist.half_law()
    m = (u_max + 1) // 2
    hh = half.pmf_prefix(m + 1)
    values = [p0, p1]  # phi_half(0) = phi(0), phi_half(1) = phi(1)
    for u in range(1, m):
        acc = values[u]
        for k in range(1, u + 1):
            hv = hh[u + 1 - k]
            if hv:
                acc -= hv * values[k]
        values.append(acc / hh[0])
    out = [float(p0)]
    for u in range(1, u_max + 1):
        out.append(float(values[(u + 1) // 2]))
    return out


def pi_values(dist: ClaimDistribution, alpha=None) -> tuple[float, float]:
    """(pi_0, pi_1): the first two masses of the all-time claim-surplus peak.

    pi_i = P(M+ = i) where M+ is the non-negative running maximum of the
    centered claim walk; phi(u+1) = pi_0 + ... + pi_u.  They solve

        (2 h_0 + h_1) pi_0 + h_0 pi_1 = 2 - EZ        (expectation balance)
        (h_0 + h_1 - h_0 alpha) pi_0 + h_0 pi_1 = 0   (evaluation at -1/alpha)

    so pi_0 = (2-EZ)/(h_0 (1+alpha)) = phi(1), taken from the closed form,
    and pi_1 = phi(1)(alpha - 1 - h_1/h_0).  Both are evaluated in the
    arithmetic of ``alpha``, as initial_values_closed_form does (a float
    root found by find_alpha when omitted, exact for a rational bracket of
    alpha), and floated on return.  Both residuals are verified to 1e-12
    before returning (PiResidualError otherwise).  The zero solution is
    returned when E Z >= 2.
    """
    if not dist.is_primitive():
        raise ValueError(
            "the linear system for pi needs a primitive law; on the even "
            "lattice take differences of the half-process survival table"
        )
    mean = dist.mean()
    if mean >= 2:
        return 0.0, 0.0
    if alpha is None:
        alpha = find_alpha(dist)
    phi1 = initial_values_closed_form(dist, alpha)[1]
    pi0 = float(phi1)
    pi1 = float(phi1 * (alpha - 1 - dist.hk(1) / dist.hk(0)))
    h0 = float(dist.hk(0))
    h1 = float(dist.hk(1))
    alpha = float(alpha)
    rate = float(2 - mean)
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
    xi: PowerSeries | None
    method: str
    diagnostics: dict


def solve(
    dist: ClaimDistribution,
    u_max: int = 100,
    route: str = ROUTE_CLOSED,
    n_limit: int = 60,
    tol: float = DEFAULT_TOL,
) -> SurvivalSolution:
    """Produce the survival solution, running the requested verification routes.

    The closed form is always the route of record for phi(0), phi(1); the
    ratio route at n_limit and the generating-function route are computed on
    request ("limit", "xi", or "all") and surfaced in diagnostics together
    with the maximum pairwise disagreement ``max_route_delta``.  Every regime
    takes the same path and records that delta: when E Z >= 2 every route
    gives zero, the ratio route is skipped (it needs phi(infinity) = 1) and
    the delta is 0.
    """
    if route not in (ROUTE_CLOSED, ROUTE_LIMIT, ROUTE_XI, ROUTE_ALL):
        raise ValueError(f"unknown route {route!r}")
    if u_max < 0:
        raise ValueError("u_max must be non-negative")
    reg = regime(dist)
    primitive = dist.is_primitive()
    # the ratio route needs phi(infinity) = 1, i.e. E Z < 2
    want_limit = reg == SURVIVABLE and route in (ROUTE_LIMIT, ROUTE_ALL)
    want_xi = route in (ROUTE_XI, ROUTE_ALL)
    diagnostics: dict = {"regime": reg, "routes": {}}
    xi = None

    if reg != SURVIVABLE:
        diagnostics["note"] = (
            "E Z >= 2: survival probabilities vanish on every route; "
            "the ratio route is inapplicable (phi(infinity) = 0) and the "
            "generating function is identically zero by its positive part"
        )
        phi0 = phi1 = pi0 = pi1 = 0.0
        table = [0.0] * (u_max + 1)
        if primitive:
            xi = PowerSeries.of(table, FLOAT)
    elif primitive:
        profile = root_profile(dist, tol)
        bits = _alpha_bits(profile.alpha, max(u_max, 8))
        alpha_rat = refine_alpha(dist, bits)
        p0_rat, p1_rat = initial_values_closed_form(dist, alpha_rat)
        phi0, phi1 = float(p0_rat), float(p1_rat)
        diagnostics["alpha"] = profile.alpha
        diagnostics["alpha_bits"] = bits
        diagnostics["vanishing_order"] = profile.r
        # xi_u = phi(u + 1) (see xi_series): one table serves both
        ext = phi_table(dist, p0_rat, p1_rat, u_max + 1)
        table = ext[: u_max + 1]
        pi0, pi1 = pi_values(dist, alpha_rat)
        if want_xi:
            xi = PowerSeries.of(ext[1:], FLOAT)
            diagnostics["routes"]["xi_series"] = [ext[1]]
    else:
        p0_rat, p1_rat = initial_values_closed_form(dist)
        phi0, phi1 = float(p0_rat), float(p1_rat)
        ext = phi_table(dist, p0_rat, p1_rat, max(u_max, 2))
        table = ext[: u_max + 1]
        # pi from survival differences along the half-process table
        pi0, pi1 = ext[1], ext[2] - ext[1]
        diagnostics["pi_source"] = "half-process table differences"
        if want_xi:
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
            values0.append(float(dist.hk(1)) * xi[0] + float(dist.hk(0)) * xi[1])
    delta = 0.0
    for vals in (values0, values1):
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                delta = max(delta, abs(vals[i] - vals[j]))
    diagnostics["max_route_delta"] = delta

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
