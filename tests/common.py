"""Shared fixture distributions and brute-force oracles for the test suite."""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from ruinkit import ClaimDistribution
from ruinkit._scalars import float_str, fraction_str
from ruinkit.distributions import _value
from ruinkit.recurrence import _integer_table
from ruinkit.roots import Bracket


def _pmf(weights):
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


# h_0 > 0 keeps every law valid; the tail weights reach E Z well past 2
_weights = st.tuples(
    st.integers(1, 30), st.lists(st.integers(0, 30), min_size=1, max_size=7)
).map(lambda t: [t[0], *t[1]])
_ratios = st.integers(2, 41).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b)))

#: random laws 2*B on the even lattice, E Z on both sides of 2
even_lattice_laws = _weights.map(lambda w: ClaimDistribution.even_lattice(_pmf(w)))

#: random rational laws of every kind: tabulated, even-lattice, Bernoulli,
#: geometric
laws = st.one_of(
    _weights.map(lambda w: ClaimDistribution.tabulated(_pmf(w))),
    even_lattice_laws,
    _ratios.map(lambda t: ClaimDistribution.bernoulli(Fraction(*t))),
    _ratios.map(lambda t: ClaimDistribution.geometric(Fraction(*t))),
)


def bernoulli_fixtures():
    return [ClaimDistribution.bernoulli(Fraction(n, d)) for n, d in [(1, 5), (1, 3), (1, 2), (4, 5)]]


def geometric_fixtures():
    return [ClaimDistribution.geometric(Fraction(n, d)) for n, d in [(1, 5), (1, 3), (1, 2), (2, 3)]]


def tabulated_fixtures():
    return [
        ClaimDistribution.tabulated([Fraction(1, 2), 0, Fraction(1, 2)]),
        ClaimDistribution.tabulated([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]),
        ClaimDistribution.tabulated([Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)]),
    ]


def all_fixtures():
    return bernoulli_fixtures() + geometric_fixtures() + tabulated_fixtures()


def primitive_fixtures():
    return [d for d in all_fixtures() if d.is_primitive()]


def survivable_fixtures():
    return [d for d in all_fixtures() if d.mean() < 2]


def reference_pmf(dist, n):
    """h_0..h_n from the law's construction record, not from its pair (P, R):
    the closed forms of the Bernoulli and geometric families, the recorded
    pmf tuple (zero-padded) otherwise."""
    if dist.kind == "bernoulli":
        return ([1 - dist.p, dist.p] + [Fraction(0)] * n)[: n + 1]
    if dist.kind == "geometric":
        return [dist.p * (1 - dist.p) ** k for k in range(n + 1)]
    return (list(dist.pmf) + [Fraction(0)] * (n + 1))[: n + 1]


def reference_derivatives(dist, order):
    """H^(j)(1) for 1 <= j <= order from the construction record: the
    geometric closed form j! (q/p)^j, else the factorial moments of the
    reference pmf."""
    if dist.kind == "geometric":
        ratio = (1 - dist.p) / dist.p
        return [math.factorial(j) * ratio**j for j in range(1, order + 1)]
    h = reference_pmf(dist, 1 if dist.kind == "bernoulli" else len(dist.pmf) - 1)
    return [sum(v * math.perm(k, j) for k, v in enumerate(h)) for j in range(1, order + 1)]


def enumerate_survival(dist, u, horizon, claim_cap):
    """Exact finite-horizon survival by brute-force path enumeration.

    Sums P(z_1, ..., z_N) over all claim tuples with every partial surplus
    positive, claims capped at claim_cap (the dropped tail mass bounds the
    defect from below).  Exponential cost: keep horizon and cap tiny.
    """
    h = dist.pmf_prefix(claim_cap)

    def recurse(step, surplus, prob):
        if step > horizon:
            return prob
        total = Fraction(0)
        for z in range(claim_cap + 1):
            nxt = surplus + 2 - z
            if nxt >= 1 and h[z]:
                total += recurse(step + 1, nxt, prob * h[z])
        return total

    return recurse(1, u, Fraction(1))


def reference_table(dist, n_max):
    """x_0..x_N, y_0..y_N and D_0..D_{N-1} by the pmf recurrence in Fraction
    arithmetic, term by term (O(N^2) operations, each paying a gcd)."""
    h = dist.pmf_prefix(n_max)
    inv_h0 = 1 / h[0]
    x = [Fraction(1), Fraction(0)]
    y = [Fraction(0), Fraction(1)]
    for n in range(2, n_max + 1):
        sx = Fraction(0)
        sy = Fraction(0)
        for i in range(1, n):
            hv = h[n - i]
            if hv:
                sx += hv * x[i]
                sy += hv * y[i]
        x.append(inv_h0 * (x[n - 2] - sx))
        y.append(inv_h0 * (y[n - 2] - sy))
    d = []
    for n in range(n_max):
        det = x[n] * y[n + 1] - x[n + 1] * y[n]
        if n + 2 <= n_max:
            assert det == h[0] * (x[n] * x[n + 2] - x[n + 1] ** 2), n
        d.append(det)
    return x, y, d


def reference_minors(dist, n):
    """M_0..M_{n-1} by the product formula N_k N_{k+2} - N_{k+1}^2 on the
    integers N_k = q_0^(k+1) x_k, with x from reference_table."""
    q0 = dist.rational_pgf[2][0]
    x = reference_table(dist, n + 1)[0][: n + 2]
    scaled = [v * q0 ** (k + 1) for k, v in enumerate(x)]
    assert all(v.denominator == 1 for v in scaled)
    big = [v.numerator for v in scaled]
    return [big[k] * big[k + 2] - big[k + 1] ** 2 for k in range(n)]


def reference_limit(x, y, d, n):
    """The ratio route at index n on reduced-Fraction tables: the floats of
    (y_{n+1} - y_n)/D_n and (x_n - x_{n+1})/D_n."""
    return float((y[n + 1] - y[n]) / d[n]), float((x[n] - x[n + 1]) / d[n])


def reference_ratio(d, n):
    """asympt's ratio estimate D_n / D_{n-2} on reduced Fractions, floated."""
    return float(Fraction(d[n]) / Fraction(d[n - 2]))


def pgf_series(dist, n_max):
    """H(s) as a truncated series: the pmf prefix itself."""
    return dist.pmf_prefix(n_max)


def pgf_minus_s2_series(dist, n_max):
    """H(s) - s^2 as a truncated series."""
    coeffs = dist.pmf_prefix(n_max)
    if n_max >= 2:
        coeffs[2] -= 1
    return coeffs


def dense_times(a, b, n):
    """Coefficients 0..n-1 of a·b, every term of both multiplied."""
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def reference_identity_checks(dist, table, g, n_id=60):
    """verify's three series identities, densely on the pmf prefix:
    (H - s^2)X = H, (H - s^2)Y = h_0 s and (1 - s)G = H - s^2 through order
    n_id, with the table's x_n and y_n and the entries of g as reduced
    Fractions."""
    n = n_id + 1
    h = dist.pmf_prefix(n_id)
    den = pgf_minus_s2_series(dist, n_id)
    y_rhs = [Fraction(0), h[0]] + [Fraction(0)] * (n - 2)
    return {
        "y_identity": dense_times(den, table.y, n) == y_rhs,
        "series_matches_recurrence": dense_times(den, table.x, n) == h,
        "deflation_identity": dense_times([1, -1] + [0] * n_id, g, n) == den,
    }


def series_divide(numerator, denominator, n_max):
    """Quotient q with denominator*q = numerator through order n_max, by the
    forward recurrence q_n = (a_n - sum_{j=1..n} b_j q_{n-j}) / b_0 in
    Fraction arithmetic (O(N^2) operations); b_0 must be non-zero."""
    a, b = numerator, denominator
    assert len(a) > n_max and len(b) > n_max and b[0] != 0
    inv_b0 = 1 / Fraction(b[0])
    quot = []
    for n in range(n_max + 1):
        acc = a[n]
        for j in range(1, n + 1):
            if b[j]:
                acc -= b[j] * quot[n - j]
        quot.append(acc * inv_b0)
    return quot


def reference_xi(dist, alpha_rat, n_max):
    """Coefficients xi_0..xi_N of Xi = c(1 + alpha s)U by exact series
    division, U = 1/(H - s^2) and c = (2 - EZ)/(1 + alpha), with alpha the
    rational ``alpha_rat``; the alpha^n-sized terms of U cancel exactly."""
    den = pgf_minus_s2_series(dist, n_max)
    numerator = [Fraction(1)] + [Fraction(0)] * n_max
    u = series_divide(numerator, den, n_max)
    c = (2 - dist.mean()) / (1 + alpha_rat)
    return [c * u[0]] + [c * (u[k] + alpha_rat * u[k - 1]) for k in range(1, n_max + 1)]


def reference_refine_alpha(dist, bits):
    """alpha by Fraction bisection of H(s) - s^2 on [-1, 0], one exact p.g.f.
    evaluation per halving: -1/mid at a midpoint root, else the nearest
    fraction of denominator <= 2**(bits//2 - 1) when it is a root inside
    the final bracket, else -1/midpoint of that bracket."""
    lo, hi = Fraction(-1), Fraction(0)
    negative_lo = dist.pgf(lo) - lo * lo < 0
    for _ in range(bits):
        mid = (lo + hi) / 2
        fm = dist.pgf(mid) - mid * mid
        if fm == 0:
            return -1 / mid
        if (fm < 0) == negative_lo:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    near = mid.limit_denominator(2 ** max(0, bits // 2 - 1))
    if lo < near < hi and dist.pgf(near) - near * near == 0:
        return -1 / near
    return -1 / mid


def reference_zero(q: list[int], bracket: Bracket, bits: int) -> tuple[Fraction, Fraction, Bracket]:
    """The halving loop ``roots._zero`` replaced by Newton doubling, kept as
    its reference.

    (s, width, state) for the one zero of Q in ``bracket``, halved down
    to width 2**-bits: s exactly with width 0 when that root is hit, else
    the midpoint of the final bracket, and the state to continue from.

    In (neg, pos, k) the zero lies between neg/2^k and pos/2^k, with Q < 0
    towards neg and Q > 0 towards pos; k = 0 for the unit intervals.  Each
    halving signs the midpoint (neg + pos)/2^(k+1) exactly by ``_value``,
    so a continued bracket is the one a fresh bisection reaches.

    A rational root whose denominator is at most 2**(bits//2 - 1) is hit:
    two such fractions lie at least 2**(2 - bits) apart, so the nearest one
    to the midpoint is the only one the bracket can hold.
    """
    if isinstance(bracket, Fraction):
        return bracket, Fraction(0), bracket
    neg, pos, k = bracket
    for k in range(k + 1, bits + 1):
        mid = neg + pos
        neg, pos = 2 * neg, 2 * pos
        v = _value(q, mid, 1 << k)
        if not v:
            root = Fraction(mid, 1 << k)
            return root, Fraction(0), root
        if v > 0:
            pos = mid
        else:
            neg = mid
    mid, width = Fraction(neg + pos, 1 << (k + 1)), Fraction(1, 1 << k)
    near = mid.limit_denominator(2 ** max(0, k // 2 - 1))
    if abs(near - mid) < width / 2 and _value(q, near.numerator, near.denominator) == 0:
        return near, Fraction(0), near
    return mid, width, (neg, pos, k)


def reference_phi_half(dist, p0, p1, u_max):
    """phi(0..u_max) of an even-lattice law through the income-rate-1 half
    process, as exact Fractions (O(u_max^2) operations).

    With hh the law of Z/2, psi(1) = p1 and
    psi(v + 1) = (psi(v) - sum_{k=1..v} hh_{v+1-k} psi(k)) / hh_0, then
    phi(0) = p0 and phi(2v - 1) = phi(2v) = psi(v).  This is the survival
    table when p1 = p0/h_0, as the closed form has.
    """
    m = (u_max + 1) // 2
    hh = ClaimDistribution.tabulated(dist.pmf[::2]).pmf_prefix(m + 1)
    psi = [Fraction(p0), Fraction(p1)]  # psi[0] is never read by the recursion
    for v in range(1, m):
        acc = psi[v]
        for k in range(1, v + 1):
            if hh[v + 1 - k]:
                acc -= hh[v + 1 - k] * psi[k]
        psi.append(acc / hh[0])
    return [psi[0]] + [psi[(u + 1) // 2] for u in range(1, u_max + 1)]


def reference_phi_table(dist, phi0, phi1, u_max):
    """phi(0..u_max) = x_u phi(0) + y_u phi(1) as reduced Fractions, one per
    entry, from the integer numerators: (N_u p0 + N_{u+1} p1/r_0) / q_0^(u+1)."""
    table = _integer_table(dist, u_max)
    big, q0 = table.numerators, table.q0
    p0, c1 = Fraction(phi0), Fraction(phi1) / table.r0
    out = []
    den = q0
    for u in range(u_max + 1):
        out.append((big[u] * p0 + big[u + 1] * c1) / den)
        den *= q0
    return out


def reference_survivors(u, cfg, start, count, cdf):
    """Survivors among trials [start, start + count) of a Monte Carlo run,
    stepping every trial: a Generator on the step's Philox counter plane
    draws all ``count`` uniforms, each maps to a claim by binary search, and
    ruined trials are masked, not removed."""
    w = np.full(count, u, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    for step in range(1, cfg.horizon + 1):
        bitgen = np.random.Philox(key=np.uint64(cfg.seed), counter=(step << 128) + (start >> 2))
        uniforms = np.random.Generator(bitgen).random(count)
        claims = np.searchsorted(cdf, uniforms, side="right")
        w = np.where(alive, w + 2 - claims, w)
        alive &= w >= 1
        if not alive.any():
            break
    return int(alive.sum())


def reference_dp(dist, u, horizon, cap=None):
    """(value, cap_absorbed) of the finite-horizon DP over every surplus state
    1..cap at every step (cap defaults to u + 2 * horizon, which no state can
    pass): the dense loop, with no window and no dropped mass."""
    cap = u + 2 * horizon if cap is None else cap
    k_top = min(dist.truncation_index(), cap + 1)
    h = np.array([float(v) for v in dist.pmf_prefix(k_top)], dtype=np.float64)
    hr = h[::-1].copy()
    # v[i] = P(alive, surplus = i + 1); first step from the deterministic u
    absorbed = 0.0
    v = np.zeros(u + 2, dtype=np.float64)
    for z in range(min(k_top, u + 1) + 1):
        v[u + 1 - z] += h[z]
    for _ in range(2, horizon + 1):
        conv = np.convolve(v, hr)
        # conv[t] collects all mass landing on surplus j = t + 3 - k_top
        t_lo = k_top - 2  # j = 1
        t_hi = t_lo + cap  # first index with j > cap
        if t_hi < len(conv):
            absorbed += float(conv[t_hi:].sum())
        seg = conv[max(0, t_lo):t_hi]
        v = seg if t_lo >= 0 else np.concatenate([np.zeros(-t_lo), seg])
    return float(v.sum()) + absorbed, absorbed


def naive_chain(d, strict):
    """The determinant chain 1 <= D_0 <= D_2 <= ... and ... <= D_3 <= D_1 <= -1
    on D_0..D_N, one inequality at a time.

    Returns ``(violation, margins, failures)``: the smallest index whose level
    or step inequality fails (None when none does); the tightest slack of the
    even-level, odd-level, even-step and odd-step inequalities (1 for a kind
    that never applies); and the pairs n whose four inequalities
    1 < D_2n, D_2n < D_2n+2, D_2n+1 < -1, D_2n+3 < D_2n+1 do not all hold
    (<= in place of < unless ``strict``; always 1 <= D_0, which is 1 exactly).
    """
    top = len(d) - 1
    bad = []
    even_level, odd_level, even_step, odd_step = [], [], [], []
    for n in range(0, top + 1, 2):
        even_level.append(d[n] - 1)
        if not d[n] >= 1:
            bad.append(n)
        if n + 2 <= top:
            even_step.append(d[n + 2] - d[n])
            if not d[n + 2] >= d[n]:
                bad.append(n + 2)
    for n in range(1, top + 1, 2):
        odd_level.append(-1 - d[n])
        if not d[n] <= -1:
            bad.append(n)
        if n + 2 <= top:
            odd_step.append(d[n] - d[n + 2])
            if not d[n + 2] <= d[n]:
                bad.append(n + 2)
    margins = tuple(
        min(m) if m else Fraction(1) for m in (even_level, odd_level, even_step, odd_step)
    )

    def below(a, b, weak=False):
        return a < b if strict and not weak else a <= b

    failures = [
        n
        for n in range((top - 3) // 2 + 1)
        if not (
            below(1, d[2 * n], weak=n == 0)
            and below(d[2 * n], d[2 * n + 2])
            and below(d[2 * n + 1], -1)
            and below(d[2 * n + 3], d[2 * n + 1])
        )
    ]
    return (min(bad) if bad else None), margins, failures


def _reference_jsonable(value):
    """Recursively convert to JSON-safe values with deterministic numbers."""
    if isinstance(value, float):
        return float_str(value)
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _reference_jsonable(getattr(value, k)) for k in value.__dataclass_fields__}
    return str(value)


def _reference_flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _reference_flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _reference_flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def reference_render(report, fmt="json"):
    """The two-pass report renderer ``cli.render_report`` replaced, kept as
    its reference: convert the whole report to JSON-safe values (floats
    and Fractions as strings), then json.dumps it sorted with indent 2, or
    flatten it to "key,value" csv rows."""
    payload = _reference_jsonable(report)
    if fmt == "csv":
        rows = []
        _reference_flatten("", payload, rows)
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
