"""The paper's generating-function identities, checked in integers.

The survival recursion phi(u) = x_u phi(0) + y_u phi(1) is driven by
X = H/(H - s^2) and Y = h_0 s/(H - s^2), and the root of H - s^2 at s = 1
deflates to G = (H - s^2)/(1 - s), with G(1) = 2 - H'(1).  Multiplied by R
(H = P/R) they read Q X = P, Q Y = h_0 s R and (1 - s)R G = Q, with
Q = P - s^2 R.  The recurrence module computes X and Y as integer
numerators; ``identity_checks`` multiplies all three back, each by one
integer check, ``_solves``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, zip_longest
from operator import add

from .distributions import ClaimDistribution, _numerators, _times_one_minus_s


def deflate_G(dist: ClaimDistribution, n_max: int) -> list[Fraction]:
    """Coefficients g_0..g_{n_max} of G(s) = (H(s) - s^2)/(1 - s).

    Dividing out the root at s = 1 gives cumulative-sum coefficients:
    g_n = h_0 + ... + h_n for n < 2 and g_n = -1 + (h_0 + ... + h_n) for
    n >= 2, so g_n >= 0 ahead of the income index and g_n <= 0 after it.
    G(1) = 2 - H'(1).  The Fraction view of ``_deflation``: g_k is C_k over
    r_0^(k+1).
    """
    r0 = dist.rational_pgf[1][0]
    return [Fraction(c, r0 ** (k + 1)) for k, c in enumerate(_deflation(dist, n_max))]


def _deflation(dist: ClaimDistribution, n_max: int) -> list[int]:
    """C_0..C_{n_max}, the stream of (Q, (1 - s)R): with G_k = r_0^(k+1) h_k
    the numerators of (P, R), C_k = r_0 C_{k-1} + G_k - [k >= 2] r_0^(k+1)."""
    _p, r, q = dist.rational_pgf
    return list(islice(_numerators(q, _times_one_minus_s(r)), n_max + 1))


def _solves(den, stream, num, d0: int, n: int) -> bool:
    """Whether den·v = num through order n - 1, for v_k = stream_k / d0^(k+1)
    and integer polynomials den and num: scaled by d0^(k+1), coefficient k
    reads sum_j den_j d0^j stream_{k-j} = d0^(k+1) num_k.  One pass over the
    stream (at least n entries) per nonzero coefficient of den."""
    lhs = [0] * n
    for j, c in enumerate(den[:n]):
        if c:
            w = c * d0**j
            lhs[j:] = map(add, lhs[j:], [w * v for v in stream[: n - j]])
    return lhs == [c * d0 ** (k + 1) for k, c in enumerate(num[:n])] + [0] * (n - len(num))


def identity_checks(dist: ClaimDistribution, table) -> dict:
    """X, Y and G through order 60 against the law's pair (P, R), for a
    table of horizon at least 60, with the parity monotonicity of x_0..x_60.

    As R(0) = r_0 != 0, each product form holds through order 60 exactly
    when the form in H does, and a truncated table satisfies it exactly when
    it is the series quotient.  Q is formed here from P and R, not read from
    rational_pgf, which built the table.  x_n = N_n / q_0^(n+1) and
    r_0 y_n = N_{n+1} / q_0^(n+1), with h_0 = q_0/r_0, and g_k = C_k / r_0^(k+1).
    """
    n, big, q0 = 61, table.numerators, table.q0
    p, r, _q = dist.rational_pgf
    q = [a - b for a, b in zip_longest(p, [0, 0, *r], fillvalue=0)]
    return {
        # y read against h_0 s rather than through y_n = h_0 x_{n+1}
        "y_identity": _solves(q, big[1:], [0, *(q0 * c for c in r)], q0, n),
        # x_{2k} >= 1 rising and x_{2k+1} <= 0 falling
        "parity_monotone": all(
            big[2 * k] >= q0 ** (2 * k + 1) and big[2 * k + 2] >= q0 * q0 * big[2 * k]
            for k in range(30)
        ) and all(
            big[2 * k + 1] <= 0 and big[2 * k + 3] <= q0 * q0 * big[2 * k + 1] for k in range(29)
        ),
        "series_matches_recurrence": _solves(q, big, p, q0, n),
        "deflation_identity": _solves(_times_one_minus_s(r), _deflation(dist, 60), q, r[0], n),
    }
