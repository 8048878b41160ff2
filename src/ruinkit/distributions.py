"""Claim-size laws for the discrete-time risk model W(n) = u + 2n - sum(Z_i).

A claim law is a non-negative integer random variable Z with probabilities
h_k = P(Z = k), built from a finite tabulated pmf, an even-lattice doubling
of one, or a named family (Bernoulli, Geometric).  Every such law has a
rational p.g.f. H(s) = sum h_k s^k = P(s)/R(s) with integer polynomials:
R = L and P = L*H for finite support (L the lcm of the denominators), and
P = a, R = b - (b-a)s for geometric(a/b).  The construction record is read
once, to build the pair (P, R) and Q = P - s^2 R (``rational_pgf``); the
pmf prefixes, tail masses, p.g.f. values, the mean, and primitivity
(whether any odd-index probability is positive) are all derived from the
pair.  One integer stream, ``_numerators``, steps every rational series of
the package: h_k of P/R, P(Z > k) of U/R, and elsewhere x_n and phi(u) of
P/Q, the Laurent constants at s = 1 and the oracles' float claim tables.

Two construction invariants are enforced: h_0 > 0 (otherwise the model order
can be reduced by shifting every claim down by one) and P(Z = 2) < 1 (the
degenerate law makes the surplus constant and the whole analysis trivial).
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat, zip_longest

from ._scalars import RationalLike, as_fraction, fraction_str

#: claim-tail mass below which an infinite-support law is truncated
TAIL_EPSILON = 1e-16


class DistributionError(ValueError):
    """Raised when a claim law violates a construction invariant."""


#: the parameter field of each named family in a JSON spec
_FAMILY_FIELD = {"bernoulli": "p", "geometric": "p", "even_lattice": "base"}


@dataclass(frozen=True)
class ClaimDistribution:
    """Immutable claim law; construct via the classmethods below.

    kind is one of "tabulated", "bernoulli", "geometric", "even_lattice".
    Tabulated and even-lattice laws record their full pmf, the named families
    their success parameter p; everything else is derived from the integer
    pair ``rational_pgf`` built from that record.
    """

    kind: str
    pmf: tuple[Fraction, ...] | None = None
    p: Fraction | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def tabulated(cls, pmf) -> "ClaimDistribution":
        """Finite-support law from a list of rationals h_0..h_m summing to 1."""
        values = tuple(as_fraction(v, "pmf entry") for v in pmf)
        dist = cls(kind="tabulated", pmf=values)
        dist._validate()
        return dist

    @classmethod
    def bernoulli(cls, p: RationalLike) -> "ClaimDistribution":
        """P(Z=1) = p = 1 - P(Z=0), with rational p in (0,1)."""
        pr = as_fraction(p, "p")
        if not 0 < pr < 1:
            raise DistributionError(f"bernoulli parameter must lie in (0,1), got {pr}")
        return cls(kind="bernoulli", p=pr)

    @classmethod
    def geometric(cls, p: RationalLike) -> "ClaimDistribution":
        """P(Z=k) = p(1-p)^k for k >= 0, with rational p in (0,1)."""
        pr = as_fraction(p, "p")
        if not 0 < pr < 1:
            raise DistributionError(f"geometric parameter must lie in (0,1), got {pr}")
        return cls(kind="geometric", p=pr)

    @classmethod
    def even_lattice(cls, base) -> "ClaimDistribution":
        """Law of 2*B for a tabulated base law B: support on the even lattice.

        Accepts a tabulated ClaimDistribution or a pmf list for B; the result
        is imprimitive by construction: H(-1) = 1, so its closed-form
        initial values take alpha = 1, and the root and asymptotic routes
        reject it.
        """
        if isinstance(base, ClaimDistribution):
            if base.kind not in ("tabulated", "even_lattice"):
                raise DistributionError("even_lattice base must be a tabulated law")
            base_pmf = base.pmf
        else:
            base_pmf = tuple(as_fraction(v, "base pmf entry") for v in base)
        doubled: list[Fraction] = []
        for v in base_pmf:
            doubled.append(v)
            doubled.append(Fraction(0))
        dist = cls(kind="even_lattice", pmf=tuple(doubled[:-1]))
        dist._validate()
        return dist

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        pmf = self.pmf
        assert pmf is not None
        if not pmf:
            raise DistributionError("pmf must be non-empty")
        if any(v < 0 for v in pmf):
            raise DistributionError("pmf entries must be non-negative")
        if pmf[0] <= 0:
            raise DistributionError("h_0 = P(Z=0) must be positive")
        if sum(pmf) != 1:
            raise DistributionError(f"pmf must sum to 1 exactly, got {sum(pmf)}")
        if self.hk(2) >= 1:
            raise DistributionError("degenerate law P(Z=2) = 1 is excluded")

    # -- the integer pair and pmf access ------------------------------------

    @cached_property
    def rational_pgf(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Integer coefficients (lowest degree first) of P, R and Q = P - s^2 R,
        with H = P/R, R(0) > 0 and no trailing zero in P."""
        if self.kind == "geometric":
            a, b = self.p.numerator, self.p.denominator
            p, r = [a], [b, a - b]
        else:
            h = [1 - self.p, self.p] if self.kind == "bernoulli" else list(self.pmf)
            while not h[-1]:
                h.pop()
            lcm = math.lcm(*(v.denominator for v in h))
            p, r = [v.numerator * (lcm // v.denominator) for v in h], [lcm]
        q = p + [0] * (len(r) + 2 - len(p))
        for k, rk in enumerate(r):
            q[k + 2] -= rk
        return tuple(p), tuple(r), tuple(q)

    def hk(self, k: int) -> Fraction:
        """Exact probability h_k = P(Z = k), k >= 0."""
        return _coefficient(*self.rational_pgf[:2], k)

    def pmf_prefix(self, n: int) -> list[Fraction]:
        """Exact rationals h_0..h_n (zero-padded beyond finite support), each
        G_k / r_0^(k+1) off the stream of (P, R), reduced only when nonzero."""
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        p, r, _q = self.rational_pgf
        stream = zip(range(n + 1), _numerators(p, r))
        return [Fraction(g, r[0] ** (k + 1)) if g else Fraction(0) for k, g in stream]

    @property
    def support_bound(self) -> int | None:
        """Largest k with h_k > 0 (deg P for constant R), or None for
        infinite support."""
        p, r, _q = self.rational_pgf
        return len(p) - 1 if len(r) == 1 else None

    def tail_mass(self, k: int) -> Fraction:
        """Exact P(Z > k), coefficient k of U/R off the stream of (U, R), where
        U = (R - P)/(1 - s) sums R - P, a polynomial as R(1) = P(1).

        Past deg U a linear R leaves one pole: each step multiplies by
        theta = -r_1/r_0, so the tail there is one power, not a long series.
        """
        p, r, _q = self.rational_pgf
        u = list(accumulate(a - b for a, b in zip_longest(r, p, fillvalue=0)))[:-1]
        top = len(u) - 1
        if k > top and len(r) == 2:
            return _coefficient(u, r, top) * Fraction(-r[1], r[0]) ** (k - top)
        return _coefficient(u, r, k)

    def truncation_index(self, at_most: int | None = None) -> int:
        """Smallest K with P(Z > K) < TAIL_EPSILON; identity on finite support.

        With ``at_most``, min(K, at_most), stepping no exact tail past
        at_most: a slowly decaying law has its K far out (about 3.7·10**6 for
        geometric(1/100000)), where each tail has millions of digits.
        """
        stop = math.inf if at_most is None else at_most
        if self.support_bound is not None:
            return min(self.support_bound, stop)
        # the tail is c theta^k from k = deg U on (see tail_mass): step up
        # exactly from one short of the log estimate of its crossing
        p, r, _q = self.rational_pgf
        top, log_theta = max(len(p), len(r)) - 2, math.log(Fraction(-r[1], r[0]))
        log_c = math.log(self.tail_mass(top)) - top * log_theta
        k = max(0, int((math.log(TAIL_EPSILON) - log_c) / log_theta) - 1)
        while k < stop and self.tail_mass(k) >= TAIL_EPSILON:
            k += 1
        return min(k, stop)

    # -- generating function ----------------------------------------------

    def pgf(self, s):
        """H(s) = P(s)/R(s) for |s| <= 1, as one quotient of integers: exact
        for Fraction arguments; a float argument is evaluated exactly and the
        result rounded once."""
        if isinstance(s, float) and not -1.0 <= s <= 1.0:
            raise ValueError(f"p.g.f. evaluated only on [-1, 1], got {s}")
        n, d = s.as_integer_ratio()
        p, r, _q = self.rational_pgf
        value = Fraction(_value(p, n, d) * d ** (len(r) - 1), _value(r, n, d) * d ** (len(p) - 1))
        return float(value) if isinstance(s, float) else value

    def mean(self) -> Fraction:
        """E Z = H'(1) = (P'(1) - R'(1))/R(1), exact, as P(1) = R(1)."""
        p, r, _q = self.rational_pgf
        dp, dr = (sum(k * c for k, c in enumerate(f)) for f in (p, r))
        return Fraction(dp - dr, sum(r))

    # -- structure ---------------------------------------------------------

    def is_primitive(self) -> bool:
        """True iff P(Z odd) > 0, i.e. H(s) - s^2 has no lattice reduction:
        iff H(s) != H(-s), i.e. iff F(s) = P(s)R(-s) has an odd coefficient."""
        p, r, _q = self.rational_pgf
        f = [0] * (len(p) + len(r) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(r):
                f[i + j] += a * b * (-1) ** j
        return any(f[1::2])

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "ClaimDistribution":
        """Build from the JSON spec format.

        Accepted shapes::

            {"family": "bernoulli", "p": "1/2"}
            {"family": "geometric", "p": "1/3"}
            {"pmf": ["1/3", "1/3", "1/3"]}
            {"family": "even_lattice", "base": {"pmf": ["1/2", "1/2"]}}

        Rationals are "num/den" strings (or integers).  A field the shape
        does not carry, at the top level or in a ``base``, is an error.
        """
        if not isinstance(spec, dict):
            raise DistributionError(f"distribution spec must be an object, got {type(spec).__name__}")
        unknown = sorted(set(spec) - {"pmf", "family", "p", "base"})
        if unknown:
            raise DistributionError(f"unknown field(s) {unknown} in distribution spec")
        family = spec.get("family")
        field = "pmf" if "pmf" in spec else _FAMILY_FIELD.get(family)
        if field is None:
            raise DistributionError(
                f"unrecognized distribution spec: expected field 'pmf' or 'family' in "
                f"{{bernoulli, geometric, even_lattice}}, got {sorted(spec)}"
            )
        conflicting = sorted(set(spec) - ({"pmf"} if field == "pmf" else {"family", field}))
        if conflicting:
            raise DistributionError(f"field(s) {conflicting} conflict with field {field!r}")
        if field == "pmf":
            if not isinstance(spec["pmf"], list):
                got = type(spec["pmf"]).__name__
                raise DistributionError(f"field 'pmf' must be an array, got {got}")
            return cls.tabulated(spec["pmf"])
        if field not in spec:
            raise DistributionError(f"field {field!r} is required for family {family!r}")
        if family == "even_lattice":
            base = cls.from_spec(spec["base"])
            if base.kind != "tabulated":
                raise DistributionError("even_lattice base must be a tabulated law")
            return cls.even_lattice(base)
        return getattr(cls, family)(spec["p"])

    def to_spec(self) -> dict:
        if self.kind in ("bernoulli", "geometric"):
            return {"family": self.kind, "p": fraction_str(self.p)}
        if self.kind == "even_lattice":
            return {"family": "even_lattice", "base": {"pmf": [fraction_str(v) for v in self.pmf[::2]]}}
        return {"pmf": [fraction_str(v) for v in self.pmf]}

    def label(self) -> str:
        if self.kind in ("bernoulli", "geometric"):
            return f"{self.kind}({fraction_str(self.p)})"
        body = ",".join(fraction_str(v) for v in self.pmf)
        return f"pmf[{body}]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


def _numerators(num, den, c0: int = 1, c1: int = 0) -> Iterator[int]:
    """F_n = c0 G_n + c1 G_{n+1}, n >= 0, with G_n = den_0^(n+1) [s^n](num/den)
    for integer coefficient lists (lowest degree first) with den_0 != 0.

    Scaling den_0 g_n = num_n - sum_k den_k g_{n-k} by den_0^n gives the
    integer recurrence G_n = a_n - sum_k s_k G_{n-k}, with head
    a_n = num_n den_0^n, steps s_k = den_k den_0^(k-1) and G_n = 0 for n < 0.
    G_{n+1} follows the same steps from the head a_{n+1} - s_{n+1} a_0, so F
    does too, from c0 a_n + c1 (a_{n+1} - s_{n+1} a_0): every entry costs
    deg den small-by-big products, and only the last deg den values of F are
    alive; on infinite support time stays quadratic in n, as den_0^(n+1) grows.
    """
    den0, width = den[0], len(den) - 1
    n_head = max(len(num), width)
    a = [v * den0**n for n, v in enumerate(num)] + [0] * (n_head + 1 - len(num))
    s = [0] + [den[k] * den0 ** (k - 1) for k in range(1, len(den))] + [0] * (n_head + 1 - width)
    head = [c0 * a[n] + c1 * (a[n + 1] - s[n + 1] * a[0]) for n in range(n_head)]
    steps = [(k, c) for k, c in enumerate(s) if c]
    last = deque([0] * width, maxlen=width)
    for f in chain(head, repeat(0)):
        for k, c in steps:
            f -= c * last[-k]
        yield f
        last.append(f)


def _times_one_minus_s(poly) -> list[int]:
    """The coefficients of (1 - s)·poly.  With den_0 unchanged, the stream of
    (num, (1 - s)den) is the running sum C_k = den_0 C_{k-1} + G_k of the
    stream G of (num, den)."""
    return [a - b for a, b in zip([*poly, 0], [0, *poly])]


def _coefficient(num, den, k: int) -> Fraction:
    """[s^k](num/den) = G_k / den_0^(k+1) as one reduced Fraction."""
    g = next(islice(_numerators(num, den), k, None))
    return Fraction(g, den[0] ** (k + 1)) if g else Fraction(0)


def _value(poly, num: int, den: int) -> int:
    """poly(num/den)·den^(deg poly), by homogeneous Horner in integers; for
    den > 0 it has the sign of poly(num/den)."""
    acc, scale = poly[-1], 1
    for c in reversed(poly[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc
