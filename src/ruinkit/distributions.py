"""Claim-size laws for the discrete-time risk model W(n) = u + 2n - sum(Z_i).

A claim law is a non-negative integer random variable Z with probabilities
h_k = P(Z = k), represented either as a finite tabulated pmf or as a named
analytic family (Bernoulli, Geometric).  Everything downstream needs exactly
four things from Z: rational pmf prefixes h_0..h_n, the probability
generating function H(s) = sum h_k s^k and its derivatives, moments at s = 1,
and primitivity (whether any odd-index probability is positive).

Two construction invariants are enforced: h_0 > 0 (otherwise the model order
can be reduced by shifting every claim down by one) and P(Z = 2) < 1 (the
degenerate law makes the surplus constant and the whole analysis trivial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._scalars import RationalLike, as_fraction, fraction_str

#: claim-tail mass below which an infinite-support law is truncated
TAIL_EPSILON = 1e-16


class DistributionError(ValueError):
    """Raised when a claim law violates a construction invariant."""


#: the parameter field of each named family in a JSON spec
_FAMILY_FIELD = {"bernoulli": "p", "geometric": "p", "even_lattice": "base"}


@dataclass(frozen=True)
class MomentReport:
    """Moments of Z and derivatives of its p.g.f. at s = 1.

    ``derivatives[j-1]`` holds H^(j)(1) for 1 <= j <= max_order, as an exact
    Fraction.
    Moments are recovered from the factorial moments H^(j)(1) via Stirling
    numbers of the second kind: E Z^2 = H''(1) + H'(1), and so on.
    """

    mean: Fraction | float
    m2: Fraction | float | None = None
    m3: Fraction | float | None = None
    m4: Fraction | float | None = None
    derivatives: tuple = ()

    def derivative(self, order: int) -> Fraction | float:
        if not 1 <= order <= len(self.derivatives):
            raise ValueError(f"derivative order {order} not computed")
        return self.derivatives[order - 1]


@dataclass(frozen=True)
class ClaimDistribution:
    """Immutable claim law; construct via the classmethods below.

    kind is one of "tabulated", "bernoulli", "geometric", "even_lattice".
    Tabulated and even-lattice laws carry their full pmf; the named families
    carry the success parameter p and answer everything in closed form.
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
        is imprimitive by construction: its closed-form initial values are
        alpha-free, and the root and asymptotic routes reject it.
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

    # -- pmf access ------------------------------------------------------

    def hk(self, k: int) -> Fraction:
        """Exact probability h_k = P(Z = k)."""
        if k < 0:
            raise ValueError("claim sizes are non-negative")
        if self.kind == "bernoulli":
            if k == 0:
                return 1 - self.p
            return self.p if k == 1 else Fraction(0)
        if self.kind == "geometric":
            return self.p * (1 - self.p) ** k
        return self.pmf[k] if k < len(self.pmf) else Fraction(0)

    def pmf_prefix(self, n: int) -> list[Fraction]:
        """Exact rationals h_0..h_n (zero-padded beyond finite support)."""
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        if self.kind == "geometric":
            q = 1 - self.p
            out = [self.p]
            for _ in range(n):
                out.append(out[-1] * q)
            return out
        return [self.hk(k) for k in range(n + 1)]

    @property
    def support_bound(self) -> int | None:
        """Largest k with h_k > 0, or None for infinite support."""
        if self.kind == "geometric":
            return None
        if self.kind == "bernoulli":
            return 1
        last = 0
        for k, v in enumerate(self.pmf):
            if v:
                last = k
        return last

    def tail_mass(self, k: int) -> Fraction:
        """Exact P(Z > k) = 1 - (h_0 + ... + h_k); (1 - p)^(k+1) for the
        geometric law, whose long prefix sums cost far more in Fractions."""
        if self.kind == "geometric":
            return (1 - self.p) ** (k + 1)
        return 1 - sum(self.pmf_prefix(k))

    def truncation_index(self) -> int:
        """Smallest K with P(Z > K) < TAIL_EPSILON; identity on finite support."""
        if self.support_bound is not None:
            return self.support_bound
        # solve q^(K+1) < TAIL_EPSILON exactly by stepping from a log estimate
        k = max(0, int(math.log(TAIL_EPSILON) / math.log(float(1 - self.p))) - 2)
        while self.tail_mass(k) >= TAIL_EPSILON:
            k += 1
        return k

    # -- generating function ----------------------------------------------

    def pgf(self, s):
        """H(s) = sum h_k s^k for |s| <= 1.

        Exact for Fraction arguments, floating for float arguments.  Named
        families evaluate their closed forms (q + p s, p/(1 - q s)); tabulated
        laws evaluate their polynomial by Horner's rule.
        """
        if isinstance(s, float) and not -1.0 <= s <= 1.0:
            raise ValueError(f"p.g.f. evaluated only on [-1, 1], got {s}")
        if self.kind == "bernoulli":
            return (1 - self.p) + self.p * s
        if self.kind == "geometric":
            q = 1 - self.p
            return self.p / (1 - q * s)
        acc = self.pmf[-1] * 1  # keep Fraction/float promotion symmetric
        for c in reversed(self.pmf[:-1]):
            acc = acc * s + c
        return acc

    def pgf_derivative(self, s, order: int = 1):
        """H^(order)(s) for |s| <= 1; exact for Fraction arguments."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if self.kind == "bernoulli":
            if order == 1:
                return self.p * 1 if isinstance(s, Fraction) else float(self.p)
            return Fraction(0) if isinstance(s, Fraction) else 0.0
        if self.kind == "geometric":
            q = 1 - self.p
            value = self.p * math.factorial(order) * q**order / (1 - q * s) ** (order + 1)
            return value
        coeffs = [
            self.pmf[n] * math.perm(n, order)
            for n in range(order, len(self.pmf))
        ]
        if not coeffs:
            return Fraction(0) if isinstance(s, Fraction) else 0.0
        acc = coeffs[-1] * 1
        for c in reversed(coeffs[:-1]):
            acc = acc * s + c
        return acc

    def pgf_derivatives_at_one(self, max_order: int = 4) -> MomentReport:
        """Derivatives H^(j)(1), 1 <= j <= max_order, and the moments E Z^j,
        all exact: every kind has finite moments of every order."""
        if max_order not in (1, 2, 3, 4):
            raise ValueError("max_order must be between 1 and 4")
        if self.kind == "bernoulli":
            derivs = [self.p, Fraction(0), Fraction(0), Fraction(0)]
        elif self.kind == "geometric":
            ratio = (1 - self.p) / self.p
            derivs = [math.factorial(k) * ratio**k for k in range(1, 5)]
        else:
            derivs = [
                sum(
                    (self.pmf[n] * math.perm(n, j) for n in range(j, len(self.pmf))),
                    Fraction(0),
                )
                for j in range(1, 5)
            ]
        derivs = derivs[:max_order]
        d = derivs + [None] * (4 - len(derivs))
        mean = d[0]
        m2 = d[1] + d[0] if d[1] is not None else None
        m3 = d[2] + 3 * d[1] + d[0] if d[2] is not None else None
        m4 = d[3] + 6 * d[2] + 7 * d[1] + d[0] if d[3] is not None else None
        return MomentReport(mean=mean, m2=m2, m3=m3, m4=m4, derivatives=tuple(derivs))

    def mean(self) -> Fraction:
        """E Z = H'(1), exact."""
        return self.pgf_derivatives_at_one(1).mean

    # -- structure ---------------------------------------------------------

    def is_primitive(self) -> bool:
        """True iff P(Z odd) > 0, i.e. H(s) - s^2 has no lattice reduction.

        Named families answer analytically (h_1 = pq > 0 in both); tabulated
        laws scan their finite support.
        """
        if self.kind in ("bernoulli", "geometric"):
            return True
        return any(self.pmf[k] for k in range(1, len(self.pmf), 2))

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
