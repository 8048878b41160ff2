"""Shared scalar helpers: rational parsing and deterministic number formatting.

Exact computations run on `fractions.Fraction`; floating results are
serialized with 17 significant digits so that reports round-trip losslessly
and diff cleanly.
"""

from __future__ import annotations

from fractions import Fraction

RationalLike = int | str | Fraction

#: the scalar mode of exact tables: rationals (Fraction)
EXACT = "exact"


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce an int, Fraction, or "num/den" / decimal string to a Fraction.

    Binary floats are rejected: exactness downstream depends on rational
    literals, and a float like 0.1 silently carries its binary rounding.
    """
    if isinstance(value, bool):
        raise TypeError(f"{what} must be rational, got bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what}: cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"{what} must be an int, Fraction, or 'num/den' string, not a float; "
            f"pass Fraction({value!r}).limit_denominator(...) explicitly if intended"
        )
    raise TypeError(f"{what} must be rational, got {type(value).__name__}")


def fraction_str(x: Fraction) -> str:
    """Serialize a Fraction as "num/den" (or "num" for integers)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def float_str(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")

