"""Exact scalar kernel: rationals, half-integers, signs, Beta values.

Every sign decision in this package is made on exact rationals; floating
point enters only as a magnitude backend (log-Gamma) and as an independent
numerical check (adaptive quadrature of the defining integral).  Both
backends return ``None`` exactly when that integral has no finite value,
decided on exact rationals: divergence is data, not an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int]

__all__ = [
    "RationalLike",
    "parse_rational",
    "HalfInt",
    "Sign",
    "beta_value",
    "quadrature_integral",
]


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' exactly: ASCII digits, an optional leading '-',
    no inner spaces; outer whitespace is ignored.  Anything else (decimals,
    floats, '+3', '1_0', '1/-2', non-ASCII digits, q = 0) is refused."""
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not an exact rational: {text!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as its double so index arithmetic is exact.

    Even-parity basis indices have even ``twice``; odd-parity ones odd.
    """

    twice: int

    @classmethod
    def of(cls, x: "HalfInt | RationalLike") -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        q = Fraction(x)
        if q.denominator not in (1, 2):
            raise ValueError(f"{x} is not an integer or half integer")
        return cls(int(q * 2))

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, k: int) -> "HalfInt":
        return HalfInt(self.twice + 2 * k)

    def __sub__(self, k: int) -> "HalfInt":
        return HalfInt(self.twice - 2 * k)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


class Sign(Enum):
    """Sign of an exactly tracked quantity; POLE is the sign of ``None``, which
    stands for no finite value (a continuation pole or a divergent integral)."""

    POSITIVE = "+"
    NEGATIVE = "-"
    ZERO = "0"
    POLE = "pole"

    @classmethod
    def of(cls, x: Optional[RationalLike]) -> "Sign":
        if x is None:
            return cls.POLE
        if x > 0:
            return cls.POSITIVE
        if x < 0:
            return cls.NEGATIVE
        return cls.ZERO

    def __neg__(self) -> "Sign":
        if self is Sign.POSITIVE:
            return Sign.NEGATIVE
        if self is Sign.NEGATIVE:
            return Sign.POSITIVE
        return self


def beta_value(a: RationalLike, b: RationalLike) -> Optional[float]:
    """Gamma(a)Gamma(b)/Gamma(a+b) = int_0^inf u^(a-1) (1+u)^(-a-b) du, via log-Gamma.

    The integral converges exactly when a > 0 and b > 0 (decided on exact
    rationals); otherwise None is returned.
    """
    if not (a > 0 and b > 0):
        return None
    af, bf = float(a), float(b)
    return math.exp(math.lgamma(af) + math.lgamma(bf) - math.lgamma(af + bf))


def _half_integral(a: float, t: float) -> float:
    # int_0^1 u^(a-1) (1+u)^(-t) du; the u^(a-1) endpoint singularity is
    # integrable for a > 0 and is resolved by the adaptive subdivision.
    # scipy is imported here, not at module top: only the quadrature
    # cross-checks need it, and it is most of the package's import time.
    from scipy.integrate import quad

    value, _ = quad(
        lambda u: u ** (a - 1.0) * (1.0 + u) ** (-t),
        0.0,
        1.0,
        epsabs=0.0,
        epsrel=1e-12,
        limit=400,
    )
    return value


def quadrature_integral(s: RationalLike, t: RationalLike) -> Optional[float]:
    """Numerically evaluate int_0^inf u^(s-1) (1+u)^(-t) du.

    Converges exactly when 0 < s < t (decided on exact rationals); outside
    that strip None is returned, as by beta_value(s, t - s).  The domain is
    split at u = 1 and the tail mapped back to (0, 1] by u -> 1/u, which
    turns the integral into

        int_0^1 u^(s-1) (1+u)^(-t) du  +  int_0^1 u^(t-s-1) (1+u)^(-t) du,

    two proper integrals sharing the same kernel.
    """
    s = Fraction(s)
    t = Fraction(t)
    if s <= 0 or s >= t:
        return None
    tf = float(t)
    return _half_integral(float(s), tf) + _half_integral(float(t - s), tf)
