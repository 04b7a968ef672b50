"""Theorem-checking layer: sign conjecture, Jantzen crossing, unitarity.

Everything here is decided on exact rationals.  The central statement
being verified: on an irreducible module realized with lowest Hodge index
a (the codimension of the supporting orbit), the compact-form-invariant
diagonal value at Hodge level p has sign (-1)^(p-a).  Unitarity is then
read off from the noncompact-form signs, which differ by the diagonal
Cartan involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .exact import _rational, RationalLike, Sign
from .filtrations import _levels
from .forms import _signs
from .modules import (
    _require_bound,
    BasisVector,
    ModuleSpec,
    Parity,
    PrincipalSeries,
    W1Sub,
    basis_window,
    belongs,
    constituents,
)

__all__ = [
    "Definiteness",
    "ConjectureRecord",
    "ConjectureReport",
    "verify_conjecture",
    "JantzenRecord",
    "JantzenReport",
    "jantzen_crossing",
    "definiteness",
    "ClassificationEntry",
    "ClassificationReport",
    "classify",
]


class Definiteness(Enum):
    POS_DEF = "PosDef"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class ConjectureRecord:
    vector: BasisVector
    hodge_level: int
    codim: int
    sign: Sign
    expected: Sign

    @property
    def ok(self) -> bool:
        return self.sign is self.expected


@dataclass(frozen=True)
class ConjectureReport:
    spec: ModuleSpec
    bound: int
    records: Tuple[ConjectureRecord, ...]

    @property
    def verdict(self) -> bool:
        return all(r.ok for r in self.records)


def verify_conjecture(spec: ModuleSpec, bound: int) -> ConjectureReport:
    """Check sign(v, v) = (-1)^(hodge_level - codim) for every window vector.

    A pole (reducible ambient module) is recorded as a mismatch, so the
    report fails closed.
    """
    records = []
    a = spec.codim
    level, sign = _levels(spec), _signs(spec)  # the window vectors are members
    for v in basis_window(spec, bound):
        p = level(v.index.twice)
        expected = Sign.POSITIVE if (p - a) % 2 == 0 else Sign.NEGATIVE
        records.append(ConjectureRecord(v, p, a, sign(v.index.twice), expected))
    return ConjectureReport(spec, bound, tuple(records))


@dataclass(frozen=True)
class JantzenRecord:
    vector: BasisVector
    sign_below: Sign
    sign_above: Sign
    w1: bool

    @property
    def preserved(self) -> bool:
        return self.sign_below is self.sign_above


@dataclass(frozen=True)
class JantzenReport:
    lambda0: Fraction
    parity: Parity
    epsilon: Fraction
    bound: int
    records: Tuple[JantzenRecord, ...]

    @property
    def verdict(self) -> bool:
        """Signs persist across the reduction point exactly on W1."""
        return all(r.preserved == r.w1 for r in self.records)


def jantzen_crossing(
    lambda0: RationalLike, parity: Parity, epsilon: RationalLike, bound: int
) -> JantzenReport:
    """Compare exact diagonal signs at lambda0 -/+ epsilon with W1 membership.

    epsilon must satisfy 0 < epsilon < 1/2, which keeps both sample
    parameters strictly between neighboring reduction points.
    """
    lambda0, epsilon = _rational(lambda0), _rational(epsilon)
    w1 = W1Sub(PrincipalSeries(lambda0, parity))
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    below = PrincipalSeries(lambda0 - epsilon, parity)
    # both series share one lattice, so the window vectors are members of each
    sign_below, sign_above = _signs(below), _signs(PrincipalSeries(lambda0 + epsilon, parity))
    records = tuple(JantzenRecord(v, sign_below(v.index.twice), sign_above(v.index.twice),
                                  belongs(v, w1)) for v in basis_window(below, bound))
    return JantzenReport(lambda0, parity, epsilon, bound, records)


def definiteness(spec: ModuleSpec, bound: Optional[int] = None) -> Definiteness:
    """Exact definiteness of the noncompact-form on the whole basis, in O(1).

    k steps out on the side 2n >= 0, (theta v, v) has the sign
    (-1)^k (-1)^max(0, k - j0) (see ``forms``), on the side 2n < 0 that
    times (-1)^(2 n0).  So it is positive definite (a point module always)
    if j0 = 0 and the lattice is even; else indefinite.  ``bound`` (>= 0)
    cannot change the verdict.
    """
    if bound is not None:
        _require_bound(bound)
    if spec.reducible:
        raise ValueError(f"{spec} is reducible; classify its constituents instead")
    r, _, j0 = spec.breakpoints
    return Definiteness.INDEFINITE if j0 or r else Definiteness.POS_DEF


@dataclass(frozen=True)
class ClassificationEntry:
    constituent: ModuleSpec
    hermitian: bool
    definiteness: Definiteness

    @property
    def unitary(self) -> bool:
        return self.definiteness is not Definiteness.INDEFINITE


@dataclass(frozen=True)
class ClassificationReport:
    lam: Fraction
    parity: Parity
    entries: Tuple[ClassificationEntry, ...]


def classify(lam: RationalLike, parity: Parity) -> ClassificationReport:
    """Decompose into constituents and decide unitarity of each by exact signs.

    Every constituent here is hermitian for structural reasons: the Cartan
    involution is inner and fixes all three orbits and their local
    systems, so both invariant forms exist.  Unitary means the noncompact
    form is definite; it is positive at the reference vector, so positive
    definite.
    """
    lam = _rational(lam)
    ps = PrincipalSeries(lam, parity)
    entries = tuple(
        ClassificationEntry(part, True, definiteness(part)) for part in constituents(ps)
    )
    return ClassificationReport(lam, parity, entries)
