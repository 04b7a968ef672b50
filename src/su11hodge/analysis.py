"""Theorem-checking layer: sign conjecture, Jantzen crossing, unitarity.

Everything here is decided on exact rationals.  The central statement
being verified: on an irreducible module realized with lowest Hodge index
a (the codimension of the supporting orbit), the compact-form-invariant
diagonal value at Hodge level p has sign (-1)^(p-a).  Unitarity is then
read off from the noncompact-form signs, which differ by the diagonal
Cartan involution.

The window records of ``verify_conjecture`` and ``jantzen_crossing`` are
values of integers, shared like the window vectors: each report reads its
rules (``_levels``, ``_signs``, ``belongs``) once per |2n|, as every rule
is even in n, and takes each record of the central indices of ``_vector``
from a memo of ``_RECORDS`` records per kind, keyed by exactly the
record's content.  Equal reports share their records; the records off
the central indices are built fresh and never enter the memo, and a
changed rule changes the content, so it never reads a stale record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple

from .exact import _POWERS, _rational, RationalLike, Sign
from .filtrations import _levels
from .forms import _signs
from .modules import (
    _require_bound,
    _vector,
    _window,
    BasisVector,
    ModuleSpec,
    Parity,
    PrincipalSeries,
    W1Sub,
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
    a = spec.codim
    level, sign = _levels(spec), _signs(spec)  # the window vectors are members

    def row(size):
        p = level(size)
        return p, a, sign(size), _POWERS[(p - a) % 2]

    return ConjectureReport(spec, bound, _records(_window(spec, bound), row, _conjecture))


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


_RECORDS = 256  # records kept per kind: a few small windows' worth, which specs repeat


def _interned(kind: type):
    """``kind``'s record of v_n from 2n and the rest of its content, through a memo
    keyed by exactly that content: one shared record per content, as ``_vector``
    shares vectors.  A mutated rule changes the content, so it reads no stale record."""
    def build(twice: int, content: tuple):
        return kind(_vector(twice), *content)

    return lru_cache(maxsize=_RECORDS)(build)


_conjecture, _jantzen = _interned(ConjectureRecord), _interned(JantzenRecord)


def _records(window: range, row: Callable[[int], tuple], memo: Callable) -> tuple:
    """The record ``memo(2n, row(|2n|))`` at each 2n of ``window``, increasing.  ``row``
    reads the rules once per |2n|: each is even in n, so v_n and v_-n share one row.
    Off the central indices of ``_vector``, -2048 <= 2n < 2048, the record is built
    fresh by the function the memo wraps, so the memo holds none of them."""
    if not window:
        return ()
    lo, hi = window[0], window[-1]
    build, above, below = memo.__wrapped__, [], []
    for size in range(lo % 2 if lo < 0 else lo, max(-lo, hi) + 1, 2):
        content = row(size)
        if size <= hi:
            above.append((memo if size < 2048 else build)(size, content))
        if 0 < size <= -lo:
            below.append((memo if size <= 2048 else build)(-size, content))
    below.reverse()
    return tuple(below + above)


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

    def row(size):
        return sign_below(size), sign_above(size), belongs(_vector(size), w1)

    records = _records(_window(below, bound), row, _jantzen)
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
