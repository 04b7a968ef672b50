"""Invariant hermitian forms via exact meromorphic continuation.

The compact-form-invariant pairing of two basis vectors vanishes off the
diagonal (radial symmetry / matching of delta derivatives), and on the
diagonal of a principal series equals

    V(n) = 4 pi * int_0^inf u^(n + (lam-1)/2) (1+u)^(-(lam+1)) du,

a Beta value inside the convergence strip |n| < (lam+1)/2.  Integration by
parts continues it beyond the strip through the exact one-step ratio

    V(n+1) / V(n) = (2n + lam + 1) / (lam - 1 - 2n),

whose denominator vanishes exactly at the reduction points.  Ratios are
products of these rational steps anchored at the reference vector (n = 0
even, 1/2 odd); the float magnitude is |ratio| times the reference Beta
value and never decides a sign.  A pole of the continuation and a
divergent integral are the same fact: the ratio and magnitude are then
``None``, the sign ``Sign.POLE``.

On point modules the diagonal values are the closed form

    P(k) = (-1)^k k! (m+1)(m+2)...(m+k)    (exact integers),

with P(k+1) = -(k+1)(m+k+1) P(k).  The noncompact-form-invariant values
twist these by the diagonal Cartan involution signs.

Each irreducible module value has one exact table of its FormValues, a
cache that only form values read (``form_diagonal`` and
``gR_form_diagonal``): every live spec equal to it (and a W1 of it) keeps
the same table, found through a weak registry keyed by what the values
are made of, the step polynomials ``spec.step`` and the reference 2 n0;
the two orbits of a point module have one step, and so one table.  The
table lives as long as some such spec does.  V(-n) = V(n), as the Beta
integral is symmetric, so the table grows outward to |n|, one step and
one FormValue (and its negation, where theta is -1) per new |n|: a window
of bound B costs about B steps and one reference Beta value, shared by
fresh equal specs and by unpickled copies, since a table pickles as its
key.  A reducible series builds no table: its values are poles.

Signs need no walk and no table.  At lam = p/q the step at n >= 0 has
the numerator q(2n + 1) + p > 0, so its sign is that of its denominator
p - q(2n + 1): positive for the first j0 = max(0, ceil((p - q(1 + r)) / 2q))
steps out (r = 2 n0), negative after.  So k steps out (v, v) has the sign
(-1)^max(0, k - j0), and on a point module j0 = 0.  A zero step
q(r + 2 j0 + 1) = p lies only on a reducible series, whose every ambient
value is a pole, and a W1 ends before it.  ``spec.breakpoints`` reads j0
off that denominator and the level's k1 off pole order (see ``filtrations``),
neither from the other.  Verdicts (the sign law, Jantzen, definiteness)
read it, form values the table, and invariance the integer steps, which
decide each law and print its failures.  The table walk and invariance
read a step k out from the reference through ``_diagonal_step``, which
evaluates ``spec.step`` at t = 2 n0 + 2k whatever the family; on a series
that fact, ``spec.breakpoints`` and ``continuation_ratio`` each read
``_continuation_step`` of (p, q, t1 = 2n + 1).  No function here chooses
a family: the step, the reference magnitude and the strip are the spec's.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .exact import _rational, HalfInt, RationalLike, Sign
from .modules import (
    _continuation_step,
    _decide,
    _lattice,
    _past,
    _rows,
    _theta_odd,
    _vector,
    BasisVector,
    CheckResult,
    Generator,
    ModuleSpec,
    Step,
    require_member,
    theta_sign,
)

__all__ = [
    "continuation_ratio",
    "FormValue",
    "diagonal_sign",
    "form_diagonal",
    "gR_form_diagonal",
    "convergence_range",
    "invariance_check",
    "point_diagonal_value",
    "reference_magnitude",
]


def continuation_ratio(n: "HalfInt | RationalLike", lam: RationalLike) -> Optional[Fraction]:
    """Exact one-step ratio V(n+1)/V(n) = (2n+lam+1)/(lam-1-2n).

    None (a pole) when the denominator vanishes, which happens exactly at
    reduction points.  The one 0/0 configuration, n = -1/2 at lam = 0,
    lies on the reducible PS(0, odd), whose ambient values are all poles.
    """
    lam = _rational(lam)
    numerator, denominator = _continuation_step(lam.numerator, lam.denominator,
                                                HalfInt.of(n).twice + 1)
    return Fraction(numerator, denominator) if denominator else None


@dataclass(frozen=True)
class FormValue:
    """Diagonal form value as exact data relative to the reference vector.

    ``ratio_to_reference`` is None exactly at a pole (sign POLE) and
    ``reference_magnitude`` where the reference integral diverges;
    ``magnitude`` is |ratio| * reference_magnitude, None when either is.
    """

    sign: Sign
    ratio_to_reference: Optional[Fraction]
    magnitude: Optional[float]
    reference_magnitude: Optional[float]


def reference_magnitude(spec: ModuleSpec) -> Optional[float]:
    """Float value of the diagonal form at the reference vector, the base's fact:
    on a series 4 pi times the Beta value of the reference integral, None where
    it diverges (only on PS(0, odd)); on a point module the anchor 1."""
    return spec.base.reference_magnitude


def _diagonal_step(spec: ModuleSpec, k: int) -> Tuple[int, int]:
    """V(k+1) / V(k) at k steps out from the reference, as integers: ``spec.step``
    at t = 2n = 2 n0 + 2k, unreduced."""
    (a0, a1, a2), (b0, b1, b2) = spec.step
    t = spec.lattice[0] + 2 * k
    return a0 + t * (a1 + t * a2), b0 + t * (b1 + t * b2)


class _Table:
    """Exact diagonal values of one module value relative to its reference vector.

    A cache that only form values read, shared by every live equal spec and
    its W1 (see ``_table``) and freed with the last of them.
    ``values[|2n|]`` is the ``FormValue`` at |2n|, its keys a contiguous run
    outward from the reference (see ``_walk``); ``negated[|2n|]`` is its
    negation, which ``gR_form_diagonal`` reads where theta is -1.  Neither
    holds a pole.  A table pickles as its ``key`` (see ``_shared``), so a
    pickled or copied spec finds the live table again.
    """

    __slots__ = ("key", "values", "negated", "__weakref__")

    def __init__(self, key: Tuple[Step, int]):
        self.key = key  # the registry and pickle identity, read by no step
        self.values: Dict[int, FormValue] = {}
        self.negated: Dict[int, FormValue] = {}

    def __reduce__(self):
        # a copy of a spec (pickled or deep-copied) joins the live table
        return _shared, (self.key,)


# module value -> its table, held only by the specs that keep it
_TABLES: "weakref.WeakValueDictionary[object, _Table]" = weakref.WeakValueDictionary()


def _shared(key: Tuple[Step, int]) -> _Table:
    """The live table of the module value ``key``, registered if none is alive."""
    table = _TABLES.get(key)
    return _TABLES.setdefault(key, _Table(key)) if table is None else table


def _table(spec: ModuleSpec) -> _Table:
    """The diagonal table of an irreducible spec or W1, found or created on first use.

    It is kept on the spec, in the instance dictionary, outside the
    dataclass fields, so equality, hashing and repr are untouched.  Equal
    specs, and a W1 and its base, share it through ``_TABLES``, keyed by
    what the values are made of: the step polynomials and the reference 2 n0.
    """
    table = vars(spec).get("_diagonal_table")
    if table is None:
        table = vars(spec).setdefault("_diagonal_table", _shared((spec.step, spec.lattice[0])))
    return table


def _walk(spec: ModuleSpec, twice: int) -> Tuple[_Table, FormValue]:
    """The table of an irreducible spec or W1 and its compact value at |2n| = twice,
    walked from the last entry of ``values``, one ``_diagonal_step`` per new |n|;
    concurrent walkers settle on one object per index."""
    table = _table(spec)
    values = table.values
    value = values.get(twice)
    if value is None:
        ref = spec.lattice[0]
        if not values:
            magnitude = reference_magnitude(spec)
            values.setdefault(ref, FormValue(Sign.POSITIVE, Fraction(1), magnitude, magnitude))
        # keys run ref, ref + 2, ...: resume at the last, or at twice if a racer added it
        k = min(len(values) - 1, (twice - ref) // 2)
        value = values[ref + 2 * k]
        magnitude = value.reference_magnitude
        while ref + 2 * k < twice:
            numerator, denominator = _diagonal_step(spec, k)
            ratio = value.ratio_to_reference * Fraction(numerator, denominator)
            k += 1
            value = values.setdefault(ref + 2 * k, FormValue(
                Sign.of(ratio), ratio, abs(float(ratio)) * magnitude, magnitude))
    return table, value


def point_diagonal_value(m: int, k: int) -> int:
    """Closed-form diagonal value (-1)^k k! (m+1)(m+2)...(m+k) on a point module."""
    value = math.factorial(k)
    for j in range(1, k + 1):
        value *= m + j
    return -value if k % 2 else value


def _compact(v: BasisVector, spec: ModuleSpec) -> Tuple[Optional[_Table], FormValue]:
    """The table (None if reducible) and the compact (v, v), membership checked once."""
    require_member(v, spec)
    if spec.reducible:
        return None, FormValue(Sign.POLE, None, None, reference_magnitude(spec))
    return _walk(spec, abs(v.index.twice))


def form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Compact-form-invariant diagonal value (v, v), exact sign and ratio.

    On a reducible principal series the module-level pairing is well
    defined only on the constituents, so every ambient value reports a
    pole; evaluate on W1Sub or the point modules instead.  Built once per |n|.
    """
    return _compact(v, spec)[1]


def _law_sign(r: int, j0: int, twice: int) -> Sign:
    return Sign.NEGATIVE if _past(r, j0, twice) % 2 else Sign.POSITIVE


def _pole(twice: int) -> Sign:
    return Sign.POLE


def _signs(spec: ModuleSpec) -> Callable[[int], Sign]:
    """The sign of (v, v) on ``spec`` as a function of 2n, membership unchecked:
    (-1)^max(0, k - j0) k steps out, a pole everywhere on a reducible series."""
    if spec.reducible:
        return _pole
    r, _, j0 = spec.breakpoints
    return partial(_law_sign, r, j0)


def diagonal_sign(v: BasisVector, spec: ModuleSpec) -> Sign:
    """Exact sign of (v, v) (Sign.POLE at a pole), from the closed form."""
    require_member(v, spec)
    return _signs(spec)(v.index.twice)


def gR_form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Noncompact-form-invariant diagonal value (theta v, v), exact.

    The compact value negated where theta is -1, built once per |n|.
    """
    table, base = _compact(v, spec)
    twice = v.index.twice
    if table is None or not _theta_odd(spec, twice):
        return base  # a pole, or theta is 1
    value = table.negated.get(abs(twice))
    if value is None:
        # |float(-r)| = |float(r)|, so the magnitude is the compact one
        value = table.negated.setdefault(abs(twice), FormValue(
            -base.sign, -base.ratio_to_reference, base.magnitude, base.reference_magnitude))
    return value


def convergence_range(spec: ModuleSpec) -> Optional[List[HalfInt]]:
    """Basis indices with -(lam+1)/2 < n < (lam+1)/2 (strict, exact).

    None on a point module, which is supported on a closed orbit and has no
    strip; on a W1 every index of its lattice lies inside the strip.
    """
    hi = spec.base.strip
    return None if hi is None else [HalfInt(tw) for tw in _lattice(spec, -hi, hi)]


def _u_step(spec: ModuleSpec, twice: int) -> Tuple[int, int]:
    """V(u) / V(u - 1) at 2u = twice as integers: the step between |u - 1|
    and |u| upward from the smaller, inverted when that is |u|, 1 if equal."""
    a, b = abs(twice), abs(twice - 2)
    if a == b:
        return 1, 1
    up = _diagonal_step(spec, (min(a, b) - spec.lattice[0]) // 2)
    return up if a > b else up[::-1]


def _invariance_failures(spec: ModuleSpec, vectors: List[BasisVector]) -> List[str]:
    if spec.reducible:
        raise ValueError(f"form has a pole at every basis vector of {spec}")
    failures = []
    E, F = _rows(spec, (Generator.E_PLUS, Generator.E_MINUS), vectors)
    theta = {v.index.twice: theta_sign(v, spec) for v in vectors}
    for v in vectors:
        u = v.index.twice
        en, ed, shift = E[u]
        w = u + 2 * shift  # e+ u lies on v[w], e- v[w] on u
        if w not in theta:
            continue
        fn, fd, _ = F[w]
        sn, sd = _u_step(spec, u) if w < u else _u_step(spec, w)[::-1]  # V(u) / V(w)
        for flip, tu, tw, law in ((1, 1, 1, "(e+u,w)=(u,e-w)"),
                                  (-1, theta[u], theta[w], "(e+u,w)=-(u,e-w)")):
            # c(u) t(w) V(w) = flip c'(w) t(u) V(u) over V(w) != 0, compared and printed
            if en * tw * fd * sd != flip * tu * fn * ed * sn:
                failures.append(f"{law} fails at u={v}, w={_vector(w)}: "
                                f"{Fraction(en * tw, ed)} != "
                                f"{Fraction(flip * tu * fn * sn, fd * sd)}")
    return failures


def invariance_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Decide both invariance laws exactly on every pair of basis vectors.

    Compact form:    (e+ u, w) = (u, e- w)  and  (h u, w) = (u, h w).
    Noncompact form: (e+ u, w) = -(u, e- w).

    A generator moves an index by at most one step and all pairings reduce
    to the diagonal, so a pair (u, w) can only violate a law when w is u
    or a neighbor of u.  h is diagonal, so its law holds termwise; the
    others only bind where e+ u lands on w, say c(u) V(u-1) = c'(u-1) V(u).
    Over V(u-1), cross-multiplied by the integer step, that is a polynomial
    identity in the index on either side of the fold V(-n) = V(n), decided
    as in ``modules._decide``.  A failing law is listed with both sides over
    V(w), from the same integers.  On a reducible series, whose every value
    is a pole, it raises ValueError.
    """
    return _decide(spec, bound, _invariance_failures)
