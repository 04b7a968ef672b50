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

Each module value has one exact table of the products: every live spec
equal to it (and a W1 of it) keeps the same table on the module object,
found through a weak registry keyed by the integers the table is made of,
(p, q, 2 n0) at lam = p/q and m on a point module, whose orbit does not
enter P(k).  The table lives as long as some such spec does.  V(-n) =
V(n), as the Beta integral is symmetric, so the table grows outward to
|n|, one step per new |n|: a window of bound B costs about B steps and
one reference Beta value, shared by fresh equal specs and by unpickled
copies, since a table pickles as its key.  It also keeps
each FormValue and, where theta is -1, its negation, built once per |n|
(at worst twice by concurrent callers, equal), except on a reducible
series: its values are poles, and its W1 shares the table.

Signs need no walk and no table.  At lam = p/q the step at n >= 0 has
the numerator q(2n + 1) + p > 0, so its sign is that of p - q(2n + 1):
positive for the first j0 = max(0, ceil((p - q(1 + r)) / 2q)) steps out
(r = 2 n0), negative after.  So k steps out (v, v) has the sign
(-1)^max(0, k - j0), and on a point module j0 = 0.  A zero step
q(r + 2 j0 + 1) = p lies only on a reducible series, whose every ambient
value is a pole, and a W1 ends before it.  ``_j0`` computes j0 and
``_signs`` reads the law as a function of 2n; verdicts (the sign law,
Jantzen, definiteness) read these, form values the table, and invariance
the integer steps.  Every reader of a step (the table walk through
``_table_step``, j0, invariance, ``continuation_ratio``) calls one integer
function of (p, q, t1 = 2n + 1), ``_continuation_step``; a point module
steps by ``_point_step``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .exact import HalfInt, RationalLike, Sign, beta_value
from .modules import (
    _decide,
    _lattice,
    _steps,
    _theta_odd,
    BasisVector,
    CheckResult,
    ModuleSpec,
    PointModule,
    reference_index,
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


def _continuation_step(p: int, q: int, t1: int) -> Tuple[int, int]:
    """V(n+1) / V(n) at lam = p/q, t1 = 2n + 1: (numerator, denominator), unreduced;
    the denominator is 0 exactly at a pole."""
    return q * t1 + p, p - q * t1


def continuation_ratio(n: "HalfInt | RationalLike", lam: RationalLike) -> Optional[Fraction]:
    """Exact one-step ratio V(n+1)/V(n) = (2n+lam+1)/(lam-1-2n).

    None (a pole) when the denominator vanishes, which happens exactly at
    reduction points.  The one 0/0 configuration, n = -1/2 at lam = 0,
    lies on the reducible PS(0, odd), whose ambient values are all poles.
    """
    lam = Fraction(lam)
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
    """Float value of the diagonal form at the reference vector.

    On the open-orbit modules this is 4 pi times the Beta value of the
    reference integral, None where it diverges (only on PS(0, odd)); on
    point modules the anchor is 1.
    """
    if isinstance(spec, PointModule):
        return 1.0
    ps = spec.base
    n0 = reference_index(ps).as_fraction
    half = (ps.lam + 1) / 2
    beta = beta_value(half + n0, half - n0)
    return None if beta is None else 4.0 * math.pi * beta


def _point_step(m: int, k: int) -> Tuple[int, int]:
    """P(k+1) / P(k) = -(k+1)(m+k+1) on a point module, over 1."""
    return -(k + 1) * (m + k + 1), 1


def _table_step(key: "int | Tuple[int, int, int]", k: int) -> Tuple[int, int]:
    """Step k out from the reference of the table ``key``: V(k+1) / V(k) as integers."""
    if isinstance(key, int):
        return _point_step(key, k)
    p, q, r = key
    return _continuation_step(p, q, r + 2 * k + 1)


class _Table:
    """Exact diagonal values of one module value relative to its reference vector.

    A cache only: signs are read from the closed form (``_signs``).
    Shared by every live equal spec and its W1 (see ``_table``), and freed
    with the last of them.  ``_ratios[k]`` is the value at |n| = n0 + k,
    None at and past a pole, added once from its predecessor by ``_table_step``.
    A table pickles as its ``key`` (see ``_shared``), so a pickled or
    copied spec finds the live table again.  ``values[|2n|]`` is the
    ``FormValue`` that ``form_diagonal`` built there and ``negated[|2n|]``
    its negation, which ``gR_form_diagonal`` reads where theta is -1; never
    a pole: a reducible series, whose table its W1 shares, skips both.
    Concurrent callers at worst compute an entry twice, with equal results.
    """

    __slots__ = ("key", "_ref_twice", "_ratios", "magnitude", "values", "negated",
                 "__weakref__")

    def __init__(self, key: "int | Tuple[int, int, int]"):
        self.key = key
        self._ref_twice = 0 if isinstance(key, int) else key[2]  # m (k = 0) or (p, q, 2 n0)
        self._ratios = {0: Fraction(1)}
        self.values: Dict[int, FormValue] = {}
        self.negated: Dict[int, FormValue] = {}
        self.magnitude: Optional[float] = None  # reference magnitude, set on first use

    def ratio(self, twice: int) -> Optional[Fraction]:
        ratios, k = self._ratios, (abs(twice) - self._ref_twice) // 2
        # the keys are 0..len-1, so the walk resumes at the last
        j = len(ratios) - 1
        value = ratios[min(j, k)]
        while j < k:
            if value is not None:
                numerator, denominator = _table_step(self.key, j)
                value = value * Fraction(numerator, denominator) if denominator else None
            j += 1
            ratios[j] = value
        return value

    def __reduce__(self):
        # a copy of a spec (pickled or deep-copied) joins the live table
        return _shared, (self.key,)


# module value -> its table, held only by the specs that keep it
_TABLES: "weakref.WeakValueDictionary[object, _Table]" = weakref.WeakValueDictionary()


def _shared(key: "int | Tuple[int, int, int]") -> _Table:
    """The live table of the module value ``key``, registered if none is alive."""
    table = _TABLES.get(key)
    return _TABLES.setdefault(key, _Table(key)) if table is None else table


def _table(spec: ModuleSpec) -> _Table:
    """The module's diagonal table, found or created on first use and kept on the spec.

    It lives in the instance dictionary, outside the dataclass fields, so
    equality, hashing and repr are untouched; W1 shares its base's table.
    Equal specs share it through ``_TABLES``, keyed by its integers: m on a
    point module, (p, q, 2 n0) at lam = p/q.
    """
    table = vars(spec).get("_diagonal_table")  # before ``base``, a property
    if table is None:
        owner = spec.base
        table = vars(owner).get("_diagonal_table")
        if table is None:
            if owner.codim:
                key = owner.m
            else:
                lam = owner.lam
                key = lam.numerator, lam.denominator, owner.lattice[0]
            table = vars(owner).setdefault("_diagonal_table", _shared(key))
    return table


def _magnitude(spec: ModuleSpec) -> Optional[float]:
    table = _table(spec)
    if table.magnitude is None:
        table.magnitude = reference_magnitude(spec)
    return table.magnitude


def point_diagonal_value(m: int, k: int) -> int:
    """Closed-form diagonal value (-1)^k k! (m+1)(m+2)...(m+k) on a point module."""
    value = math.factorial(k)
    for j in range(1, k + 1):
        value *= m + j
    return -value if k % 2 else value


def _compact(v: BasisVector, spec: ModuleSpec) -> Tuple[Optional[_Table], FormValue]:
    """The module's table (None at a pole) and the compact (v, v), membership checked once."""
    require_member(v, spec)
    if spec.reducible:
        return None, FormValue(Sign.POLE, None, None, _magnitude(spec))
    table, twice = _table(spec), abs(v.index.twice)
    value = table.values.get(twice)
    if value is None:
        ratio, ref_mag = table.ratio(twice), _magnitude(spec)
        magnitude = None if ratio is None or ref_mag is None else abs(float(ratio)) * ref_mag
        value = FormValue(Sign.of(ratio), ratio, magnitude, ref_mag)
        value = table.values.setdefault(twice, value)
    return table, value


def form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Compact-form-invariant diagonal value (v, v), exact sign and ratio.

    On a reducible principal series the module-level pairing is well
    defined only on the constituents, so every ambient value reports a
    pole; evaluate on W1Sub or the point modules instead.  Built once per |n|.
    """
    return _compact(v, spec)[1]


def _j0(spec: ModuleSpec) -> int:
    """The number j0 of positive steps out from the reference; 0 on a point module."""
    if spec.codim:
        return 0
    lam = spec.base.lam
    p, q = lam.numerator, lam.denominator
    # j0 steps have a positive denominator; it falls by 2q a step
    return max(0, -(-_continuation_step(p, q, spec.lattice[0] + 1)[1] // (2 * q)))


def _law_sign(j0: int, ref_twice: int, twice: int) -> Sign:
    return Sign.NEGATIVE if max(0, (abs(twice) - ref_twice) // 2 - j0) % 2 else Sign.POSITIVE


def _pole(twice: int) -> Sign:
    return Sign.POLE


def _signs(spec: ModuleSpec) -> Callable[[int], Sign]:
    """The sign of (v, v) on ``spec`` as a function of 2n, membership unchecked:
    (-1)^max(0, k - j0) k steps out, a pole everywhere on a reducible series."""
    if spec.reducible:
        return _pole
    return partial(_law_sign, _j0(spec), spec.lattice[0])


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
    if base.ratio_to_reference is None or not _theta_odd(spec, twice):
        return base  # a pole, or theta is 1
    negated = table.negated
    value = negated.get(abs(twice))
    if value is None:
        # |float(-r)| = |float(r)|, so the magnitude is the compact one
        value = negated.setdefault(abs(twice), FormValue(
            -base.sign, -base.ratio_to_reference, base.magnitude, base.reference_magnitude))
    return value


def convergence_range(spec: ModuleSpec) -> Optional[List[HalfInt]]:
    """Basis indices with -(lam+1)/2 < n < (lam+1)/2 (strict, exact).

    None on a point module, which is supported on a closed orbit and has no
    strip; on a W1 every index of its lattice lies inside the strip.
    """
    if spec.codim:
        return None
    hi = math.ceil(spec.base.lam + 1) - 1  # the largest integer < lam + 1
    return [HalfInt(tw) for tw in _lattice(spec, -hi, hi)]


def _u_ratio(v: BasisVector, spec: ModuleSpec) -> Fraction:
    """Exact (v, v) relative to the reference value; ValueError at a pole."""
    require_member(v, spec)
    value = None if spec.reducible else _table(spec).ratio(v.index.twice)
    if value is None:
        raise ValueError(f"form has a pole at {v} on {spec}")
    return value


def _u_step(spec: ModuleSpec, twice: int) -> Tuple[int, int]:
    """V(u) / V(u - 1) at 2u = twice as integers: the step between |u - 1|
    and |u| upward from the smaller, inverted when that is |u|, 1 if equal."""
    a, b = abs(twice), abs(twice - 2)
    if a == b:
        return 1, 1
    low = min(a, b)
    up = (_point_step(spec.m, low // 2) if spec.codim else
          _continuation_step(spec.base.lam.numerator, spec.base.lam.denominator, low + 1))
    return up if a > b else up[::-1]


def _invariance_failures(spec: ModuleSpec, vectors: List[BasisVector]) -> List[str]:
    if spec.reducible and vectors:
        _u_ratio(vectors[0], spec)  # raises: every ambient value is a pole
    failures = []
    E, _, F = _steps(spec)
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
            # c(u) t(w) V(w) = flip c'(w) t(u) V(u), divided by V(w) != 0
            if en * tw * fd * sd != flip * tu * fn * ed * sn:
                wv = BasisVector(HalfInt(w))
                failures.append(f"{law} fails at u={v}, w={wv}: "
                                f"{Fraction(en, ed) * tw * _u_ratio(wv, spec)} != "
                                f"{Fraction(flip * fn, fd) * tu * _u_ratio(v, spec)}")
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
    as in ``modules._decide``.  On a reducible series it raises ValueError.
    """
    return _decide(spec, bound, _invariance_failures)
