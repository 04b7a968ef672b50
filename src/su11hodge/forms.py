"""Invariant hermitian forms via exact meromorphic continuation.

The compact-form-invariant pairing of two basis vectors vanishes off the
diagonal (radial symmetry / matching of delta derivatives), and on the
diagonal of a principal series equals

    V(n) = 4 pi * int_0^inf u^(n + (lam-1)/2) (1+u)^(-(lam+1)) du,

a Beta value inside the convergence strip |n| < (lam+1)/2.  Integration by
parts continues it beyond the strip through the exact one-step ratio

    V(n+1) / V(n) = (2n + lam + 1) / (lam - 1 - 2n),

whose denominator vanishes exactly at the reduction points.  All signs and
ratios are products of these rational steps anchored at the reference
vector (n = 0 even, 1/2 odd); the float magnitude is |ratio| times the
reference Beta value and never participates in a sign decision.

A pole of the continuation and a divergent integral are the same fact,
no finite value: every ratio and magnitude here is then ``None``, and its
sign ``Sign.POLE``.

On point modules the diagonal values are the closed form

    P(k) = (-1)^k k! (m+1)(m+2)...(m+k)    (exact integers),

anchored at P(0) = 1, and continued by the integer step
P(k+1) = -(k+1)(m+k+1) P(k).  The noncompact-form-invariant values are
obtained by twisting with the diagonal Cartan involution signs.

Each module keeps one exact table of these products on the module object
itself (a W1 submodule shares its ambient series' table).  The values are
even in n, V(-n) = V(n), since the Beta integral is symmetric in its two
arguments (and point modules have no negative indices), so the table is
one-sided: it grows outward from the reference index to |n|, one step per
new |n|, whatever order the indices are asked for in.  A window sweep of
bound B therefore costs about B steps instead of the O(B^2) of walking
from the reference for every vector, and the reference Beta value is
computed once per module.

The table walks the same steps twice.  Form values read the exact
``Fraction`` products; invariance on its fixed sample compares their
numerators and denominators as cross-multiplied integers.  Verdicts (the
sign law, Jantzen, definiteness) read only the product of the step signs,
decided by integer comparisons: at lam = p/q the step at n >= 0 has the
positive numerator q(2n + 1) + p, so its sign is that of p - q(2n + 1)
(a pole where that is zero); every point-module step is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional, Tuple

from .exact import HalfInt, RationalLike, Sign, beta_value
from .modules import (
    _decide,
    _lattice,
    _step,
    _step_memo,
    BasisVector,
    CheckResult,
    ModuleSpec,
    PointModule,
    PrincipalSeries,
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


def continuation_ratio(n: "HalfInt | RationalLike", lam: RationalLike) -> Optional[Fraction]:
    """Exact one-step ratio V(n+1)/V(n) = (2n+lam+1)/(lam-1-2n).

    None (a pole) when the denominator vanishes, which happens exactly at
    reduction points.  The one 0/0 configuration, n = -1/2 at lam = 0,
    lies on the reducible PS(0, odd), whose ambient values are all poles.
    """
    # at lam = p/q, with t1 = 2n + 1, the ratio is (q t1 + p) / (p - q t1)
    t1 = HalfInt.of(n).twice + 1
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    denominator = p - q * t1
    return Fraction(q * t1 + p, denominator) if denominator else None


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


def _series_step(ref_twice: int, lam: Fraction, k: int) -> Optional[Fraction]:
    """V(n0+k+1) / V(n0+k) on a principal series (None at a pole)."""
    return continuation_ratio(HalfInt(ref_twice + 2 * k), lam)


def _series_sign(ref_twice: int, p: int, q: int, k: int) -> Optional[int]:
    """Sign of V(n0+k+1) / V(n0+k) on PS(p/q), +1 or -1 (None at a pole)."""
    denominator = p - q - q * (ref_twice + 2 * k)
    if not denominator:
        return None
    return 1 if denominator > 0 else -1


def _point_step(m: int, k: int) -> int:
    """P(k+1) / P(k) = -(k+1)(m+k+1) on a point module."""
    return -(k + 1) * (m + k + 1)


def _point_sign(k: int) -> int:
    """Sign of P(k+1) / P(k): every point-module step is negative."""
    return -1


def _walk(entries: dict, step, k: int):
    """Entry k of a product walk, each entry its predecessor times ``step(j)``."""
    # the keys are always 0..len-1, since an entry is added only after its
    # predecessor, so the walk resumes at the last one
    j = len(entries) - 1
    if k <= j:
        return entries[k]
    value = entries[j]
    while j < k:
        factor = None if value is None else step(j)
        value = None if factor is None else value * factor
        j += 1
        entries[j] = value
    return value


class _Table:
    """Exact diagonal values of one module relative to its reference vector.

    The values are even in n, V(-n) = V(n) (point modules have no negative
    indices), so the table is one-sided: ``_ratios[k]`` is the value at
    |n| = n0 + k, k steps out from the reference index n0, and
    ``_signs[k]`` its sign, +1 or -1; both are None at a pole and at every
    index past one.  Each walk takes a step chosen at construction (a
    partial of a module function, so a used spec still pickles); entries
    are only ever added, each from its predecessor, so concurrent callers
    can at worst compute the same entry twice.
    """

    __slots__ = ("_ref_twice", "_step", "_sign_step", "_ratios", "_signs", "magnitude")

    def __init__(self, spec: "PrincipalSeries | PointModule"):
        ref_twice = self._ref_twice = reference_index(spec).twice
        if isinstance(spec, PointModule):
            self._step, self._sign_step = partial(_point_step, spec.m), _point_sign
        else:
            lam = spec.lam
            self._step = partial(_series_step, ref_twice, lam)
            self._sign_step = partial(_series_sign, ref_twice, lam.numerator, lam.denominator)
        self._ratios = {0: Fraction(1)}
        self._signs = {0: 1}
        self.magnitude: Optional[float] = None  # reference magnitude, set on first use

    def ratio(self, twice: int) -> Optional[Fraction]:
        return _walk(self._ratios, self._step, (abs(twice) - self._ref_twice) // 2)

    def sign(self, twice: int) -> Optional[int]:
        return _walk(self._signs, self._sign_step, (abs(twice) - self._ref_twice) // 2)


def _table(spec: ModuleSpec) -> _Table:
    """The module's diagonal table, created on first use and kept on the spec.

    It lives in the instance dictionary, outside the dataclass fields, so
    equality, hashing and repr are untouched; W1 shares its base's table.
    """
    owner = spec.base
    table = vars(owner).get("_diagonal_table")
    if table is None:
        table = vars(owner).setdefault("_diagonal_table", _Table(owner))
    return table


def _ratio(v: BasisVector, spec: ModuleSpec) -> Optional[Fraction]:
    """Exact (v, v) relative to the reference value, None at a pole."""
    require_member(v, spec)
    if spec.reducible:
        return None
    return _table(spec).ratio(v.index.twice)


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


def form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Compact-form-invariant diagonal value (v, v), exact sign and ratio.

    On a reducible principal series the module-level pairing is well
    defined only on the constituents, so every ambient value reports a
    pole; evaluate on W1Sub or the point modules instead.
    """
    ratio, ref_mag = _ratio(v, spec), _magnitude(spec)
    magnitude = None if ratio is None or ref_mag is None else abs(float(ratio)) * ref_mag
    return FormValue(Sign.of(ratio), ratio, magnitude, ref_mag)


def diagonal_sign(v: BasisVector, spec: ModuleSpec) -> Sign:
    """Exact sign of (v, v) (Sign.POLE at a pole) from the step signs alone."""
    require_member(v, spec)
    if spec.reducible:
        return Sign.POLE
    return Sign.of(_table(spec).sign(v.index.twice))


def gR_form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Noncompact-form-invariant diagonal value (theta v, v), exact."""
    base = form_diagonal(v, spec)
    if base.ratio_to_reference is None or theta_sign(v, spec) == 1:
        return base
    # |float(-r)| = |float(r)|, so the magnitude is the compact one
    return FormValue(-base.sign, -base.ratio_to_reference, base.magnitude,
                     base.reference_magnitude)


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
    value = _ratio(v, spec)
    if value is None:
        raise ValueError(f"form has a pole at {v} on {spec}")
    return value


def _invariance_failures(spec: ModuleSpec, vectors: List[BasisVector]) -> List[str]:
    failures = []
    E, H, F = _step_memo(spec, _step)
    ratios = [_u_ratio(v, spec) for v in vectors]  # a pole raises at the first one
    uratio = {v.index.twice: (r.numerator, r.denominator) for v, r in zip(vectors, ratios)}
    gratio = {v.index.twice: (theta_sign(v, spec) * r.numerator, r.denominator)
              for v, r in zip(vectors, ratios)}

    def pair(step, u: int, w: int, table) -> Tuple[int, int]:
        # (gen u, w) as (numerator, denominator); gen u is a multiple of one basis vector
        n, d, shift = step[u]
        if u + 2 * shift != w:
            return 0, 1
        wn, wd = table[w]
        return n * wn, d * wd

    laws = (
        (E, F, 1, uratio, "(e+u,w)=(u,e-w)"),
        (H, H, 1, uratio, "(hu,w)=(u,hw)"),
        (E, F, -1, gratio, "(e+u,w)=-(u,e-w)"),
    )
    for v in vectors:
        u = v.index.twice
        neighbors = [w for w in (u - 2, u, u + 2) if w in uratio]
        for gen_l, gen_r, flip, table, law in laws:
            for w in neighbors:
                ln, ld = pair(gen_l, u, w, table)
                rn, rd = pair(gen_r, w, u, table)
                if ln * rd != flip * rn * ld:
                    failures.append(f"{law} fails at u={v}, w={BasisVector(HalfInt(w))}: "
                                    f"{Fraction(ln, ld)} != {Fraction(flip * rn, rd)}")
    return failures


def invariance_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Decide both invariance laws exactly on every pair of basis vectors.

    Compact form:    (e+ u, w) = (u, e- w)  and  (h u, w) = (u, h w).
    Noncompact form: (e+ u, w) = -(u, e- w).

    A generator moves an index by at most one step and all pairings reduce
    to the diagonal, so a pair (u, w) can only violate a law when w is u
    or a neighbor of u.  The only non-trivial one, at (u, u - 1), is
    c(u) V(u-1) = c'(u-1) V(u): cross-multiplied by the table step it is a
    polynomial identity in the index on either side of the fold
    V(-n) = V(n), decided as in ``modules._decide``.  On a reducible
    series it raises ValueError at the first pole.
    """
    return _decide(spec, bound, _invariance_failures)
