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
new |n|, whatever order the indices are asked for in.  Every consumer
(form values, invariance, the sign law, Jantzen, definiteness, the CLI
form table) reads from it.  A window sweep of bound B therefore costs
about B rational steps instead of the O(B^2) of walking from the reference
for every vector, and the reference Beta value is computed once per
module.  Signs for verdicts are read from the exact entries alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional

from .exact import HalfInt, RationalLike, Sign, beta_value
from .modules import (
    _step,
    BasisVector,
    CheckResult,
    Generator,
    ModuleSpec,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    reference_index,
    require_member,
    theta_sign,
)

__all__ = [
    "continuation_ratio",
    "FormValue",
    "diagonal_sign",
    "form_diagonal",
    "form_pairing",
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
    n = HalfInt.of(n)
    lam = Fraction(lam)
    denominator = lam - 1 - n.twice
    return (n.twice + lam + 1) / denominator if denominator else None


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

    @classmethod
    def of(cls, ratio: Optional[Fraction], ref_mag: Optional[float]) -> "FormValue":
        magnitude = None if ratio is None or ref_mag is None else abs(float(ratio)) * ref_mag
        return cls(Sign.of(ratio), ratio, magnitude, ref_mag)


def reference_magnitude(spec: ModuleSpec) -> Optional[float]:
    """Float value of the diagonal form at the reference vector.

    On the open-orbit modules this is 4 pi times the Beta value of the
    reference integral, None where it diverges (only on PS(0, odd)); on
    point modules the anchor is 1.
    """
    if isinstance(spec, PointModule):
        return 1.0
    ps = spec.base if isinstance(spec, W1Sub) else spec
    n0 = reference_index(ps).as_fraction
    half = (ps.lam + 1) / 2
    beta = beta_value(half + n0, half - n0)
    return None if beta is None else 4.0 * math.pi * beta


def _series_step(ref_twice: int, lam: Fraction, k: int) -> Optional[Fraction]:
    """V(n0+k+1) / V(n0+k) on a principal series (None at a pole)."""
    return continuation_ratio(HalfInt(ref_twice + 2 * k), lam)


def _point_step(m: int, k: int) -> int:
    """P(k+1) / P(k) = -(k+1)(m+k+1) on a point module."""
    return -(k + 1) * (m + k + 1)


class _Table:
    """Exact diagonal values of one module relative to its reference vector.

    The values are even in n, V(-n) = V(n) (point modules have no negative
    indices), so the table is one-sided: ``_entries[k]`` is the value at
    |n| = n0 + k, k steps out from the reference index n0, None at a pole
    and at every index past one.  Each entry is its predecessor times the
    step chosen at construction (a partial of a module function, so a used
    spec still pickles); entries are only ever added, each from its
    predecessor, so concurrent callers can at worst compute the same entry
    twice.
    """

    __slots__ = ("_ref_twice", "_step", "_entries", "magnitude")

    def __init__(self, spec: "PrincipalSeries | PointModule"):
        self._ref_twice = reference_index(spec).twice
        self._step = (partial(_point_step, spec.m) if isinstance(spec, PointModule)
                      else partial(_series_step, self._ref_twice, spec.lam))
        self._entries = {0: Fraction(1)}
        self.magnitude: Optional[float] = None  # reference magnitude, set on first use

    def ratio(self, n: HalfInt) -> Optional[Fraction]:
        k = (abs(n.twice) - self._ref_twice) // 2
        entries = self._entries
        # the keys are always 0..len-1, since an entry is added only after
        # its predecessor, so the walk resumes at the last one
        j = len(entries) - 1
        if k <= j:
            return entries[k]
        value = entries[j]
        while j < k:
            step = None if value is None else self._step(j)
            value = None if step is None else value * step
            j += 1
            entries[j] = value
        return value


def _table(spec: ModuleSpec) -> _Table:
    """The module's diagonal table, created on first use and kept on the spec.

    It lives in the instance dictionary, outside the dataclass fields, so
    equality, hashing and repr are untouched; W1 shares its base's table.
    """
    owner = spec.base if isinstance(spec, W1Sub) else spec
    table = vars(owner).get("_diagonal_table")
    if table is None:
        table = vars(owner).setdefault("_diagonal_table", _Table(owner))
    return table


def _ratio(v: BasisVector, spec: ModuleSpec) -> Optional[Fraction]:
    """Exact (v, v) relative to the reference value, None at a pole."""
    require_member(v, spec)
    if isinstance(spec, PrincipalSeries) and spec.reducible:
        return None
    return _table(spec).ratio(v.index)


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
    return FormValue.of(_ratio(v, spec), _magnitude(spec))


def diagonal_sign(v: BasisVector, spec: ModuleSpec) -> Sign:
    """Exact sign of (v, v) (Sign.POLE at a pole), with no float magnitude."""
    return Sign.of(_ratio(v, spec))


def form_pairing(v: BasisVector, w: BasisVector, spec: ModuleSpec) -> FormValue:
    """Pairing (v, w): zero off the diagonal, form_diagonal on it."""
    require_member(v, spec)
    require_member(w, spec)
    if v != w:
        return FormValue.of(Fraction(0), _magnitude(spec))
    return form_diagonal(v, spec)


def gR_form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Noncompact-form-invariant diagonal value (theta v, v), exact."""
    base = form_diagonal(v, spec)
    if base.ratio_to_reference is None:
        return base
    return FormValue.of(theta_sign(v, spec) * base.ratio_to_reference,
                        base.reference_magnitude)


def convergence_range(spec: PrincipalSeries) -> List[HalfInt]:
    """Basis indices with -(lam+1)/2 < n < (lam+1)/2 (strict, exact)."""
    bound2 = spec.lam + 1  # strict bound on |2n|
    res = spec.parity.twice_residue
    hi = math.ceil(bound2) - 1
    while Fraction(hi) >= bound2 or hi % 2 != res:
        hi -= 1
    return [HalfInt(tw) for tw in range(-hi, hi + 1, 2)] if hi >= 0 else []


def _u_ratio(v: BasisVector, spec: ModuleSpec) -> Fraction:
    value = _ratio(v, spec)
    if value is None:
        raise ValueError(f"form has a pole at {v} on {spec}")
    return value


def invariance_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Verify both invariance laws exactly on all window pairs.

    Compact form:    (e+ u, w) = (u, e- w)  and  (h u, w) = (u, h w).
    Noncompact form: (e+ u, w) = -(u, e- w).

    A generator moves an index by at most one step and all pairings reduce
    to the diagonal, so a pair (u, w) can only violate a law when w is u
    or a window neighbor of u; every such pair is checked as an exact
    identity between rational ratio products.
    """
    failures = []
    window = basis_window(spec, bound)
    in_window = set(window)
    uratio = {v: _u_ratio(v, spec) for v in window}
    gratio = {v: theta_sign(v, spec) * uratio[v] for v in window}

    def pair(gen: Generator, u: BasisVector, w: BasisVector, table) -> Fraction:
        # (gen u, w): gen u is one multiple of a single basis vector
        coefficient, shift = _step(gen, u, spec)
        return (coefficient if u.index + shift == w.index else 0) * table[w]

    laws = (
        (Generator.E_PLUS, Generator.E_MINUS, 1, uratio, "(e+u,w)=(u,e-w)"),
        (Generator.H, Generator.H, 1, uratio, "(hu,w)=(u,hw)"),
        (Generator.E_PLUS, Generator.E_MINUS, -1, gratio, "(e+u,w)=-(u,e-w)"),
    )
    for u in window:
        neighbors = [w for w in (BasisVector(u.index - 1), u, BasisVector(u.index + 1))
                     if w in in_window]
        for gen_l, gen_r, flip, table, law in laws:
            for w in neighbors:
                lhs = pair(gen_l, u, w, table)
                rhs = flip * pair(gen_r, w, u, table)
                if lhs != rhs:
                    failures.append(f"{law} fails at u={u}, w={w}: {lhs} != {rhs}")
    return CheckResult(not failures, tuple(failures))
