"""Hodge levels, weight-filtration membership, and the gr_{W,2} weight oracle.

On the open-orbit modules the Hodge level of z^n s0^mu is governed by pole
order: v_n enters F_p exactly when |n| <= (lam+1)/2 + p, so

    level(n) = max(0, ceil(|n| - (lam+1)/2)) = max(0, ceil((q|2n| - p - q) / 2q))

with lam = p/q, computed by integer floor division (the ceiling lands
boundary cases, where the difference is an exact integer, on the weak
inequality).  On point modules the level is the derivative order shifted
by the codimension of the support: level(k) = k + 1.

The weight filtration is trivial in the irreducible case and on point
modules; at a reduction point lam0 the W1 layer consists of |2n| <= lam0-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, List, Tuple

from .exact import RationalLike
from .modules import (
    _lattice,
    BasisVector,
    ModuleSpec,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    belongs,
    h_weight,
    is_reduction_point,
    require_member,
    Orbit,
)

__all__ = [
    "hodge_level",
    "w1_member",
    "hodge_dim",
    "FiltrationReport",
    "filtration_table",
    "WeightMatchReport",
    "grw2_weights",
]


def _point_level(twice: int) -> int:
    return twice // 2 + 1


def _series_level(p: int, q: int, twice: int) -> int:
    # ceil(a / b) = -(-a // b) with a = q|2n| - p - q and b = 2q > 0
    return max(0, -((p + q - q * abs(twice)) // (2 * q)))


def _levels(spec: ModuleSpec) -> Callable[[int], int]:
    """The Hodge level of v_n on ``spec`` as a function of 2n, membership unchecked."""
    if spec.codim:
        return _point_level
    lam = spec.base.lam
    return partial(_series_level, lam.numerator, lam.denominator)


def hodge_level(v: BasisVector, spec: ModuleSpec) -> int:
    """Smallest p with v in F_p, by the pole-order / derivative-order rule."""
    require_member(v, spec)
    return _levels(spec)(v.index.twice)


def w1_member(v: BasisVector, lambda0: RationalLike, parity: Parity) -> bool:
    """Weight-one membership at the reduction point lambda0: |2n| <= lambda0 - 1."""
    lambda0 = Fraction(lambda0)
    if not is_reduction_point(lambda0, parity):
        raise ValueError(f"{lambda0} is not a reduction point for {parity.value} parity")
    return abs(v.index.twice) <= lambda0 - 1


def hodge_dim(spec: ModuleSpec, p: int) -> int:
    """Number of basis vectors with hodge_level <= p (finite for every p)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if spec.codim:
        return p
    hi = math.floor(spec.base.lam + 1 + 2 * p)  # level <= p iff |2n| <= lam + 1 + 2p
    return len(_lattice(spec, -hi, hi))


@dataclass(frozen=True)
class FiltrationReport:
    """Per-vector filtration data; w1_member is meaningful at reduction points."""

    vector: BasisVector
    hodge_level: int
    w1_member: bool


def filtration_table(spec: ModuleSpec, bound: int) -> List[FiltrationReport]:
    """Hodge level and W1 membership for every window vector.

    Away from reduction points the weight filtration collapses, so every
    vector reports w1_member = True; likewise on point modules.
    """
    rows = []
    w1 = W1Sub(spec) if spec.reducible and spec.lam else None  # PS(0, odd) has no W1
    level = _levels(spec)  # the window vectors are members
    for v in basis_window(spec, bound):
        in_w1 = belongs(v, w1) if w1 else not spec.reducible
        rows.append(FiltrationReport(v, level(v.index.twice), in_w1))
    return rows


@dataclass(frozen=True)
class WeightMatchReport:
    """Comparison of h-weight multisets: quotient basis vs the two point modules."""

    lambda0: Fraction
    parity: Parity
    cutoff: int
    quotient_weights: Tuple[int, ...]
    point_weights: Tuple[int, ...]
    equal: bool


def grw2_weights(lambda0: RationalLike, parity: Parity, cutoff: int) -> WeightMatchReport:
    """Match the quotient h-weights against the union of the point-module weights.

    At a positive reduction point the quotient of the principal series by
    W1 is supported on the two closed orbits; its h-weight multiset (from
    the basis indices |2n| > lambda0 - 1) must reproduce the weights of the
    point modules with twist lambda0 at 0 and at infinity.  Both sides are
    truncated to |weight| <= cutoff.
    """
    lambda0 = Fraction(lambda0)
    if not is_reduction_point(lambda0, parity) or lambda0 <= 0:
        raise ValueError(
            f"{lambda0} is not a positive reduction point for {parity.value} parity"
        )
    ps = PrincipalSeries(lambda0, parity)
    quotient = sorted(
        h_weight(v, ps)
        for v in basis_window(ps, cutoff + int(lambda0) + 2)
        if abs(v.index.twice) > lambda0 - 1 and abs(h_weight(v, ps)) <= cutoff
    )
    m = int(lambda0)
    points = []
    for orbit in (Orbit.AT_ZERO, Orbit.AT_INFINITY):
        pm = PointModule(m, orbit)
        points.extend(
            h_weight(v, pm)
            for v in basis_window(pm, cutoff)
            if abs(h_weight(v, pm)) <= cutoff
        )
    points.sort()
    return WeightMatchReport(
        lambda0, parity, cutoff, tuple(quotient), tuple(points), quotient == points
    )
