"""Hodge levels, weight-filtration membership, and the gr_{W,2} weight oracle.

On the open-orbit modules the Hodge level of z^n s0^mu is governed by pole
order: v_n lies in F_h exactly when |n| <= (lam+1)/2 + h.  With lam = p/q
and |2n| = r + 2k, k steps out from the reference 2 n0 = r, that is
k <= k1 + h with k1 = floor((p + q - q r) / 2q), so the level is
max(0, k - k1).  On point modules it is the derivative order shifted by the
codimension of the support, k + 1: k1 = -1.  Every level here reads k1
from ``spec.breakpoints``, beside the sign threshold j0 (see ``modules``).

The weight filtration is trivial in the irreducible case and on point
modules; at a reduction point lam0 the W1 layer consists of |2n| <= lam0-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, List, Tuple

from .exact import RationalLike
from .modules import (
    _lattice,
    _past,
    _require_bound,
    BasisVector,
    ModuleSpec,
    Parity,
    PrincipalSeries,
    W1Sub,
    basis_window,
    belongs,
    constituents,
    h_weight,
    require_member,
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


def hodge_dim(spec: ModuleSpec, p: int) -> int:
    """Number of basis vectors with hodge_level <= p (finite for every p)."""
    _require_bound(p, "p")
    r, k1, _ = spec.breakpoints
    hi = r + 2 * (p + k1)  # max(0, k - k1) <= p iff k <= p + k1
    return len(_lattice(spec, -hi, hi))


def _levels(spec: ModuleSpec) -> Callable[[int], int]:
    """The Hodge level of v_n on ``spec`` as a function of 2n, membership unchecked."""
    r, k1, _ = spec.breakpoints
    return partial(_past, r, k1)


def hodge_level(v: BasisVector, spec: ModuleSpec) -> int:
    """Smallest p with v in F_p, by the pole-order / derivative-order rule."""
    require_member(v, spec)
    r, k1, _ = spec.breakpoints
    return _past(r, k1, v.index.twice)


def w1_member(v: BasisVector, lambda0: RationalLike, parity: Parity) -> bool:
    """Weight-one membership at the reduction point lambda0: |2n| <= lambda0 - 1,
    for a basis vector v of the series (ValueError otherwise, as ``hodge_level``)."""
    ps = PrincipalSeries(lambda0, parity)
    if not ps.reducible:
        raise ValueError(f"{ps.lam} is not a reduction point for {parity.value} parity")
    require_member(v, ps)
    return bool(ps.lam) and belongs(v, W1Sub(ps))  # PS(0, odd) has no W1


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
    _require_bound(cutoff, "cutoff")
    w1 = W1Sub(PrincipalSeries(lambda0, parity))
    ps, m = w1.base, w1.dim
    quotient = sorted(
        h_weight(v, ps)
        for v in basis_window(ps, cutoff + m + 2)
        if not belongs(v, w1) and abs(h_weight(v, ps)) <= cutoff
    )
    points = sorted(
        h_weight(v, pm)
        for pm in constituents(ps)[1:]  # the point modules beside W1
        for v in basis_window(pm, cutoff)
        if abs(h_weight(v, pm)) <= cutoff
    )
    return WeightMatchReport(
        w1.lam0, parity, cutoff, tuple(quotient), tuple(points), quotient == points
    )
