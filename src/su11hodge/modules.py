"""Harish-Chandra modules for SU(1,1) on explicit weight bases.

The complexified maximal compact K = C^* acts on the flag variety
P^1 = C u {inf} with orbits {0}, {inf} and C^*.  Three families of modules
are realized here, all with exact rational action coefficients for the
standard sl(2)-triple e+, h, e- (as vector fields: e+ = -d/dz,
e- = z^2 d/dz, h = -2z d/dz).

``PrincipalSeries(lam, parity)``
    Sections f(z) s0^mu on the open orbit, mu = (lam-1)/2, with basis
    v_n = z^n s0^mu indexed by n in Z (even parity) or Z + 1/2 (odd).
    The product rule gives

        e+ . v_n = -(n + mu) v_{n-1}
        h  . v_n = -2n v_n
        e- . v_n = (n - mu) v_{n+1}

    Reducible exactly when lam is an odd integer (even parity) or an even
    integer (odd parity).

``PointModule(m, orbit)``
    Normal derivatives of the holomorphic delta function at a closed
    orbit, twisted by s2^((m-1)/2); basis v_k, k >= 0.  At the origin

        e+ . v_k = -v_{k+1}
        h  . v_k = (2k + m + 1) v_k
        e- . v_k = k (k + m) v_{k-1}

    and at infinity the same formulas with e+ and e- swapped and h
    negated (the two orbits differ by an outer automorphism).

``W1Sub(base)``
    At a positive reduction point lam0, the weight-one submodule spanned
    by the v_n with |2n| <= lam0 - 1: a lam0-dimensional representation.
    The boundary action coefficients vanish identically, so it is stable.

The Cartan involution (conjugation by diag(i, -i)) anticommutes with e+
and e-, commutes with h, and therefore acts diagonally on every basis:
theta(v_n) = (-1)^(n - n0) v_n, normalized so that theta fixes the
reference vector (n0 = 0 even, 1/2 odd, k = 0 on point modules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .exact import HalfInt, RationalLike

__all__ = [
    "Parity",
    "Orbit",
    "Generator",
    "PrincipalSeries",
    "PointModule",
    "W1Sub",
    "ModuleSpec",
    "BasisVector",
    "is_reduction_point",
    "belongs",
    "require_member",
    "reference_index",
    "act",
    "theta_sign",
    "constituents",
    "basis_window",
    "h_weight",
    "CheckResult",
    "bracket_check",
    "theta_check",
]


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"

    @property
    def twice_residue(self) -> int:
        """Residue mod 2 of doubled indices on this lattice."""
        return 0 if self is Parity.EVEN else 1


class Orbit(Enum):
    AT_ZERO = "0"
    AT_INFINITY = "inf"


class Generator(Enum):
    E_PLUS = "e+"
    H = "h"
    E_MINUS = "e-"


def is_reduction_point(lam: RationalLike, parity: Parity) -> bool:
    """Reducibility criterion: odd integer (even parity), even integer (odd)."""
    lam = Fraction(lam)
    if lam.denominator != 1:
        return False
    want_odd = parity is Parity.EVEN
    return (lam.numerator % 2 == 1) is want_odd


@dataclass(frozen=True)
class PrincipalSeries:
    """Sheaf module on the open orbit with twist lam >= 0 and a parity."""

    lam: Fraction
    parity: Parity

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam < 0:
            raise ValueError(f"dominance requires lam >= 0, got {self.lam}")

    @property
    def mu(self) -> Fraction:
        return (self.lam - 1) / 2

    @property
    def reducible(self) -> bool:
        return is_reduction_point(self.lam, self.parity)

    @property
    def codim(self) -> int:
        return 0

    def __str__(self) -> str:
        return f"PS(lambda={self.lam}, {self.parity.value})"


@dataclass(frozen=True)
class PointModule:
    """Module supported at a closed orbit with integral twist m >= 0."""

    m: int
    orbit: Orbit

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError(f"point module twist must be an integer >= 0, got {self.m}")

    @property
    def codim(self) -> int:
        return 1

    def __str__(self) -> str:
        where = "0" if self.orbit is Orbit.AT_ZERO else "inf"
        return f"Point(m={self.m}, at {where})"


@dataclass(frozen=True)
class W1Sub:
    """Finite-dimensional weight-one submodule at a positive reduction point."""

    base: PrincipalSeries

    def __post_init__(self):
        if not self.base.reducible or self.base.lam < 1:
            raise ValueError(
                f"W1 submodule needs a positive reduction point, got {self.base}"
            )

    @property
    def lam0(self) -> Fraction:
        return self.base.lam

    @property
    def parity(self) -> Parity:
        return self.base.parity

    @property
    def dim(self) -> int:
        return int(self.lam0)

    @property
    def max_abs_twice(self) -> int:
        # |2n| <= lam0 - 1
        return int(self.lam0) - 1

    @property
    def codim(self) -> int:
        return 0

    def __str__(self) -> str:
        return f"W1(lambda0={self.lam0}, {self.parity.value}, dim {self.dim})"


ModuleSpec = Union[PrincipalSeries, PointModule, W1Sub]


@dataclass(frozen=True, order=True)
class BasisVector:
    """A single basis element, identified by its (half-)integer index."""

    index: HalfInt

    @classmethod
    def at(cls, n: "HalfInt | RationalLike") -> "BasisVector":
        return cls(HalfInt.of(n))

    def __str__(self) -> str:
        return f"v[{self.index}]"


def belongs(v: BasisVector, spec: ModuleSpec) -> bool:
    """Whether the index lies on the basis lattice of the module."""
    tw = v.index.twice
    if isinstance(spec, PrincipalSeries):
        return tw % 2 == spec.parity.twice_residue
    if isinstance(spec, W1Sub):
        return tw % 2 == spec.parity.twice_residue and abs(tw) <= spec.max_abs_twice
    if isinstance(spec, PointModule):
        return tw % 2 == 0 and tw >= 0
    raise TypeError(f"not a module spec: {spec!r}")


def require_member(v: BasisVector, spec: ModuleSpec) -> None:
    if not belongs(v, spec):
        raise ValueError(f"{v} is not a basis vector of {spec}")


def reference_index(spec: ModuleSpec) -> HalfInt:
    """Index of the vector theta is normalized to fix (also the form anchor)."""
    if isinstance(spec, PointModule):
        return HalfInt(0)
    return HalfInt(spec.parity.twice_residue)


def _point_index(v: BasisVector) -> int:
    return v.index.twice // 2


def _step(gen: Generator, v: BasisVector, spec: ModuleSpec) -> Tuple[RationalLike, int]:
    """The single term of gen . v as (coefficient, index shift).

    Every generator sends a basis vector to a rational multiple of one
    basis vector; the shift is -1, 0 or +1 and depends only on the
    generator and the module family.  Membership of v is not checked.
    """
    if isinstance(spec, (PrincipalSeries, W1Sub)):
        ps = spec.base if isinstance(spec, W1Sub) else spec
        nf = v.index.as_fraction
        if gen is Generator.E_PLUS:
            return -(nf + ps.mu), -1
        if gen is Generator.H:
            return -2 * nf, 0
        return nf - ps.mu, 1

    k = _point_index(v)
    up = (-1, 1)
    down = (k * (k + spec.m), -1)
    h = 2 * k + spec.m + 1
    if spec.orbit is Orbit.AT_ZERO:
        if gen is Generator.E_PLUS:
            return up
        if gen is Generator.H:
            return h, 0
        return down
    # at infinity: e+ <-> e-, h -> -h
    if gen is Generator.E_PLUS:
        return down
    if gen is Generator.H:
        return -h, 0
    return up


def act(gen: Generator, v: BasisVector, spec: ModuleSpec) -> Dict[BasisVector, Fraction]:
    """Apply one sl(2) generator to a basis vector, exactly.

    Returns ``{target: coefficient}``, empty when the coefficient is zero.
    Principal-series coefficients come from the product rule on z^n s0^mu;
    point-module coefficients from normal differentiation of the delta
    function and the twist.  W1 members use the ambient formulas (the
    submodule is action-stable).
    """
    require_member(v, spec)
    coefficient, shift = _step(gen, v, spec)
    return {BasisVector(v.index + shift): Fraction(coefficient)} if coefficient else {}


def theta_sign(v: BasisVector, spec: ModuleSpec) -> int:
    """Diagonal Cartan-involution eigenvalue (-1)^(n - n0) on v."""
    require_member(v, spec)
    steps = (v.index.twice - reference_index(spec).twice) // 2
    return -1 if steps % 2 else 1


def constituents(spec: PrincipalSeries) -> List[ModuleSpec]:
    """Irreducible constituents: the module itself, or W1 plus two point modules.

    At a positive reduction point lam0 the pieces are the lam0-dimensional
    W1 submodule and the point modules with twist m = lam0 at 0 and at
    infinity.  At lam0 = 0 (odd parity) W1 has no sections and only the
    two point modules remain.
    """
    if not spec.reducible:
        return [spec]
    m = int(spec.lam)
    points: List[ModuleSpec] = [
        PointModule(m, Orbit.AT_ZERO),
        PointModule(m, Orbit.AT_INFINITY),
    ]
    if m == 0:
        return points
    return [W1Sub(spec)] + points


def basis_window(spec: ModuleSpec, bound: int) -> List[BasisVector]:
    """All basis vectors with |n| <= bound (k <= bound on point modules)."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if isinstance(spec, PointModule):
        return [BasisVector(HalfInt(2 * k)) for k in range(bound + 1)]
    hi = 2 * bound
    if isinstance(spec, W1Sub):
        hi = min(hi, spec.max_abs_twice)
    res = spec.parity.twice_residue
    start = -hi if (-hi) % 2 == res else -hi + 1
    return [BasisVector(HalfInt(tw)) for tw in range(start, hi + 1, 2)]


def h_weight(v: BasisVector, spec: ModuleSpec) -> int:
    """Exact h-eigenvalue of a basis vector (always an integer)."""
    require_member(v, spec)
    return int(_step(Generator.H, v, spec)[0])


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact operator-identity sweep over a basis window."""

    ok: bool
    failures: Tuple[str, ...] = field(default_factory=tuple)


def _compose(a: Generator, b: Generator, v: BasisVector, spec: ModuleSpec) -> RationalLike:
    """Coefficient of a . (b . v) at its single target index."""
    c, shift = _step(b, v, spec)
    if not c:  # b . v is zero; its index may lie off the basis
        return 0
    return c * _step(a, BasisVector(v.index + shift), spec)[0]


def bracket_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Verify [h,e+] = 2e+, [h,e-] = -2e-, [e+,e-] = h on the window, exactly.

    Both sides of each relation are multiples of the same basis vector
    (shifts add), so each relation is one identity between coefficients.
    """
    failures = []
    E, H, F = Generator.E_PLUS, Generator.H, Generator.E_MINUS

    def bracket(a: Generator, b: Generator, v: BasisVector) -> RationalLike:
        return _compose(a, b, v, spec) - _compose(b, a, v, spec)

    for v in basis_window(spec, bound):
        if bracket(H, E, v) != 2 * _step(E, v, spec)[0]:
            failures.append(f"[h,e+] != 2 e+ at {v}")
        if bracket(H, F, v) != -2 * _step(F, v, spec)[0]:
            failures.append(f"[h,e-] != -2 e- at {v}")
        if bracket(E, F, v) != _step(H, v, spec)[0]:
            failures.append(f"[e+,e-] != h at {v}")
    return CheckResult(not failures, tuple(failures))


def theta_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Verify theta^2 = 1 and the intertwining signs on the window, exactly.

    theta gen theta sends v to a multiple of the same basis vector as
    gen does, so each intertwining law is one identity between coefficients.
    """
    failures = []

    def conjugate(gen: Generator, v: BasisVector) -> RationalLike:
        c, shift = _step(gen, v, spec)
        if not c:  # gen . v is zero; its index may lie off the basis
            return 0
        return theta_sign(v, spec) * c * theta_sign(BasisVector(v.index + shift), spec)

    for v in basis_window(spec, bound):
        if theta_sign(v, spec) ** 2 != 1:
            failures.append(f"theta^2 != 1 at {v}")
        if conjugate(Generator.E_PLUS, v) != -_step(Generator.E_PLUS, v, spec)[0]:
            failures.append(f"theta e+ theta != -e+ at {v}")
        if conjugate(Generator.E_MINUS, v) != -_step(Generator.E_MINUS, v, spec)[0]:
            failures.append(f"theta e- theta != -e- at {v}")
        if conjugate(Generator.H, v) != _step(Generator.H, v, spec)[0]:
            failures.append(f"theta h theta != h at {v}")
    return CheckResult(not failures, tuple(failures))
