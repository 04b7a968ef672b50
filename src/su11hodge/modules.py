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

Each spec class carries the facts of its family, and the functions of
every layer read them instead of switching on the type: ``reducible``;
``base``, the ambient series of a W1 (any other module is its own);
``codim`` of the supporting orbit; ``lattice``, the residue of 2n mod 2
and the lowest and highest 2n (None: no limit), whose least |2n| is the
reference index; and ``coefficients``, the formulas above as one integer
polynomial of degree <= 2 in t = 2n plus a shift per generator, over one
integer denominator per module (2q on PS(p/q), 4 on a point module),
built once per module.  A new family is a class with these facts; only
rules where the open orbit and a point differ (the diagonal step, the
reference magnitude) still test the type.  Each check
reads each coefficient once, as an integer numerator and denominator, and
compares its laws cross-multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple, Union

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

    __hash__ = object.__hash__  # members are singletons: no Python-level hash per lookup


# (2n mod 2, lowest 2n, highest 2n) over the basis indices n; None: no limit
Lattice = Tuple[int, Optional[int], Optional[int]]
# (d, {gen -> (a0, a1, a2, shift)}): gen . v_n = (a0 + a1 t + a2 t^2) / d v_{n + shift}
# with t = 2n, integers throughout and one denominator d > 0 per module
Coefficients = Tuple[int, Dict[Generator, Tuple[int, int, int, int]]]


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

    codim = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam < 0:
            raise ValueError(f"dominance requires lam >= 0, got {self.lam}")

    @property
    def mu(self) -> Fraction:
        return (self.lam - 1) / 2

    @cached_property
    def reducible(self) -> bool:
        return is_reduction_point(self.lam, self.parity)

    @property
    def base(self) -> "PrincipalSeries":
        return self

    @cached_property
    def lattice(self) -> Lattice:
        return self.parity.twice_residue, None, None

    @cached_property
    def coefficients(self) -> Coefficients:
        # over 2q, lam = p/q: -mu = (q - p) / 2q, n = q t / 2q
        p, q = self.lam.numerator, self.lam.denominator
        return 2 * q, {Generator.E_PLUS: (q - p, -q, 0, -1), Generator.H: (0, -2 * q, 0, 0),
                       Generator.E_MINUS: (q - p, q, 0, 1)}

    def __str__(self) -> str:
        return f"PS(lambda={self.lam}, {self.parity.value})"


@dataclass(frozen=True)
class PointModule:
    """Module supported at a closed orbit with integral twist m >= 0."""

    m: int
    orbit: Orbit

    codim = 1
    reducible = False
    lattice = (0, 0, None)  # k = n >= 0

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise ValueError(f"point module twist must be an integer >= 0, got {self.m}")

    @property
    def base(self) -> "PointModule":
        return self

    @cached_property
    def coefficients(self) -> Coefficients:
        # over 4, k = t / 2: k (k + m) = (t^2 + 2 m t) / 4
        m, E, H, F = self.m, Generator.E_PLUS, Generator.H, Generator.E_MINUS
        up, down = (-4, 0, 0, 1), (0, 2 * m, 1, -1)
        if self.orbit is Orbit.AT_ZERO:
            return 4, {E: up, H: (4 * m + 4, 4, 0, 0), F: down}
        # at infinity: e+ <-> e-, h -> -h
        return 4, {E: down, H: (-4 * m - 4, -4, 0, 0), F: up}

    def __str__(self) -> str:
        return f"Point(m={self.m}, at {self.orbit.value})"


@dataclass(frozen=True)
class W1Sub:
    """Finite-dimensional weight-one submodule at a positive reduction point.

    Irreducible, on a narrower lattice; the action and the forms are its base's.
    """

    base: PrincipalSeries

    codim = 0
    reducible = False

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

    @cached_property
    def lattice(self) -> Lattice:
        return self.parity.twice_residue, -self.max_abs_twice, self.max_abs_twice

    @property
    def coefficients(self) -> Coefficients:
        return self.base.coefficients

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


# v_n by 2n, one shared instance each: sweeps reuse them (windows up to bound 1024)
_vector = lru_cache(maxsize=4096)(lambda twice: BasisVector(HalfInt(twice)))


def belongs(v: BasisVector, spec: ModuleSpec) -> bool:
    """Whether the index lies on the basis lattice of the module."""
    tw = v.index.twice
    residue, lo, hi = spec.lattice
    return tw % 2 == residue and (lo is None or lo <= tw) and (hi is None or tw <= hi)


def require_member(v: BasisVector, spec: ModuleSpec) -> None:
    if not belongs(v, spec):
        raise ValueError(f"{v} is not a basis vector of {spec}")


def reference_index(spec: ModuleSpec) -> HalfInt:
    """Index of the vector theta is normalized to fix (also the form anchor)."""
    return HalfInt(spec.lattice[0])


def _step(spec: ModuleSpec, gen: Generator, twice: int) -> Tuple[int, int, int]:
    """The single term of gen . v_n as (numerator, denominator, shift), twice = 2n.

    Every generator sends a basis vector to a rational multiple of one
    basis vector: numerator / denominator times v_{n + shift}.  The
    numerator is the module's integer polynomial of degree <= 2 in t and
    the denominator the module's own (> 0), not reduced, so callers
    compare cross-multiplied or build a ``Fraction``; the shift is -1, 0
    or +1.  Membership of v_n is not checked.
    """
    denominator, polynomials = spec.coefficients
    a0, a1, a2, shift = polynomials[gen]
    return a0 + twice * (a1 + twice * a2), denominator, shift


def act(gen: Generator, v: BasisVector, spec: ModuleSpec) -> Dict[BasisVector, Fraction]:
    """Apply one sl(2) generator to a basis vector, exactly.

    Returns ``{target: coefficient}``, empty when the coefficient is zero.
    Principal-series coefficients come from the product rule on z^n s0^mu;
    point-module coefficients from normal differentiation of the delta
    function and the twist.  W1 members use the ambient formulas (the
    submodule is action-stable).
    """
    require_member(v, spec)
    n, d, shift = _step(spec, gen, v.index.twice)
    return {BasisVector(v.index + shift): Fraction(n, d)} if n else {}


def _theta_odd(spec: ModuleSpec, twice: int) -> int:
    """n - n0 mod 2 at 2n = twice: 1 where theta is -1, 0 where it is 1."""
    return (twice - spec.lattice[0]) // 2 % 2


def theta_sign(v: BasisVector, spec: ModuleSpec) -> int:
    """Diagonal Cartan-involution eigenvalue (-1)^(n - n0) on v."""
    require_member(v, spec)
    return -1 if _theta_odd(spec, v.index.twice) else 1


def constituents(spec: ModuleSpec) -> List[ModuleSpec]:
    """Irreducible constituents: the module itself, or W1 plus two point modules.

    At a positive reduction point lam0 the pieces are the lam0-dimensional
    W1 submodule and the point modules with twist m = lam0 at 0 and at
    infinity.  At lam0 = 0 (odd parity) W1 has no sections and only the
    two point modules remain.
    """
    if not spec.reducible:
        return [spec]
    m = int(spec.lam)
    points: List[ModuleSpec] = [PointModule(m, orbit) for orbit in Orbit]
    if m == 0:
        return points
    return [W1Sub(spec)] + points


def _require_bound(bound: int) -> None:
    if bound < 0:
        raise ValueError("bound must be >= 0")


def _lattice(spec: ModuleSpec, lo: int, hi: int) -> range:
    """The doubled indices 2n of the basis with lo <= 2n <= hi, increasing."""
    residue, lowest, highest = spec.lattice
    lo = lo if lowest is None else max(lo, lowest)
    hi = hi if highest is None else min(hi, highest)
    return range(lo + (lo - residue) % 2, hi + 1, 2)


def basis_window(spec: ModuleSpec, bound: int) -> List[BasisVector]:
    """All basis vectors with |n| <= bound (k <= bound on point modules)."""
    _require_bound(bound)
    return [_vector(tw) for tw in _lattice(spec, -2 * bound, 2 * bound)]


def h_weight(v: BasisVector, spec: ModuleSpec) -> int:
    """Exact h-eigenvalue of a basis vector (always an integer)."""
    require_member(v, spec)
    n, d, _ = _step(spec, Generator.H, v.index.twice)
    return n // d


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact operator-identity check, with the failing window lines."""

    ok: bool
    failures: Tuple[str, ...] = field(default_factory=tuple)


def _decide(spec: ModuleSpec, bound: int,
            failures: Callable[[ModuleSpec, List[BasisVector]], List[str]]) -> CheckResult:
    """Decide the laws behind ``failures`` on every index, listing window failures.

    Each ``_step`` numerator is a polynomial of degree <= 2 in the index
    over a constant denominator and each shift is constant, so each bracket
    and theta law at v is a polynomial identity of degree <= 4 in the
    index.  So is each invariance law on either side of the fold
    V(-n) = V(n), cross-multiplied by the integer continuation step, a
    ratio of degree <= 2.  Such an identity
    holds on the whole lattice when it holds at five consecutive indices
    (on each side of the fold).  The sample has them: the lattice indices
    within six steps of the reference (k = 0..6 on a point module).  When
    every law holds there the result is ok; otherwise, or with no sample
    (W1 is finite, a reducible series has poles), the window of ``bound``
    is swept and its failures listed.  ``failures`` compares cross-multiplied
    integers, so an unreduced denominator gives the same verdict, and builds
    a ``Fraction`` only to print a value.
    """
    _require_bound(bound)
    ref, _, highest = spec.lattice
    if not spec.reducible and highest is None:
        sample = [_vector(tw) for tw in _lattice(spec, ref - 12, ref + 12)]
        if not failures(spec, sample):
            return CheckResult(True)
    found = failures(spec, basis_window(spec, bound))
    return CheckResult(not found, tuple(found))


class _Memo(dict):
    """A dict that fills a missing key k with ``compute(k)``, once."""

    def __init__(self, compute: Callable):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _steps(spec: ModuleSpec) -> List[_Memo]:
    """``_step`` for e+, h, e-: 2n -> (numerator, denominator, shift), once each per call."""
    return [_Memo(partial(_step, spec, gen)) for gen in Generator]


def _bracket_failures(spec: ModuleSpec, vectors: List[BasisVector]) -> List[str]:
    failures = []
    E, H, F = _steps(spec)

    def compose(a: _Memo, b: _Memo, tw: int) -> Tuple[int, int]:
        # a . (b . v) at its single target index, as (numerator, denominator)
        n, d, shift = b[tw]
        if not n:  # b . v is zero; its index may lie off the basis
            return 0, 1
        n2, d2, _ = a[tw + 2 * shift]
        return n * n2, d * d2

    # [a, b] v = k g v, with both sides on the same basis vector
    laws = ((H, E, 2, E, "[h,e+] != 2 e+"), (H, F, -2, F, "[h,e-] != -2 e-"),
            (E, F, 1, H, "[e+,e-] != h"))
    for v in vectors:
        tw = v.index.twice
        for a, b, k, g, law in laws:
            n1, d1 = compose(a, b, tw)
            n2, d2 = compose(b, a, tw)
            n3, d3, _ = g[tw]
            if (n1 * d2 - n2 * d1) * d3 != k * n3 * d1 * d2:
                failures.append(f"{law} at {v}")
    return failures


def bracket_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Decide [h,e+] = 2e+, [h,e-] = -2e-, [e+,e-] = h on every index, exactly.

    Both sides of each relation are multiples of the same basis vector
    (shifts add), so each relation is one polynomial identity in the index
    between coefficients, decided as in ``_decide``.
    """
    return _decide(spec, bound, _bracket_failures)


def _theta_failures(spec: ModuleSpec, vectors: List[BasisVector]) -> List[str]:
    failures = []
    E, H, F = _steps(spec)
    theta = _Memo(lambda tw: theta_sign(_vector(tw), spec))
    laws = ((E, -1, "theta e+ theta != -e+"), (F, -1, "theta e- theta != -e-"),
            (H, 1, "theta h theta != h"))
    for v in vectors:
        tw = v.index.twice
        sign = theta[tw]
        if sign * sign != 1:
            failures.append(f"theta^2 != 1 at {v}")
        for step, k, law in laws:  # a zero gen . v may point off the basis
            n, _, shift = step[tw]
            if n and sign * theta[tw + 2 * shift] != k:
                failures.append(f"{law} at {v}")
    return failures


def theta_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Decide theta^2 = 1 and the intertwining signs on every index, exactly.

    theta gen theta sends v to theta(v) theta(v + shift) times gen . v, so
    each intertwining law is a sign identity where gen . v is non-zero,
    decided as in ``_decide``.
    """
    return _decide(spec, bound, _theta_failures)
