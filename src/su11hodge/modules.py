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
reference index; ``coefficients``, the formulas above as one integer
polynomial of degree <= 2 in t = 2n plus a shift per generator, over one
integer denominator per module (2q on PS(p/q), 4 on a point module),
built once per module; ``breakpoints`` (r, k1, j0), the reference
2 n0 = r and the Hodge level and sign thresholds (see ``_past``);
``step``, the diagonal step V(n+1) / V(n) of the invariant form as an
integer polynomial of degree <= 2 in t over another, kept apart from
``coefficients`` so that invariance compares two independent facts;
``reference_magnitude``, the float V(n0) (4 pi times a Beta value on a
series, None where it diverges, 1 on a point module); and ``strip``, the
largest integer < lam + 1, which bounds |2n| on the convergence strip
(None on a point module).  A W1 has its base's, and the forms read the
base's magnitude and strip.  A new family is a class with these facts: no
function outside this module chooses a family, and ``codim`` is read only
as the sign law's value.
Each check writes its laws as one table of residual polynomials and the
indices where each binds, which its decision and its listing read
(``_decide``); every law reads the generators as the constants ``_E, _H, _F``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .exact import _rational, HalfInt, RationalLike, beta_value

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


_E, _H, _F = Generator  # the members once: a read through the enum class costs a descriptor call

# (2n mod 2, lowest 2n, highest 2n) over the basis indices n; None: no limit
Lattice = Tuple[int, Optional[int], Optional[int]]
# (d, {gen -> (a0, a1, a2, shift)}): gen . v_n = (a0 + a1 t + a2 t^2) / d v_{n + shift}
# with t = 2n, integers throughout and one denominator d > 0 per module
Coefficients = Tuple[int, Dict[Generator, Tuple[int, int, int, int]]]
# (numerator, denominator) of V(n+1) / V(n), each (a0, a1, a2): a0 + a1 t + a2 t^2, t = 2n
Step = Tuple[Tuple[int, int, int], Tuple[int, int, int]]
# per law (label, (c0, c1, ...), where): the residual c0 + c1 t + ... in t = 2n, integers,
# is 0 at each 2n in ``where``, or identically where ``where`` is None, iff the law holds
Laws = Tuple[Tuple[str, Tuple[int, ...], Optional[Tuple[int, ...]]], ...]


def _member(value, kind: type) -> None:
    """Refuse anything but a member of the enum ``kind`` (its value as a string, say)
    with TypeError, as ``_rational`` refuses a float."""
    if not isinstance(value, kind):
        raise TypeError(f"not a member of {kind.__name__}: {value!r}")


def is_reduction_point(lam: RationalLike, parity: Parity) -> bool:
    """Reducibility criterion: odd integer (even parity), even integer (odd)."""
    lam = _rational(lam)
    _member(parity, Parity)
    if lam.denominator != 1:
        return False
    want_odd = parity is Parity.EVEN
    return (lam.numerator % 2 == 1) is want_odd


def _continuation_step(p: int, q: int, t1: int) -> Tuple[int, int]:
    """V(n+1) / V(n) at lam = p/q, t1 = 2n + 1: (numerator, denominator), unreduced;
    the denominator is 0 exactly at a pole."""
    return q * t1 + p, p - q * t1


def _past(r: int, t: int, twice: int) -> int:
    """max(0, k - t) at 2n = twice, k = (|2n| - r) / 2 steps out from the reference."""
    return max(0, (abs(twice) - r) // 2 - t)


@dataclass(frozen=True)
class PrincipalSeries:
    """Sheaf module on the open orbit with twist lam >= 0 and a parity."""

    lam: Fraction
    parity: Parity

    codim = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _rational(self.lam))
        _member(self.parity, Parity)
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
        return 2 * q, {_E: (q - p, -q, 0, -1), _H: (0, -2 * q, 0, 0), _F: (q - p, q, 0, 1)}

    @cached_property
    def breakpoints(self) -> Tuple[int, int, int]:
        # k1 by pole order (see ``filtrations``), j0 by the step's denominator (``forms``)
        p, q = self.lam.numerator, self.lam.denominator
        r = self.lattice[0]
        return (r, (p + q - q * r) // (2 * q),
                max(0, -(-_continuation_step(p, q, r + 1)[1] // (2 * q))))

    @cached_property
    def step(self) -> Step:
        # the continuation step is linear in t1 = t + 1: its value at t = 0 and its slope
        p, q = self.lam.numerator, self.lam.denominator
        (n0, d0), (n1, d1) = (_continuation_step(p, q, t1) for t1 in (1, 2))
        return (n0, n1 - n0, 0), (d0, d1 - d0, 0)

    @cached_property
    def reference_magnitude(self) -> Optional[float]:
        # 4 pi B(a + n0, a - n0), a = (lam + 1) / 2: None where the integral diverges
        half, n0 = (self.lam + 1) / 2, Fraction(self.lattice[0], 2)
        beta = beta_value(half + n0, half - n0)
        return None if beta is None else 4.0 * math.pi * beta

    @property
    def strip(self) -> int:
        return math.ceil(self.lam + 1) - 1  # the largest integer < lam + 1

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
    breakpoints = (0, -1, 0)  # level k + 1 (derivative order plus codim), sign (-1)^k
    reference_magnitude = 1.0  # P(0)
    strip = None  # supported on a closed orbit

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise ValueError(f"point module twist must be an integer >= 0, got {self.m}")
        _member(self.orbit, Orbit)

    @property
    def base(self) -> "PointModule":
        return self

    @cached_property
    def coefficients(self) -> Coefficients:
        # over 4, k = t / 2: k (k + m) = (t^2 + 2 m t) / 4
        up, down = (-4, 0, 0, 1), (0, 2 * self.m, 1, -1)
        if self.orbit is Orbit.AT_ZERO:
            return 4, {_E: up, _H: (4 * self.m + 4, 4, 0, 0), _F: down}
        # at infinity: e+ <-> e-, h -> -h
        return 4, {_E: down, _H: (-4 * self.m - 4, -4, 0, 0), _F: up}

    @cached_property
    def step(self) -> Step:
        # P(k+1) / P(k) = -(k+1)(m+k+1) = -(t + 2)(t + 2m + 2) / 4 at t = 2k
        return (-4 * self.m - 4, -2 * self.m - 4, -1), (4, 0, 0)

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
        if not isinstance(self.base, PrincipalSeries):
            raise TypeError(f"W1 submodule base must be a PrincipalSeries, got {self.base!r}")
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

    @property
    def breakpoints(self) -> Tuple[int, int, int]:
        return self.base.breakpoints

    @property
    def step(self) -> Step:
        return self.base.step

    def __str__(self) -> str:
        return f"W1(lambda0={self.lam0}, {self.parity.value}, dim {self.dim})"


ModuleSpec = Union[PrincipalSeries, PointModule, W1Sub]


@dataclass(frozen=True, order=True)
class BasisVector:
    """A single basis element, identified by its (half-)integer index, a ``HalfInt``
    (anything else is refused with TypeError)."""

    index: HalfInt

    def __post_init__(self):
        if not isinstance(self.index, HalfInt):
            raise TypeError(f"a basis vector's index is a HalfInt, got {self.index!r}")

    @classmethod
    def at(cls, n: "HalfInt | RationalLike") -> "BasisVector":
        return cls(HalfInt.of(n))

    def __str__(self) -> str:
        return f"v[{self.index}]"


_shared_vector = lru_cache(maxsize=4096)(lambda twice: BasisVector(HalfInt(twice)))


def _vector(twice: int) -> BasisVector:
    """v_n by 2n: one shared instance each for the 4096 central indices, which
    sweeps reuse; a fresh one outside them, so a wide window evicts none."""
    return _shared_vector(twice) if -2048 <= twice < 2048 else BasisVector(HalfInt(twice))


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
    the denominator the module's own (> 0), not reduced; the shift is -1, 0
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
    _member(gen, Generator)
    require_member(v, spec)
    n, d, shift = _step(spec, gen, v.index.twice)
    return {_vector(v.index.twice + 2 * shift): Fraction(n, d)} if n else {}


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


def _require_bound(bound: int, name: str = "bound") -> None:
    """Refuse anything but an int >= 0: a bool or a float with TypeError, as
    ``_rational`` refuses a float, and a negative int with ValueError."""
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise TypeError(f"{name} must be an integer, got {bound!r}")
    if bound < 0:
        raise ValueError(f"{name} must be >= 0")


def _lattice(spec: ModuleSpec, lo: int, hi: int) -> range:
    """The doubled indices 2n of the basis with lo <= 2n <= hi, increasing."""
    residue, lowest, highest = spec.lattice
    lo = lo if lowest is None else max(lo, lowest)
    hi = hi if highest is None else min(hi, highest)
    return range(lo + (lo - residue) % 2, hi + 1, 2)


def _window(spec: ModuleSpec, bound: int) -> range:
    """The doubled indices 2n of the basis with |n| <= bound (k <= bound on point
    modules), increasing."""
    _require_bound(bound)
    return _lattice(spec, -2 * bound, 2 * bound)


def basis_window(spec: ModuleSpec, bound: int) -> List[BasisVector]:
    """All basis vectors with |n| <= bound (k <= bound on point modules)."""
    return list(map(_vector, _window(spec, bound)))


def h_weight(v: BasisVector, spec: ModuleSpec) -> int:
    """Exact h-eigenvalue of a basis vector (always an integer)."""
    require_member(v, spec)
    n, d, _ = _step(spec, _H, v.index.twice)
    return n // d


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact operator-identity check, with the failing window lines."""

    ok: bool
    failures: Tuple[str, ...] = field(default_factory=tuple)


_PASSED = CheckResult(True)  # immutable, so every passing check returns this one


def _decide(spec: ModuleSpec, bound: int, laws: Callable[[ModuleSpec], Laws],
            failures: Optional[Callable[..., List[str]]] = None) -> CheckResult:
    """Decide the laws of the table ``laws(spec)`` on every index, listing window failures.

    Each row is a law's residual, integer coefficients in t = 2n built from
    ``spec.coefficients`` (and ``spec.step``), and the indices where it binds:
    the laws hold iff each residual is 0 where its law binds.  If one is not,
    the window's failures are listed from the same table (``_law_lines``), or
    by ``failures(spec, vectors)`` (invariance prints both sides of each law),
    with a ``Fraction`` built only to print."""
    _require_bound(bound)
    table = laws(spec)
    for _, residual, where in table:
        if any(residual) if where is None else any(_at(residual, t) for t in where):
            break
    else:
        return _PASSED
    vectors = basis_window(spec, bound)
    found = _law_lines(table, vectors) if failures is None else failures(spec, vectors)
    return CheckResult(not found, tuple(found))


def _law_lines(laws: Laws, vectors: List[BasisVector]) -> List[str]:
    """``{law} at {v}`` wherever a row binds at 2n and its residual is non-zero there."""
    return [f"{law} at {v}" for v in vectors for law, residual, where in laws
            if (where is None or v.index.twice in where) and _at(residual, v.index.twice)]


def _substitute(p: Tuple[int, int, int], c: int, sign: int = 1) -> Tuple[int, int, int]:
    """p(sign t + c) for p = (a0, a1, a2), a0 + a1 t + a2 t^2."""
    a0, a1, a2 = p
    return a0 + c * (a1 + c * a2), sign * (a1 + 2 * c * a2), a2


def _at(p: Sequence[int], t: int) -> int:
    """p(t) for p = (a0, a1, ...), a0 + a1 t + ..., by Horner's rule."""
    value = 0
    for a in reversed(p):
        value = value * t + a
    return value


def _residual(*terms: Tuple[int, Tuple[int, int, int], Tuple[int, int, int]]) -> Tuple[int, ...]:
    """The sum of k p q over ``terms`` (k, p, q), in t as (t0, ..., t4)."""
    t0 = t1 = t2 = t3 = t4 = 0
    for k, (a0, a1, a2), (b0, b1, b2) in terms:
        t0, t1 = t0 + k * a0 * b0, t1 + k * (a0 * b1 + a1 * b0)
        t2 += k * (a0 * b2 + a1 * b1 + a2 * b0)
        t3, t4 = t3 + k * (a1 * b2 + a2 * b1), t4 + k * a2 * b2
    return t0, t1, t2, t3, t4


def _bracket_laws(spec: ModuleSpec) -> Laws:
    d, polynomials = spec.coefficients
    E, H, F = polynomials[_E], polynomials[_H], polynomials[_F]
    return tuple((law, _residual((1, b[:3], _substitute(a[:3], 2 * b[3])),
                                 (-1, a[:3], _substitute(b[:3], 2 * a[3])),
                                 (-k * d, g[:3], (1, 0, 0))), None)
                 for a, b, k, g, law in ((H, E, 2, E, "[h,e+] != 2 e+"),
                                         (H, F, -2, F, "[h,e-] != -2 e-"),
                                         (E, F, 1, H, "[e+,e-] != h")))


def bracket_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Decide [h,e+] = 2e+, [h,e-] = -2e-, [e+,e-] = h on every index, exactly.

    Both sides of each relation are multiples of the same basis vector
    (shifts add), so [a, b] = k g is one identity of degree <= 4 in t, its
    residual N_b(t) N_a(t + 2 s_b) - N_a(t) N_b(t + 2 s_a) - k d N_g(t) over
    the denominator d, decided as in ``_decide``.
    """
    return _decide(spec, bound, _bracket_laws)


_THETAS = ((_E, -1, "theta e+ theta != -e+"), (_F, -1, "theta e- theta != -e-"),
           (_H, 1, "theta h theta != h"))


def _theta_laws(spec: ModuleSpec) -> Laws:
    # ((-1)^s - k) N_g per law; then N_g at the |s| indices whose target the
    # shift s takes past a finite end of the lattice, where g . v must be 0
    _, polynomials = spec.coefficients
    _, lowest, highest = spec.lattice
    laws, ends = (), ()
    for gen, k, law in _THETAS:
        a0, a1, a2, s = polynomials[gen]
        c = (-1) ** (s % 2) - k
        laws += ((law, (c * a0, c * a1, c * a2), None),)
        end, step = (lowest, 2) if s < 0 else (highest, -2)
        if end is not None and s:
            ends += ((f"{gen.value} leaves the basis", (a0, a1, a2),
                      tuple(range(end, end - 2 * s, step))),)
    return laws + ends


def theta_check(spec: ModuleSpec, bound: int) -> CheckResult:
    """Decide the intertwining signs theta g theta = +-g on every index, exactly.

    theta gen theta sends v to theta(v) theta(v + shift) = (-1)^shift times
    gen . v, so each law's residual is ((-1)^shift -+ 1) times the
    coefficient polynomial; where a shift leaves a finite end of the lattice
    the polynomial must vanish, else the generator leaves the basis there.
    """
    return _decide(spec, bound, _theta_laws)
