"""Fact perturbations for the law tests: each writes a changed fact on the
instance that carries the facts (a W1's base), the way a wrong family fact
would, and returns the spec.
"""

import math
from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from su11hodge import modules
from su11hodge.modules import CheckResult, Generator, Parity, PrincipalSeries, W1Sub, basis_window

E, H, F = Generator.E_PLUS, Generator.H, Generator.E_MINUS


def w1(lam0: int) -> W1Sub:
    return W1Sub(PrincipalSeries(Fraction(lam0), Parity.EVEN if lam0 % 2 else Parity.ODD))


def fresh(spec):
    """An equal spec that shares no instance, and so no cached fact, with ``spec``."""
    return W1Sub(replace(spec.base)) if isinstance(spec, W1Sub) else replace(spec)


def listing(laws):
    """The window listing a check makes from the law table ``laws`` builds."""
    return lambda spec, vectors: modules._law_lines(laws(spec), vectors)


def sweep(failures, spec, bound) -> CheckResult:
    """The check result the window listing ``failures`` gives at ``bound``."""
    found = failures(spec, basis_window(spec, bound))
    return CheckResult(not found, tuple(found))


def add_to_coefficient(spec, gen, poly):
    """``spec`` with the polynomial ``poly`` in n added to gen's coefficient, over the
    common denominator d L, L = 4 lcm of the denominators of ``poly`` (n = t / 2)."""
    d, polynomials = spec.coefficients
    scale = 4 * math.lcm(*(Fraction(c).denominator for c in poly))
    new = {g: (a0 * scale, a1 * scale, a2 * scale, shift)
           for g, (a0, a1, a2, shift) in polynomials.items()}
    extra = [Fraction(c) * d * scale / 2 ** i for i, c in enumerate(poly)]  # in t
    assert all(c.denominator == 1 for c in extra)
    a0, a1, a2, shift = new[gen]
    new[gen] = (a0 + int(extra[0]), a1 + int(extra[1]), a2 + int(extra[2]), shift)
    vars(spec.base)["coefficients"] = (d * scale, new)
    return spec


def add_to_step(spec, half, poly):
    """``spec`` with the integer polynomial ``poly`` in t added to the numerator
    (``half`` 0) or the denominator (1) of its step fact."""
    step = [list(p) for p in spec.step]
    step[half] = [a + b for a, b in zip(step[half], poly)]
    vars(spec.base)["step"] = tuple(map(tuple, step))
    return spec


def set_shifts(spec, shifts):
    """``spec`` with the shift of each generator in ``shifts`` replaced, inside the
    contract or not."""
    d, polynomials = spec.coefficients
    vars(spec.base)["coefficients"] = (d, {gen: (*p[:3], shifts.get(gen, p[3]))
                                           for gen, p in polynomials.items()})
    return spec


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
