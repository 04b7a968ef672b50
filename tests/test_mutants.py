"""A catalogue of mutants of the private integer rules, each of which a public
result must notice.

``spec.breakpoints`` (r, k1, j0) decides the Hodge level, the sign law and
definiteness on every module; ``_past``, ``_law_sign`` and ``definiteness``
turn it into levels, signs and unitarity.  ``spec.step`` is the diagonal
step the invariance laws read, and ``spec.strip`` the convergence strip.
So a wrong fact or rule in any of them must change a verdict, a check, a
level or the strip.  Each mutant replaces one rule through ``monkeypatch``:
a family's fact as a ``property`` over the class attribute, read by specs
the test builds, or a module-level rule by name in every module that
imports it.  It names the public result that must change under it.  A
mutant that changes nothing fails the test unless the catalogue marks it
equivalent and says why; a mutant marked equivalent that does change its
result fails too, as the catalogue is then wrong.

No result here reads a diagonal table (verdicts and invariance walk no
step), and a table is keyed by the step it is made of, so a mutated step
leaves no wrong value behind for other tests.
"""

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple, Union

import pytest

from su11hodge import analysis, cli, exact, filtrations, forms, modules
from su11hodge.analysis import Definiteness, classify, verify_conjecture
from su11hodge.filtrations import hodge_level
from su11hodge.forms import convergence_range, invariance_check
from su11hodge.modules import (
    _continuation_step,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
)

SERIES_RULE = PrincipalSeries.__dict__["breakpoints"].func  # the shipped rules
SERIES_STEP, POINT_STEP = PrincipalSeries.__dict__["step"].func, PointModule.__dict__["step"].func
SERIES_STRIP = PrincipalSeries.__dict__["strip"].fget
PAST, LAW_SIGN = modules._past, forms._law_sign
PACKAGE = (exact, modules, filtrations, forms, analysis, cli)


def series_verdict():
    return verify_conjecture(PrincipalSeries(Fraction(7, 3), Parity.EVEN), 4).verdict


def series_levels():
    ps = PrincipalSeries(Fraction(7, 3), Parity.EVEN)
    return tuple(hodge_level(v, ps) for v in basis_window(ps, 4))


def point_verdicts():
    return tuple(verify_conjecture(PointModule(3, orbit), 4).verdict for orbit in Orbit)


def point_invariance():
    return tuple(invariance_check(PointModule(3, orbit), 4).ok for orbit in Orbit)


def series_invariance():
    return tuple(invariance_check(PrincipalSeries(Fraction(7, 3), parity), 4).ok
                 for parity in Parity)


def unitary_flags():
    return tuple(entry.unitary for entry in classify(1, Parity.EVEN).entries)


def grid_unitary_flags():
    return tuple(entry.unitary
                 for lam in (Fraction(1, 2), 1, Fraction(7, 3), 2, 3) for parity in Parity
                 for entry in classify(lam, parity).entries)


def strips_of_two():
    # |2n| <= 3 instead of 2 adds v_{-3/2} and v_{3/2}: only the odd lattice has them
    return tuple(convergence_range(PrincipalSeries(2, parity)) for parity in Parity)


class Mutant(NamedTuple):
    name: str
    target: Union[Tuple[type, str], str]  # (spec class, fact) or a module-level rule's name
    rule: Callable
    result: Callable[[], object]
    equivalent: Optional[str] = None  # why no result can tell it apart


def k1_plus_one(spec):
    r, k1, j0 = SERIES_RULE(spec)
    return r, k1 + 1, j0


def j0_by_floor(spec):
    r, k1, _ = SERIES_RULE(spec)
    p, q = spec.lam.numerator, spec.lam.denominator
    return r, k1, max(0, _continuation_step(p, q, r + 1)[1] // (2 * q))


def w1_j0_plus_one(spec):
    r, k1, j0 = spec.base.breakpoints
    return r, k1, j0 + 1


def k1_clamped(spec):
    r, k1, j0 = SERIES_RULE(spec)
    return r, max(0, k1), j0


def point_step_negated(spec):
    (a0, a1, a2), denominator = POINT_STEP(spec)
    return (-a0, -a1, -a2), denominator


def point_step_m_plus_one(spec):
    # -(k+1)(m+k+2): the shipped step at m + 1, -(t + 2)(t + 2m + 4) / 4
    (a0, a1, a2), denominator = POINT_STEP(spec)
    return (a0 - 4, a1 - 2, a2), denominator


def series_step_one_late(spec):
    # each polynomial at t + 2, one k further out
    return tuple((a0 + 2 * a1 + 4 * a2, a1 + 4 * a2, a2) for a0, a1, a2 in SERIES_STEP(spec))


def definiteness_j0_past_one(spec, bound=None):
    r, _, j0 = spec.breakpoints
    return Definiteness.INDEFINITE if j0 > 1 or r else Definiteness.POS_DEF


def definiteness_without_r(spec, bound=None):
    r, _, j0 = spec.breakpoints
    return Definiteness.INDEFINITE if j0 else Definiteness.POS_DEF


def law_sign_j0_plus_one(r, j0, twice):
    return LAW_SIGN(r, j0 + 1, twice)


def past_plus_one(r, t, twice):
    return PAST(r, t, twice) + 1


SERIES, POINT, W1 = ((cls, "breakpoints") for cls in (PrincipalSeries, PointModule, W1Sub))

CATALOGUE = [
    Mutant("series k1 + 1", SERIES, k1_plus_one, series_verdict),
    Mutant("series j0 by floor, not ceil", SERIES, j0_by_floor, series_verdict),
    Mutant("point module (0, 0, 0)", POINT, lambda spec: (0, 0, 0), point_verdicts),
    Mutant("W1 j0 + 1", W1, w1_j0_plus_one, unitary_flags),
    Mutant("series k1 clamped at 0", SERIES, k1_clamped, series_verdict,
           equivalent="k1 = floor((p + q - q r) / 2q) with r = 0 or 1 and p >= 0 "
                      "(dominance, lam >= 0) is never negative; test_closed_form asserts "
                      "k1 == j0 >= 0 or k1 == j0 + 1 on its grid of series"),
    Mutant("point step sign flipped", (PointModule, "step"), point_step_negated,
           point_invariance),
    Mutant("point step m + k + 2", (PointModule, "step"), point_step_m_plus_one,
           point_invariance),
    Mutant("series step one k late", (PrincipalSeries, "step"), series_step_one_late,
           series_invariance),
    Mutant("series strip one too wide", (PrincipalSeries, "strip"),
           lambda spec: SERIES_STRIP(spec) + 1, strips_of_two),
    Mutant("definiteness j0 > 1", "definiteness", definiteness_j0_past_one,
           grid_unitary_flags),
    Mutant("definiteness without r", "definiteness", definiteness_without_r,
           grid_unitary_flags),
    Mutant("_law_sign j0 + 1", "_law_sign", law_sign_j0_plus_one, series_verdict),
    Mutant("_past + 1", "_past", past_plus_one, series_levels),
    Mutant("_past + 1, seen by the verdict", "_past", past_plus_one, series_verdict,
           equivalent="the level and the sign exponent are both _past, of k1 and of j0, "
                      "so both move by one and the sign law still matches at every "
                      "vector; the levels themselves are the killer"),
]


def patch(monkeypatch, mutant):
    if isinstance(mutant.target, tuple):
        monkeypatch.setattr(*mutant.target, property(mutant.rule))
        return
    patched = [module for module in PACKAGE if mutant.target in vars(module)]
    assert patched, mutant.target
    for module in patched:
        monkeypatch.setattr(module, mutant.target, mutant.rule)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_each_mutant_changes_its_public_result_or_is_named_equivalent(monkeypatch, mutant):
    shipped = mutant.result()
    patch(monkeypatch, mutant)
    killed = mutant.result() != shipped
    assert killed is (mutant.equivalent is None), mutant.equivalent or "survived"


def test_a_rule_is_patched_in_every_module_that_imports_it(monkeypatch):
    patch(monkeypatch, CATALOGUE[-1])
    assert modules._past is filtrations._past is forms._past is past_plus_one
