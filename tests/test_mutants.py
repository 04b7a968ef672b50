"""A catalogue of mutants of the breakpoint facts, each of which a public result
must notice.

``spec.breakpoints`` (r, k1, j0) decides the Hodge level, the sign law and
definiteness on every module, so a wrong rule there must change a verdict.
Each mutant replaces one family's rule, through ``monkeypatch``: a
``property`` over the class attribute, read by specs the test builds.  It
names the public result that must change under it.  A mutant that changes
nothing fails the test unless the catalogue marks it equivalent and says
why; a mutant marked equivalent that does change its result fails too, as
the catalogue is then wrong.
"""

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import pytest

from su11hodge.analysis import classify, verify_conjecture
from su11hodge.modules import (
    _continuation_step,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
)

SERIES_RULE = PrincipalSeries.__dict__["breakpoints"].func  # the shipped rule


def series_verdict():
    return verify_conjecture(PrincipalSeries(Fraction(7, 3), Parity.EVEN), 4).verdict


def point_verdicts():
    return tuple(verify_conjecture(PointModule(3, orbit), 4).verdict for orbit in Orbit)


def unitary_flags():
    return tuple(entry.unitary for entry in classify(1, Parity.EVEN).entries)


class Mutant(NamedTuple):
    name: str
    cls: type
    rule: Callable[[object], tuple]
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


CATALOGUE = [
    Mutant("series k1 + 1", PrincipalSeries, k1_plus_one, series_verdict),
    Mutant("series j0 by floor, not ceil", PrincipalSeries, j0_by_floor, series_verdict),
    Mutant("point module (0, 0, 0)", PointModule, lambda spec: (0, 0, 0), point_verdicts),
    Mutant("W1 j0 + 1", W1Sub, w1_j0_plus_one, unitary_flags),
    Mutant("series k1 clamped at 0", PrincipalSeries, k1_clamped, series_verdict,
           equivalent="k1 = floor((p + q - q r) / 2q) with r = 0 or 1 and p >= 0 "
                      "(dominance, lam >= 0) is never negative; test_closed_form asserts "
                      "k1 == j0 >= 0 or k1 == j0 + 1 on its grid of series"),
]


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_each_mutant_changes_its_public_result_or_is_named_equivalent(monkeypatch, mutant):
    shipped = mutant.result()
    monkeypatch.setattr(mutant.cls, "breakpoints", property(mutant.rule))
    killed = mutant.result() != shipped
    assert killed is (mutant.equivalent is None), mutant.equivalent or "survived"

