"""Window records are shared values, keyed by their content.

``verify_conjecture`` and ``jantzen_crossing`` read each rule once per |2n|
and take each record of the central indices -2048 <= 2n < 2048 from a
bounded memo keyed by exactly the record's content.  So whatever was built
before, in whatever order, every record must equal one built fresh from the
public rules (``hodge_level``, ``diagonal_sign``, ``belongs``), two reports
share their central records, the memo stays within its bound, and a spec
kept alive across a mutated rule leaves nothing stale behind.
"""

import copy
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from su11hodge import analysis
from su11hodge.analysis import (
    ConjectureRecord,
    JantzenRecord,
    jantzen_crossing,
    verify_conjecture,
)
from su11hodge.exact import Sign
from su11hodge.filtrations import hodge_level
from su11hodge.forms import diagonal_sign
from su11hodge.modules import (
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    belongs,
)
from test_mutants import CATALOGUE, patch

BOUNDS = (0, 3, 12, 200, 1030)  # 1030 crosses |2n| = 2048, the end of the shared band
LADDERS = {"ascending": BOUNDS, "descending": BOUNDS[::-1]}



def random_pq(rng):
    """A seeded lam = p/q off the integers, so irreducible in either parity."""
    while True:
        lam = Fraction(rng.randrange(1, 400), rng.choice((3, 5, 7, 11, 1009)))
        if lam.denominator > 1:
            return lam


RANDOM_PQ = random_pq(random.Random(3101))
SPECS = [
    PrincipalSeries(Fraction(7, 3), Parity.EVEN),
    PrincipalSeries(Fraction(5, 2), Parity.ODD),
    PrincipalSeries(RANDOM_PQ, Parity.ODD),
    PointModule(3, Orbit.AT_ZERO),
    PointModule(3, Orbit.AT_INFINITY),
    W1Sub(PrincipalSeries(5, Parity.EVEN)),
    PrincipalSeries(3, Parity.EVEN),  # reducible: every sign is a pole
]
CROSSINGS = [(3, Parity.EVEN, Fraction(1, 4)), (4, Parity.ODD, Fraction(1, 3)),
             (201, Parity.EVEN, Fraction(2, 5))]


def fresh_conjecture(v, spec):
    p, a = hodge_level(v, spec), spec.codim
    expected = Sign.POSITIVE if (p - a) % 2 == 0 else Sign.NEGATIVE
    return ConjectureRecord(v, p, a, diagonal_sign(v, spec), expected)


def fresh_jantzen(v, lambda0, parity, epsilon):
    below, above = (PrincipalSeries(lambda0 + s * epsilon, parity) for s in (-1, 1))
    return JantzenRecord(v, diagonal_sign(v, below), diagonal_sign(v, above),
                         belongs(v, W1Sub(PrincipalSeries(lambda0, parity))))


@pytest.mark.parametrize("ladder", LADDERS.values(), ids=LADDERS)
def test_every_record_equals_one_built_fresh_from_the_public_rules(ladder):
    analysis._conjecture.cache_clear()
    analysis._jantzen.cache_clear()
    for bound in ladder:
        for spec in SPECS:
            records = verify_conjecture(spec, bound).records
            assert records == tuple(fresh_conjecture(v, spec) for v in basis_window(spec, bound))
        for lambda0, parity, epsilon in CROSSINGS:
            records = jantzen_crossing(lambda0, parity, epsilon, bound).records
            window = basis_window(PrincipalSeries(lambda0 - epsilon, parity), bound)
            assert records == tuple(fresh_jantzen(v, lambda0, parity, epsilon) for v in window)
    for memo in (analysis._conjecture, analysis._jantzen):
        info = memo.cache_info()
        assert info.maxsize == analysis._RECORDS and info.currsize <= analysis._RECORDS
    assert {r.sign for r in verify_conjecture(SPECS[-1], 3).records} == {Sign.POLE}


def test_two_reports_share_their_central_records():
    # two equal specs that share no instance, and so no cached fact
    first, second = (verify_conjecture(PrincipalSeries(Fraction(7, 3), Parity.EVEN), 12)
                     for _ in range(2))
    assert all(a is b for a, b in zip(first.records, second.records))
    first, second = (jantzen_crossing(3, Parity.EVEN, Fraction(1, 4), 12) for _ in range(2))
    assert all(a is b for a, b in zip(first.records, second.records))


def test_the_memo_serves_exactly_the_central_indices():
    # bound 1030 on an even lattice: 2n from -2060 to 2060, of which -2048 <= 2n < 2048
    # (2048 indices) are read through the memo, the rest built fresh
    spec = PrincipalSeries(Fraction(7, 3), Parity.EVEN)
    for memo, report in ((analysis._conjecture, lambda: verify_conjecture(spec, 1030)),
                         (analysis._jantzen, lambda: jantzen_crossing(
                             3, Parity.EVEN, Fraction(1, 4), 1030))):
        memo.cache_clear()
        records = report().records
        info = memo.cache_info()
        assert len(records) == 2061 and info.hits + info.misses == 2048
        assert info.currsize == analysis._RECORDS


def test_a_spec_kept_alive_leaves_no_stale_record_for_a_mutated_rule(monkeypatch):
    # an equal spec verified at bound 200 stays alive while _law_sign and _past are
    # mutated: the verdict and the levels still change
    kept = PrincipalSeries(Fraction(7, 3), Parity.EVEN)
    records = verify_conjecture(kept, 200).records
    for name in ("_law_sign j0 + 1", "_past + 1"):
        mutant = next(m for m in CATALOGUE if m.name == name)
        shipped = mutant.result()
        with monkeypatch.context() as patched:
            patch(patched, mutant)
            assert mutant.result() != shipped, name
            assert verify_conjecture(kept, 200).records != records, name
        assert mutant.result() == shipped and verify_conjecture(kept, 200).records == records


@pytest.mark.parametrize("member", list(Sign), ids=[s.name for s in Sign])
def test_sign_hashes_by_identity(member):
    assert Sign.__hash__ is object.__hash__ and hash(member) == object.__hash__(member)
    memo = lru_cache(maxsize=None)(lambda sign: object())
    for clone in [copy.deepcopy(member)] + [pickle.loads(pickle.dumps(member, protocol))
                                            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert clone is member and hash(clone) == hash(member)
        assert {member: 1}[clone] == 1 and clone in {member} and memo(clone) is memo(member)
    assert len({s: s for s in Sign}) == len(set(Sign)) == 4
