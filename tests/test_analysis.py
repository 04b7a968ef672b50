from fractions import Fraction

import pytest

from su11hodge.analysis import (
    Definiteness,
    classify,
    definiteness,
    jantzen_crossing,
    verify_conjecture,
)
from su11hodge.exact import Sign
from su11hodge.modules import (
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    is_reduction_point,
)


def PS(lam, parity=Parity.EVEN):
    return PrincipalSeries(Fraction(lam), parity)


IRREDUCIBLE_GRID = [
    (lam, parity)
    for lam in (Fraction(k, 4) for k in range(0, 20))
    for parity in Parity
    if not is_reduction_point(lam, parity)
]


# ---------------------------------------------------------------------------
# verify_conjecture

def test_verify_irreducible_even():
    report = verify_conjecture(PS(Fraction(1, 2)), 5)
    assert report.verdict
    assert len(report.records) == 11


def test_verify_point_module_signs():
    report = verify_conjecture(PointModule(2, Orbit.AT_ZERO), 6)
    assert report.verdict
    for r in report.records:
        k = r.vector.index.twice // 2
        assert r.codim == 1 and r.hodge_level == k + 1
        assert r.sign is (Sign.POSITIVE if k % 2 == 0 else Sign.NEGATIVE)


def test_verify_odd_lattice():
    # half-integer lattice cases, at irreducible parameters
    assert verify_conjecture(PS(3, Parity.ODD), 5).verdict
    assert verify_conjecture(PS(Fraction(5, 2), Parity.ODD), 5).verdict
    # lambda = 2 with odd parity is a reduction point, so the ambient check
    # fails closed rather than passing
    assert not verify_conjecture(PS(2, Parity.ODD), 5).verdict


def test_verify_fails_closed_at_reduction_point():
    report = verify_conjecture(PS(3), 4)
    assert not report.verdict
    assert all(r.sign is Sign.POLE for r in report.records)


def test_verify_w1_constituent():
    assert verify_conjecture(W1Sub(PS(3)), 10).verdict


@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_verify_sweep(lam, parity):
    assert verify_conjecture(PrincipalSeries(lam, parity), 10).verdict


# ---------------------------------------------------------------------------
# jantzen_crossing

def test_jantzen_rows_at_three_even():
    report = jantzen_crossing(3, Parity.EVEN, Fraction(1, 4), 4)
    rows = {r.vector.index.twice // 2: r for r in report.records}
    r1 = rows[1]
    assert (r1.sign_below, r1.sign_above) == (Sign.POSITIVE, Sign.POSITIVE)
    assert r1.preserved and r1.w1
    r2 = rows[2]
    assert (r2.sign_below, r2.sign_above) == (Sign.NEGATIVE, Sign.POSITIVE)
    assert not r2.preserved and not r2.w1
    assert report.verdict


def test_jantzen_at_one_even():
    report = jantzen_crossing(1, Parity.EVEN, Fraction(1, 4), 3)
    r0 = next(r for r in report.records if r.vector.index.twice == 0)
    assert r0.preserved and r0.w1
    assert report.verdict


@pytest.mark.parametrize("lam0", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 8)])
def test_jantzen_equivalence_holds(lam0, eps):
    parity = Parity.EVEN if lam0 % 2 == 1 else Parity.ODD
    assert jantzen_crossing(lam0, parity, eps, 8).verdict


def test_jantzen_validation():
    with pytest.raises(ValueError):
        jantzen_crossing(2, Parity.EVEN, Fraction(1, 4), 4)  # not a reduction point
    with pytest.raises(ValueError):
        jantzen_crossing(0, Parity.ODD, Fraction(1, 4), 4)  # not positive
    with pytest.raises(ValueError):
        jantzen_crossing(3, Parity.EVEN, Fraction(1, 2), 4)  # eps too large
    with pytest.raises(ValueError):
        jantzen_crossing(3, Parity.EVEN, 0, 4)


# ---------------------------------------------------------------------------
# definiteness

def test_definiteness_examples():
    assert definiteness(PS(Fraction(1, 2))) is Definiteness.POS_DEF
    assert definiteness(PS(2)) is Definiteness.INDEFINITE
    assert definiteness(W1Sub(PS(1))) is Definiteness.POS_DEF
    assert definiteness(PointModule(3, Orbit.AT_ZERO)) is Definiteness.POS_DEF


@pytest.mark.parametrize("spec", [PS(Fraction(1, 2)), PointModule(1, Orbit.AT_ZERO),
                                  W1Sub(PS(3))], ids=str)
def test_definiteness_refuses_a_negative_bound(spec):
    with pytest.raises(ValueError, match="bound must be >= 0"):
        definiteness(spec, -5)
    assert definiteness(spec, 0) is definiteness(spec)


def test_definiteness_rejects_reducible():
    with pytest.raises(ValueError):
        definiteness(PS(3))


def test_definiteness_complementary_series_boundary():
    assert definiteness(PS(0)) is Definiteness.POS_DEF
    assert definiteness(PS(Fraction(3, 4))) is Definiteness.POS_DEF
    assert definiteness(PS(Fraction(5, 4))) is Definiteness.INDEFINITE


def test_definiteness_odd_series_never_definite():
    for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)):
        assert definiteness(PS(lam, Parity.ODD)) is Definiteness.INDEFINITE


def test_definiteness_w1_indefinite_beyond_dim_one():
    assert definiteness(W1Sub(PS(2, Parity.ODD))) is Definiteness.INDEFINITE
    assert definiteness(W1Sub(PS(3))) is Definiteness.INDEFINITE


@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_definiteness_stable_under_window_enlargement(lam, parity):
    ps = PrincipalSeries(lam, parity)
    assert definiteness(ps, 12) is definiteness(ps, 22)


# ---------------------------------------------------------------------------
# classify

def entries_by_str(report):
    return {str(e.constituent): e for e in report.entries}


def test_classify_complementary_series():
    report = classify(Fraction(1, 2), Parity.EVEN)
    (entry,) = report.entries
    assert entry.constituent == PS(Fraction(1, 2))
    assert entry.hermitian and entry.unitary
    assert entry.definiteness is Definiteness.POS_DEF


def test_classify_reduction_point_three():
    report = classify(3, Parity.EVEN)
    flags = [e.unitary for e in report.entries]
    assert flags == [False, True, True]
    assert isinstance(report.entries[0].constituent, W1Sub)


def test_classify_limits_of_discrete_series():
    report = classify(0, Parity.ODD)
    assert len(report.entries) == 2
    assert all(e.unitary for e in report.entries)


def test_classify_hermitian_not_unitary():
    report = classify(2, Parity.EVEN)
    (entry,) = report.entries
    assert entry.hermitian and not entry.unitary


def test_classify_trivial_representation():
    report = classify(1, Parity.EVEN)
    w1 = entries_by_str(report)["W1(lambda0=1, even, dim 1)"]
    assert w1.unitary and w1.definiteness is Definiteness.POS_DEF


def test_classify_matches_classical_list():
    # point modules always unitary; W1 unitary iff one-dimensional;
    # even irreducible series unitary iff 0 <= lambda < 1; odd never
    for lam, parity in IRREDUCIBLE_GRID:
        report = classify(lam, parity)
        (entry,) = report.entries
        expected = parity is Parity.EVEN and 0 <= lam < 1
        assert entry.unitary == expected, (lam, parity)
    for lam0 in (1, 2, 3, 4, 5):
        parity = Parity.EVEN if lam0 % 2 else Parity.ODD
        report = classify(lam0, parity)
        for e in report.entries:
            if isinstance(e.constituent, PointModule):
                assert e.unitary
            else:
                assert e.unitary == (e.constituent.dim == 1)


def test_classify_large_odd_lambda_reads_exact_signs():
    # the definiteness scan reaches ratios past the float range; the verdict
    # must come from exact signs (it used to raise OverflowError)
    (entry,) = classify(Fraction(1021), Parity.ODD).entries
    assert entry.definiteness is Definiteness.INDEFINITE and not entry.unitary
