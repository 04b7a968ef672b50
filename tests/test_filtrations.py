import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su11hodge.analysis import jantzen_crossing
from su11hodge.filtrations import (
    _levels,
    FiltrationReport,
    filtration_table,
    grw2_weights,
    hodge_dim,
    hodge_level,
    w1_member,
)
from su11hodge.modules import (
    BasisVector,
    Generator,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    act,
    basis_window,
    is_reduction_point,
)


def PS(lam, parity=Parity.EVEN):
    return PrincipalSeries(Fraction(lam), parity)


def v(n):
    return BasisVector.at(Fraction(n))


# ---------------------------------------------------------------------------
# hodge_level

def test_hodge_level_examples():
    assert hodge_level(v(2), PS(3)) == 0
    assert hodge_level(v(3), PS(3)) == 1
    assert hodge_level(v(-1), PS(Fraction(1, 2))) == 1
    assert hodge_level(v(4), PointModule(2, Orbit.AT_ZERO)) == 5


rational_lams = st.sampled_from(list(range(1, 10)) + [1009]).flatmap(
    lambda q: st.integers(0, 400 * q).map(lambda p: Fraction(p, q)))
level_specs = st.one_of(
    st.builds(PrincipalSeries, rational_lams, st.sampled_from(Parity)),
    st.integers(1, 400).map(lambda k: W1Sub(PS(k, Parity.EVEN if k % 2 else Parity.ODD))),
    st.builds(PointModule, st.integers(0, 400), st.sampled_from(Orbit)),
)


def rational_level(u, spec) -> int:
    """The level rule of the filtrations docstring, evaluated in Fraction."""
    if isinstance(spec, PointModule):
        return u.index.twice // 2 + 1
    return max(0, math.ceil(abs(u.index.as_fraction) - (spec.base.lam + 1) / 2))


@settings(max_examples=200, deadline=None)
@given(level_specs, st.data())
def test_hodge_level_matches_the_rational_formula(spec, data):
    edge = 0 if isinstance(spec, PointModule) else int(spec.base.lam) // 2
    for u in basis_window(spec, data.draw(st.integers(0, edge + 6))):
        assert hodge_level(u, spec) == rational_level(u, spec)


def test_hodge_level_odd_parity():
    ps = PS(2, Parity.ODD)  # reducible, levels still defined by pole order
    assert hodge_level(v(Fraction(1, 2)), ps) == 0
    assert hodge_level(v(Fraction(3, 2)), ps) == 0
    assert hodge_level(v(Fraction(5, 2)), ps) == 1


@pytest.mark.parametrize(
    "spec,expected_min",
    [
        (PS(Fraction(7, 4)), 0),
        (PS(Fraction(5, 4), Parity.ODD), 0),
        (PointModule(3, Orbit.AT_ZERO), 1),
        (PointModule(0, Orbit.AT_INFINITY), 1),
        (W1Sub(PS(3)), 0),
    ],
)
def test_min_hodge_level_equals_codim(spec, expected_min):
    assert min(hodge_level(u, spec) for u in basis_window(spec, 10)) == expected_min
    assert expected_min == spec.codim


@pytest.mark.parametrize("spec", [PS(Fraction(7, 3)), PS(Fraction(5, 2), Parity.ODD),
                                  PointModule(4, Orbit.AT_INFINITY), W1Sub(PS(5))])
def test_hodge_level_is_the_sweep_rule(spec):
    level = _levels(spec)
    for u in basis_window(spec, 30):
        assert hodge_level(u, spec) == level(u.index.twice)


@pytest.mark.parametrize("spec,u", [(PS(2), v(Fraction(1, 2))), (W1Sub(PS(3)), v(2)),
                                    (PointModule(1, Orbit.AT_ZERO), v(-1))])
def test_hodge_level_refuses_a_non_member(spec, u):
    with pytest.raises(ValueError, match="is not a basis vector"):
        hodge_level(u, spec)


def test_levels_weakly_increase_outward():
    ps = PS(Fraction(7, 4))
    levels = [hodge_level(v(n), ps) for n in range(0, 12)]
    assert levels == sorted(levels)


# ---------------------------------------------------------------------------
# w1_member

def test_w1_member_examples():
    assert w1_member(v(1), 3, Parity.EVEN)
    assert not w1_member(v(2), 3, Parity.EVEN)
    assert w1_member(v(Fraction(1, 2)), 2, Parity.ODD)


def test_w1_member_checks_the_lattice():
    # v[1/2] lies on no even-parity lattice, as hodge_level says too
    with pytest.raises(ValueError, match="is not a basis vector"):
        w1_member(v(Fraction(1, 2)), 3, Parity.EVEN)
    with pytest.raises(ValueError, match="is not a basis vector"):
        w1_member(v(1), 2, Parity.ODD)
    assert not w1_member(v(Fraction(1, 2)), 0, Parity.ODD)  # PS(0, odd) has no W1


def test_w1_member_requires_reduction_point():
    with pytest.raises(ValueError):
        w1_member(v(1), 2, Parity.EVEN)
    with pytest.raises(ValueError):
        w1_member(v(1), Fraction(3, 2), Parity.EVEN)


@pytest.mark.parametrize(
    "lam0,parity", [(1, Parity.EVEN), (2, Parity.ODD), (3, Parity.EVEN), (4, Parity.ODD)]
)
def test_w1_membership_is_action_stable(lam0, parity):
    ps = PrincipalSeries(Fraction(lam0), parity)
    for u in basis_window(ps, 10):
        if not w1_member(u, lam0, parity):
            continue
        for gen in Generator:
            for x, _ in act(gen, u, ps).items():
                assert w1_member(x, lam0, parity)


# ---------------------------------------------------------------------------
# hodge_dim

def test_hodge_dim_examples():
    assert hodge_dim(PS(Fraction(1, 2)), 0) == 1
    assert hodge_dim(PS(2), 0) == 3
    assert hodge_dim(PointModule(5, Orbit.AT_ZERO), 3) == 3


def test_hodge_dim_counts_match_enumeration():
    for spec in (PS(Fraction(7, 4)), PS(Fraction(5, 2), Parity.ODD),
                 PointModule(2, Orbit.AT_ZERO)):
        for p in range(6):
            window = basis_window(spec, 40)
            assert hodge_dim(spec, p) == sum(1 for u in window if hodge_level(u, spec) <= p)


@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 4), Fraction(5, 2), Fraction(17, 4)])
@pytest.mark.parametrize("parity", list(Parity))
def test_hodge_dim_grows_by_two_per_level(lam, parity):
    if is_reduction_point(lam, parity):
        pytest.skip("reduction point")
    ps = PrincipalSeries(lam, parity)
    for p in range(1, 8):
        assert hodge_dim(ps, p) - hodge_dim(ps, p - 1) == 2


def test_hodge_dim_point_grows_by_one():
    pm = PointModule(3, Orbit.AT_INFINITY)
    for p in range(1, 8):
        assert hodge_dim(pm, p) - hodge_dim(pm, p - 1) == 1


def test_hodge_dim_w1_is_total_dimension():
    w1 = W1Sub(PS(5))
    assert all(hodge_dim(w1, p) == 5 for p in range(4))


# ---------------------------------------------------------------------------
# strictness: the submodule inherits ambient levels

@pytest.mark.parametrize(
    "lam0,parity", [(1, Parity.EVEN), (2, Parity.ODD), (3, Parity.EVEN),
                    (4, Parity.ODD), (5, Parity.EVEN)]
)
def test_w1_levels_match_ambient(lam0, parity):
    ps = PrincipalSeries(Fraction(lam0), parity)
    w1 = W1Sub(ps)
    for u in basis_window(w1, 20):
        assert hodge_level(u, w1) == hodge_level(u, ps) == 0


# ---------------------------------------------------------------------------
# filtration_table

def test_filtration_table_reducible_marks_w1():
    rows = filtration_table(PS(3), 3)
    by_index = {r.vector.index.twice // 2: r for r in rows}
    assert by_index[1].w1_member and not by_index[2].w1_member
    assert isinstance(rows[0], FiltrationReport)


def test_filtration_table_irreducible_collapses():
    assert all(r.w1_member for r in filtration_table(PS(2), 4))
    assert all(r.w1_member for r in filtration_table(PointModule(1, Orbit.AT_ZERO), 4))


@pytest.mark.parametrize("lam0", [0, 1, 2, 3, 4, 7, 10, 13])
@pytest.mark.parametrize("bound", [0, 1, 6, 20])
def test_window_w1_membership_matches_w1_member(lam0, bound):
    # lam0 of either parity of the integer, each at its reducible parity;
    # PS(0, odd) has an empty W1
    parity = Parity.EVEN if lam0 % 2 else Parity.ODD
    rows = filtration_table(PS(lam0, parity), bound)
    assert [r.w1_member for r in rows] == [w1_member(r.vector, lam0, parity) for r in rows]
    if lam0:
        for epsilon in (Fraction(1, 4), Fraction(2, 5)):
            records = jantzen_crossing(lam0, parity, epsilon, bound).records
            assert [r.w1 for r in records] == [w1_member(r.vector, lam0, parity)
                                               for r in records]


# ---------------------------------------------------------------------------
# gr_{W,2} weight oracle

def test_grw2_examples():
    r = grw2_weights(3, Parity.EVEN, 10)
    assert r.quotient_weights == (-10, -8, -6, -4, 4, 6, 8, 10)
    assert r.point_weights == r.quotient_weights and r.equal

    r = grw2_weights(1, Parity.EVEN, 6)
    assert r.quotient_weights == (-6, -4, -2, 2, 4, 6) and r.equal

    r = grw2_weights(2, Parity.ODD, 5)
    assert r.quotient_weights == (-5, -3, 3, 5) and r.equal


@pytest.mark.parametrize(
    "lam0,parity", [(1, Parity.EVEN), (2, Parity.ODD), (3, Parity.EVEN),
                    (4, Parity.ODD), (5, Parity.EVEN)]
)
def test_grw2_match_up_to_cutoff_30(lam0, parity):
    assert grw2_weights(lam0, parity, 30).equal


def test_grw2_requires_positive_reduction_point():
    with pytest.raises(ValueError):
        grw2_weights(2, Parity.EVEN, 10)
    with pytest.raises(ValueError):
        grw2_weights(0, Parity.ODD, 10)


def test_grw2_refuses_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        grw2_weights(3, Parity.EVEN, -1)
    assert grw2_weights(3, Parity.EVEN, 0).equal


# ---------------------------------------------------------------------------
# observed relation between quotient realizations: the level induced on the
# point quotient by the ambient basis sits one below the intrinsic level

@pytest.mark.parametrize("lam0,parity", [(1, Parity.EVEN), (3, Parity.EVEN), (2, Parity.ODD)])
def test_induced_quotient_level_is_intrinsic_minus_one(lam0, parity):
    ps = PrincipalSeries(Fraction(lam0), parity)
    m = lam0
    for k in range(7):
        # ambient index carrying the same h-weight as the point vector v_k
        n = Fraction(-(2 * k + m + 1), 2)
        intrinsic = hodge_level(v(k), PointModule(m, Orbit.AT_ZERO))
        assert hodge_level(v(n), ps) == intrinsic - 1
