import math
from fractions import Fraction

import pytest

from perturb import E, F, H, set_shifts
from su11hodge.exact import Sign, quadrature_integral
from su11hodge.filtrations import hodge_level
from su11hodge.forms import (
    continuation_ratio,
    convergence_range,
    form_diagonal,
    gR_form_diagonal,
    invariance_check,
    point_diagonal_value,
    reference_magnitude,
)
from su11hodge.modules import (
    BasisVector,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    act,
    basis_window,
    is_reduction_point,
    reference_index,
    theta_sign,
)


def PS(lam, parity=Parity.EVEN):
    return PrincipalSeries(Fraction(lam), parity)


def v(n):
    return BasisVector.at(Fraction(n))


IRREDUCIBLE_GRID = [
    (lam, parity)
    for lam in (Fraction(k, 4) for k in range(0, 20))
    for parity in Parity
    if not is_reduction_point(Fraction(lam), parity)
]


# ---------------------------------------------------------------------------
# continuation_ratio

def gamma_step_oracle(a: float, b: float) -> float:
    # Gamma(a+1)/Gamma(a) divided by Gamma(b)/Gamma(b-1), for a, b-1 > 0
    return math.exp(
        (math.lgamma(a + 1) - math.lgamma(a)) - (math.lgamma(b) - math.lgamma(b - 1))
    )


def test_ratio_matches_gamma_oracle():
    # V(1)/V(0) at lambda = 2: Beta-argument steps a = b = 3/2
    got = continuation_ratio(0, 2)
    assert got == 3
    assert float(got) == pytest.approx(gamma_step_oracle(1.5, 1.5), rel=1e-12)


def test_ratio_beyond_convergence():
    # a/(b-1) continues to b - 1 < 0 as an exact rational: (3/4)/(-1/4)
    assert continuation_ratio(0, Fraction(1, 2)) == Fraction(3, 4) / Fraction(-1, 4) == -3


def test_ratio_pole_at_reduction_point():
    assert continuation_ratio(1, 3) is None


def test_ratio_indeterminate_configuration():
    # numerator and denominator both vanish only at n = -1/2, lambda = 0
    assert continuation_ratio(Fraction(-1, 2), 0) is None
    assert isinstance(continuation_ratio(Fraction(1, 2), 0), Fraction)


# ---------------------------------------------------------------------------
# form_diagonal on principal series

def test_diagonal_reference_value():
    fv = form_diagonal(v(0), PS(2))
    assert fv.sign is Sign.POSITIVE and fv.ratio_to_reference == 1
    # 4 pi * int u^(1/2) (1+u)^-3 du computed independently
    oracle = 4 * math.pi * quadrature_integral(Fraction(3, 2), 3)
    assert fv.magnitude == pytest.approx(oracle, rel=1e-9)
    assert fv.magnitude == pytest.approx(math.pi**2 / 2, rel=1e-9)


def test_diagonal_continued_ratios():
    fv = form_diagonal(v(2), PS(2))
    assert fv.sign is Sign.NEGATIVE and fv.ratio_to_reference == -15  # 3 * (-5)
    fv = form_diagonal(v(1), PS(Fraction(1, 2)))
    assert fv.sign is Sign.NEGATIVE and fv.ratio_to_reference == -3


def test_diagonal_point_examples():
    assert form_diagonal(v(1), PointModule(1, Orbit.AT_ZERO)).ratio_to_reference == -2
    assert form_diagonal(v(0), PointModule(2, Orbit.AT_ZERO)).ratio_to_reference == 1


def test_reference_vectors_have_unit_positive_value():
    for spec in (PS(Fraction(5, 4)), PS(Fraction(5, 4), Parity.ODD),
                 PointModule(3, Orbit.AT_INFINITY), W1Sub(PS(3))):
        fv = form_diagonal(BasisVector(reference_index(spec)), spec)
        assert fv.sign is Sign.POSITIVE and fv.ratio_to_reference == 1
        assert fv.magnitude == pytest.approx(fv.reference_magnitude, rel=1e-12)


def test_ambient_form_at_reduction_point_is_pole():
    # on PS(0, odd) the reference integral itself diverges as well
    odd0 = PS(0, Parity.ODD)
    assert reference_magnitude(odd0) is None
    for ps, indices in ((PS(3), (-4, -1, 0, 1, 4)),
                        (odd0, (Fraction(-7, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(7, 2)))):
        for n in indices:
            for fv in (form_diagonal(v(n), ps), gR_form_diagonal(v(n), ps)):
                assert fv.sign is Sign.POLE
                assert fv.ratio_to_reference is None and fv.magnitude is None
                assert fv.reference_magnitude == reference_magnitude(ps)
    # the same vectors have finite values in the submodule realization
    w1 = W1Sub(PS(3))
    assert form_diagonal(v(1), w1).sign is Sign.POSITIVE


def test_w1_values_are_convergent_and_positive():
    for lam0, parity in [(1, Parity.EVEN), (2, Parity.ODD), (4, Parity.ODD), (5, Parity.EVEN)]:
        w1 = W1Sub(PrincipalSeries(Fraction(lam0), parity))
        for u in basis_window(w1, 20):
            fv = form_diagonal(u, w1)
            assert fv.sign is Sign.POSITIVE
            s = u.index.as_fraction + (w1.lam0 + 1) / 2
            oracle = 4 * math.pi * quadrature_integral(s, w1.lam0 + 1)
            assert fv.magnitude == pytest.approx(oracle, rel=1e-8)


def test_magnitude_invariant_of_formvalue():
    fv = form_diagonal(v(3), PS(Fraction(5, 4)))
    assert fv.magnitude == pytest.approx(
        abs(float(fv.ratio_to_reference)) * fv.reference_magnitude, rel=1e-12
    )


# ---------------------------------------------------------------------------
# noncompact form

def test_gR_examples():
    fv = gR_form_diagonal(v(1), PS(Fraction(1, 2)))
    assert fv.sign is Sign.POSITIVE and fv.ratio_to_reference == 3
    fv = gR_form_diagonal(v(1), PS(2))
    assert fv.sign is Sign.NEGATIVE and fv.ratio_to_reference == -3
    fv = gR_form_diagonal(v(2), PointModule(3, Orbit.AT_ZERO))
    assert fv.ratio_to_reference == 40


def test_gR_is_theta_twist_of_u():
    for lam, parity in [(Fraction(5, 4), Parity.EVEN), (Fraction(3, 2), Parity.ODD)]:
        ps = PrincipalSeries(lam, parity)
        for u in basis_window(ps, 6):
            assert (
                gR_form_diagonal(u, ps).ratio_to_reference
                == theta_sign(u, ps) * form_diagonal(u, ps).ratio_to_reference
            )


def test_gR_pole_propagates():
    assert gR_form_diagonal(v(0), PS(3)).sign is Sign.POLE


@pytest.mark.parametrize("spec,u", [(PS(Fraction(7, 3)), v(Fraction(1, 2))),
                                    (PS(3), v(Fraction(3, 2))), (W1Sub(PS(3)), v(2)),
                                    (PointModule(1, Orbit.AT_ZERO), v(-1))])
def test_form_values_refuse_a_non_member(spec, u):
    for value in (form_diagonal, gR_form_diagonal):
        with pytest.raises(ValueError, match="is not a basis vector"):
            value(u, spec)


# ---------------------------------------------------------------------------
# convergence range

def test_convergence_range_examples():
    assert [n.as_fraction for n in convergence_range(PS(2))] == [-1, 0, 1]
    assert [n.as_fraction for n in convergence_range(PS(Fraction(1, 2)))] == [0]
    got = [n.as_fraction for n in convergence_range(PS(3, Parity.ODD))]
    assert got == [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]


def test_convergence_range_empty_for_odd_lambda_zero():
    assert convergence_range(PS(0, Parity.ODD)) == []
    assert [n.as_fraction for n in convergence_range(PS(0, Parity.EVEN))] == [0]


def test_convergence_range_on_points_and_w1():
    assert convergence_range(PointModule(1, Orbit.AT_ZERO)) is None
    assert convergence_range(PointModule(0, Orbit.AT_INFINITY)) is None
    for lam0 in range(1, 9):
        w1 = W1Sub(PS(lam0, Parity.EVEN if lam0 % 2 else Parity.ODD))
        assert convergence_range(w1) == [v.index for v in basis_window(w1, lam0)]
        assert set(convergence_range(w1)) <= set(convergence_range(w1.base))


@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_convergence_range_matches_brute_force(lam, parity):
    ps = PrincipalSeries(lam, parity)
    brute = [
        u.index
        for u in basis_window(ps, 20)
        if -(lam + 1) / 2 < u.index.as_fraction < (lam + 1) / 2
    ]
    assert convergence_range(ps) == brute


# ---------------------------------------------------------------------------
# sign structure

@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_symmetry_v_of_minus_n(lam, parity):
    ps = PrincipalSeries(lam, parity)
    for u in basis_window(ps, 10):
        a = form_diagonal(u, ps).ratio_to_reference
        b = form_diagonal(BasisVector(-u.index), ps).ratio_to_reference
        assert a == b


@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_sign_equals_parity_of_hodge_level(lam, parity):
    ps = PrincipalSeries(lam, parity)
    for u in basis_window(ps, 12):
        fv = form_diagonal(u, ps)
        expected = Sign.POSITIVE if hodge_level(u, ps) % 2 == 0 else Sign.NEGATIVE
        assert fv.sign is expected


@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_positive_inside_range_negative_just_outside(lam, parity):
    ps = PrincipalSeries(lam, parity)
    inside = convergence_range(ps)
    for n in inside:
        fv = form_diagonal(BasisVector(n), ps)
        assert fv.sign is Sign.POSITIVE
        s = n.as_fraction + (lam + 1) / 2
        oracle = 4 * math.pi * quadrature_integral(s, lam + 1)
        assert fv.magnitude == pytest.approx(oracle, rel=1e-8)
    if inside:
        hi = BasisVector(inside[-1] + 1)
        lo = BasisVector(inside[0] - 1)
        assert form_diagonal(hi, ps).sign is Sign.NEGATIVE
        assert form_diagonal(lo, ps).sign is Sign.NEGATIVE


# ---------------------------------------------------------------------------
# point-module closed form vs series-coefficient oracle

def series_coefficient_oracle(m: int, k: int) -> int:
    # k!^2 times the coefficient of x^k in (1+x)^(-m-1), an alternating binomial
    coeff = (-1) ** k * math.comb(m + k, k)
    return math.factorial(k) ** 2 * coeff


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_point_closed_form_equals_series_oracle(m):
    for orbit in Orbit:
        pm = PointModule(m, orbit)
        for k in range(11):
            assert form_diagonal(v(k), pm).ratio_to_reference == series_coefficient_oracle(m, k)
            assert point_diagonal_value(m, k) == series_coefficient_oracle(m, k)


def test_point_value_recursion():
    # invariance forces P(k+1) = -(k+1)(m+k+1) P(k)
    for m in range(4):
        for k in range(10):
            assert point_diagonal_value(m, k + 1) == -(k + 1) * (m + k + 1) * point_diagonal_value(m, k)


# ---------------------------------------------------------------------------
# invariance

def test_invariance_examples():
    assert invariance_check(PS(2), 6).ok
    assert invariance_check(PointModule(2, Orbit.AT_ZERO), 8).ok
    assert invariance_check(W1Sub(PS(3)), 10).ok


@pytest.mark.parametrize("lam,parity", IRREDUCIBLE_GRID, ids=str)
def test_invariance_on_grid(lam, parity):
    report = invariance_check(PrincipalSeries(lam, parity), 8)
    assert report.ok, report.failures[:3]


def test_invariance_point_at_infinity():
    assert invariance_check(PointModule(4, Orbit.AT_INFINITY), 8).ok


@pytest.mark.parametrize("spec,bound", [(PS(0, Parity.ODD), 0), (PS(0, Parity.ODD), 4),
                                        (PS(3), 0), (PS(3), 6)], ids=str)
def test_invariance_refuses_a_reducible_series(spec, bound):
    # every ambient value is a pole, whatever the window, even an empty one
    with pytest.raises(ValueError, match="form has a pole at every basis vector"):
        invariance_check(spec, bound)


# ---------------------------------------------------------------------------
# reference magnitude

def test_invariance_reports_failing_pairs():
    # double the step fact V(n+1) / V(n): both e+/e- laws then fail on every
    # neighbor pair, the h law and the diagonal pairs hold; the laws are
    # decided on the integer polynomials and printed from the integer
    # steps, both sides over V(w)
    spec = PS(Fraction(1, 3))
    (a0, a1, a2), denominator = spec.step
    vars(spec)["step"] = ((2 * a0, 2 * a1, 2 * a2), denominator)
    report = invariance_check(spec, 2)
    assert not report.ok
    assert report.failures == (
        "(e+u,w)=(u,e-w) fails at u=v[-1], w=v[-2]: 4/3 != 2/3",
        "(e+u,w)=-(u,e-w) fails at u=v[-1], w=v[-2]: 4/3 != 2/3",
        "(e+u,w)=(u,e-w) fails at u=v[0], w=v[-1]: 1/3 != 1/6",
        "(e+u,w)=-(u,e-w) fails at u=v[0], w=v[-1]: -1/3 != -1/6",
        "(e+u,w)=(u,e-w) fails at u=v[1], w=v[0]: -2/3 != -4/3",
        "(e+u,w)=-(u,e-w) fails at u=v[1], w=v[0]: -2/3 != -4/3",
        "(e+u,w)=(u,e-w) fails at u=v[2], w=v[1]: -5/3 != -10/3",
        "(e+u,w)=-(u,e-w) fails at u=v[2], w=v[1]: 5/3 != 10/3",
    )


def coefficient(gen, u, spec):
    (value,) = act(gen, u, spec).values() or [0]
    return value


@pytest.mark.parametrize("make,shifts", [(lambda: W1Sub(PS(5)), {E: 0, F: 0}),
                                         (lambda: PS(Fraction(1, 3)), {E: -2, F: 2})],
                         ids=["W1(5) e+- unshifted", "PS(1_3) e+- shifted -2, 2"])
def test_invariance_prints_the_true_ratio_outside_the_contract(make, shifts):
    # e- undoes e+, so each line's right side is flip theta(u) c_F(w) V(u) / V(w),
    # V(u) / V(w) read off a fresh equal spec's diagonal: 1 where |u| = |w|
    # (the W1 once divided by its zero step there), two steps on the series
    spec, fresh = set_shifts(make(), shifts), make()
    window = basis_window(spec, 3)
    expected = []
    for u in window:
        w = BasisVector(u.index + shifts[E])
        if w not in window:
            continue
        assert set(act(F, w, spec)) <= {u}
        ratio = (form_diagonal(u, fresh).ratio_to_reference
                 / form_diagonal(w, fresh).ratio_to_reference)
        left, right = coefficient(E, u, spec), coefficient(F, w, spec)
        for law, lhs, rhs in (("(e+u,w)=(u,e-w)", left, right * ratio),
                              ("(e+u,w)=-(u,e-w)", left * theta_sign(w, spec),
                               -theta_sign(u, spec) * right * ratio)):
            if lhs != rhs:
                expected.append(f"{law} fails at u={u}, w={w}: {lhs} != {rhs}")
    report = invariance_check(spec, 3)
    assert not report.ok and report.failures == tuple(expected)
    if shifts[E]:
        assert "(e+u,w)=(u,e-w) fails at u=v[2], w=v[0]: -5/3 != 5/6" in expected


def test_invariance_with_e_plus_unshifted_divides_by_no_step():
    # e+ unshifted pairs u with itself: V(u) / V(u) is 1, not the zero step
    # at |2n| = 4 on the W1 at 5, so the sweep returns its listing
    report = invariance_check(set_shifts(W1Sub(PS(5)), {E: 0}), 3)
    assert not report.ok and report.failures


def test_invariance_lists_the_pairs_only_e_minus_binds():
    # e+ unshifted, e- still raising: e- binds u = v[-1] to w = v[-2], where
    # (e+ u, w) = 0 but (u, e- w) = -4 V(-1); at u = w = v[-2] both sides are 0
    report = invariance_check(set_shifts(W1Sub(PS(5)), {E: 0}), 3)
    assert not report.ok
    assert "(e+u,w)=(u,e-w) fails at u=v[-1], w=v[-2]: 0 != -1" in report.failures
    assert not [line for line in report.failures if "u=v[-2], w=v[-2]" in line]


def test_invariance_lists_the_h_law_with_h_shifted():
    # h moving one step: (h u, w) = 2 V(0) at u = v[-1], w = v[0], (u, h w) = 0
    report = invariance_check(set_shifts(PS(Fraction(1, 3)), {H: 1}), 2)
    assert not report.ok
    assert "(hu,w)=(u,hw) fails at u=v[-1], w=v[0]: 2 != 0" in report.failures


def test_reference_magnitude_values():
    assert reference_magnitude(PointModule(2, Orbit.AT_ZERO)) == 1.0
    assert reference_magnitude(PS(2)) == pytest.approx(math.pi**2 / 2, rel=1e-12)
    # odd parity reference: 4 pi B((lam+2)/2, lam/2)
    lam = Fraction(3, 2)
    got = reference_magnitude(PS(lam, Parity.ODD))
    oracle = 4 * math.pi * quadrature_integral(Fraction(1, 2) + (lam + 1) / 2, lam + 1)
    assert got == pytest.approx(oracle, rel=1e-9)
