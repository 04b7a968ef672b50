"""The sampled decision of the algebraic checks against their full window sweeps.

``bracket_check``, ``theta_check`` and ``invariance_check`` decide their
laws on a fixed sample of indices and sweep the window only to list
failures.  That is sound because every law is a polynomial identity of
low degree in the index; the tests here pin the degree contract and check
that the public result is always the sweep's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su11hodge import forms, modules
from su11hodge.exact import HalfInt
from su11hodge.forms import form_diagonal, invariance_check
from su11hodge.modules import (
    BasisVector,
    CheckResult,
    Generator,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    bracket_check,
    reference_index,
    theta_check,
)

CHECKS = {
    "bracket_check": (bracket_check, modules._bracket_failures),
    "theta_check": (theta_check, modules._theta_failures),
    "invariance_check": (invariance_check, forms._invariance_failures),
}


def sweep(failures, spec, bound) -> CheckResult:
    found = failures(spec, basis_window(spec, bound))
    return CheckResult(not found, tuple(found))


def outcome(fn, *args):
    """The result of fn, or the ValueError it raised (a pole, a non-member)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def w1(lam0: int) -> W1Sub:
    return W1Sub(PrincipalSeries(Fraction(lam0), Parity.EVEN if lam0 % 2 else Parity.ODD))


specs = st.one_of(
    st.builds(PrincipalSeries, st.fractions(min_value=0, max_value=12, max_denominator=7),
              st.sampled_from(Parity)),
    st.builds(PointModule, st.integers(0, 8), st.sampled_from(Orbit)),
    st.integers(1, 12).map(w1),
)
bounds = st.integers(0, 40)


@settings(max_examples=100, deadline=None)
@given(specs, bounds)
def test_checks_agree_with_their_window_sweeps(spec, bound):
    for check, failures in CHECKS.values():
        assert outcome(check, spec, bound) == outcome(sweep, failures, spec, bound)


def perturbed_step(gen, poly):
    """``_step`` with the polynomial ``poly`` in the index added to gen's coefficient."""
    exact = modules._step

    def step(spec, g, twice):
        num, den, shift = exact(spec, g, twice)
        if g is gen:
            n = Fraction(twice, 2)
            coefficient = Fraction(num, den) + poly[0] + poly[1] * n + poly[2] * n * n
            num, den = coefficient.numerator, coefficient.denominator
        return num, den, shift

    return step


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=100, deadline=None)
@given(specs, bounds, st.sampled_from(Generator), st.tuples(small, small, small))
def test_perturbed_coefficient_fails_the_same_way_on_both_paths(spec, bound, gen, poly):
    with pytest.MonkeyPatch.context() as mp:
        step = perturbed_step(gen, poly)
        mp.setattr(modules, "_step", step)
        for check, failures in CHECKS.values():
            assert outcome(check, spec, bound) == outcome(sweep, failures, spec, bound)


def near_reference(spec):
    """(n - n0)(n - n0 - 1): zero on the two indices next to the reference n0."""
    n0 = reference_index(spec).as_fraction
    return (n0 * (n0 + 1), -(2 * n0 + 1), 1)


@pytest.mark.parametrize("name", sorted(CHECKS))
@pytest.mark.parametrize("gen,poly", [(Generator.E_MINUS, lambda spec: (0, 0, 1)),
                                      (Generator.E_PLUS, near_reference)],
                         ids=["e- + n^2", "e+ + (n-n0)(n-n0-1)"])
@pytest.mark.parametrize("spec", [PrincipalSeries(Fraction(1, 3), Parity.EVEN),
                                  PrincipalSeries(Fraction(5, 2), Parity.ODD),
                                  PointModule(2, Orbit.AT_INFINITY)], ids=str)
def test_perturbation_is_listed_on_the_window(monkeypatch, name, gen, poly, spec):
    # each perturbation breaks the brackets and the e+/e- invariance laws;
    # the second one holds on the invariance pairs at and next to the
    # reference, so a sample of three indices there would miss it
    step = perturbed_step(gen, poly(spec))
    monkeypatch.setattr(modules, "_step", step)
    check, failures = CHECKS[name]
    report = check(spec, 7)
    assert report == sweep(failures, spec, 7)
    if name != "theta_check":  # theta signs do not see the size of a coefficient
        assert not report.ok and report.failures


# ---------------------------------------------------------------------------
# the degree contract the sample relies on

FAMILIES = [
    PrincipalSeries(Fraction(1, 3), Parity.EVEN),
    PrincipalSeries(Fraction(7, 2), Parity.ODD),
    PrincipalSeries(Fraction(3), Parity.EVEN),
    PrincipalSeries(Fraction(0), Parity.ODD),
    PointModule(0, Orbit.AT_ZERO),
    PointModule(3, Orbit.AT_INFINITY),
]


def differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def lattice(spec, count):
    """``count`` consecutive indices from well below the reference upward."""
    if isinstance(spec, PointModule):
        return [BasisVector(HalfInt(2 * k)) for k in range(count)]
    ref = reference_index(spec).twice
    return [BasisVector(HalfInt(ref + 2 * j)) for j in range(-count // 2, count // 2)]


@pytest.mark.parametrize("spec", FAMILIES, ids=str)
def test_step_coefficients_have_degree_at_most_two(spec):
    for gen in Generator:
        terms = [modules._step(spec, gen, v.index.twice) for v in lattice(spec, 30)]
        assert len({shift for _, _, shift in terms}) == 1
        assert not any(differences([Fraction(n, d) for n, d, _ in terms], 3))


def rank(rows) -> int:
    """Exact rank of a matrix of Fractions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    found = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for i in range(found + 1, len(rows)):
            factor = rows[i][col] / rows[found][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


def is_degree_two_ratio(points) -> bool:
    """Whether s(n) = p(n)/q(n) with deg p, deg q <= 2 fits every (n, s) point.

    That is a non-zero (q0, q1, q2, p0, p1, p2) with q(n) s - p(n) = 0 at
    every point, a kernel of the 6-column matrix below.
    """
    return rank([[s, s * n, s * n * n, -1, -n, -n * n] for n, s in points]) < 6


def test_degree_two_ratio_test_rejects_degree_three():
    assert not is_degree_two_ratio([(Fraction(n), Fraction(n) ** 3) for n in range(20)])


@pytest.mark.parametrize("spec", [s for s in FAMILIES
                                  if not getattr(s, "reducible", False)], ids=str)
def test_table_step_is_a_degree_two_ratio_on_each_side(spec):
    def value(u):
        return form_diagonal(BasisVector(u), spec).ratio_to_reference

    def step(u):  # V(u) / V(u - 1)
        return value(u) / value(u - 1)

    ref = reference_index(spec)
    sides = [[ref + 1 + j for j in range(20)]]  # u - 1 >= n0
    if not isinstance(spec, PointModule):
        sides.append([HalfInt(-ref.twice) - j for j in range(20)])  # u <= -n0
    for side in sides:
        assert is_degree_two_ratio([(u.as_fraction, step(u)) for u in side])


@pytest.mark.parametrize("spec", [PrincipalSeries(Fraction(1, 3), Parity.EVEN),
                                  PrincipalSeries(Fraction(1, 3), Parity.ODD),
                                  PointModule(1, Orbit.AT_ZERO)], ids=str)
def test_decide_samples_six_steps_out_on_each_side_of_the_fold(spec):
    # the soundness argument needs five consecutive indices on each side of
    # the fold V(-n) = V(n): the sample holds k = 0..6 steps out on the side
    # 2n >= 0 and, on a series, k = 0..6 (even) or 0..5 (odd) on the side 2n <= 0
    calls = []
    result = modules._decide(spec, 40, lambda s, vectors: calls.append(vectors) or [])
    assert result == CheckResult(True) and len(calls) == 1
    r = reference_index(spec).twice
    twice = [v.index.twice for v in calls[0]]
    assert sorted((tw - r) // 2 for tw in twice if tw >= 0) == list(range(7))
    below = sorted((-tw - r) // 2 for tw in twice if tw <= 0)
    assert below == ([0] if spec.codim else list(range(7 - r)))


# ---------------------------------------------------------------------------
# the bound contract

@pytest.mark.parametrize("name", sorted(CHECKS))
@pytest.mark.parametrize("spec", [PrincipalSeries(Fraction(1, 3), Parity.EVEN),
                                  PointModule(1, Orbit.AT_ZERO), w1(3)], ids=str)
def test_negative_bound_is_refused(name, spec):
    with pytest.raises(ValueError, match="bound must be >= 0"):
        CHECKS[name][0](spec, -1)
