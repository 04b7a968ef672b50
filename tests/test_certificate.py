"""The polynomial decision of the algebraic checks against their window sweeps.

``bracket_check``, ``theta_check`` and ``invariance_check`` decide their
laws as identities between the integer coefficient polynomials
``spec.coefficients`` and the step polynomials ``spec.step``, with no
sample of indices, and sweep the window only when an identity fails, to
list the failures.  The tests here perturb those facts on a spec, the way
a wrong family fact would, and check that the public result is always the
window sweep's and that residuals decided 0 leave no failure on a far
wider sweep.  They also pin the degree contract the facts keep.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perturb import add_to_coefficient, add_to_step, fresh, listing, set_shifts, small, sweep, w1
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
    basis_window,
    bracket_check,
    reference_index,
    theta_check,
)

CHECKS = {
    "bracket_check": (bracket_check, listing(modules._bracket_laws)),
    "theta_check": (theta_check, listing(modules._theta_laws)),
    "invariance_check": (invariance_check, forms._invariance_failures),
}


def outcome(fn, *args):
    """The result of fn, or the error it raised: a ValueError (a pole, a non-member)
    or, printing a failure over a zero step denominator, a ZeroDivisionError."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


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


@settings(max_examples=100, deadline=None)
@given(specs, bounds, st.sampled_from(Generator), st.tuples(small, small, small))
def test_perturbed_coefficient_fails_the_same_way_on_both_paths(spec, bound, gen, poly):
    spec = add_to_coefficient(spec, gen, poly)
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
def test_perturbation_is_listed_on_the_window(name, gen, poly, spec):
    # each perturbation breaks the brackets and the e+/e- invariance laws;
    # the second one holds on the invariance pairs at and next to the
    # reference, so a sample of three indices there would miss it
    spec = add_to_coefficient(fresh(spec), gen, poly(spec))
    check, failures = CHECKS[name]
    report = check(spec, 7)
    assert report == sweep(failures, spec, 7)
    if name != "theta_check":  # theta signs do not see the size of a coefficient
        assert not report.ok and report.failures


def decided(laws):
    """The decision ``_decide`` makes from a check's law table: each residual is 0
    where its law binds."""
    return lambda spec: all(
        not any(residual) if where is None else not any(modules._at(residual, t) for t in where)
        for _, residual, where in laws(spec))


HOLDS = {"bracket_check": decided(modules._bracket_laws),
         "theta_check": decided(modules._theta_laws),
         "invariance_check": decided(forms._invariance_laws)}
integer = st.integers(-2, 2)
facts = st.one_of(
    st.tuples(st.just(add_to_coefficient), st.sampled_from(Generator),
              st.tuples(small, small, small)),
    st.tuples(st.just(add_to_step), st.integers(0, 1), st.tuples(integer, integer, integer)),
    st.tuples(st.just(set_shifts), st.dictionaries(st.sampled_from(Generator), integer,
                                                   min_size=1, max_size=1)),
)


@settings(max_examples=300, deadline=None)
@given(specs, bounds, st.lists(facts, max_size=2))
def test_the_decision_is_the_window_sweep_on_perturbed_facts(spec, bound, changes):
    # series, point modules at either orbit and W1s, with integer and
    # fractional coefficient perturbations, step perturbations and shifts
    # outside the contract; an identity decided true holds 40 steps out too
    for perturb, *args in changes:
        spec = perturb(spec, *args)
    for name, (check, failures) in CHECKS.items():
        assert outcome(check, spec, bound) == outcome(sweep, failures, spec, bound)
        if outcome(HOLDS[name], spec) is True:
            assert failures(spec, basis_window(spec, 40)) == []


@pytest.mark.parametrize("gen", [Generator.E_PLUS, Generator.H], ids=lambda g: g.value)
@pytest.mark.parametrize("shift", [-2, 2])
def test_a_shift_outside_the_contract_gets_a_check_result(monkeypatch, gen, shift):
    # |shift| <= 1 is the contract; past it each check still returns its
    # sweep, which evaluates its law table and reads no coefficient row
    spec = set_shifts(PrincipalSeries(Fraction(1, 3), Parity.EVEN), {gen: shift})
    reads, exact = Counter(), modules._step

    def step(spec, g, twice):
        reads[g, twice] += 1
        return exact(spec, g, twice)

    monkeypatch.setattr(modules, "_step", step)
    for check, failures in CHECKS.values():
        reads.clear()
        report = check(spec, 5)
        assert isinstance(report, CheckResult) and not reads
        assert report == sweep(failures, spec, 5)
    assert not bracket_check(spec, 5).ok
    assert theta_check(spec, 5).ok is (gen is Generator.H)  # (-1)^shift = 1: h keeps theta


# ---------------------------------------------------------------------------
# the degree contract the facts keep

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


# ---------------------------------------------------------------------------
# the bound contract

@pytest.mark.parametrize("name", sorted(CHECKS))
@pytest.mark.parametrize("spec", [PrincipalSeries(Fraction(1, 3), Parity.EVEN),
                                  PointModule(1, Orbit.AT_ZERO), w1(3)], ids=str)
def test_negative_bound_is_refused(name, spec):
    with pytest.raises(ValueError, match="bound must be >= 0"):
        CHECKS[name][0](spec, -1)
