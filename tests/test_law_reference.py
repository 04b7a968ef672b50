"""The integer law checks against the laws written out in ``Fraction`` arithmetic.

``bracket_check``, ``theta_check`` and ``invariance_check`` compare their
laws as cross-multiplied integer numerators, and ``definiteness`` reads the
closed-form signs.  The reference functions here evaluate the same laws
the plain way, as products and differences of ``Fraction`` coefficients
and form ratios from their own step products, one ``_step`` or
``theta_sign`` call per use, and must give the same failure lines in the
same order, the same ``CheckResult`` and the same errors.  Counter tests
pin that each check reads every coefficient and every theta sign once,
and that the checks leave no state on the module beyond its cached facts.
"""

import gc
import pickle
import sys
import threading
import weakref
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from su11hodge import forms, modules
from su11hodge.analysis import Definiteness, definiteness
from su11hodge.exact import Sign
from su11hodge.forms import (
    FormValue,
    diagonal_sign,
    form_diagonal,
    gR_form_diagonal,
    invariance_check,
)
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
    theta_check,
)

E, H, F = Generator.E_PLUS, Generator.H, Generator.E_MINUS


# ---------------------------------------------------------------------------
# the three laws in Fraction arithmetic, read through the patchable sources

def step(gen, v, spec):
    """(coefficient, shift) of gen . v, the coefficient as a ``Fraction``."""
    n, d, shift = modules._step(spec, gen, v.index.twice)
    return Fraction(n, d), shift


def compose(a, b, v, spec):
    """Coefficient of a . (b . v) at its single target index."""
    c, shift = step(b, v, spec)
    if not c:  # b . v is zero; its index may lie off the basis
        return 0
    return Fraction(c) * step(a, BasisVector(v.index + shift), spec)[0]


def reference_bracket_failures(spec, vectors):
    failures = []

    def bracket(a, b, v):
        return compose(a, b, v, spec) - compose(b, a, v, spec)

    for v in vectors:
        if bracket(H, E, v) != 2 * Fraction(step(E, v, spec)[0]):
            failures.append(f"[h,e+] != 2 e+ at {v}")
        if bracket(H, F, v) != -2 * Fraction(step(F, v, spec)[0]):
            failures.append(f"[h,e-] != -2 e- at {v}")
        if bracket(E, F, v) != Fraction(step(H, v, spec)[0]):
            failures.append(f"[e+,e-] != h at {v}")
    return failures


def reference_theta_failures(spec, vectors):
    failures = []

    def theta(v):
        return modules.theta_sign(v, spec)

    def conjugate(gen, v):
        c, shift = step(gen, v, spec)
        if not c:
            return 0
        return theta(v) * Fraction(c) * theta(BasisVector(v.index + shift))

    for v in vectors:
        if theta(v) ** 2 != 1:
            failures.append(f"theta^2 != 1 at {v}")
        if conjugate(E, v) != -Fraction(step(E, v, spec)[0]):
            failures.append(f"theta e+ theta != -e+ at {v}")
        if conjugate(F, v) != -Fraction(step(F, v, spec)[0]):
            failures.append(f"theta e- theta != -e- at {v}")
        if conjugate(H, v) != Fraction(step(H, v, spec)[0]):
            failures.append(f"theta h theta != h at {v}")
    return failures


def diagonal_ratio(spec, v):
    """V(v) / V(reference), a product of exact steps outward from the reference to |n|:
    P(k+1) / P(k) = -(k+1)(m+k+1) on a point module, else
    V(n+1) / V(n) = (2n + lam + 1) / (lam - 1 - 2n), never 0/0 off a reduction point."""
    ratio = Fraction(1)
    for j in range(spec.lattice[0], abs(v.index.twice), 2):  # steps j/2 -> j/2 + 1
        if spec.codim:
            ratio *= -(j // 2 + 1) * (spec.m + j // 2 + 1)
        else:
            ratio *= (j + spec.base.lam + 1) / (spec.base.lam - 1 - j)
    return ratio


def reference_invariance_failures(spec, vectors):
    if spec.reducible:
        raise ValueError(f"form has a pole at every basis vector of {spec}")
    failures = []
    members = set(vectors)
    uratio = {v: diagonal_ratio(spec, v) for v in vectors}
    gratio = {v: forms.theta_sign(v, spec) * uratio[v] for v in vectors}

    def pair(gen, u, w, table):
        coefficient, shift = step(gen, u, spec)
        return Fraction(coefficient) * table[w] if u.index + shift == w.index else Fraction(0)

    laws = ((E, F, 1, uratio, "(e+u,w)=(u,e-w)"), (H, H, 1, uratio, "(hu,w)=(u,hw)"),
            (E, F, -1, gratio, "(e+u,w)=-(u,e-w)"))
    for u in vectors:
        neighbors = [w for w in (BasisVector(u.index - 1), u, BasisVector(u.index + 1))
                     if w in members]
        for gen_l, gen_r, flip, table, law in laws:
            for w in neighbors:
                lhs = pair(gen_l, u, w, table)
                rhs = flip * pair(gen_r, w, u, table)
                if lhs != rhs:
                    failures.append(f"{law} fails at u={u}, w={w}: "
                                    f"{lhs / uratio[w]} != {rhs / uratio[w]}")
    return failures


CHECKS = [
    (bracket_check, modules._bracket_failures, reference_bracket_failures),
    (theta_check, modules._theta_failures, reference_theta_failures),
    (invariance_check, forms._invariance_failures, reference_invariance_failures),
]


def outcome(fn, *args):
    """The result of fn, or the ValueError it raised (a pole, a non-member)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def w1(lam0: int) -> W1Sub:
    return W1Sub(PrincipalSeries(Fraction(lam0), Parity.EVEN if lam0 % 2 else Parity.ODD))


rational_lams = st.sampled_from(list(range(1, 10)) + [1009]).flatmap(
    lambda q: st.integers(0, 400 * q).map(lambda p: Fraction(p, q)))
specs = st.one_of(
    st.builds(PrincipalSeries, rational_lams, st.sampled_from(Parity)),
    st.builds(PointModule, st.integers(0, 400), st.sampled_from(Orbit)),
    st.integers(1, 400).map(w1),
)
bounds = st.integers(0, 40)


def perturbed_step(gen, poly):
    """``_step`` with the polynomial ``poly`` in the index added to gen's coefficient."""
    exact = modules._step

    def perturbed(spec, g, twice):
        num, den, shift = exact(spec, g, twice)
        if g is gen:
            n = Fraction(twice, 2)
            coefficient = Fraction(num, den) + poly[0] + poly[1] * n + poly[2] * n * n
            num, den = coefficient.numerator, coefficient.denominator
        return num, den, shift

    return perturbed


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
perturbations = st.none() | st.tuples(st.sampled_from(Generator),
                                      st.tuples(small, small, small))


def assert_same_as_reference(spec, bound):
    window = basis_window(spec, bound)
    for check, failures, reference in CHECKS:
        expected = outcome(modules._decide, spec, bound, reference)
        assert outcome(check, spec, bound) == expected
        assert outcome(failures, spec, window) == outcome(reference, spec, window)


@settings(max_examples=150, deadline=None)
@given(specs, bounds, perturbations)
def test_checks_match_the_fraction_reference(spec, bound, perturbation):
    if perturbation is None:
        assert_same_as_reference(spec, bound)
        return
    with pytest.MonkeyPatch.context() as mp:
        perturbed = perturbed_step(*perturbation)
        mp.setattr(modules, "_step", perturbed)
        assert_same_as_reference(spec, bound)


def test_reference_sees_a_perturbation():
    # the reference is not vacuous: a perturbed e- coefficient fails both paths
    spec = PrincipalSeries(Fraction(7, 1009), Parity.ODD)
    with pytest.MonkeyPatch.context() as mp:
        perturbed = perturbed_step(F, (0, 0, Fraction(1, 3)))
        mp.setattr(modules, "_step", perturbed)
        for check, _, reference in CHECKS[::2]:  # theta signs do not see sizes
            report = check(spec, 3)
            assert not report.ok
            assert report == modules._decide(spec, 3, reference)


# ---------------------------------------------------------------------------
# definiteness against the per-vector noncompact signs

@settings(max_examples=200, deadline=None)
@given(specs.filter(lambda spec: not spec.reducible), st.none() | bounds)
def test_definiteness_matches_per_vector_signs(spec, bound):
    tail = 2 if spec.codim else -(-(spec.base.lam + 1) // 2) + 1
    window = basis_window(spec, max(bound or 0, int(tail)))
    signs = {diagonal_sign(v, spec) if modules.theta_sign(v, spec) == 1
             else -diagonal_sign(v, spec) for v in window}
    assert signs != {Sign.NEGATIVE}  # the reference vector's value is positive
    expected = Definiteness.POS_DEF if signs == {Sign.POSITIVE} else Definiteness.INDEFINITE
    assert definiteness(spec, bound) is expected


@settings(max_examples=200, deadline=None)
@given(specs, st.integers(0, 12))
def test_noncompact_value_is_the_twisted_compact_value(spec, bound):
    # (theta v, v) = theta(v) (v, v), the magnitude from the twisted ratio
    for v in basis_window(spec, bound):
        ratio = form_diagonal(v, spec).ratio_to_reference
        ref_mag = form_diagonal(v, spec).reference_magnitude
        if ratio is not None:
            ratio *= modules.theta_sign(v, spec)
        magnitude = None if ratio is None or ref_mag is None else abs(float(ratio)) * ref_mag
        assert gR_form_diagonal(v, spec) == FormValue(Sign.of(ratio), ratio, magnitude, ref_mag)


# ---------------------------------------------------------------------------
# one _step per (generator, index) and one theta_sign per index

MEMO_SPECS = [PrincipalSeries(Fraction(1, 3), Parity.EVEN),
              PrincipalSeries(Fraction(7, 1009), Parity.ODD),
              PointModule(3, Orbit.AT_INFINITY)]


def counting(calls, fn, key):
    def counted(*args):
        calls[key(*args)] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=str)
@pytest.mark.parametrize("run", [
    lambda check, failures, spec: check(spec, 7),
    lambda check, failures, spec: failures(spec, basis_window(spec, 7)),
], ids=["check", "window"])
def test_each_check_reads_a_coefficient_once(monkeypatch, spec, run):
    for check, failures, _ in CHECKS:
        steps, signs = Counter(), Counter()
        step = counting(steps, modules._step, lambda spec, gen, twice: (gen, twice))
        monkeypatch.setattr(modules, "_step", step)
        theta = counting(signs, modules.theta_sign, lambda v, spec: v.index.twice)
        monkeypatch.setattr(modules, "theta_sign", theta)
        monkeypatch.setattr(forms, "theta_sign", theta)
        result = run(check, failures, spec)
        assert result in (CheckResult(True), [])
        assert steps and max(steps.values()) == 1, check.__name__
        assert not signs or max(signs.values()) == 1, check.__name__
        assert bool(signs) == (check is not bracket_check)
        monkeypatch.undo()


@pytest.mark.parametrize("check,reads", [(bracket_check, [45, 45, 27, 21]),
                                         (theta_check, [39, 39, 21, 15]),
                                         (invariance_check, [26, 26, 14, 10])],
                         ids=["bracket", "theta", "invariance"])
def test_each_check_reads_one_step_row_per_generator(monkeypatch, check, reads):
    # a row per generator read over the sample (13, 7 indices) or the W1 (5):
    # bracket reads all three one index past either end for its shifted
    # reads, theta all three and invariance e+ and e- on the vectors alone
    steps = Counter()
    monkeypatch.setattr(modules, "_step", counting(steps, modules._step,
                                                   lambda spec, gen, twice: (gen, twice)))
    found = []
    for spec in MEMO_SPECS + [W1Sub(PrincipalSeries(Fraction(5), Parity.EVEN))]:
        steps.clear()
        assert check(spec, 12).ok
        found.append(sum(steps.values()))
    assert found == reads


def test_an_empty_window_passes_every_check():
    spec = W1Sub(PrincipalSeries(Fraction(4), Parity.ODD))
    assert spec.lattice == (1, -3, 3) and basis_window(spec, 0) == []
    for check, failures, _ in CHECKS:
        assert check(spec, 0) == CheckResult(True)
        assert failures(spec, []) == []



@pytest.mark.parametrize("spec", MEMO_SPECS, ids=str)
@pytest.mark.parametrize("run", [
    lambda check, failures, spec: check(spec, 7),
    lambda check, failures, spec: failures(spec, basis_window(spec, 7)),
], ids=["check", "window"])
def test_the_checks_leave_only_the_cached_facts_on_a_module(spec, run):
    for check, failures, _ in CHECKS:
        assert run(check, failures, spec) in (CheckResult(True), [])
    cached = {name for name in ("reducible", "lattice", "coefficients", "step")
              if isinstance(vars(type(spec)).get(name), cached_property)}
    assert set(vars(spec)) == {f.name for f in fields(spec)} | cached


def test_a_checked_spec_is_freed_without_the_collector_and_pickles():
    spec = PrincipalSeries(Fraction(7, 1009), Parity.ODD)
    results = [check(spec, 7) for check, _, _ in CHECKS]
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and [check(copy, 7) for check, _, _ in CHECKS] == results
    gc.disable()
    try:
        alive = weakref.ref(spec)
        del spec
        assert alive() is None  # no reference cycle runs through the spec
    finally:
        gc.enable()


def test_threads_sharing_a_spec_agree():
    # concurrent checks may compute a cached fact twice; every result must
    # still be the single-threaded one
    expected = {check: check(PointModule(2, Orbit.AT_ZERO), 9) for check, _, _ in CHECKS}
    spec, results = PointModule(2, Orbit.AT_ZERO), []

    def worker(i):
        for j in range(20):
            check = CHECKS[(i + j) % 3][0]
            results.append(check(spec, 9) == expected[check])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 160 and all(results)
