"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact unless a tolerance is stated inline; runtimes are
asserted against the per-criterion budget.
"""

import math
import time
from fractions import Fraction

from su11hodge.analysis import classify, definiteness, jantzen_crossing, verify_conjecture
from su11hodge.exact import beta_value, quadrature_integral
from su11hodge.filtrations import grw2_weights
from su11hodge.forms import (
    convergence_range,
    form_diagonal,
    invariance_check,
)
from su11hodge.modules import (
    BasisVector,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    bracket_check,
    is_reduction_point,
    theta_check,
)


def _report(num: int, passed: bool, elapsed: float, limit: float, detail: str):
    line = (
        f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail} "
        f"[{elapsed:.2f}s / limit {limit:.0f}s]"
    )
    print(line)
    assert passed and elapsed < limit, line


def v(n):
    return BasisVector.at(Fraction(n))


def sweep_specs():
    """Criterion-4 spec list: irreducible series on the quarter grid plus points."""
    specs = []
    for k in range(1, 20):
        lam = Fraction(k, 4)
        for parity in Parity:
            if not is_reduction_point(lam, parity):
                specs.append(PrincipalSeries(lam, parity))
    for m in range(5):
        for orbit in Orbit:
            specs.append(PointModule(m, orbit))
    return specs


def test_criterion_1_point_closed_form():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for m in range(4):
        for orbit in Orbit:
            pm = PointModule(m, orbit)
            for k in range(11):
                expected = (-1) ** k * math.factorial(k) * math.prod(
                    range(m + 1, m + k + 1)
                )
                ok &= form_diagonal(v(k), pm).ratio_to_reference == expected
                checked += 1
    # independent series-coefficient oracle at m = 1, k <= 3:
    # k!^2 times the (z zbar)^k coefficient of (1 + z zbar)^-2
    for k in range(4):
        oracle = math.factorial(k) ** 2 * (-1) ** k * math.comb(1 + k, k)
        ok &= form_diagonal(v(k), PointModule(1, Orbit.AT_ZERO)).ratio_to_reference == oracle
    elapsed = time.perf_counter() - t0
    _report(1, ok, elapsed, 1.0, f"point diagonal closed form exact on {checked} values")


def test_criterion_2_convergence_boundary():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for lam in (Fraction(1, 2), Fraction(2), Fraction(7, 2)):
        for parity in Parity:
            ps = PrincipalSeries(lam, parity)
            window = basis_window(ps, 12)
            expected = [
                u.index for u in window
                if -(lam + 1) / 2 < u.index.as_fraction < (lam + 1) / 2
            ]
            got = convergence_range(ps)
            ok &= got == expected
            # at a reduction point the convergent indices are exactly the W1
            # basis, whose realization carries the finite values
            finite_spec = W1Sub(ps) if ps.reducible else ps
            for n in got:
                s = n.as_fraction + (lam + 1) / 2
                q = quadrature_integral(s, lam + 1)
                fv = form_diagonal(BasisVector(n), finite_spec)
                ok &= q is not None and q > 0
                ok &= abs(fv.magnitude - 4 * math.pi * q) <= 1e-8 * fv.magnitude
                checked += 1
            # first lattice indices outside the strip on either side diverge
            if got:
                for outside in (got[0] - 1, got[-1] + 1):
                    s = outside.as_fraction + (lam + 1) / 2
                    ok &= quadrature_integral(s, lam + 1) is None
    elapsed = time.perf_counter() - t0
    _report(2, ok, elapsed, 5.0, f"convergence strip exact; {checked} finite values at 1e-8")


def test_criterion_3_continuation_vs_quadrature():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for lam in (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(2),
                Fraction(11, 4), Fraction(7, 2), Fraction(17, 4)):
        for parity in Parity:
            if is_reduction_point(lam, parity):
                continue
            ps = PrincipalSeries(lam, parity)
            for n in convergence_range(ps):
                s = n.as_fraction + (lam + 1) / 2
                t = lam + 1
                fv = form_diagonal(BasisVector(n), ps)
                q = quadrature_integral(s, t)
                # ratio-anchored magnitude against the quadrature oracle
                ok &= abs(fv.magnitude / (4 * math.pi) - q) <= 1e-8 * q
                # integration-by-parts identity
                lhs = float(s) * q
                rhs = float(t) * quadrature_integral(s + 1, t + 1)
                ok &= abs(lhs - rhs) <= 1e-8 * abs(lhs)
                # the two independent backends agree as well
                b = beta_value(s, t - s)
                ok &= abs(q - b) <= 1e-8 * b
                pairs += 1
    ok &= pairs >= 25
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, 10.0, f"{pairs} (s,t) pairs within 1e-8")


def test_criterion_4_conjecture_sweep():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for spec in sweep_specs():
        report = verify_conjecture(spec, 12)
        ok &= report.verdict
        count += len(report.records)
    elapsed = time.perf_counter() - t0
    _report(4, ok, elapsed, 5.0, f"sign conjecture exact on {count} vectors")


def test_criterion_5_algebraic_suite():
    t0 = time.perf_counter()
    ok = True
    n_specs = 0
    for spec in sweep_specs():
        ok &= bracket_check(spec, 12).ok
        ok &= theta_check(spec, 12).ok
        ok &= invariance_check(spec, 12).ok
        n_specs += 1
    elapsed = time.perf_counter() - t0
    _report(5, ok, elapsed, 5.0, f"brackets, theta, invariance exact on {n_specs} specs")


def test_criterion_6_jantzen_crossing():
    t0 = time.perf_counter()
    ok = True
    for lam0 in (1, 2, 3, 4):
        parity = Parity.EVEN if lam0 % 2 == 1 else Parity.ODD
        report = jantzen_crossing(lam0, parity, Fraction(1, 4), 8)
        ok &= report.verdict
        ok &= all(r.preserved == r.w1 for r in report.records)
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, 2.0, "sign preserved across lambda0 iff W1, for lambda0 in 1..4")


def test_criterion_7_grw2_weight_match():
    t0 = time.perf_counter()
    ok = True
    for lam0 in (1, 2, 3):
        parity = Parity.EVEN if lam0 % 2 == 1 else Parity.ODD
        ok &= grw2_weights(lam0, parity, 30).equal
    elapsed = time.perf_counter() - t0
    _report(7, ok, elapsed, 1.0, "quotient weights equal point-module weights to cutoff 30")


def test_criterion_8_unitarity_regression():
    t0 = time.perf_counter()

    def unitary_flags(lam, parity):
        return [e.unitary for e in classify(Fraction(lam), parity).entries]

    ok = unitary_flags(Fraction(1, 2), Parity.EVEN) == [True]
    ok &= unitary_flags(0, Parity.EVEN) == [True]
    ok &= unitary_flags(2, Parity.EVEN) == [False]
    ok &= unitary_flags(Fraction(1, 2), Parity.ODD) == [False]
    ok &= unitary_flags(3, Parity.EVEN) == [False, True, True]
    ok &= unitary_flags(1, Parity.EVEN) == [True, True, True]
    ok &= unitary_flags(0, Parity.ODD) == [True, True]
    elapsed = time.perf_counter() - t0
    _report(8, ok, elapsed, 2.0, "classical unitary list reproduced by the sign engine")


def test_criterion_9_definiteness_stability():
    t0 = time.perf_counter()
    ok = True
    for spec in sweep_specs():
        ok &= definiteness(spec, 12) is definiteness(spec, 22)
    elapsed = time.perf_counter() - t0
    _report(9, ok, elapsed, 5.0, "verdicts identical at window bounds 12 and 22")
