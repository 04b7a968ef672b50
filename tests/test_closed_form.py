"""The closed-form diagonal signs against a product of continuation steps.

At lam = p/q the sign of V(n) k steps out from the reference is
(-1)^max(0, k - j0), a pole past a zero step; on a point module it is
(-1)^k.  The reference here multiplies the signs of ``continuation_ratio``
one step at a time (the closed form for point modules is checked against
``point_diagonal_value``).  The sign threshold j0 and the Hodge level's
k1 must agree off the reduction points, which is the sign law on the whole
lattice.  ``classify`` must then be constant on every open interval between
consecutive reduction points, and cost nothing that grows with lam.
"""

import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from su11hodge import forms
from su11hodge.analysis import classify
from su11hodge.exact import HalfInt, Sign
from su11hodge.forms import (
    continuation_ratio,
    diagonal_sign,
    form_diagonal,
    point_diagonal_value,
)
from su11hodge.modules import (
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    constituents,
    reference_index,
)


def reference_sign(twice: int, lam: Fraction, ref_twice: int) -> Sign:
    """Product of the step signs from the reference index out to |n|, POLE at a pole."""
    sign = Sign.POSITIVE
    for j in range(ref_twice, abs(twice), 2):
        step = continuation_ratio(HalfInt(j), lam)
        if step is None:
            return Sign.POLE
        if step < 0:
            sign = -sign
    return sign


def expected_sign(v, spec) -> Sign:
    if isinstance(spec, PointModule):
        return Sign.of(point_diagonal_value(spec.m, v.index.twice // 2))
    return reference_sign(v.index.twice, spec.base.lam, reference_index(spec).twice)


denominators = st.sampled_from([1, 2, 3, 7, 1009])
lams = denominators.flatmap(lambda q: st.integers(0, 40 * q).map(lambda p: Fraction(p, q)))
integers = st.integers(0, 40).map(Fraction)  # every reduction point and its neighbors
series = st.builds(PrincipalSeries, lams | integers, st.sampled_from(Parity))


@settings(max_examples=300, deadline=None)
@given(series, st.integers(0, 30))
def test_closed_form_is_the_product_of_step_signs(ps, bound):
    # the series, its W1 and its point constituents; on a reducible series
    # every public reader gives a pole, elsewhere the step signs
    for spec in {ps, *constituents(ps)}:
        sign = forms._signs(spec)
        for v in basis_window(spec, bound):
            if spec.reducible:
                assert sign(v.index.twice) is diagonal_sign(v, spec) is Sign.POLE
                assert form_diagonal(v, spec).sign is Sign.POLE
            else:
                expected = expected_sign(v, spec)
                assert sign(v.index.twice) is diagonal_sign(v, spec) is expected
                assert form_diagonal(v, spec).sign is expected


def test_poles_lie_past_a_zero_step():
    # PS(5, even): steps 0 and 1 positive, step 2 (n = 2 -> 3) divides by zero;
    # its W1 ends at n = 2, before that step
    ps = PrincipalSeries(Fraction(5), Parity.EVEN)
    assert ps.breakpoints == (0, 3, 2)  # r, k1, j0
    assert forms._continuation_step(5, 1, 2 * 2 + 1)[1] == 0
    w1 = W1Sub(ps)
    assert [form_diagonal(v, w1).ratio_to_reference for v in basis_window(w1, 4)
            if v.index.twice >= 0] == [1, Fraction(3, 2), 6]
    assert all(forms._signs(ps)(2 * n) is Sign.POLE for n in range(-4, 5))


def test_breakpoints_agree_off_the_reduction_points():
    # the sign law on the whole lattice, in integers: k1 (pole order) and j0
    # (step signs) are read apart, and agree on every irreducible series; at
    # a reduction point k1 = j0 + 1, and its W1 ends at k = j0
    irreducible = positive_points = 0
    for parity in Parity:
        for lam in {Fraction(p, q) for q in range(1, 13) for p in range(60 * q + 1)}:
            ps = PrincipalSeries(lam, parity)
            r, k1, j0 = ps.breakpoints
            assert r == reference_index(ps).twice
            if not ps.reducible:
                irreducible += 1
                assert k1 == j0 >= 0, ps
            elif lam:
                positive_points += 1
                assert k1 == j0 + 1, ps
                w1 = W1Sub(ps)
                assert w1.breakpoints == (r, k1, j0)
                assert 2 * j0 == w1.lattice[2] - r, w1
    assert (irreducible, positive_points) == (5461, 60)
    assert PointModule(3, Orbit.AT_INFINITY).breakpoints == (0, -1, 0)


def reduction_points(parity: Parity):
    """0 and the reduction points of the parity in increasing order, up to 41."""
    return [0] + [k for k in range(1, 42) if (k % 2 == 1) is (parity is Parity.EVEN)]


@st.composite
def interval_pairs(draw):
    """Two rationals in one open interval between consecutive reduction points."""
    parity = draw(st.sampled_from(Parity))
    ends = reduction_points(parity)
    i = draw(st.integers(0, len(ends) - 2))
    lo, hi = ends[i], ends[i + 1]
    q = draw(denominators.filter(lambda q: (hi - lo) * q > 1))
    inside = st.integers(lo * q + 1, hi * q - 1).map(lambda p: Fraction(p, q))
    return parity, draw(inside), draw(inside)


@settings(max_examples=300, deadline=None)
@given(interval_pairs())
def test_classify_is_constant_between_reduction_points(case):
    # the SU(1,1) case of signature deformation: the signature can change
    # only where the module reduces
    parity, a, b = case
    (first,), (second,) = classify(a, parity).entries, classify(b, parity).entries
    assert (first.hermitian, first.definiteness) == (second.hermitian, second.definiteness)


def test_classify_at_large_lambda_walks_nothing(monkeypatch):
    # the walk it replaced took about 8 s here
    steps, made = [], []
    step, shared = forms._diagonal_step, forms._shared
    monkeypatch.setattr(forms, "_diagonal_step", lambda *args: steps.append(args) or
                        step(*args))
    monkeypatch.setattr(forms, "_shared", lambda key: made.append(key) or shared(key))
    start = time.process_time()
    (entry,) = classify(Fraction(20000001, 2), Parity.EVEN).entries
    elapsed = time.process_time() - start
    assert not entry.unitary
    assert not steps and not made
    assert elapsed < 0.1
