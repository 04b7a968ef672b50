"""The per-module diagonal table against an independent step-by-step product."""

import sys
import threading
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from su11hodge import forms
from su11hodge.analysis import jantzen_crossing, verify_conjecture
from su11hodge.exact import HalfInt, Sign
from su11hodge.forms import (
    diagonal_sign,
    form_diagonal,
    gR_form_diagonal,
    invariance_check,
    point_diagonal_value,
)
from su11hodge.modules import (
    BasisVector,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
)


def reference_walk(twice: int, lam: Fraction, ref_twice: int):
    """Continuation product from the reference index to twice/2, one step at a time.

    Up: the first step with a zero denominator (also 0/0) ends the walk with
    a pole, None.  Down: a zero numerator or denominator is a pole, None.
    """
    ratio = Fraction(1)
    for j in range(ref_twice, twice, 2):  # upward steps j -> j+1, j = index*2
        num, den = j + lam + 1, lam - 1 - j
        if den == 0:
            return None
        ratio *= num / den
    for j in range(ref_twice - 2, twice - 2, -2):  # downward steps j+1 -> j
        num, den = j + lam + 1, lam - 1 - j
        if num == 0 or den == 0:
            return None
        ratio /= num / den
    return ratio


def table_ratio(spec, twice: int):
    return forms._table(spec).ratio(HalfInt(twice))


ZERO_ODD = PrincipalSeries(Fraction(0), Parity.ODD)


def check_entry(ps, twice: int):
    """The table entry at twice/2 against the two-sided reference walk.

    PS(0, odd) is reducible and has no W1, so no public function reads its
    table; below its reference the walk takes the 0/0 step, which the
    one-sided table never does.  There the public sign is checked instead.
    """
    if ps == ZERO_ODD:
        assert diagonal_sign(BasisVector(HalfInt(twice)), ps) is Sign.POLE
    else:
        assert table_ratio(ps, twice) == reference_walk(twice, ps.lam,
                                                        ps.parity.twice_residue)


lams = st.builds(Fraction, st.integers(0, 40), st.integers(1, 9))
parities = st.sampled_from(list(Parity))


@settings(max_examples=60, deadline=None)
@given(lams, parities, st.integers(0, 30), st.randoms(use_true_random=False))
def test_table_matches_reference_in_any_query_order(lam, parity, bound, rnd):
    ps = PrincipalSeries(lam, parity)
    indices = [v.index.twice for v in basis_window(ps, bound)]
    rnd.shuffle(indices)
    for twice in indices:
        check_entry(ps, twice)
    # a second sweep reads the same entries
    for twice in indices:
        check_entry(ps, twice)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 24), parities, st.integers(0, 30))
def test_table_poles_at_integer_lambda(lam, parity, bound):
    # integral lambda covers the reduction points (poles above, zero steps
    # below in the reference walk) and lambda = 0 odd
    ps = PrincipalSeries(Fraction(lam), parity)
    for v in reversed(basis_window(ps, bound)):
        check_entry(ps, v.index.twice)


def test_table_pole_configurations():
    ps = PrincipalSeries(Fraction(3), Parity.EVEN)
    assert [table_ratio(ps, 2 * n) for n in (-3, -2, -1, 0, 1, 2, 3)] == [
        None, None, 2, 1, 2, None, None]
    # PS(0, odd): the reference walk's 0/0 step at n = -1/2; every public
    # value is a pole
    assert all(diagonal_sign(v, ZERO_ODD) is Sign.POLE for v in basis_window(ZERO_ODD, 3))
    assert table_ratio(ZERO_ODD, 3) == reference_walk(3, Fraction(0), 1)


def test_out_of_order_queries():
    ps = PrincipalSeries(Fraction(2, 7), Parity.EVEN)
    for n in (60, -3, 2, -40, 0, 59, -41):
        assert table_ratio(ps, 2 * n) == reference_walk(2 * n, ps.lam, 0)


@given(st.integers(1, 12), st.integers(0, 20))
def test_w1_shares_the_base_table(lam0, bound):
    parity = Parity.EVEN if lam0 % 2 else Parity.ODD
    ps = PrincipalSeries(Fraction(lam0), parity)
    w1 = W1Sub(ps)
    assert forms._table(w1) is forms._table(ps)
    for v in basis_window(w1, bound):
        fv = form_diagonal(v, w1)
        assert fv.ratio_to_reference == reference_walk(v.index.twice, ps.lam,
                                                       parity.twice_residue)
        assert fv.sign is Sign.POSITIVE
    # the ambient reducible module still reports poles
    for v in basis_window(ps, bound):
        assert form_diagonal(v, ps).sign is Sign.POLE


@given(st.integers(0, 8), st.sampled_from(list(Orbit)),
       st.lists(st.integers(0, 30), min_size=1, max_size=12))
def test_point_table_matches_closed_form(m, orbit, ks):
    pm = PointModule(m, orbit)
    for k in ks:
        assert form_diagonal(BasisVector.at(k), pm).ratio_to_reference == \
            point_diagonal_value(m, k)


@settings(max_examples=40, deadline=None)
@given(lams, parities, st.integers(0, 16))
def test_diagonal_sign_matches_form_values(lam, parity, bound):
    ps = PrincipalSeries(lam, parity)
    for v in basis_window(ps, bound):
        assert diagonal_sign(v, ps) is form_diagonal(v, ps).sign


def test_table_leaves_equality_hash_and_repr_alone():
    used = PrincipalSeries(Fraction(5, 3), Parity.ODD)
    verify_conjecture(used, 10)
    fresh = PrincipalSeries(Fraction(5, 3), Parity.ODD)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert "_diagonal_table" in vars(used) and "_diagonal_table" not in vars(fresh)


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_window_sweeps_cost_one_step_per_index(monkeypatch):
    steps = _Counter(forms.continuation_ratio)
    magnitudes = _Counter(forms.reference_magnitude)
    monkeypatch.setattr(forms, "continuation_ratio", steps)
    monkeypatch.setattr(forms, "reference_magnitude", magnitudes)
    ps = PrincipalSeries(Fraction(1, 2), Parity.EVEN)
    bound = 60
    window = basis_window(ps, bound)
    verify_conjecture(ps, bound)
    invariance_check(ps, bound)
    for v in window:
        form_diagonal(v, ps)
        gR_form_diagonal(v, ps)
    assert steps.calls == bound  # one step per |n| past the reference
    assert magnitudes.calls == 1


def test_verdict_signs_build_no_float():
    # the ratios here exceed the float range; verdicts read exact signs only
    assert verify_conjecture(PrincipalSeries(Fraction(1021), Parity.ODD), 600).verdict
    assert jantzen_crossing(Fraction(1021), Parity.EVEN, Fraction(1, 4), 600).verdict


def test_concurrent_queries_agree_with_reference():
    ps = PrincipalSeries(Fraction(9, 5), Parity.EVEN)
    indices = [2 * n for n in range(-80, 81)]
    orders = [indices, indices[::-1], indices[::2] + indices[1::2],
              sorted(indices, key=abs), sorted(indices, key=lambda t: -abs(t))] * 2
    results = [None] * len(orders)

    def worker(i):
        results[i] = {t: table_ratio(ps, t) for t in orders[i]}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    expected = {t: reference_walk(t, ps.lam, 0) for t in indices}
    assert all(r == expected for r in results)
