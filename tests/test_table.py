"""The per-module diagonal table against an independent step-by-step product."""

import dataclasses
import gc
import pickle
import sys
import threading
import weakref
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from su11hodge import forms, modules
from su11hodge.analysis import classify, definiteness, jantzen_crossing, verify_conjecture
from su11hodge.exact import HalfInt, Sign
from su11hodge.filtrations import hodge_level
from su11hodge.forms import (
    diagonal_sign,
    form_diagonal,
    gR_form_diagonal,
    invariance_check,
    point_diagonal_value,
)
from su11hodge.modules import (
    BasisVector,
    Generator,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    bracket_check,
    constituents,
    theta_check,
    theta_sign,
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


def table_key(spec):
    """The registry key of the spec's table: its step polynomials and reference 2 n0.

    A test that asserts a key is absent also asserts, while a spec of it is
    alive, that this is the key its table is registered under.
    """
    return spec.step, spec.lattice[0]


def table_ratio(spec, twice: int):
    return form_diagonal(BasisVector(HalfInt(twice)), spec).ratio_to_reference


ZERO_ODD = PrincipalSeries(Fraction(0), Parity.ODD)


def check_entry(ps, twice: int):
    """The table entry, ratio and sign, at twice/2 against the two-sided reference walk.

    A reducible series has no table: the closed-form sign, the public sign
    and the form value are a pole at every index.
    """
    v = BasisVector(HalfInt(twice))
    if ps.reducible:
        assert forms._signs(ps)(twice) is diagonal_sign(v, ps) is Sign.POLE
        assert form_diagonal(v, ps).sign is Sign.POLE
    else:
        expected = reference_walk(twice, ps.lam, ps.parity.twice_residue)
        assert table_ratio(ps, twice) == expected
        sign = forms._signs(ps)(twice)
        assert sign is Sign.of(expected)
        assert diagonal_sign(v, ps) is sign


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
    # PS(3, even): the W1 ends one step before the zero step n = 1 -> 2
    ps = PrincipalSeries(Fraction(3), Parity.EVEN)
    assert [table_ratio(W1Sub(ps), 2 * n) for n in (-1, 0, 1)] == [2, 1, 2]
    # every public value is a pole on PS(3, even) and on PS(0, odd), where
    # the reference walk takes the 0/0 step at n = -1/2
    for spec in (ps, ZERO_ODD):
        assert all(diagonal_sign(v, spec) is form_diagonal(v, spec).sign is Sign.POLE
                   for v in basis_window(spec, 3))


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


denominators = st.sampled_from(list(range(1, 10)) + [1009])
wide_lams = denominators.flatmap(
    lambda q: st.integers(0, 400 * q).map(lambda p: Fraction(p, q)))


def reducible_parity(lam0: int) -> Parity:
    return Parity.EVEN if lam0 % 2 else Parity.ODD


sign_specs = st.one_of(
    st.builds(PrincipalSeries, wide_lams, parities),
    st.integers(0, 400).map(lambda k: PrincipalSeries(Fraction(k), reducible_parity(k))),
    st.integers(1, 400).map(lambda k: W1Sub(PrincipalSeries(Fraction(k), reducible_parity(k)))),
    st.builds(PointModule, st.integers(0, 400), st.sampled_from(Orbit)),
)


@st.composite
def specs_with_bounds(draw):
    """A module and a window reaching a few steps past its convergence strip."""
    spec = draw(sign_specs)
    edge = 0 if isinstance(spec, PointModule) else int(spec.base.lam) // 2
    return spec, draw(st.integers(0, edge + 4))


@settings(max_examples=60, deadline=None)
@given(specs_with_bounds())
def test_diagonal_sign_matches_form_values(spec_bound):
    spec, bound = spec_bound
    window = basis_window(spec, bound)
    signs = [diagonal_sign(v, spec) for v in window]  # the closed-form signs first
    assert signs == [form_diagonal(v, spec).sign for v in window]


def test_table_leaves_equality_hash_and_repr_alone():
    used = PrincipalSeries(Fraction(5, 3), Parity.ODD)
    for v in basis_window(used, 10):
        form_diagonal(v, used)
    fresh = PrincipalSeries(Fraction(5, 3), Parity.ODD)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert "_diagonal_table" in vars(used) and "_diagonal_table" not in vars(fresh)


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def fresh_table(spec):
    """The spec's table, asserted unused: no values and no negations.

    Equal specs share one table, so a count is only true on a module value
    that no other live spec has used.
    """
    table = forms._table(spec)
    assert not table.values and not table.negated
    return table


def count_forms(monkeypatch):
    """Counters on the diagonal steps, reference magnitudes and built values."""
    counters = []
    for name in ("_diagonal_step", "reference_magnitude", "FormValue"):
        counters.append(_Counter(getattr(forms, name)))
        monkeypatch.setattr(forms, name, counters[-1])
    return counters


def invariance_reads(steps, spec, bound):
    """The diagonal steps one passing ``invariance_check`` reads, apart from any walk:
    none, as it decides on the step polynomials."""
    before = steps.calls
    assert invariance_check(spec, bound).ok
    return steps.calls - before


def test_window_sweeps_cost_one_step_per_index(monkeypatch):
    steps, magnitudes, built = count_forms(monkeypatch)
    ps = PrincipalSeries(Fraction(5, 11), Parity.EVEN)  # kept alive by no other test
    fresh_table(ps)
    bound = 60
    window = basis_window(ps, bound)
    verify_conjecture(ps, bound)
    # invariance reads no step, at any bound, and walks nothing
    reads = invariance_reads(steps, ps, bound)
    assert reads == invariance_reads(steps, ps, 10 * bound) == 0
    compact, noncompact = {}, {}
    for v in window:
        compact.setdefault(abs(v.index.twice), []).append(form_diagonal(v, ps))
        noncompact.setdefault(abs(v.index.twice), []).append(gR_form_diagonal(v, ps))
        if theta_sign(v, ps) == 1:
            assert noncompact[abs(v.index.twice)][-1] is compact[abs(v.index.twice)][0]
    assert steps.calls - 2 * reads == bound  # the walk: one step per |n| past the reference
    assert magnitudes.calls == 1
    # one value per |n|, read back for -n and by gR_form_diagonal, which
    # builds its negation once per |n| where theta is -1
    negations = len({abs(v.index.twice) for v in window if theta_sign(v, ps) == -1})
    assert built.calls == bound + 1 + negations
    for values in (*compact.values(), *noncompact.values()):
        assert all(value is values[0] for value in values)
    verify_conjecture(ps, bound)
    for v in window:
        gR_form_diagonal(v, ps)
    assert built.calls == bound + 1 + negations  # verdicts and rereads build no value


def test_a_ladder_of_fresh_equal_specs_walks_once(monkeypatch):
    # as in a window scan: a fresh equal spec per rung, all alive together
    steps, magnitudes, _ = count_forms(monkeypatch)
    specs, reads = [], []
    for bound in (25, 50, 100, 200):
        ps = PrincipalSeries(Fraction(7, 13), Parity.EVEN)  # kept alive by no other test
        if not specs:
            fresh_table(ps)
        specs.append(ps)
        verify_conjecture(ps, bound)
        for check in (bracket_check, theta_check):
            assert check(ps, bound).ok
        reads.append(invariance_reads(steps, ps, bound))
        for v in basis_window(ps, bound):
            assert form_diagonal(v, ps) is form_diagonal(v, specs[0])
            gR_form_diagonal(v, ps)
            hodge_level(v, ps)
    assert reads == [0] * 4  # decided on the step polynomials at every bound
    # the walk: the largest bound, not 25 + 50 + 100 + 200
    assert steps.calls - sum(reads) == 200
    assert magnitudes.calls == 1
    assert all(forms._table(ps) is forms._table(specs[0]) for ps in specs)


def test_equal_point_modules_share_a_table():
    # P(k) does not depend on the orbit, so both orbits share it too
    for m in (0, 3, 250):
        modules_ = [PointModule(m, orbit) for orbit in (*Orbit, *Orbit)]
        tables = {id(forms._table(pm)) for pm in modules_}
        assert len(tables) == 1
        assert forms._table(PointModule(m + 1, Orbit.AT_ZERO)) is not forms._table(modules_[0])
        for pm in modules_:
            assert [form_diagonal(BasisVector.at(k), pm).ratio_to_reference
                    for k in range(12)] == [point_diagonal_value(m, k) for k in range(12)]
        # theta is (-1)^k at either orbit, so the noncompact values agree too
        assert all(gR_form_diagonal(BasisVector.at(k), modules_[0])
                   == gR_form_diagonal(BasisVector.at(k), modules_[1]) for k in range(12))


def test_distinct_module_values_keep_distinct_tables():
    specs = [PrincipalSeries(Fraction(2), Parity.EVEN), PrincipalSeries(Fraction(2), Parity.ODD),
             PrincipalSeries(Fraction(2, 3), Parity.EVEN), PrincipalSeries(Fraction(3, 2), Parity.EVEN),
             PointModule(2, Orbit.AT_ZERO), PointModule(3, Orbit.AT_ZERO)]
    assert len({id(forms._table(spec)) for spec in specs}) == len(specs)
    # Fraction(4, 6) is Fraction(2, 3): an equal spec, so the same table
    assert forms._table(PrincipalSeries(Fraction(4, 6), Parity.EVEN)) is forms._table(specs[2])


def test_a_table_dies_with_its_last_spec():
    for make in (lambda: PrincipalSeries(Fraction(19, 17), Parity.ODD),
                 lambda: PointModule(1_000_003, Orbit.AT_INFINITY)):
        first, second = make(), make()
        key = table_key(first)
        assert key not in forms._TABLES  # no other test keeps this value alive
        for v in basis_window(first, 8):
            form_diagonal(v, first)
            gR_form_diagonal(v, second)
        assert forms._TABLES[key] is forms._table(first) is forms._table(second)
        table = weakref.ref(forms._TABLES[key])
        spec_ref = weakref.ref(first)
        del first
        gc.collect()
        assert spec_ref() is None
        assert key in forms._TABLES  # the second spec still keeps it
        spec_ref = weakref.ref(second)
        del second
        gc.collect()
        assert spec_ref() is None and table() is None
        assert key not in forms._TABLES


def test_value_memo_holds_no_pole(monkeypatch):
    # a W1 shares its reducible base's table, and so does a fresh equal
    # base: in either query order the base reports poles uncached and the
    # W1 its own values, walking no zero step
    denominators, real = [], forms._diagonal_step

    def step(*args):
        pair = real(*args)
        denominators.append(pair[1])
        return pair

    monkeypatch.setattr(forms, "_diagonal_step", step)
    for lam0 in (1, 2, 5, 8):
        parity = reducible_parity(lam0)
        for base_first, fresh_base in ((True, False), (False, False), (True, True),
                                       (False, True)):
            w1 = W1Sub(PrincipalSeries(Fraction(lam0), parity))
            ps = PrincipalSeries(Fraction(lam0), parity) if fresh_base else w1.base
            assert forms._table(ps) is forms._table(w1)
            for spec in ((ps, w1, ps) if base_first else (w1, ps, w1)):
                for v in basis_window(spec, lam0 + 3):
                    form_diagonal(v, spec)
                    gR_form_diagonal(v, spec)
            fresh = W1Sub(PrincipalSeries(Fraction(lam0), parity))
            for v in basis_window(w1, lam0):
                assert form_diagonal(v, w1) == form_diagonal(v, fresh)
                assert gR_form_diagonal(v, w1) == gR_form_diagonal(v, fresh)
                assert form_diagonal(v, w1).ratio_to_reference == reference_walk(
                    v.index.twice, ps.lam, parity.twice_residue)
            assert all(form_diagonal(v, ps).sign is Sign.POLE
                       and gR_form_diagonal(v, ps).sign is Sign.POLE
                       for v in basis_window(ps, lam0 + 3))
            table = forms._table(ps)
            members = [abs(v.index.twice) for v in basis_window(w1, lam0) if v.index.twice >= 0]
            assert sorted(table.values) == members
            assert set(table.negated) <= set(members)
            for memo in (table.values, table.negated):
                assert all(value.sign is not Sign.POLE for value in memo.values())
    assert denominators and all(denominators)


def test_a_reducible_series_builds_no_table(monkeypatch):
    made = _Counter(forms._shared)
    monkeypatch.setattr(forms, "_shared", made)
    ps = PrincipalSeries(Fraction(47), Parity.EVEN)  # kept alive by no other test
    reference = forms.reference_magnitude(ps)
    for v in basis_window(ps, 30):
        for value in (form_diagonal(v, ps), gR_form_diagonal(v, ps)):
            assert value == forms.FormValue(Sign.POLE, None, None, reference)
    key = table_key(ps)
    assert made.calls == 0 and key not in forms._TABLES
    assert forms._table(ps) is forms._TABLES[key]


def test_a_used_spec_pickles_with_equal_values():
    for spec in (PrincipalSeries(Fraction(9, 5), Parity.ODD), PointModule(3, Orbit.AT_ZERO),
                 W1Sub(PrincipalSeries(Fraction(6), Parity.ODD))):
        window = basis_window(spec, 20)
        compact = [form_diagonal(v, spec) for v in window]
        noncompact = [gR_form_diagonal(v, spec) for v in window]
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert [form_diagonal(v, copy) for v in window] == compact
        assert [gR_form_diagonal(v, copy) for v in window] == noncompact
        # the copy and a fresh equal spec share the live table, so both extend it
        fresh = dataclasses.replace(spec)
        assert forms._table(fresh) is forms._table(spec)
        wider = basis_window(spec, 40)
        assert [form_diagonal(v, copy) for v in wider] == [form_diagonal(v, fresh) for v in wider]
        assert [gR_form_diagonal(v, copy) for v in wider] == \
            [gR_form_diagonal(v, fresh) for v in wider]


def test_an_unpickled_spec_joins_the_shared_table():
    # values no other test keeps alive; a W1 keeps its base's table
    for make in (lambda: PrincipalSeries(Fraction(23, 19), Parity.ODD),
                 lambda: PointModule(1_000_033, Orbit.AT_ZERO),
                 lambda: W1Sub(PrincipalSeries(Fraction(43), Parity.EVEN))):
        spec = make()
        key = table_key(spec)
        assert key not in forms._TABLES
        window = basis_window(spec, 12)
        compact = [form_diagonal(v, spec) for v in window]
        noncompact = [gR_form_diagonal(v, spec) for v in window]
        # a live table: the copy reads it and adds nothing of its own
        copy = pickle.loads(pickle.dumps(spec))
        assert forms._table(copy) is forms._table(spec) is forms._TABLES[key]
        assert [form_diagonal(v, copy) for v in window] == compact
        data = pickle.dumps(spec)
        table = weakref.ref(forms._table(spec))
        del spec, copy
        gc.collect()
        assert table() is None and key not in forms._TABLES
        # no live table: the copy registers its own, which a fresh equal spec shares
        copy = pickle.loads(data)
        assert forms._TABLES[key] is forms._table(copy)
        assert forms._table(make()) is forms._table(copy)
        assert [form_diagonal(v, copy) for v in window] == compact
        assert [gR_form_diagonal(v, copy) for v in window] == noncompact
        del copy
        gc.collect()
        assert key not in forms._TABLES


def test_algebraic_checks_cost_the_same_at_any_bound(monkeypatch):
    steps, diagonal = _Counter(modules._step), _Counter(forms._diagonal_step)
    windows = _Counter(modules.basis_window)
    monkeypatch.setattr(modules, "_step", steps)
    monkeypatch.setattr(forms, "_diagonal_step", diagonal)
    monkeypatch.setattr(modules, "basis_window", windows)
    # a reducible series has the same coefficient polynomials, so its
    # bracket and theta laws are decided the same way, reading no step
    runs = [(check, PrincipalSeries(Fraction(1, 3), Parity.EVEN))
            for check in (bracket_check, theta_check, invariance_check)]
    runs += [(check, PrincipalSeries(lam, parity)) for check in (bracket_check, theta_check)
             for lam, parity in ((Fraction(3), Parity.EVEN), (Fraction(0), Parity.ODD))]
    for check, spec in runs:
        for bound in (0, 10, 10_000):
            assert check(spec, bound).ok
        assert steps.calls == diagonal.calls == windows.calls == 0, (check.__name__, spec)


def test_verdicts_walk_no_ratio(monkeypatch):
    steps = _Counter(forms._diagonal_step)
    monkeypatch.setattr(forms, "_diagonal_step", steps)
    for lam, parity in ((Fraction(1, 2), Parity.EVEN), (Fraction(7, 3), Parity.ODD),
                        (Fraction(5), Parity.EVEN), (Fraction(1009, 1009 * 3 + 1), Parity.ODD)):
        ps = PrincipalSeries(lam, parity)
        for part in constituents(ps):
            verify_conjecture(part, 40)
            definiteness(part, 40)
        classify(lam, parity)
    jantzen_crossing(Fraction(5), Parity.EVEN, Fraction(1, 3), 40)
    assert steps.calls == 0


def test_verdicts_build_no_table(monkeypatch):
    made = _Counter(forms._shared)
    monkeypatch.setattr(forms, "_shared", made)
    # module values kept alive by no other test: PS(29/31, odd), the
    # constituents at 37 (even; a W1 keys as its base) and the two Jantzen
    # samples 37 -/+ 1/5
    values = [PrincipalSeries(Fraction(29, 31), Parity.ODD),
              PrincipalSeries(Fraction(37), Parity.EVEN), PointModule(37, Orbit.AT_ZERO),
              PrincipalSeries(Fraction(184, 5), Parity.EVEN),
              PrincipalSeries(Fraction(186, 5), Parity.EVEN)]
    keys = [table_key(spec) for spec in values]
    assert not any(key in forms._TABLES for key in keys)
    series = PrincipalSeries(Fraction(29, 31), Parity.ODD)
    # alive to the end, so a table made on them would still be registered
    kept = [series, classify(series.lam, series.parity), verify_conjecture(series, 30),
            [diagonal_sign(v, series) for v in basis_window(series, 30)]]
    definiteness(series, 30)
    report = classify(Fraction(37), Parity.EVEN)
    for entry in report.entries:  # W1 and the point modules at 37
        kept.append(verify_conjecture(entry.constituent, 30))
        definiteness(entry.constituent, 30)
    assert jantzen_crossing(Fraction(37), Parity.EVEN, Fraction(1, 5), 30).verdict
    assert made.calls == 0
    assert not any(key in forms._TABLES for key in keys)
    assert all(forms._table(spec) is forms._TABLES[key] for spec, key in zip(values, keys))


def test_a_failing_invariance_check_builds_no_table(monkeypatch):
    # failures are printed from the integer steps that decide them; the
    # module value PS(53/59, odd) is kept alive by no other test
    made = _Counter(forms._shared)
    monkeypatch.setattr(forms, "_shared", made)
    series = PrincipalSeries(Fraction(53, 59), Parity.ODD)
    d, polynomials = series.coefficients
    a0, a1, a2, shift = polynomials[Generator.E_PLUS]  # e+ off by 1 / denominator
    vars(series)["coefficients"] = (d, {**polynomials, Generator.E_PLUS: (a0 + 1, a1, a2, shift)})
    key = table_key(series)
    assert key not in forms._TABLES
    report = invariance_check(series, 6)
    assert not report.ok and len(report.failures) == 2 * 11  # both laws, every neighbor pair
    assert made.calls == 0 and key not in forms._TABLES
    assert forms._table(series) is forms._TABLES[key]


def test_verdict_signs_build_no_float():
    # the ratios here exceed the float range; verdicts read exact signs only
    assert verify_conjecture(PrincipalSeries(Fraction(1021), Parity.ODD), 600).verdict
    assert jantzen_crossing(Fraction(1021), Parity.EVEN, Fraction(1, 4), 600).verdict


def run_threads(worker, count: int) -> None:
    """worker(0) .. worker(count - 1) in threads that switch as often as possible."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def sweep(spec, order, kind):
    query = form_diagonal if kind else gR_form_diagonal
    return {t: query(BasisVector(HalfInt(t)), spec) for t in order}


def test_concurrent_queries_agree_with_reference():
    ps = PrincipalSeries(Fraction(9, 5), Parity.EVEN)
    indices = [2 * n for n in range(-80, 81)]
    orders = [indices, indices[::-1], indices[::2] + indices[1::2],
              sorted(indices, key=abs), sorted(indices, key=lambda t: -abs(t))] * 2
    results = [None] * len(orders)

    def worker(i):
        # sign and ratio queries interleaved, in an order that differs by worker
        found = {}
        for j, t in enumerate(orders[i]):
            queries = [("sign", lambda: diagonal_sign(BasisVector(HalfInt(t)), ps)),
                       ("ratio", lambda: table_ratio(ps, t))]
            for kind, query in (queries if (i + j) % 2 else queries[::-1]):
                found[kind, t] = query()
        results[i] = found

    run_threads(worker, len(orders))
    ratios = {t: reference_walk(t, ps.lam, 0) for t in indices}
    expected = {**{("ratio", t): r for t, r in ratios.items()},
                **{("sign", t): Sign.of(r) for t, r in ratios.items()}}
    assert all(r == expected for r in results)


def test_threads_sharing_a_spec_read_one_value_per_index():
    # concurrent form queries may build a value twice; every caller must
    # still read the single-threaded value, and the one the table keeps
    indices = [2 * n + 1 for n in range(-60, 60)]
    expected = [sweep(PrincipalSeries(Fraction(17, 7), Parity.ODD), indices, kind)
                for kind in (0, 1)]
    ps = PrincipalSeries(Fraction(17, 7), Parity.ODD)
    fresh_table(ps)  # the reference sweeps' specs are gone with their table
    orders = [indices, indices[::-1], sorted(indices, key=abs), indices[1::2] + indices[::2]]
    results = [None] * 8

    def worker(i):
        results[i] = sweep(ps, orders[i % 4], i % 2)

    run_threads(worker, 8)
    assert all(results[i] == expected[i % 2] for i in range(8))
    kept = forms._table(ps).values
    assert sorted(kept) == sorted({abs(t) for t in indices})
    for found in results[1::2]:  # the form_diagonal sweeps
        assert all(value is kept[abs(t)] for t, value in found.items())


def test_a_walk_overtaken_by_another_reads_its_own_index():
    # a concurrent walker may extend the memo past |2n| between the miss
    # and the resume; the walk then reads the entry at |2n|, not the last
    ps = PrincipalSeries(Fraction(31, 37), Parity.ODD)  # kept alive by no other test
    table = fresh_table(ps)

    class Overtaken(dict):
        overtaken = False

        def get(self, twice, default=None):
            if self.overtaken:
                return super().get(twice, default)
            self.overtaken = True
            forms._walk(ps, 21)  # the other walker, out to n = 21/2
            return default

    table.values = Overtaken()
    value = form_diagonal(BasisVector(HalfInt(3)), ps)
    assert value is table.values[3] and len(table.values) == 11
    assert value.ratio_to_reference == reference_walk(3, ps.lam, 1)


def test_threads_building_equal_specs_read_equal_values():
    # each thread builds its own equal spec: they find (or race to create)
    # the shared table, and every value equals a single-threaded one
    lam = Fraction(23, 19)  # kept alive by no other test
    key = table_key(PrincipalSeries(lam, Parity.EVEN))
    indices = [2 * n for n in range(-60, 61)]
    expected = [sweep(PrincipalSeries(lam, Parity.EVEN), indices, kind) for kind in (0, 1)]
    gc.collect()
    assert key not in forms._TABLES  # the reference spec is gone with its table
    orders = [indices, indices[::-1], sorted(indices, key=abs), indices[1::2] + indices[::2]]
    results, specs = [None] * 8, [None] * 8

    def worker(i):
        specs[i] = PrincipalSeries(lam, Parity.EVEN)
        results[i] = sweep(specs[i], orders[i % 4], i % 2)

    run_threads(worker, 8)
    assert all(results[i] == expected[i % 2] for i in range(8))
    assert forms._table(PrincipalSeries(lam, Parity.EVEN)) is forms._TABLES[key]
