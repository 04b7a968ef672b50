import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su11hodge import modules
from su11hodge.exact import HalfInt, Sign
from su11hodge.filtrations import hodge_level
from su11hodge.forms import diagonal_sign, form_diagonal
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
    belongs,
    bracket_check,
    constituents,
    h_weight,
    is_reduction_point,
    reference_index,
    theta_check,
    theta_sign,
)

E, H, F = Generator.E_PLUS, Generator.H, Generator.E_MINUS


def PS(lam, parity=Parity.EVEN):
    return PrincipalSeries(Fraction(lam), parity)


def v(n):
    return BasisVector.at(Fraction(n))


# a representative sweep: irreducible series of both parities, point modules,
# and finite-dimensional submodules
def sweep_specs():
    specs = []
    for k in range(1, 20):
        lam = Fraction(k, 4)
        for parity in Parity:
            if not is_reduction_point(lam, parity):
                specs.append(PrincipalSeries(lam, parity))
    for m in range(5):
        specs.append(PointModule(m, Orbit.AT_ZERO))
        specs.append(PointModule(m, Orbit.AT_INFINITY))
    for lam0, parity in [(1, Parity.EVEN), (2, Parity.ODD), (3, Parity.EVEN),
                         (4, Parity.ODD), (5, Parity.EVEN)]:
        specs.append(W1Sub(PS(lam0, parity)))
    return specs


# ---------------------------------------------------------------------------
# construction and membership

def test_principal_series_validation():
    with pytest.raises(ValueError):
        PS(-1)
    assert PS(3).mu == 1
    assert PS(Fraction(1, 2)).mu == Fraction(-1, 4)


def test_reducibility_criterion():
    assert PS(3, Parity.EVEN).reducible
    assert not PS(2, Parity.EVEN).reducible
    assert PS(2, Parity.ODD).reducible
    assert PS(0, Parity.ODD).reducible
    assert not PS(0, Parity.EVEN).reducible
    assert not PS(Fraction(1, 2), Parity.EVEN).reducible


def test_point_module_validation():
    with pytest.raises(ValueError):
        PointModule(-1, Orbit.AT_ZERO)
    assert PointModule(0, Orbit.AT_INFINITY).codim == 1


@pytest.mark.parametrize("m", [True, False, 1.0, Fraction(1)], ids=repr)
def test_point_module_twist_must_be_an_int(m):
    # True == 1, but a bool twist would print and serialise as a bool
    with pytest.raises(ValueError, match=f"integer >= 0, got {m}"):
        PointModule(m, Orbit.AT_ZERO)


@pytest.mark.parametrize("make", [
    lambda: PointModule(2, "0"),  # would act as the module at infinity
    lambda: PointModule(2, "inf"),
    lambda: is_reduction_point(3, "even"),  # would answer False
    lambda: PS(Fraction(1, 2), "even"),  # would fail later, reading the parity
    lambda: PS(3, Parity.EVEN.value),
], ids=["point at '0'", "point at 'inf'", "reduction point 'even'", "series 'even'",
        "series at a reduction point"])
def test_a_parity_or_orbit_must_be_its_enum(make):
    with pytest.raises(TypeError, match="not a member of (Parity|Orbit)"):
        make()


def test_w1sub_validation():
    with pytest.raises(ValueError):
        W1Sub(PS(2, Parity.EVEN))  # irreducible
    with pytest.raises(ValueError):
        W1Sub(PS(0, Parity.ODD))  # no sections
    w = W1Sub(PS(3, Parity.EVEN))
    assert w.dim == 3 and w.max_abs_twice == 2


def test_membership():
    assert belongs(v(2), PS(2, Parity.EVEN))
    assert not belongs(v(Fraction(1, 2)), PS(2, Parity.EVEN))
    assert belongs(v(Fraction(1, 2)), PS(2, Parity.ODD))
    w1 = W1Sub(PS(3, Parity.EVEN))
    assert belongs(v(1), w1) and not belongs(v(2), w1)
    pm = PointModule(1, Orbit.AT_ZERO)
    assert belongs(v(0), pm) and not belongs(v(-1), pm)
    with pytest.raises(ValueError):
        act(E, v(2), w1)


# ---------------------------------------------------------------------------
# the action

def test_action_examples():
    assert act(E, v(1), PS(3)) == {v(0): -2}
    assert act(F, v(1), PS(3)) == {}  # top of the 3-dim submodule
    assert act(H, v(2), PS(2)) == {v(2): -4}
    assert act(F, v(2), PointModule(2, Orbit.AT_ZERO)) == {v(1): 8}


def test_point_action_at_zero():
    pm = PointModule(3, Orbit.AT_ZERO)
    assert act(E, v(2), pm) == {v(3): -1}
    assert act(H, v(2), pm) == {v(2): 2 * 2 + 3 + 1}
    assert act(F, v(0), pm) == {}


def test_point_action_at_infinity_is_swapped():
    for m in range(4):
        at0 = PointModule(m, Orbit.AT_ZERO)
        atinf = PointModule(m, Orbit.AT_INFINITY)
        for k in range(8):
            assert act(E, v(k), atinf) == act(F, v(k), at0)
            assert act(F, v(k), atinf) == act(E, v(k), at0)
            assert act(H, v(k), atinf) == {u: -c for u, c in act(H, v(k), at0).items()}
            assert h_weight(v(k), atinf) == -h_weight(v(k), at0)


def test_odd_parity_action():
    ps = PS(Fraction(1, 2), Parity.ODD)  # mu = -1/4
    got = act(E, v(Fraction(1, 2)), ps)
    assert got == {v(Fraction(-1, 2)): -(Fraction(1, 2) + Fraction(-1, 4))}


@pytest.mark.parametrize("spec", sweep_specs(), ids=str)
def test_bracket_relations(spec):
    assert bracket_check(spec, 8).ok


# ---------------------------------------------------------------------------
# theta

def test_theta_examples():
    assert theta_sign(v(0), PS(2)) == 1
    assert theta_sign(v(3), PS(2)) == -1
    ps_odd = PS(Fraction(1, 2), Parity.ODD)
    assert theta_sign(v(Fraction(-1, 2)), ps_odd) == -1
    assert theta_sign(v(Fraction(1, 2)), ps_odd) == 1


def test_theta_point_normalization():
    pm = PointModule(2, Orbit.AT_INFINITY)
    assert theta_sign(v(0), pm) == 1
    assert theta_sign(v(3), pm) == -1


@pytest.mark.parametrize("spec", sweep_specs(), ids=str)
def test_theta_involution_and_intertwining(spec):
    assert theta_check(spec, 8).ok


# ---------------------------------------------------------------------------
# constituents

def test_constituents_reducible():
    got = constituents(PS(3, Parity.EVEN))
    assert got == [
        W1Sub(PS(3, Parity.EVEN)),
        PointModule(3, Orbit.AT_ZERO),
        PointModule(3, Orbit.AT_INFINITY),
    ]
    assert got[0].dim == 3


def test_constituents_irreducible():
    ps = PS(Fraction(1, 2), Parity.EVEN)
    assert constituents(ps) == [ps]


def test_constituents_lambda_zero_odd():
    got = constituents(PS(0, Parity.ODD))
    assert got == [PointModule(0, Orbit.AT_ZERO), PointModule(0, Orbit.AT_INFINITY)]
    # h-weight multisets: the full odd series vs the two point modules
    ps = PS(0, Parity.ODD)
    cutoff = 21
    series = sorted(
        w for w in (h_weight(u, ps) for u in basis_window(ps, 30)) if abs(w) <= cutoff
    )
    points = sorted(
        h_weight(u, pm)
        for pm in got
        for u in basis_window(pm, 30)
        if abs(h_weight(u, pm)) <= cutoff
    )
    assert series == points


# ---------------------------------------------------------------------------
# windows and weights

def test_basis_window_examples():
    assert basis_window(PS(2), 2) == [v(-2), v(-1), v(0), v(1), v(2)]
    assert basis_window(W1Sub(PS(3)), 10) == [v(-1), v(0), v(1)]
    assert basis_window(PointModule(2, Orbit.AT_ZERO), 3) == [v(0), v(1), v(2), v(3)]


def test_basis_window_odd_parity():
    got = basis_window(PS(1, Parity.ODD), 2)
    assert got == [v(Fraction(-3, 2)), v(Fraction(-1, 2)), v(Fraction(1, 2)), v(Fraction(3, 2))]


def test_generators_are_dict_and_set_keys():
    names = {gen: gen.value for gen in Generator}
    assert [names[gen] for gen in (E, H, F)] == ["e+", "h", "e-"]
    assert {E, H, F, H} == set(Generator) and len({E, E}) == 1
    for gen in Generator:
        copy = pickle.loads(pickle.dumps(gen))
        assert copy is gen and names[copy] == gen.value and copy in set(Generator)
        assert Generator(gen.value) is gen and hash(Generator[gen.name]) == hash(gen)


def test_windows_share_their_vectors_and_stay_exact_past_the_memo():
    first, again = basis_window(PS(2), 12), basis_window(PS(Fraction(7, 3)), 12)
    assert all(u is w for u, w in zip(first, again))
    assert first == [BasisVector(HalfInt(2 * n)) for n in range(-12, 13)]
    # 4201 indices: more than the memo holds, so those outside it are built fresh
    wide = basis_window(PS(2), 2100)
    assert [u.index.twice for u in wide] == list(range(-4200, 4201, 2))
    assert basis_window(PS(2), 2100) == wide and len(set(wide)) == 4201


def test_a_wide_window_evicts_no_shared_vector():
    modules._shared_vector.cache_clear()
    small = basis_window(PS(2), 12)
    before = modules._shared_vector.cache_info()
    wide = basis_window(PS(2), 5000)
    after = modules._shared_vector.cache_info()
    # only the 2048 central indices -2048 <= 2n < 2048 of the window ask the memo,
    # and it holds those alone
    assert after.hits + after.misses - before.hits - before.misses == 2048
    assert after.currsize == 2048
    assert [u.index.twice for u in wide] == list(range(-10000, 10001, 2))
    assert all(u is w for u, w in zip(basis_window(PS(2), 12), small))


def test_the_action_lands_on_the_shared_window_vectors():
    # act builds its target through the one entry point to the vector cache
    for spec in (PS(Fraction(7, 3)), PS(Fraction(1, 2), Parity.ODD),
                 PointModule(2, Orbit.AT_ZERO), W1Sub(PS(5))):
        window = basis_window(spec, 12)
        shared = {u.index.twice: u for u in window}
        for u in window[1:-1]:
            for gen in Generator:
                assert all(target is shared[target.index.twice]
                           for target in act(gen, u, spec))


def test_basis_window_rejects_negative_bound():
    with pytest.raises(ValueError):
        basis_window(PS(2), -1)


@pytest.mark.parametrize(
    "lam0,parity",
    [(1, Parity.EVEN), (2, Parity.ODD), (3, Parity.EVEN), (4, Parity.ODD), (5, Parity.EVEN)],
)
def test_w1_action_stability(lam0, parity):
    w1 = W1Sub(PrincipalSeries(Fraction(lam0), parity))
    members = set(basis_window(w1, lam0 + 2))
    assert len(members) == lam0
    for u in members:
        for gen in Generator:
            for x, c in act(gen, u, w1).items():
                assert x in members and c != 0


def test_h_weight_principal_series():
    assert h_weight(v(2), PS(2)) == -4
    assert h_weight(v(Fraction(-1, 2)), PS(1, Parity.ODD)) == 1


# ---------------------------------------------------------------------------
# the checks report what fails, one line per broken relation

def test_bracket_check_reports_failures(monkeypatch):
    # a non-linear index map k -> k^2 inside the coefficients, with the
    # shifts kept, breaks [h,e+] and [e+,e-] on a point module
    exact = modules._step

    def squared(spec, gen, twice):
        k = twice // 2
        return (*exact(spec, gen, 2 * k * k)[:2], exact(spec, gen, twice)[2])

    monkeypatch.setattr(modules, "_step", squared)
    report = bracket_check(PointModule(1, Orbit.AT_ZERO), 3)
    assert not report.ok
    assert report.failures == (
        "[h,e+] != 2 e+ at v[1]", "[e+,e-] != h at v[1]",
        "[h,e+] != 2 e+ at v[2]", "[h,e-] != -2 e- at v[2]", "[e+,e-] != h at v[2]",
        "[h,e+] != 2 e+ at v[3]", "[h,e-] != -2 e- at v[3]", "[e+,e-] != h at v[3]",
    )


def test_theta_check_reports_failures(monkeypatch):
    monkeypatch.setattr(modules, "theta_sign", lambda u, spec: 1)
    report = theta_check(PS(Fraction(1, 2), Parity.ODD), 2)
    assert not report.ok
    assert report.failures == tuple(
        f"theta {g} theta != -{g} at v[{n}]"
        for n in ("-3/2", "-1/2", "1/2", "3/2") for g in ("e+", "e-")
    )


# ---------------------------------------------------------------------------
# the lattice and the coefficients each spec carries

def w1_of_dim(dim: int) -> W1Sub:
    return W1Sub(PS(dim, Parity.EVEN if dim % 2 else Parity.ODD))


lattice_specs = st.one_of(
    st.builds(PrincipalSeries, st.fractions(min_value=0, max_value=12, max_denominator=7),
              st.sampled_from(Parity)),
    st.builds(PointModule, st.integers(0, 8), st.sampled_from(Orbit)),
    st.integers(1, 12).map(w1_of_dim),
)


@settings(max_examples=200, deadline=None)
@given(lattice_specs, st.integers(0, 40))
def test_window_is_the_members_within_the_bound(spec, bound):
    expected = sorted(BasisVector(HalfInt(tw)) for tw in range(-2 * bound, 2 * bound + 1)
                      if belongs(BasisVector(HalfInt(tw)), spec))
    assert basis_window(spec, bound) == expected
    assert belongs(BasisVector(reference_index(spec)), spec)


rational_lams = st.sampled_from(list(range(1, 10)) + [1009]).flatmap(
    lambda q: st.integers(0, 400 * q).map(lambda p: Fraction(p, q)))
step_specs = st.one_of(
    st.builds(PrincipalSeries, rational_lams, st.sampled_from(Parity)),
    st.integers(1, 400).map(w1_of_dim),
    st.builds(PointModule, st.integers(0, 400), st.sampled_from(Orbit)),
)


def docstring_step(gen, n: Fraction, spec):
    """(c0 + c1 n + c2 n^2, shift) by the formulas of the modules docstring, in Fraction."""
    if isinstance(spec, PointModule):
        m = spec.m
        up, down, h = (Fraction(-1), 1), (n * (n + m), -1), 2 * n + m + 1
        if spec.orbit is Orbit.AT_ZERO:
            return {E: up, H: (h, 0), F: down}[gen]
        return {E: down, H: (-h, 0), F: up}[gen]
    mu = (spec.base.lam - 1) / 2
    return {E: (-(n + mu), -1), H: (-2 * n, 0), F: (n - mu, 1)}[gen]


@settings(max_examples=200, deadline=None)
@given(step_specs, st.integers(0, 300))
def test_step_matches_the_docstring_formulas(spec, j):
    members = basis_window(spec, j + 1)
    for u in {members[0], members[len(members) // 2], members[-1]}:
        for gen in Generator:
            n, d, shift = modules._step(spec, gen, u.index.twice)
            assert all(type(x) is int for x in (n, d, shift)) and d > 0
            assert (Fraction(n, d), shift) == docstring_step(gen, u.index.as_fraction, spec)


@pytest.mark.parametrize("dim", range(1, 13))
def test_w1_reads_every_fact_but_the_lattice_from_its_base(dim):
    w1 = w1_of_dim(dim)
    assert w1.base.reducible and not w1.reducible
    members = basis_window(w1, dim)
    assert len(members) == dim
    for u in members:
        for gen in Generator:
            assert modules._step(w1, gen, u.index.twice) == modules._step(w1.base, gen,
                                                                           u.index.twice)
        assert hodge_level(u, w1) == hodge_level(u, w1.base)
        # the ambient value is a pole at a reduction point; the W1's value is not
        assert diagonal_sign(u, w1) is form_diagonal(u, w1).sign is not Sign.POLE
