import importlib.machinery
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import su11hodge
from su11hodge import exact
from su11hodge.cli import ORACLE_GRID
from su11hodge.exact import (
    HalfInt,
    Sign,
    beta_value,
    parse_rational,
    quadrature_integral,
)


def rel_err(x: float, y: float) -> float:
    return abs(x - y) / abs(y)


# ---------------------------------------------------------------------------
# beta_value

def test_beta_one_one():
    assert beta_value(1, 1) == pytest.approx(1.0, rel=1e-12)


def test_beta_half_integer_against_quadrature_oracle():
    # independent oracle: numerical quadrature of the defining integral
    oracle = quadrature_integral(Fraction(3, 2), 3)
    assert rel_err(beta_value(Fraction(3, 2), Fraction(3, 2)), oracle) <= 1e-9
    assert beta_value(Fraction(3, 2), Fraction(3, 2)) == pytest.approx(math.pi / 8, rel=1e-12)


def test_beta_factorial_identity():
    # B(2,3) = 1! 2! / 4!
    expected = math.factorial(1) * math.factorial(2) / math.factorial(4)
    assert expected == 1 / 12
    assert beta_value(2, 3) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 2), (Fraction(-1, 2), 1)])
def test_beta_rejects_nonpositive(a, b):
    assert beta_value(a, b) is None


# ---------------------------------------------------------------------------
# quadrature_integral

def test_quadrature_elementary_antiderivative():
    # int_0^inf (1+u)^-2 du = 1
    assert quadrature_integral(1, 2) == pytest.approx(1.0, rel=1e-9)


def test_quadrature_matches_beta_at_three_halves():
    assert rel_err(quadrature_integral(Fraction(3, 2), 3), math.pi / 8) <= 1e-9


def test_quadrature_divergent_harmonic_tail():
    assert quadrature_integral(1, 1) is None


@pytest.mark.parametrize(
    "s,t", [(0, 2), (Fraction(-1, 2), 1), (2, 2), (3, 2), (Fraction(5, 2), Fraction(5, 2))]
)
def test_quadrature_divergence_decided_exactly(s, t):
    assert quadrature_integral(s, t) is None


@given(st.fractions(-3, 5), st.fractions(-3, 5))
def test_backends_share_the_divergence_contract(s, t):
    # both evaluate int_0^inf u^(s-1) (1+u)^(-t) du; divergence is decided
    # on exact rationals before any float is formed, so no quad call here
    divergent = not 0 < s < t
    assert (beta_value(s, t - s) is None) is divergent
    if divergent:
        assert quadrature_integral(s, t) is None


def _quad_halves(s, t):
    # the same two halves through scipy's public quad, with the warnings it raised
    from scipy.integrate import quad

    total = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for a in (float(s), float(t - s)):
            total += quad(lambda u: u ** (a - 1.0) * (1.0 + u) ** (-float(t)), 0.0, 1.0,
                          epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return total, [w.category for w in caught]


def _recorded(s, t):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = quadrature_integral(s, t)
    return value, [w.category for w in caught]


def _with_oracle_grid(test):
    for s, t in ORACLE_GRID:
        test = example(s + 1, t - s)(example(s, t - s)(test))
    return test


@_with_oracle_grid
@settings(deadline=None)  # the first example imports scipy.integrate for quad
@given(st.fractions(0, 8, max_denominator=64).filter(bool),
       st.fractions(0, 40, max_denominator=64).filter(bool))
def test_quadrature_is_bit_identical_to_quad(s, d):
    # QUADPACK is called directly with quad's own arguments: the same float,
    # and quad's IntegrationWarning wherever quad raises one
    assert _recorded(s, s + d) == _quad_halves(s, s + d)


@pytest.fixture
def fresh_loader():
    exact._qagse.cache_clear()
    yield
    exact._qagse.cache_clear()


def test_quadrature_falls_back_to_quad_when_quadpack_reports_trouble(monkeypatch, fresh_loader):
    from scipy.integrate import IntegrationWarning

    quadpack = sys.modules["scipy.integrate._quadpack"]
    real = quadpack._qagse

    def troubled(*args):
        value, error, _ = real(*args)
        return value, error, 2  # QUADPACK's "roundoff error detected"

    monkeypatch.setattr(quadpack, "_qagse", troubled)
    with pytest.warns(IntegrationWarning):
        value = quadrature_integral(Fraction(3, 2), 3)
    assert (value, [IntegrationWarning] * 2) == _quad_halves(Fraction(3, 2), 3)


def test_quadrature_falls_back_to_quad_without_the_extension(monkeypatch, fresh_loader):
    import scipy.integrate  # noqa: F401  (quad's own copy of the extension stays loaded)

    monkeypatch.delitem(sys.modules, "scipy.integrate._quadpack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, *args, **kwargs: None))
    assert exact._qagse() is None
    assert _recorded(Fraction(3, 2), 3) == _quad_halves(Fraction(3, 2), 3)


GRID = [
    (s, s + d)
    for s in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
              Fraction(5, 2), Fraction(13, 4))
    for d in (Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(9, 4), Fraction(4))
]


@pytest.mark.parametrize("s,t", GRID)
def test_quadrature_agrees_with_beta_on_grid(s, t):
    assert rel_err(quadrature_integral(s, t), beta_value(s, t - s)) <= 1e-8


@pytest.mark.parametrize("s,t", GRID)
def test_integration_by_parts_identity(s, t):
    # s * I(s, t) = t * I(s+1, t+1)
    lhs = float(s) * quadrature_integral(s, t)
    rhs = float(t) * quadrature_integral(s + 1, t + 1)
    assert rel_err(lhs, rhs) <= 1e-8


@pytest.mark.parametrize("s,t", GRID)
def test_substitution_symmetry(s, t):
    assert rel_err(quadrature_integral(s, t), quadrature_integral(t - s, t)) <= 1e-8


# ---------------------------------------------------------------------------
# rationals

def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 1/3 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "0.25", "three", "1/2/3", "1/0", "", "1e-3",
                                 "1 / 2", "+3", "1/-2", "\u0661/\u0662", "\uff13"])
def test_parse_rational_rejects_floats_and_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["1_0", "1/2_0", "-1_000/3"])
def test_parse_rational_rejects_digit_group_underscores(bad):
    # int() reads "1_0" as 10; the exact syntax is only "p" or "p/q"
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.integers(), st.integers().filter(lambda q: q != 0))
def test_rational_normal_form(p, q):
    x = Fraction(p, q)
    assert x.denominator > 0
    assert math.gcd(x.numerator, x.denominator) == 1
    assert Fraction(x.numerator, x.denominator) == x


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_total_order_and_exact_arithmetic(a, b, c):
    assert (a < b) or (a == b) or (a > b)
    if a < b:
        assert a + c < b + c
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def test_rational_invert_zero_is_error():
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)


# ---------------------------------------------------------------------------
# half integers

def test_halfint_round_trip_and_parity():
    n = HalfInt.of(Fraction(3, 2))
    assert n.twice == 3
    assert not n.is_integer
    assert n.as_fraction == Fraction(3, 2)
    assert HalfInt.of(2).is_integer
    assert HalfInt.of(n) is n


def test_halfint_rejects_thirds():
    with pytest.raises(ValueError):
        HalfInt.of(Fraction(1, 3))


def test_halfint_arithmetic_and_order():
    n = HalfInt.of(Fraction(1, 2))
    assert (n + 1).as_fraction == Fraction(3, 2)
    assert (n - 2).as_fraction == Fraction(-3, 2)
    assert (-n).twice == -1
    assert abs(HalfInt(-5)) == HalfInt(5)
    assert HalfInt(1) < HalfInt(2) < HalfInt(4)


def test_halfint_str():
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt(-3)) == "-3/2"


@given(st.integers(min_value=-200, max_value=200))
def test_halfint_fraction_round_trip(tw):
    n = HalfInt(tw)
    assert HalfInt.of(n.as_fraction) == n


# ---------------------------------------------------------------------------
# signs

def test_sign_of():
    assert Sign.of(Fraction(3, 7)) is Sign.POSITIVE
    assert Sign.of(-2) is Sign.NEGATIVE
    assert Sign.of(0) is Sign.ZERO
    assert Sign.of(None) is Sign.POLE  # no finite value


@given(st.one_of(st.fractions(), st.integers(), st.booleans()))
def test_sign_of_agrees_with_comparison(x):
    # Sign.of reads the numerator; the sign is the value's own
    assert Sign.of(x) is (Sign.POSITIVE if x > 0 else Sign.NEGATIVE if x < 0 else Sign.ZERO)
    assert Sign.of(Fraction(x)) is Sign.of(x)


def test_sign_of_refuses_a_float():
    for x in (0.5, -2.0, 0.0, float("nan")):
        with pytest.raises(TypeError):
            Sign.of(x)


@pytest.mark.parametrize("call,good", [
    (lambda x: su11hodge.PrincipalSeries(x, su11hodge.Parity.EVEN), Fraction(1, 10)),
    (lambda x: su11hodge.is_reduction_point(x, su11hodge.Parity.EVEN), Fraction(1, 2)),
    (lambda x: su11hodge.classify(x, su11hodge.Parity.EVEN), Fraction(1, 2)),
    (lambda x: su11hodge.jantzen_crossing(x, su11hodge.Parity.EVEN, Fraction(1, 4), 2), 3),
    (lambda x: su11hodge.jantzen_crossing(3, su11hodge.Parity.EVEN, x, 2), Fraction(1, 4)),
    (lambda x: su11hodge.continuation_ratio(0, x), Fraction(1, 2)),
    (HalfInt.of, Fraction(1, 2)),
    (lambda x: quadrature_integral(x, 3), Fraction(1, 2)),
    (lambda x: quadrature_integral(Fraction(1, 2), x), 3),
    (lambda x: beta_value(x, 1), Fraction(1, 2)),
    (lambda x: beta_value(Fraction(1, 2), x), 3),
], ids=["PrincipalSeries", "is_reduction_point", "classify", "jantzen_lambda0",
        "jantzen_epsilon", "continuation_ratio", "HalfInt.of", "quadrature_s", "quadrature_t",
        "beta_a", "beta_b"])
def test_the_library_refuses_floats_and_strings(call, good):
    # 0.1 would enter as 3602879701896397/36028797018963968; parse_rational
    # is the one reader of text; True == 1, but PrincipalSeries(True, .)
    # would print and compare as a bool
    call(good)
    for x in (float(good), str(good), True, False):
        with pytest.raises(TypeError, match="not an exact rational"):
            call(x)


def test_sign_negation():
    assert -Sign.POSITIVE is Sign.NEGATIVE
    assert -Sign.NEGATIVE is Sign.POSITIVE
    assert -Sign.ZERO is Sign.ZERO
    assert -Sign.POLE is Sign.POLE


_FRESH_ORACLE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import su11hodge, su11hodge.cli
imported = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = su11hodge.cli.main(["oracle"])
heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.linalg"]
loaded = [name for name in heavy if name in sys.modules]
registered = "scipy.integrate._quadpack" in sys.modules
from scipy.integrate import quad  # reuses the extension the oracle loaded
shared = quad.__globals__["_quadpack"]._qagse is su11hodge.exact._qagse()
print(json.dumps([imported, code, loaded, registered, shared]))
"""


def test_import_does_not_load_scipy():
    # scipy is needed only by the quadrature cross-checks, which load its
    # QUADPACK extension alone on first use; a fresh interpreter shows what
    # a CLI call pays for, and that quad later calls the same extension
    src = str(Path(su11hodge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FRESH_ORACLE, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == [False, 0, [], True, True]


_FRESH_ATTRIBUTE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from su11hodge.exact import quadrature_integral
first = quadrature_integral(1, 2)  # loads the extension alone
import scipy.integrate
registered = sys.modules["scipy.integrate._quadpack"]
again = quadrature_integral(1, 2)  # a later quadrature binds the package attribute
print(json.dumps([first == again, scipy.integrate._quadpack is registered]))
"""


def test_later_quadrature_binds_the_quadpack_attribute():
    # the extension is loaded before scipy.integrate, which then reuses it
    # without setting scipy.integrate._quadpack; the next quadrature sets it
    src = str(Path(su11hodge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FRESH_ATTRIBUTE, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == [True, True]
