import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import su11hodge
from su11hodge.exact import (
    DIVERGENT,
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
    with pytest.raises(ValueError):
        beta_value(a, b)


# ---------------------------------------------------------------------------
# quadrature_integral

def test_quadrature_elementary_antiderivative():
    # int_0^inf (1+u)^-2 du = 1
    assert quadrature_integral(1, 2) == pytest.approx(1.0, rel=1e-9)


def test_quadrature_matches_beta_at_three_halves():
    assert rel_err(quadrature_integral(Fraction(3, 2), 3), math.pi / 8) <= 1e-9


def test_quadrature_divergent_harmonic_tail():
    assert quadrature_integral(1, 1) is DIVERGENT


@pytest.mark.parametrize(
    "s,t", [(0, 2), (Fraction(-1, 2), 1), (2, 2), (3, 2), (Fraction(5, 2), Fraction(5, 2))]
)
def test_quadrature_divergence_decided_exactly(s, t):
    assert quadrature_integral(s, t) is DIVERGENT


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


@pytest.mark.parametrize("bad", ["1.5", "0.25", "three", "1/2/3", "1/0", "", "1e-3"])
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


SIGN_TABLE = {
    (Sign.POSITIVE, Sign.POSITIVE): Sign.POSITIVE,
    (Sign.POSITIVE, Sign.NEGATIVE): Sign.NEGATIVE,
    (Sign.NEGATIVE, Sign.NEGATIVE): Sign.POSITIVE,
    (Sign.POSITIVE, Sign.ZERO): Sign.ZERO,
    (Sign.NEGATIVE, Sign.ZERO): Sign.ZERO,
    (Sign.ZERO, Sign.ZERO): Sign.ZERO,
}


@pytest.mark.parametrize("a", list(Sign))
@pytest.mark.parametrize("b", list(Sign))
def test_sign_multiplication_total(a, b):
    got = a * b
    if Sign.POLE in (a, b):
        assert got is Sign.POLE
    else:
        assert got is SIGN_TABLE.get((a, b)) or got is SIGN_TABLE.get((b, a))


def test_sign_negation():
    assert -Sign.POSITIVE is Sign.NEGATIVE
    assert -Sign.NEGATIVE is Sign.POSITIVE
    assert -Sign.ZERO is Sign.ZERO
    assert -Sign.POLE is Sign.POLE


def test_import_does_not_load_scipy():
    # scipy is needed only by the quadrature cross-checks, which import it
    # on first use; a fresh interpreter shows what a CLI call pays for
    src = str(Path(su11hodge.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import su11hodge, su11hodge.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
