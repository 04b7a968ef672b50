"""Contract gates over the public API: exactness and the argument boundary.

Exactness: every verdict and check in ``__all__`` decides on exact
rationals.  Floats carry only magnitudes, which come from ``beta_value``
(``math.lgamma``) and ``float`` of a ``Fraction``.  So with all three made
to raise, every verdict and check still runs, on a seeded grid of series,
their W1 submodules and point modules.  A verdict that starts to read a
float fact (the reference magnitude sits on the spec beside the
breakpoints) fails here.

Boundary: a bound, a cutoff or a level is an int >= 0, a W1's base is a
principal series and a generator is a ``Generator``; anything else is
refused with TypeError, not taken as 1, truncated, or failed on later.
"""

import math
import random
from fractions import Fraction

import pytest

from su11hodge import analysis, cli, exact, filtrations, forms, modules
from su11hodge.analysis import (
    classify,
    definiteness,
    jantzen_crossing,
    verify_conjecture,
)
from su11hodge.filtrations import filtration_table, grw2_weights, hodge_dim, hodge_level
from su11hodge.forms import diagonal_sign, form_diagonal, invariance_check, reference_magnitude
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
    bracket_check,
    constituents,
    theta_check,
)

PACKAGE = (exact, modules, filtrations, forms, analysis, cli)


class FloatEntered(Exception):
    pass


def refuse(*args):
    raise FloatEntered(args)


@pytest.fixture
def no_floats(monkeypatch):
    """``Fraction.__float__``, ``beta_value`` (in every module that binds it) and
    ``math.lgamma`` raise for the length of a test."""
    binders = [module for module in PACKAGE if "beta_value" in vars(module)]
    assert modules in binders and forms not in binders
    monkeypatch.setattr(Fraction, "__float__", refuse)
    for module in binders:
        monkeypatch.setattr(module, "beta_value", refuse)
    monkeypatch.setattr(math, "lgamma", refuse)


def grid():
    """lam = p (p < 40, every reduction point) and 40 seeded p/q, q in (2, 3, 7)."""
    rng = random.Random(26)
    lams = [Fraction(p) for p in range(40)]
    lams += [Fraction(rng.randrange(1, 40 * q), q) for q in rng.choices((2, 3, 7), k=40)]
    return [(lam, parity) for lam in lams for parity in Parity]


def test_every_verdict_and_check_runs_without_a_float(no_floats):
    parts = 0
    for lam, parity in grid():
        ps = PrincipalSeries(lam, parity)
        classify(lam, parity)
        if ps.reducible and lam:
            jantzen_crossing(lam, parity, Fraction(1, 4), 6)
        for spec in [ps] + (constituents(ps) if ps.reducible else []):
            verify_conjecture(spec, 6)
            bracket_check(spec, 6)
            theta_check(spec, 6)
            for v in basis_window(spec, 6):
                diagonal_sign(v, spec)
                hodge_level(v, spec)
            if not spec.reducible:
                invariance_check(spec, 6)
                definiteness(spec, 6)
                parts += 1
    assert parts > 200  # series, W1s and point modules


def test_the_patches_catch_a_float(no_floats):
    # fresh values: a point module walk takes float(ratio), a series' anchor a Beta value
    with pytest.raises(FloatEntered):
        form_diagonal(BasisVector.at(1), PointModule(1_000_037, Orbit.AT_ZERO))
    with pytest.raises(FloatEntered):
        reference_magnitude(PrincipalSeries(Fraction(1009, 7), Parity.EVEN))
    with pytest.raises(FloatEntered):
        exact.beta_value(1, 2)


SERIES = PrincipalSeries(Fraction(7, 3), Parity.EVEN)
BOUNDS = [
    ("bound", lambda b: basis_window(SERIES, b)),
    ("bound", lambda b: bracket_check(SERIES, b)),
    ("bound", lambda b: theta_check(SERIES, b)),
    ("bound", lambda b: invariance_check(SERIES, b)),
    ("bound", lambda b: verify_conjecture(SERIES, b)),
    ("bound", lambda b: definiteness(SERIES, b)),
    ("bound", lambda b: jantzen_crossing(3, Parity.EVEN, Fraction(1, 4), b)),
    ("bound", lambda b: filtration_table(SERIES, b)),
    ("p", lambda b: hodge_dim(SERIES, b)),
    ("cutoff", lambda b: grw2_weights(3, Parity.EVEN, b)),
]


@pytest.mark.parametrize("name,call", BOUNDS, ids=[
    "basis_window", "bracket_check", "theta_check", "invariance_check", "verify_conjecture",
    "definiteness", "jantzen_crossing", "filtration_table", "hodge_dim", "grw2_weights"])
def test_a_bound_must_be_an_int(name, call):
    # True would pass as 1 (and print as True); 2.5 would be decided on the
    # sample and return ok, or be truncated by the window
    call(2)
    for junk in (True, False, 2.5, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            call(junk)
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        call(-1)


@pytest.mark.parametrize("base", ["x", Fraction(3), 3, PointModule(3, Orbit.AT_ZERO),
                                  W1Sub(PrincipalSeries(3, Parity.EVEN))],
                         ids=["str", "Fraction", "int", "PointModule", "W1Sub"])
def test_a_w1_base_must_be_a_series(base):
    with pytest.raises(TypeError, match="base must be a PrincipalSeries"):
        W1Sub(base)


@pytest.mark.parametrize("gen", ["x", "e+", Generator.H.value, None, 0], ids=repr)
def test_act_refuses_a_generator_name(gen):
    with pytest.raises(TypeError, match="not a member of Generator"):
        act(gen, BasisVector.at(0), SERIES)
