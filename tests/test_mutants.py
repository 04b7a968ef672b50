"""A catalogue of mutants of the private integer rules, each of which a public
result must notice.

``spec.breakpoints`` (r, k1, j0) decides the Hodge level, the sign law and
definiteness on every module; ``_past``, ``_law_sign`` and ``definiteness``
turn it into levels, signs and unitarity.  ``spec.step`` is the diagonal
step the invariance laws read, and ``spec.strip`` the convergence strip.
So a wrong fact or rule in any of them must change a verdict, a check, a
level or the strip.  Each mutant replaces one rule through ``monkeypatch``:
a family's fact as a ``property`` over the class attribute, read by specs
the test builds, or a module-level rule by name in every module that
imports it.  It names the public result that must change under it.  A
mutant that changes nothing fails the test unless the catalogue marks it
equivalent and says why; a mutant marked equivalent that does change its
result fails too, as the catalogue is then wrong.

The law checks write their laws as one table of residuals of the
coefficient and step polynomials, each with the indices where it binds
(``_bracket_laws``, ``_theta_laws`` and ``_invariance_laws``), pass where
every residual is 0 where it binds and sweep the window otherwise.  The
bracket and theta sweeps list a failure wherever that same row binds and
its residual is non-zero, so a mutant of those tables changes the listing
too, not only the work done; a mutant of the invariance table changes
only whether the sweep runs, which lists the pairs that either side's
shift binds (``_invariance_failures``).  Each of these mutants is one edit
of the shipped source that makes a residual 0 where a law fails, leaves a
law out of the decision, or drops the pairs one side binds; its killer is
a check on a spec whose facts are perturbed so that the law fails there:
the shipped rule sweeps and lists the failure, the mutant returns ok or
lists other lines.

The window records of ``verify_conjecture`` and ``jantzen_crossing`` are
read once per |2n| and shared through a memo keyed by their content
(``_records``, ``_conjecture``): a memo keyed without 2n, or a record of
the side 2n >= 0 built at -|2n|, must change a report's records.

The goldens are killers too: a mutant renderer of one output format in
``cli._KINDS`` must change the bytes of a golden case in that format.

No result here reads a diagonal table (verdicts and invariance walk no
step), and a table is keyed by the step it is made of, so a mutated step
leaves no wrong value behind for other tests.
"""

import contextlib
import inspect
import io
import textwrap
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple, Union

import pytest

from perturb import E, F, H, set_shifts, w1
from su11hodge import analysis, cli, exact, filtrations, forms, modules
from su11hodge.analysis import Definiteness, classify, verify_conjecture
from su11hodge.filtrations import hodge_level
from su11hodge.forms import convergence_range, invariance_check
from su11hodge.modules import (
    _continuation_step,
    _substitute,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    W1Sub,
    basis_window,
    bracket_check,
    theta_check,
)
from test_golden import CASES, GOLDEN

SERIES_RULE = PrincipalSeries.__dict__["breakpoints"].func  # the shipped rules
SERIES_STEP, POINT_STEP = PrincipalSeries.__dict__["step"].func, PointModule.__dict__["step"].func
SERIES_STRIP = PrincipalSeries.__dict__["strip"].fget
PAST, LAW_SIGN = modules._past, forms._law_sign
PACKAGE = (exact, modules, filtrations, forms, analysis, cli)


def series_verdict():
    return verify_conjecture(PrincipalSeries(Fraction(7, 3), Parity.EVEN), 4).verdict


def series_levels():
    ps = PrincipalSeries(Fraction(7, 3), Parity.EVEN)
    return tuple(hodge_level(v, ps) for v in basis_window(ps, 4))


def point_verdicts():
    return tuple(verify_conjecture(PointModule(3, orbit), 4).verdict for orbit in Orbit)


def series_records():
    return verify_conjecture(PrincipalSeries(Fraction(7, 3), Parity.EVEN), 4).records


def point_invariance():
    return tuple(invariance_check(PointModule(3, orbit), 4).ok for orbit in Orbit)


def series_invariance():
    return tuple(invariance_check(PrincipalSeries(Fraction(7, 3), parity), 4).ok
                 for parity in Parity)


def unitary_flags():
    return tuple(entry.unitary for entry in classify(1, Parity.EVEN).entries)


def grid_unitary_flags():
    return tuple(entry.unitary
                 for lam in (Fraction(1, 2), 1, Fraction(7, 3), 2, 3) for parity in Parity
                 for entry in classify(lam, parity).entries)


def strips_of_two():
    # |2n| <= 3 instead of 2 adds v_{-3/2} and v_{3/2}: only the odd lattice has them
    return tuple(convergence_range(PrincipalSeries(2, parity)) for parity in Parity)


def with_coefficients(spec, **changes):
    """``spec`` with the coefficient tuples of the generators named in ``changes``
    (e, h, f) replaced by a function of the shipped tuple, on the instance
    that carries the facts (a W1's base)."""
    d, polynomials = spec.coefficients
    for gen, change in zip((E, H, F), (changes.get(n) for n in "ehf")):
        if change:
            polynomials = {**polynomials, gen: change(polynomials[gen])}
    vars(spec.base)["coefficients"] = (d, polynomials)
    return spec


def plus(slot, amount=1):
    """A coefficient tuple (a0, a1, a2, shift) with ``amount`` added at ``slot``."""
    return lambda c: tuple(a + amount * (i == slot) for i, a in enumerate(c))


def outcome(check, spec, bound=4):
    """A check's result, or the ValueError it raised."""
    try:
        return check(spec, bound)
    except ValueError as exc:
        return "ValueError", str(exc)


def fold_invariance():
    # W1(2, odd) holds only the fold pair (1/2, -1/2); e+ + 1 breaks it
    return outcome(invariance_check, with_coefficients(w1(2), e=plus(0)))


def point_side_invariance():
    # a point module holds pairs on the side 2n >= 0 only
    return tuple(outcome(invariance_check, with_coefficients(PointModule(3, orbit), e=plus(1)))
                 for orbit in Orbit)


def negative_side_invariance():
    # e+ + 1 with the step rebuilt to keep the side 2n >= 0: N_E(x + 2) / N_F(x);
    # on the side 2n <= 0 the identity is then off by the constant 1 - 2p
    spec = with_coefficients(PrincipalSeries(Fraction(7, 3), Parity.EVEN), e=plus(0))
    _, polynomials = spec.coefficients
    vars(spec)["step"] = (_substitute(polynomials[E][:3], 2), polynomials[F][:3])
    return outcome(invariance_check, spec)


def flipped_theta_parities():
    # every shift's parity flipped: e+ and e- unshifted, h moving one step
    return outcome(theta_check, set_shifts(PrincipalSeries(Fraction(7, 3), Parity.EVEN),
                                           {E: 0, H: 1, F: 0}))


def commuting_brackets():
    # constant coefficients commute, so each bracket is 0, not k g
    constant = lambda c: (1, 0, 0, c[3])  # noqa: E731
    return outcome(bracket_check, with_coefficients(
        PrincipalSeries(Fraction(7, 3), Parity.EVEN), e=constant, h=constant, f=constant))


def theta_past_the_end():
    # e- (at 0) or e+ (at infinity) + 1 acts at k = 0 and leaves the lattice:
    # listed as leaving the basis at v[0]
    return (outcome(theta_check, with_coefficients(PointModule(3, Orbit.AT_ZERO), f=plus(0))),
            outcome(theta_check, with_coefficients(PointModule(3, Orbit.AT_INFINITY), e=plus(0))))


def right_side_pairs():
    # W1(5) with e+ unshifted: e- still binds u = v[-1] to w = v[-2], where only
    # the right side (u, e- w) is non-zero
    return outcome(invariance_check, set_shifts(w1(5), {E: 0}), 3)


def h_shifted_invariance():
    # h moving one step pairs (h u, w) with w = u + 1: the h law fails there
    return outcome(invariance_check, set_shifts(PrincipalSeries(Fraction(1, 3), Parity.EVEN),
                                                {H: 1}), 2)


def twisted_invariance():
    # e+ + 1 breaks the e+/e- laws; the twisted law's sides carry theta(w) and theta(u)
    return outcome(invariance_check, with_coefficients(
        PrincipalSeries(Fraction(7, 3), Parity.EVEN), e=plus(0)))


class Edit(NamedTuple):
    """A one-edit copy of the shipped rule a mutant replaces: the one occurrence of
    ``old`` in its source replaced by ``new``, compiled only when its case runs, so
    that a stale edit fails that case alone."""
    old: str
    new: str

    def compiled(self, fn):
        """``fn`` compiled from its edited source, in its own module's namespace."""
        source = textwrap.dedent(inspect.getsource(fn))
        assert source.count(self.old) == 1, f"{self.old!r} is not once in {fn.__name__}"
        namespace = {}
        exec(compile(source.replace(self.old, self.new), inspect.getsourcefile(fn), "exec"),
             fn.__globals__, namespace)
        return namespace[fn.__name__]


def golden(name):
    """Whether the golden case ``name`` still prints its file's bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(dict(CASES)[name]))
    return out.getvalue().encode() == (GOLDEN / f"{name}.out").read_bytes()


def renderer(kind, fmt, fn):
    """The ``cli._KINDS`` entry of ``kind`` with the renderer of ``fmt`` replaced."""
    entry = list(cli._KINDS[kind])
    entry[{"text": 0, "json": 1, "csv": 3}[fmt]] = fn
    return tuple(entry)


class Mutant(NamedTuple):
    name: str
    # (spec class, fact), (a dict, key), or a module-level rule's name
    target: Union[Tuple[object, str], str]
    rule: object  # an Edit of the rule named by ``target``, or its replacement
    result: Callable[[], object]
    equivalent: Optional[str] = None  # why no result can tell it apart


def k1_plus_one(spec):
    r, k1, j0 = SERIES_RULE(spec)
    return r, k1 + 1, j0


def j0_by_floor(spec):
    r, k1, _ = SERIES_RULE(spec)
    p, q = spec.lam.numerator, spec.lam.denominator
    return r, k1, max(0, _continuation_step(p, q, r + 1)[1] // (2 * q))


def w1_j0_plus_one(spec):
    r, k1, j0 = spec.base.breakpoints
    return r, k1, j0 + 1


def k1_clamped(spec):
    r, k1, j0 = SERIES_RULE(spec)
    return r, max(0, k1), j0


def point_step_negated(spec):
    (a0, a1, a2), denominator = POINT_STEP(spec)
    return (-a0, -a1, -a2), denominator


def point_step_m_plus_one(spec):
    # -(k+1)(m+k+2): the shipped step at m + 1, -(t + 2)(t + 2m + 4) / 4
    (a0, a1, a2), denominator = POINT_STEP(spec)
    return (a0 - 4, a1 - 2, a2), denominator


def series_step_one_late(spec):
    # each polynomial at t + 2, one k further out
    return tuple((a0 + 2 * a1 + 4 * a2, a1 + 4 * a2, a2) for a0, a1, a2 in SERIES_STEP(spec))


def definiteness_j0_past_one(spec, bound=None):
    r, _, j0 = spec.breakpoints
    return Definiteness.INDEFINITE if j0 > 1 or r else Definiteness.POS_DEF


def definiteness_without_r(spec, bound=None):
    r, _, j0 = spec.breakpoints
    return Definiteness.INDEFINITE if j0 else Definiteness.POS_DEF


def law_sign_j0_plus_one(r, j0, twice):
    return LAW_SIGN(r, j0 + 1, twice)


def past_plus_one(r, t, twice):
    return PAST(r, t, twice) + 1


def keyed_without_twice(memo):
    """The record memo ``memo`` keyed by the content without 2n: the record first
    built with a content is served at every index with that content."""
    build, built = memo.__wrapped__, {}

    def keyed(twice, content):
        if content not in built:
            built[content] = build(twice, content)
        return built[content]

    keyed.__wrapped__ = build
    return keyed


SERIES, POINT, W1 = ((cls, "breakpoints") for cls in (PrincipalSeries, PointModule, W1Sub))

CATALOGUE = [
    Mutant("series k1 + 1", SERIES, k1_plus_one, series_verdict),
    Mutant("series j0 by floor, not ceil", SERIES, j0_by_floor, series_verdict),
    Mutant("point module (0, 0, 0)", POINT, lambda spec: (0, 0, 0), point_verdicts),
    Mutant("W1 j0 + 1", W1, w1_j0_plus_one, unitary_flags),
    Mutant("series k1 clamped at 0", SERIES, k1_clamped, series_verdict,
           equivalent="k1 = floor((p + q - q r) / 2q) with r = 0 or 1 and p >= 0 "
                      "(dominance, lam >= 0) is never negative; test_closed_form asserts "
                      "k1 == j0 >= 0 or k1 == j0 + 1 on its grid of series"),
    Mutant("point step sign flipped", (PointModule, "step"), point_step_negated,
           point_invariance),
    Mutant("point step m + k + 2", (PointModule, "step"), point_step_m_plus_one,
           point_invariance),
    Mutant("series step one k late", (PrincipalSeries, "step"), series_step_one_late,
           series_invariance),
    Mutant("series strip one too wide", (PrincipalSeries, "strip"),
           lambda spec: SERIES_STRIP(spec) + 1, strips_of_two),
    Mutant("definiteness j0 > 1", "definiteness", definiteness_j0_past_one,
           grid_unitary_flags),
    Mutant("definiteness without r", "definiteness", definiteness_without_r,
           grid_unitary_flags),
    Mutant("invariance without the fold value", "_invariance_laws",
           Edit("if {-1, 1} <= near else ()", "if False else ()"), fold_invariance),
    Mutant("invariance without the side 2n >= 0", "_invariance_laws",
           Edit("for side in (1, -1):", "for side in (-1,):"), point_side_invariance),
    Mutant("invariance without the side 2n <= 0", "_invariance_laws",
           Edit("for side in (1, -1):", "for side in (1,):"), negative_side_invariance),
    Mutant("invariance without the h shift in the contract", "_invariance_laws",
           Edit(" or polynomials[_H][3]:", ":"), h_shifted_invariance),
    Mutant("invariance pairs bound only by the left side", "_invariance_failures",
           Edit("{u + 2 * s_a, u - 2 * s_b}", "{u + 2 * s_a}"), right_side_pairs),
    Mutant("twisted invariance law read without theta", "_invariance_failures",
           Edit("*row) for a, b, *row in _PAIRINGS]",
                "flip, 0, law) for a, b, flip, twist, law in _PAIRINGS]"),
           twisted_invariance),
    Mutant("theta parity inverted", "_theta_laws",
           Edit("(-1) ** (s % 2) - k", "(-1) ** (s % 2 + 1) - k"), flipped_theta_parities),
    Mutant("bracket without k d", "_bracket_laws",
           Edit("(-k * d, g[:3]", "(0, g[:3]"), commuting_brackets),
    Mutant("theta without the lattice ends", "_theta_laws",
           Edit("return laws + ends", "return laws"), theta_past_the_end),
    Mutant("text rational as p/q always", (cli._KINDS, "rational"),
           renderer("rational", "text", lambda q: f"{q.numerator}/{q.denominator}"),
           lambda: golden("form-table_ps-1_2-even_text")),
    Mutant("json index as 2n", (cli._KINDS, "index"),
           renderer("index", "json", lambda n: cli.rational_to_json(Fraction(n.twice))),
           lambda: golden("verify_ps-5_2-odd_json")),
    Mutant("csv index as n", (cli._KINDS, "index"),
           renderer("index", "csv", lambda n: (n.as_fraction,)),
           lambda: golden("describe_ps-3-even_csv")),
    Mutant("record memo keyed without 2n", "_conjecture",
           keyed_without_twice(analysis._conjecture), series_records),
    Mutant("record at 2n >= 0 built at -|2n|", "_records",
           Edit("else build)(size, content)", "else build)(-size, content)"), series_records),
    Mutant("_law_sign j0 + 1", "_law_sign", law_sign_j0_plus_one, series_verdict),
    Mutant("_past + 1", "_past", past_plus_one, series_levels),
    Mutant("_past + 1, seen by the verdict", "_past", past_plus_one, series_verdict,
           equivalent="the level and the sign exponent are both _past, of k1 and of j0, "
                      "so both move by one and the sign law still matches at every "
                      "vector; the levels themselves are the killer"),
]


def patch(monkeypatch, mutant):
    if isinstance(mutant.target, tuple):
        owner, name = mutant.target
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, mutant.rule)
        else:
            monkeypatch.setattr(owner, name, property(mutant.rule))
        return
    patched = [module for module in PACKAGE if mutant.target in vars(module)]
    assert patched, mutant.target
    rule = mutant.rule
    if isinstance(rule, Edit):
        rule = rule.compiled(getattr(patched[0], mutant.target))
    for module in patched:
        monkeypatch.setattr(module, mutant.target, rule)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_each_mutant_changes_its_public_result_or_is_named_equivalent(monkeypatch, mutant):
    shipped = mutant.result()
    patch(monkeypatch, mutant)
    killed = mutant.result() != shipped
    assert killed is (mutant.equivalent is None), mutant.equivalent or "survived"


def test_a_rule_is_patched_in_every_module_that_imports_it(monkeypatch):
    patch(monkeypatch, CATALOGUE[-1])
    assert modules._past is filtrations._past is forms._past is past_plus_one
