"""Command-line front end: tables and JSON/CSV emitters for every analysis.

Twisting parameters are accepted only as exact rational strings ("3",
"-1/2"); float syntax is refused so that no sign decision ever passes
through floating point.  Exit status: 0 all checks pass, 1 a verified
property fails, 2 usage or I/O error (or, for ``oracle``, no scipy).

Each subcommand declares its table once: a list of columns and a list of
row tuples.  A column is ``(name, kind)`` or ``(name, kind, text header)``;
``name`` is the JSON key and the CSV field stem, and the text header
defaults to it.  ``_emit`` alone renders the table as text, JSON or CSV,
each kind through the three renderers of ``_KINDS``: ``index`` is written
as ``n`` in text, ``{"num", "den"}`` in JSON and ``<name>_twice`` in CSV;
``rational`` as ``p/q``, ``{"num", "den"}`` and ``<name>_num``,
``<name>_den``.  The CSV header comes from the columns, so an empty window
still prints it.

``oracle`` runs OpenBLAS single-threaded: it sets ``OPENBLAS_NUM_THREADS``
to 1 while it loads the quadrature, unless the variable is already set, in
which case the user's value wins.  OpenBLAS reads it once, when numpy
loads; QUADPACK calls no BLAS, so the process otherwise starts a worker
thread that only spins.  Once numpy is loaded the caller's environment is
restored, so a program that calls ``main`` keeps its own; the library
itself never writes the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .analysis import classify, jantzen_crossing, verify_conjecture
from .exact import _qagse, beta_value, parse_rational, quadrature_integral
from .filtrations import _levels, filtration_table
from .forms import (
    convergence_range,
    form_diagonal,
    gR_form_diagonal,
    invariance_check,
    reference_magnitude,
)
from .modules import (
    ModuleSpec,
    Orbit,
    Parity,
    PointModule,
    PrincipalSeries,
    basis_window,
    bracket_check,
    constituents,
    theta_check,
)

USAGE_ERROR = 2
CHECK_FAILED = 1

ORACLE_TOLERANCE = 1e-8


def rational_to_json(q: Fraction) -> Dict[str, int]:
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj: Dict[str, int]) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def spec_to_json(spec: ModuleSpec) -> Dict[str, Any]:
    if isinstance(spec, PrincipalSeries):
        return {
            "type": "principal-series",
            "lambda": rational_to_json(spec.lam),
            "parity": spec.parity.value,
        }
    if isinstance(spec, PointModule):
        return {"type": "point", "m": spec.m, "orbit": spec.orbit.value}
    return {
        "type": "w1",
        "lambda0": rational_to_json(spec.lam0),
        "parity": spec.parity.value,
        "dim": spec.dim,
    }


def render_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _fmt_float(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.10g}"


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


# kind -> (text cell, JSON value, CSV field suffixes, CSV cells)
_KINDS: Dict[str, Tuple[Callable, Callable, Tuple[str, ...], Callable]] = {
    "int": (str, lambda x: x, ("",), lambda n: (n,)),
    "sign": (lambda s: s.value, lambda s: s.value, ("",), lambda s: (s.value,)),
    "bool": (_yes_no, lambda x: x, ("",), lambda b: (str(b).lower(),)),
    "check": (lambda b: "yes" if b else "NO", lambda x: x, ("",),
              lambda b: (str(b).lower(),)),
    "index": (str, lambda n: rational_to_json(n.as_fraction), ("_twice",),
              lambda n: (n.twice,)),
    "rational": (str, rational_to_json, ("_num", "_den"),
                 lambda q: (q.numerator, q.denominator)),
    "float": (_fmt_float, lambda x: x, ("",), lambda x: (_fmt_float(x),)),
    "err": ("{:.3e}".format, lambda x: x, ("",), lambda x: (f"{x:.3e}",)),
    "spec": (str, spec_to_json, ("",), lambda s: (str(s),)),
}

Column = Tuple[str, ...]  # (name, kind) or (name, kind, text header)


def _emit(args, preamble: str, payload: Dict[str, Any], rows_key: str,
          columns: Sequence[Column], rows: Sequence[tuple]) -> None:
    """Render the table ``columns`` x ``rows`` in the chosen format and write it.

    Text is ``preamble`` plus an aligned table; JSON is ``payload`` with the
    subcommand under ``"command"`` and the rows as a list of dicts under
    ``rows_key``; CSV is the table alone.
    """
    kinds = [_KINDS[col[1]] for col in columns]
    if args.output == "json":
        records = [
            {col[0]: kind[1](value) for col, kind, value in zip(columns, kinds, row)}
            for row in rows
        ]
        out = render_json({**payload, "command": args.command, rows_key: records})
    elif args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([col[0] + suffix for col, kind in zip(columns, kinds)
                         for suffix in kind[2]])
        writer.writerows(
            [cell for kind, value in zip(kinds, row) for cell in kind[3](value)]
            for row in rows
        )
        out = buf.getvalue()
    else:
        out = preamble + _table(
            [col[2] if len(col) > 2 else col[0] for col in columns],
            [[kind[0](value) for kind, value in zip(kinds, row)] for row in rows],
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _build_spec(args) -> ModuleSpec:
    has_ps = args.lam is not None
    if has_ps == (args.point_m is not None):
        args.parser.error("give either --lambda/--parity or --point-m/--orbit")
    if has_ps:
        if args.parity is None:
            args.parser.error("--parity is required with --lambda")
        return PrincipalSeries(args.lam, Parity(args.parity))
    if args.orbit is None:
        args.parser.error("--orbit is required with --point-m")
    return PointModule(args.point_m, Orbit(args.orbit))


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# ---------------------------------------------------------------------------
# subcommands

def cmd_describe(args) -> int:
    spec = _build_spec(args)
    table = filtration_table(spec, args.bound)
    parts = constituents(spec)
    reducible = spec.reducible
    conv = convergence_range(spec)

    payload = {
        "spec": spec_to_json(spec),
        "bound": args.bound,
        "reducible": reducible,
        "constituents": [spec_to_json(p) for p in parts],
        "convergence_range": None if conv is None else [
            rational_to_json(n.as_fraction) for n in conv
        ],
    }
    lines = [f"module: {spec}", f"reducible: {_yes_no(reducible)}", "constituents:"]
    lines.extend(f"  {p}" for p in parts)
    if conv is not None:
        lines.append("convergence range: " + (", ".join(str(n) for n in conv) or "(empty)"))
    lines.append(f"filtration (window bound {args.bound}):")
    _emit(args, "\n".join(lines) + "\n", payload, "filtration",
          [("index", "index"), ("hodge_level", "int"), ("w1", "bool")],
          [(r.vector.index, r.hodge_level, r.w1_member) for r in table])
    return 0


def cmd_form_table(args) -> int:
    spec = _build_spec(args)
    if spec.reducible:
        raise ValueError(
            f"lambda={spec.lam} is a reduction point; use classify/describe, "
            "or evaluate the constituents"
        )
    rows = []
    level = _levels(spec)  # the window vectors are members
    for v in basis_window(spec, args.bound):
        u = form_diagonal(v, spec)
        g = gR_form_diagonal(v, spec)
        # irreducible: the weight filtration collapses, so every vector is in W1
        rows.append((v.index, level(v.index.twice), u.sign, u.ratio_to_reference,
                     u.magnitude, g.sign, True))
    ref_mag = reference_magnitude(spec)  # the spec's fact, computed by the first walk
    payload = {"spec": spec_to_json(spec), "bound": args.bound, "reference_magnitude": ref_mag}
    preamble = f"module: {spec}\nreference magnitude: {_fmt_float(ref_mag)}\n"
    _emit(args, preamble, payload, "rows",
          [("index", "index"), ("hodge_level", "int", "p"), ("u_sign", "sign"),
           ("ratio", "rational"), ("magnitude", "float"), ("g_sign", "sign"),
           ("w1", "bool")],
          rows)
    return 0


def cmd_verify(args) -> int:
    spec = _build_spec(args)
    if spec.reducible:
        raise ValueError(
            f"lambda={spec.lam} is a reduction point; verify the constituents instead"
        )
    report = verify_conjecture(spec, args.bound)
    brackets = bracket_check(spec, args.bound)
    thetas = theta_check(spec, args.bound)
    invariance = invariance_check(spec, args.bound)
    all_ok = report.verdict and brackets.ok and thetas.ok and invariance.ok

    payload = {
        "spec": spec_to_json(spec),
        "bound": args.bound,
        "verdict": "pass" if report.verdict else "fail",
        "bracket_ok": brackets.ok,
        "theta_ok": thetas.ok,
        "invariance_ok": invariance.ok,
    }
    preamble = (
        f"module: {spec}\n"
        f"sign conjecture: {_verdict(report.verdict)}\n"
        f"bracket relations: {_verdict(brackets.ok)}\n"
        f"theta intertwining: {_verdict(thetas.ok)}\n"
        f"form invariance: {_verdict(invariance.ok)}\n"
    )
    _emit(args, preamble, payload, "records",
          [("index", "index"), ("hodge_level", "int", "p"), ("codim", "int"),
           ("sign", "sign"), ("expected", "sign"), ("ok", "check")],
          [(r.vector.index, r.hodge_level, r.codim, r.sign, r.expected, r.ok)
           for r in report.records])
    return 0 if all_ok else CHECK_FAILED


def cmd_jantzen(args) -> int:
    report = jantzen_crossing(args.lam, Parity(args.parity), args.epsilon, args.bound)
    payload = {
        "lambda0": rational_to_json(report.lambda0),
        "parity": report.parity.value,
        "epsilon": rational_to_json(report.epsilon),
        "bound": report.bound,
        "verdict": "pass" if report.verdict else "fail",
    }
    preamble = (
        f"reduction point: lambda0={report.lambda0} ({report.parity.value}), "
        f"epsilon={report.epsilon}\n"
        f"sign preserved exactly on W1: {_verdict(report.verdict)}\n"
    )
    _emit(args, preamble, payload, "records",
          [("index", "index"), ("sign_below", "sign", "sign@-eps"),
           ("sign_above", "sign", "sign@+eps"), ("preserved", "bool"), ("w1", "bool")],
          [(r.vector.index, r.sign_below, r.sign_above, r.preserved, r.w1)
           for r in report.records])
    return 0 if report.verdict else CHECK_FAILED


def cmd_classify(args) -> int:
    report = classify(args.lam, Parity(args.parity))
    payload = {"lambda": rational_to_json(report.lam), "parity": report.parity.value}
    _emit(args, f"lambda={report.lam}, parity={report.parity.value}\n", payload, "entries",
          [("constituent", "spec"), ("hermitian", "bool"), ("definiteness", "sign"),
           ("unitary", "bool")],
          [(e.constituent, e.hermitian, e.definiteness, e.unitary) for e in report.entries])
    return 0


ORACLE_GRID: List[Tuple[Fraction, Fraction]] = [
    (s, s + d)
    for s in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(13, 4))
    for d in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(9, 4), Fraction(4))
]


def cmd_oracle(args) -> int:
    # before numpy loads: no idle BLAS worker (see the module docstring)
    preset = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        _qagse()  # loads numpy, and OpenBLAS reads the variable
    finally:  # so the caller's environment is its own again
        if preset is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    rows = []
    for s, t in ORACLE_GRID:
        q = quadrature_integral(s, t)
        b = beta_value(s, t - s)
        rel = abs(q - b) / b
        ibp = quadrature_integral(s + 1, t + 1)
        ibp_rel = abs(float(s) * q - float(t) * ibp) / (float(s) * q)
        rows.append((s, t, q, b, rel, ibp_rel))
    worst = max(row[4] for row in rows)
    worst_ibp = max(row[5] for row in rows)
    ok = worst <= ORACLE_TOLERANCE and worst_ibp <= ORACLE_TOLERANCE
    payload = {
        "tolerance": ORACLE_TOLERANCE,
        "max_rel_err": worst,
        "max_ibp_rel_err": worst_ibp,
        "pass": ok,
    }
    preamble = (
        f"quadrature vs exact Beta on {len(rows)} grid points\n"
        f"max relative error: {worst:.3e} (tolerance {ORACLE_TOLERANCE:.0e})\n"
        f"max integration-by-parts error: {worst_ibp:.3e}\n"
        f"verdict: {_verdict(ok)}\n"
    )
    _emit(args, preamble, payload, "grid",
          [("s", "rational"), ("t", "rational"), ("quadrature", "float"),
           ("beta", "float"), ("rel_err", "err"), ("ibp_rel_err", "err")],
          rows)
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing

def _add_spec_flags(sub, point: bool = True):
    # with no point module to take instead, a missing series is refused at parse time
    sub.add_argument("--lambda", dest="lam", type=parse_rational, default=None,
                     required=not point, metavar="P/Q",
                     help="twist parameter, exact rational (no floats)")
    sub.add_argument("--parity", choices=[parity.value for parity in Parity], default=None,
                     required=not point)
    if point:
        sub.add_argument("--point-m", dest="point_m", type=_integer, default=None,
                         metavar="M", help="point-module twist (integer >= 0)")
        sub.add_argument("--orbit", choices=[orbit.value for orbit in Orbit], default=None)
        sub.set_defaults(parser=sub)  # ``_build_spec`` refuses through it, as argparse


def _integer(text: str) -> int:
    """An integer as ``parse_rational`` reads it, without '/'; refused (exit 2) otherwise."""
    try:
        if "/" not in text:
            return int(parse_rational(text))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _bound(text: str) -> int:
    """A window bound: an integer >= 0, refused at parse time (exit 2) otherwise."""
    bound = _integer(text)
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {bound}")
    return bound


def _add_common_flags(sub, default_bound: int = 8, bound_used: bool = True):
    sub.add_argument("--bound", type=_bound, default=default_bound,
                     help=f"window bound (default {default_bound})" if bound_used
                     else "window bound; does not change this command's output")
    sub.add_argument("--output", choices=["text", "json", "csv"], default="text")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11hodge",
        description="Exact invariant-form and Hodge-filtration computations "
                    "for SU(1,1) Harish-Chandra modules.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("describe", help="reducibility, constituents, filtrations")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(fn=cmd_describe)

    p = subs.add_parser("form-table", help="diagonal form values per index")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(fn=cmd_form_table)

    p = subs.add_parser("verify", help="sign conjecture plus algebraic suite")
    _add_spec_flags(p)
    _add_common_flags(p, default_bound=12)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("jantzen", help="sign crossing at a reduction point")
    _add_spec_flags(p, point=False)
    p.add_argument("--epsilon", type=parse_rational, default=Fraction(1, 4),
                   metavar="P/Q", help="offset from the reduction point (default 1/4)")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_jantzen)

    p = subs.add_parser("classify", help="constituents with unitarity verdicts")
    _add_spec_flags(p, point=False)
    _add_common_flags(p, bound_used=False)
    p.set_defaults(fn=cmd_classify)

    p = subs.add_parser("oracle", help="quadrature vs exact Beta comparison grid")
    _add_common_flags(p, bound_used=False)
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, also those of ``_build_spec``
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (ValueError, OSError, ImportError) as exc:
        # ImportError: quadrature (oracle) needs scipy, which may be absent
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OverflowError as exc:
        print(f"error: a magnitude is out of float range: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
