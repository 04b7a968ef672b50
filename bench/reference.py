"""Independent correctness references for the benchmark.

Nothing here calls ``su11hodge.forms``: every expected value is derived
from the closed forms below, in integer or log-Gamma arithmetic of its own.

* Ratios: V(n)/V(n0) = Gamma(a+n)Gamma(a-n) / (Gamma(a+n0)Gamma(a-n0)),
  a = (lam+1)/2, expanded into Pochhammer products.  With lam = p/q each
  factor a+j and a-1-j is an integer over 2q, so the products are integers.
* Signs: (-1)^(level - codim), level = max(0, ceil(|n| - a)); on point
  modules level = k + 1 and codim = 1.
* Point modules: (-1)^k k! (m+1)...(m+k).
* Magnitudes: log|V(n)| = log(4 pi) + lgamma(a+n) + lgamma(a-n) - lgamma(2a),
  so a magnitude that silently became 0 or inf is wrong.
* Unitarity (the classical SU(1,1) dual): an even principal series is
  unitary iff 0 <= lam < 1, an odd one with lam > 0 never is, W1 iff its
  dimension is 1, point modules always.
* Jantzen: the sign at v_n persists across lam0 iff |2n| <= lam0 - 1.

Checkers return a list of problems; an empty list means the output agrees.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

LOG_TOL = 1e-8
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class Spec:
    """Module descriptor: kind 'ps', 'w1' (lam, parity) or 'point' (m, orbit)."""

    kind: str
    lam: Fraction = Fraction(0)
    parity: str = "even"
    m: int = 0
    orbit: str = "0"

    @property
    def codim(self) -> int:
        return 1 if self.kind == "point" else 0

    @property
    def a(self) -> Fraction:
        return (self.lam + 1) / 2

    @property
    def ref_twice(self) -> int:
        return 1 if self.kind != "point" and self.parity == "odd" else 0

    def label(self) -> str:
        """The module's name as the CLI prints it."""
        if self.kind == "ps":
            return f"PS(lambda={self.lam}, {self.parity})"
        if self.kind == "w1":
            return f"W1(lambda0={self.lam}, {self.parity}, dim {int(self.lam)})"
        return f"Point(m={self.m}, at {self.orbit})"


def reducible(lam: Fraction, parity: str) -> bool:
    if lam.denominator != 1:
        return False
    return (lam.numerator % 2 == 1) == (parity == "even")


def constituents(lam: Fraction, parity: str) -> List[Spec]:
    if not reducible(lam, parity):
        return [Spec("ps", lam, parity)]
    m = int(lam)
    points = [Spec("point", m=m, orbit="0"), Spec("point", m=m, orbit="inf")]
    return points if m == 0 else [Spec("w1", lam, parity)] + points


def window(spec: Spec, bound: int) -> List[int]:
    """Doubled indices of the window |n| <= bound (k <= bound on points)."""
    if spec.kind == "point":
        return [2 * k for k in range(bound + 1)]
    hi = 2 * bound
    if spec.kind == "w1":
        hi = min(hi, int(spec.lam) - 1)
    return [t for t in range(-hi, hi + 1) if t % 2 == spec.ref_twice]


def level(spec: Spec, twice: int) -> int:
    if spec.kind == "point":
        return twice // 2 + 1
    return max(0, math.ceil(Fraction(abs(twice), 2) - spec.a))


def sign(spec: Spec, twice: int) -> str:
    return "+" if (level(spec, twice) - spec.codim) % 2 == 0 else "-"


def theta(spec: Spec, twice: int) -> int:
    return -1 if ((twice - spec.ref_twice) // 2) % 2 else 1


def g_sign(spec: Spec, twice: int) -> str:
    s = sign(spec, twice)
    return s if theta(spec, twice) == 1 else {"+": "-", "-": "+"}[s]


def ratios(spec: Spec, twices: List[int]) -> Dict[int, Fraction]:
    """Exact V(n)/V(n0) for each doubled index, by cumulative integer products."""
    wanted = set(twices)
    out: Dict[int, Fraction] = {}
    if spec.kind == "point":
        value = 1
        for k in range(max(twices) // 2 + 1):
            if k:
                value *= -k * (spec.m + k)
            if 2 * k in wanted:
                out[2 * k] = Fraction(value)
        return out
    p, q = spec.lam.numerator, spec.lam.denominator
    t0 = spec.ref_twice
    # a + j = (p + q + q*2j) / 2q  and  a - 1 - j = (p - q - q*2j) / 2q
    num = den = 1
    for t in range(t0, max(twices) + 1, 2):
        if t in wanted:
            out[t] = Fraction(num, den)
        num *= p + q + q * t
        den *= p - q - q * t
    num = den = 1
    for t in range(t0 - 2, min(twices) - 1, -2):
        num *= p - q - q * t
        den *= p + q + q * t
        if t in wanted:
            out[t] = Fraction(num, den)
    return out


def log_magnitude(spec: Spec, twice: int) -> float:
    if spec.kind == "point":
        k = twice // 2
        return math.lgamma(k + 1) + math.lgamma(spec.m + k + 1) - math.lgamma(spec.m + 1)
    a = float(spec.a)
    n = twice / 2
    return math.log(4 * math.pi) + math.lgamma(a + n) + math.lgamma(a - n) - math.lgamma(2 * a)


def magnitude_ok(spec: Spec, twice: int, magnitude: Optional[float]) -> bool:
    if magnitude is None or not math.isfinite(magnitude) or magnitude <= 0:
        return False
    return abs(math.log(magnitude) - log_magnitude(spec, twice)) <= LOG_TOL


def unitary(spec: Spec) -> bool:
    if spec.kind == "point":
        return True
    if spec.kind == "w1":
        return int(spec.lam) == 1
    if spec.parity == "even":
        return 0 <= spec.lam < 1
    return False


def jantzen_preserved(lam0: Fraction, twice: int) -> bool:
    return abs(twice) <= lam0 - 1


def beta(s: Fraction, t: Fraction) -> float:
    """Beta(s, t - s) through log-Gamma."""
    return math.exp(math.lgamma(s) + math.lgamma(t - s) - math.lgamma(t))


# ---------------------------------------------------------------------------
# checkers on in-process results (package objects, read through attributes)

class Problems(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def spec_of(obj) -> Spec:
    """Descriptor of a package module spec, read from its public attributes."""
    kind = type(obj).__name__
    if kind == "PrincipalSeries":
        return Spec("ps", obj.lam, obj.parity.value)
    if kind == "W1Sub":
        return Spec("w1", obj.lam0, obj.parity.value)
    return Spec("point", m=obj.m, orbit=obj.orbit.value)


def check_conjecture(spec: Spec, bound: int, report) -> Problems:
    problems = Problems()
    twices = [r.vector.index.twice for r in report.records]
    problems.expect(twices == window(spec, bound), f"verify window of {spec.label()}")
    for r in report.records:
        t = r.vector.index.twice
        problems.expect(r.hodge_level == level(spec, t), f"level at {t}/2")
        problems.expect(r.codim == spec.codim, f"codim at {t}/2")
        problems.expect(r.sign.value == sign(spec, t), f"sign at {t}/2")
        problems.expect(r.expected.value == sign(spec, t), f"expected sign at {t}/2")
    problems.expect(report.verdict, f"conjecture verdict on {spec.label()}")
    return problems


def check_suite(spec: Spec, bound: int, out: dict) -> Problems:
    problems = check_conjecture(spec, bound, out["verify"])
    for name in ("bracket", "theta", "invariance"):
        problems.expect(out[name].ok, f"{name} check on {spec.label()}")
    return problems


def check_form_table(spec: Spec, bound: int, rows) -> Problems:
    """rows: (doubled index, u FormValue, gR FormValue, hodge level)."""
    problems = Problems()
    twices = [t for t, _, _, _ in rows]
    problems.expect(twices == window(spec, bound), f"form window of {spec.label()}")
    want = ratios(spec, twices) if twices else {}
    for t, u, g, lvl in rows:
        problems.expect(u.ratio_to_reference == want.get(t), f"ratio at {t}/2")
        problems.expect(u.sign.value == sign(spec, t), f"u sign at {t}/2")
        problems.expect(g.sign.value == g_sign(spec, t), f"g sign at {t}/2")
        problems.expect(lvl == level(spec, t), f"level at {t}/2")
        problems.expect(magnitude_ok(spec, t, u.magnitude), f"magnitude at {t}/2")
    return problems


def check_scan(spec: Spec, bound: int, out: dict) -> Problems:
    problems = check_suite(spec, bound, out)
    problems.extend(check_form_table(spec, bound, out["table"]))
    return problems


def check_classify(lam: Fraction, parity: str, report) -> Problems:
    problems = Problems()
    want = constituents(lam, parity)
    got = [spec_of(e.constituent) for e in report.entries]
    problems.expect(got == want, f"constituents of {lam} {parity}")
    for e, part in zip(report.entries, want):
        problems.expect(e.unitary == unitary(part), f"unitarity of {part.label()}")
    return problems


def check_jantzen(lam0: Fraction, parity: str, epsilon: Fraction, bound: int,
                  report) -> Problems:
    problems = Problems()
    below = Spec("ps", lam0 - epsilon, parity)
    above = Spec("ps", lam0 + epsilon, parity)
    twices = [r.vector.index.twice for r in report.records]
    problems.expect(twices == window(below, bound), f"jantzen window at {lam0}")
    for r in report.records:
        t = r.vector.index.twice
        problems.expect(r.sign_below.value == sign(below, t), f"sign below at {t}/2")
        problems.expect(r.sign_above.value == sign(above, t), f"sign above at {t}/2")
        problems.expect(r.preserved == jantzen_preserved(lam0, t), f"persistence at {t}/2")
        problems.expect(r.w1 == jantzen_preserved(lam0, t), f"w1 flag at {t}/2")
    problems.expect(report.verdict, f"jantzen verdict at {lam0}")
    return problems


# ---------------------------------------------------------------------------
# checkers on CLI output (text, json or csv)

def _index_twice(cell) -> int:
    if isinstance(cell, dict):
        return int(Fraction(cell["num"], cell["den"]) * 2)
    return int(Fraction(cell) * 2)


def _text_rows(text: str, first_header: str) -> List[List[str]]:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split("  ")[0] == first_header:
            return [re.split(r" {2,}", row.strip()) for row in lines[i + 1:] if row.strip()]
    raise ValueError(f"no table headed {first_header!r}")


def _bool(cell) -> bool:
    if isinstance(cell, bool):
        return cell
    return {"yes": True, "true": True, "no": False, "false": False, "NO": False}[cell]


def _csv_rows(text: str) -> List[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_cli(command: str, fmt: str, text: str) -> dict:
    """Normalise one CLI output to {'rows': [...], 'verdicts': {...}}."""
    verdicts: Dict[str, bool] = {}
    if fmt == "json":
        payload = json.loads(text)
    if command == "describe":
        if fmt == "json":
            rows = [(_index_twice(r["index"]), r["hodge_level"], r["w1"])
                    for r in payload["filtration"]]
        elif fmt == "csv":
            rows = [(int(r["index_twice"]), int(r["hodge_level"]), _bool(r["w1"]))
                    for r in _csv_rows(text)]
        else:
            rows = [(_index_twice(c[0]), int(c[1]), _bool(c[2]))
                    for c in _text_rows(text, "index")]
    elif command == "form-table":
        if fmt == "json":
            rows = [(_index_twice(r["index"]), r["hodge_level"], r["u_sign"],
                     Fraction(r["ratio"]["num"], r["ratio"]["den"]), r["magnitude"],
                     r["g_sign"]) for r in payload["rows"]]
        elif fmt == "csv":
            rows = [(int(r["index_twice"]), int(r["hodge_level"]), r["u_sign"],
                     Fraction(int(r["ratio_num"]), int(r["ratio_den"])),
                     float(r["magnitude"]), r["g_sign"]) for r in _csv_rows(text)]
        else:
            rows = [(_index_twice(c[0]), int(c[1]), c[2], Fraction(c[3]), float(c[4]), c[5])
                    for c in _text_rows(text, "index")]
    elif command == "verify":
        if fmt == "json":
            rows = [(_index_twice(r["index"]), r["hodge_level"], r["codim"], r["sign"],
                     r["expected"], r["ok"]) for r in payload["records"]]
            verdicts = {"conjecture": payload["verdict"] == "pass",
                        "bracket": payload["bracket_ok"], "theta": payload["theta_ok"],
                        "invariance": payload["invariance_ok"]}
        elif fmt == "csv":
            rows = [(int(r["index_twice"]), int(r["hodge_level"]), int(r["codim"]),
                     r["sign"], r["expected"], _bool(r["ok"])) for r in _csv_rows(text)]
        else:
            rows = [(_index_twice(c[0]), int(c[1]), int(c[2]), c[3], c[4], _bool(c[5]))
                    for c in _text_rows(text, "index")]
            for key, prefix in (("conjecture", "sign conjecture: "),
                                ("bracket", "bracket relations: "),
                                ("theta", "theta intertwining: "),
                                ("invariance", "form invariance: ")):
                line = next(x for x in text.splitlines() if x.startswith(prefix))
                verdicts[key] = line[len(prefix):] == "pass"
    elif command == "jantzen":
        if fmt == "json":
            rows = [(_index_twice(r["index"]), r["sign_below"], r["sign_above"],
                     r["preserved"], r["w1"]) for r in payload["records"]]
            verdicts = {"jantzen": payload["verdict"] == "pass"}
        elif fmt == "csv":
            rows = [(int(r["index_twice"]), r["sign_below"], r["sign_above"],
                     _bool(r["preserved"]), _bool(r["w1"])) for r in _csv_rows(text)]
        else:
            rows = [(_index_twice(c[0]), c[1], c[2], _bool(c[3]), _bool(c[4]))
                    for c in _text_rows(text, "index")]
            verdicts = {"jantzen": "sign preserved exactly on W1: pass" in text}
    elif command == "classify":
        if fmt == "json":
            rows = [(_spec_from_json(e["constituent"]).label(), e["definiteness"],
                     e["unitary"]) for e in payload["entries"]]
        elif fmt == "csv":
            rows = [(r["constituent"], r["definiteness"], _bool(r["unitary"]))
                    for r in _csv_rows(text)]
        else:
            rows = [(c[0], c[2], _bool(c[3])) for c in _text_rows(text, "constituent")]
    elif command == "oracle":
        if fmt == "json":
            rows = [(Fraction(g["s"]["num"], g["s"]["den"]),
                     Fraction(g["t"]["num"], g["t"]["den"]), g["quadrature"], g["beta"])
                    for g in payload["grid"]]
            verdicts = {"oracle": payload["pass"]}
        elif fmt == "csv":
            rows = [(Fraction(int(r["s_num"]), int(r["s_den"])),
                     Fraction(int(r["t_num"]), int(r["t_den"])),
                     float(r["quadrature"]), float(r["beta"])) for r in _csv_rows(text)]
        else:
            rows = [(Fraction(c[0]), Fraction(c[1]), float(c[2]), float(c[3]))
                    for c in _text_rows(text, "s")]
            verdicts = {"oracle": "verdict: pass" in text}
    else:
        raise ValueError(f"unknown command {command!r}")
    return {"rows": rows, "verdicts": verdicts}


def _spec_from_json(obj: dict) -> Spec:
    if obj["type"] == "point":
        return Spec("point", m=obj["m"], orbit=obj["orbit"])
    key = "lambda" if obj["type"] == "principal-series" else "lambda0"
    lam = Fraction(obj[key]["num"], obj[key]["den"])
    return Spec("ps" if key == "lambda" else "w1", lam, obj["parity"])


def check_cli_output(job: dict, text: str) -> Problems:
    """Compare a parsed CLI output with the reference for the job that produced it."""
    problems = Problems()
    command, fmt = job["command"], job["format"]
    try:
        parsed = parse_cli(command, fmt, text)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        problems.append(f"unparseable {command} {fmt} output: {exc!r}")
        return problems
    rows, verdicts = parsed["rows"], parsed["verdicts"]
    problems.expect(all(verdicts.values()), f"{command} verdicts {verdicts}")
    spec = job.get("spec")
    if command in ("describe", "form-table", "verify"):
        problems.expect([r[0] for r in rows] == window(spec, job["bound"]),
                        f"{command} window")
    if command == "describe":
        for t, lvl, w1 in rows:
            problems.expect(lvl == level(spec, t), f"level at {t}/2")
            problems.expect(w1, f"w1 flag at {t}/2")
    elif command == "form-table":
        want = ratios(spec, [r[0] for r in rows]) if rows else {}
        for t, lvl, u, ratio, mag, g in rows:
            problems.expect(lvl == level(spec, t), f"level at {t}/2")
            problems.expect(u == sign(spec, t), f"u sign at {t}/2")
            problems.expect(g == g_sign(spec, t), f"g sign at {t}/2")
            problems.expect(ratio == want[t], f"ratio at {t}/2")
            problems.expect(magnitude_ok(spec, t, mag), f"magnitude at {t}/2")
    elif command == "verify":
        for t, lvl, codim, s, expected, ok in rows:
            problems.expect(lvl == level(spec, t), f"level at {t}/2")
            problems.expect(codim == spec.codim, f"codim at {t}/2")
            problems.expect(s == expected == sign(spec, t) and ok, f"sign at {t}/2")
    elif command == "jantzen":
        lam0, eps = job["lam"], job["epsilon"]
        below = Spec("ps", lam0 - eps, job["parity"])
        above = Spec("ps", lam0 + eps, job["parity"])
        problems.expect([r[0] for r in rows] == window(below, job["bound"]), "jantzen window")
        for t, s_below, s_above, preserved, w1 in rows:
            problems.expect(s_below == sign(below, t), f"sign below at {t}/2")
            problems.expect(s_above == sign(above, t), f"sign above at {t}/2")
            problems.expect(preserved == w1 == jantzen_preserved(lam0, t),
                            f"persistence at {t}/2")
    elif command == "classify":
        want = constituents(job["lam"], job["parity"])
        problems.expect([r[0] for r in rows] == [p.label() for p in want], "constituents")
        for (_, _, is_unitary), part in zip(rows, want):
            problems.expect(is_unitary == unitary(part), f"unitarity of {part.label()}")
    elif command == "oracle":
        problems.expect(len(rows) == 25, "oracle grid size")
        for s, t, quad, b in rows:
            ref = beta(s, t)
            problems.expect(abs(b - ref) <= 1e-9 * ref, f"beta at ({s}, {t})")
            problems.expect(abs(quad - ref) <= ORACLE_TOL * ref, f"quadrature at ({s}, {t})")
    return problems


def vectors_in_cli_output(job: dict) -> int:
    """Basis vectors a CLI job decides: the rows of its window table."""
    if job["command"] in ("describe", "form-table", "verify"):
        return len(window(job["spec"], job["bound"]))
    if job["command"] == "jantzen":
        return len(window(Spec("ps", job["lam"], job["parity"]), job["bound"]))
    return 0
