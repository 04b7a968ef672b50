"""Smoke test of the benchmark: run with ``python3 -m pytest bench``.

Runs every workload at the tiny size, traced and untraced, and checks that
each metric BENCHMARK.json declares is printed with its unit; checks that
every reference checker flags a deliberately corrupted value; and checks
that the benchmark refuses to run without the package sources.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
import su11hodge  # noqa: E402
from su11hodge import cli  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        printed = [x.split() for x in lines if x.split()[:1] == [metric["name"]]]
        assert printed and printed[0][2] == metric["unit"], metric["name"]
    if trace == "0":
        for name in ("setup_s", "pass_ref", "vectors_per_ref" if workload != "cli_batch"
                     else "job_p50_ref"):
            assert result["metrics"][name]["value"] > 0
    if workload == "window_scan":
        # every run times principal series of both parities
        full = json.loads((ROOT / ".bench_work" / f"result-window_scan-seed3-trace{trace}.json")
                          .read_text())["results"][0]
        assert {"ps-even@4", "ps-odd@4"} <= set(full["scaling"])


def test_benchmark_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "window_scan", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# every checker flags a corrupted value

PS = reference.Spec("ps", Fraction(7, 3), "odd")
POINT = reference.Spec("point", m=2, orbit="inf")


def scan_output(spec, bound=6):
    job = {"spec": spec, "obj": workloads.package_spec(su11hodge, spec), "bound": bound}
    return workloads.run_scan_job(su11hodge, job)


def flip(sign):
    return su11hodge.Sign.NEGATIVE if sign is su11hodge.Sign.POSITIVE else su11hodge.Sign.POSITIVE


@pytest.mark.parametrize("spec", [PS, POINT])
def test_scan_checker_flags_corruption(spec):
    out = scan_output(spec)
    assert reference.check_scan(spec, 6, out) == []
    t, u, g, level = out["table"][3]
    corruptions = [
        dataclasses.replace(u, sign=flip(u.sign)),
        dataclasses.replace(u, ratio_to_reference=u.ratio_to_reference + 1),
        dataclasses.replace(u, magnitude=0.0),
        dataclasses.replace(u, magnitude=math.inf),
        dataclasses.replace(u, magnitude=u.magnitude * (1 + 1e-6)),
    ]
    for bad in corruptions:
        table = list(out["table"])
        table[3] = (t, bad, g, level)
        assert reference.check_scan(spec, 6, {**out, "table": table}), bad
    table = list(out["table"])
    table[3] = (t, u, dataclasses.replace(g, sign=flip(g.sign)), level)
    assert reference.check_scan(spec, 6, {**out, "table": table})
    table[3] = (t, u, g, level + 1)
    assert reference.check_scan(spec, 6, {**out, "table": table})
    assert reference.check_scan(spec, 6, {**out, "table": out["table"][:-1]})
    records = list(out["verify"].records)
    records[2] = dataclasses.replace(records[2], sign=flip(records[2].sign))
    bad_verify = dataclasses.replace(out["verify"], records=tuple(records))
    assert reference.check_scan(spec, 6, {**out, "verify": bad_verify})
    for check in ("bracket", "theta", "invariance"):
        bad = dataclasses.replace(out[check], ok=False)
        assert reference.check_scan(spec, 6, {**out, check: bad}), check


@pytest.mark.parametrize("lam, parity", [(Fraction(1, 2), "even"), (Fraction(3), "even"),
                                         (Fraction(1), "even"), (Fraction(5, 2), "odd")])
def test_classify_checker_flags_corruption(lam, parity):
    report = su11hodge.classify(lam, su11hodge.Parity(parity))
    assert reference.check_classify(lam, parity, report) == []
    entries = list(report.entries)
    swap = {su11hodge.Definiteness.INDEFINITE: su11hodge.Definiteness.POS_DEF}
    entries[0] = dataclasses.replace(
        entries[0], definiteness=swap.get(entries[0].definiteness,
                                          su11hodge.Definiteness.INDEFINITE))
    bad = dataclasses.replace(report, entries=tuple(entries))
    assert reference.check_classify(lam, parity, bad)
    assert reference.check_classify(lam, parity,
                                    dataclasses.replace(report, entries=report.entries[1:]))


def test_jantzen_checker_flags_corruption():
    lam0, eps = Fraction(4), Fraction(1, 3)
    report = su11hodge.jantzen_crossing(lam0, su11hodge.Parity.ODD, eps, 6)
    assert reference.check_jantzen(lam0, "odd", eps, 6, report) == []
    for field_name in ("sign_below", "sign_above"):
        records = list(report.records)
        records[0] = dataclasses.replace(records[0],
                                         **{field_name: flip(getattr(records[0], field_name))})
        bad = dataclasses.replace(report, records=tuple(records))
        assert reference.check_jantzen(lam0, "odd", eps, 6, bad), field_name
    records = list(report.records)
    records[5] = dataclasses.replace(records[5], w1=not records[5].w1)
    assert reference.check_jantzen(lam0, "odd", eps, 6,
                                   dataclasses.replace(report, records=tuple(records)))


def cli_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def cli_job(command, fmt, spec=None, bound=None, **extra):
    return {"command": command, "format": fmt, "spec": spec, "bound": bound, **extra}


def _json_edit(edit):
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return apply


def _nth_row_cell(header, column, new):
    def apply(text):
        lines = text.splitlines()
        start = next(i for i, x in enumerate(lines) if x.split("  ")[0] == header)
        cells = lines[start + 2].split()
        cells[column] = new(cells[column])
        lines[start + 2] = "  ".join(cells)
        return "\n".join(lines) + "\n"
    return apply


def _csv_cell(column, new):
    def apply(text):
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[column] = new(cells[column])
        lines[2] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return apply


def _flip_sign(s):
    return {"+": "-", "-": "+"}[s]


def _set_u_sign(payload):
    payload["rows"][1]["u_sign"] = _flip_sign(payload["rows"][1]["u_sign"])


def _bump_ratio(payload):
    payload["rows"][2]["ratio"]["num"] += 1


def _zero_magnitude(payload):
    payload["rows"][0]["magnitude"] = 0.0


def _bad_quadrature(payload):
    payload["grid"][3]["quadrature"] *= 1.001


def _fail_bracket(payload):
    payload["bracket_ok"] = False


def _flip_unitary(payload):
    payload["entries"][0]["unitary"] = not payload["entries"][0]["unitary"]


CLI_CASES = [
    (["form-table", "--lambda", "7/3", "--parity", "odd", "--bound", "5", "--output", "json"],
     cli_job("form-table", "json", PS, 5), [_json_edit(_set_u_sign), _json_edit(_bump_ratio),
                                            _json_edit(_zero_magnitude)]),
    (["form-table", "--point-m", "2", "--orbit", "inf", "--bound", "5"],
     cli_job("form-table", "text", POINT, 5),
     [_nth_row_cell("index", 4, lambda c: "0"), _nth_row_cell("index", 3, lambda c: c + "1")]),
    (["describe", "--lambda", "7/3", "--parity", "odd", "--bound", "5", "--output", "csv"],
     cli_job("describe", "csv", PS, 5), [_csv_cell(1, lambda c: str(int(c) + 1))]),
    (["verify", "--lambda", "7/3", "--parity", "odd", "--bound", "5", "--output", "json"],
     cli_job("verify", "json", PS, 5), [_json_edit(_fail_bracket)]),
    (["verify", "--lambda", "7/3", "--parity", "odd", "--bound", "5"],
     cli_job("verify", "text", PS, 5),
     [lambda t: t.replace("theta intertwining: pass", "theta intertwining: FAIL"),
      _nth_row_cell("index", 3, _flip_sign)]),
    (["jantzen", "--lambda", "4", "--parity", "odd", "--epsilon", "1/3", "--bound", "5"],
     cli_job("jantzen", "text", None, 5, lam=Fraction(4), parity="odd",
             epsilon=Fraction(1, 3)),
     [_nth_row_cell("index", 2, _flip_sign)]),
    (["classify", "--lambda", "3", "--parity", "even", "--output", "json"],
     cli_job("classify", "json", lam=Fraction(3), parity="even"), [_json_edit(_flip_unitary)]),
    (["classify", "--lambda", "1/2", "--parity", "even", "--output", "csv"],
     cli_job("classify", "csv", lam=Fraction(1, 2), parity="even"),
     [lambda t: t.replace("true", "false")]),
    (["oracle", "--output", "json"], cli_job("oracle", "json"), [_json_edit(_bad_quadrature)]),
]


@pytest.mark.parametrize("argv, job, corruptions", CLI_CASES,
                         ids=[" ".join(c[0][:1] + c[0][-1:]) for c in CLI_CASES])
def test_cli_checker_flags_corruption(argv, job, corruptions):
    text = cli_text(argv)
    assert reference.check_cli_output(job, text) == []
    for corrupt in corruptions:
        bad = corrupt(text)
        assert bad != text
        assert reference.check_cli_output(job, bad)
    assert reference.check_cli_output(job, text[: len(text) // 2])
