import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from su11hodge import analysis, cli, exact, filtrations, forms, modules
from su11hodge.modules import CheckResult, Parity, PrincipalSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths

def test_verify_json_passes(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "1/2", "--parity", "even",
                       "--bound", "8", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["bracket_ok"] and data["theta_ok"] and data["invariance_ok"]
    assert data["spec"]["lambda"] == {"num": 1, "den": 2}
    assert len(data["records"]) == 17


def test_verify_point_module(capsys):
    code, out, _ = run(capsys, "verify", "--point-m", "2", "--orbit", "0",
                       "--bound", "6")
    assert code == 0
    assert "sign conjecture: pass" in out


def test_classify_text_table(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "3", "--parity", "even")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("W1", "Point"))]
    assert len(lines) == 3
    assert "no" in lines[0] and lines[0].startswith("W1")
    assert all("yes" in l for l in lines[1:])


def test_form_table_point_csv(capsys):
    code, out, _ = run(capsys, "form-table", "--point-m", "1", "--orbit", "0",
                       "--bound", "3", "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == [
        "index_twice", "hodge_level", "u_sign", "ratio_num", "ratio_den",
        "magnitude", "g_sign", "w1",
    ]
    ratios = [int(r["ratio_num"]) for r in rows]
    assert ratios == [1, -2, 12, -144]
    assert all(int(r["ratio_den"]) == 1 for r in rows)
    assert [r["g_sign"] for r in rows] == ["+"] * 4


def test_describe_reducible(capsys):
    code, out, _ = run(capsys, "describe", "--lambda", "3", "--parity", "even",
                       "--bound", "4")
    assert code == 0
    assert "reducible: yes" in out
    assert "W1(lambda0=3" in out and "Point(m=3" in out
    assert "convergence range: -1, 0, 1" in out


def test_describe_json_round_trip(capsys):
    code, out, _ = run(capsys, "describe", "--lambda", "5/2", "--parity", "odd",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    # re-rendering the parsed payload reproduces the bytes exactly
    assert cli.render_json(data) == out
    assert data["reducible"] is False
    assert cli.rational_from_json(data["spec"]["lambda"]) == cli.Fraction(5, 2)


def test_jantzen_pass(capsys):
    code, out, _ = run(capsys, "jantzen", "--lambda", "4", "--parity", "odd",
                       "--epsilon", "1/4", "--bound", "6")
    assert code == 0
    assert "pass" in out


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle")
    assert code == 0
    assert "verdict: pass" in out


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["max_rel_err"] <= 1e-8
    assert len(data["grid"]) == 25


def test_oracle_without_scipy_is_an_error(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "scipy", None)
    exact._qagse.cache_clear()
    try:
        code, out, err = run(capsys, "oracle")
    finally:
        exact._qagse.cache_clear()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_failed_oracle_restores_the_environment(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setitem(sys.modules, "scipy", None)
    exact._qagse.cache_clear()
    try:
        code, _, _ = run(capsys, "oracle")
    finally:
        exact._qagse.cache_clear()
    assert code == 2 and "OPENBLAS_NUM_THREADS" not in os.environ


def test_form_table_checks_each_vector_twice_and_takes_one_beta_value(monkeypatch, capsys):
    calls = {"require_member": 0, "beta_value": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (modules, forms, filtrations):
        counted(module, "require_member")
    binders = [module for module in (exact, modules, filtrations, forms, analysis, cli)
               if "beta_value" in vars(module)]
    assert modules in binders
    for module in binders:
        counted(module, "beta_value")
    gc.collect()
    spec = PrincipalSeries(Fraction(5, 3), Parity.ODD)
    key = spec.step, spec.lattice[0]
    assert key not in forms._TABLES  # a fresh table: its magnitude is not yet known
    assert forms._table(spec) is forms._TABLES[key]  # the key of the CLI's spec
    del spec
    gc.collect()
    assert key not in forms._TABLES
    code, out, _ = run(capsys, "form-table", "--lambda", "5/3", "--parity", "odd",
                       "--bound", "12", "--output", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 24
    # form_diagonal and gR_form_diagonal each check once; the level reads no check
    assert calls == {"require_member": 48, "beta_value": 1}


# ---------------------------------------------------------------------------
# the oracle's BLAS threads, in a fresh interpreter: in this one numpy may be
# loaded already, and the variable may be set

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_fresh(code, **env):
    """The JSON that ``code`` prints in a fresh interpreter whose environment
    has no OPENBLAS_NUM_THREADS unless given in ``env``."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, child_env.get("PYTHONPATH")]))
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


ORACLE_CHILD = """
import json, os, sys
from su11hodge import cli
code = cli.main(["oracle", "--out", os.devnull])
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


def test_oracle_runs_blas_single_threaded():
    code, value, tasks = run_fresh(ORACLE_CHILD)
    assert code == 0 and value is None  # the caller's environment is restored
    if tasks is not None:  # Linux: no BLAS worker beside the main thread
        assert tasks == 1


def test_oracle_keeps_a_preset_blas_thread_count():
    code, value, _ = run_fresh(ORACLE_CHILD, OPENBLAS_NUM_THREADS="2")
    assert code == 0 and value == "2"


def test_the_library_leaves_the_environment_alone():
    assert run_fresh("""
import json, os
before = dict(os.environ)
import su11hodge
from su11hodge.exact import quadrature_integral
quadrature_integral(1, 2)
print(json.dumps(dict(os.environ) == before))
""")


def test_only_the_oracle_loads_numpy():
    assert run_fresh("""
import json, os, sys
from su11hodge import cli
spec = ["--lambda", "5/2", "--parity", "odd", "--out", os.devnull]
codes = [cli.main([command] + spec) for command in ("describe", "form-table", "verify", "classify")]
codes.append(cli.main(["jantzen", "--lambda", "3", "--parity", "even", "--out", os.devnull]))
print(json.dumps([codes, "numpy" in sys.modules]))
""") == [[0] * 5, False]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "form-table", "--lambda", "2", "--parity", "even",
                       "--bound", "2", "--output", "csv", "--out", str(path))
    assert code == 0 and out == ""
    with path.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5


# ---------------------------------------------------------------------------
# usage errors

@pytest.mark.parametrize("bad", ["0.5", "1.25", "x", "1/0"])
def test_malformed_rational_exits_2(capsys, bad):
    code, _, _ = run(capsys, "verify", "--lambda", bad, "--parity", "even")
    assert code == 2


def test_reduction_point_rejected_by_verify(capsys):
    code, _, err = run(capsys, "verify", "--lambda", "3", "--parity", "even")
    assert code == 2
    assert "reduction point" in err


def test_reduction_point_rejected_by_form_table(capsys):
    code, _, err = run(capsys, "form-table", "--lambda", "2", "--parity", "odd")
    assert code == 2
    assert "reduction point" in err


def test_missing_spec_flags(capsys):
    code, _, err = run(capsys, "verify", "--bound", "4")
    assert code == 2


def test_conflicting_spec_flags(capsys):
    code, _, err = run(capsys, "verify", "--lambda", "1/2", "--parity", "even",
                       "--point-m", "1", "--orbit", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--lambda", "1/2"],
    ["classify", "--lambda", "1/2"],
    ["describe", "--point-m", "1"],
    ["form-table", "--lambda", "1/2", "--parity", "even", "--point-m", "1", "--orbit", "0"],
], ids=["verify", "classify", "describe", "form-table-both"])
def test_missing_spec_flag_refused_by_the_commands_parser(capsys, argv):
    # argparse refuses classify's flag and _build_spec the others, in one shape
    code, out, err = run(capsys, *argv)
    command = argv[0]
    assert code == 2 and out == ""
    assert err.startswith(f"usage: su11hodge {command} [-h] ")
    *usage, last = err.splitlines()
    assert all(line.startswith(("usage: ", " ")) for line in usage)
    assert last.startswith(f"su11hodge {command}: error: ") and err.endswith("\n")


def test_negative_lambda_rejected(capsys):
    code, _, err = run(capsys, "describe", "--lambda", "-1", "--parity", "even")
    assert code == 2


def test_jantzen_bad_epsilon(capsys):
    code, _, err = run(capsys, "jantzen", "--lambda", "3", "--parity", "even",
                       "--epsilon", "1/2")
    assert code == 2
    assert "epsilon" in err


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize(
    "command", ["describe", "form-table", "verify", "jantzen", "classify", "oracle"])
def test_negative_bound_refused_at_parse_time(capsys, command):
    spec = [] if command == "oracle" else ["--lambda", "3", "--parity", "even"]
    code, out, err = run(capsys, command, *spec, "--bound", "-1")
    assert code == 2 and out == ""
    assert "argument --bound: must be >= 0" in err


@pytest.mark.parametrize("output", ["text", "json", "csv"])
def test_classify_output_does_not_depend_on_bound(capsys, output):
    argv = ["classify", "--lambda", "3", "--parity", "even", "--output", output]
    first = run(capsys, *argv, "--bound", "0")
    assert first[0] == 0
    assert run(capsys, *argv, "--bound", "40") == first


NON_ASCII_INTEGERS = ["1_0", "١٢", "３", "+3"]  # Arabic-Indic 12, fullwidth 3


@pytest.mark.parametrize("bad", NON_ASCII_INTEGERS)
@pytest.mark.parametrize(
    "command", ["describe", "form-table", "verify", "jantzen", "classify", "oracle"])
def test_bound_takes_ascii_integers_only(capsys, command, bad):
    spec = [] if command == "oracle" else ["--lambda", "1/2", "--parity", "even"]
    code, out, err = run(capsys, command, *spec, "--bound", bad)
    assert code == 2 and out == ""
    assert f"argument --bound: invalid int value: {bad!r}" in err


@pytest.mark.parametrize("bad", NON_ASCII_INTEGERS)
@pytest.mark.parametrize("command", ["describe", "form-table", "verify"])
def test_point_m_takes_ascii_integers_only(capsys, command, bad):
    code, out, err = run(capsys, command, "--point-m", bad, "--orbit", "0")
    assert code == 2 and out == ""
    assert f"argument --point-m: invalid int value: {bad!r}" in err


def test_integer_flags_ignore_outer_whitespace(capsys):
    argv = ["describe", "--point-m", "3", "--orbit", "0", "--bound", "2"]
    padded = ["describe", "--point-m", " 3 ", "--orbit", "0", "--bound", " 2\n"]
    assert run(capsys, *padded) == run(capsys, *argv)


def test_digit_group_underscores_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--lambda", "1_0", "--parity", "even")
    assert code == 2 and out == ""
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# I/O and float-range errors: one "error:" line on stderr, exit 2

def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "form-table", "--lambda", "1/2", "--parity", "even",
                         "--output", "json", "--out", str(target))
    assert code == 2 and out == ""
    assert_one_error_line(err)
    assert not target.exists()


def test_float_overflow_exits_2(capsys):
    # the exact ratio at |n| = 700 exceeds the float range
    code, out, err = run(capsys, "form-table", "--lambda", "1021", "--parity", "odd",
                         "--bound", "700")
    assert code == 2 and out == ""
    assert_one_error_line(err)


# ---------------------------------------------------------------------------
# an empty window: the header alone in text and CSV, no rows in JSON

EMPTY_WINDOWS = [
    (["describe", "--lambda", "1/2", "--parity", "odd"], "filtration",
     "filtration (window bound 0):", "index  hodge_level  w1", "index_twice,hodge_level,w1"),
    (["form-table", "--lambda", "1/2", "--parity", "odd"], "rows",
     "reference magnitude: 46.59797908", "index  p  u_sign  ratio  magnitude  g_sign  w1",
     "index_twice,hodge_level,u_sign,ratio_num,ratio_den,magnitude,g_sign,w1"),
    (["verify", "--lambda", "1/2", "--parity", "odd"], "records",
     "form invariance: pass", "index  p  codim  sign  expected  ok",
     "index_twice,hodge_level,codim,sign,expected,ok"),
    (["jantzen", "--lambda", "2", "--parity", "odd"], "records",
     "sign preserved exactly on W1: pass", "index  sign@-eps  sign@+eps  preserved  w1",
     "index_twice,sign_below,sign_above,preserved,w1"),
]


@pytest.mark.parametrize("argv,key,last_preamble,text_header,csv_header", EMPTY_WINDOWS,
                         ids=[case[0][0] for case in EMPTY_WINDOWS])
def test_empty_window(capsys, argv, key, last_preamble, text_header, csv_header):
    argv = argv + ["--bound", "0", "--output"]
    code, out, _ = run(capsys, *argv, "text")
    assert code == 0
    assert out.endswith(f"\n{last_preamble}\n{text_header}\n")
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 0 and out == csv_header + "\n"
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0 and json.loads(out)[key] == []


# ---------------------------------------------------------------------------
# failure propagation: a failing check must exit 1

def test_failing_report_exits_1(capsys, monkeypatch):
    real = cli.verify_conjecture

    def corrupted(spec, bound):
        report = real(spec, bound)
        bad = [
            type(r)(r.vector, r.hodge_level, r.codim, r.sign, -r.expected)
            for r in report.records
        ]
        return type(report)(report.spec, report.bound, tuple(bad))

    monkeypatch.setattr(cli, "verify_conjecture", corrupted)
    code, out, _ = run(capsys, "verify", "--lambda", "1/2", "--parity", "even",
                       "--bound", "3")
    assert code == 1
    assert "FAIL" in out


CHECK_LINES = {
    "bracket_check": ("bracket relations", "bracket_ok"),
    "theta_check": ("theta intertwining", "theta_ok"),
    "invariance_check": ("form invariance", "invariance_ok"),
}


@pytest.mark.parametrize("check", sorted(CHECK_LINES))
def test_failing_algebraic_check_exits_1(capsys, monkeypatch, check):
    monkeypatch.setattr(cli, check, lambda spec, bound: CheckResult(False, ("x",)))
    argv = ["verify", "--lambda", "1/2", "--parity", "even", "--bound", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    failing, failing_key = CHECK_LINES[check]
    for label in ["sign conjecture"] + [label for label, _ in CHECK_LINES.values()]:
        assert f"\n{label}: {'FAIL' if label == failing else 'pass'}\n" in out

    code, out, _ = run(capsys, *argv, "--output", "json")
    data = json.loads(out)
    assert code == 1
    assert {key: data[key] for _, key in CHECK_LINES.values()} == {
        key: key != failing_key for _, key in CHECK_LINES.values()}


# ---------------------------------------------------------------------------
# the exit contract holds for every argv

RATIONALS = ["0", "1/2", "2", "3", "4", "5/2", "7/3", "1021", "-1", "0.5", "1_0", "1/0", "x"]


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(
        ["describe", "form-table", "verify", "jantzen", "classify", "oracle"]))]
    optional = [
        ("--lambda", RATIONALS),
        ("--parity", ["even", "odd", "both"]),
        ("--point-m", ["0", "2", "5", "-1", "1/2"]),
        ("--orbit", ["0", "inf", "1"]),
        ("--epsilon", RATIONALS),
    ]
    for flag, values in optional:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv += ["--bound", draw(st.sampled_from(["-1", "x"] + [str(b) for b in range(21)]))]
    return argv + ["--output", draw(st.sampled_from(["text", "json", "csv"]))]


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_fuzz_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2 and argv[-1] == "json":
        assert cli.render_json(json.loads(out.getvalue())) == out.getvalue()
