"""Byte-for-byte CLI output corpus: every subcommand in text, JSON and CSV.

The files under ``tests/golden/`` hold the stdout of each invocation below.
Any change to the engine must leave them identical; regenerate them only
for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from su11hodge import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = {
    "describe": [
        ("ps-1_2-even", ["--lambda", "1/2", "--parity", "even"]),
        ("ps-3-even", ["--lambda", "3", "--parity", "even"]),
        ("ps-5_3-odd", ["--lambda", "5/3", "--parity", "odd"]),
        ("point-2-0", ["--point-m", "2", "--orbit", "0"]),
    ],
    "form-table": [
        ("ps-1_2-even", ["--lambda", "1/2", "--parity", "even"]),
        ("ps-7_3-odd", ["--lambda", "7/3", "--parity", "odd"]),
        ("ps-2-even", ["--lambda", "2", "--parity", "even"]),
        ("ps-0-even", ["--lambda", "0", "--parity", "even"]),
        ("point-1-inf", ["--point-m", "1", "--orbit", "inf"]),
    ],
    "verify": [
        ("ps-1_2-even", ["--lambda", "1/2", "--parity", "even"]),
        ("ps-5_2-odd", ["--lambda", "5/2", "--parity", "odd"]),
        ("ps-11_7-even", ["--lambda", "11/7", "--parity", "even"]),
        ("point-3-0", ["--point-m", "3", "--orbit", "0"]),
    ],
    "jantzen": [
        ("3-even", ["--lambda", "3", "--parity", "even"]),
        ("2-odd", ["--lambda", "2", "--parity", "odd", "--epsilon", "1/3"]),
        ("5-even", ["--lambda", "5", "--parity", "even", "--epsilon", "2/5"]),
    ],
    "classify": [
        ("3-even", ["--lambda", "3", "--parity", "even"]),
        ("0-odd", ["--lambda", "0", "--parity", "odd"]),
        ("1_2-even", ["--lambda", "1/2", "--parity", "even"]),
        ("5_2-odd", ["--lambda", "5/2", "--parity", "odd"]),
        ("1-even", ["--lambda", "1", "--parity", "even"]),
        ("4-odd", ["--lambda", "4", "--parity", "odd"]),
    ],
    "oracle": [("grid", [])],
}

BOUND = "6"

CASES = [
    (f"{command}_{name}_{fmt}", [command] + flags + ["--bound", BOUND, "--output", fmt])
    for command, specs in SPECS.items()
    for name, flags in specs
    for fmt in ("text", "json", "csv")
]


def render(argv):
    """Exit code and stdout bytes of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    code, out = render(argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_corpus_has_no_stray_files():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(f"{n}.out" for n, _ in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        code, out = render(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
    print(f"wrote {len(CASES)} files to {GOLDEN}")
