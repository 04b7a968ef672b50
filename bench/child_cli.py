"""Traced stand-in for ``python -m su11hodge.cli``.

Usage: BENCH_TRACE_OUT=path python3 bench/child_cli.py ARG...

Runs ``su11hodge.cli.main(ARG...)`` with the same stdout, stderr and exit
status, after wrapping the package's public functions in spans.  It also
times the CLI's stages: import, parse (build_parser and parse_args), render
(``_emit``, which formats and writes the output) and the rest of ``main``.
The aggregates and the spans are written as JSON to BENCH_TRACE_OUT, also
when ``main`` raises.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = time.perf_counter()
import su11hodge.cli as cli  # noqa: E402
import_s = time.perf_counter() - t0

import su11hodge  # noqa: E402
from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install(su11hodge)
cli._emit = tracer.wrap("cli._emit", cli._emit)
_build_parser = cli.build_parser


def _traced_build_parser():
    parser = _build_parser()
    parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
    return parser


cli.build_parser = _traced_build_parser

try:
    status = cli.main(sys.argv[1:])
finally:
    incl = tracer.incl_s
    parse_s = incl.get("cli.build_parser", 0.0) + incl.get("cli.parse_args", 0.0)
    render_s = incl.get("cli._emit", 0.0)
    report = tracer.snapshot()
    report["spans"] = tracer.spans
    report.update(import_s=import_s, parse_s=parse_s, render_s=render_s,
                  run_s=incl.get("cli.main", 0.0) - parse_s - render_s)
    with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
        json.dump(report, fh)
sys.exit(status)
