"""Set-up probe run in a fresh interpreter: import the package, build inputs.

Usage: python3 bench/child_setup.py WORKLOAD SEED SIZE
Prints {"import_s": ...}, the time ``import su11hodge`` took in this process.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = time.perf_counter()
import su11hodge  # noqa: E402
import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.build_jobs(su11hodge, workload, seed, 0, 0, size)
print(json.dumps({"import_s": import_s}))
