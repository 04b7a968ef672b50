"""Host-speed probes: fixed pieces of work timed next to the workload's jobs.

On a shared host the speed of one core drifts by tens of percent over
minutes with the load of other tenants, so raw times of runs made minutes
apart are not comparable.  The benchmark times jobs and probes alike in CPU
seconds, which leave out the time the scheduler holds a process off the
CPU, and divides a pass's time by the median probe time of that pass, which
cancels most of the remaining drift in core speed.  It reports those ratios
in units of ``ref``, one probe time.  Neither probe runs package code, so a
change to the package moves no probe.

Each workload is divided by the probe that drifts like its own work:

``compute_probe_s``  pure-Python work of the package's kind (Fraction
                     products, ``math.lgamma``, small dict and int traffic),
                     for the in-process workloads;
``process_probe_s``  a fresh interpreter that imports numpy, for cli_batch
                     and set-up, whose time is interpreter start and the
                     import of compiled packages (scipy, under the package).
                     Pure-Python work drifts further than process start, so
                     the compute probe would over-correct these.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

COMPUTE_PROBE_EVERY_S = 0.1  # job time between two compute probes inside a pass
# set-up is reported in seconds at a host speed where process_probe_s() is this
PROCESS_PROBE_NOMINAL_S = 0.25


def _work() -> int:
    x = Fraction(1)
    acc = 0.0
    table = {}
    for k in range(1, 700):
        x *= Fraction(2 * k + 1, 2 * k + 7)
        if x.denominator.bit_length() > 600:
            x = Fraction(x.numerator % 9973 + 1, 7)
        acc += math.lgamma(k + 0.5)
        table[k % 211] = (x.numerator & 0xFFFF, k)
    total = 0
    for i in range(20000):
        total += (i * 7) % 13
    return total + len(table) + int(acc)


def compute_probe_s() -> float:
    """CPU seconds the fixed computation takes now in this thread (about
    0.01-0.02 s on a 2020s x86 core)."""
    t0 = time.thread_time()
    for _ in range(4):
        _work()
    return time.thread_time() - t0


def process_probe_s() -> float:
    """CPU seconds, user and system over all its threads, of a fresh
    ``python -c "import numpy"`` now (0.2-0.3 s)."""
    argv = [sys.executable, "-c", "import numpy"]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return usage.ru_utime + usage.ru_stime
