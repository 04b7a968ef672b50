"""Seeded inputs for the three workloads and the in-process job runners.

Every pass of a workload draws fresh inputs from ``(workload, seed, pass)``,
so the same seed always gives the same inputs, while a later pass never
repeats an earlier one: a cache in the package can reuse work inside a
pass (across consumers and window bounds), not replay a whole pass.

window_scan   a few irreducible specs (a principal series of either parity,
              a point module, a W1) over a ladder of window bounds; each job
              runs verify_conjecture, bracket_check, theta_check,
              invariance_check and a form table.  The quadratic ratio walks
              in ``forms`` and the Fraction work dominate, and the consumers
              redo the same walks.
unitary_grid  many distinct lam = p/q (integers, a large prime denominator,
              small denominators), lam up to a few hundred, both parities,
              window 12.  Each job classifies lam, runs the verify suite on
              an irreducible series and jantzen_crossing at a positive
              reduction point.  Little reuse per spec; definiteness tails
              set the slow jobs.
cli_batch     ``python -m su11hodge.cli`` processes, one at a time: every
              subcommand in text, json and csv across three passes, one
              ``--out`` file and one usage error per pass.  Interpreter start
              and import dominate; the only workload that runs quadrature.

Lambda values are drawn per stratum of a fixed partition, so every pass
has the same cost profile and the spread between seeds stays small.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from reference import Spec, constituents, reducible, vectors_in_cli_output, window

WORKLOADS = ("window_scan", "unitary_grid", "cli_batch")
FORMATS = ("text", "json", "csv")

SIZES = {
    # window_scan ladders, unitary_grid job count and lam range
    "full": {"ladder": (25, 50, 100, 200), "point_ladder": (10, 20, 40, 80),
             "grid_jobs": 24, "grid_lam_max": 320},
    "tiny": {"ladder": (4, 8), "point_ladder": (2, 4), "grid_jobs": 4, "grid_lam_max": 24},
}

GRID_BOUND = 12  # the CLI's default verify window
CLI_BOUND = 12
CLI_OUT_FILE = ".bench_work/out.txt"  # relative to the checkout, where the CLI runs
LARGE_PRIME = 1009
EPSILONS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 5), Fraction(2, 5))

# Inputs on which the seed fails; run after the timed passes and counted
# in check.failed_ratio / check.wrong_ratio, never in the timed job list.
GRID_DEFECTS = (
    {"kind": "classify", "spec": Spec("ps", Fraction(1021), "odd"),
     "label": "classify lambda=1021 odd"},  # OverflowError
    {"kind": "form_table", "spec": Spec("ps", Fraction(4001), "odd"), "bound": GRID_BOUND,
     "label": "form table lambda=4001 odd"},  # magnitudes underflow to 0
)


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _fraction_in(rng: random.Random, lo: Fraction, hi: Fraction, q: int) -> Fraction:
    """A non-integer p/q in [lo, hi) with q fixed."""
    choices = [p for p in range(int(lo * q), int(hi * q) + 1)
               if p % q and lo <= Fraction(p, q) < hi]
    return Fraction(rng.choice(choices), q)


def _integer_in(rng: random.Random, lo: Fraction, hi: Fraction, odd: bool) -> Fraction:
    choices = [n for n in range(int(lo), int(hi) + 1)
               if lo <= n < hi and n % 2 == int(odd)]
    return Fraction(rng.choice(choices))


def package_spec(pkg, spec: Spec):
    """The package's module object for a descriptor."""
    if spec.kind == "point":
        orbit = pkg.Orbit.AT_ZERO if spec.orbit == "0" else pkg.Orbit.AT_INFINITY
        return pkg.PointModule(spec.m, orbit)
    ps = pkg.PrincipalSeries(spec.lam, pkg.Parity(spec.parity))
    return pkg.W1Sub(ps) if spec.kind == "w1" else ps


def window_scan_specs(rng: random.Random, ps_parity: str) -> List[Spec]:
    q = rng.choice((3, 5, 7))
    specs = [Spec("ps", _fraction_in(rng, Fraction(0), Fraction(8), q), ps_parity)]
    specs.append(Spec("point", m=rng.randrange(9), orbit=rng.choice(("0", "inf"))))
    parity = rng.choice(("even", "odd"))
    specs.append(Spec("w1", _integer_in(rng, Fraction(2), Fraction(13), parity == "even"),
                      parity))
    return specs


def window_scan_jobs(pkg, seed: int, pass_index: int, round_index: int,
                     size: str) -> List[dict]:
    rng = rng_for("window_scan", seed, pass_index)
    # one principal series per pass keeps a pass near five seconds at the
    # seed; its parity alternates by round, so the untraced passes and the
    # traced passes of a run each time both parities from their second on
    specs = window_scan_specs(rng, ("even", "odd")[round_index % 2])
    sizes = SIZES[size]
    jobs = []
    for rung, bound in enumerate(sizes["ladder"]):
        for spec in specs:
            b = sizes["point_ladder"][rung] if spec.kind == "point" else bound
            jobs.append({"kind": "scan", "spec": spec, "obj": package_spec(pkg, spec),
                         "bound": b, "vectors": len(window(spec, b))})
    return jobs


def unitary_grid_jobs(pkg, seed: int, pass_index: int, size: str) -> List[dict]:
    rng = rng_for("unitary_grid", seed, pass_index)
    n, lam_max = SIZES[size]["grid_jobs"], SIZES[size]["grid_lam_max"]
    jobs = []
    for i in range(n):
        # the middle half of stratum i, so every pass has the same cost profile
        lo, hi = Fraction(lam_max * (4 * i + 1), 4 * n), Fraction(lam_max * (4 * i + 3), 4 * n)
        parity = rng.choice(("even", "odd"))
        kind = i % 4
        if kind == 0:  # reduction point
            lam = _integer_in(rng, lo, hi, odd=parity == "even")
        elif kind == 1:
            lam = _fraction_in(rng, lo, hi, LARGE_PRIME)
        elif kind == 2:
            lam = _fraction_in(rng, lo, hi, rng.choice((2, 3, 5, 7)))
        else:  # irreducible integer
            lam = _integer_in(rng, lo, hi, odd=parity == "odd")
        jobs.append(grid_job(pkg, lam, parity, rng.choice(EPSILONS)))
    return jobs


def grid_job(pkg, lam: Fraction, parity: str, epsilon: Fraction) -> dict:
    spec = Spec("ps", lam, parity)
    job = {"kind": "grid", "lam": lam, "parity": parity, "obj_parity": pkg.Parity(parity),
           "epsilon": epsilon, "bound": GRID_BOUND}
    # classify sweeps each constituent's definiteness window
    vectors = sum(_definiteness_scan(part) for part in constituents(lam, parity))
    if not reducible(lam, parity):
        job["obj"] = package_spec(pkg, spec)
        vectors += len(window(spec, GRID_BOUND))
    elif lam > 0:
        vectors += len(window(Spec("ps", lam - epsilon, parity), GRID_BOUND))
    job["vectors"] = vectors
    return job


def _definiteness_scan(spec: Spec) -> int:
    if spec.kind == "point":
        return len(window(spec, 2))
    if spec.kind == "w1":
        return len(window(spec, int(spec.lam)))
    tail = -(-(spec.lam + 1) // 2) + 1
    return len(window(spec, int(tail)))


def cli_batch_jobs(seed: int, pass_index: int) -> List[dict]:
    rng = rng_for("cli_batch", seed, pass_index)
    fmt = FORMATS[pass_index % len(FORMATS)]

    def ps_spec():
        return Spec("ps", _fraction_in(rng, Fraction(0), Fraction(6), rng.choice((2, 3, 5))),
                    rng.choice(("even", "odd")))

    def spec_flags(spec: Spec) -> List[str]:
        if spec.kind == "point":
            return ["--point-m", str(spec.m), "--orbit", spec.orbit]
        return ["--lambda", str(spec.lam), "--parity", spec.parity]

    jobs = []

    def add(command, argv, spec=None, bound=None, **extra):
        jobs.append({"kind": "cli", "command": command, "format": fmt,
                     "argv": [command] + argv + ["--output", fmt], "spec": spec,
                     "bound": bound, "expected_rc": 0, **extra})

    for command in ("describe", "form-table", "verify"):
        spec = ps_spec()
        add(command, spec_flags(spec) + ["--bound", str(CLI_BOUND)], spec, CLI_BOUND)
    parity = rng.choice(("even", "odd"))
    lam0 = _integer_in(rng, Fraction(1), Fraction(10), odd=parity == "even")
    eps = rng.choice(EPSILONS)
    add("jantzen", ["--lambda", str(lam0), "--parity", parity, "--epsilon", str(eps),
                    "--bound", str(CLI_BOUND)], lam=lam0, parity=parity, epsilon=eps,
        bound=CLI_BOUND)
    parity = rng.choice(("even", "odd"))
    if rng.random() < 0.5:
        lam = _integer_in(rng, Fraction(0), Fraction(20), odd=parity == "even")
    else:
        lam = ps_spec().lam
    add("classify", ["--lambda", str(lam), "--parity", parity], lam=lam, parity=parity)
    add("oracle", [])
    point = Spec("point", m=rng.randrange(6), orbit=rng.choice(("0", "inf")))
    add("form-table", spec_flags(point) + ["--bound", str(CLI_BOUND), "--out", CLI_OUT_FILE],
        point, CLI_BOUND, out_file=CLI_OUT_FILE)
    jobs.append(rng.choice(usage_errors()))
    for job in jobs:
        job["vectors"] = 0 if job.get("usage_error") else vectors_in_cli_output(job)
    return jobs


def usage_errors() -> List[dict]:
    """Argument vectors the CLI must refuse with exit code 2."""
    argvs = (
        ["form-table", "--lambda", "0.5", "--parity", "even"],  # float syntax
        ["verify", "--lambda", "3", "--parity", "even"],  # reduction point
        ["classify", "--lambda", "1/2"],  # missing parity
        ["describe", "--lambda", "1/0", "--parity", "odd"],  # zero denominator
        ["no-such-command"],
    )
    return [{"kind": "cli", "command": argv[0], "format": None, "argv": argv,
             "expected_rc": 2, "usage_error": True} for argv in argvs]


def cli_defect_jobs() -> List[dict]:
    """``--out`` into a missing directory: the seed exits 1 with a traceback."""
    return [{"kind": "cli", "command": "form-table", "format": "json",
             "argv": ["form-table", "--lambda", "1/2", "--parity", "even",
                      "--output", "json", "--out", ".bench_work/missing-dir/out.txt"],
             "expected_rc": 2, "usage_error": True}]


def build_jobs(pkg, workload: str, seed: int, pass_index: int, round_index: int,
               size: str) -> List[dict]:
    """Inputs of one pass.  ``round_index`` counts passes of one kind (untraced
    or traced); a --trace 1 run alternates the two kinds."""
    if workload == "window_scan":
        return window_scan_jobs(pkg, seed, pass_index, round_index, size)
    if workload == "unitary_grid":
        return unitary_grid_jobs(pkg, seed, pass_index, size)
    return cli_batch_jobs(seed, pass_index)


# ---------------------------------------------------------------------------
# in-process job runners; they look functions up on the package modules at
# call time, so a tracer that patched those modules sees every call

def run_suite(pkg, obj, bound: int) -> dict:
    return {
        "verify": pkg.analysis.verify_conjecture(obj, bound),
        "bracket": pkg.modules.bracket_check(obj, bound),
        "theta": pkg.modules.theta_check(obj, bound),
        "invariance": pkg.forms.invariance_check(obj, bound),
    }


def run_form_table(pkg, obj, bound: int) -> list:
    forms, filtrations = pkg.forms, pkg.filtrations
    return [(v.index.twice, forms.form_diagonal(v, obj), forms.gR_form_diagonal(v, obj),
             filtrations.hodge_level(v, obj))
            for v in pkg.modules.basis_window(obj, bound)]


def run_scan_job(pkg, job: dict) -> dict:
    out = run_suite(pkg, job["obj"], job["bound"])
    out["table"] = run_form_table(pkg, job["obj"], job["bound"])
    return out


def run_grid_job(pkg, job: dict) -> dict:
    out = {"classify": pkg.analysis.classify(job["lam"], job["obj_parity"])}
    if "obj" in job:
        out.update(run_suite(pkg, job["obj"], job["bound"]))
    elif job["lam"] > 0:
        out["jantzen"] = pkg.analysis.jantzen_crossing(
            job["lam"], job["obj_parity"], job["epsilon"], job["bound"])
    return out
