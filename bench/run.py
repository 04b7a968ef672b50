"""Layered benchmark for su11hodge.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--size full|tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload (see ``workloads.py``) is a closed loop
with one caller, run one job at a time.  A run:

1. times set-up: fresh interpreters that import the package and build the
   workload's inputs (median of several);
2. runs passes of the workload's job list for about S seconds (by default
   ``run_seconds`` of BENCHMARK.json), checking every output against
   ``reference.py`` as soon as its job returns, outside the timed region.
   window_scan and unitary_grid run their passes in a fresh worker process
   (this script with ``--worker``), so peak memory is that worker's alone;
   cli_batch runs one CLI process per job;
3. runs the known-defect probes, outside the timed region;
4. prints every metric by name with its unit and sample count, a ``meta``
   line, and as its last line one JSON object with the keys correct,
   attempted, failed and metrics.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off.  They are CPU times: of the worker's thread for
the in-process workloads, of the child process (user and system, all its
threads) for CLI calls and set-up.  Each job's and each set-up's CPU time
is divided by the mean of the host-speed probes (``hostspeed.py``) taken
just before and after it, in units of ``ref``; setup_s is the median of its
ratios in seconds at the nominal probe time.  pass_ref and the job quantiles
are taken per pass and averaged over the untraced passes; vectors_per_ref is
their vectors over their summed ``ref``.  The report also prints every
figure in plain seconds, wall and CPU.

With ``--trace 1`` passes alternate untraced and traced; the traced ones
wrap the package's public functions in spans (``spans.py``) and the metrics
are the per-layer ones.  Counts come from the
first traced pass, so they repeat exactly at a fixed seed; times are
medians over traced passes.  Spans and the full result are written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path
from typing import List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = {"full": 5, "tiny": 1}
HARD_CAP_S = 120.0  # stop starting passes after this long, whatever --seconds says

import hostspeed  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, SPAN_CAP, Tracer, write_spans  # noqa: E402


@dataclass
class PassResult:
    traced: bool
    wall: float  # timed region only
    job_s: List[float]  # wall
    vectors: int
    cpu: float = 0.0  # timed region only
    job_cpu_s: List[float] = field(default_factory=list)
    job_ref: List[float] = field(default_factory=list)  # see local_ratios
    elapsed: float = 0.0  # including output checks
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)
    trace: Optional[dict] = None  # per-pass aggregates of a traced pass
    layer_s: Optional[dict] = None
    rss_kb: int = 0  # cli_batch: the largest CLI process of the pass
    probe_s: List[float] = field(default_factory=list)  # host-speed probes of the pass
    scaling_keys: List[str] = field(default_factory=list)  # window_scan: one per job


# ---------------------------------------------------------------------------
# child processes

def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_child(argv: List[str], env: dict):
    """Run argv to completion; return (exit code, stdout, stderr, wall s, CPU s,
    peak RSS kB), the CPU time being user and system over all the child's threads."""
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def measure_setup(workload: str, seed: int, size: str, repeats: int):
    """Wall and CPU times of fresh set-up processes, the import time each
    reports, and process probes taken before each counted set-up and after
    the last."""
    argv = [sys.executable, str(BENCH / "child_setup.py"), workload, str(seed), size]
    walls, cpus, imports, probes = [], [], [], []
    for i in range(repeats + 1):  # the first run compiles bytecode; it is not counted
        if i:
            probes.append(hostspeed.process_probe_s())
        rc, out, err, wall, cpu, _ = run_child(argv, child_env())
        if rc != 0:
            raise RuntimeError(f"set-up probe failed ({rc}):\n{err}")
        if i:
            walls.append(wall)
            cpus.append(cpu)
            imports.append(json.loads(out.splitlines()[-1])["import_s"])
    probes.append(hostspeed.process_probe_s())
    return walls, cpus, imports, probes


def measure_interpreter(repeats: int) -> List[float]:
    return [run_child([sys.executable, "-c", "pass"], child_env())[3] for _ in range(repeats)]


# ---------------------------------------------------------------------------
# passes

def local_ratios(times: List[float], probes: List[float],
                 before: Optional[List[int]] = None) -> List[float]:
    """Each time over the mean of the probe taken just before it and the next
    probe; ``before`` holds those probes' indices, by default one probe
    between every two times."""
    before = range(len(times)) if before is None else before
    return [t / ((probes[i] + probes[i + 1]) / 2) for t, i in zip(times, before)]


def merge(into: dict, snap: dict) -> None:
    for table in ("calls", "self_s", "incl_s", "counts"):
        dst = into.setdefault(table, defaultdict(float))
        for key, value in snap.get(table, {}).items():
            dst[key] += value


def layer_totals(snap: dict) -> dict:
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in snap.get("self_s", {}).items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += seconds
    return totals


def inprocess_pass(pkg, workload: str, jobs: List[dict],
                   tracer: Optional[Tracer]) -> PassResult:
    runner = workloads.run_scan_job if workload == "window_scan" else workloads.run_grid_job

    def call(job):
        return runner(pkg, job)

    if tracer is not None:
        tracer.reset()
        tracer.install(pkg)
        call = tracer.wrap("bench.job", call)
    result = PassResult(tracer is not None, 0.0, [], sum(j["vectors"] for j in jobs))
    result.probe_s.append(hostspeed.compute_probe_s())
    since_probe = 0.0
    probe_before = []
    for job in jobs:
        probe_before.append(len(result.probe_s) - 1)
        if tracer is not None:
            tracer.job += 1
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            out, err = call(job), None
        except Exception as exc:  # a failing job is counted, and the run goes on
            out, err = None, exc
        cpu = time.thread_time() - c0
        result.job_s.append(time.perf_counter() - t0)
        result.job_cpu_s.append(cpu)
        # checked at once and dropped, so that no output outlives its job
        record(result, job, err, None if err else check_inprocess(job, out))
        since_probe += cpu
        if since_probe >= hostspeed.COMPUTE_PROBE_EVERY_S:
            result.probe_s.append(hostspeed.compute_probe_s())
            since_probe = 0.0
    if since_probe:
        result.probe_s.append(hostspeed.compute_probe_s())
    result.wall = sum(result.job_s)
    result.cpu = sum(result.job_cpu_s)
    result.job_ref = local_ratios(result.job_cpu_s, result.probe_s, probe_before)
    if tracer is not None:
        tracer.uninstall()
        result.trace = tracer.snapshot()
        result.layer_s = layer_totals(result.trace)
    if workload == "window_scan":
        result.scaling_keys = [scaling_key(job) for job in jobs]
    return result


def check_inprocess(job: dict, out: dict) -> reference.Problems:
    if job["kind"] == "scan":
        return reference.check_scan(job["spec"], job["bound"], out)
    problems = reference.check_classify(job["lam"], job["parity"], out["classify"])
    if "verify" in out:
        problems.extend(reference.check_suite(reference.Spec("ps", job["lam"], job["parity"]),
                                              job["bound"], out))
    if "jantzen" in out:
        problems.extend(reference.check_jantzen(job["lam"], job["parity"], job["epsilon"],
                                                job["bound"], out["jantzen"]))
    return problems


def record(result: PassResult, job: dict, error, problems) -> None:
    result.attempted += 1
    if error is not None:
        result.failed += 1
        reason = error if isinstance(error, str) else f"raised {error!r}"
        result.problems.append(f"{describe(job)}: {reason}")
    elif problems:
        result.wrong += 1
        result.problems.append(f"{describe(job)}: {'; '.join(problems[:3])}")


def describe(job: dict) -> str:
    if "label" in job:
        return job["label"]
    if job["kind"] == "cli":
        return "su11hodge " + " ".join(job["argv"])
    if job["kind"] == "scan":
        return f"scan {job['spec'].label()} bound {job['bound']}"
    return f"grid lambda={job['lam']} {job['parity']}"


def cli_pass(index: int, jobs: List[dict], traced: bool, corpus, spans: list) -> PassResult:
    trace_path = WORK / "child-trace.json"
    merged: dict = {}
    imports, stages = [], defaultdict(list)
    outputs, times, cpus, rss = [], [], [], 0
    probes = [hostspeed.process_probe_s()]
    for position, job in enumerate(jobs):
        if traced:
            argv = [sys.executable, str(BENCH / "child_cli.py")] + job["argv"]
            env = child_env(BENCH_TRACE_OUT=str(trace_path))
        else:
            argv = [sys.executable, "-m", "su11hodge.cli"] + job["argv"]
            env = child_env()
        rc, out, err, seconds, cpu, maxrss = run_child(argv, env)
        times.append(seconds)
        cpus.append(cpu)
        rss = max(rss, maxrss)
        probes.append(hostspeed.process_probe_s())
        text = out
        if job.get("out_file"):
            path = ROOT / job["out_file"]
            text = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
        outputs.append((rc, out, err, text))
        if traced and trace_path.exists():
            snap = json.loads(trace_path.read_text())
            trace_path.unlink()
            call = index * len(jobs) + position + 1
            spans.extend([sid, parent, call, name, t0, t1]
                         for sid, parent, _, name, t0, t1 in snap.pop("spans"))
            del spans[SPAN_CAP:]
            merge(merged, snap)
            imports.append(snap["import_s"])
            for stage in ("parse_s", "render_s", "run_s"):
                stages[stage].append(snap[stage])
    result = PassResult(traced, sum(times), times, sum(j["vectors"] for j in jobs),
                        cpu=sum(cpus), job_cpu_s=cpus, rss_kb=rss, probe_s=probes,
                        job_ref=local_ratios(cpus, probes))
    if traced:
        merged["import_s"] = imports
        merged["stages"] = dict(stages)
        result.trace = merged
        result.layer_s = layer_totals(merged)
        result.layer_s["cli"] += sum(imports)
    for job, (rc, out, err, text) in zip(jobs, outputs):
        if corpus is not None and index < len(workloads.FORMATS):
            corpus.update(f"{rc}\n{out}\n{text if job.get('out_file') else ''}\n".encode())
        record(result, job, *check_cli(job, rc, out, err, text))
    return result


def check_cli(job: dict, rc: int, out: str, err: str, text: str):
    """(error, problems) for one CLI call: an unexpected exit code or a traceback fails it."""
    if rc != job["expected_rc"] or "Traceback" in err:
        last = err.strip().splitlines()[-1:] or [""]
        return f"exit {rc}, expected {job['expected_rc']}: {last[0]}", None
    if job.get("usage_error"):
        problems = reference.Problems()
        problems.expect(out == "", "usage error wrote to stdout")
        return None, problems
    problems = reference.check_cli_output(job, text)
    if job.get("out_file"):
        problems.expect(out == "", "--out also wrote to stdout")
    return None, problems


# ---------------------------------------------------------------------------
# known-defect probes: run after the timed passes, never in them

def run_probes(pkg, workload: str) -> PassResult:
    result = PassResult(False, 0.0, [], 0)
    if workload == "unitary_grid":
        for probe in workloads.GRID_DEFECTS:
            spec = probe["spec"]
            try:
                if probe["kind"] == "classify":
                    report = pkg.analysis.classify(spec.lam, pkg.Parity(spec.parity))
                    problems = reference.check_classify(spec.lam, spec.parity, report)
                else:
                    obj = workloads.package_spec(pkg, spec)
                    rows = workloads.run_form_table(pkg, obj, probe["bound"])
                    problems = reference.check_form_table(spec, probe["bound"], rows)
            except Exception as exc:  # the probe exists to count this
                record(result, probe, exc, None)
            else:
                record(result, probe, None, problems)
    elif workload == "cli_batch":
        for job in workloads.cli_defect_jobs():
            rc, out, err, _, _, _ = run_child(
                [sys.executable, "-m", "su11hodge.cli"] + job["argv"], child_env())
            record(result, job, *check_cli(job, rc, out, err, out))
    return result


# ---------------------------------------------------------------------------
# one workload

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_passes(pkg, name: str, seed: int, seconds: float, trace: bool, size: str):
    """Passes for about ``seconds``, then the probes; (passes, probes, corpus sha256)."""
    tracer = Tracer() if trace and pkg is not None else None
    spans = tracer.spans if tracer is not None else []
    corpus = hashlib.sha256() if name == "cli_batch" else None
    kinds = 2 if trace else 1  # a traced run alternates untraced and traced passes
    # cli_batch needs one pass per output format for a complete stdout corpus;
    # the in-process workloads need two rounds, one per window_scan parity
    min_passes = len(workloads.FORMATS) if name == "cli_batch" else 2 * kinds
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        t0 = time.perf_counter()
        jobs = workloads.build_jobs(pkg, name, seed, index, index // kinds, size)
        if name == "cli_batch":
            result = cli_pass(index, jobs, traced, corpus, spans)
        else:
            result = inprocess_pass(pkg, name, jobs, tracer if traced else None)
        result.elapsed = time.perf_counter() - t0
        passes.append(result)
        elapsed = time.perf_counter() - start
        next_traced = trace and len(passes) % 2 == 1
        like_next = [p.elapsed for p in passes if p.traced == next_traced] or [result.elapsed]
        if len(passes) >= min_passes and (elapsed + like_next[-1] > seconds
                                          or elapsed > HARD_CAP_S):
            break
    probes = run_probes(pkg, name)
    if trace:
        write_spans(WORK / f"spans-{name}-seed{seed}.jsonl", spans)
    return passes, probes, corpus.hexdigest() if corpus is not None else None


def run_worker(name: str, seed: int, seconds: float, trace: bool, size: str):
    """run_passes in a fresh process; its results and its peak RSS in kB."""
    path = WORK / f"worker-{name}.json"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--size", size, "--worker", str(path)]
    rc, _, err, _, _, rss_kb = run_child(argv, child_env())
    if rc != 0:
        raise RuntimeError(f"{name} worker failed ({rc}):\n{err}")
    data = json.loads(path.read_text())
    path.unlink()
    return [PassResult(**p) for p in data["passes"]], PassResult(**data["probes"]), rss_kb


def worker_main(args, seconds: float) -> int:
    import su11hodge as pkg
    passes, probes, _ = run_passes(pkg, args.workload, args.seed, seconds,
                                   bool(args.trace), args.size)
    Path(args.worker).write_text(json.dumps(
        {"passes": [asdict(p) for p in passes], "probes": asdict(probes)}))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 declared: dict) -> dict:
    repeats = SETUP_REPEATS[size]
    setup_walls, setup_cpus, setup_imports, setup_probes = measure_setup(
        name, seed, size, repeats)
    interpreter = measure_interpreter(repeats) if trace else []
    if name == "cli_batch":
        passes, probes, corpus = run_passes(None, name, seed, seconds, trace, size)
        rss_kb = max(p.rss_kb for p in passes if not p.traced)
        rss_samples = sum(len(p.job_s) for p in passes if not p.traced)
    else:
        passes, probes, rss_kb = run_worker(name, seed, seconds, trace, size)
        corpus, rss_samples = None, 1

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    checks = {
        "check.failed_ratio": (failed + probes.failed) / (attempted + probes.attempted),
        "check.wrong_ratio": (wrong + probes.wrong) / (attempted + probes.attempted),
    }
    job_count = sum(len(p.job_s) for p in untraced)

    def per_pass(fn):
        return median([fn(p) for p in untraced]), len(untraced)

    def pass_mean(fn):  # passes are few and their spread near normal: the mean is steadier
        return statistics.fmean([fn(p) for p in untraced]), len(untraced)

    values = {
        "setup_s": (hostspeed.PROCESS_PROBE_NOMINAL_S
                    * median(local_ratios(setup_cpus, setup_probes)), len(setup_cpus)),
        "pass_ref": pass_mean(lambda p: sum(p.job_ref)),
        "vectors_per_ref": (sum(p.vectors for p in untraced)
                            / sum(x for p in untraced for x in p.job_ref), len(untraced)),
        "job_p50_ref": (pass_mean(lambda p: median(p.job_ref))[0], job_count),
        "job_p90_ref": (pass_mean(lambda p: p90(p.job_ref))[0], job_count),
        "rss_peak_mb": (rss_kb / 1024, rss_samples),
    }
    # the same figures in plain seconds, printed for reference; they drift with host load
    seconds_view = {
        "setup_s": median(setup_walls),
        "setup_cpu_s": median(setup_cpus),
        "setup_probe_cpu_s": median(setup_probes),
        "wall_s": per_pass(lambda p: p.wall)[0],
        "cpu_s": per_pass(lambda p: p.cpu)[0],
        "vectors_per_s": per_pass(lambda p: p.vectors / p.wall)[0],
        "job_p50_s": per_pass(lambda p: median(p.job_s))[0],
        "job_p90_s": per_pass(lambda p: p90(p.job_s))[0],
        "probe_cpu_s": median([x for p in untraced for x in p.probe_s]),
    }
    if trace:
        values.update(per_layer(name, traced_passes, untraced, setup_imports, interpreter))
        values.update({k: (v, attempted + probes.attempted) for k, v in checks.items()})
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        key = metric["name"]
        if key not in values and trace and key.endswith(UNCALLED_ZERO):
            values[key] = (0.0 if key.endswith("_s") else 0, len(traced_passes))
        value, samples = values[key]
        metrics[key] = {"value": value, "unit": metric["unit"], "samples": samples}
    return {
        "workload": name,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "problems": [x for p in passes for x in p.problems][:20],
        "probes": {"attempted": probes.attempted, "failed": probes.failed,
                   "wrong": probes.wrong, "problems": probes.problems},
        "checks": checks,
        "metrics": metrics,
        "seconds_view": seconds_view,
        "pass_log": [{"traced": p.traced, "wall": p.wall, "cpu": p.cpu, "vectors": p.vectors,
                      "job_s": p.job_s, "job_cpu_s": p.job_cpu_s, "probe_s": p.probe_s,
                      "job_ref": p.job_ref}
                     for p in passes],
        "scaling": scaling(untraced) if name == "window_scan" else None,
        "cli_corpus_sha256": corpus,
    }


# per-layer counts and times of functions a workload never calls read 0
UNCALLED_ZERO = (".calls", ".self_s", ".vectors", ".scan_vectors", ".ratio_bits")


def per_layer(name: str, traced: List[PassResult], untraced: List[PassResult],
              setup_imports: List[float], interpreter: List[float]) -> dict:
    first = traced[0].trace
    n = len(traced)
    calls, counts = first["calls"], first["counts"]
    values = {}

    def timed(fn):
        return median([fn(p) for p in traced]), n

    for fname in {k for p in traced for k in p.trace["self_s"]}:
        values[f"{fname}.self_s"] = timed(lambda p, f=fname: p.trace["self_s"].get(f, 0.0))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = timed(lambda p, x=layer: p.layer_s[x])
    for fname, value in calls.items():
        values[f"{fname}.calls"] = (int(value), 1)
    for key, value in counts.items():
        values[key] = (int(value), 1)
    form_values = calls.get("forms.form_diagonal", 0)
    values["forms.steps_per_form"] = (
        calls.get("forms.continuation_ratio", 0) / form_values if form_values else 0.0, 1)
    traced_wall = median([p.wall for p in traced])
    values["trace.wall_s"] = (traced_wall, n)
    values["host.probe_s"] = (median([x for p in traced for x in p.probe_s]),
                              sum(len(p.probe_s) for p in traced))
    values["trace.unaccounted_s"] = timed(lambda p: p.wall - sum(p.layer_s.values()))
    values["trace.overhead_s"] = (traced_wall - median([p.wall for p in untraced]), n)
    values["cli.interpreter_s"] = (median(interpreter), len(interpreter))
    if name == "cli_batch":
        imports = [x for p in traced for x in p.trace["import_s"]]
        values["cli.import_s"] = (median(imports), len(imports))
        for stage in ("parse_s", "run_s", "render_s"):
            samples = [x for p in traced for x in p.trace["stages"][stage]]
            values[f"cli.{stage}"] = (median(samples), len(samples))
    else:
        values["cli.import_s"] = (median(setup_imports), len(setup_imports))
        for stage in ("parse_s", "run_s", "render_s"):
            values[f"cli.{stage}"] = (0.0, 0)
    return values


def scaling_key(job: dict) -> str:
    spec = job["spec"]
    kind = spec.kind if spec.kind == "point" else f"{spec.kind}-{spec.parity}"
    return f"{kind}@{job['bound']}"


def scaling(passes: List[PassResult]) -> dict:
    """Median job time per spec kind and window bound: the curve in the bound."""
    times = defaultdict(list)
    for p in passes:
        for key, seconds in zip(p.scaling_keys, p.job_s):
            times[key].append(seconds)
    return {key: round(median(v), 6) for key, v in times.items()}


# ---------------------------------------------------------------------------
# entry point

def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_meta(seed: int, seconds: float, args, results: List[dict]) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scipy": scipy_version,
        "src_lines": src_line_count(),
        "cli_corpus_sha256": next((r["cli_corpus_sha256"] for r in results
                                   if r["cli_corpus_sha256"]), None),
    }


def print_report(result: dict) -> None:
    print(f"== {result['workload']}: passes {result['passes']} "
          f"(traced {result['traced_passes']}), jobs attempted {result['attempted']}, "
          f"failed {result['failed']}, wrong {result['wrong']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:8s} n={m['samples']}")
    print("  in seconds: " + ", ".join(f"{k}={v:.6g}" for k, v in result["seconds_view"].items()))
    probes = result["probes"]
    print(f"  known-defect probes: attempted {probes['attempted']}, "
          f"failed {probes['failed']}, wrong {probes['wrong']}")
    for line in probes["problems"]:
        print(f"    {line}")
    for name, value in result["checks"].items():
        print(f"  {name:40s} {value:>14.6g} ratio    (timed jobs and probes)")
    for line in result["problems"]:
        print(f"  WRONG {line}")
    if result["scaling"]:
        print("  scaling (median job s): " + ", ".join(
            f"{k}={v:g}" for k, v in result["scaling"].items()))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark for su11hodge.")
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    # internal: run one in-process workload's passes and write them to PATH
    parser.add_argument("--worker", metavar="PATH", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "su11hodge" / "__init__.py").is_file():
        print(f"error: no su11hodge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import su11hodge
    if not Path(su11hodge.__file__).resolve().is_relative_to(SRC):
        print(f"error: su11hodge imported from {su11hodge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    WORK.mkdir(exist_ok=True)
    if args.worker:
        return worker_main(args, seconds)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, seconds, bool(args.trace), args.size,
                            declared) for name in names]
    meta = run_meta(args.seed, seconds, args, results)
    for result in results:
        print_report(result)
    print("meta " + json.dumps(meta, sort_keys=True))
    tag = args.workload if len(names) == 1 else "all"
    (WORK / f"result-{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "results": results}, indent=1, default=str))
    prefix = len(names) > 1
    final = {
        "correct": all(r["failed"] == 0 and r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name):
                {"value": m["value"], "unit": m["unit"]}
            for r in results for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
