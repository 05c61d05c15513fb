"""Benchmark of the `distortion` CLI on seeded batches of real jobs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Jobs go in-process through
`distortion.cli.main(argv)` in a closed loop with one client: each job starts
when the previous one returns, in this one process.  The run repeats the
workload's fixed batch until the next batch would end after `--seconds`, then
checks every output with code that shares nothing with the package (see
`checks.py`).  The last line of stdout is one JSON object:

  --trace 0  end-to-end metrics:
             batch_s      median over the batches of the sum of their job
                          latencies, at nominal machine speed (see below)
             job_p50_s    median job latency over all jobs of the run, at
                          nominal machine speed
             setup_s      median of three set-ups (import, inputs, warm-up),
                          at nominal machine speed
             peak_rss_mb  peak resident memory of this process
             ok_frac      jobs that passed every check / jobs attempted
  --trace 1  per-layer metrics from spans around calls into the package
             (see `tracing.py`), medians over the batches, plus the traced
             batch time; its excess over batch_s is the tracing overhead.

The machines this runs on share cores, whose speed drifts by up to half for
seconds at a time.  So each job's latency is divided by the speed factor
measured while it ran: `monitor.py` times a fixed reference kernel every
50 ms on the jobs' core.  Set-up times are scaled the same way.  The raw wall
times and the kernel samples are kept in the run record.

A record of the run (environment, per-job digests, check results and, when
traced, per-layer tables) goes to .perfbench/results/ and the spans to a
gzipped file beside it.  Inputs are written under .perfbench/work/ and
removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# one process, and no thread pools behind numpy: the checks' eigenvalue calls
# would otherwise start one BLAS thread per core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from checks import check_job  # noqa: E402
from monitor import Monitor  # noqa: E402
from tracing import UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import BUILDERS  # noqa: E402

MODULES = ("exact", "symplectic", "exterior", "mapclass", "engine", "oracle", "cli")
SETUP_REPS = 3


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in a fixed order."""
    names = layer_metrics({})
    out = {name: UNITS[name.rsplit(".", 1)[1]] for name in names}
    out["trace.batch_s"] = "s"
    return out


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_package():
    """Import the package afresh, so every set-up pays for its imports."""
    for name in list(sys.modules):
        if name == "distortion" or name.startswith("distortion.") or name == "gen_psi_tables":
            del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"distortion.{name}") for name in MODULES}
    spec = importlib.util.spec_from_file_location("gen_psi_tables", ROOT / "tools" / "gen_psi_tables.py")
    tools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tools)
    return SimpleNamespace(root=ROOT, gen_psi_tables=tools, **mods)


def inputs_digest(jobs, warmups, work: Path) -> str:
    h = hashlib.sha256(json.dumps([j.argv for j in jobs] + warmups).encode())
    for path in sorted(work.iterdir()):
        if path.suffix == ".json":
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def setup(workload: str, seed: int, work: Path):
    """One set-up: import, generate the inputs, run the warm-up jobs."""
    t0 = perf_counter()
    pkg = load_package()
    jobs, warmups = BUILDERS[workload](random.Random(seed), work, pkg)
    failures = []
    for argv in warmups:
        rc, _, _ = run_job(pkg.cli, argv)
        if rc not in (0, 1):
            failures.append(f"warm-up job {argv} exited with {rc}")
    return perf_counter() - t0, pkg, jobs, warmups, failures


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def run_job(cli, argv):
    """(exit code or an error string, stdout, seconds) of one CLI call."""
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:           # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                   # counted as a failed job, never fatal
        rc = "exception: " + traceback.format_exc(limit=3)
    return rc, out.getvalue(), perf_counter() - t0


def report_digest(report: dict, job, work: Path) -> str:
    """sha256 of the report without `timestamp` and without temp paths, plus
    the ball file a bfs job wrote."""
    r = {k: v for k, v in report.items() if k != "timestamp"}
    r["config"] = {k: v for k, v in report.get("config", {}).items()
                   if not (isinstance(v, str) and v.startswith(str(work)))}
    if job.ball:
        r["result"] = {k: v for k, v in report["result"].items() if k != "ball_file"}
        r["ball_sha256"] = hashlib.sha256(Path(job.ball).read_bytes()).hexdigest()
    return hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()


def measure(cli, jobs, seconds: float, work: Path, tracer=None):
    """Run whole batches until the next one would end after `seconds`.
    Each job's record keeps its latencies and (start, end) perf_counter
    readings, for scaling by the machine speed measured meanwhile."""
    batches = []
    records = [{"latency_s": [], "interval": [], "rc": [], "digest": []} for _ in jobs]
    first_reports = []
    batch_of_job = {}
    spent = 0.0
    while True:
        b = len(batches)
        gc.collect()
        total = 0.0
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = b * len(jobs) + k
                batch_of_job[tracer.job] = b
            start = perf_counter()
            rc, out, dt = run_job(cli, job.argv)
            total += dt
            rec = records[k]
            rec["latency_s"].append(dt)
            rec["interval"].append((start, perf_counter()))
            rec["rc"].append(rc)
            report = json.loads(out) if out.startswith("{") else None
            rec["digest"].append(report_digest(report, job, work) if report else None)
            if b == 0:
                first_reports.append(report)
        batches.append(total)
        spent += total
        if spent + statistics.mean(batches) > seconds:
            return batches, records, first_reports, batch_of_job


def check_all(jobs, records, first_reports):
    """Check every job of the first batch; a later run of a job passes only
    with the same exit code and the same digest as its checked first run."""
    failed = 0
    validated = set()
    for job, rec, report in zip(jobs, records, first_reports):
        rec["problems"] = check_job(job, rec["rc"][0], report, validated)
        if rec["problems"]:
            failed += len(rec["rc"])
            continue
        for rc, dig in zip(rec["rc"][1:], rec["digest"][1:]):
            if rc != rec["rc"][0] or dig != rec["digest"][0]:
                rec["problems"].append(f"a repeat gave exit {rc} and digest {dig}")
                failed += 1
    return failed


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def git_revision():
    """HEAD of a git checkout, read without running git; None elsewhere."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources and data and the table generator, so
    a run identifies its program even in a checkout without git."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src" / "distortion").rglob("*.py")) \
        + sorted((ROOT / "src" / "distortion" / "data").glob("*.json")) \
        + [ROOT / "tools" / "gen_psi_tables.py"]
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "load": "closed loop, one client, one process",
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "distortion" / "cli.py").is_file():
        print(f"no distortion sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # one CPU for the jobs and the monitor, so the monitor measures the speed
    # of the core the jobs run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with Monitor() as monitor:
            setups = []
            digests = set()
            for _ in range(SETUP_REPS):
                start = perf_counter()
                dt, pkg, jobs, warmups, warmup_failures = setup(args.workload, args.seed, work)
                setups.append(dt / monitor.speed_factor(start, perf_counter()))
                digests.add(inputs_digest(jobs, warmups, work))
            if len(digests) != 1:
                print("the same seed produced different inputs", file=sys.stderr)
                return 1

            tracer = None
            if args.trace:
                tracer = Tracer({name: getattr(pkg, name) for name in MODULES}, monitor)
                tracer.install()
            try:
                batches, records, first_reports, batch_of_job = measure(
                    pkg.cli, jobs, args.seconds, work, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = check_all(jobs, records, first_reports)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a warm-up job that fails counts as one more failed job
    attempted = len(jobs) * len(batches) + len(warmup_failures)
    failed += len(warmup_failures)
    # each job is scaled by the machine speed measured while it ran
    for rec in records:
        rec["nominal_s"] = [dt / monitor.speed_factor(*iv)
                            for dt, iv in zip(rec["latency_s"], rec.pop("interval"))]
    nominal_batches = [sum(rec["nominal_s"][b] for rec in records) for b in range(len(batches))]
    speed = [wall / nominal for wall, nominal in zip(batches, nominal_batches)]
    latencies = [dt for rec in records for dt in rec["nominal_s"]]
    if args.trace:
        per_batch = tracer.per_batch(batch_of_job)
        values = [layer_metrics(b, f) for b, f in zip(per_batch, speed)]
        metrics = {name: metric(statistics.median(v[name] for v in values), unit)
                   for name, unit in per_layer_units().items() if name != "trace.batch_s"}
        metrics["trace.batch_s"] = metric(statistics.median(nominal_batches), "s")
    else:
        metrics = {
            "batch_s": metric(statistics.median(nominal_batches), "s"),
            "job_p50_s": metric(statistics.median(latencies), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ok_frac": metric((attempted - failed) / attempted, "1"),
        }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "settings": {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                     "setup_reps": SETUP_REPS},
        "setup_s": setups,
        "batch_wall_s": batches,
        "batch_speed_factor": speed,
        "batch_nominal_s": nominal_batches,
        "reference_samples_s": monitor.samples,
        "jobs_per_batch": len(jobs),
        "warmup_failures": warmup_failures,
        "jobs": [{"name": job.name,
                  "argv": [a.replace(str(work), "<work>") for a in job.argv],
                  "expect_rc": job.expect_rc,
                  **{k: v for k, v in rec.items() if k != "rc"},
                  "rc": [rc if isinstance(rc, int) else "exception" for rc in rec["rc"]]}
                 for job, rec in zip(jobs, records)],
        "metrics": metrics,
    }
    if args.trace:
        record["layers_per_batch"] = values
        record["first_batch"] = tracer.breakdown(0, batch_of_job, [job.name for job in jobs])
        tracer.write(out_dir / f"{stem}-spans.jsonl.gz", [job.name for job in jobs])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for problem in warmup_failures:
        print(f"FAILED {problem}")
    for job, rec in zip(jobs, records):
        for problem in rec["problems"]:
            print(f"FAILED {job.name}: {problem}")
    print(f"{args.workload}: {len(batches)} batches of {len(jobs)} jobs, "
          f"wall {[round(b, 3) for b in batches]} s, speed {[round(f, 3) for f in speed]}, "
          f"setup {[round(s, 3) for s in setups]} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
