#!/usr/bin/env python3
"""Benchmark: the cost of certifying the regularity identity with fihomlab.

    python3 perfbench/run.py --workload verify-f5 --seed 1 --seconds 36 --trace 0

The job files of the workload are generated from the seed and run through
the command line, in this process, as ``fihomlab.cli.main(["run", job,
"--out", dir])``.  Every report is checked against closed forms (see
checks.py).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary for
people goes to standard error.  README.md describes the workloads and
metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"          # scratch files and traces of the runs
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# set-up is timed at least 3 and at most 9 times, and again while the
# samples add up to less than SETUP_BUDGET_S seconds
SETUP_BUDGET_S = 3.0
# warm passes in an untraced round, as described in Bench.round
WARM_MIN_S = 1.0
WARM_MAX = 9
# timing.txt lines look like "verify Mix: 1.234s"
TIMING_LINE = re.compile(r"^(\S+) (\S+): ([0-9.]+)s")


def load_program():
    """fihomlab from this checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "fihomlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fihomlab sources under {src}")
    sys.path.insert(0, str(src))
    return {name: importlib.import_module(f"fihomlab.{name}")
            for name in ("cli", "jobspec", "runner")}


class Bench:
    """One workload's job files in a scratch directory, and the passes over them."""

    def __init__(self, program, workload, seed, work):
        self.cli_main = program["cli"].main
        self.program = program
        self.work = work
        self.jobs = workloads.generate(workload, seed)
        self.paths = []
        for job in self.jobs:
            path = work / "jobs" / f"{job.name}.job"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(job.text)
            self.paths.append(path)
        self.with_truncated_cache = workload == "verify-f5"
        self.attempted = self.failed = 0
        self.wrong = []              # reasons, for outputs that failed a check
        self.crashed = []
        self.job_cold_s = {job.name: [] for job in self.jobs}

    # -- measured parts -----------------------------------------------

    def setup_seconds(self):
        """Parsing and object construction of every job, as ``run_job``
        does before it looks at the cache."""
        parse = self.program["jobspec"].parse_spec
        build = self.program["runner"].build_objects
        gc.collect()
        t0 = time.perf_counter()
        for job in self.jobs:
            build(parse(job.text))
        return time.perf_counter() - t0

    def run_pass(self, tag, cache):
        """Every job once through the command line; wall seconds and exit
        codes (None where the command raised)."""
        os.environ["FIHOMLAB_CACHE_DIR"] = str(cache)
        codes, each = [], []
        gc.collect()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            for job, path in zip(self.jobs, self.paths):
                t = time.perf_counter()
                try:
                    code = self.cli_main(["run", str(path), "--out",
                                          str(self.work / tag / job.name)])
                except Exception:
                    self.crashed.append(traceback.format_exc())
                    code = None
                codes.append(code)
                each.append(time.perf_counter() - t)
            wall = time.perf_counter() - t0
        return wall, codes, each

    def round(self, tracer=None):
        """A cold pass into an empty cache, then warm passes over the same
        cache; returns (cold wall, warm walls, slowest cold task).

        Untraced, the warm pass repeats until WARM_MIN_S seconds of it or
        WARM_MAX passes; traced, it runs once so that counts repeat.  Each
        task of the jobs is one operation of the round, failed when its cold
        output breaks a check or a warm report differs from the cold one."""
        if self.with_truncated_cache:
            self.truncated_cache_op()
        cache = self.work / "cache"
        if tracer is not None:
            tracer.install()
        try:
            cold, cold_codes, each = self.run_pass("cold", cache)
            warm, warm_codes = [], []
            while not warm or (tracer is None and len(warm) < WARM_MAX
                               and sum(warm) < WARM_MIN_S):
                wall, codes, _ = self.run_pass(f"warm{len(warm)}", cache)
                warm.append(wall)
                warm_codes.append(codes)
        finally:
            if tracer is not None:
                tracer.close()
        for job, s in zip(self.jobs, each):
            self.job_cold_s[job.name].append(s)
        slowest = self.check_round(cold_codes, warm_codes)
        for tag in ["cold", "cache"] + [f"warm{k}" for k in range(len(warm))]:
            shutil.rmtree(self.work / tag, ignore_errors=True)
        return cold, warm, slowest

    # -- checking -----------------------------------------------------

    def check_round(self, cold_codes, warm_codes):
        slowest = 0.0
        for k, job in enumerate(self.jobs):
            n = len(job.tasks)
            self.attempted += n
            codes = [cold_codes[k]] + [c[k] for c in warm_codes]
            if None in codes:
                self.failed += n
                continue
            cold_dir = self.work / "cold" / job.name
            cold_bytes = (cold_dir / "report.json").read_bytes()
            report = json.loads(cold_bytes)
            errors = checks.report_errors(report, job)
            window = any(t["status"] == "window" for t in report["tasks"])
            if codes[0] != (2 if window else 0):
                errors = [f"exit code {codes[0]}"] * n
            for w, code in enumerate(codes[1:]):
                warm = self.work / f"warm{w}" / job.name / "report.json"
                if code != codes[0] or warm.read_bytes() != cold_bytes:
                    errors = ["a warm report differs from the cold one"] * n
            for err in errors:
                if err is not None:
                    self.failed += 1
                    self.wrong.append(f"{job.name}: {err}")
            for line in (cold_dir / "timing.txt").read_text().splitlines():
                m = TIMING_LINE.match(line)
                if m and m.group(1) != "total":
                    slowest = max(slowest, float(m.group(3)))
        return slowest

    def truncated_cache_op(self):
        """Run a cheap task whose cache entry was cut to half its length
        first: one operation, failed unless the run gives the right report.
        Its time counts in no metric."""
        self.attempted += 1
        job = workloads.truncated_cache_job()
        d = self.work / "truncated"
        path = d / "job"
        d.mkdir(parents=True)
        path.write_text(job.text)
        os.environ["FIHOMLAB_CACHE_DIR"] = str(d / "cache")
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                self.cli_main(["run", str(path), "--out", str(d / "fill")])
                for entry in (d / "cache").rglob("*"):
                    if entry.is_file():
                        data = entry.read_bytes()
                        entry.write_bytes(data[: len(data) // 2])
                try:
                    code = self.cli_main(["run", str(path), "--out", str(d / "out")])
                except Exception as exc:  # the fault this operation keeps in view
                    self.failed += 1
                    self.crashed.append(f"truncated cache entry: {type(exc).__name__}: {exc}")
                    return
            report = json.loads((d / "out" / "report.json").read_text())
            errors = [e for e in checks.report_errors(report, job) if e]
            if code != 0 or errors:
                self.failed += 1
                self.wrong.append(f"truncated cache: exit {code} {errors}")
        finally:
            shutil.rmtree(d, ignore_errors=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(bench, seconds):
    samples = []
    while len(samples) < 3 or (sum(samples) < SETUP_BUDGET_S and len(samples) < 9):
        samples.append(bench.setup_seconds())
    setup = statistics.median(samples)
    deadline = time.perf_counter() + seconds
    rounds, longest = [], 0.0
    while True:
        t = time.perf_counter()
        rounds.append(bench.round())
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() + longest > deadline:
            break
    cold, warm, slowest = zip(*rounds)
    warm = [w for walls in warm for w in walls]
    metrics = {
        "wall_s": metric(statistics.median(cold), "s"),
        "setup_s": metric(setup, "s"),
        "slowest_task_s": metric(statistics.median(slowest), "s"),
        "rerun_s": metric(statistics.median(warm), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, cold


def measure_traced(bench, trace_path):
    """One untraced round, then one traced round; the per-layer metrics
    come from the traced round alone, so its counts repeat exactly."""
    untraced, _, _ = bench.round()
    tracer = Tracer()
    traced, _, _ = bench.round(tracer)
    metrics = {name: metric(v, unit) for name, (v, unit) in tracer.metrics().items()}
    metrics["trace.wall_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - untraced, "s")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    return metrics, (untraced, traced)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the untraced run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = load_program()
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        bench = Bench(program, args.workload, args.seed, work)
        if args.trace:
            trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
            metrics, cold = measure_traced(bench, trace_path)
        else:
            metrics, cold = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log = sys.stderr
    print(f"{args.workload} seed {args.seed}: {len(cold)} rounds, "
          f"{bench.failed}/{bench.attempted} operations failed", file=log)
    print("  cold passes: " + " ".join(f"{c:.3f} s" for c in cold), file=log)
    for name, times in bench.job_cold_s.items():
        print(f"  {name}: cold pass {statistics.median(times):.3f} s (median)", file=log)
    reasons = dict.fromkeys(m.strip().splitlines()[-1] for m in bench.crashed + bench.wrong)
    for msg in list(reasons)[:5]:
        print(f"  failure: {msg}", file=log)
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
