"""Job execution: build the named objects of a job spec and run its tasks.

Exit-code convention (shared with the command line driver): 0 everything
verified, 1 a verification failed, 2 the window was insufficient for a
certified answer, 3 invalid input, 4 an internal failure (a broken
invariant or oracle: a bug, never the input's fault); see
:func:`failure_status`.  Task results are cached by a content
hash of (package version, report schema, field, window, policy,
construction), so entries written by another version or in another report
layout are misses; set ``FIHOMLAB_CACHE_DIR``
to choose the cache location.  A corrupt entry counts as a miss.

A job whose tasks all hit is answered from the cache without building its
objects, provided its build is on record: one more entry, keyed by the
construction of every object of the job, that is written only after
:func:`build_objects` succeeded and every task gave a cacheable result.
Otherwise the job is built eagerly, so a build failure is reported the same
whatever the cache holds.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from ._version import __version__
from .fimod import (
    FIModule,
    InputError,
    WindowExhausted,
    cokernel,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_shift,
    fi_torsion_concentrated,
    fi_truncate,
    image,
    induced_morphism,
    kernel,
)
from .good_ideal import default_p, good_ideal, verify_good_ideal
from .jobspec import JobSpec
from .linalg import Matrix
from .loccoh import local_cohomology, nu_certificate, verify_main_theorem
from .report import (
    REPORT_SCHEMA,
    lcoh_data,
    nu_certs_data,
    regularity_data,
    render_task_text,
    theorem_data,
    tor_table_data,
)
from .reps import basic_rep
from .tor import koszul_strand, regularity, strand_homology_dim, tor_table, verify_equivariance

INF = math.inf

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_WINDOW_INSUFFICIENT = 2
EXIT_INVALID_INPUT = 3
EXIT_INTERNAL = 4
# a job exits with the code of its gravest task, in this order of gravity
GRAVITY = (EXIT_OK, EXIT_WINDOW_INSUFFICIENT, EXIT_VERIFICATION_FAILURE,
           EXIT_INVALID_INPUT, EXIT_INTERNAL)

# statuses whose results are cached; "invalid" and "internal" are
# recomputed every time
CACHED_STATUSES = ("ok", "fail", "window")


@dataclass
class TaskResult:
    task: str
    module: str | None
    status: str          # ok | fail | window | invalid | internal
    data: dict
    seconds: float
    cached: bool = False

    @property
    def exit_code(self):
        return {"ok": EXIT_OK, "fail": EXIT_VERIFICATION_FAILURE,
                "window": EXIT_WINDOW_INSUFFICIENT,
                "invalid": EXIT_INVALID_INPUT,
                "internal": EXIT_INTERNAL}[self.status]


@dataclass
class RunResult:
    job: JobSpec
    results: list
    seconds: float

    @property
    def exit_code(self):
        return max((r.exit_code for r in self.results), key=GRAVITY.index,
                   default=EXIT_OK)

    def report_dict(self) -> dict:
        return {
            "field": self.job.field.name,
            "window": self.job.window,
            "policy": dict(sorted(self.job.policy.items())),
            "tasks": [
                {"task": r.task, "module": r.module, "status": r.status,
                 "data": r.data}
                for r in self.results
            ],
        }

    def report_text(self) -> str:
        parts = [f"field {self.job.field.name}, window {self.job.window}"]
        for r in self.results:
            parts.append(render_task_text(r.task, r.module, r.data))
            parts.append(f"-- status: {r.status}")
        return "\n\n".join(parts) + "\n"

    def timing_text(self) -> str:
        lines = [
            f"{r.task} {r.module or '-'}: {r.seconds:.6f}s"
            + (" (cached)" if r.cached else "")
            for r in self.results
        ]
        lines.append(f"total: {self.seconds:.6f}s")
        return "\n".join(lines) + "\n"


def build_objects(job: JobSpec) -> dict:
    """Materialize every module and morphism of a job, in order.

    A rep is built when the first module or morphism names it, and never
    when none does: a regular rep of degree d has dimension d!.  Within
    one call, names whose constructions expand alike (:func:`_closure_key`)
    share one object, verified once and with one strand cache, as do the
    ``induced`` modules and morphism sources I(V) of one V and window.
    """
    field, window = job.field, job.window
    built: dict = {}
    shared: dict = {}

    def share(key, make):
        if key not in shared:
            shared[key] = make()
        return shared[key]

    def rep(name):
        kind, deg = job.reps[name]
        return share(_closure_key(job, name), lambda: basic_rep(kind, deg, field))

    def free(repname, w):
        return share(("induced", _closure_key(job, repname), w),
                     lambda: fi_induced(rep(repname), w))

    def make(name):
        if name in job.morphisms:
            _, repname, target, entries = job.morphisms[name]
            V = rep(repname)
            f0 = Matrix.from_rows(field, entries, ncols=V.dim)
            T = built[target]   # a shift has a smaller window
            return induced_morphism(V, T, f0, source=free(repname, T.window))
        spec = job.modules[name]
        form = spec[0]
        if form == "constant":
            return fi_constant(field, window)
        if form == "induced":
            deg = job.reps[spec[1]][1]
            if deg > window:
                raise WindowExhausted(f"module {name!r}: generator degree {deg} "
                                      f"exceeds window {window}")
            return free(spec[1], window)
        if form == "torsion":
            if spec[2] > window:
                raise WindowExhausted(f"module {name!r}: concentration degree {spec[2]} "
                                      f"exceeds window {window}")
            return fi_torsion_concentrated(rep(spec[1]), spec[2], window)
        if form == "sum":
            return direct_sum(built[spec[1]], built[spec[2]])
        if form == "shift":
            return fi_shift(built[spec[1]], spec[2])
        if form == "truncate":
            return fi_truncate(built[spec[1]], spec[2])
        return {"kernel": kernel, "cokernel": cokernel,
                "image": image}[form](built[spec[1]])

    for name in job.order:
        try:
            built[name] = share(_closure_key(job, name), lambda: make(name))
        except InputError as exc:
            raise InputError(f"building {name!r}: {exc}") from exc
    return built


def failure_status(exc: Exception) -> tuple[str, dict]:
    """Status and error payload of a build or task that raised ``exc``.

    Only :class:`WindowExhausted` is ``window`` and only :class:`InputError`,
    raised by the checks on a caller's own data, is ``invalid``.  Anything
    else is ``internal``, a bug: its traceback goes to standard error, its
    payload names the exception type, and it is never cached.
    """
    if isinstance(exc, WindowExhausted):
        return "window", {"error": str(exc)}
    if isinstance(exc, InputError):
        return "invalid", {"error": str(exc)}
    traceback.print_exception(exc)
    return "internal", {"error": f"{type(exc).__name__}: {exc}"}


# -- task execution ----------------------------------------------------


def _job_ideal(job: JobSpec):
    """The good ideal that certifies nu: the job's ``nu-p``, or the default."""
    return good_ideal(job.policy.get("nu-p") or default_p(job.field), job.field)


def run_task(task: str, modname, built: dict, job: JobSpec) -> TaskResult:
    field = job.field
    M: FIModule | None = built[modname] if modname else None
    t0 = time.perf_counter()
    try:
        if task == "koszul-check":
            A, window = fi_constant(field, job.window), job.window
            h0 = []
            positive = 0
            for n in range(window + 1):
                strand = koszul_strand(A, n)
                verify_equivariance(strand)
                h0.append(strand_homology_dim(strand, 0))
                positive += sum(strand_homology_dim(strand, i) for i in range(1, n + 1))
            ok = h0 == [1] + [0] * window and positive == 0
            data = {"window": window, "ok": ok, "h0": h0,
                    "positive_homology_total": positive}
            status = "ok" if ok else "fail"
        elif task == "good-ideal-check":
            checks = {}
            for p in (2, 3):
                if field.characteristic != p:
                    checks[str(p)] = verify_good_ideal(good_ideal(p, field))
            data = {"field": field.name, "checks": checks}
            status = "ok" if all(c["all_pass"] for c in checks.values()) else "fail"
        elif task == "tor":
            data = tor_table_data(tor_table(M))
            status = "ok"
        elif task == "reg":
            rep = regularity(M)
            data = regularity_data(rep)
            # uncertified rows are tolerable as long as their visible cells
            # stay within the regularity bound computed from certified rows
            bounded = all(
                rep.table.t(i) - i <= rep.reg for i in rep.uncertified_rows
                if rep.table.t(i) != -INF
            )
            status = "ok" if rep.certified or bounded else "window"
        elif task == "lcoh":
            table = local_cohomology(M)
            data = lcoh_data(table)
            status = "ok" if table.complete else "window"
        elif task == "nu":
            certs = nu_certificate(M, _job_ideal(job))
            data = {"certificates": nu_certs_data(certs)}
            status = "ok" if all(c.passed for c in certs) else "fail"
        else:  # verify; parse_spec admits no other task
            rep = verify_main_theorem(M, _job_ideal(job))
            data = theorem_data(rep)
            status = {"PASS": "ok", "FAIL": "fail", "UNCERTIFIED": "window"}[rep.verdict]
    except Exception as exc:
        status, data = failure_status(exc)
    return TaskResult(task, modname, status, data, time.perf_counter() - t0)


# -- caching -----------------------------------------------------------


def _closure_key(job: JobSpec, name) -> tuple:
    """Construction of ``name`` with every referenced name expanded."""
    if name in job.reps:
        return ("rep", *job.reps[name])
    if name in job.modules:
        spec = job.modules[name]
        out = [spec[0]]
        for arg in spec[1:]:
            out.append(_closure_key(job, arg) if isinstance(arg, str) else arg)
        return tuple(out)
    _, rep, target, entries = job.morphisms[name]
    return ("morphism", _closure_key(job, rep), _closure_key(job, target),
            tuple(tuple(str(x) for x in row) for row in entries))


def _cache_key(job: JobSpec, task: str, construction) -> str:
    payload = {
        "version": __version__,
        "schema": REPORT_SCHEMA,
        "field": job.field.name,
        "window": job.window,
        "policy": dict(sorted(job.policy.items())),
        "task": task,
        "construction": construction,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def task_cache_key(job: JobSpec, task: str, modname) -> str:
    return _cache_key(job, task, _closure_key(job, modname) if modname else None)


def _build_key(job: JobSpec) -> str:
    """Key of the record that every object of the job was built: the
    construction of each rep, module and morphism in definition order."""
    names = [*job.reps, *job.order]
    return _cache_key(job, "build", [_closure_key(job, n) for n in names])


def cache_dir() -> Path:
    root = os.environ.get("FIHOMLAB_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "fihomlab"


def _read_cache_entry(cpath: Path):
    """``(status, data)`` of a cache entry, or None when it is missing or
    corrupt; a corrupt entry is a miss and is overwritten by the rerun."""
    try:
        cached = json.loads(cpath.read_text())
        status, data = cached["status"], cached["data"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if status not in CACHED_STATUSES or not isinstance(data, dict):
        return None
    return status, data


def _write_cache_entry(cpath: Path, entry: dict):
    """Write atomically, so that a concurrent reader never sees a partial
    entry; a cache that cannot be written is skipped."""
    tmp = None
    try:
        cpath.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cpath.parent, prefix=cpath.stem,
                                   suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
        os.replace(tmp, cpath)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def run_job(job: JobSpec, use_cache: bool = True) -> RunResult:
    t0 = time.perf_counter()
    cdir = cache_dir()
    paths = [cdir / f"{task_cache_key(job, task, modname)}.json"
             for task, modname in job.tasks]
    hits = {}
    if use_cache:
        for cpath in paths:
            entry = _read_cache_entry(cpath)
            if entry is not None:
                hits[cpath] = entry
    build_record = cdir / f"{_build_key(job)}.json"
    built = None  # stays None when every task is answered from the cache
    if not (use_cache and all(cpath in hits for cpath in paths)
            and _read_cache_entry(build_record) is not None):
        try:
            built = build_objects(job)
        except Exception as exc:
            res = TaskResult("build", None, *failure_status(exc), 0.0)
            return RunResult(job, [res], time.perf_counter() - t0)
    results = []
    for (task, modname), cpath in zip(job.tasks, paths):
        cached = hits.get(cpath)
        if cached is not None:
            results.append(TaskResult(task, modname, *cached, 0.0, cached=True))
            continue
        res = run_task(task, modname, built, job)
        results.append(res)
        if use_cache and res.status in CACHED_STATUSES:
            _write_cache_entry(cpath, {"status": res.status, "data": res.data})
            hits[cpath] = res.status, res.data
    # the record only serves a rerun that every task answers from the cache
    if (use_cache and built is not None
            and all(r.status in CACHED_STATUSES for r in results)):
        _write_cache_entry(build_record, {"status": "ok", "data": {}})
    return RunResult(job, results, time.perf_counter() - t0)
