"""Checks of one job's report.json against the closed forms of its modules.

Each checker returns ``None`` when the task's output is right and a short
reason when it is not.  None of them compares with a stored copy of an
earlier report.
"""
from __future__ import annotations

from math import comb, inf

from workloads import KnownModule, RandomModule

PASSING_CERTS = ("ok", "out-of-range", "window")
STATUS_OF_VERDICT = {"PASS": "ok", "UNCERTIFIED": "window"}


def decode(v):
    """Report scalars: ints, or the strings "inf" and "-inf"."""
    return {"inf": inf, "-inf": -inf}.get(v, v) if isinstance(v, str) else v


def _cells(tor):
    return {(i, n): d for i, n, d in tor["cells"]}


def tor_cells_error(tor, closed_form):
    """Every cell of the reported table against the closed form."""
    i_max, n_max = tor["i_max"], tor["n_max"]
    cells = _cells(tor)
    for (i, n), d in cells.items():
        if not (0 <= i <= i_max and i <= n <= n_max):
            return f"cell Tor_{i} at degree {n} lies outside the table"
    for i in range(i_max + 1):
        for n in range(i, n_max + 1):
            got, want = cells.get((i, n), 0), closed_form(i, n)
            if got != want:
                return f"Tor_{i} at degree {n} is {got}, closed form {want}"
    return None


def euler_error(tor, dims):
    """Each strand whose rows are all in the table: the alternating sum of
    its term dimensions C(n, i) dim M_{n-i} equals that of its Tor cells."""
    cells = _cells(tor)
    for n in range(min(tor["i_max"], tor["n_max"]) + 1):
        terms = sum((-1) ** i * comb(n, i) * dims[n - i] for i in range(n + 1))
        homology = sum((-1) ** i * cells.get((i, n), 0) for i in range(n + 1))
        if terms != homology:
            return (f"strand {n}: Euler characteristic {terms} of the terms, "
                    f"{homology} of the Tor cells")
    return None


def certs_error(certs):
    for c in certs:
        if c["status"] not in PASSING_CERTS:
            return f"nu certificate at n={c['n']} has status {c['status']}"
        if c["status"] == "ok" and c["computed"] != c["expected"]:
            return f"nu certificate at n={c['n']} computed {c['computed']}"
    return None


def tor_error(tor, expect):
    if isinstance(expect, KnownModule):
        return tor_cells_error(tor, expect.tor)
    return euler_error(tor, expect.dims)


def verify_error(status, data, expect):
    verdict = data["verdict"]
    if verdict not in STATUS_OF_VERDICT:
        return f"verdict {verdict}"
    if STATUS_OF_VERDICT[verdict] != status:
        return f"status {status} for verdict {verdict}"
    if verdict == "UNCERTIFIED" and not isinstance(expect, RandomModule):
        return "UNCERTIFIED on a module with known invariants"
    if verdict == "PASS" and data["lhs"] != data["rhs"]:
        return f"PASS with reg {data['lhs']} != {data['rhs']}"
    if isinstance(expect, KnownModule):
        got = tuple(decode(data[k]) for k in ("lhs", "t0", "max_h_plus_i"))
        want = (expect.reg, expect.t0, expect.max_h_plus_i)
        if got != want:
            return f"(reg, t0, max_h_plus_i) = {got}, known {want}"
    return tor_error(data["tor"], expect) or certs_error(data["nu_certificates"])


def nu_error(status, data, expect):
    """A torsion module concentrated up to degree ``top``: the certificate
    for Tor_n sits in degree n + top and expects nu = n."""
    certs = data["certificates"]
    if status != "ok":
        return f"status {status}"
    for c in certs:
        if c["expected"] != c["n"] or c["degree"] != c["n"] + expect.top:
            return f"nu certificate at n={c['n']} is set up wrongly"
    if not any(c["status"] == "ok" for c in certs):
        return "no nu certificate was computed"
    return certs_error(certs)


def task_error(entry, expect):
    task, status, data = entry["task"], entry["status"], entry["data"]
    if task == "verify":
        return verify_error(status, data, expect)
    if task == "tor":
        return f"status {status}" if status != "ok" else tor_error(data, expect)
    if task == "nu":
        return nu_error(status, data, expect)
    return f"unexpected task {task}"


def report_errors(report, job):
    """One entry per task of the job, in order: None or why it is wrong."""
    entries = report.get("tasks", [])
    if [(e.get("task"), e.get("module")) for e in entries] != job.tasks:
        return ["the report does not list the job's tasks"] * len(job.tasks)
    errors = []
    for entry in entries:
        try:
            errors.append(task_error(entry, job.expect[entry["module"]]))
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"malformed report entry: {exc!r}")
    return errors
