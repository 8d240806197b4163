"""Report serialization: deterministic JSON plus aligned text tables.

Every task result is first flattened into a plain JSON-able dict (infinities
become the strings ``"inf"`` / ``"-inf"``); both the JSON file and the text
rendering are produced from that dict, so cached and fresh runs are
byte-identical.  Timing is deliberately kept out of these artifacts and
written to a separate file by the driver.
"""
from __future__ import annotations

import json
import math

INF = math.inf


def enc(v):
    """JSON-safe scalar: ints pass through, infinities become strings."""
    if v is None:
        return None
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return int(v)


# -- dict builders -----------------------------------------------------


def tor_table_data(table) -> dict:
    cells = sorted([i, n, table.entries[(i, n)]] for (i, n) in table.entries)
    return {
        "kind": table.kind,
        "i_max": table.i_max,
        "n_max": table.n_max,
        "cells": cells,
        "t": {str(i): enc(table.t(i)) for i in table.rows()},
    }


def regularity_data(report) -> dict:
    return {
        "reg": enc(report.reg),
        "witnesses": sorted([i, n] for (i, n) in report.witnesses),
        "uncertified_rows": list(report.uncertified_rows),
        "table": tor_table_data(report.table),
    }


def lcoh_data(table) -> dict:
    rows = []
    for i in sorted(table.rows):
        row = table.rows[i]
        rows.append({
            "i": i,
            "h": enc(table.h(i)),
            "dims": row.dims,
            "certified_through": row.certified_through,
        })
    return {
        "rows": rows,
        "depth": table.depth,
        "complete": table.complete,
        "max_h_plus_i": enc(table.max_h_plus_i()),
        "trace": [[b, dims] for b, dims in table.trace],
        "window": table.window,
    }


def nu_certs_data(certs) -> list:
    return [
        {
            "n": c.n,
            "degree": c.degree,
            "expected": enc(c.expected),
            "computed": enc(c.computed),
            "status": c.status,
        }
        for c in certs
    ]


def theorem_data(report) -> dict:
    return {
        "lhs": enc(report.lhs),
        "rhs": enc(report.rhs),
        "t0": enc(report.t0),
        "max_h_plus_i": enc(report.max_h_plus_i),
        "stable_from": report.stable_from,
        "stable_checked": list(report.stable_checked),
        "nu_certificates": nu_certs_data(report.nu_certificates),
        "verdict": report.verdict,
        "tor": tor_table_data(report.tor),
        "lcoh": lcoh_data(report.lcoh),
        "uncertified_rows": list(report.uncertified_rows),
    }


# -- text rendering (from the data dicts) ------------------------------


def _fmt(v):
    return "?" if v is None else str(v)


def render_tor_text(data: dict) -> str:
    i_max, n_max = data["i_max"], data["n_max"]
    cell = {(i, n): d for i, n, d in data["cells"]}
    j_max = n_max  # column j holds degree n = i + j
    lines = ["tor (rows i, columns n-i; '.' = 0)"]
    header = "      " + "".join(f"{j:>5}" for j in range(j_max + 1))
    lines.append(header)
    for i in range(i_max + 1):
        cells = []
        for j in range(j_max + 1):
            n = i + j
            d = cell.get((i, n), 0) if n <= n_max else None
            cells.append("    -" if d is None else (f"{d:>5}" if d else "    ."))
        t_i = _fmt(data["t"].get(str(i), "-inf"))
        lines.append(f"{i:>4}: " + "".join(cells) + f"   t={t_i}")
    return "\n".join(lines)


def render_lcoh_text(data: dict) -> str:
    lines = ["local cohomology (rows i; dims per degree 0..window)"]
    if not data["rows"]:
        lines.append("  (zero)")
    for row in data["rows"]:
        dims = " ".join(str(d) if d else "." for d in row["dims"])
        lines.append(f"  H^{row['i']}: maxdeg={_fmt(row['h'])}  [{dims}]")
    lines.append(f"  max_i(h^i + i) = {_fmt(data['max_h_plus_i'])}")
    lines.append(f"  recursion complete: {data['complete']}")
    return "\n".join(lines)


def render_certs_text(certs: list) -> str:
    if not certs:
        return "  (no certificates)"
    lines = []
    for c in certs:
        lines.append(
            f"  n={c['n']} deg={c['degree']} expected={_fmt(c['expected'])} "
            f"computed={_fmt(c['computed'])} [{c['status']}]"
        )
    return "\n".join(lines)


def render_verify_text(data: dict) -> str:
    lines = [
        f"verdict: {data['verdict']}",
        f"  reg (Tor side)          = {_fmt(data['lhs'])}",
        f"  max(t0, max_i(h^i + i)) = {_fmt(data['rhs'])}"
        f"   (t0={_fmt(data['t0'])}, h-side={_fmt(data['max_h_plus_i'])})",
        f"  stable from row {data['stable_from']}; rows checked {data['stable_checked']}",
        "nu certificates:",
        render_certs_text(data["nu_certificates"]),
        render_tor_text(data["tor"]),
        render_lcoh_text(data["lcoh"]),
    ]
    if data["uncertified_rows"]:
        lines.append(f"  uncertified Tor rows: {data['uncertified_rows']}")
    return "\n".join(lines)


def render_task_text(task: str, module, data: dict) -> str:
    head = f"== task {task}" + (f" {module}" if module else "") + " =="
    if "error" in data:  # a failed build or task, whatever the task
        body = f"error: {data['error']}"
    elif task == "tor":
        body = render_tor_text(data)
    elif task == "reg":
        body = (
            f"reg = {_fmt(data['reg'])}  witnesses {data['witnesses']}\n"
            + render_tor_text(data["table"])
        )
    elif task == "lcoh":
        body = render_lcoh_text(data)
    elif task == "nu":
        body = "nu certificates:\n" + render_certs_text(data["certificates"])
    elif task == "verify":
        body = render_verify_text(data)
    elif task == "koszul-check":
        body = (
            f"strands through degree {data['window']}: "
            + ("exact in positive degrees, H_0 as expected"
               if data["ok"] else "FAILED")
        )
    else:  # good-ideal-check
        parts = []
        for p, checks in sorted(data["checks"].items()):
            flag = "pass" if checks["all_pass"] else "FAIL"
            parts.append(f"  p={p}: {flag} ({', '.join(k for k in sorted(checks) if k != 'all_pass')})")
        body = "good ideal axioms:\n" + "\n".join(parts)
    return head + "\n" + body


# The version of the report layout above.  Cached task results are stored in
# it, so it is part of every cache key: raise it with any change to what a
# report holds, and entries in the old layout become misses.
REPORT_SCHEMA = 2


def dumps_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
