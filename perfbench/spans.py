"""Spans around the public functions of each fihomlab layer.

The tracer replaces a function by a wrapper in every ``fihomlab`` module
that binds it (``from .linalg import rref`` makes a binding of its own), or a
method on its class, and puts the original back on ``close``.  Each call
records a span: name, start, end and the index of the enclosing span.  Spans
live in flat arrays in memory and are written out once, by ``dump``.

Work the hooks do to count sizes is timed too and excluded from the self
time of the span it runs under, so it shows only in the overhead.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# (module, attribute or Class.method, span name).  Several functions may
# share a span name; the metric then covers all of them.
SPANS = (
    ("tor", "koszul_strand", "tor.strand"),
    ("tor", "verify_strand", "tor.d2_check"),
    ("tor", "strand_homology_dim", "tor.homology"),
    ("tor", "tor_rep", "tor.tor_rep"),
    ("tor", "tor_table", "tor.tor_table"),
    ("linalg", "Matrix.__mul__", "linalg.mul"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("fimod", "FIModule.__init__", "fimod.module_init"),
    ("fimod", "FIModule.verify", "fimod.verify"),
    ("fimod", "FIMorphism.verify", "fimod.verify"),
    ("fimod", "fi_shift", "fimod.shift"),
    ("fimod", "subquotient_module", "fimod.subquotient"),
    ("fimod", "torsion_submodule", "fimod.torsion"),
    ("fimod", "generation_degrees", "fimod.generation_degrees"),
    ("fimod", "kernel", "fimod.kernel"),
    ("fimod", "cokernel", "fimod.cokernel"),
    ("reps", "induce_young", "reps.induce_young"),
    ("reps", "SnRep.verify", "reps.coxeter_verify"),
    ("loccoh", "local_cohomology", "loccoh.lcoh"),
    ("loccoh", "is_semi_induced", "loccoh.semi_induced"),
    ("loccoh", "min_acyclic_shift", "loccoh.shift_search"),
    ("loccoh", "verify_main_theorem", "loccoh.verify_main_theorem"),
    ("good_ideal", "good_ideal", "good_ideal.ideal_build"),
    ("good_ideal", "nu", "good_ideal.nu"),
    ("runner", "run_job", "runner.run_job"),
    ("runner", "build_objects", "runner.build"),
    ("runner", "run_task", "runner.task"),
    ("report", "tor_table_data", "report.data"),
    ("report", "regularity_data", "report.data"),
    ("report", "lcoh_data", "report.data"),
    ("report", "nu_certs_data", "report.data"),
    ("report", "theorem_data", "report.data"),
    ("report", "render_task_text", "report.render"),
    ("report", "dumps_report", "report.render"),
    ("jobspec", "parse_spec", "jobspec.parse"),
    # the one boundary where the command line writes its reports
    ("cli", "_emit", "cli.emit"),
)

LAYERS = ("tor", "linalg", "fimod", "reps", "loccoh", "good_ideal",
          "runner", "report", "jobspec", "cli")


def nnz(m):
    return sum(1 for row in m.data for x in row if x)


class Tracer:
    def __init__(self):
        self.names = []            # span name table
        self._name_ids = {}
        self.name = array("i")     # per span: index into ``names``
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")   # -1 at the top
        self.outer = array("b")    # 1 unless an enclosing span has the same name
        self.hook_s = array("d")   # hook time spent while this span was open
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self.strands = set()       # (id(module), n)
        self._modules = {}         # keeps the ids in ``strands`` unique
        self._stack = []
        self._depth = Counter()
        self._undo = []

    # -- installing ---------------------------------------------------

    def install(self):
        hooks = {
            "tor.strand": self._on_strand,
            "linalg.mul": self._on_mul,
            "linalg.rref": self._on_rref,
        }
        returns = {
            "loccoh.lcoh": self._on_lcoh,
            "runner.run_job": self._on_run_job,
        }
        mods = {k: m for k, m in sys.modules.items()
                if k == "fihomlab" or k.startswith("fihomlab.")}
        for modname, attr, span in SPANS:
            mod = mods.get(f"fihomlab.{modname}")
            if mod is None:
                continue
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, meth, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, span, hooks.get(span), returns.get(span))
            if owner_name:
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, wrapper)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def close(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        self._modules.clear()

    def _wrap(self, fn, span, on_call, on_return):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        stack, depth = self._stack, self._depth
        name, start, end, parent = self.name, self.start, self.end, self.parent
        outer, hook_s = self.outer, self.hook_s

        def hook(f, *args):
            t = perf_counter()
            f(*args)
            if stack:
                hook_s[stack[-1]] += perf_counter() - t

        def wrapper(*args, **kwargs):
            if on_call is not None:
                hook(on_call, args, kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            hook_s.append(0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                hook(on_return, result)
            return result

        return wrapper

    # -- size hooks ----------------------------------------------------

    def _on_strand(self, args, kwargs):
        M = args[0] if args else kwargs["M"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        self._modules.setdefault(id(M), M)
        self.strands.add((id(M), n))
        term = max(comb(n, i) * M.dim(n - i) for i in range(n + 1))
        self.maxima["tor.strand_max_dim"] = max(self.maxima["tor.strand_max_dim"], term)

    def _on_mul(self, args, kwargs):
        a, b = args
        c = self.counts
        c["linalg.mul_madds"] += a.rows * a.cols * b.cols
        c["linalg.mul_cells"] += a.rows * a.cols + b.rows * b.cols
        c["linalg.mul_nnz"] += nnz(a) + nnz(b)

    def _on_rref(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        cells = m.rows * m.cols
        self.counts["linalg.rref_cells"] += cells
        self.counts["linalg.rref_nnz"] += nnz(m)
        self.maxima["linalg.rref_max_cells"] = max(self.maxima["linalg.rref_max_cells"], cells)

    def _on_lcoh(self, table):
        self.counts["loccoh.levels"] += len(table.trace)

    def _on_run_job(self, result):
        for r in result.results:
            self.counts["runner.cache_hits" if r.cached else "runner.cache_misses"] += 1

    # -- metrics -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: span counts, inclusive seconds of each span
        name (outermost calls only), self seconds of each layer, and the
        counts and maxima the hooks gathered."""
        n = len(self.name)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        calls = Counter()
        incl = Counter()
        self_s = Counter()
        by_parent = Counter()
        for i in range(n):
            span = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            own = dur - child_s[i] - self.hook_s[i]
            calls[span] += 1
            self_s[span] += own
            self_s[span.split(".")[0] + ".layer"] += own
            if self.outer[i]:
                incl[span] += dur
            p = self.parent[i]
            if p >= 0:
                by_parent[(span, self.names[self.name[p]])] += dur
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "tor.strand_builds": (calls["tor.strand"], "count"),
            "tor.strand_distinct": (len(self.strands), "count"),
            "tor.strand_assembly_s": (self_s["tor.strand"], "s"),
            "tor.d2_check_s": (incl["tor.d2_check"], "s"),
            "tor.homology_s": (incl["tor.homology"], "s"),
            "tor.tor_rep_s": (incl["tor.tor_rep"], "s"),
            "tor.strand_max_dim": (self.maxima["tor.strand_max_dim"], "count"),
            "linalg.mul_calls": (calls["linalg.mul"], "count"),
            "linalg.mul_s": (incl["linalg.mul"], "s"),
            "linalg.mul_madds": (c["linalg.mul_madds"], "count"),
            "linalg.mul_density": (ratio(c["linalg.mul_nnz"], c["linalg.mul_cells"]), "ratio"),
            "linalg.rref_calls": (calls["linalg.rref"], "count"),
            "linalg.rref_s": (incl["linalg.rref"], "s"),
            "linalg.rref_max_cells": (self.maxima["linalg.rref_max_cells"], "count"),
            "linalg.rref_density": (ratio(c["linalg.rref_nnz"], c["linalg.rref_cells"]), "ratio"),
            "linalg.solve_s": (incl["linalg.solve"], "s"),
            "fimod.module_builds": (calls["fimod.module_init"], "count"),
            "fimod.verify_s": (incl["fimod.verify"], "s"),
            "fimod.shift_s": (incl["fimod.shift"], "s"),
            "fimod.subquotient_s": (incl["fimod.subquotient"], "s"),
            "fimod.torsion_s": (incl["fimod.torsion"], "s"),
            "fimod.generation_degrees_s": (incl["fimod.generation_degrees"], "s"),
            "reps.induce_young_calls": (calls["reps.induce_young"], "count"),
            "reps.induce_young_s": (incl["reps.induce_young"], "s"),
            "reps.coxeter_verify_s": (incl["reps.coxeter_verify"], "s"),
            "loccoh.levels": (c["loccoh.levels"], "count"),
            "loccoh.semi_induced_calls": (calls["loccoh.semi_induced"], "count"),
            "loccoh.semi_induced_s": (incl["loccoh.semi_induced"], "s"),
            "loccoh.shift_search_s": (incl["loccoh.shift_search"], "s"),
            "loccoh.crosscheck_s": (by_parent[("fimod.kernel", "loccoh.lcoh")], "s"),
            "loccoh.lcoh_s": (incl["loccoh.lcoh"], "s"),
            "good_ideal.ideal_builds": (calls["good_ideal.ideal_build"], "count"),
            "good_ideal.ideal_build_s": (incl["good_ideal.ideal_build"], "s"),
            "good_ideal.nu_calls": (calls["good_ideal.nu"], "count"),
            "good_ideal.nu_s": (incl["good_ideal.nu"], "s"),
            "runner.build_s": (incl["runner.build"], "s"),
            "runner.task_s": (incl["runner.task"], "s"),
            "runner.self_s": (self_s["runner.run_job"], "s"),
            "runner.cache_hits": (c["runner.cache_hits"], "count"),
            "runner.cache_misses": (c["runner.cache_misses"], "count"),
            "report.data_s": (incl["report.data"], "s"),
            "report.render_s": (incl["report.render"], "s"),
            "jobspec.parse_s": (incl["jobspec.parse"], "s"),
            "cli.emit_s": (incl["cli.emit"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.layer_self_s"] = (self_s[f"{layer}.layer"], "s")
        out["trace.spans"] = (n, "count")
        out["trace.hook_s"] = (sum(self.hook_s), "s")
        return out

    def dump(self, path):
        """Write every span, as columns, to a gzip-compressed JSON file."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
