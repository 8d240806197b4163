"""Tests of the benchmark itself: job generation, the output checks and the
tracer.  Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import json
import random

import pytest

import checks
import run
import workloads
from spans import Tracer

PROGRAM = run.load_program()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_regenerates_identical_jobs(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    assert [(j.name, j.text) for j in first] == [(j.name, j.text) for j in again]
    assert [j.expect for j in first] == [j.expect for j in again]


def test_seed_changes_the_random_modules():
    texts = {workloads.generate("verify-f5", seed)[0].text for seed in range(5)}
    assert len(texts) > 1


def _small_jobs():
    rng = random.Random(3)
    return [
        workloads.generate("verify-f5", 1)[0],   # window 5, known and random
        workloads.make_job(rng, "F5", 5, ["Mix", "Isg", "Aplus", "T2"], (2,), task="tor"),
        workloads.make_job(rng, "F5", 5, ["T2"], (), extra_tasks=["task nu T2"]),
    ]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = []
    for job in _small_jobs():
        d = tmp_path_factory.mktemp(job.name)
        (d / "job").write_text(job.text)
        PROGRAM["cli"].main(["run", str(d / "job"), "--out", str(d / "out"), "--no-cache"])
        out.append((job, json.loads((d / "out" / "report.json").read_text())))
    return out


def test_reports_of_the_program_pass(reports):
    for job, report in reports:
        assert checks.report_errors(report, job) == [None] * len(job.tasks)


def test_random_module_dimensions_match_the_program():
    job = workloads.generate("verify-q", 2)[0]
    built = PROGRAM["runner"].build_objects(PROGRAM["jobspec"].parse_spec(job.text))
    randoms = {k: v for k, v in job.expect.items() if isinstance(v, workloads.RandomModule)}
    assert randoms
    for name, expect in randoms.items():
        assert built[name].dims() == list(expect.dims), name


def _tables(entry):
    data = entry["data"]
    return [data] if entry["task"] == "tor" else [data["tor"]] if entry["task"] == "verify" else []


def _checked_cells(tor, expect):
    """Cells the checker covers: all of a known table, and for a random
    module those of the strands that lie wholly in the table."""
    top = tor["n_max"] if isinstance(expect, workloads.KnownModule) else min(tor["i_max"], tor["n_max"])
    return [(i, n) for n in range(top + 1) for i in range(min(tor["i_max"], n) + 1)]


def _bump(tor, i, n):
    for cell in tor["cells"]:
        if cell[:2] == [i, n]:
            cell[2] += 1
            return
    tor["cells"].append([i, n, 1])


def test_each_corrupted_tor_cell_is_rejected(reports):
    seen = 0
    for job, report in reports:
        for k, entry in enumerate(report["tasks"]):
            for t, tor in enumerate(_tables(entry)):
                for i, n in _checked_cells(tor, job.expect[entry["module"]]):
                    bad = copy.deepcopy(report)
                    _bump(_tables(bad["tasks"][k])[t], i, n)
                    errors = checks.report_errors(bad, job)
                    assert errors[k] is not None, (job.name, entry["module"], i, n)
                    assert errors[:k] + errors[k + 1:] == [None] * (len(errors) - 1)
                    seen += 1
    assert seen > 100


@pytest.mark.parametrize("field,value", [
    ("lhs", 7), ("t0", 7), ("max_h_plus_i", 7), ("verdict", "FAIL"),
])
def test_corrupted_verdict_fields_are_rejected(reports, field, value):
    job, report = reports[0]
    for k, entry in enumerate(report["tasks"]):
        expect = job.expect[entry["module"]]
        if field != "verdict" and not isinstance(expect, workloads.KnownModule):
            continue
        bad = copy.deepcopy(report)
        bad["tasks"][k]["data"][field] = value
        assert checks.report_errors(bad, job)[k] is not None, entry["module"]


def test_uncertified_is_rejected_on_known_modules(reports):
    job, report = reports[0]
    for k, entry in enumerate(report["tasks"]):
        if isinstance(job.expect[entry["module"]], workloads.KnownModule):
            bad = copy.deepcopy(report)
            bad["tasks"][k]["status"] = "window"
            bad["tasks"][k]["data"]["verdict"] = "UNCERTIFIED"
            assert checks.report_errors(bad, job)[k] is not None


def test_corrupted_nu_certificate_is_rejected(reports):
    job, report = reports[2]
    (k, entry), = [(k, e) for k, e in enumerate(report["tasks"]) if e["task"] == "nu"]
    for c, cert in enumerate(entry["data"]["certificates"]):
        if cert["status"] == "ok":
            bad = copy.deepcopy(report)
            bad["tasks"][k]["data"]["certificates"][c]["computed"] += 1
            assert checks.report_errors(bad, job)[k] is not None


def test_tracer_counts_and_restores():
    linalg = __import__("fihomlab.linalg", fromlist=["rref"])
    tor = __import__("fihomlab.tor", fromlist=["koszul_strand"])
    runner = PROGRAM["runner"]
    before = (linalg.rref, linalg.Matrix.__mul__, tor.koszul_strand, runner.run_task)
    job = workloads.make_job(random.Random(0), "F5", 4, ["Mix"], ())
    tracer = Tracer()
    tracer.install()
    try:
        assert runner.run_task is not before[3]
        runner.run_job(PROGRAM["jobspec"].parse_spec(job.text), use_cache=False)
    finally:
        tracer.close()
    assert (linalg.rref, linalg.Matrix.__mul__, tor.koszul_strand, runner.run_task) == before
    metrics = tracer.metrics()
    assert metrics["tor.strand_builds"][0] >= metrics["tor.strand_distinct"][0] > 0
    assert metrics["linalg.mul_calls"][0] > 0 and metrics["runner.cache_misses"][0] == 1
