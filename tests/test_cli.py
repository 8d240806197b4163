import json

import pytest

from fihomlab.cli import main

DEMO = """
field F5
window 5
module A constant
rep v1 trivial 1
morphism f induced v1 A 1
module Aplus image f
rep v2 trivial 2
module T torsion v2 2
task verify A
task verify T
task reg Aplus
"""


@pytest.fixture
def demo_job(tmp_path, monkeypatch):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "demo.job"
    path.write_text(DEMO)
    return path


def test_run_ok_and_reports(demo_job, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(demo_job), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["field"] == "F5"
    assert [t["status"] for t in report["tasks"]] == ["ok", "ok", "ok"]
    assert (out / "report.txt").exists() and (out / "timing.txt").exists()


def test_reports_byte_identical_across_runs(demo_job, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(demo_job), "--out", str(out1)]) == 0
    assert main(["run", str(demo_job), "--out", str(out2)]) == 0  # cache hit
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    out3 = tmp_path / "o3"
    assert main(["run", str(demo_job), "--out", str(out3), "--no-cache"]) == 0
    assert (out1 / "report.json").read_bytes() == (out3 / "report.json").read_bytes()


def test_invalid_spec_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.job"
    bad.write_text("field Q\nwindow 2\nmodule M induced nosuchrep\ntask tor M\n")
    assert main(["run", str(bad)]) == 3
    assert "error" in capsys.readouterr().err


def test_window_too_small_for_construction_exit_code(tmp_path, capsys):
    tight = tmp_path / "tight.job"
    tight.write_text("field Q\nwindow 2\nrep v trivial 3\nmodule M induced v\ntask verify M\n")
    assert main(["run", str(tight), "--no-cache"]) == 2


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.job")]) == 3


def test_window_insufficient_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    # torsion at the top of a tiny window cannot be certified
    path = tmp_path / "tight.job"
    path.write_text(
        "field F5\nwindow 2\nrep v trivial 2\nmodule T torsion v 2\ntask lcoh T\n"
    )
    assert main(["run", str(path)]) == 2


def test_subcommand_override_and_module_filter(demo_job, capsys):
    assert main(["tor", str(demo_job), "--module", "T", "--field", "F7"]) == 0
    out = capsys.readouterr().out
    assert "task tor T: ok" in out and "task tor A" not in out


def test_unknown_module_filter(demo_job, capsys):
    assert main(["tor", str(demo_job), "--module", "nope"]) == 3


def test_field_override_revalidates(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "p3.job"
    path.write_text("field Q\nwindow 3\npolicy nu-p 3\nmodule A constant\ntask tor A\n")
    assert main(["run", str(path)]) == 0
    # moving to characteristic 3 invalidates the nu-p policy
    assert main(["run", str(path), "--field", "F3"]) == 3


def test_bare_checks(capsys):
    assert main(["good-ideal-check", "--field", "F7"]) == 0
    assert main(["koszul-check", "--field", "F5", "--window", "3"]) == 0


def test_verification_failure_exit_code(tmp_path, monkeypatch):
    # force a mismatching certificate through a corrupted cache entry
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "t.job"
    path.write_text("field F5\nwindow 4\nrep v trivial 1\nmodule T torsion v 1\ntask nu T\n")
    assert main(["run", str(path)]) == 0
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import cache_dir, task_cache_key

    key = task_cache_key(parse_spec(path.read_text()), "nu", "T")
    entry = cache_dir() / f"{key}.json"
    data = json.loads(entry.read_text())
    data["status"] = "fail"
    entry.write_text(json.dumps(data, sort_keys=True))
    assert main(["run", str(path)]) == 1


def test_truncated_cache_entry_is_a_miss(demo_job):
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import cache_dir, run_job, task_cache_key

    job = parse_spec(demo_job.read_text())
    cold = run_job(job)
    entry = cache_dir() / f"{task_cache_key(job, 'verify', 'T')}.json"
    text = entry.read_text()
    entry.write_text(text[:len(text) // 2])
    rerun = run_job(job)
    assert rerun.report_dict() == cold.report_dict()
    assert rerun.report_text() == cold.report_text()
    assert [r.cached for r in rerun.results] == [True, False, True]
    assert entry.read_text() == text   # the recomputed entry replaced it
    assert not list(cache_dir().glob("*.tmp"))


def test_cache_key_depends_on_the_package_version(monkeypatch):
    from fihomlab import runner
    from fihomlab.jobspec import parse_spec

    job = parse_spec("field F5\nwindow 3\nmodule A constant\ntask tor A\n")
    key = runner.task_cache_key(job, "tor", "A")
    assert runner.task_cache_key(job, "tor", "A") == key
    monkeypatch.setattr(runner, "__version__", runner.__version__ + ".post1")
    assert runner.task_cache_key(job, "tor", "A") != key
