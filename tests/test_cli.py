import importlib
import json
import re

import pytest

from fihomlab.cli import main
from fihomlab.fimod import FIError
from fihomlab.linalg import InvariantViolation
from fihomlab.tor import TorError

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


def test_timing_lines_carry_six_decimals(demo_job, tmp_path):
    """Task times keep microseconds, so a task of about 10 ms is not rounded
    to whole milliseconds; cache hits and the total are written alike."""
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(["run", str(demo_job), "--out", str(out)]) == 0
        lines = (out / "timing.txt").read_text().splitlines()
        assert len(lines) == 4 and lines[-1].startswith("total: ")
        for line in lines:
            assert re.fullmatch(r"(\S+ \S+|total): \d+\.\d{6}s( \(cached\))?", line), line
        assert all(line.endswith("(cached)") == (run == "warm") for line in lines[:-1])


def test_reports_byte_identical_across_runs(demo_job, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(demo_job), "--out", str(out1)]) == 0
    assert main(["run", str(demo_job), "--out", str(out2)]) == 0  # cache hit
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    out3 = tmp_path / "o3"
    assert main(["run", str(demo_job), "--out", str(out3), "--no-cache"]) == 0
    assert (out1 / "report.json").read_bytes() == (out3 / "report.json").read_bytes()


def test_an_unchanged_job_is_parsed_once(demo_job, tmp_path, monkeypatch):
    import fihomlab.cli as cli

    texts = []
    real = cli.parse_spec
    monkeypatch.setattr(cli, "parse_spec", lambda text: texts.append(text) or real(text))
    assert main(["run", str(demo_job), "--out", str(tmp_path / "o1")]) == 0
    assert texts == [DEMO]
    # an override is applied to the canonical text, which is parsed again
    assert main(["tor", str(demo_job), "--window", "4", "--out", str(tmp_path / "o2")]) == 0
    assert len(texts) == 3 and "window 4" in texts[2]


def test_the_parser_is_built_once_per_process(demo_job, monkeypatch, capsys):
    import fihomlab.cli as cli

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert main(["run", str(demo_job)]) == 0
        assert main(["tor", str(demo_job), "--module", "A"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


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


# exit 2 means an insufficient window, so a command line that argparse
# rejects must not exit 2
USAGE_ERRORS = {
    "unknown-flag": ["run", "JOB", "--bogus"],
    "bad-window": ["run", "JOB", "--window", "x"],
    "removed-flag": ["run", "JOB", "--assume-window-sufficient"],
    "unknown-subcommand": ["frobnicate", "JOB"],
    "no-subcommand": [],
}


@pytest.mark.parametrize("name", list(USAGE_ERRORS))
def test_usage_error_exits_3(demo_job, capsys, name):
    argv = [str(demo_job) if a == "JOB" else a for a in USAGE_ERRORS[name]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


WINDOW_1 = "field F5\nwindow 1\nmodule A constant\ntask verify A\n"


def test_a_window_too_small_to_verify_is_uncertified(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "w1.job"
    path.write_text(WINDOW_1)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tasks"][0]["data"]["verdict"] == "UNCERTIFIED"


def test_the_removed_policy_knob_is_an_unknown_knob(tmp_path, capsys):
    path = tmp_path / "old.job"
    path.write_text(WINDOW_1.replace("task", "policy assume-window-sufficient\ntask"))
    assert main(["run", str(path), "--no-cache"]) == 3
    assert "unknown policy knob 'assume-window-sufficient'" in capsys.readouterr().err


# a job that `policy imax 0` once turned into a false FAIL (reg 1 = rhs 1)
TORSION_1 = ("field F5\nwindow 6\nrep t trivial 1\nmodule T torsion t 1\n"
             "module A constant\nmodule S sum A T\n")


@pytest.mark.parametrize("line", ["policy imax 0", "policy imax 2",
                                  "policy lcoh-imax 6"])
def test_the_recursion_knobs_are_unknown(tmp_path, capsys, line):
    path = tmp_path / "old.job"
    path.write_text(TORSION_1 + line + "\ntask verify T\n")
    assert main(["run", str(path), "--no-cache"]) == 3
    knob = line.split()[1]
    assert f"unknown policy knob '{knob}'" in capsys.readouterr().err


def test_the_job_a_knob_once_failed_verifies(tmp_path, capsys):
    path = tmp_path / "t1.job"
    path.write_text(TORSION_1 + "task verify T\ntask verify S\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--no-cache", "--out", str(out)]) == 0
    tasks = json.loads((out / "report.json").read_text())["tasks"]
    assert [(t["module"], t["data"]["verdict"], t["data"]["lhs"], t["data"]["rhs"])
            for t in tasks] == [("T", "PASS", 1, 1), ("S", "PASS", 1, 1)]


def test_the_imax_flag_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "t1.job"
    path.write_text(TORSION_1 + "task verify T\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--imax", "2"])
    assert exc.value.code == 3
    assert "Traceback" not in capsys.readouterr().err


def test_field_override_revalidates(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "p3.job"
    path.write_text("field Q\nwindow 3\npolicy nu-p 3\nmodule A constant\ntask tor A\n")
    assert main(["run", str(path)]) == 0
    # moving to characteristic 3 invalidates the nu-p policy
    assert main(["run", str(path), "--field", "F3"]) == 3


# inputs that are the job's own fault: each is an error line and exit 3
BAD = "field F5\nwindow 3\nmodule A constant\nrep v trivial 1\n"
INVALID_INPUTS = {
    "nu-on-non-torsion": (BAD + "task nu A\n", []),
    # imax and lcoh-imax are unknown policy knobs, whatever their value
    "negative-imax": (BAD + "policy imax -5\ntask tor A\n", []),
    "negative-lcoh-imax": (BAD + "policy lcoh-imax -1\ntask lcoh A\n", []),
    "zero-denominator": (BAD + "morphism f induced v A 1/0\ntask tor A\n", []),
    "entry-not-in-F5": (BAD + "morphism f induced v A 1/5\ntask tor A\n", []),
    "entry-not-in-F5-by-override": (
        BAD.replace("F5", "Q") + "morphism f induced v A 1/5\ntask tor A\n",
        ["--field", "F5"]),
    "ragged-seed-rows": (
        BAD + "rep r regular 2\nmorphism f induced r A 1,1;2\ntask tor A\n", []),
    "directory": (None, []),
    "not-utf8": (b"field F5\nwindow 3\n\xff\xfe\n", []),
}


@pytest.mark.parametrize("name", list(INVALID_INPUTS))
def test_invalid_input_is_an_error_line_and_exit_3(tmp_path, monkeypatch, capsys,
                                                   name):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    content, extra = INVALID_INPUTS[name]
    path = tmp_path / "bad.job"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), *extra]) == 3
    text = capsys.readouterr().err
    assert "Traceback" not in text
    if out.exists():
        text += (out / "report.txt").read_text()
    assert any(line.startswith("error: ") for line in text.splitlines())


def _raise(exc):
    def boom(*args, **kwargs):
        raise exc
    return boom


INTERNAL_JOB = ("field F5\nwindow 4\nmodule A constant\nrep v2 trivial 2\n"
                "module T torsion v2 2\n")
# (module, attribute, exception, task line, phase that fails)
INTERNAL_FAILURES = [
    ("runner", "tor_table", TorError("injected oracle mismatch"), "task tor A",
     "tor"),
    ("runner", "cokernel", InvariantViolation("injected"),
     "rep v1 trivial 1\nmorphism f induced v1 A 1\nmodule C cokernel f\n"
     "task tor A", "build"),
    ("loccoh", "cokernel", FIError("injected derived-module check"),
     "task lcoh T", "lcoh"),
]


@pytest.mark.parametrize("module, attr, exc, task, phase", INTERNAL_FAILURES,
                         ids=[f[-1] for f in INTERNAL_FAILURES])
def test_internal_failure_exits_4_and_is_never_cached(
        tmp_path, monkeypatch, capsys, module, attr, exc, task, phase):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "job.job"
    path.write_text(INTERNAL_JOB + task + "\n")
    out = tmp_path / "out"
    with monkeypatch.context() as m:
        m.setattr(importlib.import_module(f"fihomlab.{module}"), attr, _raise(exc))
        assert main(["run", str(path), "--out", str(out)]) == 4
    assert "Traceback" in capsys.readouterr().err
    [entry] = json.loads((out / "report.json").read_text())["tasks"]
    assert (entry["task"], entry["status"]) == (phase, "internal")
    assert entry["data"] == {"error": f"{type(exc).__name__}: {exc}"}
    assert f"error: {type(exc).__name__}: {exc}" in (out / "report.txt").read_text()
    assert not (tmp_path / "cache").exists()   # no task entry, no build record
    # the rerun recomputes, and its results are cached
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (tmp_path / "cache").exists()
    assert "(cached)" not in (out / "timing.txt").read_text()


def test_bare_checks(capsys):
    assert main(["good-ideal-check", "--field", "F7"]) == 0
    assert main(["koszul-check", "--field", "F5", "--window", "3"]) == 0


def test_good_ideal_check_lists_only_real_checks(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["good-ideal-check", "--field", "F5", "--out", str(out)]) == 0
    checks = json.loads((out / "report.json").read_text())["tasks"][0]["data"]["checks"]
    axioms = {"idempotency_identity", "annihilates_sign", "nonzero_on_induced_sign",
              "k_flat", "all_pass"}
    assert checks == {"2": dict.fromkeys(axioms, True),
                      "3": dict.fromkeys(axioms | {"quotient_dimension_2"}, True)}


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


def test_suite_exit_code_ranks_a_failure_above_a_short_window(monkeypatch, capsys):
    import fihomlab.cli as cli
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import RunResult, TaskResult

    job = parse_spec("field F5\nwindow 2\nmodule A constant\ntask verify A\n")

    def result(status):
        return RunResult(job, [TaskResult("verify", "A", status, {"error": status}, 0.0)], 0.0)

    monkeypatch.setattr(cli, "run_suite", lambda use_cache=True: [
        ("failing", result("fail")), ("short", result("window"))])
    assert main(["suite"]) == 1


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


def test_cache_key_depends_on_the_report_schema(monkeypatch):
    from fihomlab import runner
    from fihomlab.jobspec import parse_spec

    job = parse_spec("field F5\nwindow 3\nmodule A constant\ntask tor A\n")
    key = runner.task_cache_key(job, "tor", "A")
    assert runner.task_cache_key(job, "tor", "A") == key
    monkeypatch.setattr(runner, "REPORT_SCHEMA", runner.REPORT_SCHEMA + 1)
    assert runner.task_cache_key(job, "tor", "A") != key


# -- answering a fully cached job without building it -------------------

# objects that no task names and that cannot be built, with the status of
# the build failure they cause
UNBUILDABLE = [
    pytest.param("rep r2 regular 2\nmorphism bad induced r2 A 1,0\n", "invalid", 3,
                 id="invalid"),
    pytest.param("rep v3 trivial 3\nmodule Tbad torsion v3 7\n", "window", 2,
                 id="window"),
    pytest.param("rep r2 regular 2\nmorphism bad induced r2 A 1\n", "invalid", 3,
                 id="invalid-seed-shape"),
    pytest.param("rep v3 trivial 3\nmodule Tbad torsion v3 2\n", "invalid", 3,
                 id="invalid-torsion-degree"),
    pytest.param("module Sbad shift A -1\n", "invalid", 3, id="invalid-shift"),
]


@pytest.fixture
def count_builds(monkeypatch):
    from fihomlab import runner

    builds = []
    build = runner.build_objects

    def counting(job):
        builds.append(job)
        return build(job)

    monkeypatch.setattr(runner, "build_objects", counting)
    return builds


def test_fully_cached_job_is_answered_without_a_build(demo_job, count_builds):
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import run_job

    job = parse_spec(demo_job.read_text())
    cold = run_job(job)
    assert len(count_builds) == 1
    warm = run_job(job)
    assert len(count_builds) == 1
    assert all(r.cached for r in warm.results)
    assert warm.report_dict() == cold.report_dict()
    assert warm.report_text() == cold.report_text()
    assert warm.exit_code == cold.exit_code == 0
    # a task repeated within one job is answered by its first run
    again = run_job(parse_spec(DEMO + "task tor A\ntask tor A\n"))
    assert [r.cached for r in again.results[-2:]] == [False, True]


@pytest.mark.parametrize("extra, status, code", UNBUILDABLE)
def test_unbuildable_object_fails_the_same_whatever_the_cache_holds(
        demo_job, tmp_path, monkeypatch, count_builds, extra, status, code):
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import cache_dir, run_job

    bad = parse_spec(DEMO + extra)
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "empty"))
    expected = run_job(bad)
    assert [(r.task, r.status) for r in expected.results] == [("build", status)]
    assert expected.exit_code == code
    assert not (tmp_path / "empty").exists()   # a failed build is not recorded

    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    assert run_job(parse_spec(DEMO)).exit_code == 0   # fills the task entries
    filled = sorted(cache_dir().iterdir())
    for _ in range(2):
        got = run_job(bad)
        assert got.report_dict() == expected.report_dict()
        assert got.report_text() == expected.report_text()
        assert got.exit_code == code
    assert sorted(cache_dir().iterdir()) == filled
    bad_path = tmp_path / "bad.job"
    bad_path.write_text(DEMO + extra)
    assert main(["run", str(bad_path)]) == code


@pytest.mark.parametrize("damage", ["truncate", "delete"])
def test_damaged_build_record_is_a_miss(demo_job, count_builds, damage):
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import _build_key, cache_dir, run_job

    job = parse_spec(demo_job.read_text())
    cold = run_job(job)
    record = cache_dir() / f"{_build_key(job)}.json"
    text = record.read_text()
    if damage == "truncate":
        record.write_text(text[:len(text) // 2])
    else:
        record.unlink()
    rerun = run_job(job)
    assert len(count_builds) == 2
    assert all(r.cached for r in rerun.results)
    assert rerun.report_dict() == cold.report_dict()
    assert record.read_text() == text   # rewritten after the rebuild
    assert not list(cache_dir().glob("*.tmp"))
    run_job(job)
    assert len(count_builds) == 2


def test_no_cache_builds_and_writes_nothing(demo_job, tmp_path, count_builds):
    from fihomlab.runner import cache_dir

    for k in range(2):
        assert main(["run", str(demo_job), "--out", str(tmp_path / f"o{k}"),
                     "--no-cache"]) == 0
    assert len(count_builds) == 2
    assert not cache_dir().exists()


def test_build_key_covers_version_and_every_object(monkeypatch):
    from fihomlab import runner
    from fihomlab.jobspec import parse_spec

    key = runner._build_key(parse_spec(DEMO))
    assert runner._build_key(parse_spec(DEMO)) == key
    # every task names the same construction, but one object differs
    variants = [
        DEMO.replace("module T torsion v2 2", "module T torsion v2 3"),
        DEMO.replace("morphism f induced v1 A 1", "morphism f induced v1 A 2"),
        DEMO + "rep r2 regular 2\nmorphism bad induced r2 A 1,0\n",
        DEMO + "rep spare sign 3\n",
    ]
    for text in variants:
        assert runner._build_key(parse_spec(text)) != key
    assert (runner.task_cache_key(parse_spec(variants[2]), "verify", "T")
            == runner.task_cache_key(parse_spec(DEMO), "verify", "T"))
    monkeypatch.setattr(runner, "__version__", runner.__version__ + ".post1")
    assert runner._build_key(parse_spec(DEMO)) != key


# -- reps are built on first use ------------------------------------------


def test_an_unused_large_rep_is_never_built():
    import time

    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import build_objects

    job = parse_spec("field F5\nwindow 2\nmodule A constant\nrep r regular 9\n"
                     "task tor A\n")
    t0 = time.monotonic()
    built = build_objects(job)
    assert time.monotonic() - t0 < 1.0
    assert "r" not in built and "A" in built


def test_an_induced_module_past_the_window_never_builds_its_rep(tmp_path, monkeypatch):
    from fihomlab import runner

    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    built_reps = []
    basic_rep = runner.basic_rep

    def counting(kind, deg, field):
        built_reps.append((kind, deg))
        return basic_rep(kind, deg, field)

    monkeypatch.setattr(runner, "basic_rep", counting)
    path = tmp_path / "big.job"
    path.write_text("field F5\nwindow 2\nrep r regular 9\nmodule I induced r\n"
                    "task tor I\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [t["status"] for t in report["tasks"]] == ["window"]
    assert built_reps == []
    # a rep named by two objects is built once
    path.write_text("field F5\nwindow 3\nrep v trivial 2\nmodule I induced v\n"
                    "module T torsion v 2\ntask tor I\n")
    assert main(["run", str(path), "--no-cache"]) == 0
    assert built_reps == [("trivial", 2)]


# -- one object per construction per build --------------------------------


SHARED = """
field F5
window 5
module A constant
rep u trivial 1
rep v trivial 1
module I induced u
module J induced v
morphism f induced v A 1
module K kernel f
module S shift A 1
morphism g induced v S 1
task tor I
task tor J
"""


def test_equal_constructions_share_one_object_per_build():
    from fihomlab.jobspec import parse_spec
    from fihomlab.runner import build_objects, run_task

    job = parse_spec(SHARED)
    built = build_objects(job)
    assert built["I"] is built["J"] is built["f"].source
    assert built["K"].dims() == [0, 0, 1, 2, 3, 4]
    # a shift has a smaller window, so its morphism's I(v) is its own
    assert built["g"].source.window == built["S"].window == 4
    again = build_objects(job)
    assert again["I"] is again["f"].source
    assert again["I"] is not built["I"] and again["f"] is not built["f"]
    tor_i, tor_j = (run_task("tor", name, built, job) for name in ("I", "J"))
    assert tor_i.status == tor_j.status == "ok"
    assert tor_i.data == tor_j.data
