"""Golden reports: ``report.json`` and ``report.txt`` must stay byte-identical.

``tests/golden/`` holds the reports of these cold runs:

- ``example/``:    ``fihomlab run scripts/example.job``
- ``example-q/``:  ``fihomlab run scripts/example.job --field Q``
- ``example-lcoh/``:   ``fihomlab lcoh scripts/example.job``
- ``example-lcoh-q/``: ``fihomlab lcoh scripts/example.job --field Q``
- ``example-nu/``: ``fihomlab nu scripts/example.job`` (four of its six
  modules are not torsion and are refused as invalid input)
- ``suite/<name>/``: ``fihomlab suite``, one directory per corpus entry

A change that alters a report on purpose regenerates these files with the
same commands (``--no-cache --out <dir>``, keeping only the two report
files) and says why.  A change that alters one by accident fails here.
"""
from pathlib import Path

import pytest

from fihomlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLE = str(ROOT / "scripts" / "example.job")

RUNS = {
    "example": ["run", EXAMPLE],
    "example-q": ["run", EXAMPLE, "--field", "Q"],
    "example-lcoh": ["lcoh", EXAMPLE],
    "example-lcoh-q": ["lcoh", EXAMPLE, "--field", "Q"],
    "example-nu": ["nu", EXAMPLE],
    "suite": ["suite"],
}


def report_files(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("report.*"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_match_the_golden_files(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIHOMLAB_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / name
    main(RUNS[name] + ["--no-cache", "--out", str(out)])
    capsys.readouterr()
    golden = GOLDEN / name
    expected = report_files(golden)
    assert expected, f"no golden reports under {golden}"
    assert report_files(out) == expected
    for rel in expected:
        assert (out / rel).read_bytes() == (golden / rel).read_bytes(), rel
