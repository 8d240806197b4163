from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fihomlab.fields import GF
from fihomlab.jobspec import SpecParseError, parse_spec

GOOD = """
# comment line
field F5
window 5
policy nu-p 2
rep v sign 2          # trailing comment
module A constant
morphism f induced v A 0;0;0
module K kernel f
task verify A
task tor K
task koszul-check
"""


def test_parse_good_spec():
    job = parse_spec(GOOD)
    assert job.field == GF(5)
    assert job.window == 5
    assert job.reps == {"v": ("sign", 2)}
    assert job.modules["K"] == ("kernel", "f")
    assert ("koszul-check", None) in job.tasks


def test_roundtrip_canonical_text():
    job = parse_spec(GOOD)
    assert parse_spec(job.canonical_text()) == job


def test_errors_are_located():
    bad = "field Q\nwindow 3\nmodule M induced nosuchrep\ntask tor M\n"
    with pytest.raises(SpecParseError) as exc:
        parse_spec(bad)
    lines = [ln for ln, _ in exc.value.errors]
    assert 3 in lines


def test_missing_field_and_window():
    with pytest.raises(SpecParseError) as exc:
        parse_spec("rep v trivial 1\n")
    msgs = " ".join(m for _, m in exc.value.errors)
    assert "field" in msgs and "window" in msgs


def test_use_before_definition_rejected():
    bad = "field Q\nwindow 3\nmodule S sum A B\nmodule A constant\nmodule B constant\n"
    with pytest.raises(SpecParseError):
        parse_spec(bad)


def test_rep_degree_exceeding_window_parses_but_fails_at_build():
    # window sufficiency is a runtime concern (exit code 2), not a parse error
    from fihomlab.runner import run_job

    text = "field Q\nwindow 2\nrep v trivial 4\nmodule M induced v\ntask tor M\n"
    job = parse_spec(text)
    result = run_job(job, use_cache=False)
    assert result.exit_code == 2


def test_nu_p_invertibility_checked():
    with pytest.raises(SpecParseError) as exc:
        parse_spec("field F3\nwindow 3\npolicy nu-p 3\n")
    assert "not invertible" in str(exc.value)
    with pytest.raises(SpecParseError) as exc2:
        parse_spec("field F2\nwindow 3\npolicy nu-p 2\n")
    assert "2 not invertible" in str(exc2.value)
    # the valid pairings parse fine
    parse_spec("field F2\nwindow 3\npolicy nu-p 3\n")
    parse_spec("field F3\nwindow 3\npolicy nu-p 2\n")


def test_morphism_entries_parse_rationals():
    text = (
        "field Q\nwindow 4\nrep v trivial 1\nmodule A constant\n"
        "morphism f induced v A 1/2\nmodule C cokernel f\ntask tor C\n"
    )
    job = parse_spec(text)
    (_, _, _, entries) = job.morphisms["f"]
    from fractions import Fraction

    assert entries == ((Fraction(1, 2),),)
    assert parse_spec(job.canonical_text()) == job


def test_duplicate_names_rejected():
    bad = "field Q\nwindow 3\nmodule A constant\nmodule A constant\n"
    with pytest.raises(SpecParseError):
        parse_spec(bad)


@pytest.mark.parametrize("line", [
    "window 4", "field Q", "window 3 9", "policy nu-p 2\npolicy nu-p 2",
    "field F5 F7", "policy nu-p 2 3", "rep w trivial 1 junk", "task koszul-check now",
])
def test_repeated_headers_and_trailing_tokens_rejected(line):
    text = f"field F5\nwindow 3\nmodule A constant\nrep v trivial 1\n{line}\ntask tor A\n"
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert [ln for ln, _ in exc.value.errors] == [5 + line.count("\n")]


def _parse_or_reject(text):
    """parse_spec either returns a job or raises SpecParseError, nothing else."""
    try:
        parse_spec(text)
    except SpecParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_random_text_raises_only_spec_parse_errors(text):
    _parse_or_reject(text)


EXAMPLE_LINES = [
    line.split()
    for line in (Path(__file__).parents[1] / "scripts" / "example.job").read_text().splitlines()
]
EXAMPLE_TOKENS = [(k, j) for k, line in enumerate(EXAMPLE_LINES) for j in range(len(line))]
# tokens that reach the number, name and entry parsers with values they reject
ODD_TOKENS = ["-5", "-1", "0", "1/0", "1/5", "2/3", "1,1;2", ";", ",", "1;", "x",
              "1e5", "nan", "inf", "F4", "F0", "Q", "A", "sum", "imax", "nu-p",
              "lcoh-imax", "assume-window-sufficient", "task", "#"]


def _mutated_example(where, token):
    k, j = where
    lines = [list(line) for line in EXAMPLE_LINES]
    lines[k][j] = token
    return "\n".join(" ".join(line) for line in lines)


def test_example_job_with_an_odd_token_anywhere_raises_only_spec_parse_errors():
    for where in EXAMPLE_TOKENS:
        for token in ODD_TOKENS:
            _parse_or_reject(_mutated_example(where, token))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXAMPLE_TOKENS),
       st.one_of(st.integers(-10, 10).map(str), st.text(max_size=6)))
def test_mutated_example_job_raises_only_spec_parse_errors(where, token):
    _parse_or_reject(_mutated_example(where, token))
