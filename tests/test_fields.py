import time
from fractions import Fraction

import pytest

from fihomlab.cli import main
from fihomlab.fields import MR_EXACT_BELOW, QQ, FieldError, GF, _is_prime, field_by_name
from fihomlab.jobspec import SpecParseError, parse_spec


def _trial_division(q):
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert [q for q in range(10**4) if _is_prime(q)] == \
        [q for q in range(10**4) if _trial_division(q)]


@pytest.mark.parametrize("q", [561, 41041, 3215031751])
def test_carmichael_numbers_and_strong_pseudoprimes_are_rejected(q):
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(q)
    with pytest.raises(FieldError):
        GF(q)


def test_a_prime_near_1e18_parses_fast():
    q = 10**18 + 9
    t0 = time.monotonic()
    job = parse_spec(f"field F{q}\nwindow 1\nmodule A constant\ntask tor A\n")
    assert time.monotonic() - t0 < 0.1
    assert job.field.q == q


def test_a_modulus_past_the_exact_range_is_invalid(tmp_path):
    with pytest.raises(FieldError, match=str(MR_EXACT_BELOW)):
        field_by_name(f"F{MR_EXACT_BELOW}")
    path = tmp_path / "big.job"
    path.write_text(f"field F{10**30 + 57}\nwindow 1\nmodule A constant\ntask tor A\n")
    with pytest.raises(SpecParseError):
        parse_spec(path.read_text())
    assert main(["run", str(path), "--no-cache"]) == 3


def test_rationals_keep_integral_values_as_ints():
    assert QQ.zero == 0 and QQ.one == 1
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of(Fraction(6, 3))) is int and QQ.of(Fraction(6, 3)) == 2
    assert type(QQ.of(Fraction(1, 2))) is Fraction
    assert type(QQ.normalize(Fraction(4, 2))) is int
    assert QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.inv(Fraction(1, 3))) is int
    assert type(QQ.inv(3)) is Fraction and QQ.inv(3) == Fraction(1, 3)
    assert type(QQ.div(Fraction(3, 2), Fraction(3, 4))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
