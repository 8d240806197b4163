import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ORACLE_KINDS, oracle_module

from fihomlab.complexes import FIComplex
from fihomlab.fields import GF, QQ
from fihomlab.fimod import (
    InputError,
    WindowExhausted,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_torsion_concentrated,
    image,
    induced_morphism,
)
from fihomlab.good_ideal import good_ideal
from fihomlab.jobspec import parse_spec
from fihomlab import loccoh
from fihomlab.linalg import InvariantViolation, Matrix
from fihomlab.loccoh import (
    is_semi_induced,
    local_cohomology,
    min_acyclic_shift,
    nu_certificate,
    verify_main_theorem,
)
from fihomlab.reps import basic_rep
from fihomlab.runner import build_objects

W = 6


def positive_part(field, window=W):
    A = fi_constant(field, window)
    f = induced_morphism(basic_rep("trivial", 1, field), A,
                         Matrix.from_rows(field, [[1]]))
    return image(f)


def test_semi_induced_detection(field):
    assert is_semi_induced(fi_constant(field, W)) == "yes"
    assert is_semi_induced(fi_induced(basic_rep("sign", 2, field), W)) == "yes"
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W)
    assert is_semi_induced(T) == "no"


def test_min_acyclic_shift(field):
    assert min_acyclic_shift(fi_constant(field, W))[0] == 0
    T = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, W)
    assert min_acyclic_shift(T)[0] == 3  # the shift must clear the torsion entirely


def test_local_cohomology_of_constant_vanishes(field):
    table = local_cohomology(fi_constant(field, W))
    assert not table.rows and table.complete


def test_local_cohomology_of_torsion_is_itself(field):
    T = fi_torsion_concentrated(basic_rep("regular", 2, field), 2, W)
    table = local_cohomology(T)
    assert list(table.rows) == [0]
    assert table.rows[0].dims == T.dims()
    assert table.h(0) == 2 and table.max_h_plus_i() == 2


def test_torsion_unlike_the_kernel_of_the_shift_map_is_an_invariant_violation(
        field, monkeypatch):
    # the torsion dims and the nullities of M -> shift_b(M) are computed
    # apart; a torsion computation off by one in degree 1 must not pass
    real = loccoh.torsion_submodule

    def off_by_one(M):
        tp = real(M)
        dims = [d + (n == 1) for n, d in enumerate(tp.dims)]
        return dataclasses.replace(tp, dims=dims)

    M = direct_sum(fi_induced(basic_rep("sign", 2, field), W),
                   fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W))
    assert local_cohomology(M).rows[0].dims == [0, 1, 0, 0, 0, 0, 0]
    monkeypatch.setattr(loccoh, "torsion_submodule", off_by_one)
    with pytest.raises(InvariantViolation, match="ker"):
        local_cohomology(M)


def test_positive_part_has_h1_in_degree_zero(field):
    table = local_cohomology(positive_part(field))
    assert list(table.rows) == [1]
    assert table.h(1) == 0
    assert table.max_h_plus_i() == 1


# the level-1 cokernel of Aplus is k in degree 0; its shift Σ_1 is zero
# and semi-induced, so the recursion ends at level 2 by itself.  A depth cap
# of 1 or 2 (levels 0..cap) never cut it: the recursion, which has no cap,
# gives what it gave under those caps.  The ids are the names these cases
# have always had.
LEVEL_1 = (1, [1, 0, 0, 0, 0, 0])
LEVEL_2 = (1, [0, 0, 0, 0, 0])


@pytest.mark.parametrize("cap, complete, depth, rows, trace", [
    pytest.param(1, True, 2, {1: [1, 0, 0, 0, 0, 0]}, [LEVEL_1, LEVEL_2],
                 id="1-True-2-rows1-trace1"),
    pytest.param(2, True, 2, {1: [1, 0, 0, 0, 0, 0]}, [LEVEL_1, LEVEL_2],
                 id="2-True-2-rows2-trace2"),
])
def test_recursion_depth_cap(field, cap, complete, depth, rows, trace):
    table = local_cohomology(positive_part(field))
    assert table.depth <= cap + 1
    assert (table.complete, table.depth) == (complete, depth)
    assert {i: row.dims for i, row in table.rows.items()} == rows
    assert table.trace == trace


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]), kind=st.sampled_from(ORACLE_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_recursion_depth_is_bounded_by_the_window(field, kind, seed):
    # each level that goes on shifts by b >= 1 and so shrinks the window
    M = oracle_module(kind, field, random.Random(seed))
    table = local_cohomology(M)
    assert table.depth <= M.window + 1
    assert len(table.trace) == table.depth


def test_recursion_keeps_the_torsion_row_when_the_search_exhausts_the_window(field):
    T = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, 2)
    table = local_cohomology(T)
    assert (table.complete, table.depth, table.trace) == (False, 0, [])
    assert {i: row.dims for i, row in table.rows.items()} == {0: [0, 0, 1]}


def test_theorem_on_constant(field):
    rep = verify_main_theorem(fi_constant(field, W))
    assert rep.verdict == "PASS"
    assert rep.lhs == 0 and rep.t0 == 0 and rep.max_h_plus_i == -math.inf


def test_theorem_on_positive_part(field):
    rep = verify_main_theorem(positive_part(field))
    assert rep.verdict == "PASS"
    assert rep.lhs == 1 and rep.max_h_plus_i == 1
    assert all(c.status == "ok" for c in rep.nu_certificates if c.computed is not None)


def test_theorem_on_mixed_sum(field):
    M = direct_sum(
        fi_induced(basic_rep("sign", 2, field), W),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W),
    )
    rep = verify_main_theorem(M)
    assert rep.verdict == "PASS"
    assert rep.lhs == 2 and rep.t0 == 2 and rep.max_h_plus_i == 1


COKERNEL_JOB = """
rep s2v trivial 2
rep s2w0 trivial 1
module s2P0 induced s2w0
rep s2w1 trivial 0
module s2P1 induced s2w1
module s2S1 sum s2P0 s2P1
morphism s2f induced s2v s2S1 1;1;1
module s2C cokernel s2f
task verify s2C
"""


@pytest.mark.parametrize("window, verdict, reg",
                         [(5, "UNCERTIFIED", 1), (6, "PASS", 2)])
def test_low_reg_with_uncertified_rows_is_not_a_failure(field, window, verdict, reg):
    # the cokernel of I(triv_2) -> I(triv_1) + A: at window 5 the certified
    # Tor rows give reg 1 < rhs 2 while Tor_2 is still uncertified, which
    # only a larger window can settle
    job = parse_spec(f"field {field.name}\nwindow {window}\n{COKERNEL_JOB}")
    rep = verify_main_theorem(build_objects(job)["s2C"])
    assert rep.verdict == verdict
    assert (rep.lhs, rep.rhs) == (reg, 2)
    assert rep.uncertified_rows


def test_nu_certificates_on_torsion_module(field):
    gi = good_ideal(2, field)
    T = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, W)
    certs = nu_certificate(T, gi)
    by_n = {c.n: c for c in certs}
    # Lemma: nu(Tor_n at degree n + maxdeg) = n once (p-1)*maxdeg <= n
    for n, c in by_n.items():
        if c.status == "out-of-range":
            assert (gi.p - 1) * 2 > n
        else:
            assert c.status == "ok" and c.computed == n


def test_nu_certificate_rejects_non_torsion(field):
    gi = good_ideal(2, field)
    with pytest.raises(InputError):
        nu_certificate(fi_constant(field, W), gi)


@pytest.mark.parametrize("make", [
    lambda field: fi_constant(field, 5),
    lambda field: fi_induced(basic_rep("sign", 2, field), 5),
], ids=["constant", "induced"])
def test_nu_certificate_rejects_a_complex_with_a_non_torsion_term(field, make):
    gi = good_ideal(2, field)
    with pytest.raises(InputError, match="torsion"):
        nu_certificate(FIComplex.single(make(field)), gi)
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 5)
    with pytest.raises(InputError, match="torsion"):
        nu_certificate(FIComplex({0: T, 1: make(field)}), gi)


@pytest.mark.parametrize("w", [1, 3])
def test_nu_certificate_builds_no_strand_when_no_certificate_fits(w):
    # H^1 = T(triv_w @ w) gives max(i + maxdeg H^i) = w + 1, past the window w
    field = GF(5)
    C = FIComplex.single(fi_torsion_concentrated(basic_rep("trivial", w, field), w, w), 1)
    assert nu_certificate(C, good_ideal(2, field)) == []
    assert C.strands == {}


def test_nu_certificates_on_single_term_complex(field):
    gi = good_ideal(2, field)
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W)
    certs = nu_certificate(FIComplex.single(T, 1), gi)
    assert certs, "expected at least one certificate"
    for c in certs:
        assert c.status in ("ok", "out-of-range")
        if c.status == "ok":
            assert c.computed == c.n + 1  # r = m = 1 here


def test_window_exhaustion_raises(field):
    T = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, 2)
    with pytest.raises(WindowExhausted):
        min_acyclic_shift(T)
