import gc
import importlib.util
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ORACLE_KINDS,
    assert_entry_types,
    entry,
    oracle_module,
    random_induced_morphism,
    random_rep,
    recursion_inputs,
    set_entry,
)
from oracles import Permutation, perm_matrix

import fihomlab.complexes as complexes
import fihomlab.fimod as fimod
import fihomlab.linalg as linalg
import fihomlab.loccoh as loccoh
import fihomlab.tor as tor
from fihomlab.complexes import (
    FIComplex,
    hyper_tor,
    hyper_tor_rep,
    total_strand,
)
from fihomlab.fimod import (
    FIMorphism,
    cokernel,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_shift,
    fi_torsion_concentrated,
    generation_degrees,
    induced_morphism,
    kernel,
)
from fihomlab.fields import GF, QQ
from fihomlab.good_ideal import good_ideal
from fihomlab.linalg import Matrix
from fihomlab.loccoh import local_cohomology, nu_certificate, verify_main_theorem
from fihomlab.reps import SnRep, basic_rep
from fihomlab.tor import (
    TorError,
    _strand_homology_sq,
    cached_strand,
    homology_rep,
    koszul_strand,
    regularity,
    strand_homology_dim,
    tor_rep,
    tor_table,
    verify_equivariance,
)

W = 5


def test_strand_differentials_are_equivariant_deep(field):
    M = fi_induced(basic_rep("sign", 2, field), 4)
    for n in range(5):
        verify_equivariance(koszul_strand(M, n))
    T = fi_torsion_concentrated(basic_rep("regular", 2, field), 2, 4)
    for n in range(5):
        verify_equivariance(koszul_strand(T, n))


def perturbing(build, k, row, col, field):
    """A strand builder that adds one to the entry (row, col) of d_k."""
    def perturbed(i):
        d = build(i)
        if i == k:
            set_entry(d, row, col, field.normalize(entry(d, row, col) + field.one))
        return d
    return perturbed


def test_d2_guard_fires_on_a_perturbed_differential():
    field = GF(5)
    strand = koszul_strand(fi_constant(field, 4), 4)
    d3 = strand.build(3)
    # an entry (0, k) of d2 whose column k meets a nonzero of row k of d3
    k = next(k for k in range(d3.rows) if d3.data[k])
    strand.build = perturbing(strand.build, 2, 0, k, field)
    with pytest.raises(TorError, match="d\\^2"):
        strand.diff(3)


def test_constant_module_strands_exact(field):
    A = fi_constant(field, W)
    for n in range(W + 1):
        strand = koszul_strand(A, n)
        for i in range(1, n + 1):
            assert strand_homology_dim(strand, i) == 0
        assert strand_homology_dim(strand, 0) == (1 if n == 0 else 0)


def test_induced_module_has_no_higher_tor(field):
    M = fi_induced(basic_rep("natural", 2, field), W)
    table = tor_table(M)
    assert all(i == 0 for (i, n) in table.entries)
    assert table.t(0) == 2


def test_torsion_tor_dims(field):
    # concentrated torsion in degree d: Tor_i lives at degree d+i with
    # dimension C(d+i, i) * dim V
    for d in (0, 1, 2):
        V = basic_rep("regular", d, field)
        T = fi_torsion_concentrated(V, d, W)
        table = tor_table(T)
        for (i, n), dim in table.entries.items():
            assert n == d + i
            assert dim == math.comb(d + i, i) * V.dim
    assert regularity(fi_torsion_concentrated(
        basic_rep("trivial", 2, field), 2, W)).reg == 2


def test_tor_rep_is_genuine_representation(field):
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 4)
    rep = tor_rep(T, 2, 3)
    rep.verify()
    assert rep.dim == math.comb(3, 2)


def test_tor0_matches_generation_oracle(field):
    M = direct_sum(
        fi_induced(basic_rep("sign", 2, field), W),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W),
    )
    table = tor_table(M)
    gd = generation_degrees(M)
    for n in range(W + 1):
        assert table.dim(0, n) == gd[n]


def test_regularity_of_mixed_sum(field):
    M = direct_sum(
        fi_induced(basic_rep("sign", 2, field), W),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W),
    )
    rep = regularity(M)
    # generators in degree 2 give t_0 = 2; the torsion rows only reach t_i - i = 1
    assert rep.reg == 2
    # the top torsion rows run into the window edge and are flagged as such
    assert rep.uncertified_rows == [3, 4]


def test_zero_module_has_empty_table(field):
    from fihomlab.fimod import zero_module

    table = tor_table(zero_module(field, 3))
    assert not table.entries
    assert regularity(zero_module(field, 3)).reg == -math.inf


# -- homology from ranks, checked against the subquotient -------------


def _random_module(kind, field, rng, window=4):
    if kind == "constant":
        return fi_constant(field, window)
    if kind == "torsion":
        d = rng.randint(1, 3)
        V = random_rep(d, field, rng, max_summands=2)
        return fi_torsion_concentrated(V, d, window)
    f = random_induced_morphism(field, rng, window)
    if kind == "complex":
        return FIComplex({0: f.source, 1: f.target}, {0: f})
    return (kernel if kind == "kernel" else cokernel)(f)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "torsion", "kernel", "cokernel", "complex"]),
       field=st.sampled_from([QQ, GF(5)]),
       seed=st.integers(0, 2**32 - 1))
def test_rank_formula_matches_subquotient_oracle(kind, field, seed):
    X = _random_module(kind, field, random.Random(seed))
    for n in range(X.window + 1):
        strand = total_strand(X, n) if kind == "complex" else koszul_strand(X, n)
        lo, hi = strand.lo, strand.hi
        assert strand_homology_dim(strand, lo - 1) == strand_homology_dim(strand, hi + 1) == 0
        for i in range(lo, hi + 1):
            assert strand_homology_dim(strand, i) == _strand_homology_sq(strand, i).dim
            if kind != "complex":
                assert hyper_tor_rep(FIComplex.single(X), i, n) == tor_rep(X, i, n)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["constant", "mix", "kernel", "cokernel", "complex"]),
       field=st.sampled_from([QQ, GF(5), GF(7)]),
       seed=st.integers(0, 2**32 - 1))
def test_cached_strands_keep_the_storage_contract(kind, field, seed):
    """Every differential of a verified strand, Koszul or total, keeps
    sorted sparse rows with no stored zero, and over Q no integral Fraction."""
    if kind == "mix":
        X = direct_sum(fi_induced(basic_rep("sign", 2, field), 4),
                       fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 4))
    else:
        X = _random_module(kind, field, random.Random(seed))
    for n in range(X.window + 1):
        strand = cached_strand(X, n, total_strand if kind == "complex" else None)
        strand.diff(strand.hi)
        for d in strand.diffs.values():
            assert_entry_types(field, d)


def test_d2_guard_fires_on_a_perturbed_total_differential(field):
    A = fi_constant(field, 4)
    C = FIComplex({0: A, 1: A}, {0: FIMorphism(
        A, A, [Matrix.identity(field, 1) for _ in range(A.window + 1)])})
    strand = total_strand(C, 3)
    d = {k: strand.build(k) for k in range(strand.lo + 1, strand.hi + 1)}
    # an entry (0, j) of d_k whose column j meets a nonzero of row j of d_{k+1}
    k, j = next((k, j) for k in range(strand.lo + 1, strand.hi)
                for j in range(d[k + 1].rows) if d[k].rows and d[k + 1].data[j])
    strand.build = perturbing(strand.build, k, 0, j, field)
    with pytest.raises(TorError, match="d\\^2"):
        strand.diff(strand.hi)


# -- one strand per (module, degree) ----------------------------------


def test_verify_builds_each_strand_once(monkeypatch):
    """Each (module, degree) strand is made once and each of its
    differentials built once: the shift probes build the low terms of
    modules whose other terms nothing reads, the module's own strands serve
    its b = 0 probe and its nu certificates, and a local cohomology before
    the verify leaves strands that the verify grows instead of rebuilding."""
    field = GF(5)

    def mix():
        return direct_sum(fi_induced(basic_rep("sign", 2, field), 6),
                          fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 6))

    t2 = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, 7)
    treg = fi_torsion_concentrated(basic_rep("regular", 2, field), 2, 7)
    k = kernel(induced_morphism(basic_rep("trivial", 2, field), fi_constant(field, 7),
                                Matrix.from_rows(field, [[1]])))
    strands, diffs = Counter(), Counter()
    seen = []  # keeps every module alive, so that ids stay distinct
    make = tor.koszul_strand

    def counting(M, n):
        seen.append(M)
        key = (id(M), n)
        strands[key] += 1
        strand = make(M, n)
        build = strand.build

        def counted(i):
            diffs[key + (i,)] += 1
            return build(i)

        strand.build = counted
        return strand

    monkeypatch.setattr(tor, "koszul_strand", counting)
    lcoh_first = mix()
    assert local_cohomology(lcoh_first).complete
    verified = (mix(), t2, treg, k, lcoh_first)
    verdicts = [verify_main_theorem(M).verdict for M in verified]
    assert verdicts == ["PASS", "PASS", "PASS", "UNCERTIFIED", "PASS"]
    assert any(c.status == "ok" for c in nu_certificate(t2, good_ideal(2, field)))
    assert max(strands.values()) == 1 and max(diffs.values()) == 1
    for M in verified:
        assert sorted(M.strands) == list(range(M.window + 1))
        # every differential out of a nonzero term is built
        assert all(i in s.diffs for n, s in M.strands.items()
                   for i in range(1, n + 1) if s.term_dim(i))
    # the shift probes built the low terms only
    assert any(len(s.diffs) < n for M in seen for n, s in M.strands.items())


def test_verify_runs_the_generator_oracle_once_per_module(monkeypatch):
    field = GF(5)
    mix = direct_sum(
        fi_induced(basic_rep("sign", 2, field), 7),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 7),
    )
    calls = Counter()
    seen = []  # keeps every module alive, so that ids stay distinct
    oracle = tor.generation_degrees

    def counting(M):
        seen.append(M)
        calls[id(M)] += 1
        return oracle(M)

    monkeypatch.setattr(tor, "generation_degrees", counting)
    assert verify_main_theorem(mix).verdict == "PASS"
    assert calls[id(mix)] == 1 and max(calls.values()) == 1
    assert mix.generators == oracle(mix)


@pytest.mark.parametrize("name", ["Aplus", "Mix"])
def test_verify_builds_each_shift_once(monkeypatch, name):
    M = recursion_inputs(GF(5), 7)[name]
    calls = Counter()
    seen = []  # keeps every argument alive, so that ids stay distinct
    shift = fimod.fi_shift

    def counting(X, b):
        seen.append(X)
        if b > 0:
            calls[(id(X), b)] += 1
        return shift(X, b)

    monkeypatch.setattr(fimod, "fi_shift", counting)
    monkeypatch.setattr(loccoh, "fi_shift", counting)
    assert verify_main_theorem(M).verdict == "PASS"
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", ["Aplus", "Mix"])
def test_verify_tests_each_module_for_semi_inducedness_once(monkeypatch, name):
    M = recursion_inputs(GF(5), 7)[name]
    calls = Counter()
    seen = []  # keeps every argument alive, so that ids stay distinct
    test = loccoh.is_semi_induced

    def counting(X):
        seen.append(X)
        calls[id(X)] += 1
        return test(X)

    monkeypatch.setattr(loccoh, "is_semi_induced", counting)
    assert verify_main_theorem(M).verdict == "PASS"
    assert calls and max(calls.values()) == 1


def test_total_strands_are_built_once_per_complex_and_degree(monkeypatch):
    field = GF(5)
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 6)
    C = FIComplex.single(T)
    builds = Counter()
    build = complexes.total_strand

    def counting(X, g):
        builds[(id(X), g)] += 1
        return build(X, g)

    monkeypatch.setattr(complexes, "total_strand", counting)
    certs = nu_certificate(C, good_ideal(2, field))
    assert any(c.status == "ok" for c in certs)
    assert builds and max(builds.values()) == 1
    assert sorted(C.strands) == list(range(C.window + 1))


def test_only_verified_strands_are_cached(monkeypatch):
    field = GF(5)
    A = fi_constant(field, 4)
    build = tor._koszul_diff

    def failing(pieces, steps, n, fld, i):
        d = build(pieces, steps, n, fld, i)
        if (n, i) == (3, 2):
            set_entry(d, 0, 0, field.normalize(entry(d, 0, 0) + field.one))
        return d

    monkeypatch.setattr(tor, "_koszul_diff", failing)
    for _ in range(2):
        with pytest.raises(TorError, match="d\\^2"):
            cached_strand(A, 3).rank(2)
        assert list(A.strands[3].diffs) == [1]
    assert cached_strand(A, 2) is cached_strand(A, 2) is A.strands[2]
    assert [cached_strand(A, 2).rank(i) for i in (1, 2)] == [1, 1]


def _tabulate_a_fresh_module():
    field = GF(5)
    M = direct_sum(
        fi_induced(basic_rep("sign", 2, field), 5),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, 5),
    )
    tor_table(M)
    assert sorted(M.strands) == list(range(6))
    del M


def _tabulate_a_fresh_complex():
    field = GF(5)
    A = fi_constant(field, 4)
    C = FIComplex({0: A, 1: A}, {0: FIMorphism(
        A, A, [Matrix.identity(field, 1) for _ in range(A.window + 1)])})
    hyper_tor(C, 2)
    hyper_tor_rep(C, 0, 3)
    assert sorted(C.strands) == list(range(5))
    del C, A


def test_cached_strands_make_no_reference_cycle():
    # M.strands and C.strands hold the strands, so a strand that referenced
    # its module or complex would keep it alive until the cycle collector ran
    gc.collect()
    gc.disable()
    try:
        _tabulate_a_fresh_module()
        assert gc.collect() == 0
        _tabulate_a_fresh_complex()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tor_rep_of_cached_strand_matches_fresh_build(field):
    T = fi_torsion_concentrated(basic_rep("regular", 2, field), 2, 5)
    tor_table(T)
    assert 4 in T.strands
    fresh = koszul_strand(T, 4)
    sq = _strand_homology_sq(fresh, 2)
    expected = SnRep(4, field, [sq.induced_map(g, sq) for g in fresh.term(2).gens],
                     dim=sq.dim)
    assert tor_rep(T, 2, 4) == expected
    assert expected.dim == math.comb(4, 2) * 2


# -- local blocks by one generator product, against permutation words --


def koszul_diffs_by_words(M, n):
    """The differentials of the degree-n strand, with each local block the
    word of the cycle (q ... m) multiplied out after the step into degree m."""
    field = M.field
    diffs = {}
    for i in range(1, n + 1):
        m = n - i + 1
        dim_m, dim_m1 = M.dim(m - 1), M.dim(m)
        blocks = []
        if dim_m and dim_m1:
            idx1 = {s: k for k, s in enumerate(combinations(range(1, n + 1), i - 1))}
            for k, T in enumerate(combinations(range(1, n + 1), i)):
                for j, t in enumerate(T):
                    cyc = Permutation.cycle(list(range(t - j, m + 1)), m)
                    local = perm_matrix(M.pieces[m], cyc) * M.steps[m - 1]
                    blocks.append((idx1[T[:j] + T[j + 1:]] * dim_m1, k * dim_m,
                                   local.scale(field.of(-1)) if j % 2 else local))
        diffs[i] = Matrix.from_blocks(field, math.comb(n, i - 1) * dim_m1,
                                      math.comb(n, i) * dim_m, blocks)
    return diffs


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1),
       b=st.integers(0, 2))
def test_koszul_strand_matches_the_word_oracle(field, kind, seed, b):
    M = fi_shift(oracle_module(kind, field, random.Random(seed)), b)
    for n in range(M.window + 1):
        strand = koszul_strand(M, n)
        strand.diff(n)
        assert strand.diffs == koszul_diffs_by_words(M, n)


def test_construction_never_multiplies_out_a_permutation_word():
    """The package has no means to: no representation has ``perm_matrix``
    and there is no permutations module.  The word forms are the oracles
    of ``tests/oracles.py``."""
    assert not hasattr(SnRep, "perm_matrix")
    assert importlib.util.find_spec("fihomlab.permutations") is None


# -- ranks from certified bounds, and truncated strands ----------------


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS + ("complex",)), seed=st.integers(0, 2**32 - 1),
       b=st.integers(0, 2), data=st.data())
def test_rank_bounds_match_elimination(field, kind, seed, b, data):
    """Every rank a strand reports, whether its bounds settled it or
    elimination did, in any order of reading, from a strand built through
    any term."""
    rng = random.Random(seed)
    if kind == "complex":
        f = random_induced_morphism(field, rng, 5)
        C = FIComplex({0: f.source, 1: f.target}, {0: f})
        strands = [total_strand(C, g) for g in range(C.window + 1)]
    else:
        M = fi_shift(oracle_module(kind, field, rng), b)
        strands = [koszul_strand(M, n) for n in range(M.window + 1)]
    for strand in strands:
        strand.diff(data.draw(st.integers(strand.lo, strand.hi)))
        for i in data.draw(st.permutations(range(strand.lo + 1, strand.hi + 1))):
            assert strand.rank(i) == linalg.rank(strand.diff(i)), i


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1),
       b=st.integers(0, 2), i_max=st.integers(0, 3))
def test_truncated_strands_and_tables_match_the_full_ones(field, kind, seed, b, i_max):
    """A strand read through term hi holds the full strand's differentials
    d_1..d_hi and no other, and ``tor_table(M, i_max)`` builds d_1..d_{i_max+1}
    only and has the rows 0..i_max of the full table, so the shift search
    reads the same Tor_1 and Tor_2.  A full table then grows the same
    strands."""
    full_M = fi_shift(oracle_module(kind, field, random.Random(seed)), b)
    cut_M = fi_shift(oracle_module(kind, field, random.Random(seed)), b)
    for n in range(full_M.window + 1):
        full = koszul_strand(full_M, n)
        full.diff(n)
        for hi in range(n + 1):
            cut = koszul_strand(full_M, n)
            cut.diff(hi)
            assert cut.diffs == {i: full.diffs[i] for i in range(1, hi + 1)}
    i_max = min(i_max, cut_M.window)
    cut_table = tor_table(cut_M, i_max)
    assert all(list(s.diffs) == list(range(1, min(n, i_max + 1) + 1))
               for n, s in cut_M.strands.items())
    full_table = tor_table(full_M)
    assert cut_table.entries == {(i, n): d for (i, n), d in full_table.entries.items()
                                 if i <= i_max}
    assert loccoh.is_semi_induced(cut_M) == loccoh.is_semi_induced(full_M)
    cut_strands = dict(cut_M.strands)
    assert tor_table(cut_M).entries == full_table.entries
    assert cut_M.strands == cut_strands


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1),
       b=st.integers(0, 2), data=st.data())
def test_reading_a_strand_builds_its_differentials_in_order(field, kind, seed, b, data):
    """``rank``, ``strand_homology_dim`` and ``homology_rep`` read past the
    built terms build the missing differentials in order, up to the last
    one they read and no further, and agree with a fully built strand.  A
    strand whose d^2 check fails keeps the differentials below the failure
    and raises again on every read that needs it."""
    M = fi_shift(oracle_module(kind, field, random.Random(seed)), b)
    for n in range(M.window + 1):
        full = koszul_strand(M, n)
        full.diff(n)
        strand = koszul_strand(M, n)
        built = data.draw(st.integers(0, n))
        strand.diff(built)
        for i in data.draw(st.permutations(range(n + 2))):
            read = data.draw(st.sampled_from(["rank", "dim", "rep"]))
            if read == "rank":
                assert strand.rank(i) == full.rank(i)
            elif read == "dim":
                assert strand_homology_dim(strand, i) == strand_homology_dim(full, i)
            else:
                assert homology_rep(strand, i) == homology_rep(full, i)
            if i <= n:
                built = max(built, i if read == "rank" else min(i + 1, n))
            assert strand.diffs == {j: full.diffs[j] for j in range(1, built + 1)}
    strand = koszul_strand(fi_constant(field, 4), 4)
    assert strand.rank(1) == 1
    strand.build = perturbing(strand.build, 2, 0, 0, field)
    for read in (lambda: strand.rank(2), lambda: strand.diff(4),
                 lambda: strand_homology_dim(strand, 1), lambda: homology_rep(strand, 1)):
        with pytest.raises(TorError, match="d\\^2"):
            read()
        assert list(strand.diffs) == [1]
        assert strand_homology_dim(strand, 0) == 0


def test_crossed_rank_bounds_raise():
    # d_2 of the constant module's strand at n = 4 has rank 3; a 4 x 6
    # replacement with four distinct first columns, put in after the check,
    # gives a lower bound of 4 against the upper bound dim C_1 - rank d_1 = 3
    field = GF(5)
    strand = koszul_strand(fi_constant(field, 4), 4)
    strand.diff(4)
    strand.diffs[2] = Matrix(field, 4, 6, [[(k, 1)] for k in range(4)])
    with pytest.raises(TorError, match="rank bounds 4 > 3"):
        strand.rank(2)
