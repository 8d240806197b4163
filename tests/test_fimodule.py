import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ORACLE_KINDS,
    equivariant_hom_basis,
    oracle_module,
    random_induced_morphism,
    set_entry,
    subrep_span_whole,
)
from oracles import Permutation, matrix_copy, perm_matrix

from fihomlab.fields import GF, QQ
from fihomlab.fimod import (
    FIError,
    FIModule,
    WindowExhausted,
    cokernel,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_shift,
    fi_torsion_concentrated,
    fi_truncate,
    generation_degrees,
    image,
    induced_morphism,
    kernel,
    last_nonzero,
    natural_shift_map,
    subquotient_module,
    torsion_submodule,
    zero_module,
)
from fihomlab.linalg import Matrix, SubquotientSpace, kernel_basis
from fihomlab.reps import basic_rep

W = 5


def test_induced_module_dims(field):
    V = basic_rep("sign", 2, field)
    M = fi_induced(V, W)
    assert M.dims() == [math.comb(n, 2) for n in range(W + 1)]
    M.verify()


def test_invariant_violation_is_caught(field):
    M = fi_induced(basic_rep("trivial", 1, field), 3)
    steps = list(M.steps)
    bad = matrix_copy(steps[1])
    set_entry(bad, 1, 0, field.one)  # sends the generator into an asymmetric vector
    steps[1] = bad
    with pytest.raises(FIError):
        FIModule(field, 3, M.pieces, steps)


def test_generation_degrees_oracle(field):
    V = basic_rep("trivial", 2, field)
    assert generation_degrees(fi_induced(V, W)) == [0, 0, 1, 0, 0, 0]
    T = fi_torsion_concentrated(V, 2, W)
    assert generation_degrees(T) == [0, 0, 1, 0, 0, 0]
    S = direct_sum(fi_induced(V, W), T)
    assert generation_degrees(S) == [0, 0, 2, 0, 0, 0]


def test_torsion_submodule_of_mixed_sum(field):
    I = fi_induced(basic_rep("sign", 2, field), W)
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W)
    S = direct_sum(I, T)
    tp = torsion_submodule(S)
    assert tp.dims == T.dims()
    assert tp.certified_through >= 1


def test_torsion_submodule_of_induced_is_zero(field):
    tp = torsion_submodule(fi_induced(basic_rep("natural", 1, field), W))
    assert not any(tp.dims)


def test_maxdeg(field):
    T = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, W)
    assert torsion_submodule(T).maxdeg == 2
    assert torsion_submodule(zero_module(field, W)).maxdeg == -math.inf
    # a torsion part computed from ranks, not read off a torsion module
    mix = direct_sum(fi_induced(basic_rep("sign", 2, field), W), T)
    assert torsion_submodule(mix).maxdeg == 2
    assert torsion_submodule(fi_constant(field, W)).maxdeg == -math.inf


def test_shift_of_torsion_drops_degree(field):
    T = fi_torsion_concentrated(basic_rep("trivial", 2, field), 2, W)
    S = fi_shift(T, 1)
    S.verify()
    assert S.dims() == [0, 1, 0, 0, 0]
    with pytest.raises(WindowExhausted):
        fi_shift(T, W + 1)


def test_shift_of_constant_is_constant(field):
    A = fi_constant(field, W)
    S = fi_shift(A, 2)
    assert S.dims() == [1] * (W - 1)
    S.verify()


def test_natural_shift_map_kernel_is_torsion(field):
    I = fi_induced(basic_rep("trivial", 1, field), W)
    T = fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, W)
    S = direct_sum(I, T)
    nat = natural_shift_map(S, fi_shift(S, 1))
    ker = kernel(nat)
    assert ker.dims()[: W] == torsion_submodule(S).dims[: W]


def test_kernel_image_cokernel_rank_additivity(field):
    A = fi_constant(field, W)
    V = basic_rep("trivial", 1, field)
    f = induced_morphism(V, A, Matrix.from_rows(field, [[1]]))
    ker = kernel(f)
    img = image(f)
    cok = cokernel(f)
    for n in range(W + 1):
        assert ker.dim(n) + img.dim(n) == f.source.dim(n)
        assert img.dim(n) + cok.dim(n) == f.target.dim(n)
    # cokernel of I(triv_1) -> A is the constant module truncated to degree 0
    assert cok.dims() == [1, 0, 0, 0, 0, 0]


def test_induced_morphism_requires_equivariant_seed(field):
    V = basic_rep("sign", 2, field)
    A = fi_constant(field, W)
    with pytest.raises(FIError):
        induced_morphism(V, A, Matrix.from_rows(field, [[1]]))


def test_equivariant_hom_basis_dimensions(field):
    triv = basic_rep("trivial", 3, field)
    sgn = basic_rep("sign", 3, field)
    reg = basic_rep("regular", 3, field)
    assert len(equivariant_hom_basis(triv, reg)) == 1
    assert len(equivariant_hom_basis(sgn, reg)) == 1
    if field.characteristic == 0:
        assert len(equivariant_hom_basis(triv, sgn)) == 0
    assert len(equivariant_hom_basis(reg, reg)) == 6


def test_truncate_is_torsion(field):
    A = fi_constant(field, W)
    T = fi_truncate(A, 2)
    assert T.dims() == [1, 1, 1, 0, 0, 0]
    assert T.torsion_hint
    T.verify()


# -- the subquotient torsion oracle --------------------------------------


def subquotient_torsion(M):
    """The torsion submodule built as a subquotient module of M, with the
    degree through which it is certified: the oracle for the rank-based
    ``torsion_submodule``."""
    if M.torsion_hint:
        return M, M.window
    hi = M.window
    subs = []
    certified_through = -1
    contiguous = True
    for n in range(hi + 1):
        full = kernel_basis(M.composite_step(n, hi))
        if n < hi:
            stable = full.cols == kernel_basis(M.composite_step(n, hi - 1)).cols
        else:
            stable = M.dim(n) == 0
        subs.append(full)
        if stable and contiguous:
            certified_through = n
        elif not stable:
            contiguous = False
    return (subquotient_module(M, map(SubquotientSpace.from_sub_killed, subs)),
            certified_through)


def assert_torsion_matches_oracle(M):
    tp = torsion_submodule(M)
    T, certified_through = subquotient_torsion(M)
    assert tp.dims == T.dims()
    assert tp.certified_through == certified_through
    assert tp.maxdeg == last_nonzero(T.dims())


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from([QQ, GF(5)]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["kernel", "cokernel"]), a=st.integers(0, 2),
       b=st.integers(1, 2), top=st.none() | st.integers(0, W - 1))
def test_torsion_matches_the_subquotient_oracle(field, seed, kind, a, b, top):
    f = random_induced_morphism(field, random.Random(seed))
    M = (kernel if kind == "kernel" else cokernel)(f)
    if top is not None:
        # torsion in degrees 0..top, which dies at the window end when
        # top = W - 1, so that those degrees are not certified
        M = direct_sum(M, fi_truncate(fi_constant(field, W), top))
    assert_torsion_matches_oracle(M)
    S = fi_shift(M, a)
    assert_torsion_matches_oracle(S)
    # the module the recursion steps to: the cokernel into a further shift
    Sb = fi_shift(S, min(b, S.window))
    assert_torsion_matches_oracle(cokernel(natural_shift_map(S, Sb)))


def test_torsion_matches_the_subquotient_oracle_on_shifts(field):
    T = fi_torsion_concentrated(basic_rep("regular", 2, field), 2, W)
    I = fi_induced(basic_rep("sign", 2, field), W)
    for M in (fi_constant(field, W), T, fi_truncate(fi_constant(field, W), 2),
              direct_sum(I, T), direct_sum(I, fi_truncate(fi_constant(field, W), W - 1))):
        for a in range(3):
            assert_torsion_matches_oracle(fi_shift(M, a))


# -- one generator product from a neighbour, against permutation words --
#
# Shifts and induced morphisms move vectors by one generator times a matrix
# already built.  The oracles multiply out the word of every permutation
# with ``perm_matrix`` instead, and must agree matrix for matrix.

ORACLE_FIELDS = [QQ, GF(2), GF(5)]


def shift_steps_by_words(M, b):
    """The steps of ``fi_shift(M, b)``: M's step, then the cycle (n+1 ... n+b+1)."""
    return [perm_matrix(M.pieces[n + b + 1],
                        Permutation.cycle(list(range(n + 1, n + b + 2)), n + b + 1))
            * M.steps[n + b]
            for n in range(M.window - b)]


def induced_maps_by_words(V, target, f0):
    """The maps of ``induced_morphism(V, target, f0)``: the block of a subset s
    is its coset representative times the composite step after f0."""
    d, field = V.n, V.field
    maps = []
    for n in range(target.window + 1):
        if n < d:
            maps.append(Matrix.zeros(field, target.dim(n), 0))
            continue
        comp = target.composite_step(d, n) * f0
        cols = []
        for s in combinations(range(1, n + 1), d):
            coset = Permutation(list(s) + [x for x in range(1, n + 1) if x not in s])
            cols.extend((perm_matrix(target.pieces[n], coset) * comp).columns())
        maps.append(Matrix.from_columns(field, cols, nrows=target.dim(n)))
    return maps


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1))
def test_shift_steps_match_the_word_oracle(field, kind, seed):
    M = oracle_module(kind, field, random.Random(seed))
    for b in range(4):
        S = fi_shift(M, b)
        assert list(S.steps) == shift_steps_by_words(M, b)
        if b:
            # the probes of the shift search, one shift by one at a time
            T = fi_shift(fi_shift(M, b - 1), 1)
            assert ([(p.n, p.dim, p.gens) for p in T.pieces]
                    == [(p.n, p.dim, p.gens) for p in S.pieces])
            assert T.steps == S.steps
            assert (T.window, T.torsion_hint) == (S.window, S.torsion_hint)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1),
       d=st.integers(0, 2), sign=st.booleans())
def test_induced_morphism_matches_the_word_oracle(field, kind, seed, d, sign):
    rng = random.Random(seed)
    f = random_induced_morphism(field, rng)
    d0 = next(n for n in range(f.source.window + 1) if f.source.dim(n))
    assert list(f.maps) == induced_maps_by_words(f.source.pieces[d0], f.target, f.maps[d0])
    # into a target whose steps are not subset inclusions
    target = oracle_module(kind, field, rng)
    V = basic_rep("sign" if sign else "trivial", d, field)
    f0 = Matrix.zeros(field, target.dim(d), V.dim)
    for b in equivariant_hom_basis(V, target.pieces[d]):
        f0 = f0 + b.scale(field.of(rng.randint(-2, 2)))
    assert list(induced_morphism(V, target, f0).maps) == induced_maps_by_words(V, target, f0)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1))
def test_generation_degrees_match_the_whole_span_loop(field, kind, seed):
    M = oracle_module(kind, field, random.Random(seed))
    assert generation_degrees(M) == [M.dim(0)] + [
        M.dim(n) - subrep_span_whole(M.pieces[n], M.steps[n - 1]).cols
        for n in range(1, M.window + 1)]
