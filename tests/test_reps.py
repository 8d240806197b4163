import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from oracles import Permutation, all_permutations, perm_matrix, regular_rep_by_permutations

from fihomlab.fields import GF, QQ, FieldError
from fihomlab.fimod import kernel
from fihomlab.linalg import Matrix, in_span, kronecker
from fihomlab.reps import (
    RepError,
    SnRep,
    basic_rep,
    direct_sum_reps,
    induce_young,
    restrict_rep,
    subrep_span,
    zero_rep,
)


def test_basic_reps_satisfy_coxeter(field):
    for kind in ("trivial", "sign", "natural", "regular"):
        for n in range(5):
            rep = basic_rep(kind, n, field)
            rep.verify()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
def test_regular_rep_basis_is_the_permutation_order(field):
    """Job seeds such as ``morphism f induced r A 1,1;2`` are written in the
    regular rep's basis, so it stays S_n in lexicographic order with s_i
    acting by left multiplication, generator for generator."""
    for n in range(5):
        assert basic_rep("regular", n, field) == regular_rep_by_permutations(n, field)


def test_coxeter_verification_catches_bad_generators():
    f = QQ
    good = basic_rep("natural", 3, f)
    broken = Matrix.from_rows(f, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(RepError):
        SnRep(3, f, [good.gens[0], broken])


def test_perm_matrix_is_a_homomorphism(field):
    rep = basic_rep("regular", 3, field)
    for p in all_permutations(3):
        for q in all_permutations(3):
            assert perm_matrix(rep, p * q) == perm_matrix(rep, p) * perm_matrix(rep, q)


def test_natural_rep_permutes_coordinates():
    rep = basic_rep("natural", 4, QQ)
    p = Permutation([3, 1, 4, 2])
    m = perm_matrix(rep, p)
    # basis vector e_x goes to e_{p(x)}
    cols = m.columns()
    for x in range(1, 5):
        assert cols[x - 1] == [(p(x) - 1, 1)]


@pytest.mark.parametrize("a_kind,a,b_kind,b", [
    ("sign", 1, "trivial", 2),
    ("sign", 2, "trivial", 2),
    ("trivial", 2, "sign", 2),
    ("natural", 2, "trivial", 1),
    ("sign", 3, "trivial", 1),
    ("regular", 2, "sign", 2),
])
def test_induction_coxeter_deep(field, a_kind, a, b_kind, b):
    """Young induction produces a genuine representation (full Coxeter check)."""
    U = basic_rep(a_kind, a, field)
    W = basic_rep(b_kind, b, field)
    ind = induce_young(U, W)
    ind.verify()
    assert ind.dim == math.comb(a + b, a) * U.dim * W.dim


def test_induction_character_of_trivial_blocks():
    # Ind(triv_a x triv_b) is the permutation action on a-subsets: the trace
    # of sigma counts its fixed a-subsets.
    from itertools import combinations

    f = QQ
    a, b = 2, 2
    ind = induce_young(basic_rep("trivial", a, f), basic_rep("trivial", b, f))
    ind.verify()
    for p in all_permutations(a + b):
        m = perm_matrix(ind, p)
        trace = conftest.trace(m)
        fixed = sum(
            1 for s in combinations(range(1, a + b + 1), a)
            if tuple(sorted(p(x) for x in s)) == s
        )
        assert trace == fixed


def test_induced_sign_block_total_sign():
    # On Ind(sgn_a x sgn_b), every permutation inside the Young subgroup acts
    # on the identity-coset line by its sign.
    f = QQ
    ind = induce_young(basic_rep("sign", 2, f), basic_rep("sign", 2, f))
    ind.verify()
    s1 = perm_matrix(ind, Permutation.adjacent(1, 4))
    s3 = perm_matrix(ind, Permutation.adjacent(3, 4))
    # identity coset is the lex-first subset (1,2): basis index 0
    assert conftest.entry(s1, 0, 0) == -1
    assert conftest.entry(s3, 0, 0) == -1


def test_induction_over_mixed_fields_is_refused():
    with pytest.raises(FieldError):
        induce_young(basic_rep("trivial", 1, QQ), basic_rep("trivial", 1, GF(5)))


def test_restrict_and_direct_sum(field):
    r = direct_sum_reps([basic_rep("natural", 4, field), basic_rep("sign", 4, field)])
    r.verify()
    assert r.dim == 5
    res = restrict_rep(r, 2)
    res.verify()
    assert res.dim == 5 and res.n == 2


def test_zero_rep(field):
    z = zero_rep(4, field)
    assert z.dim == 0 and z.is_zero()


# -- the coset oracle -----------------------------------------------------
#
# Young induction by permutation words: for each a-subset S and each s_i,
# factor g_T^-1 s_i g_S into its S_a and S_b parts and place the Kronecker
# product of their matrices.  ``induce_young`` reads the same blocks off by
# index arithmetic and must give identical data.


def inverse(p):
    """The inverse permutation, which only the coset oracle needs."""
    img = [0] * p.n
    for x, y in enumerate(p.images, start=1):
        img[y - 1] = x
    return Permutation(img)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_inverse(images):
    p = Permutation(images)
    assert p * inverse(p) == Permutation.identity(p.n)
    assert inverse(p) * p == Permutation.identity(p.n)


def coset_induce_young(U, W):
    field, a = U.field, U.n
    n = a + W.n
    subsets = list(combinations(range(1, n + 1), a))
    index = {s: k for k, s in enumerate(subsets)}
    cosets = {s: Permutation(list(s) + [x for x in range(1, n + 1) if x not in s])
              for s in subsets}
    inner = U.dim * W.dim
    dim = len(subsets) * inner
    gens = []
    for i in range(1, n):
        s_i = Permutation.adjacent(i, n)
        blocks = []
        for s in subsets:
            t = tuple(sorted(s_i(x) for x in s))
            h = inverse(cosets[t]) * s_i * cosets[s]
            pi = Permutation([h(x) for x in range(1, a + 1)])
            rho = Permutation([h(x) - a for x in range(a + 1, n + 1)])
            blocks.append((index[t] * inner, index[s] * inner,
                           kronecker(perm_matrix(U, pi), perm_matrix(W, rho))))
        gens.append(Matrix.from_blocks(field, dim, dim, blocks))
    return SnRep(n, field, gens, dim=dim, check=False)


def assert_same_induction(U, W):
    ind = induce_young(U, W)
    expected = coset_induce_young(U, W)
    assert (ind.n, ind.dim) == (expected.n, expected.dim)
    assert [g.data for g in ind.gens] == [g.data for g in expected.gens]
    ind.verify()


KINDS = ("trivial", "sign", "natural", "regular")
COSET_FIELDS = [QQ, GF(2), GF(5)]


@pytest.mark.parametrize("field", COSET_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(ka=st.sampled_from(KINDS), a=st.integers(0, 3),
       kb=st.sampled_from(KINDS), b=st.integers(0, 3))
def test_induce_young_matches_the_coset_oracle(field, ka, a, kb, b):
    assert_same_induction(basic_rep(ka, a, field), basic_rep(kb, b, field))


@pytest.mark.parametrize("field", COSET_FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kb=st.sampled_from(KINDS), b=st.integers(0, 3),
       swap=st.booleans(), data=st.data())
def test_induce_young_matches_the_coset_oracle_on_kernel_pieces(field, seed, kb, b,
                                                                swap, data):
    # a kernel piece is a subquotient rep in a basis no basic rep has
    f = conftest.random_induced_morphism(field, random.Random(seed), window=3)
    pieces = kernel(f).pieces
    a = data.draw(st.sampled_from([n for n in range(4) if pieces[n].dim] or [3]))
    other = basic_rep(kb, b, field)
    U, W = (other, pieces[a]) if swap else (pieces[a], other)
    assert_same_induction(U, W)


@pytest.mark.parametrize("field", COSET_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(0, 3))
def test_subrep_span_matches_the_whole_span_loop(field, seed, n, k):
    rng = random.Random(seed)
    rep = conftest.random_rep(n, field, rng)
    vectors = conftest.random_matrix(field, rep.dim, k, rng, lo=-2, hi=2)
    span = subrep_span(rep, vectors)
    # the same pivot columns, so the same basis and the same subspace
    assert span == conftest.subrep_span_whole(rep, vectors)
    assert all(in_span(span, g * span) for g in rep.gens)
