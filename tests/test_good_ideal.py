import importlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import orbit_span_subrep, random_rep
from oracles import Permutation, nu_bruteforce, perm_matrix

from fihomlab.fields import GF, QQ
from fihomlab.good_ideal import (
    GoodIdealError,
    default_p,
    good_ideal,
    ideal_operators,
    nu,
    two_sided_ideal_dimension,
    verify_good_ideal,
)
from fihomlab.linalg import Matrix, SubquotientSpace
from fihomlab.reps import SnRep, basic_rep

# the package binds the name good_ideal to the function
good_ideal_module = importlib.import_module("fihomlab.good_ideal")

FIELDS_P2 = [QQ, GF(3), GF(5), GF(7)]
FIELDS_P3 = [QQ, GF(2), GF(5), GF(7)]


@pytest.mark.parametrize("f", FIELDS_P2, ids=lambda f: f.name)
def test_axioms_p2(f):
    rep = verify_good_ideal(good_ideal(2, f))
    assert rep["all_pass"], rep


@pytest.mark.parametrize("f", FIELDS_P3, ids=lambda f: f.name)
def test_axioms_p3(f):
    rep = verify_good_ideal(good_ideal(3, f))
    assert rep["all_pass"], rep


def test_wrong_characteristic_rejected():
    with pytest.raises(GoodIdealError):
        good_ideal(2, GF(2))
    with pytest.raises(GoodIdealError):
        good_ideal(3, GF(3))


def test_each_good_ideal_is_verified_once(monkeypatch):
    runs = []
    real = good_ideal_module.verify_good_ideal
    monkeypatch.setattr(good_ideal_module, "verify_good_ideal",
                        lambda gi: runs.append(gi) or real(gi))
    good_ideal.cache_clear()
    try:
        assert good_ideal(2, GF(7)) is good_ideal(2, GF(7))
        assert len(runs) == 1
        for _ in range(2):  # a refusal is raised afresh, never kept
            with pytest.raises(GoodIdealError):
                good_ideal(7, GF(7))
            with pytest.raises(GoodIdealError):
                good_ideal(2, GF(2))
        # an ideal whose axioms fail is checked again on the next call
        monkeypatch.setattr(good_ideal_module, "verify_good_ideal",
                            lambda gi: runs.append(gi) or {"all_pass": False})
        for _ in range(2):
            with pytest.raises(GoodIdealError):
                good_ideal(3, GF(7))
        assert len(runs) == 3
    finally:
        good_ideal.cache_clear()


def test_default_block_size_is_invertible():
    assert [default_p(f) for f in (QQ, GF(2), GF(3), GF(5))] == [2, 3, 2, 2]


def regular_g(gi):
    """The matrix of g in the regular representation of S_p."""
    return gi.g(basic_rep("regular", gi.p, gi.field).gens)


def test_norm_squared_is_twice_norm():
    for f in FIELDS_P2:
        n = regular_g(good_ideal(2, f))
        assert n * n == n.scale(f.of(2))


def test_tau_idempotent():
    for f in FIELDS_P3:
        tau = regular_g(good_ideal(3, f))
        assert tau * tau == tau


def test_quotient_by_ideal_has_dimension_two():
    # dim k[S_3] = 6, the two-sided ideal of tau has dimension 4
    for f in FIELDS_P3:
        assert two_sided_ideal_dimension(good_ideal(3, f)) == 4


def test_nu_of_sign_and_trivial(field):
    # sign is never annihilated below the capacity bound: nu = n for both p.
    # trivial: the p=2 generator (the norm of S_2) acts on trivial by 2, so
    # r* = floor(n/2) and nu = n - floor(n/2); the p=3 generator has
    # coefficient sum (1+1)(1+1) - (2/3)*6 = 0, so it annihilates trivial
    # outright and nu = n.
    for p in (2, 3):
        if field.characteristic == p:
            continue
        gi = good_ideal(p, field)
        for n in range(0, 8):
            assert nu(basic_rep("sign", n, field), gi) == n
            expected_triv = n - n // 2 if p == 2 else n
            assert nu(basic_rep("trivial", n, field), gi) == expected_triv


def test_nu_zero_rep_is_infinite(field):
    import math

    from fihomlab.reps import zero_rep

    gi = good_ideal(2, field)
    assert nu(zero_rep(3, field), gi).value == math.inf


def test_block_embed_vanishes_beyond_capacity(field):
    # g^{boxtimes r} is an operator for r <= n // p only: I_5(3) = 0 for p = 2
    gi = good_ideal(2, field)
    ops = list(ideal_operators(gi, basic_rep("regular", 5, field)))
    assert len(ops) == 3
    assert ops[0] == Matrix.identity(field, 120)
    assert not ops[2].is_zero()


# g in one-line notation, expanded by hand: 1 + (1,2) for p = 2, and for
# p = 3 (1 + (1,2))(1 + (1,3)) - (2/3) N = (1/3)(e + (1,2) + (1,3) + [3,1,2])
# - (2/3)((2,3) + [2,3,1])
G_TERMS = {
    2: {(1, 2): 1, (2, 1): 1},
    3: {(1, 2, 3): Fraction(1, 3), (2, 1, 3): Fraction(1, 3),
        (3, 2, 1): Fraction(1, 3), (3, 1, 2): Fraction(1, 3),
        (1, 3, 2): Fraction(-2, 3), (2, 3, 1): Fraction(-2, 3)},
}


def expanded_operator(p, r, rep):
    """g^{boxtimes r} on ``rep``, term by term: one permutation of S_n per
    choice of a term of g on each block {jp+1 .. jp+p}, acting by its word."""
    f, n = rep.field, rep.n
    out = Matrix.zeros(f, rep.dim, rep.dim)
    for terms in product(G_TERMS[p].items(), repeat=r):
        images, coeff = list(range(1, n + 1)), 1
        for j, (block, c) in enumerate(terms):
            images[j * p: j * p + p] = [j * p + x for x in block]
            coeff *= c
        out = out + perm_matrix(rep, Permutation(images)).scale(f.of(coeff))
    return out


@settings(max_examples=40, deadline=None)
@given(fp=st.sampled_from([(QQ, 2), (GF(5), 2), (GF(3), 2), (QQ, 3), (GF(5), 3),
                           (GF(2), 3)]),
       n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_ideal_operators_match_the_term_expansion(fp, n, seed):
    field, p = fp
    gi = good_ideal(p, field)
    rep = random_rep(n, field, random.Random(seed), max_summands=2)
    ops = list(ideal_operators(gi, rep))
    assert len(ops) == n // p + 1
    for r, op in enumerate(ops):
        assert op == expanded_operator(p, r, rep), r


def test_operator_agrees_with_bruteforce_on_random_reps(field, rng):
    gi = good_ideal(2, field)
    for _ in range(8):
        n = rng.randint(2, 4)
        rep = random_rep(n, field, rng, max_summands=2)
        assert nu(rep, gi) == nu_bruteforce(rep, gi)


def test_min_rule_on_invariant_subspace_ses(field, rng):
    # nu(V) = min(nu(sub), nu(quotient)) for a short exact sequence
    gi = good_ideal(2, field)
    for _ in range(10):
        n = rng.randint(2, 4)
        rep = random_rep(n, field, rng, max_summands=2)
        sub_basis = orbit_span_subrep(rep, rng)
        if sub_basis.cols in (0, rep.dim):
            continue
        sub_sq = SubquotientSpace.from_sub_killed(sub_basis)
        sub = SnRep(n, field,
                    [sub_sq.induced_map(g, sub_sq) for g in rep.gens],
                    dim=sub_sq.dim)
        full = Matrix.identity(field, rep.dim)
        quot_sq = SubquotientSpace.from_sub_killed(full, sub_basis)
        quot = SnRep(n, field,
                     [quot_sq.induced_map(g, quot_sq) for g in rep.gens],
                     dim=quot_sq.dim)
        assert nu(rep, gi).value == min(nu(sub, gi).value, nu(quot, gi).value)
