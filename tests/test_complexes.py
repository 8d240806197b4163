import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_induced_morphism
from oracles import truncation_morphism

from fihomlab.complexes import (
    ComplexError,
    FIComplex,
    cohomology_dims,
    hyper_tor,
    hyper_tor_rep,
)
from fihomlab.fields import GF, QQ
from fihomlab.fimod import (
    FIMorphism,
    fi_constant,
    fi_torsion_concentrated,
    fi_truncate,
    subquotient_module,
)
from fihomlab.linalg import Matrix, SubquotientSpace, kernel_basis
from fihomlab.reps import basic_rep
from fihomlab.tor import tor_table

W = 5


def torsion(field, kind, d, window=W):
    return fi_torsion_concentrated(basic_rep(kind, d, field), d, window)


def identity_morphism(M):
    return FIMorphism(
        M, M, [Matrix.identity(M.field, M.dim(n)) for n in range(M.window + 1)]
    )


def complex_cohomology(C: FIComplex) -> dict:
    """H^i = ker d^i / im d^{i-1} as FI-modules, for every supported index:
    the subquotient oracle for the rank-based ``cohomology_dims``."""
    out = {}
    for i in sorted(C.terms):
        spaces = [SubquotientSpace.from_sub_killed(kernel_basis(C.diff_matrix(i, n)),
                                                   C.diff_matrix(i - 1, n))
                  for n in range(C.window + 1)]
        out[i] = subquotient_module(C.terms[i], spaces)
    return out


def test_single_term_hyper_tor_matches_module_tor(field):
    T = torsion(field, "trivial", 2)
    C = FIComplex.single(T)
    module_table = tor_table(T, i_max=3)
    hyper_table = hyper_tor(C, i_max=3)
    for i in range(4):
        for n in range(W + 1):
            assert hyper_table.dim(i, n) == module_table.dim(i, n)


def test_identity_complex_is_acyclic(field):
    T = torsion(field, "trivial", 1)
    C = FIComplex({0: T, 1: T}, {0: identity_morphism(T)})
    assert all(h.is_zero() for h in complex_cohomology(C).values())
    assert all(not any(d) for d in cohomology_dims(C).values())
    table = hyper_tor(C, i_max=3)
    assert not table.entries


def test_two_term_cohomology(field):
    # A -> A/deg<=1: kernel in degrees >= 2, no cokernel
    A = fi_constant(field, W)
    tr = truncation_morphism(A, 1)
    C = FIComplex({0: A, 1: tr.target}, {0: tr})
    coh = complex_cohomology(C)
    assert coh[0].dims() == [0, 0, 1, 1, 1, 1]
    assert coh[1].is_zero()
    assert cohomology_dims(C) == {0: [0, 0, 1, 1, 1, 1], 1: [0] * 6}


def test_dd_zero_enforced(field):
    T = torsion(field, "trivial", 1)
    f = identity_morphism(T)
    with pytest.raises(ComplexError):
        FIComplex({0: T, 1: T, 2: T}, {0: f, 1: f})


def test_hyper_tor_of_shifted_single_term(field):
    # a single term at cohomological index 1 satisfies Tor_n(C) = Tor_{n+1}(T)
    T = torsion(field, "trivial", 2)
    C0 = FIComplex.single(T, 0)
    C1 = FIComplex.single(T, 1)
    t0 = hyper_tor(C0, i_max=3)
    t1 = hyper_tor(C1, i_max=2)
    for (i, n), d in t0.entries.items():
        if i >= 1:
            assert t1.dim(i - 1, n) == d


def test_hyper_tor_rep_is_genuine(field):
    T = torsion(field, "trivial", 1)
    C = FIComplex.single(T)
    rep = hyper_tor_rep(C, 2, 3)
    rep.verify()
    assert rep.dim == math.comb(3, 2)


def test_min_support(field):
    T = torsion(field, "trivial", 1)
    assert FIComplex.single(T, 1).min_support() == 1
    from fihomlab.fimod import zero_module

    Z = zero_module(field, W)
    assert FIComplex({0: Z, 1: T}).min_support() == 1


# -- cohomology dims against the subquotient oracle ----------------------


def torsion_complex(field, rng, window):
    """A complex of torsion terms: the shapes of acceptance criterion 8, an
    identity complex, or a truncation A_{<=c+1} -> A_{<=c}."""
    T1 = torsion(field, "trivial", 1, window)
    T2 = torsion(field, rng.choice(["trivial", "sign", "regular"]), 2, window)
    shape = rng.randrange(5)
    if shape == 0:
        return FIComplex({0: T2, 1: T1})
    if shape == 1:
        return FIComplex({0: T1, 1: T2})
    if shape == 2:
        return FIComplex.single(T1, rng.randint(1, 2))
    if shape == 3:
        return FIComplex({0: T2, 1: T2}, {0: identity_morphism(T2)})
    c = rng.randint(0, window - 2)
    tr = truncation_morphism(fi_truncate(fi_constant(field, window), c + 1), c)
    return FIComplex({0: tr.source, 1: tr.target}, {0: tr})


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, GF(2), GF(5)]), seed=st.integers(0, 2**32 - 1),
       induced=st.booleans(), window=st.integers(4, 6))
def test_cohomology_dims_match_the_subquotient_oracle(field, seed, induced, window):
    rng = random.Random(seed)
    if induced:
        f = random_induced_morphism(field, rng, window)
        C = FIComplex({0: f.source, 1: f.target}, {0: f})
    else:
        C = torsion_complex(field, rng, window)
    dims = cohomology_dims(C)
    coh = complex_cohomology(C)
    assert sorted(dims) == sorted(coh)
    for i, h in coh.items():
        assert dims[i] == h.dims()
