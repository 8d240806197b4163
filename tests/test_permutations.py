from hypothesis import given, settings, strategies as st

from oracles import Permutation, all_permutations, factor_adjacent

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(list(images)))


@settings(max_examples=80, deadline=None)
@given(perms)
def test_factor_adjacent_roundtrip(p):
    out = Permutation.identity(p.n)
    for i in factor_adjacent(p):
        out = out * Permutation.adjacent(i, p.n)
    assert out == p


def test_composition_convention():
    # (sigma tau)(x) = sigma(tau(x))
    s = Permutation([2, 1, 3])
    t = Permutation([1, 3, 2])
    st_ = s * t
    for x in (1, 2, 3):
        assert st_(x) == s(t(x))


def test_cycle_and_transposition():
    c = Permutation.cycle([1, 2, 3], 4)
    assert [c(i) for i in (1, 2, 3, 4)] == [2, 3, 1, 4]
    t = Permutation.cycle([2, 4], 5)
    assert t(2) == 4 and t(4) == 2 and t(1) == 1


def test_all_permutations_lex_and_count():
    ps = all_permutations(4)
    assert len(ps) == 24
    assert len({p.images for p in ps}) == 24
    assert [p.images for p in ps] == sorted(p.images for p in ps)
