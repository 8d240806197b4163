import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import assert_entry_types, from_dense, set_entry, to_dense
from oracles import NoSolution, matrix_copy, matrix_from_dicts, solve

from fihomlab.fields import GF, QQ
from fihomlab.linalg import (
    InvariantViolation,
    LinAlgError,
    Matrix,
    SubquotientSpace,
    block_diag,
    column_space_basis,
    in_span,
    kernel_basis,
    kronecker,
    product_is_zero,
    rank,
    rref,
)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows],
                            ncols=len(rows[0]) if rows else 0)


small_entries = st.integers(min_value=-4, max_value=4)
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@st.composite
def matrices(draw, field):
    r, c = draw(shapes)
    rows = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return mat(field, rows)


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices(GF(5)))
def test_rank_equals_transpose_rank_gf5(m):
    # the rows of m, read as sparse columns, are the columns of its transpose
    transpose = Matrix.from_columns(m.field, m.data, nrows=m.cols)
    assert rank(m) == rank(transpose)


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_rref_idempotent(m):
    r1, p1, red1 = rref(m)
    r2, p2, red2 = rref(red1)
    assert (r1, p1) == (r2, p2) and red1 == red2


@settings(max_examples=40, deadline=None)
@given(matrices(GF(7)))
def test_kernel_columns_are_killed(m):
    k = kernel_basis(m)
    assert (m * k).is_zero()


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_column_space_spans_columns(m):
    basis = column_space_basis(m)
    assert rank(basis) == basis.cols == rank(m)
    assert in_span(basis, m)


def test_solve_and_no_solution():
    f = QQ
    basis = mat(f, [[1, 0], [0, 1], [0, 0]])
    target = mat(f, [[2], [3], [0]])
    x = solve(basis, target)
    assert basis * x == target
    bad = mat(f, [[0], [0], [1]])
    try:
        solve(basis, bad)
        assert False, "expected NoSolution"
    except NoSolution:
        pass


def test_kronecker_mixed_product():
    f = GF(5)
    rng = random.Random(7)
    def rnd(r, c):
        return mat(f, [[rng.randint(0, 4) for _ in range(c)] for _ in range(r)])
    a, b = rnd(2, 3), rnd(3, 2)
    c, d = rnd(3, 2), rnd(2, 3)
    assert kronecker(a * b, c * d) == kronecker(a, c) * kronecker(b, d)


def test_subquotient_space_dims_and_express():
    f = QQ
    sub = mat(f, [[1, 0], [0, 1], [0, 0]])
    killed = mat(f, [[1], [0], [0]])
    sq = SubquotientSpace.from_sub_killed(sub, killed)
    assert sq.dim == 1
    v = mat(f, [[0], [5], [0]])
    coords = sq.express(v)
    # the representative must agree with v modulo the killed subspace
    assert in_span(killed, sq.reps * coords - v)


# -- subquotient coordinates and membership ------------------------------
#
# ``SubquotientSpace`` reduces its frame ``[killed | reps]`` once; ``solve``
# on that frame is the reference for the coordinates ``express`` returns,
# and a vector outside span(sub) must be rejected.


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=repr)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_express_matches_solve_on_the_frame(field, data):
    r, c, k, t = (data.draw(oracle_dims) for _ in range(4))
    sub = data.draw(sparse_matrices(field, r, c))
    killed = sub * data.draw(sparse_matrices(field, c, k))
    vectors = sub * data.draw(sparse_matrices(field, c, t))
    sq = SubquotientSpace.from_sub_killed(sub, killed)
    coords = solve(sq.killed.hstack(sq.reps), vectors)
    expressed = sq.express(vectors)
    assert expressed == Matrix(field, sq.dim, t, coords.data[sq.killed.cols:])
    assert_entry_types(field, expressed)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=repr)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_express_rejects_a_vector_outside_the_sub_span(field, data):
    r = data.draw(st.integers(1, 6))
    c, k = data.draw(oracle_dims), data.draw(oracle_dims)
    sub = data.draw(sparse_matrices(field, r, c))
    killed = sub * data.draw(sparse_matrices(field, c, k))
    sq = SubquotientSpace.from_sub_killed(sub, killed)
    # a unit vector outside span(sub), shifted by a vector inside it
    outside = [j for j in range(r)
               if not in_span(sub, Matrix.from_columns(field, [[(j, 1)]], nrows=r))]
    assume(outside)
    inside = sub * data.draw(sparse_matrices(field, c, 1))
    unit = Matrix.from_columns(field, [[(data.draw(st.sampled_from(outside)), 1)]],
                               nrows=r)
    scalar = field.of(data.draw(st.integers(1, field.q - 1 if field.q else 4)))
    bad = inside + unit.scale(scalar)
    with pytest.raises(InvariantViolation):
        sq.express(bad)
    # one bad column among good ones is enough
    good = sub * data.draw(sparse_matrices(field, c, 2))
    with pytest.raises(InvariantViolation):
        sq.express(good.hstack(bad))


def test_a_dependent_subquotient_frame_is_refused():
    f = QQ
    reps = mat(f, [[1, 2], [0, 0]])
    with pytest.raises(LinAlgError):
        SubquotientSpace(f, 2, Matrix.zeros(f, 2, 0), reps)


# -- dense oracle -------------------------------------------------------
#
# Plain dense loops that visit every entry.  They are the reference for the
# sparse kernels of ``Matrix.__mul__`` and ``rref``: both must give the same
# entries, of the same types, with the same rank and pivots.  Every entry
# goes through ``field.normalize``, which over Q demotes an integral
# ``Fraction`` to its int.


def dense_mul(a, b):
    f = a.field
    da, db = to_dense(a), to_dense(b)
    return [[f.normalize(sum(ra[k] * db[k][j] for k in range(a.cols)))
             for j in range(b.cols)]
            for ra in da]


def dense_rref(m):
    f = m.field
    data = to_dense(m)
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if data[i][c] != f.zero), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = f.inv(data[r][c])
        data[r] = [f.normalize(inv * x) for x in data[r]]
        rowr = data[r]
        for i in range(nr):
            if i != r and data[i][c] != f.zero:
                factor = data[i][c]
                data[i] = [f.normalize(data[i][j] - factor * rowr[j])
                           for j in range(nc)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return r, tuple(pivots), data


ORACLE_FIELDS = [QQ, GF(5), GF(7)]
oracle_dims = st.integers(0, 6)


@st.composite
def sparse_matrices(draw, field, rows=None, cols=None):
    """Matrices from all-zero to dense, with some rows and columns zeroed."""
    r = draw(oracle_dims) if rows is None else rows
    c = draw(oracle_dims) if cols is None else cols
    density = draw(st.sampled_from([0, 1, 2, 5, 10]))   # in tenths
    # denominators 2 and 3 give non-integral rationals over Q; over F_2 and
    # F_3 only the invertible ones are drawn
    dens = [d for d in (1, 1, 2, 3) if not field.q or d % field.q]
    cells = draw(st.lists(st.tuples(st.integers(0, 9),
                                    st.builds(Fraction, st.integers(-4, 4),
                                              st.sampled_from(dens))),
                          min_size=r * c, max_size=r * c))
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2))
    entries = [[0 if (i in zero_rows or j in zero_cols or u >= density) else x
                for j, (u, x) in enumerate(cells[i * c:(i + 1) * c])]
               for i in range(r)]
    return Matrix.from_rows(field, entries, ncols=c)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mul_matches_dense_oracle(field, data):
    r, k, c = (data.draw(oracle_dims) for _ in range(3))
    a = data.draw(sparse_matrices(field, r, k))
    b = data.draw(sparse_matrices(field, k, c))
    prod = a * b
    assert (prod.rows, prod.cols) == (r, c)
    expected = dense_mul(a, b)
    assert to_dense(prod) == expected
    assert prod == from_dense(field, expected, c)
    assert_entry_types(field, prod)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_is_zero_matches_the_product(field, data):
    # b is a kernel basis of a (a zero product, whose sums cancel as
    # Fractions over Q and only mod p over F_p), that basis with one entry
    # changed, or any matrix; sparse a has empty rows and rows of one nonzero
    r, k = data.draw(oracle_dims), data.draw(oracle_dims)
    a = data.draw(sparse_matrices(field, r, k))
    kind = data.draw(st.sampled_from(["kernel", "changed", "any"]))
    if kind == "any":
        b = data.draw(sparse_matrices(field, k, data.draw(oracle_dims)))
    else:
        b = kernel_basis(a)
        if kind == "changed" and b.rows and b.cols:
            i, j = data.draw(st.integers(0, b.rows - 1)), data.draw(st.integers(0, b.cols - 1))
            set_entry(b, i, j, field.normalize(dict(b.data[i]).get(j, 0) + 1))
    assert product_is_zero(a, b) == (a * b).is_zero()


@pytest.mark.parametrize("field, a, b, zero", [
    # a row of one nonzero picks one row of b, zero only if that row is empty
    (GF(5), [[0, 3]], [[1], [0]], True),
    (GF(5), [[0, 3]], [[0], [1]], False),
    # empty rows, and an inner dimension of 0
    (GF(5), [[0, 0], [0, 0]], [[1, 2], [3, 4]], True),
    (GF(5), [[], []], [], True),
    # sums that vanish only mod p: 2*3 + 4*1 = 10, and 1 + 1 over F_2
    (GF(5), [[2, 4]], [[3], [1]], True),
    (GF(2), [[1, 1]], [[1], [1]], True),
    (QQ, [[2, 4]], [[3], [1]], False),
    # Fractions that cancel: 1/2 * 2/3 - 1/3 = 0
    (QQ, [[Fraction(1, 2), -1]], [[Fraction(2, 3)], [Fraction(1, 3)]], True),
    (QQ, [[Fraction(1, 2), 1]], [[Fraction(2, 3)], [Fraction(1, 3)]], False),
], ids=repr)
def test_product_is_zero_cases(field, a, b, zero):
    ma = Matrix.from_rows(field, a, ncols=len(b))
    mb = Matrix.from_rows(field, b, ncols=2 if not b else None)
    assert product_is_zero(ma, mb) is zero is (ma * mb).is_zero()


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_matches_dense_oracle(field, data):
    m = data.draw(sparse_matrices(field))
    snapshot = [list(row) for row in m.data]
    rk, pivots, red = rref(m)
    assert (rk, pivots, to_dense(red)) == dense_rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert_entry_types(field, red)
    assert m.data == snapshot   # the input is left untouched


# -- the Q entry contract beyond the two kernels --------------------------


@pytest.mark.parametrize("field, entry", [(QQ, Fraction(1, 2)), (GF(5), 3)], ids=repr)
def test_one_nonzero_entry_makes_a_matrix_nonzero(field, entry):
    assert Matrix.zeros(field, 3, 4).is_zero()
    m = Matrix.zeros(field, 3, 4)
    set_entry(m, 2, 1, entry)
    assert not m.is_zero()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_no_integral_fraction_escapes_over_qq(data):
    r, c, k = (data.draw(oracle_dims) for _ in range(3))
    m = data.draw(sparse_matrices(QQ, r, c))
    n = data.draw(sparse_matrices(QQ, r, c))
    x = data.draw(sparse_matrices(QQ, c, k))
    y = data.draw(sparse_matrices(QQ, c, k))
    c_scalar = data.draw(st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 2, 3])))
    sq = SubquotientSpace.from_sub_killed(m, m * y)
    outputs = [
        kernel_basis(m),
        column_space_basis(m),
        solve(m, m * x),
        sq.reps,
        sq.express(m * x),
        sq.induced_map(Matrix.identity(QQ, r).scale(c_scalar), sq),
        kronecker(m, x),
        block_diag(QQ, [m, x]),
        m - n,
        m + m,   # an entry with denominator 2 doubles to an int
        m.scale(c_scalar),
        Matrix.identity(QQ, r),
        Matrix.zeros(QQ, r, c),
    ]
    for out in outputs:
        assert_entry_types(QQ, out)


# -- the sparse-row storage contract ------------------------------------


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_operation_keeps_the_storage_contract(field, data):
    r, c, k = (data.draw(oracle_dims) for _ in range(3))
    m = data.draw(sparse_matrices(field, r, c))
    n = data.draw(sparse_matrices(field, r, c))
    x = data.draw(sparse_matrices(field, c, k))
    scalar = field.of(data.draw(st.builds(Fraction, st.integers(-4, 4),
                                          st.sampled_from([1, 2, 3]))))
    sq = SubquotientSpace.from_sub_killed(m, m * x)
    outputs = [
        m * x,
        m + n,
        m - n,
        m.scale(scalar),
        m.hstack(n),
        matrix_copy(m),
        kronecker(m, x),
        block_diag(field, [m, x, n]),
        rref(m)[2],
        kernel_basis(m),
        column_space_basis(m),
        solve(m, m * x),
        sq.reps,
        sq.express(m * x),
        sq.induced_map(Matrix.identity(field, r), sq),
        Matrix.from_columns(field, m.columns(), nrows=r),
        matrix_from_dicts(field, [dict(row) for row in (m + n).data], c),
        Matrix.from_rows(field, to_dense(m), ncols=c),
        Matrix.identity(field, r),
        Matrix.zeros(field, r, c),
    ]
    for out in outputs:
        assert_entry_types(field, out)
    assert Matrix.from_columns(field, m.columns(), nrows=r) == m
    assert Matrix.from_rows(field, to_dense(m), ncols=c) == m


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_is_independent_of_row_order(field, data):
    m = data.draw(sparse_matrices(field))
    order = data.draw(st.permutations(range(m.rows)))
    permuted = Matrix(field, m.rows, m.cols, [m.data[i] for i in order])
    assert rref(permuted) == rref(m)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_is_the_rref_rank(field, data):
    m = data.draw(sparse_matrices(field))
    assert rank(m) == rref(m)[0]


def test_huge_zero_and_identity_allocate_no_dense_cells():
    import time

    f = GF(5)
    t0 = time.perf_counter()
    z = Matrix.zeros(f, 10**5, 10**5)
    eye = Matrix.identity(f, 10**5)
    elapsed = time.perf_counter() - t0
    assert z.is_zero() and not eye.is_zero()
    assert (eye.rows, eye.cols) == (10**5, 10**5)
    assert sum(map(len, eye.data)) == 10**5
    assert elapsed < 0.5
