"""Shared test helpers: seeded random representations and matrices."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import matrix_from_dicts, solve

from fihomlab.fields import GF, QQ
from fihomlab.fimod import (
    FIError,
    cokernel,
    direct_sum,
    fi_constant,
    fi_induced,
    fi_torsion_concentrated,
    image,
    induced_morphism,
    kernel,
)
from fihomlab.linalg import Matrix, column_space_basis, kernel_basis, rank
from fihomlab.reps import SnRep, basic_rep, direct_sum_reps, subrep_span


def assert_entry_types(field, m):
    """The storage contract of ``linalg`` and the entry contract of
    ``fields``: each row of ``m`` lists ``(col, val)`` pairs with strictly
    increasing columns in ``0..cols-1`` and no stored zero; over F_q a value
    is an int in 1..q-1, over Q an int, or a Fraction only when it is not
    integral."""
    assert len(m.data) == m.rows
    for row in m.data:
        cols = [j for j, _ in row]
        assert all(type(j) is int for j in cols)
        assert all(a < b for a, b in zip(cols, cols[1:]))
        assert all(0 <= j < m.cols for j in cols)
        for _, x in row:
            assert x != 0
            if field.q:
                assert type(x) is int and 0 <= x < field.q
            else:
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


# -- dense <-> sparse ---------------------------------------------------
#
# ``Matrix`` stores sparse rows only; the dense list-of-lists form lives on
# here, for the hypothesis oracles and for tests that read or perturb
# single entries.


def to_dense(m):
    out = [[0] * m.cols for _ in range(m.rows)]
    for i, row in enumerate(m.data):
        for j, x in row:
            out[i][j] = x
    return out


def from_dense(field, rows, ncols):
    """A matrix from dense rows already in the field's entry form."""
    return Matrix(field, len(rows), ncols,
                  [[(j, x) for j, x in enumerate(row) if x] for row in rows])


def entry(m, i, j):
    return dict(m.data[i]).get(j, 0)


def set_entry(m, i, j, x):
    """Replace row i of ``m`` by one whose entry at column j is x (rows are
    shared between matrices, so they are replaced, never changed in place)."""
    row = dict(m.data[i])
    row[j] = x
    m.data[i] = [(c, y) for c, y in sorted(row.items()) if y]


def trace(m):
    return sum(entry(m, i, i) for i in range(m.rows))


def random_matrix(field, rows, cols, rng, lo=-3, hi=3):
    return Matrix.from_rows(
        field,
        [[field.of(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)],
        ncols=cols,
    )


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if rank(m) == n:
            return m


def random_rep(n, field, rng, max_summands=3):
    """A genuine S_n-representation: a sum of basic reps in a random basis."""
    kinds = ["trivial", "sign", "natural"]
    if n <= 3:
        kinds.append("regular")
    summands = [
        basic_rep(rng.choice(kinds), n, field)
        for _ in range(rng.randint(1, max_summands))
    ]
    rep = direct_sum_reps(summands) if len(summands) > 1 else summands[0]
    # the same action in a new basis: generators become C^-1 g C
    change = random_invertible(field, rep.dim, rng)
    inv = solve(change, Matrix.identity(field, rep.dim))
    return SnRep(n, field, [inv * g * change for g in rep.gens], dim=rep.dim, check=False)


def subrep_span_whole(rep, vectors):
    """``reps.subrep_span`` as a loop that moves the whole span by every
    generator in each round, until the span stops growing: the oracle for
    the loop that moves only the columns each round added."""
    span = column_space_basis(vectors)
    while True:
        stacked = span
        for g in rep.gens:
            stacked = stacked.hstack(g * span)
        grown = column_space_basis(stacked)
        if grown.cols == span.cols:
            return span
        span = grown


def orbit_span_subrep(rep, rng):
    """Column basis of the subrepresentation generated by one random vector."""
    field = rep.field
    v = Matrix.from_rows(
        field, [[field.of(rng.randint(-2, 2))] for _ in range(rep.dim)], ncols=1
    )
    return subrep_span(rep, v)


def equivariant_hom_basis(V, W):
    """Basis of the space of S_d-equivariant maps V -> W (d = both degrees),
    the seeds of random induced morphisms."""
    if V.n != W.n or V.field != W.field:
        raise FIError("hom space needs matching degree and field")
    field = V.field
    dv, dw = V.dim, W.dim
    if dv == 0 or dw == 0:
        return []
    rows = []
    for i in range(max(V.n - 1, 0)):
        gv_cols, gw = V.gens[i].columns(), W.gens[i]
        # (gw F - F gv) entry (r, c), F flattened row-major
        for r in range(dw):
            for c in range(dv):
                row = {}
                for k, x in gw.data[r]:
                    row[k * dv + c] = x
                for k, x in gv_cols[c]:
                    row[r * dv + k] = row.get(r * dv + k, 0) - x
                rows.append(row)
    if not rows:
        basis = Matrix.identity(field, dw * dv).columns()
    else:
        basis = kernel_basis(matrix_from_dicts(field, rows, dw * dv)).columns()
    out = []
    for vec in basis:
        # unflatten: the index order of ``vec`` is the row-major order of F
        F = Matrix.zeros(field, dw, dv)
        for idx, x in vec:
            r, c = divmod(idx, dv)
            F.data[r].append((c, x))
        out.append(F)
    return out


def random_induced_morphism(field, rng, window=5):
    """A nonzero morphism I(V) -> I(W_1) (+ I(W_2)) with a random equivariant seed."""
    while True:
        dV = rng.randint(1, 2)
        V = basic_rep(rng.choice(["trivial", "sign"]), dV, field)
        seeds = [basic_rep(rng.choice(["trivial", "sign"]), rng.randint(0, 2), field)
                 for _ in range(rng.randint(1, 2))]
        target = fi_induced(seeds[0], window)
        for Wseed in seeds[1:]:
            target = direct_sum(target, fi_induced(Wseed, window))
        basis = equivariant_hom_basis(V, target.pieces[dV])
        if not basis:
            continue
        f0 = Matrix.zeros(field, target.dim(dV), V.dim)
        for b in basis:
            f0 = f0 + b.scale(field.of(rng.randint(-2, 2)))
        if f0.is_zero():
            continue
        return induced_morphism(V, target, f0)


def recursion_inputs(field, window):
    """Aplus, the image of I(triv_1) in the constant module, and
    Mix = I(sgn_2) + T(triv_1 @ 1): modules whose local cohomology recursion
    runs more than one level."""
    A = fi_constant(field, window)
    aplus = image(induced_morphism(basic_rep("trivial", 1, field), A,
                                   Matrix.from_rows(field, [[1]])))
    mix = direct_sum(
        fi_induced(basic_rep("sign", 2, field), window),
        fi_torsion_concentrated(basic_rep("trivial", 1, field), 1, window),
    )
    return {"Aplus": aplus, "Mix": mix}


ORACLE_KINDS = ("kernel", "cokernel", "Aplus", "Mix")


def oracle_module(kind, field, rng, window=5):
    """One of ``ORACLE_KINDS``: a random kernel or cokernel of an induced
    morphism, or Aplus or Mix, whose steps are not subset inclusions."""
    if kind in ("Aplus", "Mix"):
        return recursion_inputs(field, window)[kind]
    f = random_induced_morphism(field, rng, window)
    return (kernel if kind == "kernel" else cokernel)(f)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=["Q", "F5"], ids=["Q", "F5"])
def field(request):
    return QQ if request.param == "Q" else GF(5)


@pytest.fixture
def rng():
    return random.Random(20260824)
