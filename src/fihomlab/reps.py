"""Symmetric group representations and Young-subgroup induction.

An :class:`SnRep` stores only the matrices of the adjacent transpositions
``s_1 .. s_{n-1}``.  Construction verifies the Coxeter relations
(involutions, braid, distant commutation), which certifies a well-defined
S_n-action.  Modules, strands and morphisms move vectors by one generator
product from a neighbouring permutation, and a good ideal's generator acts
as a matrix expression in the generators of its block, so no permutation
word is ever multiplied out.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, permutations

from .fields import Field, FieldError
from .linalg import Matrix, block_diag, column_space_basis, kronecker


class RepError(ValueError):
    pass


class SnRep:
    __slots__ = ("n", "dim", "field", "gens")

    def __init__(self, n, field, gens, dim=None, check=True):
        self.n = n
        self.field = field
        self.gens = tuple(gens)
        if len(self.gens) != max(n - 1, 0):
            raise RepError(f"S_{n} needs {max(n - 1, 0)} generator matrices")
        if dim is None:
            dim = self.gens[0].rows if self.gens else 0
        self.dim = dim
        if check:
            self.verify()

    def verify(self):
        """Check the Coxeter presentation on the generator matrices."""
        eye = Matrix.identity(self.field, self.dim)
        g = self.gens
        for i, m in enumerate(g, start=1):
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise RepError(f"generator s_{i} has wrong shape")
            if m * m != eye:
                raise RepError(f"s_{i}^2 != identity")
        for i in range(len(g) - 1):
            if g[i] * g[i + 1] * g[i] != g[i + 1] * g[i] * g[i + 1]:
                raise RepError(f"braid relation fails at s_{i + 1}")
        for i in range(len(g)):
            for j in range(i + 2, len(g)):
                if g[i] * g[j] != g[j] * g[i]:
                    raise RepError(f"distant generators s_{i + 1}, s_{j + 1} do not commute")

    def is_zero(self):
        return self.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, SnRep)
            and self.n == other.n
            and self.field == other.field
            and self.gens == other.gens
            and self.dim == other.dim
        )

    def __repr__(self):
        return f"SnRep(S_{self.n}, dim={self.dim}, {self.field!r})"


def zero_rep(n, field):
    z = Matrix.zeros(field, 0, 0)
    return SnRep(n, field, [z] * max(n - 1, 0), dim=0, check=False)


def basic_rep(kind: str, n: int, field: Field) -> SnRep:
    """One of the standard representations: trivial, sign, regular, natural."""
    if n < 0:
        raise RepError("negative degree")
    if kind == "trivial":
        one = Matrix.from_rows(field, [[1]])
        return SnRep(n, field, [one] * max(n - 1, 0), dim=1, check=False)
    if kind == "sign":
        neg = Matrix.from_rows(field, [[-1]])
        return SnRep(n, field, [neg] * max(n - 1, 0), dim=1, check=False)
    if kind == "natural":
        gens = []
        for i in range(1, n):
            rows = [[(j, 1)] for j in range(n)]
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
            gens.append(Matrix(field, n, n, rows))
        return SnRep(n, field, gens, dim=n)
    if kind == "regular":
        # basis: S_n in lexicographic order of one-line notation; s_i sends
        # the vector of p to that of s_i p, p with the values i, i+1 swapped
        elems = list(permutations(range(1, n + 1)))
        index = {p: k for k, p in enumerate(elems)}
        gens = []
        for i in range(1, n):
            swap = {i: i + 1, i + 1: i}
            rows = [None] * len(elems)
            for k, p in enumerate(elems):
                rows[index[tuple(swap.get(x, x) for x in p)]] = [(k, 1)]
            gens.append(Matrix(field, len(elems), len(elems), rows))
        return SnRep(n, field, gens, dim=len(elems))
    raise RepError(f"unknown basic rep kind {kind!r}")


def direct_sum_reps(reps) -> SnRep:
    reps = list(reps)
    if not reps:
        raise RepError("empty direct sum")
    n, field = reps[0].n, reps[0].field
    gens = []
    for i in range(max(n - 1, 0)):
        gens.append(block_diag(field, [r.gens[i] for r in reps]))
    return SnRep(n, field, gens, dim=sum(r.dim for r in reps), check=False)


def restrict_rep(rep: SnRep, m: int) -> SnRep:
    """Restriction to S_m acting on the first m letters."""
    if m > rep.n:
        raise RepError("cannot restrict upward")
    return SnRep(m, rep.field, rep.gens[: max(m - 1, 0)], dim=rep.dim, check=False)


def induce_young(U: SnRep, W: SnRep) -> SnRep:
    """Induction Ind_{S_a x S_b}^{S_n} of the external tensor U boxtimes W of
    an S_a- and an S_b-representation, n = a + b.

    Basis: for each a-subset S of {1..n} in lexicographic order (S marks
    where the first block lands), a copy of the U tensor W basis, (U basis)
    major and (W basis) minor, transported by the order-preserving coset
    representative.  Column block S of s_i is:

    - i and i+1 both in S, i at position k of S: ``U(s_k) (x) 1_W`` on the
      diagonal;
    - neither in S, i at position k of the complement: ``1_U (x) W(s_k)``
      on the diagonal;
    - exactly one in S: the identity, at the row of S with i, i+1 swapped.
    """
    if U.field != W.field:
        raise FieldError("external tensor over mixed fields")
    a, n = U.n, U.n + W.n
    field = U.field
    inner = U.dim * W.dim
    subsets = list(combinations(range(1, n + 1), a))
    dim = inner * len(subsets)
    sub_index = {s: k for k, s in enumerate(subsets)}
    left = [kronecker(g, Matrix.identity(field, W.dim)) for g in U.gens]
    right = [kronecker(Matrix.identity(field, U.dim), g) for g in W.gens]
    one = Matrix.identity(field, inner)
    gens = []
    for i in range(1, n):
        blocks = []
        for col, s in enumerate(subsets):
            c0 = col * inner
            k = bisect_left(s, i)       # letters of S below i
            has_i, has_next = i in s, i + 1 in s
            if has_i and has_next:
                blocks.append((c0, c0, left[k]))
            elif has_i or has_next:
                t = s[:k] + (i + 1 if has_i else i,) + s[k + 1:]
                blocks.append((sub_index[t] * inner, c0, one))
            else:
                blocks.append((c0, c0, right[i - 1 - k]))
        # s_i permutes the subsets, so each row block gets one block
        gens.append(Matrix.from_blocks(field, dim, dim, blocks))
    # Coxeter verification is quadratic-in-dim matrix work; it is skipped on
    # this hot path and the test suite covers the construction instead.
    return SnRep(n, field, gens, dim=dim, check=False)


def subrep_span(rep: SnRep, vectors: Matrix) -> Matrix:
    """Column basis of the smallest ``rep``-stable subspace holding the
    columns of ``vectors``: their span, grown by the generators until it
    stops growing.  Each round moves only the columns the round before
    added: the images of the rest lie in the span already, so the pivot
    columns, and the basis, are those of a round that moves the whole span."""
    span = frontier = column_space_basis(vectors)
    while k := frontier.cols:
        s = span.cols
        blocks = [(0, 0, span)] + [(0, s + a * k, g * frontier)
                                   for a, g in enumerate(rep.gens)]
        span = column_space_basis(
            Matrix.from_blocks(rep.field, span.rows, s + k * len(rep.gens), blocks))
        frontier = Matrix.from_columns(rep.field, span.columns()[s:], nrows=span.rows)
    return span
