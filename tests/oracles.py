"""Reference implementations that only the tests run.

The package moves vectors by one generator product at a time and never
multiplies out a permutation word, never sweeps a whole ideal, and never
solves a linear system column by column.  The tests keep those slow,
direct forms here as oracles: permutations in one-line notation and their
adjacent-transposition words, the regular representation built from them,
the brute-force ideal sweep behind ``nu``, a column solver, a subquotient
built by four separate passes, and a few constructors the package has no
use for.
"""
from __future__ import annotations

from itertools import permutations

from fihomlab.fields import FieldError
from fihomlab.fimod import FIModule, FIMorphism, fi_truncate
from fihomlab.good_ideal import INF, GoodIdeal, NuValue, ideal_operators
from fihomlab.linalg import (
    InvariantViolation,
    LinAlgError,
    Matrix,
    _forward,
    _freeze,
    column_space_basis,
    in_span,
    rref,
)
from fihomlab.reps import RepError, SnRep

# -- permutations --------------------------------------------------------
#
# One-line notation; composition is ``(s * t)(x) = s(t(x))``.  Adjacent
# transpositions are addressed by ``i`` in ``1..n-1``, meaning the swap of
# ``i`` and ``i+1``.


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        self.images = images

    @property
    def n(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def adjacent(cls, i, n):
        """The transposition (i, i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"s_{i} does not exist in S_{n}")
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        return cls(img)

    @classmethod
    def cycle(cls, points, n):
        """The cycle sending points[0] -> points[1] -> ... -> points[0]."""
        img = list(range(1, n + 1))
        for a, b in zip(points, points[1:] + [points[0]]):
            img[a - 1] = b
        return cls(img)

    def __call__(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(self.images[other.images[x - 1] - 1] for x in range(1, self.n + 1))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def factor_adjacent(perm: Permutation) -> list[int]:
    """Word ``[i1, ..., ik]`` with ``perm = s_{i1} * ... * s_{ik}``.

    Bubble sort of the one-line notation; the word length is at most the
    inversion count, hence at most n(n-1)/2.
    """
    line = list(perm.images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                swaps.append(i + 1)
                changed = True
    return swaps[::-1]


def all_permutations(n):
    """All of S_n in lexicographic order of one-line notation."""
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def perm_matrix(rep: SnRep, perm: Permutation) -> Matrix:
    """The matrix of ``perm`` on ``rep``: its word multiplied out."""
    if perm.n != rep.n:
        raise RepError("degree mismatch")
    out = Matrix.identity(rep.field, rep.dim)
    for i in factor_adjacent(perm):
        out = out * rep.gens[i - 1]
    return out


def regular_rep_by_permutations(n, field) -> SnRep:
    """The regular representation on the basis ``all_permutations(n)``, with
    s_i sending the basis vector of p to that of ``s_i * p``: the reference
    for ``basic_rep("regular", n, field)``."""
    elems = all_permutations(n)
    index = {p.images: k for k, p in enumerate(elems)}
    gens = []
    for i in range(1, n):
        s = Permutation.adjacent(i, n)
        rows = [None] * len(elems)
        for k, p in enumerate(elems):
            rows[index[(s * p).images]] = [(k, 1)]
        gens.append(Matrix(field, len(elems), len(elems), rows))
    return SnRep(n, field, gens, dim=len(elems))


# -- the ideal sweep behind nu -------------------------------------------


def ideal_annihilates_bruteforce(gi: GoodIdeal, r: int, rep: SnRep) -> bool:
    """Direct sweep over the two-sided ideal I_n(r), r <= n // p: checks
    sigma * g^{boxtimes r} * rho for every pair of permutations.
    Exponential; for n <= 4."""
    core = list(ideal_operators(gi, rep))[r]
    mats = [perm_matrix(rep, p) for p in all_permutations(rep.n)]
    left = [m * core for m in mats]
    return all((lm * m).is_zero() for lm in left for m in mats)


def nu_bruteforce(rep: SnRep, gi: GoodIdeal) -> NuValue:
    n = rep.n
    if rep.is_zero():
        return NuValue(INF)
    r_star = 0
    for r in range(1, n // gi.p + 1):
        if not ideal_annihilates_bruteforce(gi, r, rep):
            r_star = r
    return NuValue(n - r_star)


# -- modules and matrices ------------------------------------------------


def truncation_morphism(M: FIModule, c: int) -> FIMorphism:
    """The quotient map M -> ``fi_truncate(M, c)``."""
    T = fi_truncate(M, c)
    maps = [
        Matrix.identity(M.field, M.dim(n)) if n <= c
        else Matrix.zeros(M.field, 0, M.dim(n))
        for n in range(M.window + 1)
    ]
    return FIMorphism(M, T, maps)


def matrix_from_dicts(field, rows, ncols) -> Matrix:
    """From rows given as ``{col: value}`` dicts of sums of entries."""
    q = field.q
    return Matrix(field, len(rows), ncols, [_freeze(q, d) for d in rows])


def matrix_copy(m: Matrix) -> Matrix:
    """A matrix with its own row lists, so that rows can be replaced."""
    return Matrix(m.field, m.rows, m.cols, [list(row) for row in m.data])


class NoSolution(LinAlgError):
    pass


def solve(basis: Matrix, targets: Matrix) -> Matrix:
    """Solve ``basis @ X = targets`` columnwise.

    Raises :class:`NoSolution` if some target column is outside the column
    span of ``basis``.  Free coordinates (if ``basis`` has dependent columns)
    are set to zero.
    """
    if basis.field != targets.field:
        raise FieldError("mixed-field solve")
    if basis.rows != targets.rows:
        raise LinAlgError("shape mismatch in solve")
    bc = basis.cols
    _, pivots, red = rref(basis.hstack(targets))
    if pivots and pivots[-1] >= bc:
        raise NoSolution("target outside span")
    x = Matrix.zeros(basis.field, bc, targets.cols)
    for p, row in zip(pivots, red.data):
        x.data[p] = [(j - bc, y) for j, y in row if j >= bc]
    return x


class SubquotientOracle:
    """span(sub)/span(killed) by four passes: a span test, a basis of the
    killed columns, the pivots of ``[killed basis | sub]`` past that basis
    as representatives, and a reduction of ``[killed basis | reps | 1]``
    whose identity block is the reducer.  ``SubquotientSpace`` must give
    the same ``killed``, ``reps`` and ``express`` from one reduction."""

    def __init__(self, field, ambient_dim, killed: Matrix, reps: Matrix):
        self.field = field
        self.ambient_dim = ambient_dim
        self.killed = killed
        self.reps = reps
        self.dim = reps.cols
        kc, k = killed.cols, killed.cols + reps.cols
        eye = Matrix.identity(field, ambient_dim)
        _, pivots, red = rref(killed.hstack(reps).hstack(eye))
        if pivots[:k] != tuple(range(k)):
            raise LinAlgError("subquotient frame columns are dependent")
        self._reducer = Matrix(field, ambient_dim - kc, ambient_dim,
                               [[(j - k, x) for j, x in row if j >= k]
                                for row in red.data[kc:]])

    @classmethod
    def from_sub_killed(cls, sub: Matrix, killed: Matrix | None = None):
        f = sub.field
        if killed is None:
            killed = Matrix.zeros(f, sub.rows, 0)
        if killed.cols and not in_span(sub, killed):
            raise InvariantViolation("killed space not inside sub space")
        killed = column_space_basis(killed)
        kc = killed.cols
        pivots = sorted(_forward(killed.hstack(sub)))
        sub_cols = sub.columns()
        reps = Matrix.from_columns(f, [sub_cols[p - kc] for p in pivots if p >= kc],
                                   nrows=sub.rows)
        return cls(f, sub.rows, killed, reps)

    def express(self, vectors: Matrix) -> Matrix:
        reduced = self._reducer * vectors
        if any(reduced.data[self.dim:]):
            raise InvariantViolation("vector outside subquotient span")
        return Matrix(self.field, self.dim, vectors.cols, reduced.data[:self.dim])
