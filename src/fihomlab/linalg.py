"""Exact linear algebra: products, rref, kernels, solving, and subquotients.

Matrices are stored densely, as lists-of-lists over one field, but the two
hot kernels skip zeros: a product costs one multiply-add per pair of
nonzeros that meet, and each elimination step touches only the nonzero
columns of its pivot row.  Pivoting is deterministic (first nonzero entry in
column order) and pivot rows are normalized to 1, so every basis produced
here is reproducible bit-for-bit.

Entries follow the contract of :mod:`fields`: over F_q an int in
``0..q-1``, over Q an ``int | Fraction`` whose integral values are ints.
Every operation here keeps it, so a ``Fraction`` with denominator 1 never
leaves this module.  The Q branches demote inline, guarded by
``type(x) is int``, so a zero or int entry costs no function call.
"""
from __future__ import annotations

from .fields import Field, FieldError


class LinAlgError(ValueError):
    pass


class InvariantViolation(LinAlgError):
    """An operator failed to preserve a span it was required to preserve."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        self.field = field
        data = [list(row) for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise LinAlgError("ragged matrix data")
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        rows = [[field.of(x) for x in row] for row in rows]
        if not rows and ncols is not None:
            m = cls(field, [])
            m.cols = ncols
            return m
        return cls(field, rows)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero
        m = cls(field, [[zero] * cols for _ in range(rows)])
        m.cols = cols
        return m

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        """Build a matrix whose columns are the given vectors."""
        if not columns:
            if nrows is None:
                raise LinAlgError("from_columns with no columns needs nrows")
            return cls.zeros(field, nrows, 0)
        nrows = len(columns[0])
        return cls(field, [[columns[j][i] for j in range(len(columns))] for i in range(nrows)])

    # -- basics -------------------------------------------------------

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self):
        # zero is the int 0 in both field kinds, and every other value is truthy
        return not any(map(any, self.data))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def copy(self):
        return Matrix(self.field, self.data)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldError("mixed-field matrix arithmetic")

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in add")
        q = self.field.q
        a, b = self.data, other.data
        if q:
            out = Matrix(self.field, [[(a[i][j] + b[i][j]) % q for j in range(self.cols)]
                                      for i in range(self.rows)])
        else:
            out = Matrix(self.field, [[s if type(s := x + y) is int or s.denominator != 1
                                       else s.numerator for x, y in zip(ra, rb)]
                                      for ra, rb in zip(a, b)])
        out.cols = self.cols
        return out

    def __sub__(self, other):
        return self + other.scale(self.field.of(-1))

    def scale(self, c):
        q = self.field.q
        if q:
            c = c % q
            out = Matrix(self.field, [[(c * x) % q for x in row] for row in self.data])
        else:
            out = Matrix(self.field, [[y if type(y := c * x) is int or y.denominator != 1
                                       else y.numerator for x in row]
                                      for row in self.data])
        out.cols = self.cols
        return out

    def __mul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in mul")
        q = self.field.q
        zero = self.field.zero
        ncols = other.cols
        # the nonzeros of each row of the right operand, as (column, entry)
        brows = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
        out = []
        for ra in self.data:
            acc = [zero] * ncols
            for k, a in enumerate(ra):
                if a:
                    for j, x in brows[k]:
                        acc[j] += a * x
            if q:
                out.append([x % q for x in acc])
            else:
                out.append([x if type(x) is int or x.denominator != 1
                            else x.numerator for x in acc])
        m = Matrix(self.field, out)
        m.cols = ncols
        return m

    def transpose(self):
        m = Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                for j in range(self.cols)])
        m.cols = self.rows
        return m

    def hstack(self, other):
        self._check(other)
        if self.rows != other.rows:
            raise LinAlgError("row mismatch in hstack")
        out = Matrix(self.field, [self.data[i] + other.data[i] for i in range(self.rows)])
        out.cols = self.cols + other.cols
        return out


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row/col index = (a index) * (b size) + (b index)."""
    if a.field != b.field:
        raise FieldError("mixed-field kronecker")
    q = a.field.q
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                x = a.data[i][j]
                if q:
                    row.extend((x * y) % q for y in b.data[k])
                else:
                    row.extend(z if type(z := x * y) is int or z.denominator != 1
                               else z.numerator for y in b.data[k])
            rows.append(row)
    m = Matrix(a.field, rows)
    m.cols = a.cols * b.cols
    return m


def block_diag(field, blocks):
    n = sum(b.rows for b in blocks)
    c = sum(b.cols for b in blocks)
    out = Matrix.zeros(field, n, c)
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.rows):
            out.data[i0 + i][j0:j0 + b.cols] = b.data[i]
        i0 += b.rows
        j0 += b.cols
    return out


# -- elimination ------------------------------------------------------


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(rank, pivots, reduced)``.  Pivot choice is the first nonzero
    entry in column order; pivot rows are scaled to 1.
    """
    f = m.field
    q = f.q
    data = [list(row) for row in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if data[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            data[r], data[pr] = data[pr], data[r]
        piv = data[r][c]
        if piv != f.one:
            inv = f.inv(piv)
            if q:
                data[r] = [(inv * x) % q for x in data[r]]
            else:
                data[r] = [y if type(y := inv * x) is int or y.denominator != 1
                           else y.numerator for x in data[r]]
        # a row update changes only the columns where the pivot row is nonzero
        nzr = [(j, x) for j, x in enumerate(data[r]) if x]
        for i in range(nr):
            rowi = data[i]
            factor = rowi[c]
            if i == r or not factor:
                continue
            if q:
                for j, x in nzr:
                    rowi[j] = (rowi[j] - factor * x) % q
            else:
                for j, x in nzr:
                    y = rowi[j] - factor * x
                    rowi[j] = y if type(y) is int or y.denominator != 1 else y.numerator
        pivots.append(c)
        r += 1
        if r == nr:
            break
    red = Matrix(f, data)
    red.cols = nc
    return r, tuple(pivots), red


def rank(m: Matrix) -> int:
    return rref(m)[0]


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of ``m``."""
    f = m.field
    r, pivots, red = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    cols = []
    for c in free:
        v = [f.zero] * m.cols
        v[c] = f.one
        for i, p in enumerate(pivots):
            v[p] = f.normalize(-red.data[i][c])
        cols.append(v)
    return Matrix.from_columns(f, cols, nrows=m.cols)


def column_space_basis(m: Matrix) -> Matrix:
    """Deterministic basis of the column space (the pivot columns)."""
    _, pivots, _ = rref(m)
    return Matrix.from_columns(m.field, [m.column(c) for c in pivots], nrows=m.rows)


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
    f = basis.field
    aug = basis.hstack(targets)
    _, pivots, red = rref(aug)
    for p in pivots:
        if p >= basis.cols:
            raise NoSolution("target outside span")
    x = Matrix.zeros(f, basis.cols, targets.cols)
    for i, p in enumerate(pivots):
        for j in range(targets.cols):
            x.data[p][j] = red.data[i][basis.cols + j]
    return x


def in_span(basis: Matrix, targets: Matrix) -> bool:
    try:
        solve(basis, targets)
        return True
    except NoSolution:
        return False


# -- subquotients -----------------------------------------------------


class SubquotientSpace:
    """A subquotient span(sub)/span(killed) of an ambient column space.

    ``killed`` columns must lie in span(sub).  ``reps`` holds ambient
    representative columns of a basis of the quotient; they are chosen
    deterministically from the columns of ``sub``.
    """

    def __init__(self, field, ambient_dim, killed: Matrix, reps: Matrix):
        self.field = field
        self.ambient_dim = ambient_dim
        self.killed = killed
        self.reps = reps
        self.dim = reps.cols
        self._frame = killed.hstack(reps)

    @classmethod
    def from_sub_killed(cls, sub: Matrix, killed: Matrix | None = None):
        f = sub.field
        if killed is None:
            killed = Matrix.zeros(f, sub.rows, 0)
        if killed.cols and not in_span(sub, killed):
            raise InvariantViolation("killed space not inside sub space")
        killed = column_space_basis(killed)
        # extend the killed basis by columns of sub; rref pivots past the
        # killed block pick the quotient representatives
        aug = killed.hstack(sub)
        _, pivots, _ = rref(aug)
        rep_cols = [aug.column(p) for p in pivots if p >= killed.cols]
        reps = Matrix.from_columns(f, rep_cols, nrows=sub.rows)
        return cls(f, sub.rows, killed, reps)

    def express(self, vectors: Matrix) -> Matrix:
        """Quotient coordinates of ambient columns lying in span(sub)."""
        try:
            coords = solve(self._frame, vectors)
        except NoSolution:
            raise InvariantViolation("vector outside subquotient span") from None
        out = Matrix(self.field, coords.data[self.killed.cols:])
        out.cols = vectors.cols
        return out

    def induced_map(self, ambient: Matrix, target: "SubquotientSpace") -> Matrix:
        """Matrix of the map induced by ``ambient`` into ``target``'s quotient."""
        if self.dim == 0:
            return Matrix.zeros(self.field, target.dim, 0)
        images = ambient * self.reps
        out = target.express(images)
        out.cols = self.dim
        return out

