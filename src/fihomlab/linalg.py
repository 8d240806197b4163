"""Exact linear algebra on sparse rows: products, rref, rank, kernels,
span membership, and subquotients.

Storage.  A :class:`Matrix` keeps one list per row in ``data``.  Row i holds
only its nonzero entries, as ``(col, val)`` pairs whose columns increase
strictly and lie in ``0..cols-1``; no stored value is zero, so a zero matrix
of any shape stores nothing but empty rows.  A row is never changed in place
once its matrix is built, so operations share rows between matrices.  A
sparse vector, such as a column from :meth:`Matrix.columns` or an input of
:meth:`Matrix.from_columns`, has the same form, indexed by row.

Every operation visits nonzeros only: a product costs one multiply-add per
pair of nonzeros that meet, and ``is_zero`` looks at no entry;
:func:`product_is_zero` makes the multiply-adds of a product but stores no
product, stopping at the first nonzero sum.  There is one
elimination kernel, :func:`_forward`, working on dict rows: it reduces each
row against the pivot rows found so far and keeps what remains as a new
pivot row.  :func:`rank` is that forward pass alone; :func:`rref` adds the
back-substitution.  The reduced row-echelon form is unique, so ``rref`` and
every basis built from it (kernels, column spaces, subquotient
representatives) are reproducible bit-for-bit whatever order the forward
pass eliminates in.  Pivot rows are normalized to 1.

Entries follow the contract of :mod:`fields`: over F_q an int in
``1..q-1``, over Q an ``int | Fraction`` whose integral values are ints.
Every operation here keeps it, so a ``Fraction`` with denominator 1 never
leaves this module.  The Q branches demote inline, guarded by
``type(x) is int``, so an int entry costs no function call.
"""
from __future__ import annotations

from heapq import heappop, heappush

from .fields import Field, FieldError


class LinAlgError(ValueError):
    pass


class InvariantViolation(LinAlgError):
    """An operator failed to preserve a span it was required to preserve."""


def _freeze(q, acc: dict) -> list:
    """A sparse row from a ``{col: sum}`` dict: sums reduced (mod q over
    F_q, integral values demoted over Q), zeros dropped, columns sorted."""
    if q:
        return [(j, y) for j, x in sorted(acc.items()) if (y := x % q)]
    return [(j, x if type(x) is int or x.denominator != 1 else x.numerator)
            for j, x in sorted(acc.items()) if x]


def _scaled(q, c, row) -> list:
    """``c * row`` for a nonzero scalar c; no product of nonzeros is zero."""
    if q:
        return [(j, c * x % q) for j, x in row]
    return [(j, y if type(y := c * x) is int or y.denominator != 1 else y.numerator)
            for j, x in row]


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data=None):
        """``data`` is taken as it is and must keep the storage contract;
        without it the matrix is zero."""
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [[] for _ in range(rows)]
        elif len(data) != rows:
            raise LinAlgError("row count does not match matrix data")
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        """From dense rows of values that ``field.of`` accepts; ``ncols``
        gives the width of an empty list of rows."""
        rows = [list(row) for row in rows]
        ncols = len(rows[0]) if rows else ncols or 0
        of = field.of
        data = []
        for row in rows:
            if len(row) != ncols:
                raise LinAlgError("ragged matrix data")
            data.append([(j, y) for j, x in enumerate(row) if (y := of(x))])
        return cls(field, len(rows), ncols, data)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [[(i, 1)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def from_blocks(cls, field, rows, cols, blocks):
        """Place each ``(r0, c0, block)`` of ``blocks`` with its top left
        entry at (r0, c0).  Blocks may not overlap, and the blocks that meet
        one row must come in increasing c0, which keeps every row sorted."""
        data = [[] for _ in range(rows)]
        for r0, c0, blk in blocks:
            for r, row in enumerate(blk.data, r0):
                if row:
                    data[r].extend([(c0 + c, x) for c, x in row] if c0 else row)
        return cls(field, rows, cols, data)

    @classmethod
    def from_columns(cls, field, columns, nrows):
        """The matrix whose columns are the given sparse vectors."""
        data = [[] for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, x in col:
                data[i].append((j, x))
        return cls(field, nrows, len(columns), data)

    # -- basics -------------------------------------------------------

    def columns(self):
        """Every column as a sparse vector, in one pass over the rows."""
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row:
                cols[j].append((i, x))
        return cols

    def is_zero(self):
        return not any(self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldError("mixed-field matrix arithmetic")

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in add")
        q = self.field.q
        data = []
        for ra, rb in zip(self.data, other.data):
            if not (ra and rb):
                data.append(ra or rb)
                continue
            acc = dict(ra)
            for j, y in rb:
                acc[j] = acc.get(j, 0) + y
            data.append(_freeze(q, acc))
        return Matrix(self.field, self.rows, self.cols, data)

    def __sub__(self, other):
        return self + other.scale(self.field.of(-1))

    def scale(self, c):
        q = self.field.q
        if q:
            c %= q
        if not c:
            return Matrix(self.field, self.rows, self.cols)
        return Matrix(self.field, self.rows, self.cols,
                      [_scaled(q, c, row) for row in self.data])

    def __mul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in mul")
        q = self.field.q
        brows = other.data
        out = []
        for ra in self.data:
            if len(ra) == 1:
                # a row with one nonzero, as in every permutation matrix,
                # picks out one row of the right operand
                k, a = ra[0]
                out.append(brows[k] if a == 1 else _scaled(q, a, brows[k]))
                continue
            acc = {}
            get = acc.get
            for k, a in ra:
                for j, x in brows[k]:
                    acc[j] = get(j, 0) + a * x
            out.append(_freeze(q, acc) if acc else [])
        return Matrix(self.field, self.rows, other.cols, out)

    def hstack(self, other):
        self._check(other)
        if self.rows != other.rows:
            raise LinAlgError("row mismatch in hstack")
        return Matrix.from_blocks(self.field, self.rows, self.cols + other.cols,
                                  [(0, 0, self), (0, self.cols, other)])


def product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Whether ``a * b`` is zero, with the multiply-adds of ``a * b`` but no
    product row sorted or stored: each row's sums go into a dict, and the
    first sum that is nonzero in the field (mod q over F_q, exactly over Q)
    ends the test.  A row with one nonzero picks one row of ``b``, so its
    product is zero only if that row is empty."""
    a._check(b)
    if a.cols != b.rows:
        raise LinAlgError("shape mismatch in mul")
    q = a.field.q
    brows = b.data
    for ra in a.data:
        if len(ra) == 1:
            if brows[ra[0][0]]:
                return False
            continue
        acc = {}
        get = acc.get
        for k, x in ra:
            for j, y in brows[k]:
                acc[j] = get(j, 0) + x * y
        if any(map(q.__rmod__, acc.values())) if q else any(acc.values()):
            return False
    return True


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row/col index = (a index) * (b size) + (b index)."""
    if a.field != b.field:
        raise FieldError("mixed-field kronecker")
    q = a.field.q
    bc = b.cols
    data = []
    for ra in a.data:
        for rb in b.data:
            row = []
            for j, x in ra:
                row.extend((j * bc + l, y) for l, y in _scaled(q, x, rb))
            data.append(row)
    return Matrix(a.field, a.rows * b.rows, a.cols * bc, data)


def block_diag(field, blocks):
    placed = []
    r0 = c0 = 0
    for b in blocks:
        placed.append((r0, c0, b))
        r0 += b.rows
        c0 += b.cols
    return Matrix.from_blocks(field, r0, c0, placed)


# -- elimination ------------------------------------------------------


def _forward(m: Matrix) -> dict:
    """The forward pass: an echelon basis of the row space of ``m``.

    Returns ``{c: tail}`` with one entry per pivot column c: the pivot row,
    scaled to 1 at c, holds that 1 and the ``{col: value}`` dict ``tail`` of
    its entries right of c.  Each row of ``m`` in turn is reduced against the
    pivot rows found so far, at its pivot columns in increasing order (a
    reduction only brings in columns right of the pivot it clears), and
    what is left of it, if anything, is a new pivot row at its first column.
    """
    f = m.field
    q = f.q
    pivots = {}
    for row in m.data:
        if not row:
            continue
        d = dict(row)
        # a sorted list is a heap
        heap = [j for j, _ in row if j in pivots]
        while heap:
            c = heappop(heap)
            a = d.pop(c, 0)
            if not a:
                continue   # cleared already, or pushed twice
            for j, x in pivots[c].items():
                y = d.get(j)
                if y is None:
                    if j in pivots:
                        heappush(heap, j)
                    y = -a * x
                else:
                    y -= a * x
                if q:
                    y %= q
                elif type(y) is not int and y.denominator == 1:
                    y = y.numerator
                if y:
                    d[j] = y
                else:
                    del d[j]
        if d:
            c = min(d)
            inv = f.inv(d.pop(c))
            pivots[c] = dict(_scaled(q, inv, d.items())) if inv != 1 else d
    return pivots


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(rank, pivots, reduced)``: the pivot columns in increasing
    order and the unique reduced form, its pivot rows scaled to 1 and its
    zero rows last.
    """
    f = m.field
    q = f.q
    pivots = _forward(m)
    order = sorted(pivots)
    # back-substitution from the last pivot: pivot rows right of c are
    # reduced already, so clearing them from c's row brings in no pivot column
    for c in reversed(order):
        tail = pivots[c]
        for c2 in [j for j in tail if j in pivots]:
            a = tail.pop(c2)
            for j, x in pivots[c2].items():
                y = tail.get(j, 0) - a * x
                if q:
                    y %= q
                elif type(y) is not int and y.denominator == 1:
                    y = y.numerator
                if y:
                    tail[j] = y
                else:
                    del tail[j]
    data = [[(c, 1)] + sorted(pivots[c].items()) for c in order]
    data.extend([] for _ in range(m.rows - len(order)))
    return len(order), tuple(order), Matrix(f, m.rows, m.cols, data)


def rank(m: Matrix) -> int:
    return len(_forward(m))


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of ``m``: one per free column
    c, with 1 at c and minus row i of the reduced form at pivot i."""
    f = m.field
    _, pivots, red = rref(m)
    pivset = set(pivots)
    free = {c: [] for c in range(m.cols) if c not in pivset}
    for p, row in zip(pivots, red.data):
        for c, x in row[1:]:
            free[c].append((p, f.normalize(-x)))
    # every pivot p with an entry at c lies left of c
    cols = [entries + [(c, 1)] for c, entries in free.items()]
    return Matrix.from_columns(f, cols, nrows=m.cols)


def column_space_basis(m: Matrix) -> Matrix:
    """Deterministic basis of the column space (the pivot columns, which
    the forward pass alone gives)."""
    cols = m.columns()
    return Matrix.from_columns(m.field, [cols[c] for c in sorted(_forward(m))],
                               nrows=m.rows)


def in_span(basis: Matrix, targets: Matrix) -> bool:
    """Whether every column of ``targets`` lies in span(basis): no pivot of
    ``[basis | targets]`` lies past ``basis``."""
    return all(c < basis.cols for c in _forward(basis.hstack(targets)))


# -- subquotients -----------------------------------------------------


class SubquotientSpace:
    """A subquotient span(sub)/span(killed) of an ambient column space.

    ``killed`` columns must lie in span(sub).  ``reps`` holds ambient
    representative columns of a basis of the quotient; they are chosen
    deterministically from the columns of ``sub``.

    The frame ``F = [killed | reps]`` has full column rank k, so it is reduced
    once, when the space is built: ``[F | 1]`` reduces to ``[[1_k; 0] | E]``.
    v lies in span(F) exactly when the rows of ``E v`` past k are zero, and
    then its first k rows are the unique coordinates of v in the frame.
    """

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
        # the rows of E past ``killed``: quotient coordinates, then membership
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
        # extend the killed basis by columns of sub; the pivots past the
        # killed block pick the quotient representatives
        kc = killed.cols
        pivots = sorted(_forward(killed.hstack(sub)))
        sub_cols = sub.columns()
        reps = Matrix.from_columns(f, [sub_cols[p - kc] for p in pivots if p >= kc],
                                   nrows=sub.rows)
        return cls(f, sub.rows, killed, reps)

    def express(self, vectors: Matrix) -> Matrix:
        """Quotient coordinates of ambient columns lying in span(sub)."""
        reduced = self._reducer * vectors
        if any(reduced.data[self.dim:]):
            raise InvariantViolation("vector outside subquotient span")
        return Matrix(self.field, self.dim, vectors.cols, reduced.data[:self.dim])

    def induced_map(self, ambient: Matrix, target: "SubquotientSpace") -> Matrix:
        """Matrix of the map induced by ``ambient`` into ``target``'s quotient."""
        if self.dim == 0:
            return Matrix.zeros(self.field, target.dim, 0)
        return target.express(ambient * self.reps)
