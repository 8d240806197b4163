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
    """Columns form a basis of the null space (:meth:`SubquotientSpace.kernel`)."""
    return SubquotientSpace.kernel(m).reps


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
    """A subquotient span(sub)/span(killed) of an ambient column space F^r.

    ``killed`` is a basis of span(killed); ``reps`` holds representatives
    of a basis of the quotient, chosen deterministically from the columns
    of ``sub``.  The reducer R is an invertible E with ``E [killed | reps]
    = [1; 0]`` less its first ``killed.cols`` rows; the constructor checks
    that R sends ``[killed | reps]`` to ``[0 1; 0 0]`` (:class:`LinAlgError`
    if not).  So v lies in span(sub) exactly when the rows of R v past
    ``dim`` are zero, and then its first ``dim`` rows are its coordinates.
    """

    def __init__(self, killed: Matrix, reps: Matrix, reducer: Matrix):
        self.field = reps.field
        self.killed = killed
        self.reps = reps
        self.dim = d = reps.cols
        frame = (reducer * killed.hstack(reps)).data
        if frame[:d] != [[(killed.cols + i, 1)] for i in range(d)] or any(frame[d:]):
            raise LinAlgError("the reducer does not invert the subquotient frame")
        self._reducer = reducer

    @classmethod
    def from_sub_killed(cls, sub: Matrix | None, killed: Matrix | None = None):
        """span(sub)/span(killed), from one reduction of ``[killed | sub | 1]``;
        ``sub=None`` is the whole space (a cokernel), reduced as ``[killed | 1]``.

        ``[A | 1]`` reduces to ``[E A | E]`` with ``E P = 1``, P the matrix of
        its pivot columns in order.  A column is a pivot exactly when it lies
        outside the span of the columns left of it; a non-pivot column of A
        lies in that span, so deleting it changes no other column's status.
        So P and E are the same for the frame ``F = [killed basis | reps]``,
        the pivot columns of ``A = [killed | sub]``, as for A, and
        ``E F = [1; 0]``: the rows of E past the killed pivots are the
        reducer.  ``[killed | 1]`` has the E of ``[killed | 1 | 1]``, whose
        last block has no pivot.
        """
        given = killed if sub is None else sub
        f, r = given.field, given.rows
        if killed is None:
            killed = Matrix.zeros(f, r, 0)
        elif sub is not None and killed.cols and not in_span(sub, killed):
            raise InvariantViolation("killed space not inside sub space")
        kc = killed.cols
        eye = Matrix.identity(f, r)
        if sub is None:
            sub, e0 = eye, kc   # e0: the first column of E
            frame = killed.hstack(eye)
        else:
            e0 = kc + sub.cols
            frame = Matrix.from_blocks(f, r, e0 + r,
                                       [(0, 0, killed), (0, kc, sub), (0, e0, eye)])
        _, pivots, red = rref(frame)
        killed_cols, sub_cols = killed.columns(), sub.columns()
        basis = [killed_cols[p] for p in pivots if p < kc]
        reps = [sub_cols[p - kc] for p in pivots if kc <= p < kc + sub.cols]
        reducer = [[(j - e0, x) for j, x in row if j >= e0]
                   for row in red.data[len(basis):]]
        return cls(Matrix.from_columns(f, basis, nrows=r),
                   Matrix.from_columns(f, reps, nrows=r),
                   Matrix(f, r - len(basis), r, reducer))

    @classmethod
    def kernel(cls, m: Matrix):
        """The null space of ``m``, from one reduction of ``m``: one
        representative per free column c, 1 at c and minus row i of the
        reduced form at pivot i.  A null vector's coordinates are its free
        entries, and v is a null vector exactly when the pivot rows send it
        to 0."""
        f = m.field
        _, pivots, red = rref(m)
        pivset = set(pivots)
        free = {c: [] for c in range(m.cols) if c not in pivset}
        for p, row in zip(pivots, red.data):
            for c, x in row[1:]:
                free[c].append((p, f.normalize(-x)))
        # every pivot p with an entry at c lies left of c
        reps = [entries + [(c, 1)] for c, entries in free.items()]
        reducer = [[(c, 1)] for c in free] + red.data[:len(pivots)]
        return cls(Matrix.zeros(f, m.cols, 0),
                   Matrix.from_columns(f, reps, nrows=m.cols),
                   Matrix(f, m.cols, m.cols, reducer))

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
