"""Tor of FI-modules through the Koszul complex, degreewise.

The strand at degree n has i-th term Ind over the Young subgroup of
(sign of S_i) boxtimes (module piece in degree n-i); its basis is indexed by
the i-subset of letters occupying the sign block, in lexicographic order.
The differential moves one letter from the sign block into the module block
through the step map, with the alternating sign of the letter's position.
Its rows are written directly, one (i-1)-subset at a time, from the rows of
one local block per insertion point.

One strand is kept per (module, degree), and it builds each differential,
d^2-checked, the first time a reader needs it: a shift probe reading
Tor_0..Tor_2 builds the low terms alone, and a later full table grows them.
The check makes the multiply-adds of d_{i-1} d_i but stores no product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .fimod import FIModule, generation_degrees
from .linalg import (
    Matrix,
    SubquotientSpace,
    kernel_basis,
    product_is_zero,
    rank,
)
from .reps import SnRep, basic_rep, induce_young, zero_rep

INF = math.inf


class TorError(ValueError):
    pass


class StrandComplex:
    """A chain complex of S_n-representations in homological indices lo..hi.

    Only the term dimensions are stored up front.  ``build(i)`` makes the
    differential from term i to term i-1, which :meth:`diff` keeps in
    ``diffs``, and ``term(i)`` the representation on term i.  The builders
    may hold module pieces but never a module or a complex, since those
    cache their strands and a reference back would make a cycle.

    :func:`koszul_strand` makes the Koszul strand of a module (lo = 0,
    hi = n) and ``complexes.total_strand`` the total strand of a complex.
    """

    __slots__ = ("n", "field", "lo", "hi", "dims", "diffs", "build", "term",
                 "_ranks", "_lows")

    def __init__(self, n, field, lo, hi, dims: dict, build, term):
        self.n = n
        self.field = field
        self.lo = lo
        self.hi = hi
        self.dims = dims
        self.diffs = {}
        self.build = build
        self.term = term
        self._ranks = {}
        self._lows = {}

    def term_dim(self, i):
        return self.dims.get(i, 0)

    def diff(self, i):
        """d_i, or None where term i or i-1 lies outside lo..hi (a zero map).

        Builds every missing d_j, j <= i, in order, and keeps d_j only once
        d_{j-1} d_j = 0, so the kept differentials are d_{lo+1}..d_j for
        some j and a failed check raises again on the next read.  The check
        is :func:`~fihomlab.linalg.product_is_zero`: the multiply-adds of
        the full product, with no product row sorted or stored.
        """
        if not self.lo < i <= self.hi:
            return None
        diffs = self.diffs
        for j in range(self.lo + 1 + len(diffs), i + 1):
            d = self.build(j)
            below = diffs.get(j - 1)
            if below is not None and not product_is_zero(below, d):
                raise TorError(f"d^2 != 0 at strand term {j} (sign-convention bug)")
            diffs[j] = d
        return diffs[i]

    def rank(self, i) -> int:
        """Rank of d_i: zero outside lo+1..hi, and otherwise settled by
        bounds or, where they differ, by elimination.

        The lower bound (:meth:`_low`) counts independent rows.  The upper
        bound is ``min(dim C_i - low(i+1), dim C_{i-1} - low(i-1))``: by
        d^2 = 0, which :meth:`diff` checked for every built pair, the image
        of d_{i+1} lies in the kernel of d_i, and the image of d_i in the
        kernel of d_{i-1}.  Where the two meet the rank is exact without
        elimination.
        """
        d = self.diff(i)
        if d is None:
            return 0
        r = self._ranks.get(i)
        if r is None:
            low = self._low(i)
            up = min(self.term_dim(i) - self._low(i + 1),
                     self.term_dim(i - 1) - self._low(i - 1))
            if low > up:
                raise TorError(f"rank bounds {low} > {up} on d_{i} at degree {self.n}")
            r = self._ranks[i] = low if low == up else rank(d)
        return r

    def _low(self, i) -> int:
        """A lower bound on rank d_i: the rank if it is settled, else the
        larger count of distinct first columns and of distinct last columns
        among the rows (rows whose first columns differ pairwise are
        independent, and so are rows whose last columns do); 0 where d_i is
        not built yet."""
        r = self._ranks.get(i)
        if r is None:
            r = self._lows.get(i)
        if r is None:
            d = self.diffs.get(i)
            if d is None:
                return 0
            rows = [row for row in d.data if row]
            r = self._lows[i] = max(len({row[0][0] for row in rows}),
                                    len({row[-1][0] for row in rows}))
        return r


def _koszul_term(pieces, n, field, i) -> SnRep:
    """Ind over S_i x S_{n-i} of (sign of S_i) boxtimes M_{n-i}."""
    piece = pieces[n - i]
    if piece.dim == 0:
        return zero_rep(n, field)
    return induce_young(basic_rep("sign", i, field), piece)


def _koszul_diff(pieces, steps, n, field, i) -> Matrix:
    """The differential from term i to term i-1 of the degree-n strand,
    written row by row.

    Row block T' (an (i-1)-subset, in lexicographic order) meets column
    block T' + {t} for each letter t outside T'; as t increases, so does
    that column block.  The block there is the local block at t's insertion
    point q among the letters outside T', negated when an odd number j of
    letters of T' lie below t (so q = t - j).  A local block is the step
    into degree m = n - i + 1, then the cycle ``(q ... m) = s_q (q+1 ... m)``,
    so each is one generator times the next, down from the step at q = m.
    """
    dim_m = pieces[n - i].dim
    dim_m1 = pieces[n - i + 1].dim
    shape = (math.comb(n, i - 1) * dim_m1, math.comb(n, i) * dim_m)
    if not (dim_m and dim_m1):
        return Matrix(field, *shape)
    local_at = [steps[n - i]]
    for g in reversed(pieces[n - i + 1].gens):
        local_at.insert(0, g * local_at[0])
    # the rows of each local block, by sign parity and insertion point
    norm = field.normalize
    signed = [[loc.data for loc in local_at],
              [[[(c, norm(-x)) for c, x in row] for row in loc.data] for loc in local_at]]
    letters = range(1, n + 1)
    offset = {T: k * dim_m for k, T in enumerate(combinations(letters, i))}
    data = []
    for T1 in combinations(letters, i - 1):
        parts, j = [], 0
        for t in letters:
            if j < i - 1 and T1[j] == t:
                j += 1
            else:
                parts.append((offset[T1[:j] + (t,) + T1[j:]], signed[j % 2][t - j - 1]))
        data += [[(c0 + c, x) for c0, blk in parts for c, x in blk[r]]
                 for r in range(dim_m1)]
    return Matrix(field, *shape, data)


def koszul_strand(M: FIModule, n: int) -> StrandComplex:
    """A new degree-n Koszul strand of M, with no differential built yet;
    :func:`cached_strand` keeps one per module and degree."""
    if n > M.window:
        raise TorError(f"strand at degree {n} needs window >= {n}")
    field = M.field
    dims = {i: math.comb(n, i) * M.dim(n - i) for i in range(n + 1)}
    return StrandComplex(n, field, 0, n, dims,
                         partial(_koszul_diff, M.pieces, M.steps, n, field),
                         partial(_koszul_term, M.pieces, n, field))


def cached_strand(X, n: int, make=None) -> StrandComplex:
    """The degree-n strand of X, made by ``make(X, n)`` once per object and
    degree and kept in ``X.strands``: by default the Koszul strand of a
    module, and ``complexes.total_strand`` for a complex.  Every reader
    grows it by the differentials it reads, and it dies with X."""
    strand = X.strands.get(n)
    if strand is None:
        strand = X.strands[n] = (make or koszul_strand)(X, n)
    return strand


def verify_equivariance(strand: StrandComplex):
    """Every differential commutes with each Coxeter generator of S_n
    (quadratic matrix work, for the ``koszul-check`` task and the tests)."""
    strand.diff(strand.hi)
    tgt = strand.term(strand.lo)
    for i in range(strand.lo + 1, strand.hi + 1):
        d = strand.diffs[i]
        src = strand.term(i)
        for k in range(max(strand.n - 1, 0)):
            if d * src.gens[k] != tgt.gens[k] * d:
                raise TorError(f"strand differential not equivariant at term {i}")
        tgt = src


def _strand_homology_sq(strand: StrandComplex, i: int) -> SubquotientSpace:
    """Cycles modulo boundaries at term i, with quotient representatives."""
    d, boundaries = strand.diff(i), strand.diff(i + 1)
    if d is not None:
        cycles = kernel_basis(d)
    else:
        cycles = Matrix.identity(strand.field, strand.term_dim(i))
    return SubquotientSpace.from_sub_killed(cycles, boundaries)


def strand_homology_dim(strand: StrandComplex, i: int) -> int:
    """dim C_i - rank d_i - rank d_{i+1}.  This counts cycles modulo
    boundaries because boundaries lie in the cycles, which is d^2 = 0."""
    if not strand.lo <= i <= strand.hi:
        return 0
    return strand.term_dim(i) - strand.rank(i) - strand.rank(i + 1)


def homology_rep(strand: StrandComplex, i: int) -> SnRep:
    """H_i of a strand, materialized as an honest S_n-representation."""
    if not strand.lo <= i <= strand.hi:
        return zero_rep(strand.n, strand.field)
    sq = _strand_homology_sq(strand, i)
    gens = [sq.induced_map(g, sq) for g in strand.term(i).gens]
    return SnRep(strand.n, strand.field, gens, dim=sq.dim)


def tor_rep(M: FIModule, i: int, n: int) -> SnRep:
    """Tor_i(M) in degree n as an S_n-representation."""
    return homology_rep(cached_strand(M, n), i)


@dataclass
class TorTable:
    i_max: int
    n_max: int
    entries: dict  # (i, n) -> dim
    kind: str = "module"

    def dim(self, i, n):
        return self.entries.get((i, n), 0)

    def row(self, i):
        return [self.dim(i, n) for n in range(self.n_max + 1)]

    def t(self, i):
        nz = [n for n in range(self.n_max + 1) if self.dim(i, n) > 0]
        return nz[-1] if nz else -INF

    def row_certified(self, i):
        """A row is certified when it vanishes at the top of the window and
        the window reaches at least two degrees past the row's start (row i
        has no cells below degree i, so vanishing there proves nothing)."""
        if i > self.n_max - 2:
            return False
        tail = [n for n in (self.n_max - 1, self.n_max) if n >= 0]
        return all(self.dim(i, n) == 0 for n in tail)

    def rows(self):
        return range(self.i_max + 1)


def strand_table(X, i_max: int, make, kind="module") -> TorTable:
    """Homology dimensions of the strands of X (see :func:`cached_strand`),
    in indices 0..i_max and degrees 0..``X.window``.

    Each strand builds d_1..d_{i_max+1}, and only those, before any rank is
    read, so that each rank has the bounds of both neighbours.
    """
    n_max = X.window
    entries = {}
    for n in range(n_max + 1):
        strand = cached_strand(X, n, make)
        strand.diff(min(i_max + 1, strand.hi))
        for i in range(min(i_max, strand.hi) + 1):
            d = strand_homology_dim(strand, i)
            if d:
                entries[(i, n)] = d
    return TorTable(i_max, n_max, entries, kind)


def tor_table(M: FIModule, i_max: int | None = None) -> TorTable:
    """Dimension table of Tor_i(M)_n over the certified window.

    Row zero is cross-checked on every call against the generator-count
    oracle, which runs once per module; a mismatch is a hard internal
    failure.  By default the rows run up to the window minus the least
    generator degree.
    """
    oracle = M.generators
    if oracle is None:
        oracle = M.generators = generation_degrees(M)
    if i_max is None:
        gen0 = next((n for n, d in enumerate(oracle) if d > 0), None)
        i_max = 0 if gen0 is None else max(M.window - gen0, 0)
    if i_max < 0:
        raise TorError("i_max must be nonnegative")
    table = strand_table(M, i_max, koszul_strand)
    for n in range(table.n_max + 1):
        if table.dim(0, n) != oracle[n]:
            raise TorError(
                f"Tor_0 row disagrees with the generator-count oracle at degree {n}: "
                f"{table.dim(0, n)} vs {oracle[n]}"
            )
    return table


@dataclass
class RegularityReport:
    reg: float  # int or -inf
    witnesses: list  # (i, n) cells attaining reg
    uncertified_rows: list
    table: TorTable

    @property
    def certified(self):
        return not self.uncertified_rows


def regularity(M: FIModule, table: TorTable | None = None) -> RegularityReport:
    """reg = max over certified rows of t_i - i, with witnesses."""
    if table is None:
        table = tor_table(M)
    reg = -INF
    witnesses = []
    uncertified = []
    for i in table.rows():
        if not table.row_certified(i):
            uncertified.append(i)
            continue
        ti = table.t(i)
        if ti == -INF:
            continue
        if ti - i > reg:
            reg = ti - i
            witnesses = [(i, ti)]
        elif ti - i == reg:
            witnesses.append((i, ti))
    return RegularityReport(reg, witnesses, uncertified, table)
