"""Tor of FI-modules through the Koszul complex, degreewise.

The strand at degree n has i-th term Ind over the Young subgroup of
(sign of S_i) boxtimes (module piece in degree n-i); its basis is indexed by
the i-subset of letters occupying the sign block, in lexicographic order.
The differential moves one letter from the sign block into the module block
through the step map, with the alternating sign of the letter's position.
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
    rank,
)
from .reps import SnRep, basic_rep, induce_young, zero_rep

INF = math.inf


class TorError(ValueError):
    pass


class StrandComplex:
    """A chain complex of S_n-representations in homological indices lo..top,
    built through term hi <= top.

    ``diffs[i]`` is the differential from term i to term i-1 (lo < i <= hi).
    A strand with hi < top is truncated: it holds no d_i past hi, so
    :meth:`diff` and :meth:`rank` raise there rather than read a missing
    differential as zero.  Only the term dimensions are stored: ``term(i)``,
    a builder the strand is given, makes the representation on term i when a
    caller reads it.  The builder may hold module pieces but never a module,
    since a module caches its strands and a reference back would make a
    cycle.

    :func:`verify_strand` sets ``checked`` once d^2 = 0 holds, and ranks are
    read only from a checked strand, because the bounds that settle most of
    them rest on d^2 = 0.  Each rank is settled at most once.

    :func:`koszul_strand` builds the Koszul strand of a module (lo = 0,
    top = n) and ``complexes.total_strand`` the total strand of a complex.
    """

    __slots__ = ("n", "field", "lo", "hi", "top", "dims", "diffs", "term", "checked",
                 "_ranks", "_lows")

    def __init__(self, n, field, lo, hi, dims: dict, diffs: dict, term, top=None):
        self.n = n
        self.field = field
        self.lo = lo
        self.hi = hi
        self.top = hi if top is None else top
        self.dims = dims
        self.diffs = diffs
        self.term = term
        self.checked = False
        self._ranks = {}
        self._lows = {}

    def term_dim(self, i):
        return self.dims.get(i, 0)

    def diff(self, i):
        """``diffs[i]``; None where term i or i-1 lies outside lo..top (a
        zero map), and a :class:`TorError` past the last built term."""
        if not self.lo < i <= self.top:
            return None
        if i > self.hi:
            raise TorError(f"strand at degree {self.n} is built through term {self.hi} "
                           f"and has no differential d_{i}")
        return self.diffs[i]

    def rank(self, i) -> int:
        """Rank of d_i: zero outside lo+1..top, and otherwise settled by
        bounds or, where they differ, by elimination.

        The lower bound (:meth:`_low`) counts independent rows.  The upper
        bound is ``min(dim C_i - low(i+1), dim C_{i-1} - low(i-1))``: by
        d^2 = 0 the image of d_{i+1} lies in the kernel of d_i, and the image
        of d_i in the kernel of d_{i-1}.  Where the two meet the rank is
        exact without elimination.
        """
        if not self.checked:
            raise TorError(f"rank read from the strand at degree {self.n} before its d^2 check")
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
        independent, and so are rows whose last columns do); 0 where no d_i
        is built."""
        r = self._ranks.get(i)
        if r is None:
            r = self._lows.get(i)
        if r is None:
            if not self.lo < i <= self.hi:
                return 0
            rows = [row for row in self.diffs[i].data if row]
            r = self._lows[i] = max(len({row[0][0] for row in rows}),
                                    len({row[-1][0] for row in rows}))
        return r


def _koszul_term(pieces, n, field, i) -> SnRep:
    """Ind over S_i x S_{n-i} of (sign of S_i) boxtimes M_{n-i}."""
    piece = pieces[n - i]
    if piece.dim == 0:
        return zero_rep(n, field)
    return induce_young(basic_rep("sign", i, field), piece)


def koszul_strand(M: FIModule, n: int, hi: int | None = None,
                  deep: bool = False) -> StrandComplex:
    """Build and d^2-check terms 0..hi of the degree-n strand afresh, all of
    it by default; :func:`cached_strand` reuses one.  A local block inserts a
    letter at point q: the step into degree m = n - i + 1, then the cycle
    ``(q ... m) = s_q (q+1 ... m)``, so each block is one generator times the
    next, down from the step at q = m.
    """
    if n > M.valid_through:
        raise TorError(f"strand at degree {n} needs valid window >= {n}")
    hi = n if hi is None else min(hi, n)
    field = M.field
    dims = {i: math.comb(n, i) * M.dim(n - i) for i in range(hi + 1)}
    diffs = {}
    for i in range(1, hi + 1):
        dim_m = M.dim(n - i)
        dim_m1 = M.dim(n - i + 1)
        blocks = []
        if dim_m and dim_m1:
            # the local block depends only on the insertion point q, and
            # its sign only on the parity of the letter's position j
            local_at = [M.steps[n - i]]
            for g in reversed(M.pieces[n - i + 1].gens):
                local_at.insert(0, g * local_at[0])
            signed = [local_at, [loc.scale(field.of(-1)) for loc in local_at]]
            subs_i1 = combinations(range(1, n + 1), i - 1)
            idx1 = {s: k for k, s in enumerate(subs_i1)}
            # one block at (row block T - {t}, column block T) for each t in
            # T; the column blocks come in order
            for k, T in enumerate(combinations(range(1, n + 1), i)):
                for j, t in enumerate(T):
                    # t's insertion point among the letters outside T - {t}
                    # is q = t - j, as j letters of T precede t
                    blocks.append((idx1[T[:j] + T[j + 1:]] * dim_m1, k * dim_m,
                                   signed[j % 2][t - j - 1]))
        diffs[i] = Matrix.from_blocks(field, dims[i - 1], dims[i], blocks)
    strand = StrandComplex(n, field, 0, hi, dims, diffs,
                           partial(_koszul_term, M.pieces, n, field), top=n)
    verify_strand(strand, deep=deep)
    return strand


def cached_strand(M: FIModule, n: int, hi: int | None = None) -> StrandComplex:
    """The degree-n strand of M through term ``hi`` (all of it by default),
    built and d^2-checked once per module.

    ``M.strands`` keeps the widest strand built per degree: it serves every
    request it reaches, and a wider request replaces it by a new build.
    Only strands that passed :func:`verify_strand` are kept, so they die
    with the module.
    """
    hi = n if hi is None else min(hi, n)
    strand = M.strands.get(n)
    if strand is None or strand.hi < hi:
        strand = M.strands[n] = koszul_strand(M, n, hi)
    return strand


def verify_strand(strand: StrandComplex, deep: bool = False):
    """d^2 = 0 always; ``deep`` adds the equivariance check of every
    differential (quadratic matrix work, exercised by the test suite).
    Marks the strand ``checked`` once d^2 = 0 holds on every built term."""
    strand.checked = False
    for i in range(strand.lo + 2, strand.hi + 1):
        if not (strand.diffs[i - 1] * strand.diffs[i]).is_zero():
            raise TorError(f"d^2 != 0 at strand term {i} (sign-convention bug)")
    strand.checked = True
    if not deep:
        return
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
    boundaries because boundaries lie in the cycles, which is d^2 = 0.
    Raises on a truncated strand from its last built term on."""
    if not strand.lo <= i <= strand.top:
        return 0
    return strand.term_dim(i) - strand.rank(i) - strand.rank(i + 1)


def homology_rep(strand: StrandComplex, i: int) -> SnRep:
    """H_i of a strand, materialized as an honest S_n-representation."""
    if not strand.lo <= i <= strand.top:
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


def tor_table(M: FIModule, i_max: int | None = None) -> TorTable:
    """Dimension table of Tor_i(M)_n over the certified window.

    Row zero is cross-checked on every call against the generator-count
    oracle, which runs once per module; a mismatch is a hard internal
    failure.  By default the rows run up to the window minus the least
    generator degree, over full strands that ``tor_rep``, hyper-Tor and nu
    reuse; a caller's ``i_max`` asks only for the strand terms 0..i_max+1
    that its rows read.
    """
    oracle = M.generators
    if oracle is None:
        oracle = M.generators = generation_degrees(M)
    hi = None if i_max is None else i_max + 1
    if i_max is None:
        gen0 = next((n for n, d in enumerate(oracle) if d > 0), None)
        i_max = 0 if gen0 is None else max(M.valid_through - gen0, 0)
    if i_max < 0:
        raise TorError("i_max must be nonnegative")
    n_max = M.valid_through
    entries = {}
    for n in range(n_max + 1):
        strand = cached_strand(M, n, hi)
        for i in range(0, min(i_max, n) + 1):
            d = strand_homology_dim(strand, i)
            if d:
                entries[(i, n)] = d
    for n in range(n_max + 1):
        if entries.get((0, n), 0) != oracle[n]:
            raise TorError(
                f"Tor_0 row disagrees with the generator-count oracle at degree {n}: "
                f"{entries.get((0, n), 0)} vs {oracle[n]}"
            )
    return TorTable(i_max, n_max, entries)


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
