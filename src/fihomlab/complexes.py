"""Bounded complexes of FI-modules, their cohomology, and hyper-Tor.

Cohomological indexing: differentials raise the index by one.  Cohomology
dimensions come from ranks of the differentials; no H^i module is built.
Hyper-Tor in homological index n is the homology in index n of the total
strand, a :class:`~fihomlab.tor.StrandComplex` over the Koszul strands of
every term.  One total strand is kept per (complex, degree); each of its
differentials is built, with the module differentials it holds, the first
time a reader needs it, and is d^2-checked before it is kept.
"""
from __future__ import annotations

import math
from functools import partial

from .fimod import FIModule, zero_module
from .linalg import Matrix, block_diag, product_is_zero, rank
from .reps import SnRep, direct_sum_reps, zero_rep
from .tor import StrandComplex, TorTable, cached_strand, homology_rep, strand_table

INF = math.inf


class ComplexError(ValueError):
    pass


class FIComplex:
    """Finitely many FI-modules indexed cohomologically, with d o d = 0."""

    def __init__(self, terms: dict, diffs: dict | None = None):
        if not terms:
            raise ComplexError("empty complex")
        self.terms = dict(terms)
        self.diffs = dict(diffs or {})
        fields = {m.field for m in self.terms.values()}
        windows = {m.window for m in self.terms.values()}
        if len(fields) != 1 or len(windows) != 1:
            raise ComplexError("terms must share one field and window")
        self.field = fields.pop()
        self.window = windows.pop()
        # total strands by degree, filled by ``tor.cached_strand``
        self.strands = {}
        self.verify()

    def term(self, i) -> FIModule:
        m = self.terms.get(i)
        return zero_module(self.field, self.window) if m is None else m

    def diff_matrix(self, i, n) -> Matrix:
        """Matrix of the differential out of index i in degree n."""
        d = self.diffs.get(i)
        if d is not None:
            return d.maps[n]
        return Matrix.zeros(self.field, self.term(i + 1).dim(n), self.term(i).dim(n))

    def verify(self):
        for i, d in self.diffs.items():
            if d.source is not self.terms.get(i) or d.target is not self.terms.get(i + 1):
                raise ComplexError(f"differential at {i} has wrong endpoints")
        for i in self.diffs:
            nxt = self.diffs.get(i + 1)
            if nxt is not None:
                for n in range(self.window + 1):
                    if not product_is_zero(nxt.maps[n], self.diffs[i].maps[n]):
                        raise ComplexError(f"d o d != 0 at index {i}, degree {n}")

    def min_support(self):
        """Minimal index with a nonzero term, or None for the zero complex."""
        for i in sorted(self.terms):
            if not self.terms[i].is_zero():
                return i
        return None

    @classmethod
    def single(cls, M: FIModule, index: int = 0):
        return cls({index: M})


def cohomology_dims(C: FIComplex) -> dict:
    """dim H^i_n = dim C^i_n - rank d^i_n - rank d^{i-1}_n for every
    supported index i and degree n <= ``C.window``; exact because
    ``verify`` checks im d^{i-1} inside ker d^i."""
    return {
        i: [C.terms[i].dim(n) - rank(C.diff_matrix(i, n)) - rank(C.diff_matrix(i - 1, n))
            for n in range(C.window + 1)]
        for i in sorted(C.terms)
    }


# -- hyper-Tor --------------------------------------------------------


def _total_term(strands, g, field, k) -> SnRep:
    """Index k of a total strand: the sum of the Koszul terms sitting there."""
    reps = [strands[m].term(k + m) for m in strands if 0 <= k + m <= g]
    return direct_sum_reps(reps) if reps else zero_rep(g, field)


def _total_diff(strands, deltas, offsets, dims, g, field, k) -> Matrix:
    """Index k of a total differential: the module strands' Koszul
    differentials and the complex differential on each Koszul block."""
    tgt = offsets[k - 1]
    blocks = []   # in increasing column offset
    for (m, i), c0 in offsets[k].items():
        if (m, i - 1) in tgt:
            blocks.append((tgt[(m, i - 1)], c0, strands[m].diff(i)))
        if (m + 1, i) in tgt:
            blk = block_diag(field, [deltas[(m, i)]] * math.comb(g, i))
            if i % 2:
                blk = blk.scale(field.of(-1))
            blocks.append((tgt[(m + 1, i)], c0, blk))
    return Matrix.from_blocks(field, dims[k - 1], dims[k], blocks)


def total_strand(C: FIComplex, g: int) -> StrandComplex:
    """Total complex of the Koszul strands of every term, in graded degree g.

    Position (term index m, Koszul index i) sits at homological index i - m,
    so Tor_n(C)_g is H_n.  The total differential is the Koszul differential
    plus (-1)^i times the complex differential on each of the C(g, i)
    blocks of a Koszul term.
    """
    field = C.field
    strands = {m: cached_strand(C.terms[m], g) for m in sorted(C.terms)}
    lo, hi = -max(C.terms), g - min(C.terms)
    offsets, dims = {}, {}  # index k -> {(m, i): offset in term order}, total
    for k in range(lo, hi + 1):
        offsets[k], off = {}, 0
        for m, s in strands.items():
            if 0 <= k + m <= g:
                offsets[k][(m, k + m)] = off
                off += s.term_dim(k + m)
        dims[k] = off
    # the complex differentials, taken here so that no builder holds C
    deltas = {(m, i): C.diff_matrix(m, g - i)
              for m in strands if m + 1 in strands for i in range(g + 1)}
    return StrandComplex(g, field, lo, hi, dims,
                         partial(_total_diff, strands, deltas, offsets, dims, g, field),
                         partial(_total_term, strands, g, field))


def hyper_tor(C: FIComplex, i_max: int) -> TorTable:
    """Dimension table of Tor_n(C) in each graded degree, n = 0..i_max.

    On one-term complexes at index 0 this reduces to the module Tor table.
    """
    return strand_table(C, i_max, total_strand, kind="hyper")


def hyper_tor_rep(C: FIComplex, n: int, g: int) -> SnRep:
    """Tor_n(C) in graded degree g as an S_g-representation."""
    return homology_rep(cached_strand(C, g, total_strand), n)
