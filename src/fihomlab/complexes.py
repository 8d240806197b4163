"""Bounded complexes of FI-modules, their cohomology, and hyper-Tor.

Cohomological indexing: differentials raise the index by one.  Hyper-Tor in
homological index n is the cohomology in degree -n of the total complex
built from the Koszul strands of every term.
"""
from __future__ import annotations

import math

from .fimod import FIModule, subquotient_module
from .linalg import (
    Matrix,
    SubquotientSpace,
    column_space_basis,
    kernel_basis,
    kronecker,
)
from .reps import SnRep, direct_sum_reps, zero_rep
from .tor import TorTable, cached_strand

INF = math.inf


class ComplexError(ValueError):
    pass


class FIComplex:
    """Finitely many FI-modules indexed cohomologically, with d o d = 0."""

    def __init__(self, terms: dict, diffs: dict | None = None, check=True):
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
        self.valid_through = min(m.valid_through for m in self.terms.values())
        self.lo = min(self.terms)
        self.hi = max(self.terms)
        if check:
            self.verify()

    def term(self, i) -> FIModule:
        m = self.terms.get(i)
        if m is None:
            from .fimod import zero_module

            return zero_module(self.field, self.window)
        return m

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
                    if not (nxt.maps[n] * self.diffs[i].maps[n]).is_zero():
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


def complex_cohomology(C: FIComplex) -> dict:
    """H^i = ker d^i / im d^{i-1} as FI-modules, for every supported index."""
    out = {}
    for i in sorted(C.terms):
        ambient = C.terms[i]
        subs, killeds = [], []
        for n in range(C.window + 1):
            subs.append(kernel_basis(C.diff_matrix(i, n)))
            killeds.append(column_space_basis(C.diff_matrix(i - 1, n)))
        mod, _ = subquotient_module(
            ambient, subs, killeds,
            torsion_hint=ambient.torsion_hint,
            valid_through=C.valid_through,
        )
        out[i] = mod
    return out


# -- hyper-Tor --------------------------------------------------------


class _TotalStrand:
    """Total complex of the Koszul strands of every term, in one graded degree.

    Position (term index m, Koszul index i) sits in total cohomological
    degree c = m - i.  The total differential is the Koszul differential
    plus (-1)^i times the induced complex differential.
    """

    def __init__(self, C: FIComplex, g: int):
        self.C = C
        self.g = g
        self.field = C.field
        self.strands = {m: cached_strand(C.terms[m], g) for m in C.terms}
        self.blocks = {}  # c -> ordered list of (m, i)
        lo = C.lo - g
        hi = C.hi
        for c in range(lo, hi + 1):
            blocks = [
                (m, m - c)
                for m in sorted(C.terms)
                if 0 <= m - c <= g
            ]
            self.blocks[c] = blocks

    def space_rep(self, c) -> SnRep:
        blocks = self.blocks.get(c, [])
        reps = [self.strands[m].term(i) for m, i in blocks]
        if not reps:
            return zero_rep(self.g, self.field)
        return direct_sum_reps(reps) if len(reps) > 1 else reps[0]

    def dim(self, c) -> int:
        return sum(self.strands[m].term_dim(i) for m, i in self.blocks.get(c, []))

    def total_diff(self, c) -> Matrix:
        """Matrix from total degree c to c + 1."""
        src = self.blocks.get(c, [])
        tgt = self.blocks.get(c + 1, [])
        rows = self.dim(c + 1)
        cols = self.dim(c)
        out = Matrix.zeros(self.field, rows, cols)
        col_off = {}
        off = 0
        for m, i in src:
            col_off[(m, i)] = off
            off += self.strands[m].term_dim(i)
        row_off = {}
        off = 0
        for m, i in tgt:
            row_off[(m, i)] = off
            off += self.strands[m].term_dim(i)
        for m, i in src:
            c0 = col_off[(m, i)]
            # Koszul component: (m, i) -> (m, i - 1)
            if (m, i - 1) in row_off and i >= 1:
                blk = self.strands[m].diffs[i]
                self._paste(out, row_off[(m, i - 1)], c0, blk)
            # complex component: (m, i) -> (m + 1, i), sign (-1)^i
            if (m + 1, i) in row_off:
                delta = self.C.diff_matrix(m, self.g - i)
                if delta.rows and delta.cols:
                    nsub = math.comb(self.g, i)
                    blk = kronecker(Matrix.identity(self.field, nsub), delta)
                    if i % 2:
                        blk = blk.scale(self.field.of(-1))
                    self._paste(out, row_off[(m + 1, i)], c0, blk)
        return out

    @staticmethod
    def _paste(out, r0, c0, blk):
        for r in range(blk.rows):
            row = out.data[r0 + r]
            brow = blk.data[r]
            for c in range(blk.cols):
                row[c0 + c] = brow[c]

    def homology_sq(self, c) -> SubquotientSpace:
        cycles = kernel_basis(self.total_diff(c))
        boundaries = column_space_basis(self.total_diff(c - 1))
        return SubquotientSpace.from_sub_killed(cycles, boundaries)


def hyper_tor(C: FIComplex, i_max: int) -> TorTable:
    """Dimension table of Tor_n(C) in each graded degree, n = 0..i_max.

    Tor_n is the total-complex cohomology in degree -n; on one-term complexes
    at index 0 this reduces to the module Tor table.
    """
    entries = {}
    n_max = C.valid_through
    for g in range(n_max + 1):
        total = _TotalStrand(C, g)
        for n in range(i_max + 1):
            d = total.homology_sq(-n).dim
            if d:
                entries[(n, g)] = d
    return TorTable(i_max, n_max, entries, kind="hyper")


def hyper_tor_rep(C: FIComplex, n: int, g: int) -> SnRep:
    """Tor_n(C) in graded degree g, materialized as an S_g-representation."""
    total = _TotalStrand(C, g)
    sq = total.homology_sq(-n)
    ambient = total.space_rep(-n)
    gens = [sq.induced_map(gen, sq) for gen in ambient.gens]
    return SnRep(g, C.field, gens, dim=sq.dim)
