"""FI-modules on a finite degree window.

A module is stored in its graded form: one S_n-representation per degree
``0..window`` together with one-step structure maps (multiplication by the
degree-1 generator of the ground algebra).  Two invariants are verified
eagerly: each step is equivariant for the standard inclusion of symmetric
groups, and the two-step composite is invariant under the transposition of
the two freshly added letters.  Together these make the data a genuine
FI-module restricted to the window.

The window is a module's only degree bound, and every degree in it holds
exact data, by induction over the constructors: ``fi_induced``,
``fi_constant``, ``fi_torsion_concentrated`` and ``zero_module`` compute
each degree; ``fi_shift`` by ``a`` returns a window ``a`` smaller, or raises
:class:`WindowExhausted`; ``fi_truncate`` and ``fi_truncate_window`` keep or
cut degrees; ``direct_sum``, ``kernel``, ``image``, ``cokernel`` and
:class:`~fihomlab.complexes.FIComplex` combine modules of one window, which
:class:`FIMorphism` requires of its endpoints.

Kernels, images and cokernels are built, and verified, as subquotient
modules; each constructor returns the module alone.  The torsion submodule
is never built: :func:`torsion_submodule` gives its dimensions from ranks of
composite steps, which is all that local cohomology reads of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .linalg import (
    Matrix,
    SubquotientSpace,
    block_diag,
    rank,
)
from .reps import (
    SnRep,
    basic_rep,
    direct_sum_reps,
    induce_young,
    restrict_rep,
    subrep_span,
    zero_rep,
)

INF = math.inf


class FIError(ValueError):
    pass


class WindowExhausted(FIError):
    """An operation needed more certified degrees than the window provides."""


class InputError(FIError):
    """A caller's own data is invalid: a seed matrix of the wrong shape or
    not equivariant, a torsion degree unlike the rep's, a negative shift."""


class FIModule:
    __slots__ = ("field", "window", "pieces", "steps", "torsion_hint", "strands",
                 "generators")

    def __init__(self, field, window, pieces, steps, torsion_hint=False, check=True):
        self.field = field
        self.window = window
        self.pieces = tuple(pieces)
        self.steps = tuple(steps)
        self.torsion_hint = torsion_hint
        # verified Koszul strands by degree, filled by ``tor.cached_strand``,
        # and the generator counts of ``generation_degrees``, filled by
        # ``tor.tor_table``; the data above is never mutated, so both stay
        # valid for the module's life
        self.strands = {}
        self.generators = None
        if len(self.pieces) != window + 1 or len(self.steps) != window:
            raise FIError("window/pieces/steps length mismatch")
        if check:
            self.verify()

    def dim(self, n):
        return self.pieces[n].dim if 0 <= n <= self.window else 0

    def dims(self):
        return [p.dim for p in self.pieces]

    def is_zero(self):
        return all(p.dim == 0 for p in self.pieces)

    def verify(self):
        for n in range(self.window):
            phi = self.steps[n]
            src, tgt = self.pieces[n], self.pieces[n + 1]
            if (phi.rows, phi.cols) != (tgt.dim, src.dim):
                raise FIError(f"step at degree {n} has wrong shape")
            # equivariance under S_n included in S_{n+1}
            for i in range(1, n):
                if phi * src.gens[i - 1] != tgt.gens[i - 1] * phi:
                    raise FIError(f"step at degree {n} not equivariant for s_{i}")
        for n in range(self.window - 1):
            comp = self.steps[n + 1] * self.steps[n]
            swap = self.pieces[n + 2].gens[n]  # s_{n+1} in S_{n+2}
            if swap * comp != comp:
                raise FIError(f"two-step composite at degree {n} not symmetric")

    def composite_step(self, lo, hi):
        """The composite map from degree ``lo`` to degree ``hi``."""
        out = Matrix.identity(self.field, self.dim(lo))
        for n in range(lo, hi):
            out = self.steps[n] * out
        return out

    def __repr__(self):
        return f"FIModule(dims={self.dims()}, window={self.window})"


class FIMorphism:
    __slots__ = ("source", "target", "maps")

    def __init__(self, source: FIModule, target: FIModule, maps):
        if source.field != target.field or source.window != target.window:
            raise FIError("morphism endpoints must share field and window")
        self.source = source
        self.target = target
        self.maps = tuple(maps)
        if len(self.maps) != source.window + 1:
            raise FIError("one matrix per degree required")
        self.verify()

    def verify(self):
        for n in range(self.source.window + 1):
            f = self.maps[n]
            if (f.rows, f.cols) != (self.target.dim(n), self.source.dim(n)):
                raise FIError(f"morphism map at degree {n} has wrong shape")
            for i in range(1, n):
                if f * self.source.pieces[n].gens[i - 1] != self.target.pieces[n].gens[i - 1] * f:
                    raise FIError(f"morphism not equivariant at degree {n}")
        for n in range(self.source.window):
            lhs = self.target.steps[n] * self.maps[n]
            rhs = self.maps[n + 1] * self.source.steps[n]
            if lhs != rhs:
                raise FIError(f"morphism does not commute with steps at degree {n}")

    def is_zero(self):
        return all(m.is_zero() for m in self.maps)


# -- constructors -----------------------------------------------------


def zero_module(field, window):
    pieces = [zero_rep(n, field) for n in range(window + 1)]
    steps = [Matrix.zeros(field, 0, 0) for _ in range(window)]
    return FIModule(field, window, pieces, steps, torsion_hint=True, check=False)


def _induced_piece(V: SnRep, n: int) -> SnRep:
    """Ind over the two-block Young subgroup with the trivial rep on the tail."""
    if n < V.n:
        return zero_rep(n, V.field)
    return induce_young(V, basic_rep("trivial", n - V.n, V.field))


def fi_induced(V: SnRep, window: int) -> FIModule:
    """The free FI-module on an S_d-representation V.

    Piece at degree n has dimension C(n, d) * dim V; the basis is indexed by
    (d-subset of {1..n}, basis vector of V) and the step maps are the
    subset-inclusion maps.
    """
    d = V.n
    field = V.field
    if d > window:
        return zero_module(field, window)
    pieces = [_induced_piece(V, n) for n in range(window + 1)]
    steps = []
    for n in range(window):
        if n + 1 < d:
            steps.append(Matrix.zeros(field, 0, 0))
            continue
        if n < d:
            steps.append(Matrix.zeros(field, pieces[n + 1].dim, 0))
            continue
        subs_n = list(combinations(range(1, n + 1), d))
        subs_n1 = list(combinations(range(1, n + 2), d))
        idx1 = {s: k for k, s in enumerate(subs_n1)}
        m = Matrix.zeros(field, pieces[n + 1].dim, pieces[n].dim)
        for k, s in enumerate(subs_n):
            k1 = idx1[s]
            for v in range(V.dim):
                m.data[k1 * V.dim + v] = [(k * V.dim + v, field.one)]
        steps.append(m)
    return FIModule(field, window, pieces, steps)


def fi_constant(field, window) -> FIModule:
    """The rank-one module with every injection acting as the identity."""
    return fi_induced(basic_rep("trivial", 0, field), window)


def fi_torsion_concentrated(V: SnRep, d: int, window: int) -> FIModule:
    if V.n != d:
        raise InputError("representation degree must equal the concentration degree")
    if d > window:
        return zero_module(V.field, window)
    field = V.field
    pieces = [V if n == d else zero_rep(n, field) for n in range(window + 1)]
    steps = [
        Matrix.zeros(field, pieces[n + 1].dim, pieces[n].dim) for n in range(window)
    ]
    return FIModule(field, window, pieces, steps, torsion_hint=True)


def direct_sum(M: FIModule, N: FIModule) -> FIModule:
    if M.field != N.field or M.window != N.window:
        raise FIError("direct sum needs matching field and window")
    pieces = [
        direct_sum_reps([M.pieces[n], N.pieces[n]]) for n in range(M.window + 1)
    ]
    steps = [
        block_diag(M.field, [M.steps[n], N.steps[n]]) for n in range(M.window)
    ]
    return FIModule(M.field, M.window, pieces, steps,
                    torsion_hint=M.torsion_hint and N.torsion_hint)


def fi_shift(M: FIModule, a: int) -> FIModule:
    """Shift: evaluate on the disjoint union with ``a`` extra letters (the last ones).
    Its step at degree n is M's, then ``(n+1 ... n+a+1) = s_{n+1} ... s_{n+a}``."""
    if a < 0:
        raise InputError("negative shift")
    if a > M.window:
        raise WindowExhausted(f"shift by {a} exceeds window {M.window}")
    if a == 0:
        return M
    window = M.window - a
    pieces = [restrict_rep(M.pieces[n + a], n) for n in range(window + 1)]
    steps = []
    for n in range(window):
        gens, step = M.pieces[n + a + 1].gens, M.steps[n + a]
        for k in range(n + a, n, -1):
            step = gens[k - 1] * step
        steps.append(step)
    return FIModule(M.field, window, pieces, steps, torsion_hint=M.torsion_hint)


def natural_shift_map(M: FIModule, S: FIModule) -> FIMorphism:
    """The canonical map M -> S = fi_shift(M, b): the composite of b step maps."""
    b = M.window - S.window
    base = fi_truncate_window(M, S.window)
    maps = [M.composite_step(n, n + b) for n in range(S.window + 1)]
    return FIMorphism(base, S, maps)


def fi_truncate_window(M: FIModule, window: int) -> FIModule:
    """Forget degrees above ``window`` (window bookkeeping, not the torsion truncation)."""
    if window == M.window:
        return M
    if window > M.window:
        raise FIError("cannot extend a window")
    return FIModule(M.field, window, M.pieces[: window + 1], M.steps[:window],
                    torsion_hint=M.torsion_hint, check=False)


def fi_truncate(M: FIModule, c: int) -> FIModule:
    """The torsion quotient that keeps degrees <= c and kills the rest."""
    if c >= M.window:
        return M
    field = M.field
    pieces = [M.pieces[n] if n <= c else zero_rep(n, field) for n in range(M.window + 1)]
    steps = [
        M.steps[n] if n + 1 <= c else Matrix.zeros(field, pieces[n + 1].dim, pieces[n].dim)
        for n in range(M.window)
    ]
    return FIModule(field, M.window, pieces, steps, torsion_hint=True)


# -- subquotients -----------------------------------------------------


def subquotient_module(ambient: FIModule, spaces) -> FIModule:
    """FIModule structure on degreewise subquotients of an ambient module.

    ``spaces`` yields one :class:`SubquotientSpace` per degree, consumed
    here.  Expressing each generator and step in them checks that the sub
    spaces are preserved (``express`` raises otherwise).  That the killed
    spaces are preserved is not checked: a cokernel kills the image of a
    verified morphism, which commutes with the group action and the steps.
    Subquotients of torsion are torsion: ``torsion_hint`` is the ambient's.
    """
    field = ambient.field
    sqs = list(spaces)
    pieces = []
    for n in range(ambient.window + 1):
        sq = sqs[n]
        gens = [sq.induced_map(g, sq) for g in ambient.pieces[n].gens]
        pieces.append(SnRep(n, field, gens, dim=sq.dim))
    steps = [sqs[n].induced_map(ambient.steps[n], sqs[n + 1])
             for n in range(ambient.window)]
    return FIModule(field, ambient.window, pieces, steps, torsion_hint=ambient.torsion_hint)


def kernel(f: FIMorphism) -> FIModule:
    """Degreewise kernel, as a submodule of the source."""
    return subquotient_module(f.source, map(SubquotientSpace.kernel, f.maps))


def image(f: FIMorphism) -> FIModule:
    """Degreewise image, as a submodule of the target."""
    return subquotient_module(f.target, map(SubquotientSpace.from_sub_killed, f.maps))


def cokernel(f: FIMorphism) -> FIModule:
    """Degreewise cokernel, as a quotient of the target."""
    quotients = (SubquotientSpace.from_sub_killed(None, m) for m in f.maps)
    return subquotient_module(f.target, quotients)


# -- induced morphisms ------------------------------------------------


def induced_morphism(V: SnRep, target: FIModule, f0: Matrix,
                     source: FIModule | None = None) -> FIMorphism:
    """The unique morphism I(V) -> target extending an equivariant map f0.

    ``source`` is ``fi_induced(V, target.window)``, built here if not given.
    ``f0`` maps V into the target piece at degree d = V.n.  The block of a
    d-subset s is ``g_s`` times f0 pushed up by the steps, ``g_s`` sending
    1..d onto s in order.  Lowering a letter x of s to a free x - 1 gives an
    earlier s' with ``g_s = s_{x-1} g_{s'}``, so each block is one product.
    """
    d = V.n
    field = V.field
    if (f0.rows, f0.cols) != (target.dim(d), V.dim):
        raise InputError("f0 has the wrong shape")
    for i in range(1, d):
        if f0 * V.gens[i - 1] != target.pieces[d].gens[i - 1] * f0:
            raise InputError(f"f0 is not equivariant (fails at s_{i})")
    if source is None:
        source = fi_induced(V, target.window)
    maps = []
    for n in range(target.window + 1):
        if n < d:
            maps.append(Matrix.zeros(field, target.dim(n), 0))
            continue
        seed = f0 if n == d else target.steps[n - 1] * seed
        gens, blocks = target.pieces[n].gens, {}
        for s in combinations(range(1, n + 1), d):
            # s[:k] is 1..k, so x = s[k] is the least letter with x - 1 outside s
            k = next((j for j, x in enumerate(s) if x != j + 1), d)
            blocks[s] = (seed if k == d
                         else gens[s[k] - 2] * blocks[s[:k] + (s[k] - 1,) + s[k + 1:]])
        maps.append(Matrix.from_blocks(field, target.dim(n), source.dim(n), [
            (0, c * V.dim, blk) for c, blk in enumerate(blocks.values())]))
    return FIMorphism(source, target, maps)


# -- torsion and generation -----------------------------------------


@dataclass
class TorsionPart:
    dims: list                # dimension of the torsion submodule per degree
    certified_through: int

    @property
    def maxdeg(self) -> float:  # the last nonzero degree, or -inf
        return last_nonzero(self.dims)


def torsion_submodule(M: FIModule) -> TorsionPart:
    """Dimensions of the elements killed by pushing to the end of the window.

    In degree n that is the nullity of the composite step from n to the
    window end ``hi``.  A degree is certified only when that nullity has
    stabilized over the last step of the window (the composite to ``hi - 1``
    has the same rank); finite windows cannot witness torsion beyond that.
    The torsion is zero at ``hi`` itself, so its maxdeg is certified.
    """
    hi = M.window
    if M.torsion_hint:
        return TorsionPart(M.dims(), hi)
    dims = []
    certified_through = -1
    contiguous = True
    for n in range(hi + 1):
        if n < hi:
            shorter = M.composite_step(n, hi - 1)
            r = rank(M.steps[hi - 1] * shorter)
            stable = r == rank(shorter)
        else:  # the composite from hi to hi is the identity
            r = M.dim(n)
            stable = M.dim(n) == 0
        dims.append(M.dim(n) - r)
        contiguous = contiguous and stable
        if contiguous:
            certified_through = n
    return TorsionPart(dims, certified_through)


def last_nonzero(dims) -> float:
    """The last degree with a nonzero dimension, or -inf when there is none."""
    return max((n for n, d in enumerate(dims) if d), default=-INF)


def generation_degrees(M: FIModule) -> list[int]:
    """Independent oracle for the zeroth Tor row: dimension of the quotient of
    each piece by the span of all group translates of the previous piece."""
    out = []
    for n in range(M.window + 1):
        if n == 0:
            out.append(M.dim(0))
            continue
        out.append(M.dim(n) - subrep_span(M.pieces[n], M.steps[n - 1]).cols)
    return out
