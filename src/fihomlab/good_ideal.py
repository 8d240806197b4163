"""Good ideals of k[S_p] (p = 2 or 3) and the nu invariant.

The ideal is carried by a single two-sided generator g, a matrix expression
in the generators A = s_1 and B = s_2 of its block of p letters: the norm
element g = 1 + A for p = 2, and for p = 3

    tau = (1 + A)(1 + ABA) - (2/3)(1 + A + B + AB + BA + ABA),

i.e. (1 + (1,2))(1 + (1,3)) minus 2/3 of the norm element of k[S_3].  On a
representation of S_n, g^{boxtimes r} acts blockwise on {1..p},
{p+1..2p}, ... as the product of r commuting block operators, each g in the
generator matrices of its block.  Whether the r-fold ideal annihilates a
representation is decided by that single operator; the reduction to one
matrix is valid because the two-sided ideal it generates acts through that
operator on the whole module, and is cross-checked against a brute-force
ideal sweep in the tests.  The axioms are checked on the matrix of g in the
regular representation of S_p, which is faithful, so an identity of
matrices there is the same identity in k[S_p].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .fields import Field, FieldError
from .linalg import Matrix
from .reps import SnRep, basic_rep, induce_young, subrep_span

INF = math.inf


class GoodIdealError(ValueError):
    pass


@dataclass(frozen=True)
class GoodIdeal:
    p: int
    field: Field

    def g(self, gens) -> Matrix:
        """The matrix of g, given the matrices of its block's generators
        ``s_1 .. s_{p-1}``."""
        f = self.field
        one = Matrix.identity(f, gens[0].rows)
        if self.p == 2:
            return one + gens[0]
        A, B = gens
        AB, BA = A * B, B * A
        ABA = AB * A
        norm = one + A + B + AB + BA + ABA
        return (one + A) * (one + ABA) - norm.scale(f.div(f.of(2), f.of(3)))


@dataclass
class NuValue:
    """nu of a representation: an integer in 0..n, or +inf for the zero rep."""

    value: float

    def __eq__(self, other):
        if isinstance(other, NuValue):
            return self.value == other.value
        return self.value == other

    def __repr__(self):
        return f"NuValue({self.value})"


def default_p(field: Field) -> int:
    """The block size used unless a job chooses one: 2, or 3 in
    characteristic 2, where 2 is not invertible."""
    return 3 if field.characteristic == 2 else 2


@cache
def good_ideal(p: int, field: Field) -> GoodIdeal:
    """The good-ideal generator for block size p, verified at its first
    construction for each ``(p, field)``; a failure raises and is not kept."""
    if p not in (2, 3):
        raise GoodIdealError("good ideals are available for p = 2 and p = 3 only")
    if field.characteristic == p:
        raise GoodIdealError(
            f"{p} must be invertible in the coefficient field (char = {field.characteristic})"
        )
    gi = GoodIdeal(p, field)
    report = verify_good_ideal(gi)
    if not report["all_pass"]:
        raise GoodIdealError(f"good-ideal axioms failed: {report}")
    return gi


def two_sided_ideal_dimension(gi: GoodIdeal) -> int:
    """Dimension of the two-sided ideal generated by g inside k[S_p].

    In the regular representation the columns of g span the right ideal
    g k[S_p], and the smallest generator-stable subspace holding them is
    k[S_p] g k[S_p]."""
    reg = basic_rep("regular", gi.p, gi.field)
    return subrep_span(reg, gi.g(reg.gens)).cols


def induced_sign_rep(p: int, field: Field) -> SnRep:
    """Ind_{S_{p-1}}^{S_p}(sgn_{p-1})."""
    return induce_young(basic_rep("sign", p - 1, field), basic_rep("trivial", 1, field))


def verify_good_ideal(gi: GoodIdeal) -> dict:
    """Check the good-ideal axioms over the field; k-flatness is automatic.

    Returns each check by name, and ``all_pass``."""
    p, f = gi.p, gi.field
    G = gi.g(basic_rep("regular", p, f).gens)
    checks = {}
    checks["idempotency_identity"] = G * G == (G.scale(f.of(2)) if p == 2 else G)
    checks["annihilates_sign"] = gi.g(basic_rep("sign", p, f).gens).is_zero()
    checks["nonzero_on_induced_sign"] = not gi.g(induced_sign_rep(p, f).gens).is_zero()
    if p == 3:
        # k[S_3]/I has dimension 2, i.e. the ideal has dimension 4
        checks["quotient_dimension_2"] = two_sided_ideal_dimension(gi) == 4
    checks["k_flat"] = True  # automatic over a field
    return {**checks, "all_pass": all(checks.values())}


def ideal_operators(gi: GoodIdeal, rep: SnRep):
    """The matrices of g^{boxtimes r} on ``rep`` for r = 0 .. n // p (the
    ideal I_n(r) is zero beyond): the identity, then each the last times g
    on the next block of p letters."""
    p = gi.p
    op = Matrix.identity(rep.field, rep.dim)
    yield op
    for j in range(rep.n // p):
        op = op * gi.g(rep.gens[j * p: j * p + p - 1])
        yield op


def nu(rep: SnRep, gi: GoodIdeal) -> NuValue:
    """n - r* where r* is the largest r with I_n(r) not annihilating the rep.

    The zero representation gets +inf (so the short-exact-sequence min rule
    holds without special cases).
    """
    if rep.field != gi.field:
        raise FieldError("representation and good ideal over different fields")
    if rep.is_zero():
        return NuValue(INF)
    r_star = 0
    for r, op in enumerate(ideal_operators(gi, rep)):
        if op.is_zero():  # and so is every later operator, a multiple of it
            break
        r_star = r
    return NuValue(rep.n - r_star)
