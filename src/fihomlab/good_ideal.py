"""Good ideals of k[S_p] (p = 2 or 3) and the nu invariant.

The ideal is carried by a single two-sided generator: the norm element
N = 1 + (1,2) for p = 2, and tau = (1 + (1,2))(1 + (1,3)) - (2/3) N for
p = 3, where N is the full norm element of k[S_3].  Whether the r-fold block
embedding annihilates a representation is decided by the single operator
act(g^{boxtimes r}); the reduction to one matrix is valid because the
two-sided ideal it generates acts through that operator on the whole module,
and is cross-checked against a brute-force ideal sweep in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import Field, FieldError
from .group_algebra import GroupAlgebraElement
from .linalg import Matrix, rank
from .permutations import Permutation, all_permutations
from .reps import SnRep, act, basic_rep, external_tensor, induce_young

INF = math.inf


class GoodIdealError(ValueError):
    pass


@dataclass(frozen=True)
class GoodIdeal:
    p: int
    g: GroupAlgebraElement

    @property
    def field(self):
        return self.g.field


@dataclass
class NuValue:
    """nu of a representation: an integer in 0..n, or +inf for the zero rep."""

    value: float
    n: int
    r_star: int | None = None

    def __eq__(self, other):
        if isinstance(other, NuValue):
            return self.value == other.value
        return self.value == other

    def __repr__(self):
        return f"NuValue({self.value})"


def norm_element(n: int, field: Field) -> GroupAlgebraElement:
    return GroupAlgebraElement(
        n, field, {p: field.one for p in all_permutations(n)}
    )


def good_ideal(p: int, field: Field) -> GoodIdeal:
    """The good-ideal generator for block size p, verified at construction."""
    if p not in (2, 3):
        raise GoodIdealError("good ideals are available for p = 2 and p = 3 only")
    if field.characteristic == p:
        raise GoodIdealError(
            f"{p} must be invertible in the coefficient field (char = {field.characteristic})"
        )
    if p == 2:
        g = GroupAlgebraElement(
            2, field, {Permutation([1, 2]): 1, Permutation([2, 1]): 1}
        )
    else:
        e = GroupAlgebraElement.one(3, field)
        t12 = GroupAlgebraElement.of_permutation(Permutation.transposition(1, 2, 3), field)
        t13 = GroupAlgebraElement.of_permutation(Permutation.transposition(1, 3, 3), field)
        two_thirds = field.div(field.of(2), field.of(3))
        g = (e + t12) * (e + t13) - norm_element(3, field).scale(two_thirds)
    gi = GoodIdeal(p, g)
    report = verify_good_ideal(gi)
    if not report["all_pass"]:
        raise GoodIdealError(f"good-ideal axioms failed: {report}")
    return gi


def two_sided_ideal_dimension(x: GroupAlgebraElement) -> int:
    """Dimension of the two-sided ideal generated by ``x`` inside k[S_n]."""
    n, f = x.n, x.field
    elems = all_permutations(n)
    index = {p.images: k for k, p in enumerate(elems)}
    rows = []
    for a in elems:
        for b in elems:
            y = (
                GroupAlgebraElement.of_permutation(a, f)
                * x
                * GroupAlgebraElement.of_permutation(b, f)
            )
            rows.append({index[p.images]: c for p, c in y.terms.items()})
    return rank(Matrix.from_dicts(f, rows, len(elems)))


def induced_sign_rep(p: int, field: Field) -> SnRep:
    """Ind_{S_{p-1}}^{S_p}(sgn_{p-1})."""
    return induce_young(
        external_tensor(basic_rep("sign", p - 1, field), basic_rep("trivial", 1, field))
    )


def verify_good_ideal(gi: GoodIdeal) -> dict:
    """Check the good-ideal axioms over the field; k-flatness is automatic."""
    p, g, f = gi.p, gi.g, gi.field
    checks = {}
    if p == 2:
        checks["idempotency_identity"] = (g * g) == g.scale(2)
    else:
        checks["idempotency_identity"] = (g * g) == g
    checks["annihilates_sign"] = act(g, basic_rep("sign", p, f)).is_zero()
    checks["nonzero_on_induced_sign"] = not act(g, induced_sign_rep(p, f)).is_zero()
    if p == 3:
        # k[S_3]/I has dimension 2, i.e. the ideal has dimension 4
        checks["quotient_dimension_2"] = two_sided_ideal_dimension(g) == 4
    checks["k_flat"] = True  # automatic over a field
    report = dict(checks)
    report["p"] = p
    report["field"] = repr(f)
    report["all_pass"] = all(v for k, v in checks.items())
    return report


def block_embed(gi: GoodIdeal, r: int, n: int) -> GroupAlgebraElement:
    """g^{boxtimes r} in k[S_n], blockwise on {1..p}, {p+1..2p}, ...

    Returns the zero element when pr > n (the ideal I_n(r) is zero there)
    and the identity when r = 0.
    """
    if r < 0:
        raise GoodIdealError("negative block count")
    if gi.p * r > n:
        return GroupAlgebraElement.zero(n, gi.field)
    out = GroupAlgebraElement.one(n, gi.field)
    for j in range(r):
        out = out * gi.g.embed(n, offset=j * gi.p)
    return out


def nu(rep: SnRep, gi: GoodIdeal) -> NuValue:
    """n - r* where r* is the largest r with I_n(r) not annihilating the rep.

    The zero representation gets +inf (so the short-exact-sequence min rule
    holds without special cases).
    """
    if rep.field != gi.field:
        raise FieldError("representation and good ideal over different fields")
    n = rep.n
    if rep.is_zero():
        return NuValue(INF, n)
    r_star = 0
    for r in range(1, n // gi.p + 1):
        if not act(block_embed(gi, r, n), rep).is_zero():
            r_star = r
    return NuValue(n - r_star, n, r_star)


def ideal_annihilates_bruteforce(gi: GoodIdeal, r: int, rep: SnRep) -> bool:
    """Direct sweep over the two-sided ideal I_n(r): checks sigma * g^{boxtimes r} * rho
    for every pair of permutations.  Exponential; test oracle for n <= 4."""
    n = rep.n
    core = act(block_embed(gi, r, n), rep)
    mats = [rep.perm_matrix(p) for p in all_permutations(n)]
    left = [m * core for m in mats]
    return all((lm * m).is_zero() for lm in left for m in mats)


def nu_bruteforce(rep: SnRep, gi: GoodIdeal) -> NuValue:
    n = rep.n
    if rep.is_zero():
        return NuValue(INF, n)
    r_star = 0
    for r in range(1, n // gi.p + 1):
        if not ideal_annihilates_bruteforce(gi, r, rep):
            r_star = r
    return NuValue(n - r_star, n, r_star)
