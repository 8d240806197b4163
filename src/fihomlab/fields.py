"""Exact coefficient fields.

Two kinds of field are supported: the rationals and prime fields F_q.  An
element of F_q is an int normalized to ``0 <= x < q``.  An element of Q is an
``int | Fraction``: an integral value is always the int, and a ``Fraction``
always has a denominator other than 1.  Every operation here returns values
in that form, so most entries of a Q matrix are small ints, and int
arithmetic is several times cheaper than ``Fraction`` arithmetic.  In both
kinds zero is the int 0 and one is the int 1.  Equal values hash equal
(``Fraction(1) == 1``), so the form never shows in results.  All arithmetic
is exact; there is no floating point anywhere in this package.
"""
from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Invalid field construction or mixed-field arithmetic."""


# Miller-Rabin to the first 13 primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(q: int) -> bool:
    """Deterministic primality test; a q it cannot decide is a FieldError."""
    if q >= MR_EXACT_BELOW:
        raise FieldError(f"modulus {q} is too large: primality is tested "
                         f"exactly only below {MR_EXACT_BELOW}")
    if q < 2:
        return False
    for p in _MR_BASES:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract field of coefficients.

    ``q`` is the modulus for prime fields and ``None`` for the rationals;
    matrix code branches on it for fast normalization.
    """

    q: int | None = None
    characteristic: int = 0
    zero = 0
    one = 1

    def of(self, value):
        raise NotImplementedError

    def inv(self, value):
        raise NotImplementedError

    def normalize(self, value):
        raise NotImplementedError

    def div(self, a, b):
        return self.normalize(a * self.inv(b))

    def __eq__(self, other):
        return isinstance(other, Field) and self.q == other.q

    def __hash__(self):
        return hash(("Field", self.q))


class RationalField(Field):
    q = None
    characteristic = 0
    name = "Q"

    def of(self, value):
        if type(value) is int:
            return value
        return self.normalize(Fraction(value))

    def inv(self, value):
        v = Fraction(value)
        if v == 0:
            raise ZeroDivisionError("division by zero in Q")
        # 1 / v of a Fraction is a Fraction; 1 / an int would be a float
        return self.normalize(1 / v)

    def normalize(self, value):
        if type(value) is int or value.denominator != 1:
            return value
        return value.numerator

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, q: int):
        if not _is_prime(q):
            raise FieldError(f"{q} is not prime")
        self.q = q
        self.characteristic = q
        self.name = f"F{q}"

    def of(self, value):
        if isinstance(value, Fraction):
            if value.denominator % self.q == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.q}")
            return (value.numerator * self.inv(value.denominator % self.q)) % self.q
        return int(value) % self.q

    def inv(self, value):
        v = int(value) % self.q
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.q}")
        return pow(v, self.q - 2, self.q)

    def normalize(self, value):
        return value % self.q

    def __repr__(self):
        return f"GF({self.q})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(q: int) -> PrimeField:
    if q not in _gf_cache:
        _gf_cache[q] = PrimeField(q)
    return _gf_cache[q]


def field_by_name(name: str) -> Field:
    """Parse a field label: ``Q`` or ``F<q>`` (e.g. ``F5``)."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise FieldError(f"unknown field {name!r} (expected Q or Fq)")
