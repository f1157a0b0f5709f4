"""Exact scalar arithmetic: rationals and prime fields.

Every computation in this package runs over one of these two field types;
there is no floating point anywhere.  A rational scalar is an `int` when it is
integral and a `fractions.Fraction` otherwise: the matrices of these documents
are almost all 0 and +-1, and int arithmetic costs far less.  Sums, products
and comparisons mix the two exactly, and `format` writes both alike; only
division must go through `Fraction` (`1 / a` on ints is a float), and a
Fraction whose denominator is 1 may still arise from one.  Prime-field
scalars are plain ints reduced to [0, p).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    pass


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every p below MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < MR_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """`x` as a rational scalar: an int when integral, else a Fraction."""
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


# Documents repeat a few rational strings ("0", "1", "-1", ...) many times,
# and Fraction(str) runs a regex; results are immutable, so sharing is safe.
_parse_rational = lru_cache(maxsize=1024)(_rational)


class Rationals:
    """The field of rational numbers with arbitrary-precision integers."""

    name = "Q"
    modulus = None      # p over F_p; selects inline arithmetic in linalg/io

    def __call__(self, x):
        if isinstance(x, (int, Fraction, str)):
            return _rational(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, a)

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def parse(self, s):
        if isinstance(s, (int, str)):
            try:
                return _parse_rational(s)
            except (ValueError, ZeroDivisionError):
                pass
        raise FieldError(f"bad rational scalar {s!r}")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Integers mod p for a prime p; elements are canonical ints in [0, p)."""

    def __init__(self, p: int):
        if p >= MR_BOUND:
            raise FieldError(f"{p} is too large: F_p needs a prime p below "
                             f"{MR_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = self.modulus = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def __call__(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return int(x) % self.p
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator % self.p
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, s):
        if isinstance(s, (int, str)):
            try:
                return int(s) % self.p
            except ValueError:
                pass
        raise FieldError(f"bad F_{self.p} scalar {s!r}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()


def field_from_config(cfg):
    """Build a field from the JSON-level config: "Q" or {"Fp": p}."""
    if cfg == "Q":
        return QQ
    if isinstance(cfg, dict) and set(cfg) == {"Fp"}:
        return PrimeField(parse_prime(cfg["Fp"]))
    raise FieldError(f"bad field config {cfg!r}")


def parse_prime(p) -> int:
    """The p of F_p, given as a JSON integer or a string of decimal digits."""
    if type(p) is int:
        return p
    if isinstance(p, str) and p.isascii() and p.isdecimal():
        try:
            return int(p)
        except ValueError:      # more digits than int() converts
            pass
    raise FieldError(f"bad prime {p!r}: expected an integer")


def field_to_config(field):
    if isinstance(field, Rationals):
        return "Q"
    return {"Fp": field.p}
