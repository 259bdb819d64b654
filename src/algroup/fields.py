"""Exact coefficient arithmetic for the two supported fields.

Values are canonical.  A rational value is an int when it is integral
and a `fractions.Fraction` in lowest terms otherwise; a prime-field
value is an int in [0, p).  0 and 1 are canonical in both fields.
There is one way to compute with values: Python's operators on
canonical values, then the field's `canonical` on the result.  Division
goes through `inv`, or `from_ratio` over Q.  Polynomials record their
field, so values of different fields never mix.
"""

from __future__ import annotations

# Witnesses making Miller-Rabin deterministic for all p < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME = 2**63


def is_prime(p: int) -> bool:
    """Deterministic primality test, valid for p < 2**64."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _canonical(v):
    """A rational value in canonical form: an int when its denominator
    is 1, the fraction itself otherwise."""
    if type(v) is int or v.denominator != 1:
        return v
    return int(v)


class RationalField:
    """The rationals; integral values are ints, the others exact
    fractions in lowest terms."""

    name = "Q"
    characteristic = 0
    canonical = staticmethod(_canonical)

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def from_ratio(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        from fractions import Fraction
        return _canonical(Fraction(num, den))

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        from fractions import Fraction
        return _canonical(Fraction(1) / a)


class PrimeField:
    """The field F_p for a word-sized prime p; values are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"field modulus must be an integer >= 2, got {p!r}")
        if p >= MAX_PRIME:
            raise ValueError(f"field modulus {p} does not fit in a machine word")
        if not is_prime(p):
            raise ValueError(f"field modulus {p} is not prime")
        self.p = p

    @property
    def name(self) -> str:
        return f"F {self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"F_{self.p}"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def canonical(self, v) -> int:
        return v % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


QQ = RationalField()

Field = RationalField | PrimeField


def __getattr__(name: str):
    # `rational`, the type of a non-integral value over Q: `fractions`
    # loads when it is first read, or with the first such value.
    if name == "rational":
        from fractions import Fraction
        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
