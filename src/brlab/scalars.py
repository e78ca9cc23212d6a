"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields F_p.

A rational value is stored as a plain `int` when it is an integer and as a
`fractions.Fraction` (canonical: positive denominator, fully reduced) only
when it is not, so integer data, which is all that flattenings of integer
tensors carry, stays on Python's fast int arithmetic.  `FieldTag.coerce`
produces that form; an int and the equal `Fraction` compare and hash alike.
Prime-field values are plain ints in [0, p) with the modulus carried by a
`FieldTag` context.  Literals in files take one form only, in ASCII
decimal digits: a rational is an optional sign, digits, and an optional
"/digits" denominator; an F_p value is an optional sign and digits; a
modulus ("Fp:<p>"), a matrix shape and a matrix index are digits alone.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import BadPrime, DivisionByZero, FormatError

# Bound on a user-given modulus ("Fp:<p>", --field fp:P), well inside the
# range where is_prime is exact.
PRIME_MODULUS_CAP = 1 << 62

# Fixed certification primes: the three largest primes below 2^30.  CPython
# ints have 30-bit digits, so each residue is one digit and elimination mod
# these primes runs on the small-int fast paths.  --field multiprime ranks
# mod all three, --field fp mod the first, which is also the prime
# rank_exact_q settles blocks with.
DEFAULT_CERTIFICATION_PRIMES = (1073741789, 1073741783, 1073741741)

# Witnesses making Miller-Rabin deterministic for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+")
_NATURAL_LITERAL = re.compile(r"[0-9]+")


def parse_rational(s: str) -> Fraction:
    """Parse "[sign]digits[/digits]"; nothing else (no decimal point, no
    exponent, no underscore, no whitespace) is a rational literal."""
    if _RATIONAL_LITERAL.fullmatch(s) is None:
        raise FormatError(f"bad rational literal {s!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError as exc:
        raise DivisionByZero(f"zero denominator in {s!r}") from exc
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"bad rational literal {s!r}") from exc


def parse_natural(s: str) -> int:
    """Parse a modulus or an integer CLI flag: ASCII decimal digits and
    nothing else (no sign, no underscore, no whitespace).

    Whether a modulus is a usable prime is checked where the field is built.
    """
    if _NATURAL_LITERAL.fullmatch(s) is None:
        raise FormatError(f"bad natural number {s!r}")
    try:
        return int(s)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"bad natural number {s!r}") from exc


class FieldTag(namedtuple("FieldTag", "kind p")):
    """Field of computation: the rationals ("Q") or F_p for a checked prime.

    Values stay unwrapped (int or non-integral Fraction for Q, int in [0, p)
    for F_p); the tag brings values into that form and reads and writes them
    as text.  Arithmetic on them is plain Python followed by `coerce`.

    A tag is a named tuple, checked when it is built; `_replace` skips that
    check.
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: int | None = None) -> "FieldTag":
        if kind == "Q":
            if p is not None:
                raise BadPrime("the rationals carry no modulus")
        elif kind == "Fp":
            if p is None or not (2 <= p < PRIME_MODULUS_CAP):
                raise BadPrime(f"modulus {p} outside [2, 2^62)")
            if not is_prime(p):
                raise BadPrime(f"modulus {p} is not prime")
        else:
            raise BadPrime(f"unknown field kind {kind!r}")
        return super().__new__(cls, kind, p)

    @staticmethod
    def rationals() -> "FieldTag":
        return FieldTag("Q")

    @staticmethod
    def prime_field(p: int) -> "FieldTag":
        return FieldTag("Fp", p)

    @staticmethod
    def from_string(s: str) -> "FieldTag":
        """Parse "Q" or "Fp:<digits>"; anything else is a FormatError."""
        if s == "Q":
            return FieldTag.rationals()
        if s.startswith("Fp:"):
            return FieldTag.prime_field(parse_natural(s[3:]))
        raise FormatError(f"bad field string {s!r}")

    def __str__(self) -> str:
        return "Q" if self.kind == "Q" else f"Fp:{self.p}"

    @property
    def is_q(self) -> bool:
        return self.kind == "Q"

    def coerce(self, v):
        """Bring an int or Fraction into this field's raw representation.

        Over Q that is an int for integral values and a Fraction otherwise;
        an int, and a Fraction that is not an integer, come back as they are
        (a Fraction is always in lowest terms).
        """
        if self.kind == "Q":
            t = type(v)
            if t is int or (t is Fraction and v.denominator != 1):
                return v
            if isinstance(v, int):
                return int(v)
            q = Fraction(v)
            return q.numerator if q.denominator == 1 else q
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise BadPrime(f"denominator {v.denominator} vanishes mod {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        return v % self.p

    # -- element serialization ("num/den" over Q, decimal over F_p) ----

    def serialize(self, x) -> str:
        return str(x) if self.is_q else str(x % self.p)

    def parse(self, s: str):
        """Read "[sign]digits" over F_p, a rational literal over Q."""
        if self.is_q:
            return parse_rational(s)
        if _INTEGER_LITERAL.fullmatch(s) is None:
            raise FormatError(f"bad F_{self.p} literal {s!r}")
        try:
            return int(s) % self.p
        except ValueError as exc:  # more digits than int() converts
            raise FormatError(f"bad F_{self.p} literal {s!r}") from exc
