"""Scalars: reduction mod p, literals, field strings, certification primes."""

import random
from fractions import Fraction

import pytest

from brlab.errors import BadPrime, DivisionByZero, FormatError
from brlab.rank_engine import SparseMatrix
from brlab.scalars import (
    DEFAULT_CERTIFICATION_PRIMES,
    PRIME_MODULUS_CAP,
    FieldTag,
    is_prime,
    parse_natural,
    parse_rational,
)


def test_rational_serialization():
    q = FieldTag.rationals()
    assert q.serialize(Fraction(3, 4)) == "3/4"
    assert q.serialize(Fraction(-1, 2)) == "-1/2"
    assert q.serialize(Fraction(7)) == "7"
    assert q.serialize(Fraction(0)) == "0"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    with pytest.raises(DivisionByZero):
        parse_rational("1/0")
    with pytest.raises(FormatError):
        parse_rational("x")


def test_parse_rational_accepts_only_sign_digits_slash():
    assert parse_rational("+3") == 3
    assert parse_rational("-0") == 0
    assert parse_rational("007/14") == Fraction(1, 2)
    for bad in ["1.5", "1e3", "1_000", " 1", "1 ", "1/", "/2", "1/-2", "+-1", "0x10",
                "inf", "\u0663"]:
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_field_tag_strings():
    assert str(FieldTag.rationals()) == "Q"
    assert str(FieldTag.prime_field(5)) == "Fp:5"
    assert FieldTag.from_string("Q") == FieldTag.rationals()
    assert FieldTag.from_string("Fp:13") == FieldTag.prime_field(13)
    assert FieldTag.from_string("Fp:007") == FieldTag.prime_field(7)
    assert parse_natural("65521") == 65521
    for bad in ["R", "q", "Fp:", "Fp:7_0", "Fp: 7", "Fp:+7", "Fp:\u0663", "fp:7", "Fp:7.0"]:
        with pytest.raises(FormatError):
            FieldTag.from_string(bad)
    for non_prime in ["Fp:6", "Fp:0", "Fp:1", f"Fp:{PRIME_MODULUS_CAP + 1}"]:
        with pytest.raises(BadPrime):
            FieldTag.from_string(non_prime)
    with pytest.raises(BadPrime):
        FieldTag.prime_field(4)
    with pytest.raises(BadPrime):
        FieldTag.prime_field(PRIME_MODULUS_CAP + 1)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(5077)
    for p in (2, 97, DEFAULT_CERTIFICATION_PRIMES[1]):
        tag = FieldTag.prime_field(p)
        for _ in range(100):
            a = rng.randint(-10**12, 10**12)
            b = rng.randint(-10**12, 10**12)
            assert tag.coerce(a + b) == tag.coerce(tag.coerce(a) + tag.coerce(b))
            assert tag.coerce(a * b) == tag.coerce(tag.coerce(a) * tag.coerce(b))
            q, r = Fraction(a, b or 1), Fraction(b, a or 1)
            if q.denominator % p and r.denominator % p:
                assert tag.coerce(q * r) == tag.coerce(tag.coerce(q) * tag.coerce(r))
                assert tag.coerce(q + r) == tag.coerce(tag.coerce(q) + tag.coerce(r))


def test_from_fraction_mod_p():
    tag = FieldTag.prime_field(7)
    assert tag.coerce(Fraction(3, 4)) == 3 * pow(4, -1, 7) % 7
    assert tag.coerce(Fraction(-14, 2)) == 0
    with pytest.raises(BadPrime):
        tag.coerce(Fraction(1, 7))


def test_prime_field_literals_are_ascii_digits():
    tag = FieldTag.prime_field(7)
    assert tag.parse("10") == 3
    assert tag.parse("-1") == 6
    assert tag.parse("+007") == 0
    for bad in ["1_001", " 5", "5 ", "\u0663", "1/2", "1.0", "0x5", "", "+", "--1", "+-1"]:
        with pytest.raises(FormatError):
            tag.parse(bad)



def test_default_primes_are_prime_and_capped():
    assert len(set(DEFAULT_CERTIFICATION_PRIMES)) == 3
    for p in DEFAULT_CERTIFICATION_PRIMES:
        assert is_prime(p)
        assert p < 2 ** 30


def test_is_prime_small_values():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(60):
        assert is_prime(n) == (n in primes_below_60)
    assert is_prime(65521)
    assert not is_prime(65521 * 65537)


def test_coerce_over_q_returns_ints_and_fractions_as_they_are():
    q = FieldTag.rationals()
    for v, want in ((True, 1), (Fraction(4, 2), 2), (-3, -3), (Fraction(-6, 3), -2)):
        got = q.coerce(v)
        assert type(got) is int and got == want
    half = q.coerce(0.5)
    assert type(half) is Fraction and half == Fraction(1, 2)
    third = Fraction(-1, 3)
    assert q.coerce(third) is third
    big = 10 ** 40 + 1
    assert q.coerce(big) is big
    # The matrix built on coerce still rejects stored zeros and duplicates.
    for bad in ([(0, 0, Fraction(0))], [(0, 0, Fraction(0, 5))], [(0, 0, False)],
                [(0, 0, Fraction(1, 2)), (0, 0, Fraction(1, 2))],
                [(0, 1, 3), (0, 1, Fraction(6, 2))]):
        with pytest.raises(FormatError):
            SparseMatrix(2, 2, bad, q)
