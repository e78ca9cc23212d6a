"""Field arithmetic: inverses, normalization, serialization, axioms."""

import random
from fractions import Fraction

import pytest

from brlab.errors import BadPrime, DivisionByZero, FormatError
from brlab.scalars import (
    DEFAULT_CERTIFICATION_PRIMES,
    PRIME_MODULUS_CAP,
    FieldTag,
    certification_primes,
    format_rational,
    is_prime,
    normalize,
    parse_rational,
)


def test_field_inverse_zero_raises():
    with pytest.raises(DivisionByZero):
        FieldTag.prime_field(5).inv(0)
    with pytest.raises(DivisionByZero):
        FieldTag.rationals().inv(Fraction(0))


def test_normalize_examples():
    assert normalize(2, -4) == Fraction(-1, 2)
    q = normalize(0, 7)
    assert q.numerator == 0 and q.denominator == 1
    q = normalize(6, 3)
    assert q.numerator == 2 and q.denominator == 1
    with pytest.raises(DivisionByZero):
        normalize(1, 0)


def test_rational_serialization():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(0)) == "0"
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
    with pytest.raises(BadPrime):
        FieldTag.from_string("R")
    with pytest.raises(BadPrime):
        FieldTag.prime_field(4)
    with pytest.raises(BadPrime):
        FieldTag.prime_field(PRIME_MODULUS_CAP + 1)


@pytest.mark.parametrize("tag", [FieldTag.rationals(), FieldTag.prime_field(97),
                                 FieldTag.prime_field(DEFAULT_CERTIFICATION_PRIMES[0])])
def test_field_axioms_randomized(tag):
    rng = random.Random(90125)
    for _ in range(200):
        if tag.is_q:
            x, y, z = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        else:
            x, y, z = (rng.randrange(tag.p) for _ in range(3))
        assert tag.add(tag.add(x, y), z) == tag.add(x, tag.add(y, z))
        assert tag.mul(tag.mul(x, y), z) == tag.mul(x, tag.mul(y, z))
        assert tag.mul(x, tag.add(y, z)) == tag.add(tag.mul(x, y), tag.mul(x, z))
        assert tag.add(x, tag.neg(x)) == tag.zero()
        assert tag.mul(x, tag.one()) == x
        if x != tag.zero():
            assert tag.mul(x, tag.inv(x)) == tag.one()


def test_reduction_is_ring_homomorphism():
    rng = random.Random(5077)
    for p in (2, 97, DEFAULT_CERTIFICATION_PRIMES[1]):
        tag = FieldTag.prime_field(p)
        for _ in range(100):
            a = rng.randint(-10**12, 10**12)
            b = rng.randint(-10**12, 10**12)
            assert tag.from_int(a + b) == tag.add(tag.from_int(a), tag.from_int(b))
            assert tag.from_int(a * b) == tag.mul(tag.from_int(a), tag.from_int(b))


def test_from_fraction_mod_p():
    tag = FieldTag.prime_field(7)
    assert tag.from_fraction(Fraction(3, 4)) == 3 * pow(4, -1, 7) % 7
    with pytest.raises(BadPrime):
        tag.from_fraction(Fraction(1, 7))


def test_default_primes_are_prime_and_capped():
    assert len(DEFAULT_CERTIFICATION_PRIMES) == 3
    for p in DEFAULT_CERTIFICATION_PRIMES:
        assert is_prime(p)
        assert p < PRIME_MODULUS_CAP
        assert p > 1 << 60


def test_certification_primes_env_override(monkeypatch):
    monkeypatch.delenv("BRLAB_PRIMES", raising=False)
    assert certification_primes() == DEFAULT_CERTIFICATION_PRIMES
    monkeypatch.setenv("BRLAB_PRIMES", "5,7,11")
    assert certification_primes() == (5, 7, 11)
    monkeypatch.setenv("BRLAB_PRIMES", "6")
    with pytest.raises(BadPrime):
        certification_primes()
    monkeypatch.setenv("BRLAB_PRIMES", "")
    with pytest.raises(BadPrime):
        certification_primes()


def test_is_prime_small_values():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(60):
        assert is_prime(n) == (n in primes_below_60)
    assert is_prime(65521)
    assert not is_prime(65521 * 65537)
