import random
from fractions import Fraction

import pytest

from algroup import PrimeField, QQ, is_prime


def test_rational_arithmetic():
    half = QQ.from_ratio(1, 2)
    third = QQ.from_ratio(1, 3)
    assert QQ.canonical(half + third) == QQ.from_ratio(5, 6)
    assert QQ.from_ratio(-2, 4) == QQ.from_ratio(-1, 2)
    assert QQ.inv(QQ.from_ratio(-3, 7)) == QQ.from_ratio(-7, 3)
    assert QQ.canonical(half - half) == 0
    assert QQ.canonical(QQ.canonical(6) * QQ.from_ratio(1, 6)) == 1


def test_integral_rationals_are_ints():
    # Every result with denominator 1 is an int, whatever the operands,
    # and str() of any result is str() of the same value as a Fraction.
    # Results are operators on canonical values, then `canonical`;
    # division and negative powers go through `inv`.
    rng = random.Random(8)
    pool = [QQ.from_ratio(rng.randint(-12, 12), rng.randint(1, 6))
            for _ in range(40)] + [QQ.canonical(k) for k in range(-3, 4)]
    c = QQ.canonical

    def power(a, _):
        e = rng.randint(-3, 3)
        return c(a ** e) if e >= 0 else c(QQ.inv(a) ** -e)

    ops = {
        "add": lambda a, b: c(a + b),
        "sub": lambda a, b: c(a - b),
        "mul": lambda a, b: c(a * b),
        "div": lambda a, b: c(a * QQ.inv(b)) if b else None,
        "neg": lambda a, b: c(-a),
        "inv": lambda a, b: QQ.inv(a) if a else None,
        "pow": lambda a, b: power(a, b) if a else None,
    }
    integral = 0
    for _ in range(3000):
        name = rng.choice(sorted(ops))
        a, b = rng.choice(pool), rng.choice(pool)
        v = ops[name](a, b)
        if v is None:
            continue
        assert not isinstance(v, float)
        if Fraction(str(v)).denominator == 1:
            assert type(v) is int, (name, a, b, v)
            integral += 1
        assert str(v) == str(Fraction(str(v)))
    assert integral > 300
    assert type(QQ.from_ratio(6, 3)) is int
    assert type(QQ.canonical(Fraction(4, 2))) is int


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.canonical(3 * 4) == 2
    assert f5.inv(2) == 3
    assert f5.canonical(4 + 4) == 3
    assert f5.canonical(-1) == 4
    f7 = PrimeField(7)
    assert f7.inv(1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.from_ratio(1, 0)


def test_modulus_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**63)  # word-size limit, checked before primality
    PrimeField(2**61 - 1)  # large Mersenne prime is fine


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for k in range(2, 50):
        assert is_prime(k) == (k in primes)
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_field_axioms_random():
    rng = random.Random(7)
    fields = [QQ, PrimeField(5), PrimeField(2), PrimeField(97)]
    for field in fields:
        def rand():
            if field is QQ:
                return QQ.from_ratio(rng.randint(-20, 20), rng.randint(1, 9))
            return field.canonical(rng.randint(0, 200))
        k = field.canonical
        for _ in range(50):
            a, b, c = rand(), rand(), rand()
            assert k(a + b) == k(b + a)
            assert k(a * b) == k(b * a)
            assert k(k(a + b) + c) == k(a + k(b + c))
            assert k(k(a * b) * c) == k(a * k(b * c))
            assert k(a * k(b + c)) == k(k(a * b) + k(a * c))
            assert k(a + k(-a)) == 0
            if a != 0:
                assert k(a * field.inv(a)) == 1


def test_fermat_little_theorem():
    rng = random.Random(11)
    for p in (2, 3, 5, 31, 97):
        field = PrimeField(p)
        for _ in range(30):
            a = field.canonical(rng.randint(0, 10 * p))
            assert field.canonical(a ** p) == a


def test_field_equality():
    assert QQ == QQ.__class__()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
