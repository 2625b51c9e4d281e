"""Canonical invariants: the decidable per-field normal forms.

The weight-2 rational class (sign at the real place plus odd tame residues)
is cross-checked against an independent tame-symbol oracle computed from
valuations directly, not through the canonical_class code path.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkt.canonical import canonical_class
from mkt.errors import UnsupportedField
from mkt.fields import function_field, prime_field, rationals
from mkt.sampling import random_symbol
from mkt.symbols import MilnorExpression, symbol
from tests.conftest import make_field

Qf = rationals()


def qsym(*vals):
    return symbol([Qf.element(Fraction(v)) for v in vals])


def tame_residue_oracle(a: Fraction, b: Fraction, p: int) -> int:
    """(-1)^(v(a)v(b)) a^v(b) / b^v(a) mod p, reduced independently of the library."""
    def val(x):
        v = 0
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v
    va, vb = val(a), val(b)
    sign = -1 if (va * vb) % 2 else 1
    t = sign * a ** vb / b ** va
    num, den = t.numerator % p, t.denominator % p
    return (num * pow(den, p - 2, p)) % p


class TestWeightOne:
    def test_unit_product(self):
        cls = canonical_class(qsym(6) + qsym(Fraction(1, 2)))
        assert cls.unit == Qf.element(3)

    def test_weight_zero_integer(self):
        cls = canonical_class(MilnorExpression(Qf, 0, {(): 5}))
        assert cls.n == 5


class TestRationalWeightTwo:
    def test_minus_one_pair(self):
        # [PAPER] {-1,-1} detects the sign factor: eps = -1, no tame part
        cls = canonical_class(qsym(-1, -1))
        assert cls.eps == -1 and cls.tame == {}
        assert not cls.is_zero()

    def test_three_five(self):
        """[DERIVED] {3,5} against the independent tame oracle at 3 and 5."""
        cls = canonical_class(qsym(3, 5))
        assert cls.eps == 1
        assert cls.tame == {3: tame_residue_oracle(Fraction(3), Fraction(5), 3),
                            5: tame_residue_oracle(Fraction(3), Fraction(5), 5)}
        assert cls.tame == {3: 2, 5: 3}

    def test_steinberg_zero(self):
        # [TRIVIAL] {3, -2} has 1-a form: a=3, 1-a=-2
        assert canonical_class(qsym(3, -2)).is_zero()

    def test_two_minus_one(self):
        # [DERIVED] {2,-1}: no odd tame component, eps=+1, hence zero
        assert canonical_class(qsym(2, -1)).is_zero()

    def test_random_pairs_match_oracle(self, rng):
        for _ in range(50):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60),
                         rng.randint(1, 60))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60),
                         rng.randint(1, 60))
            cls = canonical_class(symbol([Qf.element(a), Qf.element(b)]))
            assert cls.eps == (-1 if a < 0 and b < 0 else 1)
            for p in (3, 5, 7, 11, 13):
                expect = tame_residue_oracle(a, b, p)
                assert cls.tame.get(p, 1) == expect


class TestOtherFields:
    def test_finite_field_weight_two_zero(self, rng):
        for q in (3, 5, 9):
            F = make_field(q)
            x = random_symbol(F, rng, 2, terms=2)
            assert canonical_class(x).is_zero()

    def test_rational_weight_three_sign_only(self):
        cls = canonical_class(qsym(-2, -3, -5))
        assert cls.eps == -1
        assert canonical_class(qsym(-2, -3, 5)).is_zero()

    def test_real_mode_weight_two(self):
        got = canonical_class(qsym(-2, -3), real=True)
        assert got.eps == -1
        # the tame data is deliberately absent in real mode
        assert got.tame == {}

    def test_function_field_unsupported(self):
        ff = function_field(prime_field(3))
        x = symbol([ff.gen(), ff.gen() + ff.one()], field=ff)
        with pytest.raises(UnsupportedField):
            canonical_class(x)


# (q, weight, real) reaching every kind: INTEGER, UNIT over Q and F_9, ZERO,
# RATIONAL_PAIR, RATIONAL_SIGN and REAL_SIGN
GROUP_LAW_CASES = [(0, 0, False), (0, 1, False), (9, 1, False), (9, 2, False),
                   (0, 2, False), (0, 3, False), (0, 2, True)]


def test_additive_on_random_pairs(rng):
    """The group law on every kind, 40 seeded pairs each: class(x + y) =
    class(x) + class(y), class(-x) = -class(x), c - c = 0, equal classes hash
    equal."""
    for q, w, real in GROUP_LAW_CASES:
        F = make_field(q)
        for _ in range(40):
            x = random_symbol(F, rng, w, terms=rng.randint(1, 2))
            y = random_symbol(F, rng, w, terms=rng.randint(1, 2))
            cx, cy = canonical_class(x, real), canonical_class(y, real)
            total = canonical_class(x + y, real)
            assert total == cx + cy
            assert hash(total) == hash(cx + cy)
            assert canonical_class(-x, real) == -cx
            assert (cx - cx).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40).filter(lambda n: n != 0),
       st.integers(-40, 40).filter(lambda n: n != 0))
def test_class_equality_is_symmetric_negation(a, b):
    x = symbol([Qf.element(a), Qf.element(b)])
    y = symbol([Qf.element(b), Qf.element(a)])
    assert canonical_class(x) == -canonical_class(y)


def test_class_payloads_differ_for_distinct_residues():
    c1 = canonical_class(qsym(3, 5))
    c2 = canonical_class(qsym(3, 7))
    assert c1 != c2
    assert c1 == canonical_class(qsym(3, 5))
