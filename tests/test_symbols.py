"""Symbol expressions: normalization, products, and the rewrite identities.

Class equalities go through canonical_class, which is pinned elsewhere
against the tame-symbol oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkt.canonical import canonical_class
from mkt.errors import (BadModulus, DegenerateDifferences, DegenerateInput,
                        DescriptorMismatch, ZeroEntry)
from mkt.fields import prime_field, rationals
from mkt.numutil import PROVEN_PRIME_BOUND, factor_int
from mkt.symbols import (MilnorExpression, cyclic_difference_identity, symbol,
                         symbol_shift_identity, zero_expression)
from tests.conftest import make_field

Qf = rationals()


def qsym(*vals):
    return symbol([Qf.element(Fraction(v)) for v in vals])


nonzero_rationals = st.fractions(max_denominator=30).filter(lambda f: f != 0)


class TestExpressionAlgebra:
    def test_distinct_terms_stay_separate(self):
        # [TRIVIAL] {2} + {3} has two terms
        x = qsym(2) + qsym(3)
        assert x.term_count() == 2

    def test_equal_terms_merge(self):
        # [TRIVIAL] {2} + {2} = 2{2}
        x = qsym(2) + qsym(2)
        assert list(x.items()) == [((Qf.element(2),), 2)]

    def test_negated_order_two_element(self):
        """[TRIVIAL] -{-1} and {-1} agree in K_1(Q): (-1)^(-1) = -1."""
        a = canonical_class(-qsym(-1))
        b = canonical_class(qsym(-1))
        assert a == b

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntry):
            qsym(0, 3)

    def test_zero_expression(self):
        z = zero_expression(Qf, 2)
        assert z.is_zero() and z.weight == 2

    def test_public_constructor_still_checks_entries(self):
        """Arithmetic builds its results unchecked; the constructor does not."""
        two = Qf.element(2)
        with pytest.raises(ZeroEntry):
            MilnorExpression(Qf, 2, {(two, Qf.zero()): 1})
        with pytest.raises(ZeroEntry):
            MilnorExpression(Qf, 1, {(0,): 1})
        with pytest.raises(DescriptorMismatch):
            MilnorExpression(Qf, 1, {(prime_field(5).element(2),): 1})
        with pytest.raises(DescriptorMismatch):
            MilnorExpression(prime_field(5), 2, {(prime_field(5).element(2), two): 1})

    def test_arithmetic_matches_the_checked_constructor(self):
        x = qsym(2, 3) + 2 * qsym(5, -1)
        y = qsym(2, 3) - qsym(7, 7)
        for got, terms, weight in (
                (x + y, {(2, 3): 2, (5, -1): 2, (7, 7): -1}, 2),
                (x - y, {(5, -1): 2, (7, 7): 1}, 2),
                (-x, {(2, 3): -1, (5, -1): -2}, 2),
                (x * 0, {}, 2),
                (x * -3, {(2, 3): -3, (5, -1): -6}, 2),
                (x * qsym(11), {(2, 3, 11): 1, (5, -1, 11): 2}, 3)):
            want = MilnorExpression(Qf, weight, {tuple(Qf.element(v) for v in k): c
                                                 for k, c in terms.items()})
            assert got == want and got.items() == want.items()
        assert (x - x).is_zero() and not (x - x)._terms


class TestProduct:
    def test_concatenation(self):
        # [PAPER] {2} . {3} = {2,3}
        assert qsym(2) * qsym(3) == qsym(2, 3)

    def test_bilinear(self):
        # [TRIVIAL] (2{a}) . {b} = 2{a,b}
        x = 2 * qsym(5)
        assert x * qsym(7) == 2 * qsym(5, 7)

    def test_integer_scaling(self):
        # [TRIVIAL] weight-0 integers act by scaling
        assert 3 * qsym(2, 5) == qsym(2, 5) + qsym(2, 5) + qsym(2, 5)

    def test_associative_distributive(self, rng):
        for _ in range(20):
            a, b, c = (qsym(rng.choice([2, 3, 5, -1, 7])) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestMultilinearExpansion:
    """Multilinearity holds in the class group, not in the syntax."""

    def test_square_pulls_out(self):
        # [TRIVIAL] {4, c} = 2{2, c}
        assert qsym(4, 7) != 2 * qsym(2, 7)
        assert canonical_class(qsym(4, 7)) == canonical_class(2 * qsym(2, 7))

    def test_product_entry_splits(self):
        # [PAPER] {ab, c} = {a,c} + {b,c}
        assert canonical_class(qsym(6, 7)) == canonical_class(qsym(2, 7) + qsym(3, 7))

    def test_unit_entry_vanishes(self):
        # [PAPER] {1, c} = 0
        assert canonical_class(qsym(1, 7)).is_zero()

    def test_class_preserved(self, rng):
        # {a1 a2, b1 b2} is the sum of the four {ai, bj}
        pick = [2, 3, 4, 6, -5, 9]
        for _ in range(20):
            a1 = Fraction(rng.choice(pick), rng.choice([1, 5, 7]))
            a2, b1, b2 = (Fraction(rng.choice(pick)) for _ in range(3))
            expanded = sum((qsym(a, b) for a in (a1, a2) for b in (b1, b2)),
                           zero_expression(Qf, 2))
            assert canonical_class(qsym(a1 * a2, b1 * b2)) == canonical_class(expanded)


class TestCyclicDifferenceIdentity:
    def test_weight_one_base_case(self):
        """[PAPER] points (0,1) over Q: -{1} + {-1} vs {-1}."""
        lhs, rhs = cyclic_difference_identity([Qf.element(0), Qf.element(1)])
        assert canonical_class(lhs) == canonical_class(rhs)
        assert canonical_class(rhs) == canonical_class(qsym(-1))

    def test_weight_two_rational(self):
        # [DERIVED] classes agree; rhs is the class of {-1,-1}
        lhs, rhs = cyclic_difference_identity(
            [Qf.element(0), Qf.element(1), Qf.element(3)])
        assert canonical_class(lhs) == canonical_class(rhs)
        assert canonical_class(rhs) == canonical_class(qsym(-1, -1))

    def test_weight_two_finite_field(self):
        # [TRIVIAL] K_2 of a finite field vanishes
        F5 = prime_field(5)
        lhs, rhs = cyclic_difference_identity(
            [F5.from_int(0), F5.from_int(1), F5.from_int(3)])
        assert canonical_class(lhs).is_zero()
        assert canonical_class(rhs).is_zero()

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDifferences):
            cyclic_difference_identity([Qf.element(0), Qf.element(0)])


class TestShiftIdentity:
    def test_sum_variant(self):
        """[DERIVED] {1,2} = {-1/2, 3}: both classes computed independently."""
        lhs, rhs = symbol_shift_identity(Qf.element(1), Qf.element(2),
                                         variant="sum")
        assert canonical_class(lhs) == canonical_class(rhs)

    def test_sum_variant_degenerate_entries(self):
        # [DERIVED] (c,d) = (1,1): {1,1} = 0 and {-1,2} is also the zero class
        lhs, rhs = symbol_shift_identity(Qf.element(1), Qf.element(1),
                                         variant="sum")
        assert canonical_class(lhs).is_zero()
        assert canonical_class(rhs).is_zero()

    def test_difference_variant(self):
        lhs, rhs = symbol_shift_identity(Qf.element(2), Qf.element(5),
                                         variant="difference")
        assert canonical_class(lhs) == canonical_class(rhs)

    def test_finite_field_both_zero(self, rng):
        # [TRIVIAL] everything in K_2(F_7) is zero
        F7 = prime_field(7)
        for _ in range(10):
            c = F7.from_int(rng.randint(1, 6))
            d = F7.from_int(rng.randint(1, 6))
            if (c + d).is_zero():
                continue
            lhs, rhs = symbol_shift_identity(c, d, variant="sum")
            assert canonical_class(lhs).is_zero()
            assert canonical_class(rhs).is_zero()

    def test_degenerate_sum_rejected(self):
        with pytest.raises(DegenerateInput):
            symbol_shift_identity(Qf.element(2), Qf.element(-2), variant="sum")


def assert_zero_class(x, *entries):
    """canonical_class(x) is zero, or, when a numerator or denominator of the
    rational entries has a prime factor at or above PROVEN_PRIME_BOUND,
    support refuses x with BadModulus. Hypothesis draws near that constant,
    which it finds in numutil's source."""
    if any(p >= PROVEN_PRIME_BOUND for e in entries
           for n in (e.numerator, e.denominator) for p in factor_int(abs(n))):
        with pytest.raises(BadModulus):
            canonical_class(x)
    else:
        assert canonical_class(x).is_zero()


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals.filter(lambda f: f != 1))
# 1 - a is psi_13, composite although is_prime passes it
@example(Fraction(1 - PROVEN_PRIME_BOUND))
def test_steinberg_vanishes(a):
    assert_zero_class(symbol([Qf.element(a), Qf.element(1 - a)]), a, 1 - a)


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals)
def test_self_negative_vanishes(a):
    assert_zero_class(symbol([Qf.element(a), Qf.element(-a)]), a)


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_skew_symmetry(a, b):
    x = symbol([Qf.element(a), Qf.element(b)])
    y = symbol([Qf.element(b), Qf.element(a)])
    assert_zero_class(x + y, a, b)


def test_steinberg_all_small_finite_fields():
    for q in (2, 3, 4, 5, 7, 9):
        F = make_field(q)
        one = F.one()
        for a in [u for u in _units(F) if u != one]:
            x = symbol([a, one - a])
            assert canonical_class(x).is_zero()


def _units(F):
    from tests.conftest import all_units
    return all_units(F)
