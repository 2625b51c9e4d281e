"""Transfers down finite extensions, pinned to the norm oracle and vanishing laws."""

from fractions import Fraction

import pytest

from mkt.canonical import ZERO, canonical_class
from mkt.commuting import MatrixTuple, class_of_tuple, composition_series
from mkt.errors import DescriptorMismatch, UnsupportedFactorization
from mkt.fields import (Polynomial, embed, extension, function_field,
                        poly_of_element, prime_field, rationals, tower_degree)
from mkt.sampling import monic_irreducible, random_symbol, random_unit
from mkt.symbols import MilnorExpression, symbol, zero_expression
from mkt.towers import multiplication_matrix, norm_element
from mkt.transfer import (base_change, reciprocity_check, transfer, transfer_ext,
                          transfer_tower)
from mkt.valuations import FINITE, finite_place, infinite_place, support, tame_symbol
from tests.conftest import NORM_PAIRS, all_units, make_field

Qf = rationals()


class TestTransferExt:
    def test_degree_one_identity(self):
        # [TRIVIAL] k_v = k
        F5 = prime_field(5)
        L = extension(F5, Polynomial.from_ints(F5, [3, 1]))  # X + 3
        x = symbol([L.gen()], field=L)
        y = transfer_ext(L, x)
        assert canonical_class(y) == canonical_class(symbol([F5.from_int(2)]))

    def test_k1_norm_f9(self):
        """[DERIVED] N(a+1) over F_9/F_3 equals the Frobenius-product norm 2."""
        F9 = make_field(9)
        x = F9.gen() + F9.one()
        y = transfer_ext(F9, symbol([x], field=F9))
        assert canonical_class(y) == canonical_class(
            symbol([norm_element(x, F9.base)]))
        assert norm_element(x, F9.base) == F9.base.from_int(2)

    def test_k2_vanishes_f9(self):
        # [PAPER] K_2 of a finite field is trivial
        F9 = make_field(9)
        a = F9.gen()
        y = transfer_ext(F9, symbol([a, a + F9.one()], field=F9))
        assert canonical_class(y).is_zero()

    def test_projection_shortcut(self, rng):
        """[PAPER] {c, beta} with c from the base transfers to {c, N(beta)}."""
        F25 = make_field(25)
        c = embed(F25.base.from_int(2), F25)
        for _ in range(10):
            beta = rng.choice(all_units(F25))
            x = symbol([c, beta], field=F25)
            y = transfer_ext(F25, x)
            expect = symbol([F25.base.from_int(2),
                             norm_element(beta, F25.base)], field=F25.base)
            assert canonical_class(y) == canonical_class(expect)

    def test_k1_norm_oracle_all_units(self):
        # [DERIVED] exhaustive on two of the six acceptance pairs
        for q in (4, 9):
            L = make_field(q)
            for x in all_units(L):
                y = transfer_ext(L, symbol([x], field=L))
                assert canonical_class(y) == canonical_class(
                    symbol([norm_element(x, L.base)]))

    def test_recursion_oracle_matches_norm(self):
        """[PAPER] Weil reciprocity on the lift {g, pi_v} gives the norm.

        For u = g(alpha) over k_v = k[X]/(pi_v), the lift y = {g, pi_v} over
        k(X) has boundary {u} at v, so N(u) is minus the transferred
        boundaries of y at every other place. Covers every unit of the six
        acceptance extensions and a few units of Q(sqrt 2).
        """
        sqrt2 = extension(Qf, Polynomial.from_ints(Qf, [-2, 0, 1]))
        cases = [(make_field(q ** d), prime_field(q), all_units(make_field(q ** d)))
                 for q, d in NORM_PAIRS]
        cases.append((sqrt2, Qf, [sqrt2.element((Qf.element(a), Qf.element(b)))
                                  for a, b in ((1, 1), (3, 2), (-1, 5), (0, 3),
                                               (7, -4), (Fraction(1, 2), 1))]))
        for L, base, units in cases:
            ff = function_field(base)
            v = finite_place(ff, L.modulus)
            for u in units:
                y = symbol([ff.element(poly_of_element(u)), ff.element(L.modulus)],
                           field=ff)
                # the boundary drops a term whose entry is one
                assert tame_symbol(v, y) == (zero_expression(L, 1) if u.is_one()
                                             else symbol([u], field=L))
                total = tame_symbol(infinite_place(ff), y)
                for w in support(y):
                    if w.kind == FINITE and w != v:
                        total = total + transfer(w, tame_symbol(w, y))
                assert canonical_class(-total) == canonical_class(
                    symbol([norm_element(u, base)], field=base))

    def test_quadratic_over_q(self):
        """[DERIVED] K_1 norm over Q(sqrt 2): N(1 + sqrt 2) = 1 - 2 = -1."""
        L = extension(Qf, Polynomial.from_ints(Qf, [-2, 0, 1]))
        x = L.one() + L.gen()
        y = transfer_ext(L, symbol([x], field=L))
        assert canonical_class(y) == canonical_class(symbol([Qf.element(-1)]))
        assert norm_element(x, Qf) == Qf.element(-1)


class TestRestrictionOfScalars:
    @pytest.mark.parametrize("modulus", [[-2, 0, 0, 1], [-1, -1, 0, 1], [1, 0, 1],
                                         [-2, 0, 1]],
                             ids=["cube_root_2", "alpha3_alpha_1", "i", "sqrt_2"])
    def test_tuple_class_equals_transfer(self, rng, modulus):
        """[PAPER] The Goodwillie transfer is restriction of scalars, and it
        agrees with the Bass-Tate transfer (the paper's main theorem).

        The 1x1 tuple (x, y) over L, viewed over Q, is the pair of
        multiplication matrices. Its reduction presents the simple factor
        through the minimal polynomial of its own operator, a generator other
        than the one of L, so the two sides meet only because the transfer
        does not depend on the generator. A term with two non-constant
        entries takes the reciprocity route. Over a quadratic L both sides
        take it for {x, y}, so the direct sum with (r, y), r rational, is
        checked against {r x, y} too: the tuple side takes {r, y} by the
        projection formula, the transfer side takes {r x, y} by reciprocity.
        """
        L = extension(Qf, Polynomial.from_ints(Qf, modulus))
        pairs = other_generator = nonzero = 0
        while pairs < 8:
            x, y = (L.element(tuple(Qf.element(rng.randint(-3, 3))
                                    for _ in range(L.modulus.degree)))
                    for _ in range(2))
            if x.is_zero() or y.is_zero():
                continue
            pairs += 1
            my = multiplication_matrix(y, Qf)
            pair = MatrixTuple(Qf, [multiplication_matrix(x, Qf), my])
            expected = canonical_class(transfer_tower(symbol([x, y], field=L), Qf))
            assert class_of_tuple(pair) == expected
            r = embed(Qf.element(rng.choice([2, 3, 5, -2])), L)
            split = MatrixTuple(Qf, [multiplication_matrix(r, Qf), my]).direct_sum(pair)
            assert class_of_tuple(split) == canonical_class(
                transfer_tower(symbol([r * x, y], field=L), Qf))
            nonzero += expected.kind != ZERO
            other_generator += any(f.extension.modulus != L.modulus
                                   for f in composition_series(pair)
                                   if f.extension != Qf)
        assert other_generator > pairs // 2
        assert nonzero > pairs // 2


class TestTowers:
    def test_height_zero_identity(self):
        F5 = prime_field(5)
        x = symbol([F5.from_int(3)], field=F5)
        assert transfer_tower(x, F5) == x

    def test_f16_tower_equals_direct_norm(self, rng):
        """[DERIVED] F_16 over F_4 over F_2 on K_1 agrees with norm_element
        straight down to F_2, on all 15 units."""
        F4 = make_field(4)
        from mkt.factor import is_irreducible
        f = None
        for cand in ([F4.gen(), F4.one(), F4.one()],
                     [F4.gen(), F4.gen(), F4.one()]):
            g = Polynomial(F4, cand)
            if is_irreducible(g):
                f = g
                break
        F16 = extension(F4, f)
        for x in all_units(F16):
            y = transfer_tower(symbol([x], field=F16), prime_field(2))
            assert canonical_class(y) == canonical_class(
                symbol([norm_element(x, prime_field(2))]))

    @pytest.mark.parametrize("q", [9, 25])
    def test_two_step_tower_matches_norm(self, q, rng):
        """[DERIVED] Down F_p -> F_q -> F_{q^2}, weight 1 is the norm straight
        to F_p, and weight 2 lands in K_2(F_p) = 0."""
        mid = make_field(q)
        top = extension(mid, monic_irreducible(mid, rng, 2))
        base = mid.base
        for x in (random_unit(top, rng) for _ in range(12)):
            y = transfer_tower(symbol([x], field=top), base)
            assert canonical_class(y) == canonical_class(symbol([norm_element(x, base)]))
        for _ in range(4):
            y = transfer_tower(random_symbol(top, rng, 2), base)
            assert y.field == base and canonical_class(y).is_zero()

    def test_function_field_top_is_not_above_its_base(self):
        F9 = make_field(9)
        ff = function_field(F9)
        with pytest.raises(DescriptorMismatch, match="is not below"):
            transfer_tower(symbol([ff.gen()], field=ff), F9)

    def test_deep_q_tower_rejected(self):
        """A second step over Q cannot be built: proving Y^2 - sqrt 2
        irreducible over Q(sqrt 2) would factor over a number field."""
        L = extension(Qf, Polynomial.from_ints(Qf, [-2, 0, 1]))
        with pytest.raises(UnsupportedFactorization):
            extension(L, Polynomial(L, [-L.gen(), L.zero(), L.one()]))


class TestWeightZero:
    """c{} over the residue field of v transfers to c deg(v) {} over k."""

    @pytest.mark.parametrize("q, d", [(9, 2), (9, 3), (0, 2)],
                             ids=["F9_deg2", "F9_deg3", "Q_X2_plus_1"])
    def test_degree_times_coefficient(self, q, d, rng):
        base = make_field(q)
        pi = (Polynomial.from_ints(Qf, [1, 0, 1]) if q == 0
              else monic_irreducible(base, rng, d))
        v = finite_place(function_field(base), pi)
        kv = v.residue_field()
        for c in (1, -3, 5):
            x = MilnorExpression(kv, 0, {(): c})
            assert transfer(v, x) == MilnorExpression(base, 0, {(): c * d})
        assert transfer(v, zero_expression(kv, 0)) == zero_expression(base, 0)


class TestBaseChange:
    def test_identity_when_same_field(self):
        x = symbol([Qf.element(2), Qf.element(3)])
        assert base_change(x, Qf) == x

    def test_restriction_corestriction_f3(self):
        # [TRIVIAL] N(i({-1})) = 2{-1} = 0 in K_1(F_3)
        F9 = make_field(9)
        x = symbol([prime_field(3).from_int(-1)], field=prime_field(3))
        y = transfer_tower(base_change(x, F9), prime_field(3))
        assert canonical_class(y).is_zero()

    def test_restriction_corestriction_f25(self):
        # [DERIVED] N(i({2})) = {2^2} over F_5
        F25 = make_field(25)
        F5 = F25.base
        x = symbol([F5.from_int(2)], field=F5)
        y = transfer_tower(base_change(x, F25), F5)
        assert canonical_class(y) == canonical_class(symbol([F5.from_int(4)]))

    def test_multiplication_by_degree(self, rng):
        for q in (9, 25):
            L = make_field(q)
            base = L.base
            d = tower_degree(L, base)
            for _ in range(10):
                x = random_symbol(base, rng, 2)
                y = transfer_tower(base_change(x, L), base)
                assert canonical_class(y) == canonical_class(d * x)


class TestProjectionFormula:
    def test_finite_fields(self, rng):
        for q in (4, 9, 25):
            L = make_field(q)
            base = L.base
            units = all_units(L)
            for _ in range(10):
                z = base.from_int(rng.randint(1, L.characteristic() - 1))
                w = rng.choice(units)
                lhs = transfer_ext(L, symbol([embed(z, L), w], field=L))
                rhs = symbol([z], field=base) * transfer_ext(
                    L, symbol([w], field=L))
                assert canonical_class(lhs) == canonical_class(rhs)

    def test_rational_quadratic(self, rng):
        L = extension(Qf, Polynomial.from_ints(Qf, [-2, 0, 1]))
        for _ in range(10):
            z = Qf.element(rng.choice([2, 3, 5, -1, 7]))
            w = L.element((Qf.element(rng.randint(-3, 3)),
                           Qf.element(rng.choice([1, 2, -1]))))
            if w.is_zero():
                continue
            lhs = transfer_ext(L, symbol([embed(z, L), w], field=L))
            rhs = symbol([z]) * transfer_ext(L, symbol([w], field=L))
            assert canonical_class(lhs) == canonical_class(rhs)


class TestReciprocityAcrossBases:
    def test_q_base(self, rng):
        ff = function_field(Qf)
        f = Polynomial.from_ints(Qf, [2, 1])       # X + 2
        g = Polynomial.from_ints(Qf, [-1, 1, 1])   # X^2 + X - 1
        w = symbol([ff.element(f), ff.element(g)], field=ff)
        cls, _ = reciprocity_check(w)
        assert cls.is_zero()

    def test_f9_base_weight_three(self, rng):
        F9 = make_field(9)
        ff = function_field(F9)
        fs = []
        while len(fs) < 3:
            f = monic_irreducible(F9, rng, rng.randint(1, 2))
            if f not in fs:
                fs.append(f)
        w = symbol([ff.element(f) for f in fs], field=ff)
        cls, _ = reciprocity_check(w)
        assert cls.is_zero()
