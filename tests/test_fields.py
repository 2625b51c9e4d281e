"""Field and polynomial arithmetic against hand-checked and brute-force oracles."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkt.errors import (DescriptorMismatch, DivisionByZero, UnsupportedFactorization,
                        ZeroPolynomial)
from mkt.factor import factor, forget, irreducible_factors, is_irreducible
from mkt.fields import (Polynomial, all_elements, coordinates, element_from_poly, embed,
                        extension, from_coordinates, function_field, poly_gcd,
                        poly_resultant, prime_field, rationals, tower_degree)
from mkt.linalg import Matrix, companion_matrix, minpoly_matrix
from mkt.sampling import monic_irreducible, random_element
from mkt.symbols import symbol
from mkt.towers import (minimal_polynomial, multiplication_matrix, norm_element,
                        present_as_simple)
from mkt.valuations import finite_place, tame_symbol
from tests.conftest import (NORM_PAIRS, all_units, f16_over_f4, f81_over_f9, make_field,
                            untabled_twin)

# the modules themselves; the package attribute mkt.factor is the function
factor_module = sys.modules["mkt.factor"]
fields_module = sys.modules["mkt.fields"]


class TestFieldArith:
    def test_rational_add(self, Q):
        # [TRIVIAL] fraction arithmetic
        a = Q.element(Fraction(2, 3))
        b = Q.element(Fraction(1, 6))
        assert (a + b).rep == Fraction(5, 6)

    def test_f4_square(self):
        # [TRIVIAL] alpha^2 = alpha + 1 in F_4 = F_2[a]/(a^2+a+1)
        F4 = make_field(4)
        a = F4.gen()
        assert a * a == a + F4.one()

    def test_f9_inverse(self):
        """[DERIVED] 1/alpha in F_9 found by scanning all nine elements."""
        F9 = make_field(9)
        a = F9.gen()
        inv = a.inverse()
        matches = [x for x in all_units(F9) if a * x == F9.one()]
        assert matches == [inv]
        assert inv == F9.element((F9.base.zero(), F9.base.from_int(2)))  # 2a

    def test_division_by_zero(self, Q):
        with pytest.raises(DivisionByZero):
            Q.element(1) / Q.element(0)

    def test_descriptor_mismatch(self, Q):
        with pytest.raises(DescriptorMismatch):
            Q.element(1) + prime_field(5).from_int(1)


class TestPolyGcd:
    def test_rational_gcd(self, Q):
        # [TRIVIAL] gcd(X^2-1, X^2-2X+1) = X-1
        f = Polynomial.from_ints(Q, [-1, 0, 1])
        g = Polynomial.from_ints(Q, [1, -2, 1])
        assert poly_gcd(f, g) == Polynomial.from_ints(Q, [-1, 1])

    def test_gcd_with_zero(self, Q):
        # [TRIVIAL] gcd(f, 0) is the monic-normalized f
        f = Polynomial.from_ints(Q, [2, 4])
        assert poly_gcd(f, Polynomial.zero(Q)) == Polynomial.from_ints(Q, [Fraction(1, 2), 1])

    def test_coprime_over_f2(self):
        """[DERIVED] gcd(X^4+X+1, X^2+X+1) over F_2 is 1; both irreducible by trial division."""
        F2 = prime_field(2)
        f = Polynomial.from_ints(F2, [1, 1, 0, 0, 1])
        g = Polynomial.from_ints(F2, [1, 1, 1])
        assert poly_gcd(f, g) == Polynomial.from_ints(F2, [1])


class TestFactor:
    def test_char2_square(self):
        # [TRIVIAL] X^2+1 = (X+1)^2 over F_2
        F2 = prime_field(2)
        unit, parts = factor(Polynomial.from_ints(F2, [1, 0, 1]))
        assert unit == F2.one()
        assert parts == [(Polynomial.from_ints(F2, [1, 1]), 2)]

    def test_quartic_irreducible_over_f2(self):
        """[DERIVED] X^4+X+1 has no factor of degree <= 2 over F_2 (trial division)."""
        F2 = prime_field(2)
        f = Polynomial.from_ints(F2, [1, 1, 0, 0, 1])
        divisors = ([Polynomial.from_ints(F2, [c, 1]) for c in (0, 1)]
                    + [Polynomial.from_ints(F2, [c0, c1, 1])
                       for c0 in (0, 1) for c1 in (0, 1)])
        assert all(f % g != Polynomial.zero(F2) for g in divisors)
        assert is_irreducible(f)
        unit, parts = factor(f)
        assert parts == [(f, 1)]

    def test_rational_quadratic(self, Q):
        # [TRIVIAL] 6X^2-6 = 6 (X-1)(X+1)
        unit, parts = factor(Polynomial.from_ints(Q, [-6, 0, 6]))
        assert unit == Q.element(6)
        assert parts == [(Polynomial.from_ints(Q, [-1, 1]), 1),
                         (Polynomial.from_ints(Q, [1, 1]), 1)]

    def test_expansion_roundtrip(self, rng, Q):
        """Multiplying the factorization back together reproduces the input bit-exactly."""
        for field in (Q, prime_field(5), make_field(9)):
            for _ in range(20):
                coeffs = [field.from_int(rng.randint(-6, 6)) if field is Q
                          else field.from_int(rng.randint(0, 8))
                          for _ in range(rng.randint(2, 6))]
                f = Polynomial(field, coeffs)
                if f.is_zero():
                    continue
                unit, parts = factor(f)
                g = Polynomial.constant(unit)
                for h, m in parts:
                    for _ in range(m):
                        g = g * h
                assert g == f

    # (q, [(degree, number of irreducibles multiplied)]); F_2 has one
    # irreducible quadratic and two linear and two cubic ones
    @pytest.mark.parametrize("q,shapes", [
        (2, [(1, 2), (3, 2), (4, 2), (4, 3)]),
        (4, [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]),
        (8, [(1, 3), (2, 2), (2, 3)]),
        (16, [(1, 3), (2, 2), (2, 3)]),
    ])
    def test_char2_equal_degree_split(self, rng, monkeypatch, q, shapes):
        """[DERIVED] In characteristic 2 the equal-degree split uses the
        additive trace map; every product of distinct irreducibles of one
        degree splits into a proper divisor, and factor() recovers them."""
        traces = []
        log2_order = factor_module._log2_order
        monkeypatch.setattr(factor_module, "_log2_order",
                            lambda order: traces.append(order) or log2_order(order))
        field = make_field(q)
        for d, count in shapes:
            irreducibles = set()
            while len(irreducibles) < count:
                irreducibles.add(monic_irreducible(field, rng, d))
            f = Polynomial.one(field)
            for g in irreducibles:
                f = f * g
            for _ in range(3):
                h = factor_module._equal_degree_split(f, d, rng)
                assert h.is_monic() and 0 < h.degree < f.degree
                assert h.degree % d == 0 and (f % h).is_zero()
            forget()
            assert factor(f) == (field.one(), sorted(
                ((g, 1) for g in irreducibles),
                key=lambda pair: factor_module.poly_sort_key(pair[0])))
        assert traces
        if q > 2:
            # the field has its table; there -x is x
            assert field._table is not None
            assert field._table.neg == list(range(q))

    def test_extension_of_q_unsupported(self, Q):
        L = extension(Q, Polynomial.from_ints(Q, [-2, 0, 1]))
        with pytest.raises(UnsupportedFactorization):
            factor(Polynomial.from_ints(L, [1, 1, 1]))


def shifted_norm(f, s):
    """Norm over Q of f(x - s alpha), f over L = Q(alpha): the determinant
    over Q(x) of multiplication by it on L(x), by Horner on Q-blocks."""
    L = f.field
    Qx = function_field(L.base)

    def lift(c):
        return multiplication_matrix(c, L.base).map_entries(lambda e: embed(e, Qx), Qx)

    step = Matrix.identity(Qx, L.step_degree) * Qx.gen() - lift(L.gen() * s)
    acc = Matrix.zeros(Qx, L.step_degree)
    for c in reversed(f.coeffs):
        acc = acc * step + lift(c)
    det = acc.det().rep
    assert det.den.degree == 0
    return det.num


class TestIrreducibleFactors:
    @pytest.mark.parametrize("mu", [[1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1]],
                             ids=["i", "sqrt2", "cbrt2"])
    def test_factors_rebuild_and_are_irreducible(self, mu, rng, Q):
        """[DERIVED] Over L = Q(alpha) the factors multiply back to m, and each
        factor f is irreducible over L: for some s the norm of f(x - s alpha)
        is irreducible over Q, while any factorization of f would factor it."""
        L = extension(Q, Polynomial.from_ints(Q, mu))
        split = Polynomial(L, [embed(c, L) for c in Polynomial.from_ints(Q, mu).coeffs])
        for _ in range(4):
            m = split
            for _ in range(rng.randint(1, 3)):
                g = Polynomial(L, [L.element(tuple(Q.element(rng.randint(-3, 3))
                                                   for _ in range(L.step_degree)))
                                   for _ in range(rng.randint(1, 2))] + [L.one()])
                m = m * g ** rng.randint(1, 2)
            factors = irreducible_factors(m)
            product = Polynomial.one(L)
            for f in factors:
                product = product * f
            assert product == m
            assert len(factors) >= 2
            for f in factors:
                assert f.is_monic()
                assert any(is_irreducible(shifted_norm(f, s)) for s in range(4))


class TestFactorMemo:
    @pytest.fixture(autouse=True)
    def cold(self):
        forget()
        yield
        forget()

    @staticmethod
    def _random_poly(field, rng):
        """a * b^2 with a, b random of degree 0-3, so multiplicities occur."""
        def poly(deg):
            return Polynomial(field, [random_element(field, rng) for _ in range(deg + 1)])
        b = poly(rng.randint(0, 3))
        return poly(rng.randint(0, 3)) * b * b

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 0])
    def test_returned_factors_irreducible_from_cold(self, rng, q):
        """factor seeds exactly its factors of degree >= 2, and each of them
        passes is_irreducible computed afresh; warm answers equal cold ones."""
        field = make_field(q)
        for _ in range(12):
            f = self._random_poly(field, rng)
            if f.is_zero():
                continue
            forget()
            unit, parts = factor(f)
            seeded = dict(factor_module._IRREDUCIBLE)
            assert seeded == {g: True for g, _m in parts if g.degree >= 2}
            assert factor(f) == (unit, parts)
            warm = is_irreducible(f)
            forget()
            assert is_irreducible(f) == warm
            for g, _m in parts:
                forget()
                assert is_irreducible(g)

    def test_mutating_result_leaves_memo_intact(self):
        F3 = prime_field(3)
        f = Polynomial.from_ints(F3, [2, 0, 0, 1])  # X^3 - 1 = (X - 1)^3
        unit, parts = factor(f)
        expect = list(parts)
        parts.append((f, 7))
        parts[0] = (f, 1)
        assert factor(f) == (unit, expect)

    def test_memo_stays_within_cap(self, monkeypatch):
        cap = 16
        monkeypatch.setattr(factor_module, "_MEMO_CAP", cap)
        F5 = prime_field(5)
        for a in range(5):
            for b in range(5):
                for c in (1, 2):
                    f = Polynomial.from_ints(F5, [a, b, c])
                    factor(f)
                    is_irreducible(Polynomial.from_ints(F5, [a, b, 1, c]))
                    assert len(factor_module._FACTORED) <= cap
                    assert len(factor_module._IRREDUCIBLE) <= cap

    def test_zero_and_unsupported_raise_every_time(self, Q):
        L = extension(Q, Polynomial.from_ints(Q, [-2, 0, 1]))
        g = Polynomial.from_ints(L, [1, 1, 1])
        forget()  # building L proved its modulus irreducible
        for _ in range(2):
            with pytest.raises(ZeroPolynomial):
                factor(Polynomial.zero(Q))
            with pytest.raises(UnsupportedFactorization):
                is_irreducible(g)
        assert not factor_module._FACTORED and not factor_module._IRREDUCIBLE


def tabled_field(q):
    """A field that extension() gives a table; "16/4" is F_16 as a step over
    F_4, a tower of two tabled steps."""
    return f16_over_f4() if q == "16/4" else make_field(q)


class TestFieldTables:
    @pytest.fixture(autouse=True)
    def cold(self):
        fields_module.forget()
        yield
        fields_module.forget()

    @pytest.mark.parametrize("q", [4, 8, 16, 9, 25, 27, "16/4"])
    def test_table_matches_coefficient_path(self, q):
        """Every pair of elements gives the same +, -, *, inverse, ==,
        is_zero and hash through the table as through the coefficients."""
        L = tabled_field(q)
        fast = L._table.elems
        twin = untabled_twin(L)
        slow = list(all_elements(twin))
        assert twin == L and twin is not L and hash(twin) == hash(L)
        assert len(fast) == len(slow) == L.order()
        for i, (a, s) in enumerate(zip(fast, slow)):
            assert a.ix == i and a._key() == s._key() and hash(a) == hash(s)
            assert a.is_zero() == s.is_zero() == (i == 0)
            assert (-a)._key() == (-s)._key()
            if i:
                assert a.inverse()._key() == s.inverse()._key()
            for j, (b, t) in enumerate(zip(fast, slow)):
                for got, want in ((a + b, s + t), (a - b, s - t), (a * b, s * t)):
                    assert got is fast[got.ix] and got._key() == want._key()
                assert (a == b) == (i == j) == (s == t) == (a == t)
        assert twin._table is None

    @pytest.mark.parametrize("q", [8, 9, "16/4"])
    def test_constants_and_powers_are_interned(self, q):
        L = tabled_field(q)
        fast = L._table.elems
        twin = untabled_twin(L)
        n_elems = L.order()
        assert L.zero() is fast[0] and L.one() is fast[1]
        for n in range(-n_elems, n_elems):
            got = L.from_int(n)
            assert got is fast[got.ix] and got._key() == twin.from_int(n)._key()
        for a, s in zip(fast, all_elements(twin)):
            for e in (-3, -1, 0, 1, 2, 5, n_elems - 1, n_elems):
                if e < 0 and a.is_zero():
                    with pytest.raises(DivisionByZero):
                        a ** e
                    continue
                assert (a ** e)._key() == (s ** e)._key()

    @pytest.mark.parametrize("q", [4, 9, 27, "16/4"])
    def test_every_element_of_a_tabled_field_is_interned(self, q):
        """Whatever makes an element of a tabled field hands out one of its
        table's elements: constructors, arithmetic, embeddings, coordinates
        and the random elements of equal-degree splitting."""
        L = tabled_field(q)
        elems = L._table.elems
        base = L.base
        x, y = L.gen(), L.gen() + L.one()
        made = [L.element(3), L.element((1, 1)), L.element([base.one()]), L.from_int(-1),
                x, y, L.zero(), L.one(), L.minus_one(),
                x + y, x - y, y - x, -x, x * y, y * 2, 2 * y, x + 1, 1 - x, x / y,
                x.inverse(), x ** 5, x ** -2, y ** 0,
                embed(base.gen() if base.kind == "extension" else base.one(), L),
                from_coordinates(coordinates(y, base), L, base),
                element_from_poly(L, Polynomial(base, [base.one(), base.one()])),
                element_from_poly(L, Polynomial(base, [base.one()] * 4))]
        made += all_elements(L)
        rng = random.Random(11)
        made += [factor_module._random_element(L, rng) for _ in range(20)]
        for z in made:
            assert z.field is L and z is elems[z.ix]

    def test_descriptors_are_canonical(self):
        F3 = prime_field(3)
        F9 = extension(F3, Polynomial.from_ints(F3, [1, 0, 1]))
        assert extension(F3, Polynomial.from_ints(F3, [1, 0, 1])) is F9
        assert function_field(F9) is function_field(F9)
        fields_module.forget()
        again = extension(F3, Polynomial.from_ints(F3, [1, 0, 1]))
        assert again is not F9 and again == F9 and hash(again) == hash(F9)
        assert function_field(again) == function_field(F9)

    def test_fields_above_the_cap_build_no_table(self):
        """F_27 is the largest order that gets a table; F_81 over F_9 and
        F_121 keep coefficient tuples however often they are used."""
        F27 = make_field(27)
        assert F27.order() == fields_module._TABLE_MAX == 27 and F27._table is not None
        F11 = prime_field(11)
        for K in (f81_over_f9(), extension(F11, Polynomial.from_ints(F11, [1, 0, 1]))):
            x = K.gen() + K.one()
            y = K.one()
            for _ in range(2 * K.order()):
                y = y * x
            assert K._table is None and y.ix is None

    def test_cold_residue_field_builds_no_table(self):
        """The residue field F_6561 of a degree-4 place of F_9(X), above the
        table cap, keeps coefficients through a tame symbol, while F_9 below
        it runs on its table."""
        F9 = make_field(9)
        ff = function_field(F9)
        pi = Polynomial(F9, [F9.gen() + 1, 0, 0, 0, 1])  # X^4 + a + 1
        v = finite_place(ff, pi)
        L = v.residue_field()
        assert L.order() == 6561 and L.base is F9
        g = Polynomial(F9, [F9.gen(), F9.one()])
        t = tame_symbol(v, symbol([ff.element(pi * g), ff.element(g * g + 1)], ff))
        assert t.field == L and not t.is_zero()
        assert L._table is None and F9._table is not None

    def test_reducible_step_gets_no_table(self):
        """F_5[x]/(X^2 + X), built without the irreducibility check, has 25
        elements but is no field: no element generates its units, so it gets
        no table, and the class of X, a zero divisor, has no inverse."""
        F5 = prime_field(5)
        L = extension(F5, Polynomial.from_ints(F5, [0, 1, 1]), check=False)
        assert L.order() == 25 and L._table is None
        x, y = L.gen(), L.gen() + L.one()
        z = L.one()
        for _ in range(40):
            z = z * y
        assert z == y  # y^2 = y: (x + 1)^2 = x^2 + 2x + 1 = x + 1
        assert x * (x + 1) == 0
        with pytest.raises(DivisionByZero):
            x.inverse()


class TestMinimalPolynomial:
    def test_identity_matrix(self, Q):
        # [TRIVIAL]
        m = Matrix.identity(Q, 3)
        assert minpoly_matrix(m) == Polynomial.from_ints(Q, [-1, 1])

    def test_companion(self):
        # [TRIVIAL] companion property
        F2 = prime_field(2)
        f = Polynomial.from_ints(F2, [1, 1, 1])
        assert minpoly_matrix(companion_matrix(f)) == f

    def test_f9_element(self):
        """[DERIVED] minpoly of a+1 in F_9 equals (X-(a+1))(X-(a+1)^3) via Frobenius."""
        F9 = make_field(9)
        x = F9.gen() + F9.one()
        frob = x ** 3
        expect = Polynomial(F9, [x * frob, -(x + frob), F9.one()])
        got = minimal_polynomial(x, F9.base)
        from mkt.fields import embed
        lifted = Polynomial(F9, [embed(c, F9) for c in got.coeffs])
        assert lifted == expect
        assert got == Polynomial.from_ints(F9.base, [2, 1, 1])  # X^2+X+2


class TestNorm:
    def test_f9_norm(self):
        """[DERIVED] N(a+1) = (a+1)(a+1)^3 = 2 in F_9."""
        F9 = make_field(9)
        x = F9.gen() + F9.one()
        conj = x * (x ** 3)
        assert conj == F9.element(2)
        assert norm_element(x, F9.base) == F9.base.from_int(2)

    def test_base_element_power_rule(self, rng):
        # [TRIVIAL] N(c) = c^d for c in the base field
        for q, d in ((4, 2), (9, 2), (8, 3)):
            L = make_field(q)
            c = L.base.from_int(rng.randint(1, L.characteristic() - 1))
            from mkt.fields import embed
            assert norm_element(embed(c, L), L.base) == c ** d

    def test_f4_norm_trivial(self):
        # [TRIVIAL] F_2 has only one unit
        F4 = make_field(4)
        assert norm_element(F4.gen(), F4.base) == F4.base.one()

    def test_multiplicative(self, rng):
        F25 = make_field(25)
        units = all_units(F25)
        for _ in range(30):
            x, y = rng.choice(units), rng.choice(units)
            assert (norm_element(x, F25.base) * norm_element(y, F25.base)
                    == norm_element(x * y, F25.base))

    def test_power_formula(self):
        """N(x) = x^((q^d-1)/(q-1)) on every unit, for several fields."""
        for q in (4, 9, 8, 25):
            L = make_field(q)
            base = L.base
            p = L.characteristic()
            d = tower_degree(L, base)
            e = (p ** d - 1) // (p - 1)
            for x in all_units(L):
                pw = x ** e
                assert pw.rep[1:] == tuple(base.zero() for _ in pw.rep[1:])
                assert norm_element(x, base) == pw.rep[0]


    def test_determinant_oracle_on_norm_pairs(self):
        """norm_element takes resultants; the determinant of multiplication
        by x is an independent oracle. Every unit of each NORM_PAIRS field."""
        for q, d in NORM_PAIRS:
            L = make_field(q ** d)
            base = prime_field(q)
            for x in all_units(L):
                assert norm_element(x, base) == multiplication_matrix(x, base).det()

    def test_determinant_oracle_down_a_tower(self):
        """F_16 over F_4 over F_2: the norm one step down and two steps down
        equals the determinant over that base, on all 15 units."""
        F4 = make_field(4)
        F16 = extension(F4, Polynomial(F4, [F4.gen(), F4.one(), F4.one()]))
        for x in all_units(F16):
            for base in (F4, prime_field(2)):
                assert norm_element(x, base) == multiplication_matrix(x, base).det()

    @pytest.mark.parametrize("modulus", [[1, 0, 1], [-2, 0, 0, 1], [-1, -1, 0, 1]],
                             ids=["i", "cube_root_2", "alpha3_alpha_1"])
    def test_determinant_oracle_over_q(self, rng, modulus):
        Q = rationals()
        L = extension(Q, Polynomial.from_ints(Q, modulus))
        d = len(modulus) - 1
        for _ in range(25):
            x = L.element(tuple(Q.element(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                                for _ in range(d)))
            if x.is_zero():
                continue
            assert norm_element(x, Q) == multiplication_matrix(x, Q).det()


def sylvester_det(f, g):
    """det of the Sylvester matrix of f and g: deg g rows of f's
    coefficients, then deg f rows of g's, highest degree first."""
    n, m = f.degree, g.degree
    zero = f.field.zero()
    rows = [[zero] * i + list(reversed(f.coeffs)) + [zero] * (m - 1 - i) for i in range(m)]
    rows += [[zero] * i + list(reversed(g.coeffs)) + [zero] * (n - 1 - i) for i in range(n)]
    return Matrix(f.field, rows).det()


class TestResultant:
    """Euclid's resultant against the Sylvester determinant, on residues
    (F_7), table indices (F_9), elements (its untabled twin) and Q."""

    @pytest.mark.parametrize("q", [7, 9, "9-twin", 0])
    def test_sylvester_determinant(self, rng, q):
        fields_module.forget()
        k = untabled_twin(make_field(9)) if q == "9-twin" else make_field(q)
        for _ in range(30):
            f, g = (Polynomial(k, [random_element(k, rng, span=3)
                                   for _ in range(rng.randint(1, 5))] + [k.one()])
                    for _ in range(2))
            f = f * random_element(k, rng, span=3) if rng.random() < 0.3 else f
            if f.is_zero():
                continue
            assert poly_resultant(f, g) == sylvester_det(f, g)
        fields_module.forget()

    def test_common_factor_and_constant(self):
        F9 = make_field(9)
        a = F9.gen()
        c = Polynomial(F9, [a, F9.one()])
        f = c * Polynomial(F9, [F9.one(), F9.zero(), F9.one(), a])
        g = c * Polynomial(F9, [a + 1, F9.one()])
        assert poly_resultant(f, g).is_zero()
        assert sylvester_det(f, g).is_zero()
        m = Polynomial(F9, [a, F9.one(), F9.zero(), F9.one()])
        three = Polynomial.constant(a + 1)
        assert poly_resultant(m, three) == (a + 1) ** 3 == sylvester_det(m, three)
        # Res(h, m) = (-1)^(deg h * deg m) Res(m, h), odd here
        h = Polynomial(F9, [a + 1, F9.one()])
        assert not poly_resultant(m, h).is_zero()
        assert poly_resultant(h, m) == -poly_resultant(m, h) == sylvester_det(h, m)


class TestPresentAsSimple:
    def test_two_step_tower_over_f2(self, rng):
        """[DERIVED] F_2 tower of two quadratic steps flattens to one quartic step."""
        F4 = make_field(4)
        mod = None
        # find any monic irreducible quadratic over F_4
        for n in range(16):
            c0 = F4.element((F4.base.from_int(n & 1), F4.base.from_int((n >> 1) & 1)))
            c1 = F4.element((F4.base.from_int((n >> 2) & 1), F4.base.from_int((n >> 3) & 1)))
            f = Polynomial(F4, [c0, c1, F4.one()])
            if is_irreducible(f):
                mod = f
                break
        F16 = extension(F4, mod)
        pres = present_as_simple(F16, prime_field(2))
        assert len(pres.modulus.coeffs) - 1 == 4
        for x in [rng.choice(all_units(F16)) for _ in range(10)]:
            assert pres.from_simple(pres.to_simple(x)) == x

    def test_height_one_identity(self):
        # [TRIVIAL]
        F9 = make_field(9)
        pres = present_as_simple(F9, F9.base)
        assert pres.modulus == F9.modulus
        x = F9.gen() + F9.one()
        assert pres.from_simple(pres.to_simple(x)) == x

    def test_roundtrip_random(self, rng):
        """[DERIVED] to-simple then from-simple is the identity on 50 random elements."""
        F4 = make_field(4)
        f = Polynomial(F4, [F4.gen(), F4.one(), F4.one()])
        if not is_irreducible(f):
            f = Polynomial(F4, [F4.gen(), F4.gen(), F4.one()])
        assert is_irreducible(f)
        F16 = extension(F4, f)
        pres = present_as_simple(F16, prime_field(2))
        units = all_units(F16)
        for _ in range(50):
            x = rng.choice(units)
            assert pres.from_simple(pres.to_simple(x)) == x
            assert pres.to_simple(pres.from_simple(pres.to_simple(x))) == pres.to_simple(x)


@settings(max_examples=60, deadline=None)
@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.fractions(max_denominator=50))
def test_rational_field_axioms(a, b, c):
    Q = rationals()
    x, y, z = Q.element(a), Q.element(b), Q.element(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Q.zero()
    if a != 0:
        assert x * x.inverse() == Q.one()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_field_axioms(i, j, k):
    F9 = make_field(9)
    def elem(n):
        return F9.element((F9.base.from_int(n % 3), F9.base.from_int(n // 3)))
    x, y, z = elem(i), elem(j), elem(k)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if i:
        assert x * x.inverse() == F9.one()
