"""Field and polynomial arithmetic against hand-checked and brute-force oracles."""

import copy
import gc
import itertools
import math
import pickle
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkt import numutil
from mkt.errors import (BadModulus, DescriptorMismatch, DivisionByZero,
                        UnsupportedFactorization, ZeroPolynomial)
from mkt.factor import factor, forget, irreducible_factors, is_irreducible
from mkt.fields import (Polynomial, RationalFunction, all_elements, coordinates,
                        element_from_poly, embed, extension, from_coordinates,
                        function_field, is_ancestor, poly_gcd, poly_resultant, prime_field,
                        rationals, tower_degree, tower_steps)
from mkt.linalg import Matrix, companion_matrix, minpoly_matrix
from mkt.sampling import monic_irreducible, random_element
from mkt.symbols import symbol
from mkt.towers import (minimal_polynomial, multiplication_matrix, norm_element,
                        present_as_simple)
from mkt.valuations import finite_place, tame_symbol
from tests.conftest import (NORM_PAIRS, TwinField, all_units, f16_over_f4, f81_over_f9,
                            gauss_jordan, make_field)

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

    def test_evaluate_needs_a_point_of_the_coefficient_field(self):
        """f(a) is a^2 + 1 in the untabled twin's arithmetic; a point of an
        extension, or of another F_9, is refused, not embedded."""
        F9 = make_field(9)
        twin = TwinField.like(F9)
        f = Polynomial.from_ints(F9, [1, 0, 1])  # X^2 + 1
        for a in all_elements(F9):
            x = twin.read(a)
            assert twin.read(f.evaluate(a)) == twin.add(twin.mul(x, x), twin.one)
        with pytest.raises(DescriptorMismatch):
            Polynomial.from_ints(F9.base, [1, 0, 1]).evaluate(F9.gen())
        with pytest.raises(DescriptorMismatch):
            f.evaluate(other_f9().gen())


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

    @pytest.mark.parametrize("q", [0, 5, 9])
    def test_linear_is_its_own_factor(self, q, rng, monkeypatch):
        """A linear f is lc(f) times its monic self, with no squarefree split,
        and the answer is memoized."""
        field = make_field(q)
        forget()

        def no_split(f):
            raise AssertionError(f"squarefree split of {f}")

        monkeypatch.setattr(factor_module, "_squarefree", no_split)
        for _ in range(10):
            lead = random_element(field, rng)
            while lead.is_zero():
                lead = random_element(field, rng)
            f = Polynomial(field, [random_element(field, rng), lead])
            assert factor(f) == (lead, [(f.monic(), 1)])
            assert factor_module._FACTORED[f] == (lead, ((f.monic(), 1),))
        forget()

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
                key=lambda pair: pair[0].coeff_key()))
        assert traces
        if q > 2:
            # the field has its table; there -x is x
            assert field._table is not None
            assert field._table.neg == list(range(q))

    def test_extension_of_q_unsupported(self, Q):
        L = extension(Q, Polynomial.from_ints(Q, [-2, 0, 1]))
        with pytest.raises(UnsupportedFactorization):
            factor(Polynomial.from_ints(L, [1, 1, 1]))


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


# the product of the primes up to 97: i * PRIMORIAL_97 is 0 modulo each of them
PRIMORIAL_97 = math.prod(p for p in range(2, 98) if all(p % d for d in range(2, p)))


class TestFactorOverQ:
    """[DERIVED] Planted factorizations over Q: products of polynomials that
    are irreducible by a proof (linear; quadratics with a non-square
    discriminant, which have no rational root; Eisenstein polynomials;
    x^4 + 1 and x^4 - 10x^2 + 1, which split modulo every prime), raised to
    multiplicities 1-3 and scaled by a rational. factor must return the
    planted leading coefficient and the planted factors, made monic."""

    @pytest.fixture(autouse=True)
    def cold(self):
        forget()
        yield
        forget()

    @staticmethod
    def _irreducible(rng):
        kind = rng.randrange(5)
        if kind == 0:
            a, b = rng.choice([1, -2, 3, 7]), rng.randint(-10 ** 9, 10 ** 9)
            return [b, a]
        if kind == 1:
            while True:
                a, b, c = rng.choice([1, 2, -3, 5]), rng.randint(-40, 40), rng.randint(-40, 40)
                if c and not _is_square(b * b - 4 * a * c):
                    return [c, b, a]
        if kind == 2:
            q, n = rng.choice([2, 3, 5, 7]), rng.randint(2, 5)
            h = rng.choice([10, 10 ** 6])
            lead = rng.choice([u for u in range(1, 12) if u % q])
            const = q * (rng.randint(-h, h) * q + rng.randint(1, q - 1))
            return [const] + [q * rng.randint(-h, h) for _ in range(n - 1)] + [lead]
        return [1, 0, 0, 0, 1] if kind == 3 else [1, 0, -10, 0, 1]

    @staticmethod
    def _check(Q, planted, scale):
        """factor(scale * prod h^m) against the planted (h, m) pairs, whose
        h are distinct irreducibles in Z[x]."""
        ints = [1]
        for h, m in planted:
            for _ in range(m):
                ints = _int_mul(ints, h)
        f = Polynomial(Q, [Fraction(v) * scale for v in ints])
        expect = sorted(((Polynomial.from_ints(Q, h).monic(), m) for h, m in planted),
                        key=lambda pair: pair[0].coeff_key())
        forget()
        assert factor(f) == (f.lc(), expect)

    def test_seeded_products(self, Q, rng):
        for _ in range(150):
            planted = {}
            while not planted or (len(planted) < 4 and rng.random() < 0.6):
                h = self._irreducible(rng)
                planted[Polynomial.from_ints(Q, h).monic()] = (h, rng.randint(1, 3))
            scale = Fraction(rng.choice([-5, -1, 2, 3, 12]), rng.choice([1, 4, 7, 9]))
            self._check(Q, list(planted.values()), scale)

    def test_split_modulo_every_prime(self, Q):
        quartics = ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1])
        self._check(Q, [(quartics[0], 1)], Fraction(1))
        self._check(Q, [(quartics[1], 1)], Fraction(-2, 3))
        self._check(Q, [(quartics[0], 2), ([-2, 0, 1], 1)], Fraction(1))
        self._check(Q, [(quartics[0], 1), (quartics[1], 3), ([1, 0, 1], 2)], Fraction(5, 7))

    def test_roots_that_collide_modulo_small_primes(self, Q, monkeypatch):
        """The roots i * 97# are all 0 modulo every prime up to 97, so the
        first prime that keeps their product squarefree is 101."""
        moduli = []
        prime_field = factor_module.prime_field
        monkeypatch.setattr(factor_module, "prime_field",
                            lambda p: moduli.append(p) or prime_field(p))
        roots = [[-i * PRIMORIAL_97, 1] for i in (1, 2, 3)]
        self._check(Q, [(r, 1) for r in roots], Fraction(3, 2))
        assert set(moduli) == {101}
        self._check(Q, [(roots[0], 3), (roots[1], 1), (roots[2], 2), ([-2, 0, 1], 1)],
                    Fraction(-1))

    def test_lift_reaches_the_bound(self, Q):
        """(u x - 1)(w x + 1), u w = L = 30030 m: every prime up to 13
        divides L, and both candidates L x - w and L x + u have a coefficient
        near ||f||_2, so below the bound some lift wraps around for some m."""
        for m in range(1, 25):
            self._check(Q, [([-1, 210], 1), ([1, 143 * m], 1)], Fraction(1))

    def test_primes_below_the_miller_rabin_bound(self, Q, monkeypatch):
        """Every number tested for primality on the way stays below
        3.3 * 10^24, where is_prime is proven exact, though the Mignotte
        bound of f is above 10^30."""
        tested = []
        is_prime, next_prime = numutil.is_prime, factor_module.next_prime
        monkeypatch.setattr(numutil, "is_prime", lambda n: tested.append(n) or is_prime(n))
        monkeypatch.setattr(fields_module, "is_prime", lambda n: tested.append(n) or is_prime(n))
        monkeypatch.setattr(factor_module, "next_prime",
                            lambda n: tested.append(n) or next_prime(n))
        big = [7, 10 ** 28, 1]
        ints = _int_mul(_int_mul(big, big), [-2, 0, 0, 1])
        assert 2 ** 7 * math.isqrt(sum(v * v for v in ints)) > 10 ** 30  # Mignotte
        self._check(Q, [(big, 2), ([-2, 0, 0, 1], 1)], Fraction(1))
        assert tested and max(tested) < 33 * 10 ** 23

    def test_unlucky_gcd_prime(self, monkeypatch):
        """f = x^2 (x - p) with p = 2^61 - 1, the first prime of the modular
        gcd, which sees gcd(f, f') = x^2 there. With the true bound the next
        prime replaces it; with a bound of 1 the wrong gcd is tried, fails
        the exact division, and the search goes on below its degree."""
        p = factor_module._GCD_PRIME
        f = [0, 0, -p, 1]
        assert factor_module._squarefree_part(f) == [0, -p, 1]
        monkeypatch.setattr(factor_module, "_bound", lambda ints: 1)
        assert factor_module._squarefree_part(f) == [0, -p, 1]


# Sorenson and Webster's psi_12 = 399165290221 * 798330580441, the least
# strong pseudoprime to the twelve prime bases up to 37
PSI_12 = 318665857834031151167461


class TestPrimality:
    def test_is_prime_against_trial_division(self):
        for n in range(-2, 3000):
            prime = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert numutil.is_prime(n) == prime

    def test_strong_pseudoprime_to_twelve_bases(self):
        assert PSI_12 == 399165290221 * 798330580441
        assert not numutil.is_prime(PSI_12)
        assert numutil.is_prime(399165290221) and numutil.is_prime(798330580441)

    def test_prime_power_against_factor_int(self):
        for q in range(1, 3000):
            fac = numutil.factor_int(q)
            assert numutil.prime_power(q) == (next(iter(fac.items())) if len(fac) == 1 else None)
        p = 2 ** 61 - 1
        assert [numutil.prime_power(p ** d) for d in (1, 2, 3)] == [(p, 1), (p, 2), (p, 3)]
        assert numutil.prime_power(PSI_12) is None and numutil.prime_power(PSI_12 ** 2) is None


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

    @staticmethod
    def _irreducible_by_search(g):
        """Irreducibility of g, deg g <= 3, by a search that shares nothing
        with factor: over a finite field, trial division by every monic
        polynomial of degree <= deg g / 2; over Q, the rational-root test."""
        field, n = g.field, g.degree
        if field.kind != "rationals":
            elems = list(all_elements(field))
            for d in range(1, n // 2 + 1):
                for low in itertools.product(elems, repeat=d):
                    if divmod(g, Polynomial(field, [*low, field.one()]))[1].is_zero():
                        return False
            return True
        assert n <= 3  # then g is reducible iff it has a rational root
        if n == 1:
            return True
        d = math.lcm(*[c.rep.denominator for c in g.coeffs])
        ints = [int(c.rep * d) for c in g.coeffs]

        def divisors(m):
            m = abs(m)
            small = [k for k in range(1, math.isqrt(m) + 1) if m % k == 0]
            return {x for k in small for x in (k, m // k)}

        if ints[0] == 0:
            return False
        return not any(sum(c * (s * a) ** i * b ** (n - i) for i, c in enumerate(ints)) == 0
                       for a in divisors(ints[0]) for b in divisors(ints[-1]) for s in (1, -1))

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 0])
    def test_returned_factors_irreducible_from_cold(self, rng, q):
        """factor records f and, as its own factorization, each factor of
        degree >= 2; every factor passes an independent irreducibility
        search; warm answers equal cold ones."""
        field = make_field(q)
        for _ in range(12):
            f = self._random_poly(field, rng)
            if f.is_zero():
                continue
            forget()
            unit, parts = factor(f)
            memo = {g: (g.lc(), ((g, 1),)) for g, _m in parts if g.degree >= 2}
            if f.degree:  # a constant is its own unit, and is not recorded
                memo[f] = (unit, tuple(parts))
            assert factor_module._FACTORED == memo
            assert factor(f) == (unit, parts)
            warm = is_irreducible(f)
            forget()
            assert is_irreducible(f) == warm
            for g, _m in parts:
                assert self._irreducible_by_search(g)

    def test_hits_only_over_the_same_descriptor(self):
        """F_9 over X^2 + X + 2 has elements with the keys of F_9 over
        X^2 + 1, so polynomials with the same coefficients over the two
        hash alike; each still gets its factors over itself."""
        F9 = make_field(9)
        a = F9.gen()
        g = Polynomial(F9, [a, F9.one(), F9.one()])
        h = Polynomial(F9, [F9.one(), a, F9.zero(), F9.one()])
        coeffs = [tuple(x.rep for x in c.rep) for c in (g * h * h).coeffs]

        def poly(L):
            return Polynomial(L, [L.element(c) for c in coeffs])

        for first, second in ((other_f9(), F9), (F9, other_f9())):
            forget()
            factor(poly(first))
            factor(Polynomial(first, [first.gen()]))
            f = poly(second)
            assert hash(f) == hash(poly(first)) and f != poly(first)
            unit, parts = factor(f)
            assert unit.field is second
            product = Polynomial.constant(unit)
            for p, m in parts:
                assert p.field is second
                product = product * p ** m
            assert product == f
            assert second is not F9 or parts == [(g.monic(), 1), (h, 2)]
            assert factor(Polynomial(second, [second.gen()]))[0].field is second

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
        peak = 0
        for a in range(5):
            for b in range(5):
                for c in (1, 2):
                    f = Polynomial.from_ints(F5, [a, b, c])
                    factor(f)
                    peak = max(peak, len(factor_module._FACTORED))
                    is_irreducible(Polynomial.from_ints(F5, [a, b, 1, c]))
                    peak = max(peak, len(factor_module._FACTORED))
        assert peak == cap

    def test_zero_and_unsupported_raise_every_time(self, Q):
        L = extension(Q, Polynomial.from_ints(Q, [-2, 0, 1]))
        g = Polynomial.from_ints(L, [1, 1, 1])
        forget()  # building L proved its modulus irreducible
        for _ in range(2):
            with pytest.raises(ZeroPolynomial):
                factor(Polynomial.zero(Q))
            with pytest.raises(UnsupportedFactorization):
                is_irreducible(g)
        assert not factor_module._FACTORED


def tabled_field(q):
    """A field that extension() gives a table; "16/4" is F_16 as a step over
    F_4, a tower of two tabled steps."""
    return f16_over_f4() if q == "16/4" else make_field(q)


def other_f9():
    """F_9 over X^2 + X + 2: another field than make_field(9)'s F_9 over
    X^2 + 1, whose elements have the same keys."""
    F3 = prime_field(3)
    return extension(F3, Polynomial.from_ints(F3, [2, 1, 1]))


def walked_table(L):
    """(exp, log, add, mul) of the tabled step L, from the arithmetic of its
    untabled twin: an index is a position in all_elements, and the
    generator is the first element outside the base (any nonzero one on a
    degree-1 step) whose powers first return to one after q - 1 steps."""
    twin = TwinField.like(L)
    elems = twin.values()
    m = len(elems) - 1
    for g in elems[L.base.order():] if L.step_degree > 1 else elems[1:]:
        powers = [twin.one]
        while len(powers) <= m and twin.mul(powers[-1], g) != twin.one:
            powers.append(twin.mul(powers[-1], g))
        if len(powers) == m:
            break
    exp = [twin.index(x) for x in powers] * 2
    log = [0] * len(elems)
    for k, i in enumerate(exp[:m]):
        log[i] = k
    add = [[twin.index(twin.add(a, b)) for b in elems] for a in elems]
    mul = [[twin.index(twin.mul(a, b)) for b in elems] for a in elems]
    return exp, log, add, mul


class TestFieldTables:
    @pytest.mark.parametrize("q", [4, 8, 16, 9, 25, 27, "16/4"])
    def test_table_matches_coefficient_path(self, q):
        """Every pair of elements gives through the table the +, -, *,
        inverse, == and is_zero of the untabled twin's arithmetic on
        coefficients, and each result is the interned element at the twin's
        index of its value."""
        L = tabled_field(q)
        fast = L._table.elems
        twin = TwinField.like(L)
        slow = twin.values()
        assert len(fast) == len(slow) == L.order()
        for i, (a, s) in enumerate(zip(fast, slow)):
            assert a.ix == i == twin.index(s) and twin.read(a) == s
            assert a.is_zero() == (i == 0) and hash(a) == hash(a.key())
            assert -a is fast[twin.index(twin.neg(s))]
            if i:
                assert a.inverse() is fast[twin.index(twin.inv(s))]
            for j, (b, t) in enumerate(zip(fast, slow)):
                for got, want in ((a + b, twin.add(s, t)), (a - b, twin.sub(s, t)),
                                  (a * b, twin.mul(s, t))):
                    assert got is fast[twin.index(want)]
                assert (a == b) == (i == j)

    @pytest.mark.parametrize("q", [8, 9, "16/4"])
    def test_constants_and_powers_are_interned(self, q):
        L = tabled_field(q)
        fast = L._table.elems
        twin = TwinField.like(L)
        n_elems = L.order()
        assert L.zero() is fast[0] and L.one() is fast[1]
        for n in range(-n_elems, n_elems):
            assert L.from_int(n) is fast[twin.index(twin.from_int(n))]
        for a, s in zip(fast, twin.values()):
            for e in (-3, -1, 0, 1, 2, 5, n_elems - 1, n_elems):
                if e < 0 and a.is_zero():
                    with pytest.raises(DivisionByZero):
                        a ** e
                    continue
                assert a ** e is fast[twin.index(twin.pow(s, e))]

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
        """Each maker hands out the one live descriptor of its field, the
        bare constructor refuses, and a copy or a pickled descriptor comes
        back through its maker. A descriptor that nothing uses leaves
        its cache when the collector takes it (a tower refers to its own
        descriptor), and the next call makes its field afresh."""
        Q, F3 = rationals(), prime_field(3)
        assert rationals() is Q and prime_field(3) is F3
        m = Polynomial.from_ints(F3, [2, 2, 0, 1])  # X^3 + 2X + 2
        L = extension(F3, m)
        assert extension(F3, Polynomial.from_ints(F3, [2, 2, 0, 1])) is L
        assert function_field(L) is function_field(L) and function_field(Q) is function_field(Q)
        for kind in ("prime", "extension", "function"):
            with pytest.raises(TypeError, match="come from"):
                fields_module.FieldDescriptor(object(), kind, p=3, base=F3, modulus=m)
        assert all(copy.copy(K) is K and copy.deepcopy(K) is K
                   and pickle.loads(pickle.dumps(K)) is K for K in (Q, F3, L, function_field(L)))
        assert copy.deepcopy(L.gen()).field is L
        ff = function_field(L)
        gone = weakref.ref(L)
        del L, ff
        forget()
        # the first collection takes L(X), whose cache entry holds L as its key
        gc.collect()
        gc.collect()
        assert gone() is None and m not in fields_module._EXTENSIONS
        again = extension(F3, m)
        assert again._table is not None and extension(F3, m) is again

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

    @pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2),
                                      (4, 2)])
    def test_small_steps_are_proven_by_the_walk(self, q, d):
        """Every monic modulus of degree d over F_q makes a tabled step
        exactly when it is irreducible, and raises BadModulus otherwise."""
        k = make_field(q)
        elems = list(all_elements(k))
        for low in itertools.product(elems, repeat=d):
            m = Polynomial(k, list(low) + [k.one()])
            if is_irreducible(m):
                L = extension(k, m)
                assert L.order() == q ** d and L._table is not None
            else:
                with pytest.raises(BadModulus):
                    extension(k, m)
                assert m not in fields_module._EXTENSIONS

    @pytest.mark.parametrize("p, d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                      (5, 1), (5, 2)])
    def test_table_equals_a_walk_of_element_powers(self, p, d):
        """For every monic modulus of order p^d <= 27, extension() gives the
        exp, log, add and mul of walked_table, or BadModulus when the
        modulus is reducible."""
        k = prime_field(p)
        for low in itertools.product(range(p), repeat=d):
            m = Polynomial.from_ints(k, list(low) + [1])
            if not is_irreducible(m):
                with pytest.raises(BadModulus):
                    extension(k, m)
                continue
            tab = extension(k, m)._table
            assert (tab.exp, tab.log, tab.add, tab.mul) == walked_table(extension(k, m))

    def test_only_untabled_steps_call_is_irreducible(self, monkeypatch):
        """A step of order <= 27 is proven by its table walk alone; an F_81
        step calls is_irreducible once when it is made and not when it is
        fetched again."""
        F9 = make_field(9)
        a = F9.gen()
        m81 = Polynomial(F9, [a + 1, a, F9.one()])  # X^2 + aX + a + 1
        forget()
        gc.collect()
        assert m81 not in fields_module._EXTENSIONS
        calls, walks = [], []
        real, walk = factor_module.is_irreducible, fields_module._build_table
        monkeypatch.setattr(factor_module, "is_irreducible",
                            lambda f: calls.append(f) or real(f))
        monkeypatch.setattr(fields_module, "_build_table", lambda L: walks.append(L) or walk(L))
        for q in (4, 8, 16, 25, 27, "16/4"):
            tabled_field(q)
        assert calls == [] and walks
        L = extension(F9, m81)
        assert calls == [m81] and L._table is None
        assert extension(m81.field, m81) is L and calls == [m81]

    def test_base_is_checked_before_the_cache(self):
        """The cache is keyed on the modulus: a modulus over F_7 given with
        F_5 as its base is refused although F_7[x]/(m) is cached."""
        F5, F7 = prime_field(5), prime_field(7)
        m = Polynomial.from_ints(F7, [1, 0, 1])
        assert extension(F7, m).order() == 49
        with pytest.raises(DescriptorMismatch):
            extension(F5, m)


def tagged_element_key(e):
    """A kind-tagged sort key, built afresh on every call: the reference
    order that key() reproduces within one field."""
    if e.field.kind in ("rationals", "prime"):
        return (0, e.rep)
    if e.field.kind == "extension":
        return (1, tuple(tagged_element_key(c) for c in e.rep))
    return (2, tagged_poly_key(e.rep.num), tagged_poly_key(e.rep.den))


def tagged_poly_key(f):
    return (f.degree, tuple(tagged_element_key(c) for c in f.coeffs))


KEY_FIELDS = {"Q": rationals, "F_5": lambda: prime_field(5), "F_9": lambda: make_field(9),
              "F_16/F_4": f16_over_f4, "F_81/F_9": f81_over_f9,
              "F_3(X)": lambda: function_field(prime_field(3)),
              "Q(X)": lambda: function_field(rationals())}


def small_element(K, rng):
    if K.kind != "function":
        return random_element(K, rng, span=2)
    k = K.base
    num = Polynomial(k, [random_element(k, rng, span=2) for _ in range(rng.randrange(3))])
    den = Polynomial(k, [random_element(k, rng, span=2) for _ in range(rng.randrange(3))]
                     + [k.one()])
    return K.element(RationalFunction(num, den))


class TestTowers:
    """Every tower question is read off FieldDescriptor.tower."""

    def test_tower_lists_the_descriptors_bottom_first(self, Q):
        F81 = f81_over_f9()
        F9, F3 = F81.base, F81.base.base
        assert all(x is y for x, y in zip(F81.tower, (F3, F9, F81)))
        assert len(F81.tower) == 3 and Q.tower == (Q,)
        ff = function_field(F9)
        assert ff.tower[:2] == (F3, F9) and ff.tower[2] is ff
        assert (F81.characteristic(), F81.is_finite(), F81.absolute_degree()) == (3, True, 4)
        assert (ff.characteristic(), ff.is_finite()) == (3, False)
        assert (function_field(Q).characteristic(), Q.is_finite()) == (0, False)

    def test_steps_need_a_base_below(self, Q):
        F81 = f81_over_f9()
        F9 = F81.base
        ff = function_field(F9)
        assert tower_steps(ff, ff) == () and tower_degree(F9, F9) == 1
        assert not is_ancestor(F81, F9) and not is_ancestor(Q, F9)
        # a taller base, a base from another tower, and a k(X) step over k
        for top, base in ((F9, F81), (F9, prime_field(5)), (F9, Q), (ff, F9)):
            with pytest.raises(DescriptorMismatch, match="is not below"):
                tower_steps(top, base)
            with pytest.raises(DescriptorMismatch, match="is not below"):
                tower_degree(top, base)


class TestKeys:
    @pytest.mark.parametrize("name", list(KEY_FIELDS))
    def test_keys_order_and_identify_within_a_field(self, name):
        """key() and coeff_key() order the elements and polynomials of one
        field as the kind-tagged keys did, and equal values hash alike."""
        K = KEY_FIELDS[name]()
        rng = random.Random(5)
        elems = [small_element(K, rng) for _ in range(30)]
        polys = [Polynomial(K, [small_element(K, rng) for _ in range(rng.randrange(4))])
                 for _ in range(30)]
        for xs, key, tagged in ((elems, lambda e: e.key(), tagged_element_key),
                                (polys, Polynomial.coeff_key, tagged_poly_key)):
            assert len(set(xs)) < len(xs)  # some values repeat
            for a in xs:
                for b in xs:
                    assert (key(a) < key(b)) == (tagged(a) < tagged(b))
                    assert (key(a) == key(b)) == (tagged(a) == tagged(b)) == (a == b)
                    assert a != b or hash(a) == hash(b)
            assert sorted(xs, key=key) == sorted(xs, key=tagged)


ONE_FIELDS = {"Q": rationals, "F_5": lambda: prime_field(5), "F_9": lambda: make_field(9),
              "F_81/F_9": f81_over_f9,
              "F_3(X)": lambda: function_field(prime_field(3)),
              "Q(X)": lambda: function_field(rationals())}


class TestIsOneAndHash:
    @pytest.mark.parametrize("name", list(ONE_FIELDS))
    def test_is_one_and_hash_read_the_value(self, name):
        """is_one agrees with == one() on ones made several ways and on
        other elements, over tabled and untabled fields; every hash is the
        hash of the key."""
        K = ONE_FIELDS[name]()
        rng = random.Random(11)
        elems = [small_element(K, rng) for _ in range(40)]
        elems += [K.one(), K.from_int(1), K.zero(), K.minus_one(), K.from_int(2)]
        elems += [e * e.inverse() for e in elems[:10] if not e.is_zero()]
        if K.kind == "extension":
            elems += [K.element((1,)), K.element((1, 1)), K.element((0, 1)), K.gen()]
            # the same values again, remade from their coefficients
            elems += [K.element(tuple(e.rep)) for e in elems]
        if K.kind == "function":
            c = Polynomial(K.base, [K.base.from_int(2)])
            elems += [K.element(RationalFunction(c, c)), K.element(c), K.gen()]
        ones = 0
        for e in elems:
            assert e.is_one() == (e == K.one())
            assert hash(e) == hash(e.key())
            ones += e.is_one()
        assert 0 < ones < len(elems)
        if K.kind == "rationals":
            assert hash(K.from_int(3)) == hash(3) == hash(Fraction(3))
            assert hash(K.element(Fraction(-7, 3))) == hash(Fraction(-7, 3))


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


def sylvester_rows(f, g):
    """The Sylvester matrix of f and g: deg g rows of f's coefficients, then
    deg f rows of g's, highest degree first."""
    n, m = f.degree, g.degree
    zero = f.field.zero()
    rows = [[zero] * i + list(reversed(f.coeffs)) + [zero] * (m - 1 - i) for i in range(m)]
    rows += [[zero] * i + list(reversed(g.coeffs)) + [zero] * (n - 1 - i) for i in range(n)]
    return rows


def sylvester_det(f, g):
    return Matrix(f.field, sylvester_rows(f, g)).det()


class TestResultant:
    """Euclid's resultant against the Sylvester determinant, on residues
    (F_7), table indices (F_9), elements (F_81 over F_9) and Q; "9-twin"
    takes the determinant over F_9 in its untabled twin's arithmetic."""

    @pytest.mark.parametrize("q", [7, 9, "9-twin", 81, 0])
    def test_sylvester_determinant(self, rng, q):
        k = f81_over_f9() if q == 81 else make_field(9 if q == "9-twin" else q)
        twin = TwinField.like(k) if q == "9-twin" else None
        for _ in range(30):
            f, g = (Polynomial(k, [random_element(k, rng, span=3)
                                   for _ in range(rng.randint(1, 5))] + [k.one()])
                    for _ in range(2))
            f = f * random_element(k, rng, span=3) if rng.random() < 0.3 else f
            if f.is_zero():
                continue
            if twin is None:
                assert poly_resultant(f, g) == sylvester_det(f, g)
                continue
            rows = [[twin(twin.read(x)) for x in r] for r in sylvester_rows(f, g)]
            det = gauss_jordan(rows, len(rows), twin(twin.one))[2]
            assert twin.read(poly_resultant(f, g)) == det.v

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
