"""Local symbols and the joint determinants built on the reduction map."""

import random
from fractions import Fraction

import pytest

from mkt.canonical import canonical_class
from mkt.commuting import MatrixTuple, class_of_tuple
from mkt.errors import (BadModulus, DegenerateInput, UnsupportedCombination,
                        ZeroInput)
from mkt.fields import prime_field, rationals
from mkt.jointdet import (JointDeterminant, check_axioms, hilbert, legendre,
                          make_determinant)
from mkt.linalg import Matrix
from mkt.sampling import commuting_tuple
from mkt.symbols import symbol
from mkt.valuations import rational_prime, real_place

Qf = rationals()


def scalar_tuple(field, *vals):
    return MatrixTuple.scalars(field, [field.element(v) for v in vals])


def scalar_block_tuple(field, n, *vals):
    # each slot is v * I_n, so every composition factor repeats n times
    mats = [Matrix.identity(field, n).map_entries(lambda e: e * field.element(v))
            for v in vals]
    return MatrixTuple(field, mats)


# ---------------------------------------------------------------------------
# independent oracle: (a, b)_p = 1 iff z^2 = a x^2 + b y^2 has a primitive
# solution mod p^3, for odd p and exponents at most 1 after square cleanup


def conic_solvable(a: int, b: int, p: int) -> bool:
    m = p ** 3
    buckets: dict = {}
    for y in range(m):
        buckets.setdefault((b * y * y) % m, []).append(y)
    for x in range(m):
        ax2 = (a * x * x) % m
        for z in range(m):
            r = (z * z - ax2) % m
            for y in buckets.get(r, ()):
                if x % p or y % p or z % p:
                    return True
    return False


class TestLegendre:
    def test_small_table(self):
        # [DERIVED] squares mod 3 are {1}; mod 5 are {1, 4}; mod 7 are {1, 2, 4}
        assert legendre(1, 3) == 1 and legendre(2, 3) == -1
        assert legendre(4, 5) == 1 and legendre(2, 5) == -1
        assert legendre(2, 7) == 1 and legendre(3, 7) == -1

    def test_square_scan(self):
        """[DERIVED] brute-force residue scan over several odd primes."""
        for p in (3, 5, 7, 11, 13):
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (1 if a in squares else -1)

    def test_multiplicative(self, rng):
        for _ in range(50):
            p = rng.choice([3, 5, 7, 11])
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_fraction_input(self):
        # 1/2 = 3 mod 5, a non-residue
        assert legendre(Fraction(1, 2), 5) == -1
        assert legendre(Qf.element(Fraction(1, 2)), 5) == -1

    def test_prime_field_element_input(self):
        F7 = prime_field(7)
        assert legendre(F7.element(2), 7) == 1
        with pytest.raises(BadModulus):
            legendre(F7.element(2), 5)

    def test_errors(self):
        with pytest.raises(BadModulus):
            legendre(3, 2)
        with pytest.raises(BadModulus):
            legendre(3, 9)
        with pytest.raises(ZeroInput):
            legendre(10, 5)
        with pytest.raises(ZeroInput):
            legendre(Fraction(1, 5), 5)


class TestHilbert:
    def test_real_place_rule(self):
        # [TRIVIAL] -1 exactly when both arguments are negative
        assert hilbert(-1, -1, "inf") == -1
        assert hilbert(-1, 2, "inf") == 1
        assert hilbert(2, 3, "inf") == 1
        assert hilbert(Fraction(-1, 2), -7, "inf") == -1

    def test_hand_values(self):
        # [DERIVED] (2,3) at 3: tame component is 2, a non-residue mod 3
        assert hilbert(2, 3, 3) == -1
        # [DERIVED] classical 2-adic values
        assert hilbert(-1, -1, 2) == -1
        assert hilbert(2, 2, 2) == 1
        assert hilbert(2, 5, 2) == -1
        assert hilbert(2, 7, 2) == 1

    def test_conic_oracle_p3(self, rng):
        """[DERIVED] solvability of z^2 = a x^2 + b y^2 over Z_3."""
        vals = [1, -1, 2, -2, 3, -3, 5, 6, -6, 7]
        for _ in range(25):
            a, b = rng.choice(vals), rng.choice(vals)
            assert (hilbert(a, b, 3) == 1) == conic_solvable(a, b, 3)

    def test_conic_oracle_p5(self, rng):
        vals = [1, -1, 2, 3, 5, -5, 7, 10, -10]
        for _ in range(8):
            a, b = rng.choice(vals), rng.choice(vals)
            assert (hilbert(a, b, 5) == 1) == conic_solvable(a, b, 5)

    def test_symmetry_and_bilinearity(self, rng):
        places = ["inf", 2, 3, 5, 7]
        for _ in range(100):
            v = rng.choice(places)
            a = Fraction(rng.choice([1, -1, 2, 3, 5, -2, 7]),
                         rng.choice([1, 2, 3, 5]))
            b = Fraction(rng.choice([1, -1, 2, 3, 5, -3, 11]),
                         rng.choice([1, 2, 7]))
            c = Fraction(rng.choice([1, -1, 2, 3, -5]), 1)
            assert hilbert(a, b, v) == hilbert(b, a, v)
            assert hilbert(a * c, b, v) == hilbert(a, b, v) * hilbert(c, b, v)

    def test_steinberg(self, rng):
        # (a, 1-a) is 1 at every place
        for _ in range(60):
            a = Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
            if a == 0 or a == 1:
                continue
            for v in ("inf", 2, 3, 5, 7, 11):
                assert hilbert(a, 1 - a, v) == 1

    def test_product_formula(self, rng):
        """[PAPER] the local symbols of a fixed pair multiply to 1."""
        for _ in range(100):
            a = Fraction(rng.choice([1, -1]) * rng.randrange(1, 400),
                         rng.randrange(1, 60))
            b = Fraction(rng.choice([1, -1]) * rng.randrange(1, 400),
                         rng.randrange(1, 60))
            primes = set()
            for q in (a, b):
                for n in (q.numerator, q.denominator):
                    n = abs(n)
                    d = 2
                    while d * d <= n:
                        while n % d == 0:
                            primes.add(d)
                            n //= d
                        d += 1
                    if n > 1:
                        primes.add(n)
            primes.add(2)
            total = hilbert(a, b, "inf")
            for p in sorted(primes):
                total *= hilbert(a, b, p)
            assert total == 1

    def test_valuation_place_argument(self):
        assert hilbert(2, 3, rational_prime(3)) == hilbert(2, 3, 3)
        assert hilbert(-2, -3, real_place()) == -1

    def test_errors(self):
        with pytest.raises(ZeroInput):
            hilbert(0, 3, 5)
        with pytest.raises(BadModulus):
            hilbert(2, 3, 6)
        with pytest.raises(DegenerateInput):
            hilbert(2, 3, "nowhere")


class TestMakeDeterminant:
    def test_real_sign_values(self):
        d = make_determinant(Qf, 2, "real-sign")
        # [PAPER] the all-negative pair is the nontrivial value
        assert d(scalar_tuple(Qf, -1, -1)) == -1
        assert d(scalar_tuple(Qf, 2, -5)) == 1
        assert d(scalar_tuple(Qf, -2, -5)) == -1
        d3 = make_determinant(Qf, 3, "real-sign")
        assert d3(scalar_tuple(Qf, -1, -1, -1)) == -1
        assert d3(scalar_tuple(Qf, -1, 2, -1)) == 1

    def test_real_sign_multiplicity_parity(self, rng):
        """[DERIVED] scalar blocks of size n contribute their sign n times."""
        for _ in range(30):
            l = rng.choice([2, 3])
            n = rng.choice([1, 2, 3])
            vals = [rng.choice([-1, -2, -3, Fraction(-1, 2)]) for _ in range(l)]
            d = make_determinant(Qf, l, "real-sign")
            x = scalar_block_tuple(Qf, n, *vals)
            assert d(x) == (-1) ** n

    def test_rational_hilbert_weight2(self):
        d = make_determinant(Qf, 2, "rational-hilbert", places=[3])
        assert d(scalar_tuple(Qf, 2, 3)) == -1
        d2 = make_determinant(Qf, 2, "rational-hilbert", places=["inf", 3])
        assert d2(scalar_tuple(Qf, 2, 3)) == -1
        assert d2(scalar_tuple(Qf, -1, -1)) == -1  # (+1 at 3) * (-1 at inf)

    def test_rational_hilbert_matches_local_symbols(self, rng):
        """[DERIVED] the determinant of a scalar pair is the product of its
        Hilbert symbols over the chosen places."""
        places = ["inf", 2, 3, 5]
        d = make_determinant(Qf, 2, "rational-hilbert", places=places)
        for _ in range(40):
            a = Fraction(rng.choice([1, -1]) * rng.randrange(1, 40),
                         rng.randrange(1, 12))
            b = Fraction(rng.choice([1, -1]) * rng.randrange(1, 40),
                         rng.randrange(1, 12))
            want = 1
            for v in places:
                want *= hilbert(a, b, v)
            assert d(scalar_tuple(Qf, a, b)) == want

    def test_rational_hilbert_agrees_with_the_class_derivation(self):
        """The evaluator multiplies local Hilbert symbols over the reduced
        expression. At each single place it agrees with the derivation from
        the canonical class: eps at inf, the Legendre symbol of the tame
        residue at odd p, and the product formula at 2."""

        def from_class(cls, place):
            if place == "inf":
                return cls.eps
            if place == 2:
                out = cls.eps
                for p, r in cls.tame.items():
                    out *= legendre(r, p)
                return out
            r = cls.tame.get(place)
            return 1 if r is None else legendre(r, place)

        rng = random.Random(37)
        places = ("inf", 2, 3, 5, 7, 11)
        dets = {t: make_determinant(Qf, 2, "rational-hilbert", places=[t])
                for t in places}
        minus = dict.fromkeys(places, 0)
        for _ in range(37):
            x = commuting_tuple(Qf, rng, 2, rng.randint(1, 3))
            cls = class_of_tuple(x)
            for t in places:
                got = dets[t](x)
                assert got == from_class(cls, t), (x, t)
                minus[t] += got == -1
        # the sample reaches the nontrivial value at every small place
        assert all(minus[t] >= 3 for t in ("inf", 2, 3, 5)), minus

    def test_rational_hilbert_weight3_uses_real_sign(self):
        d = make_determinant(Qf, 3, "rational-hilbert", places=[3, 5])
        assert d(scalar_tuple(Qf, -1, -1, -1)) == -1
        assert d(scalar_tuple(Qf, 2, 3, 5)) == 1

    def test_finite_field_trivial(self, rng):
        F7 = prime_field(7)
        d = make_determinant(F7, 2, "finite-field-trivial")
        for _ in range(20):
            assert d(commuting_tuple(F7, rng, 2, rng.randint(1, 3))) == 1

    def test_universal_is_the_class(self, rng):
        d = make_determinant(Qf, 2, "universal")
        x = commuting_tuple(Qf, rng, 2, 2)
        y = commuting_tuple(Qf, rng, 2, 2)
        assert d(x) == class_of_tuple(x)
        assert d(x.direct_sum(y)) == d(x) + d(y)

    def test_universal_scalar_pair(self):
        d = make_determinant(Qf, 2, "universal")
        t = scalar_tuple(Qf, 2, 3)
        assert d(t) == canonical_class(
            symbol([Qf.element(2), Qf.element(3)]))

    def test_label(self):
        d = make_determinant(Qf, 2, "rational-hilbert", places=[5, "inf", 3])
        assert d.label == "rational-hilbert(3, 5, inf)"
        assert make_determinant(Qf, 2, "real-sign").label == "real-sign"

    def test_unsupported_combinations(self):
        F5 = prime_field(5)
        with pytest.raises(UnsupportedCombination):
            make_determinant(F5, 2, "real-sign")
        with pytest.raises(UnsupportedCombination):
            make_determinant(F5, 2, "rational-hilbert", places=[3])
        with pytest.raises(UnsupportedCombination):
            make_determinant(Qf, 1, "rational-hilbert", places=[3])
        with pytest.raises(UnsupportedCombination):
            make_determinant(Qf, 2, "rational-hilbert")
        with pytest.raises(UnsupportedCombination):
            make_determinant(Qf, 2, "finite-field-trivial")
        with pytest.raises(UnsupportedCombination):
            make_determinant(prime_field(5), 1, "finite-field-trivial")
        with pytest.raises(UnsupportedCombination):
            make_determinant(Qf, 0, "universal")
        with pytest.raises(UnsupportedCombination):
            make_determinant(Qf, 2, "no-such-spec")

    def test_argument_guards(self):
        d = make_determinant(Qf, 2, "real-sign")
        with pytest.raises(DegenerateInput):
            d(scalar_tuple(Qf, 2, 3, 5))
        with pytest.raises(DegenerateInput):
            d(scalar_tuple(prime_field(5), 2, 3))


class TestAxioms:
    def test_real_sign_clean(self):
        d = make_determinant(Qf, 2, "real-sign")
        assert check_axioms(d, trials=15, rng=random.Random(11)) == []

    def test_rational_hilbert_clean(self):
        d = make_determinant(Qf, 2, "rational-hilbert", places=["inf", 3, 5])
        assert check_axioms(d, trials=15, rng=random.Random(12)) == []

    def test_finite_trivial_clean(self):
        d = make_determinant(prime_field(7), 2, "finite-field-trivial")
        assert check_axioms(d, trials=15, rng=random.Random(13)) == []

    def test_universal_weight1_clean(self):
        d = make_determinant(Qf, 1, "universal")
        assert check_axioms(d, trials=15, rng=random.Random(14)) == []

    def test_slot_one_reader_breaks_identity_slot_and_swap(self, rng):
        # the class of (m1, m1) ignores slot 0, so an identity there leaves
        # the value {-1, det m1}, and a swap adds rather than cancels
        def ev(x):
            m1 = x.matrices[1]
            return class_of_tuple(MatrixTuple(Qf, [m1, m1]))

        d = JointDeterminant(Qf, 2, "slot-1", evaluator=ev)
        report = check_axioms(d, trials=6, rng=rng)
        assert any(m.startswith("identity slot not trivial") for m in report)
        assert any(m.startswith("swap did not invert") for m in report)
