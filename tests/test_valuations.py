"""Places of k(X) and Q, the tame symbol algorithm, and reciprocity sums."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from mkt.canonical import canonical_class
from mkt.errors import ZeroInput
from mkt.fields import (Polynomial, RationalFunction, element_from_poly,
                        function_field, prime_field, rationals)
from mkt.sampling import monic_irreducible, random_unit
from mkt.symbols import MilnorExpression, symbol
from mkt.transfer import reciprocity_check
from mkt.valuations import (_residue_split, finite_place, infinite_place, rational_prime,
                            support, tame_symbol, unit_part, valuate)

Qf = rationals()


def ffq(q=0):
    from tests.conftest import make_field
    return function_field(make_field(q))


def poly(field, ints):
    return Polynomial.from_ints(field, ints)


class TestValuate:
    def test_infinite_place_degree(self):
        # [PAPER] v_inf(f) = -deg f
        ff = ffq()
        v = infinite_place(ff)
        x = ff.element(poly(Qf, [1, 0, 0, 1]))  # X^3 + 1
        assert valuate(v, x) == -3

    def test_finite_place_order(self):
        # [TRIVIAL] (X-1)^2 / X vanishes to order 2 at X-1
        ff = ffq()
        v = finite_place(ff, poly(Qf, [-1, 1]))
        x = ff.element(RationalFunction(poly(Qf, [1, -2, 1]), poly(Qf, [0, 1])))
        assert valuate(v, x) == 2

    def test_rational_prime(self):
        # [TRIVIAL] v_3(18/5) = 2
        v = rational_prime(3)
        assert valuate(v, Qf.element(Fraction(18, 5))) == 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            valuate(rational_prime(3), Qf.element(0))

    def test_multiplicative_and_ultrametric(self, rng):
        ff = ffq(5)
        F5 = prime_field(5)
        places = [finite_place(ff, poly(F5, [1, 1])), infinite_place(ff)]
        for _ in range(30):
            f = ff.element(Polynomial(F5, [F5.from_int(rng.randint(0, 4))
                                           for _ in range(rng.randint(1, 4))]
                                      + [F5.one()]))
            g = ff.element(Polynomial(F5, [F5.from_int(rng.randint(0, 4))
                                           for _ in range(rng.randint(1, 4))]
                                      + [F5.one()]))
            for v in places:
                assert valuate(v, f * g) == valuate(v, f) + valuate(v, g)
                s = f + g
                if not s.is_zero():
                    assert valuate(v, s) >= min(valuate(v, f), valuate(v, g))


class TestUnitPart:
    def test_pure_power(self):
        ff = ffq()
        v = finite_place(ff, poly(Qf, [0, 1]))
        n, u = unit_part(v, ff.element(poly(Qf, [0, 0, 1])))
        assert n == 2 and u == ff.one()

    def test_mixed(self):
        # [TRIVIAL] X^3 + X = X (X^2 + 1)
        ff = ffq()
        v = finite_place(ff, poly(Qf, [0, 1]))
        n, u = unit_part(v, ff.element(poly(Qf, [0, 1, 0, 1])))
        assert n == 1
        assert u == ff.element(poly(Qf, [1, 0, 1]))

    def test_rational(self):
        # [TRIVIAL] 12 = 2^2 * 3
        n, u = unit_part(rational_prime(2), Qf.element(12))
        assert n == 2 and u == Qf.element(3)

    def test_reconstruction(self, rng):
        ff = ffq(3)
        F3 = prime_field(3)
        pi = poly(F3, [1, 1])
        v = finite_place(ff, pi)
        for _ in range(20):
            num = Polynomial(F3, [F3.from_int(rng.randint(0, 2))
                                  for _ in range(rng.randint(1, 3))] + [F3.one()])
            x = ff.element(num)
            n, u = unit_part(v, x)
            assert x == ff.element(pi) ** n * u
            assert valuate(v, u) == 0


class TestTameSymbol:
    def test_defining_clause(self):
        # [PAPER] tame at v_X of {c, X} is {c-bar}, v(X) = 1
        ff = ffq(5)
        F5 = prime_field(5)
        v = finite_place(ff, poly(F5, [0, 1]))
        c = ff.element(poly(F5, [3]))
        t = tame_symbol(v, symbol([c, ff.gen()], field=ff))
        assert list(t.items()) == [((F5.from_int(3),), 1)]

    def test_unit_residue_one_kills_term(self):
        # [TRIVIAL] at X-1 the unit X reduces to 1
        ff = ffq()
        v = finite_place(ff, poly(Qf, [-1, 1]))
        t = tame_symbol(v, symbol([ff.gen(), ff.gen() - ff.one()], field=ff))
        assert t.is_zero()

    def test_infinite_place_pair(self):
        """[DERIVED] tame at v_inf of {X, X-1} is {-1}.

        Cross-checked by the reciprocity sum over all places vanishing.
        """
        ff = ffq()
        v = infinite_place(ff)
        t = tame_symbol(v, symbol([ff.gen(), ff.gen() - ff.one()], field=ff))
        assert canonical_class(t) == canonical_class(symbol([Qf.element(-1)]))
        cls, _ = reciprocity_check(symbol([ff.gen(), ff.gen() - ff.one()],
                                          field=ff))
        assert cls.is_zero()

    def test_infinite_place_monic_product_rule(self, rng):
        """[PAPER] tame at v_inf of monic {f_0,...,f_l} is
        (-1)^(l+1) deg f_0 ... deg f_l {-1,...,-1}."""
        F = prime_field(3)
        ff = function_field(F)
        for l in (1, 2):
            fs = [monic_irreducible(F, rng, rng.randint(1, 3))
                  for _ in range(l + 1)]
            w = symbol([ff.element(f) for f in fs], field=ff)
            t = tame_symbol(infinite_place(ff), w)
            degs = 1
            for f in fs:
                degs *= len(f.coeffs) - 1
            sign = (-1) ** (l + 1)
            expect = (sign * degs) * symbol([F.from_int(-1)] * l, field=F)
            assert canonical_class(t) == canonical_class(expect)

    def test_steinberg_killed_at_every_place(self, rng):
        # tame of {f, 1-f} * anything is zero at every place, class level
        ff = ffq(5)
        F5 = prime_field(5)
        for _ in range(10):
            f = ff.element(Polynomial(F5, [F5.from_int(rng.randint(0, 4)),
                                           F5.from_int(rng.randint(1, 4))]))
            one_minus = ff.one() - f
            if f.is_zero() or one_minus.is_zero():
                continue
            w = symbol([f, one_minus], field=ff)
            for v in support(w):
                assert canonical_class(tame_symbol(v, w)).is_zero()

    def test_permutation_sign(self):
        ff = ffq(5)
        F5 = prime_field(5)
        v = finite_place(ff, poly(F5, [0, 1]))
        a = ff.element(poly(F5, [1, 1]))
        w1 = symbol([a, ff.gen()], field=ff)
        w2 = symbol([ff.gen(), a], field=ff)
        t1 = tame_symbol(v, w1)
        t2 = tame_symbol(v, w2)
        assert canonical_class(t1 + t2).is_zero()


def textbook_residue(v, u):
    """The residue of a v-unit u: u(root of pi) in k[x]/(pi), u at X = oo,
    or a / b mod p."""
    if v.kind == "prime":
        q = u.rep
        return v.residue_field().from_int(q.numerator) / q.denominator
    num, den = u.rep.num, u.rep.den
    if v.kind == "infinite":
        # u(1/t) = t^d num(1/t) / (t^d den(1/t)), deg num = deg den = d, at t = 0
        rev = lambda f: Polynomial(f.field, f.coeffs[::-1])
        return rev(num).constant_term() / rev(den).constant_term()
    kv = v.residue_field()
    if v.pi.degree == 1:
        root = -v.pi.constant_term()
        return num.evaluate(root) / den.evaluate(root)
    return element_from_poly(kv, num % v.pi) / element_from_poly(kv, den % v.pi)


def reference_tame(v, x):
    """The boundary map by its definition: write each entry as pi^n u
    (unit_part), expand every symbol multilinearly over the choice of pi or
    u per entry, turn the second and later pi of a choice into -1, move the
    first pi to the last slot, and strip it, leaving textbook residues."""
    kv = v.residue_field()
    out = {}
    for entries, coeff in x.items():
        parts = [unit_part(v, e) for e in entries]
        for choice in product((False, True), repeat=len(parts)):
            if not any(choice) or any(c and n == 0 for c, (n, _) in zip(choice, parts)):
                continue
            first = choice.index(True)
            mult = coeff * (-1) ** (len(parts) - 1 - first)
            res = []
            for i, (c, (n, u)) in enumerate(zip(choice, parts)):
                if c:
                    mult *= n
                if i != first:
                    res.append(kv.minus_one() if c else textbook_residue(v, u))
            if any(r.is_one() for r in res):
                continue
            out[tuple(res)] = out.get(tuple(res), 0) + mult
    return MilnorExpression(kv, x.weight - 1, out)


def oracle_places():
    """(name, place): finite places of degree 1, 2 and 3 over F_9(X) and
    F_4(X), their infinite places, places of Q(X) and primes of Q."""
    from tests.conftest import make_field
    rng = random.Random(3)
    out = []
    for q in (9, 4):
        ff = function_field(make_field(q))
        for d in (1, 2, 3):
            out.append((f"F_{q}(X) deg {d}",
                        finite_place(ff, monic_irreducible(ff.base, rng, d))))
        out.append((f"F_{q}(X) inf", infinite_place(ff)))
    qx = function_field(Qf)
    out.append(("Q(X) X-2", finite_place(qx, poly(Qf, [-2, 1]))))
    out.append(("Q(X) X^2+1", finite_place(qx, poly(Qf, [1, 0, 1]))))
    out.append(("Q(X) inf", infinite_place(qx)))
    out += [(f"Q at {p}", rational_prime(p)) for p in (2, 3, 5)]
    return out


def oracle_entry(v, rng, shape):
    """A nonzero entry of v's field: 'den' has a denominator divisible by
    pi (or p), 'num2' a numerator divisible by pi^2, 'plain' denominator 1."""
    if v.kind == "prime":
        p = v.p
        a, b = rng.choice((1, -1)) * rng.randint(1, 40), rng.randint(1, 40)
        if shape == "den":
            b *= p ** rng.randint(1, 2)
        elif shape == "num2":
            a *= p ** rng.randint(2, 3)
        else:
            b = 1
        return Qf.element(Fraction(a, b))
    ff = v.field
    k = ff.base
    span = 3
    rand_poly = lambda d: Polynomial(k, [random_unit(k, rng, span) for _ in range(d + 1)])
    pi = v.pi if v.kind == "finite" else poly(k, [0, 1])  # X stands in at oo
    num, den = rand_poly(rng.randint(0, 2)), rand_poly(rng.randint(0, 2)).monic()
    if shape == "den":
        den = den * pi ** rng.randint(1, 2)
    elif shape == "num2":
        num = num * pi ** rng.randint(2, 3)
    else:
        den = Polynomial.one(k)
    return ff.element(RationalFunction(num, den))


class TestResidueOracle:
    @pytest.mark.parametrize("name,v", oracle_places(), ids=[n for n, _ in oracle_places()])
    def test_tame_symbol_matches_the_definition(self, name, v):
        """tame_symbol, which reads residues off its trial divisions, equals
        the expansion from unit_part and textbook residues, on seeded
        symbols of weight 1 to 3 mixing all three entry shapes."""
        rng = random.Random(sum(map(ord, name)))
        shapes = ("den", "num2", "plain")
        seen = set()
        for trial in range(24):
            weight = 1 + trial % 3
            terms = {}
            for _ in range(rng.randint(1, 2)):
                entries = tuple(oracle_entry(v, rng, rng.choice(shapes))
                                for _ in range(weight))
                terms[entries] = rng.choice((1, -1, 2))
            x = MilnorExpression(v.field, weight, terms)
            seen.update(valuate(v, e) for entries in terms for e in entries)
            assert tame_symbol(v, x) == reference_tame(v, x)
        assert min(seen) < 0 and max(seen) > 1  # poles and double zeros occurred


def every_subset_tame(v, x):
    """The boundary map by enumerating every nonempty subset of the entries
    of nonzero valuation and dropping a subset's term when some other entry
    is one: the enumeration tame_symbol ran before it visited only the free
    entries."""
    kv = v.residue_field()
    minus1 = kv.minus_one()
    acc = {}
    for entries, coeff in x.items():
        m = len(entries)
        vals, residues = zip(*[_residue_split(v, kv, e) for e in entries])
        positions = [i for i in range(m) if vals[i] != 0]
        npos = len(positions)
        for mask in range(1, 1 << npos):
            subset = [positions[b] for b in range(npos) if mask >> b & 1]
            mult = coeff
            for i in subset:
                mult *= vals[i]
            j0 = subset[0]
            chosen = set(subset)
            res_entries = []
            dead = False
            for i in range(m):
                if i == j0:
                    continue
                val = minus1 if i in chosen else residues[i]
                if val.is_one():
                    dead = True
                    break
                res_entries.append(val)
            if dead:
                continue
            if (m - 1 - j0) % 2:
                mult = -mult
            key = tuple(res_entries)
            acc[key] = acc.get(key, 0) + mult
    return MilnorExpression._trusted(kv, x.weight - 1, acc)


class TestBoundaryEnumeration:
    @pytest.mark.parametrize("p", [2, 3, 31])
    def test_free_entries_match_every_subset(self, p):
        """Symbols of weight 1 to 5 over F_p(X), their entries products of a
        few shared polynomials times constants, so that many entries have a
        nonzero valuation and their residues are one or not: at every place
        of the support, tame_symbol equals the full enumeration."""
        k = prime_field(p)
        ff = function_field(k)
        rng = random.Random(p)
        pool = [poly(k, [rng.randrange(p), 1]) for _ in range(3)]
        pool.append(monic_irreducible(k, rng, 2))
        pool.append(Polynomial.x(k))

        def entry():
            num = Polynomial.constant(random_unit(k, rng))
            for _ in range(rng.randint(0, 2)):
                num = num * rng.choice(pool)
            den = rng.choice(pool) if rng.random() < 0.3 else Polynomial.one(k)
            return ff.element(RationalFunction(num, den))

        compared = 0
        for trial in range(40):
            weight = 1 + trial % 5
            terms = {tuple(entry() for _ in range(weight)): rng.choice((1, -1, 2))
                     for _ in range(rng.randint(1, 2))}
            x = MilnorExpression(ff, weight, terms)
            for v in support(x):
                assert tame_symbol(v, x) == every_subset_tame(v, x)
                compared += 1
        assert compared >= 100

    def test_twenty_entries_of_residue_one(self):
        """{X+1, ..., X+20} over F_31 at infinity: every entry has valuation
        -1 and residue 1, so one subset of the 2^20 - 1 gives a term."""
        k = prime_field(31)
        ff = function_field(k)
        x = symbol([ff.element(poly(k, [c, 1])) for c in range(1, 21)], field=ff)
        start = time.process_time()
        t = tame_symbol(infinite_place(ff), x)
        assert time.process_time() - start < 0.5
        assert len(t.items()) == 1


class TestSupport:
    def test_linear_pair(self):
        # [TRIVIAL] {X, X-1} can only ramify at X, X-1, and infinity
        ff = ffq()
        w = symbol([ff.gen(), ff.gen() - ff.one()], field=ff)
        pis = sorted(str(v.pi) for v in support(w) if v.pi is not None)
        assert len(support(w)) == 3 and len(pis) == 2

    def test_constants(self):
        # [TRIVIAL] constants are units at every finite place
        ff = ffq()
        w = symbol([ff.element(poly(Qf, [2])), ff.element(poly(Qf, [3]))],
                   field=ff)
        vs = support(w)
        assert all(v.pi is None for v in vs)  # at most v_inf
        for v in vs:
            assert tame_symbol(v, w).is_zero()

    def test_factored_support_over_f3(self):
        """[DERIVED] X^2+2 = (X+1)(X+2) over F_3, so {X^2+2, X} ramifies at four places."""
        F3 = prime_field(3)
        ff = function_field(F3)
        w = symbol([ff.element(poly(F3, [2, 0, 1])), ff.gen()], field=ff)
        places = support(w)
        pis = {str(v.pi) for v in places if v.pi is not None}
        assert len(pis) == 3  # X+1, X+2, X
        assert any(v.pi is None for v in places)
        # and support never hands back a reducible uniformizer
        w2 = symbol([ff.element(poly(F3, [1, 0, 1])), ff.gen()], field=ff)
        assert {str(v.pi) for v in support(w2) if v.pi is not None} \
            == {"X", "X^2 + 1"}  # X^2+1 stays irreducible over F_3


class TestReciprocity:
    def test_linear_pair_over_q(self):
        """[DERIVED] {X, X-1} over Q(X): {-1} at v_X plus {-1} at v_(X-1)... sums to zero."""
        ff = ffq()
        w = symbol([ff.gen(), ff.gen() - ff.one()], field=ff)
        cls, rows = reciprocity_check(w)
        assert cls.is_zero()
        nonzero = [r for r in rows if not canonical_class(r[2]).is_zero()]
        assert len(nonzero) == 2

    def test_constants_trivial(self):
        # [TRIVIAL]
        ff = ffq(3)
        F3 = prime_field(3)
        w = symbol([ff.element(poly(F3, [2])), ff.element(poly(F3, [2]))],
                   field=ff)
        cls, _ = reciprocity_check(w)
        assert cls.is_zero()

    def test_random_monic_triples_f5(self, rng):
        # [DERIVED] the core randomized identity
        F5 = prime_field(5)
        ff = function_field(F5)
        for _ in range(10):
            fs = []
            while len(fs) < 3:
                f = monic_irreducible(F5, rng, rng.randint(1, 3))
                if f not in fs:
                    fs.append(f)
            w = symbol([ff.element(f) for f in fs], field=ff)
            cls, _ = reciprocity_check(w)
            assert cls.is_zero()
