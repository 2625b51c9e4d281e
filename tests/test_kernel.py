"""The polynomial kernel on its three coefficient kinds.

Residue ints with their prime p, lists of field elements with p None (Q,
F_9, F_81 over F_9, F_16, and the elements of F_9's untabled twin), and
lists of table indices with the field's table (F_9, F_27, F_16 over F_4) go
through the same routines. The checks are algebraic identities, so no second
implementation is needed as an oracle; the Polynomial tests at the end
compare the index path with the kernel on the untabled twin's elements, in
test-local arithmetic (conftest.TwinField).
"""

import random

import pytest

from mkt import zkernel
from mkt.errors import DivisionByZero
from mkt.fields import (Polynomial, extension, kernel_values, poly_gcd, poly_powmod,
                        poly_resultant, rationals)
from mkt.sampling import monic_irreducible, random_element, random_unit
from tests.conftest import TwinField, f16_over_f4, f81_over_f9, make_field

PRIMES = (2, 3, 7, 2 ** 31 - 1, 2 ** 61 - 1)

# one irreducible modulus per prime: X^4 + X + 1 over F_2, cubics without a root
# over F_3 and F_7, and X^2 + 1 for p = 3 (mod 4), where -1 is not a square
IRREDUCIBLE = {
    2: [1, 1, 0, 0, 1],
    3: [1, 2, 0, 1],
    7: [2, 0, 0, 1],
    2 ** 31 - 1: [1, 0, 1],
    2 ** 61 - 1: [1, 0, 1],
}


class Residues:
    """Coefficients are ints in [0, p)."""

    def __init__(self, p):
        self.p = p
        self.zero, self.one = 0, 1

    def coeff(self, rng):
        return rng.randint(0, self.p - 1)

    def irreducible(self, rng):
        return IRREDUCIBLE[self.p]


class Elements:
    """Coefficients are elements of one field; the kernel gets p = None."""

    p = None

    def __init__(self, field):
        self.field = field
        self.zero, self.one = field.zero(), field.one()

    def coeff(self, rng):
        return random_element(self.field, rng, span=3)

    def irreducible(self, rng):
        return list(monic_irreducible(self.field, rng, 3, span=3).coeffs)


class TwinCoefficients:
    """Coefficients are elements of F_9's untabled twin, in test-local
    arithmetic; the kernel gets p = None."""

    p = None

    def __init__(self):
        self.f9 = make_field(9)
        self.twin = TwinField.like(self.f9)
        self.zero, self.one = self.twin(self.twin.zero), self.twin(self.twin.one)

    def coeff(self, rng):
        return self.twin(rng.choice(self.twin.values()))

    def irreducible(self, rng):
        f = monic_irreducible(self.f9, rng, 3, span=3)
        return [self.twin(self.twin.read(c)) for c in f.coeffs]


class Indices:
    """Coefficients are indices into the table of a tabled field; the kernel
    gets the table."""

    zero, one = 0, 1

    def __init__(self, field):
        self.field = field
        self.p = field._table

    def coeff(self, rng):
        return rng.randrange(self.field.order())

    def irreducible(self, rng):
        f = monic_irreducible(self.field, rng, 3, span=3)
        return kernel_values(self.p, f.coeffs)


# each builds its coefficient kind inside the test; the residue kinds are
# named by their prime
KINDS = {str(p): (lambda p=p: Residues(p)) for p in PRIMES}
KINDS.update({
    "Q": lambda: Elements(rationals()),
    "F_9-coefficients": TwinCoefficients,
    "F_9-table": lambda: Elements(make_field(9)),
    "F_81/F_9": lambda: Elements(f81_over_f9()),
    "F_16": lambda: Elements(make_field(16)),
    "F_9-indices": lambda: Indices(make_field(9)),
    "F_27-indices": lambda: Indices(make_field(27)),
    "F_16/F_4-indices": lambda: Indices(f16_over_f4()),
})


@pytest.fixture(params=list(KINDS))
def kind(request):
    return KINDS[request.param]()


def rand_poly(kind, rng, max_deg=6):
    # canonical form: no trailing zeros (the kernel assumes trimmed input)
    return zkernel.trim([kind.coeff(rng) for _ in range(rng.randint(0, max_deg + 1))])


def test_backend_reported():
    assert zkernel.backend_name() == "pure"


def test_divmod_reconstructs(kind):
    rng, p = random.Random(3), kind.p
    for _ in range(25):
        a, b = rand_poly(kind, rng, 8), rand_poly(kind, rng, 4)
        if not b:
            with pytest.raises(DivisionByZero):
                zkernel.zp_divmod(a, b, p)
            continue
        q, r = zkernel.zp_divmod(a, b, p)
        assert zkernel.zp_add(zkernel.zp_mul(q, b, p), r, p) == a
        assert zkernel.zp_sub(a, r, p) == zkernel.zp_mul(b, q, p)
        assert len(r) < len(b)
        assert zkernel.zp_rem(a, b, p) == r


def test_gcd_is_monic_and_divides():
    for name in KINDS:
        kind = KINDS[name]()
        rng, p = random.Random(5), kind.p
        for _ in range(20):
            # a planted common factor c, so that most gcds are not 1
            c = rand_poly(kind, rng, 2)
            a = zkernel.zp_mul(c, rand_poly(kind, rng, 4), p)
            b = zkernel.zp_mul(c, rand_poly(kind, rng, 4), p)
            g = zkernel.zp_gcd(a, b, p)
            if not a and not b:
                assert g == []
                continue
            assert g[-1] == kind.one, name
            assert zkernel.zp_rem(a, g, p) == [] and zkernel.zp_rem(b, g, p) == [], name
            if a and b:
                assert zkernel.zp_rem(g, zkernel.zp_gcd(c, c, p), p) == [], name


def test_modular_inverse_and_power(kind):
    """invmod(a) * a = 1 modulo an irreducible f, and powmod agrees with
    repeated mulmod."""
    rng, p = random.Random(7), kind.p
    f = kind.irreducible(rng)
    for _ in range(15):
        a = rand_poly(kind, rng, 8)
        if zkernel.zp_rem(a, f, p):
            inv = zkernel.zp_invmod(a, f, p)
            assert len(inv) < len(f)
            assert zkernel.zp_mulmod(inv, a, f, p) == [kind.one]
        power = [kind.one]
        for e in range(8):
            assert zkernel.zp_powmod(a, e, f, p) == power
            power = zkernel.zp_mulmod(power, a, f, p)


def test_resultant_is_multiplicative(kind):
    """Res(a, b c) = Res(a, b) Res(a, c); the product of two coefficients is
    taken as a product of constant polynomials, in the kind's own terms."""
    rng, p = random.Random(23), kind.p
    for _ in range(15):
        a, b, c = (rand_poly(kind, rng, 4) for _ in range(3))
        if not (a and b and c):
            continue
        bc = zkernel.zp_resultant(a, zkernel.zp_mul(b, c, p), p)
        rb, rc = zkernel.zp_resultant(a, b, p), zkernel.zp_resultant(a, c, p)
        assert zkernel.trim([bc]) == zkernel.zp_mul([rb], [rc], p)


def test_inverse_of_a_zero_divisor_raises():
    """X divides the reducible modulus X^2 + X, so it has no inverse: the
    kernel raises DivisionByZero, a ZeroDivisionError, for every kind."""
    for name in KINDS:
        kind = KINDS[name]()
        zero, one = kind.zero, kind.one
        for a in ([zero, one], []):
            with pytest.raises(DivisionByZero):
                zkernel.zp_invmod(a, [zero, one, one], kind.p)


@pytest.mark.parametrize("base", ["F_5", "F_9"])
def test_zero_divisor_in_a_reducible_step_raises_the_typed_error(base):
    """X is a zero divisor modulo X^2 + X, which no field descriptor can
    have as its modulus. Its inverse in the kernel raises DivisionByZero on
    residues mod 5 and on F_9 table indices alike."""
    p = 5 if base == "F_5" else make_field(9)._table
    with pytest.raises(DivisionByZero) as err:
        zkernel.zp_invmod([0, 1], [0, 1, 1], p)
    assert isinstance(err.value, ZeroDivisionError)


def test_polynomial_operations_on_indices_match_the_untabled_twin():
    """Every Polynomial operation over the tabled F_9 runs on table indices.
    The kernel on the elements of F_9's untabled twin gives the same
    coefficients, and the twin's own arithmetic gives the same product and
    inverse in a degree-3 step over F_9."""
    F9 = make_field(9)
    twin = TwinField.like(F9)
    rng = random.Random(13)

    def poly(deg):
        return Polynomial(F9, [random_element(F9, rng) for _ in range(deg)]
                          + [random_unit(F9, rng)])

    def coeffs(f):
        """f's coefficients in the twin; each is F_9's interned table element."""
        assert all(c is F9._table.elems[c.ix] for c in f.coeffs)
        return [twin(twin.read(c)) for c in f.coeffs]

    for _ in range(20):
        f, g, m = poly(rng.randint(0, 7)), poly(rng.randint(0, 4)), poly(3)
        a, b = coeffs(f), coeffs(g)
        quo, rem = zkernel.zp_divmod(a, b, None)
        cube = zkernel.zp_mul(zkernel.zp_mul(a, a, None), a, None)
        monic = zkernel.zp_scale(a, a[-1].inverse(), None)
        slope = zkernel.trim([c * i for i, c in enumerate(a)][1:])
        for got, want in ((f + g, zkernel.zp_add(a, b, None)), (f - g, zkernel.zp_sub(a, b, None)),
                          (f * g, zkernel.zp_mul(a, b, None)), (f // g, quo), (f % g, rem),
                          (poly_gcd(f, g), zkernel.zp_gcd(a, b, None)),
                          (f * g.lc(), zkernel.zp_scale(a, b[-1], None)),
                          (poly_powmod(f, 11, g), zkernel.zp_powmod(a, 11, b, None)),
                          (-f, [-c for c in a]), (f ** 3, cube), (f.monic(), monic),
                          (f.derivative(), slope)):
            assert coeffs(got) == want
        assert twin.read(poly_resultant(m, g)) == zkernel.zp_resultant(coeffs(m), b, None).v
    L = extension(F9, monic_irreducible(F9, rng, 3))
    step = TwinField.like(L)
    for _ in range(20):
        x, y = random_unit(L, rng), random_unit(L, rng)
        assert step.read(x * y) == step.mul(step.read(x), step.read(y))
        assert step.read(x.inverse()) == step.inv(step.read(x))
    assert L._table is None
