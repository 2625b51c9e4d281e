"""The polynomial kernel on its three coefficient kinds.

Residue ints with their prime p, lists of field elements with p None (Q,
F_9 with and without a table, F_81 over F_9, F_16), and lists of table
indices with the field's table (F_9, F_27, F_16 over F_4) go through the
same routines. The checks are algebraic identities, so no second
implementation is needed as an oracle; the Polynomial tests at the end
compare the index path with the element path of an untabled twin.
"""

import random
import sys

import pytest

from mkt import zkernel
from mkt.errors import DivisionByZero
from mkt.factor import poly_powmod
from mkt.fields import (Polynomial, extension, kernel_values, poly_gcd, poly_resultant,
                        rationals)
from mkt.sampling import monic_irreducible, random_element, random_unit
from tests.conftest import f16_over_f4, f81_over_f9, make_field, twin_element, untabled_twin

fields_module = sys.modules["mkt.fields"]

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


# each builds its coefficient kind inside the test, after the caches are reset;
# the residue kinds are named by their prime
KINDS = {str(p): (lambda p=p: Residues(p)) for p in PRIMES}
KINDS.update({
    "Q": lambda: Elements(rationals()),
    "F_9-coefficients": lambda: Elements(untabled_twin(make_field(9))),
    "F_9-table": lambda: Elements(make_field(9)),
    "F_81/F_9": lambda: Elements(f81_over_f9()),
    "F_16": lambda: Elements(make_field(16)),
    "F_9-indices": lambda: Indices(make_field(9)),
    "F_27-indices": lambda: Indices(make_field(27)),
    "F_16/F_4-indices": lambda: Indices(f16_over_f4()),
})


def make_kind(name):
    fields_module.forget()
    return KINDS[name]()


@pytest.fixture(params=list(KINDS))
def kind(request):
    yield make_kind(request.param)
    fields_module.forget()


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
        kind = make_kind(name)
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
    fields_module.forget()


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
        kind = make_kind(name)
        zero, one = kind.zero, kind.one
        for a in ([zero, one], []):
            with pytest.raises(DivisionByZero):
                zkernel.zp_invmod(a, [zero, one, one], kind.p)
    fields_module.forget()


@pytest.mark.parametrize("base", ["F_5", "F_9"])
def test_zero_divisor_in_a_reducible_step_raises_the_typed_error(base):
    """X is a zero divisor modulo X^2 + X, which no field descriptor can
    have as its modulus. Its inverse in the kernel raises DivisionByZero on
    residues mod 5 and on F_9 table indices alike."""
    fields_module.forget()
    p = 5 if base == "F_5" else make_field(9)._table
    with pytest.raises(DivisionByZero) as err:
        zkernel.zp_invmod([0, 1], [0, 1, 1], p)
    assert isinstance(err.value, ZeroDivisionError)
    fields_module.forget()


def _same_coeffs(got, want):
    """got over a tabled field and want over its untabled twin hold the same
    coefficients, and got's are the interned table elements."""
    assert got.coeffs == want.coeffs
    assert all(c.ix is not None for c in got.coeffs)


def test_polynomial_operations_on_indices_match_the_untabled_twin():
    """Every Polynomial operation over a tabled F_9 runs on table indices;
    over its untabled twin the same operation runs on elements. Both give
    the same coefficients, and so do the product and inverse of a degree-3
    step over each of them. Elements of the twin given to F_9 join its
    table."""
    fields_module.forget()
    F9 = make_field(9)
    twin = untabled_twin(F9)
    rng = random.Random(13)

    def pair(deg):
        coeffs = [random_element(F9, rng) for _ in range(deg)] + [random_unit(F9, rng)]
        return (Polynomial(F9, coeffs),
                Polynomial(twin, [twin_element(twin, c) for c in coeffs]))

    for _ in range(20):
        (f, ft), (g, gt), (m, mt) = pair(rng.randint(0, 7)), pair(rng.randint(0, 4)), pair(3)
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: a // b, lambda a, b: a % b, poly_gcd,
                   lambda a, b: a * b.lc(), lambda a, b: poly_powmod(a, 11, b)):
            _same_coeffs(op(f, g), op(ft, gt))
        _same_coeffs(-f, -ft)
        _same_coeffs(f ** 3, ft ** 3)
        _same_coeffs(f.monic(), ft.monic())
        _same_coeffs(f.derivative(), ft.derivative())
        assert poly_resultant(m, g) == poly_resultant(mt, gt)
    # extension() takes a modulus given over the twin across to F_9 itself;
    # an equal modulus would fetch L again, so the step over the twin is
    # built bare
    L = extension(F9, monic_irreducible(twin, rng, 3))
    Lt = untabled_twin(L)
    assert L.modulus.field is F9 and Lt.base._table is None
    for _ in range(20):
        x, y = random_unit(L, rng), random_unit(L, rng)
        xt, yt = (Lt.element(tuple(twin_element(twin, c) for c in e.rep)) for e in (x, y))
        assert (x * y).rep == (xt * yt).rep
        assert x.inverse().rep == xt.inverse().rep
    assert twin._table is None and L._table is None
    fields_module.forget()
