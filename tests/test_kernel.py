"""The polynomial kernel on both of its coefficient kinds.

Residue ints with their prime p, and lists of field elements with p None
(Q, F_9 before and after its table, F_81 over F_9, F_16), go through the
same routines. The checks are algebraic identities, so no second
implementation is needed as an oracle.
"""

import random
import sys

import pytest

from mkt import zkernel
from mkt.errors import DivisionByZero
from mkt.fields import Polynomial, extension, prime_field, rationals
from mkt.sampling import monic_irreducible, random_element
from tests.conftest import f81_over_f9, make_field, table_of, untabled_twin

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


def _f9_with_table():
    F9 = make_field(9)
    table_of(F9)
    return F9


# each builds its coefficient kind inside the test, after the caches are reset;
# the residue kinds are named by their prime
KINDS = {str(p): (lambda p=p: Residues(p)) for p in PRIMES}
KINDS.update({
    "Q": lambda: Elements(rationals()),
    "F_9-coefficients": lambda: Elements(untabled_twin(make_field(9))),
    "F_9-table": lambda: Elements(_f9_with_table()),
    "F_81/F_9": lambda: Elements(f81_over_f9()),
    "F_16": lambda: Elements(make_field(16)),
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
    """The class of X in k[x]/(X^2 + X), built without the irreducibility
    check, is a zero divisor. Its inverse raises DivisionByZero over a prime
    base and over an extension base alike."""
    fields_module.forget()
    k = prime_field(5) if base == "F_5" else make_field(9)
    L = extension(k, Polynomial(k, [k.zero(), k.one(), k.one()]), check=False)
    with pytest.raises(DivisionByZero) as err:
        L.gen().inverse()
    assert isinstance(err.value, ZeroDivisionError)
    fields_module.forget()
