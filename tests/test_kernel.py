"""The mod-p polynomial kernel on randomized inputs over small and large primes.

Every prime goes through the same pure-Python kernel; the checks are algebraic
identities, so no second implementation is needed as an oracle.
"""

import random

import pytest

from mkt import zkernel

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


def test_backend_reported():
    assert zkernel.backend_name() == "pure"


def rand_poly(rng, p, max_deg=8):
    # canonical form: no trailing zeros (the kernel assumes trimmed input)
    a = [rng.randint(0, p - 1) for _ in range(rng.randint(0, max_deg))]
    while a and a[-1] == 0:
        a.pop()
    return a


def test_gcd_is_monic_and_divides():
    rng = random.Random(3)
    for p in PRIMES:
        for _ in range(40):
            a, b = rand_poly(rng, p), rand_poly(rng, p)
            if b:
                q, r = zkernel.zp_divmod(a, b, p)
                assert zkernel.zp_add(zkernel.zp_mul(q, b, p), r, p) == a
                assert len(r) < len(b)
                assert zkernel.zp_rem(a, b, p) == r
            g = zkernel.zp_gcd(a, b, p)
            if g:
                assert g[-1] == 1
                if any(a):
                    assert not any(zkernel.zp_rem(a, g, p))
                if any(b):
                    assert not any(zkernel.zp_rem(b, g, p))
            else:
                assert not a and not b


@pytest.mark.parametrize("p", PRIMES)
def test_modular_inverse_and_power(p):
    rng = random.Random(p)
    f = IRREDUCIBLE[p]
    deg = len(f) - 1
    for _ in range(30):
        a = rand_poly(rng, p, deg)
        if a:
            inv = zkernel.zp_invmod(a, f, p)
            assert len(inv) <= deg
            assert zkernel.zp_mulmod(inv, a, f, p) == [1]
        power = [1]
        for e in range(12):
            assert zkernel.zp_powmod(a, e, f, p) == power
            power = zkernel.zp_mulmod(power, a, f, p)


def test_inverse_of_a_zero_divisor_raises():
    # X is a factor of X^2 + X over F_5
    with pytest.raises(ZeroDivisionError):
        zkernel.zp_invmod([0, 1], [0, 1, 1], 5)
