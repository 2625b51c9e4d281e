"""Integer primitives: primality, next prime, integer factorization, p-adic
splitting.

Deterministic Miller-Rabin on the primes up to 41 is exact below
PROVEN_PRIME_BOUND = psi_13 (Sorenson and Webster, Math. Comp. 2017), the
least strong pseudoprime to all of them; psi_12 = 318665857834031151167461
is a strong pseudoprime to the primes up to 37. The CLI refuses every prime
it reads at or above the bound. Pollard rho handles composite splitting at
desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction

# the Miller-Rabin bases, which are also the trial divisors
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: is_prime is exact below it, and only probable from it on
PROVEN_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_power(m: int, p: int) -> tuple[int, int]:
    """(n, m // p**n) for m != 0, p**n the highest power of p dividing m."""
    n = 0
    while m % p == 0:
        m //= p
        n += 1
    return n, m


def split_rational(q: Fraction, p: int) -> tuple[int, int, int]:
    """(n, a, b) for a nonzero Fraction q = p**n * a / b, with p dividing
    neither a nor b and q's sign on a."""
    n, a = split_power(q.numerator, p)
    k, b = split_power(q.denominator, p)
    return n - k, a, b


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power check needed by caller
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        x = seed
        y = seed
        c = seed | 1
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, d) with q = p^d and p prime, or None, for q >= 2. Each d <= log2 q
    is tried through the integer part r of the d-th root: no factoring."""
    for d in range(1, q.bit_length()):
        # Newton's method from above, starting at 2^ceil(bits / d) > r
        r = 1 << -(-q.bit_length() // d)
        while (s := ((d - 1) * r + q // r ** (d - 1)) // d) < r:
            r = s
        if r ** d == q and is_prime(r):
            return r, d
    return None


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factor_int expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out
