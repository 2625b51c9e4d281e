"""Dense polynomial arithmetic over Z/p: the mod-p kernel.

Polynomials are lists of ints, coefficient of X^i at index i, no trailing
zeros, every value in [0, p). The zero polynomial is the empty list. Any
prime p is accepted; Python ints carry the products exactly.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the mod-p kernel, recorded by benchmark runs."""
    return "pure"


def trim(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def zp_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def zp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x - y) % p
    return trim(out)


def zp_scale(a, c, p):
    c %= p
    if c == 0:
        return []
    return trim([x * c % p for x in a])


def zp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def zp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], trim(r)
    inv_lead = pow(b[db], p - 2, p) if p > 2 else b[db]
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k] % p
        if c:
            c = c * inv_lead % p
            q[k] = c
            for i in range(db + 1):
                r[i + k] = (r[i + k] - c * b[i]) % p
    return trim(q), trim(r)


def zp_rem(a, b, p):
    return zp_divmod(a, b, p)[1]


def zp_gcd(a, b, p):
    """Monic gcd; zp_gcd(0, 0) = 0."""
    a, b = list(a), list(b)
    while b:
        a, b = b, zp_rem(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p) if p > 2 else a[-1]
        a = [c * inv % p for c in a]
    return a


def zp_invmod(a, f, p):
    """Inverse of a modulo f; raises ZeroDivisionError if gcd(a, f) != 1."""
    r0, r1 = list(f), zp_rem(a, f, p)
    s0, s1 = [], [1]
    while r1:
        q, r2 = zp_divmod(r0, r1, p)
        r0, r1 = r1, r2
        s0, s1 = s1, zp_sub(s0, zp_mul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo f")
    inv = pow(r0[0], p - 2, p) if p > 2 else r0[0]
    return zp_scale(s0, inv, p)


def zp_mulmod(a, b, f, p):
    return zp_rem(zp_mul(a, b, p), f, p)


def zp_powmod(a, e: int, f, p):
    """a^e mod f for e >= 0."""
    result = zp_rem([1], f, p)
    base = zp_rem(a, f, p)
    while e:
        if e & 1:
            result = zp_mulmod(result, base, f, p)
        base = zp_mulmod(base, base, f, p)
        e >>= 1
    return result
