"""Dense schoolbook polynomial arithmetic: the one polynomial kernel.

Polynomials are coefficient lists, coefficient of X^i at index i, no
trailing zeros; the zero polynomial is the empty list. Every routine takes
the coefficient kind `p` last, and the caller always passes it. There are
three kinds:

  * p a prime int: coefficients are ints in [0, p). Sums of products are
    carried exactly in Python ints and reduced once per output coefficient.
  * p None: coefficients are elements of one field. Their truth test means
    nonzero, and `.inverse()` gives the inverse of a nonzero one.
  * p a field table (any other object): coefficients are indices into it,
    0 for zero and 1 for one, and the table's `add`, `mul`, `neg` and `inv`
    lists give the index of a sum, product, negative and inverse.

`fields` passes the kind of the coefficient field: its p over a prime
field, its table over a tabled finite field, None over any other. So
polynomials over every field, and the elements of every extension step, run
through this one code path.

The public `zp_*` names are the kernel's boundary. The routines call each
other only through their private names, so a tracer that rebinds `zp_*`
counts the calls into the kernel, not its internal steps; no other module
calls a private routine (tests/test_imports.py checks it), so no call into
the kernel goes uncounted. `fields` makes every polynomial operation one
`zp_*` call, and `factor` and `valuations` run their finite-field factoring
and trial divisions on coefficient lists through the same names, wrapping
only their results.

`linalg` computes off Q through `inverse`, `negate`, `add_multiple`,
`scaled` and `dots`, and `factor` takes a coefficient's p-th root through
`power`, outside the `zp_` prefix: kernel counts stay counts of polynomial
calls.
"""

from __future__ import annotations

from operator import mul

from mkt.errors import DivisionByZero


def backend_name() -> str:
    """Name of the polynomial kernel, recorded by benchmark runs."""
    return "pure"


def trim(a: list) -> list:
    """Drop the trailing zero coefficients of a in place; return a."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    del a[n:]
    return a


def _tabled(p) -> bool:
    return p is not None and p.__class__ is not int


def _reduce(out: list, p) -> list:
    if p:
        out = [c % p for c in out]
    return trim(out)


def inverse(c, p):
    if p is None:
        return c.inverse()
    if p.__class__ is int:
        return pow(c, p - 2, p)
    return p.inv[c]


def power(c, e: int, p):
    """c^e of one coefficient, for e >= 0."""
    if p is None:
        return c ** e
    if p.__class__ is int:
        return pow(c, e, p)
    mul = p.mul
    result = 1
    while e:
        if e & 1:
            result = mul[result][c]
        c = mul[c][c]
        e >>= 1
    return result


def _times(x, y, p):
    """The product of two coefficients."""
    if p is None:
        return x * y
    if p.__class__ is int:
        return x * y % p
    return p.mul[x][y]


def negate(x, p):
    if p is None:
        return -x
    if p.__class__ is int:
        return -x % p
    return p.neg[x]


def _add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    if _tabled(p):
        add = p.add
        out = [add[x][y] for x, y in zip(a, b)]
    else:
        out = [x + y for x, y in zip(a, b)]
        if p:
            out = [c % p for c in out]
    out += a[len(b):]
    return trim(out)


def _sub(a, b, p):
    n = min(len(a), len(b))
    if _tabled(p):
        add, neg = p.add, p.neg
        out = [add[x][neg[y]] for x, y in zip(a, b)]
        out += a[n:]
        out += [neg[y] for y in b[n:]]
        return trim(out)
    out = [x - y for x, y in zip(a, b)]
    out += a[n:]
    out += [-y for y in b[n:]]
    return _reduce(out, p)


def _scale(a, c, p):
    return trim(scaled(a, c, p))


def _mul(a, b, p):
    if not a or not b:
        return []
    if _tabled(p):
        add, mul = p.add, p.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b, i):
                    out[j] = add[out[j]][row[y]]
        return trim(out)
    zero = a[0] - a[0]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _reduce(out, p)


def _divmod(a, b, p):
    """(quotient, remainder) of a by b; raises DivisionByZero when b = 0."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], list(a)
    if _tabled(p):
        return _divmod_indices(a, b, p)
    inv_lead = inverse(b[db], p)
    r = list(a)
    q = [None] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        if p:
            c %= p
        if c:
            c = c * inv_lead % p if p else c * inv_lead
            # r[db + k] cancels exactly and is never read again
            for i in range(db):
                r[i + k] -= c * b[i]
        q[k] = c
    return trim(q), _reduce(r[:db], p)


def _divmod_indices(a, b, t):
    db, da = len(b) - 1, len(a) - 1
    add, mul, neg = t.add, t.mul, t.neg
    inv_lead = t.inv[b[db]]
    minus_b = [neg[y] for y in b[:db]]
    r = list(a)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        if c:
            c = q[k] = mul[c][inv_lead]
            row = mul[c]
            # r[db + k] cancels exactly and is never read again
            for i, y in enumerate(minus_b, k):
                r[i] = add[r[i]][row[y]]
    return trim(q), trim(r[:db])


def _rem(a, b, p):
    return _divmod(a, b, p)[1]


def _gcd(a, b, p):
    """Monic gcd; the gcd of 0 and 0 is 0."""
    while b:
        a, b = b, _rem(a, b, p)
    if not a:
        return []
    return _scale(a, inverse(a[-1], p), p)


def _invmod(a, f, p):
    """Inverse of a modulo f; raises DivisionByZero if gcd(a, f) != 1."""
    r0, r1 = f, _rem(a, f, p)
    if not r1:
        raise DivisionByZero("element not invertible modulo f")
    # Bezout cofactors scaled by c = lc(r1): s_i * a = c * r_i (mod f)
    c = r1[-1]
    s0, s1 = [], [c]
    while r1:
        q, r2 = _divmod(r0, r1, p)
        r0, r1 = r1, r2
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
    if len(r0) != 1:
        raise DivisionByZero("element not invertible modulo f")
    return _scale(s0, inverse(_times(r0[0], c, p), p), p)


def _mulmod(a, b, f, p):
    return _rem(_mul(a, b, p), f, p)


def _powmod(a, e: int, f, p):
    """a^e mod f for e >= 0."""
    base = _rem(a, f, p)
    result = None
    while e:
        if e & 1:
            result = base if result is None else _mulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, f, p)
    if result is None:
        # e = 0; x ** 0 is the one of x's kind (index 1 is a table's one)
        return _rem([f[-1] ** 0], f, p)
    return result


def _derivative(a, p):
    """The formal derivative of a. The integer i is i-fold 1 + ... + 1 in
    the coefficients' own arithmetic, so it is i mod p in characteristic p."""
    if p is None:
        return trim([a[i] * i for i in range(1, len(a))])
    if p.__class__ is int:
        return trim([i * a[i] % p for i in range(1, len(a))])
    add, mul = p.add, p.mul
    out, i = [], 0  # i: the table index of the integer's image
    for c in a[1:]:
        i = add[i][1]
        out.append(mul[i][c])
    return trim(out)


def _resultant(a, b, p):
    """Res(a, b) of nonzero a and b: lc(a)^deg(b) times the product of b
    over the roots of a, so N(b(x)) = Res(a, b) in k[x]/(a) for a monic.

    Euclid's algorithm, with r = a mod b:
    Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * Res(b, r),
    and Res(a, c) = c^deg(a) for a constant c.
    """
    acc = a[-1] ** 0  # the one of a's kind
    while len(b) > 1:
        r = _rem(a, b, p)
        if not r:
            return acc - acc  # the zero of a's kind
        if (len(a) - 1) * (len(b) - 1) & 1:
            acc = negate(acc, p)
        for _ in range(len(a) - len(r)):
            acc = _times(acc, b[-1], p)
        a, b = b, r
    for _ in range(len(a) - 1):
        acc = _times(acc, b[0], p)
    return acc


def add_multiple(w: list, f, row, p) -> list:
    """w + f * row, entry by entry, as long as the shorter of w and row."""
    if p is None:
        return [a + f * b for a, b in zip(w, row)]
    if p.__class__ is int:
        return [(a + f * b) % p for a, b in zip(w, row)]
    add, mf = p.add, p.mul[f]
    return [add[a][mf[b]] for a, b in zip(w, row)]


def scaled(row, s, p) -> list:
    """s * row, entry by entry (no trailing zeros are dropped)."""
    if p is None:
        return [s * b for b in row]
    if p.__class__ is int:
        return [s * b % p for b in row]
    ms = p.mul[s]
    return [ms[b] for b in row]


def dots(rows, v, p) -> list:
    """The dot product of each of rows with v; with p None, v is not empty."""
    if p is None:
        zero = v[0] - v[0]
        return [sum(map(mul, r, v), zero) for r in rows]
    if p.__class__ is int:
        return [sum(map(mul, r, v)) % p for r in rows]
    add = p.add
    # multiplication is commutative: mul[v_k][a] is a * v_k
    muls = [p.mul[x] for x in v]
    out = []
    for r in rows:
        acc = 0
        for a, mx in zip(r, muls):
            acc = add[acc][mx[a]]
        out.append(acc)
    return out


zp_add = _add
zp_sub = _sub
zp_scale = _scale
zp_mul = _mul
zp_divmod = _divmod
zp_rem = _rem
zp_gcd = _gcd
zp_invmod = _invmod
zp_mulmod = _mulmod
zp_powmod = _powmod
zp_resultant = _resultant
zp_derivative = _derivative
