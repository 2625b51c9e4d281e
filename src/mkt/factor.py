"""Polynomial factorization and irreducibility.

Finite fields (prime fields and their towers): squarefree decomposition
with p-th roots, distinct-degree splitting, then randomized equal-degree
splitting (Cantor and Zassenhaus, Math. Comp. 1981), with the trace map in
characteristic 2. The whole pipeline runs on `zkernel` coefficient lists in
the field's `kernel_kind` (residues mod p, table indices, or the elements of
an untabled step such as F_81), through the public `zp_*` routines; only the
factors it returns become Polynomials. The mod-p step of the rational
pipeline runs on the same lists, and so does the squarefree split over
Q(alpha). The randomness is seeded from the polynomial's own coefficients, so
results are deterministic run to run.

Rationals: one pipeline in Z[x] (Zassenhaus 1969; von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 6 and 15). Clearing denominators gives
a primitive F. Its squarefree part S = F / gcd(F, F') has the gcd found
modulo primes from 2^61 - 1 up, combined by CRT and confirmed by exact
division; S is F itself as soon as one of them gives gcd 1. S is factored
modulo the smallest prime that keeps it squarefree of its degree, and the
factors are lifted to p^k above twice Mignotte's bound: roots by Newton's
iteration, the others by quadratic Hensel steps. Subsets of the lifted
factors are recombined, and a candidate is kept when it divides exactly in
Z[x]. Repeated exact division by each factor gives its multiplicity in F.
Every number tested for primality on the way is far below 3.3 * 10^24,
where `is_prime` is proven exact.

`factor` refuses proper extensions of Q and function fields with
UnsupportedFactorization; only the private `irreducible_factors` splits over
a height-one extension Q(alpha), by Trager's norm method.

`is_irreducible` is `factor` read off: f is irreducible when it is one
factor of multiplicity one. Every place and residue field the transfer
recursion opens is a factor that `factor` has already returned.

Results are memoized in one dict, keyed on the immutable Polynomial: the
transfer recursion factors the same entries and reopens places at the same
factors many times over. Each factor of degree >= 2 that `factor` returns is
recorded as its own factorization, so a later `factor` or `is_irreducible`
on it is one lookup. A key holds its field's descriptor, the one live
object of that field, so an entry answers only over that field. The dict is
emptied when it reaches _MEMO_CAP entries, and by `forget()`; the CLI calls
it before every command, so no command's report depends on an earlier one
in the same process.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from mkt import zkernel
from mkt.errors import UnsupportedFactorization, ZeroPolynomial
from mkt.fields import (
    EXTENSION,
    FUNCTION,
    PRIME,
    RATIONALS,
    FieldDescriptor,
    FieldElement,
    Polynomial,
    coordinates,
    embed_poly,
    kernel_elements,
    kernel_kind,
    kernel_values,
    poly_gcd,
    prime_field,
)
from mkt.linalg import Matrix, cleared, companion_matrix, minpoly_matrix
from mkt.numutil import next_prime
from mkt.towers import multiplication_matrix

# entries in the memo; one CLI command's working set fits well below it
_MEMO_CAP = 4096
# f -> (unit, ((g, m), ...)) of factor(f); seeded with its factors of degree >= 2
_FACTORED: dict[Polynomial, tuple[FieldElement, tuple[tuple[Polynomial, int], ...]]] = {}


def forget() -> None:
    """Empty the memo of `factor` and `is_irreducible`."""
    _FACTORED.clear()


def _remember(f: Polynomial, factored) -> None:
    if len(_FACTORED) >= _MEMO_CAP:
        _FACTORED.clear()
    _FACTORED[f] = factored


def _stable_seed(f: list, fld: FieldDescriptor) -> int:
    """Deterministic seed derived from the kernel values f of a polynomial
    over the finite field fld (hash() is randomized). Each coefficient
    counts as its position in all_elements(fld): its residue or table index,
    or its prime-field coordinates read as base-p digits, lowest first."""
    if kernel_kind(fld) is None:
        p, bottom = fld.characteristic(), fld.tower[0]
        f = [sum(v.rep * p ** i for i, v in enumerate(coordinates(c, bottom))) for c in f]
    acc = 0x9E3779B97F4A7C15
    for v in f:
        acc = (acc * 0x100000001B3 + v + 1) % (1 << 61)
    return acc


def _poly(fld: FieldDescriptor, values: list) -> Polynomial:
    """The polynomial over fld with kernel values `values`."""
    return Polynomial(fld, kernel_elements(fld, values, kernel_kind(fld)))


# -- finite fields -----------------------------------------------------------
#
# Every routine below takes polynomials as zkernel coefficient lists of
# kernel_kind(fld), monic unless said otherwise, and returns them so.

def _pth_root(f: list, fld: FieldDescriptor) -> list:
    """Inverse Frobenius: g with g^p = f; f must have only X^(pi) terms.
    Each coefficient's p-th root is its (q/p)-th power."""
    p, kind = fld.characteristic(), kernel_kind(fld)
    root_exp = fld.order() // p
    return [zkernel.power(c, root_exp, kind) for c in f[::p]]


def _squarefree(f: list, fld: FieldDescriptor) -> list[tuple[list, int]]:
    """Squarefree parts of a monic nonconstant f with their multiplicities,
    over a finite field or Q(alpha); Q has its modular `_squarefree_part`.
    The p-th roots are taken only in characteristic p, where a derivative
    can vanish and a cofactor can remain."""
    p, kind = fld.characteristic(), kernel_kind(fld)
    gcd, div = zkernel.zp_gcd, zkernel.zp_divmod
    d = zkernel.zp_derivative(f, kind)
    if not d:
        return [(g, m * p) for g, m in _squarefree(_pth_root(f, fld), fld)]
    result: list[tuple[list, int]] = []
    c = gcd(f, d, kind)
    w = div(f, c, kind)[0]
    m = 1
    while len(w) > 1:
        y = gcd(w, c, kind)
        z = div(w, y, kind)[0]
        if len(z) > 1:
            result.append((z, m))
        w = y
        c = div(c, y, kind)[0]
        m += 1
    if len(c) > 1:
        result += [(g, mm * p) for g, mm in _squarefree(_pth_root(c, fld), fld)]
    return result


def _distinct_degree(f: list, fld: FieldDescriptor) -> list[tuple[list, int]]:
    """Split a squarefree f into products of same-degree irreducibles."""
    kind, q = kernel_kind(fld), fld.order()
    x = kernel_values(kind, [fld.zero(), fld.one()])
    out = []
    h = zkernel.zp_rem(x, f, kind)
    d = 0
    while len(f) - 1 > 2 * d + 1:
        d += 1
        h = zkernel.zp_powmod(h, q, f, kind)
        g = zkernel.zp_gcd(zkernel.zp_sub(h, x, kind), f, kind)
        if len(g) > 1:
            out.append((g, d))
            f = zkernel.zp_divmod(f, g, kind)[0]
            h = zkernel.zp_rem(h, f, kind)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(f: list, d: int, fld: FieldDescriptor,
                        rng: random.Random) -> list:
    """One nontrivial monic factor of f, where f is a product of >= 2
    irreducibles all of degree d."""
    kind, q = kernel_kind(fld), fld.order()
    n = len(f) - 1
    one = kernel_values(kind, [fld.one()])
    while True:
        a = zkernel.trim(_random_values(fld, n, rng))
        if len(a) < 2:
            continue
        g = zkernel.zp_gcd(a, f, kind)
        if 1 < len(g) <= n:
            return g
        if q % 2 == 1:
            t = zkernel.zp_sub(zkernel.zp_powmod(a, (q ** d - 1) // 2, f, kind), one, kind)
        else:
            # char 2: additive trace map
            t = acc = zkernel.zp_rem(a, f, kind)
            for _ in range(d * _log2_order(q) - 1):
                t = zkernel.zp_mulmod(t, t, f, kind)
                acc = zkernel.zp_add(acc, t, kind)
            t = acc
        g = zkernel.zp_gcd(t, f, kind)
        if 1 < len(g) <= n:
            return g


def _log2_order(q: int) -> int:
    e = q.bit_length() - 1
    assert 1 << e == q
    return e


def _random_element(fld: FieldDescriptor, rng: random.Random) -> FieldElement:
    if fld.kind == PRIME:
        return fld.from_int(rng.randrange(fld.p))
    return fld.element(tuple(_random_element(fld.base, rng)
                             for _ in range(fld.step_degree)))


def _random_values(fld: FieldDescriptor, n: int, rng: random.Random) -> list:
    """n random kernel values of the finite field fld: a residue or table
    index is a position in all_elements(fld)."""
    if kernel_kind(fld) is None:
        return [_random_element(fld, rng) for _ in range(n)]
    q = fld.order()
    return [rng.randrange(q) for _ in range(n)]


def _factor_finite_squarefree(f: list, fld: FieldDescriptor,
                              rng: random.Random) -> list[list]:
    kind = kernel_kind(fld)
    out = []
    for prod, d in _distinct_degree(f, fld):
        stack = [prod]
        while stack:
            g = stack.pop()
            if len(g) - 1 == d:
                out.append(g)
                continue
            h = _equal_degree_split(g, d, fld, rng)
            stack.append(h)
            stack.append(zkernel.zp_divmod(g, h, kind)[0])
    return out


# -- rationals ---------------------------------------------------------------

# the first prime of the modular gcd: the Mersenne prime 2^61 - 1, so no
# search is needed; further ones come from next_prime
_GCD_PRIME = (1 << 61) - 1


def _primitive(ints: list[int]) -> list[int]:
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g == 0:
        return list(ints)
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints]


def _symmetric_lift(ints: list[int], p: int) -> list[int]:
    half = p // 2
    return [v - p if v > half else v for v in ints]


def _derivative(ints: list[int]) -> list[int]:
    return [i * ints[i] for i in range(1, len(ints))]


def _bound(ints: list[int]) -> int:
    """Twice Mignotte's bound 2^n ||f||_2 for f in Z[x] of degree n. For
    every factor h of f in Z[x] of degree m, f = g h, lc(f) h / lc(h) =
    lc(g) h has ||.||_1 <= M(g) 2^m M(h) <= 2^m ||f||_2 (M the Mahler
    measure), so its coefficients are their own symmetric residues modulo
    any larger number."""
    return (math.isqrt(sum(v * v for v in ints)) + 1) << len(ints)


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when b divides a in Z[x], else None; a and b are nonzero."""
    db = len(b) - 1
    if len(a) <= db or (b[0] and a[0] % b[0]):
        return None
    lead = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[db + k], lead)
        if rest:
            return None
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    return None if any(r[:db]) else q


def _squarefree_mod(ints: list[int], p: int) -> bool:
    """Whether f mod p keeps the degree of f and is squarefree; then f is
    squarefree over Q too."""
    if ints[-1] % p == 0:
        return False
    dp = zkernel.trim([v % p for v in _derivative(ints)])
    return len(zkernel.zp_gcd([v % p for v in ints], dp, p)) == 1


def _squarefree_part(ints: list[int]) -> list[int]:
    """f / gcd(f, f') for a primitive f in Z[x] with lc(f) > 0.

    The gcd g is found modulo primes p from 2^61 - 1 up: lc(f) times the
    monic gcd modulo p, over the primes of least gcd degree so far, is
    combined by CRT until the modulus passes `_bound(f)`, which also bounds
    lc(f) g / lc(g). Its primitive part is g when it divides f and f'
    exactly; otherwise each of those primes was unlucky, and the search goes
    on below that degree.
    """
    d = _derivative(ints)
    lead, bound = ints[-1], _bound(ints)
    most = len(d)  # the gcd has at most this many coefficients
    acc, modulus = None, 1
    q = _GCD_PRIME
    while True:
        if lead % q:
            g = zkernel.zp_gcd([v % q for v in ints], zkernel.trim([v % q for v in d]), q)
            if len(g) == 1:
                return ints
            if len(g) <= most and (acc is None or len(g) <= len(acc)):
                g = zkernel.zp_scale(g, lead % q, q)
                if acc is None or len(g) < len(acc):
                    acc, modulus = g, q
                else:
                    inv = pow(modulus, -1, q)
                    acc = [a + modulus * ((b - a) * inv % q) for a, b in zip(acc, g)]
                    modulus *= q
                if modulus > bound:
                    g = _primitive(_symmetric_lift(acc, modulus))
                    quot = _exact_quotient(ints, g)
                    if quot is not None and _exact_quotient(d, g) is not None:
                        return quot
                    acc, most = None, len(g) - 1
        q = next_prime(q)


def _evaluate(ints: list[int], a: int, m: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * a + c) % m
    return acc


def _lift_tree(f: list[int], factors: list[list[int]], p: int,
               moduli: list[int]) -> list[list[int]]:
    """The monic factors modulo moduli[-1] of a monic f that reduce to the
    coprime monic `factors` of f modulo p, by quadratic Hensel steps down a
    balanced factor tree (von zur Gathen and Gerhard, Algorithm 15.10)."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g, h = [1], [1]
    for u in factors[:half]:
        g = zkernel.zp_mul(g, u, p)
    for u in factors[half:]:
        h = zkernel.zp_mul(h, u, p)
    mul, add, sub, div = zkernel.zp_mul, zkernel.zp_add, zkernel.zp_sub, zkernel.zp_divmod
    # s g + t h = 1 modulo p, deg s < deg h and deg t < deg g
    s = zkernel.zp_invmod(g, h, p)
    t = div(sub([1], mul(s, g, p), p), h, p)[0]
    for m in moduli[1:]:
        # f = g h and s g + t h = 1 modulo the modulus before m, whose square
        # m divides; only the monic h is divided by, so m may be composite
        e = sub(f, mul(g, h, m), m)
        quo, rem = div(mul(s, e, m), h, m)
        g = add(g, add(mul(t, e, m), mul(quo, g, m), m), m)
        h = add(h, rem, m)
        if m != moduli[-1]:
            b = sub(add(mul(s, g, m), mul(t, h, m), m), [1], m)
            c, r = div(mul(s, b, m), h, m)
            s = sub(s, r, m)
            t = sub(t, add(mul(t, b, m), mul(c, g, m), m), m)
    return _lift_tree(g, factors[:half], p, moduli) + _lift_tree(h, factors[half:], p, moduli)


def _hensel_lift(ints: list[int], modular: list[list[int]], p: int, k: int) -> list[list[int]]:
    """The monic factors modulo p^k of f in Z[x] that reduce to its monic
    factors `modular` modulo p, f mod p squarefree of the degree of f. Each
    linear factor's root lifts by Newton's iteration; the product of the
    others is f over the lifted linear factors, and lifts to them by
    quadratic Hensel steps."""
    exponents = [k]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    # p, ..., p^k, each dividing the square of the one before
    moduli = [p ** e for e in reversed(exponents)]
    P = moduli[-1]
    d = _derivative(ints)
    roots = []
    for u in modular:
        if len(u) == 2:
            a = -u[0] % p
            for m in moduli[1:]:
                a = (a - _evaluate(ints, a, m) * pow(_evaluate(d, a, m), -1, m)) % m
            roots.append(a)
    lifted = [[-a % P, 1] for a in roots]
    others = [u for u in modular if len(u) > 2]
    if others:
        rest = zkernel.zp_scale([v % P for v in ints], pow(ints[-1], -1, P), P)
        for a in roots:
            rest = zkernel.zp_divmod(rest, [-a % P, 1], P)[0]
        lifted += _lift_tree(rest, others, p, moduli)
    return lifted


def _recombine(ints: list[int], lifted: list[list[int]], P: int) -> list[list[int]]:
    """The irreducible factors in Z[x] of a primitive squarefree f, from its
    monic factors modulo P > `_bound(f)`: Zassenhaus's search over subsets of
    the factors, smallest first, each candidate lc(g) times their product in
    symmetric residues and kept when it divides g exactly."""
    found = []
    g, pool = ints, lifted
    s = 1
    while 2 * s <= len(pool):
        for combo in combinations(range(len(pool)), s):
            cand = [g[-1] % P]
            for i in combo:
                cand = zkernel.zp_mul(cand, pool[i], P)
            h = _primitive(_symmetric_lift(cand, P))
            quot = _exact_quotient(g, h)
            if quot is not None:
                break
        else:
            s += 1
            continue
        found.append(h)
        g = quot
        pool = [u for i, u in enumerate(pool) if i not in combo]
    found.append(g)
    return found


def _factor_z(ints: list[int], p: int) -> list[list[int]]:
    """The irreducible factors in Z[x] of a primitive squarefree f of degree
    >= 2 that stays squarefree of its degree modulo the prime p."""
    Fp = prime_field(p)
    fp = zkernel.zp_scale([v % p for v in ints], zkernel.inverse(ints[-1] % p, p), p)
    modular = _factor_finite_squarefree(fp, Fp, random.Random(_stable_seed(fp, Fp)))
    if len(modular) == 1:
        return [ints]
    bound = _bound(ints)
    P, k = p, 1
    while P <= bound:
        P, k = P * p, k + 1
    return _recombine(ints, _hensel_lift(ints, modular, p, k), P)


def _factor_q(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """The monic irreducible factors over Q of a monic f of degree >= 2,
    with their multiplicities."""
    ints = _primitive(cleared([c.rep for c in f.coeffs])[0])
    part, p = _squarefree_part(ints), 2
    while len(part) > 2 and not _squarefree_mod(part, p):
        p = next_prime(p)
    factors = [part] if len(part) == 2 else _factor_z(part, p)
    squarefree = part is ints
    out = []
    for h in factors:
        mult = 1
        if not squarefree:
            # h divides f; count how often
            ints = _exact_quotient(ints, h)
            while (quot := _exact_quotient(ints, h)) is not None:
                ints, mult = quot, mult + 1
        out.append((Polynomial(f.field, [Fraction(v) for v in h]).monic(), mult))
    return out


# -- public interface --------------------------------------------------------

def factor(f: Polynomial) -> tuple[FieldElement, list[tuple[Polynomial, int]]]:
    """Factor f as unit * prod(g_i^m_i) with g_i monic irreducible.

    The reconstruction is exact. Factors are sorted by (degree, coefficient
    key). Supported coefficient fields: finite fields and Q.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    fld = f.field
    if fld.kind == FUNCTION or (fld.kind == EXTENSION and not fld.is_finite()):
        raise UnsupportedFactorization(f"factorization over {fld} is not supported")
    known = _FACTORED.get(f)
    if known is not None:
        return known[0], list(known[1])
    unit = f.lc()
    if f.degree == 0:
        return unit, []
    fm = f.monic()
    out: list[tuple[Polynomial, int]] = []
    if f.degree == 1:
        out.append((fm, 1))
    elif fld.kind == RATIONALS:
        out = _factor_q(fm)
    else:
        values = kernel_values(kernel_kind(fld), fm.coeffs)
        rng = random.Random(_stable_seed(values, fld))
        for part, mult in _squarefree(values, fld):
            for g in _factor_finite_squarefree(part, fld, rng):
                out.append((_poly(fld, g), mult))
    out.sort(key=lambda pair: pair[0].coeff_key())
    _remember(f, (unit, tuple(out)))
    for g, _m in out:
        if g.degree >= 2:
            _remember(g, (g.lc(), ((g, 1),)))
    return unit, out


def irreducible_factors(m: Polynomial) -> list[Polynomial]:
    """The irreducible factors of a monic m, each repeated by its exponent.

    Over Q and finite fields they come from `factor`. Over a height-one
    extension L = Q(alpha) Trager's method splits each squarefree part g of
    degree >= 2: for the first s = 0, 1, 2, ... with N = Norm(g(x - s alpha))
    squarefree, the factors of g are gcd(g, h(x + s alpha)), h over the
    factors of N over Q.
    """
    L = m.field
    if L.kind != EXTENSION or L.is_finite():
        return [g for g, e in factor(m)[1] for _ in range(e)]
    if m.degree == 1:
        return [m]
    return [f for g, e in _squarefree(kernel_values(kernel_kind(L), m.coeffs), L)
            for f in (_trager(_poly(L, g)) if len(g) > 2 else [_poly(L, g)])
            for _ in range(e)]


def _trager(g: Polynomial) -> list[Polynomial]:
    """The monic irreducible factors of a squarefree g over L = Q(alpha)."""
    L, Q = g.field, g.field.base
    s = 0
    while True:
        # g is squarefree, so the companion of g(x - s alpha) flattened to
        # Q-blocks is semisimple: its minimal polynomial is N iff of full degree
        blocks = [[multiplication_matrix(x, Q).rows for x in row]
                  for row in companion_matrix(_shift(g, -L.gen() * s)).rows]
        flat = Matrix(Q, [[y for blk in brow for y in blk[i]]
                          for brow in blocks for i in range(L.step_degree)])
        norm = minpoly_matrix(flat)
        if norm.degree == flat.nrows:
            return [poly_gcd(g, _shift(embed_poly(h, L), L.gen() * s)) for h, _ in factor(norm)[1]]
        s += 1


def _shift(f: Polynomial, c: FieldElement) -> Polynomial:
    """f(x + c), by Horner."""
    acc = Polynomial.zero(f.field)
    for a in reversed(f.coeffs):
        acc = acc * Polynomial(f.field, [c, f.field.one()]) + a
    return acc


def is_irreducible(f: Polynomial) -> bool:
    """Irreducibility: f is one factor of `factor`, which refuses the fields
    it does not support. A linear f is irreducible over any field."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is not irreducible")
    if f.degree == 0:
        return False
    if f.degree == 1:
        return True
    _, parts = factor(f)
    return len(parts) == 1 and parts[0][1] == 1
