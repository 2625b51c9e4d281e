"""Polynomial factorization and irreducibility.

Finite fields (prime fields and their towers): squarefree decomposition,
distinct-degree splitting, then randomized equal-degree splitting. The
randomness is seeded from the polynomial's own coefficients, so results are
deterministic run to run.

Rationals: one pipeline in Z[x] (Zassenhaus 1969; von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 6 and 15). Clearing denominators gives
a primitive F. Its squarefree part S is F itself when F mod p is squarefree
for the first prime p not dividing lc(F); otherwise S = F / gcd(F, F'), the
gcd found modulo word-size primes, combined by CRT and confirmed by exact
division. S is factored modulo the smallest prime that keeps it squarefree
of its degree, and the factors are lifted to p^k above twice Mignotte's
bound: roots by Newton's iteration, the others by quadratic Hensel steps.
Subsets of the lifted factors are recombined, and a candidate is kept when
it divides exactly in Z[x]. Repeated exact division by each factor gives its
multiplicity in F. Every number tested for primality on the way is far
below 3.3 * 10^24, where `is_prime` is proven exact.

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
    poly_gcd,
    poly_powmod,
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


def _stable_seed(f: Polynomial) -> int:
    """Deterministic seed derived from coefficients (hash() is randomized)."""
    acc = 0x9E3779B97F4A7C15
    prime_base = f.field.tower[0]
    for c in f.coeffs:
        for v in coordinates(c, prime_base):
            acc = (acc * 0x100000001B3 + v.rep + 1) % (1 << 61)
    return acc


# -- finite fields -----------------------------------------------------------

def _pth_root_poly(f: Polynomial) -> Polynomial:
    """Inverse Frobenius: g with g^p = f; f must have only X^(pi) terms."""
    fld = f.field
    p = fld.characteristic()
    q = fld.order()
    root_exp = q // p
    out = []
    for i in range(0, f.degree + 1, p):
        c = f.coeffs[i] if i <= f.degree else fld.zero()
        out.append(c ** root_exp)
    return Polynomial(fld, out)


def _squarefree(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Squarefree parts of a monic nonconstant f with their multiplicities,
    over a finite field or Q(alpha); Q has its modular `_squarefree_part`.
    The p-th roots are taken only in characteristic p, where a derivative
    can vanish and a cofactor can remain."""
    p = f.field.characteristic()
    result: list[tuple[Polynomial, int]] = []
    d = f.derivative()
    if d.is_zero():
        for g, m in _squarefree(_pth_root_poly(f)):
            result.append((g, m * p))
        return result
    c = poly_gcd(f, d)
    w = f // c
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            result.append((z, m))
        w = y
        c = c // y
        m += 1
    if c.degree > 0:
        for g, mm in _squarefree(_pth_root_poly(c)):
            result.append((g, mm * p))
    return result


def _distinct_degree(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Split monic squarefree f into products of same-degree irreducibles."""
    fld = f.field
    q = fld.order()
    out = []
    h = Polynomial.x(fld) % f
    x = Polynomial.x(fld)
    d = 0
    while f.degree > 2 * (d + 1) - 1 and f.degree > 0:
        d += 1
        h = poly_powmod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree_split(f: Polynomial, d: int, rng: random.Random) -> Polynomial:
    """One nontrivial monic factor of f, where f is a product of >= 2
    irreducibles all of degree d."""
    fld = f.field
    q = fld.order()
    n = f.degree
    while True:
        a = Polynomial(fld, [_random_element(fld, rng) for _ in range(n)])
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < n:
            return g.monic()
        if q % 2 == 1:
            t = poly_powmod(a, (q ** d - 1) // 2, f) - Polynomial.one(fld)
        else:
            # char 2: additive trace map
            e = d * _log2_order(q)
            t = a % f
            acc = t
            for _ in range(e - 1):
                t = t * t % f
                acc = (acc + t) % f
            t = acc
        g = poly_gcd(t, f)
        if 0 < g.degree < n:
            return g.monic()


def _log2_order(q: int) -> int:
    e = q.bit_length() - 1
    assert 1 << e == q
    return e


def _random_element(fld: FieldDescriptor, rng: random.Random) -> FieldElement:
    if fld.kind == PRIME:
        return fld.from_int(rng.randrange(fld.p))
    return fld.element(tuple(_random_element(fld.base, rng)
                             for _ in range(fld.step_degree)))


def _factor_finite_squarefree(f: Polynomial, rng: random.Random) -> list[Polynomial]:
    out = []
    for prod, d in _distinct_degree(f):
        stack = [prod]
        while stack:
            g = stack.pop()
            if g.degree == d:
                out.append(g.monic())
                continue
            h = _equal_degree_split(g, d, rng)
            stack.append(h)
            stack.append(g // h)
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
    fp = Polynomial.from_ints(Fp, ints).monic()
    modular = _factor_finite_squarefree(fp, random.Random(_stable_seed(fp)))
    if len(modular) == 1:
        return [ints]
    bound = _bound(ints)
    P, k = p, 1
    while P <= bound:
        P, k = P * p, k + 1
    residues = [[c.rep for c in u.coeffs] for u in modular]
    return _recombine(ints, _hensel_lift(ints, residues, p, k), P)


def _factor_q(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """The monic irreducible factors over Q of a monic f of degree >= 2,
    with their multiplicities."""
    ints = _primitive(cleared([c.rep for c in f.coeffs])[0])
    p = 2
    while ints[-1] % p == 0:
        p = next_prime(p)
    if _squarefree_mod(ints, p):
        part = ints
    else:
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
        rng = random.Random(_stable_seed(fm))
        for part, mult in _squarefree(fm):
            for g in _factor_finite_squarefree(part, rng):
                out.append((g, mult))
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
    return [f for g, e in _squarefree(m)
            for f in (_trager(g) if g.degree > 1 else [g]) for _ in range(e)]


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
    """Irreducibility over finite fields and Q: f is one factor of `factor`."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is not irreducible")
    if f.degree == 0:
        return False
    if f.degree == 1:
        return True
    fld = f.field
    if not fld.is_finite() and fld.kind != RATIONALS:
        raise UnsupportedFactorization(f"irreducibility over {fld} is not supported")
    _, parts = factor(f)
    return len(parts) == 1 and parts[0][1] == 1
